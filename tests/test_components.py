import math
import re

import pytest

from availkit import (
    FORMS,
    Component,
    Probability,
    derive_environment,
    mean_down_time,
)

MAINT = dict(mttres_h=2.0, mldt_h=4.0, madt_h=1.0, pnrs=0.99, tat_h=168.0)


class TestConstruction:
    def test_direct(self):
        c = Component("db", {"availability": 0.995})
        assert c.fields == {"availability": 0.995}
        assert float(c.replace().availability) == 0.995

    def test_from_mtbf_mdt(self):
        c = Component("srv", {"mtbf_h": 1000.0, "mdt_h": 10.0})
        assert list(c.fields) == ["mtbf_h", "mdt_h"]
        assert float(c.replace().availability) == 1000.0 / 1010.0

    def test_from_maintainability(self):
        c = Component("srv", {"mtbf_h": 100000.0, **MAINT})
        assert FORMS[tuple(c.fields)] == "mtbf/maintainability"
        a = float(c.replace().availability)
        assert abs(a - 100000.0 / 100008.68) < 1e-16

    def test_fields_are_floats_in_file_order(self):
        c = Component("srv", {"tat_h": 168, "pnrs": 1, "madt_h": 1, "mldt_h": 4,
                              "mttres_h": 2, "mtbf_h": 100000})
        assert list(c.fields) == ["mtbf_h", "mttres_h", "mldt_h", "madt_h", "pnrs", "tat_h"]
        assert [type(v) for v in c.fields.values()] == [float] * 6
        assert c == Component("srv", {"mtbf_h": 1e5, "mttres_h": 2.0, "mldt_h": 4.0,
                                      "madt_h": 1.0, "pnrs": 1.0, "tat_h": 168.0})

    def test_rejects_empty_id(self):
        with pytest.raises(ValueError):
            Component("", {"availability": 0.9})

    def test_bad_numbers_fail_at_construction_with_id(self):
        with pytest.raises(ValueError, match="'srv'"):
            Component("srv", {"mtbf_h": -5.0, "mdt_h": 1.0})
        with pytest.raises(ValueError, match="'db'"):
            Component("db", {"availability": 1.5})

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"availability": 1.5}, "availability 1.5 out of [0, 1]"),
            ({"availability": math.nan}, "availability nan out of [0, 1]"),
            ({"mtbf_h": 0.0, "mdt_h": 1.0}, "mtbf_h must be a finite value > 0, got 0.0"),
            ({"mtbf_h": 10.0, "mdt_h": -1.0}, "mdt_h must be a finite value >= 0, got -1.0"),
            ({"mtbf_h": 1.0, **MAINT, "tat_h": -0.5}, "tat_h must be a finite value >= 0, got -0.5"),
            ({"mtbf_h": 1.0, **MAINT, "pnrs": 2}, "pnrs 2.0 out of [0, 1]"),
            ({"mtbf_h": 1.0, **MAINT, "pnrs": math.nan}, "pnrs nan out of [0, 1]"),
        ],
    )
    def test_a_value_out_of_range_is_check_fields_message(self, fields, message):
        with pytest.raises(ValueError, match=f"^component 'c': {re.escape(message)}$"):
            Component("c", fields)

    @pytest.mark.parametrize(
        "fields",
        [{}, {"mdt_h": 1.0}, {"availability": 0.9, "mtbf_h": 1.0}, {"bogus": 1.0},
         {"mtbf_h": 1.0, "mdt_h": 1.0, "pnrs": 0.5}],
    )
    def test_fields_of_no_form(self, fields):
        with pytest.raises(ValueError, match="^component 'c': component fields must be: "):
            Component("c", fields)

    def test_overflowing_mean_down_time_names_it(self):
        fields = dict(mtbf_h=1.0, mttres_h=1e308, mldt_h=1e308, madt_h=0.0, pnrs=0.5, tat_h=1.0)
        message = "'a': mean down time must be a finite value >= 0, got inf"
        with pytest.raises(ValueError, match=message):
            Component("a", fields)


class TestStoredNumbers:
    CASES = [
        Component("a", {"availability": 0.995}),
        Component("one", {"availability": 1.0}),
        Component("dust", {"availability": 1.0 + 1e-13}),
        Component("b", {"mtbf_h": 1000.0, "mdt_h": 10.0}),
        Component("huge", {"mtbf_h": 1e308, "mdt_h": 1e308}),
        Component("c", {"mtbf_h": 100000.0, **MAINT}),
        Component("d", dict(mtbf_h=3.0, mttres_h=0.1, mldt_h=0.2, madt_h=0.0,
                            pnrs=1.0 - 2**-53, tat_h=1e300)),
    ]

    @pytest.mark.parametrize("c", CASES, ids=lambda c: c.id)
    def test_stored_availability_is_the_derived_one(self, c):
        assert type(c.availability) is float
        assert float(c.availability).hex() == float(c.replace().availability).hex()
        assert derive_environment([c])[c.id] is c.availability

    @pytest.mark.parametrize("c", CASES, ids=lambda c: c.id)
    def test_stored_numbers_stay_out_of_repr_and_eq(self, c):
        assert repr(c) == f"Component(id={c.id!r}, fields={c.fields!r})"
        other = Component(c.id, c.fields)
        object.__setattr__(other, "availability", Probability(0.5))
        object.__setattr__(other, "mdt_h", 123.0)
        assert other == c and hash(other) == hash(c)

    def test_a_probability_in_the_tolerance_band_is_kept_as_given(self):
        c = Component("dust", {"availability": 1.0 + 1e-13})
        assert c.fields["availability"] == 1.0 + 1e-13 and c.availability == 1.0

    def test_replace_derives_afresh(self):
        c = Component("b", {"mtbf_h": 1000.0, "mdt_h": 10.0})
        d = c.replace(fields={"mtbf_h": 90.0, "mdt_h": 10.0})
        assert float(d.availability) == 0.9 and d.mdt_h == 10.0
        e = c.replace(fields={"mtbf_h": 100000.0, **MAINT})
        assert e.mdt_h == mean_down_time(**MAINT)
        assert float(e.availability).hex() == float(e.replace().availability).hex()
        f = e.replace(fields={"availability": 0.5})
        assert float(f.availability) == 0.5 and f.mdt_h is None


class TestMdt:
    def test_direct_has_none(self):
        assert Component("a", {"availability": 0.9}).mdt_h is None

    def test_pair_reports_given_mdt(self):
        assert Component("a", {"mtbf_h": 100.0, "mdt_h": 3.5}).mdt_h == 3.5

    def test_pipeline_reports_derived_mdt(self):
        c = Component("a", {"mtbf_h": 100000.0, **MAINT})
        assert c.mdt_h == 8.68


class TestDeriveEnvironment:
    def test_from_mapping(self):
        comps = {
            "a": Component("a", {"availability": 0.9}),
            "b": Component("b", {"mtbf_h": 90.0, "mdt_h": 10.0}),
        }
        env = derive_environment(comps)
        assert set(env) == {"a", "b"}
        assert float(env["a"]) == 0.9
        assert float(env["b"]) == 0.9

    def test_from_iterable(self):
        env = derive_environment([Component("x", {"availability": 0.5})])
        assert float(env["x"]) == 0.5
