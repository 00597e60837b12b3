import pytest

from availkit import (
    Component,
    DirectAvailability,
    MaintainabilityParams,
    MtbfMaintainability,
    MtbfMdt,
    Probability,
    derive_environment,
    mean_down_time,
)

MAINT = MaintainabilityParams(
    mttres_h=2.0, mldt_h=4.0, madt_h=1.0, pnrs=0.99, tat_h=168.0
)


class TestConstruction:
    def test_direct(self):
        c = Component.direct("db", 0.995)
        assert isinstance(c.spec, DirectAvailability)
        assert float(c.replace().availability) == 0.995

    def test_from_mtbf_mdt(self):
        c = Component.from_mtbf_mdt("srv", 1000.0, 10.0)
        assert isinstance(c.spec, MtbfMdt)
        assert float(c.replace().availability) == 1000.0 / 1010.0

    def test_from_maintainability(self):
        c = Component.from_maintainability("srv", 100000.0, MAINT)
        assert isinstance(c.spec, MtbfMaintainability)
        a = float(c.replace().availability)
        assert abs(a - 100000.0 / 100008.68) < 1e-16

    def test_rejects_empty_id(self):
        with pytest.raises(ValueError):
            Component.direct("", 0.9)

    def test_bad_numbers_fail_at_construction_with_id(self):
        with pytest.raises(ValueError, match="'srv'"):
            Component.from_mtbf_mdt("srv", -5.0, 1.0)
        with pytest.raises(ValueError, match="'db'"):
            Component.direct("db", 1.5)

    def test_overflowing_mean_down_time_names_it(self):
        maint = MaintainabilityParams(
            mttres_h=1e308, mldt_h=1e308, madt_h=0.0, pnrs=0.5, tat_h=1.0
        )
        message = "'a': mean down time must be a finite value >= 0, got inf"
        with pytest.raises(ValueError, match=message):
            Component.from_maintainability("a", 1.0, maint)


class TestStoredNumbers:
    CASES = [
        Component.direct("a", 0.995),
        Component.direct("one", 1.0),
        Component.direct("dust", 1.0 + 1e-13),
        Component.from_mtbf_mdt("b", 1000.0, 10.0),
        Component.from_mtbf_mdt("huge", 1e308, 1e308),
        Component.from_maintainability("c", 100000.0, MAINT),
        Component.from_maintainability(
            "d", 3.0, MaintainabilityParams(0.1, 0.2, 0.0, 1.0 - 2**-53, 1e300)
        ),
    ]

    @pytest.mark.parametrize("c", CASES, ids=lambda c: c.id)
    def test_stored_availability_is_the_derived_one(self, c):
        assert type(c.availability) is float
        assert float(c.availability).hex() == float(c.replace().availability).hex()
        assert derive_environment([c])[c.id] is c.availability

    @pytest.mark.parametrize("c", CASES, ids=lambda c: c.id)
    def test_stored_numbers_stay_out_of_repr_and_eq(self, c):
        assert repr(c) == f"Component(id={c.id!r}, spec={c.spec!r})"
        other = Component(c.id, c.spec)
        object.__setattr__(other, "availability", Probability(0.5))
        object.__setattr__(other, "mdt_h", 123.0)
        assert other == c and hash(other) == hash(c)

    def test_replace_derives_afresh(self):
        c = Component.from_mtbf_mdt("b", 1000.0, 10.0)
        d = c.replace(spec=MtbfMdt(90.0, 10.0))
        assert float(d.availability) == 0.9 and d.mdt_h == 10.0
        e = c.replace(spec=MtbfMaintainability(100000.0, MAINT))
        assert e.mdt_h == mean_down_time(MAINT)
        assert float(e.availability).hex() == float(e.replace().availability).hex()
        f = e.replace(spec=DirectAvailability(0.5))
        assert float(f.availability) == 0.5 and f.mdt_h is None


class TestMdt:
    def test_direct_has_none(self):
        assert Component.direct("a", 0.9).mdt_h is None

    def test_pair_reports_given_mdt(self):
        assert Component.from_mtbf_mdt("a", 100.0, 3.5).mdt_h == 3.5

    def test_pipeline_reports_derived_mdt(self):
        c = Component.from_maintainability("a", 100000.0, MAINT)
        assert c.mdt_h == 8.68


class TestDeriveEnvironment:
    def test_from_mapping(self):
        comps = {
            "a": Component.direct("a", 0.9),
            "b": Component.from_mtbf_mdt("b", 90.0, 10.0),
        }
        env = derive_environment(comps)
        assert set(env) == {"a", "b"}
        assert float(env["a"]) == 0.9
        assert float(env["b"]) == 0.9

    def test_from_iterable(self):
        env = derive_environment([Component.direct("x", 0.5)])
        assert float(env["x"]) == 0.5
