import math
import re

import pytest

from availkit import (
    FORMS,
    Component,
    availability_from_times,
    check_field,
    mean_down_time,
)


def params(**overrides):
    base = dict(mttres_h=2.0, mldt_h=4.0, madt_h=1.0, pnrs=0.99, tat_h=168.0)
    base.update(overrides)
    return base


class TestMeanDownTime:
    def test_worked_example_is_exact(self):
        # 2 + 4 + 1 + 0.01 * 168 = 8.68, and the decimal-precision
        # complement of pnrs keeps the 0.01 factor exact, so the sum
        # lands on 8.68 to the bit.
        assert mean_down_time(**params()) == 8.68

    def test_perfect_sparing_drops_turnaround(self):
        assert mean_down_time(**params(pnrs=1.0, tat_h=500.0)) == 7.0

    def test_no_sparing_pays_full_turnaround(self):
        assert mean_down_time(**params(pnrs=0.0, tat_h=10.0)) == 17.0

    def test_zero_everything(self):
        assert mean_down_time(0.0, 0.0, 0.0, 1.0, 0.0) == 0.0

    def test_pnrs_in_the_tolerance_band_is_clamped(self):
        assert mean_down_time(**params(pnrs=1.0 + 1e-13, tat_h=500.0)) == 7.0


class TestAvailabilityFromTimes:
    def test_worked_example(self):
        a = availability_from_times(100000.0, 8.68)
        assert abs(float(a) - 100000.0 / 100008.68) < 1e-16

    def test_zero_downtime_is_perfect(self):
        assert float(availability_from_times(1000.0, 0.0)) == 1.0

    def test_equal_up_and_down_is_half(self):
        assert float(availability_from_times(5.0, 5.0)) == 0.5

    def test_sum_overflow_still_gives_the_quotient(self):
        # 1e308 + 1e308 overflows to inf; the plain quotient would be 0.0.
        assert float(availability_from_times(1e308, 1e308)) == 0.5
        assert float(availability_from_times(1.5e308, 0.5e308)) == 0.75



# check_field at the edges of its rules: (value, the message for availability
# and pnrs, for mtbf_h, for the other durations); "{}" is the field's name.
_BOUNDARIES = [
    (-2e-12, "{} -2e-12 out of [0, 1]", "mtbf_h must be a finite value > 0, got -2e-12",
     "{} must be a finite value >= 0, got -2e-12"),
    (-1e-12, None, "mtbf_h must be a finite value > 0, got -1e-12",
     "{} must be a finite value >= 0, got -1e-12"),
    (-0.0, None, "mtbf_h must be a finite value > 0, got -0.0", None),
    (0.0, None, "mtbf_h must be a finite value > 0, got 0.0", None),
    (5e-324, None, None, None),
    (1.0, None, None, None),
    (1 + 1e-12, None, None, None),
    (1 + 2e-12, "{} 1.000000000002 out of [0, 1]", None, None),
    (1e308, "{} 1e+308 out of [0, 1]", None, None),
    (math.inf, "{} inf out of [0, 1]", "mtbf_h must be a finite value > 0, got inf",
     "{} must be a finite value >= 0, got inf"),
    (-math.inf, "{} -inf out of [0, 1]", "mtbf_h must be a finite value > 0, got -inf",
     "{} must be a finite value >= 0, got -inf"),
    (math.nan, "{} nan out of [0, 1]", "mtbf_h must be a finite value > 0, got nan",
     "{} must be a finite value >= 0, got nan"),
]
# The column of _BOUNDARIES that holds each field's messages.
_RULE_OF = {"availability": 1, "pnrs": 1, "mtbf_h": 2,
            "mdt_h": 3, "mttres_h": 3, "mldt_h": 3, "madt_h": 3, "tat_h": 3}


class TestCheckField:
    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("availability", 0.5, None),
            ("availability", 1.5, "availability 1.5 out of [0, 1]"),
            ("pnrs", 1.0 + 1e-13, None),
            ("pnrs", math.nan, "pnrs nan out of [0, 1]"),
            ("mtbf_h", 1e-300, None),
            ("mtbf_h", 0.0, "mtbf_h must be a finite value > 0, got 0.0"),
            ("mtbf_h", math.inf, "mtbf_h must be a finite value > 0, got inf"),
            ("mdt_h", 0.0, None),
            ("tat_h", -0.5, "tat_h must be a finite value >= 0, got -0.5"),
            ("mldt_h", math.nan, "mldt_h must be a finite value >= 0, got nan"),
        ],
    )
    def test_rules(self, name, value, message):
        assert check_field(name, value) == message

    @pytest.mark.parametrize("name", sorted(_RULE_OF))
    def test_boundaries(self, name):
        assert set(_RULE_OF) == set().union(*FORMS)
        rule = _RULE_OF[name]
        want = [None if row[rule] is None else row[rule].format(name) for row in _BOUNDARIES]
        assert [check_field(name, row[0]) for row in _BOUNDARIES] == want

    @pytest.mark.parametrize("name", sorted(_RULE_OF))
    def test_the_constructor_raises_its_messages(self, name):
        # each field of each form, at each boundary value, in the constructor
        for names in FORMS:
            if name not in names:
                continue
            valid = {n: 0.5 for n in names}
            for row in _BOUNDARIES:
                message = check_field(name, row[0])
                if message is None:
                    Component("c", {**valid, name: row[0]})
                    continue
                with pytest.raises(ValueError, match=f"^component 'c': {re.escape(message)}$"):
                    Component("c", {**valid, name: row[0]})
