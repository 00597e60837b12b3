import math
import re

import pytest

from availkit import (
    MaintainabilityParams,
    availability_from_times,
    mean_down_time,
)
from availkit.components import FORM_FIELDS
from availkit.maintainability import check_field


def params(**overrides):
    base = dict(mttres_h=2.0, mldt_h=4.0, madt_h=1.0, pnrs=0.99, tat_h=168.0)
    base.update(overrides)
    return MaintainabilityParams(**base)


class TestMeanDownTime:
    def test_worked_example_is_exact(self):
        # 2 + 4 + 1 + 0.01 * 168 = 8.68, and the decimal-precision
        # complement of pnrs keeps the 0.01 factor exact, so the sum
        # lands on 8.68 to the bit.
        assert mean_down_time(params()) == 8.68

    def test_perfect_sparing_drops_turnaround(self):
        assert mean_down_time(params(pnrs=1.0, tat_h=500.0)) == 7.0

    def test_no_sparing_pays_full_turnaround(self):
        assert mean_down_time(params(pnrs=0.0, tat_h=10.0)) == 17.0

    def test_zero_everything(self):
        p = MaintainabilityParams(0.0, 0.0, 0.0, 1.0, 0.0)
        assert mean_down_time(p) == 0.0

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            params(mttres_h=-1.0)
        with pytest.raises(ValueError):
            params(tat_h=-0.5)

    def test_rejects_bad_pnrs(self):
        with pytest.raises(ValueError):
            params(pnrs=1.2)


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

    def test_rejects_nonpositive_mtbf(self):
        with pytest.raises(ValueError):
            availability_from_times(0.0, 1.0)
        with pytest.raises(ValueError):
            availability_from_times(-10.0, 1.0)

    def test_rejects_negative_mdt(self):
        with pytest.raises(ValueError):
            availability_from_times(10.0, -1.0)


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
        assert set(_RULE_OF) == set().union(*FORM_FIELDS.values())
        rule = _RULE_OF[name]
        want = [None if row[rule] is None else row[rule].format(name) for row in _BOUNDARIES]
        assert [check_field(name, row[0]) for row in _BOUNDARIES] == want

    def test_constructors_raise_its_messages(self):
        cases = [
            (lambda: params(tat_h=-0.5), "tat_h must be a finite value >= 0, got -0.5"),
            (lambda: availability_from_times(0.0, 1.0), "mtbf_h must be a finite value > 0, got 0.0"),
            (lambda: availability_from_times(10.0, -1.0), "mdt_h must be a finite value >= 0, got -1.0"),
        ]
        for build, message in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build()
