import math

import pytest
from hypothesis import given, strategies as st

from availkit import PROBABILITY_TOLERANCE, Probability, unavailability


class TestProbability:
    def test_accepts_unit_interval(self):
        for v in (0.0, 0.5, 1.0, 0.9999, 1e-300):
            assert float(Probability(v)) == v

    def test_is_a_float(self):
        p = Probability(0.25)
        assert isinstance(p, float)
        assert p * 4 == 1.0
        assert float(p) == 0.25 and type(float(p)) is float

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Probability(-0.1)
        with pytest.raises(ValueError):
            Probability(1.1)
        with pytest.raises(ValueError):
            Probability(math.nan)
        with pytest.raises(ValueError):
            Probability(math.inf)

    def test_clamps_within_tolerance(self):
        assert float(Probability(1.0 + PROBABILITY_TOLERANCE / 2)) == 1.0
        assert float(Probability(-PROBABILITY_TOLERANCE / 2)) == 0.0

    def test_rejects_just_outside_tolerance(self):
        with pytest.raises(ValueError):
            Probability(1.0 + PROBABILITY_TOLERANCE * 10)

    def test_repr(self):
        assert repr(Probability(0.5)) == "Probability(0.5)"


class TestUnavailability:
    def test_four_nines_is_exactly_1e4(self):
        # Plain float subtraction gives 9.999999999998899e-05 here; the
        # decimal-precision complement restores the quoted figure.
        assert float(unavailability(0.9999)) == 1e-4

    def test_anchors(self):
        assert float(unavailability(1.0)) == 0.0
        assert float(unavailability(0.0)) == 1.0
        assert float(unavailability(0.99)) == 0.01
        assert float(unavailability(0.5)) == 0.5
        assert float(unavailability(0.97848)) == 0.02152

    def test_rejects_non_probability(self):
        with pytest.raises(ValueError):
            unavailability(1.5)

    @given(st.integers(min_value=0, max_value=10**9))
    def test_involution_on_decimal_granular_values(self, n):
        # Values quoted to at most nine decimal places survive a double
        # complement exactly; floats with longer expansions (1/3, ...)
        # need not, since their decimal complement is not representable.
        p = n / 10**9
        q = float(unavailability(p))
        assert float(unavailability(q)) == p

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_stays_within_one_ulp_of_ieee_complement(self, p):
        u = float(unavailability(p))
        assert abs(u - (1.0 - p)) <= math.ulp(p) + math.ulp(1.0 - p)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_result_is_a_probability(self, p):
        u = unavailability(p)
        assert isinstance(u, Probability)
        assert 0.0 <= float(u) <= 1.0
