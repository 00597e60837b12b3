import math
from decimal import ROUND_HALF_EVEN, Decimal, localcontext

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
        # the rule returns a plain float, which prints bare
        assert type(Probability(0.5)) is float and repr(Probability(0.5)) == "0.5"


def decimal_complement(p):
    """1 - repr(p) at 28 significant digits, half to even, whatever the caller's context."""
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = 28, ROUND_HALF_EVEN
        return float(Decimal(1) - Decimal(repr(p)))


class TestUnavailability:
    # float.hex in and out; the first three need the 28-digit rounding of
    # 1 - repr(p): the exact decimal complement rounds differently.
    PINNED = [
        ("0x1.fffffffffffffp-55", "0x1.fffffffffffffp-1"),
        ("0x1.8p-53", "0x1.ffffffffffffep-1"),
        ("0x1.3ffffffffffffp-52", "0x1.ffffffffffffdp-1"),
        ("0x0.0000000000001p-1022", "0x1.0000000000000p+0"),  # 5e-324
        ("0x0.0p+0", "0x1.0000000000000p+0"),
        ("0x1.0000000000000p+0", "0x0.0p+0"),
        ("0x1.fff2e48e8a71ep-1", "0x1.a36e2eb1c432dp-14"),  # 0.9999 -> 1e-4
        ("0x1.fffffffffffffp-1", "0x1.cd2b297d889bcp-54"),  # 1 - 2**-53 -> 1e-16
        ("0x1.f9add3739635fp-4", "0x1.c0ca45918d394p-1"),  # 0.123456789 -> 0.876543211
        ("0x1.999999999999ap-4", "0x1.ccccccccccccdp-1"),  # 0.1 -> 0.9
        ("0x1.0000000000000p-60", "0x1.0000000000000p+0"),
    ]

    @pytest.mark.parametrize("p, expected", PINNED)
    def test_pinned_float_hex(self, p, expected):
        assert float(unavailability(float.fromhex(p))).hex() == expected

    def test_pinned_bits_under_a_caller_decimal_context(self):
        # a caller's decimal context must not reach the complement
        with localcontext() as ctx:
            ctx.prec = 6
            assert float(unavailability(0.123456789)) == 0.876543211
            assert float(unavailability(0.9999)) == 1e-4

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_pinned_to_the_28_digit_decimal_complement(self, p):
        assert float(unavailability(p)).hex() == decimal_complement(p).hex()

    @given(st.integers(min_value=0, max_value=8 * 10**5), st.integers(min_value=-1, max_value=1))
    def test_pinned_on_odd_multiples_of_2_to_the_minus_54(self, m, step):
        # here 1 - repr(p) runs past 28 digits, so the rounding step runs
        p = (2 * m + 1) * 2.0**-54
        p = math.nextafter(p, step * math.inf) if step else p
        assert float(unavailability(p)).hex() == decimal_complement(p).hex()

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
        assert type(u) is float
        assert 0.0 <= u <= 1.0
