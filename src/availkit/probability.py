"""The probability rule and the complement of a probability."""

from __future__ import annotations

__all__ = ["PROBABILITY_TOLERANCE", "Probability", "unavailability"]

# Slack accepted on construction before a value is considered out of range.
# Long products of many availabilities can drift a hair past the boundary;
# anything inside the band is clamped back onto it.
PROBABILITY_TOLERANCE = 1e-12


def Probability(value: float) -> float:
    """``value`` as a plain float in the closed interval [0, 1].

    Values outside the interval by more than ``PROBABILITY_TOLERANCE`` are
    rejected outright; values within the band are clamped to the nearest
    boundary so rounding dust never escapes the valid range.
    """
    v = float(value)
    if 0.0 <= v <= 1.0:
        return v
    if v != v:
        raise ValueError("probability must not be NaN")
    if v < -PROBABILITY_TOLERANCE or v > 1.0 + PROBABILITY_TOLERANCE:
        raise ValueError(f"probability {v!r} outside [0, 1]")
    return 0.0 if v < 0.0 else 1.0


def unavailability(p: float) -> float:
    """Complement of a probability, read at decimal precision.

    The subtraction is carried out against the shortest decimal that
    round-trips to ``p``, so an availability that prints as 0.9999
    complements to exactly 0.0001 — the way the figures are quoted on
    data sheets — instead of picking up binary representation noise.
    The decimal difference is rounded to 28 significant digits, half to
    even, then correctly to a double; no decimal context is read, so the
    bits are the same in every caller. The result never differs from
    the raw IEEE ``1 - p`` by more than one unit in the last place.
    """
    digits, _, exp = repr(Probability(p)).partition("e")
    whole, _, frac = digits.partition(".")
    # p == int(whole + frac) / scale, exactly
    scale = 10 ** (len(frac) - int(exp)) if exp else 10 ** len(frac)
    n = scale - int(whole + frac)
    if n >= 10**28:  # keep 28 significant digits, half to even
        cut = 10 ** (len(str(n)) - 28)
        n, rest = divmod(n, cut)
        if 2 * rest > cut or 2 * rest == cut and n & 1:
            n += 1
        scale //= cut
    return n / scale  # in [0, 1]; int true division is correctly rounded

