"""The paper's two formulas for a repairable unit, on plain floats.

All durations are hours. Steady-state availability is the fraction of
calendar time a repairable unit is up: MTBF / (MTBF + MDT). The mean down
time itself can be assembled from the repair pipeline — restore time,
logistic delay, administrative delay, and the turn-around of a replacement
weighted by the chance that no ready spare is on site.

The formulas take their inputs as given. ``Component`` checks each one
with ``components.check_field`` before it derives with them.
"""

from __future__ import annotations

import math

from .probability import Probability, unavailability

__all__ = ["mean_down_time", "availability_from_times"]


def mean_down_time(
    mttres_h: float, mldt_h: float, madt_h: float, pnrs: float, tat_h: float
) -> float:
    """MDT in hours: MTTRes + MLDT + MADT + (1 - PNRS) * TAT.

    mttres_h  mean time to restore once the fix is in hand
    mldt_h    mean logistic delay (waiting for parts, access, transport)
    madt_h    mean administrative delay (tickets, approvals, scheduling)
    pnrs      probability that a ready spare is on site when needed
    tat_h     turn-around time to obtain a replacement when it is not

    The turn-around time contributes only in the fraction of incidents
    where no ready spare is available. A PNRS of 0.99 is a customary
    stocking goal; at 1.0 the turn-around term vanishes entirely.
    """
    return mttres_h + mldt_h + madt_h + unavailability(pnrs) * tat_h


def availability_from_times(mtbf_h: float, mdt_h: float) -> float:
    """Steady-state availability MTBF / (MTBF + MDT).

    When the sum overflows to inf, the equal quotient 1 / (1 + MDT/MTBF)
    is used instead of the 0.0 the plain form would give.
    """
    total = mtbf_h + mdt_h
    if not math.isfinite(total):
        return Probability(1.0 / (1.0 + mdt_h / mtbf_h))
    return Probability(mtbf_h / total)
