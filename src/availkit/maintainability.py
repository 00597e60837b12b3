"""Mean-time bookkeeping: down-time pipelines and availability quotients.

All durations are hours. Steady-state availability is the fraction of
calendar time a repairable unit is up: MTBF / (MTBF + MDT). The mean down
time itself can be assembled from the repair pipeline — restore time,
logistic delay, administrative delay, and the turn-around of a replacement
weighted by the chance that no ready spare is on site.
"""

from __future__ import annotations

import math

from ._frozen import Frozen, setfield
from .probability import Probability, unavailability

__all__ = [
    "check_field",
    "MaintainabilityParams",
    "mean_down_time",
    "availability_from_times",
]


def check_field(name: str, value: float) -> str | None:
    """The range rule of one model field: None when ``value`` keeps it,
    else the message that says why not.

    ``availability`` and ``pnrs`` are probabilities, ``mtbf_h`` is finite
    and positive, and every other duration is finite and non-negative.
    """
    if name in ("availability", "pnrs"):
        try:
            Probability(value)
        except ValueError:
            return f"{name} {value!r} out of [0, 1]"
    elif name == "mtbf_h":
        if not (math.isfinite(value) and value > 0.0):
            return f"mtbf_h must be a finite value > 0, got {value!r}"
    elif not (math.isfinite(value) and value >= 0.0):
        return f"{name} must be a finite value >= 0, got {value!r}"
    return None


def _require(name: str, value: float) -> None:
    problem = check_field(name, value)
    if problem is not None:
        raise ValueError(problem)


class MaintainabilityParams(Frozen):
    """Inputs to the mean-down-time pipeline.

    mttres_h  mean time to restore once the fix is in hand
    mldt_h    mean logistic delay (waiting for parts, access, transport)
    madt_h    mean administrative delay (tickets, approvals, scheduling)
    pnrs      probability that a ready spare is on site when needed
    tat_h     turn-around time to obtain a replacement when it is not
    """

    __slots__ = _fields = ("mttres_h", "mldt_h", "madt_h", "pnrs", "tat_h")
    pnrs: float

    def __init__(
        self, mttres_h: float, mldt_h: float, madt_h: float, pnrs: float, tat_h: float
    ) -> None:
        _require("mttres_h", mttres_h)
        _require("mldt_h", mldt_h)
        _require("madt_h", madt_h)
        _require("tat_h", tat_h)
        setfield(self, "mttres_h", mttres_h)
        setfield(self, "mldt_h", mldt_h)
        setfield(self, "madt_h", madt_h)
        setfield(self, "pnrs", Probability(pnrs))
        setfield(self, "tat_h", tat_h)


def mean_down_time(params: MaintainabilityParams) -> float:
    """MDT in hours: MTTRes + MLDT + MADT + (1 - PNRS) * TAT.

    The turn-around time contributes only in the fraction of incidents
    where no ready spare is available. A PNRS of 0.99 is a customary
    stocking goal; at 1.0 the turn-around term vanishes entirely.
    """
    spare_missing = unavailability(params.pnrs)
    return params.mttres_h + params.mldt_h + params.madt_h + spare_missing * params.tat_h


def availability_from_times(mtbf_h: float, mdt_h: float) -> float:
    """Steady-state availability MTBF / (MTBF + MDT).

    When the sum overflows to inf, the equal quotient 1 / (1 + MDT/MTBF)
    is used instead of the 0.0 the plain form would give.
    """
    _require("mtbf_h", mtbf_h)
    _require("mdt_h", mdt_h)
    total = mtbf_h + mdt_h
    if not math.isfinite(total):
        return Probability(1.0 / (1.0 + mdt_h / mtbf_h))
    return Probability(mtbf_h / total)
