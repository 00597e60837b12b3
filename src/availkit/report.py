"""Evaluation reports: the headline numbers and their renderings.

The JSON rendering is byte-stable: keys appear in a fixed order and
floats are written in Python's shortest round-trip form, which decodes
back to the exact double. Text mode shows the same values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .evaluate import Environment
from .model import Model
from .probability import unavailability

__all__ = [
    "MINUTES_PER_YEAR",
    "ComponentLine",
    "AvailabilityReport",
    "nines",
    "build_report",
    "render_text",
    "render_json",
]

MINUTES_PER_YEAR = 525600.0


def nines(availability: float) -> int | float:
    """Count of leading nines: floor(-log10(1 - A)).

    0.999 has three, 0.97848 has one. Exactly 1.0 returns math.inf —
    rendered as the sentinel "inf" — and 0.0 returns 0.
    """
    down = float(unavailability(availability))
    if down == 0.0:
        return math.inf
    return math.floor(-math.log10(down))


@dataclass(frozen=True)
class ComponentLine:
    id: str
    availability: float
    mdt_h: float | None


@dataclass(frozen=True)
class AvailabilityReport:
    availability: float
    unavailability: float
    nines: int | float
    downtime_minutes_per_year: float
    per_component: tuple[ComponentLine, ...]


def build_report(
    model: Model,
    env: Environment,
    availability: float,
    minutes_per_year: float = MINUTES_PER_YEAR,
) -> AvailabilityReport:
    """Assemble the report bundle for an evaluated model.

    Unavailability is the decimal-precision complement (see
    ``availkit.probability.unavailability``), so a 0.9999 system reports
    exactly 1e-4 down and 52.56 minutes a year at the default calendar.
    """
    down = float(unavailability(availability))
    per_component = tuple(
        ComponentLine(cid, float(env[cid]), comp.mdt_h)
        for cid, comp in model.components.items()
    )
    return AvailabilityReport(
        availability=float(availability),
        unavailability=down,
        nines=nines(availability),
        downtime_minutes_per_year=down * minutes_per_year,
        per_component=per_component,
    )


def _json_num(value: float) -> str:
    """Shortest decimal form that round-trips to the same double.

    CPython's float repr always carries a '.' or an exponent, both of
    which are legal JSON number syntax, so the output needs no fixup.
    """
    return float.__repr__(float(value))


def _nines_json(value: float) -> str:
    return '"inf"' if math.isinf(value) else str(int(value))


def render_json(report: AvailabilityReport) -> str:
    lines = [
        "{",
        f'  "availability": {_json_num(report.availability)},',
        f'  "unavailability": {_json_num(report.unavailability)},',
        f'  "nines": {_nines_json(report.nines)},',
        f'  "downtime_minutes_per_year": {_json_num(report.downtime_minutes_per_year)},',
        '  "per_component": [',
    ]
    for i, line in enumerate(report.per_component):
        entry = f'    {{"id": {json.dumps(line.id)}, "availability": {_json_num(line.availability)}'
        if line.mdt_h is not None:
            entry += f', "mdt_h": {_json_num(line.mdt_h)}'
        entry += "}" + ("," if i + 1 < len(report.per_component) else "")
        lines.append(entry)
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_text(report: AvailabilityReport) -> str:
    nines_text = "inf" if math.isinf(report.nines) else str(int(report.nines))
    lines = [
        f"availability             {_json_num(report.availability)}",
        f"unavailability           {_json_num(report.unavailability)}",
        f"nines                    {nines_text}",
        f"downtime (minutes/year)  {_json_num(report.downtime_minutes_per_year)}",
    ]
    if report.per_component:
        lines.append("components:")
        width = max(len(line.id) for line in report.per_component)
        for line in report.per_component:
            row = f"  {line.id.ljust(width)}  availability {_json_num(line.availability)}"
            if line.mdt_h is not None:
                row += f"  mdt {_json_num(line.mdt_h)} h"
            lines.append(row)
    return "\n".join(lines) + "\n"
