"""Evaluation reports: the headline numbers and their renderings.

This module owns the one JSON writer, ``to_json``; ``render_json`` and
every ``--format json`` output of the CLI build an ordered dict and hand
it over. The output is byte-stable: keys appear in insertion order and
floats are written in Python's shortest round-trip form, which decodes
back to the exact double. Text mode shows the same values.
"""

from __future__ import annotations

import math
from _json import encode_basestring_ascii as _quote  # what json.encoder re-exports

from ._frozen import Frozen, setfield
from .evaluate import Environment
from .model import Model
from .probability import unavailability

__all__ = [
    "MINUTES_PER_YEAR",
    "ComponentLine",
    "AvailabilityReport",
    "nines",
    "build_report",
    "headline",
    "render_text",
    "render_json",
    "to_json",
    "to_text",
]

MINUTES_PER_YEAR = 525600.0


def nines(availability: float) -> int | float:
    """Count of leading nines: floor(-log10(1 - A)).

    0.999 has three, 0.97848 has one. Exactly 1.0 returns math.inf —
    rendered as the sentinel "inf" — and 0.0 returns 0.
    """
    return _nines(unavailability(availability))


def _nines(down: float) -> int | float:
    return math.inf if down == 0.0 else math.floor(-math.log10(down))


class ComponentLine(Frozen):
    __slots__ = _fields = ("id", "availability", "mdt_h")

    def __init__(self, id: str, availability: float, mdt_h: float | None) -> None:
        _set_line_id(self, id)
        _set_line_availability(self, availability)
        _set_line_mdt_h(self, mdt_h)


# One per report row: stored through the slots' own descriptors (see ``_frozen``).
_set_line_id = ComponentLine.id.__set__
_set_line_availability = ComponentLine.availability.__set__
_set_line_mdt_h = ComponentLine.mdt_h.__set__


class AvailabilityReport(Frozen):
    __slots__ = _fields = (
        "availability", "unavailability", "nines", "downtime_minutes_per_year", "per_component"
    )

    def __init__(
        self,
        availability: float,
        unavailability: float,
        nines: int | float,
        downtime_minutes_per_year: float,
        per_component: tuple[ComponentLine, ...],
    ) -> None:
        setfield(self, "availability", availability)
        setfield(self, "unavailability", unavailability)
        setfield(self, "nines", nines)
        setfield(self, "downtime_minutes_per_year", downtime_minutes_per_year)
        setfield(self, "per_component", per_component)


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
    down = unavailability(availability)
    per_component = tuple(
        ComponentLine(cid, float(env[cid]), None if comp.mdt_h is None else float(comp.mdt_h))
        for cid, comp in model.components.items()
    )
    return AvailabilityReport(
        availability=float(availability),
        unavailability=down,
        nines=_nines(down),
        downtime_minutes_per_year=down * minutes_per_year,
        per_component=per_component,
    )


def to_json(obj: dict) -> str:
    """The one JSON writer: every ``--format json`` output goes through it.

    A dict is an object with one ``"key": value`` per line, indented two
    spaces per level. A list of dicts is ``[``, one inline object per
    line, then ``]``; any other list, and an inline object, sits on one
    line as ``["a", "b"]`` or ``{"k": v, "k2": v2}``. Strings are ASCII
    with ``\\u`` escapes, and numbers are their repr: the shortest form that
    round-trips to the same int or double.
    """
    return _block(obj, "") + "\n"


def _block(obj: dict, pad: str) -> str:
    inner = pad + "  "
    rows = []
    for key, value in obj.items():
        if isinstance(value, dict):
            text = _block(value, inner)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            entries = ",\n".join([f"{inner}  {_inline(v)}" for v in value])
            text = f"[\n{entries}\n{inner}]"
        else:
            text = _inline(value)
        rows.append(f"{inner}{_quote(key)}: {text}")
    return "{\n" + ",\n".join(rows) + f"\n{pad}}}"


def _inline(value: object) -> str:
    if isinstance(value, float):
        return float.__repr__(value)
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, dict):
        # a float, the common value, is written without a call; a subclass
        # goes through the call, which writes its float value, not its repr
        fields = ", ".join([
            f"{_quote(k)}: {v!r}" if type(v) is float else f"{_quote(k)}: {_inline(v)}"
            for k, v in value.items()
        ])
        return "{" + fields + "}"
    return "[" + ", ".join([_inline(v) for v in value]) + "]"


def headline(report: AvailabilityReport) -> dict:
    """The four headline figures in report order; nines is an int or "inf"."""
    return {
        "availability": report.availability,
        "unavailability": report.unavailability,
        "nines": "inf" if math.isinf(report.nines) else int(report.nines),
        "downtime_minutes_per_year": report.downtime_minutes_per_year,
    }


def render_json(report: AvailabilityReport) -> str:
    fields = headline(report)
    fields["per_component"] = [
        {"id": line.id, "availability": line.availability}
        if line.mdt_h is None
        else {"id": line.id, "availability": line.availability, "mdt_h": line.mdt_h}
        for line in report.per_component
    ]
    return to_json(fields)


def to_text(rows: dict) -> str:
    """The one text layout of labelled values, the text twin of ``to_json``:
    a line per entry, its label padded to one past the longest label, then
    a space and ``f"{value}"``, which for a float is its repr."""
    width = max(map(len, rows)) + 1
    return "".join([f"{label.ljust(width)} {value}\n" for label, value in rows.items()])


# headline's figures in order, as render_text labels them
_TEXT_LABELS = ("availability", "unavailability", "nines", "downtime (minutes/year)")


def render_text(report: AvailabilityReport) -> str:
    text = to_text(dict(zip(_TEXT_LABELS, headline(report).values())))
    if report.per_component:
        lines = ["components:"]
        width = max(len(line.id) for line in report.per_component)
        for line in report.per_component:
            row = f"  {line.id.ljust(width)}  availability {line.availability!r}"
            if line.mdt_h is not None:
                row += f"  mdt {line.mdt_h!r} h"
            lines.append(row)
        text += "\n".join(lines) + "\n"
    return text
