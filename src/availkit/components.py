"""Components: a named unit and the availability its fields give it.

The paper gives a component's availability one of three ways, and each
is a form of model-file fields (``FORMS``): the availability stated
outright; MTBF with a known mean down time; or MTBF with the
maintainability pipeline, from which the mean down time is derived
first. A ``Component`` holds its id and its form's fields in file order,
and derives its availability and mean down time once, when it is built.
``check_field`` is the range rule of every field.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from ._frozen import Frozen
from .blocks import check_string
from .maintainability import availability_from_times, mean_down_time
from .probability import Probability

__all__ = ["FORMS", "check_field", "Component", "derive_environment"]

# The model-file fields of each form, in file order, and the form's name.
FORMS = {
    ("availability",): "direct availability",
    ("mtbf_h", "mdt_h"): "mtbf/mdt",
    ("mtbf_h", "mttres_h", "mldt_h", "madt_h", "pnrs", "tat_h"): "mtbf/maintainability",
}
FIELD_NAMES = frozenset().union(*FORMS)
FORM_HINT = (
    "component fields must be: availability alone; mtbf_h with mdt_h; "
    "or mtbf_h with mttres_h, mldt_h, madt_h, pnrs, tat_h"
)
# The fields of each form, in file order, by the set of their names.
FORM_OF = {frozenset(names): names for names in FORMS}


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


class Component(Frozen):
    """A named unit of the system, given by the fields of one form.

    ``fields`` maps each field of the form to its value as a float, in
    file order; treat it as read-only. Each value is kept as given, so a
    probability within ``PROBABILITY_TOLERANCE`` of [0, 1] is clamped
    only where it is derived with. The ``availability`` and ``mdt_h``
    (mean down time, None for a direct availability) are derived once,
    when the component is built, so a bad number fails fast, with the
    component's id. They stay out of ``repr``, ``==`` and ``hash``, which
    see the id and the fields only.
    """

    _fields = ("id", "fields")
    __slots__ = _fields + ("availability", "mdt_h")
    fields: dict[str, float]
    availability: float
    mdt_h: float | None

    def __init__(self, id: str, fields: Mapping[str, float]) -> None:
        if not check_string("component id", id):
            raise ValueError("component id must be non-empty")
        names = FORM_OF.get(frozenset(fields))
        if names is None:
            raise ValueError(f"component {id!r}: {FORM_HINT}")
        values = {name: float(fields[name]) for name in names}
        for name, value in values.items():
            problem = check_field(name, value)
            if problem is not None:
                raise ValueError(f"component {id!r}: {problem}")
        self._derive(id, values)

    @classmethod
    def _checked(cls, id: str, fields: dict[str, float]) -> "Component":
        """The component of one form's ``fields``, floats in file order that
        each keep ``check_field``'s rule already, as the parser reads them."""
        self = cls.__new__(cls)
        self._derive(id, fields)
        return self

    def _derive(self, id: str, fields: dict[str, float]) -> None:
        values = list(fields.values())
        if len(values) == 1:
            availability, mdt_h = Probability(values[0]), None
        else:
            mdt_h = values[1] if len(values) == 2 else mean_down_time(*values[1:])
            if mdt_h == math.inf:  # every term is finite, but their sum can overflow
                raise ValueError(f"component {id!r}: {check_field('mean down time', mdt_h)}")
            availability = availability_from_times(values[0], mdt_h)
        _set_id(self, id)
        _set_fields(self, fields)
        _set_availability(self, availability)
        _set_mdt_h(self, mdt_h)

    def __hash__(self) -> int:
        return hash((self.id, *self.fields.values()))


# One per component read: stored through the slots' own descriptors (see ``_frozen``).
_set_id = Component.id.__set__
_set_fields = Component.fields.__set__
_set_availability = Component.availability.__set__
_set_mdt_h = Component.mdt_h.__set__


def derive_environment(
    components: Mapping[str, Component] | Iterable[Component],
) -> dict[str, float]:
    """Availability per component id, ready for evaluation."""
    if isinstance(components, Mapping):
        components = components.values()
    return {c.id: c.availability for c in components}
