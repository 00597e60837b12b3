"""Component definitions: how each unit's availability is specified.

A component either states its availability directly, derives it from
MTBF and an already-known mean down time, or derives the down time first
from the maintainability pipeline.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Mapping, Union

from ._frozen import Frozen, setfield
from .maintainability import (
    MaintainabilityParams,
    availability_from_times,
    check_field,
    mean_down_time,
)
from .probability import Probability

__all__ = [
    "DirectAvailability",
    "MtbfMdt",
    "MtbfMaintainability",
    "ComponentSpec",
    "FORM_FIELDS",
    "spec_fields",
    "spec_from_fields",
    "Component",
    "derive_environment",
]


class DirectAvailability(Frozen):
    """Availability stated outright.

    Specs are plain data holders; range checks happen when a Component
    is built, so every complaint names the offending component.
    """

    __slots__ = _fields = ("availability",)

    def __init__(self, availability: float) -> None:
        setfield(self, "availability", availability)


class MtbfMdt(Frozen):
    """MTBF paired with a known mean down time, both in hours."""

    __slots__ = _fields = ("mtbf_h", "mdt_h")

    def __init__(self, mtbf_h: float, mdt_h: float) -> None:
        setfield(self, "mtbf_h", mtbf_h)
        setfield(self, "mdt_h", mdt_h)


class MtbfMaintainability(Frozen):
    """MTBF in hours plus the maintainability pipeline for the down time."""

    __slots__ = _fields = ("mtbf_h", "maint")

    def __init__(self, mtbf_h: float, maint: MaintainabilityParams) -> None:
        setfield(self, "mtbf_h", mtbf_h)
        setfield(self, "maint", maint)


ComponentSpec = Union[DirectAvailability, MtbfMdt, MtbfMaintainability]

# The model-file fields of each form, in file order.
FORM_FIELDS = {
    DirectAvailability: DirectAvailability._fields,
    MtbfMdt: MtbfMdt._fields,
    MtbfMaintainability: ("mtbf_h",) + MaintainabilityParams._fields,
}
_FORM_KEYS = [(frozenset(names), form) for form, names in FORM_FIELDS.items()]
# Reads a spec's values in FORM_FIELDS order; the pipeline's sit on ``maint``.
_READERS = {
    form: attrgetter(*[name if name in form._fields else f"maint.{name}" for name in names])
    for form, names in FORM_FIELDS.items()
}


def spec_fields(spec: ComponentSpec) -> dict[str, float]:
    """The spec's model-file fields and their values, in file order."""
    form = type(spec)
    names, values = FORM_FIELDS[form], _READERS[form](spec)
    # attrgetter of a single name returns the value itself, not a 1-tuple
    return dict(zip(names, values)) if len(names) > 1 else {names[0]: values}


def spec_from_fields(fields: Mapping[str, float]) -> ComponentSpec | None:
    """The spec of the form made of exactly these fields, None if no form is.
    A maintainability value out of range raises ValueError."""
    keys = fields.keys()
    for names, form in _FORM_KEYS:
        if keys == names:
            values = [fields[name] for name in FORM_FIELDS[form]]
            if form is MtbfMaintainability:
                return form(values[0], MaintainabilityParams(*values[1:]))
            return form(*values)
    return None


class Component(Frozen):
    """A named unit of the system with one of the three availability specs.

    Its ``availability`` and ``mdt_h`` (mean down time, None for a direct
    availability) are derived once, at construction, so bad numbers fail
    fast. They stay out of ``repr``, ``==`` and ``hash``, which see the
    declaration only.
    """

    _fields = ("id", "spec")
    __slots__ = _fields + ("availability", "mdt_h")
    availability: float
    mdt_h: float | None

    def __init__(self, id: str, spec: ComponentSpec) -> None:
        if not id:
            raise ValueError("component id must be non-empty")
        setfield(self, "id", id)
        setfield(self, "spec", spec)
        availability, mdt_h = _derive(self)
        setfield(self, "availability", availability)
        setfield(self, "mdt_h", mdt_h)

    @classmethod
    def direct(cls, id: str, availability: float) -> "Component":
        return cls(id, DirectAvailability(availability))

    @classmethod
    def from_mtbf_mdt(cls, id: str, mtbf_h: float, mdt_h: float) -> "Component":
        return cls(id, MtbfMdt(mtbf_h, mdt_h))

    @classmethod
    def from_maintainability(
        cls, id: str, mtbf_h: float, maint: MaintainabilityParams
    ) -> "Component":
        return cls(id, MtbfMaintainability(mtbf_h, maint))


def _derive(component: Component) -> tuple[float, float | None]:
    """Availability and mean down time of one component, per its spec.

    Validation failures carry the component id so a bad figure in a large
    model can be traced back to its declaration.
    """
    spec = component.spec
    try:
        if isinstance(spec, DirectAvailability):
            return Probability(spec.availability), None
        if isinstance(spec, MtbfMdt):
            return availability_from_times(spec.mtbf_h, spec.mdt_h), spec.mdt_h
        if isinstance(spec, MtbfMaintainability):
            mdt_h = mean_down_time(spec.maint)
            # every term is finite, but their sum can still overflow
            problem = check_field("mean down time", mdt_h)
            if problem is not None:
                raise ValueError(problem)
            return availability_from_times(spec.mtbf_h, mdt_h), mdt_h
    except ValueError as exc:
        raise ValueError(f"component {component.id!r}: {exc}") from None
    raise ValueError(f"component {component.id!r}: unrecognised spec {spec!r}")


def derive_environment(
    components: Mapping[str, Component] | Iterable[Component],
) -> dict[str, float]:
    """Availability per component id, ready for evaluation."""
    if isinstance(components, Mapping):
        components = components.values()
    return {c.id: c.availability for c in components}
