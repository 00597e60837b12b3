"""Component definitions: how each unit's availability is specified.

A component either states its availability directly, derives it from
MTBF and an already-known mean down time, or derives the down time first
from the maintainability pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union

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
    "Component",
    "component_availability",
    "component_mdt",
    "derive_environment",
]


@dataclass(frozen=True)
class DirectAvailability:
    """Availability stated outright.

    Specs are plain data holders; range checks happen when a Component
    is built, so every complaint names the offending component.
    """

    availability: float


@dataclass(frozen=True)
class MtbfMdt:
    """MTBF paired with a known mean down time, both in hours."""

    mtbf_h: float
    mdt_h: float


@dataclass(frozen=True)
class MtbfMaintainability:
    """MTBF in hours plus the maintainability pipeline for the down time."""

    mtbf_h: float
    maint: MaintainabilityParams


ComponentSpec = Union[DirectAvailability, MtbfMdt, MtbfMaintainability]


@dataclass(frozen=True)
class Component:
    """A named unit of the system with one of the three availability specs.

    Its availability and mean down time (None for a direct availability)
    are derived once, at construction, so bad numbers fail fast. They stay
    out of ``repr`` and ``==``, which compare the declaration only.
    """

    id: str
    spec: ComponentSpec
    availability: Probability = field(init=False, repr=False, compare=False)
    mdt_h: float | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("component id must be non-empty")
        availability, mdt_h = _derive(self)
        object.__setattr__(self, "availability", availability)
        object.__setattr__(self, "mdt_h", mdt_h)

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


def _derive(component: Component) -> tuple[Probability, float | None]:
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


def component_availability(component: Component) -> Probability:
    """Availability of one component, derived afresh from its spec."""
    return _derive(component)[0]


def component_mdt(component: Component) -> float | None:
    """Mean down time in hours where the component defines one, else None."""
    return component.mdt_h


def derive_environment(
    components: Mapping[str, Component] | Iterable[Component],
) -> dict[str, Probability]:
    """Availability per component id, ready for evaluation."""
    if isinstance(components, Mapping):
        components = components.values()
    return {c.id: c.availability for c in components}
