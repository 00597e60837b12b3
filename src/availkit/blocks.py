"""The reliability block diagram tree.

Blocks compose by availability only: a leaf names a component, and the
structural nodes say how many of their children must be up. The tree is
immutable and finite by construction; shape rules (non-empty children,
k in range, resolvable leaves) are checked by ``availkit.model.validate``
rather than at construction, so partially-built or deliberately broken
trees can still be inspected and reported on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

__all__ = ["Leaf", "Series", "Parallel", "KofN", "Bridge", "Block", "leaves"]

# Deepest nesting of series/parallel/kofn/bridge blocks. The parser
# rejects deeper files and ``availkit.model.validate`` deeper trees, and
# the evaluators recurse once per level, so a cap well inside the
# interpreter's recursion limit keeps every walker of a valid tree total.
MAX_NESTING = 200
NESTING_ERROR = f"blocks nest more than {MAX_NESTING} levels deep"


@dataclass(frozen=True)
class Leaf:
    """A single component instance. The same id used twice means two
    independent replicas of that component type."""

    component_id: str


@dataclass(frozen=True)
class Series:
    """Up only if every child is up."""

    children: tuple["Block", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True)
class Parallel:
    """Up if any child is up."""

    children: tuple["Block", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True)
class KofN:
    """Up if at least k of the children are up."""

    k: int
    children: tuple["Block", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True)
class Bridge:
    """The five-slot bridge: b1/b2 form the left column, b4/b5 the right
    column, and b3 is the cross-link between the two mid-points."""

    b1: "Block"
    b2: "Block"
    b3: "Block"
    b4: "Block"
    b5: "Block"

    @property
    def children(self) -> tuple["Block", ...]:
        return (self.b1, self.b2, self.b3, self.b4, self.b5)


Block = Union[Leaf, Series, Parallel, KofN, Bridge]


def leaves(block: Block, depth: int = 0) -> list[str]:
    """Component ids of every leaf occurrence, in depth-first order, with
    duplicates once per occurrence. ``block`` sits ``depth`` levels down;
    nesting past MAX_NESTING is a ValueError."""
    if isinstance(block, Leaf):
        return [block.component_id]
    if not isinstance(block, (Series, Parallel, KofN, Bridge)):
        raise TypeError(f"not a block: {block!r}")
    if depth == MAX_NESTING:
        raise ValueError(NESTING_ERROR)
    return [cid for child in block.children for cid in leaves(child, depth + 1)]
