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


def leaves(block: Block) -> list[str]:
    """Component ids of every leaf occurrence, in depth-first order.
    Duplicates appear once per occurrence."""
    out: list[str] = []

    def walk(node: Block) -> None:
        if isinstance(node, Leaf):
            out.append(node.component_id)
        elif isinstance(node, (Series, Parallel, KofN)):
            for child in node.children:
                walk(child)
        elif isinstance(node, Bridge):
            for child in node.children:
                walk(child)
        else:
            raise TypeError(f"not a block: {node!r}")

    walk(block)
    return out
