"""The reliability block diagram tree.

Blocks compose by availability only: a leaf names a component, and the
structural nodes say how many of their children must be up. The tree is
immutable and finite by construction. Types are checked when a value is
built: every component id, edge id and node is a ``str``
(``check_string``), so nothing downstream meets one of another kind.
Shape rules (non-empty children, k in range, resolvable leaves) are
checked by ``availkit.model.validate`` rather than at construction, so
partially-built or deliberately broken trees can still be inspected and
reported on.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from ._frozen import Frozen, setfield

__all__ = ["Leaf", "Series", "Parallel", "KofN", "Bridge", "Block", "EvaluationError", "fold",
           "leaves"]

# Deepest nesting of series/parallel/kofn/bridge blocks. The parser
# rejects deeper files, and ``fold`` and ``availkit.model.validate``
# deeper trees built in code. Both recurse once per level, so a cap well
# inside the interpreter's recursion limit keeps every walker total.
MAX_NESTING = 200
NESTING_ERROR = f"blocks nest more than {MAX_NESTING} levels deep"

# Messages of rules that ``availkit.model.validate`` reports and an evaluator or
# ``fold`` raises too, each written once; a value goes in by ``str.format``.
NOT_A_BLOCK = "not a block: {!r}"
INTEGER_K = "expected an integer k"
SAME_ENDS = "source and terminal must differ"
DUPLICATE_EDGE = "duplicate edge id {!r}"
# The constructors' type rules: an id or node that is not a str, a network
# edge that is not an Edge; each is a TypeError where the value is built.
NOT_A_STRING = "{} {!r} is not a string"
NOT_AN_EDGE = "not an edge: {!r}"


def check_string(what: str, value: object) -> str:
    """``value``, if it is a str; else a TypeError that calls it ``what``."""
    if isinstance(value, str):
        return value
    raise TypeError(NOT_A_STRING.format(what, value))


def kofn_problem(k: object, n: int) -> str | None:
    """What is wrong with the ``k`` of a k-of-n block of ``n`` sub-blocks, or None."""
    if not isinstance(k, int) or isinstance(k, bool):
        return INTEGER_K
    if k < 1:
        return f"k must be >= 1, got {k}"
    return f"k={k} exceeds the {n} sub-blocks" if k > n else None


class EvaluationError(ValueError):
    """A structure could not be evaluated: it nests too deep or misfits its environment."""


class Leaf(Frozen):
    """A single component instance. The same id used twice means two
    independent replicas of that component type."""

    __slots__ = _fields = ("component_id",)

    def __init__(self, component_id: str) -> None:
        setfield(self, "component_id", check_string("component id", component_id))


class Series(Frozen):
    """Up only if every child is up."""

    __slots__ = _fields = ("children",)
    kind = "series"

    def __init__(self, children: Iterable["Block"]) -> None:
        setfield(self, "children", tuple(children))


class Parallel(Frozen):
    """Up if any child is up."""

    __slots__ = _fields = ("children",)
    kind = "parallel"

    def __init__(self, children: Iterable["Block"]) -> None:
        setfield(self, "children", tuple(children))


class KofN(Frozen):
    """Up if at least k of the children are up."""

    __slots__ = _fields = ("k", "children")
    kind = "kofn"

    def __init__(self, k: int, children: Iterable["Block"]) -> None:
        setfield(self, "k", k)
        setfield(self, "children", tuple(children))


class Bridge(Frozen):
    """The five-slot bridge: b1/b2 form the left column, b4/b5 the right
    column, and b3 is the cross-link between the two mid-points."""

    __slots__ = _fields = ("b1", "b2", "b3", "b4", "b5")
    kind = "bridge"

    def __init__(self, b1: "Block", b2: "Block", b3: "Block", b4: "Block", b5: "Block") -> None:
        setfield(self, "b1", b1)
        setfield(self, "b2", b2)
        setfield(self, "b3", b3)
        setfield(self, "b4", b4)
        setfield(self, "b5", b5)

    @property
    def children(self) -> tuple["Block", ...]:
        return (self.b1, self.b2, self.b3, self.b4, self.b5)


Block = Leaf | Series | Parallel | KofN | Bridge
# Each composite by its ``kind``, its keyword in model files. A subclass
# inherits its base's ``kind``, so every walker that reads it takes it as the base.
COMPOSITES = {cls.kind: cls for cls in (Series, Parallel, KofN, Bridge)}
_COMPOSITE_TYPES = tuple(COMPOSITES.values())


def fold(
    block: Block, leaf: Callable[[Leaf], object], node: Callable[[Block, list], object],
    _depth: int = 0,
) -> object:
    """Fold a block tree bottom-up: ``leaf(l)`` is a leaf's value and ``node(b, values)``
    a composite's, from its children's values in child order; both are called in
    canonical depth-first order. A non-block is a TypeError, and nesting past
    MAX_NESTING an EvaluationError. ``block`` sits ``_depth`` composites down."""
    if type(block) is Leaf:
        return leaf(block)
    if not isinstance(block, _COMPOSITE_TYPES):
        if isinstance(block, Leaf):  # a subclass of Leaf is a leaf, as validate reads it
            return leaf(block)
        raise TypeError(NOT_A_BLOCK.format(block))
    if _depth == MAX_NESTING:
        raise EvaluationError(NESTING_ERROR)
    _depth += 1  # leaf children are folded in place, saving a call each
    values = [leaf(c) if type(c) is Leaf else fold(c, leaf, node, _depth) for c in block.children]
    return node(block, values)


def leaves(block: Block) -> list[str]:
    """Component ids of every leaf occurrence, in depth-first order, with
    duplicates once per occurrence; raises as ``fold`` does."""
    ids: list[str] = []
    fold(block, lambda leaf: ids.append(leaf.component_id), lambda block, values: None)
    return ids
