"""The model container — components plus the system structure — and its
validation.

Validation never raises: it returns a list of diagnostics, each carrying
a severity, a dotted path into the structure, and a message. Errors make
a model unevaluable, or one that no model file can state (a series,
parallel or k-of-n block of one child); warnings flag suspect but legal
constructions (an unused component, a network that cannot connect even
with every edge up).
A block tree nested deeper than ``blocks.MAX_NESTING`` levels is an
error at its first block too deep, below which nothing else is checked.
"""

from __future__ import annotations

from typing import Literal, Union

from ._frozen import Frozen, setfield
from .blocks import MAX_NESTING, NESTING_ERROR, Block, Bridge, KofN, Leaf, Parallel, Series, _kind
from .components import Component
from .network import Network, _bfs_order

__all__ = ["Diagnostic", "Model", "validate"]


class Diagnostic(Frozen):
    __slots__ = _fields = ("severity", "path", "message")

    def __init__(self, severity: Literal["error", "warning"], path: str, message: str) -> None:
        setfield(self, "severity", severity)
        setfield(self, "path", path)
        setfield(self, "message", message)


class Model(Frozen):
    """A component table (declaration order preserved) and the system it
    feeds — either a block tree or a two-terminal network. Its hash is the
    system's, since the table is a dict."""

    __slots__ = _fields = ("components", "system")

    def __init__(self, components: dict[str, Component], system: Union[Block, Network]) -> None:
        setfield(self, "components", components)
        setfield(self, "system", system)

    def __hash__(self) -> int:
        return hash((self.system,))


def _validate_block(
    block: Block,
    path: str,
    known: set[str],
    used: set[str],
    out: list[Diagnostic],
    depth: int = 0,
) -> None:
    if isinstance(block, Leaf):
        used.add(block.component_id)
        if block.component_id not in known:
            out.append(
                Diagnostic("error", path, f"unknown component {block.component_id!r}")
            )
        return
    # a composite below MAX_NESTING others is reported, not checked, so the
    # recursion stays within MAX_NESTING + 1 frames however deep the tree
    # goes; a loop still marks the components used beneath it
    if isinstance(block, (Series, Parallel, KofN, Bridge)) and depth == MAX_NESTING:
        out.append(Diagnostic("error", path, NESTING_ERROR))
        below = [block]
        while below:
            node = below.pop()
            if isinstance(node, Leaf):
                used.add(node.component_id)
            elif isinstance(node, (Series, Parallel, KofN, Bridge)):
                below.extend(node.children)
        return
    if isinstance(block, (Series, Parallel, KofN)):
        kind = _kind(block)
        n = len(block.children)
        if not n:
            out.append(Diagnostic("error", path, f"{kind} has no children"))
        elif n == 1:
            out.append(Diagnostic("error", path, f"{kind} requires at least two sub-blocks"))
        if isinstance(block, KofN):
            if not isinstance(block.k, int) or isinstance(block.k, bool):
                out.append(Diagnostic("error", path, "expected an integer k"))
            elif block.k < 1:
                out.append(Diagnostic("error", path, f"k must be >= 1, got {block.k}"))
            elif block.k > n:
                out.append(
                    Diagnostic("error", path, f"k={block.k} exceeds the {n} children")
                )
        for i, child in enumerate(block.children):
            _validate_block(child, f"{path}.children[{i}]", known, used, out, depth + 1)
        return
    if isinstance(block, Bridge):
        for i, child in enumerate(block.children, start=1):
            _validate_block(child, f"{path}.b{i}", known, used, out, depth + 1)
        return
    out.append(Diagnostic("error", path, f"not a block: {block!r}"))


def _validate_network(
    net: Network, path: str, known: set[str], used: set[str], out: list[Diagnostic]
) -> None:
    if net.source == net.terminal:
        out.append(Diagnostic("error", path, "source and terminal must differ"))
    if not net.edges:
        out.append(Diagnostic("error", path, "network has no edges"))
    seen_ids: set[str] = set()
    for i, edge in enumerate(net.edges):
        epath = f"{path}.edges[{i}]"
        if edge.id in seen_ids:
            out.append(Diagnostic("error", epath, f"duplicate edge id {edge.id!r}"))
        seen_ids.add(edge.id)
        if edge.a == edge.b:
            out.append(
                Diagnostic(
                    "warning", epath, f"self-loop at {edge.a!r} cannot affect connectivity"
                )
            )
        used.add(edge.component_id)
        if edge.component_id not in known:
            out.append(
                Diagnostic("error", epath, f"unknown component {edge.component_id!r}")
            )
    if net.edges and net.terminal not in _bfs_order(((e.a, e.b) for e in net.edges), net.source):
        out.append(
            Diagnostic(
                "warning",
                path,
                "terminal is unreachable from source even with all edges up",
            )
        )


def validate(model: Model) -> list[Diagnostic]:
    """Structural checks over a model; deterministic for a given input."""
    out: list[Diagnostic] = []
    known = set(model.components)
    used: set[str] = set()
    if isinstance(model.system, Network):
        _validate_network(model.system, "system", known, used, out)
    else:
        _validate_block(model.system, "system", known, used, out)
    for cid in sorted(known - used):
        out.append(
            Diagnostic("warning", f"components.{cid}", f"component {cid!r} is never used")
        )
    return out
