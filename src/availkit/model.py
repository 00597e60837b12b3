"""The model container — components plus the system structure — and its
validation, which holds every structural rule.

Validation never raises on a model that can be built, as the
constructors check the type of every id and node: it returns a list of
diagnostics, each carrying a severity, a dotted path into the structure,
and a message. Errors make a model unevaluable, or break a rule of the
model file (a series, parallel or k-of-n block of one child); warnings
flag suspect but legal constructions (an unused component, a network
that cannot connect even with every edge up).
``availkit.modelfile.parse_model`` runs the same walk over what it read
and reports each finding at its token. A block tree nested deeper than
``blocks.MAX_NESTING`` levels is an error at its first block too deep,
below which nothing else is checked.
"""

from __future__ import annotations

from typing import Container, Literal, Union

from ._frozen import Frozen, setfield
from .blocks import (DUPLICATE_EDGE, MAX_NESTING, NESTING_ERROR, NOT_A_BLOCK, SAME_ENDS, Block,
                     Leaf, _COMPOSITE_TYPES, kofn_problem)
from .components import Component
from .network import Network, _bfs_order

__all__ = ["Diagnostic", "Model", "validate"]


class Diagnostic(Frozen):
    __slots__ = _fields = ("severity", "path", "message")

    def __init__(self, severity: Literal["error", "warning"], path: str, message: str) -> None:
        setfield(self, "severity", severity)
        setfield(self, "path", path)
        setfield(self, "message", message)


KEY_NOT_ID = "component table key {!r} is not its component's id {!r}"
NOT_A_COMPONENT = "not a component: {!r}"


class Model(Frozen):
    """A component table (declaration order preserved) and the system it
    feeds — either a block tree or a two-terminal network. Each value is a
    ``Component``, or the model is a TypeError, and each key is its
    component's id, or the model is a ValueError. Its hash is the system's,
    since the table is a dict."""

    __slots__ = _fields = ("components", "system")

    def __init__(self, components: dict[str, Component], system: Union[Block, Network]) -> None:
        for key, comp in components.items():
            if not isinstance(comp, Component):
                raise TypeError(NOT_A_COMPONENT.format(comp))
            if key != comp.id:
                raise ValueError(KEY_NOT_ID.format(key, comp.id))
        setfield(self, "components", components)
        setfield(self, "system", system)

    def __hash__(self) -> int:
        return hash((self.system,))


# A finding is (severity, message, trail, field): ``trail`` holds the child
# or edge indices down to the block or edge at fault, made a path only for a
# finding, and ``field`` names the part of it at fault, or is None.
NEVER_USED = "component {!r} is never used"


def _unknown(cid: str, known: Container[str], used: set[str]) -> str | None:
    """The error for a component id not in ``known``; a known one is marked used."""
    if cid in known:
        used.add(cid)
        return None
    return f"unknown component {cid!r}"


def _check_block(block: Block, trail: tuple, known: Container[str], used: set[str],
                 out: list) -> None:
    """Check ``block``, at ``trail``, and every block below it."""
    if not isinstance(block, _COMPOSITE_TYPES):
        if not isinstance(block, Leaf):
            out.append(("error", NOT_A_BLOCK.format(block), trail, None))
        elif message := _unknown(block.component_id, known, used):
            out.append(("error", message, trail, None))
        return
    # a composite below MAX_NESTING others is reported, not checked, so the
    # recursion stays within MAX_NESTING + 1 frames however deep the tree
    # goes; a loop still marks the components used beneath it
    if len(trail) == MAX_NESTING:
        out.append(("error", NESTING_ERROR, trail, None))
        below = [block]
        while below:
            node = below.pop()
            if isinstance(node, _COMPOSITE_TYPES):
                below.extend(node.children)
            elif isinstance(node, Leaf):
                _unknown(node.component_id, known, used)
        return
    kind = block.kind
    if kind != "bridge":
        if len(block.children) < 2:
            out.append(("error", f"{kind} requires at least two sub-blocks", trail, None))
        if kind == "kofn" and (problem := kofn_problem(block.k, len(block.children))):
            out.append(("error", problem, trail, "k"))
    for i, child in enumerate(block.children):
        if type(child) is Leaf and child.component_id in known:
            used.add(child.component_id)  # the common case, without a call
        else:
            _check_block(child, trail + (i,), known, used, out)


def _check(system: Union[Block, Network], known: Container[str]) -> tuple[list, set]:
    """The walk behind validate and parse_model: the findings and the known ids used."""
    out, used = [], set()
    if not isinstance(system, Network):
        _check_block(system, (), known, used, out)
        return out, used
    if system.source == system.terminal:
        out.append(("error", SAME_ENDS, (), None))
    if not system.edges:
        out.append(("error", "network requires at least one edge", (), None))
    ids: set[str] = set()
    for i, edge in enumerate(system.edges):
        if edge.id in ids:
            out.append(("error", DUPLICATE_EDGE.format(edge.id), (i,), None))
        else:
            ids.add(edge.id)
        if edge.a == edge.b:
            message = f"self-loop at {edge.a!r} cannot affect connectivity"
            out.append(("warning", message, (i,), None))
        if message := _unknown(edge.component_id, known, used):
            out.append(("error", message, (i,), "component_id"))
    pairs = ((e.a, e.b) for e in system.edges)
    if system.edges and system.terminal not in _bfs_order(pairs, system.source):
        message = "terminal is unreachable from source even with all edges up"
        out.append(("warning", message, (), None))
    return out, used


def _path(system: Union[Block, Network], trail: tuple) -> str:
    """The dotted path down ``trail``: system.children[2].b1, system.edges[0]."""
    if isinstance(system, Network):
        return "system" + "".join(f".edges[{i}]" for i in trail)
    parts = ["system"]
    for i in trail:
        parts.append(f".b{i + 1}" if system.kind == "bridge" else f".children[{i}]")
        system = system.children[i]
    return "".join(parts)


def validate(model: Model) -> list[Diagnostic]:
    """Structural checks over a model; deterministic for a given input."""
    findings, used = _check(model.system, model.components)
    out = [Diagnostic(sev, _path(model.system, trail), msg) for sev, msg, trail, _ in findings]
    for cid in sorted(model.components.keys() - used):
        out.append(Diagnostic("warning", f"components.{cid}", NEVER_USED.format(cid)))
    return out
