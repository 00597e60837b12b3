"""The model file format: parsing and canonical formatting.

A model file declares components and one system structure::

    # five identical links in a bridge arrangement
    component c1 { availability = 0.9 }
    component r1 { mtbf_h = 100000, mttres_h = 2, mldt_h = 4,
                   madt_h = 1, pnrs = 0.99, tat_h = 168 }
    system = bridge(c1, c1, c1, c1, c1)

or, for a mesh, a two-terminal network instead of the system block::

    network {
      source = s,
      terminal = t,
      edge(s, m, c1),
      edge(m, t, c1)
    }

Component fields come in exactly three shapes: ``availability`` alone,
``mtbf_h`` with ``mdt_h``, or ``mtbf_h`` with the maintainability set
``mttres_h, mldt_h, madt_h, pnrs, tat_h``. Blocks are ``ID``,
``series(b, b, ...)``, ``parallel(b, b, ...)``, ``kofn(k; b, b, ...)``
and ``bridge(b1, b2, b3, b4, b5)``, nested at most ``MAX_NESTING``
levels deep; structural words are reserved and cannot name components
or nodes. ``#`` starts a line comment. A file declares either
``system = ...`` or one ``network { ... }``, not both.

Parsing is total: it returns a model (or None) plus positioned
diagnostics, and never raises on malformed input. Spans count bytes of
the UTF-8 encoding; line and column are 1-based.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Literal

from .blocks import Bridge, KofN, Leaf, Parallel, Series
from .components import (
    Component,
    DirectAvailability,
    MtbfMaintainability,
    MtbfMdt,
)
from .maintainability import MaintainabilityParams
from .model import Model
from .network import Edge, Network
from .probability import Probability

__all__ = ["SourceSpan", "ParseDiagnostic", "parse_model", "format_model"]


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int
    line: int
    column: int


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: Literal["error", "warning"]
    message: str
    span: SourceSpan


_KEYWORDS = frozenset(
    {
        "component",
        "system",
        "network",
        "source",
        "terminal",
        "edge",
        "series",
        "parallel",
        "kofn",
        "bridge",
    }
)

_FIELD_NAMES = (
    "availability",
    "mtbf_h",
    "mdt_h",
    "mttres_h",
    "mldt_h",
    "madt_h",
    "pnrs",
    "tat_h",
)

_DIRECT_FIELDS = frozenset({"availability"})
_SIMPLE_FIELDS = frozenset({"mtbf_h", "mdt_h"})
_PIPELINE_FIELDS = frozenset({"mtbf_h", "mttres_h", "mldt_h", "madt_h", "pnrs", "tat_h"})

_COMBINATION_HINT = (
    "component fields must be: availability alone; mtbf_h with mdt_h; "
    "or mtbf_h with mttres_h, mldt_h, madt_h, pnrs, tat_h"
)

# Deepest nesting of series/parallel/kofn/bridge blocks a file may use.
# The parser and every walker of a block tree recurse once per level, so
# a cap well inside the interpreter's recursion limit keeps them total.
MAX_NESTING = 200

_NUM_RE = re.compile(r"-?(\d+(\.\d+)?|\.\d+)([eE][+-]?\d+)?")
_INT_RE = re.compile(r"-?\d+$")


@dataclass(frozen=True)
class _Token:
    kind: str  # "id" | "num" | "punct" | "eof"
    text: str
    span: SourceSpan


class _Lexer:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.byte = 0
        self.line = 1
        self.column = 1
        self.diagnostics: list[ParseDiagnostic] = []

    def _advance(self) -> None:
        ch = self.text[self.pos]
        self.pos += 1
        self.byte += len(ch.encode("utf-8"))
        if ch == "\n":
            self.line += 1
            self.column = 1
        else:
            self.column += 1

    def _mark(self) -> tuple[int, int, int]:
        return self.byte, self.line, self.column

    def _span_from(self, mark: tuple[int, int, int]) -> SourceSpan:
        return SourceSpan(mark[0], self.byte, mark[1], mark[2])

    def tokens(self) -> list[_Token]:
        out: list[_Token] = []
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch in " \t\r\n":
                self._advance()
                continue
            if ch == "#":
                while self.pos < len(text) and text[self.pos] != "\n":
                    self._advance()
                continue
            mark = self._mark()
            if ch.isalpha() or ch == "_":
                start = self.pos
                while self.pos < len(text) and (text[self.pos].isalnum() or text[self.pos] == "_"):
                    self._advance()
                out.append(_Token("id", text[start:self.pos], self._span_from(mark)))
                continue
            match = _NUM_RE.match(text, self.pos)
            if match and (ch.isdigit() or ch in "-."):
                for _ in range(match.end() - self.pos):
                    self._advance()
                out.append(_Token("num", match.group(), self._span_from(mark)))
                continue
            if ch in "{}()=,;":
                self._advance()
                out.append(_Token("punct", ch, self._span_from(mark)))
                continue
            self._advance()
            self.diagnostics.append(
                ParseDiagnostic("error", f"unexpected character {ch!r}", self._span_from(mark))
            )
        eof_span = SourceSpan(self.byte, self.byte, self.line, self.column)
        out.append(_Token("eof", "", eof_span))
        return out


def _check_field(name: str, value: float) -> str | None:
    """Range rule for one field value; returns a message when violated."""
    if name in ("availability", "pnrs"):
        try:
            Probability(value)
        except ValueError:
            return f"{name} {value!r} out of [0, 1]"
        return None
    if name == "mtbf_h":
        if not (math.isfinite(value) and value > 0.0):
            return f"mtbf_h must be a finite value > 0, got {value!r}"
        return None
    if not (math.isfinite(value) and value >= 0.0):
        return f"{name} must be a finite value >= 0, got {value!r}"
    return None


class _Parser:
    def __init__(self, tokens: list[_Token], diagnostics: list[ParseDiagnostic]) -> None:
        self.tokens = tokens
        self.i = 0
        self.diagnostics = diagnostics
        self.components: dict[str, Component] = {}
        self.declared: set[str] = set()
        self.refs: list[tuple[str, SourceSpan]] = []
        self.system: object | None = None
        self.network: Network | None = None
        # spans of the declarations as *seen*, even when their bodies fail
        # to parse — a broken system line is not a missing one
        self.system_span: SourceSpan | None = None
        self.network_span: SourceSpan | None = None
        self.depth = 0  # enclosing composite blocks of the block being parsed

    # -- token plumbing ------------------------------------------------

    def _peek(self) -> _Token:
        return self.tokens[self.i]

    def _next(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def _error(self, message: str, span: SourceSpan) -> None:
        self.diagnostics.append(ParseDiagnostic("error", message, span))

    def _expect_punct(self, text: str) -> _Token | None:
        tok = self._peek()
        if tok.kind == "punct" and tok.text == text:
            return self._next()
        self._error(f"expected {text!r}", tok.span)
        return None

    def _expect_id(self, what: str) -> _Token | None:
        tok = self._peek()
        if tok.kind == "id":
            return self._next()
        self._error(f"expected {what}", tok.span)
        return None

    def _expect_name(self, what: str) -> _Token | None:
        """An identifier that is not a reserved structural word."""
        tok = self._expect_id(what)
        if tok is not None and tok.text in _KEYWORDS:
            self._error(f"{tok.text!r} is a reserved word and cannot be used as {what}", tok.span)
            return None
        return tok

    def _sync_top(self) -> None:
        while True:
            tok = self._peek()
            if tok.kind == "eof":
                return
            if tok.kind == "id" and tok.text in ("component", "system", "network"):
                return
            self._next()

    def _sync_nested(self) -> None:
        depth = 0
        while True:
            tok = self._peek()
            if tok.kind == "eof":
                return
            if tok.kind == "id" and tok.text in ("component", "system", "network") and depth == 0:
                return
            if tok.kind == "punct":
                if tok.text == "(":
                    depth += 1
                elif tok.text == ")":
                    if depth == 0:
                        return
                    depth -= 1
                elif tok.text in (",", "}") and depth == 0:
                    return
            self._next()

    # -- declarations --------------------------------------------------

    def parse(self) -> tuple[Model | None, list[ParseDiagnostic]]:
        while True:
            tok = self._peek()
            if tok.kind == "eof":
                break
            if tok.kind == "id" and tok.text == "component":
                self._component()
            elif tok.kind == "id" and tok.text == "system":
                self._system()
            elif tok.kind == "id" and tok.text == "network":
                self._network_decl()
            else:
                self._error("expected 'component', 'system' or 'network'", tok.span)
                self._next()
                self._sync_top()
        self._finish_refs()
        eof_span = self.tokens[-1].span
        if self.system_span is None and self.network_span is None:
            self._error("missing system declaration", eof_span)
        elif self.system_span is not None and self.network_span is not None:
            self._error(
                "a file declares either 'system = ...' or a network, not both",
                self.system_span,
            )
        if any(d.severity == "error" for d in self.diagnostics):
            return None, self.diagnostics
        system = self.network if self.network is not None else self.system
        return Model(components=self.components, system=system), self.diagnostics

    def _finish_refs(self) -> None:
        for cid, span in self.refs:
            if cid not in self.declared:
                self._error(f"unknown component {cid!r}", span)

    def _component(self) -> None:
        self._next()  # 'component'
        name_tok = self._expect_name("a component id")
        if name_tok is None:
            self._sync_top()
            return
        if self._expect_punct("{") is None:
            self._sync_top()
            return
        fields: dict[str, tuple[float, SourceSpan]] = {}
        clean = True
        while True:
            field_tok = self._expect_id("a field name")
            if field_tok is None:
                self._sync_nested()
                clean = False
                break
            value_tok = None
            if self._expect_punct("=") is not None:
                tok = self._peek()
                if tok.kind == "num":
                    value_tok = self._next()
                else:
                    self._error("expected a number", tok.span)
            if value_tok is None:
                self._sync_nested()
                clean = False
            else:
                fname = field_tok.text
                if fname not in _FIELD_NAMES:
                    self._error(f"unknown field {fname!r}", field_tok.span)
                    clean = False
                elif fname in fields:
                    self._error(f"duplicate field {fname!r}", field_tok.span)
                    clean = False
                else:
                    value = float(value_tok.text)
                    problem = _check_field(fname, value)
                    if problem is not None:
                        self._error(problem, value_tok.span)
                        clean = False
                    else:
                        fields[fname] = (value, value_tok.span)
            tok = self._peek()
            if tok.kind == "punct" and tok.text == ",":
                self._next()
                continue
            break
        if self._expect_punct("}") is None:
            self._sync_top()
            clean = False
        name = name_tok.text
        if name in self.declared:
            self._error(f"duplicate component id {name!r}", name_tok.span)
            return
        self.declared.add(name)
        if not clean:
            return
        spec = self._build_spec(name_tok, {k: v for k, (v, _) in fields.items()})
        if spec is not None:
            self.components[name] = Component(name, spec)

    def _build_spec(self, name_tok: _Token, values: dict[str, float]):
        keys = frozenset(values)
        if keys == _DIRECT_FIELDS:
            return DirectAvailability(values["availability"])
        if keys == _SIMPLE_FIELDS:
            return MtbfMdt(values["mtbf_h"], values["mdt_h"])
        if keys == _PIPELINE_FIELDS:
            return MtbfMaintainability(
                values["mtbf_h"],
                MaintainabilityParams(
                    mttres_h=values["mttres_h"],
                    mldt_h=values["mldt_h"],
                    madt_h=values["madt_h"],
                    pnrs=Probability(values["pnrs"]),
                    tat_h=values["tat_h"],
                ),
            )
        self._error(_COMBINATION_HINT, name_tok.span)
        return None

    def _system(self) -> None:
        tok = self._next()  # 'system'
        if self.system_span is not None:
            self._error("duplicate system declaration", tok.span)
        else:
            self.system_span = tok.span
        if self._expect_punct("=") is None:
            self._sync_top()
            return
        block = self._block()
        if block is not None and self.system is None:
            self.system = block

    def _block(self):
        tok = self._peek()
        if tok.kind != "id":
            self._error("expected a block", tok.span)
            self._sync_nested()
            return None
        self._next()
        if tok.text in ("series", "parallel", "kofn", "bridge") and self.depth == MAX_NESTING:
            self._error(f"blocks nest more than {MAX_NESTING} levels deep", tok.span)
            return None
        if tok.text in ("series", "parallel"):
            children = self._block_list(tok)
            if children is None:
                return None
            if len(children) < 2:
                self._error(f"{tok.text} requires at least two sub-blocks", tok.span)
                return None
            return Series(tuple(children)) if tok.text == "series" else Parallel(tuple(children))
        if tok.text == "kofn":
            if self._expect_punct("(") is None:
                self._sync_nested()
                return None
            k_tok = self._peek()
            if k_tok.kind != "num" or not _INT_RE.match(k_tok.text):
                self._error("expected an integer k", k_tok.span)
                self._sync_nested()
                return None
            self._next()
            if self._expect_punct(";") is None:
                self._sync_nested()
                return None
            children = self._block_items(tok)
            if children is None:
                return None
            if len(children) < 2:
                self._error("kofn requires at least two sub-blocks", tok.span)
                return None
            k = int(k_tok.text)
            if k < 1:
                self._error(f"k must be >= 1, got {k}", k_tok.span)
                return None
            if k > len(children):
                self._error(f"k={k} exceeds the {len(children)} sub-blocks", k_tok.span)
                return None
            return KofN(k, tuple(children))
        if tok.text == "bridge":
            children = self._block_list(tok)
            if children is None:
                return None
            if len(children) != 5:
                self._error(f"bridge requires exactly five sub-blocks, got {len(children)}", tok.span)
                return None
            return Bridge(*children)
        if tok.text in _KEYWORDS:
            self._error(f"{tok.text!r} is a reserved word and cannot name a component", tok.span)
            return None
        self.refs.append((tok.text, tok.span))
        return Leaf(tok.text)

    def _block_list(self, head: _Token):
        if self._expect_punct("(") is None:
            self._sync_nested()
            return None
        return self._block_items(head)

    def _block_items(self, head: _Token):
        children = []
        while True:
            self.depth += 1
            child = self._block()
            self.depth -= 1
            if child is None:
                self._sync_nested()
                if self._peek().kind == "punct" and self._peek().text == ")":
                    self._next()
                return None
            children.append(child)
            tok = self._peek()
            if tok.kind == "punct" and tok.text == ",":
                self._next()
                continue
            if tok.kind == "punct" and tok.text == ")":
                self._next()
                return children
            self._error("expected ',' or ')'", tok.span)
            self._sync_nested()
            return None

    def _network_decl(self) -> None:
        tok = self._next()  # 'network'
        if self.network_span is not None:
            self._error("duplicate network declaration", tok.span)
        else:
            self.network_span = tok.span
        if self._expect_punct("{") is None:
            self._sync_top()
            return
        source = self._keyed_node("source")
        if source is None or self._expect_punct(",") is None:
            self._sync_top()
            return
        terminal = self._keyed_node("terminal")
        if terminal is None:
            self._sync_top()
            return
        edges: list[Edge] = []
        while True:
            tok2 = self._peek()
            if tok2.kind == "punct" and tok2.text == ",":
                self._next()
                edge = self._edge(len(edges))
                if edge is None:
                    self._sync_top()
                    return
                edges.append(edge)
                continue
            break
        if self._expect_punct("}") is None:
            self._sync_top()
            return
        if not edges:
            self._error("network requires at least one edge", tok.span)
            return
        if self.network is None:
            self.network = Network(edges=tuple(edges), source=source, terminal=terminal)

    def _keyed_node(self, key: str) -> str | None:
        tok = self._peek()
        if tok.kind != "id" or tok.text != key:
            self._error(f"expected {key!r}", tok.span)
            return None
        self._next()
        if self._expect_punct("=") is None:
            return None
        node = self._expect_name("a node id")
        return None if node is None else node.text

    def _edge(self, index: int) -> Edge | None:
        tok = self._peek()
        if tok.kind != "id" or tok.text != "edge":
            self._error("expected 'edge'", tok.span)
            return None
        self._next()
        if self._expect_punct("(") is None:
            return None
        a = self._expect_name("a node id")
        if a is None or self._expect_punct(",") is None:
            return None
        b = self._expect_name("a node id")
        if b is None or self._expect_punct(",") is None:
            return None
        comp = self._expect_name("a component id")
        if comp is None or self._expect_punct(")") is None:
            return None
        self.refs.append((comp.text, comp.span))
        return Edge(f"e{index}", a.text, b.text, comp.text)


def parse_model(text: str) -> tuple[Model | None, list[ParseDiagnostic]]:
    """Parse a model file. Returns (model, diagnostics); the model is None
    when any diagnostic is an error. Never raises on malformed input."""
    lexer = _Lexer(text)
    tokens = lexer.tokens()
    parser = _Parser(tokens, lexer.diagnostics)
    return parser.parse()


def _num_text(value: float) -> str:
    return float.__repr__(float(value))


def _spec_fields(spec) -> str:
    if isinstance(spec, DirectAvailability):
        return f"availability = {_num_text(spec.availability)}"
    if isinstance(spec, MtbfMdt):
        return f"mtbf_h = {_num_text(spec.mtbf_h)}, mdt_h = {_num_text(spec.mdt_h)}"
    if isinstance(spec, MtbfMaintainability):
        m = spec.maint
        return (
            f"mtbf_h = {_num_text(spec.mtbf_h)}, mttres_h = {_num_text(m.mttres_h)}, "
            f"mldt_h = {_num_text(m.mldt_h)}, madt_h = {_num_text(m.madt_h)}, "
            f"pnrs = {_num_text(m.pnrs)}, tat_h = {_num_text(m.tat_h)}"
        )
    raise TypeError(f"unrecognised component spec {spec!r}")


def _block_text(block) -> str:
    if isinstance(block, Leaf):
        return block.component_id
    if isinstance(block, Series):
        return f"series({', '.join(_block_text(c) for c in block.children)})"
    if isinstance(block, Parallel):
        return f"parallel({', '.join(_block_text(c) for c in block.children)})"
    if isinstance(block, KofN):
        return f"kofn({block.k}; {', '.join(_block_text(c) for c in block.children)})"
    if isinstance(block, Bridge):
        return f"bridge({', '.join(_block_text(c) for c in block.children)})"
    raise TypeError(f"not a block: {block!r}")


def format_model(model: Model) -> str:
    """Canonical text for a model; parsing it back yields an equal model.

    Networks print without edge ids — the parser assigns e0, e1, ... in
    declaration order — so the round-trip is stable for parsed models.
    """
    lines = [
        f"component {cid} {{ {_spec_fields(comp.spec)} }}"
        for cid, comp in model.components.items()
    ]
    if isinstance(model.system, Network):
        net = model.system
        lines.append("network {")
        lines.append(f"  source = {net.source},")
        terminal_sep = "," if net.edges else ""
        lines.append(f"  terminal = {net.terminal}{terminal_sep}")
        for i, edge in enumerate(net.edges):
            sep = "," if i + 1 < len(net.edges) else ""
            lines.append(f"  edge({edge.a}, {edge.b}, {edge.component_id}){sep}")
        lines.append("}")
    else:
        lines.append(f"system = {_block_text(model.system)}")
    return "\n".join(lines) + "\n"
