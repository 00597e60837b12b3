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
the UTF-8 encoding, where a lone surrogate counts the 3 bytes of its
``surrogatepass`` encoding; line and column are 1-based, and columns
count code points.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import Literal

from .blocks import MAX_NESTING, Bridge, KofN, Leaf, Parallel, Series
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

_INT_RE = re.compile(r"-?\d+$")

# Whitespace and comments, then one alternative per token kind, tried in
# this order. ``[^\W\d]`` also admits word characters that are neither
# letters nor digits, such as '²', which start no token: ``_lex`` reports
# one as a bad character and scans again after it.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]+|#[^\n]*)*"
    r"(?:(?P<id>[^\W\d]\w*)"
    r"|(?P<num>-?(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<punct>[{}()=,;])"
    r"|(?P<bad>.)"
    r"|(?P<eof>\Z))",
    re.DOTALL,
)

# (kind, text, start, end) with char offsets; kind is a group name above.
_Token = tuple[str, str, int, int]


def _lex(text: str) -> tuple[list[_Token], list[_Token]]:
    """The tokens of ``text``, ending with the eof token, and its bad characters."""
    tokens: list[_Token] = []
    bad: list[_Token] = []
    pos = 0
    while True:
        for m in _TOKEN_RE.finditer(text, pos):
            kind = m.lastgroup
            start, end = m.span(kind)
            word = m.group(kind)
            if kind == "id" and not (word[0].isalpha() or word[0] == "_"):
                bad.append(("bad", word[0], start, start + 1))
                pos = start + 1
                break
            (bad if kind == "bad" else tokens).append((kind, word, start, end))
            if kind == "eof":
                return tokens, bad


class _Spans:
    """Source spans of the tokens of one text, built only when reported.

    Byte offsets equal char offsets in ASCII text; otherwise a cursor
    encodes the text between the last offset asked for and this one.
    Reports come in a few forward sweeps (bad characters, the parser, which
    steps back at most to the start of a declaration, unknown refs), so the
    cursor travels a few text lengths however many there are. Lines come
    from a bisect over the newline offsets, indexed on first use.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.ascii = text.isascii()
        self.char = self.byte = 0
        self.newlines: list[int] | None = None

    def _byte(self, pos: int) -> int:
        if self.ascii:
            return pos
        if pos >= self.char:
            self.byte += len(self.text[self.char:pos].encode("utf-8", "surrogatepass"))
        else:
            self.byte -= len(self.text[pos:self.char].encode("utf-8", "surrogatepass"))
        self.char = pos
        return self.byte

    def __call__(self, tok: _Token) -> SourceSpan:
        start, end = tok[2], tok[3]
        if self.newlines is None:
            self.newlines = [m.start() for m in re.finditer("\n", self.text)]
        line = bisect_left(self.newlines, start)
        column = start - (self.newlines[line - 1] if line else -1)
        return SourceSpan(self._byte(start), self._byte(end), line + 1, column)


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
    def __init__(self, text: str) -> None:
        self.tokens, bad = _lex(text)
        self.i = 0
        self.spans = _Spans(text)
        self.diagnostics: list[ParseDiagnostic] = []
        self.components: dict[str, Component] = {}
        self.declared: set[str] = set()
        self.refs: list[_Token] = []
        self.system: object | None = None
        self.network: Network | None = None
        # the declarations as *seen*, even when their bodies fail to
        # parse — a broken system line is not a missing one
        self.system_tok: _Token | None = None
        self.network_tok: _Token | None = None
        self.depth = 0  # enclosing composite blocks of the block being parsed
        for tok in bad:
            self._error(f"unexpected character {tok[1]!r}", tok)

    # -- token plumbing ------------------------------------------------

    def _peek(self) -> _Token:
        return self.tokens[self.i]

    def _next(self) -> _Token:
        tok = self.tokens[self.i]
        if tok[0] != "eof":
            self.i += 1
        return tok

    def _error(self, message: str, tok: _Token) -> None:
        self.diagnostics.append(ParseDiagnostic("error", message, self.spans(tok)))

    def _expect_punct(self, text: str) -> _Token | None:
        tok = self._peek()
        if tok[0] == "punct" and tok[1] == text:
            return self._next()
        self._error(f"expected {text!r}", tok)
        return None

    def _expect_id(self, what: str) -> _Token | None:
        tok = self._peek()
        if tok[0] == "id":
            return self._next()
        self._error(f"expected {what}", tok)
        return None

    def _expect_name(self, what: str) -> _Token | None:
        """An identifier that is not a reserved structural word."""
        tok = self._expect_id(what)
        if tok is not None and tok[1] in _KEYWORDS:
            self._error(f"{tok[1]!r} is a reserved word and cannot be used as {what}", tok)
            return None
        return tok

    def _sync_top(self) -> None:
        while True:
            tok = self._peek()
            if tok[0] == "eof":
                return
            if tok[0] == "id" and tok[1] in ("component", "system", "network"):
                return
            self._next()

    def _sync_nested(self) -> None:
        depth = 0
        while True:
            tok = self._peek()
            if tok[0] == "eof":
                return
            if tok[0] == "id" and tok[1] in ("component", "system", "network") and depth == 0:
                return
            if tok[0] == "punct":
                if tok[1] == "(":
                    depth += 1
                elif tok[1] == ")":
                    if depth == 0:
                        return
                    depth -= 1
                elif tok[1] in (",", "}") and depth == 0:
                    return
            self._next()

    # -- declarations --------------------------------------------------

    def parse(self) -> tuple[Model | None, list[ParseDiagnostic]]:
        while True:
            tok = self._peek()
            if tok[0] == "eof":
                break
            if tok[0] == "id" and tok[1] == "component":
                self._component()
            elif tok[0] == "id" and tok[1] == "system":
                self._system()
            elif tok[0] == "id" and tok[1] == "network":
                self._network_decl()
            else:
                self._error("expected 'component', 'system' or 'network'", tok)
                self._next()
                self._sync_top()
        self._finish_refs()
        if self.system_tok is None and self.network_tok is None:
            self._error("missing system declaration", self.tokens[-1])
        elif self.system_tok is not None and self.network_tok is not None:
            self._error(
                "a file declares either 'system = ...' or a network, not both",
                self.system_tok,
            )
        if any(d.severity == "error" for d in self.diagnostics):
            return None, self.diagnostics
        system = self.network if self.network is not None else self.system
        return Model(components=self.components, system=system), self.diagnostics

    def _finish_refs(self) -> None:
        for tok in self.refs:
            if tok[1] not in self.declared:
                self._error(f"unknown component {tok[1]!r}", tok)

    def _component(self) -> None:
        self._next()  # 'component'
        name_tok = self._expect_name("a component id")
        if name_tok is None:
            self._sync_top()
            return
        if self._expect_punct("{") is None:
            self._sync_top()
            return
        fields: dict[str, float] = {}
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
                if tok[0] == "num":
                    value_tok = self._next()
                else:
                    self._error("expected a number", tok)
            if value_tok is None:
                self._sync_nested()
                clean = False
            else:
                fname = field_tok[1]
                if fname not in _FIELD_NAMES:
                    self._error(f"unknown field {fname!r}", field_tok)
                    clean = False
                elif fname in fields:
                    self._error(f"duplicate field {fname!r}", field_tok)
                    clean = False
                else:
                    value = float(value_tok[1])
                    problem = _check_field(fname, value)
                    if problem is not None:
                        self._error(problem, value_tok)
                        clean = False
                    else:
                        fields[fname] = value
            tok = self._peek()
            if tok[0] == "punct" and tok[1] == ",":
                self._next()
                continue
            break
        if self._expect_punct("}") is None:
            self._sync_top()
            clean = False
        name = name_tok[1]
        if name in self.declared:
            self._error(f"duplicate component id {name!r}", name_tok)
            return
        self.declared.add(name)
        if not clean:
            return
        spec = self._build_spec(name_tok, fields)
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
        self._error(_COMBINATION_HINT, name_tok)
        return None

    def _system(self) -> None:
        tok = self._next()  # 'system'
        if self.system_tok is not None:
            self._error("duplicate system declaration", tok)
        else:
            self.system_tok = tok
        if self._expect_punct("=") is None:
            self._sync_top()
            return
        block = self._block()
        if block is not None and self.system is None:
            self.system = block

    def _block(self):
        tok = self._peek()
        if tok[0] != "id":
            self._error("expected a block", tok)
            self._sync_nested()
            return None
        self._next()
        if tok[1] in ("series", "parallel", "kofn", "bridge") and self.depth == MAX_NESTING:
            self._error(f"blocks nest more than {MAX_NESTING} levels deep", tok)
            return None
        if tok[1] in ("series", "parallel"):
            children = self._block_list(tok)
            if children is None:
                return None
            if len(children) < 2:
                self._error(f"{tok[1]} requires at least two sub-blocks", tok)
                return None
            return Series(tuple(children)) if tok[1] == "series" else Parallel(tuple(children))
        if tok[1] == "kofn":
            if self._expect_punct("(") is None:
                self._sync_nested()
                return None
            k_tok = self._peek()
            if k_tok[0] != "num" or not _INT_RE.match(k_tok[1]):
                self._error("expected an integer k", k_tok)
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
                self._error("kofn requires at least two sub-blocks", tok)
                return None
            k = int(k_tok[1])
            if k < 1:
                self._error(f"k must be >= 1, got {k}", k_tok)
                return None
            if k > len(children):
                self._error(f"k={k} exceeds the {len(children)} sub-blocks", k_tok)
                return None
            return KofN(k, tuple(children))
        if tok[1] == "bridge":
            children = self._block_list(tok)
            if children is None:
                return None
            if len(children) != 5:
                self._error(f"bridge requires exactly five sub-blocks, got {len(children)}", tok)
                return None
            return Bridge(*children)
        if tok[1] in _KEYWORDS:
            self._error(f"{tok[1]!r} is a reserved word and cannot name a component", tok)
            return None
        self.refs.append(tok)
        return Leaf(tok[1])

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
                if self._peek()[0] == "punct" and self._peek()[1] == ")":
                    self._next()
                return None
            children.append(child)
            tok = self._peek()
            if tok[0] == "punct" and tok[1] == ",":
                self._next()
                continue
            if tok[0] == "punct" and tok[1] == ")":
                self._next()
                return children
            self._error("expected ',' or ')'", tok)
            self._sync_nested()
            return None

    def _network_decl(self) -> None:
        tok = self._next()  # 'network'
        if self.network_tok is not None:
            self._error("duplicate network declaration", tok)
        else:
            self.network_tok = tok
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
            if tok2[0] == "punct" and tok2[1] == ",":
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
            self._error("network requires at least one edge", tok)
            return
        if self.network is None:
            self.network = Network(edges=tuple(edges), source=source, terminal=terminal)

    def _keyed_node(self, key: str) -> str | None:
        tok = self._peek()
        if tok[0] != "id" or tok[1] != key:
            self._error(f"expected {key!r}", tok)
            return None
        self._next()
        if self._expect_punct("=") is None:
            return None
        node = self._expect_name("a node id")
        return None if node is None else node[1]

    def _edge(self, index: int) -> Edge | None:
        tok = self._peek()
        if tok[0] != "id" or tok[1] != "edge":
            self._error("expected 'edge'", tok)
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
        self.refs.append(comp)
        return Edge(f"e{index}", a[1], b[1], comp[1])


def parse_model(text: str) -> tuple[Model | None, list[ParseDiagnostic]]:
    """Parse a model file. Returns (model, diagnostics); the model is None
    when any diagnostic is an error. Never raises on malformed input."""
    return _Parser(text).parse()


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
