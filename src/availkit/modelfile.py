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
diagnostics, and never raises on any input text. The parser reads the
syntax. The structural rules are ``model.validate``'s: its walk runs over
the system or network read, and each finding is placed at a token; after
a syntax error, only its errors are reported. A diagnostic's line and
column are 1-based, and columns count code points.

Tokens are plain strings from one ``findall``, and a token's kind
follows from its text. Each comment is first blanked to as many spaces,
so every offset and column holds, and after whitespace the pattern tries
punctuation (about half the tokens of a typical file), an id, a number,
any other character and the end of the text, in that order; no id or
number starts with punctuation, so the order changes no token. ASCII
text is scanned by the pattern compiled a second time with ``re.ASCII``,
which finds the same tokens there and runs faster; any other text by the
Unicode pattern. Offsets are found only when something is reported, by
one more pass of the same pattern, so a well-formed file never builds a
span.

A character that starts no token comes out as a lone "any other
character" token, or starts a word when it is a word character that is
neither a letter nor a digit, such as '²'. ASCII has no such word
character, so in ASCII text one C-level ``isdisjoint`` with the set of
those lone characters finds them. ``findall`` resumed right after each,
so dropping them, and their offsets, gives the tokens. Other text tests
each distinct token, and a text with one is lexed instead by a
positioned walk, which reports the character and scans again after it;
only the walk handles a word such as '²0'.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from itertools import compress
from operator import attrgetter

from ._frozen import Frozen, setfield
from .blocks import COMPOSITES, INTEGER_K, MAX_NESTING, NESTING_ERROR, Bridge, KofN, Leaf, fold
from .components import FIELD_NAMES, FORM_HINT, FORM_OF, FORMS, Component, check_field
from .model import NEVER_USED, Model, _check
from .network import Edge, Network

__all__ = ["SourceSpan", "ParseDiagnostic", "parse_model", "format_model"]


class SourceSpan(Frozen):
    __slots__ = _fields = ("line", "column")

    def __init__(self, line: int, column: int) -> None:
        setfield(self, "line", line)
        setfield(self, "column", column)


class ParseDiagnostic(Frozen):
    """A finding of ``parse_model`` at ``span``; ``severity`` is "error" or "warning"."""

    __slots__ = _fields = ("severity", "message", "span")

    def __init__(self, severity: str, message: str, span: SourceSpan) -> None:
        setfield(self, "severity", severity)
        setfield(self, "message", message)
        setfield(self, "span", span)


_INT_RE = re.compile(r"-?\d+$")

_PUNCT = frozenset("{}()=,;")
# A finding's token after its block's or edge's first: 'kofn ( k', 'edge ( a , b , c'.
_FIELD_TOKEN = {None: 0, "k": 2, "component_id": 6}
_TOP_WORDS = frozenset({"component", "system", "network"})
# The reserved words; ``frozenset | dict_keys`` is a plain set.
_KEYWORDS = frozenset(_TOP_WORDS | {"source", "terminal", "edge"} | COMPOSITES.keys())

# A comment, blanked before the scan: no id or number holds a '#', so each starts one.
_COMMENT_RE = re.compile(r"#[^\n]*")
# Whitespace, then one token, whose alternatives are tried in this order:
# punctuation, id, number, any other character, end of text.
# ``[^\W\d]`` also admits word characters that are neither letters nor
# digits, such as '²', which start no token (see ``_regular``).
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*([{}()=,;]"
    r"|[^\W\d]\w*"
    r"|-?(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?"
    r"|.|\Z)",
    re.DOTALL,
)
# The same pattern for ASCII text, where ``\w``, ``\d`` and ``[^\W\d]``
# match the same characters either way, and the ASCII form scans faster.
_ASCII_TOKEN_RE = re.compile(_TOKEN_RE.pattern, re.DOTALL | re.ASCII)


# A token is its text, and its kind follows from that: "" is the end of
# the text, a letter or '_' starts an id, a digit, or '-' or '.' before
# more, starts a number, and the rest are punctuation.
def _is_id(tok: str) -> bool:
    return tok[:1].isalpha() or tok[:1] == "_"


def _is_num(tok: str) -> bool:
    return tok[:1].isdecimal() or (len(tok) > 1 and tok[0] in "-.")


def _regular(tok: str) -> bool:
    """Whether ``tok`` is a token; if not, its first character starts none.

    Those are a character the other alternatives refuse, such as '@' or a
    '-' before no digit, and a word that starts with a word character that
    is neither a letter nor a digit, such as '²0' or 'Ⅳ½c'.
    """
    return _is_id(tok) or _is_num(tok) or tok in _PUNCT or not tok


# The ASCII characters that start no token. An ASCII id starts with a
# letter or '_', so in ASCII text only these, alone, are irregular tokens.
_IRREGULAR_ASCII = frozenset(c for c in map(chr, range(128)) if not _regular(c))


def _offsets(text: str) -> list[int]:
    """The char offsets of the tokens that ``findall`` gives for ``text``."""
    pattern = _ASCII_TOKEN_RE if text.isascii() else _TOKEN_RE
    return [m.start(1) for m in pattern.finditer(text)]


def _ascii_strays(text: str, toks: list[str]) -> tuple[list[str], list[int], list[int]]:
    """``_walk``'s result for an ASCII text from its ``findall`` tokens ``toks``.

    In ASCII text every character that starts no token is a lone token of
    its own, and ``findall`` resumes right after it, as the walk does; so
    the walk's tokens and offsets are ``findall``'s without those, and its
    bad offsets are theirs. Only after text ending in whitespace do the
    tokens go on, by a second empty one, past the walk's.
    """
    offsets = _offsets(text)
    keep = [tok not in _IRREGULAR_ASCII for tok in toks]
    bad = [start for start, kept in zip(offsets, keep) if not kept]
    return list(compress(toks, keep)), list(compress(offsets, keep)), bad


def _walk(text: str) -> tuple[list[str], list[int], list[int]]:
    """The tokens of any text up to its end, their char offsets, and the
    offsets of the characters that start no token.

    A character that starts no token is reported, and scanning resumes
    right after it, so '²0.5' is the bad character '²' and the number 0.5.
    """
    toks: list[str] = []
    starts: list[int] = []
    bad: list[int] = []
    pos = 0
    while True:
        for m in _TOKEN_RE.finditer(text, pos):
            tok, start = m[1], m.start(1)
            if not _regular(tok):
                bad.append(start)
                pos = start + 1
                break
            toks.append(tok)
            starts.append(start)
            if not tok:
                return toks, starts, bad


class _Spans:
    """Source spans of the tokens of one text, built only when reported.

    The first report finds the tokens' char offsets in one more pass over
    the text; a well-formed text needs none. Lines come from a bisect over
    the newline offsets, indexed on first use.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.newlines: list[int] | None = None
        self.offsets: list[int] | None = None

    def at(self, start: int) -> SourceSpan:
        """The span of the char at offset ``start``."""
        if self.newlines is None:
            self.newlines = [m.start() for m in re.finditer("\n", self.text)]
        line = bisect_left(self.newlines, start)
        column = start - (self.newlines[line - 1] if line else -1)
        return SourceSpan(line + 1, column)

    def __call__(self, i: int) -> SourceSpan:
        """The span of token ``i``."""
        if self.offsets is None:
            self.offsets = _offsets(self.text)
        return self.at(self.offsets[i])


class _Recover(Exception):
    """Raised by a construct that failed, once its error is reported."""


class _Parser:
    """Recursive descent over token texts; ``i`` is the next token's index.

    Diagnostics name tokens by index; ``starts`` lists each block's or edge's
    first token in read order, mapped to trails only for a finding. The hot
    loops, ``_component`` and ``_block_items``, read ``toks`` directly.

    Recovery has two rules. A construct that cannot go on reports its
    error and raises ``_Recover`` (``_fail``), which only ``parse``
    catches: a failed declaration resumes at the next 'component', 'system'
    or 'network'. A bad field in a component body reports and skips to the
    end of that field (``_sync_nested``), and the component is declared.
    Any other error that leaves the parse on track, such as a duplicate,
    only reports.

    Each field value is range-checked once, as it is read, and the
    ``Component`` is built from the checked values.
    """

    def __init__(self, text: str) -> None:
        if "#" in text:
            text = _COMMENT_RE.sub(lambda m: " " * len(m[0]), text)
        self.spans = _Spans(text)
        self.diagnostics: list[ParseDiagnostic] = []
        # After text ending in whitespace, findall also yields a second,
        # empty match at the end; parsing stops at the first.
        bad: list[int] = []
        if text.isascii():
            toks = _ASCII_TOKEN_RE.findall(text)
            if not _IRREGULAR_ASCII.isdisjoint(toks):
                toks, self.spans.offsets, bad = _ascii_strays(text, toks)
        else:
            toks = _TOKEN_RE.findall(text)
            if not all(map(_regular, set(toks))):
                toks, self.spans.offsets, bad = _walk(text)
        for start in bad:
            self.diagnostics.append(ParseDiagnostic(
                "error", f"unexpected character {text[start]!r}", self.spans.at(start),
            ))
        self.toks = toks
        self.i = 0
        self.components: dict[str, Component] = {}
        self.declared: dict[str, int] = {}  # each component id, even one whose body failed
        self.starts: list[int] = []
        self.read: tuple[object, list[int]] | None = None  # the first whole structure
        # the declarations as *seen*, even when their bodies fail to
        # parse — a broken system line is not a missing one
        self.system_tok: int | None = None
        self.network_tok: int | None = None

    # -- token plumbing ------------------------------------------------

    def _error(self, message: str, i: int, severity: str = "error") -> None:
        self.diagnostics.append(ParseDiagnostic(severity, message, self.spans(i)))

    def _fail(self, message: str, i: int):
        """Report ``message`` at token ``i`` and unwind to ``parse``."""
        self._error(message, i)
        raise _Recover

    def _expect(self, text: str) -> int:
        i = self.i
        if self.toks[i] != text:
            self._fail(f"expected {text!r}", i)
        self.i = i + 1
        return i

    def _expect_name(self, what: str) -> int:
        """An identifier that is not a reserved structural word."""
        i = self.i
        tok = self.toks[i]
        if not _is_id(tok):
            self._fail(f"expected {what}", i)
        self.i = i + 1
        if tok in _KEYWORDS:
            self._fail(f"{tok!r} is a reserved word and cannot be used as {what}", i)
        return i

    def _sync_top(self) -> None:
        toks, i = self.toks, self.i
        while toks[i] and toks[i] not in _TOP_WORDS:
            i += 1
        self.i = i

    def _sync_nested(self) -> None:
        """Skip to the end of a bad component field: a ',' or '}' outside
        parentheses, an unmatched ')' or a declaration word. Only component
        bodies skip this way; a failed block fails its whole declaration."""
        toks, i = self.toks, self.i
        depth = 0
        while True:
            tok = toks[i]
            if not tok:
                break
            if depth == 0 and (tok in _TOP_WORDS or tok in (",", "}")):
                break
            if tok == "(":
                depth += 1
            elif tok == ")":
                if depth == 0:
                    break
                depth -= 1
            i += 1
        self.i = i

    # -- declarations --------------------------------------------------

    def parse(self) -> tuple[Model | None, list[ParseDiagnostic]]:
        toks = self.toks
        while True:
            tok = toks[self.i]
            if not tok:
                break
            try:
                if tok == "component":
                    self._component()
                elif tok == "system":
                    self._system()
                elif tok == "network":
                    self._network()
                else:
                    self._fail("expected 'component', 'system' or 'network'", self.i)
            except _Recover:
                self._sync_top()
        if self.system_tok is None and self.network_tok is None:
            self._error("missing system declaration", self.i)
        elif self.system_tok is not None and self.network_tok is not None:
            self._error(
                "a file declares either 'system = ...' or a network, not both",
                self.system_tok,
            )
        if self.read is not None:
            # after a syntax error only errors: an unused component is likely a broken line's
            syntax_ok = not self.diagnostics
            findings, used = _check(self.read[0], self.declared)
            at = _first_tokens(*self.read) if findings else None
            for severity, message, trail, field in findings:
                if syntax_ok or severity == "error":
                    self._error(message, at[trail] + _FIELD_TOKEN[field], severity)
            for cid, i in self.declared.items() if syntax_ok else ():
                if cid not in used:
                    self._error(NEVER_USED.format(cid), i, "warning")
        if any(d.severity == "error" for d in self.diagnostics):
            return None, self.diagnostics
        return Model(components=self.components, system=self.read[0]), self.diagnostics

    def _component(self) -> None:
        toks = self.toks
        self.i += 1  # 'component'
        name_i = self._expect_name("a component id")
        self._expect("{")
        fields: dict[str, float] = {}
        reported = len(self.diagnostics)
        i = self.i
        while True:
            field_i, fname = i, toks[i]
            known = fname in FIELD_NAMES  # and so an id
            if not known and not _is_id(fname):
                self._error("expected a field name", i)
                self.i = i
                self._sync_nested()
                i = self.i
                break
            value_i = None
            i += 1
            if toks[i] != "=":
                self._error("expected '='", i)
            elif _is_num(toks[i + 1]):
                value_i = i + 1
                i += 2
            else:
                i += 1
                self._error("expected a number", i)
            if value_i is None:
                self.i = i
                self._sync_nested()
                i = self.i
            elif not known:
                self._error(f"unknown field {fname!r}", field_i)
            elif fname in fields:
                self._error(f"duplicate field {fname!r}", field_i)
            else:  # a value out of range declares nothing
                value = float(toks[value_i])
                problem = check_field(fname, value)
                if problem is None:
                    fields[fname] = value
                else:
                    self._error(problem, value_i)
            if toks[i] == ",":
                i += 1
                continue
            break
        if toks[i] == "}":
            self.i = i + 1
        else:
            self._error("expected '}'", i)
            self.i = i
            self._sync_top()
        name = toks[name_i]
        if name in self.declared:
            self._error(f"duplicate component id {name!r}", name_i)
            return
        self.declared[name] = name_i
        if len(self.diagnostics) > reported:
            return
        names = FORM_OF.get(frozenset(fields))
        if names is None:
            self._error(FORM_HINT, name_i)
            return
        if tuple(fields) != names:  # read in another order
            fields = {name: fields[name] for name in names}
        try:
            self.components[name] = Component._checked(name, fields)
        except ValueError as exc:  # a mean down time that overflows
            self._error(str(exc), name_i)

    def _system(self) -> None:
        i = self.i  # 'system'
        self.i = i + 1
        if self.system_tok is not None:
            self._error("duplicate system declaration", i)
        else:
            self.system_tok = i
        self._expect("=")
        self.starts = []
        block = self._block(0)
        self.read = self.read or (block, self.starts)

    def _block(self, depth: int):
        """The block at the next token, below ``depth`` composites."""
        toks = self.toks
        i = self.i
        tok = toks[i]
        if not _is_id(tok):
            self._fail("expected a block", i)
        self.i = i + 1
        self.starts.append(i)
        if tok not in COMPOSITES:
            if tok in _KEYWORDS:
                self._fail(f"{tok!r} is a reserved word and cannot name a component", i)
            return Leaf(tok)
        if depth == MAX_NESTING:
            self._fail(NESTING_ERROR, i)
        self._expect("(")
        if tok == "kofn":
            k_i = self.i
            if not _INT_RE.match(toks[k_i]):
                self._fail(INTEGER_K, k_i)
            self.i = k_i + 1
            self._expect(";")
        children = self._block_items(depth + 1)
        if tok == "bridge":
            n = len(children)
            if n != 5:
                self._fail(f"bridge requires exactly five sub-blocks, got {n}", i)
            return Bridge(*children)
        if tok == "kofn":
            return KofN(int(toks[k_i]), children)
        return COMPOSITES[tok](children)

    def _block_items(self, depth: int) -> list:
        """The blocks, below ``depth`` composites, up to and with the closing ')'."""
        toks = self.toks
        children = []
        while True:
            children.append(self._block(depth))
            if toks[self.i] != ",":
                break
            self.i += 1
        if toks[self.i] != ")":
            self._fail("expected ',' or ')'", self.i)
        self.i += 1
        return children

    def _network(self) -> None:
        toks = self.toks
        head = self.i  # 'network'
        self.i = head + 1
        if self.network_tok is not None:
            self._error("duplicate network declaration", head)
        else:
            self.network_tok = head
        for text in ("{", "source", "="):
            self._expect(text)
        source = toks[self._expect_name("a node id")]
        for text in (",", "terminal", "="):
            self._expect(text)
        terminal = toks[self._expect_name("a node id")]
        edges: list[Edge] = []
        starts = [head]
        while toks[self.i] == ",":
            self.i += 1
            starts.append(self._expect("edge"))
            self._expect("(")
            a = self._expect_name("a node id")
            self._expect(",")
            b = self._expect_name("a node id")
            self._expect(",")
            comp = self._expect_name("a component id")
            self._expect(")")
            edges.append(Edge(f"e{len(edges)}", toks[a], toks[b], toks[comp]))
        self._expect("}")
        self.read = self.read or (Network(edges=edges, source=source, terminal=terminal), starts)


def _first_tokens(system, starts: list[int]) -> dict[tuple, int]:
    """Each trail in a read ``system`` mapped to its first token, in one walk
    that meets its blocks, or its edges, in the order ``starts`` lists them."""
    if isinstance(system, Network):
        return dict(zip([()] + [(k,) for k in range(len(system.edges))], starts))
    table: dict[tuple, int] = {}
    todo = [((), system)]
    for i in starts:  # depth first, as read
        trail, block = todo.pop()
        table[trail] = i
        children = getattr(block, "children", ())
        todo += [(trail + (k,), children[k]) for k in reversed(range(len(children)))]
    return table


def parse_model(text: str) -> tuple[Model | None, list[ParseDiagnostic]]:
    """Parse a model file. Returns (model, diagnostics); the model is None
    when any diagnostic is an error. Never raises on malformed input."""
    return _Parser(text).parse()


# "component ID { name = value, ... }" per form, its fields in file order.
_COMPONENT_LINES = {
    names: "component %s { " + ", ".join([f"{name} = %r" for name in names]) + " }"
    for names in FORMS
}


def _block_text(block, texts: list[str]) -> str:
    inner = ", ".join(texts)
    kind = block.kind
    if kind == "kofn":
        inner = f"{block.k!r}; {inner}"
    return f"{kind}({inner})"


def format_model(model: Model) -> str:
    """Canonical text for a model; parsing it back yields an equal model.

    Networks print without edge ids — the parser assigns e0, e1, ... in
    declaration order — so the round-trip is stable for parsed models.
    Blocks nested past MAX_NESTING are an EvaluationError (``blocks.fold``).
    """
    lines = []
    for cid, comp in model.components.items():
        fields = comp.fields
        lines.append(_COMPONENT_LINES[tuple(fields)] % (cid, *fields.values()))
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
        system = fold(model.system, attrgetter("component_id"), _block_text)
        lines.append(f"system = {system}")
    return "\n".join(lines) + "\n"
