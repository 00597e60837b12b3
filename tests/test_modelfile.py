import hashlib
import random
import re
import time
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from availkit import (
    Bridge,
    Component,
    Diagnostic,
    EvaluationError,
    KofN,
    Leaf,
    Model,
    Network,
    Parallel,
    Series,
    eval_kofn,
    format_model,
    parse_model,
    validate,
)
from availkit import modelfile
from availkit.components import FIELD_NAMES, FORM_HINT
from availkit.modelfile import MAX_NESTING
from conftest import random_tree

DATA = Path(__file__).parent / "data"


def errors(diags):
    return [d for d in diags if d.severity == "error"]


class TestParsing:
    def test_bridge_fixture(self):
        model, diags = parse_model((DATA / "bridge.avail").read_text())
        assert diags == []
        assert isinstance(model.system, Bridge)
        assert sorted(model.components) == ["c1", "c2", "c3", "c4", "c5"]
        assert validate(model) == []

    def test_all_three_component_forms(self):
        model, diags = parse_model(
            "component a { availability = 0.95 }\n"
            "component b { mtbf_h = 1000, mdt_h = 10 }\n"
            "component c { mtbf_h = 100000, mttres_h = 2, mldt_h = 4,\n"
            "              madt_h = 1, pnrs = 0.99, tat_h = 168 }\n"
            "system = series(a, b, c)\n"
        )
        assert diags == []
        assert list(model.components["b"].fields) == ["mtbf_h", "mdt_h"]
        assert model.components["c"].fields == {
            "mtbf_h": 1e5, "mttres_h": 2.0, "mldt_h": 4.0, "madt_h": 1.0, "pnrs": 0.99, "tat_h": 168.0}

    def test_nested_blocks(self):
        model, diags = parse_model(
            "component x { availability = 0.9 }\n"
            "system = parallel(series(x, x), kofn(2; x, x, x))\n"
        )
        assert diags == []
        assert isinstance(model.system, Parallel)
        assert isinstance(model.system.children[0], Series)
        assert isinstance(model.system.children[1], KofN)
        assert model.system.children[1].k == 2

    def test_comments_and_whitespace(self):
        model, diags = parse_model(
            "# leading comment\n"
            "component x { availability = 0.9 }  # trailing\n"
            "\n\n"
            "system = x # done\n"
        )
        assert diags == []
        assert model is not None

    def test_scientific_notation(self):
        model, diags = parse_model(
            "component x { mtbf_h = 1e5, mdt_h = 8.68 }\nsystem = x\n"
        )
        assert diags == []
        assert model.components["x"].fields["mtbf_h"] == 1e5

    def test_network_declaration(self):
        model, diags = parse_model(
            "component link { availability = 0.99 }\n"
            "network {\n"
            "  source = a,\n"
            "  terminal = d,\n"
            "  edge(a, b, link),\n"
            "  edge(b, d, link)\n"
            "}\n"
        )
        assert diags == []
        assert isinstance(model.system, Network)
        assert model.system.source == "a"
        assert [e.id for e in model.system.edges] == ["e0", "e1"]
        assert model.system.edges[0].component_id == "link"


# Fragments of the model language, so generated text reaches past the lexer.
_FRAGMENTS = st.sampled_from(
    [
        "component", "system", "network", "source", "terminal", "edge", "series",
        "parallel", "kofn", "bridge", "availability", "mtbf_h", "mdt_h", "pnrs",
        "c1", "a", "=", ",", ";", "(", ")", "{", "}", "0.9", "2", "-1", "1e999",
        " ", "\n", "#", "é",
    ]
)


# Lone surrogates, which no UTF-8 file decodes to but a str may hold.
_SURROGATES = st.characters(
    min_codepoint=0xD800, max_codepoint=0xDFFF, exclude_categories=()
)

# Lexer edge cases: (text, [(message, line, column)]).
_LEXER_EDGES = [
    # '²', 'Ⅳ' and '½' are word characters that continue an id but start nothing
    ("component x² { availability = 1.5 }\nsystem = x²",
     [("availability 1.5 out of [0, 1]", 1, 31)]),
    ("component c { availability = 0.9 }\nsystem = ²",
     [("unexpected character '²'", 2, 10), ("expected a block", 2, 11)]),
    ("component c { availability = ²0.5 }\nsystem = Ⅳ½c",
     [("unexpected character '²'", 1, 30), ("unexpected character 'Ⅳ'", 2, 10),
      ("unexpected character '½'", 2, 11)]),
    ("component c { availability = 0.9 }\nsystem = series(c, ⅣX²)",
     [("unexpected character 'Ⅳ'", 2, 20), ("unknown component 'X²'", 2, 21)]),
    # an Arabic-Indic three is a decimal digit, and float() reads it
    ("component c { availability = \u0663 }\nsystem = c",
     [("availability 3.0 out of [0, 1]", 1, 30)]),
    ("component c { availability = 0.9 }\nsystem =\xa0c\x0b",
     [("unexpected character '\\xa0'", 2, 9), ("unexpected character '\\x0b'", 2, 11)]),
    ("component c { availability = 0.9 }\r\n\r\nsystem = ghost\r\n",
     [("unknown component 'ghost'", 3, 10), ("component 'c' is never used", 1, 11)]),
    ("component c { availability = 0.9 } # no system",
     [("missing system declaration", 1, 47)]),
    ("component c { availability = 1. }\nsystem = c",
     [("unexpected character '.'", 1, 31)]),
    ("component c { mtbf_h = --1, mdt_h = 1 }\nsystem = c",
     [("unexpected character '-'", 1, 24),
      ("mtbf_h must be a finite value > 0, got -1.0", 1, 25)]),
    ("component é { availability = 2 }\nsystem = é @",
     [("unexpected character '@'", 2, 12), ("availability 2.0 out of [0, 1]", 1, 30)]),
    # lone ASCII characters that start no token
    ("component c { availability = 0.9 }\nsystem = c\x00",
     [("unexpected character '\\x00'", 2, 11)]),
    ("component c { availability = 0.9 }\x7f\nsystem = c",
     [("unexpected character '\\x7f'", 1, 35)]),
    ("component c { availability = 0.9 }\nsystem = !c",
     [("unexpected character '!'", 2, 10)]),
    ("component c {\favailability = 0.9 }\nsystem = c",
     [("unexpected character '\\x0c'", 1, 14)]),
    ("component c { availability = -x }\nsystem = c",
     [("unexpected character '-'", 1, 30), ("expected a number", 1, 31)]),
    ("component c { availability = .e1 }\nsystem = series(c, -.)",
     [("unexpected character '.'", 1, 30), ("unexpected character '-'", 2, 20),
      ("unexpected character '.'", 2, 21), ("expected a number", 1, 31),
      ("expected a block", 2, 22)]),
]


_HINT = FORM_HINT

# Component bodies with a value out of range and something else wrong after
# it: (text, [(message, line, column)]). A value out of range is reported at
# its token as it is read, before anything later, and declares nothing, so
# its field may come again.
_COMPONENT_BODIES = [
    ("component c { availability = 2, availability = 0.5 }\nsystem = c",
     [("availability 2.0 out of [0, 1]", 1, 30)]),
    ("component c { availability = 0.5, availability = 2 }\nsystem = c",
     [("duplicate field 'availability'", 1, 35)]),
    ("component c { mtbf_h = 0, mdt_h 1 }\nsystem = c",
     [("mtbf_h must be a finite value > 0, got 0.0", 1, 24), ("expected '='", 1, 33)]),
    ("component c { availability = 2\nsystem = c",
     [("availability 2.0 out of [0, 1]", 1, 30), ("expected '}'", 2, 1)]),
    ("component c { availability = 0.9 }\ncomponent c { availability = -1 }\nsystem = c",
     [("availability -1.0 out of [0, 1]", 2, 30), ("duplicate component id 'c'", 2, 11)]),
    ("component c { availability = 2, mtbf_h = 5 }\nsystem = c",
     [("availability 2.0 out of [0, 1]", 1, 30)]),
    ("component c { availability = 0.9, mtbf_h = 5 }\nsystem = c",
     [(_HINT, 1, 11)]),
    ("component c { mtbf_h = -1 }\nsystem = c",
     [("mtbf_h must be a finite value > 0, got -1.0", 1, 24)]),
    ("component c { pnrs = 1.5, bogus = 1, tat_h = -2, = 3 }\nsystem = c",
     [("pnrs 1.5 out of [0, 1]", 1, 22), ("unknown field 'bogus'", 1, 27),
      ("tat_h must be a finite value >= 0, got -2.0", 1, 46), ("expected a field name", 1, 50)]),
    ("component c { mtbf_h = 1e999, mdt_h = -0.5 }\nsystem = c",
     [("mtbf_h must be a finite value > 0, got inf", 1, 24),
      ("mdt_h must be a finite value >= 0, got -0.5", 1, 39)]),
]

# System lines with a mistake, each followed by what comes after it, as
# (text, [(message, line, column)]). A failed block is reported once, and
# parsing resumes at the next declaration; text after a complete block is
# stray top-level text.
_A = "component a { availability = 0.9 }\n"
_SYSTEM_LINES = [
    (_A + "system = series(b, )\ncomponent b { availability = 0.9 }",
     [("expected a block", 2, 20)]),
    (_A + "system = a a",
     [("expected 'component', 'system' or 'network'", 2, 12)]),
    (_A + "system = kofn(2 a, a)",
     [("expected ';'", 2, 17)]),
    (_A + "system = (a\ncomponent b { availability = 2 }",
     [("expected a block", 2, 10), ("availability 2.0 out of [0, 1]", 3, 30)]),
]

# Comments wherever a token boundary allows one, as (text, canonical text of
# the model or None, [(message, line, column)]): no space before a comment,
# a last line that is a comment, CRLF line ends, characters in a comment that
# would start no token outside one, and non-ASCII characters only in comments.
_COMMENTED = [
    ("component a{availability=0.9}# x\nsystem=a#y",
     "component a { availability = 0.9 }\nsystem = a\n", []),
    ("component a { availability = 0.9 }\ncomponent b { availability = 2 }\nsystem = a # end",
     None, [("availability 2.0 out of [0, 1]", 2, 30)]),
    ("# c\ncomponent a {availability=0.9} # x\ncomponent b {availability=0.9}\nsystem = a # y",
     "component a { availability = 0.9 }\ncomponent b { availability = 0.9 }\nsystem = a\n",
     [("component 'b' is never used", 3, 11)]),
    ("# head\r\ncomponent a { availability = 0.9 } # c\r\n"
     "component b { mtbf_h = 10, mdt_h = -1 }\r\nsystem = series(a, b) # t\r\n",
     None, [("mdt_h must be a finite value >= 0, got -1.0", 3, 36)]),
    ("component a { availability = 0.9 } # ² @ $ \x0b ü\nsystem = series(a, b)\n",
     None, [("unknown component 'b'", 2, 20)]),
    ("component a { availability = 0.9 } # note\n@ system = a\n",
     None, [("unexpected character '@'", 2, 1)]),
    ("# über\ncomponent c1 { availability = 1.5 }\nsystem = c1 # Ende ²\n",
     None, [("availability 1.5 out of [0, 1]", 2, 31)]),
    ("# über\ncomponent c1 { availability = 0.9 }\nsystem = c1 # Ende ²",
     "component c1 { availability = 0.9 }\nsystem = c1\n", []),
]

# Findings far down a system or a network, each at its token:
# (text, [(message, line, column)]).
_DEEP_EDGES = ",\n".join(
    f"  edge({'s' if i == 0 else f'n{i}'}, {'t' if i == 49 else f'n{i + 1}'}, "
    f"{'zz' if i == 37 else 'c'})" for i in range(50)
)
_DEEP_FINDINGS = [
    (_A + "system = " + "series(a, " * 150 + "zz" + ")" * 150,
     [("unknown component 'zz'", 2, 1510)]),
    (_A + "system = " + "series(a, " * 40 + "kofn(9; a, a)" + ")" * 40,
     [("k=9 exceeds the 2 sub-blocks", 2, 415)]),
    (_A + "system = parallel(a, series(a, bridge(a, a, a, a)))",
     [("bridge requires exactly five sub-blocks, got 4", 2, 32)]),
    (_A + "system = parallel(a, series(a, bridge(a, a, zz, a, a)))",
     [("unknown component 'zz'", 2, 45)]),
    ("component c { availability = 0.9 }\nnetwork {\n  source = s,\n  terminal = t,\n"
     + _DEEP_EDGES + "\n}\n",
     [("unknown component 'zz'", 42, 18)]),
]


def positioned(diags):
    return [(d.message, d.span.line, d.span.column) for d in diags]


class TestDiagnostics:
    @given(st.text() | st.lists(_FRAGMENTS | _SURROGATES).map("".join))
    def test_parse_never_raises(self, text):
        model, diags = parse_model(text)
        assert (model is None) == any(d.severity == "error" for d in diags)

    @pytest.mark.parametrize("text, expected", _LEXER_EDGES)
    def test_lexer_edge_cases(self, text, expected):
        _, diags = parse_model(text)
        assert positioned(diags) == expected

    @pytest.mark.parametrize("text, expected", _COMPONENT_BODIES)
    def test_component_bodies(self, text, expected):
        _, diags = parse_model(text)
        assert positioned(diags) == expected

    @pytest.mark.parametrize("text, expected", _SYSTEM_LINES)
    def test_system_lines(self, text, expected):
        _, diags = parse_model(text)
        assert positioned(diags) == expected

    def test_a_lone_surrogate_counts_one_column(self):
        _, diags = parse_model("\ud800")
        assert positioned(diags) == [
            ("unexpected character '\\ud800'", 1, 1),
            ("missing system declaration", 1, 2),
        ]
        _, diags = parse_model("system = a # \udfff\n\udc80 b")
        assert positioned(diags) == [
            ("unexpected character '\\udc80'", 2, 1),
            ("expected 'component', 'system' or 'network'", 2, 3),
            ("unknown component 'a'", 1, 10),
        ]

    def test_spans_stay_linear_in_the_text(self):
        # ~200k chars of non-ASCII text with 80k diagnostics: lexer errors
        # all through it, then unknown refs reported from the start again
        head = "component ä { availability = 0.9 }\nsystem = series("
        text = head + "ü\xa0, " * 40_000 + "ä)"
        started = time.perf_counter()
        model, diags = parse_model(text)
        assert time.perf_counter() - started < 5.0
        assert model is None and len(diags) == 80_000
        last = text.rindex("ü")
        assert positioned(diags[-1:]) == [("unknown component 'ü'", 2, last - text.index("\n"))]

    @pytest.mark.parametrize("text, expected", _DEEP_FINDINGS)
    def test_findings_deep_in_a_read_structure(self, text, expected):
        model, diags = parse_model(text)
        assert model is None
        assert positioned(diags) == expected

    def test_findings_stay_linear_in_the_tree(self):
        # 20,000 unknown leaves under two levels of 20 composites each:
        # every finding is placed at its token from one walk of the tree
        leaf = iter(range(20_000))
        mid = lambda: "parallel(" + ", ".join(f"u{next(leaf)}" for _ in range(50)) + ")"
        top = lambda: "series(" + ", ".join(mid() for _ in range(20)) + ")"
        text = _A + "system = parallel(a, " + ", ".join(top() for _ in range(20)) + ")\n"
        started = time.perf_counter()
        model, diags = parse_model(text)
        assert time.perf_counter() - started < 5.0
        assert model is None and len(diags) == 20_000
        assert positioned(diags[:1] + diags[-1:]) == [
            ("unknown component 'u0'", 2, 38),
            ("unknown component 'u19999'", 2, text.rindex("u19999") - text.index("\n")),
        ]

    def test_nesting_past_the_cap_is_a_positioned_error(self):
        head = "component a { availability = 0.9 }\nsystem = "
        at_cap = head + "series(a, " * MAX_NESTING + "a" + ")" * MAX_NESTING
        model, diags = parse_model(at_cap)
        assert diags == []
        model, diags = parse_model(head + "parallel(a, " * 3000 + "a" + ")" * 3000)
        assert model is None
        [d] = diags
        assert d.message == f"blocks nest more than {MAX_NESTING} levels deep"
        assert (d.span.line, d.span.column) == (2, 10 + 12 * MAX_NESTING)

    def test_out_of_range_availability_points_at_value(self):
        model, diags = parse_model("component c1 { availability = 1.5 }\nsystem = c1")
        assert model is None
        [d] = errors(diags)
        assert d.span.line == 1
        assert d.span.column == 31
        assert "out of [0, 1]" in d.message

    def test_missing_system(self):
        model, diags = parse_model("component c1 { availability = 0.9 }")
        assert model is None
        assert any("missing system" in d.message for d in errors(diags))

    def test_both_system_and_network(self):
        model, diags = parse_model(
            "component c1 { availability = 0.9 }\n"
            "system = c1\n"
            "network { source = a, terminal = b, edge(a, b, c1) }\n"
        )
        assert model is None
        assert any("not both" in d.message for d in errors(diags))

    def test_broken_system_is_not_missing(self):
        _, diags = parse_model(
            "component c1 { availability = 0.9 }\nsystem = series(c1)"
        )
        msgs = [d.message for d in errors(diags)]
        assert any("at least two" in m for m in msgs)
        assert not any("missing system" in m for m in msgs)

    def test_duplicate_component(self):
        _, diags = parse_model(
            "component c1 { availability = 0.9 }\n"
            "component c1 { availability = 0.8 }\n"
            "system = c1"
        )
        assert any("duplicate component id" in d.message for d in errors(diags))

    def test_duplicate_field(self):
        _, diags = parse_model(
            "component c1 { availability = 0.9, availability = 0.8 }\nsystem = c1"
        )
        assert any("duplicate field" in d.message for d in errors(diags))

    def test_unknown_field(self):
        _, diags = parse_model("component c1 { bogus = 1 }\nsystem = c1")
        assert any("unknown field 'bogus'" in d.message for d in errors(diags))

    def test_incomplete_field_combination(self):
        _, diags = parse_model("component c1 { mtbf_h = 100 }\nsystem = c1")
        assert any("component fields must be" in d.message for d in errors(diags))

    def test_mixed_field_combination(self):
        _, diags = parse_model(
            "component c1 { availability = 0.9, mtbf_h = 5 }\nsystem = c1"
        )
        assert any("component fields must be" in d.message for d in errors(diags))

    @pytest.mark.parametrize("where", ["parse_model", "validate", "eval_kofn"])
    @pytest.mark.parametrize(
        "k, message",
        [(0, "k must be >= 1, got 0"), (-1, "k must be >= 1, got -1"),
         (3, "k=3 exceeds the 2 sub-blocks")],
        ids=["k0", "k-1", "k3"],
    )
    def test_kofn_k_bounds(self, where, k, message):
        # one rule, one message: the file's error sits at k's token
        if where == "parse_model":
            model, diags = parse_model(
                f"component c {{ availability = 0.9 }}\nsystem = kofn({k}; c, c)"
            )
            assert model is None
            assert [(d.message, d.span.line, d.span.column) for d in diags] == [(message, 2, 15)]
        elif where == "validate":
            tree = KofN(k, (Leaf("c"), Leaf("c")))
            components = {"c": Component("c", {"availability": 0.9})}
            assert validate(Model(components, tree)) == [Diagnostic("error", "system", message)]
        else:
            with pytest.raises(EvaluationError) as err:
                eval_kofn(k, [0.9, 0.9])
            assert str(err.value) == message

    def test_bridge_arity(self):
        _, diags = parse_model(
            "component c { availability = 0.9 }\nsystem = bridge(c, c, c)"
        )
        assert any("exactly five" in d.message for d in errors(diags))

    def test_series_arity(self):
        _, diags = parse_model(
            "component c { availability = 0.9 }\nsystem = series(c)"
        )
        assert any("at least two" in d.message for d in errors(diags))

    def test_unknown_reference_in_system(self):
        _, diags = parse_model(
            "component c { availability = 0.9 }\nsystem = ghost"
        )
        assert any("unknown component 'ghost'" in d.message for d in errors(diags))

    def test_unknown_reference_in_edge(self):
        _, diags = parse_model(
            "component c { availability = 0.9 }\n"
            "network { source = a, terminal = b, edge(a, b, ghost) }\n"
        )
        assert any("unknown component 'ghost'" in d.message for d in errors(diags))

    def test_reserved_word_as_id(self):
        _, diags = parse_model(
            "component series { availability = 0.9 }\nsystem = series"
        )
        assert any("reserved word" in d.message for d in errors(diags))

    def test_network_needs_an_edge(self):
        _, diags = parse_model(
            "component c { availability = 0.9 }\n"
            "network { source = a, terminal = b }\n"
        )
        assert any("at least one edge" in d.message for d in errors(diags))

    # c's only use is replaced by an undeclared ghost
    _GHOST = (
        "component a { availability = 0.9 }\n"
        "component c { availability = 0.9 }\n"
        "system = series(a, ghost)\n"
    )

    def test_after_a_syntax_error_a_component_left_unused_is_not_reported(self):
        model, diags = parse_model("component b { availability 0.9 }\n" + self._GHOST)
        assert model is None
        assert positioned(diags) == [
            ("expected '='", 1, 28),
            ("unknown component 'ghost'", 4, 20),
        ]

    def test_without_a_syntax_error_every_finding_is_reported_at_its_token(self):
        model, diags = parse_model(self._GHOST)
        assert model is None
        assert positioned(diags) == [
            ("unknown component 'ghost'", 3, 20),
            ("component 'c' is never used", 2, 11),
        ]
        assert [d.severity for d in diags] == ["error", "warning"]
        # a warning alone leaves the model
        model, diags = parse_model(self._GHOST.replace("ghost", "a"))
        assert model is not None
        assert positioned(diags) == [("component 'c' is never used", 2, 11)]
        assert diags[0].severity == "warning"

    def test_a_source_that_is_its_terminal_is_an_error_at_the_network(self):
        model, diags = parse_model(
            "component c { availability = 0.9 }\n"
            "network { source = s, terminal = s, edge(s, t, c) }\n"
        )
        assert model is None
        assert positioned(diags) == [("source and terminal must differ", 2, 1)]

    def test_edge_findings_sit_at_the_component_and_at_the_edge(self):
        _, diags = parse_model(
            "component c { availability = 0.9 }\n"
            "network { source = s, terminal = t,\n"
            "  edge(s, t, ghost), edge(t, t, c) }\n"
        )
        assert [(d.severity, d.message, d.span.line, d.span.column) for d in diags] == [
            ("error", "unknown component 'ghost'", 3, 14),
            ("warning", "self-loop at 't' cannot affect connectivity", 3, 22),
        ]

    def test_unexpected_character(self):
        _, diags = parse_model("component c1 { availability = 0.9 }\nsystem = c1\n@")
        assert any("unexpected character" in d.message for d in errors(diags))

    def test_recovery_reports_multiple_components(self):
        # panic recovery resumes at the next top-level keyword, so both
        # broken components are diagnosed in one pass
        _, diags = parse_model(
            "component a { availability = 1.5 }\n"
            "component b { availability = 2.5 }\n"
            "system = series(a, b)\n"
        )
        bad = [d for d in errors(diags) if "out of [0, 1]" in d.message]
        assert len(bad) == 2

    def test_columns_count_code_points(self):
        # the ü is two bytes in UTF-8 and one code point; a column counts
        # code points from the start of its line
        text = "# über\ncomponent c1 { availability = 1.5 }\nsystem = c1"
        _, diags = parse_model(text)
        [d] = errors(diags)
        assert (d.span.line, d.span.column) == (2, 31)
        assert d.span.column == text.index("1.5") - text.index("\n")


# The lexer as it was when tokens carried their kind, one named group per
# kind: the reference for the string tokens. Returns the (kind, text,
# start, end) tokens up to eof, and the offsets of the bad characters.
_REFERENCE_RE = re.compile(
    r"(?:[ \t\r\n]+|#[^\n]*)*"
    r"(?:(?P<id>[^\W\d]\w*)"
    r"|(?P<num>-?(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<punct>[{}()=,;])"
    r"|(?P<bad>.)"
    r"|(?P<eof>\Z))",
    re.DOTALL,
)


def reference_lex(text):
    tokens, bad, pos = [], [], 0
    while True:
        for m in _REFERENCE_RE.finditer(text, pos):
            kind = m.lastgroup
            start, end = m.span(kind)
            if kind == "bad" or (kind == "id" and not (text[start].isalpha() or text[start] == "_")):
                bad.append(start)
                pos = start + 1
                break
            tokens.append((kind, m[kind], start, end))
            if kind == "eof":
                return tokens, bad


def kind_of(tok):
    if not tok:
        return "eof"
    if modelfile._is_id(tok):
        return "id"
    return "num" if modelfile._is_num(tok) else "punct"


class TestLexing:
    @given(st.text() | st.text(st.characters(max_codepoint=127)) | st.lists(
        _FRAGMENTS | _SURROGATES | st.sampled_from(
            ["²", "½", "Ⅳ", "\u0663", "五", "𝔘", "\xa0", "\r\n", "# tail", "\t", "-", ".",
             "\x00", "\x7f", "!", "\f", "@", "-x", ".e", "$", "\x0b", "\x1f", "-e"]
        )).map("".join))
    @example("component c { availability = 0.9 } # tail")
    @example("component $c { availability = -e0.9 }\x0b\x1fsystem = @c # $\n ")
    @example("system = c \n")
    @example("")
    def test_findall_texts_equal_the_walk(self, text):
        ref, ref_bad = reference_lex(text)
        # the reference reads comments; the lexer reads the text as the
        # parser gives it, each comment blanked to as many spaces
        text = re.sub(r"#[^\n]*", lambda m: " " * len(m[0]), text)
        walked, starts, bad = modelfile._walk(text)
        assert [(kind_of(t), t, start, start + len(t)) for t, start in zip(walked, starts)] == ref
        assert bad == ref_bad
        # findall is trusted exactly when the text has no bad character,
        # and then it yields the walk's texts, plus a second empty match
        # after trailing space, a blanked comment included; so does _offsets
        toks = modelfile._TOKEN_RE.findall(text)
        assert all(map(modelfile._regular, set(toks))) == (not bad)
        unicode_starts = [m.start(1) for m in modelfile._TOKEN_RE.finditer(text)]
        assert modelfile._offsets(text) == unicode_starts
        if text.isascii():
            # the ASCII-compiled pattern scans ASCII text as the Unicode one does
            ascii_re = modelfile._ASCII_TOKEN_RE
            assert ascii_re.findall(text) == toks
            assert [m.start(1) for m in ascii_re.finditer(text)] == unicode_starts
            # in ASCII text only a lone character can start no token, and
            # dropping those gives the walk's tokens up to the first end
            assert modelfile._IRREGULAR_ASCII.isdisjoint(toks) == (not bad)
            kept, kept_starts, stray = modelfile._ascii_strays(text, toks)
            end = kept.index("") + 1
            assert (kept[:end], kept_starts[:end], stray) == (walked, starts, bad)
        if not bad:
            # after the last token
            trailing = text[starts[-2] + len(walked[-2]) if len(starts) > 1 else 0:]
            assert toks == walked + ([""] if trailing else [])
            assert unicode_starts == starts + ([len(text)] if trailing else [])

    @pytest.mark.parametrize("text, canonical, expected", _COMMENTED)
    def test_findall_comments_everywhere(self, text, canonical, expected):
        model, diags = parse_model(text)
        assert (None if model is None else format_model(model)) == canonical
        assert positioned(diags) == expected

    def test_a_well_formed_file_builds_no_span(self, monkeypatch):
        lines = []
        for i in range(2000):
            if i % 3 == 0:
                lines.append(f"component u{i} {{ availability = 0.99{i} }}")
            elif i % 3 == 1:
                lines.append(f"component u{i} {{ mtbf_h = {1000 + i}, mdt_h = 2.5 }}")
            else:
                lines.append(
                    f"component u{i} {{ mtbf_h = 1e5, mttres_h = 2, mldt_h = 4,\r\n"
                    f"  madt_h = 1, pnrs = 0.99, tat_h = {i} }}  # pipeline"
                )
        groups = [
            f"kofn(2; u{i}, u{i + 1}, u{i + 2}, u{i + 3})" for i in range(0, 2000, 4)
        ]
        lines.append(f"system = parallel(series({', '.join(groups)}), u0)  # end")
        texts = [(DATA / "bridge.avail").read_text(), "\n".join(lines)]

        def walk(*args):
            raise AssertionError("a span or a block path was built")

        monkeypatch.setattr(modelfile, "_walk", walk)
        monkeypatch.setattr(modelfile, "_offsets", walk)
        monkeypatch.setattr(modelfile, "_first_tokens", walk)
        for text in texts:
            model, diags = parse_model(text)
            assert diags == [] and model is not None
        assert len(model.components) == 2000

    def test_overflowing_mean_down_time_is_a_diagnostic(self):
        text = (
            "component a { mtbf_h = 1, mttres_h = 1e308, mldt_h = 1e308,\n"
            "              madt_h = 0, pnrs = 0.5, tat_h = 1 }\nsystem = a\n"
        )
        model, diags = parse_model(text)
        assert model is None
        assert positioned(diags) == [
            ("component 'a': mean down time must be a finite value >= 0, got inf", 1, 11),
        ]


# Mutations of the files in tests/data for the parse digest: values out of
# range or on a boundary, repeated and renamed fields, component bodies (an
# overflowing mean down time, a bad combination), stray characters, and
# truncation.
_MUTANT_VALUES = ["2", "-1", "1.5", "-0", "0", "0.5", "7", "1e308", "1e999", ".5",
                  "-1e-12", "-2e-12", "1.000000000001", "1.000000000002", "5e-324"]
_MUTANT_FIELDS = sorted(FIELD_NAMES) + ["bogus"]
_MUTANT_BODIES = [
    "mtbf_h = 10, mttres_h = 1e308, mldt_h = 1e308, madt_h = 0, pnrs = 0.5, tat_h = 1",
    "mtbf_h = 10, mttres_h = 1, mldt_h = 2, madt_h = 3, pnrs = 0.9, tat_h = 4",
    "mtbf_h = 10, mdt_h = 1e308",
    "availability = 0.9, mtbf_h = 10",
    "mtbf_h = 10",
    "",
]
_MUTANT_CHARS = ["@", "!", "$", ":", "-", ".", "\x00", "\x7f", "\f", "\x0b",
                 "{", "}", "=", ",", ")", "é", "²", "½", "Ⅳ", "\xa0", "五", "\u0663"]


def mutate(rng, text):
    """One to three random edits of ``text``; picks use only rng.random(),
    whose stream is the same in every Python version."""
    def pick(seq):
        return seq[int(rng.random() * len(seq))]

    for _ in range(1 + int(rng.random() * 3)):
        kind = rng.random()
        fields = list(re.finditer(r"(\w+) = ([^,}\s]+)", text))
        bodies = list(re.finditer(r"component \w+ +\{([^{}]*)\}", text))
        if kind < 0.25 and fields:
            m = pick(fields)
            text = text[:m.start(2)] + pick(_MUTANT_VALUES) + text[m.end(2):]
        elif kind < 0.45 and fields:  # the same field again, before or after
            m = pick(fields)
            extra = f"{m[1]} = {pick(_MUTANT_VALUES)}"
            if rng.random() < 0.5:
                text = text[:m.start()] + extra + ", " + text[m.start():]
            else:
                text = text[:m.end()] + ", " + extra + text[m.end():]
        elif kind < 0.55 and fields:
            m = pick(fields)
            text = text[:m.start(1)] + pick(_MUTANT_FIELDS) + text[m.end(1):]
        elif kind < 0.7 and bodies:
            m = pick(bodies)
            text = text[:m.start(1)] + pick(_MUTANT_BODIES) + text[m.end(1):]
        elif kind < 0.95:
            at = int(rng.random() * (len(text) + 1))
            text = text[:at] + pick(_MUTANT_CHARS) + text[at:]
        else:
            text = text[:int(rng.random() * (len(text) + 1))]
    return text


# Token-level edits of the files in tests/data for the second digest: a
# token deleted, duplicated, or inserted from punctuation, the structural
# words and a few ids and numbers; and truncation at a token. These reach
# the block, k-of-n and network recovery paths that the edits above reach
# only by chance.
_MUTANT_TOKENS = ["{", "}", "(", ")", "=", ",", ";", "component", "system", "network",
                  "source", "terminal", "edge", "series", "parallel", "kofn", "bridge",
                  "a", "c1", "lb", "availability", "mtbf_h", "2", "0.9", "0", "-1"]


def mutate_tokens(rng, text):
    """One to three token-level edits of ``text``, picked as ``mutate`` picks."""
    def pick(seq):
        return seq[int(rng.random() * len(seq))]

    for _ in range(1 + int(rng.random() * 3)):
        kind = rng.random()
        spans = [(start, end) for _, _, start, end in reference_lex(text)[0][:-1]]
        if kind < 0.3 and spans:
            start, end = pick(spans)
            text = text[:start] + " " + text[end:]
        elif kind < 0.55 and spans:
            start, end = pick(spans)
            text = text[:end] + " " + text[start:end] + text[end:]
        elif kind < 0.9:
            at = pick([0] + [end for _, end in spans])
            text = text[:at] + " " + pick(_MUTANT_TOKENS) + " " + text[at:]
        elif spans:
            text = text[:pick(spans)[0]]
    return text


def parse_digest(texts):
    """The digest of parse_model over ``texts``. Any change to the models
    or diagnostics it gives (severity, message, line, column, and their
    order) changes it."""
    digest = hashlib.sha256()
    for text in texts:
        model, diags = parse_model(text)
        if model is not None and isinstance(model.system, Network):
            # the shape these digests were first taken over, with the node list
            net = model.system
            nodes = {net.source, net.terminal, *(n for e in net.edges for n in (e.a, e.b))}
            model = (model.components, net.edges, net.source, net.terminal, sorted(nodes))
        seen = (repr(model), [(d.severity, d.message, d.span.line, d.span.column)
                              for d in diags])
        digest.update(repr(seen).encode("utf-8", "surrogatepass"))
    return digest.hexdigest()


def fields_digest(texts):
    """The digest of parse_model over ``texts``, read through no ``repr`` but
    the system's: each diagnostic's severity, message, line and column;
    each component's id, field names, the bits of each field value, of its
    availability and of its mean down time."""
    digest = hashlib.sha256()
    for text in texts:
        model, diags = parse_model(text)
        seen = [(d.severity, d.message, d.span.line, d.span.column) for d in diags]
        if model is not None:
            for cid, c in model.components.items():
                fields = c.fields
                mdt_h = None if c.mdt_h is None else c.mdt_h.hex()
                seen.append((cid, c.id, list(fields), [v.hex() for v in fields.values()],
                             c.availability.hex(), mdt_h))
            seen.append(repr(model.system))
        digest.update(repr(seen).encode("utf-8", "surrogatepass"))
    return digest.hexdigest()


def mutated_texts():
    # 2,400 texts from the four files the digest was first taken over
    rng = random.Random(14)
    names = ["bridge", "broken", "kofn", "mixed"]
    bases = [(DATA / f"{name}.avail").read_text(encoding="utf-8") for name in names]
    return [mutate(rng, bases[i % len(bases)]) for i in range(2400)]


def token_texts():
    # 3,000 texts from the five files the digest was first taken over
    rng = random.Random(15)
    names = ["bridge", "broken", "kofn", "malformed", "mixed"]
    bases = [(DATA / f"{name}.avail").read_text(encoding="utf-8") for name in names]
    return [mutate_tokens(rng, bases[i % len(bases)]) for i in range(3000)]


_PARSE_DIGEST = "ceee1ca9e0f64d3c4d3f0010733c530e1255a91b7b2c184591c9ae439e6fd070"
_TOKEN_DIGEST = "b2d4c3891dcfca64095dee17f2a131bdbcb5cdacd6ceb5bfc52c94b9206a9e5a"
# Three of the texts hold a pnrs within PROBABILITY_TOLERANCE of [0, 1]
# (-1e-12 and 1.000000000001), which a component keeps as read.
_FIELDS_DIGEST = "6db84159cd4704f3eb97a0cdb95938627482956435c43429c519e844d5638e48"


class TestParseDigest:
    def test_a_parsed_component_is_the_one_its_fields_build(self):
        # the parser builds from values it checked at their tokens; the
        # constructor checks them again and must give the same bits
        texts = mutated_texts()[:600] + token_texts()[:600]
        built = 0
        for text in texts:
            model, _ = parse_model(text)
            for c in model.components.values() if model is not None else ():
                twin = Component(c.id, c.fields)
                assert twin == c and list(twin.fields) == list(c.fields)
                assert twin.availability.hex() == c.availability.hex()
                assert twin.mdt_h == c.mdt_h
                built += 1
        assert built > 100

    def test_mutated_texts(self):
        assert parse_digest(mutated_texts()) == _PARSE_DIGEST

    def test_token_edits(self):
        assert parse_digest(token_texts()) == _TOKEN_DIGEST

    def test_fields_and_diagnostics_without_repr(self):
        # the same 5,400 texts, digested with no repr of a component or a model
        assert fields_digest(mutated_texts() + token_texts()) == _FIELDS_DIGEST


class TestFormatting:
    def test_canonical_form(self):
        model, _ = parse_model(
            "component db  {  mtbf_h=2000 ,mdt_h = 6 }\nsystem=db\n"
        )
        assert format_model(model) == (
            "component db { mtbf_h = 2000.0, mdt_h = 6.0 }\nsystem = db\n"
        )

    @pytest.mark.parametrize(
        "declared, line",
        [
            ("component lb { availability = 0.9995 }", "component lb { availability = 0.9995 }"),
            # fields come out in file order whatever order they went in,
            # and pnrs as a bare float
            (
                "component db { pnrs = 0.95, tat_h = 72, madt_h = 1, mldt_h = 2,\n"
                "               mttres_h = 3, mtbf_h = 20000 }",
                "component db { mtbf_h = 20000.0, mttres_h = 3.0, mldt_h = 2.0, madt_h = 1.0,"
                " pnrs = 0.95, tat_h = 72.0 }",
            ),
        ],
        ids=["direct", "maintainability"],
    )
    def test_canonical_line_of_each_form(self, declared, line):
        model, diags = parse_model(f"{declared}\nsystem = {declared.split()[1]}\n")
        assert diags == []
        assert format_model(model) == f"{line}\nsystem = {declared.split()[1]}\n"

    # A probability within PROBABILITY_TOLERANCE above 1 is kept as read and
    # clamped only where it is derived with; the availability here is 1000 / 1003.5.
    @pytest.mark.parametrize(
        "body, printed, availability, mdt_h",
        [
            ("availability = 1.0000000000001", "availability = 1.0000000000001",
             "0x1.0000000000000p+0", None),
            ("mtbf_h = 1000, mttres_h = 1, mldt_h = 2, madt_h = 0.5, pnrs = 1.0000000000001,"
             " tat_h = 100",
             "mtbf_h = 1000.0, mttres_h = 1.0, mldt_h = 2.0, madt_h = 0.5, pnrs = 1.0000000000001,"
             " tat_h = 100.0",
             "0x1.fe36d9189e2aap-1", "0x1.c000000000000p+1"),
        ],
        ids=["availability", "pnrs"],
    )
    def test_a_value_in_the_tolerance_band(self, body, printed, availability, mdt_h):
        model, diags = parse_model(f"component a {{ {body} }}\nsystem = a\n")
        assert diags == []
        text = format_model(model)
        assert text == f"component a {{ {printed} }}\nsystem = a\n"
        assert parse_model(text)[0] == model
        c = model.components["a"]
        assert c.availability.hex() == availability
        assert (None if c.mdt_h is None else c.mdt_h.hex()) == mdt_h

    def test_a_component_built_in_code_prints_its_fields_in_file_order(self):
        model = Model({"w": Component("w", {"mdt_h": 2, "mtbf_h": 5000})}, Leaf("w"))
        assert format_model(model) == "component w { mtbf_h = 5000.0, mdt_h = 2.0 }\nsystem = w\n"

    def test_round_trip_block_model(self):
        text = (
            "component web { availability = 0.995 }\n"
            "component db { mtbf_h = 2000, mdt_h = 6 }\n"
            "system = parallel(series(web, db), kofn(2; web, db, web))\n"
        )
        first, diags = parse_model(text)
        assert diags == []
        second, diags2 = parse_model(format_model(first))
        assert diags2 == []
        assert first == second

    def test_pinned_repr_of_a_parsed_network(self):
        # the same bytes under every string hash seed
        model, _ = parse_model(
            "component link { availability = 0.99 }\n"
            "network { source = s, terminal = t, edge(s, m, link), edge(m, t, link) }\n"
        )
        assert repr(model.system) == (
            "Network(edges=(Edge(id='e0', a='s', b='m', component_id='link'),"
            " Edge(id='e1', a='m', b='t', component_id='link')), source='s', terminal='t')"
        )

    def test_round_trip_network_model(self):
        text = (
            "component link { availability = 0.99 }\n"
            "network { source = a, terminal = d, edge(a, b, link), edge(b, d, link) }\n"
        )
        first, diags = parse_model(text)
        assert diags == []
        second, diags2 = parse_model(format_model(first))
        assert diags2 == []
        assert first == second

    def test_round_trip_generated_models(self):
        rng = random.Random(2024)
        for _ in range(40):
            tree, env = random_tree(rng, max_depth=3, max_leaves=8)
            components = {
                cid: Component(cid, {"availability": round(a, 6)}) for cid, a in env.items()
            }
            model = Model(components=components, system=tree)
            text = format_model(model)
            back, diags = parse_model(text)
            assert diags == []
            assert back == model

    def test_round_trip_validate_clean_trees(self):
        # composites of zero to four children and k from -1 to n + 1, or
        # a k that is not an int: a model validate passes formats to text
        # that parses back to it, and one it rejects to text the parser
        # rejects
        rng = random.Random(15)

        def tree(depth):
            kind = rng.random()
            if depth == 0 or kind < 0.3:
                return Leaf(f"c{int(rng.random() * 4)}")
            if kind < 0.4:
                return Bridge(*(tree(depth - 1) for _ in range(5)))
            children = tuple(tree(depth - 1) for _ in range(int(rng.random() * 5)))
            if kind < 0.6:
                return Series(children)
            if kind < 0.8:
                return Parallel(children)
            k = int(rng.random() * (len(children) + 3)) - 1
            return KofN(rng.choice([k, k, k, k, str(k), float(k), k > 0, None]), children)

        components = {f"c{i}": Component(f"c{i}", {"availability": 0.9}) for i in range(4)}
        clean = 0
        for _ in range(400):
            model = Model(components=components, system=tree(3))
            valid = not errors(validate(model))
            back, _ = parse_model(format_model(model))
            assert (back is not None) == valid
            if valid:
                assert back == model
                clean += 1
        assert 50 < clean < 350
