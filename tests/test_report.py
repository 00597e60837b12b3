import decimal
import json
import json.encoder
import math

from hypothesis import given, strategies as st

from availkit import (
    Component,
    Leaf,
    Model,
    Network,
    Parallel,
    build_report,
    derive_environment,
    eval_block,
    nines,
    render_json,
    render_text,
)
from availkit import report
from availkit.report import to_json

MAINT = dict(mtbf_h=100000.0, mttres_h=2.0, mldt_h=4.0, madt_h=1.0, pnrs=0.99, tat_h=168.0)


def direct_model(availability):
    comps = {"only": Component("only", {"availability": availability})}
    return Model(comps, Leaf("only"))


def report_for(availability, **kwargs):
    model = direct_model(availability)
    env = derive_environment(model.components)
    return build_report(model, env, eval_block(model.system, env), **kwargs)


class TestNines:
    def test_ladder(self):
        assert nines(0.9) == 1
        assert nines(0.99) == 2
        assert nines(0.999) == 3
        assert nines(0.9999) == 4
        assert nines(0.99999) == 5

    def test_partial_nines_floor(self):
        assert nines(0.97848) == 1
        assert nines(0.995) == 2
        assert nines(0.5) == 0

    def test_perfect_is_infinite(self):
        assert math.isinf(nines(1.0))

    def test_zero(self):
        assert nines(0.0) == 0

    def test_returns_int_for_finite(self):
        assert isinstance(nines(0.9999), int)


class TestBuildReport:
    def test_four_nines_headline(self):
        rep = report_for(0.9999)
        assert rep.availability == 0.9999
        assert rep.unavailability == 1e-4
        assert rep.nines == 4
        assert rep.downtime_minutes_per_year == 52.56

    def test_nines_is_the_nines_of_the_availability(self):
        for a in (0.0, 1.0, 0.9999, 1.0 - 2.0**-53):
            assert report_for(a).nines == nines(a)
        assert math.isinf(report_for(1.0).nines)

    def test_pinned_bits_under_a_caller_decimal_context(self):
        tiny = float.fromhex("0x1.fffffffffffffp-55")
        for a in (0.123456789, 0.9999, 0.97848, 1.0 - 2.0**-53, tiny):
            outside = render_json(report_for(a))
            with decimal.localcontext() as ctx:
                ctx.prec, ctx.rounding = 6, decimal.ROUND_DOWN
                assert render_json(report_for(a)) == outside
        assert report_for(0.123456789).unavailability == 0.876543211

    def test_custom_calendar(self):
        rep = report_for(0.9999, minutes_per_year=527040.0)  # 366 days
        assert rep.downtime_minutes_per_year == 527040.0 * 1e-4

    def test_per_component_follows_declaration_order(self):
        comps = {
            "b": Component("b", {"availability": 0.9}),
            "a": Component("a", {"mtbf_h": 90.0, "mdt_h": 10.0}),
        }
        model = Model(comps, Parallel((Leaf("b"), Leaf("a"))))
        env = derive_environment(comps)
        rep = build_report(model, env, eval_block(model.system, env))
        assert [line.id for line in rep.per_component] == ["b", "a"]
        assert rep.per_component[0].mdt_h is None
        assert rep.per_component[1].mdt_h == 10.0

    def test_pipeline_mdt_shown(self):
        comps = {"srv": Component("srv", MAINT)}
        model = Model(comps, Leaf("srv"))
        env = derive_environment(comps)
        rep = build_report(model, env, eval_block(model.system, env))
        assert rep.per_component[0].mdt_h == 8.68


class TestRenderJson:
    def test_is_valid_json_with_fixed_key_order(self):
        out = render_json(report_for(0.9999))
        data = json.loads(out)
        assert list(data) == [
            "availability",
            "unavailability",
            "nines",
            "downtime_minutes_per_year",
            "per_component",
        ]
        assert data["availability"] == 0.9999
        assert data["unavailability"] == 1e-4
        assert data["nines"] == 4
        assert data["downtime_minutes_per_year"] == 52.56

    def test_byte_stable(self):
        a = render_json(report_for(0.97848))
        b = render_json(report_for(0.97848))
        assert a == b
        assert a.endswith("\n")

    def test_floats_round_trip_exactly(self):
        rep = report_for(0.9999132075335861)
        data = json.loads(render_json(rep))
        assert data["availability"] == 0.9999132075335861

    def test_infinite_nines_sentinel(self):
        out = render_json(report_for(1.0))
        data = json.loads(out)
        assert data["nines"] == "inf"
        assert data["downtime_minutes_per_year"] == 0.0

    def test_mdt_included_only_when_known(self):
        comps = {
            "a": Component("a", {"availability": 0.9}),
            "srv": Component("srv", MAINT),
        }
        model = Model(comps, Parallel((Leaf("a"), Leaf("srv"))))
        env = derive_environment(comps)
        data = json.loads(render_json(build_report(model, env, eval_block(model.system, env))))
        by_id = {entry["id"]: entry for entry in data["per_component"]}
        assert "mdt_h" not in by_id["a"]
        assert by_id["srv"]["mdt_h"] == 8.68


    def test_integer_mdt_built_in_code_is_written_as_a_float(self):
        comps = {"w": Component("w", {"mtbf_h": 5000, "mdt_h": 2})}
        model = Model(comps, Leaf("w"))
        env = derive_environment(comps)
        rep = build_report(model, env, eval_block(model.system, env))
        assert '"mdt_h": 2.0}' in render_json(rep)
        assert "mdt 2.0 h" in render_text(rep)


class TestToJson:
    def test_layout(self):
        class Loud(float):  # a float subclass is written as its float value, not its repr
            def __repr__(self):
                return "LOUD"

        mixed = {"f": 0.1, "sub": Loud(0.5), "i": 3, "b": True, "s": "x",
                 "d": {"g": 0.25, "h": Loud(1.5)}, "l": [0.75, Loud(2.5), 1, False, "y"]}
        obj = {
            "flag": True,
            "count": 3,
            "name": "caf\u00e9",
            "tags": ["a", "b"],
            "none": [],
            "rows": [{"x": 0.1, "ok": False}, {"x": 1e-09}, mixed],
            "nested": {"y": 2.5, "loud": Loud(-0.0)},
            "mixed": [0.1, Loud(3.5), 2, True, "z", {"k": Loud(4.5)}, [1e300]],
        }
        assert to_json(obj) == (
            "{\n"
            '  "flag": true,\n'
            '  "count": 3,\n'
            '  "name": "caf\\u00e9",\n'
            '  "tags": ["a", "b"],\n'
            '  "none": [],\n'
            '  "rows": [\n'
            '    {"x": 0.1, "ok": false},\n'
            '    {"x": 1e-09},\n'
            '    {"f": 0.1, "sub": 0.5, "i": 3, "b": true, "s": "x", "d": {"g": 0.25, "h": 1.5},'
            ' "l": [0.75, 2.5, 1, false, "y"]}\n'
            "  ],\n"
            '  "nested": {\n'
            '    "y": 2.5,\n'
            '    "loud": -0.0\n'
            "  },\n"
            '  "mixed": [0.1, 3.5, 2, true, "z", {"k": 4.5}, [1e+300]]\n'
            "}\n"
        )
        assert json.loads(to_json(obj)) == obj

    @given(st.lists(st.one_of(
        st.characters(), st.integers(0, 0x1F).map(chr), st.integers(0xD800, 0xDFFF).map(chr),
        st.integers(0x10000, 0x10FFFF).map(chr)), max_size=40).map("".join))
    def test_pinned_quote_is_jsons_ascii_quoter(self, text):
        # control characters, lone surrogates and non-BMP characters included
        assert report._quote(text) == json.encoder.encode_basestring_ascii(text)

    def test_pinned_quote_of_named_strings(self):
        for text in ("", "caf\u00e9", "\x00\x1f\x7f", "\ud800", "\udfff x", "\U0001f600", '"\\\n\t'):
            assert report._quote(text) == json.encoder.encode_basestring_ascii(text)


class TestRenderText:
    def test_headline_lines(self):
        out = render_text(report_for(0.9999))
        assert "availability             0.9999" in out
        assert "unavailability           0.0001" in out
        assert "nines                    4" in out
        assert "downtime (minutes/year)  52.56" in out

    def test_infinite_nines(self):
        assert "nines                    inf" in render_text(report_for(1.0))

    def test_pinned_bytes_without_components(self):
        empty = build_report(Model({}, Network((), "s", "t")), {}, 0.0)
        assert render_text(empty) == (
            "availability             0.0\n"
            "unavailability           1.0\n"
            "nines                    0\n"
            "downtime (minutes/year)  525600.0\n"
        )

    def test_component_table_alignment(self):
        comps = {
            "short": Component("short", {"availability": 0.9}),
            "a-much-longer-name": Component("a-much-longer-name", {"availability": 0.8}),
        }
        model = Model(comps, Parallel((Leaf("short"), Leaf("a-much-longer-name"))))
        env = derive_environment(comps)
        out = render_text(build_report(model, env, eval_block(model.system, env)))
        lines = [l for l in out.splitlines() if "availability 0." in l]
        assert len({l.index("availability") for l in lines}) == 1
