import gc
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import availkit.cli as cli
from availkit import Probability
from availkit.cli import main
from availkit.modelfile import MAX_NESTING

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
DEMOS = Path(__file__).parent.parent / "demos"
SRC = Path(__file__).parent.parent / "src"
README = Path(__file__).parent.parent / "README.md"
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"
BRIDGE = str(DATA / "bridge.avail")
MIXED = str(DATA / "mixed.avail")
KOFN = str(DATA / "kofn.avail")
MESH = str(DATA / "mesh.avail")
EXIT_USAGE = 1  # a usage error is a validation failure; 2 is an I/O failure


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def outcome(capsys, *argv):
    """Like ``run``, where a usage error or ``-h`` ends the run with its exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN_RUNS = [
    ("eval", ["eval", BRIDGE, "--format", "json"], 0),
    ("check", ["check", BRIDGE, "--format", "json"], 0),
    ("oracle", ["oracle", BRIDGE, "--format", "json"], 0),
    (
        "whatif",
        ["whatif", BRIDGE, "--set", "c3.availability=1.0", "--format", "json"],
        0,
    ),
    (
        "oracle_mc",
        [
            "oracle", BRIDGE, "--mode", "mc",
            "--samples", "100000", "--seed", "7", "--format", "json",
        ],
        0,
    ),
    ("eval_mixed", ["eval", MIXED, "--format", "json"], 0),
    ("check_broken", ["check", str(DATA / "broken.avail"), "--format", "json"], 1),
    (
        "whatif_two",
        [
            "whatif", MIXED, "--set", "db.pnrs=0.5",
            "--set", "café.availability=0.999", "--format", "json",
        ],
        0,
    ),
    ("eval_kofn", ["eval", KOFN, "--format", "json"], 0),
    ("check_malformed", ["check", str(DATA / "malformed.avail"), "--format", "json"], 1),
    ("eval_mesh", ["eval", MESH, "--format", "json"], 0),
    # text mode: the same figures through render_text and the CLI's own rows
    ("eval_text", ["eval", BRIDGE], 0),
    ("eval_mixed_text", ["eval", MIXED], 0),
    ("eval_mesh_text", ["eval", MESH], 0),
    ("oracle_text", ["oracle", BRIDGE], 0),
    ("oracle_mc_text", ["oracle", BRIDGE, "--mode", "mc", "--samples", "100000", "--seed", "7"], 0),
    (
        "whatif_two_text",
        ["whatif", MIXED, "--set", "db.pnrs=0.5", "--set", "café.availability=0.999"],
        0,
    ),
]


class TestGoldens:
    # ids stay "<golden>-argv<index>" whatever the exit code
    @pytest.mark.parametrize(
        "name,argv,exit_code",
        GOLDEN_RUNS,
        ids=[f"{name}-argv{i}" for i, (name, _, _) in enumerate(GOLDEN_RUNS)],
    )
    def test_output_matches_golden(self, capsys, name, argv, exit_code):
        code, out, err = run(capsys, *argv)
        assert code == exit_code
        # diagnostics go to stderr, so only a clean run leaves it empty
        assert (err == "") == (exit_code == 0)
        assert out == (GOLDEN / f"{name}.golden").read_text(encoding="utf-8")

    def test_goldens_again_byte_for_byte(self, capsys):
        # same invocation twice: byte-identical output
        first = run(capsys, "eval", BRIDGE, "--format", "json")
        second = run(capsys, "eval", BRIDGE, "--format", "json")
        assert first == second


class TestExitCodes:
    def test_ok(self, capsys):
        code, out, _ = run(capsys, "eval", BRIDGE)
        assert code == 0
        assert "availability" in out

    def test_validation_failure(self, capsys, tmp_path):
        bad = tmp_path / "bad.avail"
        bad.write_text("component c1 { availability = 1.5 }\nsystem = c1\n")
        code, out, err = run(capsys, "eval", str(bad))
        assert code == 1
        assert out == ""
        assert "out of [0, 1]" in err

    def test_io_failure(self, capsys, tmp_path):
        code, out, err = run(capsys, "eval", str(tmp_path / "nope.avail"))
        assert code == 2
        assert "cannot read" in err

    def test_pinned_read_failures_keep_their_messages(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.avail")
        assert run(capsys, "check", missing) == (
            2, "", f"error: cannot read {missing!r}: [Errno 2] No such file or directory: {missing!r}\n")
        assert run(capsys, "check", str(tmp_path)) == (
            2, "", f"error: cannot read {str(tmp_path)!r}: [Errno 21] Is a directory: {str(tmp_path)!r}\n")
        latin = tmp_path / "latin.avail"
        latin.write_bytes(b"component caf\xe9 { availability = 0.9 }\n")
        assert run(capsys, "eval", str(latin)) == (
            2, "", f"error: {str(latin)!r} is not UTF-8: 'utf-8' codec can't decode byte 0xe9 "
            "in position 13: invalid continuation byte\n")

    @pytest.mark.parametrize("command", ["check", "eval"])
    def test_a_byte_order_mark_reads_as_the_plain_file(self, capsys, tmp_path, command):
        # as some editors save UTF-8
        marked = tmp_path / "bridge.avail"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(BRIDGE).read_bytes())
        plain = run(capsys, command, BRIDGE)
        assert run(capsys, command, str(marked))[:2] == plain[:2]
        assert plain[0] == 0

    def test_a_decode_error_after_a_byte_order_mark_names_the_file_offset(self, capsys, tmp_path):
        # the mark's three bytes count, as in a hex dump of the file
        body = b"# a comment line\n" * 500 + b"component c1 { availability = 0.9 }\n"
        marked = tmp_path / "marked.avail"
        marked.write_bytes(b"\xef\xbb\xbf" + body + b"\xff\n")
        offset = marked.read_bytes().index(b"\xff")
        assert offset == 3 + len(body)
        assert run(capsys, "check", str(marked)) == (
            2, "", f"error: {str(marked)!r} is not UTF-8: 'utf-8' codec can't decode byte 0xff "
            f"in position {offset}: invalid start byte\n")

    def test_a_second_byte_order_mark_is_text(self, capsys, tmp_path):
        # only the first is skipped; the second is a stray character at 1:1
        doubled = tmp_path / "doubled.avail"
        doubled.write_bytes(b"\xef\xbb\xbf" * 2 + Path(BRIDGE).read_bytes())
        code, _, err = run(capsys, "check", str(doubled))
        assert (code, err) == (1, f"{doubled}:1:1: error: unexpected character '\\ufeff'\n")

    def test_enum_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "oracle", BRIDGE, "--enum-cap", "3")
        assert code == 4
        assert "Monte Carlo" in err

    def test_oracle_mismatch(self, capsys, monkeypatch):
        # force a disagreement to check the mismatch path end to end
        monkeypatch.setattr(
            cli, "enumerate_availability",
            lambda structure, env, cap: Probability(0.5),
        )
        code, out, _ = run(capsys, "oracle", BRIDGE, "--format", "json")
        assert code == 3
        assert '"within_tolerance": false' in out

    def test_certain_mc_estimate_uses_rule_of_three(self, capsys, tmp_path):
        # Every sample is up, so the normal half-width is 0; the
        # tolerance falls back to four rule-of-three half-widths, 3/n.
        f = tmp_path / "high.avail"
        f.write_text("component a { availability = 0.99999999 }\nsystem = a\n")
        argv = ["oracle", str(f), "--mode", "mc", "--samples", "100000"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "within tolerance: yes" in out
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert '"half_width_95": 0.0,' in out
        assert '"tolerance": 0.00012,' in out

    def test_certain_mc_estimate_can_still_disagree(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "half.avail"
        f.write_text("component a { availability = 0.5 }\nsystem = a\n")
        monkeypatch.setattr(
            cli, "monte_carlo_availability",
            lambda structure, env, samples, seed: (Probability(1.0), 0.0),
        )
        code, out, _ = run(capsys, "oracle", str(f), "--mode", "mc", "--format", "json")
        assert code == 3
        assert '"within_tolerance": false' in out

    def test_usage_error_is_validation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval"])  # missing the model path
        assert exc.value.code == 1

    def test_unknown_flag_is_validation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", BRIDGE, "--bogus"])
        assert exc.value.code == 1

    def test_state_budget_exhaustion(self, capsys, tmp_path):
        f = tmp_path / "mesh.avail"
        f.write_text(
            "component link { availability = 0.9 }\n"
            "network {\n"
            "  source = n1,\n"
            "  terminal = n4,\n"
            "  edge(n1, n2, link),\n"
            "  edge(n1, n3, link),\n"
            "  edge(n2, n3, link),\n"
            "  edge(n2, n4, link),\n"
            "  edge(n3, n4, link)\n"
            "}\n"
        )
        code, _, err = run(capsys, "eval", str(f), "--max-states", "1")
        assert code == 1
        assert "live states" in err
        assert "Monte Carlo" in err

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--minutes-per-year", "0"),
            ("--minutes-per-year", "-5"),
            ("--enum-cap", "-3"),
            ("--max-states", "0"),
            ("--samples", "0"),
        ],
    )
    def test_numeric_flag_below_its_floor_is_validation(self, capsys, flag, value):
        command = "eval" if flag == "--minutes-per-year" else "oracle"
        with pytest.raises(SystemExit) as exc:
            main([command, BRIDGE, flag, value])
        assert exc.value.code == 1
        assert f"argument {flag}: must be >=" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,flag",
        [
            ("check", "--minutes-per-year"),
            ("check", "--enum-cap"),
            ("check", "--max-states"),
            ("eval", "--enum-cap"),
            ("whatif", "--enum-cap"),
            ("oracle", "--minutes-per-year"),
        ],
    )
    def test_flag_the_command_does_not_read_is_a_usage_error(self, capsys, command, flag):
        extra = ["--set", "c1.availability=0.9"] if command == "whatif" else []
        with pytest.raises(SystemExit) as exc:
            main([command, BRIDGE, *extra, flag, "5"])
        assert exc.value.code == 1
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err

    def test_minutes_per_year_past_float_range_is_validation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", BRIDGE, "--minutes-per-year", "1" + "0" * 400])
        assert exc.value.code == 1
        assert "argument --minutes-per-year: too large for a float" in capsys.readouterr().err

    def test_check_invalid_model_reports_and_fails(self, capsys, tmp_path):
        bad = tmp_path / "bad.avail"
        bad.write_text("component c1 { availability = 1.5 }\nsystem = c1\n")
        code, out, err = run(capsys, "check", str(bad), "--format", "json")
        assert code == 1
        assert '"valid": false' in out
        assert "out of [0, 1]" in err  # diagnostics also go to stderr

    def test_overflowing_mean_down_time_is_a_diagnostic(self, tmp_path):
        bad = tmp_path / "overflow.avail"
        bad.write_text(
            "component a { mtbf_h = 1, mttres_h = 1e308, mldt_h = 1e308, "
            "madt_h = 0, pnrs = 0.5, tat_h = 1 }\nsystem = a\n"
        )
        for command in ("check", "eval"):
            result = subprocess.run(
                [sys.executable, "-m", "availkit", command, str(bad)],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": str(SRC)},
            )
            assert result.returncode == 1
            assert "Traceback" not in result.stderr
            assert ":1:11: error: component 'a': mean down time must be" in result.stderr


class TestUsage:
    # The command line's contract: each usage error exits 1 with nothing on
    # stdout and one error line last on stderr, reported in the order that
    # argparse reports it; the other spellings of a command give its bytes.
    @pytest.mark.parametrize(
        "argv,error",
        [
            ([], "the following arguments are required: command"),
            (["bogus"],
             "argument command: invalid choice: 'bogus' (choose from 'eval', 'check', 'oracle', 'whatif')"),
            (["eval"], "the following arguments are required: model"),
            (["whatif", BRIDGE], "the following arguments are required: --set"),
            (["whatif"], "the following arguments are required: model, --set"),
            (["eval", BRIDGE, "extra"], "unrecognized arguments: extra"),
            (["eval", BRIDGE, "--bogus"], "unrecognized arguments: --bogus"),
            (["--bogus", "eval", BRIDGE, "extra"], "unrecognized arguments: --bogus extra"),
            (["eval", BRIDGE, "--", "--format", "json"], "unrecognized arguments: --format json"),
            (["oracle", BRIDGE, "--m", "5"], "ambiguous option: --m could match --max-states, --mode"),
            (["eval", BRIDGE, "--m", "5"],
             "ambiguous option: --m could match --minutes-per-year, --max-states"),
            (["oracle", BRIDGE, "--samples"], "argument --samples: expected one argument"),
            (["oracle", BRIDGE, "--samples", "--seed", "3"], "argument --samples: expected one argument"),
            (["oracle", BRIDGE, "--seed", "-1e3"], "argument --seed: expected one argument"),
            (["oracle", BRIDGE, "--samples=-1"], "argument --samples: must be >= 1, got -1"),
            (["oracle", BRIDGE, "--seed", "1e3"], "argument --seed: invalid int value: '1e3'"),
            (["eval", BRIDGE, "--format", "xml"],
             "argument --format: invalid choice: 'xml' (choose from 'text', 'json')"),
            (["eval", BRIDGE, "--format="],
             "argument --format: invalid choice: '' (choose from 'text', 'json')"),
            (["oracle", BRIDGE, "--mode", "exact"],
             "argument --mode: invalid choice: 'exact' (choose from 'enumerate', 'mc')"),
            # a bad value is reported before a missing MODEL, and both before an unknown flag
            (["eval", "--max-states", "0", "--bogus"], "argument --max-states: must be >= 1, got 0"),
            (["oracle", BRIDGE, "--samples", "0", "--m", "5"],
             "ambiguous option: --m could match --max-states, --mode"),
            (["eval", "--bogus"], "the following arguments are required: model"),
        ],
    )
    def test_usage_error(self, capsys, argv, error):
        code, out, err = outcome(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.splitlines()[-1] == f"error: {error}"

    @pytest.mark.parametrize(
        "argv,canonical",
        [
            (["eval", BRIDGE, "--format=json"], ["eval", BRIDGE, "--format", "json"]),
            (["eval", BRIDGE, "--form", "json"], ["eval", BRIDGE, "--format", "json"]),
            (["oracle", BRIDGE, "--e=9", "--ma", "5000"],
             ["oracle", BRIDGE, "--enum-cap", "9", "--max-states", "5000"]),
            (["eval", "--format", "json", BRIDGE], ["eval", BRIDGE, "--format", "json"]),
            (["eval", "--", BRIDGE], ["eval", BRIDGE]),
            (["eval", "--format", "json", "--", BRIDGE], ["eval", BRIDGE, "--format", "json"]),
            (["oracle", BRIDGE, "--mode", "mc", "--samples", "1000", "--seed", "-3"],
             ["oracle", BRIDGE, "--mode=mc", "--samples=1000", "--seed=-3"]),
            (["eval", BRIDGE, "--format", "json", "--format", "text"], ["eval", BRIDGE]),
            (["whatif", "--set", "c3.availability=1.0", BRIDGE],
             ["whatif", BRIDGE, "--set", "c3.availability=1.0"]),
        ],
    )
    def test_accepted_spelling(self, capsys, argv, canonical):
        expected = outcome(capsys, *canonical)
        assert expected[0] == 0
        assert outcome(capsys, *argv) == expected

    def test_set_is_repeated_and_applied_in_order(self, capsys):
        def modified(*values):
            sets = [arg for value in values for arg in ("--set", f"c3.availability={value}")]
            code, out, err = outcome(capsys, "whatif", BRIDGE, *sets, "--format", "json")
            assert (code, err) == (0, "")
            report = json.loads(out)
            assert report["overrides"] == [f"c3.availability={value}" for value in values]
            return report["modified"]

        assert modified("0.5", "1.0") == modified("1.0")
        assert modified("1.0", "0.5") == modified("0.5")

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["eval", "-h"], ["oracle", BRIDGE, "--he"]])
    def test_help_exits_0_on_stdout(self, capsys, argv):
        assert outcome(capsys, *argv) == (0, cli._USAGE, "")

    def test_a_usage_error_prints_the_usage_then_its_error(self, capsys):
        assert outcome(capsys, "eval", BRIDGE, "--bogus") == (
            EXIT_USAGE, "", cli._USAGE + "error: unrecognized arguments: --bogus\n")

    def test_the_usage_is_the_readme_synopsis(self):
        cli_section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
        assert cli_section.split("```sh\n", 1)[1].split("```", 1)[0] == cli._USAGE

    def test_each_usage_line_names_the_flags_its_command_reads(self):
        named: dict[str, set[str]] = {}
        for line in cli._USAGE.splitlines():
            if line.startswith("availkit "):
                command = line.split()[1]
            named.setdefault(command, set()).update(re.findall(r"--[a-z-]+", line))
        assert named == {command: set(flags) - {"-h", "--help"} for command, flags in cli._COMMANDS.items()}


class TestCheck:
    def test_warnings_do_not_fail(self, capsys, tmp_path):
        f = tmp_path / "warn.avail"
        f.write_text(
            "component a { availability = 0.9 }\n"
            "component unused { availability = 0.9 }\n"
            "system = a\n"
        )
        code, out, err = run(capsys, "check", str(f), "--format", "json")
        assert code == 0
        assert '"warnings": 1' in out
        assert "never used" in err

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, "check", BRIDGE)
        assert code == 0
        assert out.startswith("valid:")

    def test_deep_nesting_is_a_diagnostic(self, capsys, tmp_path):
        f = tmp_path / "deep.avail"
        f.write_text("component a { availability = 0.9 }\nsystem = " + "series(" * 3000 + "a\n")
        code, out, err = run(capsys, "check", str(f))
        assert code == 1
        assert out.startswith("invalid: 1 error(s)")
        column = len("system = ") + len("series(") * MAX_NESTING + 1
        assert err == f"{f}:2:{column}: error: blocks nest more than 200 levels deep\n"

    def test_nesting_at_the_cap_evaluates(self, capsys, tmp_path):
        f = tmp_path / "deep.avail"
        depth = MAX_NESTING
        f.write_text(
            "component a { availability = 1 }\nsystem = "
            + "series(a, " * depth + "a" + ")" * depth + "\n"
        )
        code, out, _ = run(capsys, "oracle", str(f), "--mode", "mc", "--samples", "10")
        assert code == 0
        assert "within tolerance: yes" in out


class TestEval:
    def test_text_mode_values(self, capsys):
        code, out, _ = run(capsys, "eval", BRIDGE)
        assert code == 0
        assert "0.97848" in out
        assert "11310.912" in out

    def test_minutes_per_year_flag(self, capsys):
        code, out, _ = run(
            capsys, "eval", BRIDGE, "--minutes-per-year", "1000000", "--format", "json"
        )
        assert code == 0
        assert '"downtime_minutes_per_year": 21520.0' in out

    def test_huge_mtbf_does_not_overflow_to_zero(self, capsys, tmp_path):
        f = tmp_path / "huge.avail"
        f.write_text("component x { mtbf_h = 1e308, mdt_h = 1e308 }\nsystem = x\n")
        code, out, _ = run(capsys, "eval", str(f), "--format", "json")
        assert code == 0
        assert '"availability": 0.5,' in out

    def test_network_model(self, capsys, tmp_path):
        f = tmp_path / "net.avail"
        f.write_text(
            "component link { availability = 0.9 }\n"
            "network {\n"
            "  source = n1,\n"
            "  terminal = n4,\n"
            "  edge(n1, n2, link),\n"
            "  edge(n1, n3, link),\n"
            "  edge(n2, n3, link),\n"
            "  edge(n2, n4, link),\n"
            "  edge(n3, n4, link)\n"
            "}\n"
        )
        code, out, _ = run(capsys, "eval", str(f), "--format", "json")
        assert code == 0
        assert '"availability": 0.97848' in out


class TestWhatif:
    def test_unknown_component(self, capsys):
        code, _, err = run(capsys, "whatif", BRIDGE, "--set", "ghost.availability=0.5")
        assert code == 1
        assert "unknown component" in err

    def test_malformed_override(self, capsys):
        code, _, err = run(capsys, "whatif", BRIDGE, "--set", "c1=0.5")
        assert code == 1
        assert "id.field=value" in err

    def test_unknown_field(self, capsys):
        code, _, err = run(capsys, "whatif", BRIDGE, "--set", "c1.bogus=0.5")
        assert code == 1
        assert "unknown field" in err

    def test_field_must_match_component_form(self, capsys):
        # c1 is declared with a direct availability; mtbf_h does not apply
        code, _, err = run(capsys, "whatif", BRIDGE, "--set", "c1.mtbf_h=100")
        assert code == 1
        assert "does not apply" in err

    def test_override_value_that_is_not_a_number(self, capsys):
        code, out, err = run(capsys, "whatif", BRIDGE, "--set", "c1.availability=abc")
        assert (code, out) == (1, "")
        assert err == "error: override value 'abc' is not a number\n"

    def test_override_out_of_range(self, capsys):
        code, _, err = run(capsys, "whatif", BRIDGE, "--set", "c1.availability=2.0")
        assert code == 1
        assert err == "error: component 'c1': availability 2.0 out of [0, 1]\n"

    @pytest.mark.parametrize(
        "override, message",
        [
            ("db.pnrs=2", "pnrs 2.0 out of [0, 1]"),
            ("db.pnrs=nan", "pnrs nan out of [0, 1]"),
            ("db.mldt_h=inf", "mldt_h must be a finite value >= 0, got inf"),
            ("db.tat_h=-1", "tat_h must be a finite value >= 0, got -1.0"),
        ],
    )
    def test_maintainability_override_out_of_range_names_the_component(
        self, capsys, override, message
    ):
        code, out, err = run(capsys, "whatif", MIXED, "--set", override)
        assert code == 1
        assert out == ""
        assert err == f"error: component 'db': {message}\n"

    # mixed.avail declares lb directly, web by mtbf/mdt and db by the
    # maintainability pipeline; each row is exit code, stderr and the
    # modified availability (None when the override is refused).
    @pytest.mark.parametrize(
        "override, code, err, modified",
        [
            ("web.mtbf_h=2500", 0, "", "0.9890302649674031"),
            ("web.mdt_h=0.5", 0, "", "0.9890302654715847"),
            ("db.mtbf_h=40000", 0, "", "0.9892675757185753"),
            ("db.mttres_h=0", 0, "", "0.989178571008315"),
            ("db.mdt_h=5", 1,
             "error: field 'mdt_h' does not apply to component 'db' (mtbf/maintainability form)\n",
             None),
            ("web.pnrs=0.5", 1,
             "error: field 'pnrs' does not apply to component 'web' (mtbf/mdt form)\n", None),
            ("lb.mdt_h=1", 1,
             "error: field 'mdt_h' does not apply to component 'lb' (direct availability form)\n",
             None),
            ("db.availability=0.9", 0, "", "0.8905544999430729"),
            ("web.mdt_h=-1", 1,
             "error: component 'web': mdt_h must be a finite value >= 0, got -1.0\n", None),
        ],
    )
    def test_override_table(self, capsys, override, code, err, modified):
        got_code, out, got_err = run(capsys, "whatif", MIXED, "--set", override)
        assert (got_code, got_err) == (code, err)
        if modified is None:
            assert out == ""
        else:
            assert f"\nmodified availability    {modified}\n" in out

    def test_pnrs_override_reruns_down_time_pipeline(self, capsys, tmp_path):
        f = tmp_path / "srv.avail"
        f.write_text(
            "component srv { mtbf_h = 100000, mttres_h = 2, mldt_h = 4,\n"
            "                madt_h = 1, pnrs = 0.99, tat_h = 168 }\n"
            "system = srv\n"
        )
        # pnrs = 1 removes the turnaround term: MDT drops from 8.68 to 7
        code, out, _ = run(
            capsys, "whatif", str(f), "--set", "srv.pnrs=1.0", "--format", "json"
        )
        assert code == 0
        base = 100000.0 / 100008.68
        after = 100000.0 / 100007.0
        assert f'"availability": {base!r}' in out
        assert f'"availability": {after!r}' in out

    def test_multiple_overrides(self, capsys):
        code, out, _ = run(
            capsys,
            "whatif", BRIDGE,
            "--set", "c1.availability=0.99",
            "--set", "c2.availability=0.99",
            "--format", "json",
        )
        assert code == 0
        assert '"overrides": ["c1.availability=0.99", "c2.availability=0.99"]' in out


class TestSubprocess:
    @pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
    def test_demo_runs(self, demo):
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, str(DEMOS / demo)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr

    def test_import_does_not_load_numpy(self):
        # numpy is loaded only when Monte Carlo needs it
        result = subprocess.run(
            [sys.executable, "-c", "import sys, availkit.cli; print('numpy' in sys.modules)"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert result.stdout == "False\n", result.stderr

    def test_import_adds_no_dataclasses_inspect_or_numpy(self):
        # the value types are plain slotted classes; modules that ``site``
        # loads here are in both sets, so they do not count
        def modules(code):
            result = subprocess.run(
                [sys.executable, "-c", code + "import sys; print(*sorted(sys.modules))"],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": str(SRC)},
            )
            assert result.returncode == 0, result.stderr
            return set(result.stdout.split())

        added = modules("import availkit.cli; ") - modules("")
        assert "availkit.cli" in added
        assert not added & {"dataclasses", "inspect", "numpy"}

    @pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no-site"])
    def test_import_adds_no_decimal_json_or_pathlib(self, flags):
        # the complement is integer arithmetic and the quoter is _json's;
        # under -S, site has not loaded pathlib on its own
        code = "import sys; before = set(sys.modules); import availkit.cli; "
        result = subprocess.run(
            [sys.executable, *flags, "-c", code + "print(*sorted(set(sys.modules) - before))"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        added = set(result.stdout.split())
        assert "availkit.cli" in added, result.stderr
        assert not added & {"decimal", "numbers", "json", "pathlib"}, sorted(added)

    def test_commands_load_no_argparse_gettext_or_locale(self):
        # argparse and the gettext and locale that it loads were half of a
        # command's own start-up; a byte-order mark needs no utf_8_sig codec
        script = (
            "import contextlib, io, sys\n"
            "before = set(sys.modules)\n"
            "from availkit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main([command, sys.argv[1], '--format', form])\n"
            "             for command in ('eval', 'check', 'oracle') for form in ('text', 'json')]\n"
            "print(codes, *sorted(set(sys.modules) - before))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, BRIDGE],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert result.stdout.startswith("[0, 0, 0, 0, 0, 0] "), result.stderr
        added = set(result.stdout.split())
        assert "availkit.cli" in added
        assert not added & {"argparse", "gettext", "locale", "encodings.utf_8_sig"}, sorted(added)

    def test_enumeration_oracle_does_not_load_numpy(self, tmp_path):
        # Monte Carlo alone needs numpy: the enumeration oracle and a
        # k-of-n eval do not load it
        net = tmp_path / "net.avail"
        net.write_text(
            "component link { availability = 0.9 }\n"
            "network { source = n1, terminal = n3,"
            " edge(n1, n2, link), edge(n2, n3, link), edge(n1, n3, link) }\n"
        )
        script = (
            "import contextlib, io, sys\n"
            "from availkit import KofN, Leaf, cli, structure_function\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(['oracle', path]) for path in sys.argv[1:]]\n"
            "    codes.append(cli.main(['eval', sys.argv[-1]]))\n"
            "up = structure_function(KofN(2, (Leaf('a'), Leaf('b'), Leaf('c'))), [1, 0, 1])\n"
            "print(codes, up, 'numpy' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, BRIDGE, str(net), KOFN],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert result.stdout == "[0, 0, 0, 0] True False\n", result.stderr

    @staticmethod
    def _main_without_numpy(*argv):
        # an ImportError on ``import numpy``, as when it is not installed
        script = "import sys\nsys.modules['numpy'] = None\nfrom availkit.cli import main\n"
        return subprocess.run(
            [sys.executable, "-c", script + "sys.exit(main(sys.argv[1:]))", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", KOFN],
            ["check", KOFN],
            ["whatif", KOFN, "--set", "n2.availability=0.5", "--format", "json"],
            ["oracle", KOFN],
        ],
        ids=["eval", "check", "whatif", "oracle-enumerate"],
    )
    def test_command_without_numpy_matches_with_numpy(self, capsys, argv):
        result = self._main_without_numpy(*argv)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == run(capsys, *argv)[1]

    def test_monte_carlo_without_numpy_is_one_line(self):
        result = self._main_without_numpy("oracle", KOFN, "--mode", "mc")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == "error: Monte Carlo needs numpy: pip install 'availkit[mc]'\n"

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "availkit", "eval", BRIDGE, "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == (GOLDEN / "eval.golden").read_text(encoding="utf-8")
        assert result.stderr == ""


def child_env(**overrides):
    """The environment for a child interpreter that imports availkit from ``src``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **overrides}


class TestEntry:
    """``cli.run`` is the process entry of ``python -m availkit`` and of the
    ``availkit`` script: ``main``, then stdout flushed, then the heap frozen."""

    # An oracle mismatch (exit 3) is not here: no model file makes the closed
    # form and an oracle disagree (it would be a defect of one of them), so
    # the test after this one reaches exit 3 with a substituted oracle.
    @pytest.mark.parametrize(
        "argv,exit_code",
        [
            (["eval", BRIDGE], 0),
            (["oracle", BRIDGE, "--format", "json"], 0),
            (["eval"], EXIT_USAGE),  # a SystemExit from main
            (["check", str(DATA / "broken.avail")], 1),
            (["eval", str(DATA / "missing.avail")], 2),
            (["oracle", BRIDGE, "--enum-cap", "3"], 4),
            (["-h"], 0),  # a SystemExit from main
        ],
        ids=["ok", "oracle-json", "usage", "validation", "unreadable", "enum-cap", "help"],
    )
    def test_a_process_ends_as_main_does(self, capsys, argv, exit_code):
        result = subprocess.run(
            [sys.executable, "-m", "availkit", *argv],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        in_process = outcome(capsys, *argv)
        assert in_process[0] == exit_code
        assert (result.returncode, result.stdout, result.stderr) == in_process

    def test_an_oracle_mismatch_exits_3_through_the_entry(self, capsys, monkeypatch):
        script = (
            "import sys\n"
            "from availkit import Probability, cli\n"
            "cli.enumerate_availability = lambda structure, env, cap: Probability(0.5)\n"
            "sys.argv[1:] = ['oracle', sys.argv[1], '--format', 'json']\n"
            "sys.exit(cli.run())\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, BRIDGE], capture_output=True, text=True, env=child_env()
        )
        monkeypatch.setattr(
            cli, "enumerate_availability", lambda structure, env, cap: Probability(0.5)
        )
        in_process = run(capsys, "oracle", BRIDGE, "--format", "json")
        assert in_process[0] == 3
        assert (result.returncode, result.stdout, result.stderr) == in_process

    def test_atexit_handlers_run_and_are_flushed(self):
        # why the entry freezes the heap rather than leaving by os._exit:
        # a handler registered before it still runs, and what it prints arrives
        script = (
            "import atexit, gc, sys\n"
            "from availkit.cli import run\n"
            "atexit.register(lambda: print('atexit ran; frozen:', gc.get_freeze_count() > 0))\n"
            "sys.argv[1:] = ['eval', sys.argv[1]]\n"
            "sys.exit(run())\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, BRIDGE], capture_output=True, text=True, env=child_env()
        )
        golden = (GOLDEN / "eval_text.golden").read_text(encoding="utf-8")
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == golden + "atexit ran; frozen: True\n"

    def test_main_leaves_the_collector_as_it_was(self, capsys):
        # the freeze is the entry's, so tests and library callers of main keep their GC
        before = gc.get_freeze_count(), gc.isenabled()
        assert outcome(capsys, "eval", BRIDGE)[0] == 0
        assert outcome(capsys, "eval")[0] == EXIT_USAGE
        assert outcome(capsys, "-h")[0] == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("report", ["bridge", "large", "help"])
    def test_a_closed_stdout_is_the_io_failure_without_a_traceback(
        self, tmp_path, unbuffered, report
    ):
        argv = ["-h"] if report == "help" else ["eval", BRIDGE]  # -h ends in a SystemExit
        if report == "large":  # a report past a 64 KiB pipe buffer
            large = tmp_path / "large.avail"
            names = [f"c{i}" for i in range(2000)]
            large.write_text(
                "".join(f"component {n} {{ availability = 0.9999 }}\n" for n in names)
                + f"system = series({', '.join(names)})\n",
                encoding="utf-8",
            )
            argv = ["eval", str(large), "--format", "json"]
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the report is written
        try:
            result = subprocess.run(
                [sys.executable, "-m", "availkit", *argv],
                stdout=write,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        finally:
            os.close(write)
        assert (result.returncode, result.stderr) == (2, "")

    def test_the_console_script_is_the_entry(self):
        tomllib = pytest.importorskip("tomllib")  # new in Python 3.11
        scripts = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["scripts"]
        assert scripts == {"availkit": "availkit.cli:run"}
        module, _, name = scripts["availkit"].partition(":")
        assert getattr(importlib.import_module(module), name) is cli.run
        assert "run" in cli.__all__
