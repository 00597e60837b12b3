"""The four benchmark workloads.

Each ``setup_<name>(ak, seed)`` builds a ``Workload`` from the inputs
``gen`` makes for the seed. An item's ``work`` maps a span name to the
work the span does for that item (bytes parsed, block nodes evaluated,
states enumerated, samples drawn, diagnostics reported). ``ak`` is the availkit package, or a stand-in
with the same names, so a test can substitute a wrong function and see
the op fail. An op calls into availkit only inside ``span(<layer>)``
blocks; ``check`` compares its result with references and returns None
or the reason the op failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import gen

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

ENUMERATION_TOLERANCE = 1e-9  # what `availkit oracle --mode enumerate` allows
MC_HALF_WIDTHS = 4.0  # what `availkit oracle --mode mc` allows
REFERENCE_TOLERANCE = 1e-9  # closed form against the bench's own reference


def text_work() -> float:
    """Work of the parser's kind: string formatting, dict lookups and
    float arithmetic."""
    table: dict[str, float] = {}
    total = 0.0
    for i in range(1500):
        key = "k%d" % (i % 97)
        table[key] = table.get(key, 0.0) * 0.5 + i
        total += table[key] / (1 + (i & 7))
    return total + sorted(table.values())[0]


def calls_work() -> int:
    """Work of the evaluators' and oracles' kind: recursive calls and
    list comprehensions over small boolean states."""

    def walk(depth: int, state: list[bool]) -> int:
        if depth == 0:
            return sum(1 for up in state if up)
        return walk(depth - 1, [up ^ (depth & 1 == 1) for up in state]) + depth

    return sum(walk(3, [(code >> i) & 1 == 1 for i in range(10)]) for code in range(120))


@dataclass(frozen=True)
class Calibration:
    """Fixed work the benchmark times between ops, off the clock, to
    follow the host's speed."""

    work: Callable[[], Any]
    reference_s: float  # its time at this host's usual speed
    share: float  # calibration time per second of timed work


# Kinds of work speed up and slow down unequally with the host; each
# workload is scaled by the calibration closest to its ops' work.
TEXT = Calibration(text_work, reference_s=1.4e-3, share=0.05)
CALLS = Calibration(calls_work, reference_s=1.05e-3, share=0.05)


@dataclass
class Workload:
    items: list
    op: Callable[[Any, Callable], Any]
    check: Callable[[Any, Any], str | None]
    # Whole passes over ``items`` always run at least this often, so each
    # input's median latency is taken over several samples.
    min_passes: int
    warmup: list
    calibration: Calibration
    # Called after each op of a traced pass, outside the op's timing.
    probe: Callable[[Any, Callable], None] | None = None
    child_env: dict | None = None


def _bits(x: float) -> str:
    return float(x).hex()


def _first(seen: dict, key, value):
    """The value recorded for ``key`` on its first op, recording it now if
    this is the first. Later ops must reproduce it bit for bit."""
    return seen.setdefault(key, value)


def _near(got: float, want: float, what: str) -> str | None:
    if abs(float(got) - want) > REFERENCE_TOLERANCE:
        return f"{what}: {float(got)!r} differs from reference {want!r}"
    return None


# -- pipeline -----------------------------------------------------------

def setup_pipeline(ak, seed: int) -> Workload:
    corpus = gen.pipeline_corpus(seed)
    seen: dict = {}

    def op(item, span):
        with span("modelfile.parse"):
            model, diags = ak.parse_model(item["text"])
        if item["malformed"] or model is None:
            rendered = "".join(
                f"{item['name']}:{d.span.line}:{d.span.column}: {d.severity}: {d.message}\n"
                for d in diags
            )
            return {"model": model, "diags": diags, "rendered": rendered}
        with span("model.validate"):
            problems = ak.validate(model)
        with span("components.derive"):
            env = ak.derive_environment(model.components)
        with span("evaluate.eval"):
            availability = ak.eval_block(model.system, env)
        with span("report.build"):
            report = ak.build_report(model, env, availability)
        with span("report.render"):
            as_json = ak.render_json(report)
            as_text = ak.render_text(report)
        with span("modelfile.format"):
            formatted = ak.format_model(model)
        return {"model": model, "diags": diags, "problems": problems,
                "availability": availability, "json": as_json, "text": as_text,
                "formatted": formatted}

    def check(item, r):
        if item["malformed"]:
            if r["model"] is not None:
                return "malformed file produced a model"
            got = sorted((d.span.line, d.span.column, d.message) for d in r["diags"])
            if got != item["expected_diagnostics"]:
                return f"diagnostics {got} != expected {item['expected_diagnostics']}"
            if r["rendered"] != _first(seen, item["name"], r["rendered"]):
                return "diagnostics rendered differently on a repeat"
            return None
        if r["model"] is None or r["diags"]:
            return f"well-formed file did not parse: {r['diags'][:3]}"
        if r["problems"]:
            return f"validate reported {r['problems'][:3]}"
        problem = _near(r["availability"], item["reference"], item["name"])
        if problem:
            return problem
        outputs = (_bits(r["availability"]), r["json"], r["text"], r["formatted"])
        first = seen.get(item["name"])
        if first is None:
            reparsed, diags = ak.parse_model(r["formatted"])
            if diags or reparsed != r["model"]:
                return "format_model output does not parse back to an equal model"
            decoded = json.loads(r["json"])
            if decoded["availability"] != float(r["availability"]):
                return "render_json availability differs from the evaluation"
            if len(decoded["per_component"]) != item["components"]:
                return "render_json lists the wrong number of components"
            if not r["text"].startswith(f"availability             {float(r['availability'])!r}\n"):
                return "render_text headline differs from the evaluation"
            seen[item["name"]] = outputs
        elif outputs != first:
            return "a repeat gave different availability bits or output bytes"
        return None

    return Workload(
        items=corpus,
        op=op,
        check=check,
        min_passes=2,
        warmup=[i for i in corpus if len(i["text"]) < 4000 or i["malformed"]][:8],
        calibration=TEXT,
    )


# -- mesh ---------------------------------------------------------------

def _ak_network(ak, net: dict):
    edges = tuple(ak.Edge(f"e{i}", u, v, c) for i, (u, v, c) in enumerate(net["edges"]))
    return ak.Network(edges=edges, source=net["source"], terminal=net["terminal"])


def setup_mesh(ak, seed: int) -> Workload:
    cases = gen.mesh_cases(seed)
    for case in cases:
        case["network"] = _ak_network(ak, case["net"])
    seen: dict = {}

    def op(case, span):
        with span("network." + case["shape"]):
            return ak.eval_network(case["network"], case["net"]["env"])

    def check(case, availability):
        if "reference" not in case:  # series-parallel nets bring their own
            case["reference"] = case["net"].get("reference") or gen.ref_network(case["net"])
        problem = _near(availability, case["reference"], case["name"])
        if problem:
            return problem
        if _bits(availability) != _first(seen, case["name"], _bits(availability)):
            return "a repeat gave different availability bits"
        return None

    def probe(case, span):
        with span("network.reduce"):
            ak.reduce_network(case["network"], case["net"]["env"])

    by_shape = {}
    for case in cases:
        by_shape.setdefault(case["shape"], case)
    return Workload(
        items=cases,
        op=op,
        check=check,
        min_passes=20,
        warmup=list(by_shape.values()),
        calibration=CALLS,
        probe=probe,
    )


# -- crosscheck ---------------------------------------------------------

def _block(ak, tree: tuple):
    kind = tree[0]
    if kind == "leaf":
        return ak.Leaf(tree[1])
    if kind == "kofn":
        return ak.KofN(tree[1], tuple(_block(ak, c) for c in tree[2]))
    kids = tuple(_block(ak, c) for c in tree[1])
    if kind == "bridge":
        return ak.Bridge(*kids)
    return (ak.Series if kind == "series" else ak.Parallel)(kids)


def setup_crosscheck(ak, seed: int) -> Workload:
    cases = gen.crosscheck_cases(seed)
    for i, case in enumerate(cases):
        if case["kind"] == "tree":
            case["structure"] = _block(ak, case["tree"])
            case["evaluate"] = ak.eval_block
        else:
            case["structure"] = _ak_network(ak, case["net"])
            case["env"] = case["net"]["env"]
            case["evaluate"] = ak.eval_network
        case["mc_seed"] = seed * 1000 + i
    seen: dict = {}

    def op(case, span):
        with span("oracle.closed_form"):
            exact = case["evaluate"](case["structure"], case["env"])
        if case["mode"] == "enum":
            with span("oracle.enum"):
                estimate = ak.enumerate_availability(case["structure"], case["env"])
            return exact, estimate, ENUMERATION_TOLERANCE
        with span("oracle.mc"):
            estimate, half_width = ak.monte_carlo_availability(
                case["structure"], case["env"], case["samples"], case["mc_seed"]
            )
        return exact, estimate, MC_HALF_WIDTHS * half_width

    def check(case, r):
        exact, estimate, tolerance = r
        if abs(float(exact) - float(estimate)) > tolerance:
            return (f"{case['name']}: closed form {float(exact)!r} and {case['mode']} "
                    f"oracle {float(estimate)!r} differ by more than {tolerance!r}")
        problem = _near(exact, case["reference"], case["name"])
        if problem:
            return problem
        bits = (_bits(exact), _bits(estimate), _bits(tolerance))
        if bits != _first(seen, case["name"], bits):
            return "a repeat gave different bits"
        return None

    return Workload(
        items=cases,
        op=op,
        check=check,
        min_passes=4,
        warmup=[c for c in cases if c["work"].get("oracle.enum", 0) <= 2048][:4]
        + [c for c in cases if c["mode"] == "mc"][:1],
        calibration=CALLS,
    )


# -- coldstart ----------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def setup_coldstart(ak, seed: int) -> Workload:
    import compileall

    from availkit import cli

    bridge = ROOT / "tests" / "data" / "bridge.avail"
    if not bridge.is_file():
        raise FileNotFoundError(f"coldstart needs {bridge}")
    OUT.mkdir(exist_ok=True)
    net_file = OUT / f"coldstart-{seed}.avail"
    net_file.write_text(gen.network_text(gen.coldstart_network(seed)), encoding="utf-8")
    # Users run from an installed package whose bytecode is cached.
    compileall.compile_dir(str(ROOT / "src" / "availkit"), quiet=1)
    env = child_env()
    # A child process's start follows the host's speed at creating
    # processes and loading files, which pure-Python work does not.
    bare_interpreter = Calibration(lambda: run_child(["-c", "pass"], env),
                                   reference_s=0.08, share=0.1)
    invocations = []
    commands = [(bridge, ["eval"]), (bridge, ["eval", "--format", "json"]),
                (bridge, ["check"]), (bridge, ["oracle"]),
                (net_file, ["eval"]), (net_file, ["check"]), (net_file, ["oracle"])]
    for path, command in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command[0], str(path), *command[1:]])
        if code != 0:
            raise RuntimeError(f"in-process availkit {command} {path} exited {code}")
        args = [command[0], str(path.relative_to(ROOT)), *command[1:]]
        invocations.append({"args": args, "expected": out.getvalue()})

    def op(inv, span):
        with span("cli.invoke"):
            return run_child(["-m", "availkit", *inv["args"]], env)

    def check(inv, proc):
        if proc.returncode != 0:
            return f"availkit {' '.join(inv['args'])} exited {proc.returncode}: {proc.stderr[-300:]}"
        if proc.stdout != inv["expected"]:
            return f"availkit {' '.join(inv['args'])} stdout differs from the in-process result"
        return None

    def probe(inv, span):
        if inv is not invocations[0]:
            return
        with span("cli.interp"):
            run_child(["-c", "pass"], env)
        with span("cli.import"):
            run_child(["-c", "import availkit"], env)

    return Workload(
        items=invocations,
        op=op,
        check=check,
        min_passes=6,
        warmup=invocations[:1],
        calibration=bare_interpreter,
        probe=probe,
        child_env=env,
    )


def numpy_loaded(env: dict) -> int:
    """1 when importing the CLI module also imports numpy."""
    proc = run_child(
        ["-c", "import sys, availkit.cli; print(int('numpy' in sys.modules))"], env
    )
    if proc.returncode != 0:
        raise RuntimeError(f"numpy probe failed: {proc.stderr[-300:]}")
    return int(proc.stdout.strip())


SETUPS = {
    "pipeline": setup_pipeline,
    "mesh": setup_mesh,
    "crosscheck": setup_crosscheck,
    "coldstart": setup_coldstart,
}
