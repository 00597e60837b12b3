"""availkit benchmark: seeded workloads, end-to-end and per-layer metrics.

Run one workload::

    python3 bench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

or every workload, one child process after another, with
``--workload all``. The benchmark's own tests run with
``python3 -m pytest bench -q``.

One process drives availkit's public API as a closed loop with one
caller; ``coldstart`` instead runs the CLI, one child process at a time.
A run sets up (imports availkit from ``src/`` of the checkout it sits
in, generates the seed's inputs, runs a warm-up pass), then makes whole
passes over the inputs until the ops have taken ``--seconds`` and at
least the workload's minimum number of passes has run. Every op's result
is checked; checks and references stay outside the op timings.

Every timing is scaled to a reference host speed. On a shared 2-vCPU
virtual machine each vCPU was seen to switch, within seconds, between a
usual speed and nearly twice that, and whole runs to be 20-40% slower
than others while other tenants were busy. Between ops, off the clock,
the benchmark times a fixed piece of calibration work of the op's kind:
string and dict work for ``pipeline``, recursive calls and list
comprehensions for ``mesh`` and ``crosscheck``, and a bare ``python -c
pass`` child for ``coldstart``; set-up is scaled by the string work.
Each op's latency is multiplied by the calibration's time at this host's
usual speed over the median of the samples nearest the op. A change to
availkit moves the scaled figures as it moves the raw ones; a change of
host speed moves the calibration too, and cancels. The traced run
reports the raw calibration time as ``bench.calibration_ms``.

Latencies are then summarised per input, by the input's median over the
run's passes. ``ops_per_s`` is a pass's inputs divided by the sum of
these; ``lat_geomean_ms`` is their geometric mean, and ``lat_tail_ms``
the mean over the slowest tenth of the inputs, rounded up. Inputs
differ in cost by orders of magnitude, and the seed changes each
input's cost by some 10%. So a percentile over the inputs, which is one
input's figure, jumps between seeds; the geometric mean weighs each
input alike, and the tail mean averages a few inputs. Passes and set-up
repeats are pinned to the allowed CPUs in turn, so every run samples
each vCPU alike.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics. ``--trace 1`` alternates untraced and traced passes,
so both see the same host, and reports the per-layer metrics: spans
recorded around each call the benchmark makes into a layer in the traced
passes, kept in memory and written to ``bench/out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("pipeline", "mesh", "crosscheck", "coldstart")
SETUP_REPEATS = 7
MIN_SPAN_COVERAGE = 0.9
TAIL_FRACTION = 10  # the tail is the slowest tenth of the inputs
# Calibration samples taken either side of an op to scale it.
CALIBRATION_WINDOW = 5

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "lat_geomean_ms": "ms",
    "lat_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Spans whose self time is reported per op (``_ms``) and as a share of
# op time (``_share``); the other per-layer metrics are counts and rates.
LAYER_SPANS = (
    "modelfile.parse",
    "modelfile.format",
    "model.validate",
    "components.derive",
    "evaluate.eval",
    "network.grid",
    "network.sp",
    "network.random",
    "network.reduce",
    "oracle.enum",
    "oracle.mc",
    "oracle.closed_form",
    "report.build",
    "report.render",
    "bench.glue",
)
LAYER_UNITS = {
    **{f"{s}_ms": "ms" for s in LAYER_SPANS},
    **{f"{s}_share": "frac" for s in LAYER_SPANS},
    "modelfile.parse_mb_per_s": "MB/s",
    "modelfile.diagnostics": "count",
    "evaluate.nodes_per_s": "1/s",
    "oracle.enum_states": "count",
    "oracle.enum_states_per_s": "1/s",
    "oracle.mc_samples": "count",
    "oracle.mc_samples_per_s": "1/s",
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.command_ms": "ms",
    "cli.numpy_loaded": "count",
    "cli.child_rss_mb": "MB",
    "bench.trace_overhead_frac": "frac",
    "bench.calibration_ms": "ms",
}
# Work per second of a span's self time, from the items' ``work`` counts.
RATES = {
    "modelfile.parse_mb_per_s": ("modelfile.parse", 1e-6),
    "evaluate.nodes_per_s": ("evaluate.eval", 1.0),
    "oracle.enum_states_per_s": ("oracle.enum", 1.0),
    "oracle.mc_samples_per_s": ("oracle.mc", 1.0),
}
# Work per pass over the items; these repeat exactly for a seed.
PER_PASS = {
    "modelfile.diagnostics": "modelfile.diagnostics",
    "oracle.enum_states": "oracle.enum",
    "oracle.mc_samples": "oracle.mc",
}


class Tracer:
    """Spans as [name, start, end, parent index, op id], kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        record = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self.stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def self_times(self) -> dict:
        """{op id: {span name: self seconds}}; a span's self time is its
        duration minus that of the child spans recorded inside it."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            per_op = out.setdefault(op, {})
            per_op[name] = per_op.get(name, 0.0) + (end - start) - child[i]
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps([name, start, end, parent, op]) + "\n")


class HostSpeed:
    """Samples of a workload's calibration work, taken between ops, to
    scale each op's latency to the reference speed."""

    def __init__(self, calibration) -> None:
        self.calibration = calibration
        self.starts: list[float] = []
        self.samples: list[float] = []
        self.debt = 0.0
        self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        self.calibration.work()
        took = time.perf_counter() - start
        self.starts.append(start)
        self.samples.append(took)
        self.debt -= took

    def owe(self, seconds: float) -> None:
        """Take samples for ``seconds`` of timed work just done."""
        self.debt += seconds * self.calibration.share
        while self.debt > 0:
            self.sample()

    def scale(self, start: float) -> float:
        """The factor for work that started at ``start``: the reference
        calibration time over the median of the nearest samples."""
        i = bisect.bisect(self.starts, start)
        near = self.samples[max(0, i - CALIBRATION_WINDOW):i + CALIBRATION_WINDOW]
        return self.calibration.reference_s / statistics.median(near)


_NULL = contextlib.nullcontext()


def no_span(name: str):
    return _NULL


# The CPUs this process may run on, taken in turn by ``pin``; empty where
# the platform cannot pin.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []


def pin(turn: int) -> None:
    """Run this process, and the children it starts, on the CPU whose
    turn it is."""
    if CPUS:
        os.sched_setaffinity(0, {CPUS[turn % len(CPUS)]})


def unpin() -> None:
    if CPUS:
        os.sched_setaffinity(0, CPUS)


def import_availkit():
    """Import availkit from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import availkit

    if Path(availkit.__file__).resolve().parent != src / "availkit":
        raise ImportError(f"availkit imported from {availkit.__file__}, not {src}")
    return availkit


_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import availkit; print(time.perf_counter() - t)"
)


def import_seconds(speed: HostSpeed) -> float:
    """Median time a fresh interpreter takes to import availkit, scaled
    to the reference speed."""
    times = []
    for turn in range(SETUP_REPEATS):
        pin(turn)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        speed.owe(time.perf_counter() - start)
        times.append((start, float(proc.stdout)))
    unpin()
    return statistics.median(took * speed.scale(start) for start, took in times)


def measure(wl, seconds: float, tracer: Tracer | None = None) -> dict:
    """Whole passes over the workload's items until the ops have taken
    ``seconds`` and ``wl.min_passes`` passes have run. With a tracer,
    even passes are traced and odd ones are not, and the pass count is
    even. Each pair of passes runs on the next CPU in turn, so traced and
    untraced passes see the same CPUs."""
    latencies: list[float] = []
    item_index: list[int] = []
    traced: list[bool] = []
    failures: list[str] = []
    timed = 0.0
    passes = 0
    speed = HostSpeed(wl.calibration)
    starts: list[float] = []
    while passes < wl.min_passes or timed < seconds or (tracer is not None and passes % 2):
        tracing = tracer is not None and passes % 2 == 0
        span = tracer.span if tracing else no_span
        pin(passes // 2)
        for index, item in enumerate(wl.items):
            op_id = len(latencies)
            if tracing:
                tracer.op = op_id
            error = result = None
            start = time.perf_counter()
            try:
                with span("op"):
                    result = wl.op(item, span)
            except Exception as exc:  # a failed op is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if tracing and wl.probe is not None:
                wl.probe(item, span)
            if error is None:
                try:
                    error = wl.check(item, result)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                failures.append(error)
            speed.owe(elapsed)
            latencies.append(elapsed)
            starts.append(start)
            item_index.append(index)
            traced.append(tracing)
            timed += elapsed
        passes += 1
    unpin()
    return {"latencies": latencies, "items": item_index, "traced": traced,
            "failures": failures, "timed": timed, "passes": passes,
            "scaled": [t * speed.scale(s) for t, s in zip(latencies, starts)],
            "calibration": statistics.median(speed.samples)}


def input_latencies(run: dict) -> list[float]:
    """Each input's median scaled latency over the run, in input order."""
    samples: dict[int, list[float]] = {}
    for index, latency in zip(run["items"], run["scaled"]):
        samples.setdefault(index, []).append(latency)
    return [statistics.median(samples[k]) for k in sorted(samples)]


def end_to_end(run: dict, setup_s: float) -> tuple[dict, str]:
    per_input = input_latencies(run)
    slowest = sorted(per_input)[len(per_input) * (TAIL_FRACTION - 1) // TAIL_FRACTION:]
    metrics = {
        "ops_per_s": len(per_input) / sum(per_input),
        "lat_geomean_ms": statistics.geometric_mean(per_input) * 1e3,
        "lat_tail_ms": statistics.fmean(slowest) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    note = f"slowest {len(slowest)} of {len(per_input)} inputs, {run['passes']} passes"
    return metrics, note


def per_layer(wl, run: dict, tracer: Tracer) -> dict:
    self_times = tracer.self_times()
    op_ids = [i for i, t in enumerate(run["traced"]) if t]
    total = sum(run["latencies"][i] for i in op_ids)
    metrics = {key: 0.0 for key in LAYER_UNITS}
    for s in LAYER_SPANS:
        per_op = [self_times[i][s] for i in op_ids if s in self_times.get(i, {})]
        if s == "bench.glue":
            per_op = [self_times[i]["op"] for i in op_ids]
        if per_op:
            metrics[f"{s}_ms"] = statistics.median(per_op) * 1e3
            metrics[f"{s}_share"] = sum(per_op) / total

    def span_total(s):
        return sum(self_times[i].get(s, 0.0) for i in op_ids)

    def work(key):
        return sum(wl.items[run["items"][i]].get("work", {}).get(key, 0) for i in op_ids)

    traced_passes = run["passes"] // 2
    for metric, (s, scale) in RATES.items():
        if work(s):
            metrics[metric] = work(s) * scale / span_total(s)
    for metric, key in PER_PASS.items():
        metrics[metric] = work(key) / traced_passes
    if wl.child_env is not None:
        from workloads import numpy_loaded

        def probe_ms(s):
            return statistics.median(
                end - start for n, start, end, _, _ in tracer.spans if n == s
            ) * 1e3

        interp, imported = probe_ms("cli.interp"), probe_ms("cli.import")
        metrics["cli.interp_ms"] = interp
        metrics["cli.import_ms"] = imported - interp
        command = statistics.median(run["latencies"][i] for i in op_ids) * 1e3
        metrics["cli.command_ms"] = command - imported
        metrics["cli.numpy_loaded"] = numpy_loaded(wl.child_env)
        metrics["cli.child_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        )
    # Traced and untraced passes alternate and are equal in number, so
    # their total op times compare like for like.
    untraced = run["timed"] - total
    metrics["bench.trace_overhead_frac"] = 1.0 - untraced / total
    metrics["bench.calibration_ms"] = run["calibration"] * 1e3
    return metrics


def environment(seed: int) -> dict:
    commit = "unknown"  # a checkout without .git has no commit to name
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or commit
        except OSError:
            pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {"seed": seed, "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "commit": commit}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(HERE))
    try:
        ak = import_availkit()
    except ImportError as exc:
        print(f"error: cannot import availkit from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import workloads

    speed = HostSpeed(workloads.TEXT)
    setups = []
    for turn in range(SETUP_REPEATS):
        pin(turn)
        start = time.perf_counter()
        wl = workloads.SETUPS[name](ak, seed)
        for item in wl.warmup:
            wl.op(item, no_span)
        took = time.perf_counter() - start
        speed.owe(took)
        setups.append((start, took))
    unpin()
    setup_s = import_seconds(speed) + statistics.median(
        took * speed.scale(start) for start, took in setups
    )
    env = environment(seed)
    print(f"# {name}: " + json.dumps(env))
    # The inputs and references the benchmark holds would make every full
    # collection during an op scan them; a CLI run holds one model.
    gc.collect()
    gc.freeze()

    if trace:
        tracer = Tracer()
        run = measure(wl, seconds, tracer)
        metrics = per_layer(wl, run, tracer)
        units = LAYER_UNITS
        tracer.dump(OUT / f"trace-{name}-{seed}.jsonl")
        coverage = 1.0 - metrics["bench.glue_share"]
        print(f"# layer spans cover {coverage:.1%} of op time")
        if coverage < MIN_SPAN_COVERAGE:
            print(f"# WARNING: layer spans cover under {MIN_SPAN_COVERAGE:.0%} of op time",
                  file=sys.stderr)
    else:
        run = measure(wl, seconds)
        metrics, tail_note = end_to_end(run, setup_s)
        units = END_TO_END_UNITS
    attempted = len(run["latencies"])
    failed = len(run["failures"])
    for message in sorted(set(run["failures"]))[:10]:
        print(f"# FAILED: {message}", file=sys.stderr)
    for key, value in metrics.items():
        if trace and value == 0:
            continue  # a layer this workload does not reach
        note = f"  ({tail_note})" if key == "lat_tail_ms" else ""
        print(f"{name:<10} {key:<28} {value:>14.6g} {units[key]}{note}")
    print(f"{name:<10} {'failed_frac':<28} {failed / attempted:>14.6g}  ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own child process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
