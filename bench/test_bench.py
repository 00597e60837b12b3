"""Tests of the benchmark itself: run with ``python3 -m pytest bench -q``."""

from __future__ import annotations

import dataclasses
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import availkit  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def fake_availkit(**replacements):
    names = {n: getattr(availkit, n) for n in availkit.__all__}
    names.update(replacements)
    return types.SimpleNamespace(**names)


def small(wl, count):
    return dataclasses.replace(wl, items=wl.items[:count], min_passes=1)


def outcome(wl):
    result = run.measure(wl, seconds=0.0)
    return len(result["latencies"]), len(result["failures"])


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen.pipeline_corpus(3),
        lambda: gen.mesh_cases(3),
        lambda: gen.crosscheck_cases(3),
        lambda: gen.network_text(gen.coldstart_network(3)),
    ],
)
def test_generators_are_pure_functions_of_the_seed(make):
    assert make() == make()


def test_generators_differ_between_seeds():
    assert gen.pipeline_corpus(1)[0]["text"] != gen.pipeline_corpus(2)[0]["text"]
    assert gen.mesh_cases(1)[0]["net"] != gen.mesh_cases(2)[0]["net"]


def test_malformed_files_carry_the_diagnostics_the_parser_reports():
    for item in gen.pipeline_corpus(5):
        if item["malformed"]:
            model, diags = availkit.parse_model(item["text"])
            got = sorted((d.span.line, d.span.column, d.message) for d in diags)
            assert model is None
            assert got == item["expected_diagnostics"]


def test_reference_evaluators_agree_with_availkit_oracles():
    rng = random.Random(11)
    for _ in range(40):
        net = gen.random_network(rng, rng.randint(2, 6), 10)
        structure = workloads._ak_network(availkit, net)
        exact = availkit.enumerate_availability(structure, net["env"])
        assert gen.ref_network(net) == pytest.approx(exact, abs=1e-12)
    for case in gen.crosscheck_cases(2):
        if case["kind"] == "tree":
            block = workloads._block(availkit, case["tree"])
            assert case["reference"] == pytest.approx(
                availkit.enumerate_availability(block, case["env"]), abs=1e-12
            )
    sp = gen.sp_network(rng, 30)
    assert gen.ref_network(sp) == pytest.approx(sp["reference"], abs=1e-12)


@pytest.mark.parametrize("name", ["pipeline", "mesh", "crosscheck"])
def test_correct_results_pass(name):
    wl = workloads.SETUPS[name](availkit, 4)
    attempted, failed = outcome(small(wl, 12))
    assert attempted == 12 and failed == 0


def _off(x):
    return availkit.Probability(float(x) * (1.0 - 1e-6))


@pytest.mark.parametrize(
    "name, replacements, pick",
    [
        ("pipeline", {"eval_block": lambda b, e: _off(availkit.eval_block(b, e))},
         lambda it: not it["malformed"]),
        ("pipeline", {"parse_model": lambda t: (None, availkit.parse_model(t)[1][1:])},
         lambda it: it["malformed"]),
        ("pipeline", {"format_model": lambda m: availkit.format_model(m).replace("u1 ", "u2 ", 1)},
         lambda it: not it["malformed"]),
        ("mesh", {"eval_network": lambda n, e: _off(availkit.eval_network(n, e))}, None),
        ("crosscheck", {"enumerate_availability": lambda s, e: availkit.enumerate_availability(s, e) + 1e-6},
         lambda c: c["mode"] == "enum"),
        ("crosscheck", {"monte_carlo_availability":
                        lambda s, e, n, seed: (availkit.monte_carlo_availability(s, e, n, seed)[0] - 0.05, 1e-4)},
         lambda c: c["mode"] == "mc"),
    ],
)
def test_a_wrong_result_counts_as_a_failed_op(name, replacements, pick):
    wl = workloads.SETUPS[name](fake_availkit(**replacements), 4)
    if pick is not None:
        wl = dataclasses.replace(wl, items=[it for it in wl.items if pick(it)])
    attempted, failed = outcome(small(wl, 3))
    assert attempted == 3 and failed == 3


def test_coldstart_checks_exit_code_and_stdout():
    wl = workloads.setup_coldstart(availkit, 4)
    attempted, failed = outcome(small(wl, 2))
    assert attempted == 2 and failed == 0

    def wrong(inv, span):
        return subprocess.CompletedProcess(inv["args"], 0, inv["expected"] + " ", "")

    def crashed(inv, span):
        return subprocess.CompletedProcess(inv["args"], 1, inv["expected"], "")

    for op in (wrong, crashed):
        assert outcome(small(dataclasses.replace(wl, op=op), 2)) == (2, 2)


def test_an_op_that_raises_counts_as_failed():
    def boom(item, span):
        raise RuntimeError("boom")

    wl = workloads.setup_mesh(availkit, 4)
    assert outcome(small(dataclasses.replace(wl, op=boom), 5)) == (5, 5)


def test_self_time_subtracts_child_spans():
    tracer = run.Tracer()
    tracer.op = 0
    with tracer.span("op"):
        with tracer.span("evaluate.eval"):
            sum(range(10000))
    tracer.spans[0][1:3] = [0.0, 1.0]
    tracer.spans[1][1:3] = [0.25, 0.75]
    assert tracer.self_times() == {0: {"op": 0.5, "evaluate.eval": 0.5}}


def test_latencies_are_summarised_per_input():
    result = {"scaled": [1.0, 9.0, 3.0, 3.0, 5.0, 5.0, 2.0], "items": [0, 1, 0, 1, 2, 2, 0]}
    assert run.input_latencies(result) == pytest.approx([2.0, 6.0, 5.0])


def test_tail_is_the_mean_of_the_slowest_tenth_rounded_up():
    result = {"scaled": [float(i) for i in range(1, 12)], "items": list(range(11)), "passes": 1}
    metrics, _ = run.end_to_end(result, setup_s=1.0)
    assert metrics["lat_tail_ms"] == pytest.approx(10.5e3)


def test_latencies_scale_by_the_nearest_calibration_samples():
    speed = run.HostSpeed(workloads.TEXT)
    speed.starts = [float(t) for t in range(20)]
    speed.samples = [2e-3] * 10 + [1e-3] * 10
    reference = workloads.TEXT.reference_s
    assert speed.scale(2.5) == pytest.approx(reference / 2e-3)
    assert speed.scale(17.5) == pytest.approx(reference / 1e-3)
    speed.debt = 0.0
    speed.owe(1.0)  # a second of work owes calibration samples
    assert len(speed.samples) > 20 and speed.debt <= 0


def test_traced_and_untraced_passes_alternate():
    wl = small(workloads.setup_mesh(availkit, 4), 3)
    tracer = run.Tracer()
    result = run.measure(dataclasses.replace(wl, min_passes=3), 0.0, tracer)
    assert result["passes"] == 4
    assert sorted(os.sched_getaffinity(0)) == run.CPUS
    assert result["traced"] == [True] * 3 + [False] * 3 + [True] * 3 + [False] * 3
    assert {op for *_, op in tracer.spans} == {0, 1, 2, 6, 7, 8}
    metrics = run.per_layer(wl, result, tracer)
    assert metrics["network.grid_ms"] > 0
    assert metrics["network.reduce_ms"] > 0
