"""Acceptance gate: the headline behaviours, each printed as one line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
PASS lines). Expected figures were fixed in advance by exact rational
enumeration, independent of the code under test.
"""

import random
import subprocess
import sys
import time
from pathlib import Path

from availkit import (
    Edge,
    Network,
    Probability,
    availability_from_times,
    enumerate_availability,
    eval_block,
    eval_bridge,
    eval_kofn,
    eval_network,
    instances,
    mean_down_time,
    monte_carlo_availability,
    nines,
    unavailability,
)
from conftest import random_network, random_tree

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
BRIDGE_MODEL = str(DATA / "bridge.avail")


def bridge_network(env_ids=("c1", "c2", "c3", "c4", "c5")):
    c1, c2, c3, c4, c5 = env_ids
    edges = (
        Edge("e0", "n1", "n2", c1),
        Edge("e1", "n1", "n3", c2),
        Edge("e2", "n2", "n3", c3),
        Edge("e3", "n2", "n4", c4),
        Edge("e4", "n3", "n4", c5),
    )
    return Network(edges=edges, source="n1", terminal="n4")


def test_1_four_nines_reports_exactly_1e4_unavailable():
    assert float(unavailability(0.9999)) == 1e-4
    assert nines(Probability(0.9999)) == 4
    assert float(unavailability(0.9999)) * 525600.0 == 52.56
    print("PASS: availability 0.9999 -> unavailability 1e-4, 4 nines, 52.56 min/yr")


def test_2_two_of_three_closed_identity():
    rng = random.Random(101)
    worst = 0.0
    for _ in range(1000):
        a1, a2, a3 = (rng.random() for _ in range(3))
        got = float(eval_kofn(2, [a1, a2, a3]))
        want = a1 * a2 + a1 * a3 + a2 * a3 - 2 * a1 * a2 * a3
        worst = max(worst, abs(got - want))
    assert worst < 1e-12
    print(f"PASS: 2-of-3 equals A1A2+A1A3+A2A3-2A1A2A3 on 1000 triples (worst {worst:.1e})")


def test_3_homogeneous_kofn_matches_binomial_tail():
    import math

    rng = random.Random(102)
    worst = 0.0
    values = [rng.random() for _ in range(50)]
    for n in range(1, 13):
        for k in range(1, n + 1):
            for a in values:
                got = float(eval_kofn(k, [a] * n))
                want = sum(
                    math.comb(n, i) * a**i * (1 - a) ** (n - i)
                    for i in range(k, n + 1)
                )
                worst = max(worst, abs(got - want))
    assert worst < 1e-12
    print(f"PASS: homogeneous k-of-n matches the binomial tail, all N<=12 (worst {worst:.1e})")


def test_4_bridge_four_way_agreement():
    rng = random.Random(103)
    net = bridge_network()
    worst = 0.0
    for _ in range(1000):
        a = [rng.random() for _ in range(5)]
        closed = float(eval_bridge(*a))
        columns = (a[0] + a[1] - a[0] * a[1]) * (a[3] + a[4] - a[3] * a[4])
        paths = 1.0 - (1.0 - a[0] * a[3]) * (1.0 - a[1] * a[4])
        expanded = a[2] * columns + (1.0 - a[2]) * paths
        env = {f"c{i+1}": a[i] for i in range(5)}
        factored = float(eval_network(net, env))
        brute = float(enumerate_availability(net, env))
        worst = max(
            worst,
            abs(closed - expanded),
            abs(closed - factored),
            abs(closed - brute),
        )
    assert worst < 1e-10
    assert abs(float(eval_bridge(0.9, 0.9, 0.9, 0.9, 0.9)) - 0.97848) < 1e-12
    print(f"PASS: bridge closed form = expansion = factoring = enumeration (worst {worst:.1e})")


def test_5_maintainability_pipeline_worked_example():
    mdt = mean_down_time(mttres_h=2.0, mldt_h=4.0, madt_h=1.0, pnrs=0.99, tat_h=168.0)
    assert mdt == 8.68
    a = float(availability_from_times(100000.0, mdt))
    want = 100000.0 / 100008.68
    assert abs(a - want) / want < 1e-15
    print("PASS: MDT(2,4,1,pnrs=0.99,tat=168) = 8.68 h; availability = MTBF/(MTBF+MDT)")


def test_6_fuzz_corpus_matches_enumeration():
    rng = random.Random(104)
    worst = 0.0
    for _ in range(500):
        tree, env = random_tree(rng, max_depth=4, max_leaves=15)
        got = float(eval_block(tree, env))
        brute = float(enumerate_availability(tree, env))
        worst = max(worst, abs(got - brute))
    for _ in range(200):
        net, env = random_network(rng, max_edges=12)
        got = float(eval_network(net, env))
        brute = float(enumerate_availability(net, env))
        worst = max(worst, abs(got - brute))
    assert worst < 1e-10
    print(f"PASS: 500 trees + 200 networks agree with enumeration (worst {worst:.1e})")


def test_7_coherence_bounds_and_monotonicity():
    rng = random.Random(105)
    structures = []
    for _ in range(120):
        structures.append(random_tree(rng, max_depth=3, max_leaves=10))
    for _ in range(80):
        structures.append(random_network(rng, max_edges=10))

    def evaluate(structure, env):
        if isinstance(structure, Network):
            return float(eval_network(structure, env))
        return float(eval_block(structure, env))

    for structure, env in structures:
        ids = instances(structure)
        a = evaluate(structure, env)
        series_bound = 1.0
        parallel_bound = 1.0
        for cid in ids:
            series_bound *= env[cid]
            parallel_bound *= 1.0 - env[cid]
        assert series_bound - 1e-12 <= a <= (1.0 - parallel_bound) + 1e-12

        # improving one component never hurts
        cid = rng.choice(sorted(env))
        better = dict(env)
        better[cid] = min(1.0, env[cid] + rng.uniform(0.0, 1.0 - env[cid]))
        assert evaluate(structure, better) >= a - 1e-12
    print("PASS: series/parallel sandwich and single-component monotonicity on 200 structures")


def test_8_monte_carlo_is_sane_and_reproducible():
    from availkit import Bridge, Leaf

    tree = Bridge(Leaf("c1"), Leaf("c2"), Leaf("c3"), Leaf("c4"), Leaf("c5"))
    env = {f"c{i}": 0.9 for i in range(1, 6)}
    start = time.perf_counter()
    first, half_width = monte_carlo_availability(tree, env, 1_000_000, 7)
    second, half_width2 = monte_carlo_availability(tree, env, 1_000_000, 7)
    elapsed = time.perf_counter() - start
    assert abs(float(first) - 0.97848) <= 4 * half_width
    assert float(first) == float(second)
    assert half_width == half_width2
    assert elapsed < 10.0
    print(
        f"PASS: MC 1e6 samples seed 7 -> {float(first)} "
        f"(within 4x{half_width:.2e} of 0.97848), bit-identical twice, {elapsed:.2f}s"
    )


def test_9_cli_golden_files_byte_for_byte():
    runs = {
        "eval": ["eval", BRIDGE_MODEL, "--format", "json"],
        "check": ["check", BRIDGE_MODEL, "--format", "json"],
        "oracle": ["oracle", BRIDGE_MODEL, "--format", "json"],
        "whatif": [
            "whatif", BRIDGE_MODEL, "--set", "c3.availability=1.0", "--format", "json",
        ],
    }
    for name, argv in runs.items():
        result = subprocess.run(
            [sys.executable, "-m", "availkit", *argv],
            capture_output=True,
        )
        assert result.returncode == 0, result.stderr
        golden = (GOLDEN / f"{name}.golden").read_bytes()
        assert result.stdout == golden, f"{name} output drifted from its golden file"
    print("PASS: eval/check/oracle/whatif JSON matches the stored goldens byte-for-byte")
