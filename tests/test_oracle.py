import math
import random
import sys

import pytest
from hypothesis import given, strategies as st

from availkit import (
    Bridge,
    Component,
    Edge,
    EnumerationCapError,
    EvaluationError,
    KofN,
    Leaf,
    Network,
    Parallel,
    Series,
    enumerate_availability,
    eval_block,
    eval_kofn,
    eval_network,
    instances,
    monte_carlo_availability,
    structure_function,
    unavailability,
)
from availkit import oracle
from availkit.blocks import MAX_NESTING
from availkit.oracle import _up_rows

BRIDGE = Bridge(Leaf("c1"), Leaf("c2"), Leaf("c3"), Leaf("c4"), Leaf("c5"))
UNIFORM = {f"c{i}": 0.9 for i in range(1, 6)}


def bridge_network():
    edges = (
        Edge("e0", "n1", "n2", "c1"),
        Edge("e1", "n1", "n3", "c2"),
        Edge("e2", "n2", "n3", "c3"),
        Edge("e3", "n2", "n4", "c4"),
        Edge("e4", "n3", "n4", "c5"),
    )
    return Network(edges=edges, source="n1", terminal="n4")


def grid_network(rows, cols):
    """A rows x cols grid from corner to corner, and its environment."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c < cols - 1:
                edges.append(((r, c), (r, c + 1)))
            if r < rows - 1:
                edges.append(((r, c), (r + 1, c)))
    net = Network(
        edges=tuple(
            Edge(f"e{i}", f"n{a[0]}{a[1]}", f"n{b[0]}{b[1]}", f"g{i}")
            for i, (a, b) in enumerate(edges)
        ),
        source="n00",
        terminal=f"n{rows - 1}{cols - 1}",
    )
    return net, {f"g{i}": 0.6 + 0.01 * i for i in range(len(edges))}


def pinned_tree(n):
    """A series of a parallel, a 2-of-n, and a bridge beside a series."""
    ids = [f"c{i}" for i in range(n)]
    third = n // 3
    tree = Series((
        Parallel(tuple(Leaf(c) for c in ids[:third])),
        KofN(2, tuple(Leaf(c) for c in ids[third:2 * third])),
        Parallel((
            Bridge(*(Leaf(c) for c in ids[2 * third:2 * third + 5])),
            Series(tuple(Leaf(c) for c in ids[2 * third + 5:])),
        )),
    ))
    return tree, {c: 0.5 + 0.023 * i for i, c in enumerate(ids)}


def pinned_network(n):
    """n edges spread over five nodes, many of them parallel."""
    nodes = ["s", "m1", "m2", "m3", "t"]
    edges = []
    for i in range(n):
        a, b = nodes[i % 4], nodes[(i * 3 + 1) % 5]
        edges.append(Edge(f"e{i}", a, "t" if a == b else b, f"x{i}"))
    net = Network(edges=tuple(edges), source="s", terminal="t")
    return net, {f"x{i}": 0.55 + 0.02 * (i % 20) for i in range(n)}


def pinned_enumeration_case(name):
    """A structure and environment for the pinned enumeration bits."""
    if name.startswith("tree"):
        return pinned_tree(int(name.removeprefix("tree")))
    if name.removeprefix("net").isdigit():
        return pinned_network(int(name.removeprefix("net")))
    kids = tuple(Leaf(f"k{i}") for i in range(6))
    kenv = {f"k{i}": 0.6 + 0.05 * i for i in range(6)}
    two_edges = {"x0": 0.3, "x1": 0.7}
    special = tuple(Leaf(f"s{i}") for i in range(4))
    s0, s1, s2, s3 = special
    senv = dict(zip(("s0", "s1", "s2", "s3"), (0.0, 1.0, 1.0 - 2.0**-53, 2.0**-60)))
    return {
        "childless_series": (Series(()), {}),
        "childless_parallel": (Parallel(()), {}),
        "kofn_0": (KofN(0, kids), kenv),
        "kofn_n": (KofN(6, kids), kenv),
        "kofn_over_n": (KofN(7, kids), kenv),
        "net_s_is_t": (
            Network(edges=(Edge("e0", "a", "b", "x0"), Edge("e1", "b", "a", "x1")),
                    source="a", terminal="a"),
            two_edges,
        ),
        "net_unreachable": (
            Network(edges=(Edge("e0", "a", "b", "x0"), Edge("e1", "c", "d", "x1")),
                    source="a", terminal="d"),
            two_edges,
        ),
        "special_series": (Series(special + (s2, s3)), senv),
        "special_parallel": (Parallel(special + (s2, s3)), senv),
        "special_kofn": (KofN(3, special + special), senv),
        "special_bridge": (Bridge(s2, s3, s0, s2, s1), senv),
        "special_tiny_parallel": (Parallel((s3, s3, s0)), senv),
        "special_near_one_series": (Series((s2, s2, s1, s2)), senv),
        "special_kofn_mixed": (KofN(2, (s3, s2, s3, s0, s1)), senv),
    }[name]


def test_every_figure_is_a_plain_float():
    # leaves, the rule's results and the oracles' figures are all bare floats
    pipe = Component("b", dict(mtbf_h=1000.0, mttres_h=3.0, mldt_h=2.0, madt_h=1.0, pnrs=1,
                               tat_h=72.0))
    figures = [
        eval_block(BRIDGE, UNIFORM),
        eval_block(Leaf("c1"), {"c1": 1}),
        eval_network(bridge_network(), UNIFORM),
        enumerate_availability(BRIDGE, UNIFORM),
        monte_carlo_availability(BRIDGE, UNIFORM, 1000, 7)[0],
        unavailability(1),
        Component("a", {"availability": 1}).availability,
        pipe.availability,
        pipe.mdt_h,
        pipe.fields["pnrs"],
    ]
    assert [type(figure) for figure in figures] == [float] * len(figures)


class TestInstances:
    def test_tree_instances_are_leaf_occurrences(self):
        tree = Series((Leaf("a"), Parallel((Leaf("b"), Leaf("a")))))
        assert instances(tree) == ("a", "b", "a")

    def test_network_instances_follow_edge_order(self):
        assert instances(bridge_network()) == ("c1", "c2", "c3", "c4", "c5")


class TestStructureFunction:
    # Bridge positions: b1, b2 left column; b4, b5 right; b3 the cross tie.
    @pytest.mark.parametrize(
        "state,expected",
        [
            ([1, 0, 0, 1, 0], True),   # straight through the top
            ([0, 1, 0, 0, 1], True),   # straight through the bottom
            ([1, 0, 0, 0, 1], False),  # opposite corners, no cross tie
            ([1, 0, 1, 0, 1], True),   # corners joined by the cross tie
            ([0, 1, 1, 1, 0], True),   # other diagonal via the tie
            ([1, 1, 0, 0, 0], False),  # left column only
            ([1, 1, 1, 1, 1], True),
            ([0, 0, 0, 0, 0], False),
        ],
    )
    def test_bridge_traces(self, state, expected):
        assert structure_function(BRIDGE, [bool(b) for b in state]) is expected

    def test_series_and_parallel(self):
        tree = Series((Leaf("a"), Leaf("b")))
        assert structure_function(tree, [True, True])
        assert not structure_function(tree, [True, False])
        tree = Parallel((Leaf("a"), Leaf("b")))
        assert structure_function(tree, [False, True])
        assert not structure_function(tree, [False, False])

    def test_kofn_counts(self):
        tree = KofN(2, (Leaf("a"), Leaf("b"), Leaf("c")))
        assert structure_function(tree, [True, True, False])
        assert not structure_function(tree, [True, False, False])

    def test_kofn_counts_past_int16(self):
        # 2**15 + 1 children: a 16-bit up-count would wrap negative
        n = (1 << 15) + 1
        tree = KofN(n, tuple(Leaf("a") for _ in range(n)))
        assert structure_function(tree, [True] * n)
        assert float(monte_carlo_availability(tree, {"a": 1.0}, 1, 0)[0]) == 1.0

    @given(
        st.integers(1, 70).flatmap(
            lambda rows: st.tuples(st.just(rows), st.lists(st.integers(0, (1 << rows) - 1), max_size=40))
        ),
        st.integers(-1, 42),
    )
    def test_bit_sliced_kofn_matches_a_plain_count(self, case, k):
        # bit r of columns[i] is child i's state in row r
        rows, columns = case
        tree = KofN(k, tuple(Leaf("a") for _ in columns))
        up = oracle._evaluate(tree, columns, rows)
        for r in range(rows):
            states = [c >> r & 1 for c in columns]
            assert up >> r & 1 == (sum(states) >= k)
            assert structure_function(tree, states) is (sum(states) >= k)

    def test_network_connectivity(self):
        net = bridge_network()
        assert structure_function(net, [True, False, False, True, False])
        assert not structure_function(net, [True, False, False, False, True])
        assert structure_function(net, [True, False, True, False, True])

    def test_network_reach_does_not_depend_on_edge_order(self):
        # Seeded multigraphs with parallel and reversed edges, self-loops
        # and a terminal that may touch no edge, on 64 random rows: the
        # reached rows are each row's breadth-first reach, and they stay
        # the same with the edges, and their columns, in reverse order.
        rng = random.Random(2024)
        rows = 64
        for _ in range(400):
            nodes = [f"n{i}" for i in range(rng.randint(2, 8))]
            pairs = []
            for _ in range(rng.randint(0, 14)):
                roll = rng.random()
                if pairs and roll < 0.2:
                    a, b = rng.choice(pairs)  # parallel
                elif pairs and roll < 0.4:
                    b, a = rng.choice(pairs)  # reversed
                else:
                    a, b = rng.choice(nodes), rng.choice(nodes)  # a self-loop when equal
                pairs.append((a, b))
            edges = [Edge(f"e{i}", a, b, "x") for i, (a, b) in enumerate(pairs)]
            source, terminal = rng.choice(nodes), rng.choice(nodes + ["away"])
            p = rng.random()
            columns = [sum((rng.random() < p) << r for r in range(rows)) for _ in edges]

            def joined(r):
                seen, frontier = {source}, [source]
                for node in frontier:
                    for (a, b), up in zip(pairs, columns):
                        if up >> r & 1 and node in (a, b):
                            far = b if node == a else a
                            if far not in seen:
                                seen.add(far)
                                frontier.append(far)
                return terminal in seen

            expected = sum(joined(r) << r for r in range(rows))
            net = Network(edges, source, terminal)
            assert oracle._evaluate(net, columns, rows) == expected
            flipped = Network(edges[::-1], source, terminal)
            assert oracle._evaluate(flipped, columns[::-1], rows) == expected

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="entries"):
            structure_function(BRIDGE, [True, True])

    @pytest.mark.parametrize(
        "structure,state,message",
        [
            (BRIDGE, [True] * 6, "state has 6 entries, structure has 5"),
            (Series(()), [False], "state has 1 entries, structure has 0"),
            (bridge_network(), [True] * 6, "state has 6 entries, structure has 5"),
            (bridge_network(), [True] * 4, "state has 4 entries, structure has 5"),
            (bridge_network(), [], "state has 0 entries, structure has 5"),
        ],
        ids=["long-tree", "long-empty-tree", "long-network", "short-network", "empty-network"],
    )
    def test_wrong_length_names_both_counts(self, structure, state, message):
        with pytest.raises(ValueError) as info:
            structure_function(structure, state)
        assert str(info.value) == message

    def test_short_state_on_a_broken_tree_names_the_broken_block(self):
        # the instance count walks the tree first, so a bad tree says what is wrong
        with pytest.raises(TypeError, match="not a block"):
            structure_function(Series((Leaf("a"), Leaf("b"), "x")), [True])

    def test_monotone_under_repair(self):
        rng = random.Random(31)
        for _ in range(200):
            state = [rng.random() < 0.5 for _ in range(5)]
            if not structure_function(BRIDGE, state):
                continue
            i = rng.randrange(5)
            repaired = list(state)
            repaired[i] = True
            assert structure_function(BRIDGE, repaired)


class TestEnumeration:
    def test_bridge_tree(self):
        got = float(enumerate_availability(BRIDGE, UNIFORM))
        assert abs(got - 0.97848) < 1e-12

    def test_bridge_network(self):
        got = float(enumerate_availability(bridge_network(), UNIFORM))
        assert abs(got - 0.97848) < 1e-12

    def test_matches_closed_forms_on_basics(self):
        env = {"a": 0.9, "b": 0.8, "c": 0.7}
        for tree in (
            Series((Leaf("a"), Leaf("b"))),
            Parallel((Leaf("a"), Leaf("b"), Leaf("c"))),
            KofN(2, (Leaf("a"), Leaf("b"), Leaf("c"))),
        ):
            brute = float(enumerate_availability(tree, env))
            closed = float(eval_block(tree, env))
            assert abs(brute - closed) < 1e-12

    @pytest.mark.parametrize(
        "oracle_of",
        [enumerate_availability, lambda tree, env: monte_carlo_availability(tree, env, 10, 1)],
        ids=["enumerate", "monte_carlo"],
    )
    def test_missing_component_is_the_evaluators_error(self, oracle_of):
        tree = Series((Leaf("a"), Leaf("x")))
        net = Network([Edge("e0", "s", "t", "x")], "s", "t")
        for structure, closed_form, message in [
            (tree, eval_block, "no availability for component 'x'"),
            (net, eval_network, "no availability for component 'x' (edge 'e0')"),
        ]:
            with pytest.raises(Exception) as closed:
                closed_form(structure, {"a": 0.9})
            with pytest.raises(Exception) as brute:
                oracle_of(structure, {"a": 0.9})
            assert type(brute.value) is type(closed.value) is EvaluationError
            assert str(brute.value) == str(closed.value) == message

    def test_repeated_ids_are_independent(self):
        tree = Series((Leaf("a"), Leaf("a")))
        assert abs(float(enumerate_availability(tree, {"a": 0.9})) - 0.81) < 1e-15

    def test_cap_enforced(self):
        wide = Parallel(tuple(Leaf(f"c{i}") for i in range(6)))
        env = {f"c{i}": 0.5 for i in range(6)}
        with pytest.raises(EnumerationCapError, match="Monte Carlo"):
            enumerate_availability(wide, env, cap=5)
        assert float(enumerate_availability(wide, env, cap=6)) > 0.98

    def test_kofn_across_chunk_boundary(self):
        # 18 instances: 2**18 states, four chunks of 2**16 rows
        avails = [0.5 + 0.025 * i for i in range(18)]
        tree = KofN(9, tuple(Leaf(f"c{i}") for i in range(18)))
        env = {f"c{i}": a for i, a in enumerate(avails)}
        brute = float(enumerate_availability(tree, env))
        assert abs(brute - float(eval_kofn(9, avails))) < 1e-12

    def test_grid_network_across_chunk_boundary(self):
        # 3 x 4 grid: 9 horizontal + 8 vertical = 17 edges, two chunks
        edges = []
        for r in range(3):
            for c in range(4):
                if c < 3:
                    edges.append(((r, c), (r, c + 1)))
                if r < 2:
                    edges.append(((r, c), (r + 1, c)))
        net = Network(
            edges=tuple(
                Edge(f"e{i}", f"n{a[0]}{a[1]}", f"n{b[0]}{b[1]}", f"c{i}")
                for i, (a, b) in enumerate(edges)
            ),
            source="n00",
            terminal="n23",
        )
        env = {f"c{i}": 0.6 + 0.02 * i for i in range(len(edges))}
        assert len(edges) == 17
        brute = float(enumerate_availability(net, env))
        assert abs(brute - float(eval_network(net, env))) < 1e-12

    def test_states_are_evaluated_in_bounded_chunks(self, monkeypatch):
        rows = []
        evaluate = oracle._evaluate

        def recording(structure, columns, count):
            rows.append(count)
            assert len(columns) == 18 and all(0 <= c < 1 << count for c in columns)
            return evaluate(structure, columns, count)

        monkeypatch.setattr(oracle, "_evaluate", recording)
        wide = Parallel(tuple(Leaf(f"c{i}") for i in range(18)))
        enumerate_availability(wide, {f"c{i}": 0.5 for i in range(18)})
        assert rows == [1 << 16] * 4

    @pytest.mark.parametrize(
        "name,expected",
        [
            # Recorded while the evaluator still ran on numpy bool matrices.
            ("tree17", "0x1.cfe50bbe45031p-1"),
            ("net17", "0x1.ffdb432e7062cp-1"),
            ("tree18", "0x1.f284bf0ec2624p-1"),
            ("net18", "0x1.ffdbf7abe89bdp-1"),
            ("tree20", "0x1.ede662d1e611cp-1"),
            ("net20", "0x1.fffd2ec2a2859p-1"),
            ("childless_series", "0x1.0000000000000p+0"),
            ("childless_parallel", "0x0.0p+0"),
            ("kofn_0", "0x1.0000000000000p+0"),
            ("kofn_n", "0x1.1d249e44fa051p-3"),
            ("kofn_over_n", "0x0.0p+0"),
            ("net_s_is_t", "0x1.0000000000000p+0"),
            ("net_unreachable", "0x0.0p+0"),
            ("special_series", "0x0.0p+0"),
            ("special_parallel", "0x1.0000000000000p+0"),
            ("special_kofn", "0x1.0000000000000p+0"),
            ("special_bridge", "0x1.ffffffffffffep-1"),
            ("special_tiny_parallel", "0x1.0000000000000p-59"),
            ("special_near_one_series", "0x1.ffffffffffffdp-1"),
            ("special_kofn_mixed", "0x1.fffffffffffffp-1"),
            # Sizes enumerated in one chunk, recorded before the sweeps alternated.
            ("tree13", "0x1.9f15f6a1a3551p-1"),
            ("tree16", "0x1.d5ef9d4bee950p-1"),
            ("net10", "0x1.e85adff7ea9fap-1"),
            ("net13", "0x1.fcc6a7dd43996p-1"),
            ("net16", "0x1.fee5673dd6a8cp-1"),
        ],
    )
    def test_pinned_bits(self, name, expected):
        structure, env = pinned_enumeration_case(name)
        assert float(enumerate_availability(structure, env)).hex() == expected

    def test_childless_series_is_up_and_parallel_down(self):
        assert float(enumerate_availability(Series(()), {})) == 1.0
        assert float(enumerate_availability(Parallel(()), {})) == 0.0

    def test_default_cap_is_twenty(self):
        wide = Parallel(tuple(Leaf(f"c{i}") for i in range(21)))
        env = {f"c{i}": 0.5 for i in range(21)}
        with pytest.raises(EnumerationCapError):
            enumerate_availability(wide, env)


def _splitmix64(seed: int, index: int) -> int:
    """Scalar reference form of the documented stream; draw ``index`` >= 0.
    It spells out its own constants, so it shares nothing with ``_up_rows``."""
    mask = (1 << 64) - 1
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & mask
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & mask
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & mask
    z ^= z >> 31
    return z


class TestSplitmix:
    def test_published_reference_vector(self):
        # first three outputs of splitmix64 seeded with 1234567, per the
        # published constants
        assert [_splitmix64(1234567, i) for i in range(3)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    def test_vectorized_block_matches_scalar(self):
        # One instance: row 0 is draws 5 .. 68. Reading it against each
        # draw's own u must give u_i < u_j for every pair (so the tie is
        # down), and against the next float above u_j must turn draw j up.
        scalars = [(_splitmix64(42, i) >> 11) * 2.0**-53 for i in range(5, 69)]
        for j, uj in enumerate(scalars):
            up = _up_rows(42, 5, 64, [uj])[0]
            assert up.tolist() == [ui < uj for ui in scalars], j
            assert _up_rows(42, 5 + j, 1, [math.nextafter(uj, 1)])[0, 0], j

    def test_uniforms_in_unit_interval(self):
        # Every u is in [0, 1): none is below 0, all are below 1, and
        # only a u of exactly 0 is below the smallest step 2**-53.
        up = _up_rows(7, 0, 10000, [0.0, 1.0, 2.0**-53])
        assert not up[0].any()
        assert up[1].all()
        zeros = [(_splitmix64(7, 3 * j + 2) >> 11) == 0 for j in range(10000)]
        assert up[2].tolist() == zeros

    def test_up_rows_match_scalar_stream(self):
        # Element [k, j] is draw (3 + j) * m + k, up exactly when u < a.
        # Availability 5 is the u of element [5, 10], so that tie must
        # read as down. Availability 6 is the next float above the u of
        # element [6, 10], which is below 0.5, so a * 2**53 is no integer
        # and must round up for that draw to read as up. Availability 7,
        # the least float, rounds up to one step of u: only a u of 0 is up.
        import numpy as np

        m, start, count = 8, 3, 64

        def u(k, j):
            return (_splitmix64(42, (start + j) * m + k) >> 11) * 2.0**-53

        assert u(6, 10) < 0.5
        avails = [0.0, 0.3, 1.0, 1.0 - 2.0**-53, 2.0**-60]
        avails += [u(5, 10), math.nextafter(u(6, 10), 1), 5e-324]
        up = _up_rows(42, start, count, avails)
        assert up.shape == (m, count) and up.dtype == np.bool_
        for k, a in enumerate(avails):
            for j in range(count):
                assert up[k, j] == (u(k, j) < a), (k, j)
        assert not up[5, 10] and up[6, 10]
        assert not up[0].any() and up[2].all()


class TestMonteCarlo:
    def test_bit_reproducible(self):
        a, ha = monte_carlo_availability(BRIDGE, UNIFORM, 50000, 7)
        b, hb = monte_carlo_availability(BRIDGE, UNIFORM, 50000, 7)
        assert float(a) == float(b)
        assert ha == hb

    def test_seed_changes_the_stream(self):
        a, _ = monte_carlo_availability(BRIDGE, UNIFORM, 50000, 7)
        b, _ = monte_carlo_availability(BRIDGE, UNIFORM, 50000, 8)
        assert float(a) != float(b)

    def test_certain_components_give_certain_answer(self):
        env = {f"c{i}": 1.0 for i in range(1, 6)}
        est, hw = monte_carlo_availability(BRIDGE, env, 10000, 3)
        assert float(est) == 1.0
        assert hw == 0.0
        env = {f"c{i}": 0.0 for i in range(1, 6)}
        est, hw = monte_carlo_availability(BRIDGE, env, 10000, 3)
        assert float(est) == 0.0

    def test_estimate_near_truth(self):
        est, hw = monte_carlo_availability(BRIDGE, UNIFORM, 100000, 7)
        assert abs(float(est) - 0.97848) <= 4 * hw

    def test_network_sampling(self):
        est, hw = monte_carlo_availability(bridge_network(), UNIFORM, 100000, 7)
        assert abs(float(est) - 0.97848) <= 4 * hw

    def test_stream_consumption_contract(self):
        # sample j of an m-instance structure uses draws j*m .. j*m+m-1;
        # replay the documented stream by hand and compare hit counts.
        tree = Series((Leaf("a"), Leaf("b")))
        env = {"a": 0.7, "b": 0.6}
        samples, seed = 500, 99
        est, _ = monte_carlo_availability(tree, env, samples, seed)
        hits = 0
        for j in range(samples):
            u1 = (_splitmix64(seed, 2 * j) >> 11) * 2.0**-53
            u2 = (_splitmix64(seed, 2 * j + 1) >> 11) * 2.0**-53
            if u1 < 0.7 and u2 < 0.6:
                hits += 1
        assert float(est) == hits / samples

    @pytest.mark.parametrize(
        "name,samples,estimate,half_width",
        [
            # Recorded before draws were compared as integers; chunk
            # edges at 2**16 and a ragged third chunk at 140001.
            ("bridge_tree", 65535, "0x1.f52df52df52dfp-1", "0x1.20acd04b8146cp-10"),
            ("bridge_tree", 65536, "0x1.f52e000000000p-1", "0x1.20abb2bc7071fp-10"),
            ("bridge_tree", 65537, "0x1.f52e0ad1f52e1p-1", "0x1.20aa952f94750p-10"),
            ("bridge_tree", 140001, "0x1.f4fee889ab230p-1", "0x1.8e478ee036afcp-11"),
            ("bridge_net", 65535, "0x1.f52df52df52dfp-1", "0x1.20acd04b8146cp-10"),
            ("bridge_net", 65536, "0x1.f52e000000000p-1", "0x1.20abb2bc7071fp-10"),
            ("bridge_net", 65537, "0x1.f52e0ad1f52e1p-1", "0x1.20aa952f94750p-10"),
            ("bridge_net", 140001, "0x1.f4fee889ab230p-1", "0x1.8e478ee036afcp-11"),
            ("grid4x4", 65535, "0x1.5bfd5bfd5bfd6p-1", "0x1.d44019d5d3fb6p-9"),
            ("grid4x4", 65536, "0x1.5bfe000000000p-1", "0x1.d43eb3ed95893p-9"),
            ("grid4x4", 65537, "0x1.5bfea4015bfeap-1", "0x1.d43d4e072c367p-9"),
            ("grid4x4", 140001, "0x1.5b98252bc25cfp-1", "0x1.40925c91ecaa5p-9"),
            ("kofn", 65535, "0x1.b7f1b7f1b7f1bp-1", "0x1.5cf9406aff354p-9"),
            ("kofn", 65536, "0x1.b7f2000000000p-1", "0x1.5cf80005a1b21p-9"),
            ("kofn", 65537, "0x1.b7f2480db7f25p-1", "0x1.5cf6bfa28978dp-9"),
            ("kofn", 140001, "0x1.b6a1843d50b23p-1", "0x1.e12276bbcccf0p-10"),
        ],
    )
    def test_pinned_bits(self, name, samples, estimate, half_width):
        structure, env = {
            "bridge_tree": (BRIDGE, UNIFORM),
            "bridge_net": (bridge_network(), UNIFORM),
            "grid4x4": grid_network(4, 4),
            "kofn": (
                KofN(3, tuple(Leaf(f"k{i}") for i in range(5))),
                {f"k{i}": 0.55 + 0.08 * i for i in range(5)},
            ),
        }[name]
        est, hw = monte_carlo_availability(structure, env, samples, 2026)
        assert (float(est).hex(), hw.hex()) == (estimate, half_width)

    def test_samples_are_drawn_in_bounded_chunks(self, monkeypatch):
        rows = []
        evaluate = oracle._evaluate

        def recording(structure, columns, count):
            rows.append(count)
            assert len(columns) == 5 and all(0 <= c < 1 << count for c in columns)
            return evaluate(structure, columns, count)

        monkeypatch.setattr(oracle, "_evaluate", recording)
        monte_carlo_availability(BRIDGE, UNIFORM, 140001, 5)
        assert rows == [1 << 16, 1 << 16, 8929]

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ValueError):
            monte_carlo_availability(BRIDGE, UNIFORM, 0, 1)

    def test_without_numpy_names_the_extra(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)  # as if not installed
        message = r"^Monte Carlo needs numpy: pip install 'availkit\[mc\]'$"
        with pytest.raises(ImportError, match=message):
            monte_carlo_availability(BRIDGE, UNIFORM, 10, 1)


class TestNesting:
    @staticmethod
    def chain(levels):
        tree = Leaf("a")
        for _ in range(levels):
            tree = Series((tree,))
        return tree

    def test_nesting_at_the_cap_evaluates(self):
        tree = self.chain(MAX_NESTING)
        assert instances(tree) == ("a",)
        assert float(enumerate_availability(tree, {"a": 0.25})) == 0.25
        assert float(monte_carlo_availability(tree, {"a": 1.0}, 10, 0)[0]) == 1.0
        assert structure_function(tree, [True])

    @pytest.mark.parametrize("levels", [MAX_NESTING + 1, 3000])
    def test_nesting_past_the_cap_is_an_error_not_a_recursion(self, levels):
        tree = self.chain(levels)
        calls = [
            lambda: instances(tree),
            lambda: enumerate_availability(tree, {"a": 0.5}),
            lambda: monte_carlo_availability(tree, {"a": 0.5}, 10, 0),
            lambda: structure_function(tree, [True]),
            lambda: oracle._evaluate(tree, [1], 1),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"^blocks nest more than {MAX_NESTING} levels deep$"):
                call()
