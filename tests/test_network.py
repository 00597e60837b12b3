import hashlib
import random
import time

import pytest

from availkit import (
    Edge,
    EvaluationError,
    Network,
    StateBudgetError,
    enumerate_availability,
    eval_bridge,
    eval_network,
    monte_carlo_availability,
    reduce_network,
)
from availkit.network import DEFAULT_MAX_STATES, _edge_table, _reduce
from conftest import random_network


def bridge_network():
    edges = (
        Edge("e0", "n1", "n2", "c1"),
        Edge("e1", "n1", "n3", "c2"),
        Edge("e2", "n2", "n3", "c3"),
        Edge("e3", "n2", "n4", "c4"),
        Edge("e4", "n3", "n4", "c5"),
    )
    return Network(edges=edges, source="n1", terminal="n4")


UNIFORM = {f"c{i}": 0.9 for i in range(1, 6)}


def grid_network(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append(Edge(f"h{r}_{c}", f"g{r}_{c}", f"g{r}_{c + 1}", f"h{r}_{c}"))
            if r + 1 < rows:
                edges.append(Edge(f"v{r}_{c}", f"g{r}_{c}", f"g{r + 1}_{c}", f"v{r}_{c}"))
    return Network(edges=tuple(edges), source="g0_0", terminal=f"g{rows - 1}_{cols - 1}")


class TestReduce:
    def test_series_chain_fuses(self):
        net = Network(
            edges=(Edge("e0", "s", "m", "a"), Edge("e1", "m", "t", "b")),
            source="s",
            terminal="t",
        )
        red = reduce_network(net, {"a": 0.9, "b": 0.8})
        assert len(red.network.edges) == 1
        [edge] = red.network.edges
        assert edge.id == "ser(e0,e1)"
        assert {edge.a, edge.b} == {"s", "t"}
        assert abs(red.synthetic["ser(e0,e1)"] - 0.72) < 1e-15

    def test_parallel_pair_merges(self):
        net = Network(
            edges=(Edge("e0", "s", "t", "a"), Edge("e1", "s", "t", "b")),
            source="s",
            terminal="t",
        )
        red = reduce_network(net, {"a": 0.9, "b": 0.8})
        [edge] = red.network.edges
        assert edge.id == "par(e0,e1)"
        assert abs(red.synthetic["par(e0,e1)"] - 0.98) < 1e-15

    def test_diamond_collapses_fully(self):
        # two 2-edge paths in parallel: ser then par
        net = Network(
            edges=(
                Edge("e0", "s", "m1", "a"),
                Edge("e1", "m1", "t", "b"),
                Edge("e2", "s", "m2", "c"),
                Edge("e3", "m2", "t", "d"),
            ),
            source="s",
            terminal="t",
        )
        red = reduce_network(net, dict.fromkeys("abcd", 0.9))
        assert len(red.network.edges) == 1
        value = next(iter(red.synthetic.values()))
        assert abs(value - 0.9639) < 1e-15

    def test_dangling_edge_pruned(self):
        net = Network(
            edges=(Edge("e0", "s", "t", "a"), Edge("e1", "t", "stub", "b")),
            source="s",
            terminal="t",
        )
        red = reduce_network(net, {"a": 0.9, "b": 0.9})
        assert [e.id for e in red.network.edges] == ["e0"]
        # surviving original edges keep their component ids
        assert red.network.edges[0].component_id == "a"

    def test_self_loop_dropped(self):
        net = Network(
            edges=(Edge("e0", "s", "t", "a"), Edge("e1", "s", "s", "b")),
            source="s",
            terminal="t",
        )
        red = reduce_network(net, {"a": 0.9, "b": 0.9})
        assert [e.id for e in red.network.edges] == ["e0"]

    def test_bridge_core_is_irreducible(self):
        red = reduce_network(bridge_network(), UNIFORM)
        assert len(red.network.edges) == 5
        assert red.synthetic == {}

    def test_long_chain_fuses_to_one_edge(self):
        n = 300
        edges = tuple(Edge(f"e{i}", f"m{i}", f"m{i + 1}", f"c{i}") for i in range(n))
        net = Network(edges=edges, source="m0", terminal=f"m{n}")
        env = {f"c{i}": 0.999 for i in range(n)}
        red = reduce_network(net, env)
        [edge] = red.network.edges
        assert {edge.a, edge.b} == {"m0", f"m{n}"}
        assert abs(red.synthetic[edge.id] - 0.999**n) < 1e-12
        assert abs(float(eval_network(net, env)) - 0.999**n) < 1e-12


class TestEvalNetwork:
    def test_single_edge(self):
        net = Network(edges=(Edge("e0", "s", "t", "a"),), source="s", terminal="t")
        assert float(eval_network(net, {"a": 0.9})) == 0.9

    def test_diamond(self):
        net = Network(
            edges=(
                Edge("e0", "s", "m1", "a"),
                Edge("e1", "m1", "t", "b"),
                Edge("e2", "s", "m2", "c"),
                Edge("e3", "m2", "t", "d"),
            ),
            source="s",
            terminal="t",
        )
        got = float(eval_network(net, dict.fromkeys("abcd", 0.9)))
        assert abs(got - 0.9639) < 1e-15

    def test_bridge_matches_closed_form(self):
        got = float(eval_network(bridge_network(), UNIFORM))
        want = float(eval_bridge(0.9, 0.9, 0.9, 0.9, 0.9))
        assert abs(got - want) < 1e-12

    def test_bridge_mixed_matches_closed_form(self):
        env = {"c1": 0.95, "c2": 0.9, "c3": 0.85, "c4": 0.8, "c5": 0.99}
        got = float(eval_network(bridge_network(), env))
        want = float(eval_bridge(0.95, 0.9, 0.85, 0.8, 0.99))
        assert abs(got - want) < 1e-12

    def test_disconnected_is_zero(self):
        net = Network(
            edges=(Edge("e0", "s", "m", "a"), Edge("e1", "x", "t", "b")),
            source="s",
            terminal="t",
        )
        assert float(eval_network(net, {"a": 0.9, "b": 0.9})) == 0.0

    def test_source_equals_terminal_rejected(self):
        net = Network(edges=(Edge("e0", "s", "s", "a"),), source="s", terminal="s")
        for entry in (eval_network, reduce_network):
            with pytest.raises(EvaluationError, match="^source and terminal must differ$"):
                entry(net, {"a": 0.9})

    @pytest.mark.parametrize("first", [("s", "t"), ("s", "s")], ids=["edge", "self-loop"])
    def test_duplicate_edge_ids_rejected(self, first):
        # a self-loop enters no table, but its id is still taken
        net = Network(
            edges=(Edge("e0", *first, "a"), Edge("e0", "s", "t", "a")),
            source="s",
            terminal="t",
        )
        for entry in (eval_network, reduce_network):
            with pytest.raises(EvaluationError, match="^duplicate edge id 'e0'$"):
                entry(net, {"a": 0.9})

    @pytest.mark.parametrize(
        "edges, taken",
        [
            # a1 and b1 fuse into ser(a1,b1), the id of the third edge
            ([("a1", "s", "m", "a"), ("b1", "m", "t", "b"), ("ser(a1,b1)", "s", "t", "c")],
             "ser(a1,b1)"),
            # e1 and e2 merge into par(e1,e2), the id of the third edge
            ([("e1", "s", "m", "a"), ("e2", "s", "m", "b"), ("par(e1,e2)", "s", "m", "c"),
              ("e3", "m", "t", "d")],
             "par(e1,e2)"),
            # ser(a1,b1) then fuses with c1 into the id of the fourth edge
            ([("a1", "s", "m1", "a"), ("b1", "m1", "m2", "b"), ("c1", "m2", "t", "c"),
              ("ser(c1,ser(a1,b1))", "s", "t", "d")],
             "ser(c1,ser(a1,b1))"),
        ],
        ids=["ser", "par", "chained-ser"],
    )
    def test_edge_id_of_a_merged_edge_is_rejected_or_harmless(self, edges, taken):
        net = Network([Edge(*e) for e in edges], "s", "t")
        env = {"a": 0.5, "b": 0.6, "c": 0.7, "d": 0.8}
        try:
            got = eval_network(net, env)
        except EvaluationError as exc:
            assert repr(taken) in str(exc)
        else:
            assert abs(float(got) - float(enumerate_availability(net, env))) < 1e-12
        try:
            red = reduce_network(net, env)
        except EvaluationError as exc:
            assert repr(taken) in str(exc)
        else:
            assert taken not in red.synthetic

    def test_edge_id_with_a_comma_rejected(self):
        # par(a,b) merged with c and a merged with par(b,c) would both be par(a,b,c)
        net = Network(
            [Edge("a,b", "s", "m", "x"), Edge("c", "s", "m", "x"),
             Edge("a", "m", "t", "x"), Edge("b,c", "m", "t", "x")],
            "s",
            "t",
        )
        for entry in (eval_network, reduce_network):
            with pytest.raises(EvaluationError, match="'a,b' holds a comma"):
                entry(net, {"x": 0.9})

    # an id or node of another kind is refused when its Edge is built, so no
    # evaluator, reduction or validate meets one
    @pytest.mark.parametrize(
        "edges, message",
        [
            ([("e0", "s", "m"), (5, "m", "t")], "edge id 5 is not a string"),
            ([("e0", "s", "m"), (["e1"], "m", "t")], "edge id ['e1'] is not a string"),
            ([("e0", "s", ("m", 1)), ("e1", ("m", 1), "t")], "node ('m', 1) is not a string"),
        ],
        ids=["int-id", "list-id", "tuple-node"],
    )
    def test_id_or_nodes_of_another_kind_rejected(self, edges, message):
        with pytest.raises(TypeError) as info:
            Network([Edge(*e, "x") for e in edges], "s", "t")
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([("e0", "s", ["m"], "x"), ("e1", ["m"], "t", "x")], "node ['m'] is not a string"),
            ([("e0", ["s"], "t", "x")], "node ['s'] is not a string"),
            ([("e0", "s", "t", ["x"])], "component id ['x'] is not a string"),
        ],
        ids=["list-node", "list-source", "list-component"],
    )
    def test_an_unhashable_node_or_component_id_is_refused_when_built(self, edges, message):
        with pytest.raises(TypeError) as info:
            Network([Edge(*e) for e in edges], edges[0][1], "t")
        assert str(info.value) == message

    def test_int_nodes_are_refused_and_their_net_evaluates_with_string_nodes(self):
        for build in (lambda: Edge("e0", 0, 1, "a"), lambda: Network([], 0, "2")):
            with pytest.raises(TypeError) as info:
                build()
            assert str(info.value) == "node 0 is not a string"
        net = Network(
            [Edge("e0", "0", "1", "a"), Edge("e1", "1", "2", "b"), Edge("e2", "0", "2", "c"),
             Edge("e3", "2", "2", "a")],
            "0",
            "2",
        )
        env = {"a": 0.9, "b": 0.8, "c": 0.7}
        red = reduce_network(net, env)
        assert [(e.id, e.a, e.b) for e in red.network.edges] == [("par(e2,ser(e0,e1))", "0", "2")]
        assert float(eval_network(net, env)) == red.synthetic["par(e2,ser(e0,e1))"]

    def test_a_source_that_no_edge_touches_is_refused_when_built(self):
        # no edge's check sees it, so only the network's own can
        with pytest.raises(TypeError) as info:
            Network([Edge("e0", "s", "t", "x")], ["q"], "t")
        assert str(info.value) == "node ['q'] is not a string"

    def test_edges_that_are_tuples_are_refused_when_built(self):
        with pytest.raises(TypeError) as info:
            Network([("e0", "s", "t", "x")], "s", "t")
        assert str(info.value) == "not an edge: ('e0', 's', 't', 'x')"
        with pytest.raises(TypeError) as info:
            Network([Edge("e0", "s", "m", "x"), ("e1", "m", "t", "x")], "s", "t")
        assert str(info.value) == "not an edge: ('e1', 'm', 't', 'x')"

    def test_missing_component_rejected(self):
        net = Network(edges=(Edge("e0", "s", "t", "ghost"),), source="s", terminal="t")
        for entry in (eval_network, reduce_network):
            with pytest.raises(EvaluationError) as info:
                entry(net, {})
            assert str(info.value) == "no availability for component 'ghost' (edge 'e0')"

    # s-m-t in series with a 1.0 partner: the merge a * 1.0 is the value the
    # rule gave, sign included, and the sweep banks 0.0 + that
    @pytest.mark.parametrize(
        "value, ruled",
        [(1, 1.0), (0, 0.0), (True, 1.0), (-0.0, -0.0), (1 + 1e-13, 1.0), (-1e-13, 0.0)],
        ids=["int-1", "int-0", "True", "-0.0", "clamped-high", "clamped-low"],
    )
    def test_probability_rule_on_edge_availabilities(self, value, ruled):
        net = Network([Edge("e0", "s", "m", "x"), Edge("e1", "m", "t", "one")], "s", "t")
        env = {"x": value, "one": 1.0}
        assert reduce_network(net, env).synthetic["ser(e0,e1)"].hex() == ruled.hex()
        assert float(eval_network(net, env)).hex() == (0.0 + ruled).hex()

    @pytest.mark.parametrize(
        "value, message",
        [(1.5, "^probability 1.5 outside \\[0, 1\\]$"),
         (float("nan"), "^probability must not be NaN$")],
        ids=["1.5", "nan"],
    )
    def test_probability_rule_rejects_edge_availabilities(self, value, message):
        # a self-loop's availability is read too, though it never enters the table
        for a, b in (("s", "t"), ("s", "s")):
            net = Network([Edge("e0", "s", "t", "ok"), Edge("e1", a, b, "x")], "s", "t")
            for entry in (eval_network, reduce_network):
                with pytest.raises(ValueError, match=message):
                    entry(net, {"ok": 0.9, "x": value})

    def test_state_budget_one_fails_on_bridge(self):
        with pytest.raises(StateBudgetError, match="Monte Carlo"):
            eval_network(bridge_network(), UNIFORM, max_states=1)

    @pytest.mark.parametrize("budget", [0, -1, float("nan")])
    @pytest.mark.parametrize(
        "edges,terminal",
        [
            ([("s", "m"), ("m", "t")], "t"),
            ([("s", "a"), ("s", "b"), ("a", "b"), ("a", "t"), ("b", "t")], "t"),
            ([("s", "m"), ("m", "x")], "t"),
        ],
        ids=["chain", "bridge", "empty-core"],
    )
    def test_state_budget_below_one_rejected(self, edges, terminal, budget):
        # rejected before reduction, so the core's shape does not decide
        net = Network(
            edges=tuple(Edge(f"e{i}", a, b, "c") for i, (a, b) in enumerate(edges)),
            source="s",
            terminal=terminal,
        )
        with pytest.raises(ValueError, match=f"^max_states must be >= 1, got {budget}$"):
            eval_network(net, {"c": 0.9}, max_states=budget)

    def test_state_budget_one_fine_for_series_parallel(self):
        # a reducible graph leaves a single source-terminal edge: one state
        net = Network(
            edges=(Edge("e0", "s", "m", "a"), Edge("e1", "m", "t", "b")),
            source="s",
            terminal="t",
        )
        assert abs(float(eval_network(net, {"a": 0.9, "b": 0.9}, max_states=1)) - 0.81) < 1e-15

    @staticmethod
    def hubs_network(n):
        # K(3,n): hubs s, h and t, each joined to n middle nodes. Nothing
        # reduces, and the sweep's frontier holds the n middles and h at once
        edges = [Edge(f"{hub}{i}", hub, f"m{i}", "c") for i in range(n) for hub in "sht"]
        return Network(edges, "s", "t")

    @pytest.mark.parametrize("budget", [DEFAULT_MAX_STATES, 10**12])
    def test_a_frontier_past_the_byte_labels_is_refused_before_any_state(self, budget):
        # at 10**12 the states would double on every middle that enters
        with pytest.raises(StateBudgetError, match="frontier of 261 vertices, past its limit of 254"):
            eval_network(self.hubs_network(260), {"c": 0.9}, max_states=budget)

    def test_a_frontier_at_the_byte_labels_limit_is_swept(self):
        # 254 vertices take labels 2 to 255; the sweep starts, and its state budget stops it
        with pytest.raises(StateBudgetError, match="exceeded 1000 live states"):
            eval_network(self.hubs_network(253), {"c": 0.9}, max_states=1000)
        with pytest.raises(StateBudgetError, match="frontier of 255 vertices"):
            eval_network(self.hubs_network(254), {"c": 0.9}, max_states=1000)

    def test_edge_order_and_node_names_do_not_change_the_answer(self):
        rng = random.Random(777)
        for _ in range(60):
            net, env = random_network(rng, max_edges=10)
            if net.source == net.terminal:
                continue
            # reversed names reverse every sorted order the engine uses
            nodes = {net.source, net.terminal, *(n for e in net.edges for n in (e.a, e.b))}
            rename = {n: f"z{99 - int(n[1:])}" for n in nodes}
            edges = [Edge(e.id, rename[e.a], rename[e.b], e.component_id) for e in net.edges]
            rng.shuffle(edges)
            other = Network(
                edges=tuple(edges), source=rename[net.source], terminal=rename[net.terminal]
            )
            assert abs(float(eval_network(net, env)) - float(eval_network(other, env))) < 1e-12

    def test_five_by_five_grid_agrees_with_monte_carlo(self):
        net = grid_network(5, 5)
        assert len(net.edges) == 40
        rng = random.Random(779)
        env = {e.component_id: rng.uniform(0.6, 0.99) for e in net.edges}
        start = time.perf_counter()
        exact = float(eval_network(net, env))
        assert time.perf_counter() - start < 1.0
        estimate, half_width = monte_carlo_availability(net, env, 200_000, 11)
        assert abs(exact - estimate) <= 4 * half_width

    @pytest.mark.parametrize(
        "edges,terminal,want",
        [
            # the terminal hangs off a bridge core that never reaches it
            (
                [("n1", "n2"), ("n1", "n3"), ("n2", "n3"), ("n2", "n4"), ("n3", "n4"), ("x", "t")],
                "t",
                0.0,
            ),
            # an irreducible K4 outside the source's component
            (
                [("n1", "n2"), ("n1", "n3"), ("n2", "n3"), ("n2", "n4"), ("n3", "n4"),
                 ("w", "x"), ("w", "y"), ("w", "z"), ("x", "y"), ("x", "z"), ("y", "z")],
                "n4",
                None,
            ),
            # parallel edges into the terminal
            (
                [("n1", "n2"), ("n1", "n3"), ("n2", "n3"), ("n2", "n4"), ("n3", "n4"),
                 ("n2", "n4"), ("n4", "n3")],
                "n4",
                None,
            ),
            # reduction leaves an empty core
            ([("n1", "m"), ("m", "x"), ("m", "y")], "t", 0.0),
        ],
        ids=["unreachable-terminal", "outside-component", "parallel-into-terminal", "empty-core"],
    )
    def test_edge_cases_match_enumeration(self, edges, terminal, want):
        net = Network(
            edges=tuple(Edge(f"e{i}", a, b, f"x{i}") for i, (a, b) in enumerate(edges)),
            source="n1",
            terminal=terminal,
        )
        env = {f"x{i}": 0.5 + 0.05 * i for i in range(len(edges))}
        got = float(eval_network(net, env))
        assert abs(got - float(enumerate_availability(net, env))) < 1e-12
        if want is not None:
            assert got == want

    def test_matches_enumeration_on_random_networks(self):
        rng = random.Random(778)
        for _ in range(60):
            net, env = random_network(rng, max_edges=10)
            exact = float(eval_network(net, env))
            brute = float(enumerate_availability(net, env))
            assert abs(exact - brute) < 1e-10


class TestPinnedSweep:
    """The engine's bits, its reduction's edges and names, and its peak
    live states: an engine that sums in another order, merges in another
    order or keeps more states fails here."""

    SPECIAL = (0.0, -0.0, 1.0, 1.0 - 2.0**-53)
    MULTIGRAPH_DIGEST = "df1eeab4658a4c6d6705fceb5556336b12fbc53d9d28991704e92f2cf69a536e"
    GRID_DIGEST = "32a85d00100e60646d0287908e8ece5f1c648fe4ed5128e65d02ce74bbe1b298"
    REDUCED_DIGEST = "b5cfacdaae3fc594501cb84ed6e1056535d8164c13ee40ba52d558267ba7b0f2"
    REDUCE_TABLE_DIGESTS = {
        "series_parallel": "d5cd2c71dec7fbf84e9fb68a651617b813154ea3cd4d8d1700fc51f6a9003721",
        "holed_grids": "bf0a5f98c9c152f8e1b0c805a9bbe5f3d1211a3a080289343482a520c3340781",
        "multigraphs": "ab53b80d1b861ee7fbe95d35d0a48393c8e906aa05126319c5ee8faa779569a7",
    }

    def draw(self, rng):
        r = rng.random()
        if r < 0.2:
            return rng.choice(self.SPECIAL)
        if r < 0.35:
            return 1.0 - rng.random() * 1e-6
        return rng.random()

    def multigraphs(self):
        # 4,000 multigraphs on two to eight nodes: self-loops, parallel
        # edges (some reversed), and terminals that are unreachable or
        # touch no edge at all
        rng = random.Random(2101)
        for _ in range(4000):
            nodes = [f"n{i}" for i in range(rng.randint(2, 8))]
            pairs = []
            for _ in range(rng.randint(1, 16)):
                r = rng.random()
                if r < 0.08:
                    pairs.append((rng.choice(nodes),) * 2)
                elif r < 0.25 and pairs:
                    a, b = rng.choice(pairs)
                    pairs.append((b, a) if rng.random() < 0.5 else (a, b))
                else:
                    pairs.append(tuple(rng.sample(nodes, 2)))
            terminal = "t" if rng.random() < 0.05 else nodes[-1]
            net = Network(
                edges=tuple(Edge(f"e{i}", a, b, f"x{i}") for i, (a, b) in enumerate(pairs)),
                source=nodes[0],
                terminal=terminal,
            )
            yield net, {f"x{i}": self.draw(rng) for i in range(len(pairs))}

    def test_pinned_digest_of_seeded_multigraphs(self):
        lines = [float(eval_network(net, env)).hex() for net, env in self.multigraphs()]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.MULTIGRAPH_DIGEST

    def test_pinned_digest_of_reduced_multigraphs(self):
        # the merge order and the par(...)/ser(...) names, not just the final figure
        lines = []
        for net, env in self.multigraphs():
            red = reduce_network(net, env)
            edges = " ".join(f"{e.id}:{e.a}-{e.b}" for e in red.network.edges)
            synthetic = " ".join(a.hex() for a in red.synthetic.values())
            lines.append(f"{edges} | {synthetic}")
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.REDUCED_DIGEST

    def series_parallel(self):
        # 300 nets of 50 to 200 edges built by series and parallel
        # composition: chains fuse in cascades, and a parallel merge queues
        # again a node that was already visited. Ids are shuffled numbers,
        # so their sorted order is not the edges' order
        rng = random.Random(2301)
        for _ in range(300):
            n_edges = rng.randint(50, 200)
            pairs = []
            inner = iter(range(10 * n_edges))

            def build(a, b, budget, series):
                if budget == 1:
                    pairs.append((a, b) if rng.random() < 0.5 else (b, a))
                    return
                cuts = sorted(rng.sample(range(1, budget), min(budget, rng.randint(2, 4)) - 1))
                parts = [hi - lo for lo, hi in zip([0] + cuts, cuts + [budget])]
                if series:
                    nodes = [a] + [f"m{next(inner)}" for _ in parts[1:]] + [b]
                    for part, u, v in zip(parts, nodes, nodes[1:]):
                        build(u, v, part, False)
                else:
                    for part in parts:
                        build(a, b, part, True)

            build("s", "t", n_edges, rng.random() < 0.5)
            names = rng.sample(range(len(pairs)), len(pairs))
            edges = [Edge(f"e{k}", a, b, f"x{k}") for k, (a, b) in zip(names, pairs)]
            rng.shuffle(edges)
            yield Network(edges, "s", "t"), {e.component_id: self.draw(rng) for e in edges}

    def holed_grids(self):
        # 400 grids from 3x3 to 7x7, corner to corner, with about one edge
        # in six taken out: dangling ends, chains and irreducible cores
        rng = random.Random(2302)
        for _ in range(400):
            net = grid_network(rng.randint(3, 7), rng.randint(3, 7))
            edges = [e for e in net.edges if rng.random() >= 1 / 6]
            yield Network(edges, net.source, net.terminal), {
                e.component_id: self.draw(rng) for e in edges
            }

    @pytest.mark.parametrize("corpus", ["series_parallel", "holed_grids", "multigraphs"])
    def test_pinned_digest_of_reduce_tables(self, corpus):
        # _reduce's table in insertion order, which the sweep's _bfs_order
        # reads; reduce_network sorts its result by id, so REDUCED_DIGEST
        # cannot see that order
        lines = []
        for net, env in getattr(self, corpus)():
            table = _reduce(*_edge_table(net, env), net.source, net.terminal)
            lines.append(" ".join(f"{eid}:{u}-{v}:{a.hex()}" for eid, (u, v, a) in table.items()))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.REDUCE_TABLE_DIGESTS[corpus]

    def test_pinned_digest_of_grids(self):
        # every grid from 3x3 to 6x6, each under two environments
        rng = random.Random(2102)
        lines = []
        for rows in range(3, 7):
            for cols in range(3, 7):
                net = grid_network(rows, cols)
                for _ in range(2):
                    env = {e.component_id: self.draw(rng) for e in net.edges}
                    lines.append(float(eval_network(net, env)).hex())
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.GRID_DIGEST

    @pytest.mark.parametrize("n,budget", [(4, 28), (5, 90), (6, 297)])
    def test_pinned_state_budget_of_square_grids(self, n, budget):
        # the peak live states of an n x n grid: the budget passes, one less fails
        net = grid_network(n, n)
        env = {e.component_id: 0.9 for e in net.edges}
        eval_network(net, env, max_states=budget)
        with pytest.raises(StateBudgetError):
            eval_network(net, env, max_states=budget - 1)

    @pytest.mark.parametrize(
        "rows,cols,want",
        [
            (3, 150, "0x1.a6a5069b31e74p-1"),
            (5, 5, "0x1.e1c83c5a9a42bp-1"),
            (6, 6, "0x1.f1f34b058c874p-1"),
            (7, 7, "0x1.f29d350363de0p-1"),
            (8, 8, "0x1.f62d72e298161p-1"),
        ],
    )
    def test_pinned_bits_of_wide_grids(self, rows, cols, want):
        # the 3x150 core has more breadth-first ranks than a byte holds and a
        # narrow frontier, so its states' labels must be frontier positions
        net = grid_network(rows, cols)
        rng = random.Random(rows * 1000 + cols)
        env = {e.component_id: 0.8 + 0.2 * rng.random() for e in net.edges}
        if rows == 3:
            core = reduce_network(net, env).network.edges
            assert len({node for e in core for node in (e.a, e.b)}) > 256
        assert float(eval_network(net, env)).hex() == want

    # Its core keeps ten edges, every inner vertex of degree three or more,
    # and one of its sweep's steps drops positions 1 and 3 of a frontier four
    # wide: the leave plan that is not one cut, so its kept positions are picked.
    LEAVE_APART_PAIRS = (
        ("v1", "v0"), ("v7", "v3"), ("v5", "v4"), ("v1", "v2"), ("v1", "v5"), ("v0", "v2"),
        ("v7", "v1"), ("v4", "v2"), ("v2", "v3"), ("v0", "v3"), ("v0", "v4"),
    )

    def test_pinned_leave_step_that_drops_positions_apart(self):
        net = Network(
            edges=tuple(
                Edge(f"e{i}", a, b, f"c{i}") for i, (a, b) in enumerate(self.LEAVE_APART_PAIRS)
            ),
            source="v0",
            terminal="v7",
        )
        env = {f"c{i}": 0.5 + 0.01 * i for i in range(len(self.LEAVE_APART_PAIRS))}
        core = reduce_network(net, env).network.edges
        assert len(core) == 10
        degree = {}
        for e in core:
            for node in (e.a, e.b):
                degree[node] = degree.get(node, 0) + 1
        assert min(d for node, d in degree.items() if node not in ("v0", "v7")) >= 3
        assert float(eval_network(net, env)).hex() == "0x1.4cd549a47a37cp-1"
        assert float(enumerate_availability(net, env)).hex() == "0x1.4cd549a47a37cp-1"

    # s, a, b, c and t take breadth-first ranks 0 to 4, and e0, e1, e3 and
    # e5 are the first edges of a, b, c and t, so each brings a new vertex
    # into the frontier. When e5 brings the terminal in, a's block can be
    # apart from the source's, with a alone or with c.
    ENTRY_PAIRS = (
        ("s", "a"), ("s", "b"), ("a", "b"), ("a", "c"),
        ("b", "c"), ("a", "t"), ("b", "t"), ("c", "t"),
    )
    ENTRY_ENV = (0.9, 0.8, 0.7, 0.6, 0.75, 0.85, 0.65, 0.95)

    @pytest.mark.parametrize(
        "edge,value,want",
        [
            (None, None, "0x1.ef5e141ced769p-1"),
            (0, 0.0, "0x1.8be004b7f5a53p-1"),
            (0, -0.0, "0x1.8be004b7f5a53p-1"),
            (0, 1.0, "0x1.fa6c15d2d01c0p-1"),
            (1, 0.0, "0x1.c1bb3636f3b22p-1"),
            (1, -0.0, "0x1.c1bb3636f3b22p-1"),
            (1, 1.0, "0x1.fac6cb966be7bp-1"),
            (3, 0.0, "0x1.e967d9988d2a3p-1"),
            (3, -0.0, "0x1.e967d9988d2a3p-1"),
            (3, 1.0, "0x1.f35790752da98p-1"),
            (5, 0.0, "0x1.d19a06a6e32e3p-1"),
            (5, -0.0, "0x1.d19a06a6e32e3p-1"),
            (5, 1.0, "0x1.f49ecb31c219fp-1"),
        ],
        ids=["terminal-joins-other-block"]
        + [f"e{e}={v}" for e in (0, 1, 3, 5) for v in ("0.0", "-0.0", "1.0")],
    )
    def test_pinned_vertex_entering_the_frontier(self, edge, value, want):
        net = Network(
            edges=tuple(Edge(f"e{i}", a, b, f"x{i}") for i, (a, b) in enumerate(self.ENTRY_PAIRS)),
            source="s",
            terminal="t",
        )
        env = {f"x{i}": p for i, p in enumerate(self.ENTRY_ENV)}
        if edge is not None:
            env[f"x{edge}"] = value
        assert reduce_network(net, env).synthetic == {}
        got = float(eval_network(net, env))
        assert abs(got - float(enumerate_availability(net, env))) < 1e-12
        assert got.hex() == want
