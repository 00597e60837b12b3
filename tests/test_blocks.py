import pytest

from availkit import (
    Bridge,
    Component,
    Diagnostic,
    Edge,
    EvaluationError,
    KofN,
    Leaf,
    Model,
    Network,
    Parallel,
    Series,
    enumerate_availability,
    eval_block,
    format_model,
    instances,
    leaves,
    monte_carlo_availability,
    parse_model,
    structure_function,
    validate,
)
from availkit.blocks import MAX_NESTING, NESTING_ERROR, fold


def comps(*ids):
    return {cid: Component(cid, {"availability": 0.9}) for cid in ids}


class TestLeaves:
    def test_depth_first_order(self):
        tree = Series(
            (
                Leaf("a"),
                Parallel((Leaf("b"), Leaf("c"))),
                KofN(2, (Leaf("d"), Leaf("e"), Leaf("f"))),
            )
        )
        assert leaves(tree) == ["a", "b", "c", "d", "e", "f"]

    def test_duplicates_are_kept(self):
        tree = Parallel((Leaf("a"), Leaf("a")))
        assert leaves(tree) == ["a", "a"]

    def test_bridge_order(self):
        tree = Bridge(Leaf("1"), Leaf("2"), Leaf("3"), Leaf("4"), Leaf("5"))
        assert leaves(tree) == ["1", "2", "3", "4", "5"]

    def test_rejects_non_block(self):
        with pytest.raises(TypeError):
            leaves("not a block")

    def test_nesting_past_the_cap_is_an_error_not_a_recursion(self):
        def chain(depth):
            tree = Leaf("a")
            for _ in range(depth):
                tree = Series((tree,))
            return tree

        def formatted(tree):
            return format_model(Model(comps("a"), tree))

        walkers = (
            (leaves, ValueError),
            (lambda tree: eval_block(tree, {"a": 0.9}), EvaluationError),
            (formatted, ValueError),
        )
        at_cap = chain(MAX_NESTING)
        assert leaves(at_cap) == ["a"]
        assert eval_block(at_cap, {"a": 0.9}) == 0.9
        assert formatted(at_cap).endswith(
            "\nsystem = " + "series(" * MAX_NESTING + "a" + ")" * MAX_NESTING + "\n"
        )
        for walk, error in walkers:
            for depth in (MAX_NESTING + 1, 3000):
                with pytest.raises(error, match=f"^blocks nest more than {MAX_NESTING} levels deep$"):
                    walk(chain(depth))


class TestFold:
    # one of each kind, with leaves at several depths
    TREE = Series(
        (
            Leaf("a"),
            KofN(2, (Leaf("b"), Parallel((Leaf("c"), Leaf("d"))), Leaf("e"))),
            Bridge(Leaf("f"), Series((Leaf("g"),)), Leaf("h"), Leaf("i"), Leaf("j")),
        )
    )

    def test_leaf_and_node_run_in_canonical_depth_first_order(self):
        calls = []

        def leaf(block):
            calls.append(block.component_id)
            return block.component_id

        def node(block, values):
            calls.append(f"{type(block).__name__}{list(values)}")
            return type(block).__name__

        assert fold(self.TREE, leaf, node) == "Series"
        assert calls == [
            "a",
            "b",
            "c",
            "d",
            "Parallel['c', 'd']",
            "e",
            "KofN['b', 'Parallel', 'e']",
            "f",
            "g",
            "Series['g']",
            "h",
            "i",
            "j",
            "Bridge['f', 'Series', 'h', 'i', 'j']",
            "Series['a', 'KofN', 'Bridge']",
        ]
        assert [c for c in calls if len(c) == 1] == list(instances(self.TREE))

    def test_a_leaf_alone_is_folded_by_leaf(self):
        assert fold(Leaf("a"), lambda block: block.component_id, None) == "a"

    def test_node_gets_the_child_values_in_child_order(self):
        def node(block, values):
            return "(" + " ".join(values) + ")"

        tree = Parallel((Leaf("z"), Series((Leaf("y"), Leaf("x"))), Leaf("w")))
        assert fold(tree, lambda block: block.component_id, node) == "(z (y x) w)"

    def test_a_nested_non_block_is_a_type_error_in_every_walker(self):
        tree = Series((Leaf("a"), "x"))
        walkers = (
            lambda: fold(tree, lambda block: 0, lambda block, values: 0),
            lambda: eval_block(tree, {"a": 0.9}),
            lambda: leaves(tree),
            lambda: format_model(Model(comps("a"), tree)),
            lambda: instances(tree),
        )
        for walk in walkers:
            with pytest.raises(TypeError, match="^not a block: 'x'$"):
                walk()

    def test_a_subclass_of_leaf_is_a_leaf_in_every_walker(self):
        class Named(Leaf):
            pass

        env = {"a": 0.9, "b": 0.8}
        for tree, plain in [
            (Series((Named("a"), Leaf("a"))), Series((Leaf("a"), Leaf("a")))),
            (KofN(2, (Named("a"), Parallel((Named("b"), Leaf("a"))), Leaf("b"))),
             KofN(2, (Leaf("a"), Parallel((Leaf("b"), Leaf("a"))), Leaf("b")))),
            (Named("b"), Leaf("b")),
        ]:
            assert validate(Model(comps("a", "b"), tree)) == validate(Model(comps("a", "b"), plain))
            assert float(eval_block(tree, env)) == float(eval_block(plain, env))
            assert leaves(tree) == leaves(plain)
            assert instances(tree) == instances(plain)
            assert enumerate_availability(tree, env) == enumerate_availability(plain, env)
            assert format_model(Model(comps("a", "b"), tree)) == format_model(
                Model(comps("a", "b"), plain))
            states = [i % 2 == 0 for i in range(len(leaves(plain)))]
            assert structure_function(tree, states) == structure_function(plain, states)

    def test_a_subclass_of_a_composite_formats_and_validates_as_its_base(self):
        class Redundant(Parallel):
            pass

        env = {"a": 0.9}
        tree = Redundant((Leaf("a"), Leaf("a")))
        text = format_model(Model(comps("a"), tree))
        assert text.endswith("system = parallel(a, a)\n")
        back, diags = parse_model(text)
        assert diags == [] and back.system == Parallel((Leaf("a"), Leaf("a")))
        assert eval_block(back.system, env).hex() == eval_block(tree, env).hex()
        [diag] = validate(Model(comps("a"), Redundant((Leaf("a"),))))
        assert diag.message == "parallel requires at least two sub-blocks"

    @pytest.mark.parametrize("levels", [MAX_NESTING + 1, 3000])
    def test_nesting_past_the_cap_is_one_error_in_every_walker(self, levels):
        tree = Leaf("a")
        for _ in range(levels):
            tree = Series((tree,))
        env = {"a": 0.5}
        walkers = (
            lambda: fold(tree, lambda block: 0, lambda block, values: 0),
            lambda: eval_block(tree, env),
            lambda: leaves(tree),
            lambda: format_model(Model(comps("a"), tree)),
            lambda: instances(tree),
            lambda: enumerate_availability(tree, env),
            lambda: monte_carlo_availability(tree, env, 10, 0),
            lambda: structure_function(tree, [True]),
        )
        for walk in walkers:
            with pytest.raises(EvaluationError) as raised:
                walk()
            assert type(raised.value) is EvaluationError
            assert str(raised.value) == NESTING_ERROR


class TestValidateBlocks:
    def test_clean_model(self):
        m = Model(comps("a", "b"), Series((Leaf("a"), Leaf("b"))))
        assert validate(m) == []

    def test_unknown_component_with_path(self):
        m = Model(comps("a"), Series((Leaf("a"), Leaf("ghost"))))
        diags = validate(m)
        assert len(diags) == 1
        assert diags[0].severity == "error"
        assert diags[0].path == "system.children[1]"
        assert "ghost" in diags[0].message

    def test_a_child_that_is_not_a_block_is_one_error_at_its_path(self):
        m = Model(comps("a"), Series((Leaf("a"), "x")))
        assert validate(m) == [Diagnostic("error", "system.children[1]", "not a block: 'x'")]

    def test_kofn_bounds(self):
        m = Model(comps("a", "b"), KofN(3, (Leaf("a"), Leaf("b"))))
        [diag] = validate(m)
        assert diag.severity == "error"
        assert "k=3" in diag.message

        m = Model(comps("a", "b"), KofN(0, (Leaf("a"), Leaf("b"))))
        [diag] = validate(m)
        assert "k must be >= 1" in diag.message

    @pytest.mark.parametrize("k", ["2", None, 2.0, True, False], ids=repr)
    def test_a_k_that_is_not_an_int_is_the_parsers_error(self, k):
        # format_model writes it, and the parser rejects what it wrote
        m = Model(comps("a", "b"), KofN(k, (Leaf("a"), Leaf("b"))))
        assert validate(m) == [Diagnostic("error", "system", "expected an integer k")]
        back, _ = parse_model(format_model(m))
        assert back is None

    @pytest.mark.parametrize("run", [
        lambda tree: eval_block(tree, {"a": 0.9}),
        lambda tree: enumerate_availability(tree, {"a": 0.9}),
        lambda tree: structure_function(tree, [True, False, True]),
    ], ids=["eval_block", "enumerate_availability", "structure_function"])
    @pytest.mark.parametrize("k", ["2", None, 2.0, True, False], ids=repr)
    def test_a_k_that_is_not_an_int_is_validates_error_when_evaluated(self, k, run):
        with pytest.raises(EvaluationError) as err:
            run(KofN(k, (Leaf("a"), Leaf("a"), Leaf("a"))))
        assert str(err.value) == "expected an integer k"

    def test_empty_children(self):
        m = Model(comps(), Series(()))
        assert validate(m) == [
            Diagnostic("error", "system", "series requires at least two sub-blocks")
        ]

    @pytest.mark.parametrize(
        "block, message",
        [
            (Series((Leaf("a"),)), "series requires at least two sub-blocks"),
            (Parallel((Leaf("a"),)), "parallel requires at least two sub-blocks"),
            (KofN(1, (Leaf("a"),)), "kofn requires at least two sub-blocks"),
        ],
        ids=["series", "parallel", "kofn"],
    )
    def test_one_child_is_the_parsers_error(self, block, message):
        # format_model writes it, and the parser rejects what it wrote
        m = Model(comps("a"), Series((Leaf("a"), block)))
        assert validate(m) == [Diagnostic("error", "system.children[1]", message)]
        _, diags = parse_model(format_model(m))
        assert [d.message for d in diags] == [message]

    def test_bridge_paths(self):
        m = Model(
            comps("1", "2", "3", "4"),
            Bridge(Leaf("1"), Leaf("2"), Leaf("3"), Leaf("4"), Leaf("nope")),
        )
        [diag] = validate(m)
        assert diag.path == "system.b5"

    def test_nesting_past_the_cap_is_an_error_not_a_recursion(self):
        def chain(depth, bottom):
            tree = Leaf(bottom)
            for _ in range(depth):
                tree = Series((Leaf("a"), tree))
            return Model(comps("a", bottom), tree)

        too_deep = Diagnostic(
            "error",
            "system" + ".children[1]" * MAX_NESTING,
            f"blocks nest more than {MAX_NESTING} levels deep",
        )
        assert validate(chain(MAX_NESTING, "a")) == []
        assert validate(chain(3000, "a")) == [too_deep]
        # used only below the cap is still used
        assert validate(chain(3000, "b")) == [too_deep]

    def test_an_unhashable_component_id_is_refused_before_validate(self):
        # validate never raises: no leaf can hold an id that is not a string
        for build in (lambda: Leaf(["x"]),
                      lambda: Series((Leaf("a"), Parallel((Leaf(["x"]), Leaf("a")))))):
            with pytest.raises(TypeError) as info:
                build()
            assert str(info.value) == "component id ['x'] is not a string"

    def test_a_table_key_that_is_not_its_components_id_is_refused(self):
        # validate reads the keys and derive_environment the ids, so the two must agree
        c = Component("a", {"availability": 0.9})
        message = "component table key {!r} is not its component's id 'a'"
        for table, key in [({"b": c}, "b"), ({5: c, "x": c}, 5), ({"a": c, "x": c}, "x")]:
            with pytest.raises(ValueError) as info:
                Model(table, Leaf("b"))
            assert str(info.value) == message.format(key)
        m = Model({"a": c}, Leaf("a"))
        with pytest.raises(ValueError) as info:
            m.replace(components={"b": c})
        assert str(info.value) == message.format("b")

    def test_a_table_value_that_is_not_a_component_is_refused(self):
        # refused before its key is compared with an id it does not have
        with pytest.raises(TypeError) as info:
            Model({"a": 0.9}, Leaf("a"))
        assert str(info.value) == "not a component: 0.9"
        m = Model({"a": Component("a", {"availability": 0.9})}, Leaf("a"))
        with pytest.raises(TypeError) as info:
            m.replace(components={"a": 0.9})
        assert str(info.value) == "not a component: 0.9"

    def test_unused_component_warning(self):
        m = Model(comps("a", "b", "z"), Series((Leaf("a"), Leaf("b"))))
        [diag] = validate(m)
        assert diag.severity == "warning"
        assert diag.path == "components.z"
        assert "never used" in diag.message


class TestValidateNetworks:
    def bridge_net(self):
        edges = (
            Edge("e0", "n1", "n2", "c1"),
            Edge("e1", "n1", "n3", "c2"),
            Edge("e2", "n2", "n3", "c3"),
            Edge("e3", "n2", "n4", "c4"),
            Edge("e4", "n3", "n4", "c5"),
        )
        return Network(edges=edges, source="n1", terminal="n4")

    def test_clean_network(self):
        m = Model(comps("c1", "c2", "c3", "c4", "c5"), self.bridge_net())
        assert validate(m) == []

    def test_source_equals_terminal(self):
        net = Network(edges=(Edge("e0", "a", "b", "c1"),), source="a", terminal="a")
        m = Model(comps("c1"), net)
        assert any("must differ" in d.message for d in validate(m))

    def test_duplicate_edge_ids(self):
        net = Network(
            edges=(Edge("e0", "a", "b", "c1"), Edge("e0", "a", "b", "c1")),
            source="a",
            terminal="b",
        )
        m = Model(comps("c1"), net)
        assert any("duplicate edge id" in d.message for d in validate(m))

    def test_self_loop_warns(self):
        net = Network(
            edges=(Edge("e0", "a", "b", "c1"), Edge("e1", "a", "a", "c1")),
            source="a",
            terminal="b",
        )
        m = Model(comps("c1"), net)
        [diag] = validate(m)
        assert diag.severity == "warning"
        assert "self-loop" in diag.message

    def test_unreachable_terminal_warns(self):
        net = Network(
            edges=(Edge("e0", "a", "b", "c1"),),
            source="a",
            terminal="t",
        )
        m = Model(comps("c1"), net)
        [diag] = validate(m)
        assert diag.severity == "warning"
        assert "unreachable" in diag.message

    def test_unknown_edge_component(self):
        net = Network(edges=(Edge("e0", "a", "b", "ghost"),), source="a", terminal="b")
        m = Model(comps("c1"), net)
        diags = validate(m)
        assert any(
            d.path == "system.edges[0]" and "ghost" in d.message for d in diags
        )

    def test_ids_and_nodes_of_another_kind_are_refused_before_validate(self):
        # the edges and the network are refused as each is built, before validate
        for build, message in [
            (lambda: Edge(["e0"], "a", "m", "c1"), "edge id ['e0'] is not a string"),
            (lambda: Edge("e0", "a", ["m"], "c1"), "node ['m'] is not a string"),
            (lambda: Edge("e1", "m", "b", ["c1"]), "component id ['c1'] is not a string"),
            (lambda: Edge(5, "a", "b", "c1"), "edge id 5 is not a string"),
            (lambda: Network([Edge("e0", "a", "b", "c1")], "a", ["b"]),
             "node ['b'] is not a string"),
        ]:
            with pytest.raises(TypeError) as info:
                build()
            assert str(info.value) == message
