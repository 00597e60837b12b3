import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from availkit import (
    Bridge,
    EvaluationError,
    KofN,
    Leaf,
    Parallel,
    Series,
    eval_block,
    eval_bridge,
    eval_kofn,
    eval_parallel,
    eval_series,
)

avail = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
avail_lists = st.lists(avail, min_size=1, max_size=8)


class TestSeriesParallel:
    # Expected figures below were cross-checked by exhaustive state
    # enumeration with exact rational arithmetic.
    def test_two_in_series(self):
        assert float(eval_series([0.9, 0.9])) == 0.81

    def test_two_in_parallel(self):
        assert abs(float(eval_parallel([0.9, 0.9])) - 0.99) < 1e-15

    def test_parallel_of_series_pairs(self):
        pair = eval_series([0.9, 0.9])
        assert abs(float(eval_parallel([pair, pair])) - 0.9639) < 1e-15

    def test_single_child_is_identity(self):
        assert float(eval_series([0.7])) == 0.7
        assert float(eval_parallel([0.7])) == 0.7

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            eval_series([])
        with pytest.raises(ValueError):
            eval_parallel([])

    @given(avail_lists)
    def test_series_no_better_than_weakest(self, avails):
        assert float(eval_series(avails)) <= min(avails) + 1e-15

    @given(avail_lists)
    def test_parallel_no_worse_than_strongest(self, avails):
        assert float(eval_parallel(avails)) >= max(avails) - 1e-15


class TestKofN:
    def test_two_of_three_uniform(self):
        assert abs(float(eval_kofn(2, [0.9, 0.9, 0.9])) - 0.972) < 1e-15

    def test_two_of_three_mixed(self):
        # 0.95*0.9 + 0.95*0.8 + 0.9*0.8 - 2*0.95*0.9*0.8 = 0.967
        got = float(eval_kofn(2, [0.95, 0.9, 0.8]))
        assert abs(got - 0.967) < 1e-15

    def test_three_of_five_uniform(self):
        assert abs(float(eval_kofn(3, [0.9] * 5)) - 0.99144) < 1e-15

    def test_k1_is_parallel_to_the_bit(self):
        rng = random.Random(401)
        for _ in range(300):
            avails = [rng.random() for _ in range(rng.randint(1, 9))]
            assert float(eval_kofn(1, avails)) == float(eval_parallel(avails))

    def test_kn_is_series_to_the_bit(self):
        rng = random.Random(402)
        for _ in range(300):
            avails = [rng.random() for _ in range(rng.randint(1, 9))]
            n = len(avails)
            assert float(eval_kofn(n, avails)) == float(eval_series(avails))

    def test_matches_direct_enumeration(self):
        rng = random.Random(403)
        for _ in range(50):
            n = rng.randint(1, 6)
            k = rng.randint(1, n)
            avails = [rng.random() for _ in range(n)]
            expected = 0.0
            for bits in itertools.product([0, 1], repeat=n):
                if sum(bits) >= k:
                    p = 1.0
                    for up, a in zip(bits, avails):
                        p *= a if up else 1.0 - a
                    expected += p
            assert abs(float(eval_kofn(k, avails)) - expected) < 1e-12

    def test_homogeneous_matches_binomial_tail(self):
        for n in range(1, 9):
            for k in range(1, n + 1):
                a = 0.87
                expected = sum(
                    math.comb(n, i) * a**i * (1 - a) ** (n - i)
                    for i in range(k, n + 1)
                )
                assert abs(float(eval_kofn(k, [a] * n)) - expected) < 1e-14

    def test_monotone_in_k(self):
        avails = [0.8, 0.85, 0.9, 0.95]
        values = [float(eval_kofn(k, avails)) for k in range(1, 5)]
        assert values == sorted(values, reverse=True)

    # Recorded while eval_kofn still folded the count distribution with
    # numpy: the plain-Python fold must give the same bits.
    SPECIAL = (0.0, 1.0, 1.0 - 2.0**-53, 2.0**-60, 5e-324)
    PINNED = [
        "0x1.0000000000000p+0",
        "0x1.ffffffea86711p-1",
        "0x1.feb84f7cbfef1p-1",
        "0x1.d99988e81b87bp-1",
        "0x1.b5c272abc4138p-2",
        "0x1.b5c272abc4138p-62",
        "0x0.0p+0",
    ]
    SWEEP_DIGEST = "7e698fcf4517dc4c2b14dab9c88f016f509ff2c9138c6f56a5a08dcfc3895351"

    def test_pinned_bits(self):
        avails = [0.9, 0.95, 2.0**-60, 1.0 - 2.0**-53, 0.5, 5e-324, 0.999999]
        got = [float(eval_kofn(k, avails)).hex() for k in range(1, 8)]
        assert got == self.PINNED

    def test_pinned_bits_of_a_seeded_sweep(self):
        # every n up to 60 with k in {1, 2, n/2, n-1, n}, four cases each;
        # a fifth of the parts special, a fifth at high nines
        rng = random.Random(1301)

        def draw():
            r = rng.random()
            if r < 0.2:
                return rng.choice(self.SPECIAL)
            if r < 0.4:
                return 1.0 - rng.random() * 1e-6
            return rng.random()

        lines = []
        for n in range(1, 61):
            for k in sorted({k for k in (1, 2, n // 2, n - 1, n) if 1 <= k <= n}):
                for _ in range(4):
                    avails = [draw() for _ in range(n)]
                    lines.append(f"{k} {float(eval_kofn(k, avails)).hex()}")
        assert len(lines) == 1156
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.SWEEP_DIGEST

    def test_bad_k(self):
        with pytest.raises(ValueError):
            eval_kofn(0, [0.9])
        with pytest.raises(ValueError):
            eval_kofn(3, [0.9, 0.9])


class TestBridge:
    def test_uniform_point_nine(self):
        assert abs(float(eval_bridge(0.9, 0.9, 0.9, 0.9, 0.9)) - 0.97848) < 1e-15

    def test_mixed_values(self):
        # enumeration over all 32 states gives 0.9901345
        got = float(eval_bridge(0.95, 0.9, 0.85, 0.8, 0.99))
        assert abs(got - 0.9901345) < 1e-15

    def test_perfect_cross_tie_is_parallel_of_columns(self):
        a1, a2, a4, a5 = 0.9, 0.8, 0.7, 0.6
        got = float(eval_bridge(a1, a2, 1.0, a4, a5))
        columns = (a1 + a2 - a1 * a2) * (a4 + a5 - a4 * a5)
        assert abs(got - columns) < 1e-15

    def test_absent_cross_tie_is_two_paths(self):
        a1, a2, a4, a5 = 0.9, 0.8, 0.7, 0.6
        got = float(eval_bridge(a1, a2, 0.0, a4, a5))
        paths = 1.0 - (1.0 - a1 * a4) * (1.0 - a2 * a5)
        assert abs(got - paths) < 1e-15

    @given(avail, avail, avail, avail, avail)
    def test_cross_tie_only_ever_helps(self, a1, a2, a3, a4, a5):
        with_tie = float(eval_bridge(a1, a2, a3, a4, a5))
        without = float(eval_bridge(a1, a2, 0.0, a4, a5))
        assert with_tie >= without - 1e-12


class TestEvalBlock:
    ENV = {"a": 0.9, "b": 0.9, "c": 0.9, "d": 0.9, "e": 0.9}

    def test_nested_structure(self):
        tree = Parallel(
            (
                Series((Leaf("a"), Leaf("b"))),
                Series((Leaf("c"), Leaf("d"))),
            )
        )
        assert abs(float(eval_block(tree, self.ENV)) - 0.9639) < 1e-15

    def test_bridge_block(self):
        tree = Bridge(Leaf("a"), Leaf("b"), Leaf("c"), Leaf("d"), Leaf("e"))
        assert abs(float(eval_block(tree, self.ENV)) - 0.97848) < 1e-15

    def test_kofn_block(self):
        tree = KofN(2, (Leaf("a"), Leaf("b"), Leaf("c")))
        assert abs(float(eval_block(tree, self.ENV)) - 0.972) < 1e-15

    def test_duplicate_leaf_ids_are_independent_instances(self):
        tree = Series((Leaf("a"), Leaf("a")))
        assert float(eval_block(tree, self.ENV)) == 0.81

    def test_unknown_component(self):
        with pytest.raises(EvaluationError, match="ghost"):
            eval_block(Leaf("ghost"), self.ENV)

    def test_single_leaf(self):
        assert float(eval_block(Leaf("a"), self.ENV)) == 0.9

    def test_a_subclass_of_a_composite_takes_its_base_rule(self):
        class Redundant(KofN):
            pass

        tree = Series((Leaf("a"), Redundant(2, (Leaf("b"), Leaf("c"), Leaf("d")))))
        plain = Series((Leaf("a"), KofN(2, (Leaf("b"), Leaf("c"), Leaf("d")))))
        assert float(eval_block(tree, self.ENV)) == float(eval_block(plain, self.ENV))

    @pytest.mark.parametrize(
        "tree, message",
        [
            (Series(()), "series requires at least one availability"),
            (Parallel(()), "parallel requires at least one availability"),
            (KofN(1, ()), "k=1 exceeds the 0 sub-blocks"),
            (KofN(0, (Leaf("a"), Leaf("a"))), "k must be >= 1, got 0"),
            (KofN(3, (Leaf("a"), Leaf("a"))), "k=3 exceeds the 2 sub-blocks"),
        ],
        ids=["series", "parallel", "kofn", "k0", "k3"],
    )
    def test_pinned_errors_of_code_built_trees(self, tree, message):
        # validate rejects these shapes; eval_block still names what is wrong
        with pytest.raises(EvaluationError) as err:
            eval_block(Parallel((Leaf("a"), tree)), self.ENV)
        assert str(err.value) == message


class TestEvalBlockBits:
    """eval_block's bits where leaves sit at or near 0 and 1. Every
    composite's result passes the probability rule before its parent reads
    it: a k-of-n tail can sum to an ulp past 1.0, and the clamp takes it
    back to 1.0. These values were recorded while every leaf and composite
    was still a Probability."""

    SPECIAL = (0.0, 1.0, 1.0 - 2.0**-53, 2.0**-60, 0.5, 0.9999, 0.999999999)
    DIGEST = "2e2cca32b955e9ee2f52f4361ad25ab8d8adfdb2965ff342fb0d87194bbbba03"

    def test_pinned_clamp_of_a_kofn_tail(self):
        env = {"a": 0.5899835549489496, "b": 0.999999999, "c": 1.0, "x": 0.9}
        tree = Series((KofN(2, (Leaf("a"), Leaf("b"), Leaf("c"), Leaf("b"))), Leaf("x")))
        # unclamped, the tail is 1.0000000000000002 and the series 0.9000000000000002
        assert float(eval_block(tree, env)).hex() == "0x1.ccccccccccccdp-1"

    def test_pinned_digest_of_seeded_trees(self):
        # 3,000 trees up to three levels deep, most composites k-of-n with
        # 2 <= k, over two to five component ids, so leaves repeat
        rng = random.Random(1601)

        def draw():
            r = rng.random()
            if r < 0.4:
                return rng.choice(self.SPECIAL)
            if r < 0.7:
                return 1.0 - rng.random() * 10.0 ** -rng.randint(1, 12)
            return rng.random()

        def build(ids, depth):
            if depth == 0 or rng.random() < 0.2:
                return Leaf(rng.choice(ids))
            kind = rng.random()
            if kind < 0.05:
                return Bridge(*(build(ids, depth - 1) for _ in range(5)))
            children = tuple(build(ids, depth - 1) for _ in range(rng.randint(2, 5)))
            if kind < 0.3:
                return Series(children)
            if kind < 0.45:
                return Parallel(children)
            return KofN(rng.randint(2, len(children)), children)

        lines = []
        for _ in range(3000):
            ids = [f"c{j}" for j in range(rng.randint(2, 5))]
            env = {cid: draw() for cid in ids}
            lines.append(float(eval_block(build(ids, 3), env)).hex())
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.DIGEST
