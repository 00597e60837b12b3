"""Independent brute-force checks for the closed-form evaluators.

Everything here works from the boolean structure function over explicit
component states — no probability algebra is shared with
``availkit.evaluate`` or ``availkit.network``, so agreement between the
two routes is meaningful evidence.

One structure evaluator serves both oracles: it takes a boolean matrix
of joint states, one row per state and one contiguous column per
instance, and marks the rows in which the system is up. Enumeration
feeds it the 2**n states in chunks of at most 2**16 rows and sums the
up-rows' probabilities with ``math.fsum``, so the result is correctly
rounded and independent of summation order. Monte Carlo feeds it sampled
states in chunks of the same size. A network's edge columns are packed
eight states to a byte; every edge is swept both ways, carrying reached
states across it when it is up, until a whole sweep changes nothing.

Monte Carlo reproducibility
---------------------------
Sampling uses the splitmix64 generator, defined by its published
constants rather than any platform RNG, so the stream can be reproduced
in any language:

    gamma = 0x9E3779B97F4A7C15
    z = (seed + (i + 1) * gamma) mod 2**64        # draw index i, from 0
    z ^= z >> 30;  z = z * 0xBF58476D1CE4E5B9 mod 2**64
    z ^= z >> 27;  z = z * 0x94D049BB133111EB mod 2**64
    z ^= z >> 31
    u_i = (z >> 11) * 2.0**-53                    # uniform in [0, 1)

Sample j consumes draws j*m .. j*m+m-1, one per instance in canonical
order (see ``instances``); instance k is up when u < availability_k.
Each instance's draws are hashed as one row and compared as integers:
u < a exactly when (z >> 11) < ceil(a * 2**53), since scaling a in
[0, 1] by 2**53 is exact and the left side is an integer.
Results are a pure function of (structure, environment, samples, seed).
The whole budget runs on one stream — there is no worker splitting.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from .blocks import Block, Bridge, KofN, Leaf, Parallel, Series, leaves
from .network import Network
from .probability import Probability

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "EnumerationCapError",
    "Structure",
    "StateVector",
    "instances",
    "structure_function",
    "enumerate_availability",
    "monte_carlo_availability",
]

Structure = Block | Network

# States are given positionally, aligned with instances(structure).
StateVector = Sequence[bool]

DEFAULT_ENUMERATION_CAP = 20

# numpy is imported by the functions that use it, so that importing
# availkit, and evaluating without an oracle, does not load it.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1

# Rows of joint states evaluated at once, by enumeration and Monte Carlo.
_CHUNK_ROWS = 1 << 16


class EnumerationCapError(RuntimeError):
    """The joint state space is too large to enumerate under the cap."""


def instances(structure: Structure) -> tuple[str, ...]:
    """Component id of each failure instance, in canonical order.

    Instances are the leaf occurrences of a block tree (depth-first) or
    the edges of a network (declaration order). A repeated component id
    still means independent instances; position is their identity.
    """
    if isinstance(structure, Network):
        return tuple(e.component_id for e in structure.edges)
    return tuple(leaves(structure))


def _instance_availabilities(
    structure: Structure, env: Mapping[str, float]
) -> list[float]:
    out = []
    for cid in instances(structure):
        try:
            out.append(float(Probability(env[cid])))
        except KeyError:
            raise KeyError(f"no availability for component {cid!r}") from None
    return out


def _splitmix64(seed: int, index: int) -> int:
    """Reference scalar form of the documented stream; draw ``index`` >= 0."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def _up_rows(seed: int, start: int, count: int, avails: Sequence[float]) -> np.ndarray:
    """Up states of samples start .. start+count-1, one row per instance.

    Element [k, j] is draw (start+j)*m + k read against ``avails[k]``.
    """
    import numpy as np

    m = len(avails)
    up = np.empty((m, count), dtype=bool)
    # seed + (i + 1) * gamma for each sample's first draw i; the draw of
    # instance k is k * gamma further on.
    base = np.arange(start, start + count, dtype=np.uint64) * np.uint64(m) + np.uint64(1)
    base = base * np.uint64(_GAMMA) + np.uint64(seed & _MASK64)
    z, t = np.empty_like(base), np.empty_like(base)
    for k, a in enumerate(avails):
        np.add(base, np.uint64(k * _GAMMA & _MASK64), out=z)
        np.right_shift(z, np.uint64(30), out=t)
        z ^= t
        z *= np.uint64(_MIX1)
        np.right_shift(z, np.uint64(27), out=t)
        z ^= t
        z *= np.uint64(_MIX2)
        np.right_shift(z, np.uint64(31), out=t)
        z ^= t
        z >>= np.uint64(11)
        np.less(z, np.uint64(math.ceil(a * 2.0**53)), out=up[k])
    return up


def _batch_block(block: Block, working: np.ndarray, cursor: list[int]) -> np.ndarray:
    import numpy as np

    if isinstance(block, Leaf):
        column = working[:, cursor[0]]
        cursor[0] += 1
        return column
    if isinstance(block, (Series, Parallel)):
        # Start from the identity so that a childless block is all-up
        # (series) or all-down (parallel), as all() and any() would be.
        is_series = isinstance(block, Series)
        op = np.logical_and if is_series else np.logical_or
        up = np.full(working.shape[0], is_series)
        for c in block.children:
            op(up, _batch_block(c, working, cursor), out=up)
        return up
    if isinstance(block, KofN):
        counts = np.zeros(working.shape[0], dtype=np.int32)
        for c in block.children:
            counts += _batch_block(c, working, cursor)
        return counts >= block.k
    if isinstance(block, Bridge):
        b1, b2, b3, b4, b5 = [_batch_block(c, working, cursor) for c in block.children]
        return (b1 & b4) | (b2 & b5) | (b3 & ((b1 & b5) | (b2 & b4)))
    raise TypeError(f"not a block: {block!r}")


def _batch_network(net: Network, working: np.ndarray) -> np.ndarray:
    import numpy as np

    nodes = sorted({net.source, net.terminal} | {n for e in net.edges for n in (e.a, e.b)})
    index = {n: i for i, n in enumerate(nodes)}
    ends = [(index[e.a], index[e.b]) for e in net.edges]
    # One bit per state: a packed row per edge, and per node its reached states.
    up = np.packbits(working.T, axis=1)
    reach = np.zeros((len(nodes), up.shape[1]), dtype=np.uint8)
    reach[index[net.source]] = 0xFF
    step = np.empty(up.shape[1], dtype=np.uint8)
    while True:
        before = reach.copy()
        for edge, (ai, bi) in zip(up, ends):
            np.bitwise_and(reach[ai], edge, out=step)
            reach[bi] |= step
            np.bitwise_and(reach[bi], edge, out=step)
            reach[ai] |= step
        if np.array_equal(reach, before):
            return np.unpackbits(reach[index[net.terminal]], count=working.shape[0]).view(bool)


def _batch_states(structure: Structure, working: np.ndarray) -> np.ndarray:
    if isinstance(structure, Network):
        return _batch_network(structure, working)
    return _batch_block(structure, working, [0])


def structure_function(structure: Structure, state: StateVector) -> bool:
    """True when the system is up given each instance's boolean state.

    Monotone by construction: repairing an instance never takes the
    system down.
    """
    state = list(state)
    expected = len(instances(structure))
    if len(state) != expected:
        raise ValueError(f"state has {len(state)} entries, structure has {expected}")
    import numpy as np

    working = np.array(state, dtype=bool).reshape(1, expected)
    return bool(_batch_states(structure, working)[0])


def _up_state_probabilities(structure: Structure, avails: list[float]) -> Iterator[float]:
    """Probability of every up-state, in code order, one chunk at a time.

    Row ``code`` sets instance i up when bit i of ``code`` is set. Each
    row's probability is a product taken in instance order.
    """
    import numpy as np

    n = len(avails)
    for start in range(0, 1 << n, _CHUNK_ROWS):
        codes = np.arange(start, min(start + _CHUNK_ROWS, 1 << n), dtype=np.int64)
        working = np.empty((len(codes), n), dtype=bool, order="F")
        p = np.ones(len(codes))
        for i, a in enumerate(avails):
            working[:, i] = (codes >> i) & 1
            p *= np.where(working[:, i], a, 1.0 - a)
        # A memoryview hands out Python floats one at a time, where
        # tolist() would build a list of the whole chunk first.
        yield from memoryview(p[_batch_states(structure, working)])


def enumerate_availability(
    structure: Structure,
    env: Mapping[str, float],
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Probability:
    """Exact availability by summing the probability of every up-state.

    Walks all 2**n joint states, so n is limited by ``cap``. States are
    evaluated in chunks of at most 2**16 rows by the same structure
    evaluator as Monte Carlo, so memory stays bounded whatever the cap.
    The up-state probabilities are summed with ``math.fsum``, which is
    correctly rounded: the result does not depend on summation order.
    """
    avails = _instance_availabilities(structure, env)
    n = len(avails)
    if n > cap:
        raise EnumerationCapError(
            f"{n} instances would need 2**{n} states, over the cap of {cap}; "
            "use the Monte Carlo estimate instead"
        )
    return Probability(math.fsum(_up_state_probabilities(structure, avails)))


def monte_carlo_availability(
    structure: Structure,
    env: Mapping[str, float],
    samples: int,
    seed: int,
) -> tuple[Probability, float]:
    """Estimate availability by sampling joint states.

    Returns (estimate, half-width of the 95% normal-approximation
    confidence interval, 1.96 * sqrt(p(1-p)/n)). The draw stream is
    fixed by ``seed`` as documented in the module docstring, so repeat
    calls are bit-identical.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    import numpy as np

    avails = _instance_availabilities(structure, env)
    hits = 0
    for start in range(0, samples, _CHUNK_ROWS):
        count = min(_CHUNK_ROWS, samples - start)
        # The transpose has a contiguous column per instance, as in enumeration.
        working = _up_rows(seed, start, count, avails).T
        hits += int(np.count_nonzero(_batch_states(structure, working)))
    estimate = hits / samples
    half_width = 1.96 * math.sqrt(estimate * (1.0 - estimate) / samples)
    return Probability(estimate), half_width
