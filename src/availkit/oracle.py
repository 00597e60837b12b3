"""Independent brute-force checks for the closed-form evaluators.

Everything here works from the boolean structure function over explicit
component states — no probability algebra is shared with
``availkit.evaluate`` or ``availkit.network``, so agreement between the
two routes is meaningful evidence.

One structure evaluator serves both oracles. It works on Python ints as
bitsets, where bit r of an instance's int is its state in row r: series
is ``&``, parallel ``|``, k-of-n a bit-sliced binary counter, and a
network's reached rows are carried across every edge, both ways, in
sweeps that alternate direction until one changes nothing. Enumeration
feeds it the 2**n states in chunks of at most 2**16 rows and sums the up
rows' probabilities with ``math.fsum``, so the result is correctly
rounded and independent of summation order.
Monte Carlo feeds it sampled states in chunks of the same size, and is
the one user of numpy, to hash its draws; numpy is the ``[mc]`` extra.

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
[0, 1] by 2**53 is exact and the left side is an integer, and so exactly
when z < ceil(a * 2**53) * 2**11, without the shift. At a = 1 that bound
is 2**64, past every z: the instance is up in every row.
Results are a pure function of (structure, environment, samples, seed).
The whole budget runs on one stream — there is no worker splitting.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import partial, reduce
from itertools import chain, compress, repeat
from operator import and_, mul, or_

from .blocks import INTEGER_K, Block, EvaluationError, fold, leaves
from .evaluate import _availability
from .network import Network
from .probability import Probability

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

# numpy is imported by Monte Carlo alone, to hash its draws, so that
# importing availkit, enumerating and structure_function do not load it.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1

# Rows of joint states evaluated at once, by enumeration and Monte Carlo.
_CHUNK_BITS = 16
_CHUNK_ROWS = 1 << _CHUNK_BITS
_BYTE_PER_BIT = bytes.maketrans(b"01", b"\x00\x01")


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


def _instance_availabilities(structure: Structure, env: Mapping[str, float]) -> list[float]:
    if isinstance(structure, Network):
        return [_availability(env, e.component_id, e.id) for e in structure.edges]
    return [_availability(env, cid) for cid in leaves(structure)]


def _up_rows(seed: int, start: int, count: int, avails: Sequence[float]):
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
        bound = math.ceil(a * 2.0**53) << 11
        if bound > _MASK64:  # a = 1
            up[k] = True
            continue
        np.add(base, np.uint64(k * _GAMMA & _MASK64), out=z)
        np.right_shift(z, np.uint64(30), out=t)
        z ^= t
        z *= np.uint64(_MIX1)
        np.right_shift(z, np.uint64(27), out=t)
        z ^= t
        z *= np.uint64(_MIX2)
        np.right_shift(z, np.uint64(31), out=t)
        z ^= t
        np.less(z, np.uint64(bound), out=up[k])
    return up


def _evaluate(structure: Structure, columns: Iterable[int], rows: int) -> int:
    """The rows, of ``rows``, in which the system is up, as a bitset.
    Bit r of the i-th column is set when instance i is up in row r. A tree
    takes one column per leaf from ``columns``, a network one per edge."""
    full = (1 << rows) - 1
    if not isinstance(structure, Network):
        leaf_columns = iter(columns)
        return fold(structure, lambda _: next(leaf_columns), partial(_block_up, full))
    index = {structure.source: 0}
    terminal = index.setdefault(structure.terminal, 1)
    ends = [
        (index.setdefault(e.a, len(index)), index.setdefault(e.b, len(index)), up)
        for e, up in zip(structure.edges, columns)
    ]
    reach = [full] + [0] * (len(index) - 1)
    # Carry the reached rows across every up edge, both ways, until a
    # whole sweep changes nothing. The fixpoint does not depend on edge
    # order, so sweeps alternate direction: a backward sweep carries what
    # the forward one reached late back to the edges it passed early.
    sweep, other = ends, ends[::-1]
    changed = True
    while changed:
        changed = False
        for a, b, up in sweep:
            ra, rb = reach[a], reach[b]
            if (ra ^ rb) & up:
                reach[a], reach[b] = ra | rb & up, rb | ra & up
                changed = True
        sweep, other = other, sweep
    return reach[terminal]


def _block_up(full: int, block: Block, ups: list[int]) -> int:
    """The rows in which a composite is up, from its children's rows."""
    kind = block.kind
    if kind == "series":  # childless, it is up in every row
        return reduce(and_, ups, full)
    if kind == "parallel":
        return reduce(or_, ups, 0)
    if kind == "bridge":
        b1, b2, b3, b4, b5 = ups
        return (b1 & b4) | (b2 & b5) | (b3 & ((b1 & b5) | (b2 & b4)))
    # k-of-n: a bit-sliced counter, count[b] holding bit b of each row's
    # count, starts at 2**len(count) - k. Each child is added with a ripple
    # carry, and a row carries out of the top bit as its k-th child is up.
    k = block.k
    if not isinstance(k, int) or isinstance(k, bool):
        raise EvaluationError(INTEGER_K)
    if k <= 0:
        return full
    bias = (1 << k.bit_length()) - k
    count = [full if bias >> b & 1 else 0 for b in range(k.bit_length())]
    reached = 0
    for carry in ups:
        for b, bits in enumerate(count):
            count[b], carry = bits ^ carry, bits & carry
        reached |= carry
    return reached


def structure_function(structure: Structure, state: StateVector) -> bool:
    """True when the system is up given each instance's boolean state.

    Monotone by construction: repairing an instance never takes the
    system down.
    """
    columns = [1 if s else 0 for s in state]
    expected = len(instances(structure))
    if len(columns) != expected:
        raise ValueError(f"state has {len(columns)} entries, structure has {expected}")
    return bool(_evaluate(structure, columns, 1))


def _products(prefixes: list[float], avails: Sequence[float]) -> list[float]:
    """Every prefix times each joint state's factors, left to right. The
    state of ``avails[j]`` is bit j of an entry's index // len(prefixes)."""
    for a in avails:
        q = 1.0 - a
        doubled = [x * q for x in prefixes]
        doubled += [x * a for x in prefixes]
        prefixes = doubled
    return prefixes


def _up_state_probabilities(structure: Structure, avails: list[float]) -> Iterator[Iterable[float]]:
    """The up-states' probabilities, one chunk at a time.

    Instance i is up in the state whose code has bit i set, and a state's
    probability is a product in instance order. A chunk fixes the low
    instances and varies the top ``_CHUNK_BITS``, or all of them.
    """
    fixed = max(0, len(avails) - _CHUNK_BITS)
    columns, rows = [], 1
    for _ in avails[fixed:]:  # varied instance j is up in the rows with bit j set
        columns = [c | c << rows for c in columns] + [((1 << rows) - 1) << rows]
        rows *= 2
    full, half = (1 << rows) - 1, rows // 2
    last, not_last = avails[-1], 1.0 - avails[-1]
    for code, start in enumerate(_products([1.0], avails[:fixed])):
        up = _evaluate(structure, [full if code >> i & 1 else 0 for i in range(fixed)] + columns, rows)
        # One byte per row, 1 where the system is up, to select the up
        # rows' prefixes; the last instance's factor multiplies only those.
        selected = format(up, f"0{rows}b")[::-1].encode().translate(_BYTE_PER_BIT)
        head = _products([start], avails[fixed:-1])
        yield map(mul, compress(head, selected[:half]), repeat(not_last))
        yield map(mul, compress(head, selected[half:]), repeat(last))


def enumerate_availability(
    structure: Structure,
    env: Mapping[str, float],
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> float:
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
    if not avails:  # one state, in which nothing can fail
        return Probability(_evaluate(structure, [], 1))
    return Probability(math.fsum(chain.from_iterable(_up_state_probabilities(structure, avails))))


def monte_carlo_availability(
    structure: Structure,
    env: Mapping[str, float],
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Estimate availability by sampling joint states.

    Returns (estimate, half-width of the 95% normal-approximation
    confidence interval, 1.96 * sqrt(p(1-p)/n)). The draw stream is
    fixed by ``seed`` as documented in the module docstring, so repeat
    calls are bit-identical. Without numpy it raises ImportError.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    try:
        import numpy as np
    except ImportError:
        raise ImportError("Monte Carlo needs numpy: pip install 'availkit[mc]'") from None

    avails = _instance_availabilities(structure, env)
    hits = 0
    for start in range(0, samples, _CHUNK_ROWS):
        count = min(_CHUNK_ROWS, samples - start)
        # Row k, packed with sample j at bit j, is instance k's bitset.
        packed = np.packbits(_up_rows(seed, start, count, avails), axis=1, bitorder="little")
        columns = [int.from_bytes(row.tobytes(), "little") for row in packed]
        hits += _evaluate(structure, columns, count).bit_count()
    estimate = hits / samples
    half_width = 1.96 * math.sqrt(estimate * (1.0 - estimate) / samples)
    return Probability(estimate), half_width
