"""Closed-form availability evaluation for block structures.

All operations assume independent components and fold strictly left to
right over the given order, so results are bit-reproducible. No
compensated summation is used — plain IEEE double arithmetic throughout.
``eval_block`` folds leaves as plain floats, and each composite's result
passes the probability rule before its parent reads it. The bits depend
on that: a k-of-n tail can sum to 1.0000000000000002, clamped to 1.0.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from .blocks import Block, EvaluationError, fold, kofn_problem
from .probability import Probability

__all__ = [
    "Environment",
    "EvaluationError",
    "eval_series",
    "eval_parallel",
    "eval_kofn",
    "eval_bridge",
    "eval_block",
]

# Availability per component id; must cover every leaf of the structure.
Environment = Mapping[str, float]


def eval_series(avails: Sequence[float]) -> float:
    """All parts must be up: the product of availabilities."""
    if not avails:
        raise EvaluationError("series requires at least one availability")
    return Probability(math.prod(avails))


def eval_parallel(avails: Sequence[float]) -> float:
    """At least one part up: one minus the product of the complements."""
    if not avails:
        raise EvaluationError("parallel requires at least one availability")
    return Probability(1.0 - math.prod(1.0 - a for a in avails))


def eval_kofn(k: int, avails: Sequence[float]) -> float:
    """At least k of the listed parts up (Poisson-binomial tail).

    ``dist[j]`` is the probability that exactly j of the parts folded so
    far are up. Each part, up with p, takes it to ``dist[j] * (1 - p) +
    dist[j - 1] * p``, so the fold is O(n^2) and parts may have distinct
    availabilities. The tail ``dist[k:]`` is summed left to right. k == 1
    is eval_parallel, and the k == n tail is the bare product, so the
    degenerate cases coincide bit-for-bit with eval_parallel and
    eval_series.
    """
    if problem := kofn_problem(k, len(avails)):
        raise EvaluationError(problem)
    if k == 1:
        return eval_parallel(avails)
    dist = [1.0]
    for p in map(float, avails):
        q = 1.0 - p
        dist = [x * q + y * p for x, y in zip(dist + [0.0], [0.0] + dist)]
    tail = 0.0
    for term in dist[k:]:
        tail += term
    return Probability(tail)


def eval_bridge(a1: float, a2: float, a3: float, a4: float, a5: float) -> float:
    """Five-slot bridge: two columns (a1/a2 left, a4/a5 right) with a
    cross-link a3, conditioned on the state of the cross-link.

    Cross up: each column is a parallel pair and the columns are in
    series. Cross down: the two straight paths a1-a4 and a2-a5 stand in
    parallel.
    """
    columns = (a1 + a2 - a1 * a2) * (a4 + a5 - a4 * a5)
    paths = 1.0 - (1.0 - a1 * a4) * (1.0 - a2 * a5)
    return Probability(a3 * columns + (1.0 - a3) * paths)


def eval_block(block: Block, env: Environment) -> float:
    """Evaluate a block tree against per-component availabilities.

    Duplicate leaf ids refer to independent replicas of the same
    component type; each occurrence contributes its availability
    independently. A leaf missing from ``env`` and nesting past
    MAX_NESTING are EvaluationErrors; a non-block is a TypeError (``fold``).
    """
    return fold(block, lambda leaf: _availability(env, leaf.component_id),
                lambda block, avails: _RULES[block.kind](block, avails))


_RULES = {  # by kind, which a subclass of a composite inherits with its base's rule
    "series": lambda block, avails: eval_series(avails),
    "parallel": lambda block, avails: eval_parallel(avails),
    "kofn": lambda block, avails: eval_kofn(block.k, avails),
    "bridge": lambda block, avails: eval_bridge(*avails),
}


def _availability(env: Environment, component_id: str, edge_id: str | None = None) -> float:
    """``env[component_id]`` under the probability rule; a missing one names the edge if given."""
    try:
        value = env[component_id]
    except KeyError:
        edge = "" if edge_id is None else f" (edge {edge_id!r})"
        raise EvaluationError(f"no availability for component {component_id!r}{edge}") from None
    return Probability(value)
