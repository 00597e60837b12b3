"""Two-terminal availability networks.

A network is an undirected multigraph whose edges carry components; the
system is up whenever at least one path of working edges joins the source
to the terminal. Nodes are perfect junctions — only edges fail.

Evaluation reduces the graph to a fixpoint (merging parallel edges,
fusing chains through internal degree-2 nodes, pruning dangling edges
and self-loops) and, when an irreducible core remains, factors on a
pivot edge:

    A = A_pivot * A(core with pivot contracted)
      + (1 - A_pivot) * A(core with pivot deleted)

Both branches are reduced again, so the recursion stays shallow for
practical meshes. The default pivot is the edge with the highest sum of
endpoint degrees (ties broken by the lexicographically smallest edge
id), but any choice yields the same availability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .evaluate import EvaluationError
from .probability import Probability

__all__ = ["Edge", "Network", "ReducedNetwork", "PivotDepthError", "reduce_network", "eval_network"]

# (node a, node b, availability) per edge id — the working representation.
_EdgeTable = dict[str, tuple[str, str, float]]

DEFAULT_PIVOT_DEPTH = 30


class PivotDepthError(RuntimeError):
    """Raised when factoring recurses past the configured pivot budget."""


@dataclass(frozen=True)
class Edge:
    """One undirected edge; parallel edges and shared components are fine."""

    id: str
    a: str
    b: str
    component_id: str


@dataclass(frozen=True)
class Network:
    edges: tuple[Edge, ...]
    source: str
    terminal: str
    nodes: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(self.edges))
        touched = {self.source, self.terminal}
        for e in self.edges:
            touched.add(e.a)
            touched.add(e.b)
        object.__setattr__(self, "nodes", frozenset(self.nodes) | touched)


@dataclass(frozen=True)
class ReducedNetwork:
    """Result of reduce_network: the smaller graph plus the availabilities
    computed for its synthetic edges (original edges keep their components)."""

    network: Network
    synthetic: dict[str, float]


def _degrees(edges: _EdgeTable) -> dict[str, int]:
    deg: dict[str, int] = {}
    for u, v, _ in edges.values():
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return deg


def _connected(pairs: Iterable[tuple[str, str]], source: str, terminal: str) -> bool:
    """True when the edges, given as (a, b) endpoint pairs, join source to terminal."""
    if source == terminal:
        return True
    adj: dict[str, list[str]] = {}
    for u, v in pairs:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = {source}
    stack = [source]
    while stack:
        node = stack.pop()
        for nxt in adj.get(node, ()):
            if nxt not in seen:
                if nxt == terminal:
                    return True
                seen.add(nxt)
                stack.append(nxt)
    return False


def _reduce(edges: _EdgeTable, source: str, terminal: str, trace: dict[str, float] | None = None) -> _EdgeTable:
    """Apply the reduction rules to a fixpoint.

    Scan order is fixed — self-loops, dangling edges, then the first
    parallel pair by edge id, then the first internal degree-2 node by
    node id — so the result and any synthetic edge names are
    deterministic.
    """
    edges = dict(edges)
    changed = True
    while changed:
        changed = False

        for eid in sorted(edges):
            u, v, _ = edges[eid]
            if u == v:
                del edges[eid]
                changed = True

        while True:
            deg = _degrees(edges)
            dangling = [
                eid
                for eid, (u, v, _) in sorted(edges.items())
                if (deg[u] == 1 and u not in (source, terminal))
                or (deg[v] == 1 and v not in (source, terminal))
            ]
            if not dangling:
                break
            for eid in dangling:
                del edges[eid]
            changed = True

        by_pair: dict[frozenset[str], str] = {}
        merged = False
        for eid in sorted(edges):
            u, v, a = edges[eid]
            pair = frozenset((u, v))
            first = by_pair.get(pair)
            if first is None:
                by_pair[pair] = eid
                continue
            fu, fv, fa = edges[first]
            new_id = f"par({first},{eid})"
            value = 1.0 - (1.0 - fa) * (1.0 - a)
            del edges[first]
            del edges[eid]
            edges[new_id] = (fu, fv, value)
            if trace is not None:
                trace[new_id] = value
            merged = True
            changed = True
            break
        if merged:
            continue

        deg = _degrees(edges)
        for node in sorted(deg):
            if node in (source, terminal) or deg[node] != 2:
                continue
            first, second = sorted(
                eid for eid, (u, v, _) in edges.items() if node in (u, v)
            )
            u1, v1, a1 = edges[first]
            u2, v2, a2 = edges[second]
            far1 = u1 if v1 == node else v1
            far2 = u2 if v2 == node else v2
            new_id = f"ser({first},{second})"
            value = a1 * a2
            del edges[first]
            del edges[second]
            edges[new_id] = (far1, far2, value)
            if trace is not None:
                trace[new_id] = value
            changed = True
            break

    return edges


def _default_pivot(edges: _EdgeTable) -> str:
    deg = _degrees(edges)
    return min(edges, key=lambda eid: (-(deg[edges[eid][0]] + deg[edges[eid][1]]), eid))


def _contract(edges: _EdgeTable, pivot: str, source: str, terminal: str) -> tuple[_EdgeTable, str, str]:
    """Merge the pivot's endpoints into one node; self-loops vanish."""
    keep, drop, _ = edges[pivot]
    out: _EdgeTable = {}
    for eid, (u, v, a) in edges.items():
        if eid == pivot:
            continue
        if u == drop:
            u = keep
        if v == drop:
            v = keep
        if u == v:
            continue
        out[eid] = (u, v, a)
    if source == drop:
        source = keep
    if terminal == drop:
        terminal = keep
    return out, source, terminal


def _eval(
    edges: _EdgeTable,
    source: str,
    terminal: str,
    budget: int,
    pivot_rule: Callable[[_EdgeTable], str],
) -> float:
    if source == terminal:
        return 1.0
    edges = _reduce(edges, source, terminal)
    if not _connected(((u, v) for u, v, _ in edges.values()), source, terminal):
        return 0.0
    if len(edges) == 1:
        (u, v, a) = next(iter(edges.values()))
        if {u, v} == {source, terminal}:
            return a
    if budget <= 0:
        raise PivotDepthError(
            "pivot depth limit exceeded while factoring the network; "
            "raise the limit or estimate with the Monte Carlo oracle"
        )
    pivot = pivot_rule(edges)
    _, _, a = edges[pivot]
    contracted, c_source, c_terminal = _contract(edges, pivot, source, terminal)
    deleted = {eid: val for eid, val in edges.items() if eid != pivot}
    up = _eval(contracted, c_source, c_terminal, budget - 1, pivot_rule)
    down = _eval(deleted, source, terminal, budget - 1, pivot_rule)
    return a * up + (1.0 - a) * down


def _edge_table(net: Network, env: Mapping[str, float]) -> _EdgeTable:
    seen: set[str] = set()
    table: _EdgeTable = {}
    for e in net.edges:
        if e.id in seen:
            raise EvaluationError(f"duplicate edge id {e.id!r}")
        seen.add(e.id)
        try:
            a = Probability(env[e.component_id])
        except KeyError:
            raise EvaluationError(
                f"no availability for component {e.component_id!r} (edge {e.id!r})"
            ) from None
        table[e.id] = (e.a, e.b, float(a))
    return table


def reduce_network(net: Network, env: Mapping[str, float]) -> ReducedNetwork:
    """Reduce a network to its fixpoint under the series/parallel/pruning rules.

    Synthetic edges produced by merging are named from their parents —
    ``par(e1,e2)``, ``ser(e1,e4)`` — and their computed availabilities are
    returned alongside the graph; surviving original edges keep their
    component ids. An irreducible core (such as a bridge mesh) comes back
    unchanged.
    """
    trace: dict[str, float] = {}
    table = _reduce(_edge_table(net, env), net.source, net.terminal, trace)
    live = {e.id: e for e in net.edges if e.id in table}
    edges = tuple(
        live[eid] if eid in live else Edge(eid, u, v, eid)
        for eid, (u, v, _) in sorted(table.items())
    )
    reduced = Network(edges=edges, source=net.source, terminal=net.terminal)
    synthetic = {eid: value for eid, value in sorted(trace.items()) if eid in table}
    return ReducedNetwork(network=reduced, synthetic=synthetic)


def eval_network(
    net: Network,
    env: Mapping[str, float],
    *,
    max_pivots: int = DEFAULT_PIVOT_DEPTH,
    pivot_rule: Callable[[_EdgeTable], str] | None = None,
) -> Probability:
    """Availability of the source-terminal connection.

    ``max_pivots`` bounds the factoring recursion depth; exceeding it
    raises PivotDepthError, which suggests the Monte Carlo oracle for
    meshes too dense to factor. ``pivot_rule`` is injectable for testing
    — any rule that names an edge of the current core gives the same
    result.
    """
    if net.source == net.terminal:
        raise EvaluationError("source and terminal must differ")
    table = _edge_table(net, env)
    rule = pivot_rule if pivot_rule is not None else _default_pivot
    return Probability(_eval(table, net.source, net.terminal, max_pivots, rule))
