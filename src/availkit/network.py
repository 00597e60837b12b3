"""Two-terminal availability networks.

A network is an undirected multigraph whose edges carry components; the
system is up whenever at least one path of working edges joins the source
to the terminal. Nodes are perfect junctions — only edges fail.

Evaluation runs in two stages, after one pass that checks each edge,
reads its availability and leaves self-loops out. A worklist reduction
first applies the series/parallel rules to a fixpoint: it drops dangling
edges, merges parallel edges and fuses chains through internal degree-2
nodes. An edge-ordered frontier sweep (Hardy, Lucet & Limnios, IEEE
Trans. Reliability 56(3), 2007) then evaluates the irreducible core that
remains. It takes the core's edges in breadth-first order from the
source and carries, for each partition of the frontier vertices into
connected blocks, each labelled in a byte by the frontier position of
its least vertex, the probability mass of reaching it. A vertex enters
the frontier on its first edge: as a block of its own if the edge is
down, in the block of the edge's other end if it is up. Mass is banked
when a working edge joins the source's block to the terminal's, and a
state is dropped once it can no longer connect them. The sweep's cost
grows with the number of live states, which ``max_states`` bounds, and
its frontier may hold no more than MAX_FRONTIER vertices.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Mapping

from ._frozen import Frozen, setfield
from .blocks import DUPLICATE_EDGE, NOT_AN_EDGE, SAME_ENDS, check_string
from .evaluate import EvaluationError, _availability
from .probability import Probability

__all__ = ["Edge", "Network", "ReducedNetwork", "StateBudgetError", "reduce_network", "eval_network"]

# (node a, node b, availability) per edge id — the working representation.
_EdgeTable = dict[str, tuple[str, str, float]]
# The edges at each node, for the edges in the table: edge id -> far end.
_Incidence = dict[str, dict[str, str]]

DEFAULT_MAX_STATES = 1 << 17
MAX_FRONTIER = 254  # the widest frontier the sweep takes: positions 0 to 253 are labels 2 to 255
_ONE = [bytes([label]) for label in range(256)]  # each label as a one-byte string


class StateBudgetError(EvaluationError):
    """Raised when the frontier sweep passes its live-state budget or its frontier limit."""


class Edge(Frozen):
    """One undirected edge; parallel edges and shared components are fine."""

    __slots__ = _fields = ("id", "a", "b", "component_id")

    def __init__(self, id: str, a: str, b: str, component_id: str) -> None:
        setfield(self, "id", check_string("edge id", id))
        setfield(self, "a", check_string("node", a))
        setfield(self, "b", check_string("node", b))
        setfield(self, "component_id", check_string("component id", component_id))


class Network(Frozen):
    """Edges between a source and a terminal; the nodes are those they touch."""

    __slots__ = _fields = ("edges", "source", "terminal")
    edges: tuple[Edge, ...]

    def __init__(self, edges: Iterable[Edge], source: str, terminal: str) -> None:
        edges = tuple(edges)
        for edge in edges:
            if not isinstance(edge, Edge):
                raise TypeError(NOT_AN_EDGE.format(edge))
        setfield(self, "edges", edges)
        setfield(self, "source", check_string("node", source))
        setfield(self, "terminal", check_string("node", terminal))


class ReducedNetwork(Frozen):
    """Result of reduce_network: the smaller graph plus the availabilities
    computed for its synthetic edges (original edges keep their components)."""

    __slots__ = _fields = ("network", "synthetic")

    def __init__(self, network: Network, synthetic: dict[str, float]) -> None:
        setfield(self, "network", network)
        setfield(self, "synthetic", synthetic)


def _bfs_order(pairs: Iterable[tuple[str, str]], source: str) -> dict[str, int]:
    """Breadth-first rank of each node reachable from source over the
    edges, given as (a, b) endpoint pairs; the source ranks 0."""
    adj: dict[str, list[str]] = {}
    for u, v in pairs:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    order = {source: 0}
    queue = [source]
    for node in queue:
        for nxt in adj.get(node, ()):
            if nxt not in order:
                order[nxt] = len(order)
                queue.append(nxt)
    return order


def _reduce(edges: _EdgeTable, incident: _Incidence, source: str, terminal: str) -> _EdgeTable:
    """Apply the reduction rules to a fixpoint, in place.

    It takes the loop-free table and the incidence dicts that _edge_table
    builds, which give each edge's far end, and changes both. A worklist
    holds the nodes whose incident edges changed, seeded in sorted node
    order. A node with fewer than two edges sorts nothing: its one edge is
    pruned, and a node with none is passed over. A node with two edges to
    different far ends has no parallel pair, so its visit fuses them
    directly, the smaller id first in the name. Any other visit sorts the
    node's edges by id and merges its parallel ones in that order. After
    that no two of its edges share a far end, so a node left with more
    than two has nothing more to merge; one that merges down to two edges
    or fewer is visited again at once, to fuse or prune them. The source
    and the terminal are never fused or pruned. Every node at the far end
    of a prune or a fuse is queued again. A merge queues no far end: after a
    visit a node has no parallel pair, only a fuse makes a new pair, and a
    fuse queues both of its ends, so the far end of a pair that a visit
    merges is still on the worklist. The visiting order is fixed and a
    node's edges are taken in id order, so the result, its insertion order
    and any synthetic edge names are deterministic.
    """
    queue = deque(sorted(incident))
    idle: set[str] = set()  # the nodes off the worklist; every node starts on it
    ends = (source, terminal)
    while queue:
        node = queue.popleft()
        idle.add(node)
        ids = incident[node]
        if len(ids) < 2:
            if ids and node not in ends:
                eid, far = ids.popitem()
                del edges[eid], incident[far][eid]
                if far in idle:
                    idle.discard(far)
                    queue.append(far)
            continue
        if len(ids) == 2:
            first, second = ids
            if second < first:
                first, second = second, first
            far1, far2 = ids[first], ids[second]
            if far1 != far2:
                if node not in ends:
                    ids.clear()
                    new_id = f"ser({first},{second})"
                    edges[new_id] = (far1, far2, edges.pop(first)[2] * edges.pop(second)[2])
                    del incident[far1][first], incident[far2][second]
                    incident[far1][new_id], incident[far2][new_id] = far2, far1
                    for far in (far1, far2):
                        if far in idle:
                            idle.discard(far)
                            queue.append(far)
                continue
        order = sorted(ids)
        by_far: dict[str, str] = {}
        for eid in order:
            far = ids[eid]
            first = by_far.get(far)
            if first is None:
                by_far[far] = eid
                continue
            fu, fv, fa = edges.pop(first)
            a = edges.pop(eid)[2]
            new_id = f"par({first},{eid})"
            edges[new_id] = (fu, fv, 1.0 - (1.0 - fa) * (1.0 - a))
            by_far[far] = new_id
            at_far = incident[far]
            del ids[first], ids[eid], at_far[first], at_far[eid]
            ids[new_id], at_far[new_id] = far, node
        if len(ids) < len(order) and len(ids) <= 2 and node not in ends:  # merged: fuse or prune next
            queue.appendleft(node)
    return edges


@lru_cache(maxsize=4096)
def _leave_plan(width: int, leaving: tuple[int, ...]) -> tuple:
    """The plan for dropping the ``leaving`` positions of a frontier ``width``
    wide: the kept positions, the cut that drops them when they are one run,
    else an itemgetter of the kept, a shift table to the new positions, and
    the labels past those that it gives the leaving positions."""
    kept = tuple([j for j in range(width) if j not in leaving])
    pick = None
    if leaving[-1] - leaving[0] >= len(leaving):  # itemgetter of one index returns the bare item
        pick = itemgetter(*kept) if len(kept) > 1 else itemgetter(slice(kept[0], kept[0] + 1))
    shift = bytes.maketrans(bytes([j + 2 for j in kept + leaving]), bytes(range(2, width + 2)))
    return kept, (leaving[0], leaving[-1] + 1), pick, shift, tuple(range(len(kept) + 2, width + 2))


def _sweep(edges: _EdgeTable, source: str, terminal: str, max_states: int) -> float:
    """Source-terminal availability of a core by an edge-ordered frontier sweep.

    A state is a ``bytes`` that labels each frontier vertex with its block:
    0 is the source's block, 1 the terminal's, any other 2 plus the frontier
    position of its least vertex, so each partition has one key. Edges come
    by the larger, then the smaller breadth-first rank of their endpoints,
    so the lower one is known and the frontier stays in rank order: a merge
    keeps the smaller label, by one ``replace``. A vertex enters in its
    first edge's own pass over the states, as one byte more, and joining
    the lower end's block keeps that block's label; only the terminal,
    entering, turns the lower end's block into 1. Only the steps after
    which a vertex leaves rebuild the frontier and drop or relabel states,
    by a plan cached per frontier width and leaving positions: a cut, a
    ``translate`` to the new positions and, for a block whose least vertex
    left, a ``replace``. The widest frontier follows from the edge order,
    so one past MAX_FRONTIER is refused before any state is built.
    """
    if len(edges) == 1:  # reduction leaves a lone edge only between source and terminal
        ((_, _, p),) = edges.values()
        return 0.0 + p  # what the sweep banks, 0.0 + 1.0 * p, so -0.0 gives 0.0
    rank = _bfs_order(((u, v) for u, v, _ in edges.values()), source)
    if terminal not in rank:
        return 0.0
    core = sorted(
        (max(rank[u], rank[v]), min(rank[u], rank[v]), eid, a)
        for eid, (u, v, a) in edges.items()
        if u in rank
    )
    last: dict[int, int] = {}
    for i, (hi, lo, _, _) in enumerate(core):
        last[hi] = last[lo] = i
    leaves_after = set(last.values())  # the steps after which a vertex leaves the frontier
    if len(rank) > MAX_FRONTIER:  # only then can the frontier be too wide for a byte label
        gone = sorted(last.values())  # in step i the ranks up to hi have entered, less those gone
        widest = max(hi + 1 - bisect_left(gone, i) for i, (hi, _, _, _) in enumerate(core))
        if widest > MAX_FRONTIER:
            raise StateBudgetError(
                f"network sweep needs a frontier of {widest} vertices, past its limit of "
                f"{MAX_FRONTIER}; estimate with the Monte Carlo oracle"
            )
    t = rank[terminal]
    frontier = [0]
    states = {b"\0": 1.0}
    banked = 0.0
    for i, (hi, lo, _, p) in enumerate(core):
        iu = frontier.index(lo)
        q = 1.0 - p
        nxt: dict[bytes, float] = {}
        if hi not in frontier:  # hi enters on its first edge, so every key made here is new
            b = 1 if hi == t else len(frontier) + 2
            frontier.append(hi)
            down = _ONE[b]
            for s, m in states.items():
                a = s[iu]
                nxt[s + down] = m * q  # m and q are never -0.0, so this is 0.0 + m * q
                if b > 1:  # hi joins a's block and has the largest label, so it keeps a's
                    nxt[s + _ONE[a]] = 0.0 + m * p
                elif a == 0:
                    banked += m * p
                else:  # the terminal enters: a's block becomes the terminal's
                    nxt[s.replace(_ONE[a], b"\1") + down] = 0.0 + m * p
        else:
            iv = frontier.index(hi)
            for s, m in states.items():
                a, b = s[iu], s[iv]
                if a == b:
                    nxt[s] = nxt.get(s, 0.0) + m
                    continue
                nxt[s] = nxt.get(s, 0.0) + m * q
                if a + b == 1:  # an up edge joins the source's block to the terminal's
                    banked += m * p
                    continue
                merged = s.replace(_ONE[b], _ONE[a]) if a < b else s.replace(_ONE[a], _ONE[b])
                nxt[merged] = nxt.get(merged, 0.0) + m * p
        if i in leaves_after:
            leaving = tuple([j for j, w in enumerate(frontier) if last[w] == i])
            kept, (start, stop), pick, shift, led = _leave_plan(len(frontier), leaving)
            frontier = [frontier[j] for j in kept]
            states = {}
            for s, m in nxt.items():
                rest = s[:start] + s[stop:] if pick is None else bytes(pick(s))
                if 0 not in rest or (t <= hi and 1 not in rest):  # t <= hi: the terminal was seen
                    continue
                rest = rest.translate(shift)
                for x in led:
                    n = rest.find(x)
                    if n >= 0:  # x's block lost its least vertex: the next one leads it
                        rest = rest.replace(_ONE[x], _ONE[n + 2])
                states[rest] = states.get(rest, 0.0) + m
        else:
            states = nxt
        if len(states) > max_states:
            raise StateBudgetError(
                f"network sweep exceeded {max_states} live states; "
                "raise the limit or estimate with the Monte Carlo oracle"
            )
    return banked


def _edge_table(net: Network, env: Mapping[str, float]) -> tuple[_EdgeTable, _Incidence]:
    """The one pass from a network to what _reduce takes: the edge table
    in the network's order and each node's dict of edge id to far end.

    Every edge's id is checked against the ids before it and the merge
    names, and its availability read, a self-loop's too, but a self-loop
    enters neither the table nor the incidence dicts: it never joins its
    ends to anything else. Ids and nodes are strings, as ``Edge`` and
    ``Network`` check when built, so every node hashes and sorts.
    """
    if net.source == net.terminal:
        raise EvaluationError(SAME_ENDS)
    table: _EdgeTable = {}
    incident: _Incidence = {}
    loops: set[str] = set()  # self-loop ids, still taken for the duplicate check
    for e in net.edges:
        eid = e.id
        if eid in table or eid in loops:
            raise EvaluationError(DUPLICATE_EDGE.format(eid))
        if "(" in eid and eid.startswith(("par(", "ser(")):  # most ids hold no "(", a cheaper test
            raise EvaluationError(f"edge id {eid!r} is reserved: par(...) and ser(...) are merges")
        if "," in eid:  # so a merge's name par(a,b) or ser(a,b) reads back one way only
            raise EvaluationError(f"edge id {eid!r} holds a comma, which merge names use")
        a = _availability(env, e.component_id, eid)
        u, v = e.a, e.b
        if u == v:
            loops.add(eid)
            continue
        table[eid] = (u, v, a)
        at = incident.get(u)  # not setdefault, which would make a dict on every call
        if at is None:
            incident[u] = {eid: v}
        else:
            at[eid] = v
        at = incident.get(v)
        if at is None:
            incident[v] = {eid: u}
        else:
            at[eid] = u
    return table, incident


def reduce_network(net: Network, env: Mapping[str, float]) -> ReducedNetwork:
    """Reduce a network to its fixpoint under the series/parallel/pruning rules.

    Synthetic edges produced by merging are named from their parents —
    ``par(e1,e2)``, ``ser(e1,e4)`` — and their computed availabilities are
    returned alongside the graph; surviving original edges keep their
    component ids. An irreducible core (such as a bridge mesh) comes back
    unchanged. An edge id that starts ``par(`` or ``ser(`` is reserved for
    merged edges, and one that holds a comma would make two merges' names
    alike: here and in eval_network either is an EvaluationError, as is a
    source that is also the terminal. Ids and nodes are strings, checked
    when the network is built.
    """
    table = sorted(_reduce(*_edge_table(net, env), net.source, net.terminal).items())
    original = {e.id: e for e in net.edges}
    edges = tuple(
        original[eid] if eid in original else Edge(eid, u, v, eid) for eid, (u, v, _) in table
    )
    reduced = Network(edges=edges, source=net.source, terminal=net.terminal)
    synthetic = {eid: a for eid, (_, _, a) in table if eid not in original}
    return ReducedNetwork(network=reduced, synthetic=synthetic)


def eval_network(
    net: Network,
    env: Mapping[str, float],
    *,
    max_states: int = DEFAULT_MAX_STATES,
) -> float:
    """Availability of the source-terminal connection.

    ``max_states`` bounds the live states of the frontier sweep over the
    irreducible core; exceeding it, or a core whose frontier would pass
    MAX_FRONTIER vertices, raises StateBudgetError, which suggests the
    Monte Carlo oracle. A network that reduction alone solves needs one
    state. A budget below 1, or NaN, is a ValueError, whatever the network.
    """
    if not max_states >= 1:  # written so that NaN fails too
        raise ValueError(f"max_states must be >= 1, got {max_states}")
    core = _reduce(*_edge_table(net, env), net.source, net.terminal)
    return Probability(_sweep(core, net.source, net.terminal, max_states))
