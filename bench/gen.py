"""Seeded input generators and the benchmark's own reference answers.

Every generator is a pure function of its seed: the same seed gives the
same model text, structures and operation lists. The references here
share no code with availkit; each op's result is checked against them.

Block trees use nested tuples::

    ("leaf", cid) | ("series", kids) | ("parallel", kids)
    | ("kofn", k, kids) | ("bridge", kids)      # bridge has five kids

Components map an id to ``(form, fields)`` where form is ``direct``,
``mdt`` or ``pipe`` and fields maps each model-file field name to the
decimal text written in the file.
"""

from __future__ import annotations

import random
import re
from collections import deque

FORM_FIELDS = {
    "direct": ("availability",),
    "mdt": ("mtbf_h", "mdt_h"),
    "pipe": ("mtbf_h", "mttres_h", "mldt_h", "madt_h", "pnrs", "tat_h"),
}


# -- components ---------------------------------------------------------

def _field_text(rng: random.Random, name: str) -> str:
    if name == "availability":
        return f"{rng.uniform(0.9, 0.99999):.6f}"
    if name == "pnrs":
        return f"{rng.uniform(0.8, 0.999):.4f}"
    if name == "mtbf_h":
        return f"{rng.uniform(500.0, 100000.0):.1f}"
    if name == "tat_h":
        return f"{rng.uniform(24.0, 336.0):.1f}"
    return f"{rng.uniform(0.25, 48.0):.2f}"


def random_component(rng: random.Random, form: str) -> tuple[str, dict[str, str]]:
    return form, {name: _field_text(rng, name) for name in FORM_FIELDS[form]}


def ref_component(spec: tuple[str, dict[str, str]]) -> float:
    """Availability of a component spec: MTBF / (MTBF + MDT)."""
    form, f = spec
    v = {name: float(text) for name, text in f.items()}
    if form == "direct":
        return v["availability"]
    if form == "mdt":
        mdt = v["mdt_h"]
    else:
        mdt = v["mttres_h"] + v["mldt_h"] + v["madt_h"] + (1.0 - v["pnrs"]) * v["tat_h"]
    return v["mtbf_h"] / (v["mtbf_h"] + mdt)


# -- block trees --------------------------------------------------------

def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def random_tree(
    rng: random.Random, leaves: int, depth: int, weights: dict[str, float]
) -> tuple:
    """A tree with exactly ``leaves`` leaves, nested up to ``depth`` levels.

    Leaves are numbered ``0 .. leaves-1`` in depth-first order; callers
    map the numbers onto component ids. Node widths aim at
    leaves ** (1 / depth) so every size reaches the full depth.
    """
    counter = iter(range(leaves))
    kinds = list(weights)
    probs = list(weights.values())

    def build(budget: int, levels: int) -> tuple:
        if budget == 1:
            return ("leaf", next(counter))
        kind = rng.choices(kinds, probs)[0]
        if kind == "bridge" and budget < 5:
            kind = "series"
        if kind == "bridge":
            width = 5
        elif levels <= 1:
            width = budget
        else:
            aim = budget ** (1.0 / levels)
            width = max(2, min(budget, round(aim * rng.uniform(0.7, 1.4))))
        kids = [build(part, levels - 1) for part in _split(rng, budget, width)]
        if kind == "kofn":
            return ("kofn", rng.randint(1, len(kids)), kids)
        return (kind, kids)

    return build(leaves, depth)


def map_leaves(tree: tuple, ids: list[str]) -> tuple:
    if tree[0] == "leaf":
        return ("leaf", ids[tree[1]])
    if tree[0] == "kofn":
        return ("kofn", tree[1], [map_leaves(c, ids) for c in tree[2]])
    return (tree[0], [map_leaves(c, ids) for c in tree[1]])


def tree_nodes(tree: tuple) -> int:
    """Number of block nodes, leaves included."""
    if tree[0] == "leaf":
        return 1
    kids = tree[2] if tree[0] == "kofn" else tree[1]
    return 1 + sum(tree_nodes(c) for c in kids)


def ref_tree(tree: tuple, avail: dict[str, float]) -> float:
    """Availability of a block tree from first principles.

    k-of-n folds the up-count distribution in plain Python; the bridge
    sums its 32 child states through the structure function.
    """
    kind = tree[0]
    if kind == "leaf":
        return avail[tree[1]]
    if kind == "kofn":
        k, kids = tree[1], [ref_tree(c, avail) for c in tree[2]]
    else:
        kids = [ref_tree(c, avail) for c in tree[1]]
    if kind == "series":
        out = 1.0
        for a in kids:
            out *= a
        return out
    if kind == "parallel":
        down = 1.0
        for a in kids:
            down *= 1.0 - a
        return 1.0 - down
    if kind == "kofn":
        dist = [1.0] + [0.0] * len(kids)
        for a in kids:
            dist = [d * (1.0 - a) + (dist[i - 1] * a if i else 0.0) for i, d in enumerate(dist)]
        return sum(dist[k:])
    total = 0.0
    for code in range(32):
        up = [(code >> i) & 1 == 1 for i in range(5)]
        b1, b2, b3, b4, b5 = up
        if (b1 and b4) or (b2 and b5) or (b3 and ((b1 and b5) or (b2 and b4))):
            p = 1.0
            for u, a in zip(up, kids):
                p *= a if u else 1.0 - a
            total += p
    return total


def block_text(tree: tuple, indent: int = 0) -> str:
    """Model-file text of a tree, one child per line below depth two."""
    kind = tree[0]
    if kind == "leaf":
        return tree[1]
    kids = tree[2] if kind == "kofn" else tree[1]
    head = f"kofn({tree[1]}; " if kind == "kofn" else f"{kind}("
    if all(c[0] == "leaf" for c in kids):
        return head + ", ".join(c[1] for c in kids) + ")"
    pad = "  " * (indent + 1)
    inner = (",\n" + pad).join(block_text(c, indent + 1) for c in kids)
    return f"{head}\n{pad}{inner})"


def component_line(cid: str, spec: tuple[str, dict[str, str]]) -> str:
    body = ", ".join(f"{name} = {text}" for name, text in spec[1].items())
    return f"component {cid} {{ {body} }}"


# -- pipeline corpus ----------------------------------------------------

PIPELINE_FILES = 31
PIPELINE_MIN_COMPONENTS = 8
PIPELINE_MAX_COMPONENTS = 2000
PIPELINE_MALFORMED_EVERY = 10
PIPELINE_INJECTIONS = 3
_PIPELINE_WEIGHTS = {"series": 0.35, "parallel": 0.3, "kofn": 0.25, "bridge": 0.1}


def pipeline_sizes() -> list[int]:
    """Component counts of the corpus: a geometric ladder, seed-independent,
    so every seed costs about the same."""
    lo, hi, n = PIPELINE_MIN_COMPONENTS, PIPELINE_MAX_COMPONENTS, PIPELINE_FILES
    return [round(lo * (hi / lo) ** (i / (n - 1))) for i in range(n)]


def pipeline_model(rng: random.Random, n_components: int) -> dict:
    """One well-formed model file: components of all three forms, a tree
    4-5 levels deep over them, comments, and about one leaf in eight a
    replica of an earlier component."""
    ids = [f"u{i}" for i in range(n_components)]
    comps = {cid: random_component(rng, rng.choice(("direct", "mdt", "pipe"))) for cid in ids}
    leaf_ids = ids + [rng.choice(ids) for _ in range(n_components // 8)]
    rng.shuffle(leaf_ids)
    tree = map_leaves(
        random_tree(rng, len(leaf_ids), rng.choice((4, 5)), _PIPELINE_WEIGHTS), leaf_ids
    )
    lines = [f"# generated model: {n_components} components"]
    for i, cid in enumerate(ids):
        if i % 50 == 0:
            lines.append(f"# group {i // 50}")
        lines.append(component_line(cid, comps[cid]))
    lines.append("")
    lines.extend(("system = " + block_text(tree)).split("\n"))
    return {"components": comps, "tree": tree, "lines": lines}


def _inject(rng: random.Random, model: dict) -> list[tuple[int, int, str]]:
    """Break the file in PIPELINE_INJECTIONS places, each yielding exactly
    one diagnostic at a known position. Returns (line, column, message)."""
    lines = model["lines"]
    direct_rows = [
        i for i, ln in enumerate(lines)
        if ln.startswith("component ") and " availability = " in ln
    ]
    leaf_rows = [
        i for i, ln in enumerate(lines)
        if not ln.startswith(("component", "#")) and ln.strip()
    ]
    expected = []
    used: set[int] = set()
    kinds = ["typo", "range", "equals", "stray", "ghost"]
    rng.shuffle(kinds)
    for kind in kinds:
        if len(expected) == PIPELINE_INJECTIONS:
            break
        if kind == "ghost":
            pool = [r for r in leaf_rows if _leaf_tokens(lines[r])]
        elif kind == "stray":
            pool = [r for r, ln in enumerate(lines) if ln.startswith("component")]
        else:
            pool = direct_rows
        pool = [r for r in pool if r not in used]
        if not pool:
            continue
        row = rng.choice(pool)
        used.add(row)
        ln = lines[row]
        if kind == "stray":
            lines[row] = "@ " + ln
            expected.append((row + 1, 1, "unexpected character '@'"))
            continue
        if kind == "ghost":
            ghost = f"ghost{row}"
            col, tok = rng.choice(_leaf_tokens(ln))
            lines[row] = ln[:col] + ghost + ln[col + len(tok):]
            expected.append((row + 1, col + 1, f"unknown component {ghost!r}"))
            continue
        at = ln.index("availability = ")
        value_col = at + len("availability = ")
        if kind == "typo":
            lines[row] = ln[:at] + "availabilty" + ln[at + len("availability"):]
            expected.append((row + 1, at + 1, "unknown field 'availabilty'"))
        elif kind == "range":
            end = ln.index(" ", value_col)
            lines[row] = ln[:value_col] + "1.5" + ln[end:]
            expected.append((row + 1, value_col + 1, "availability 1.5 out of [0, 1]"))
        else:
            lines[row] = ln[:at] + "availability " + ln[value_col:]
            expected.append((row + 1, at + len("availability ") + 1, "expected '='"))
    return sorted(expected)


def _leaf_tokens(line: str) -> list[tuple[int, str]]:
    """(column, id) of each component reference on a system line."""
    return [(m.start(), m.group()) for m in re.finditer(r"\bu\d+\b", line)]


def pipeline_corpus(seed: int) -> list[dict]:
    """The pipeline files: text plus, for well-formed ones, the bench's
    reference availability, and for malformed ones, the diagnostics the
    parser must report."""
    rng = random.Random(f"pipeline/{seed}")
    out = []
    for i, size in enumerate(pipeline_sizes()):
        model = pipeline_model(rng, size)
        malformed = i % PIPELINE_MALFORMED_EVERY == PIPELINE_MALFORMED_EVERY // 2
        expected = _inject(rng, model) if malformed else None
        text = "\n".join(model["lines"]) + "\n"
        item = {"name": f"file{i}", "text": text, "malformed": malformed,
                "expected_diagnostics": expected,
                "work": {"modelfile.parse": len(text.encode())}}
        if malformed:
            item["work"]["modelfile.diagnostics"] = len(expected)
        else:
            avail = {cid: ref_component(spec) for cid, spec in model["components"].items()}
            item["reference"] = ref_tree(model["tree"], avail)
            item["components"] = len(model["components"])
            item["work"]["evaluate.eval"] = tree_nodes(model["tree"])
        out.append(item)
    return out


# -- networks -----------------------------------------------------------

def grid_network(rng: random.Random, rows: int, cols: int, lo: float, hi: float) -> dict:
    """A rows x cols lattice from corner to corner: an irreducible core."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((f"g{r}_{c}", f"g{r}_{c + 1}"))
            if r + 1 < rows:
                edges.append((f"g{r}_{c}", f"g{r + 1}_{c}"))
    return _network(rng, edges, "g0_0", f"g{rows - 1}_{cols - 1}", lo, hi)


def sp_network(rng: random.Random, n_edges: int) -> dict:
    """A network built only by series and parallel composition, so
    reduction alone evaluates it. Its reference is the composition
    evaluated with the two rules."""
    edges: list[tuple[str, str]] = []
    probs: list[float] = []
    counter = iter(range(10 * n_edges))

    def build(a: str, b: str, budget: int, series: bool) -> float:
        if budget == 1:
            edges.append((a, b))
            probs.append(rng.uniform(0.6, 0.99))
            return probs[-1]
        parts = _split(rng, budget, min(budget, rng.randint(2, 4)))
        if series:
            nodes = [a] + [f"s{next(counter)}" for _ in parts[1:]] + [b]
            out = 1.0
            for part, u, v in zip(parts, nodes, nodes[1:]):
                out *= build(u, v, part, False)
            return out
        down = 1.0
        for part in parts:
            down *= 1.0 - build(a, b, part, True)
        return 1.0 - down

    reference = build("src", "dst", n_edges, rng.random() < 0.5)
    return {"edges": [(u, v, f"x{i}") for i, (u, v) in enumerate(edges)],
            "env": {f"x{i}": p for i, p in enumerate(probs)},
            "source": "src", "terminal": "dst", "reference": reference}


def random_network(
    rng: random.Random, n_nodes: int, n_edges: int, lo: float = 0.05, hi: float = 0.999
) -> dict:
    """A connected random multigraph from n0 to the last node: a spanning
    tree plus extra edges, some parallel."""
    nodes = [f"n{i}" for i in range(n_nodes)]
    pairs = [(nodes[i], nodes[rng.randrange(i)]) for i in range(1, n_nodes)]
    while len(pairs) < n_edges:
        pairs.append(tuple(rng.sample(nodes, 2)))
    return _network(rng, pairs, nodes[0], nodes[-1], lo, hi)


def _network(rng, pairs, source, terminal, lo, hi) -> dict:
    return {
        "edges": [(u, v, f"x{i}") for i, (u, v) in enumerate(pairs)],
        "env": {f"x{i}": rng.uniform(lo, hi) for i in range(len(pairs))},
        "source": source,
        "terminal": terminal,
    }


def ref_network(net: dict) -> float:
    """Exact source-terminal availability by an edge-ordered frontier sweep.

    A state maps each frontier vertex to a block label, with label 0 the
    source's block and label 1 the terminal's. Mass is banked when an up
    edge joins blocks 0 and 1, and a state is dropped when block 0, or
    block 1 once the terminal has been seen, leaves the frontier.
    """
    source, terminal = net["source"], net["terminal"]
    if source == terminal:
        return 1.0
    adj: dict[str, list[str]] = {}
    for u, v, _ in net["edges"]:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    order = {source: 0}
    queue = deque([source])
    while queue:
        for w in adj.get(queue.popleft(), ()):
            if w not in order:
                order[w] = len(order)
                queue.append(w)
    far = len(order)
    edges = sorted(
        ((u, v, net["env"][c]) for u, v, c in net["edges"]),
        key=lambda e: (max(order.get(e[0], far), order.get(e[1], far)),
                       min(order.get(e[0], far), order.get(e[1], far))),
    )
    last = {}
    for i, (u, v, _) in enumerate(edges):
        last[u] = last[v] = i
    frontier = [source]
    states = {(0,): 1.0}
    banked = 0.0
    seen_terminal = False
    for i, (u, v, p) in enumerate(edges):
        for w in (u, v):
            if w not in frontier:
                frontier.append(w)
                fresh = 1 if w == terminal else None
                seen_terminal = seen_terminal or w == terminal
                states = {
                    s + ((max(s) + 2 if fresh is None else fresh),): m
                    for s, m in states.items()
                }
        iu, iv = frontier.index(u), frontier.index(v)
        nxt: dict[tuple, float] = {}
        for s, m in states.items():
            nxt[s] = nxt.get(s, 0.0) + m * (1.0 - p)
            a, b = s[iu], s[iv]
            if a == b:
                nxt[s] = nxt.get(s, 0.0) + m * p
                continue
            if {a, b} == {0, 1}:
                banked += m * p
                continue
            keep, drop = min(a, b), max(a, b)
            t = _canonical(tuple(keep if x == drop else x for x in s))
            nxt[t] = nxt.get(t, 0.0) + m * p
        states = nxt
        gone = [j for j, w in enumerate(frontier) if last[w] == i]
        if gone:
            frontier = [w for j, w in enumerate(frontier) if j not in gone]
            kept: dict[tuple, float] = {}
            for s, m in states.items():
                t = tuple(x for j, x in enumerate(s) if j not in gone)
                if 0 not in t or (seen_terminal and 1 not in t):
                    continue
                t = _canonical(t)
                kept[t] = kept.get(t, 0.0) + m
            states = kept
    return banked


def _canonical(state: tuple) -> tuple:
    """Renumber the labels other than 0 and 1 in order of appearance."""
    names = {0: 0, 1: 1}
    return tuple(names.setdefault(x, len(names)) for x in state)


def network_text(net: dict) -> str:
    """Model-file text of a generated network, one component per edge."""
    lines = [f"component {c} {{ availability = {net['env'][c]!r} }}" for _, _, c in net["edges"]]
    lines.append("network {")
    lines.append(f"  source = {net['source']},")
    lines.append(f"  terminal = {net['terminal']},")
    body = [f"  edge({u}, {v}, {c})" for u, v, c in net["edges"]]
    lines.append(",\n".join(body))
    lines.append("}")
    return "\n".join(lines) + "\n"


MESH_GRIDS = ((3, 3), (4, 3), (4, 4), (5, 4))
MESH_SP_EDGES = (50, 70, 90, 110, 130, 150, 175, 200)
# 51 cases a pass; the random nets are most of them, and the slowest
# tenth are grids and large series-parallel nets.
MESH_RANDOM = 39
MESH_RANDOM_MAX_EDGES = 16


def mesh_cases(seed: int) -> list[dict]:
    """Grid ladder, series-parallel nets and small random nets, with each
    case's shape recorded for the per-shape span."""
    rng = random.Random(f"mesh/{seed}")
    cases = []
    for rows, cols in MESH_GRIDS:
        cases.append({"shape": "grid", "name": f"grid{rows}x{cols}",
                      "net": grid_network(rng, rows, cols, 0.6, 0.99)})
    for n in MESH_SP_EDGES:
        cases.append({"shape": "sp", "name": f"sp{n}", "net": sp_network(rng, n)})
    for i in range(MESH_RANDOM):
        # Sizes are fixed by position, so every seed costs about the same.
        n_nodes = 2 + i % 5
        n_edges = min(MESH_RANDOM_MAX_EDGES, n_nodes - 1 + 2 * (i // 5))
        cases.append({"shape": "random", "name": f"random{i}",
                      "net": random_network(rng, n_nodes, n_edges)})
    return cases


# -- crosscheck ---------------------------------------------------------

CROSS_ENUM_TREES = (10, 11, 12, 12, 13, 13, 14, 14)
CROSS_ENUM_NET_EDGES = (10, 12, 13, 14)
# 16 cases a pass. Monte Carlo's large numpy arrays follow the host's
# speed less closely than the calibration does, so its cases are few.
CROSS_MC_BRIDGES = 3
CROSS_MC_GRIDS = 1
CROSS_MC_SAMPLES = 100_000
_CROSS_WEIGHTS = {"series": 0.3, "parallel": 0.35, "kofn": 0.2, "bridge": 0.15}


def crosscheck_cases(seed: int) -> list[dict]:
    """Oracle cross-checks: enumeration on small trees and nets, Monte
    Carlo on bridge trees and a 4x4 grid. Each case keeps the bench's
    reference for the closed form."""
    rng = random.Random(f"crosscheck/{seed}")
    cases = []
    for i, n in enumerate(CROSS_ENUM_TREES):
        ids = [f"c{i}" for i in range(n)]
        tree = map_leaves(random_tree(rng, n, 4, _CROSS_WEIGHTS), ids)
        env = {cid: rng.uniform(0.05, 0.999) for cid in ids}
        cases.append({"mode": "enum", "kind": "tree", "name": f"tree{i}_{n}", "tree": tree,
                      "env": env, "reference": ref_tree(tree, env), "work": {"oracle.enum": 1 << n}})
    for n in CROSS_ENUM_NET_EDGES:
        net = random_network(rng, 6, n)
        cases.append({"mode": "enum", "kind": "net", "name": f"net{n}", "net": net,
                      "reference": ref_network(net), "work": {"oracle.enum": 1 << n}})
    for i in range(CROSS_MC_BRIDGES):
        ids = [f"b{j}" for j in range(5 * (1 + i % 3))]
        kids = []
        for j in range(5):
            group = ids[j::5]
            kids.append(("leaf", group[0]) if len(group) == 1
                        else ("parallel", [("leaf", g) for g in group]))
        tree = ("bridge", kids)
        env = {cid: rng.uniform(0.5, 0.9) for cid in ids}
        cases.append({"mode": "mc", "kind": "tree", "name": f"bridge{i}", "tree": tree,
                      "env": env, "reference": ref_tree(tree, env),
                      "samples": CROSS_MC_SAMPLES, "work": {"oracle.mc": CROSS_MC_SAMPLES}})
    for i in range(CROSS_MC_GRIDS):
        net = grid_network(rng, 4, 4, 0.6, 0.9)
        cases.append({"mode": "mc", "kind": "net", "name": f"grid4x4_{i}", "net": net,
                      "reference": ref_network(net), "samples": CROSS_MC_SAMPLES,
                      "work": {"oracle.mc": CROSS_MC_SAMPLES}})
    return cases


# -- coldstart ----------------------------------------------------------

def coldstart_network(seed: int) -> dict:
    """The small network file the CLI is run on next to the bridge."""
    rng = random.Random(f"coldstart/{seed}")
    return random_network(rng, 6, 9, 0.8, 0.999)
