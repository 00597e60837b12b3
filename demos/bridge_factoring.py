"""The bridge: the smallest structure that series/parallel cannot reach.

Two columns of two components joined by a cross tie. Conditioning on
the tie splits it into two pure series/parallel worlds:

    tie up   -> both columns become parallel pairs in series
    tie down -> two independent two-component paths in parallel

The same structure expressed as a five-edge network exercises the
network engine: reduction cannot shrink it, so a frontier sweep over its
edges computes the same figure without conditioning on any edge.
"""

from availkit import Edge, Network, eval_bridge, eval_network, reduce_network

a = 0.9
print(f"bridge, all components at {a}:")
print(f"  closed form        {float(eval_bridge(a, a, a, a, a))}")

columns = (a + a - a * a) * (a + a - a * a)
paths = 1.0 - (1.0 - a * a) * (1.0 - a * a)
print(f"  tie-up world       {columns}")
print(f"  tie-down world     {paths}")
print(f"  blended by hand    {a * columns + (1 - a) * paths}")

# Now as a network: nodes n1..n4, the tie between n2 and n3.
net = Network(
    edges=(
        Edge("e0", "n1", "n2", "c1"),
        Edge("e1", "n1", "n3", "c2"),
        Edge("e2", "n2", "n3", "c3"),
        Edge("e3", "n2", "n4", "c4"),
        Edge("e4", "n3", "n4", "c5"),
    ),
    source="n1",
    terminal="n4",
)
env = {f"c{i}": a for i in range(1, 6)}
print(f"\n  network sweep      {float(eval_network(net, env))}")

# The reducer alone cannot shrink a bridge — it is the irreducible core
# that the sweep evaluates.
red = reduce_network(net, env)
print(f"  reducer leaves {len(red.network.edges)} edges (irreducible core)")

# Series/parallel graphs collapse completely under reduction alone: a
# diamond of two 2-hop paths reduces to a single synthetic edge.
diamond = Network(
    edges=(
        Edge("e0", "s", "m1", "c1"),
        Edge("e1", "m1", "t", "c2"),
        Edge("e2", "s", "m2", "c3"),
        Edge("e3", "m2", "t", "c4"),
    ),
    source="s",
    terminal="t",
)
red = reduce_network(diamond, {f"c{i}": a for i in range(1, 5)})
[edge] = red.network.edges
print(f"\ndiamond reduces to {edge.id} = {red.synthetic[edge.id]}")
