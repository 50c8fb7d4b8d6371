"""Seeded fixtures shared across the test modules."""

import math
import random

from clmat.metrics import TreeMetrics
from clmat.topology import NetworkGraph, random_topology
from clmat.trees import AggregationTree, Candidate, oracle_shortest_paths


def f4() -> NetworkGraph:
    """Four-node fixture with one distance tie between roots B and C."""
    g = NetworkGraph()
    for name, energy in [("A", 5.0), ("B", 4.0), ("C", 3.0), ("D", 6.0)]:
        g.add_vertex(name, energy)
    for u, v, d in [("A", "B", 2.0), ("B", "C", 1.0), ("A", "C", 4.0),
                    ("C", "D", 2.0), ("B", "D", 5.0)]:
        g.add_edge(u, v, d)
    return g


def two_node(e_first=3.0, e_second=5.0, d=4.0) -> NetworkGraph:
    g = NetworkGraph()
    g.add_vertex("a", e_first)
    g.add_vertex("b", e_second)
    g.add_edge("a", "b", d)
    return g


def random_connected_graph(rng: random.Random, n=None, weight_lo=1, weight_hi=20,
                           energy_lo=1.0, energy_hi=10.0, extra_edge_prob=0.3) -> NetworkGraph:
    """Random spanning tree plus extra edges; integer weights keep float sums exact."""
    if n is None:
        n = rng.randint(2, 10)
    g = NetworkGraph()
    names = [f"n{i}" for i in range(n)]
    for name in names:
        g.add_vertex(name, rng.uniform(energy_lo, energy_hi))
    for i in range(1, n):
        g.add_edge(names[rng.randrange(i)], names[i],
                   float(rng.randint(weight_lo, weight_hi)))
    for i in range(n):
        for j in range(i + 1, n):
            if math.isinf(g.distance(names[i], names[j])) and rng.random() < extra_edge_prob:
                g.add_edge(names[i], names[j], float(rng.randint(weight_lo, weight_hi)))
    return g


def scan_shortest_path_tree(graph, root: str) -> AggregationTree:
    """Reference tree builder: the quadratic minimum-distance scan.

    Repeatedly finalize the unfinalized node of minimum tentative distance,
    walking indices in insertion order so the lowest index wins ties. A
    parent is recorded only on strict improvement, so the first-found
    parent survives equal-distance alternatives. shortest_path_tree must
    agree with it on parents, distances (in key order) and depth.
    """
    ids = graph.node_ids()
    n = len(ids)
    ri = graph.get_index(root)
    tentative = [graph.distance(root, name) for name in ids]
    parent = {}
    for j, name in enumerate(ids):
        if j != ri and math.isfinite(tentative[j]):
            parent[name] = root
    final = [False] * n
    final[ri] = True
    for _ in range(n - 1):
        v = -1
        for j in range(n):
            if not final[j] and (v == -1 or tentative[j] < tentative[v]):
                v = j
        if v == -1 or not math.isfinite(tentative[v]):
            break
        final[v] = True
        for w in range(n):
            if final[w]:
                continue
            step = graph.distance(ids[v], ids[w])
            if math.isfinite(step) and tentative[v] + step < tentative[w]:
                tentative[w] = tentative[v] + step
                parent[ids[w]] = ids[v]
    dist = {ids[j]: tentative[j] for j in range(n) if math.isfinite(tentative[j])}
    return AggregationTree(root=root, parent=parent, dist=dist)


def chain_tree(root: str, depth: int) -> AggregationTree:
    """Synthetic chain of `depth` hops hanging under `root` (unit distances)."""
    parent = {}
    dist = {root: 0.0}
    prev = root
    for k in range(1, depth + 1):
        name = f"{root}x{k}"
        parent[name] = prev
        dist[name] = float(k)
        prev = name
    return AggregationTree(root=root, parent=parent, dist=dist)


# The eight-candidate selection fixture: (root, cost, total distance), all at
# 3 J tree energy. Tree depths are injectable because only the G/H tie needs
# depth data at all.
EIGHT_ROWS = [
    ("A", 22.056, 25.0),
    ("B", 21.978, 27.0),
    ("C", 22.278, 20.0),
    ("D", 22.378, 20.0),
    ("E", 23.978, 39.0),
    ("F", 24.878, 25.0),
    ("G", 22.378, 16.0),
    ("H", 22.378, 16.0),
]


def eight_candidates(g_depth=2, h_depth=2) -> list[Candidate]:
    out = []
    for root, cost, distance in EIGHT_ROWS:
        depth = {"G": g_depth, "H": h_depth}.get(root, 2)
        tree = chain_tree(root, depth)
        out.append(Candidate(root, tree, TreeMetrics(3.0, cost, distance), True))
    return out


def spanning_topologies(count, n=20, side=100.0, radio_range=45.0,
                        energy_lo=2.0, energy_hi=5.0, start_seed=0) -> list[NetworkGraph]:
    """First `count` seeds whose random geometric topology is connected."""
    found = []
    seed = start_seed
    while len(found) < count:
        g = random_topology(n, side, radio_range, energy_lo, energy_hi, seed)
        dist = oracle_shortest_paths(g, g.nodes[0].id)
        if all(math.isfinite(d) for d in dist.values()):
            found.append(g)
        seed += 1
    return found
