"""Per-root shortest-path aggregation trees, plus an independent relaxation oracle.

Tree construction is deterministic: the heap Dijkstra breaks distance ties
by node insertion index and the relaxation loop sweeps links in insertion
order, so ties always resolve the same way. Per-root builds are independent
pure computations over the immutable graph.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass, field

from .errors import NotInTree, SingletonTree, UnknownVertex
from .metrics import CLMAT, NODE_MIN, TreeMetrics, total_distance, tree_cost, tree_energy
from .topology import UNDIRECTED


@dataclass
class AggregationTree:
    """Rooted shortest-path tree: parent pointers plus root distances.

    parent maps every spanned non-root node to its parent; dist maps every
    spanned node to its shortest distance from the root. Nodes the root
    cannot reach are simply absent.
    """

    root: str
    parent: dict[str, str]
    dist: dict[str, float]
    _depth: int | None = field(default=None, init=False, repr=False, compare=False)

    def __contains__(self, v: str) -> bool:
        return v in self.dist

    def nodes(self) -> list[str]:
        return list(self.dist)

    def edges(self) -> list[tuple[str, str]]:
        """Tree links as (parent, child), in spanned-node order."""
        return [(self.parent[v], v) for v in self.dist if v != self.root]

    def children_counts(self) -> Counter:
        return Counter(self.parent.values())

    def path_to_root(self, v: str):
        """Yield v, then each ancestor up to and including the root."""
        if v not in self.dist:
            raise NotInTree(f"not a tree node: {v}")
        steps = 0
        while True:
            yield v
            if v == self.root:
                return
            v = self.parent[v]
            steps += 1
            if steps > len(self.dist):
                raise ValueError("parent map contains a cycle")

    @property
    def depth(self) -> int:
        """Longest root-to-node hop count; 0 for a singleton.

        Computed on first access in O(n), each node's hop count derived
        from its parent's, then kept: the tree is immutable once built.
        """
        if self._depth is None:
            hops = {self.root: 0}
            for v in self.dist:
                path = []
                while v not in hops:
                    path.append(v)
                    if len(path) > len(self.dist):
                        raise ValueError("parent map contains a cycle")
                    v = self.parent[v]
                h = hops[v]
                for u in reversed(path):
                    h += 1
                    hops[u] = h
            self._depth = max(hops.values())
        return self._depth


def shortest_path_tree(graph, root: str) -> AggregationTree:
    """Single-source shortest paths from root, with parent pointers.

    Heap Dijkstra over neighbors(), O((n + E) log n). Heap entries are keyed
    (distance, insertion index) and stale entries are skipped, so nodes are
    finalized in the order of a minimum-distance scan whose ties go to the
    lowest index. A parent is recorded only on strict improvement, so the
    first-found parent survives equal-distance alternatives. dist lists
    the reached nodes in insertion order.
    """
    ri = graph.get_index(root)
    if ri == -1:
        raise UnknownVertex(f"unknown vertex: {root}")
    best = {root: 0.0}
    parent: dict[str, str] = {}
    heap = [(0.0, ri, root)]
    while heap:
        d, _, v = heapq.heappop(heap)
        if d > best[v]:
            continue  # stale: v was pushed again at a shorter distance
        # distances are positive, so no finalized node can strictly improve
        for w, step in graph.neighbors(v).items():
            through = d + step
            if through < best.get(w, math.inf):
                best[w] = through
                parent[w] = v
                heapq.heappush(heap, (through, graph.get_index(w), w))
    dist = {name: best[name] for name in graph.node_ids() if name in best}
    return AggregationTree(root=root, parent=parent, dist=dist)


def oracle_shortest_paths(graph, root: str) -> dict[str, float]:
    """Shortest distances by edge relaxation iterated to a fixpoint.

    Deliberately shares no structure with shortest_path_tree: it sweeps the
    stored link list instead of scanning the matrix. Unreachable nodes keep
    +inf (the tree builder drops them instead).
    """
    if graph.get_index(root) == -1:
        raise UnknownVertex(f"unknown vertex: {root}")
    dist = {name: (0.0 if name == root else math.inf) for name in graph.node_ids()}
    arcs = []
    for link in graph.links:
        arcs.append((link.u, link.v, link.distance))
        if graph.mode == UNDIRECTED:
            arcs.append((link.v, link.u, link.distance))
    for _ in range(len(dist)):
        changed = False
        for u, v, d in arcs:
            through = dist[u] + d
            if through < dist[v]:
                dist[v] = through
                changed = True
        if not changed:
            break
    return dist


@dataclass(frozen=True)
class Candidate:
    """One candidate aggregator: its tree, its metric triple, whether it spans."""

    root: str
    tree: AggregationTree
    metrics: TreeMetrics
    spanning: bool


def build_all_candidates(graph, cost_variant: str = CLMAT,
                         energy_variant: str = NODE_MIN,
                         tx_energy=None) -> list[Candidate]:
    """Score the shortest-path tree rooted at every node, in insertion order.

    Entries whose tree fails to reach every node are flagged non-spanning;
    their metrics still describe the partial tree.
    """
    candidates = []
    for node in graph.nodes:
        tree = shortest_path_tree(graph, node.id)
        spanning = len(tree.dist) == len(graph)
        try:
            energy = tree_energy(tree, graph, energy_variant)
        except SingletonTree:
            energy = None
        cost = tree_cost(tree, graph, cost_variant, energy_variant, tx_energy)
        metrics = TreeMetrics(energy, cost, total_distance(tree))
        candidates.append(Candidate(node.id, tree, metrics, spanning))
    return candidates
