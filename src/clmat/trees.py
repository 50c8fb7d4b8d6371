"""Per-root shortest-path aggregation trees, plus an independent relaxation oracle.

Tree construction is deterministic: the heap Dijkstra runs on insertion
indices, over list-held distances, parents and hop counts, and breaks
distance ties by the lowest index; the relaxation loop sweeps links in
insertion order, so ties always resolve the same way. The Dijkstra also
yields each tree's depth in the same pass, and can skip the nodes an
alive mask excludes instead of searching a copy without them. Per-root
builds are independent pure computations over the immutable graph.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .errors import SingletonTree, UnknownVertex
from .metrics import (
    CLMAT,
    NODE_MIN,
    TreeMetrics,
    spanning_tree_energies,
    total_distance,
    tree_cost,
    tree_energy,
)


@dataclass(frozen=True)
class AggregationTree:
    """Rooted shortest-path tree: parent pointers, root distances and depth.

    parent maps every spanned non-root node to its parent; dist maps every
    spanned node to its shortest distance from the root. Nodes the root
    cannot reach are simply absent. depth is the longest root-to-node hop
    count, 0 for a singleton; shortest_path_tree finds it during its search.
    """

    root: str
    parent: dict[str, str]
    dist: dict[str, float]
    depth: int

    def edges(self) -> list[tuple[str, str]]:
        """Tree links as (parent, child), in spanned-node order."""
        return [(self.parent[v], v) for v in self.dist if v != self.root]

    def children_counts(self) -> Counter:
        return Counter(self.parent.values())


class ShortestPaths(NamedTuple):
    """One heap Dijkstra's lists, by insertion index, plus its depth and reach.

    best holds each node's root distance: +inf where the search did not
    reach, -inf where the alive mask excluded the node. parent holds each
    reached non-root node's parent index and -1 elsewhere. reached counts
    the nodes the search settled, the root included.
    """

    best: list[float]
    parent: list[int]
    depth: int
    reached: int


def shortest_path_search(graph, ri: int, alive=None) -> ShortestPaths:
    """Heap Dijkstra from insertion index ri over the graph's index-keyed adjacency.

    O((n + E) log n), with best distance, parent and hop count held in
    lists by insertion index. Heap entries are (distance, index) and stale
    entries are skipped, so nodes are finalized in the order of a
    minimum-distance scan whose ties go to the lowest index. A parent is
    recorded only on strict improvement, so the first-found parent survives
    equal-distance alternatives. A node's hop count is set with its parent
    and is final when the node is popped, so the depth, the largest popped
    hop count, is known when the search ends.

    alive, when given, is a mask by insertion index (a bytearray, say)
    whose zero entries the search treats as absent; ri must be alive. Their
    distances start at -inf, so the strict-improvement test already
    rejects every link into them and the search does no extra work per
    link. Rows are visited in the order graph.restricted keeps them, and
    restricted keeps the index order, so the masked search answers exactly
    as a search on the restricted copy would.
    """
    adj = graph._adj
    n = len(adj)
    if alive is None:
        best = [math.inf] * n
    else:
        best = [math.inf if a else -math.inf for a in alive]
    parent = [-1] * n
    hop = [0] * n
    best[ri] = 0.0
    depth = 0
    reached = 0
    heap = [(0.0, ri)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > best[v]:
            continue  # stale: v was pushed again at a shorter distance
        reached += 1
        h = hop[v]
        if h > depth:
            depth = h
        h += 1
        # distances are positive, so no finalized node can strictly improve
        for w, step in adj[v].items():
            through = d + step
            if through < best[w]:
                best[w] = through
                parent[w] = v
                hop[w] = h
                heapq.heappush(heap, (through, w))
    return ShortestPaths(best, parent, depth, reached)


def search_tree(graph, root: str, paths: ShortestPaths) -> AggregationTree:
    """The AggregationTree of a shortest_path_search rooted at root.

    dist and parent list the reached nodes in insertion order.
    """
    ids = graph.node_ids()
    inf = math.inf
    return AggregationTree(
        root=root,
        parent={ids[w]: ids[p] for w, p in enumerate(paths.parent) if p != -1},
        dist={ids[w]: d for w, d in enumerate(paths.best) if -inf < d < inf},
        depth=paths.depth,
    )


def shortest_path_tree(graph, root: str) -> AggregationTree:
    """Single-source shortest paths from root, with parent pointers and depth.

    shortest_path_search from root's index, as an AggregationTree whose dist
    and parent list the reached nodes in insertion order.
    """
    ri = graph.get_index(root)
    if ri == -1:
        raise UnknownVertex(f"unknown vertex: {root}")
    return search_tree(graph, root, shortest_path_search(graph, ri))


def oracle_shortest_paths(graph, root: str) -> dict[str, float]:
    """Shortest distances by edge relaxation iterated to a fixpoint.

    Deliberately shares no structure with shortest_path_tree: it sweeps the
    stored link list, both directions of each link, until no distance
    improves, using neither the adjacency nor a heap. Unreachable nodes keep
    +inf (the tree builder drops them instead).
    """
    if graph.get_index(root) == -1:
        raise UnknownVertex(f"unknown vertex: {root}")
    dist = {name: (0.0 if name == root else math.inf) for name in graph.node_ids()}
    arcs = []
    for link in graph.links:
        arcs.append((link.u, link.v, link.distance))
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
    their metrics still describe the partial tree. A spanning tree's energy
    is read from the node table, in closed form.
    """
    spanning_energies = spanning_tree_energies(graph, energy_variant) if len(graph) > 1 else []
    candidates = []
    for i, node in enumerate(graph.nodes):
        tree = shortest_path_tree(graph, node.id)
        spanning = len(tree.dist) == len(graph)
        if spanning and spanning_energies:
            energy = spanning_energies[i]
        else:
            try:
                energy = tree_energy(tree, graph, energy_variant)
            except SingletonTree:
                energy = None
        cost = tree_cost(tree, graph, cost_variant, tx_energy=tx_energy)
        metrics = TreeMetrics(energy, cost, total_distance(tree))
        candidates.append(Candidate(node.id, tree, metrics, spanning))
    return candidates
