"""Per-root shortest-path aggregation trees, plus an independent relaxation oracle.

Tree construction is deterministic: the heap Dijkstra runs on insertion
indices, over list-held distances, parents and hop counts, and breaks
distance ties by the lowest index; the relaxation loop sweeps links in
insertion order, so ties always resolve the same way. The Dijkstra also
yields each tree's depth in the same pass, and can skip the nodes an
alive mask excludes instead of searching a copy without them. Per-root
builds are independent pure computations over the immutable graph, so
scored_roots splits a large graph's roots into contiguous chunks and
scores all but the first in forked workers, one per usable CPU, which
send their scores back exactly; a process without fork, with a second
thread, or with one usable CPU scores every root itself, with the same
result.
"""

from __future__ import annotations

import heapq
import marshal
import math
import os
import signal
import threading
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import NamedTuple

from .errors import UnknownVertex
from .metrics import (
    CLMAT,
    COST_VARIANTS,
    EDGE_MIN,
    ENERGY_VARIANTS,
    NODE_MIN,
    TreeMetrics,
    residual_edge_cost,
    spanning_tree_energies,
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
    """Heap Dijkstra from insertion index ri over the graph's neighbour lists.

    O((n + E) log n), with best distance, parent and hop count held in
    lists by insertion index. Each node's links are relaxed from the
    graph's stored (neighbour, distance) list of its adjacency row, in the
    row's order. Heap entries are (distance, index) and stale
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
    link. Rows are visited in index order, the order a copy of the graph
    built through add_vertex and add_edge from only the alive nodes keeps
    them, so the masked search answers exactly as a search on such a copy
    would.
    """
    lists = graph._neighbour_lists()
    n = len(lists)
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
    heappop, heappush = heapq.heappop, heapq.heappush
    while heap:
        d, v = heappop(heap)
        if d > best[v]:
            continue  # stale: v was pushed again at a shorter distance
        reached += 1
        h = hop[v]
        if h > depth:
            depth = h
        h += 1
        # distances are positive, so no finalized node can strictly improve
        for w, step in lists[v]:
            through = d + step
            if through < best[w]:
                best[w] = through
                parent[w] = v
                hop[w] = h
                heappush(heap, (through, w))
    return ShortestPaths(best, parent, depth, reached)


def search_tree(ids: list[str], root: str, paths: ShortestPaths) -> AggregationTree:
    """The AggregationTree of a shortest_path_search rooted at root.

    ids is the searched graph's node_ids(); dist and parent list the
    reached nodes in insertion order.
    """
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
    return search_tree(graph.node_ids(), root, shortest_path_search(graph, ri))


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
    """One candidate aggregator: its tree's depth, its metric triple, whether it spans.

    Only scores are kept, not the tree: the tree of any root is
    shortest_path_tree(graph, root), and select_aggregator builds the
    chosen root's.
    """

    root: str
    depth: int
    metrics: TreeMetrics
    spanning: bool


def scored_roots(graph, cost_variant: str = CLMAT, energy_variant: str = NODE_MIN,
                 tx_energy=None, keep=None) -> list[Candidate]:
    """Each root's Candidate, in insertion order, scored on every usable CPU.

    One search per root. Every score is read straight off the search's
    lists and equals, bit for bit, the score defined by a walk over
    search_tree of that search:
    - total distance: the plain left fold of the reached distances in
      index order. The root's 0.0 leaves a nonnegative sum unchanged, so
      this is the left fold of the tree's distances over the non-root
      nodes, in the tree's order.
    - energy: a spanning tree's is read from the node table in closed
      form; a partial tree's is the least energy of its reached nodes, the
      root excluded under node-min; a single-node tree has none.
    - cost: 0 for a single-node tree, +inf under clmat for any other, and
      under residual the sum over (parent, child) links in child index
      order, the order of AggregationTree.edges().
    Entries whose tree fails to reach every node are flagged non-spanning;
    their metrics still describe the partial tree.

    Large graphs are scored in contiguous chunks of roots, one per usable
    CPU, in forked workers (see _in_chunks); the candidates, their order
    and every float are the same as a serial run's. keep, when given, is
    called as keep(index, search, total_distance) for each spanning root
    scored in this process, so a caller can hold on to the one search it
    needs; roots scored in a worker are not passed to it.
    """
    if energy_variant not in ENERGY_VARIANTS:
        raise ValueError(f"unknown energy variant {energy_variant!r}")
    if cost_variant not in COST_VARIANTS:
        raise ValueError(f"unknown cost variant {cost_variant!r}")
    n = len(graph)
    spanning_energies = spanning_tree_energies(graph, energy_variant) if n > 1 else []
    energies = [node.energy for node in graph.nodes]
    adj = graph._adj
    inf = math.inf
    bounds = _chunk_bounds(n, n * (n + 2 * len(graph.links)))
    if len(bounds) > 2:
        graph._neighbour_lists()  # built before the forks, so the workers share them

    def score(lo: int, hi: int, keep=None) -> list[tuple]:
        """(depth, total, energy, cost, spanning) of the roots with index lo..hi-1."""
        rows = []
        for i in range(lo, hi):
            paths = shortest_path_search(graph, i)
            spanning = paths.reached == n
            best = paths.best if spanning else [d for d in paths.best if d < inf]
            total = reduce(add, best, 0.0)
            if paths.reached == 1:
                energy, cost = None, 0.0
            else:
                energy = spanning_energies[i] if spanning else min(
                    e for w, e in enumerate(energies)
                    if paths.best[w] < inf and (energy_variant == EDGE_MIN or w != i))
                cost = inf if cost_variant == CLMAT else _residual_cost(paths, adj, energies, tx_energy)
            if spanning and keep is not None:
                keep(i, paths, total)
            rows.append((paths.depth, total, energy, cost, spanning))
        return rows

    ids = graph.node_ids()
    return [Candidate(ids[i], depth, TreeMetrics(energy, cost, total), spanning)
            for i, (depth, total, energy, cost, spanning)
            in enumerate(_in_chunks(score, bounds, keep))]


def _residual_cost(paths: ShortestPaths, adj, energies: list[float], tx_energy) -> float:
    """The residual cost of a search's tree: residual_edge_cost summed over its links."""
    if tx_energy is None:
        raise ValueError("the residual cost variant needs a tx_energy(distance) callable")
    total = 0.0
    for w, p in enumerate(paths.parent):
        if p != -1:
            tx = tx_energy(adj[p][w])
            total += residual_edge_cost(tx, tx, energies[p], energies[w])
    return total


def build_all_candidates(graph, cost_variant: str = CLMAT,
                         energy_variant: str = NODE_MIN,
                         tx_energy=None) -> list[Candidate]:
    """Score the shortest-path tree rooted at every node, in insertion order.

    One search per root and no AggregationTree: see scored_roots.
    """
    return scored_roots(graph, cost_variant, energy_variant, tx_energy)


# Least search work worth one chunk, in roots x (roots + 2 x links) units,
# about what one root's search touches. A unit costs 90-170 ns of search
# on one x86-64 core (CPython 3.11); a fork, pipe and reap round trip costs
# 1.5-2.5 ms there, and the fork call alone 0.3 ms of the parent's time. A
# chunk of 50,000 units is 5-8 ms of searching, a few times that round
# trip, so a graph is split only when it is worth at least two chunks.
_CHUNK_WORK = 50_000


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS keeps one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunk_bounds(count: int, work: int) -> list[int]:
    """Bounds of the contiguous chunks to score count roots in; one chunk runs serially.

    One chunk per usable CPU at most and per _CHUNK_WORK units of work,
    and one chunk where there is no fork or where another thread runs,
    since a forked child gets only the forking thread and any lock another
    thread held.
    """
    chunks = 1
    if hasattr(os, "fork") and threading.active_count() == 1:
        chunks = max(1, min(_usable_cpus(), count, work // _CHUNK_WORK))
    return [count * k // chunks for k in range(chunks + 1)]


def _in_chunks(score, bounds: list[int], keep) -> list:
    """score(lo, hi, keep) over each chunk lo..hi of bounds, rows in index order.

    The parent forks one worker for each chunk after the first, scores the
    first chunk itself, then reads each worker's rows, in chunk order, from
    a pipe as marshal bytes, which keep every float exactly, inf included.
    A worker scores its chunk with no keep, writes and leaves through
    os._exit, so it never returns into the caller. The parent scores a
    chunk itself, with keep, when its fork fails, or its worker exits
    non-zero or sends a short payload. Every worker is reaped before this
    returns; if this raises, the workers left are killed and reaped first.
    """
    chunks = len(bounds) - 1
    workers = {}  # chunk -> (pid, read end of its pipe)
    rows = []
    try:
        for k in range(1, chunks):
            worker = _fork_worker(score, bounds[k], bounds[k + 1])
            if worker is None:
                break
            workers[k] = worker
        for k in range(chunks):
            lo, hi = bounds[k], bounds[k + 1]
            chunk = _collect(*workers.pop(k), hi - lo) if k in workers else None
            rows += score(lo, hi, keep) if chunk is None else chunk
    finally:
        for pid, fd in workers.values():  # only when this raises: its answer is lost
            os.kill(pid, signal.SIGKILL)
            os.close(fd)
            os.waitpid(pid, 0)
    return rows


def _fork_worker(score, lo: int, hi: int):
    """(pid, read end) of a forked worker writing score(lo, hi); None if pipe or fork fail."""
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as out:
                out.write(marshal.dumps(score(lo, hi)))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def _collect(pid: int, fd: int, size: int):
    """A worker's rows, read from its pipe to EOF with the worker reaped.

    None unless the worker exited 0 and sent all size rows.
    """
    try:
        with open(fd, "rb") as pipe:
            payload = pipe.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    if status != 0:
        return None
    try:
        rows = marshal.loads(payload)
    except (EOFError, ValueError, TypeError):
        return None
    return rows if len(rows) == size else None
