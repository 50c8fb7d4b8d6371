"""Per-root shortest-path aggregation trees, plus an independent relaxation oracle.

A root's tree is the ShortestPaths that shortest_path_search returns from
the root's insertion index: parents and distances in lists by index, and
the depth; no other tree record is built. The search is deterministic:
the heap Dijkstra runs on insertion indices, over list-held distances,
parents and hop counts, and breaks distance ties by the lowest index; the
relaxation loop sweeps links in insertion order, so ties always resolve
the same way. The Dijkstra also yields each tree's depth in the same
pass, and can skip the nodes an alive mask excludes instead of searching
a copy without them. build_all_candidates scores every root's tree by
one energy (the least non-root energy), one cost (the residual cost under
a radio model, see metrics) and its total distance. Per-root searches are
independent pure computations over the immutable graph, so
build_all_candidates splits a large graph's roots into contiguous chunks
and scores all but the first in forked workers, one per usable CPU, which
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
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import NamedTuple

from .metrics import RadioModel


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


def oracle_shortest_paths(graph, root: str) -> dict[str, float]:
    """Shortest distances by edge relaxation iterated to a fixpoint.

    Deliberately shares no structure with shortest_path_search: it sweeps
    the stored link list, both directions of each link, until no distance
    improves, using neither the adjacency nor a heap. Unreachable nodes keep
    +inf, as in the search's best list.
    """
    graph.node(root)  # UnknownVertex unless root is a vertex
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
    """One scored root: the output fields of its tree, in output order.

    energy is None for a single-node tree, where the bottleneck battery is
    undefined; cost may be +inf. Only scores are kept, not the tree: the
    tree of any root is shortest_path_search(graph, graph.get_index(root)).
    """

    root: str
    energy: float | None
    cost: float
    distance: float
    depth: int
    spanning: bool


def _fold(row: list[float], indices=None) -> float:
    """Plain left-to-right float sum of row, or of row over indices: a total distance.

    sum() compensates from Python 3.12, so it would not repeat this plain
    fold bit for bit; reduce(add) does. A root's own row entry is 0.0, and
    adding 0.0 to a nonnegative sum leaves its bits as they are, so a fold
    over the root's index too equals the fold over the non-root nodes.
    """
    return reduce(add, row if indices is None else map(row.__getitem__, indices), 0.0)


def build_all_candidates(graph, tx_energy=None) -> list[Candidate]:
    """Each root's Candidate, in insertion order, scored on every usable CPU.

    One search per root and no tree record. Every score is read straight
    off the search's lists and equals, bit for bit, the score that the
    tests' reference scorers define by a walk over the tree:
    - total distance: _fold of the reached distances in index order, the
      left fold of the tree's distances over its non-root nodes, in the
      tree's order.
    - energy: the energy of the first node, in ascending energy order,
      that the search reached, the root skipped: the least such energy. A
      single-node tree has none.
    - cost: the residual cost, a left fold over the (parent, child) links
      in child index order of tx/E_parent + tx/E_child, where tx is
      tx_energy of the link's distance; 0 for a single-node tree, and +inf
      only where a transmission overflows. tx_energy defaults to the
      default RadioModel's.
    Entries whose tree fails to reach every node are flagged non-spanning;
    their scores still describe the partial tree.

    Large graphs are scored in contiguous chunks of roots, one per usable
    CPU, in forked workers (see _in_chunks); the candidates, their order
    and every float are the same as a serial run's.
    """
    if tx_energy is None:
        tx_energy = RadioModel().tx_energy
    n = len(graph)
    energies = [node.energy for node in graph.nodes]
    by_energy = sorted(range(n), key=energies.__getitem__)
    terms = _cost_terms(graph, energies, tx_energy)  # before any fork, so the workers share it
    inf = math.inf
    bounds = _chunk_bounds(n, n * (n + 2 * len(graph.links)))
    if len(bounds) > 2:
        graph._neighbour_lists()  # built before the forks, so the workers share them

    def score(lo: int, hi: int) -> list[tuple]:
        """The Candidate fields after root of the roots with index lo..hi-1."""
        rows = []
        for i in range(lo, hi):
            paths = shortest_path_search(graph, i)
            spanning = paths.reached == n
            best = paths.best if spanning else [d for d in paths.best if d < inf]
            energy = None
            if paths.reached > 1:
                energy = next(energies[w] for w in by_energy if paths.best[w] < inf and w != i)
            cost = reduce(add, map(dict.__getitem__, terms, paths.parent), 0.0)
            rows.append((energy, cost, _fold(best), paths.depth, spanning))
        return rows

    ids = graph.node_ids()
    return [Candidate(ids[i], *row) for i, row in enumerate(_in_chunks(score, bounds))]


def _cost_terms(graph, energies: list[float], tx_energy) -> list[dict[int, float]]:
    """Each node's residual-cost term as a child, by its parent's index; -1 maps to 0.0.

    A link's term is tx/E_parent + tx/E_child, tx being the link's
    per-packet transmission energy; float addition commutes, so both
    directions of a link share one term, priced once. add_vertex keeps
    every energy positive, so no term divides by zero. The -1 entry lets a
    fold over a search's parent list add 0.0 for the root and every
    unreached node, which leaves a nonnegative sum's bits as they are.
    """
    terms = [{-1: 0.0} for _ in energies]
    for w, row in enumerate(graph._adj):
        for p, link in row.items():
            if p < w:
                tx = tx_energy(link.distance)
                terms[w][p] = terms[p][w] = tx / energies[p] + tx / energies[w]
    return terms


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


def _in_chunks(score, bounds: list[int]) -> list:
    """score(lo, hi) over each chunk lo..hi of bounds, rows in index order.

    The parent forks one worker for each chunk after the first, scores the
    first chunk itself, then reads each worker's rows, in chunk order, from
    a pipe as marshal bytes, which keep every float exactly, inf included.
    A worker scores its chunk, writes and leaves through os._exit, so it
    never returns into the caller. The parent scores a chunk itself when
    its pipe or fork fails, or its worker exits non-zero or sends a short
    payload. Every worker is reaped before this returns; if this raises,
    the workers left are killed and reaped first.
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
            rows += score(lo, hi) if chunk is None else chunk
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
