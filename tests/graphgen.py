"""Seeded fixtures shared across the test modules."""

import math
import random

from clmat.errors import NoSpanningCandidate
from clmat.metrics import TreeMetrics
from clmat.selection import select_aggregator
from clmat.simulator import LifetimeResult, RoundReport, SimState, round_costs
from clmat.topology import NetworkGraph, random_topology
from clmat.trees import AggregationTree, Candidate, oracle_shortest_paths, shortest_path_tree


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
    return AggregationTree(root=root, parent=parent, dist=dist,
                           depth=depth_by_walk(root, parent, dist))


def depth_by_walk(root: str, parent: dict[str, str], dist: dict[str, float]) -> int:
    """Reference depth: the longest walk up the parent chain from a spanned node to root."""
    worst = 0
    for v in dist:
        hops = 0
        while v != root:
            v = parent[v]
            hops += 1
        worst = max(worst, hops)
    return worst


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
    return AggregationTree(root=root, parent=parent, dist=dist, depth=depth)


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


def _reference_chooser(policy, config, rng):
    """Per-round tree choosers over a view that carries residual energies."""
    if policy == "clmat":
        def choose(view):
            return select_aggregator(view, tie_rule=config.tie_rule,
                                     tx_energy=config.radio.tx_energy).tree
        return choose
    if policy.startswith("fixed:"):
        root = policy.split(":", 1)[1]

        def choose(view):
            if view.get_index(root) == -1:
                raise NoSpanningCandidate(f"fixed root {root} is not in the alive network")
            tree = shortest_path_tree(view, root)
            if len(tree.dist) != len(view):
                raise NoSpanningCandidate(f"fixed root {root} no longer spans the network")
            return tree
        return choose
    if policy == "max-energy":
        def choose(view):
            best = None
            for node in view.nodes:
                tree = shortest_path_tree(view, node.id)
                if len(tree.dist) != len(view):
                    continue
                if best is None or node.energy > best[0]:
                    best = (node.energy, tree)
            if best is None:
                raise NoSpanningCandidate("no spanning root available")
            return best[1]
        return choose
    if policy == "random":
        def choose(view):
            spanning = []
            for node in view.nodes:
                tree = shortest_path_tree(view, node.id)
                if len(tree.dist) == len(view):
                    spanning.append(tree)
            if not spanning:
                raise NoSpanningCandidate("no spanning root available")
            return rng.choice(spanning)
        return choose
    raise ValueError(f"unknown policy {policy!r}")


def reference_run_lifetime(graph, config, policy="clmat",
                           stop_at_first_death=True) -> LifetimeResult:
    """Reference simulator: the whole selection redone from scratch at every reselection.

    Every reselection (round 1, each death, and every reselect_every rounds
    for every policy) copies the alive subgraph with residuals as node
    energies and runs the full scored selection on it. Each round charges
    every tree node and then scans every alive node for a residual of <= 0,
    without the simulator's drain_round. run_lifetime must agree with it on
    every output and every exception.
    """
    config.validate()
    if not graph.nodes:
        raise NoSpanningCandidate("empty graph")
    choose = _reference_chooser(policy, config, random.Random(config.seed))
    state = SimState(initial={n.id: n.energy for n in graph.nodes},
                     drained_cum={n.id: 0.0 for n in graph.nodes},
                     alive=[n.id for n in graph.nodes])
    reports = []
    first_death = None
    delivered = 0
    partitioned = False
    need_select = True
    for r in range(1, config.max_rounds + 1):
        if need_select or (r - 1) % config.reselect_every == 0:
            view = graph.restricted(state.alive, {v: state.residual(v) for v in state.alive})
            try:
                state.current_tree = choose(view)
            except NoSpanningCandidate:
                if r == 1:
                    raise
                partitioned = True
                break
            need_select = False
        # costs recomputed from the tree every round, independent of any cache
        costs = round_costs(state.current_tree, config.radio, graph)
        total = 0.0
        for v, cost in costs.items():
            state.drained_cum[v] += cost
            total += cost
        deaths = [v for v in state.alive if state.residual(v) <= 0]
        state.alive = [v for v in state.alive if v not in deaths]
        report = RoundReport(r, state.current_tree.root, dict(costs), total,
                             len(state.alive), deaths)
        reports.append(report)
        delivered += len(state.current_tree.dist)
        if report.deaths:
            if first_death is None:
                first_death = r
            need_select = True
            if stop_at_first_death:
                break
    lifetime = first_death if first_death is not None else config.max_rounds
    final = {v: state.residual(v) for v in state.initial}
    return LifetimeResult(lifetime, reports, first_death, delivered, partitioned, final)
