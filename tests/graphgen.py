"""Seeded fixtures shared across the test modules, and the references they score against.

The references are the name-keyed AggregationTree and its builders
(search_tree, shortest_path_tree, scan_shortest_path_tree), the
tree-walk scorers (tree_energy, tree_cost, total_distance) with the
variant names they read, the per-link costs (clmat_edge_cost,
residual_edge_cost), the pairwise link_distance,
the graph copies (restricted, with_energies), round_costs,
reference_run_lifetime and first_death_bound. The library builds no tree
record: it computes every score and every round's drains in closed form
from a search's lists by insertion index, sums the residual cost's
formula inline, and restricts a graph through an alive mask; these are
the plain definitions the tests hold it to.
"""

import math
import random
from collections import Counter
from dataclasses import dataclass

from clmat.errors import ClmatError, NoSpanningCandidate
from clmat.metrics import RadioModel
from clmat.selection import select_aggregator
from clmat.simulator import LifetimeResult, RoundReport
from clmat.topology import NetworkGraph, random_topology
from clmat.trees import Candidate, ShortestPaths, oracle_shortest_paths, shortest_path_search


@dataclass(frozen=True)
class AggregationTree:
    """Rooted shortest-path tree by node id: parent pointers, root distances and depth.

    parent maps every spanned non-root node to its parent; dist maps every
    spanned node to its shortest distance from the root. Nodes the root
    cannot reach are simply absent. depth is the longest root-to-node hop
    count, 0 for a singleton.
    """

    root: str
    parent: dict[str, str]
    dist: dict[str, float]
    depth: int

    def edges(self) -> list[tuple[str, str]]:
        """Tree links as (parent, child), in spanned-node order."""
        return [(self.parent[v], v) for v in self.dist if v != self.root]


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
    """shortest_path_search from root's index, as an AggregationTree.

    UnknownVertex unless root is a vertex.
    """
    graph.node(root)
    return search_tree(graph.node_ids(), root, shortest_path_search(graph, graph.get_index(root)))


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


def link_distance(graph, u: str, v: str) -> float:
    """Stored link distance between u and v; 0 on the diagonal, +inf for absent pairs."""
    if u == v:
        return 0.0
    i, j = graph.get_index(u), graph.get_index(v)
    link = graph._adj[i].get(j) if i != -1 and j != -1 else None
    return math.inf if link is None else link.distance


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
            if math.isinf(link_distance(g, names[i], names[j])) and rng.random() < extra_edge_prob:
                g.add_edge(names[i], names[j], float(rng.randint(weight_lo, weight_hi)))
    return g


def tie_heavy_graph(rng: random.Random, n: int, isolated: bool) -> NetworkGraph:
    """A random_connected_graph with weights 1-3, so equal-distance paths are common.

    With isolated, one more node is added with no link, so no root spans;
    n=1 without it is a singleton graph.
    """
    g = random_connected_graph(rng, n=n, weight_lo=1, weight_hi=3, extra_edge_prob=0.4)
    if isolated:
        g.add_vertex("isolated", rng.uniform(1.0, 10.0))
    return g


def scan_shortest_path_tree(graph, root: str) -> AggregationTree:
    """Reference tree builder: the quadratic minimum-distance scan.

    Repeatedly finalize the unfinalized node of minimum tentative distance,
    walking indices in insertion order so the lowest index wins ties. A
    parent is recorded only on strict improvement, so the first-found
    parent survives equal-distance alternatives. shortest_path_search must
    agree with it on parents, distances (in key order) and depth.
    """
    ids = graph.node_ids()
    n = len(ids)
    ri = graph.get_index(root)
    tentative = [link_distance(graph, root, name) for name in ids]
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
            step = link_distance(graph, ids[v], ids[w])
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


# The eight-candidate selection fixture: (root, cost, total distance), all at
# 3 J tree energy. Tree depths are injectable because only the G/H tie needs
# depth data at all; every other root's tree is 2 hops deep.
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
        out.append(Candidate(root, 3.0, cost, distance, depth, True))
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


def first_death_bound(graph, radio) -> float:
    """A round that no first death of a connected graph can come at or after.

    Until the first death every node is alive and in the tree, so each of the
    n - 1 non-root nodes transmits at least over its shortest link, and there
    are n - 1 receptions. A round then drains at least
    D = sum_v tx(m_v) - max_v tx(m_v) + (n - 1) * rx, where m_v is v's
    shortest link. The L - 1 rounds before a first death in round L leave
    every residual positive, so (L - 1) * D < sum E, and L < sum E / D + 1.
    inf when n < 2 or D == 0.
    """
    shortest = {}
    for link in graph.links:
        for v in (link.u, link.v):
            shortest[v] = min(shortest.get(v, math.inf), link.distance)
    if len(graph) < 2:
        return math.inf
    tx = [radio.tx_energy(shortest[v]) for v in graph.node_ids()]
    least_drain = sum(tx) - max(tx) + (len(graph) - 1) * radio.rx_cost
    if least_drain == 0:
        return math.inf
    return sum(graph.energy(v) for v in graph.node_ids()) / least_drain + 1


# The scoring variants the references define. The library scores only node-min
# energy and residual cost; edge-min and the clmat headroom cost stay here as
# definitions that the acceptance criteria check.
NODE_MIN = "node-min"
EDGE_MIN = "edge-min"
ENERGY_VARIANTS = (NODE_MIN, EDGE_MIN)

CLMAT = "clmat"
RESIDUAL = "residual"
COST_VARIANTS = (CLMAT, RESIDUAL)


class SingletonTree(ClmatError):
    pass


class UnreachableNode(ClmatError):
    pass


def tree_energy(tree, graph, variant: str = NODE_MIN) -> float:
    """Bottleneck battery of a tree.

    node-min: minimum energy over tree nodes, the root excluded.
    edge-min: minimum over tree edges of the min endpoint energy. Every node
    of a tree with an edge is an endpoint of one, so this is the minimum
    energy over all tree nodes, the root included.
    Both read current node energies.
    """
    if variant not in ENERGY_VARIANTS:
        raise ValueError(f"unknown energy variant {variant!r}")
    if not tree.parent:
        raise SingletonTree(f"{variant} energy is undefined for a single-node tree")
    return min(graph.energy(v) for v in tree.dist if variant == EDGE_MIN or v != tree.root)


def clmat_edge_cost(energy_u: float, energy_v: float, tree_energy: float) -> float:
    """Edge cost as each endpoint's energy over its headroom above the tree bottleneck.

    A node whose energy equals the bottleneck has zero headroom; the cost
    saturates to +inf instead of erroring (reports show "inf", selection is
    unaffected because total distance is the primary key).
    """
    head_u = energy_u - tree_energy
    head_v = energy_v - tree_energy
    if head_u <= 0 or head_v <= 0:
        return math.inf
    return energy_u / head_u + energy_v / head_v


def residual_edge_cost(tx_uv: float, tx_vu: float,
                       residual_u: float, residual_v: float) -> float:
    """Per-packet transmission energy in each direction over the sender's residual energy."""
    return tx_uv / residual_u + tx_vu / residual_v


def tree_cost(tree, graph, variant: str = CLMAT, *, tx_energy=None) -> float:
    """Sum of edge costs over the tree's edges; 0 for a tree with no edges.

    The clmat variant is +inf for every tree with an edge, in closed form:
    under either tree_energy variant the bottleneck is the energy of an
    endpoint of some tree edge, that endpoint has zero headroom, and
    clmat_edge_cost saturates on that edge.

    The residual variant prices each edge with a per-packet transmission
    energy, so it needs tx_energy, a callable taking a link distance.
    """
    if variant not in COST_VARIANTS:
        raise ValueError(f"unknown cost variant {variant!r}")
    if not tree.parent:
        return 0.0
    if variant == CLMAT:
        return math.inf
    if tx_energy is None:
        raise ValueError("the residual cost variant needs a tx_energy(distance) callable")
    total = 0.0
    for u, v in tree.edges():
        tx = tx_energy(link_distance(graph, u, v))
        total += residual_edge_cost(tx, tx, graph.energy(u), graph.energy(v))
    return total


def total_distance(tree) -> float:
    """Sum of recorded root distances over every non-root spanned node."""
    total = 0.0
    for v, d in tree.dist.items():
        if v == tree.root:
            continue
        # shortest_path_tree never records inf (an overflowed sum fails through < best),
        # so only a hand-built AggregationTree can reach this
        if math.isinf(d):
            raise UnreachableNode(f"infinite recorded distance for {v}")
        total += d
    return total


def restricted(graph, keep, energies=None) -> NetworkGraph:
    """Copy containing only the kept nodes and links among them.

    The copy is built through add_vertex and add_edge in the source's
    node and link order, so its adjacency rows, links and distances
    keep the source's order. energies, when given, maps node id to the
    energy the copy should carry (used to feed residual energies back
    in as node energies).
    """
    keep_set = set(keep)
    g = NetworkGraph()
    for n in graph.nodes:
        if n.id in keep_set:
            e = energies[n.id] if energies is not None else n.energy
            g.add_vertex(n.id, e, n.position)
    for l in graph.links:
        if l.u in keep_set and l.v in keep_set:
            g.add_edge(l.u, l.v, l.distance)
    return g


def with_energies(graph, energies) -> NetworkGraph:
    return restricted(graph, graph.node_ids(), energies)


def round_costs(tree: AggregationTree, radio: RadioModel, graph) -> dict[str, float]:
    """Each tree node's drain for one round on the tree, in tree.dist order.

    Every non-root node pays one transmission to its parent; every parent
    pays one reception per child. The tree fixes these costs, so they are
    computed once per tree. graph supplies link distances.
    """
    n_children = Counter(tree.parent.values())
    costs: dict[str, float] = {}
    for v in tree.dist:
        cost = 0.0
        if v != tree.root:
            cost += radio.tx_energy(link_distance(graph, tree.parent[v], v))
        kids = n_children.get(v, 0)
        if kids:
            cost += kids * radio.rx_cost
        costs[v] = cost
    return costs


def _reference_chooser(policy, config, rng):
    """Per-round tree choosers over a view that carries residual energies."""
    if policy == "clmat":
        def choose(view):
            ranking = select_aggregator(view, tie_rule=config.tie_rule,
                                        tx_energy=config.radio.tx_energy)
            return shortest_path_tree(view, ranking[0].root)
        return choose
    if policy.startswith("fixed:"):
        root = policy.split(":", 1)[1]

        def choose(view):
            if view.get_index(root) == -1:
                raise NoSpanningCandidate(f"root {root} is not in the alive network")
            tree = shortest_path_tree(view, root)
            if len(tree.dist) != len(view):
                raise NoSpanningCandidate("no candidate tree spans every node")
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
                raise NoSpanningCandidate("no candidate tree spans every node")
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
                raise NoSpanningCandidate("no candidate tree spans every node")
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
    on dicts keyed by id rather than the simulator's ledger by insertion
    index. run_lifetime must agree with it on every output and every
    exception.
    """
    if not graph.nodes:
        raise NoSpanningCandidate("no candidate tree spans every node")
    choose = _reference_chooser(policy, config, random.Random(config.seed))
    initial = {n.id: n.energy for n in graph.nodes}
    drained_cum = {n.id: 0.0 for n in graph.nodes}
    alive = [n.id for n in graph.nodes]

    def residual(v):
        return initial[v] - drained_cum[v]

    reports = []
    first_death = None
    delivered = 0
    partitioned = False
    need_select = True
    for r in range(1, config.max_rounds + 1):
        if need_select or (r - 1) % config.reselect_every == 0:
            view = restricted(graph, alive, {v: residual(v) for v in alive})
            try:
                tree = choose(view)
            except NoSpanningCandidate:
                if r == 1:
                    raise
                partitioned = True
                break
            need_select = False
        # costs recomputed from the tree every round, independent of any cache
        costs = round_costs(tree, config.radio, graph)
        total = 0.0
        for v, cost in costs.items():
            drained_cum[v] += cost
            total += cost
        deaths = [v for v in alive if residual(v) <= 0]
        alive = [v for v in alive if v not in deaths]
        report = RoundReport(r, tree.root, dict(costs), total,
                             len(alive), deaths)
        reports.append(report)
        delivered += len(tree.dist)
        if report.deaths:
            if first_death is None:
                first_death = r
            need_select = True
            if stop_at_first_death:
                break
    lifetime = first_death if first_death is not None else config.max_rounds
    final = {v: residual(v) for v in initial}
    return LifetimeResult(lifetime, reports, first_death, delivered, partitioned, final)
