"""Energy, cost, and distance scores for rooted aggregation trees.

All functions are pure and safe to call concurrently on shared inputs.
+inf is a first-class cost value: float addition absorbs it naturally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonPositiveResidual, SingletonTree, UnreachableNode

NODE_MIN = "node-min"
EDGE_MIN = "edge-min"
ENERGY_VARIANTS = (NODE_MIN, EDGE_MIN)

CLMAT = "clmat"
RESIDUAL = "residual"
COST_VARIANTS = (CLMAT, RESIDUAL)


@dataclass(frozen=True)
class TreeMetrics:
    """The scored triple for one candidate tree.

    tree_energy is None for a singleton tree, where the bottleneck battery
    is undefined. tree_cost may be +inf (saturated degenerate denominator).
    """

    tree_energy: float | None
    tree_cost: float
    total_distance: float


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


def spanning_tree_energies(graph, variant: str = NODE_MIN) -> list[float]:
    """tree_energy of a spanning tree at each root, in insertion order.

    A spanning tree holds every node, so node-min is the least energy
    other than the root's and edge-min is the least energy of all: one
    pass over the node table answers for every root. The graph needs at
    least two nodes, since a single-node tree has no tree energy.
    """
    if variant not in ENERGY_VARIANTS:
        raise ValueError(f"unknown energy variant {variant!r}")
    energies = [n.energy for n in graph.nodes]
    k = min(range(len(energies)), key=energies.__getitem__)
    least = energies[k]
    if variant == EDGE_MIN:
        return [least] * len(energies)
    runner_up = min(e for i, e in enumerate(energies) if i != k)
    return [runner_up if i == k else least for i in range(len(energies))]


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
    """Per-packet transmission energy in each direction, normalized by residual energy."""
    if residual_u <= 0:
        raise NonPositiveResidual(f"residual energy must be positive, got {residual_u!r}")
    if residual_v <= 0:
        raise NonPositiveResidual(f"residual energy must be positive, got {residual_v!r}")
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
        tx = tx_energy(graph.distance(u, v))
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
