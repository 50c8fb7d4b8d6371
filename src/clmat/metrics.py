"""Score names and the closed-form scores that selection reads.

A candidate tree is scored by a TreeMetrics triple: its energy (a
variant in ENERGY_VARIANTS), its cost (a variant in COST_VARIANTS) and
its total distance. trees.build_all_candidates computes all three from
a search's lists; this module holds the parts it shares with the CLI. The
tree-walk definitions those scores are tested against live with the
tests, in tests/graphgen.py.

All functions are pure and safe to call concurrently on shared inputs.
+inf is a first-class cost value: float addition absorbs it naturally.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonPositiveResidual

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


def spanning_tree_energies(graph, variant: str = NODE_MIN) -> list[float]:
    """The tree energy of a spanning tree at each root, in insertion order.

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


def residual_edge_cost(tx_uv: float, tx_vu: float,
                       residual_u: float, residual_v: float) -> float:
    """Per-packet transmission energy in each direction, normalized by residual energy."""
    if residual_u <= 0:
        raise NonPositiveResidual(f"residual energy must be positive, got {residual_u!r}")
    if residual_v <= 0:
        raise NonPositiveResidual(f"residual energy must be positive, got {residual_v!r}")
    return tx_uv / residual_u + tx_vu / residual_v
