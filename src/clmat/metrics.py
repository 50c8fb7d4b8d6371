"""Score names and the residual edge cost.

A candidate tree is scored by its energy (a variant in ENERGY_VARIANTS),
its cost (a variant in COST_VARIANTS) and its total distance.
trees.build_all_candidates computes all three from a search's lists into
a trees.Candidate; this module holds only the names the CLI and selection
share with it and the per-link residual cost it sums. The tree-walk
definitions those scores are tested against live with the tests, in
tests/graphgen.py.

+inf is a first-class cost value: float addition absorbs it naturally.
"""

from __future__ import annotations

from .errors import NonPositiveResidual

NODE_MIN = "node-min"
EDGE_MIN = "edge-min"
ENERGY_VARIANTS = (NODE_MIN, EDGE_MIN)

CLMAT = "clmat"
RESIDUAL = "residual"
COST_VARIANTS = (CLMAT, RESIDUAL)


def residual_edge_cost(tx_uv: float, tx_vu: float,
                       residual_u: float, residual_v: float) -> float:
    """Per-packet transmission energy in each direction, normalized by residual energy."""
    for residual in (residual_u, residual_v):
        if residual <= 0:
            raise NonPositiveResidual(f"residual energy must be positive, got {residual!r}")
    return tx_uv / residual_u + tx_vu / residual_v
