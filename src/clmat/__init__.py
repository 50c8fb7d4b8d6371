"""Lifetime-maximizing aggregation trees for energy-annotated sensor networks."""

from .errors import ClmatError, NoSpanningCandidate
from .metrics import (
    CLMAT,
    EDGE_MIN,
    NODE_MIN,
    RESIDUAL,
    TreeMetrics,
    branch_energy,
    clmat_edge_cost,
    residual_edge_cost,
    total_distance,
    tree_cost,
    tree_energy,
)
from .selection import FIRST_MIN, MIN_DEPTH, SelectionResult, compare_trees, select_aggregator
from .simulator import (
    LifetimeResult,
    RadioModel,
    RoundReport,
    SimConfig,
    SimState,
    compare_policies,
    drain_round,
    reports_csv,
    residual_trace_csv,
    run_lifetime,
)
from .topology import (
    NetworkGraph,
    Node,
    export_json,
    load_topology,
    load_topology_csv,
    random_topology,
)
from .trees import (
    AggregationTree,
    Candidate,
    build_all_candidates,
    oracle_shortest_paths,
    shortest_path_tree,
)

__version__ = "0.1.0"

__all__ = [
    "AggregationTree",
    "CLMAT",
    "Candidate",
    "ClmatError",
    "EDGE_MIN",
    "FIRST_MIN",
    "LifetimeResult",
    "MIN_DEPTH",
    "NODE_MIN",
    "NetworkGraph",
    "Node",
    "NoSpanningCandidate",
    "RESIDUAL",
    "RadioModel",
    "RoundReport",
    "SelectionResult",
    "SimConfig",
    "SimState",
    "TreeMetrics",
    "branch_energy",
    "build_all_candidates",
    "clmat_edge_cost",
    "compare_policies",
    "compare_trees",
    "drain_round",
    "export_json",
    "load_topology",
    "load_topology_csv",
    "oracle_shortest_paths",
    "random_topology",
    "reports_csv",
    "residual_edge_cost",
    "residual_trace_csv",
    "run_lifetime",
    "select_aggregator",
    "shortest_path_tree",
    "total_distance",
    "tree_cost",
    "tree_energy",
]
