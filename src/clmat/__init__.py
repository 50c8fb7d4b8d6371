"""Lifetime-maximizing aggregation trees for energy-annotated sensor networks."""

from .errors import ClmatError, NoSpanningCandidate
from .metrics import RadioModel
from .selection import FIRST_MIN, MIN_DEPTH, compare_trees, select_aggregator
from .simulator import (
    LifetimeResult,
    RoundReport,
    SimConfig,
    compare_policies,
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
from .trees import Candidate, build_all_candidates, oracle_shortest_paths

__version__ = "0.1.0"

__all__ = [
    "Candidate",
    "ClmatError",
    "FIRST_MIN",
    "LifetimeResult",
    "MIN_DEPTH",
    "NetworkGraph",
    "Node",
    "NoSpanningCandidate",
    "RadioModel",
    "RoundReport",
    "SimConfig",
    "build_all_candidates",
    "compare_policies",
    "compare_trees",
    "export_json",
    "load_topology",
    "load_topology_csv",
    "oracle_shortest_paths",
    "random_topology",
    "reports_csv",
    "residual_trace_csv",
    "run_lifetime",
    "select_aggregator",
]
