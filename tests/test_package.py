import clmat
from clmat import errors
from clmat.topology import NetworkGraph

# Every name the package exports; changing the export list means editing this set.
EXPORTED = {
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
    "build_all_candidates",
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
    "round_costs",
    "run_lifetime",
    "select_aggregator",
    "shortest_path_tree",
}


def test_every_exported_name_resolves():
    missing = [name for name in clmat.__all__ if not hasattr(clmat, name)]
    assert missing == []


def test_exported_names_are_exactly_the_pinned_set():
    assert len(clmat.__all__) == len(set(clmat.__all__))
    assert set(clmat.__all__) == EXPORTED


def test_tree_walk_scorers_and_graph_copies_are_not_in_the_library():
    """The tree-walk scorers and the graph copies are test references now."""
    for name in ("tree_energy", "tree_cost", "total_distance", "clmat_edge_cost"):
        assert not hasattr(clmat, name)
        assert not hasattr(clmat.metrics, name)
    for name in ("restricted", "with_energies"):
        assert not hasattr(NetworkGraph, name)
    for name in ("SingletonTree", "UnreachableNode"):
        assert not hasattr(errors, name)
