import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clmat import errors
from clmat.metrics import (
    CLMAT,
    EDGE_MIN,
    NODE_MIN,
    RESIDUAL,
    TreeMetrics,
    total_distance,
    tree_cost,
    tree_energy,
)
from clmat.selection import FIRST_MIN, MIN_DEPTH, compare_trees, select_aggregator
from clmat.simulator import RadioModel
from clmat.topology import NetworkGraph
from clmat.trees import Candidate, build_all_candidates, oracle_shortest_paths, shortest_path_tree

from graphgen import depth_by_walk, eight_candidates, f4, random_connected_graph, tie_heavy_graph


def _candidate(root, distance, depth=1, energy=1.0, cost=0.0, spanning=True):
    return Candidate(root, depth, TreeMetrics(energy, cost, float(distance)), spanning)


def test_eight_candidate_fixture_min_depth_chooses_h():
    result = compare_trees(eight_candidates(), MIN_DEPTH)
    assert result.chosen_root == "H"
    assert result.metrics == TreeMetrics(3.0, 22.378, 16.0)


def test_eight_candidate_fixture_first_min_keeps_g():
    result = compare_trees(eight_candidates(), FIRST_MIN)
    assert result.chosen_root == "G"
    assert result.metrics.total_distance == 16.0


def test_eight_candidate_fixture_shallower_h_also_wins():
    result = compare_trees(eight_candidates(g_depth=3, h_depth=2), MIN_DEPTH)
    assert result.chosen_root == "H"


def test_depth_beats_insertion_order():
    # on a distance tie the shallower tree wins even when inserted earlier
    result = compare_trees(eight_candidates(g_depth=2, h_depth=3), MIN_DEPTH)
    assert result.chosen_root == "G"


def test_single_candidate():
    (only,) = [_candidate("X", 42.0)]
    result = compare_trees([only])
    assert result.chosen_root == "X"


def test_unique_minimum():
    cands = [_candidate("a", 10.0), _candidate("b", 7.0), _candidate("c", 9.0)]
    for rule in (MIN_DEPTH, FIRST_MIN):
        assert compare_trees(cands, rule).chosen_root == "b"


def test_non_spanning_excluded():
    cands = [_candidate("near", 1.0, spanning=False), _candidate("far", 50.0)]
    result = compare_trees(cands)
    assert result.chosen_root == "far"
    assert [c.root for c in result.ranking] == ["far", "near"]


def test_no_spanning_candidate_raises():
    with pytest.raises(errors.NoSpanningCandidate):
        compare_trees([_candidate("a", 1.0, spanning=False)])
    with pytest.raises(errors.NoSpanningCandidate):
        compare_trees([])


def test_bad_tie_rule():
    with pytest.raises(ValueError):
        compare_trees([_candidate("a", 1.0)], "coin-flip")


def test_f4_tie_rules_differ():
    g = f4()
    assert select_aggregator(g, tie_rule=MIN_DEPTH).chosen_root == "C"
    assert select_aggregator(g, tie_rule=FIRST_MIN).chosen_root == "B"
    assert select_aggregator(g).metrics.total_distance == 6.0


def test_complete_graph_symmetry_tie():
    g = NetworkGraph()
    for name in ("n0", "n1", "n2"):
        g.add_vertex(name, 1.0)
    for u, v in [("n0", "n1"), ("n0", "n2"), ("n1", "n2")]:
        g.add_edge(u, v, 1.0)
    assert select_aggregator(g, tie_rule=MIN_DEPTH).chosen_root == "n2"
    assert select_aggregator(g, tie_rule=FIRST_MIN).chosen_root == "n0"


def test_singleton_graph():
    g = NetworkGraph()
    g.add_vertex("solo", 4.0)
    result = select_aggregator(g)
    assert result.chosen_root == "solo"
    assert result.metrics == TreeMetrics(None, 0.0, 0.0)


def test_ranking_order():
    g = f4()
    result = select_aggregator(g)
    assert result.ranking[0].root == result.chosen_root
    distances = [c.metrics.total_distance for c in result.ranking]
    assert distances == sorted(distances)


def test_chosen_distance_is_minimal_over_spanning():
    rng = random.Random(24)
    for _ in range(20):
        g = random_connected_graph(rng)
        result = select_aggregator(g)
        floor = min(c.metrics.total_distance for c in result.ranking if c.spanning)
        assert result.metrics.total_distance == floor


def test_ranking_puts_non_spanning_last():
    g = f4()
    g.add_vertex("island", 1.0)
    g.add_vertex("mate", 1.0)
    g.add_edge("island", "mate", 1.0)
    cands = build_all_candidates(g)
    with pytest.raises(errors.NoSpanningCandidate):
        compare_trees(cands)
    # force one spanning entry to check ordering of the rest
    cands = [Candidate(c.root, c.depth, c.metrics, c.root == "A") for c in cands]
    result = compare_trees(cands)
    assert result.ranking[0].root == "A"
    assert all(not c.spanning for c in result.ranking[1:])


def _scaled_copy(g, k):
    scaled = NetworkGraph()
    for n in g.nodes:
        scaled.add_vertex(n.id, n.energy, n.position)
    for link in g.links:
        scaled.add_edge(link.u, link.v, link.distance * k)
    return scaled


def test_scaling_leaves_choice_unchanged():
    rng = random.Random(21)
    for _ in range(20):
        g = random_connected_graph(rng)
        for rule in (MIN_DEPTH, FIRST_MIN):
            base = select_aggregator(g, tie_rule=rule).chosen_root
            for k in (0.5, 3.0, 10.0):
                assert select_aggregator(_scaled_copy(g, k), tie_rule=rule).chosen_root == base


def _distance_minimal_roots(g):
    spanning = [c for c in build_all_candidates(g) if c.spanning]
    best = min(c.metrics.total_distance for c in spanning)
    return {c.root for c in spanning if c.metrics.total_distance == best}


def test_energies_cannot_move_the_distance_minimum():
    rng = random.Random(22)
    for _ in range(20):
        g = random_connected_graph(rng)
        before = _distance_minimal_roots(g)
        perturbed = g.with_energies({v: rng.uniform(0.5, 20.0) for v in g.node_ids()})
        assert _distance_minimal_roots(perturbed) == before


def brute_choice(graph, tie_rule):
    """Exhaustive reimplementation: relaxation distances + a direct key scan."""
    rows = []
    for i, node in enumerate(graph.nodes):
        dist = oracle_shortest_paths(graph, node.id)
        if any(math.isinf(d) for d in dist.values()):
            continue
        total = 0.0
        for v, d in dist.items():
            if v != node.id:
                total += d
        tree = shortest_path_tree(graph, node.id)
        depth = depth_by_walk(node.id, tree.parent, tree.dist)
        rows.append((i, node.id, total, depth))
    assert rows
    best = rows[0]
    for row in rows[1:]:
        if tie_rule == MIN_DEPTH:
            if (row[2], row[3]) < (best[2], best[3]):
                best = row
            elif (row[2], row[3]) == (best[2], best[3]) and row[0] > best[0]:
                best = row
        elif row[2] < best[2]:
            best = row
    return best[1]


def test_brute_force_oracle_agreement():
    rng = random.Random(23)
    for _ in range(40):
        g = random_connected_graph(rng)
        for rule in (MIN_DEPTH, FIRST_MIN):
            assert select_aggregator(g, tie_rule=rule).chosen_root == brute_choice(g, rule)


TX_ENERGY = RadioModel(1e-3, 1e-6, 2, 5e-4).tx_energy


def _reference_candidate(g, root, cost_variant, energy_variant):
    """A candidate scored through an AggregationTree built on its own."""
    tree = shortest_path_tree(g, root)
    try:
        energy = tree_energy(tree, g, energy_variant)
    except errors.SingletonTree:
        energy = None
    cost = tree_cost(tree, g, cost_variant, tx_energy=TX_ENERGY)
    metrics = TreeMetrics(energy, cost, total_distance(tree))
    return Candidate(root, tree.depth, metrics, len(tree.dist) == len(g))


@pytest.mark.referee
@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 9), isolated=st.booleans())
def test_scores_match_trees_built_independently(seed, n, isolated):
    """Every score read off the search lists equals the tree-built one, bit for bit,
    and both rank and choose alike."""
    g = tie_heavy_graph(random.Random(seed), n, isolated)
    for cost_variant in (CLMAT, RESIDUAL):
        for energy_variant in (NODE_MIN, EDGE_MIN):
            got = build_all_candidates(g, cost_variant, energy_variant, TX_ENERGY)
            want = [_reference_candidate(g, root, cost_variant, energy_variant)
                    for root in g.node_ids()]
            assert got == want
            for rule in (MIN_DEPTH, FIRST_MIN):
                if not any(c.spanning for c in want):
                    with pytest.raises(errors.NoSpanningCandidate):
                        compare_trees(got, rule)
                    with pytest.raises(errors.NoSpanningCandidate):
                        select_aggregator(g, cost_variant, energy_variant, rule, TX_ENERGY)
                    continue
                ranked = compare_trees(got, rule)
                assert ranked.ranking == compare_trees(want, rule).ranking
                result = select_aggregator(g, cost_variant, energy_variant, rule, TX_ENERGY)
                assert result.chosen_root == ranked.chosen_root == brute_choice(g, rule)
                assert result.ranking == ranked.ranking
                assert result.tree == shortest_path_tree(g, result.chosen_root)
