import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clmat import errors
from clmat.selection import FIRST_MIN, MIN_DEPTH, compare_trees, select_aggregator
from clmat.simulator import RadioModel
from clmat.topology import NetworkGraph
from clmat.trees import Candidate, build_all_candidates, oracle_shortest_paths

from graphgen import (
    NODE_MIN,
    RESIDUAL,
    SingletonTree,
    depth_by_walk,
    eight_candidates,
    f4,
    random_connected_graph,
    shortest_path_tree,
    tie_heavy_graph,
    total_distance,
    tree_cost,
    tree_energy,
    with_energies,
)


def _candidate(root, distance, depth=1, energy=1.0, cost=0.0, spanning=True):
    return Candidate(root, energy, cost, float(distance), depth, spanning)


def test_eight_candidate_fixture_min_depth_chooses_h():
    ranking = compare_trees(eight_candidates(), MIN_DEPTH)
    assert ranking[0].root == "H"
    c = ranking[0]
    assert (c.energy, c.cost, c.distance) == (3.0, 22.378, 16.0)


def test_eight_candidate_fixture_first_min_keeps_g():
    ranking = compare_trees(eight_candidates(), FIRST_MIN)
    assert ranking[0].root == "G"
    assert ranking[0].distance == 16.0


def test_eight_candidate_fixture_shallower_h_also_wins():
    ranking = compare_trees(eight_candidates(g_depth=3, h_depth=2), MIN_DEPTH)
    assert ranking[0].root == "H"


def test_depth_beats_insertion_order():
    # on a distance tie the shallower tree wins even when inserted earlier
    ranking = compare_trees(eight_candidates(g_depth=2, h_depth=3), MIN_DEPTH)
    assert ranking[0].root == "G"


def test_single_candidate():
    (only,) = [_candidate("X", 42.0)]
    ranking = compare_trees([only])
    assert ranking[0].root == "X"


def test_unique_minimum():
    cands = [_candidate("a", 10.0), _candidate("b", 7.0), _candidate("c", 9.0)]
    for rule in (MIN_DEPTH, FIRST_MIN):
        assert compare_trees(cands, rule)[0].root == "b"


def test_non_spanning_excluded():
    cands = [_candidate("near", 1.0, spanning=False), _candidate("far", 50.0)]
    ranking = compare_trees(cands)
    assert ranking[0].root == "far"
    assert [c.root for c in ranking] == ["far", "near"]


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
    assert select_aggregator(g, tie_rule=MIN_DEPTH)[0].root == "C"
    assert select_aggregator(g, tie_rule=FIRST_MIN)[0].root == "B"
    assert select_aggregator(g)[0].distance == 6.0


def test_complete_graph_symmetry_tie():
    g = NetworkGraph()
    for name in ("n0", "n1", "n2"):
        g.add_vertex(name, 1.0)
    for u, v in [("n0", "n1"), ("n0", "n2"), ("n1", "n2")]:
        g.add_edge(u, v, 1.0)
    assert select_aggregator(g, tie_rule=MIN_DEPTH)[0].root == "n2"
    assert select_aggregator(g, tie_rule=FIRST_MIN)[0].root == "n0"


def test_singleton_graph():
    g = NetworkGraph()
    g.add_vertex("solo", 4.0)
    ranking = select_aggregator(g)
    assert ranking[0].root == "solo"
    c = ranking[0]
    assert (c.energy, c.cost, c.distance) == (None, 0.0, 0.0)


def test_ranking_order():
    g = f4()
    ranking = select_aggregator(g)
    assert ranking[0].root == brute_choice(g, MIN_DEPTH)
    distances = [c.distance for c in ranking]
    assert distances == sorted(distances)


def test_chosen_distance_is_minimal_over_spanning():
    rng = random.Random(24)
    for _ in range(20):
        g = random_connected_graph(rng)
        ranking = select_aggregator(g)
        floor = min(c.distance for c in ranking if c.spanning)
        assert ranking[0].distance == floor


def test_ranking_puts_non_spanning_last():
    g = f4()
    g.add_vertex("island", 1.0)
    g.add_vertex("mate", 1.0)
    g.add_edge("island", "mate", 1.0)
    cands = build_all_candidates(g)
    with pytest.raises(errors.NoSpanningCandidate):
        compare_trees(cands)
    # force one spanning entry to check ordering of the rest
    cands = [dataclasses.replace(c, spanning=c.root == "A") for c in cands]
    ranking = compare_trees(cands)
    assert ranking[0].root == "A"
    assert all(not c.spanning for c in ranking[1:])


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
            base = select_aggregator(g, tie_rule=rule)[0].root
            for k in (0.5, 3.0, 10.0):
                assert select_aggregator(_scaled_copy(g, k), tie_rule=rule)[0].root == base


def _distance_minimal_roots(g):
    spanning = [c for c in build_all_candidates(g) if c.spanning]
    best = min(c.distance for c in spanning)
    return {c.root for c in spanning if c.distance == best}


def test_energies_cannot_move_the_distance_minimum():
    rng = random.Random(22)
    for _ in range(20):
        g = random_connected_graph(rng)
        before = _distance_minimal_roots(g)
        perturbed = with_energies(g, {v: rng.uniform(0.5, 20.0) for v in g.node_ids()})
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
            assert select_aggregator(g, tie_rule=rule)[0].root == brute_choice(g, rule)


# The radios the residual cost is refereed under: a harsh one, one whose
# transmissions all overflow (every tree with a link costs inf), and one that
# ignores distance.
RADIOS = [RadioModel(1e-3, 1e-6, 2, 5e-4), RadioModel(1e-3, 1e300, 4, 5e-4),
          RadioModel(1e-3, 0, 2, 5e-4)]


def _reference_candidate(g, root, tx_energy):
    """A candidate scored through an AggregationTree built on its own."""
    tree = shortest_path_tree(g, root)
    try:
        energy = tree_energy(tree, g, NODE_MIN)
    except SingletonTree:
        energy = None
    cost = tree_cost(tree, g, RESIDUAL, tx_energy=tx_energy)
    return Candidate(root, energy, cost, total_distance(tree), tree.depth,
                     len(tree.dist) == len(g))


@pytest.mark.referee
@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 9), isolated=st.booleans(),
       radio=st.sampled_from(RADIOS))
def test_scores_match_trees_built_independently(seed, n, isolated, radio):
    """Every score read off the search lists equals the tree-built one, bit for bit,
    and both rank and choose alike."""
    g = tie_heavy_graph(random.Random(seed), n, isolated)
    got = build_all_candidates(g, radio.tx_energy)
    want = [_reference_candidate(g, root, radio.tx_energy) for root in g.node_ids()]
    assert got == want
    assert [c.cost.hex() for c in got] == [c.cost.hex() for c in want]
    for rule in (MIN_DEPTH, FIRST_MIN):
        if not any(c.spanning for c in want):
            with pytest.raises(errors.NoSpanningCandidate):
                compare_trees(got, rule)
            with pytest.raises(errors.NoSpanningCandidate):
                select_aggregator(g, rule, radio.tx_energy)
            continue
        ranked = compare_trees(got, rule)
        assert ranked == compare_trees(want, rule)
        ranking = select_aggregator(g, rule, radio.tx_energy)
        assert ranking[0].root == ranked[0].root == brute_choice(g, rule)
        assert ranking == ranked
