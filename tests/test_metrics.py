import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clmat.trees import build_all_candidates

from graphgen import (
    EDGE_MIN,
    NODE_MIN,
    RESIDUAL,
    AggregationTree,
    SingletonTree,
    UnreachableNode,
    clmat_edge_cost,
    f4,
    random_connected_graph,
    residual_edge_cost,
    shortest_path_tree,
    total_distance,
    tree_cost,
    tree_energy,
    two_node,
    with_energies,
)


def _random_tree(rng):
    g = random_connected_graph(rng)
    root = rng.choice(g.node_ids())
    return g, shortest_path_tree(g, root)


def test_tree_energy_node_min_f4():
    g = f4()
    tree = shortest_path_tree(g, "A")
    assert tree_energy(tree, g, NODE_MIN) == 3.0  # min over B, C, D


def test_tree_energy_two_node():
    g = two_node(e_first=2.0, e_second=9.0)
    tree = shortest_path_tree(g, "a")
    assert tree_energy(tree, g, NODE_MIN) == 9.0  # root excluded
    assert tree_energy(tree, g, EDGE_MIN) == 2.0  # min endpoint


def test_tree_energy_singleton_errors():
    g = two_node()
    tree = AggregationTree(root="a", parent={}, dist={"a": 0.0}, depth=0)
    for variant in (NODE_MIN, EDGE_MIN):
        with pytest.raises(SingletonTree):
            tree_energy(tree, g, variant)


def test_tree_energy_unknown_variant():
    g = f4()
    tree = shortest_path_tree(g, "A")
    with pytest.raises(ValueError):
        tree_energy(tree, g, "median")


def test_node_min_matches_direct_scan():
    rng = random.Random(5)
    for _ in range(40):
        g, tree = _random_tree(rng)
        if len(tree.dist) < 2:
            continue
        scan = min(g.energy(v) for v in tree.dist if v != tree.root)
        assert tree_energy(tree, g, NODE_MIN) == scan


def test_edge_min_is_node_min_capped_by_root_energy():
    rng = random.Random(6)
    for _ in range(40):
        g, tree = _random_tree(rng)
        if not tree.edges():
            continue
        assert tree_energy(tree, g, EDGE_MIN) == min(
            tree_energy(tree, g, NODE_MIN), g.energy(tree.root))


@pytest.mark.parametrize("connected", [True, False])
@pytest.mark.parametrize("energies", [None, (1.0, 2.0, 3.0)])
def test_scored_tree_energy_matches_tree_energy_on_every_root(energies, connected):
    # energies drawn from three values put the least energy on several
    # nodes, so a root holding it must still see it on another node; a
    # second component leaves every tree partial, some of one node
    rng = random.Random(7)
    for _ in range(40):
        g = random_connected_graph(rng)
        if not connected:
            for k in range(rng.randint(1, 4)):
                g.add_vertex(f"m{k}", rng.uniform(1.0, 10.0))
                if k:
                    g.add_edge(f"m{rng.randrange(k)}", f"m{k}", float(rng.randint(1, 20)))
        if energies is not None:
            g = with_energies(g, {v: rng.choice(energies) for v in g.node_ids()})
        expected = []
        for v in g.node_ids():
            tree = shortest_path_tree(g, v)
            expected.append(tree_energy(tree, g, NODE_MIN) if tree.parent else None)
        assert [c.energy for c in build_all_candidates(g)] == expected


def test_residual_edge_cost_example():
    got = residual_edge_cost(0.2, 0.2, 4.0, 2.0)
    assert got == pytest.approx(0.15, rel=1e-12)


def test_clmat_edge_cost_example():
    assert clmat_edge_cost(5.0, 4.0, 3.0) == pytest.approx(6.5, rel=1e-12)


def test_clmat_edge_cost_saturates():
    assert clmat_edge_cost(3.0, 5.0, 3.0) == math.inf
    assert clmat_edge_cost(5.0, 3.0, 3.0) == math.inf
    assert clmat_edge_cost(2.0, 5.0, 3.0) == math.inf


def test_tree_cost_singleton_is_zero():
    g = two_node()
    tree = AggregationTree(root="a", parent={}, dist={"a": 0.0}, depth=0)
    assert tree_cost(tree, g) == 0.0
    assert tree_cost(tree, g, RESIDUAL, tx_energy=lambda d: 0.2) == 0.0


def test_tree_cost_residual_sums_edges():
    g = f4()
    tree = shortest_path_tree(g, "A")
    expected = 0.0
    for u, v in tree.edges():
        expected += residual_edge_cost(0.2, 0.2, g.energy(u), g.energy(v))
    assert tree_cost(tree, g, RESIDUAL, tx_energy=lambda d: 0.2) == expected


def test_tree_cost_clmat_is_infinite_beyond_singletons():
    # the bottleneck node always has zero headroom against its own tree, so
    # the closed form agrees with the per-edge formula under either energy
    rng = random.Random(7)
    for _ in range(30):
        g, tree = _random_tree(rng)
        if not tree.edges():
            continue
        assert tree_cost(tree, g) == math.inf
        for variant in (NODE_MIN, EDGE_MIN):
            bottleneck = tree_energy(tree, g, variant)
            assert sum(clmat_edge_cost(g.energy(u), g.energy(v), bottleneck)
                       for u, v in tree.edges()) == math.inf
    with pytest.raises(TypeError):
        tree_cost(tree, g, RESIDUAL, lambda d: 0.2)  # tx_energy is keyword-only


def test_tree_cost_residual_requires_tx_energy():
    g = f4()
    tree = shortest_path_tree(g, "A")
    with pytest.raises(ValueError):
        tree_cost(tree, g, RESIDUAL)


def test_tree_cost_unknown_variant():
    g = f4()
    tree = shortest_path_tree(g, "A")
    with pytest.raises(ValueError):
        tree_cost(tree, g, "free")


def test_total_distance_f4():
    g = f4()
    assert total_distance(shortest_path_tree(g, "A")) == 10.0


def test_total_distance_singleton():
    tree = AggregationTree(root="a", parent={}, dist={"a": 0.0}, depth=0)
    assert total_distance(tree) == 0.0


def test_total_distance_two_node():
    g = two_node(d=7.0)
    assert total_distance(shortest_path_tree(g, "a")) == 7.0


def test_total_distance_unreachable():
    tree = AggregationTree(root="a", parent={"b": "a"}, dist={"a": 0.0, "b": math.inf},
                           depth=1)
    with pytest.raises(UnreachableNode):
        total_distance(tree)


def test_total_distance_matches_dist_sum():
    rng = random.Random(8)
    for _ in range(40):
        g, tree = _random_tree(rng)
        total = 0.0
        for v, d in tree.dist.items():
            if v != tree.root:
                total += d
        assert total_distance(tree) == total


def _scaled_copy(g, k):
    from clmat.topology import NetworkGraph
    scaled = NetworkGraph()
    for n in g.nodes:
        scaled.add_vertex(n.id, n.energy, n.position)
    for link in g.links:
        scaled.add_edge(link.u, link.v, link.distance * k)
    return scaled


def test_total_distance_scales_exactly():
    # integer base weights make the scaled sums exact in floating point
    rng = random.Random(9)
    for _ in range(20):
        g = random_connected_graph(rng)
        root = g.node_ids()[0]
        base = total_distance(shortest_path_tree(g, root))
        for k in (0.5, 3.0):
            assert total_distance(shortest_path_tree(_scaled_copy(g, k), root)) == base * k


@given(tx=st.floats(1e-6, 1e3), r1=st.floats(1e-3, 1e3), r2=st.floats(1e-3, 1e3))
def test_residual_cost_positive_and_decreasing(tx, r1, r2):
    cost = residual_edge_cost(tx, tx, r1, r2)
    assert cost > 0
    assert residual_edge_cost(tx, tx, r1 * 2, r2) < cost


@given(t=st.floats(1e-3, 1e3), above=st.floats(1e-3, 1e3))
def test_clmat_cost_infinite_at_zero_headroom(t, above):
    assert clmat_edge_cost(t, t + above, t) == math.inf
    assert math.isfinite(clmat_edge_cost(t + above, t + above, t))
