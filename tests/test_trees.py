import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clmat import errors
from clmat.metrics import NODE_MIN, total_distance, tree_cost, tree_energy
from clmat.topology import NetworkGraph
from clmat.trees import (
    build_all_candidates,
    oracle_shortest_paths,
    search_tree,
    shortest_path_search,
    shortest_path_tree,
)

from graphgen import (
    depth_by_walk,
    f4,
    random_connected_graph,
    scan_shortest_path_tree,
    tie_heavy_graph,
    two_node,
)


def test_f4_root_a():
    tree = shortest_path_tree(f4(), "A")
    assert tree.dist == {"A": 0.0, "B": 2.0, "C": 3.0, "D": 5.0}
    assert tree.parent == {"B": "A", "C": "B", "D": "C"}
    assert tree.depth == 3


def test_two_node_single_edge():
    tree = shortest_path_tree(two_node(d=7.0), "a")
    assert tree.dist == {"a": 0.0, "b": 7.0}
    assert tree.depth == 1


def test_unreachable_node_absent():
    g = two_node()
    g.add_vertex("island", 1.0)
    tree = shortest_path_tree(g, "a")
    assert "island" not in tree.dist
    assert "island" not in tree.parent


def test_unknown_root():
    with pytest.raises(errors.UnknownVertex):
        shortest_path_tree(f4(), "Z")
    with pytest.raises(errors.UnknownVertex):
        oracle_shortest_paths(f4(), "Z")


def test_equal_paths_keep_first_found_parent():
    # diamond: D is reachable at distance 2 through B or C; B finalizes first
    g = NetworkGraph()
    for name in "ABCD":
        g.add_vertex(name, 1.0)
    for u, v in [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")]:
        g.add_edge(u, v, 1.0)
    tree = shortest_path_tree(g, "A")
    assert tree.parent["D"] == "B"


def test_readded_pair_uses_new_distance():
    g = NetworkGraph()
    for name in "ABC":
        g.add_vertex(name, 1.0)
    g.add_edge("A", "B", 5.0)
    g.add_edge("B", "C", 1.0)
    g.add_edge("A", "C", 10.0)
    g.add_edge("C", "A", 2.0)
    tree = shortest_path_tree(g, "A")
    assert tree.dist == {"A": 0.0, "B": 3.0, "C": 2.0}
    assert tree.parent == {"B": "C", "C": "A"}
    assert tree.depth == 2


def test_search_depth_matches_walked_depth():
    rng = random.Random(7)
    for _ in range(40):
        g = random_connected_graph(rng, n=rng.randint(1, 12), extra_edge_prob=0.15)
        alive = [name for name in g.node_ids() if rng.random() < 0.7] or g.node_ids()[:1]
        for view in (g, g.restricted(alive)):
            for root in view.node_ids():
                tree = shortest_path_tree(view, root)
                assert tree.depth == depth_by_walk(root, tree.parent, tree.dist)


def test_built_tree_is_frozen():
    tree = shortest_path_tree(f4(), "A")
    for name, value in (("root", "B"), ("parent", {}), ("dist", {}), ("depth", 0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(tree, name, value)


def test_rebuild_is_deterministic():
    rng = random.Random(2)
    for _ in range(20):
        g = random_connected_graph(rng)
        root = rng.choice(g.node_ids())
        assert shortest_path_tree(g, root) == shortest_path_tree(g, root)


def test_depth_star_and_singleton():
    g = NetworkGraph()
    g.add_vertex("hub", 1.0)
    for i in range(5):
        g.add_vertex(f"leaf{i}", 1.0)
        g.add_edge("hub", f"leaf{i}", 1.0)
    assert shortest_path_tree(g, "hub").depth == 1

    lone = NetworkGraph()
    lone.add_vertex("x", 1.0)
    assert shortest_path_tree(lone, "x").depth == 0


@st.composite
def tie_heavy_graphs(draw):
    """Small graphs with weights 1-3, so equal-distance paths are common.

    Pairs are drawn with repetition and in both orientations, so add_edge
    often overwrites a stored pair. Names sort against insertion order, so
    a tie broken by name instead of index shows.
    """
    n = draw(st.integers(1, 9))
    names = [f"v{n - i}" for i in range(n)]
    g = NetworkGraph()
    for name in names:
        g.add_vertex(name, 1.0)
    if n > 1:
        pair = st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(lambda p: p[0] != p[1])
        for u, v in draw(st.lists(pair, max_size=3 * n)):
            g.add_edge(u, v, float(draw(st.integers(1, 3))))
    return g


@pytest.mark.referee
@settings(max_examples=300, deadline=None)
@given(g=tie_heavy_graphs())
def test_heap_build_matches_scan_on_every_root(g):
    for root in g.node_ids():
        tree = shortest_path_tree(g, root)
        scan = scan_shortest_path_tree(g, root)
        assert tree.parent == scan.parent
        assert list(tree.dist.items()) == list(scan.dist.items())
        assert tree.depth == scan.depth


@pytest.mark.referee
@settings(max_examples=300, deadline=None)
@given(g=tie_heavy_graphs(), data=st.data())
def test_masked_search_matches_search_on_restricted_copy(g, data):
    """A search that skips the nodes an alive mask excludes builds the tree a
    search on the graph restricted to the alive nodes builds."""
    keep = data.draw(st.lists(st.booleans(), min_size=len(g), max_size=len(g)))
    alive = bytearray(keep)
    copy = g.restricted([v for v, k in zip(g.node_ids(), keep) if k])
    for ri, root in enumerate(g.node_ids()):
        if not keep[ri]:
            continue  # a search must start at an alive node
        paths = shortest_path_search(g, ri, alive)
        tree = search_tree(g.node_ids(), root, paths)
        want = shortest_path_tree(copy, root)
        assert list(tree.parent.items()) == list(want.parent.items())
        assert list(tree.dist.items()) == list(want.dist.items())
        assert tree.depth == want.depth
        assert paths.reached == len(want.dist)


def _rebuilt(g: NetworkGraph) -> NetworkGraph:
    """A fresh graph with g's nodes and g's links, at their current distances, in g's order."""
    fresh = NetworkGraph()
    for n in g.nodes:
        fresh.add_vertex(n.id, n.energy, n.position)
    for link in g.links:
        fresh.add_edge(link.u, link.v, link.distance)
    return fresh


@pytest.mark.referee
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 6), data=st.data())
def test_search_after_each_mutation_matches_oracle_and_rebuilt_graph(seed, n, data):
    """Searches after every add_vertex, fresh add_edge and re-add read the graph as it now is.

    The searches from every root build the graph's neighbour lists before
    each step, so a step that left them stale would show: a re-add with a
    new distance, in either argument order, would still search the old one.
    """
    g = tie_heavy_graph(random.Random(seed), n, isolated=False)
    weight = st.integers(1, 3).map(float)
    for k in range(data.draw(st.integers(1, 8), label="steps")):
        ids = g.node_ids()
        absent = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]
                  if math.isinf(g.distance(u, v))]
        kinds = ["vertex"] + ["fresh"] * bool(absent) + ["readd"] * bool(g.links)
        kind = data.draw(st.sampled_from(kinds), label="kind")
        if kind == "vertex":
            g.add_vertex(f"x{k}", 1.0)
        else:
            if kind == "fresh":
                u, v = data.draw(st.sampled_from(absent), label="pair")
                d = data.draw(weight, label="distance")
            else:
                link = data.draw(st.sampled_from(g.links), label="link")
                u, v = link.u, link.v
                d = data.draw(weight.filter(lambda w: w != link.distance), label="distance")
            if data.draw(st.booleans(), label="reversed"):
                u, v = v, u
            g.add_edge(u, v, d)
        fresh = _rebuilt(g)
        ids = g.node_ids()
        for ri, root in enumerate(ids):
            paths = shortest_path_search(g, ri)
            oracle = oracle_shortest_paths(g, root)
            assert paths.best == [oracle[v] for v in ids]
            assert paths == shortest_path_search(fresh, ri)


def test_oracle_f4():
    assert oracle_shortest_paths(f4(), "A") == {"A": 0.0, "B": 2.0, "C": 3.0, "D": 5.0}


def test_oracle_unreachable_is_infinite():
    g = two_node()
    g.add_vertex("island", 1.0)
    dist = oracle_shortest_paths(g, "a")
    assert math.isinf(dist["island"])


def test_oracle_agreement_all_roots():
    rng = random.Random(3)
    for _ in range(80):
        g = random_connected_graph(rng)
        for root in g.node_ids():
            tree = shortest_path_tree(g, root)
            oracle = oracle_shortest_paths(g, root)
            assert tree.dist == {v: d for v, d in oracle.items() if math.isfinite(d)}


def test_triangle_property():
    rng = random.Random(4)
    for _ in range(40):
        g = random_connected_graph(rng)
        root = rng.choice(g.node_ids())
        tree = shortest_path_tree(g, root)
        for link in g.links:
            for u, v in ((link.u, link.v), (link.v, link.u)):
                if u in tree.dist and v in tree.dist:
                    assert tree.dist[v] <= tree.dist[u] + link.distance


def test_parent_consistency_exact():
    # integer weights: the recorded distances subtract back to the edge weight
    rng = random.Random(5)
    for _ in range(40):
        g = random_connected_graph(rng)
        root = rng.choice(g.node_ids())
        tree = shortest_path_tree(g, root)
        for v, p in tree.parent.items():
            assert tree.dist[v] - tree.dist[p] == g.distance(p, v)


def test_build_all_candidates_f4():
    g = f4()
    candidates = build_all_candidates(g)
    assert [c.root for c in candidates] == ["A", "B", "C", "D"]
    assert all(c.spanning for c in candidates)
    assert candidates[0].metrics.total_distance == 10.0


def test_build_all_candidates_metrics_recompute():
    rng = random.Random(6)
    for _ in range(20):
        g = random_connected_graph(rng)
        for c in build_all_candidates(g):
            tree = shortest_path_tree(g, c.root)
            assert c.metrics.tree_energy == tree_energy(tree, g, NODE_MIN)
            assert c.metrics.tree_cost == tree_cost(tree, g)
            assert c.metrics.total_distance == total_distance(tree)
            assert c.depth == tree.depth


def test_build_all_candidates_singleton():
    g = NetworkGraph()
    g.add_vertex("only", 2.0)
    (c,) = build_all_candidates(g)
    assert c.spanning
    assert c.metrics.tree_energy is None
    assert c.metrics.tree_cost == 0.0
    assert c.metrics.total_distance == 0.0


def test_build_all_candidates_isolated_node():
    g = f4()
    g.add_vertex("island", 1.0)
    assert not any(c.spanning for c in build_all_candidates(g))


@pytest.mark.parametrize("kwargs, message", [
    ({"energy_variant": "median"}, "energy variant"),
    ({"cost_variant": "cheapest"}, "cost variant"),
    ({"cost_variant": "residual"}, "tx_energy"),
])
def test_build_all_candidates_rejects_bad_scoring(kwargs, message):
    with pytest.raises(ValueError, match=message):
        build_all_candidates(two_node(), **kwargs)


def test_edges_and_children_counts():
    tree = shortest_path_tree(f4(), "A")
    assert tree.edges() == [("A", "B"), ("B", "C"), ("C", "D")]
    assert tree.children_counts() == {"A": 1, "B": 1, "C": 1}

