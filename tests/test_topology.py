import json
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clmat import errors
from clmat.topology import (
    DIRECTED,
    NetworkGraph,
    export_json,
    load_topology,
    load_topology_csv,
    random_topology,
)

from graphgen import f4


def test_add_vertex_first_insertion():
    g = NetworkGraph()
    g.add_vertex("A", 5.0)
    assert g.node_ids() == ["A"]
    assert g.energy("A") == 5.0
    assert len(g) == 1


def test_add_vertex_duplicate():
    g = NetworkGraph()
    g.add_vertex("A", 5.0)
    with pytest.raises(errors.DuplicateVertex):
        g.add_vertex("A", 3.0)


def test_add_vertex_independent_insertion():
    g = NetworkGraph()
    g.add_vertex("A", 5.0)
    g.add_vertex("B", 4.0)
    assert g.node_ids() == ["A", "B"]
    assert not g.links


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_add_vertex_bad_energy(bad):
    g = NetworkGraph()
    with pytest.raises(errors.InvalidEnergy):
        g.add_vertex("A", bad)


def test_add_vertex_empty_name():
    g = NetworkGraph()
    with pytest.raises(ValueError):
        g.add_vertex("", 1.0)


def test_add_edge_link_energy_min_rule():
    g = NetworkGraph()
    g.add_vertex("u", 5.0)
    g.add_vertex("v", 3.0)
    g.add_edge("u", "v", 2.0)
    assert g.links[0].link_energy == 3.0
    assert g.link_energy("u", "v") == 3.0


def test_add_edge_symmetric_energies():
    g = NetworkGraph()
    g.add_vertex("u", 4.0)
    g.add_vertex("v", 4.0)
    g.add_edge("u", "v", 1.0)
    assert g.links[0].link_energy == 4.0


def test_add_edge_unknown_vertex():
    g = NetworkGraph()
    g.add_vertex("A", 5.0)
    with pytest.raises(errors.UnknownVertex):
        g.add_edge("A", "Z", 1.0)
    with pytest.raises(errors.UnknownVertex):
        g.add_edge("Z", "A", 1.0)


def test_add_edge_self_loop():
    g = NetworkGraph()
    g.add_vertex("A", 5.0)
    with pytest.raises(errors.SelfLoop):
        g.add_edge("A", "A", 1.0)


@pytest.mark.parametrize("bad", [0.0, -2.0, float("inf"), float("nan")])
def test_add_edge_nonpositive_distance(bad):
    g = NetworkGraph()
    g.add_vertex("A", 5.0)
    g.add_vertex("B", 5.0)
    with pytest.raises(errors.NonPositiveDistance):
        g.add_edge("A", "B", bad)


def test_undirected_adjacency_symmetric():
    g = f4()
    for link in g.links:
        assert g.distance(link.u, link.v) == g.distance(link.v, link.u)


def test_directed_one_sided_write():
    g = NetworkGraph(DIRECTED)
    g.add_vertex("A", 5.0)
    g.add_vertex("B", 5.0)
    g.add_edge("A", "B", 2.0)
    assert g.distance("A", "B") == 2.0
    assert math.isinf(g.distance("B", "A"))


def test_diagonal_zero_absent_infinite():
    g = f4()
    for name in g.node_ids():
        assert g.distance(name, name) == 0.0
    assert math.isinf(g.distance("A", "D"))


def test_add_edge_overwrites_existing_pair():
    g = NetworkGraph()
    g.add_vertex("A", 5.0)
    g.add_vertex("B", 3.0)
    g.add_edge("A", "B", 2.0)
    g.add_edge("B", "A", 7.0)
    assert len(g.links) == 1
    assert g.distance("A", "B") == 7.0


def test_get_index():
    g = NetworkGraph()
    g.add_vertex("A", 1.0)
    g.add_vertex("B", 1.0)
    assert g.get_index("A") == 0
    assert g.get_index("B") == 1
    assert g.get_index("Q") == -1


def test_random_topology_single_node():
    g = random_topology(1, 10.0, 5.0, 1.0, 2.0, seed=0)
    assert len(g) == 1
    assert not g.links


def test_random_topology_same_seed_identical():
    a = random_topology(8, 50.0, 20.0, 1.0, 5.0, seed=42)
    b = random_topology(8, 50.0, 20.0, 1.0, 5.0, seed=42)
    assert a == b
    assert export_json(a) == export_json(b)
    c = random_topology(8, 50.0, 20.0, 1.0, 5.0, seed=43)
    assert export_json(a) != export_json(c)


def test_random_topology_complete_when_range_covers_diagonal():
    side = 10.0
    g = random_topology(3, side, side * math.sqrt(2) + 1e-9, 1.0, 1.0, seed=1)
    assert len(g.links) == 3


def test_random_topology_links_exactly_within_range():
    radio_range = 18.0
    g = random_topology(12, 60.0, radio_range, 1.0, 2.0, seed=9)
    expected = set()
    for i in range(len(g)):
        for j in range(i + 1, len(g)):
            a, b = g.nodes[i], g.nodes[j]
            if math.dist(a.position, b.position) <= radio_range:
                expected.add((a.id, b.id))
    actual = {(l.u, l.v) for l in g.links}
    assert actual == expected
    for link in g.links:
        assert link.distance == math.dist(g.node(link.u).position, g.node(link.v).position)


def test_random_topology_energy_bounds():
    g = random_topology(30, 100.0, 10.0, 2.0, 5.0, seed=3)
    assert all(2.0 <= n.energy <= 5.0 for n in g.nodes)


@pytest.mark.parametrize("kwargs", [
    dict(n=0, side=1.0, radio_range=1.0, energy_lo=1.0, energy_hi=1.0, seed=0),
    dict(n=2, side=0.0, radio_range=1.0, energy_lo=1.0, energy_hi=1.0, seed=0),
    dict(n=2, side=1.0, radio_range=-1.0, energy_lo=1.0, energy_hi=1.0, seed=0),
    dict(n=2, side=1.0, radio_range=1.0, energy_lo=0.0, energy_hi=1.0, seed=0),
    dict(n=2, side=1.0, radio_range=1.0, energy_lo=2.0, energy_hi=1.0, seed=0),
])
def test_random_topology_bad_args(kwargs):
    with pytest.raises(ValueError):
        random_topology(**kwargs)


def test_export_edges_sorted_and_roundtrip():
    g = f4()
    doc = json.loads(export_json(g))
    pairs = [(e["u"], e["v"]) for e in doc["edges"]]
    assert pairs == sorted(pairs)
    again = load_topology(export_json(g))
    assert again == g
    assert export_json(again) == export_json(g)


def test_load_minimal_two_node():
    doc = {"mode": "undirected",
           "nodes": [{"id": "a", "energy": 2.0}, {"id": "b", "energy": 3.0}],
           "edges": [{"u": "a", "v": "b", "distance": 1.5}]}
    g = load_topology(json.dumps(doc))
    assert len(g) == 2
    assert g.distance("a", "b") == 1.5
    assert g.link_energy("a", "b") == 2.0


def test_load_unknown_endpoint_is_semantic_error():
    doc = {"nodes": [{"id": "a", "energy": 2.0}],
           "edges": [{"u": "a", "v": "X", "distance": 1.0}]}
    with pytest.raises(errors.SemanticError):
        load_topology(json.dumps(doc))


def test_load_malformed_json_is_parse_error():
    with pytest.raises(errors.ParseError):
        load_topology("{not json")


@pytest.mark.parametrize("doc", [
    [],
    {"mode": "sideways", "nodes": []},
    {"nodes": {"id": "a"}},
    {"nodes": [{"id": "a", "energy": 1.0, "x": 1.0}]},
    {"nodes": [{"id": 5, "energy": 1.0}]},
    {"nodes": [{"id": "a"}]},
    {"nodes": [{"id": "a", "energy": 1.0}], "edges": [{"u": "a"}]},
    # JSON booleans are not numbers
    {"nodes": [{"id": "a", "energy": True}]},
    {"nodes": [{"id": "a", "energy": 1.0, "x": True, "y": 0.0}]},
    {"nodes": [{"id": "a", "energy": 1.0, "x": 0.0, "y": False}]},
    {"nodes": [{"id": "a", "energy": 1.0}, {"id": "b", "energy": 1.0}],
     "edges": [{"u": "a", "v": "b", "distance": True}]},
])
def test_load_structural_errors(doc):
    with pytest.raises(errors.ParseError):
        load_topology(json.dumps(doc))


@pytest.mark.parametrize("doc", [
    {"nodes": [{"id": "a", "energy": 1.0}, {"id": "a", "energy": 2.0}]},
    {"nodes": [{"id": "a", "energy": 0.0}]},
    {"nodes": [{"id": "a", "energy": 1.0}, {"id": "b", "energy": 1.0}],
     "edges": [{"u": "a", "v": "b", "distance": -1.0}]},
    {"nodes": [{"id": "a", "energy": 1.0}],
     "edges": [{"u": "a", "v": "a", "distance": 1.0}]},
    {"nodes": [{"id": "a", "energy": 1.0, "x": math.nan, "y": 0.0}]},
    {"nodes": [{"id": "a", "energy": 1.0, "x": 0.0, "y": -math.inf}]},
])
def test_load_semantic_errors(doc):
    with pytest.raises(errors.SemanticError):
        load_topology(json.dumps(doc))


@pytest.mark.parametrize("position", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
def test_add_vertex_rejects_non_finite_position(position):
    g = NetworkGraph()
    with pytest.raises(ValueError):
        g.add_vertex("a", 1.0, position)
    assert len(g) == 0


def test_csv_rejects_non_finite_positions():
    with pytest.raises(errors.SemanticError):
        load_topology_csv("id,energy,x,y\na,2.0,nan,0\n", "u,v,distance\n")
    with pytest.raises(errors.SemanticError):
        load_topology_csv("id,energy,x,y\na,2.0,0,inf\n", "u,v,distance\n")


def test_csv_import():
    nodes = "id,energy,x,y\na,2.0,0,0\nb,3.0,3,4\n"
    edges = "u,v,distance\na,b,5\n"
    g = load_topology_csv(nodes, edges)
    assert g.node_ids() == ["a", "b"]
    assert g.node("b").position == (3.0, 4.0)
    assert g.distance("a", "b") == 5.0


def test_csv_import_without_positions():
    g = load_topology_csv("id,energy\na,2\nb,3\n", "u,v,distance\na,b,1\n")
    assert g.node("a").position is None


def test_csv_bad_header():
    with pytest.raises(errors.ParseError):
        load_topology_csv("name,energy\na,2\n", "u,v,distance\n")
    with pytest.raises(errors.ParseError):
        load_topology_csv("id,energy\na,2\n", "u,v,weight\n")


def test_csv_bad_number():
    with pytest.raises(errors.ParseError):
        load_topology_csv("id,energy\na,squid\n", "u,v,distance\n")


def test_csv_unknown_endpoint():
    with pytest.raises(errors.SemanticError):
        load_topology_csv("id,energy\na,2\n", "u,v,distance\na,zz,1\n")


def test_link_energy_recomputed_not_cached():
    g = NetworkGraph()
    g.add_vertex("A", 5.0)
    g.add_vertex("B", 3.0)
    g.add_edge("A", "B", 1.0)
    g.nodes[0].energy = 1.0  # battery drained since insertion
    assert g.links[0].link_energy == 3.0
    assert g.link_energy("A", "B") == 1.0


def test_restricted_subgraph():
    g = f4()
    sub = g.restricted(["A", "B", "D"], energies={"A": 1.5, "B": 2.5, "D": 3.5})
    assert sub.node_ids() == ["A", "B", "D"]
    assert sub.energy("A") == 1.5
    assert {(l.u, l.v) for l in sub.links} == {("A", "B"), ("B", "D")}
    # the original is untouched
    assert g.energy("A") == 5.0 and len(g.links) == 5


def test_with_energies_keeps_structure():
    g = f4()
    view = g.with_energies({n.id: 9.0 for n in g.nodes})
    assert view.node_ids() == g.node_ids()
    assert all(n.energy == 9.0 for n in view.nodes)
    assert view._link_set() == {(u, v, d) for u, v, d in
                                ((min(l.u, l.v), max(l.u, l.v), l.distance) for l in g.links)}


@given(e1=st.floats(0.001, 1e6), e2=st.floats(0.001, 1e6), d=st.floats(0.001, 1e6))
def test_link_energy_is_min_of_endpoints(e1, e2, d):
    g = NetworkGraph()
    g.add_vertex("u", e1)
    g.add_vertex("v", e2)
    g.add_edge("u", "v", d)
    assert g.links[0].link_energy == min(e1, e2)
