import copy
import dataclasses
import json
import math
import random
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from clmat import errors
from clmat.topology import (
    NetworkGraph,
    Node,
    export_json,
    load_topology,
    load_topology_csv,
    random_topology,
)

from graphgen import f4, link_distance, random_connected_graph, restricted, with_energies


def test_add_vertex_first_insertion():
    g = NetworkGraph()
    g.add_vertex("A", 5.0)
    assert g.node_ids() == ["A"]
    assert g.energy("A") == 5.0
    assert len(g) == 1


def test_add_vertex_duplicate():
    g = NetworkGraph()
    g.add_vertex("A", 5.0)
    with pytest.raises(errors.SemanticError, match="^vertex already exists: A$"):
        g.add_vertex("A", 3.0)


def test_add_vertex_independent_insertion():
    g = NetworkGraph()
    g.add_vertex("A", 5.0)
    g.add_vertex("B", 4.0)
    assert g.node_ids() == ["A", "B"]
    assert not g.links


# too large for a float, so math.isfinite raises OverflowError on them; repr
# raises ValueError on the last, an int with more digits than Python writes
_HUGE_INTS = [pytest.param(10 ** 400, id="10**400"), pytest.param(-(10 ** 400), id="-10**400"),
              pytest.param(10 ** 5000, id="10**5000")]


# a bool is not a number, as load_topology holds for JSON true
@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), True, False,
                                 *_HUGE_INTS])
def test_add_vertex_bad_energy(bad):
    g = NetworkGraph()
    with pytest.raises(errors.SemanticError, match="^energy must be a positive finite Joule"):
        g.add_vertex("A", bad)


def test_add_vertex_empty_name():
    g = NetworkGraph()
    with pytest.raises(errors.SemanticError, match="^vertex name must be nonempty$"):
        g.add_vertex("", 1.0)


@pytest.mark.parametrize("name", [5, 1.5, None, b"n0", ("n", 0)])
def test_add_vertex_rejects_non_string_name(name):
    # export_json and the renderers take every id for a str
    g = NetworkGraph()
    with pytest.raises(errors.SemanticError, match="string"):
        g.add_vertex(name, 1.0)
    assert len(g) == 0 and export_json(g).endswith("[]\n}\n")


def test_add_edge_link_energy_min_rule():
    g = NetworkGraph()
    g.add_vertex("u", 5.0)
    g.add_vertex("v", 3.0)
    g.add_edge("u", "v", 2.0)
    assert g.link_energy("u", "v") == 3.0


def test_add_edge_symmetric_energies():
    g = NetworkGraph()
    g.add_vertex("u", 4.0)
    g.add_vertex("v", 4.0)
    g.add_edge("u", "v", 1.0)


def test_add_edge_unknown_vertex():
    g = NetworkGraph()
    g.add_vertex("A", 5.0)
    with pytest.raises(errors.SemanticError, match="^destination vertex does not exist: Z$"):
        g.add_edge("A", "Z", 1.0)
    with pytest.raises(errors.SemanticError, match="^source vertex does not exist: Z$"):
        g.add_edge("Z", "A", 1.0)
    with pytest.raises(errors.SemanticError, match="^unknown vertex: x$"):
        NetworkGraph().node("x")


def test_add_edge_self_loop():
    g = NetworkGraph()
    g.add_vertex("A", 5.0)
    with pytest.raises(errors.SemanticError, match="^self loop on A$"):
        g.add_edge("A", "A", 1.0)


@pytest.mark.parametrize("bad", [0.0, -2.0, float("inf"), float("nan"), True, False,
                                 *_HUGE_INTS])
def test_add_edge_nonpositive_distance(bad):
    g = NetworkGraph()
    g.add_vertex("A", 5.0)
    g.add_vertex("B", 5.0)
    with pytest.raises(errors.SemanticError, match="^distance must be a positive finite number"):
        g.add_edge("A", "B", bad)


def test_undirected_adjacency_symmetric():
    g = f4()
    for link in g.links:
        assert link_distance(g, link.u, link.v) == link_distance(g, link.v, link.u)


def test_diagonal_zero_absent_infinite():
    g = f4()
    for name in g.node_ids():
        assert link_distance(g, name, name) == 0.0
    assert math.isinf(link_distance(g, "A", "D"))
    assert math.isinf(link_distance(g, "A", "Z"))
    assert math.isinf(link_distance(g, "Z", "A"))
    assert link_distance(g, "Z", "Z") == 0.0


def test_add_edge_overwrites_existing_pair():
    g = NetworkGraph()
    g.add_vertex("A", 5.0)
    g.add_vertex("B", 3.0)
    g.add_edge("A", "B", 2.0)
    g.add_edge("B", "A", 7.0)
    assert len(g.links) == 1
    assert link_distance(g, "A", "B") == 7.0


def test_readd_overwrites_in_both_orders_and_keeps_link_order():
    g = NetworkGraph()
    for name in "ABCD":
        g.add_vertex(name, 1.0)
    g.add_edge("A", "B", 1.0)
    g.add_edge("C", "B", 2.0)
    first = g.links
    g.add_edge("B", "A", 3.0)  # a re-add in reversed order
    g.add_edge("C", "D", 4.0)  # a fresh pair after a re-add
    g.add_edge("B", "C", 5.0)
    g.add_edge("D", "C", 6.0)
    g.add_edge("A", "B", 7.0)
    assert [(l.u, l.v, l.distance) for l in g.links] == [
        ("A", "B", 7.0), ("C", "B", 5.0), ("C", "D", 6.0)]
    # a re-add keeps the pair's place and first orientation; an earlier read keeps its values
    assert first == (("A", "B", 1.0), ("C", "B", 2.0))
    assert [(l.u, l.v) for l in g.links[:2]] == [(l.u, l.v) for l in first]
    assert (link_distance(g, "A", "B"), link_distance(g, "B", "C"), link_distance(g, "D", "C")) == (7.0, 5.0, 6.0)


def test_readd_does_not_scan_links(monkeypatch):
    class Unscannable(list):
        def __iter__(self, *args):
            raise AssertionError("add_edge scanned the linked pairs")
        __contains__ = index = count = __iter__

    def unreadable(graph):
        raise AssertionError("add_edge read links")

    g = NetworkGraph()
    for i in range(50):
        g.add_vertex(f"n{i}", 1.0)
    for i in range(49):
        g.add_edge(f"n{i}", f"n{i + 1}", 1.0)
    g.add_edge("n1", "n0", 2.0)  # a re-add finds its pair through the adjacency
    g._pairs = Unscannable(g._pairs)
    with monkeypatch.context() as m:
        m.setattr(NetworkGraph, "links", property(unreadable))
        for k in range(100):
            g.add_edge("n48", "n49", float(k + 1))
            g.add_edge("n49", "n48", float(k + 2))
        g.add_edge("n0", "n49", 1.0)
        g.add_edge("n49", "n0", 9.0)
    g._pairs = list.copy(g._pairs)
    links = g.links
    assert len(links) == 50
    assert links[0] == ("n0", "n1", 2.0)
    assert links[48] == ("n48", "n49", 101.0)
    assert links[-1] == ("n0", "n49", 9.0)


@pytest.mark.referee
@given(adds=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 9)),
                     max_size=30))
def test_add_edge_matches_scan_reference(adds):
    """Every add_edge sequence stores what a scan for the pair's Link would."""
    g = NetworkGraph()
    for i in range(5):
        g.add_vertex(f"v{i}", 1.0)
    want = []  # [u, v, distance] in first-add order
    for i, j, d in adds:
        if i == j:
            continue
        u, v = f"v{i}", f"v{j}"
        g.add_edge(u, v, float(d))
        stored = next((w for w in want if {w[0], w[1]} == {u, v}), None)
        if stored is None:
            want.append([u, v, float(d)])
        else:
            stored[2] = float(d)
    assert [[l.u, l.v, l.distance] for l in g.links] == want
    for u, v, d in want:
        assert link_distance(g, u, v) == link_distance(g, v, u) == d
    # each link's distance is stored under both endpoints and nowhere else
    ids = g.node_ids()
    for u, v, d in want:
        i, j = ids.index(u), ids.index(v)
        assert g._adj[i][j] == g._adj[j][i] == d
    assert sum(map(len, g._adj)) == 2 * len(g.links)
    for i, row in enumerate(g._adj):
        assert g._neighbour_lists()[i] == list(row.items())


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


@pytest.mark.parametrize("n", [2.5, True])
def test_random_topology_needs_an_int_node_count(n):
    """A float count fails range(), and True, an int subclass, would build one node."""
    with pytest.raises(ValueError, match="^the node count must be an int$"):
        random_topology(n, 10.0, 5.0, 1.0, 2.0, seed=0)


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
    # a side that puts two nodes at one point, or a linked pair's distance at inf
    dict(n=10, side=5e-324, radio_range=40.0, energy_lo=2.0, energy_hi=5.0, seed=0),
    dict(n=6, side=1.7e308, radio_range=math.inf, energy_lo=2.0, energy_hi=5.0, seed=1),
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
    assert (g == 1) is False  # through NotImplemented, not an AttributeError


def test_load_minimal_two_node():
    doc = {"mode": "undirected",
           "nodes": [{"id": "a", "energy": 2.0}, {"id": "b", "energy": 3.0}],
           "edges": [{"u": "a", "v": "b", "distance": 1.5}]}
    g = load_topology(json.dumps(doc))
    assert len(g) == 2
    assert link_distance(g, "a", "b") == 1.5
    assert g.link_energy("a", "b") == 2.0


def test_load_unknown_endpoint_is_semantic_error():
    doc = {"nodes": [{"id": "a", "energy": 2.0}],
           "edges": [{"u": "a", "v": "X", "distance": 1.0}]}
    with pytest.raises(errors.SemanticError):
        load_topology(json.dumps(doc))


def test_load_malformed_json_is_parse_error():
    with pytest.raises(errors.ParseError):
        load_topology("{not json")
    with pytest.raises(errors.ParseError, match="not UTF-8"):
        load_topology(b"\xff")


def test_load_bytes_drop_one_leading_byte_order_mark():
    data = export_json(f4()).encode("utf-8")
    assert export_json(load_topology(b"\xef\xbb\xbf" + data)) == export_json(load_topology(data))
    with pytest.raises(errors.ParseError, match="invalid JSON"):
        load_topology(b"\xef\xbb\xbf" * 2 + data)  # a second mark is data
    with pytest.raises(errors.ParseError, match="not UTF-8"):
        load_topology(b"\xef\xbb\xbf\xff")


_CSV_PAIR = ("id,energy\r\na,1\r\nb,2\r\n", "u,v,distance\r\na,b,3\r\n")
_LOADERS = [(load_topology, (export_json(f4()),)), (load_topology_csv, _CSV_PAIR)]


@pytest.mark.parametrize("load, texts", _LOADERS)
def test_loaders_read_text_and_bytes_alike(load, texts):
    """Text and its UTF-8 bytes load alike, each with or without one leading
    byte-order mark; a second mark is data and fails."""
    want = export_json(load(*texts))
    for bom in ("", "\ufeff"):
        assert export_json(load(*(bom + t for t in texts))) == want
        for kind in (bytes, bytearray):
            assert export_json(load(*(kind((bom + t).encode("utf-8")) for t in texts))) == want
    twice = ["\ufeff\ufeff" + t for t in texts]
    for doc in (twice, [t.encode("utf-8") for t in twice]):
        with pytest.raises(errors.ParseError):
            load(*doc)
    with pytest.raises(errors.ParseError, match="^not UTF-8"):
        load(*(t.encode("utf-8") + b"\xff" for t in texts))


def test_csv_bytes_read_carriage_returns_as_newlines():
    g = load_topology_csv(b'id,energy\r\n"a\r\nb",1\r\nc,2\r\n',
                          b'u,v,distance\r\n"a\r\nb",c,1\r\n')
    assert g.node_ids() == ["a\nb", "c"]
    assert load_topology_csv('id,energy\n"a\r\nb",1\n', "u,v,distance\n").node_ids() == ["a\r\nb"]


@pytest.mark.parametrize("doc", [
    [],
    {"mode": "sideways", "nodes": []},
    {"mode": "directed", "nodes": []},
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
    {"nodes": [{"id": "a", "energy": 1.0}, {"id": "b", "energy": 1.0}],
     "edges": [["a", "b", 1.0]]},
    # a lone surrogate: no output could write it as UTF-8
    {"nodes": [{"id": "\ud800", "energy": 1.0}]},
])
def test_load_structural_errors(doc):
    with pytest.raises(errors.ParseError):
        load_topology(json.dumps(doc))


_TWO = [{"id": "a", "energy": 1.0}, {"id": "b", "energy": 1.0}]


@pytest.mark.parametrize("doc, message", [
    ({"nodes": _TWO, "links": [{"u": "a", "v": "b", "distance": 1.0}]},
     "unexpected top-level keys: ['links']"),
    ({"mode": "undirected", "nodes": _TWO, "edges": [], "Edges": [], "links": []},
     "unexpected top-level keys: ['Edges', 'links']"),
    ({"nodes": [{"id": "a", "energy": 1.0, "X": 1.0, "Y": 2.0}]},
     "unexpected node keys: ['X', 'Y']"),
    ({"nodes": [{"id": "a", "energy": 1.0, "x": 1.0, "y": 2.0, "X": 1.0}]},
     "unexpected node keys: ['X']"),
    ({"nodes": _TWO, "edges": [{"u": "a", "v": "b", "distance": 1.0, "energy": 1.0}]},
     "unexpected edge keys: ['energy']"),
])
def test_load_rejects_unknown_keys(doc, message):
    """Unknown keys fail at every level, as an unexpected CSV column does."""
    with pytest.raises(errors.ParseError) as raised:
        load_topology(json.dumps(doc))
    assert str(raised.value) == message


class _PlainFloat(float):
    """A float subclass: add_edge stores it as a plain float."""


@pytest.mark.parametrize("distance", [3, 2.5, _PlainFloat(0.25), 5e-324, 1.7976931348623157e308])
def test_add_edge_stores_each_accepted_distance_as_a_float(distance):
    g = NetworkGraph()
    g.add_vertex("A", 5.0)
    g.add_vertex("B", 5.0)
    g.add_edge("A", "B", distance)
    stored = link_distance(g, "A", "B")
    assert type(stored) is float and type(g.links[0].distance) is float
    assert stored == float(distance)


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


@pytest.mark.parametrize("position", [
    (math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0),
    pytest.param((10 ** 400, 0), id="(10**400, 0)"),
    pytest.param((0.0, -(10 ** 5000)), id="(0.0, -10**5000)"),
])
def test_add_vertex_rejects_non_finite_position(position):
    g = NetworkGraph()
    with pytest.raises(errors.SemanticError, match="position"):
        g.add_vertex("a", 1.0, position)
    assert len(g) == 0


@pytest.mark.parametrize("position", [(True, 0.0), (0.0, False), ("1", 2.0), (None, 1.0),
                                      (), (1.0,), (1.0, 2.0, 3.0), [1.0, 2.0, 3.0, 4.0]])
def test_add_vertex_rejects_anything_but_two_numbers_as_position(position):
    g = NetworkGraph()
    with pytest.raises(errors.SemanticError, match="position"):
        g.add_vertex("a", 1.0, position)
    assert len(g) == 0


def _linked_pair() -> NetworkGraph:
    g = NetworkGraph()
    g.add_vertex("a", 1.0)
    g.add_vertex("b", 2.0, (0.0, 1.0))
    g.add_edge("a", "b", 3.0)
    return g


# 10**5000 has more digits than str() or repr() will write
@pytest.mark.parametrize("call, message", [
    (lambda g: g.add_vertex("c", 1.0, 5), "^position must be two finite numbers, got 5$"),
    (lambda g: g.add_vertex("c", 1.0, {1: 2, 3: 4}), "^position must be two finite"),
    (lambda g: g.add_vertex("c", 1.0, b"ab"), "^position must be two finite"),
    (lambda g: g.add_vertex("c", 1.0, iter([1.0, 2.0])), "^position must be two finite"),
    (lambda g: g.add_vertex(10 ** 5000, 1.0),
     "^vertex name must be a string, got an int too long to write$"),
    (lambda g: g.add_edge("a", ["b"], 1.0), r"^destination vertex does not exist: \['b'\]$"),
    (lambda g: g.add_edge({"a"}, "b", 1.0), r"^source vertex does not exist: \{'a'\}$"),
    (lambda g: g.add_edge("a", 10 ** 5000, 1.0),
     "^destination vertex does not exist: an int too long to write$"),
    (lambda g: g.node(["a"]), r"^unknown vertex: \['a'\]$"),
    (lambda g: g.node(10 ** 5000), "^unknown vertex: an int too long to write$"),
], ids=["int-position", "dict-position", "bytes-position", "iterator-position", "huge-name",
        "list-destination", "set-source", "huge-destination", "list-node", "huge-node"])
def test_writers_and_lookups_reject_any_type_with_semantic_error(call, message):
    g = _linked_pair()
    before, text = copy.deepcopy(g), export_json(g)
    with pytest.raises(errors.SemanticError, match=message):
        call(g)
    assert g == before and g.links == before.links and export_json(g) == text
    for name in (["a"], {"a"}, {"a": 1}, 10 ** 5000, b"a"):
        assert g.get_index(name) == -1


# any value of any type, in any position of a call: numbers that are not
# finite or too large for a float, bools, bytes, containers and iterators;
# 10**5000 is built on each draw, since hypothesis cannot repr it in a strategy
_anything = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.builds(pow, st.just(10), st.just(5000))
    | st.text(max_size=2) | st.binary(max_size=2) | st.sampled_from(["a", "b"]),
    lambda inner: (st.lists(inner, max_size=3) | st.tuples(inner, inner)
                   | st.dictionaries(st.integers(0, 2), inner, max_size=2)
                   | st.lists(inner, max_size=2).map(iter)),
    max_leaves=4)
# two of three names are plain ids, so that many writes are stored
_names = st.sampled_from(["a", "b", "c", "d"]) | st.sampled_from(["a", "c", ""]) | _anything
_numbers = st.floats(0.5, 9.0) | st.integers(1, 9) | _anything
_positions = st.none() | st.tuples(_numbers, _numbers) | st.lists(_numbers, max_size=3) | _anything


@pytest.mark.referee
@given(data=st.data())
def test_a_write_is_stored_or_rejected_with_semantic_error_alone(data):
    """Every add_vertex or add_edge call, whatever the types of its arguments,
    either stores exactly its write or raises SemanticError and leaves the
    graph as it was; get_index and node answer for any name the same way."""
    g = _linked_pair()
    for _ in range(data.draw(st.integers(1, 12), label="calls")):
        before, text = copy.deepcopy(g), export_json(g)
        if data.draw(st.booleans(), label="add_vertex"):
            name = data.draw(_names, label="name")
            energy = data.draw(_numbers, label="energy")
            position = data.draw(_positions, label="position")
            names = [name]
            try:
                g.add_vertex(name, energy, position)
            except errors.SemanticError:
                stored = False
            else:
                stored = True
                xy = None if position is None else (float(position[0]), float(position[1]))
                assert g.nodes == (*before.nodes, Node(name, float(energy), xy))
                assert g._adj == [*before._adj, {}]
        else:
            names = [data.draw(_names, label="u"), data.draw(_names, label="v")]
            distance = data.draw(_numbers, label="distance")
            try:
                g.add_edge(*names, distance)
            except errors.SemanticError:
                stored = False
            else:
                stored = True
                i, j = map(g.get_index, names)
                adj = [dict(row) for row in before._adj]
                adj[i][j] = adj[j][i] = float(distance)
                assert g.nodes == before.nodes and g._adj == adj
        if not stored:
            assert g == before and g.links == before.links and export_json(g) == text
        for name in names:
            i = g.get_index(name)
            if i == -1:
                with pytest.raises(errors.SemanticError, match="^unknown vertex: "):
                    g.node(name)
            else:
                assert g.node(name) is g.nodes[i] and g.nodes[i].id == name
    assert load_topology(export_json(g)) == g


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
    assert link_distance(g, "a", "b") == 5.0


def test_csv_import_without_positions():
    g = load_topology_csv("id,energy\na,2\nb,3\n", "u,v,distance\na,b,1\n")
    assert g.node("a").position is None


def test_csv_bad_header():
    with pytest.raises(errors.ParseError):
        load_topology_csv("name,energy\na,2\n", "u,v,distance\n")
    with pytest.raises(errors.ParseError):
        load_topology_csv("id,energy\na,2\n", "u,v,weight\n")


@pytest.mark.parametrize("nodes, edges, named", [
    ("id,energy\na,1\nb,2\n", "u,v,distance\na,b,1,9\n", "line 2"),  # a decimal comma
    ("id,energy\na,1,5\nb,2\n", "u,v,distance\na,b,1\n", "line 2"),
    ("id,energy\na,1\nb,2,\n", "u,v,distance\na,b,1\n", "line 3"),  # an empty extra cell
    ("id,id,energy\na,b,1\n", "u,v,distance\n", "columns in header ['id', 'id',"),
    ("id,energy\na,1\nb,2\n", "u,v,v,distance\na,b,a,1\n", "columns in header ['u', 'v', 'v',"),
    ("id,energy\na,1\nb,1\n", "u,v,distance\na,b\n", "CSV line 2 has fewer cells"),
    ("id,energy\na\nb,1\n", "u,v,distance\n", "CSV line 2 has fewer cells"),
    ("id,energy,x,y\na,1,0,0\nb,1\n", "u,v,distance\n", "CSV line 3 has fewer cells"),
], ids=["edge-cell", "node-cell", "empty-cell", "node-column", "edge-column",
        "edge-short", "node-short", "position-short"])
def test_csv_rejects_extra_cells_and_duplicate_columns(nodes, edges, named):
    """Every cell lines up with its column: a row longer or shorter than its
    header, or a header naming a column twice, is a ParseError that names the
    line or the column."""
    with pytest.raises(errors.ParseError, match=re.escape(named)):
        load_topology_csv(nodes, edges)


def test_csv_rejects_a_lone_surrogate_id():
    with pytest.raises(errors.ParseError, match="not valid Unicode text"):
        load_topology_csv("id,energy\n\ud800,1\n", "u,v,distance\n")


def test_csv_bad_number():
    with pytest.raises(errors.ParseError):
        load_topology_csv("id,energy\na,squid\n", "u,v,distance\n")


def test_csv_unknown_endpoint():
    with pytest.raises(errors.SemanticError):
        load_topology_csv("id,energy\na,2\n", "u,v,distance\na,zz,1\n")


def test_link_energy_recomputed_not_cached():
    # a node cannot change, so a drained battery is a graph built with less energy
    for energy, expected in [(5.0, 3.0), (1.0, 1.0)]:
        g = NetworkGraph()
        g.add_vertex("A", energy)
        g.add_vertex("B", 3.0)
        g.add_edge("A", "B", 1.0)
        assert g.link_energy("A", "B") == expected


def test_nodes_are_frozen():
    g = f4()
    for node in g.nodes:
        for field in dataclasses.fields(node):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, field.name, 0.0)
    assert g == f4()


def test_a_built_graph_cannot_be_changed_but_through_its_writers():
    """nodes and links are read-only copies: no caller can slip in a node
    add_vertex would reject, or change a distance but through add_edge."""
    g = f4()
    with pytest.raises(TypeError):
        g.nodes[0] = Node("A", 0.0)
    for name in ("nodes", "links"):
        with pytest.raises(AttributeError):
            setattr(g, name, [])
    link = g.links[0]
    for field in link._fields:
        with pytest.raises(AttributeError):
            setattr(link, field, 0.0)
    assert g == f4()
    before = g.links
    g.add_edge("B", "A", 7.0)
    assert before[0] == ("A", "B", 2.0)
    assert g.links[0] == ("A", "B", 7.0) and g.links[1:] == before[1:]
    assert g != f4()


def test_restricted_subgraph():
    g = f4()
    sub = restricted(g, ["A", "B", "D"], energies={"A": 1.5, "B": 2.5, "D": 3.5})
    assert sub.node_ids() == ["A", "B", "D"]
    assert sub.energy("A") == 1.5
    assert {(l.u, l.v) for l in sub.links} == {("A", "B"), ("B", "D")}
    # the original is untouched
    assert g.energy("A") == 5.0 and len(g.links) == 5


def test_with_energies_keeps_structure():
    g = f4()
    view = with_energies(g, {n.id: 9.0 for n in g.nodes})
    assert view.node_ids() == g.node_ids()
    assert all(n.energy == 9.0 for n in view.nodes)
    assert view.links == g.links
    assert view._adj == g._adj


@st.composite
def _readded_graphs(draw):
    """A graphgen graph, some of whose links are added again with new distances.

    Returns the graph and its construction history as (u, v, distance) in
    add_edge order; a re-add is half the time in the reverse orientation.
    """
    g = random_connected_graph(random.Random(draw(st.integers(0, 2 ** 32))),
                               n=draw(st.integers(1, 9)))
    history = [(l.u, l.v, l.distance) for l in g.links]
    if history:
        for u, v, _ in draw(st.lists(st.sampled_from(history), max_size=6)):
            if draw(st.booleans()):
                u, v = v, u
            d = float(draw(st.integers(1, 20)))
            g.add_edge(u, v, d)
            history.append((u, v, d))
    return g, history


@pytest.mark.referee
@given(graph_history=_readded_graphs(), data=st.data())
def test_restricted_matches_copy_rebuilt_through_add_edge(graph_history, data):
    g, history = graph_history
    keep = data.draw(st.lists(st.sampled_from(g.node_ids()), unique=True), label="keep")
    kept = set(keep)
    rebuilt = NetworkGraph()
    for n in g.nodes:
        if n.id in kept:
            rebuilt.add_vertex(n.id, n.energy, n.position)
    for u, v, d in history:
        if u in kept and v in kept:
            rebuilt.add_edge(u, v, d)
    sub = restricted(g, keep)
    assert sub == rebuilt
    assert sub._index == rebuilt._index
    assert [list(a.items()) for a in sub._adj] == [list(a.items()) for a in rebuilt._adj]
    assert sub._neighbour_lists() == rebuilt._neighbour_lists()
    assert ([(l.u, l.v, l.distance) for l in sub.links]
            == [(l.u, l.v, l.distance) for l in rebuilt.links])
    # the copy owns its distances, so re-adding a pair on it cannot change the source
    if sub.links:
        links, adj, text = g.links, [dict(row) for row in g._adj], export_json(g)
        u, v, d = data.draw(st.sampled_from(sub.links), label="readded")
        sub.add_edge(v, u, d + 1.0)
        assert link_distance(sub, u, v) == d + 1.0
        assert g.links == links and g._adj == adj and export_json(g) == text
    victim = data.draw(st.sampled_from(g.node_ids()), label="victim")
    for bad in (0.0, math.nan):
        with pytest.raises(errors.SemanticError, match="^energy must be"):
            with_energies(g, {v: bad if v == victim else 1.0 for v in g.node_ids()})


@given(e1=st.floats(0.001, 1e6), e2=st.floats(0.001, 1e6), d=st.floats(0.001, 1e6))
def test_link_energy_is_min_of_endpoints(e1, e2, d):
    g = NetworkGraph()
    g.add_vertex("u", e1)
    g.add_vertex("v", e2)
    g.add_edge("u", "v", d)


LOADER_ERRORS = (errors.ParseError, errors.SemanticError)

_json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                 | st.integers(min_value=2 ** 1024)  # too large for a float
                 | st.text(max_size=4) | st.sampled_from(["a", "b", "undirected", "directed"]))
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)


def _record(keys):
    """A dict that often carries the keys a node or edge needs, with any JSON values."""
    return st.dictionaries(st.sampled_from(keys) | st.text(max_size=2), _json_values,
                           max_size=len(keys) + 1)


_topology_docs = st.fixed_dictionaries(
    {},
    optional={"mode": _json_values | st.sampled_from(["undirected", "directed"]),
              "nodes": st.lists(_record(["id", "energy", "x", "y"]), max_size=4) | _json_values,
              "edges": st.lists(_record(["u", "v", "distance"]), max_size=4) | _json_values})


def _loads_or_rejects(load, *args):
    try:
        graph = load(*args)
    except LOADER_ERRORS:
        return
    assert isinstance(graph, NetworkGraph)


@given(text=st.text())
@example(text="[" * 100_000)
@example(text="1" * 5000)
def test_load_topology_fuzz_text(text):
    _loads_or_rejects(load_topology, text)
    _loads_or_rejects(load_topology, text.encode("utf-8", "surrogatepass"))


@given(doc=_topology_docs | _json_values)
@example(doc={"nodes": [{"id": "a", "energy": 10 ** 400}]})
def test_load_topology_fuzz_documents(doc):
    _loads_or_rejects(load_topology, json.dumps(doc))


_csv_cell = st.text(max_size=4) | st.sampled_from(["1", "2.5", "-1", "0", "nan", "inf",
                                                   "1e999", "a", "b", "", "a\rb"])


def _csv_text(columns):
    header = st.lists(st.sampled_from(columns) | st.text(max_size=3), max_size=5).map(
        lambda cols: ",".join(cols))
    rows = st.lists(st.lists(_csv_cell, max_size=5).map(lambda cells: ",".join(cells)),
                    max_size=4)
    return st.tuples(header, rows).map(lambda hr: "\n".join([hr[0], *hr[1]]) + "\n")


@given(nodes=st.text() | _csv_text(["id", "energy", "x", "y"]),
       edges=st.text() | _csv_text(["u", "v", "distance"]))
@example(nodes="id,energy\na\rb,1\n", edges="u,v,distance\n")
@example(nodes='id,energy\n"' + "a" * 200_000 + '",1\n', edges="u,v,distance\n")
def test_load_topology_csv_fuzz(nodes, edges):
    _loads_or_rejects(load_topology_csv, nodes, edges)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def _exportable_graphs(draw, ids=st.text(min_size=1, max_size=4), energies=_positive):
    g = NetworkGraph()
    names = draw(st.lists(ids, unique=True, max_size=6))
    for name in names:
        g.add_vertex(name, draw(energies), draw(st.none() | st.tuples(_finite, _finite)))
    for _ in range(draw(st.integers(0, 2 * len(names))) if len(names) > 1 else 0):
        u, v = draw(st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True))
        g.add_edge(u, v, draw(_positive))
    return g


@given(g=_exportable_graphs())
def test_export_load_export_is_byte_identical(g):
    text = export_json(g)
    again = load_topology(text)
    assert again == g
    assert export_json(again) == text


def _export_json_via_dumps(graph):
    """The canonical document as json.dumps(indent=2) writes it: the referee for export_json."""
    nodes = []
    for n in graph.nodes:
        rec: dict = {"id": n.id, "energy": n.energy}
        if n.position is not None:
            rec["x"], rec["y"] = n.position
        nodes.append(rec)
    edges = [
        {"u": link.u, "v": link.v, "distance": link.distance}
        for link in sorted(graph.links, key=lambda l: (l.u, l.v))
    ]
    return json.dumps({"mode": "undirected", "nodes": nodes, "edges": edges}, indent=2) + "\n"


# characters json escapes, or writes as they are where a hand-made writer might not:
# quote, backslash, slash, DEL, the two line separators, C0 and C1 controls, lone
# surrogates, astral characters and any other code point
_hostile_ids = st.text(
    st.sampled_from('"\\/\x7f\u2028\u2029')
    | st.characters(max_codepoint=0x1F)
    | st.characters(min_codepoint=0x80, max_codepoint=0x9F)
    | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF)
    | st.characters(min_codepoint=0x10000)
    | st.characters(),
    min_size=1, max_size=4)


def _edgeless_graph():
    g = NetworkGraph()
    g.add_vertex("\ud800\u2028", 1)
    g.add_vertex('"\\', 2.5, (-0.0, 1e-320))
    return g


@pytest.mark.referee
@given(g=_exportable_graphs(_hostile_ids, energies=_positive | st.integers(1, 2 ** 70)))
@example(g=NetworkGraph())
@example(g=_edgeless_graph())
def test_export_json_matches_json_dumps(g):
    assert export_json(g) == _export_json_via_dumps(g)


def _pair_loop_links(g, radio_range):
    """(u, v, distance) in the order random_topology's pair loop adds them,
    read through g.nodes for every pair."""
    links = []
    for i in range(len(g)):
        for j in range(i + 1, len(g)):
            a, b = g.nodes[i], g.nodes[j]
            d = math.dist(a.position, b.position)
            if d <= radio_range:
                links.append((a.id, b.id, d))
    return links


@pytest.mark.referee
@given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 40),
       radio_range=st.floats(1.0, 150.0) | st.just(math.inf) | st.none())
@example(seed=1, n=40, radio_range=math.inf)
@example(seed=2, n=40, radio_range=20.0)
@example(seed=3, n=40, radio_range=None)
def test_random_topology_links_match_pair_loop(seed, n, radio_range):
    if radio_range is None:
        # exactly one pair's separation, which the range includes
        complete = random_topology(n, 100.0, math.inf, 2.0, 5.0, seed)
        radio_range = complete.links[len(complete.links) // 2].distance if complete.links else 1.0
    g = random_topology(n, 100.0, radio_range, 2.0, 5.0, seed)
    assert [(l.u, l.v, l.distance) for l in g.links] == _pair_loop_links(g, radio_range)
