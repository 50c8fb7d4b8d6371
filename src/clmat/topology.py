"""Sensor-network graph model: nodes with battery energies, weighted radio links."""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .errors import ParseError, SemanticError


@dataclass(frozen=True)
class Node:
    """A sensor: unique name, battery in Joules, optional planar position.

    Frozen: assigning to a field raises dataclasses.FrozenInstanceError.
    """

    id: str
    energy: float
    position: tuple[float, float] | None = None


class Link(NamedTuple):
    """A read-only copy of a stored link: endpoints in first-add orientation, and distance."""

    u: str
    v: str
    distance: float


class NetworkGraph:
    """Node table plus a weighted undirected adjacency keyed by insertion index.

    Each link's distance is stored once, as _adj[i][j] and _adj[j][i], so a
    tree searched outward from its root also carries the readings back up
    to it; names map to insertion indices through _index. _pairs lists each
    linked (i, j) once, in first-add order and orientation. nodes and links
    are tuples built on each read, so nothing outside this module can
    change a built graph.
    The searches read each row as a stored list of (neighbour, distance)
    pairs in the row's order, built from _adj on first use. add_vertex and
    add_edge are the only writers of the node table, _adj, _pairs and those
    lists, and each resets the lists to None.
    Construction is single-writer; a fully built graph is immutable and may
    be read from many computations at once (two computations that both
    build the lists first build equal ones).
    """

    def __init__(self):
        self._nodes: list[Node] = []
        self._index: dict[str, int] = {}
        self._adj: list[dict[int, float]] = []  # neighbour index -> link distance
        self._pairs: list[tuple[int, int]] = []
        # _adj[i]'s (neighbour, link distance) pairs by index, built on the first search
        self._lists: list[list[tuple[int, float]]] | None = None

    @property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(self._nodes)

    @property
    def links(self) -> tuple[Link, ...]:
        """Every link once, in first-add order and orientation."""
        nodes, adj = self._nodes, self._adj
        return tuple(Link(nodes[i].id, nodes[j].id, adj[i][j]) for i, j in self._pairs)

    def __len__(self) -> int:
        return len(self._nodes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NetworkGraph):
            return NotImplemented
        return self._nodes == other._nodes and self._adj == other._adj

    def node_ids(self) -> list[str]:
        return [n.id for n in self._nodes]

    def node(self, name: str) -> Node:
        i = self.get_index(name)
        if i == -1:
            raise SemanticError(f"unknown vertex: {_shown(name, str)}")
        return self._nodes[i]

    def energy(self, name: str) -> float:
        return self.node(name).energy

    def get_index(self, name: str) -> int:
        """Insertion position of a vertex, or -1 when absent."""
        try:
            return self._index.get(name, -1)
        except TypeError:  # an unhashable name is no vertex's
            return -1

    def link_energy(self, u: str, v: str) -> float:
        """Min endpoint energy, computed from current node energies."""
        return min(self.energy(u), self.energy(v))

    def add_vertex(self, name: str, energy: float, position=None) -> None:
        """Store a vertex, or raise SemanticError and store nothing: name is a new
        nonempty str, energy a positive finite number and position None or a
        tuple or list of two finite numbers."""
        if not isinstance(name, str):
            raise SemanticError(f"vertex name must be a string, got {_shown(name)}")
        if not name:
            raise SemanticError("vertex name must be nonempty")
        if self.get_index(name) != -1:
            raise SemanticError(f"vertex already exists: {name}")
        if not (_is_finite(energy) and energy > 0):
            raise SemanticError(
                f"energy must be a positive finite Joule value, got {_shown(energy)}")
        if position is not None:
            if not (isinstance(position, (tuple, list)) and len(position) == 2
                    and all(_is_finite(c) for c in position)):
                raise SemanticError(f"position must be two finite numbers, got {_shown(position)}")
            position = (float(position[0]), float(position[1]))
        self._index[name] = len(self._nodes)
        self._nodes.append(Node(name, float(energy), position))
        self._adj.append({})
        self._lists = None

    def add_edge(self, u: str, v: str, distance: float) -> None:
        """Store a link between existing vertices, or raise SemanticError and store nothing.

        The distance, a positive finite number, goes under both endpoints in
        the adjacency; a fresh pair also joins the end of links, as (u, v).
        Re-adding a pair, in either order, overwrites its distance in O(1)
        and keeps the order of links and the pair's first orientation.
        """
        try:
            i, j = self._index.get(u, -1), self._index.get(v, -1)
        except TypeError:  # an unhashable name is no vertex's
            i, j = self.get_index(u), self.get_index(v)
        if i == -1:
            raise SemanticError(f"source vertex does not exist: {_shown(u, str)}")
        if j == -1:
            raise SemanticError(f"destination vertex does not exist: {_shown(v, str)}")
        if i == j:
            raise SemanticError(f"self loop on {u}")
        # a positive finite float, what loaders and generators pass, needs no other test
        if not (type(distance) is float and 0.0 < distance < math.inf):
            if not (_is_finite(distance) and distance > 0):
                raise SemanticError(
                    f"distance must be a positive finite number, got {_shown(distance)}")
            distance = float(distance)
        if j not in self._adj[i]:
            self._pairs.append((i, j))
        self._adj[i][j] = self._adj[j][i] = distance
        self._lists = None  # a re-added pair's stored tuple holds its old distance

    def _neighbour_lists(self) -> list[list[tuple[int, float]]]:
        """Each node's (neighbour index, distance) pairs in adjacency order, built on first use."""
        lists = self._lists
        if lists is None:
            lists = self._lists = [list(row.items()) for row in self._adj]
        return lists


def random_topology(n: int, side: float, radio_range: float,
                    energy_lo: float, energy_hi: float, seed: int) -> NetworkGraph:
    """Uniform placement on a side x side square; link every pair within radio range.

    Link distances are the Euclidean separations; node energies are uniform
    in [energy_lo, energy_hi]. Fully determined by the seed. A disconnected
    result is valid. An n that is not an int (a bool is not one) or is
    below 1 raises ValueError. So does a side so small that two nodes land
    on the same point, or so large that a linked pair's distance overflows
    to inf, since no link may have such a distance.
    """
    if not _is_int(n):
        raise ValueError("the node count must be an int")
    if n < 1:
        raise ValueError("need at least one node")
    # written as "not x > 0" so that NaN fails too; an infinite range links every pair
    if not (math.isfinite(side) and side > 0) or not radio_range > 0:
        raise ValueError("side must be positive and finite, radio_range positive")
    if not (0 < energy_lo <= energy_hi and math.isfinite(energy_hi)):
        raise ValueError("need 0 < energy_lo <= energy_hi < inf")
    rng = random.Random(seed)
    g = NetworkGraph()
    for i in range(n):
        x = rng.uniform(0, side)
        y = rng.uniform(0, side)
        energy = rng.uniform(energy_lo, energy_hi)
        g.add_vertex(f"n{i}", energy, (x, y))
    ids = g.node_ids()
    positions = [node.position for node in g.nodes]
    dist, add_edge = math.dist, g.add_edge
    try:
        for i in range(n):
            a, pa = ids[i], positions[i]
            for j in range(i + 1, n):
                d = dist(pa, positions[j])
                if d <= radio_range:
                    add_edge(a, ids[j], d)
    except SemanticError:
        if d == 0:
            raise ValueError(f"nodes {a} and {ids[j]} are at the same point: "
                             f"side {side!r} is too small to separate them") from None
        raise ValueError(f"the distance between nodes {a} and {ids[j]} overflows to inf: "
                         f"side {side!r} is too large") from None
    return g


def export_json(graph: NetworkGraph) -> str:
    """Canonical topology document: nodes in insertion order, edges sorted by (u, v).

    The text is exactly json.dumps(doc, indent=2) plus a newline, where doc
    is {"mode": "undirected", "nodes": [...], "edges": [...]}, each node
    {"id", "energy"} followed by "x", "y" when it has a position and each
    edge {"u", "v", "distance"}. It is written from templates because
    json.dumps never uses its C encoder when indent is set: it walks every
    node and edge through Python generators, several times slower. Byte
    identity relies on two facts: ids are quoted by encode_basestring_ascii,
    the function json.dumps itself uses, and add_vertex and add_edge store
    every energy, coordinate and distance as a finite float, whose repr is
    how json writes it.
    """
    ids, adj = graph.node_ids(), graph._adj
    quoted = list(map(encode_basestring_ascii, ids))
    nodes = []
    for q, n in zip(quoted, graph._nodes):
        if n.position is None:
            nodes.append(f'    {{\n      "id": {q},\n      "energy": {n.energy!r}\n    }}')
        else:
            x, y = n.position
            nodes.append(f'    {{\n      "id": {q},\n      "energy": {n.energy!r},\n'
                         f'      "x": {x!r},\n      "y": {y!r}\n    }}')
    edges = [
        f'    {{\n      "u": {quoted[i]},\n      "v": {quoted[j]},\n'
        f'      "distance": {adj[i][j]!r}\n    }}'
        for i, j in sorted(graph._pairs, key=lambda p: (ids[p[0]], ids[p[1]]))
    ]
    return (f'{{\n  "mode": "undirected",\n  "nodes": {_json_list(nodes)},\n'
            f'  "edges": {_json_list(edges)}\n}}\n')


def _json_list(items: list[str]) -> str:
    """A list of rendered items at the second indent level, as indent=2 writes it."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def _text(data) -> str:
    """An input as text: bytes or a bytearray decoded as strict UTF-8, \\r\\n and
    \\r read as \\n; one leading byte-order mark dropped from bytes and text alike."""
    if isinstance(data, (bytes, bytearray)):
        try:
            return data.decode("utf-8-sig").replace("\r\n", "\n").replace("\r", "\n")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: {exc}") from exc
    return data[1:] if data.startswith("\ufeff") else data


def _require(cond, msg: str) -> None:
    if not cond:
        raise ParseError(msg)


def _is_number(x) -> bool:
    """JSON number test; bool is an int subclass but JSON true is not a number."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x) -> bool:
    """A count or seed test: an int, and, as for _is_number, not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_finite(x) -> bool:
    """A number that converts to a finite float; an int too large for one does not."""
    try:
        return _is_number(x) and math.isfinite(x)
    except OverflowError:
        return False


def _shown(x, text=repr) -> str:
    """text(x) for an error message, or a stand-in when x is or holds an int
    with more digits than str or repr will write (sys.get_int_max_str_digits())."""
    try:
        return text(x)
    except ValueError:
        return "an int too long to write"


def load_topology(data) -> NetworkGraph:
    """Build a graph from the JSON topology format.

    The optional "mode" key may only be "undirected". Structural problems,
    an unknown key at the top level, in a node or in an edge included,
    raise ParseError; well-formed content that contradicts itself
    (duplicate ids, unknown endpoints, nonpositive energies or distances)
    raises SemanticError, from add_vertex and add_edge themselves. Link
    energies are always recomputed from node energies, never read from the
    file. data is text or bytes, read by _text.
    """
    try:
        doc = json.loads(_text(data))
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and over-long integer literals;
        # RecursionError comes from arrays or objects nested too deeply
        raise ParseError(f"invalid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "top level must be an object")
    _require(doc.get("mode", "undirected") == "undirected", 'mode must be "undirected"')
    nodes = doc.get("nodes")
    edges = doc.get("edges", [])
    _require(isinstance(nodes, list), '"nodes" must be a list')
    _require(isinstance(edges, list), '"edges" must be a list')
    if len(doc) != 1 + ("mode" in doc) + ("edges" in doc):
        raise _unknown_keys(doc, ("mode", "nodes", "edges"), "top-level")
    g = NetworkGraph()
    for rec in nodes:
        _require(isinstance(rec, dict), "node entries must be objects")
        _require(isinstance(rec.get("id"), str), 'each node needs a string "id"')
        _require(_is_number(rec.get("energy")), 'each node needs a numeric "energy"')
        has_x, has_y = "x" in rec, "y" in rec
        _require(has_x == has_y, "a node position needs both x and y")
        pos = None
        if has_x:
            _require(_is_number(rec["x"]) and _is_number(rec["y"]),
                     "x and y must be numbers")
            pos = (rec["x"], rec["y"])
        if len(rec) != (4 if has_x else 2):
            raise _unknown_keys(rec, ("id", "energy", "x", "y"), "node")
        g.add_vertex(_text_id(rec["id"]), rec["energy"], pos)
    add_edge = g.add_edge
    for rec in edges:
        # each field is tested once, inline: this loop runs once per link
        if not isinstance(rec, dict):
            raise ParseError("edge entries must be objects")
        u, v, d = rec.get("u"), rec.get("v"), rec.get("distance")
        if not (isinstance(u, str) and isinstance(v, str)):
            raise ParseError('each edge needs string "u" and "v"')
        if type(d) is not float and not _is_number(d):
            raise ParseError('each edge needs a numeric "distance"')
        if len(rec) != 3:  # u, v and distance are all present by now
            raise _unknown_keys(rec, ("u", "v", "distance"), "edge")
        add_edge(u, v, d)
    return g


def _unknown_keys(rec: dict, allowed: tuple, where: str) -> ParseError:
    """The ParseError for a record holding keys outside allowed.

    Callers test by length, once the keys they require are read, so a
    record without unknown keys costs them one comparison.
    """
    return ParseError(f"unexpected {where} keys: {sorted(set(rec) - set(allowed))}")


def _text_id(name: str) -> str:
    """name, unless it holds a lone surrogate, which no UTF-8 output can write."""
    if not name.isascii() and name.encode("utf-8", "replace").decode("utf-8") != name:
        raise ParseError(f"node id {name!r} is not valid Unicode text")
    return name


def _num(text: str, field: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ParseError(f"bad number for {field}: {text!r}") from exc


def _read_csv(text: str, required: tuple, optional: tuple = ()) -> list[dict]:
    """CSV rows as dicts; a duplicated column or a row not as long as its header is a ParseError."""
    reader = csv.DictReader(io.StringIO(text))
    try:
        names = reader.fieldnames or []
        rows = []
        for row in reader:
            if None in row:  # DictReader files the cells beyond the header under None
                raise ParseError(f"CSV line {reader.line_num} has more cells than its header")
            if None in row.values():  # and fills the missing ones with None
                raise ParseError(f"CSV line {reader.line_num} has fewer cells than its header")
            rows.append(row)
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}") from exc
    allowed = set(required) | set(optional)
    _require(set(required) <= set(names),
             f"CSV header must include {','.join(required)}")
    _require(set(names) <= allowed,
             f"unexpected CSV columns: {sorted(set(names) - allowed)}")
    _require(len(set(names)) == len(names), f"duplicate CSV columns in header {names}")
    return rows


def load_topology_csv(nodes_csv, edges_csv) -> NetworkGraph:
    """Edge-list import: nodes as `id,energy[,x,y]`, edges as `u,v,distance`;
    each is text or bytes, read by _text. Errors as for load_topology."""
    node_rows = _read_csv(_text(nodes_csv), ("id", "energy"), optional=("x", "y"))
    edge_rows = _read_csv(_text(edges_csv), ("u", "v", "distance"))
    g = NetworkGraph()
    for row in node_rows:
        pos = None
        x, y = row.get("x"), row.get("y")
        if x or y:
            _require(bool(x) and bool(y), "a node position needs both x and y")
            pos = (_num(x, "x"), _num(y, "y"))
        g.add_vertex(_text_id(row["id"]), _num(row["energy"], "energy"), pos)
    for row in edge_rows:
        g.add_edge(row["u"], row["v"], _num(row["distance"], "distance"))
    return g
