"""Sensor-network graph model: nodes with battery energies, weighted radio links."""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .errors import (
    DuplicateVertex,
    InvalidEnergy,
    NonPositiveDistance,
    ParseError,
    SelfLoop,
    SemanticError,
    UnknownVertex,
)


@dataclass
class Node:
    """A sensor: unique name, battery in Joules, optional planar position."""

    id: str
    energy: float
    position: tuple[float, float] | None = None


@dataclass
class Link:
    """A stored radio link, usable in both directions."""

    u: str
    v: str
    distance: float


class NetworkGraph:
    """Node table plus a weighted undirected adjacency keyed by insertion index.

    distance(u, u) is 0 and absent pairs are infinitely far. Each link is
    stored once in links and under both endpoints in the adjacency, so a
    tree searched outward from its root also carries the readings back up
    to it. _adj[i] maps the insertion index of each neighbour of node i to
    the link distance; names map to indices through _index.
    The searches read each row as a stored list of (neighbour, distance)
    pairs in the row's order, built from _adj on first use. add_vertex and
    add_edge are the only writers of _adj, links and those lists, and each
    resets the lists to None.
    Construction is single-writer; a fully built graph is treated as
    immutable and may be read from many computations at once (two
    computations that both build the lists first build equal ones).
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self.links: list[Link] = []
        self._index: dict[str, int] = {}
        self._adj: list[dict[int, float]] = []
        # stored Link by (lower, higher) endpoint index, built on the first re-add
        self._pair_links: dict[tuple[int, int], Link] | None = None
        # list(_adj[i].items()) by index, built on the first search
        self._lists: list[list[tuple[int, float]]] | None = None

    def __len__(self) -> int:
        return len(self.nodes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NetworkGraph):
            return NotImplemented
        return (
            [(n.id, n.energy, n.position) for n in self.nodes]
            == [(n.id, n.energy, n.position) for n in other.nodes]
            and self._link_set() == other._link_set()
        )

    def _link_set(self) -> set[tuple[str, str, float]]:
        return {(min(l.u, l.v), max(l.u, l.v), l.distance) for l in self.links}

    def node_ids(self) -> list[str]:
        return [n.id for n in self.nodes]

    def node(self, name: str) -> Node:
        i = self._index.get(name)
        if i is None:
            raise UnknownVertex(f"unknown vertex: {name}")
        return self.nodes[i]

    def energy(self, name: str) -> float:
        return self.node(name).energy

    def get_index(self, name: str) -> int:
        """Insertion position of a vertex, or -1 when absent."""
        return self._index.get(name, -1)

    def distance(self, u: str, v: str) -> float:
        """Stored link distance; 0 on the diagonal, +inf for absent pairs."""
        if u == v:
            return 0.0
        i, j = self._index.get(u), self._index.get(v)
        if i is None or j is None:
            return math.inf
        return self._adj[i].get(j, math.inf)

    def link_energy(self, u: str, v: str) -> float:
        """Min endpoint energy, computed from current node energies."""
        return min(self.energy(u), self.energy(v))

    def add_vertex(self, name: str, energy: float, position=None) -> None:
        if not isinstance(name, str):
            raise ValueError(f"vertex name must be a string, got {name!r}")
        if not name:
            raise ValueError("vertex name must be nonempty")
        if self.get_index(name) != -1:
            raise DuplicateVertex(f"vertex already exists: {name}")
        if not (_is_finite(energy) and energy > 0):
            raise InvalidEnergy(
                f"energy must be a positive finite Joule value, got {_shown(energy)}")
        if position is not None:
            if not (len(position) == 2 and all(_is_finite(c) for c in position)):
                raise ValueError(f"position must be two finite numbers, got {_shown(position)}")
            position = (float(position[0]), float(position[1]))
        self._index[name] = len(self.nodes)
        self.nodes.append(Node(name, float(energy), position))
        self._adj.append({})
        self._lists = None

    def add_edge(self, u: str, v: str, distance: float) -> None:
        """Store a link between existing vertices.

        Re-adding an existing pair, in either order, overwrites its distance
        in the stored Link and in both adjacency entries; links keeps its
        order. The first re-add indexes the links by endpoint pair, so a
        re-add finds its Link in O(1), and a graph never re-added to, such
        as every generated one, builds no index.
        """
        i, j = self._index.get(u), self._index.get(v)
        if i is None:
            raise UnknownVertex(f"source vertex does not exist: {u}")
        if j is None:
            raise UnknownVertex(f"destination vertex does not exist: {v}")
        if u == v:
            raise SelfLoop(f"self loop on {u}")
        if not (_is_finite(distance) and distance > 0):
            raise NonPositiveDistance(
                f"distance must be a positive finite number, got {_shown(distance)}")
        distance = float(distance)
        if j not in self._adj[i]:
            link = Link(u, v, distance)
            self.links.append(link)
            if self._pair_links is not None:
                self._pair_links[_pair(i, j)] = link
        else:
            self._links_by_pair()[_pair(i, j)].distance = distance
        self._adj[i][j] = distance
        self._adj[j][i] = distance
        self._lists = None  # a re-added pair's stored tuple holds its old distance

    def _neighbour_lists(self) -> list[list[tuple[int, float]]]:
        """Each node's (neighbour index, distance) pairs in adjacency order, built on first use."""
        lists = self._lists
        if lists is None:
            lists = self._lists = [list(a.items()) for a in self._adj]
        return lists

    def _links_by_pair(self) -> dict[tuple[int, int], Link]:
        """Each stored Link by its endpoint pair, indexed on first use."""
        if self._pair_links is None:
            index = self._index
            self._pair_links = {_pair(index[l.u], index[l.v]): l for l in self.links}
        return self._pair_links

    def restricted(self, keep, energies=None) -> NetworkGraph:
        """Copy containing only the kept nodes and links among them.

        The copy is built through add_vertex and add_edge in the source's
        node and link order, so its adjacency rows, links and distances
        keep the source's order. energies, when given, maps node id to the
        energy the copy should carry (used to feed residual energies back
        in as node energies).
        """
        keep_set = set(keep)
        g = NetworkGraph()
        for n in self.nodes:
            if n.id in keep_set:
                e = energies[n.id] if energies is not None else n.energy
                g.add_vertex(n.id, e, n.position)
        for l in self.links:
            if l.u in keep_set and l.v in keep_set:
                g.add_edge(l.u, l.v, l.distance)
        return g

    def with_energies(self, energies) -> NetworkGraph:
        return self.restricted(self.node_ids(), energies)


def _pair(i: int, j: int) -> tuple[int, int]:
    """An unordered pair of node indices as (lower, higher)."""
    return (i, j) if i < j else (j, i)


def random_topology(n: int, side: float, radio_range: float,
                    energy_lo: float, energy_hi: float, seed: int) -> NetworkGraph:
    """Uniform placement on a side x side square; link every pair within radio range.

    Link distances are the Euclidean separations; node energies are uniform
    in [energy_lo, energy_hi]. Fully determined by the seed. A disconnected
    result is valid.
    """
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
    for i in range(n):
        a, pa = ids[i], positions[i]
        for j in range(i + 1, n):
            d = dist(pa, positions[j])
            if d <= radio_range:
                add_edge(a, ids[j], d)
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
    quote = encode_basestring_ascii
    nodes = []
    for n in graph.nodes:
        if n.position is None:
            nodes.append(f'    {{\n      "id": {quote(n.id)},\n      "energy": {n.energy!r}\n    }}')
        else:
            x, y = n.position
            nodes.append(f'    {{\n      "id": {quote(n.id)},\n      "energy": {n.energy!r},\n'
                         f'      "x": {x!r},\n      "y": {y!r}\n    }}')
    edges = [
        f'    {{\n      "u": {quote(link.u)},\n      "v": {quote(link.v)},\n'
        f'      "distance": {link.distance!r}\n    }}'
        for link in sorted(graph.links, key=lambda l: (l.u, l.v))
    ]
    return (f'{{\n  "mode": "undirected",\n  "nodes": {_json_list(nodes)},\n'
            f'  "edges": {_json_list(edges)}\n}}\n')


def _json_list(items: list[str]) -> str:
    """A list of rendered items at the second indent level, as indent=2 writes it."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def _require(cond, msg: str) -> None:
    if not cond:
        raise ParseError(msg)


def _is_number(x) -> bool:
    """JSON number test; bool is an int subclass but JSON true is not a number."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_finite(x) -> bool:
    """A number that converts to a finite float; an int too large for one does not."""
    try:
        return _is_number(x) and math.isfinite(x)
    except OverflowError:
        return False


def _shown(x) -> str:
    """repr(x) for an error message, or a stand-in when x is or holds an int
    with more digits than repr will write (sys.get_int_max_str_digits())."""
    try:
        return repr(x)
    except ValueError:
        return "an int too long to write"


_CONSTRUCTION_ERRORS = (
    DuplicateVertex, InvalidEnergy, UnknownVertex, SelfLoop, NonPositiveDistance, ValueError,
)


def load_topology(data) -> NetworkGraph:
    """Build a graph from the JSON topology format.

    The optional "mode" key may only be "undirected". Structural problems
    raise ParseError; well-formed content that contradicts itself
    (duplicate ids, unknown endpoints, nonpositive energies or distances)
    raises SemanticError. Link energies are always
    recomputed from node energies, never read from the file.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: {exc}") from exc
    try:
        doc = json.loads(data)
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
    g = NetworkGraph()
    try:
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
            g.add_vertex(rec["id"], rec["energy"], pos)
        for rec in edges:
            _require(isinstance(rec, dict), "edge entries must be objects")
            _require(isinstance(rec.get("u"), str) and isinstance(rec.get("v"), str),
                     'each edge needs string "u" and "v"')
            _require(_is_number(rec.get("distance")), 'each edge needs a numeric "distance"')
            g.add_edge(rec["u"], rec["v"], rec["distance"])
    except _CONSTRUCTION_ERRORS as exc:
        raise SemanticError(str(exc)) from exc
    return g


def _num(text, field: str) -> float:
    try:
        return float(text)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad number for {field}: {text!r}") from exc


def _read_csv(text: str, required: tuple, optional: tuple = ()) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    try:
        names = reader.fieldnames or []
        rows = list(reader)
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}") from exc
    allowed = set(required) | set(optional)
    _require(set(required) <= set(names),
             f"CSV header must include {','.join(required)}")
    _require(set(names) <= allowed,
             f"unexpected CSV columns: {sorted(set(names) - allowed)}")
    return rows


def load_topology_csv(nodes_csv: str, edges_csv: str) -> NetworkGraph:
    """Edge-list import: nodes as `id,energy[,x,y]`, edges as `u,v,distance`."""
    node_rows = _read_csv(nodes_csv, ("id", "energy"), optional=("x", "y"))
    edge_rows = _read_csv(edges_csv, ("u", "v", "distance"))
    g = NetworkGraph()
    try:
        for row in node_rows:
            pos = None
            x, y = row.get("x"), row.get("y")
            if x or y:
                _require(bool(x) and bool(y), "a node position needs both x and y")
                pos = (_num(x, "x"), _num(y, "y"))
            g.add_vertex(row["id"] or "", _num(row["energy"], "energy"), pos)
        for row in edge_rows:
            g.add_edge(row["u"] or "", row["v"] or "", _num(row["distance"], "distance"))
    except _CONSTRUCTION_ERRORS as exc:
        raise SemanticError(str(exc)) from exc
    return g
