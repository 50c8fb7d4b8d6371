"""Sensor-network graph model: nodes with battery energies, weighted radio links."""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass

from .errors import (
    DuplicateVertex,
    InvalidEnergy,
    NonPositiveDistance,
    ParseError,
    SelfLoop,
    SemanticError,
    UnknownVertex,
)

UNDIRECTED = "undirected"
DIRECTED = "directed"
MODES = (UNDIRECTED, DIRECTED)


@dataclass
class Node:
    """A sensor: unique name, battery in Joules, optional planar position."""

    id: str
    energy: float
    position: tuple[float, float] | None = None


@dataclass
class Link:
    """A stored radio link. link_energy caches min endpoint energy at insertion time."""

    u: str
    v: str
    distance: float
    link_energy: float


class NetworkGraph:
    """Node table plus weighted adjacency with distance-matrix semantics.

    distance(i, i) is 0 and absent pairs are infinitely far. Undirected mode
    writes both matrix cells per link; directed mode writes only u -> v.
    Construction is single-writer; a fully built graph is treated as
    immutable and may be read from many computations at once.
    """

    def __init__(self, mode: str = UNDIRECTED):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.nodes: list[Node] = []
        self.links: list[Link] = []
        self._index: dict[str, int] = {}
        self._adj: dict[str, dict[str, float]] = {}

    def __len__(self) -> int:
        return len(self.nodes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NetworkGraph):
            return NotImplemented
        return (
            self.mode == other.mode
            and [(n.id, n.energy, n.position) for n in self.nodes]
            == [(n.id, n.energy, n.position) for n in other.nodes]
            and self._link_set() == other._link_set()
        )

    def _link_set(self) -> set[tuple[str, str, float]]:
        if self.mode == UNDIRECTED:
            return {(min(l.u, l.v), max(l.u, l.v), l.distance) for l in self.links}
        return {(l.u, l.v, l.distance) for l in self.links}

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
        return self._adj.get(u, {}).get(v, math.inf)

    def neighbors(self, u: str) -> dict[str, float]:
        return self._adj.get(u, {})

    def link_energy(self, u: str, v: str) -> float:
        """Min endpoint energy, recomputed from current node energies.

        The Link.link_energy field is only an insertion-time cache; every
        consumer goes through here so draining batteries are reflected.
        """
        return min(self.energy(u), self.energy(v))

    def add_vertex(self, name: str, energy: float, position=None) -> None:
        if not name:
            raise ValueError("vertex name must be nonempty")
        if self.get_index(name) != -1:
            raise DuplicateVertex(f"vertex already exists: {name}")
        if not (isinstance(energy, (int, float)) and math.isfinite(energy) and energy > 0):
            raise InvalidEnergy(f"energy must be a positive finite Joule value, got {energy!r}")
        if position is not None:
            position = (float(position[0]), float(position[1]))
            if not all(map(math.isfinite, position)):
                raise ValueError(f"position must be finite, got {position!r}")
        self._index[name] = len(self.nodes)
        self.nodes.append(Node(name, float(energy), position))
        self._adj[name] = {}

    def add_edge(self, u: str, v: str, distance: float) -> None:
        """Store a link between existing vertices.

        Re-adding an existing pair overwrites the stored distance (matrix
        cell semantics). The energy cache is refreshed at the same time.
        """
        if self.get_index(u) == -1:
            raise UnknownVertex(f"source vertex does not exist: {u}")
        if self.get_index(v) == -1:
            raise UnknownVertex(f"destination vertex does not exist: {v}")
        if u == v:
            raise SelfLoop(f"self loop on {u}")
        if not (isinstance(distance, (int, float)) and math.isfinite(distance) and distance > 0):
            raise NonPositiveDistance(f"distance must be a positive finite number, got {distance!r}")
        distance = float(distance)
        cache = self.link_energy(u, v)
        if v not in self._adj[u]:
            self.links.append(Link(u, v, distance, cache))
        else:
            # a re-added pair is rare, so its Link is found by a scan
            stored = {(u, v), (v, u)} if self.mode == UNDIRECTED else {(u, v)}
            link = next(l for l in self.links if (l.u, l.v) in stored)
            link.distance = distance
            link.link_energy = cache
        self._adj[u][v] = distance
        if self.mode == UNDIRECTED:
            self._adj[v][u] = distance

    def restricted(self, keep, energies=None) -> NetworkGraph:
        """Copy containing only the kept nodes and links among them.

        energies, when given, maps node id to the energy the copy should
        carry (used to feed residual energies back in as node energies).
        """
        keep_set = set(keep)
        g = NetworkGraph(self.mode)
        for n in self.nodes:
            if n.id in keep_set:
                e = energies[n.id] if energies is not None else n.energy
                g.add_vertex(n.id, e, n.position)
        for link in self.links:
            if link.u in keep_set and link.v in keep_set:
                g.add_edge(link.u, link.v, link.distance)
        return g

    def with_energies(self, energies) -> NetworkGraph:
        return self.restricted(self.node_ids(), energies)


def random_topology(n: int, side: float, radio_range: float,
                    energy_lo: float, energy_hi: float, seed: int) -> NetworkGraph:
    """Uniform placement on a side x side square; link every pair within radio range.

    Link distances are the Euclidean separations; node energies are uniform
    in [energy_lo, energy_hi]. Fully determined by the seed. A disconnected
    result is valid.
    """
    if n < 1:
        raise ValueError("need at least one node")
    if side <= 0 or radio_range <= 0:
        raise ValueError("side and radio_range must be positive")
    if not 0 < energy_lo <= energy_hi:
        raise ValueError("need 0 < energy_lo <= energy_hi")
    rng = random.Random(seed)
    g = NetworkGraph()
    for i in range(n):
        x = rng.uniform(0, side)
        y = rng.uniform(0, side)
        energy = rng.uniform(energy_lo, energy_hi)
        g.add_vertex(f"n{i}", energy, (x, y))
    for i in range(n):
        for j in range(i + 1, n):
            a, b = g.nodes[i], g.nodes[j]
            d = math.dist(a.position, b.position)
            if d <= radio_range:
                g.add_edge(a.id, b.id, d)
    return g


def export_json(graph: NetworkGraph) -> str:
    """Canonical topology document: nodes in insertion order, edges sorted by (u, v)."""
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
    return json.dumps({"mode": graph.mode, "nodes": nodes, "edges": edges}, indent=2) + "\n"


def _require(cond, msg: str) -> None:
    if not cond:
        raise ParseError(msg)


def _is_number(x) -> bool:
    """JSON number test; bool is an int subclass but JSON true is not a number."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


_CONSTRUCTION_ERRORS = (
    DuplicateVertex, InvalidEnergy, UnknownVertex, SelfLoop, NonPositiveDistance, ValueError,
)


def load_topology(data) -> NetworkGraph:
    """Build a graph from the JSON topology format.

    Structural problems raise ParseError; well-formed content that
    contradicts itself (duplicate ids, unknown endpoints, nonpositive
    energies or distances) raises SemanticError. Link energies are always
    recomputed from node energies, never read from the file.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: {exc}") from exc
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "top level must be an object")
    mode = doc.get("mode", UNDIRECTED)
    _require(mode in MODES, f"mode must be one of {MODES}")
    nodes = doc.get("nodes")
    edges = doc.get("edges", [])
    _require(isinstance(nodes, list), '"nodes" must be a list')
    _require(isinstance(edges, list), '"edges" must be a list')
    g = NetworkGraph(mode)
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
    names = reader.fieldnames or []
    allowed = set(required) | set(optional)
    _require(set(required) <= set(names),
             f"CSV header must include {','.join(required)}")
    _require(set(names) <= allowed,
             f"unexpected CSV columns: {sorted(set(names) - allowed)}")
    return list(reader)


def load_topology_csv(nodes_csv: str, edges_csv: str, mode: str = UNDIRECTED) -> NetworkGraph:
    """Edge-list import: nodes as `id,energy[,x,y]`, edges as `u,v,distance`."""
    node_rows = _read_csv(nodes_csv, ("id", "energy"), optional=("x", "y"))
    edge_rows = _read_csv(edges_csv, ("u", "v", "distance"))
    g = NetworkGraph(mode)
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
