"""Round-based network-lifetime simulation.

Each round, every node's reading flows up the current aggregation tree with
perfect aggregation (one transmission per non-root node, regardless of how
many descendants feed it). Energies drain per a first-order radio model;
lifetime is the round of the first battery death.

Conservation ledger: residuals are derived, never decremented. Per node we
accumulate drains in round order and define residual = initial - cumulative.
The mandated conservation check is therefore exact in floating point: fold
each node's reported drains in round order, and the final residual equals
initial minus that fold, bit for bit (totals likewise, summing nodes in
insertion order). Control traffic for re-selection is not charged.
"""

from __future__ import annotations

import csv
import io
import math
import random
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import reduce
from operator import add
from types import MappingProxyType

from .errors import NoSpanningCandidate
from .selection import MIN_DEPTH, TIE_RULES, pick_tree
from .trees import ShortestPaths, shortest_path_search


@dataclass(frozen=True)
class RadioModel:
    """First-order radio: tx = tx_fixed + tx_dist_coeff * d**exponent, flat rx.

    Costs are Joules per packet; defaults are packet-normalized values for
    a 50 nJ electronics hit and a 100 pJ/length^2 amplifier term.
    """

    tx_fixed: float = 50e-9
    tx_dist_coeff: float = 100e-12
    exponent: int = 2
    rx_cost: float = 50e-9

    def __post_init__(self):
        # NaN compares false against 0, so finiteness is tested explicitly
        if not all(math.isfinite(c) and c >= 0
                   for c in (self.tx_fixed, self.tx_dist_coeff, self.rx_cost)):
            raise ValueError("radio coefficients must be finite and nonnegative")
        if self.exponent not in (2, 4):
            raise ValueError("path-loss exponent must be 2 or 4")

    def tx_energy(self, distance: float) -> float:
        """Joules to send one packet over distance; +inf once d**exponent overflows.

        A zero amplifier coefficient ignores distance altogether, so an
        overflowing power never meets it as 0 * inf = NaN.
        """
        if not self.tx_dist_coeff:
            return self.tx_fixed
        try:
            amplifier = distance ** self.exponent
        except OverflowError:
            return math.inf
        return self.tx_fixed + self.tx_dist_coeff * amplifier


@dataclass
class SimConfig:
    radio: RadioModel = field(default_factory=RadioModel)
    max_rounds: int = 1000
    reselect_every: int = 1
    tie_rule: str = MIN_DEPTH
    seed: int = 0

    def validate(self) -> None:
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        if self.reselect_every < 1:
            raise ValueError("reselect_every must be at least 1")
        if self.tie_rule not in TIE_RULES:
            raise ValueError(f"unknown tie rule {self.tie_rule!r}")


@dataclass
class SimState:
    initial: dict[str, float]
    drained_cum: dict[str, float]
    alive: list[str]
    round: int = 0

    def residual(self, v: str) -> float:
        return self.initial[v] - self.drained_cum[v]


@dataclass
class RoundReport:
    round: int
    aggregator: str
    drained: Mapping[str, float]
    total_drained: float
    alive_count: int
    deaths: list[str]


@dataclass
class LifetimeResult:
    lifetime: int
    reports: list[RoundReport]
    first_death_round: int | None
    delivered_packets: int
    partitioned: bool
    final_residuals: dict[str, float]


def drain_round(state: SimState, root: str, costs: Mapping[str, float]) -> RoundReport:
    """Charge one round of traffic on the tree aggregated at root and record deaths.

    costs maps each tree node to its drain for one round, taken as an
    argument so that a caller keeping one tree for many rounds computes
    them once. The report keeps costs itself as its drained, not a copy,
    so a caller that passes a read-only mapping shares it between every
    round of the tree.
    Nodes finish the round before a residual of <= 0 removes them, and
    deaths come in the order of state.alive. A residual changes only when
    its node is charged, so each node is tested for death in the same pass
    that charges it, and state.alive is scanned only in a round where a
    charged node is at or below 0.
    Every alive node of a state that starts from positive energies and is
    only ever drained here starts each round above 0, so no death is missed.
    """
    state.round += 1
    initial = state.initial
    drained_cum = state.drained_cum
    total = 0.0
    died = False
    for v, cost in costs.items():
        spent = drained_cum[v] + cost
        drained_cum[v] = spent
        total += cost
        if initial[v] - spent <= 0:  # SimState.residual, inlined
            died = True
    deaths = [v for v in state.alive if state.residual(v) <= 0] if died else []
    if deaths:
        dead = set(deaths)
        state.alive = [v for v in state.alive if v not in dead]
    return RoundReport(state.round, root, costs, total, len(state.alive), deaths)


POLICIES = ("clmat", "max-energy", "random")  # plus "fixed:<id>"


def check_policy(policy: str) -> None:
    """Raise ValueError unless policy is one of POLICIES or fixed:<id>."""
    if policy not in POLICIES and not policy.startswith("fixed:"):
        raise ValueError(f"unknown policy {policy!r}")


class _AliveView:
    """What one alive set fixes: each root's search over the alive nodes,
    and the round costs of the roots picked.

    A view keeps the original graph, the alive ids and their insertion
    indices (both in insertion order) and, unless every node is alive, a
    mask by insertion index that the searches skip dead nodes by; it copies
    no graph. Searches and round costs are kept by root index, each
    computed on first use. None of this reads energy, so a view answers for
    as long as the alive set stays the same.
    """

    def __init__(self, graph, alive, radio: RadioModel):
        self.graph = graph
        self.radio = radio
        self.ids = alive
        self.indices = [graph.get_index(v) for v in alive]
        self.mask = None
        if len(alive) != len(graph):
            self.mask = bytearray(len(graph))
            for i in self.indices:
                self.mask[i] = 1
        self._searches: dict[int, ShortestPaths] = {}
        self._costs: dict[int, Mapping[str, float]] = {}

    def is_alive(self, root: str) -> bool:
        i = self.graph.get_index(root)
        return i != -1 and (self.mask is None or self.mask[i] == 1)

    def search(self, i: int) -> ShortestPaths:
        """shortest_path_search over the alive nodes from the alive node at index i."""
        paths = self._searches.get(i)
        if paths is None:
            paths = self._searches[i] = shortest_path_search(self.graph, i, self.mask)
        return paths

    def costs(self, root: str, message: str) -> Mapping[str, float]:
        """Each node's drain for one round on alive root's tree, read-only and
        in insertion order, or NoSpanningCandidate(message) unless the tree
        reaches every alive node.

        Links are undirected, so one root spans exactly when every root does.
        Read straight off the search's lists: every non-root node pays one
        transmission over the link to its parent, then every node one
        reception per child, in the same operations and order as a walk
        over the tree's nodes, so the drains are the same bit for bit.
        """
        ri = self.graph.get_index(root)
        costs = self._costs.get(ri)
        if costs is None:
            paths = self.search(ri)
            if paths.reached != len(self.indices):
                raise NoSpanningCandidate(message)
            parent = paths.parent
            kids = [0] * len(parent)
            for p in parent:
                if p != -1:
                    kids[p] += 1
            adj = self.graph._adj
            tx_energy, rx_cost = self.radio.tx_energy, self.radio.rx_cost
            drains = {}
            for v, w in zip(self.ids, self.indices):  # a spanning tree's nodes
                cost = 0.0
                p = parent[w]
                if p != -1:
                    cost += tx_energy(adj[p][w])
                k = kids[w]
                if k:
                    cost += k * rx_cost
                drains[v] = cost
            costs = self._costs[ri] = MappingProxyType(drains)
        return costs


def _fold(row: list[float], indices: list[int]) -> float:
    """Plain left-to-right float sum of row over indices.

    sum() compensates from Python 3.12, so it would not repeat the
    plain fold that scores a total distance (trees.scored_roots) bit for
    bit; reduce(add) does. A root's own row entry is 0.0, and adding 0.0
    to a nonnegative sum leaves its bits as they are, so folding over
    every alive index equals the fold over the alive non-root nodes.
    """
    return reduce(add, map(row.__getitem__, indices), 0.0)


def _policy_chooser(policy: str, tie_rule: str, rng: random.Random):
    """Resolve a policy name into (pick(view, state) -> root, reads_residuals, message).

    Each pick names a root among the alive nodes; message is the
    NoSpanningCandidate text for when that root's tree does not span them.
    A pick that does not read residuals depends on the alive set alone, so
    its answer is fixed for the life of a view. policy is one check_policy
    has passed: run_lifetime and compare_policies check it before any run.
    """
    if policy == "clmat":
        rows: dict[int, list[float]] = {}  # by root index: best of its latest search

        def pick(view, state):
            """The least-total root, searched only from roots whose bound can still win.

            A death only removes paths, and float rounding is monotone, so no
            distance falls: a root's stored row, which spanned an earlier
            alive set, folded over the alive nodes in index order, as a
            total distance is, is a lower bound on its new total. Roots are
            searched in (bound, index) order until the next bound is
            strictly above the least total found, so every skipped root
            totals strictly more than the winner and cannot even tie.
            """
            indices = view.indices
            bounds = []
            for i in indices:
                row = rows.get(i)
                bounds.append((-math.inf if row is None else _fold(row, indices), i))
            bounds.sort()
            entries = []
            least = math.inf
            for bound, i in bounds:
                if bound > least:
                    break
                paths = view.search(i)
                if paths.reached != len(indices):
                    return view.graph.nodes[i].id  # no root spans, so its tree raises
                rows[i] = paths.best
                total = _fold(paths.best, indices)
                least = min(least, total)
                entries.append((i, paths, total))  # the tie key reads only .depth
            return view.graph.nodes[pick_tree(entries, tie_rule)[0]].id
        return pick, False, "no candidate tree spans every node"
    if policy.startswith("fixed:"):
        root = policy.split(":", 1)[1]

        def pick(view, state):
            if not view.is_alive(root):
                raise NoSpanningCandidate(f"fixed root {root} is not in the alive network")
            return root
        return pick, False, f"fixed root {root} no longer spans the network"
    message = "no spanning root available"
    if policy == "max-energy":
        # max keeps the first of equal residuals
        return (lambda view, state: max(view.ids, key=state.residual)), True, message
    return (lambda view, state: rng.choice(view.ids)), True, message


def run_lifetime(graph, config: SimConfig, policy: str = "clmat",
                 stop_at_first_death: bool = True) -> LifetimeResult:
    """Drive rounds until the first death or the horizon.

    The shortest-path searches, and the round costs read off them, depend
    only on which nodes are alive, so they are computed at most once per
    alive set: in round 1 and after each death, by searches that skip the
    dead nodes through an alive mask rather than on a copy of the graph.
    No tree object is built. clmat and fixed:<id> pick their root then and
    keep it; after a death clmat searches only the roots that can still win. max-energy and random also
    re-pick every reselect_every rounds, reading current residuals, so the
    cadence matters only for them.
    With stop_at_first_death False the run continues past deaths until the
    horizon or until the survivors are disconnected or all dead
    (partitioned=True).
    Fully deterministic for a fixed graph, config, and policy. An unknown
    policy name raises ValueError before the run.
    """
    check_policy(policy)
    return _run(graph, config, policy, stop_at_first_death,
                _AliveView(graph, graph.node_ids(), config.radio))


def _run(graph, config: SimConfig, policy: str, stop_at_first_death: bool,
         first_view: _AliveView) -> LifetimeResult:
    """run_lifetime, with round 1 served by first_view: the view over every node."""
    config.validate()
    if not graph.nodes:
        raise NoSpanningCandidate("empty graph")
    pick, reads_residuals, message = _policy_chooser(policy, config.tie_rule,
                                                     random.Random(config.seed))
    state = SimState(
        initial={n.id: n.energy for n in graph.nodes},
        drained_cum={n.id: 0.0 for n in graph.nodes},
        alive=[n.id for n in graph.nodes],
    )
    reports: list[RoundReport] = []
    first_death: int | None = None
    delivered = 0
    partitioned = False
    view = first_view
    for r in range(1, config.max_rounds + 1):
        if not state.alive:  # the last survivors died together
            partitioned = True
            break
        if r == 1 or view is None or (reads_residuals and (r - 1) % config.reselect_every == 0):
            if view is None:
                view = _AliveView(graph, state.alive, config.radio)
            try:
                root = pick(view, state)
                costs = view.costs(root, message)
            except NoSpanningCandidate:
                if r == 1:
                    raise
                partitioned = True
                break
        report = drain_round(state, root, costs)
        reports.append(report)
        delivered += len(costs)  # one reading from every tree node
        if report.deaths:
            if first_death is None:
                first_death = r
            view = None
            if stop_at_first_death:
                break
    lifetime = first_death if first_death is not None else config.max_rounds
    final = {v: state.residual(v) for v in state.initial}
    return LifetimeResult(lifetime, reports, first_death, delivered, partitioned, final)


def compare_policies(graph, config: SimConfig, policies,
                     random_trials: int = 5) -> list[tuple[str, float]]:
    """Lifetime per policy on identical initial conditions.

    The random-root policy is averaged over random_trials seeded runs; every
    other policy is deterministic, so a single run suffices. Every run
    starts from the full alive set with the same radio, so all of them
    share one first view: each root is searched over the full network, and
    its round costs computed, at most once. random_trials below 1 or an unknown policy name raises ValueError
    before any run.
    """
    if random_trials < 1:
        raise ValueError(f"random_trials must be at least 1, got {random_trials}")
    for policy in policies:
        check_policy(policy)
    first_view = _AliveView(graph, graph.node_ids(), config.radio)
    rows: list[tuple[str, float]] = []
    for policy in policies:
        if policy == "random":
            total = 0.0
            for trial in range(random_trials):
                trial_config = replace(config, seed=config.seed * 100003 + trial)
                total += _run(graph, trial_config, policy, True, first_view).lifetime
            rows.append((policy, total / random_trials))
        else:
            rows.append((policy, float(_run(graph, config, policy, True, first_view).lifetime)))
    return rows


def reports_csv(reports) -> str:
    """Round reports as CSV: round,aggregator,total_drained,alive,deaths."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["round", "aggregator", "total_drained", "alive", "deaths"])
    for rep in reports:
        writer.writerow([rep.round, rep.aggregator, repr(rep.total_drained),
                         rep.alive_count, ";".join(rep.deaths)])
    return buf.getvalue()


def residual_trace_csv(graph, reports) -> str:
    """Per-node residual trace as CSV: round,node,residual.

    Recomputed from the reports with the same per-node fold the simulator
    used, so the values match the internal state bit for bit. A node's last
    row is the round it died. Each row is rendered in one pass, as
    csv.writer would write it: every id is CSV-quoted once, by csv.writer,
    and rounds and float reprs never need quoting.
    """
    ids = graph.node_ids()
    cell = io.StringIO()
    writer = csv.writer(cell, lineterminator="\n")
    quoted = []
    for v in ids:
        # written as the second of two fields, as in a trace row
        cell.seek(0)
        cell.truncate()
        writer.writerow(("", v))
        quoted.append(cell.getvalue()[1:-1])
    initial = [n.energy for n in graph.nodes]
    cum = [0.0] * len(ids)
    alive = list(range(len(ids)))
    buf = io.StringIO()  # holds the text alone, not a string object per row
    write = buf.write
    write("round,node,residual\n")
    drained = None
    for rep in reports:
        if rep.drained is not drained:  # the rounds of one tree share their drains
            drained = rep.drained
            by_index = [drained.get(v) for v in ids]
        r = rep.round
        for i in alive:
            d = by_index[i]
            if d is not None:
                cum[i] += d
            write(f"{r},{quoted[i]},{initial[i] - cum[i]!r}\n")
        if rep.deaths:
            dead = set(rep.deaths)
            alive = [i for i in alive if ids[i] not in dead]
    return buf.getvalue()
