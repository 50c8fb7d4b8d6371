"""Round-based network-lifetime simulation.

Each round, every node's reading flows up the current aggregation tree with
perfect aggregation (one transmission per non-root node, regardless of how
many descendants feed it). Energies drain per a first-order radio model;
lifetime is the round of the first battery death.

Conservation ledger: residuals are derived, never decremented. Per node, by
insertion index, a run folds drains in round order and defines residual =
initial - cumulative.
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
from types import MappingProxyType

from .errors import NoSpanningCandidate
from .metrics import RadioModel
from .selection import MIN_DEPTH, _tie_key
from .topology import _is_int
from .trees import ShortestPaths, _fold, shortest_path_search


@dataclass(frozen=True)
class SimConfig:
    """One run's settings, checked once, when built or replaced: ValueError if bad.

    radio, a RadioModel, charges each round; max_rounds, at least 1, is the
    horizon; reselect_every, at least 1, is the rounds between the cadence
    re-picks that only max-energy and random make; tie_rule names a
    selection tie rule; seed seeds random, the only policy that reads it.
    The counts and the seed are ints; a bool is not one.
    """

    radio: RadioModel = field(default_factory=RadioModel)
    max_rounds: int = 1000
    reselect_every: int = 1
    tie_rule: str = MIN_DEPTH
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.radio, RadioModel):
            raise ValueError("radio must be a RadioModel")
        for name in ("max_rounds", "reselect_every", "seed"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an int")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        if self.reselect_every < 1:
            raise ValueError("reselect_every must be at least 1")
        _tie_key(self.tie_rule)


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


POLICIES = ("clmat", "max-energy", "random")  # plus "fixed:<id>"


def check_policy(policy: str) -> None:
    """Raise ValueError unless policy is a str, one of POLICIES or fixed:<id>, id nonempty."""
    if not (isinstance(policy, str)
            and (policy in POLICIES or (policy.startswith("fixed:") and policy != "fixed:"))):
        raise ValueError(f"unknown policy {policy!r}")


def check_random_trials(random_trials: int) -> None:
    """Raise ValueError unless the random policy gets at least one trial, as an int."""
    if not _is_int(random_trials):
        raise ValueError("random_trials must be an int")
    if random_trials < 1:
        raise ValueError("random_trials must be at least 1")


class _AliveView:
    """What one alive set fixes: each root's search over the alive nodes,
    and the round costs of the roots picked.

    A view keeps the original graph, the alive ids and their insertion
    indices (both in insertion order) and, unless every node is alive, a
    mask by insertion index that the searches skip dead nodes by; it copies
    no graph. Round costs are kept by root index, each computed on first
    use, and searches in searches, the run's one store, which every view of
    the run shares (see search). None of this reads energy, so a view
    answers for as long as the alive set stays the same. The view alone
    decides whether a root has a tree, so a policy only names one.
    """

    def __init__(self, graph, alive, radio: RadioModel, searches: dict[int, ShortestPaths]):
        self.graph = graph
        self.radio = radio
        self.ids = alive
        self.indices = [graph.get_index(v) for v in alive]
        self.mask = None
        if len(alive) != len(graph):
            self.mask = bytearray(len(graph))
            for i in self.indices:
                self.mask[i] = 1
        self.searches = searches
        self._costs: dict[int, Mapping[str, float]] = {}

    def search(self, i: int) -> ShortestPaths:
        """shortest_path_search over the alive nodes from the alive node at index i,
        stored once it reaches every one of them, else NoSpanningCandidate. Links
        are undirected, so one root spans exactly when every root does. A stored
        search is reused only if it spans this view: a run's alive sets strictly
        shrink, so an earlier view's spanning search reached more nodes."""
        paths = self.searches.get(i)
        if paths is None or paths.reached != len(self.indices):
            paths = shortest_path_search(self.graph, i, self.mask)
            if paths.reached != len(self.indices):
                raise NoSpanningCandidate()
            self.searches[i] = paths
        return paths

    def costs(self, root: str) -> Mapping[str, float]:
        """Each node's drain for one round on root's tree, read-only and in
        insertion order, or NoSpanningCandidate unless root is alive and its
        tree spans the alive nodes.

        Read straight off the search's lists: every non-root node pays one
        transmission over the link to its parent, then every node one
        reception per child, in the same operations and order as a walk
        over the tree's nodes, so the drains are the same bit for bit.
        """
        ri = self.graph.get_index(root)
        costs = self._costs.get(ri)
        if costs is None:
            if ri == -1 or (self.mask is not None and not self.mask[ri]):
                raise NoSpanningCandidate(f"root {root} is not in the alive network")
            parent = self.search(ri).parent
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


def _policy_chooser(policy: str, tie_key, rng: random.Random):
    """Resolve a policy name into (pick(view, residual) -> root, reads_residuals),
    residual giving a node's current residual by insertion index.

    Each pick only names a root; the view's costs decide whether it has a
    tree. A pick that does not read residuals depends on the alive set
    alone, so its answer is fixed for the life of a view. policy is one
    check_policy has passed: run_lifetime and compare_policies check it
    before any run. clmat breaks ties by tie_key, a selection._tie_key, and
    reads its bounds from the view's store, which holds no stale search as current.
    """
    if policy == "clmat":
        def pick(view, residual):
            """The least-total root, searched only from roots whose bound can still win.

            A death only removes paths, and float rounding is monotone, so no
            distance falls: a root's stored row, which spanned this alive set
            or an earlier one, folded over the alive nodes in index order, as
            a total distance is, is a lower bound on its total here. Roots are
            searched in (bound, index) order until the next bound is
            strictly above the least total found, so every skipped root
            totals strictly more than the winner and cannot even tie.
            """
            indices, searches = view.indices, view.searches
            bounds = sorted((_fold(searches[i].best, indices) if i in searches else -math.inf, i)
                            for i in indices)
            entries = []
            least = math.inf
            for bound, i in bounds:
                if bound > least:
                    break
                paths = view.search(i)
                total = _fold(paths.best, indices)
                least = min(least, total)
                entries.append((i, paths, total))  # the tie key reads only .depth
            return view.graph.nodes[min(entries, key=tie_key)[0]].id
        return pick, False
    if policy.startswith("fixed:"):
        root = policy.split(":", 1)[1]
        return (lambda view, residual: root), False
    if policy == "max-energy":
        # max keeps the first of equal residuals
        return (lambda view, residual: view.graph.nodes[max(view.indices, key=residual)].id), True
    return (lambda view, residual: rng.choice(view.ids)), True


def run_lifetime(graph, config: SimConfig, policy: str = "clmat",
                 stop_at_first_death: bool = True) -> LifetimeResult:
    """Drive rounds until the first death or the horizon.

    The shortest-path searches, and the round costs read off them, depend
    only on which nodes are alive, so they are computed at most once per
    alive set: in round 1 and after each death, by searches that skip the
    dead nodes through an alive mask, kept in one store for the run that
    reuses a search only while it spans the alive set. No tree object is
    built. clmat and fixed:<id> pick their root then and keep it; after a
    death clmat searches only the roots whose stored search can still win.
    max-energy and random also re-pick every reselect_every rounds,
    reading current residuals, so the cadence matters only for them.
    Every alive node is charged each round and finishes it; those then at
    or below 0 are that round's deaths, in insertion order. A report's
    drained is the picked tree's read-only costs mapping itself, which
    every round on that tree shares.
    With stop_at_first_death False the run continues past deaths until the
    horizon, or until deaths leave the survivors disconnected or fewer than
    two, a lone node having no link to report over (partitioned=True).
    Fully deterministic for a fixed graph, config, and policy. An unknown
    policy name raises ValueError before the run.
    """
    check_policy(policy)
    return _run(graph, config, policy, stop_at_first_death,
                _AliveView(graph, graph.node_ids(), config.radio, {}))


def _run(graph, config: SimConfig, policy: str, stop_at_first_death: bool,
         first_view: _AliveView) -> LifetimeResult:
    """run_lifetime from first_view, the view over every node, whose store later views share."""
    if not graph.nodes:
        raise NoSpanningCandidate()
    pick, reads_residuals = _policy_chooser(policy, _tie_key(config.tie_rule),
                                            random.Random(config.seed))
    # the ledger, by insertion index: initial energies, and drains folded in round order
    energy = [n.energy for n in graph.nodes]
    spent = [0.0] * len(energy)
    reports: list[RoundReport] = []
    partitioned = False
    view = first_view
    for r in range(1, config.max_rounds + 1):
        if r == 1 or view is None or (reads_residuals and (r - 1) % config.reselect_every == 0):
            if view is None:
                if len(alive) < 2:  # no link is left to carry a reading
                    partitioned = True
                    break
                view = _AliveView(graph, alive, config.radio, first_view.searches)
            try:
                root = pick(view, lambda i: energy[i] - spent[i])
                costs = view.costs(root)
            except NoSpanningCandidate:
                if r == 1:
                    raise
                partitioned = True
                break
        # costs holds the view's nodes in its order: each is tested for death as it is charged
        total = 0.0
        deaths = []
        for v, i, cost in zip(view.ids, view.indices, costs.values()):
            paid = spent[i] + cost
            spent[i] = paid
            total += cost
            if energy[i] - paid <= 0:
                deaths.append(v)
        reports.append(RoundReport(r, root, costs, total, len(view.ids) - len(deaths), deaths))
        if deaths:
            dead = set(deaths)
            alive = [v for v in view.ids if v not in dead]
            view = None
            if stop_at_first_death:
                break
    first_death = next((rep.round for rep in reports if rep.deaths), None)
    lifetime = first_death if first_death is not None else config.max_rounds
    delivered = sum(len(rep.drained) for rep in reports)  # one reading from every tree node
    final = {n.id: e - d for n, e, d in zip(graph.nodes, energy, spent)}
    return LifetimeResult(lifetime, reports, first_death, delivered, partitioned, final)


def compare_policies(graph, config: SimConfig, policies,
                     random_trials: int = 5) -> list[tuple[str, float]]:
    """Lifetime per policy on identical initial conditions.

    A policy's lifetime is the mean over its trials, trial t seeded with
    config.seed * 100003 + t. The random-root policy runs random_trials
    trials; every other policy is deterministic, reads no seed and runs
    one. Every run starts from the full alive set with the same radio, so
    all of them share one first view, and no run goes past its first death
    to need a second: each root is searched over the full network, and its
    round costs computed, at most once, whichever policy asks. random_trials
    below 1 or an unknown policy name raises ValueError before any run.
    """
    check_random_trials(random_trials)
    for policy in policies:
        check_policy(policy)
    first_view = _AliveView(graph, graph.node_ids(), config.radio, {})
    rows: list[tuple[str, float]] = []
    for policy in policies:
        trials = random_trials if policy == "random" else 1
        total = 0.0
        for trial in range(trials):
            trial_config = replace(config, seed=config.seed * 100003 + trial)
            total += _run(graph, trial_config, policy, True, first_view).lifetime
        rows.append((policy, total / trials))
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

    reports come from run_lifetime on graph, whose trees span their views, so
    each drained holds exactly the nodes alive at its round's start, in
    insertion order; a node's last row is the round it died. The simulator's
    per-node fold gives the values bit for bit. Each row is rendered in one
    pass, as csv.writer would write it: every id is CSV-quoted once, by
    csv.writer, and rounds and float reprs never need quoting.
    """
    cell = io.StringIO()
    writer = csv.writer(cell, lineterminator="\n")
    fold = {}  # id -> [CSV-quoted id, initial energy, drain so far]: one lookup a row
    for n in graph.nodes:
        # written as the second of two fields, as in a trace row
        cell.seek(0)
        cell.truncate()
        writer.writerow(("", n.id))
        fold[n.id] = [cell.getvalue()[1:-1], n.energy, 0.0]
    buf = io.StringIO()  # holds the text alone, not a string object per row
    write = buf.write
    write("round,node,residual\n")
    for rep in reports:
        r = rep.round
        for v, d in rep.drained.items():
            node = fold[v]
            node[2] += d
            write(f"{r},{node[0]},{node[1] - node[2]!r}\n")
    return buf.getvalue()
