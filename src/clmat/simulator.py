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
from dataclasses import dataclass, field, replace

from .errors import NoSpanningCandidate
from .metrics import total_distance
from .selection import MIN_DEPTH, TIE_RULES, pick_tree
from .trees import AggregationTree, shortest_path_tree


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
    current_tree: AggregationTree | None = None

    def residual(self, v: str) -> float:
        return self.initial[v] - self.drained_cum[v]


@dataclass
class RoundReport:
    round: int
    aggregator: str
    drained: dict[str, float]
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


def round_costs(tree: AggregationTree, radio: RadioModel, graph) -> dict[str, float]:
    """Each tree node's drain for one round on the tree, in tree.dist order.

    Every non-root node pays one transmission to its parent; every parent
    pays one reception per child. The tree fixes these costs, so they are
    computed once per tree. graph supplies link distances.
    """
    n_children = tree.children_counts()
    costs: dict[str, float] = {}
    for v in tree.dist:
        cost = 0.0
        if v != tree.root:
            cost += radio.tx_energy(graph.distance(tree.parent[v], v))
        kids = n_children.get(v, 0)
        if kids:
            cost += kids * radio.rx_cost
        costs[v] = cost
    return costs


def drain_round(state: SimState, tree: AggregationTree, costs: dict[str, float]) -> RoundReport:
    """Charge one round of traffic on the tree and record deaths.

    costs is round_costs of the tree, taken as an argument so that a caller
    keeping one tree for many rounds computes them once. Nodes finish the
    round before a residual of <= 0 removes them.
    """
    state.round += 1
    drained_cum = state.drained_cum
    total = 0.0
    for v, cost in costs.items():
        drained_cum[v] += cost
        total += cost
    deaths = [v for v in state.alive if state.residual(v) <= 0]
    if deaths:
        dead = set(deaths)
        state.alive = [v for v in state.alive if v not in dead]
    # each report owns its drains, so no caller can edit the kept costs through one
    return RoundReport(state.round, tree.root, dict(costs), total, len(state.alive), deaths)


POLICIES = ("clmat", "max-energy", "random")  # plus "fixed:<id>"


def check_policy(policy: str) -> None:
    """Raise ValueError unless policy is one of POLICIES or fixed:<id>."""
    if policy not in POLICIES and not policy.startswith("fixed:"):
        raise ValueError(f"unknown policy {policy!r}")


class _AliveView:
    """What one alive set fixes: the graph restricted to it, each root's tree
    and each tree's round costs.

    Trees and costs are computed on first use and kept. None of this reads
    energy, so a view answers for as long as the alive set stays the same.
    The alive list keeps the graph's insertion order, so a view over every
    node is the graph itself and copies nothing.
    """

    def __init__(self, graph, alive, radio: RadioModel):
        self.graph = graph if len(alive) == len(graph) else graph.restricted(alive)
        self.radio = radio
        self._trees: dict[str, AggregationTree] = {}
        self._costs: dict[str, dict[str, float]] = {}

    def tree(self, root: str) -> AggregationTree:
        tree = self._trees.get(root)
        if tree is None:
            tree = self._trees[root] = shortest_path_tree(self.graph, root)
        return tree

    def costs(self, root: str) -> dict[str, float]:
        """round_costs of root's tree."""
        costs = self._costs.get(root)
        if costs is None:
            costs = self._costs[root] = round_costs(self.tree(root), self.radio, self.graph)
        return costs

    def spanning_tree(self, root: str, message: str) -> AggregationTree:
        """root's tree, or NoSpanningCandidate(message) unless it reaches every alive node.

        Links are undirected, so one root spans exactly when every root does.
        """
        tree = self.tree(root)
        if len(tree.dist) != len(self.graph):
            raise NoSpanningCandidate(message)
        return tree


def _policy_chooser(policy: str, tie_rule: str, rng: random.Random):
    """Resolve a policy name into (choose(view, state) -> tree, reads_residuals).

    Each chooser names a root among the alive nodes and returns its tree if
    that tree spans them. A chooser that does not read residuals depends on
    the alive set alone, so its answer is fixed for the life of a view.
    """
    check_policy(policy)
    if policy == "clmat":
        rows: dict[str, dict[str, float]] = {}  # each root's dist in its latest built tree

        def choose(view, state):
            """The least-total tree, built only for roots whose bound can still win.

            A death only removes paths, and float rounding is monotone, so no
            distance falls: a root's stored row, which spanned an earlier
            alive set, folded over the alive nodes in the same order as
            total_distance, is a lower bound on its new total. Roots are built in (bound, index) order until the next
            bound is strictly above the least total found, so every skipped
            root totals strictly more than the winner and cannot even tie.
            """
            ids = view.graph.node_ids()
            bounds = []
            for i, root in enumerate(ids):
                row = rows.get(root)
                bound = -math.inf
                if row is not None:
                    bound = 0.0
                    for v in ids:  # a plain fold: sum() compensates from Python 3.12
                        if v != root:
                            bound += row[v]
                bounds.append((bound, i))
            bounds.sort()
            entries = []
            least = math.inf
            for bound, i in bounds:
                if bound > least:
                    break
                tree = view.spanning_tree(ids[i], "no candidate tree spans every node")
                rows[tree.root] = tree.dist
                total = total_distance(tree)
                least = min(least, total)
                entries.append((i, tree, total))
            entries.sort(key=lambda e: e[0])  # the tie key reads index order
            return pick_tree(entries, tie_rule)[1]
        return choose, False
    if policy.startswith("fixed:"):
        root = policy.split(":", 1)[1]

        def choose(view, state):
            if view.graph.get_index(root) == -1:
                raise NoSpanningCandidate(f"fixed root {root} is not in the alive network")
            return view.spanning_tree(root, f"fixed root {root} no longer spans the network")
        return choose, False
    if policy == "max-energy":
        def choose(view, state):
            # max keeps the first of equal residuals
            root = max(view.graph.node_ids(), key=state.residual)
            return view.spanning_tree(root, "no spanning root available")
        return choose, True

    def choose(view, state):  # random
        root = rng.choice(view.graph.node_ids())
        return view.spanning_tree(root, "no spanning root available")
    return choose, True


def run_lifetime(graph, config: SimConfig, policy: str = "clmat",
                 stop_at_first_death: bool = True) -> LifetimeResult:
    """Drive rounds until the first death or the horizon.

    The shortest-path trees and their round costs depend only on which
    nodes are alive, so they are computed on the alive subgraph at most
    once per alive set: in round 1 and after each death. clmat and
    fixed:<id> pick their tree then and keep it; after a death clmat
    builds only the roots that can still win. max-energy and random also
    re-pick every reselect_every rounds, reading current residuals, so the
    cadence matters only for them.
    With stop_at_first_death False the run continues past deaths until the
    horizon or until the survivors are disconnected or all dead
    (partitioned=True).
    Fully deterministic for a fixed graph, config, and policy.
    """
    return _run(graph, config, policy, stop_at_first_death,
                _AliveView(graph, graph.node_ids(), config.radio))


def _run(graph, config: SimConfig, policy: str, stop_at_first_death: bool,
         first_view: _AliveView) -> LifetimeResult:
    """run_lifetime, with round 1 served by first_view: the view over every node."""
    config.validate()
    if not graph.nodes:
        raise NoSpanningCandidate("empty graph")
    choose, reads_residuals = _policy_chooser(policy, config.tie_rule,
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
                state.current_tree = choose(view, state)
            except NoSpanningCandidate:
                if r == 1:
                    raise
                partitioned = True
                break
        tree = state.current_tree
        report = drain_round(state, tree, view.costs(tree.root))
        reports.append(report)
        delivered += len(tree.dist)
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
    share one first view and build each root's full-network tree at most
    once.
    """
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
    row is the round it died.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["round", "node", "residual"])
    initial = {n.id: n.energy for n in graph.nodes}
    cum = {v: 0.0 for v in initial}
    alive = list(initial)
    for rep in reports:
        for v in alive:
            if v in rep.drained:
                cum[v] += rep.drained[v]
            writer.writerow([rep.round, v, repr(initial[v] - cum[v])])
        dead = set(rep.deaths)
        alive = [v for v in alive if v not in dead]
    return buf.getvalue()
