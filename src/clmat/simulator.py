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
from dataclasses import dataclass, field

from .errors import NoSpanningCandidate
from .metrics import CLMAT, COST_VARIANTS, ENERGY_VARIANTS, NODE_MIN
from .selection import MIN_DEPTH, TIE_RULES, select_aggregator
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
        return self.tx_fixed + self.tx_dist_coeff * distance ** self.exponent


@dataclass
class SimConfig:
    radio: RadioModel = field(default_factory=RadioModel)
    max_rounds: int = 1000
    reselect_every: int = 1
    tie_rule: str = MIN_DEPTH
    cost_variant: str = CLMAT
    energy_variant: str = NODE_MIN
    seed: int = 0

    def validate(self) -> None:
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        if self.reselect_every < 1:
            raise ValueError("reselect_every must be at least 1")
        if self.tie_rule not in TIE_RULES:
            raise ValueError(f"unknown tie rule {self.tie_rule!r}")
        if self.cost_variant not in COST_VARIANTS:
            raise ValueError(f"unknown cost variant {self.cost_variant!r}")
        if self.energy_variant not in ENERGY_VARIANTS:
            raise ValueError(f"unknown energy variant {self.energy_variant!r}")


@dataclass
class SimState:
    initial: dict[str, float]
    drained_cum: dict[str, float]
    alive: list[str]
    round: int = 0
    current_tree: AggregationTree | None = None

    def residual(self, v: str) -> float:
        return self.initial[v] - self.drained_cum[v]

    def residuals(self) -> dict[str, float]:
        return {v: self.residual(v) for v in self.alive}


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


def drain_round(state: SimState, tree: AggregationTree, radio: RadioModel, graph) -> RoundReport:
    """Charge one round of traffic on the tree and record deaths.

    Every non-root node pays one transmission to its parent; every parent
    pays one reception per child. Nodes finish the round before a residual
    of <= 0 removes them. graph supplies link distances, which never change.
    """
    state.round += 1
    n_children = tree.children_counts()
    drained: dict[str, float] = {}
    for v in tree.dist:
        cost = 0.0
        if v != tree.root:
            cost += radio.tx_energy(graph.distance(tree.parent[v], v))
        kids = n_children.get(v, 0)
        if kids:
            cost += kids * radio.rx_cost
        drained[v] = cost
        state.drained_cum[v] += cost
    deaths = [v for v in state.alive if state.residual(v) <= 0]
    dead = set(deaths)
    state.alive = [v for v in state.alive if v not in dead]
    total = 0.0
    for cost in drained.values():
        total += cost
    return RoundReport(state.round, tree.root, drained, total, len(state.alive), deaths)


def _policy_chooser(policy: str, config: SimConfig, rng: random.Random):
    """Resolve a policy name into a tree chooser over the alive view."""
    if policy == "clmat":
        def choose(view):
            return select_aggregator(view, config.cost_variant, config.energy_variant,
                                     config.tie_rule, tx_energy=config.radio.tx_energy).tree
        return choose
    if policy.startswith("fixed:"):
        root = policy.split(":", 1)[1]

        def choose(view):
            if view.get_index(root) == -1:
                raise NoSpanningCandidate(f"fixed root {root} is not in the alive network")
            tree = shortest_path_tree(view, root)
            if len(tree.dist) != len(view):
                raise NoSpanningCandidate(f"fixed root {root} no longer spans the network")
            return tree
        return choose
    if policy == "max-energy":
        def choose(view):
            best = None
            for node in view.nodes:
                tree = shortest_path_tree(view, node.id)
                if len(tree.dist) != len(view):
                    continue
                if best is None or node.energy > best[0]:
                    best = (node.energy, tree)
            if best is None:
                raise NoSpanningCandidate("no spanning root available")
            return best[1]
        return choose
    if policy == "random":
        def choose(view):
            spanning = []
            for node in view.nodes:
                tree = shortest_path_tree(view, node.id)
                if len(tree.dist) == len(view):
                    spanning.append(tree)
            if not spanning:
                raise NoSpanningCandidate("no spanning root available")
            return rng.choice(spanning)
        return choose
    raise ValueError(f"unknown policy {policy!r}")


def run_lifetime(graph, config: SimConfig, policy: str = "clmat",
                 stop_at_first_death: bool = True,
                 rng: random.Random | None = None) -> LifetimeResult:
    """Drive rounds until the first death or the horizon.

    The tree is re-chosen every reselect_every rounds and after any death,
    always on the alive subgraph with current residuals as node energies.
    With stop_at_first_death False the run continues past deaths until the
    horizon or until no alive root spans the survivors (partitioned=True).
    Fully deterministic for a fixed graph, config, and policy.
    """
    config.validate()
    if not graph.nodes:
        raise NoSpanningCandidate("empty graph")
    if rng is None:
        rng = random.Random(config.seed)
    choose = _policy_chooser(policy, config, rng)
    state = SimState(
        initial={n.id: n.energy for n in graph.nodes},
        drained_cum={n.id: 0.0 for n in graph.nodes},
        alive=[n.id for n in graph.nodes],
    )
    reports: list[RoundReport] = []
    first_death: int | None = None
    delivered = 0
    partitioned = False
    need_select = True
    for r in range(1, config.max_rounds + 1):
        if need_select or (r - 1) % config.reselect_every == 0:
            view = graph.restricted(state.alive, state.residuals())
            try:
                state.current_tree = choose(view)
            except NoSpanningCandidate:
                if r == 1:
                    raise
                partitioned = True
                break
            need_select = False
        report = drain_round(state, state.current_tree, config.radio, graph)
        reports.append(report)
        delivered += len(state.current_tree.dist)
        if report.deaths:
            if first_death is None:
                first_death = r
            need_select = True
            if stop_at_first_death:
                break
    lifetime = first_death if first_death is not None else config.max_rounds
    final = {v: state.residual(v) for v in state.initial}
    return LifetimeResult(lifetime, reports, first_death, delivered, partitioned, final)


POLICIES = ("clmat", "max-energy", "random")  # plus "fixed:<id>"


def compare_policies(graph, config: SimConfig, policies,
                     random_trials: int = 5) -> list[tuple[str, float]]:
    """Lifetime per policy on identical initial conditions.

    The random-root policy is averaged over random_trials seeded runs; every
    other policy is deterministic, so a single run suffices.
    """
    rows: list[tuple[str, float]] = []
    for policy in policies:
        if policy == "random":
            total = 0.0
            for trial in range(random_trials):
                rng = random.Random(config.seed * 100003 + trial)
                total += run_lifetime(graph, config, policy, rng=rng).lifetime
            rows.append((policy, total / random_trials))
        else:
            rows.append((policy, float(run_lifetime(graph, config, policy).lifetime)))
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
    cum = {n.id: 0.0 for n in graph.nodes}
    alive = [n.id for n in graph.nodes]
    for rep in reports:
        for v in alive:
            if v in rep.drained:
                cum[v] += rep.drained[v]
            writer.writerow([rep.round, v, repr(graph.energy(v) - cum[v])])
        dead = set(rep.deaths)
        alive = [v for v in alive if v not in dead]
    return buf.getvalue()
