import csv
import dataclasses
import functools
import io
import itertools
import math
import operator
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clmat import cli, errors, simulator
from clmat.selection import select_aggregator
from clmat.simulator import (
    RadioModel,
    SimConfig,
    compare_policies,
    reports_csv,
    residual_trace_csv,
    run_lifetime,
)
from clmat.topology import NetworkGraph, export_json, random_topology
from clmat.trees import shortest_path_search

from graphgen import (
    f4,
    first_death_bound,
    random_connected_graph,
    reference_run_lifetime,
    restricted,
    round_costs,
    search_tree,
    shortest_path_tree,
    tie_heavy_graph,
    total_distance,
    two_node,
    with_energies,
)

FLAT = RadioModel(tx_fixed=1.0, tx_dist_coeff=0.0, exponent=2, rx_cost=0.5)


def test_radio_model_tx_energy():
    radio = RadioModel(tx_fixed=2.0, tx_dist_coeff=0.5, exponent=2, rx_cost=0.0)
    assert radio.tx_energy(3.0) == 2.0 + 0.5 * 9.0
    quartic = RadioModel(tx_fixed=0.0, tx_dist_coeff=1.0, exponent=4, rx_cost=0.0)
    assert quartic.tx_energy(2.0) == 16.0


def test_radio_model_tx_energy_overflow():
    far = 1e200  # far ** 2 and far ** 4 leave the float range
    assert RadioModel().tx_energy(far) == math.inf
    assert RadioModel(exponent=4).tx_energy(far) == math.inf
    flat = RadioModel(tx_fixed=2.0, tx_dist_coeff=0.0, exponent=4)
    assert flat.tx_energy(far) == 2.0


def test_radio_model_validation():
    with pytest.raises(ValueError):
        RadioModel(tx_fixed=-1.0)
    with pytest.raises(ValueError):
        RadioModel(exponent=3)


@pytest.mark.parametrize("field", ["tx_fixed", "tx_dist_coeff", "rx_cost"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_radio_model_rejects_non_finite(field, bad):
    with pytest.raises(ValueError):
        RadioModel(**{field: bad})


@pytest.mark.parametrize("field, bad", [
    ("tx_fixed", "a"), ("tx_fixed", None), ("tx_fixed", True),
    pytest.param("tx_fixed", 10**400, id="tx_fixed-10**400"),
    ("tx_dist_coeff", False), ("tx_dist_coeff", [1.0]), ("rx_cost", None), ("rx_cost", "0"),
    ("exponent", 2.0), ("exponent", 4.0), ("exponent", "2")])
def test_radio_model_rejects_what_is_not_a_number(field, bad):
    """A coefficient must be a finite int or float, the exponent the int 2 or 4;
    a bool is neither, and every bad value is a ValueError."""
    with pytest.raises(ValueError):
        RadioModel(**{field: bad})


def test_radio_model_takes_int_coefficients():
    radio = RadioModel(tx_fixed=1, tx_dist_coeff=0, exponent=4, rx_cost=2)
    assert radio.tx_energy(3.0) == 1 and radio.rx_cost == 2


def test_config_validation():
    """A SimConfig checks its settings when it is built or replaced, and is frozen."""
    with pytest.raises(ValueError, match="^max_rounds must be at least 1$"):
        SimConfig(max_rounds=0)
    with pytest.raises(ValueError, match="^reselect_every must be at least 1$"):
        SimConfig(reselect_every=0)
    cfg = SimConfig()
    with pytest.raises(ValueError, match="^max_rounds must be at least 1$"):
        dataclasses.replace(cfg, max_rounds=0)
    with pytest.raises(ValueError, match="^reselect_every must be at least 1$"):
        dataclasses.replace(cfg, reselect_every=-3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.max_rounds = 0
    assert cfg.max_rounds == 1000


@pytest.mark.parametrize("setting, message", [
    ({"max_rounds": 2.5}, "max_rounds must be an int"),
    ({"max_rounds": True}, "max_rounds must be an int"),
    ({"reselect_every": 1.5}, "reselect_every must be an int"),
    ({"radio": None}, "radio must be a RadioModel"),
    ({"seed": "a"}, "seed must be an int"),
])
def test_config_checks_types(setting, message):
    """A setting of the wrong type is a ValueError when the config is built or
    replaced, not a TypeError, a wrong run or an AttributeError mid-run; a bool
    is not a count, as in the loaders."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        SimConfig(**setting)
    with pytest.raises(ValueError, match=f"^{message}$"):
        dataclasses.replace(SimConfig(), **setting)


def test_config_tie_rule_is_checked_by_selection():
    with pytest.raises(ValueError) as built:
        SimConfig(tie_rule="coin")
    with pytest.raises(ValueError) as selected:
        select_aggregator(two_node(), tie_rule="coin")
    assert str(built.value) == str(selected.value) == "unknown tie rule 'coin'"
    with pytest.raises(ValueError, match="^unknown tie rule 'coin'$"):
        dataclasses.replace(SimConfig(), tie_rule="coin")


def test_drain_star():
    g = NetworkGraph()
    g.add_vertex("hub", 10.0)
    for i in range(3):
        g.add_vertex(f"leaf{i}", 10.0)
        g.add_edge("hub", f"leaf{i}", 1.0)
    [report] = run_lifetime(g, SimConfig(radio=FLAT, max_rounds=1), policy="fixed:hub").reports
    assert report.drained["hub"] == 1.5
    assert all(report.drained[f"leaf{i}"] == 1.0 for i in range(3))
    assert report.total_drained == 4.5
    assert report.deaths == []


def test_drain_chain():
    g = NetworkGraph()
    for name in ("A", "B", "C"):
        g.add_vertex(name, 10.0)
    g.add_edge("A", "B", 1.0)
    g.add_edge("B", "C", 1.0)
    [report] = run_lifetime(g, SimConfig(radio=FLAT, max_rounds=1), policy="fixed:A").reports
    assert report.drained == {"A": 0.5, "B": 1.5, "C": 1.0}


def test_drain_on_a_kept_tree_reports_each_death_once_in_alive_order():
    """Nodes that die in one round are charged in it and listed in insertion
    order, not tree order; the survivors' tree is then kept to the horizon,
    and no dead node is charged again."""
    g = NetworkGraph()
    for name, energy in [("C", 1.0), ("A", 10.0), ("B", 1.5)]:
        g.add_vertex(name, energy)
    g.add_edge("A", "B", 1.0)
    g.add_edge("B", "C", 1.0)
    result = run_lifetime(g, SimConfig(radio=FLAT, max_rounds=3), policy="fixed:A",
                          stop_at_first_death=False)
    first, *kept = result.reports
    assert first.drained == round_costs(shortest_path_tree(g, "A"), FLAT, g)
    assert (first.deaths, first.alive_count) == (["C", "B"], 1)
    assert [(r.drained, r.deaths, r.alive_count) for r in kept] == [({"A": 0.0}, [], 1)] * 2
    assert result.final_residuals == {"C": 0.0, "A": 9.5, "B": 0.0}
    assert (result.lifetime, result.partitioned) == (1, False)


def test_alive_view_knows_dead_and_unknown_roots():
    g = f4()
    view = simulator._AliveView(g, ["A", "C", "D"], FLAT, {})
    for v in ("A", "C", "D"):
        assert list(view.costs(v)) == ["A", "C", "D"]
    for v in ("B", "Z"):
        with pytest.raises(errors.NoSpanningCandidate, match=f"^root {v} is not in the alive network$"):
            view.costs(v)
    full = simulator._AliveView(g, g.node_ids(), FLAT, {})
    assert full.mask is None
    assert list(full.costs("B")) == g.node_ids()
    with pytest.raises(errors.NoSpanningCandidate, match="^root Z is not in the alive network$"):
        full.costs("Z")


def test_zero_radio_never_kills():
    g = f4()
    cfg = SimConfig(radio=RadioModel(0.0, 0.0, 2, 0.0), max_rounds=5)
    result = run_lifetime(g, cfg)
    assert result.lifetime == 5
    assert result.first_death_round is None
    assert all(not r.deaths for r in result.reports)


def test_two_node_lifetime_three():
    # leaf 3 J, root 5 J, flat tx 1 J, rx 0.5 J: the leaf dies closing round 3
    g = two_node(e_first=3.0, e_second=5.0)
    cfg = SimConfig(radio=FLAT, max_rounds=10, reselect_every=10)
    result = run_lifetime(g, cfg)
    assert result.reports[0].aggregator == "b"
    assert result.lifetime == 3
    assert len(result.reports) == 3
    assert result.reports[-1].deaths == ["a"]


def test_horizon_cap_without_deaths():
    g = two_node(e_first=1e9, e_second=1e9)
    result = run_lifetime(g, SimConfig(radio=FLAT, max_rounds=1))
    assert result.lifetime == 1
    assert result.first_death_round is None
    assert len(result.reports) == 1


def test_determinism():
    g = random_connected_graph(random.Random(31), n=8)
    cfg = SimConfig(radio=RadioModel(0.2, 0.001, 2, 0.1), max_rounds=200, seed=4)
    a = run_lifetime(g, cfg)
    b = run_lifetime(g, cfg)
    assert a == b
    assert reports_csv(a.reports) == reports_csv(b.reports)


def test_conservation_is_exact():
    g = random_connected_graph(random.Random(32), n=10, energy_lo=3.0, energy_hi=8.0)
    cfg = SimConfig(radio=RadioModel(0.2, 0.001, 2, 0.1), max_rounds=500)
    result = run_lifetime(g, cfg, stop_at_first_death=False)
    assert result.first_death_round is not None
    # refold the reported drains per node in round order; the final residual
    # must equal initial minus that fold, bit for bit
    refold = {v: 0.0 for v in g.node_ids()}
    for report in result.reports:
        # the plain left fold: from 3.12, sum() compensates and can differ in the last bit
        fold = functools.reduce(operator.add, report.drained.values(), 0.0)
        assert report.total_drained == fold
        for v, d in report.drained.items():
            refold[v] += d
    total_final = 0.0
    total_expected = 0.0
    for n in g.nodes:
        assert result.final_residuals[n.id] == n.energy - refold[n.id]
        total_final += result.final_residuals[n.id]
        total_expected += n.energy - refold[n.id]
    assert total_final == total_expected


@pytest.mark.parametrize("run", [
    lambda g, cfg: run_lifetime(g, cfg, "max-energy"),
    lambda g, cfg: run_lifetime(g, cfg, "clmat", stop_at_first_death=False),
    lambda g, cfg: compare_policies(g, cfg, ["clmat", "max-energy", "random", "fixed:n0"]),
    lambda g, cfg: select_aggregator(g),
], ids=["first-death", "exhaustion", "compare", "select"])
def test_no_run_writes_to_its_graph(run):
    """Residuals live in the run's ledger: the graph's text and energies stay as loaded."""
    g = random_topology(15, 100.0, 60.0, 0.1, 0.15, seed=5)
    text, energies = export_json(g), [n.energy for n in g.nodes]
    run(g, SimConfig(radio=RadioModel(1e-3, 1e-6, 2, 5e-4), max_rounds=400))
    assert export_json(g) == text
    assert [n.energy for n in g.nodes] == energies


def test_monotone_residuals():
    g = random_connected_graph(random.Random(33), n=6, energy_lo=3.0, energy_hi=6.0)
    cfg = SimConfig(radio=RadioModel(0.2, 0.001, 2, 0.1), max_rounds=300)
    result = run_lifetime(g, cfg, stop_at_first_death=False)
    last = {v: math.inf for v in g.node_ids()}
    cum = {v: 0.0 for v in g.node_ids()}
    for report in result.reports:
        for v, d in report.drained.items():
            cum[v] += d
            residual = g.energy(v) - cum[v]
            assert residual <= last[v]
            last[v] = residual


def test_perfect_aggregation_transmission_count():
    # flat tx 1, rx 0: total drain per round equals the number of non-root nodes
    g = f4()
    cfg = SimConfig(radio=RadioModel(1.0, 0.0, 2, 0.0), max_rounds=2)
    result = run_lifetime(g, cfg)
    for report in result.reports:
        assert report.total_drained == float(len(report.drained) - 1)


def test_max_energy_policy_roots_at_max():
    g = two_node(e_first=5.0, e_second=4.9)
    cfg = SimConfig(radio=FLAT, max_rounds=10)
    result = run_lifetime(g, cfg, policy="max-energy")
    assert all(r.aggregator == "a" for r in result.reports)
    assert result.lifetime == 5  # b pays 1 J per round from 4.9 J


def test_fixed_policy_and_unknown_policy():
    g = two_node()
    cfg = SimConfig(radio=FLAT, max_rounds=5)
    result = run_lifetime(g, cfg, policy="fixed:a")
    assert all(r.aggregator == "a" for r in result.reports)
    with pytest.raises(ValueError):
        run_lifetime(g, cfg, policy="leach")


def test_partition_flag_on_bridge_death():
    g = NetworkGraph()
    g.add_vertex("A", 10.0)
    g.add_vertex("B", 2.5)
    g.add_vertex("C", 10.0)
    g.add_edge("A", "B", 1.0)
    g.add_edge("B", "C", 1.0)
    cfg = SimConfig(radio=FLAT, max_rounds=50)
    result = run_lifetime(g, cfg, stop_at_first_death=False)
    assert result.reports[-1].deaths == ["B"]
    assert result.lifetime == result.first_death_round == 3
    assert result.partitioned


def test_exhaustion_continues_past_deaths():
    g = NetworkGraph()
    g.add_vertex("hub", 100.0)
    for i, energy in enumerate((2.0, 3.0, 4.0)):
        g.add_vertex(f"leaf{i}", energy)
        g.add_edge("hub", f"leaf{i}", 1.0)
    cfg = SimConfig(radio=FLAT, max_rounds=6)
    result = run_lifetime(g, cfg, policy="fixed:hub", stop_at_first_death=False)
    assert result.first_death_round == 2
    assert result.lifetime == 2
    assert len(result.reports) == 6
    assert [r.deaths for r in result.reports] == [[], ["leaf0"], ["leaf1"], ["leaf2"], [], []]
    assert not result.partitioned
    assert result.delivered_packets == 4 + 4 + 3 + 2 + 1 + 1


def test_run_raises_without_spanning_start():
    g = NetworkGraph()
    with pytest.raises(errors.NoSpanningCandidate):
        run_lifetime(g, SimConfig())
    g = f4()
    g.add_vertex("island", 5.0)
    with pytest.raises(errors.NoSpanningCandidate):
        run_lifetime(g, SimConfig(radio=FLAT))


def test_every_policy_reports_a_disconnected_network_alike():
    g = NetworkGraph()
    for v in "abc":
        g.add_vertex(v, 1.0)
    g.add_edge("a", "b", 1.0)
    cfg = SimConfig(radio=FLAT)
    policies = ["clmat", "max-energy", "random", "fixed:a", "fixed:c"]
    for policy in policies:
        for stop in (True, False):
            with pytest.raises(errors.NoSpanningCandidate,
                               match="^no candidate tree spans every node$"):
                run_lifetime(g, cfg, policy, stop)
    for order in itertools.permutations(policies, 2):
        with pytest.raises(errors.NoSpanningCandidate,
                           match="^no candidate tree spans every node$"):
            compare_policies(g, cfg, order)


def test_compare_policies_two_node_degenerate():
    g = two_node(e_first=3.0, e_second=5.0)
    cfg = SimConfig(radio=FLAT, max_rounds=20, reselect_every=20)
    rows = dict(compare_policies(g, cfg, ["clmat", "fixed:b"]))
    assert rows["clmat"] == rows["fixed:b"] == 3.0


def test_compare_policies_dominance_on_f4():
    cfg = SimConfig(radio=RadioModel(0.3, 0.01, 2, 0.2), max_rounds=100)
    g = f4()
    rows = dict(compare_policies(g, cfg, ["clmat"] + [f"fixed:{v}" for v in g.node_ids()]))
    worst_fixed = min(v for k, v in rows.items() if k.startswith("fixed:"))
    assert rows["clmat"] >= worst_fixed


def test_compare_policies_deterministic_with_random():
    g = f4()
    cfg = SimConfig(radio=RadioModel(0.3, 0.01, 2, 0.2), max_rounds=100, seed=9)
    a = compare_policies(g, cfg, ["clmat", "random"], random_trials=4)
    b = compare_policies(g, cfg, ["clmat", "random"], random_trials=4)
    assert a == b


def test_compare_policies_random_row_is_mean_of_seeded_runs():
    g = f4()
    cfg = SimConfig(radio=RadioModel(0.3, 0.01, 2, 0.2), max_rounds=100, seed=9)
    lifetimes = [run_lifetime(g, dataclasses.replace(cfg, seed=cfg.seed * 100003 + trial),
                              "random").lifetime
                 for trial in range(4)]
    assert len(set(lifetimes)) > 1  # the trials draw different roots
    assert compare_policies(g, cfg, ["random"], random_trials=4) == [
        ("random", sum(lifetimes) / 4)]


@pytest.mark.parametrize("trials", [0, -1])
def test_compare_policies_rejects_fewer_than_one_random_trial(trials):
    cfg = SimConfig(radio=FLAT, max_rounds=20)
    with pytest.raises(ValueError, match="random_trials"):
        compare_policies(f4(), cfg, ["clmat", "random"], random_trials=trials)


def test_compare_policies_needs_an_int_trial_count_before_any_run(monkeypatch):
    def no_run(*args):
        raise AssertionError("a policy ran before the trial count was checked")

    monkeypatch.setattr(simulator, "_run", no_run)
    with pytest.raises(ValueError, match="^random_trials must be an int$"):
        compare_policies(f4(), SimConfig(radio=FLAT), ["clmat", "random"], random_trials=2.5)


def test_compare_policies_checks_every_name_before_any_run(monkeypatch):
    def no_run(*args):
        raise AssertionError("a policy ran before the names were checked")

    monkeypatch.setattr(simulator, "_run", no_run)
    cfg = SimConfig(radio=FLAT, max_rounds=20)
    with pytest.raises(ValueError, match="unknown policy 'nope'"):
        compare_policies(f4(), cfg, ["clmat", "max-energy", "nope"])


@pytest.mark.parametrize("policy", [None, 5, b"clmat", ["clmat"]])
def test_a_policy_that_is_not_a_str_is_a_value_error_before_any_run(monkeypatch, policy):
    def no_run(*args):
        raise AssertionError("a policy ran before its name was checked")

    monkeypatch.setattr(simulator, "_run", no_run)
    cfg = SimConfig(radio=FLAT, max_rounds=20)
    with pytest.raises(ValueError, match="^unknown policy "):
        simulator.check_policy(policy)
    with pytest.raises(ValueError, match="^unknown policy "):
        run_lifetime(f4(), cfg, policy=policy)
    with pytest.raises(ValueError, match="^unknown policy "):
        compare_policies(f4(), cfg, ["clmat", policy])


def test_fixed_policy_needs_a_node_id():
    """No node id is empty, so fixed: with none is a bad policy name, not a
    fixed root that is missing from the alive network."""
    with pytest.raises(ValueError, match="unknown policy 'fixed:'"):
        simulator.check_policy("fixed:")
    with pytest.raises(ValueError, match="unknown policy 'fixed:'"):
        run_lifetime(f4(), SimConfig(radio=FLAT, max_rounds=20), policy="fixed:")
    simulator.check_policy("fixed: ")  # an id may be a space


def test_each_entry_point_checks_each_policy_once(monkeypatch, tmp_path, capsys):
    """The CLI, run_lifetime and compare_policies check every policy name
    once, before any run; the runs themselves check none again."""
    checked = []
    check = simulator.check_policy

    def spy(policy):
        checked.append(policy)
        check(policy)

    monkeypatch.setattr(simulator, "check_policy", spy)
    monkeypatch.setattr(cli, "check_policy", spy)
    cfg = SimConfig(radio=FLAT, max_rounds=20)
    policies = ["clmat", "max-energy", "random", "fixed:A"]
    compare_policies(f4(), cfg, policies, random_trials=3)
    assert checked == policies
    checked.clear()
    run_lifetime(f4(), cfg, policy="random")
    assert checked == ["random"]
    checked.clear()
    path = tmp_path / "f4.json"
    path.write_text(export_json(f4()), encoding="utf-8")
    assert cli.main(["compare", str(path), "--policies", ",".join(policies), "--trials", "3",
                     "-o", str(tmp_path / "compare.txt")]) == 0
    assert checked == policies * 2  # the CLI's checks, then compare_policies'
    checked.clear()
    assert cli.main(["simulate", str(path), "--policy", "random",
                     "-o", str(tmp_path / "rounds.csv")]) == 0
    assert checked == ["random"] * 2
    capsys.readouterr()


def test_compare_policies_builds_each_full_network_tree_once(monkeypatch):
    """Every compare run starts from the whole network, so all policies and
    random trials share one first view: each root's unmasked search on the
    input graph runs at most once."""
    g = random_topology(12, 100.0, 80.0, 0.1, 0.15, seed=3)
    cfg = SimConfig(radio=RadioModel(1e-3, 1e-6, 2, 5e-4), seed=2)
    policies = ["clmat", "max-energy", "random", "fixed:n4"]
    trial_cfgs = [dataclasses.replace(cfg, seed=cfg.seed * 100003 + t) for t in range(3)]
    separate = []
    for policy in policies:
        cfgs = trial_cfgs if policy == "random" else [cfg]
        separate.append((policy, sum(run_lifetime(g, c, policy).lifetime for c in cfgs) / len(cfgs)))

    built = []
    search = simulator.shortest_path_search

    def spy_search(graph, ri, alive=None):
        built.append((graph, ri, alive))
        return search(graph, ri, alive)

    monkeypatch.setattr(simulator, "shortest_path_search", spy_search)
    rows = compare_policies(g, cfg, policies, random_trials=len(trial_cfgs))
    assert rows == separate
    full = [graph.nodes[ri].id for graph, ri, alive in built if alive is None]
    assert all(graph is g for graph, ri, alive in built)
    # clmat builds every root first; the other runs reuse those trees
    assert full == g.node_ids()


def test_views_of_one_run_share_a_store_but_never_reuse_a_stale_search(monkeypatch):
    """A later view searches again a root whose stored search spanned the
    larger alive set of an earlier view, overwrites the entry, and reuses
    its own; a stale entry whose root no longer spans is never returned."""
    g = NetworkGraph()
    for v in "abcd":
        g.add_vertex(v, 1.0)
    for u, v in [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]:
        g.add_edge(u, v, 1.0)
    built = []
    search = simulator.shortest_path_search

    def spy_search(graph, ri, alive=None):
        built.append(graph.nodes[ri].id)
        return search(graph, ri, alive)

    monkeypatch.setattr(simulator, "shortest_path_search", spy_search)
    store = {}
    first = simulator._AliveView(g, g.node_ids(), FLAT, store)
    full = {v: first.search(g.get_index(v)) for v in "abc"}
    assert first.search(g.get_index("a")) is full["a"]
    assert built == ["a", "b", "c"]
    assert store == {g.get_index(v): full[v] for v in "abc"}
    # d dies: a, b and c still span, as a path
    second = simulator._AliveView(g, ["a", "b", "c"], FLAT, store)
    assert second.searches is store
    a = second.search(g.get_index("a"))
    assert a is not full["a"] and a.reached == 3
    assert second.search(g.get_index("a")) is a
    assert store[g.get_index("a")] is a
    assert built == ["a", "b", "c", "a"]
    # then b dies: neither a nor c spans, and b's stale entry stays unused
    third = simulator._AliveView(g, ["a", "c"], FLAT, store)
    for _ in range(2):
        with pytest.raises(errors.NoSpanningCandidate):
            third.search(g.get_index("a"))
    assert built == ["a", "b", "c", "a", "a", "a"]
    assert store[g.get_index("a")] is a and store[g.get_index("b")] is full["b"]


@pytest.mark.parametrize("policies", ["max-energy,random,clmat", "clmat,max-energy,random"])
def test_compare_makes_one_search_per_root_in_any_policy_order(tmp_path, monkeypatch, policies):
    """compare's runs share one store, so each root is searched once whichever
    policy asks first; when clmat comes last it reads the searches that
    max-energy and random left, and every lifetime is the same in both orders."""
    g = random_topology(12, 100.0, 80.0, 0.1, 0.15, seed=3)
    topo = tmp_path / "topo.json"
    topo.write_text(export_json(g), encoding="utf-8")
    search = simulator.shortest_path_search
    chooser = simulator._policy_chooser

    def compare(order):
        """The lifetimes by policy, and the run's events: ("run", policy) as
        each run starts, ("search", root) as each search does."""
        events = []

        def spy_search(graph, ri, alive=None):
            events.append(("search", graph.nodes[ri].id))
            return search(graph, ri, alive)

        def spy_chooser(policy, tie_key, rng):
            events.append(("run", policy))
            return chooser(policy, tie_key, rng)

        monkeypatch.setattr(simulator, "shortest_path_search", spy_search)
        monkeypatch.setattr(simulator, "_policy_chooser", spy_chooser)
        out = tmp_path / "compare.txt"
        assert cli.main(["compare", str(topo), "--policies", order, "--trials", "3",
                         "--radio", "1e-2,1e-5,2,5e-3", "--format", "csv",
                         "-o", str(out)]) == 0
        monkeypatch.undo()
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        return dict(line.split(",") for line in rows), events

    lifetimes, events = compare(policies)
    searched = [root for kind, root in events if kind == "search"]
    assert sorted(searched) == sorted(g.node_ids())
    clmat_run = events.index(("run", "clmat"))
    by_clmat = [root for kind, root in events[clmat_run:] if kind == "search"]
    if policies.startswith("clmat"):
        assert by_clmat == g.node_ids()
    else:  # the others left entries, which clmat read and did not search again
        assert 0 < len(by_clmat) < len(g)
    other = "clmat,max-energy,random" if policies.startswith("max") else "max-energy,random,clmat"
    assert compare(other)[0] == lifetimes


def test_reports_csv_shape():
    g = two_node(e_first=3.0, e_second=5.0)
    result = run_lifetime(g, SimConfig(radio=FLAT, max_rounds=10))
    text = reports_csv(result.reports)
    lines = text.splitlines()
    assert lines[0] == "round,aggregator,total_drained,alive,deaths"
    assert len(lines) == 1 + len(result.reports)
    assert lines[-1].endswith(",a")  # the leaf's death is recorded


def test_residual_trace_matches_reports():
    g = f4()
    cfg = SimConfig(radio=RadioModel(0.3, 0.01, 2, 0.2), max_rounds=100)
    result = run_lifetime(g, cfg, stop_at_first_death=False)
    trace = residual_trace_csv(g, result.reports)
    rows = [line.split(",") for line in trace.splitlines()[1:]]
    cum = {v: 0.0 for v in g.node_ids()}
    seen = set()
    for report in result.reports:
        for v, d in report.drained.items():
            cum[v] += d
            seen.add((str(report.round), v, repr(g.energy(v) - cum[v])))
    assert {tuple(r) for r in rows} == seen


def _trace_by_writer(graph, reports) -> str:
    """residual_trace_csv's rows, each written by csv.writer."""
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
        alive = [v for v in alive if v not in rep.deaths]
    return buf.getvalue()


_RADIOS = st.builds(RadioModel, tx_fixed=st.floats(0.0, 1.0),
                    tx_dist_coeff=st.just(0.0) | st.floats(0.0, 1.0),
                    exponent=st.sampled_from([2, 4]), rx_cost=st.floats(0.0, 1.0))


@pytest.mark.referee
@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 9), isolated=st.booleans(),
       radio=_RADIOS, data=st.data())
def test_view_costs_match_round_costs_of_the_searched_tree(seed, n, isolated, radio, data):
    """The costs a view reads off a masked search equal the tree walk's, bit for
    bit and in key order, for every alive root."""
    g = tie_heavy_graph(random.Random(seed), n, isolated)
    keep = data.draw(st.lists(st.booleans(), min_size=len(g), max_size=len(g)))
    assume(any(keep))
    alive = [v for v, k in zip(g.node_ids(), keep) if k]
    view = simulator._AliveView(g, alive, radio, {})
    for root in alive:
        paths = shortest_path_search(g, g.get_index(root), bytearray(keep))
        if paths.reached != len(alive):
            with pytest.raises(errors.NoSpanningCandidate,
                               match="^no candidate tree spans every node$"):
                view.costs(root)
            continue
        want = round_costs(search_tree(g.node_ids(), root, paths), radio, g)
        got = view.costs(root)
        assert [(v, d.hex()) for v, d in got.items()] == [(v, d.hex()) for v, d in want.items()]
        assert view.costs(root) is got


# characters csv must quote, or that a line-based reader would split on
_AWKWARD_IDS = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "\u2028", "a", "b"]),
                       min_size=1, max_size=4)


@pytest.mark.referee
@settings(max_examples=200, deadline=None)
@given(ids=st.lists(_AWKWARD_IDS, min_size=1, max_size=6, unique=True), data=st.data())
def test_residual_trace_matches_csv_writer_rows(ids, data):
    g = NetworkGraph()
    for v in ids:
        g.add_vertex(v, data.draw(st.sampled_from([1.0, 2.0, 3.5])))
    for i in range(1, len(ids)):
        g.add_edge(ids[data.draw(st.integers(0, i - 1))], ids[i], 1.0)
    result = run_lifetime(g, SimConfig(radio=FLAT, max_rounds=8), stop_at_first_death=False)
    assert residual_trace_csv(g, result.reports) == _trace_by_writer(g, result.reports)


@st.composite
def drain_graphs(draw):
    """Small graphs with weights 1-3 and few distinct energies.

    Equal distances make selection ties common, and equal energies make
    max-energy ties common; energies of a few rounds' drain make runs
    cross several deaths within the horizon. Names sort against insertion
    order.
    """
    n = draw(st.integers(1, 8))
    names = [f"v{n - i}" for i in range(n)]
    g = NetworkGraph()
    weights = st.integers(1, 3).map(float)
    for name in names:
        g.add_vertex(name, draw(st.sampled_from([2.0, 2.0, 3.0, 4.0, 6.0])))
    for i in range(1, n if draw(st.integers(0, 3)) else 1):
        # usually a backbone from the first node; re-adding the pair in
        # the other order overwrites its distance
        parent = names[draw(st.integers(0, i - 1))]
        g.add_edge(parent, names[i], draw(weights))
        if draw(st.booleans()):
            g.add_edge(names[i], parent, draw(weights))
    if n > 1:
        pairs = st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(
            lambda p: p[0] != p[1])
        for u, v in draw(st.lists(pairs, max_size=2 * n)):
            g.add_edge(u, v, draw(weights))
    return g


def _outcome(run, graph, config, policy, stop_at_first_death):
    try:
        result = run(graph, config, policy, stop_at_first_death=stop_at_first_death)
    except Exception as exc:  # the exception itself is what gets compared
        return type(exc), str(exc)
    return (reports_csv(result.reports), residual_trace_csv(graph, result.reports),
            (result.lifetime, result.first_death_round, result.delivered_packets,
             result.partitioned),
            result.final_residuals)


@pytest.mark.referee
@settings(max_examples=300, deadline=None)
@given(g=drain_graphs(),
       policy=st.sampled_from(["clmat", "max-energy", "random", "fixed:v1", "fixed:v3",
                               "fixed:absent"]),
       tie_rule=st.sampled_from(["min-depth", "first-min"]),
       reselect_every=st.sampled_from([1, 2, 3]),
       max_rounds=st.integers(1, 20),
       stop_at_first_death=st.booleans(),
       seed=st.integers(0, 3))
def test_run_lifetime_matches_per_round_reference(g, policy, tie_rule, reselect_every,
                                                   max_rounds, stop_at_first_death, seed):
    # receiving costs more than sending, so a busy root drains fastest and
    # max-energy moves the root between deaths
    config = SimConfig(radio=RadioModel(0.125, 0.05, 2, 0.5), max_rounds=max_rounds,
                       reselect_every=reselect_every, tie_rule=tie_rule, seed=seed)
    assert (_outcome(run_lifetime, g, config, policy, stop_at_first_death)
            == _outcome(reference_run_lifetime, g, config, policy, stop_at_first_death))


@st.composite
def tie_graphs(draw):
    """Connected graphs of 3-8 nodes with weights 1-2 and energies of 1-3 J.

    So many equal distances make equal totals between roots common, and
    runs cross several deaths in a few rounds. Names sort against
    insertion order.
    """
    n = draw(st.integers(3, 8))
    names = [f"v{n - i}" for i in range(n)]
    g = NetworkGraph()
    weights = st.integers(1, 2).map(float)
    for name in names:
        g.add_vertex(name, draw(st.sampled_from([1.0, 2.0, 3.0])))
    for i in range(1, n):
        g.add_edge(names[draw(st.integers(0, i - 1))], names[i], draw(weights))
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(
        lambda p: p[0] != p[1])
    for u, v in draw(st.lists(pairs, max_size=2 * n)):
        g.add_edge(u, v, draw(weights))
    return g


@pytest.mark.referee
@settings(max_examples=300, deadline=None)
@given(g=tie_graphs(), tie_rule=st.sampled_from(["min-depth", "first-min"]))
def test_clmat_run_to_exhaustion_matches_reference_on_tie_heavy_graphs(g, tie_rule):
    config = SimConfig(radio=RadioModel(0.3, 0.1, 2, 0.2), max_rounds=30, tie_rule=tie_rule)
    assert (_outcome(run_lifetime, g, config, "clmat", False)
            == _outcome(reference_run_lifetime, g, config, "clmat", False))


@pytest.mark.referee
@settings(max_examples=200, deadline=None)
@given(g=tie_graphs(), data=st.data(), stop_at_first_death=st.booleans())
def test_fixed_root_death_matches_reference(g, data, stop_at_first_death):
    """A fixed root that dies leaves no tree to drain on: the run ends as the
    reference's does, after any deaths that came first."""
    root = data.draw(st.sampled_from(g.node_ids()))
    g = with_energies(g, {v: data.draw(st.sampled_from([0.1, 0.5, 1.0, 2.0])) if v == root
                          else g.energy(v) for v in g.node_ids()})
    config = SimConfig(radio=RadioModel(0.3, 0.1, 2, 0.2), max_rounds=30,
                       reselect_every=data.draw(st.sampled_from([1, 3])))
    policy = f"fixed:{root}"
    reference = reference_run_lifetime(g, config, policy, stop_at_first_death)
    assume(any(root in r.deaths for r in reference.reports))
    assert (_outcome(run_lifetime, g, config, policy, stop_at_first_death)
            == _outcome(reference_run_lifetime, g, config, policy, stop_at_first_death))


# harsh enough that most runs see a death well within a few hundred rounds
_HARSH_RADIOS = st.builds(RadioModel, tx_fixed=st.sampled_from([0.05, 0.2]),
                          tx_dist_coeff=st.sampled_from([0.0, 0.001, 0.005]),
                          exponent=st.sampled_from([2, 4]), rx_cost=st.sampled_from([0.0, 0.1]))


@pytest.mark.referee
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32), radio=_HARSH_RADIOS,
       tie_rule=st.sampled_from(["min-depth", "first-min"]))
def test_clmat_first_death_run_equals_its_fixed_root(seed, radio, tie_rule):
    """clmat re-picks only after a death, so up to the first death it drains the
    tree of its round-1 root: the run of fixed:<that root> is the same run, in
    lifetime and in every final residual, bit for bit."""
    g = random_connected_graph(random.Random(seed))
    config = SimConfig(radio=radio, max_rounds=300, tie_rule=tie_rule)
    clmat = run_lifetime(g, config, "clmat")
    fixed = run_lifetime(g, config, f"fixed:{clmat.reports[0].aggregator}")
    assert fixed.lifetime == clmat.lifetime
    assert ({v: r.hex() for v, r in fixed.final_residuals.items()}
            == {v: r.hex() for v, r in clmat.final_residuals.items()})


@pytest.mark.referee
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32), radio=_HARSH_RADIOS)
def test_no_policy_outlives_the_first_death_energy_bound(seed, radio):
    """Every policy's first-death lifetime, each fixed root's included, stays
    below the bound that the least possible drain per round gives."""
    g = random_connected_graph(random.Random(seed))
    policies = ["clmat", "max-energy", "random", *(f"fixed:{v}" for v in g.node_ids())]
    bound = first_death_bound(g, radio)
    for policy, life in compare_policies(g, SimConfig(radio=radio, max_rounds=300), policies,
                                         random_trials=2):
        assert life < bound * (1 + 1e-9), (policy, life, bound)


@pytest.mark.referee
@pytest.mark.parametrize("tie_rule, winner", [("first-min", "a"), ("min-depth", "b")])
def test_clmat_stale_bound_order_does_not_break_ties(monkeypatch, tie_rule, winner):
    """After x dies, a and b tie on total distance but b has the lower bound.

    b reached p through x, so b's stale row is lower than its new one: b is
    built first. The tie rule must still see a and b in index order.
    """
    g = NetworkGraph()
    for name, energy in [("a", 10.0), ("b", 10.0), ("p", 10.0), ("q", 10.0), ("x", 1.5)]:
        g.add_vertex(name, energy)
    for u, v, d in [("a", "b", 1.0), ("a", "p", 2.0), ("b", "q", 1.0), ("b", "x", 1.0),
                    ("x", "p", 1.0)]:
        g.add_edge(u, v, d)
    # round 1 builds every root; b wins, and x, relaying for p, dies that round
    survivors = ["a", "b", "p", "q"]
    view = restricted(g, survivors)
    bounds = {r: sum(shortest_path_tree(g, r).dist[v] for v in survivors if v != r)
              for r in survivors}
    totals = {r: total_distance(shortest_path_tree(view, r)) for r in survivors}
    assert bounds == {"a": 5.0, "b": 4.0, "p": 7.0, "q": 6.0}
    assert totals == {"a": 5.0, "b": 5.0, "p": 9.0, "q": 7.0}
    assert shortest_path_tree(view, "a").depth == shortest_path_tree(view, "b").depth

    built = []
    search = simulator.shortest_path_search

    def spy_search(graph, ri, alive=None):
        # (alive count, root) of each search
        built.append((len(graph) if alive is None else sum(alive), graph.nodes[ri].id))
        return search(graph, ri, alive)

    monkeypatch.setattr(simulator, "shortest_path_search", spy_search)
    config = SimConfig(radio=FLAT, max_rounds=2, tie_rule=tie_rule)
    result = run_lifetime(g, config, stop_at_first_death=False)
    assert [(r.aggregator, r.deaths) for r in result.reports] == [("b", ["x"]), (winner, [])]
    # q's bound of 6 is above the tie at 5, so only b and a are built, by bound
    assert [root for n, root in built if n == 4] == ["b", "a"]
    monkeypatch.undo()
    assert result == reference_run_lifetime(g, config, stop_at_first_death=False)


def test_energy_aware_policies_repick_at_cadence():
    # the hub starts richest but pays for three children, so a cadence of
    # one round moves max-energy off it before anyone dies
    g = NetworkGraph()
    for name, energy in [("a", 3.0), ("b", 2.0), ("c", 2.0), ("d", 2.0)]:
        g.add_vertex(name, energy)
    for u, v in [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("c", "d")]:
        g.add_edge(u, v, 1.0)
    radio = RadioModel(0.125, 0.05, 2, 0.5)
    for policy in ("max-energy", "random"):
        for every, want_switch in ((1, True), (20, False)):
            cfg = SimConfig(radio=radio, max_rounds=20, reselect_every=every, seed=1)
            result = run_lifetime(g, cfg, policy)
            roots = {r.aggregator for r in result.reports}
            assert (len(roots) > 1) == want_switch, (policy, every, roots)
            assert result == reference_run_lifetime(g, cfg, policy)


def _spied_simulate(tmp_path, monkeypatch, g, policy):
    """Run `simulate --until exhaustion` on g, recording views and tree searches.

    Returns the alive set of each view in order, the searches as
    (1-based view number, root), and the round CSV rows. Views are counted
    where they are made: a view masks the dead nodes out of the input
    graph, so the run makes no graph copy at all.
    """
    topo = tmp_path / "topo.json"
    topo.write_text(export_json(g), encoding="utf-8")
    rounds_csv = tmp_path / "rounds.csv"
    views, built = [], []
    make_view = simulator._AliveView.__init__
    search = simulator.shortest_path_search

    def spy_view(self, graph, alive, radio, searches):
        views.append(tuple(alive))
        make_view(self, graph, alive, radio, searches)

    def spy_search(graph, ri, alive=None):
        built.append((len(views), graph.nodes[ri].id))
        return search(graph, ri, alive)

    monkeypatch.setattr(simulator._AliveView, "__init__", spy_view)
    monkeypatch.setattr(simulator, "shortest_path_search", spy_search)
    code = cli.main(["simulate", str(topo), "--policy", policy, "--reselect-every", "1",
                     "--until", "exhaustion", "--radio", "1e-3,1e-6,2,5e-4",
                     "-o", str(rounds_csv)])
    assert code == 0
    rows = [line.split(",") for line in rounds_csv.read_text(encoding="utf-8").splitlines()[1:]]
    return views, built, rows


def test_one_view_per_alive_set_and_bounded_clmat_builds(tmp_path, monkeypatch):
    """clmat makes one view per alive set and, after a death, builds only
    the trees whose stale-row bound can still win or tie."""
    g = random_topology(12, 100.0, 60.0, 0.1, 0.15, seed=3)
    views, built, rows = _spied_simulate(tmp_path, monkeypatch, g, "clmat")
    death_rounds = [int(r[0]) for r in rows if r[4]]
    assert len(rows) > len(death_rounds) > 1  # several alive sets, each kept a while
    # a view for round 1 and after every death that another round follows
    alive_sets = [g.node_ids()]
    for r in rows:
        if r[4] and int(r[0]) < 1000:
            dead = set(r[4].split(";"))
            alive_sets.append([v for v in alive_sets[-1] if v not in dead])
    assert views == [tuple(a) for a in alive_sets]
    # with no stale rows yet, view 1 builds every root, in node order
    assert [root for k, root in built if k == 1] == g.node_ids()
    # each later view builds the root it picks, and each root at most once;
    # a death ends a view, and the last view may find the survivors partitioned
    picked = [[] for _ in views]
    k = 0
    for r in rows:
        picked[k].append(r[1])
        if r[4]:
            k += 1
    for k, roots in enumerate(picked[1:], 2):
        trees = [root for view, root in built if view == k]
        assert len(trees) == len(set(trees)), (k, trees)
        if roots:
            assert len(set(roots)) == 1 and roots[0] in trees, (k, trees, roots)
        else:
            assert len(trees) <= 1, (k, trees)
    later = [root for k, root in built if k > 1]
    assert len(later) < sum(len(a) for a in alive_sets[1:])


@pytest.mark.parametrize("policy", ["max-energy", "random", "fixed:n4"])
def test_one_tree_per_picked_root_per_alive_set(tmp_path, monkeypatch, policy):
    """max-energy, random and fixed:<id> build only the trees of roots they pick."""
    g = random_topology(12, 100.0, 80.0, 0.1, 0.15, seed=3)
    views, built, rows = _spied_simulate(tmp_path, monkeypatch, g, policy)
    # the aggregators of the rounds each view served; a death ends a view
    picked = [[] for _ in views]
    k = 0
    for r in rows:
        picked[k].append(r[1])
        if r[4]:
            k += 1
    assert len(views) > 2 and all(picked[:-1])
    for k, roots in enumerate(picked, 1):
        trees = [root for view, root in built if view == k]
        assert len(trees) == len(set(trees)), (k, trees)
        if roots:
            assert set(trees) == set(roots), (k, trees, roots)
        else:  # the view that found the survivors partitioned
            assert len(trees) <= 1, (k, trees)
