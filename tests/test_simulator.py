import math
import random

import pytest

from clmat import errors
from clmat.simulator import (
    LifetimeResult,
    RadioModel,
    SimConfig,
    SimState,
    compare_policies,
    drain_round,
    reports_csv,
    residual_trace_csv,
    run_lifetime,
)
from clmat.topology import NetworkGraph
from clmat.trees import shortest_path_tree

from graphgen import f4, random_connected_graph, two_node

FLAT = RadioModel(tx_fixed=1.0, tx_dist_coeff=0.0, exponent=2, rx_cost=0.5)


def _state_for(graph):
    return SimState(initial={n.id: n.energy for n in graph.nodes},
                    drained_cum={n.id: 0.0 for n in graph.nodes},
                    alive=graph.node_ids())


def test_radio_model_tx_energy():
    radio = RadioModel(tx_fixed=2.0, tx_dist_coeff=0.5, exponent=2, rx_cost=0.0)
    assert radio.tx_energy(3.0) == 2.0 + 0.5 * 9.0
    quartic = RadioModel(tx_fixed=0.0, tx_dist_coeff=1.0, exponent=4, rx_cost=0.0)
    assert quartic.tx_energy(2.0) == 16.0


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


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(max_rounds=0).validate()
    with pytest.raises(ValueError):
        SimConfig(reselect_every=0).validate()
    with pytest.raises(ValueError):
        SimConfig(tie_rule="coin").validate()
    g = two_node()
    with pytest.raises(ValueError):
        run_lifetime(g, SimConfig(max_rounds=0))


def test_drain_star():
    g = NetworkGraph()
    g.add_vertex("hub", 10.0)
    for i in range(3):
        g.add_vertex(f"leaf{i}", 10.0)
        g.add_edge("hub", f"leaf{i}", 1.0)
    tree = shortest_path_tree(g, "hub")
    state = _state_for(g)
    report = drain_round(state, tree, FLAT, g)
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
    tree = shortest_path_tree(g, "A")
    report = drain_round(_state_for(g), tree, FLAT, g)
    assert report.drained == {"A": 0.5, "B": 1.5, "C": 1.0}


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
        assert report.total_drained == sum(report.drained.values())
        for v, d in report.drained.items():
            refold[v] += d
    total_final = 0.0
    total_expected = 0.0
    for n in g.nodes:
        assert result.final_residuals[n.id] == n.energy - refold[n.id]
        total_final += result.final_residuals[n.id]
        total_expected += n.energy - refold[n.id]
    assert total_final == total_expected


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
