"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the lines; a failed
assertion surfaces as an ordinary pytest failure for that criterion.
"""

import functools
import io
import json
import math
import operator
import random
import time

from clmat.selection import FIRST_MIN, MIN_DEPTH, compare_trees, select_aggregator
from clmat.simulator import RadioModel, SimConfig, reports_csv, run_lifetime
from clmat.topology import export_json, load_topology
from clmat.trees import oracle_shortest_paths
from clmat.cli import export_dot, main, run_menu

from graphgen import (
    EDGE_MIN,
    NODE_MIN,
    clmat_edge_cost,
    eight_candidates,
    f4,
    random_connected_graph,
    residual_edge_cost,
    shortest_path_tree,
    spanning_topologies,
    total_distance,
    tree_energy,
    two_node,
    with_energies,
)
from test_selection import _distance_minimal_roots, _scaled_copy, brute_choice


def test_criterion_1_eight_candidate_selection_fixture():
    candidates = eight_candidates()
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        ranking = compare_trees(candidates, MIN_DEPTH)
        best = min(best, time.perf_counter() - t0)
    assert ranking[0].root == "H"
    c = ranking[0]
    assert (c.energy, c.cost, c.distance) == (3.0, 22.378, 16.0)
    assert best < 0.001
    print(f"criterion 1 PASS: eight-candidate fixture -> H (3 J, 22.378, 16) "
          f"in {best * 1e6:.0f} us")


def test_criterion_2_spt_oracle_equivalence():
    t0 = time.perf_counter()
    graphs = 0
    for seed in range(500):
        rng = random.Random(1000 + seed)
        g = random_connected_graph(rng)
        graphs += 1
        for root in g.node_ids():
            tree = shortest_path_tree(g, root)
            oracle = oracle_shortest_paths(g, root)
            assert tree.dist == {v: d for v, d in oracle.items() if math.isfinite(d)}
    elapsed = time.perf_counter() - t0
    assert graphs == 500
    assert elapsed < 5.0
    print(f"criterion 2 PASS: tree distances equal relaxation oracle on "
          f"{graphs} graphs, every root ({elapsed:.2f} s)")


def test_criterion_3_selection_oracle_equivalence():
    t0 = time.perf_counter()
    for seed in range(200):
        rng = random.Random(2000 + seed)
        g = random_connected_graph(rng)
        for rule in (MIN_DEPTH, FIRST_MIN):
            assert select_aggregator(g, tie_rule=rule)[0].root == brute_choice(g, rule)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 3 PASS: chosen root equals exhaustive oracle on 200 graphs, "
          f"both tie rules ({elapsed:.2f} s)")


def test_criterion_4_metric_definitional_suite():
    checked = 0
    for seed in range(200):
        rng = random.Random(3000 + seed)
        g = random_connected_graph(rng)
        root = rng.choice(g.node_ids())
        tree = shortest_path_tree(g, root)
        scan = min(g.energy(v) for v in tree.dist if v != tree.root)
        assert tree_energy(tree, g, NODE_MIN) == scan
        assert tree_energy(tree, g, EDGE_MIN) == min(
            min(g.energy(u), g.energy(v)) for u, v in tree.edges())
        total = 0.0
        for v, d in tree.dist.items():
            if v != root:
                total += d
        assert total_distance(tree) == total
        checked += 1
    assert checked == 200
    print("criterion 4 PASS: node-min/edge-min/total-distance equal direct scans "
          "on 200 random trees")


def test_criterion_5_cost_formula_checks():
    got = residual_edge_cost(0.2, 0.2, 4.0, 2.0)
    assert abs(got - 0.15) <= 1e-12 * 0.15
    got = clmat_edge_cost(5.0, 4.0, 3.0)
    assert abs(got - 6.5) <= 1e-12 * 6.5
    assert clmat_edge_cost(3.0, 5.0, 3.0) == math.inf
    assert clmat_edge_cost(5.0, 3.0, 3.0) == math.inf
    print("criterion 5 PASS: residual example 0.15, headroom example 6.5 "
          "(1e-12 rel), zero headroom saturates to inf")


def test_criterion_6_argmin_invariance():
    for seed in range(50):
        rng = random.Random(4000 + seed)
        g = random_connected_graph(rng)
        for rule in (MIN_DEPTH, FIRST_MIN):
            base = select_aggregator(g, tie_rule=rule)[0].root
            for k in (0.5, 3.0, 10.0):
                scaled = _scaled_copy(g, k)
                assert select_aggregator(scaled, tie_rule=rule)[0].root == base
        before = _distance_minimal_roots(g)
        perturbed = with_energies(g, {v: rng.uniform(0.5, 50.0) for v in g.node_ids()})
        assert _distance_minimal_roots(perturbed) == before
    print("criterion 6 PASS: distance scaling (x0.5/x3/x10) and energy perturbations "
          "never move the distance argmin on 50 graphs")


def test_criterion_7_simulator_conservation_and_determinism():
    t0 = time.perf_counter()
    cfg = SimConfig(radio=RadioModel(0.05, 0.00002, 2, 0.05), max_rounds=500)
    topos = spanning_topologies(50)
    for g in topos:
        result = run_lifetime(g, cfg)
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
        again = run_lifetime(g, cfg)
        assert reports_csv(again.reports) == reports_csv(result.reports)

    # the hand-simulated two-node case: leaf 3 J, root 5 J, flat tx 1, rx 0.5
    hand = run_lifetime(two_node(e_first=3.0, e_second=5.0),
                        SimConfig(radio=RadioModel(1.0, 0.0, 2, 0.5),
                                  max_rounds=10, reselect_every=10))
    assert hand.lifetime == 3
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 7 PASS: exact conservation + byte-identical CSV on 50 "
          f"20-node topologies; two-node case dies in round 3 ({elapsed:.2f} s)")


def test_criterion_8_dominance_sanity():
    cfg = SimConfig(radio=RadioModel(0.2, 0.001, 2, 0.1), max_rounds=400)
    for seed in range(50):
        rng = random.Random(5000 + seed)
        g = random_connected_graph(rng, n=rng.randint(6, 10),
                                   energy_lo=3.0, energy_hi=8.0)
        clmat_life = run_lifetime(g, cfg).lifetime
        fixed_lives = [run_lifetime(g, cfg, policy=f"fixed:{v}").lifetime
                       for v in g.node_ids()]
        assert clmat_life >= min(fixed_lives)
    print("criterion 8 PASS: first-death round >= worst fixed root on 50 topologies")


def test_criterion_9_cli_round_trips(capsys, tmp_path):
    # JSON export -> load identity, structurally and byte for byte
    for seed in (0, 1, 2):
        rng = random.Random(6000 + seed)
        g = random_connected_graph(rng)
        text = export_json(g)
        assert load_topology(text) == g
        assert export_json(load_topology(text)) == text

    # a scripted menu session equals the batch select output
    session = "1\nA\n5\n1\nB\n3\n2\nA\nB\n2\n5\n6\n"
    menu_out = io.StringIO()
    run_menu(io.StringIO(session), menu_out)
    doc = {"mode": "undirected",
           "nodes": [{"id": "A", "energy": 5.0}, {"id": "B", "energy": 3.0}],
           "edges": [{"u": "A", "v": "B", "distance": 2.0}]}
    path = tmp_path / "menu.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["select", str(path)]) == 0
    batch_out = capsys.readouterr().out
    assert batch_out in menu_out.getvalue()

    # deterministic DOT bytes
    g = f4()
    root = select_aggregator(g)[0].root
    assert export_dot(g, root) == export_dot(g, root)
    assert main(["select", str(path), "--format", "dot"]) == 0
    dot1 = capsys.readouterr().out
    assert main(["select", str(path), "--format", "dot"]) == 0
    dot2 = capsys.readouterr().out
    assert dot1 == dot2
    print("criterion 9 PASS: export/load identity, menu equals batch select, "
          "DOT bytes deterministic")
