import contextlib
import csv
import io
import json
import math
import os
import re
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clmat import cli, simulator, trees
from clmat.cli import display_graph, export_dot, main, render_ranking, run_menu
from clmat.selection import select_aggregator
from clmat.simulator import RadioModel, SimConfig, run_lifetime
from clmat.topology import NetworkGraph, export_json, load_topology, random_topology
from clmat.trees import AggregationTree, shortest_path_tree

from graphgen import f4, spanning_topologies, two_node


def _run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _f4_file(tmp_path):
    path = tmp_path / "f4.json"
    path.write_text(export_json(f4()), encoding="utf-8")
    return str(path)


def test_gen_is_deterministic(capsys):
    argv = ["gen", "--nodes", "6", "--seed", "5"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    load_topology(out1)


def test_gen_export_load_roundtrip(capsys, tmp_path):
    out = tmp_path / "topo.json"
    code, _, _ = _run(capsys, ["gen", "--nodes", "7", "--seed", "2", "-o", str(out)])
    assert code == 0
    text = out.read_text(encoding="utf-8")
    assert export_json(load_topology(text)) == text


def test_select_table_marks_chosen(capsys, tmp_path):
    code, out, err = _run(capsys, ["select", _f4_file(tmp_path)])
    assert code == 0
    assert err == ""
    assert "chosen aggregator: C" in out
    starred = [line for line in out.splitlines() if line.endswith("*")]
    assert len(starred) == 1 and starred[0].startswith("C")


def test_select_tie_flag(capsys, tmp_path):
    code, out, _ = _run(capsys, ["select", _f4_file(tmp_path), "--tie", "first-min"])
    assert code == 0
    assert "chosen aggregator: B" in out


def test_select_json_format(capsys, tmp_path):
    code, out, _ = _run(capsys, ["select", _f4_file(tmp_path), "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["chosen_root"] == "C"
    assert doc["metrics"]["distance"] == 6.0
    assert doc["metrics"]["cost"] == "inf"
    assert len(doc["ranking"]) == 4


def test_select_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(export_json(f4())))
    code, out, _ = _run(capsys, ["select", "-"])
    assert code == 0
    assert "chosen aggregator: C" in out


def test_select_dot_output(capsys, tmp_path):
    argv = ["select", _f4_file(tmp_path), "--format", "dot"]
    code, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    assert code == 0
    assert out1 == out2
    assert out1.startswith("graph sensors {")
    assert out1.count(" -- ") == 5
    assert out1.count("style=bold") == 3
    assert out1.count("doublecircle") == 1


def test_export_dot_singleton_and_tree():
    g = two_node()
    text = export_dot(g)
    assert text.count(" -- ") == 1 and "doublecircle" not in text
    tree = shortest_path_tree(g, "a")
    text = export_dot(g, tree)
    assert "doublecircle" in text


def test_trees_formats(capsys, tmp_path):
    topo = _f4_file(tmp_path)
    code, table, _ = _run(capsys, ["trees", topo])
    assert code == 0
    assert table.splitlines()[0].split() == ["root", "energy_J", "cost", "distance",
                                             "depth", "spanning"]
    code, csv_text, _ = _run(capsys, ["trees", topo, "--format", "csv"])
    assert code == 0
    lines = csv_text.splitlines()
    assert lines[0] == "root,energy,cost,distance,depth,spanning"
    assert len(lines) == 5
    code, json_text, _ = _run(capsys, ["trees", topo, "--format", "json"])
    assert code == 0
    doc = json.loads(json_text)
    assert [c["root"] for c in doc["candidates"]] == ["A", "B", "C", "D"]
    assert doc["candidates"][0]["distance"] == 10.0


def test_single_node_energy_cell_is_a_dash(capsys, tmp_path):
    g = NetworkGraph()
    g.add_vertex("only", 2.0)
    path = tmp_path / "one.json"
    path.write_text(export_json(g), encoding="utf-8")
    rows = {}
    for command, fmt in (("trees", "table"), ("trees", "csv"), ("select", "table")):
        code, out, _ = _run(capsys, [command, str(path), "--format", fmt])
        assert code == 0
        rows[command, fmt] = out.splitlines()[1]
    assert rows["trees", "table"].split() == ["only", "-", "0.000", "0.000", "0", "yes"]
    assert rows["trees", "csv"] == "only,-,0.000,0.000,0,yes"
    assert rows["select", "table"].split() == ["only", "-", "0.000", "0.000", "0", "yes", "*"]


def test_trees_csv_input(capsys, tmp_path):
    nodes = tmp_path / "nodes.csv"
    edges = tmp_path / "edges.csv"
    nodes.write_text("id,energy\na,2\nb,3\n", encoding="utf-8")
    edges.write_text("u,v,distance\na,b,1\n", encoding="utf-8")
    code, out, _ = _run(capsys, ["trees", "--nodes-csv", str(nodes),
                                 "--edges-csv", str(edges)])
    assert code == 0
    assert out.count("yes") == 2


def test_simulate_deterministic_csv(capsys, tmp_path):
    topo = _f4_file(tmp_path)
    argv = ["simulate", topo, "--radio", "0.3,0.01,2,0.2", "--rounds", "50"]
    code, out1, err1 = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    assert code == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "round,aggregator,total_drained,alive,deaths"
    assert err1.startswith("lifetime: ")


def test_simulate_trace_file(capsys, tmp_path):
    topo = _f4_file(tmp_path)
    trace = tmp_path / "trace.csv"
    code, _, _ = _run(capsys, ["simulate", topo, "--radio", "0.3,0.01,2,0.2",
                               "--rounds", "20", "--trace", str(trace)])
    assert code == 0
    lines = trace.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "round,node,residual"
    assert len(lines) > 1


def test_simulate_bad_radio_is_usage_error(capsys, tmp_path):
    code, _, err = _run(capsys, ["simulate", _f4_file(tmp_path), "--radio", "1,2,3"])
    assert code == 1
    assert err.strip().startswith("usage error:")


@pytest.mark.parametrize("radio", ["nan,1e-6,2,5e-4", "1e-3,inf,2,5e-4", "1e-3,1e-6,2,inf"])
def test_simulate_non_finite_radio_is_usage_error(capsys, tmp_path, radio):
    code, out, err = _run(capsys, ["simulate", _f4_file(tmp_path), "--radio", radio])
    assert code == 1
    assert out == ""
    assert err.strip().startswith("usage error:")


def test_compare_table(capsys, tmp_path):
    topo = _f4_file(tmp_path)
    code, out, _ = _run(capsys, ["compare", topo, "--radio", "0.3,0.01,2,0.2",
                                 "--rounds", "50",
                                 "--policies", "clmat,max-energy,fixed:A,random",
                                 "--trials", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["policy", "lifetime_rounds"]
    assert len(lines) == 5


def test_usage_errors_exit_1(capsys, tmp_path):
    code, _, err = _run(capsys, ["select", "--no-such-flag"])
    assert code == 1 and err.strip()
    code, _, err = _run(capsys, ["frobnicate"])
    assert code == 1
    code, _, err = _run(capsys, ["select"])  # no input at all
    assert code == 1
    code, _, err = _run(capsys, ["trees", "--nodes-csv", "x.csv"])  # half a CSV pair
    assert code == 1
    code, _, err = _run(capsys, ["gen", "--nodes", "0"])  # bad generator params
    assert code == 1 and err.strip().startswith("usage error:")


@pytest.mark.parametrize("argv", [
    ["gen", "--nodes", "3", "--side", "nan"],
    ["gen", "--nodes", "3", "--range", "nan"],
    ["gen", "--nodes", "3", "--energy-hi", "inf"],
    ["simulate", "{topo}", "--policy", "bogus"],
    ["simulate", "{topo}", "--rounds", "0"],
    ["compare", "{topo}", "--policies", "clmat,bogus"],
    ["compare", "{topo}", "--policies", "random", "--trials", "0"],
    ["compare", "{topo}", "--policies", ","],
    ["trees", "{topo}", "--nodes-csv", "nodes.csv", "--edges-csv", "edges.csv"],
    ["gen", "--nodes", "10", "--side", "5e-324"],  # nodes at one point: a 0.0 distance
    ["gen", "--nodes", "6", "--side", "1.7e308", "--range", "inf", "--seed", "1"],  # inf
])
def test_bad_arguments_are_usage_errors(capsys, tmp_path, argv):
    topo = _f4_file(tmp_path)
    code, out, err = _run(capsys, [topo if a == "{topo}" else a for a in argv])
    assert code == 1
    assert out == ""
    assert err.strip().startswith("usage error:")


def test_parser_is_built_once_and_reused_after_usage_errors(capsys, tmp_path):
    """One parser serves every main call in a process, also after a usage
    error raised inside argparse or by a type converter."""
    path = _f4_file(tmp_path)
    argvs = [["select", path, "--tie", "coin"],
             ["select", path, "--format", "json"],
             ["simulate", path, "--radio", "1,2"],
             ["compare", path, "--policies", "clmat,fixed:A", "--format", "csv"],
             ["trees"]]
    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(_run(capsys, argv))
    cli._build_parser.cache_clear()
    shared = [_run(capsys, argv) for argv in argvs]
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in fresh] == [1, 0, 1, 0, 1]
    assert shared == fresh


def test_internal_errors_are_not_usage_errors(tmp_path, monkeypatch):
    # a broken invariant deep in the library is a bug, not a user mistake
    def broken(*args, **kwargs):
        raise ValueError("parent map contains a cycle")

    monkeypatch.setattr("clmat.cli.build_all_candidates", broken)
    with pytest.raises(ValueError, match="cycle"):
        main(["select", _f4_file(tmp_path)])
    monkeypatch.setattr("clmat.simulator.shortest_path_search", broken)
    with pytest.raises(ValueError, match="cycle"):
        main(["compare", _f4_file(tmp_path)])


def test_data_errors_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    code, _, err = _run(capsys, ["select", str(bad)])
    assert code == 2
    assert err.strip().startswith("error:")
    assert len(err.strip().splitlines()) == 1
    code, _, err = _run(capsys, ["select", str(tmp_path / "missing.json")])
    assert code == 2
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"nodes": [{"id": "\xe9", "energy": 1}]}')
    code, out, err = _run(capsys, ["select", str(latin)])
    assert code == 2
    assert out == "" and err.strip().startswith("error: not UTF-8")
    # trees are aggregation in-trees of an undirected graph; arcs are refused
    directed = tmp_path / "directed.json"
    directed.write_text(json.dumps({
        "mode": "directed",
        "nodes": [{"id": "r", "energy": 1.0}, {"id": "a", "energy": 1.0}],
        "edges": [{"u": "r", "v": "a", "distance": 1.0}]}), encoding="utf-8")
    code, out, err = _run(capsys, ["select", str(directed)])
    assert code == 2
    assert out == "" and err.strip().startswith("error: mode must be")


def test_misspelled_links_exit_2_not_3(capsys, tmp_path):
    """A file that spells its links "links" fails to load; it is not an edgeless graph."""
    doc = {"nodes": [{"id": "a", "energy": 1.0}, {"id": "b", "energy": 1.0}],
           "links": [{"u": "a", "v": "b", "distance": 1.0}]}
    path = tmp_path / "links.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("select", "simulate", "compare"):
        code, out, err = _run(capsys, [command, str(path)])
        assert code == 2, command
        assert out == "" and err == "error: unexpected top-level keys: ['links']\n"


def test_overflowing_tx_energy_is_infinite(capsys, tmp_path):
    # 1e200 ** 2 leaves the float range: the sender pays inf and dies in round 1
    doc = {"nodes": [{"id": "a", "energy": 1.0}, {"id": "b", "energy": 1.0}],
           "edges": [{"u": "a", "v": "b", "distance": 1e200}]}
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    trace = tmp_path / "trace.csv"
    code, out, err = _run(capsys, ["simulate", str(path), "--trace", str(trace)])
    assert code == 0
    assert out.splitlines()[1:] == ["1,b,inf,1,a"]
    assert "lifetime: 1 rounds" in err
    assert "nan" not in (out + err + trace.read_text(encoding="utf-8")).lower()
    code, out, err = _run(capsys, ["select", str(path), "--cost", "residual",
                                   "--format", "json"])
    assert code == 0 and err == ""
    assert "nan" not in out.lower()
    assert json.loads(out)["metrics"]["cost"] == "inf"


def _topology_file(tmp_path, nodes, edges):
    doc = {"nodes": [{"id": n, "energy": 1.0} for n in nodes],
           "edges": [{"u": u, "v": v, "distance": d} for u, v, d in edges]}
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_overflowing_total_distance_is_standard_json(capsys, tmp_path):
    # each leaf is 1e308 from the hub, so the hub's total distance overflows to inf
    path = _topology_file(tmp_path, ["hub", "a", "b"],
                          [("hub", "a", 1e308), ("hub", "b", 1e308)])
    code, out, _ = _run(capsys, ["select", path, "--format", "json"])
    assert code == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["chosen_root"] == "hub"
    assert doc["metrics"]["distance"] == "inf"
    assert doc["ranking"][0]["distance"] == "inf"
    code, out, _ = _run(capsys, ["trees", path, "--format", "json"])
    assert code == 0
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["candidates"][0]["distance"] == "inf"


def test_huge_finite_distance_cells(capsys, tmp_path):
    path = _topology_file(tmp_path, ["a", "b"], [("a", "b", 1e200)])
    code, out, _ = _run(capsys, ["trees", path, "--format", "csv"])
    assert code == 0
    assert out.splitlines()[1] == "a,1.000,inf,1e+200,1,yes"
    code, out, _ = _run(capsys, ["select", path])
    assert code == 0
    assert max(len(line) for line in out.splitlines()) < 80
    assert out.splitlines()[1].split()[3] == "1e+200"


def test_trees_csv_quotes_ids(capsys, tmp_path):
    path = _topology_file(tmp_path, ['a,"b', "c"], [('a,"b', "c", 2.0)])
    code, out, _ = _run(capsys, ["trees", path, "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [row[0] for row in rows] == ["root", 'a,"b', "c"]
    assert all(len(row) == 6 for row in rows)


def test_compare_csv_quotes_policy_names(capsys, tmp_path):
    path = _topology_file(tmp_path, ["a", "c\nd"], [("a", "c\nd", 2.0)])
    code, out, _ = _run(capsys, ["compare", path, "--rounds", "5", "--format", "csv",
                                 "--policies", "clmat,fixed:c\nd"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [row[0] for row in rows] == ["policy", "clmat", "fixed:c\nd"]
    assert all(len(row) == 2 for row in rows)


def test_table_cells_escape_backslashes_and_control_characters(capsys, tmp_path):
    # NEL (U+0085) and U+2028/U+2029 end a line for str.splitlines() too
    ids = ["a", "c\nd", "e\\f", "g\th\x1b\x7f\r", "i\x85j\x9f\u2028k\u2029"]
    path = _topology_file(tmp_path, ids, [("a", v, 2.0) for v in ids[1:]])
    code, out, _ = _run(capsys, ["trees", path])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 + len(ids)
    assert [line.split()[0] for line in lines[1:]] == [
        "a", "c\\nd", "e\\\\f", "g\\th\\x1b\\x7f\\r", "i\\x85j\\x9f\\u2028k\\u2029"]
    # widths are taken on the escaped text, so the energy column lines up
    assert {line.index("1.000") for line in lines[1:]} == {lines[0].index("energy_J")}


def test_select_table_escapes_chosen_id(capsys, tmp_path):
    path = _topology_file(tmp_path, ["a", "c\nd", "b"], [("a", "c\nd", 2.0), ("c\nd", "b", 2.0)])
    code, out, _ = _run(capsys, ["select", path])
    assert code == 0
    lines = out.split("\n")[:-1]
    assert len(lines) == 1 + 3 + 1
    assert lines[1].split()[0] == "c\\nd" and lines[1].endswith("*")
    assert lines[-1] == "chosen aggregator: c\\nd"


def test_compare_table_escapes_policy_names(capsys, tmp_path):
    path = _topology_file(tmp_path, ["a", "c\nd"], [("a", "c\nd", 2.0)])
    code, out, _ = _run(capsys, ["compare", path, "--rounds", "5",
                                 "--policies", "clmat,fixed:c\nd"])
    assert code == 0
    lines = out.split("\n")[:-1]
    assert [line.split()[0] for line in lines] == ["policy", "clmat", "fixed:c\\nd"]


def test_select_dot_escapes_quotes(capsys, tmp_path):
    path = _topology_file(tmp_path, ['a,"b', "c"], [('a,"b', "c", 2.0)])
    code, out, _ = _run(capsys, ["select", path, "--format", "dot"])
    assert code == 0
    assert '"a,\\"b" [label="a,\\"b\\n1.000 J"' in out
    assert '"a,\\"b" -- "c"' in out
    for line in out.splitlines():
        # outside escaped quotes, every quoted string is closed on its line
        assert line.replace('\\"', "").count('"') % 2 == 0, line


def test_select_dot_escapes_trailing_backslash(capsys, tmp_path):
    path = _topology_file(tmp_path, ["a\\", "b"], [("a\\", "b", 2.0)])
    code, out, _ = _run(capsys, ["select", path, "--format", "dot"])
    assert code == 0
    assert '"a\\\\" [label="a\\\\\\n1.000 J"' in out
    assert '"a\\\\" -- "b"' in out


_DOT_QUOTED = re.compile(r'"((?:[^"\\]|\\.)*)"')
_DOT_NODE_SHAPES = ("  Q [label=Q];", "  Q [label=Q, shape=doublecircle];")
_DOT_EDGE_SHAPES = ("  Q -- Q [label=Q];", "  Q -- Q [label=Q, style=bold];")


def _dot_unescape(raw):
    return re.sub(r"\\(.)", r"\1", raw)


@given(st.lists(st.text(alphabet='\\"ab', min_size=1, max_size=4),
                min_size=1, max_size=5, unique=True))
def test_export_dot_quoted_strings_scan_back_to_ids(ids):
    g = NetworkGraph()
    for name in ids:
        g.add_vertex(name, 1.0)
    for u, v in zip(ids, ids[1:]):
        g.add_edge(u, v, 1.0)
    lines = export_dot(g, shortest_path_tree(g, ids[0])).splitlines()
    assert lines[0] == "graph sensors {" and lines[-1] == "}"
    nodes, edges = [], set()
    for line in lines[1:-1]:
        shape = _DOT_QUOTED.sub("Q", line)
        raws = _DOT_QUOTED.findall(line)
        if shape in _DOT_NODE_SHAPES:
            name, label = raws
            assert label == name + "\\n1.000 J", line
            nodes.append(_dot_unescape(name))
        else:
            assert shape in _DOT_EDGE_SHAPES, line
            edges.add(frozenset(map(_dot_unescape, raws[:2])))
    assert nodes == ids
    assert edges == {frozenset(pair) for pair in zip(ids, ids[1:])}


def test_no_spanning_exit_3(capsys, tmp_path):
    g = f4()
    g.add_vertex("island", 1.0)
    path = tmp_path / "split.json"
    path.write_text(export_json(g), encoding="utf-8")
    code, _, err = _run(capsys, ["select", str(path)])
    assert code == 3
    code, _, err = _run(capsys, ["simulate", str(path)])
    assert code == 3


def _menu(session: str) -> str:
    out = io.StringIO()
    run_menu(io.StringIO(session), out)
    return out.getvalue()


def test_menu_immediate_exit():
    out = _menu("6\n")
    assert out.count("choice:") == 1


def test_menu_display_empty_graph():
    out = _menu("3\n6\n")
    assert "Graph does not exist." in out


def test_menu_invalid_choice_reprompts():
    out = _menu("9\n6\n")
    assert "Invalid choice." in out
    assert out.count("choice:") == 2


def test_menu_vertex_and_edge_errors():
    assert "No vertex exists." in _menu("2\n6\n")
    assert "Vertex already exists." in _menu("1\nA\n5\n1\nA\n3\n6\n")
    assert "Source vertex does not exist." in _menu("1\nA\n5\n2\nQ\n6\n")
    assert "Destination vertex does not exist." in _menu("1\nA\n5\n2\nA\nZ\n6\n")
    assert "Invalid energy." in _menu("1\nA\nlots\n6\n")
    assert "vertex name must be nonempty" in _menu("1\n\n5\n6\n")
    assert "energy must be a positive finite Joule value, got -1.0" in _menu("1\nA\n-1\n6\n")
    assert "Invalid distance." in _menu("1\nA\n5\n1\nB\n4\n2\nA\nB\nfar\n6\n")
    assert "self loop on A" in _menu("1\nA\n5\n2\nA\nA\n1\n6\n")
    for choice in ("4", "5"):
        assert _menu(f"{choice}\n6\n").count("Graph does not exist.") == 1


def test_menu_display_lists_links():
    out = _menu("1\nA\n5\n1\nB\n3\n2\nA\nB\n2\n3\n6\n")
    assert "A -- B  2  3.000" in out


def test_menu_eof_exits_cleanly():
    assert _menu("") == "1) add vertex\n2) add edge\n3) display graph\n" \
                        "4) candidate trees\n5) compare trees\n6) exit\nchoice: "


def test_menu_compare_without_spanning():
    out = _menu("1\nA\n5\n1\nB\n3\n5\n6\n")
    assert "No spanning candidate." in out


def test_menu_matches_batch_select(capsys, tmp_path):
    session = "1\nA\n5\n1\nB\n3\n2\nA\nB\n2\n5\n6\n"
    menu_out = _menu(session)

    doc = {"mode": "undirected",
           "nodes": [{"id": "A", "energy": 5.0}, {"id": "B", "energy": 3.0}],
           "edges": [{"u": "A", "v": "B", "distance": 2.0}]}
    path = tmp_path / "same.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, batch_out, _ = _run(capsys, ["select", str(path)])
    assert code == 0
    assert batch_out in menu_out
    assert "chosen aggregator: B" in batch_out


def test_menu_ranking_after_a_readd_matches_a_fresh_session():
    # A-B 1, B-C 4, A-C 3 picks A; B-C re-added at 1 picks B
    build = "".join(f"1\n{v}\n5\n" for v in "ABC")
    build += "2\nA\nB\n1\n2\nB\nC\n4\n2\nA\nC\n3\n"
    readd = "2\nC\nB\n1\n"

    def rankings(session):
        # the text after each "choice: " prompt that answered 5
        chunks = _menu(session).split("choice: ")
        return [chunk for chunk in chunks if "chosen aggregator:" in chunk]

    first, second = rankings(build + "5\n" + readd + "5\n6\n")
    assert "chosen aggregator: A" in first
    assert rankings(build + readd + "5\n6\n") == [second]
    assert "chosen aggregator: B" in second


def test_menu_subcommand_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("6\n"))
    code, out, _ = _run(capsys, ["menu"])
    assert code == 0
    assert "choice:" in out


def test_display_graph_function():
    assert display_graph(f4()).splitlines()[0] == "A  5.000 J"
    g = two_node()
    g.nodes[0].energy = 1.5
    assert "a -- b  4  1.500" in display_graph(g)


def test_display_graph_escapes_ids():
    g = NetworkGraph()
    for name in ("a", "c\nd", "e\x85f"):
        g.add_vertex(name, 1.0)
    g.add_edge("a", "c\nd", 2.0)
    g.add_edge("e\x85f", "a", 3.0)
    assert display_graph(g).splitlines() == [
        "a  1.000 J", "c\\nd  1.000 J", "e\\x85f  1.000 J",
        "a -- c\\nd  2  1.000", "e\\x85f -- a  3  1.000"]


def test_render_ranking_infinite_cost_cell(tmp_path):
    result = select_aggregator(f4())
    text = render_ranking(result)
    assert "inf" in text


def test_render_ranking_eight_candidates():
    from clmat.selection import compare_trees
    from graphgen import eight_candidates

    text = render_ranking(compare_trees(eight_candidates()))
    lines = text.splitlines()
    assert len(lines) == 1 + 8 + 1  # header, eight rows, chosen line
    assert lines[1].startswith("H") and lines[1].endswith("*")
    assert "22.378" in lines[1] and "16.000" in lines[1]
    assert lines[-1] == "chosen aggregator: H"


def test_render_ranking_single_candidate():
    from clmat.selection import compare_trees
    from graphgen import eight_candidates

    text = render_ranking(compare_trees(eight_candidates()[:1]))
    assert len(text.splitlines()) == 3
    assert "*" in text


@pytest.fixture
def counts(monkeypatch):
    """Counts of shortest_path_search calls and AggregationTree constructions.

    The simulator calls the search through the name it imported, so both
    names are patched.
    """
    made = {"searches": 0, "trees": 0}
    search, init = trees.shortest_path_search, AggregationTree.__init__

    def counted_search(*args, **kwargs):
        made["searches"] += 1
        return search(*args, **kwargs)

    def counted_init(self, *args, **kwargs):
        made["trees"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(trees, "shortest_path_search", counted_search)
    monkeypatch.setattr(simulator, "shortest_path_search", counted_search)
    monkeypatch.setattr(AggregationTree, "__init__", counted_init)
    return made


@pytest.mark.parametrize("scoring", [("clmat", "node-min"), ("clmat", "edge-min"),
                                     ("residual", "node-min"), ("residual", "edge-min")])
def test_scoring_searches_each_root_once_and_builds_only_the_chosen_tree(
        tmp_path, capsys, counts, scoring):
    g = spanning_topologies(1, n=12)[0]
    path = tmp_path / "topo.json"
    path.write_text(export_json(g), encoding="utf-8")
    cost, energy = scoring
    flags = ["--cost", cost, "--energy", energy, "--radio", "1e-3,1e-6,2,5e-4"]
    built = {("select", "table"): 0, ("select", "json"): 0, ("select", "dot"): 1,
             ("trees", "table"): 0, ("trees", "csv"): 0, ("trees", "json"): 0}
    for (command, fmt), trees_built in built.items():
        counts.update(searches=0, trees=0)
        assert main([command, str(path), "--format", fmt, *flags]) == 0
        assert counts == {"searches": len(g), "trees": trees_built}, (command, fmt)
    capsys.readouterr()
    counts.update(searches=0, trees=0)
    result = select_aggregator(g, cost, energy,
                               tx_energy=RadioModel(1e-3, 1e-6, 2, 5e-4).tx_energy)
    assert counts == {"searches": len(g), "trees": 1}
    assert result.tree == shortest_path_tree(g, result.chosen_root)


def test_simulate_and_compare_build_no_tree_and_share_drains(tmp_path, capsys, counts):
    """Round costs come straight from the searches: no AggregationTree is made,
    and the rounds of one tree share one read-only drained mapping."""
    g = random_topology(12, 100.0, 60.0, 0.1, 0.15, seed=3)
    path = tmp_path / "topo.json"
    path.write_text(export_json(g), encoding="utf-8")
    radio = ["--radio", "1e-3,1e-6,2,5e-4"]
    assert main(["simulate", str(path), "--until", "exhaustion", "--rounds", "400",
                 *radio, "-o", str(tmp_path / "rounds.csv"),
                 "--trace", str(tmp_path / "trace.csv")]) == 0
    assert counts["searches"] > 0
    assert main(["compare", str(path), "--policies", "clmat,max-energy,random,fixed:n0",
                 "--trials", "2", *radio, "-o", str(tmp_path / "compare.txt")]) == 0
    capsys.readouterr()
    assert counts["trees"] == 0
    reports = run_lifetime(g, SimConfig(radio=RadioModel(1e-3, 1e-6, 2, 5e-4), max_rounds=400),
                           stop_at_first_death=False).reports
    kept = [(a, b) for a, b in zip(reports, reports[1:]) if not a.deaths]
    assert len(kept) > 10 and len(kept) > len(reports) - len(kept)
    assert all(b.drained is a.drained for a, b in kept)
    assert counts["trees"] == 0
    with pytest.raises(TypeError):
        reports[0].drained["n0"] = 0.0


def test_menu_listings_build_at_most_the_chosen_tree(counts):
    session = "".join(f"1\nn{i}\n{i + 1}\n" for i in range(4))
    session += "".join(f"2\nn{i}\nn{i + 1}\n1\n" for i in range(3))
    _menu(session + "6\n")
    counts.update(searches=0, trees=0)
    _menu(session + "4\n6\n")
    assert counts == {"searches": 4, "trees": 0}
    counts.update(searches=0, trees=0)
    _menu(session + "5\n6\n")
    assert counts == {"searches": 4, "trees": 0}


@pytest.fixture
def list_builds(monkeypatch):
    """Counts neighbour-list reads (one per search) and builds (reads that found none)."""
    made = {"reads": 0, "builds": 0}
    lists = NetworkGraph._neighbour_lists

    def counted(self):
        made["reads"] += 1
        made["builds"] += self._lists is None
        return lists(self)

    monkeypatch.setattr(NetworkGraph, "_neighbour_lists", counted)
    return made


def test_each_op_builds_the_neighbour_lists_once(tmp_path, capsys, list_builds):
    g = spanning_topologies(1, n=12)[0]
    path = tmp_path / "topo.json"
    path.write_text(export_json(g), encoding="utf-8")
    radio = ["--radio", "1e-3,1e-6,2,5e-4"]
    ops = [["select", str(path), "--format", fmt] for fmt in ("table", "json", "dot")]
    ops.append(["simulate", str(path), "--until", "exhaustion", *radio])
    ops.append(["compare", str(path), "--policies", "clmat,max-energy,random,fixed:n0",
                "--trials", "3", *radio])
    for argv in ops:
        list_builds.update(reads=0, builds=0)
        assert main(argv) == 0
        assert list_builds["builds"] == 1, argv
        assert list_builds["reads"] >= len(g), argv
        if argv[0] == "select":
            assert list_builds["reads"] == len(g)
    list_builds.update(reads=0, builds=0)
    assert main(["gen", "--nodes", "40", "--seed", "1"]) == 0
    assert list_builds == {"reads": 0, "builds": 0}
    capsys.readouterr()


# Numbers at the float extremes, mostly valid, plus a few that every loader rejects.
_VALID_NUMBERS = [5e-324, 1e-300, 0.5, 1.0, 3.0, 1e154, 1e308]
_CONTRACT_NUMBERS = _VALID_NUMBERS * 10 + [0.0, -1.0, math.inf, math.nan]
# ids that differ by case, a space, a combining mark, a quote or a line separator;
# none holds the letters "nan", so any nan in an output is a number
_NEAR_DUPLICATE_IDS = ["a", "A", "a ", " a", "\u00e9", "e\u0301", "b", 'b"', "b\u2028", "0"]


@st.composite
def _contract_topologies(draw):
    """(nodes, edges): nodes as (id, energy, position or None), edges as (u, v, distance).

    The edges may start with a path through every node, so that most drawn
    graphs are connected and reach the commands' output.
    """
    number = st.sampled_from(_CONTRACT_NUMBERS)
    ids = draw(st.lists(st.sampled_from(_NEAR_DUPLICATE_IDS), max_size=5, unique=True))
    nodes = [(v, draw(number), draw(st.none() | st.tuples(number, number))) for v in ids]
    edges = []
    if draw(st.booleans()):
        edges = [(u, v, draw(number)) for u, v in zip(ids, ids[1:])]
    if len(ids) > 1:
        pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda p: p[0] != p[1])
        edges += [(u, v, draw(number)) for u, v in draw(st.lists(pair, max_size=4))]
    return nodes, edges


def _write_contract_input(directory, nodes, edges, as_csv) -> list[str]:
    """Write the topology in one input format; returns the CLI input arguments."""
    if not as_csv:
        doc = {"nodes": [{"id": v, "energy": e} | ({} if p is None else {"x": p[0], "y": p[1]})
                         for v, e, p in nodes],
               "edges": [{"u": u, "v": v, "distance": d} for u, v, d in edges]}
        path = os.path.join(directory, "topo.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)  # writes NaN and Infinity, which load_topology must reject
        return [path]
    paths = []
    for name, header, rows in (
            ("nodes.csv", ("id", "energy", "x", "y"),
             [(v, repr(e), *(("", "") if p is None else map(repr, p))) for v, e, p in nodes]),
            ("edges.csv", ("u", "v", "distance"), [(u, v, repr(d)) for u, v, d in edges])):
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        paths.append(path)
    return ["--nodes-csv", paths[0], "--edges-csv", paths[1]]


def _standard_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def _csv_round_trips(text):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(csv.reader(io.StringIO(text)))
    return buf.getvalue() == text


_NAN = re.compile(r"(?<![A-Za-z])nan(?![A-Za-z])", re.IGNORECASE)


@pytest.mark.referee
@settings(max_examples=60, deadline=None)
@given(topology=_contract_topologies(), as_csv=st.booleans(),
       until=st.sampled_from(["first-death", "exhaustion"]))
def test_cli_contract_on_drawn_topologies(topology, as_csv, until):
    """Every command on any drawn input exits 0, 2 or 3 without a traceback,
    writes no nan, writes standard JSON and CSV that reads back, and writes
    the same bytes when run again."""
    nodes, edges = topology
    fixed = f"fixed:{nodes[0][0]}" if nodes else "fixed:a"
    with tempfile.TemporaryDirectory() as directory:
        source = _write_contract_input(directory, nodes, edges, as_csv)
        trace = os.path.join(directory, "trace.csv")
        commands = [
            (["select", "--format", "table"], None),
            (["select", "--format", "json"], "json"),
            (["select", "--format", "dot"], None),
            (["trees", "--cost", "clmat", "--format", "csv"], "csv"),
            (["trees", "--cost", "residual", "--format", "json"], "json"),
            (["simulate", "--rounds", "40", "--until", until, "--trace", trace], "csv"),
            (["compare", "--rounds", "40", "--trials", "2", "--format", "csv",
              "--policies", f"clmat,max-energy,random,{fixed}"], "csv"),
        ]
        for command, kind in commands:
            runs = []
            for _ in range(2):
                if os.path.exists(trace):
                    os.remove(trace)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(command + source)
                written = None
                if os.path.exists(trace):
                    with open(trace, encoding="utf-8", newline="") as fh:
                        written = fh.read()
                runs.append((code, out.getvalue(), err.getvalue(), written))
            assert runs[0] == runs[1], command
            code, out, err, written = runs[0]
            assert code in (0, 2, 3), (command, code, err)
            assert "Traceback" not in err
            if code != 0:
                continue
            texts = [out] + ([written] if written is not None else [])
            assert not any(_NAN.search(text) for text in texts + [err]), command
            if kind == "json":
                _standard_json(out)
            elif kind == "csv":
                assert all(_csv_round_trips(text) for text in texts), command
