import io
import json
import sys

import pytest

from clmat.cli import display_graph, export_dot, main, render_ranking, run_menu
from clmat.selection import select_aggregator
from clmat.topology import export_json, load_topology
from clmat.trees import shortest_path_tree

from graphgen import f4, two_node


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


def test_export_dot_directed_mode():
    from clmat.topology import DIRECTED, NetworkGraph

    g = NetworkGraph(DIRECTED)
    g.add_vertex("a", 1.0)
    g.add_vertex("b", 1.0)
    g.add_edge("a", "b", 2.0)
    text = export_dot(g)
    assert text.startswith("digraph sensors {")
    assert '"a" -> "b"' in text


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


def test_data_errors_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    code, _, err = _run(capsys, ["select", str(bad)])
    assert code == 2
    assert err.strip().startswith("error:")
    assert len(err.strip().splitlines()) == 1
    code, _, err = _run(capsys, ["select", str(tmp_path / "missing.json")])
    assert code == 2


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
    assert "Invalid distance." in _menu("1\nA\n5\n1\nB\n4\n2\nA\nB\nfar\n6\n")


def test_menu_display_lists_links():
    out = _menu("1\nA\n5\n1\nB\n3\n2\nA\nB\n2\n3\n6\n")
    assert "A -> B  2  3.000" in out


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


def test_menu_subcommand_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("6\n"))
    code, out, _ = _run(capsys, ["menu"])
    assert code == 0
    assert "choice:" in out


def test_display_graph_function():
    assert display_graph(f4()).splitlines()[0] == "A  5.000 J"
    g = two_node()
    g.nodes[0].energy = 1.5
    assert "a -> b  4  1.500" in display_graph(g)


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
