import contextlib
import csv
import dataclasses
import errno
import io
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clmat import cli, simulator, trees
from clmat.cli import display_graph, export_dot, main, render_ranking, run_menu
from clmat.errors import UnknownVertex
from clmat.selection import select_aggregator
from clmat.simulator import RadioModel, SimConfig, compare_policies, run_lifetime
from clmat.topology import NetworkGraph, export_json, load_topology, random_topology
from clmat.trees import Candidate

from graphgen import f4, scan_shortest_path_tree, spanning_topologies, tie_heavy_graph, two_node


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
    # C's tree is A-B, B-C and C-D; under the default radio each link costs its
    # transmission energy over each endpoint's energy, summed in child order A, B, D
    tx1, tx2 = 50e-9 + 100e-12 * 1.0, 50e-9 + 100e-12 * 4.0
    assert doc["metrics"]["cost"] == (tx2 / 4.0 + tx2 / 5.0) + (tx1 / 3.0 + tx1 / 4.0) + (
        tx2 / 3.0 + tx2 / 6.0)
    assert len(doc["ranking"]) == 4


def test_trees_json_records_hold_the_candidate_fields_in_order(capsys, tmp_path):
    code, out, _ = _run(capsys, ["trees", _f4_file(tmp_path), "--format", "json"])
    assert code == 0
    fields = [f.name for f in dataclasses.fields(Candidate)]
    assert fields == ["root", "energy", "cost", "distance", "depth", "spanning"]
    records = json.loads(out)["candidates"]
    assert [list(record) for record in records] == [fields] * 4


def test_select_stdin_input(capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(export_json(f4()).encode("utf-8")), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
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
    lone = NetworkGraph()
    lone.add_vertex("x", 1.0)
    assert export_dot(lone, "x") == (
        'graph sensors {\n  "x" [label="x\\n1.000 J", shape=doublecircle];\n}\n')
    g = two_node()
    text = export_dot(g, "b")
    assert text.count(" -- ") == 1 and text.count("style=bold") == 1
    assert text.count("doublecircle") == 1
    assert '"b" [label="b\\n5.000 J", shape=doublecircle]' in text
    with pytest.raises(UnknownVertex):
        export_dot(g, "z")


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
    ["simulate", "{topo}", "--policy", "fixed:"],  # no node id is empty
    ["compare", "{topo}", "--policies", "clmat,fixed:"],
    ["trees", "{topo}", "--tie", "min-depth"],  # trees never picks a root
    ["trees", "--nodes-csv", "-", "--edges-csv", "-"],  # stdin can feed one input only
    # trees and select score one cost and one energy, which no option chooses
    ["select", "{topo}", "--cost", "residual"],
    ["trees", "{topo}", "--cost", "clmat"],
    ["trees", "{topo}", "--energy", "edge-min"],
    ["select", "{topo}", "--energy", "node-min"],
])
def test_bad_arguments_are_usage_errors(capsys, tmp_path, argv):
    topo = _f4_file(tmp_path)
    code, out, err = _run(capsys, [topo if a == "{topo}" else a for a in argv])
    assert code == 1
    assert out == ""
    assert err.strip().startswith("usage error:")


class _UnreadableStdin:
    """A stdin, text or binary, that fails the test when read."""

    @property
    def buffer(self):
        return self

    def read(self, *args):
        raise AssertionError("stdin was read")


@pytest.mark.parametrize("source", ["{missing}", "-"])
@pytest.mark.parametrize("argv", [
    ["simulate", "{input}", "--rounds", "0"],
    ["simulate", "{input}", "--reselect-every", "0"],
    ["simulate", "{input}", "--policy", "fixed:"],
    ["simulate", "{input}", "--tie", "coin"],
    ["simulate", "{input}", "-o", "{same}", "--trace", "{same}"],
    ["simulate", "{input}", "--trace", "-"],
    ["compare", "{input}", "--trials", "0"],
    ["compare", "{input}", "--policies", ","],
    ["compare", "{input}", "--policies", "clmat,bogus"],
    ["compare", "{input}", "--rounds", "0"],
])
def test_usage_errors_come_before_any_input_is_read(capsys, tmp_path, monkeypatch,
                                                    argv, source):
    """A bad setting is a usage error (exit 1) even when the input is missing
    (which alone is exit 2) or is stdin, which is never read."""
    monkeypatch.setattr(sys, "stdin", _UnreadableStdin())
    fill = {"{input}": source.replace("{missing}", str(tmp_path / "missing.json")),
            "{same}": str(tmp_path / "same.csv")}
    code, out, err = _run(capsys, [fill.get(a, a) for a in argv])
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_cli_and_library_state_the_trials_rule_alike(capsys, tmp_path):
    with pytest.raises(ValueError) as exc:
        compare_policies(f4(), SimConfig(), ["random"], random_trials=0)
    assert _run(capsys, ["compare", _f4_file(tmp_path), "--trials", "0"]) == (
        1, "", f"usage error: {exc.value}\n")


_TWO_SINKS = "usage error: -o and --trace must name two different outputs\n"


@pytest.mark.parametrize("trace", ["same.csv", "./same.csv", "{abs}", "link.csv"])
def test_simulate_rounds_and_trace_must_be_two_files(capsys, tmp_path, monkeypatch, trace):
    monkeypatch.chdir(tmp_path)
    topo = _f4_file(tmp_path)
    if trace == "link.csv":  # a hard link: a second name for one existing file
        (tmp_path / "same.csv").write_text("kept\n", encoding="utf-8")
        os.link(tmp_path / "same.csv", tmp_path / "link.csv")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    argv = ["simulate", topo, "-o", "same.csv",
            "--trace", trace.replace("{abs}", str(tmp_path / "same.csv"))]
    assert _run(capsys, argv) == (1, "", _TWO_SINKS)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert trace == "link.csv" or not (tmp_path / "same.csv").exists()


@pytest.mark.parametrize("output", [[], ["-o", "-"]])
def test_simulate_rounds_and_trace_cannot_both_go_to_stdout(capsys, tmp_path, output):
    topo = _f4_file(tmp_path)
    assert _run(capsys, ["simulate", topo, *output, "--trace", "-"]) == (1, "", _TWO_SINKS)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f4.json"]


def test_simulate_trace_to_stdout_beside_a_rounds_file(capsys, tmp_path):
    topo = _f4_file(tmp_path)
    rounds = tmp_path / "rounds.csv"
    argv = ["simulate", topo, "--radio", "0.3,0.01,2,0.2", "--rounds", "20"]
    _, rounds_out, _ = _run(capsys, argv)
    _run(capsys, [*argv, "-o", str(rounds), "--trace", str(tmp_path / "t.csv")])
    code, out, err = _run(capsys, [*argv, "-o", str(rounds), "--trace", "-"])
    assert code == 0 and err.startswith("lifetime: ")
    assert out == (tmp_path / "t.csv").read_text(encoding="utf-8")
    assert out.startswith("round,node,residual\n")
    assert rounds.read_text(encoding="utf-8") == rounds_out


def _clmat(argv, stdin=b"", python=("-m", "clmat.cli")):
    """Run the clmat CLI in a fresh interpreter in UTF-8 mode, where sys.stdin
    decodes with surrogateescape and translates no newlines."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONUTF8="1", PYTHONPATH=src)
    return subprocess.run([sys.executable, *python, *argv], input=stdin,
                          capture_output=True, env=env, timeout=60)


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_simulate_rounds_and_trace_cannot_both_reach_stdout_by_name(tmp_path):
    """/dev/stdout opens the file that '-' writes to, so the two are one output."""
    run = _clmat(["simulate", _f4_file(tmp_path), "-o", "/dev/stdout", "--trace", "-"])
    assert (run.returncode, run.stdout, run.stderr) == (1, b"", _TWO_SINKS.encode())


@pytest.mark.parametrize("topology", ["f4", "split"])
def test_simulate_writes_no_row_unless_every_output_opens(capsys, tmp_path, topology):
    """Every output is opened after the run and before any is written: a trace
    that cannot be opened leaves the rounds file empty (exit 2), and a network
    that never spanned opens none (exit 3)."""
    topo = _f4_file(tmp_path)
    if topology == "split":
        topo = tmp_path / "split.json"
        topo.write_text('{"nodes": [{"id": "a", "energy": 1}, {"id": "b", "energy": 2}]}',
                        encoding="utf-8")
    rounds = tmp_path / "rounds.csv"
    trace = tmp_path / "nodir" / "t.csv"
    if topology == "f4":  # an earlier run's rows, which the failed run must not leave
        rounds.write_text("round,aggregator,total_drained,alive,deaths\n" + "1,C,0.5,4,\n" * 500,
                          encoding="utf-8")
    code, out, err = _run(capsys, ["simulate", str(topo), "-o", str(rounds),
                                   "--trace", str(trace)])
    assert out == "" and err.count("\n") == 1
    if topology == "f4":
        assert (code, err) == (2, f"error: [Errno {errno.ENOENT}] "
                                  f"No such file or directory: {str(trace)!r}\n")
        assert rounds.read_bytes() == b""
    else:
        assert (code, err) == (3, "error: no candidate tree spans every node\n")
        assert not rounds.exists()


_CLOSED_STDOUT = f"error: [Errno {errno.EBADF}] stdout is closed\n".encode()


@pytest.mark.skipif(os.name != "posix", reason="starts a process with fd 1 closed")
@pytest.mark.parametrize("command", ["gen", "simulate", "menu"])
def test_closed_stdout_is_a_data_error(tmp_path, command):
    """With fd 1 closed Python sets sys.stdout to None: stdout is then an output
    that cannot be opened, a one-line data error (exit 2), and a trace file
    named after it is never opened."""
    trace = tmp_path / "t.csv"
    argv = {"gen": ["gen", "--nodes", "3"], "menu": ["menu"],
            "simulate": ["simulate", _f4_file(tmp_path), "--trace", str(trace)]}[command]
    run = _clmat(argv, b"6\n", python=("-c", "import os, sys\nos.close(1)\nos.execv(sys.executable, "
                                     "[sys.executable, '-m', 'clmat.cli', *sys.argv[1:]])"))
    assert (run.returncode, run.stdout, run.stderr) == (2, b"", _CLOSED_STDOUT)
    assert not trace.exists()


# closes fd argv[1], or, with a second argument "failing", leaves it open the
# wrong way for its stream, then runs clmat with the arguments after that
_BAD_STREAM = ("import os, sys\n"
               "fd, failing = int(sys.argv[1]), sys.argv[2] == 'failing'\n"
               "os.close(fd)\n"
               "if failing:\n"
               "    bad = os.open(os.devnull, os.O_WRONLY if fd == 0 else os.O_RDONLY)\n"
               "    assert bad == fd\n"
               "    os.set_inheritable(fd, True)\n"
               "os.execv(sys.executable, [sys.executable, '-m', 'clmat.cli', *sys.argv[3:]])")


def _clmat_with_bad_stream(fd, how, argv, stdin=b""):
    """_clmat with fd 0, 1 or 2 closed, so that Python sets its sys stream to
    None, or, for how "failing", open so that every read or write on it fails."""
    return _clmat([str(fd), how, *argv], stdin, python=("-c", _BAD_STREAM))


_STREAM_ARGV = {
    "gen": ["gen", "--nodes", "3"],
    "trees": ["trees", "-"],
    "select": ["select", "-"],
    "simulate": ["simulate", "-", "--rounds", "3"],
    "compare": ["compare", "-", "--rounds", "3"],
    "menu": ["menu"],
    "help": ["--help"],
    "select-help": ["select", "--help"],
}


def _help_text(argv):
    """The help that argparse formats for clmat, or for argv's subcommand."""
    parser = cli._build_parser()
    if argv[0] != "--help":
        parser = parser._subparsers._group_actions[0].choices[argv[0]]
    return parser.format_help().encode()


@pytest.mark.skipif(os.name != "posix", reason="starts a process with a standard fd closed")
@pytest.mark.parametrize("stream", ["stdin", "stdout", "stderr"])
@pytest.mark.parametrize("command", sorted(_STREAM_ARGV))
def test_every_command_with_a_closed_standard_stream(monkeypatch, tmp_path, command, stream):
    """A closed stream that a command reads or writes is a one-line data error
    (exit 2); one it does not use changes nothing. Help is an output like any
    other, and reads no stdin. simulate writes its lifetime line to stderr as
    an output, so a closed stderr fails it after its rows are written, and no
    error line can then be printed. No run prints a traceback."""
    monkeypatch.setenv("COLUMNS", "80")  # the child and format_help() below wrap alike
    argv = _STREAM_ARGV[command]
    stdin = b"6\n" if command == "menu" else Path(_f4_file(tmp_path)).read_bytes()
    fine = _clmat(argv, stdin)
    assert fine.returncode == 0 and fine.stdout
    if argv[-1] == "--help":
        assert (fine.stdout, fine.stderr) == (_help_text(argv), b"")
    run = _clmat_with_bad_stream(["stdin", "stdout", "stderr"].index(stream), "closed",
                                 argv, stdin)
    assert b"Traceback" not in run.stdout + run.stderr
    closed = f"error: [Errno {errno.EBADF}] {stream} is closed\n".encode()
    if stream == "stdin":
        reads_stdin = command not in ("gen", "help", "select-help")
        want = (2, b"", closed) if reads_stdin else (0, fine.stdout, b"")
    elif stream == "stdout":
        want = (2, b"", closed)
    else:
        want = (2 if command == "simulate" else 0, fine.stdout, b"")
    assert (run.returncode, run.stdout, run.stderr) == want


@pytest.mark.skipif(os.name != "posix", reason="starts a process with fd 2 closed")
@pytest.mark.parametrize("how", ["closed", "failing"])
@pytest.mark.parametrize("argv, code", [
    (["gen", "--nodes", "3", "-o", "{tmp}/nodir/x.json"], 2),
    (["simulate", "{f4}", "--rounds", "0"], 1),
    (["select", "{tmp}/split.json"], 3),
    (["simulate", "{f4}", "--rounds", "3", "-o", "{tmp}/rounds.csv"], 2),
])
def test_an_error_line_that_cannot_be_written_keeps_its_exit_code(tmp_path, how, argv, code):
    """With stderr closed or failing, each error still exits with its own code,
    and its line goes nowhere else: not to stdout, nor into an output file."""
    (tmp_path / "split.json").write_text('{"nodes": [{"id": "a", "energy": 1}, '
                                         '{"id": "b", "energy": 2}]}', encoding="utf-8")
    argv = [a.format(tmp=tmp_path, f4=_f4_file(tmp_path)) for a in argv]
    run = _clmat_with_bad_stream(2, how, argv)
    assert (run.returncode, run.stdout, run.stderr) == (code, b"", b"")
    if argv[-2:] == ["-o", f"{tmp_path}/rounds.csv"]:
        rounds = (tmp_path / "rounds.csv").read_text(encoding="utf-8")
        assert rounds.splitlines()[-1].startswith("3,")


@pytest.mark.skipif(os.name != "posix", reason="starts a process with a standard fd failing")
@pytest.mark.parametrize("command", ["menu", "select"])
def test_a_failing_stdin_or_stdout_is_a_data_error(tmp_path, command):
    """A stream that is open but cannot be read or written gives its OSError's
    line and exit 2, as a closed one does."""
    argv = ["menu"] if command == "menu" else ["select", _f4_file(tmp_path)]
    bad = f"error: [Errno {errno.EBADF}] Bad file descriptor\n".encode()
    run = _clmat_with_bad_stream(0, "failing", argv)
    if command == "menu":
        assert (run.returncode, run.stdout.endswith(b"choice: "), run.stderr) == (2, True, bad)
    else:  # select reads no stdin
        assert (run.returncode, run.stderr) == (0, b"")
    run = _clmat_with_bad_stream(1, "failing", argv, b"6\n")
    assert (run.returncode, run.stdout, run.stderr) == (2, b"", bad)


@pytest.mark.skipif(os.name != "posix", reason="needs a pipe with no reader")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("command", ["gen", "select", "simulate", "menu", "help", "select-help"])
def test_a_broken_stdout_pipe_is_a_data_error(tmp_path, command, unbuffered):
    """Writing to a pipe whose reader is gone is a one-line data error (exit 2),
    whether stdout is block-buffered, so that the write fails only when flushed,
    or unbuffered; help is written as any other output is."""
    argv = {"gen": ["gen", "--nodes", "1"], "select": ["select", _f4_file(tmp_path)],
            "simulate": ["simulate", _f4_file(tmp_path), "--rounds", "2"],
            "menu": ["menu"], "help": ["--help"], "select-help": ["select", "--help"]}[command]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "wb") as pipe:
        run = subprocess.run([sys.executable, "-m", "clmat.cli", *argv], input=b"6\n",
                             stdout=pipe, stderr=subprocess.PIPE, env=env, timeout=60)
    broken = f"error: [Errno {errno.EPIPE}] Broken pipe\n".encode()
    assert run.returncode == 2 and run.stderr.endswith(broken), run.stderr
    assert run.stderr.count(b"\n") == (2 if command == "simulate" and not unbuffered else 1)


def _gen_big(capsys, path):
    """A complete 40-node graph: its outputs are longer than f4's."""
    assert _run(capsys, ["gen", "--nodes", "40", "--seed", "1", "--range", "150",
                         "-o", str(path)]) == (0, "", "")


_REWRITES = {
    "gen": (["gen", "--nodes", "40", "--seed", "1"], ["gen", "--nodes", "3", "--seed", "1"]),
    "select": (["select", "{big}"], ["select", "{f4}", "--format", "json"]),
    "compare": (["compare", "{big}", "--policies", "clmat,max-energy,random", "--rounds", "20"],
                ["compare", "{f4}", "--policies", "clmat", "--format", "csv"]),
    "simulate": (["simulate", "{big}", "--rounds", "30"], ["simulate", "{f4}", "--rounds", "2"]),
}


@pytest.mark.parametrize("command", sorted(_REWRITES))
def test_rewriting_an_output_leaves_the_bytes_of_a_fresh_write(capsys, tmp_path, command):
    """An existing output is rewritten in place and cut to length: a short output
    over a long one, and a long one over a short one, leave exactly the bytes
    that a write to a new path leaves, for -o and --trace alike."""
    big = tmp_path / "big.json"
    _gen_big(capsys, big)
    long_argv, short_argv = ([a.replace("{big}", str(big)).replace("{f4}", _f4_file(tmp_path))
                              for a in argv] for argv in _REWRITES[command])
    names = ["out.txt", "trace.csv"] if command == "simulate" else ["out.txt"]

    def write(argv, directory):
        directory.mkdir(exist_ok=True)
        outputs = ["-o", str(directory / names[0])]
        if command == "simulate":
            outputs += ["--trace", str(directory / names[1])]
        code, out, _ = _run(capsys, [*argv, *outputs])
        assert (code, out) == (0, "")
        return [(directory / name).read_bytes() for name in names]

    fresh_long = write(long_argv, tmp_path / "long")
    fresh_short = write(short_argv, tmp_path / "short")
    assert all(len(s) < len(lo) for s, lo in zip(fresh_short, fresh_long))
    for argv, fresh in [(long_argv, fresh_long), (short_argv, fresh_short),
                        (long_argv, fresh_long)]:
        assert write(argv, tmp_path / "reused") == fresh


def test_rewriting_through_a_link_keeps_the_link(capsys, tmp_path):
    """A symbolic link stays a link and its target gets the bytes; a hard link
    keeps its inode, so every name of the file reads the new bytes."""
    short = ["gen", "--nodes", "3", "--seed", "1"]
    fresh = tmp_path / "fresh.json"
    assert _run(capsys, [*short, "-o", str(fresh)]) == (0, "", "")
    target, symlink, hardlink = (tmp_path / f"{name}.json" for name in ("target", "sym", "hard"))
    _gen_big(capsys, target)
    inode = target.stat().st_ino
    os.symlink(target, symlink)
    os.link(target, hardlink)
    for link in (symlink, hardlink):
        _gen_big(capsys, target)
        assert _run(capsys, [*short, "-o", str(link)]) == (0, "", "")
        assert target.read_bytes() == hardlink.read_bytes() == fresh.read_bytes()
    assert symlink.is_symlink() and os.readlink(symlink) == str(target)
    assert target.stat().st_ino == hardlink.stat().st_ino == inode


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_outputs_to_dev_null_are_not_cut(capsys, tmp_path):
    """A device is written and never truncated."""
    assert _run(capsys, ["gen", "--nodes", "3", "-o", "/dev/null"]) == (0, "", "")
    code, out, err = _run(capsys, ["simulate", _f4_file(tmp_path), "-o", "/dev/null",
                                   "--trace", str(tmp_path / "t.csv")])
    assert (code, out) == (0, "") and err.startswith("lifetime: ")
    assert (tmp_path / "t.csv").read_text(encoding="utf-8").startswith("round,node,residual\n")


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="no file-size limit")
@pytest.mark.parametrize("nodes, limit", [(40, 20_000), (10, 1_000)])
def test_a_write_that_fails_partway_leaves_none_of_the_old_bytes(tmp_path, nodes, limit):
    """A file-size limit stops the write partway (EFBIG): the output then holds
    the new text up to the limit and none of the old bytes after it, as when it
    was truncated on open. The 40-node text fails in write(); the 10-node text
    fits the write buffer, so it fails in the flush at the end."""
    out = tmp_path / "out.json"
    out.write_bytes(b"x" * 200_000)
    argv = ["gen", "--nodes", str(nodes), "--seed", "1", "--range", "150"]
    fresh = _clmat(argv).stdout
    assert 2 * limit < len(fresh)
    run = _clmat([*argv, "-o", str(out)],
                 python=("-c", "import resource, sys\n"
                               "from clmat.cli import main\n"
                               f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))\n"
                               "sys.exit(main(sys.argv[1:]))"))
    expected = f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}\n".encode()
    assert (run.returncode, run.stdout, run.stderr) == (2, b"", expected)
    assert out.read_bytes() == fresh[:limit]


def test_stdin_is_read_exactly_like_a_path(tmp_path):
    bad = b'{"nodes": [{"id": "a\xff", "energy": 1}]}'
    (tmp_path / "bad.json").write_bytes(bad)
    for source, stdin in ((str(tmp_path / "bad.json"), b""), ("-", bad)):
        for output in ([], ["-o", str(tmp_path / "out.txt")]):
            run = _clmat(["select", source, *output], stdin)
            assert (run.returncode, run.stdout) == (2, b""), (source, output, run.stderr)
            assert b"not UTF-8" in run.stderr and b"Traceback" not in run.stderr
    # a quoted line break in an id reads as \n from a path, so stdin must read it so too
    nodes = b'id,energy\r\n"a\r\nb",1\r\nc,2\r\n'
    (tmp_path / "nodes.csv").write_bytes(nodes)
    (tmp_path / "edges.csv").write_bytes(b'u,v,distance\r\n"a\r\nb",c,1\r\n')
    edges = ["--edges-csv", str(tmp_path / "edges.csv")]
    from_path = _clmat(["trees", "--nodes-csv", str(tmp_path / "nodes.csv"), *edges])
    from_stdin = _clmat(["trees", "--nodes-csv", "-", *edges], nodes)
    assert from_path.returncode == 0 and b"a\\nb" in from_path.stdout
    assert from_stdin.stdout == from_path.stdout and from_stdin.returncode == 0


def test_one_leading_byte_order_mark_is_dropped(capsys, tmp_path):
    """Spreadsheet "CSV UTF-8" exports start with a byte-order mark: one is
    not data, in a node CSV, an edge CSV or a JSON file, from a path or '-'."""
    bom = b"\xef\xbb\xbf"
    data = {"nodes.csv": b"id,energy\na,1\nb,2\n", "edges.csv": b"u,v,distance\na,b,3\n",
            "topo.json": export_json(f4()).encode("utf-8")}
    for name, text in data.items():
        (tmp_path / name).write_bytes(text)
        (tmp_path / f"bom-{name}").write_bytes(bom + text)
        (tmp_path / f"bom2-{name}").write_bytes(bom * 2 + text)

    def trees(nodes="nodes.csv", edges="edges.csv"):
        return _run(capsys, ["trees", "--nodes-csv", str(tmp_path / nodes),
                             "--edges-csv", str(tmp_path / edges)])

    def select(topo):
        return _run(capsys, ["select", str(tmp_path / topo), "--format", "json"])

    plain_csv, plain_json = trees(), select("topo.json")
    assert plain_csv[0] == plain_json[0] == 0
    assert trees(nodes="bom-nodes.csv") == trees(edges="bom-edges.csv") == plain_csv
    assert select("bom-topo.json") == plain_json
    from_stdin = _clmat(["select", "-", "--format", "json"], bom + data["topo.json"])
    assert (from_stdin.returncode, from_stdin.stdout.decode("utf-8")) == (0, plain_json[1])
    # a second mark is data: the header's first name, or a character JSON refuses
    assert trees(nodes="bom2-nodes.csv") == (2, "", "error: CSV header must include id,energy\n")
    code, out, err = select("bom2-topo.json")
    assert (code, out) == (2, "") and err.startswith("error: invalid JSON")


@pytest.mark.parametrize("argv", [["select"], ["select", "-o", "{out}"],
                                  ["select", "--format", "json"], ["simulate"],
                                  ["trees", "--format", "csv"]])
def test_lone_surrogate_id_is_a_data_error(capsys, tmp_path, argv):
    """No output can write an id that strict UTF-8 cannot encode, so it does not load."""
    path = tmp_path / "topo.json"
    path.write_text('{"nodes": [{"id": "\\ud800", "energy": 1}, {"id": "b", "energy": 2}], '
                    '"edges": [{"u": "\\ud800", "v": "b", "distance": 1}]}', encoding="ascii")
    out = str(tmp_path / "out.txt")
    code, stdout, err = _run(capsys, [a.replace("{out}", out) for a in argv] + [str(path)])
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and "Unicode" in err
    assert not os.path.exists(out)


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

    monkeypatch.setattr("clmat.selection.build_all_candidates", broken)
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
    # an unquoted decimal comma is one cell too many, not a distance of 1
    (tmp_path / "nodes.csv").write_text("id,energy\na,2\nb,3\n", encoding="utf-8")
    (tmp_path / "edges.csv").write_text("u,v,distance\na,b,1,9\n", encoding="utf-8")
    code, out, err = _run(capsys, ["select", "--nodes-csv", str(tmp_path / "nodes.csv"),
                                   "--edges-csv", str(tmp_path / "edges.csv")])
    assert code == 2
    assert out == "" and err == "error: CSV line 2 has more cells than its header\n"


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
    code, out, err = _run(capsys, ["select", str(path), "--format", "json"])
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


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
REPRODUCTION_COMPARE = ["--policies", "clmat,max-energy,random,fixed:n0", "--trials", "3",
                        "--rounds", "20000", "--radio", "1e-3,1e-6,2,5e-4", "--seed", "0",
                        "--format", "csv"]


@pytest.mark.parametrize("nodes, radio_range, seed", [(30, 40, 2), (60, 30, 0), (60, 30, 1)])
def test_readme_reproduction_rows_rerun(capsys, tmp_path, nodes, radio_range, seed):
    """The README's first-death lifetimes for one graph, rerun through gen and compare."""
    with open(README, encoding="utf-8") as f:
        readme = f.read()
    assert "clmat compare topo.json " + " ".join(REPRODUCTION_COMPARE) in readme
    topo = str(tmp_path / "topo.json")
    code, _, _ = _run(capsys, ["gen", "--nodes", str(nodes), "--side", "100",
                               "--range", str(radio_range), "--energy-lo", "2",
                               "--energy-hi", "5", "--seed", str(seed), "-o", topo])
    assert code == 0
    code, out, _ = _run(capsys, ["compare", topo, *REPRODUCTION_COMPARE])
    assert code == 0
    lifetimes = [row[1] for row in csv.reader(io.StringIO(out))][1:]
    assert f"| {nodes} | {seed} | {' | '.join(lifetimes)} |" in readme.splitlines()


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
    lines = export_dot(g, ids[0]).splitlines()
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


@pytest.mark.referee
@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 9), isolated=st.booleans())
def test_export_dot_bolds_exactly_the_scanned_tree(seed, n, isolated):
    """On graphs full of equal-distance paths, the bold links of every root's
    drawing are the links of the reference scan's tree, first-found parents
    included, and only the root is double-circled."""
    g = tie_heavy_graph(random.Random(seed), n, isolated)
    for root in g.node_ids():
        bold, circled = set(), []
        for line in export_dot(g, root).splitlines()[1:-1]:
            names = [_dot_unescape(raw) for raw in _DOT_QUOTED.findall(line)]
            if " -- " in line and "style=bold" in line:
                bold.add(frozenset(names[:2]))
            elif "shape=doublecircle" in line:
                circled.append(names[0])
        assert bold == {frozenset(e) for e in scan_shortest_path_tree(g, root).edges()}, root
        assert circled == [root]


def test_no_spanning_exit_3(capsys, tmp_path):
    g = f4()
    g.add_vertex("island", 1.0)
    path = tmp_path / "split.json"
    path.write_text(export_json(g), encoding="utf-8")
    code, _, err = _run(capsys, ["select", str(path)])
    assert code == 3
    code, _, err = _run(capsys, ["simulate", str(path)])
    assert code == 3


def test_every_command_reports_a_disconnected_network_alike(capsys, tmp_path):
    path = tmp_path / "split.json"
    path.write_text('{"nodes": [{"id": "a", "energy": 1}, {"id": "b", "energy": 2}, '
                    '{"id": "c", "energy": 3}], "edges": [{"u": "a", "v": "b", "distance": 1}]}',
                    encoding="utf-8")
    commands = [["select"], ["compare", "--policies", "max-energy,clmat"],
                ["compare", "--policies", "fixed:c,random"]]
    commands += [["simulate", "--policy", p] for p in ("clmat", "max-energy", "random", "fixed:a")]
    for argv in commands:
        assert _run(capsys, argv[:1] + [str(path)] + argv[1:]) == (
            3, "", "error: no candidate tree spans every node\n")
    assert _run(capsys, ["simulate", str(path), "--policy", "fixed:z"]) == (
        3, "", "error: root z is not in the alive network\n")


def test_every_command_reports_an_empty_network_alike(capsys, tmp_path):
    """An empty network has no tree to span it; trees still prints its header."""
    path = tmp_path / "empty.json"
    path.write_text('{"nodes": []}', encoding="utf-8")
    commands = [["select"], ["compare", "--policies", "clmat,max-energy,random,fixed:a"]]
    commands += [["simulate", "--policy", p] for p in ("clmat", "max-energy", "random", "fixed:a")]
    for argv in commands:
        assert _run(capsys, argv[:1] + [str(path)] + argv[1:]) == (
            3, "", "error: no candidate tree spans every node\n"), argv
    assert _run(capsys, ["trees", str(path)]) == (
        0, "root  energy_J  cost  distance  depth  spanning\n", "")


def _menu(session: str) -> str:
    out = io.StringIO()
    run_menu(io.StringIO(session), out)
    return out.getvalue()


class _Unflushed(io.StringIO):
    """An output that keeps the text written to it since its last flush."""

    pending = ""

    def write(self, text):
        self.pending += text
        return super().write(text)

    def flush(self):
        self.pending = ""
        super().flush()


def test_menu_flushes_each_prompt_before_it_reads():
    """A terminal shows a prompt only once it is flushed, so nothing the menu
    has written may still be buffered when it waits for an answer."""
    out = _Unflushed()

    class Answers(io.StringIO):
        def readline(self, *args):
            assert out.pending == "", out.pending
            return super().readline(*args)

    run_menu(Answers("1\nA\n5\n1\nB\n3\n2\nA\nB\n2\n9\n6\n"), out)
    assert out.getvalue().count("choice: ") == 5


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
    assert "a -- b  4  1.500" in display_graph(two_node(e_first=1.5))


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
    # 1e200 ** 2 leaves the float range, so either root's one link costs inf
    ranking = select_aggregator(two_node(d=1e200))
    assert [c.cost for c in ranking] == [math.inf, math.inf]
    assert render_ranking(ranking).splitlines()[1].split()[2] == "inf"


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
    """Counts of shortest_path_search calls.

    The simulator and the CLI call the search through the names they
    imported, so all three names are patched.
    """
    made = {"searches": 0}
    search = trees.shortest_path_search

    def counted_search(*args, **kwargs):
        made["searches"] += 1
        return search(*args, **kwargs)

    for module in (trees, simulator, cli):
        monkeypatch.setattr(module, "shortest_path_search", counted_search)
    return made


# the radio prices the cost column: the default, a harsh one, one whose every
# transmission overflows, and one that ignores distance
@pytest.mark.parametrize("scoring", [[], ["--radio", "1e-3,1e-6,2,5e-4"],
                                     ["--radio", "1e-3,1e300,4,5e-4"],
                                     ["--radio", "1e-3,0,2,5e-4"]])
def test_scoring_searches_each_root_once_and_builds_only_the_chosen_tree(
        tmp_path, capsys, counts, scoring):
    g = spanning_topologies(1, n=12)[0]
    path = tmp_path / "topo.json"
    path.write_text(export_json(g), encoding="utf-8")
    # DOT draws the chosen tree, which is searched once more after ranking
    built = {("select", "table"): 0, ("select", "json"): 0, ("select", "dot"): 1,
             ("trees", "table"): 0, ("trees", "csv"): 0, ("trees", "json"): 0}
    for (command, fmt), trees_built in built.items():
        counts.update(searches=0)
        assert main([command, str(path), "--format", fmt, *scoring]) == 0
        assert counts == {"searches": len(g) + trees_built}, (command, fmt)
    capsys.readouterr()
    counts.update(searches=0)
    radio = cli._parse_radio(scoring[1]) if scoring else RadioModel()
    select_aggregator(g, tx_energy=radio.tx_energy)
    assert counts == {"searches": len(g)}


def test_simulate_and_compare_build_no_tree_and_share_drains(tmp_path, capsys, counts):
    """Round costs come straight from the searches, and the rounds of one
    tree share one read-only drained mapping."""
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
    reports = run_lifetime(g, SimConfig(radio=RadioModel(1e-3, 1e-6, 2, 5e-4), max_rounds=400),
                           stop_at_first_death=False).reports
    kept = [(a, b) for a, b in zip(reports, reports[1:]) if not a.deaths]
    assert len(kept) > 10 and len(kept) > len(reports) - len(kept)
    assert all(b.drained is a.drained for a, b in kept)
    with pytest.raises(TypeError):
        reports[0].drained["n0"] = 0.0


def test_menu_listings_build_at_most_the_chosen_tree(counts):
    session = "".join(f"1\nn{i}\n{i + 1}\n" for i in range(4))
    session += "".join(f"2\nn{i}\nn{i + 1}\n1\n" for i in range(3))
    _menu(session + "6\n")
    counts.update(searches=0)
    _menu(session + "4\n6\n")
    assert counts == {"searches": 4}
    counts.update(searches=0)
    _menu(session + "5\n6\n")
    assert counts == {"searches": 4}


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
            assert list_builds["reads"] == len(g) + (argv[-1] == "dot"), argv
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
            (["trees", "--format", "csv"], "csv"),
            (["trees", "--radio", "1e-3,1e300,4,5e-4", "--format", "json"], "json"),
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
