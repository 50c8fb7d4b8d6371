"""Command-line front end: batch subcommands plus the interactive menu.

Exit codes: 0 success, 1 usage error, 2 data error, 3 no spanning candidate.
A closed or failing standard stream is a data error, and an error line that
cannot be written still leaves its exit code. All rendering is a pure function
of the inputs, so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import errno
import functools
import io
import json
import math
import os
import stat
import sys

from .errors import ClmatError, NoSpanningCandidate
from .metrics import RadioModel
from .selection import MIN_DEPTH, TIE_RULES, select_aggregator
from .simulator import (
    SimConfig,
    check_policy,
    check_random_trials,
    compare_policies,
    reports_csv,
    residual_trace_csv,
    run_lifetime,
)
from .topology import (
    NetworkGraph,
    export_json,
    load_topology,
    load_topology_csv,
    random_topology,
)
from .trees import Candidate, build_all_candidates, shortest_path_search


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # the contract reserves exit code 2 for data errors; argparse would use it
    def error(self, message):
        raise UsageError(message)

    # help is an output like any other: argparse's own writer drops a failed
    # write, and falls back to stderr when stdout is closed
    def print_help(self):
        _write_text((None, self.format_help()))


def _jsonable(x):
    """x as a standard JSON value: an infinite float becomes the string "inf"."""
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return x


def _fmt(x) -> str:
    """A JSON record value as a table or CSV cell, or an energy in DOT or the menu."""
    if x is None:
        return "-"
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        # fixed point would spell out every digit of a huge distance, and
        # would round a small nonzero cost to 0.000
        return f"{x:.3f}" if x == 0 or 1e-3 <= abs(x) < 1e15 else f"{x:.6g}"
    return str(x)


_FIELDS = tuple(f.name for f in dataclasses.fields(Candidate))
_COLUMNS = tuple("energy_J" if name == "energy" else name for name in _FIELDS)


def _record(c: Candidate) -> dict:
    """One candidate's output fields, keyed by _FIELDS, as JSON values."""
    return {name: _jsonable(getattr(c, name)) for name in _FIELDS}


def _cells(c) -> list[str]:
    return [_fmt(x) for x in _record(c).values()]


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


# a control character or line separator in an id would break a table row, so
# it is written as an escape; \ is doubled so that an escape in the output
# reads back one way. These cover every line boundary of str.splitlines().
_ESCAPES = {c: f"\\x{c:02x}" for c in [*range(0x20), *range(0x7F, 0xA0)]} | {
    ord("\\"): "\\\\", ord("\n"): "\\n", ord("\r"): "\\r", ord("\t"): "\\t",
    0x2028: "\\u2028", 0x2029: "\\u2029"}


def _escape(text: str) -> str:
    """text with \\ doubled and control characters and line separators escaped.

    Controls become \\n, \\r, \\t or \\xNN; U+2028 and U+2029 become \\u2028
    and \\u2029.
    """
    return text.translate(_ESCAPES)


def _table(rows) -> str:
    rows = [[_escape(cell) for cell in row] for row in rows]
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines) + "\n"


def render_candidates(candidates) -> str:
    """Candidate table in insertion order: one row per root."""
    return _table([_COLUMNS] + [_cells(c) for c in candidates])


def render_ranking(ranking) -> str:
    """Ranking table ordered by the selection key, the chosen root, ranking[0], starred."""
    rows = [_COLUMNS + ("chosen",), _cells(ranking[0]) + ["*"]]
    rows += [_cells(c) + [""] for c in ranking[1:]]
    return _table(rows) + f"chosen aggregator: {_escape(ranking[0].root)}\n"


def export_dot(graph: NetworkGraph, root: str) -> str:
    """Deterministic DOT text; root double-circled, the links of its tree bold.

    The tree is shortest_path_search from root's index: a link is bold when
    one endpoint is the other's parent. SemanticError unless root is a
    vertex. A backslash in a node id is written as \\\\ and a double quote
    as \\", in both the id and its label.
    """
    def quoted(name):
        return name.replace("\\", "\\\\").replace('"', '\\"')

    graph.node(root)  # SemanticError unless root is a vertex
    parent = shortest_path_search(graph, graph.get_index(root)).parent
    lines = ["graph sensors {"]
    for n in graph.nodes:
        attrs = [f'label="{quoted(n.id)}\\n{_fmt(n.energy)} J"']
        if n.id == root:
            attrs.append("shape=doublecircle")
        lines.append(f'  "{quoted(n.id)}" [{", ".join(attrs)}];')
    for link in sorted(graph.links):  # by (u, v), which is unique
        attrs = [f'label="{link.distance:g}"']
        i, j = graph.get_index(link.u), graph.get_index(link.v)
        if parent[i] == j or parent[j] == i:
            attrs.append("style=bold")
        lines.append(f'  "{quoted(link.u)}" -- "{quoted(link.v)}" [{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def display_graph(graph: NetworkGraph) -> str:
    """Adjacency listing: vertices with energies, then u -- v distance edge_energy.

    Ids are escaped as in the tables.
    """
    if len(graph) == 0:
        return "Graph does not exist.\n"
    lines = [f"{_escape(n.id)}  {_fmt(n.energy)} J" for n in graph.nodes]
    for link in graph.links:
        lines.append(f"{_escape(link.u)} -- {_escape(link.v)}  {link.distance:g}  "
                     f"{_fmt(graph.link_energy(link.u, link.v))}")
    return "\n".join(lines) + "\n"


def _read_bytes(path: str) -> bytes:
    """A file's bytes, or stdin's for '-'; the loaders decode them."""
    if path == "-":
        return _std("stdin").buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _std(name: str):
    """sys.stdin, sys.stdout or sys.stderr by name, or an OSError when the
    process started with that fd closed."""
    stream = getattr(sys, name)
    if stream is None:
        raise OSError(errno.EBADF, f"{name} is closed")
    return stream


def _put(name: str, text: str = "") -> None:
    """Write text to a standard stream and flush it; a closed one raises as in _std.

    A failed write or flush keeps its bytes, and Python flushes stdout and
    stderr again at exit, where a second failure would print an "Exception
    ignored" line and exit 120; so the stream's fd is pointed at os.devnull,
    where that last flush succeeds, before the error is raised."""
    stream = _std(name)
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        raise


def _open_in_place(path, flags):
    # open()'s flags without O_TRUNC: an existing file keeps its blocks
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _cut(fh) -> None:
    """Flush fh and cut its file at the bytes written, even when the flush fails."""
    try:
        fh.flush()
    finally:
        fd = fh.fileno()
        os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _write_text(*outputs) -> None:
    """Write each (path, text) pair to path, or to stdout for None or '-',
    opening every file before writing any text.

    An existing file is rewritten in place, not truncated on open: each regular
    file is cut to the bytes written when the writes end, so a run that
    succeeds leaves exactly its text, a failed open leaves the files opened
    before it empty, and a failed write leaves none of the old bytes after the
    new ones. Without an fsync, a crash may leave old bytes in a rewritten file
    where truncating on open would have left it empty. Devices, pipes and
    stdout are never cut."""
    with contextlib.ExitStack() as files:
        sinks = []
        for path, _ in outputs:
            if path is None or path == "-":
                sinks.append(_std("stdout"))
                continue
            fh = files.enter_context(open(path, "w", encoding="utf-8", opener=_open_in_place))
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                files.callback(_cut, fh)
            sinks.append(fh)
        for sink, (_, text) in zip(sinks, outputs):
            sink.write(text)


def _sink_identity(path: str | None):
    """(device, inode) of the file path writes to, stdout's for None or '-'; '-'
    for a stdout with no file, and path resolved while no file is there."""
    stdout = path is None or path == "-"
    try:
        st = os.fstat(_std("stdout").fileno()) if stdout else os.stat(path)
    except OSError:
        return "-" if stdout else os.path.realpath(path)
    return st.st_dev, st.st_ino


def _load_input(args) -> NetworkGraph:
    if args.nodes_csv or args.edges_csv:
        if not (args.nodes_csv and args.edges_csv):
            raise UsageError("--nodes-csv and --edges-csv must be given together")
        if args.topology is not None:
            raise UsageError("give either a topology file or the CSV pair, not both")
        if args.nodes_csv == args.edges_csv == "-":
            raise UsageError("'-' (stdin) can feed only one input")
        return load_topology_csv(_read_bytes(args.nodes_csv), _read_bytes(args.edges_csv))
    if args.topology is None:
        raise UsageError("missing topology input (path, '-', or --nodes-csv/--edges-csv)")
    return load_topology(_read_bytes(args.topology))


def _parse_radio(text: str) -> RadioModel:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError("--radio expects tx_fixed,tx_dist_coeff,exponent,rx_cost")
    try:
        return RadioModel(float(parts[0]), float(parts[1]), int(parts[2]), float(parts[3]))
    except ValueError as exc:
        raise UsageError(f"bad --radio value: {exc}") from exc


def _add_input_args(sub) -> None:
    sub.add_argument("topology", nargs="?", default=None,
                     help="topology JSON path, or '-' for stdin")
    sub.add_argument("--nodes-csv", help="node CSV (id,energy[,x,y]) instead of JSON")
    sub.add_argument("--edges-csv", help="edge CSV (u,v,distance) instead of JSON")
    sub.add_argument("--radio", type=_parse_radio, default=RadioModel(),
                     help="radio model tx_fixed,tx_dist_coeff,exponent,rx_cost; it "
                          "prices each tree's cost column as well as each round's "
                          "drains (default: 50e-9,100e-12,2,50e-9)")


def _add_selection_args(sub) -> None:
    sub.add_argument("--tie", choices=TIE_RULES, default=MIN_DEPTH,
                     help="distance-tie rule: min-depth prefers the shallower tree "
                          "then the later root; first-min keeps the earliest minimum "
                          "(default: %(default)s)")


def _add_run_args(sub) -> None:
    sub.add_argument("--rounds", type=int, default=SimConfig.max_rounds,
                     help="horizon (default: %(default)s)")
    sub.add_argument("--reselect-every", type=int, default=SimConfig.reselect_every,
                     help="rounds between re-picks by max-energy and random; every "
                          "policy re-picks after a death, and clmat and fixed:<id> "
                          "only then (default: %(default)s)")
    sub.add_argument("--seed", type=int, default=SimConfig.seed)


@functools.cache
def _build_parser() -> _Parser:
    """The clmat argument parser, built on first use and kept for the process.

    Parsing leaves the parser as it was, so every main call can share it.
    This saves time only in a process that calls main more than once, such
    as a test run or an in-process benchmark loop; the installed clmat
    command calls main once per process and builds the parser once anyway.
    """
    parser = _Parser(prog="clmat", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate a random topology as JSON")
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--side", type=float, default=100.0,
                     help="square side length (default: %(default)s)")
    gen.add_argument("--range", type=float, dest="radio_range", default=40.0,
                     help="transmission range; pairs within it get a link "
                          "(default: %(default)s)")
    gen.add_argument("--energy-lo", type=float, default=2.0)
    gen.add_argument("--energy-hi", type=float, default=5.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", default=None)
    gen.set_defaults(func=_cmd_gen)

    trees = subs.add_parser("trees", help="score the candidate tree of every root")
    _add_input_args(trees)
    trees.add_argument("--format", choices=("table", "csv", "json"), default="table")
    trees.add_argument("-o", "--output", default=None)
    trees.set_defaults(func=_cmd_trees)

    select = subs.add_parser("select", help="pick the lifetime-maximizing aggregator")
    _add_input_args(select)
    _add_selection_args(select)
    select.add_argument("--format", choices=("table", "json", "dot"), default="table")
    select.add_argument("-o", "--output", default=None)
    select.set_defaults(func=_cmd_select)

    sim = subs.add_parser("simulate", help="run the round-based lifetime simulation")
    _add_input_args(sim)
    _add_selection_args(sim)
    _add_run_args(sim)
    sim.add_argument("--until", choices=("first-death", "exhaustion"), default="first-death",
                     help="stop at the first death, or keep going to the horizon "
                          "(default: %(default)s)")
    sim.add_argument("--policy", default="clmat",
                     help="root policy: clmat, max-energy, random, fixed:<id> "
                          "(default: %(default)s)")
    sim.add_argument("--trace", default=None, help="also write a residual trace CSV here")
    sim.add_argument("-o", "--output", default=None, help="round report CSV (default stdout)")
    sim.set_defaults(func=_cmd_simulate)

    comp = subs.add_parser("compare", help="lifetime table across root policies")
    _add_input_args(comp)
    _add_selection_args(comp)
    _add_run_args(comp)
    comp.add_argument("--policies", default="clmat,max-energy",
                      help="comma list of clmat, max-energy, random, fixed:<id> "
                           "(default: %(default)s)")
    comp.add_argument("--trials", type=int, default=5,
                      help="trials to average for the random policy (default: %(default)s)")
    comp.add_argument("--format", choices=("table", "csv"), default="table")
    comp.add_argument("-o", "--output", default=None)
    comp.set_defaults(func=_cmd_compare)

    menu = subs.add_parser("menu", help="interactive build-and-compare session")
    menu.set_defaults(func=_cmd_menu)

    return parser


def _cmd_gen(args) -> int:
    try:
        graph = random_topology(args.nodes, args.side, args.radio_range,
                                args.energy_lo, args.energy_hi, args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _write_text((args.output, export_json(graph)))
    return 0


def _cmd_trees(args) -> int:
    graph = _load_input(args)
    candidates = build_all_candidates(graph, args.radio.tx_energy)
    if args.format == "table":
        out = render_candidates(candidates)
    elif args.format == "csv":
        out = _csv([_FIELDS, *map(_cells, candidates)])
    else:
        out = json.dumps({"candidates": [_record(c) for c in candidates]}, indent=2) + "\n"
    _write_text((args.output, out))
    return 0


def _cmd_select(args) -> int:
    graph = _load_input(args)
    ranking = select_aggregator(graph, args.tie, args.radio.tx_energy)
    if args.format == "table":
        out = render_ranking(ranking)
    elif args.format == "json":
        records = [_record(c) for c in ranking]  # the chosen root's first
        out = json.dumps({
            "chosen_root": ranking[0].root,
            "metrics": {key: records[0][key] for key in ("energy", "cost", "distance")},
            "ranking": records,
        }, indent=2) + "\n"
    else:
        out = export_dot(graph, ranking[0].root)
    _write_text((args.output, out))
    return 0


def _sim_config(args, policies, random_trials: int = 1) -> SimConfig:
    """The run's config, with every argument error raised as a UsageError."""
    try:
        check_random_trials(random_trials)
        config = SimConfig(radio=args.radio, max_rounds=args.rounds,
                           reselect_every=args.reselect_every, tie_rule=args.tie,
                           seed=args.seed)
        for policy in policies:
            check_policy(policy)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return config


def _cmd_simulate(args) -> int:
    config = _sim_config(args, [args.policy])
    if args.trace and _sink_identity(args.output) == _sink_identity(args.trace):
        raise UsageError("-o and --trace must name two different outputs")
    graph = _load_input(args)
    result = run_lifetime(graph, config, policy=args.policy,
                          stop_at_first_death=args.until == "first-death")
    trace = [(args.trace, residual_trace_csv(graph, result.reports))] if args.trace else []
    _write_text((args.output, reports_csv(result.reports)), *trace)
    death = result.first_death_round if result.first_death_round is not None else "none"
    # an output too: a lifetime line that cannot be written is a data error
    _put("stderr", f"lifetime: {result.lifetime} rounds (first death: {death}, "
                   f"delivered: {result.delivered_packets} packets, "
                   f"partitioned: {'yes' if result.partitioned else 'no'})\n")
    return 0


def _cmd_compare(args) -> int:
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    if not policies:
        raise UsageError("--policies must name at least one policy")
    config = _sim_config(args, policies, args.trials)
    graph = _load_input(args)
    lifetimes = compare_policies(graph, config, policies, random_trials=args.trials)
    # six significant digits, or every integer digit when there are more: what :g
    # writes for a lifetime below 999,999.5 rounds, and never an exponent above it
    rows = [("policy", "lifetime_rounds")]
    rows += [(name, f"{life:#.{max(0, 6 - len(str(int(life))))}f}".rstrip("0").rstrip("."))
             for name, life in lifetimes]
    _write_text((args.output, (_table if args.format == "table" else _csv)(rows)))
    return 0


_MENU = ("1) add vertex\n"
         "2) add edge\n"
         "3) display graph\n"
         "4) candidate trees\n"
         "5) compare trees\n"
         "6) exit\n")


def run_menu(in_stream, out_stream) -> None:
    """Interactive session: build a graph by hand, then compare its trees.

    Per-operation errors are printed and the loop continues; only choice 6
    or end of input leaves the session.
    """
    graph = NetworkGraph()

    def say(text):
        out_stream.write(text)

    def ask(prompt):
        out_stream.write(prompt)
        out_stream.flush()
        line = in_stream.readline()
        if not line:
            raise EOFError
        return line.strip()

    while True:
        try:
            say(_MENU)
            choice = ask("choice: ")
            if choice == "6":
                break
            if choice == "1":
                _menu_add_vertex(graph, ask, say)
            elif choice == "2":
                _menu_add_edge(graph, ask, say)
            elif choice == "3":
                say(display_graph(graph))
            elif choice in ("4", "5"):
                if len(graph) == 0:
                    say("Graph does not exist.\n")
                elif choice == "4":
                    say(render_candidates(build_all_candidates(graph)))
                else:
                    try:
                        say(render_ranking(select_aggregator(graph)))
                    except NoSpanningCandidate:
                        say("No spanning candidate.\n")
            else:
                say("Invalid choice.\n")
        except EOFError:
            break


def _menu_add_vertex(graph, ask, say) -> None:
    name = ask("name: ")
    if graph.get_index(name) != -1:
        say("Vertex already exists.\n")
        return
    raw = ask("energy (J): ")
    try:
        energy = float(raw)
    except ValueError:
        say("Invalid energy.\n")
        return
    try:
        graph.add_vertex(name, energy)
    except ClmatError as exc:
        say(f"{exc}\n")


def _menu_add_edge(graph, ask, say) -> None:
    if len(graph) == 0:
        say("No vertex exists.\n")
        return
    u = ask("source: ")
    if graph.get_index(u) == -1:
        say("Source vertex does not exist.\n")
        return
    v = ask("destination: ")
    if graph.get_index(v) == -1:
        say("Destination vertex does not exist.\n")
        return
    raw = ask("distance: ")
    try:
        distance = float(raw)
    except ValueError:
        say("Invalid distance.\n")
        return
    try:
        graph.add_edge(u, v, distance)
    except ClmatError as exc:
        say(f"{exc}\n")


def _cmd_menu(args) -> int:
    run_menu(_std("stdin"), _std("stdout"))
    return 0


def main(argv=None) -> int:
    try:
        try:
            # help raises SystemExit from here, after writing to stdout
            args = _build_parser().parse_args(argv)
            return args.func(args)
        finally:
            if sys.stdout is not None:
                _put("stdout")  # so that a failed write to stdout is this run's error
    except UsageError as exc:
        code, line = 1, f"usage error: {exc}"
    except NoSpanningCandidate as exc:
        code, line = 3, f"error: {exc}"
    except (ClmatError, OSError) as exc:
        code, line = 2, f"error: {exc}"
    # the exit code tells of the error even when its line cannot be written
    with contextlib.suppress(OSError):
        _put("stderr", line + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
