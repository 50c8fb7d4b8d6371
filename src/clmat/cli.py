"""Command-line front end: batch subcommands plus the interactive menu.

Exit codes: 0 success, 1 usage error, 2 data error, 3 no spanning candidate.
All rendering is a pure function of the inputs, so identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

from .errors import ClmatError, NoSpanningCandidate, ParseError
from .metrics import CLMAT, COST_VARIANTS, ENERGY_VARIANTS, NODE_MIN
from .selection import MIN_DEPTH, TIE_RULES, SelectionResult, compare_trees, select_aggregator
from .simulator import (
    RadioModel,
    SimConfig,
    check_policy,
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
from .trees import build_all_candidates


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # the contract reserves exit code 2 for data errors; argparse would use it
    def error(self, message):
        raise UsageError(message)


def _jsonable(x):
    """x as a standard JSON value: an infinite float becomes the string "inf"."""
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return x


def _fmt(x) -> str:
    """A JSON record value as a table or CSV cell."""
    if x is None:
        return "-"
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        # fixed point would spell out every digit of a huge distance
        return f"{x:.3f}" if abs(x) < 1e15 else f"{x:.6g}"
    return str(x)


_FIELDS = ("root", "energy", "cost", "distance", "depth", "spanning")
_COLUMNS = ("root", "energy_J", "cost", "distance", "depth", "spanning")


def _record(c) -> dict:
    """One candidate's output fields, keyed by _FIELDS, as JSON values."""
    m = c.metrics
    values = (c.root, m.tree_energy, m.tree_cost, m.total_distance, c.depth, c.spanning)
    return {name: _jsonable(x) for name, x in zip(_FIELDS, values)}


def _cells(c) -> list[str]:
    return [_fmt(x) for x in _record(c).values()]


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


def render_ranking(result: SelectionResult) -> str:
    """Ranking table ordered by the selection key, chosen root starred."""
    rows = [_COLUMNS + ("chosen",)]
    for c in result.ranking:
        rows.append(_cells(c) + ["*" if c.root == result.chosen_root else ""])
    return _table(rows) + f"chosen aggregator: {_escape(result.chosen_root)}\n"


def export_dot(graph: NetworkGraph, tree=None) -> str:
    """Deterministic DOT text; tree edges bold, the root double-circled.

    A backslash in a node id is written as \\\\ and a double quote as \\", in
    both the id and its label.
    """
    def quoted(name):
        return name.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["graph sensors {"]
    root = tree.root if tree is not None else None
    for n in graph.nodes:
        attrs = [f'label="{quoted(n.id)}\\n{n.energy:.3f} J"']
        if n.id == root:
            attrs.append("shape=doublecircle")
        lines.append(f'  "{quoted(n.id)}" [{", ".join(attrs)}];')
    marked = set()
    if tree is not None:
        for p, v in tree.edges():
            marked.add((p, v))
            marked.add((v, p))
    for link in sorted(graph.links, key=lambda l: (l.u, l.v)):
        attrs = [f'label="{link.distance:g}"']
        if (link.u, link.v) in marked:
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
    lines = [f"{_escape(n.id)}  {n.energy:.3f} J" for n in graph.nodes]
    for link in graph.links:
        lines.append(f"{_escape(link.u)} -- {_escape(link.v)}  {link.distance:g}  "
                     f"{graph.link_energy(link.u, link.v):.3f}")
    return "\n".join(lines) + "\n"


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_input(args) -> NetworkGraph:
    if args.nodes_csv or args.edges_csv:
        if not (args.nodes_csv and args.edges_csv):
            raise UsageError("--nodes-csv and --edges-csv must be given together")
        if args.topology is not None:
            raise UsageError("give either a topology file or the CSV pair, not both")
        return load_topology_csv(_read_text(args.nodes_csv), _read_text(args.edges_csv))
    if args.topology is None:
        raise UsageError("missing topology input (path, '-', or --nodes-csv/--edges-csv)")
    return load_topology(_read_text(args.topology))


def _parse_radio(text: str) -> RadioModel:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError("--radio expects tx_fixed,tx_dist_coeff,exponent,rx_cost")
    try:
        model = RadioModel(float(parts[0]), float(parts[1]), int(parts[2]), float(parts[3]))
    except ValueError as exc:
        raise UsageError(f"bad --radio value: {exc}") from exc
    return model


def _add_input_args(sub) -> None:
    sub.add_argument("topology", nargs="?", default=None,
                     help="topology JSON path, or '-' for stdin")
    sub.add_argument("--nodes-csv", help="node CSV (id,energy[,x,y]) instead of JSON")
    sub.add_argument("--edges-csv", help="edge CSV (u,v,distance) instead of JSON")


def _add_scoring_args(sub) -> None:
    sub.add_argument("--cost", choices=COST_VARIANTS, default=CLMAT,
                     help="edge cost formula (default: %(default)s; residual divides "
                          "per-packet tx energy by residual energy and needs --radio)")
    sub.add_argument("--energy", choices=ENERGY_VARIANTS, default=NODE_MIN,
                     help="tree energy: min non-root node energy, or min over edges "
                          "of min endpoint energy (default: %(default)s)")


def _add_selection_args(sub) -> None:
    sub.add_argument("--tie", choices=TIE_RULES, default=MIN_DEPTH,
                     help="distance-tie rule: min-depth prefers the shallower tree "
                          "then the later root; first-min keeps the earliest minimum "
                          "(default: %(default)s)")
    sub.add_argument("--radio", type=_parse_radio, default=RadioModel(),
                     help="radio model tx_fixed,tx_dist_coeff,exponent,rx_cost "
                          "(default: 50e-9,100e-12,2,50e-9)")


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
    _add_scoring_args(trees)
    _add_selection_args(trees)
    trees.add_argument("--format", choices=("table", "csv", "json"), default="table")
    trees.add_argument("-o", "--output", default=None)
    trees.set_defaults(func=_cmd_trees)

    select = subs.add_parser("select", help="pick the lifetime-maximizing aggregator")
    _add_input_args(select)
    _add_scoring_args(select)
    _add_selection_args(select)
    select.add_argument("--format", choices=("table", "json", "dot"), default="table")
    select.add_argument("-o", "--output", default=None)
    select.set_defaults(func=_cmd_select)

    sim = subs.add_parser("simulate", help="run the round-based lifetime simulation")
    _add_input_args(sim)
    _add_selection_args(sim)
    sim.add_argument("--rounds", type=int, default=1000, help="horizon (default: %(default)s)")
    sim.add_argument("--reselect-every", type=int, default=1,
                     help="rounds between re-picks by max-energy and random; every "
                          "policy re-picks after a death, and clmat and fixed:<id> "
                          "only then (default: %(default)s)")
    sim.add_argument("--seed", type=int, default=0)
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
    comp.add_argument("--rounds", type=int, default=1000)
    comp.add_argument("--reselect-every", type=int, default=1,
                      help="as for simulate (default: %(default)s)")
    comp.add_argument("--seed", type=int, default=0)
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
    _write_text(args.output, export_json(graph))
    return 0


def _candidates_for(args, graph):
    return build_all_candidates(graph, args.cost, args.energy,
                                tx_energy=args.radio.tx_energy)


def _cmd_trees(args) -> int:
    graph = _load_input(args)
    candidates = _candidates_for(args, graph)
    if args.format == "table":
        out = render_candidates(candidates)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_FIELDS)
        writer.writerows(_cells(c) for c in candidates)
        out = buf.getvalue()
    else:
        out = json.dumps({"candidates": [_record(c) for c in candidates]}, indent=2) + "\n"
    _write_text(args.output, out)
    return 0


def _cmd_select(args) -> int:
    graph = _load_input(args)
    if args.format == "dot":
        # only the drawing needs the chosen root's tree
        result = select_aggregator(graph, args.cost, args.energy, args.tie,
                                   tx_energy=args.radio.tx_energy)
    else:
        result = compare_trees(_candidates_for(args, graph), args.tie)
    if args.format == "table":
        out = render_ranking(result)
    elif args.format == "json":
        out = json.dumps({
            "chosen_root": result.chosen_root,
            "metrics": {"energy": _jsonable(result.metrics.tree_energy),
                        "cost": _jsonable(result.metrics.tree_cost),
                        "distance": _jsonable(result.metrics.total_distance)},
            "ranking": [_record(c) for c in result.ranking],
        }, indent=2) + "\n"
    else:
        out = export_dot(graph, result.tree)
    _write_text(args.output, out)
    return 0


def _sim_config(args, policies) -> SimConfig:
    """The run's config, with every argument error raised as a UsageError."""
    config = SimConfig(radio=args.radio, max_rounds=args.rounds,
                       reselect_every=args.reselect_every, tie_rule=args.tie,
                       seed=args.seed)
    try:
        config.validate()
        for policy in policies:
            check_policy(policy)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return config


def _cmd_simulate(args) -> int:
    graph = _load_input(args)
    config = _sim_config(args, [args.policy])
    result = run_lifetime(graph, config, policy=args.policy,
                          stop_at_first_death=args.until == "first-death")
    _write_text(args.output, reports_csv(result.reports))
    if args.trace:
        _write_text(args.trace, residual_trace_csv(graph, result.reports))
    death = result.first_death_round if result.first_death_round is not None else "none"
    print(f"lifetime: {result.lifetime} rounds (first death: {death}, "
          f"delivered: {result.delivered_packets} packets, "
          f"partitioned: {'yes' if result.partitioned else 'no'})", file=sys.stderr)
    return 0


def _cmd_compare(args) -> int:
    graph = _load_input(args)
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    if not policies:
        raise UsageError("--policies must name at least one policy")
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    config = _sim_config(args, policies)
    rows = compare_policies(graph, config, policies, random_trials=args.trials)
    if args.format == "table":
        table = [("policy", "lifetime_rounds")]
        table.extend((name, f"{lifetime:g}") for name, lifetime in rows)
        out = _table(table)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("policy", "lifetime_rounds"))
        writer.writerows((name, f"{lifetime:g}") for name, lifetime in rows)
        out = buf.getvalue()
    _write_text(args.output, out)
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
                        say(render_ranking(compare_trees(build_all_candidates(graph))))
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
    except (ClmatError, ValueError) as exc:
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
    run_menu(sys.stdin, sys.stdout)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NoSpanningCandidate as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ClmatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
