"""clmat benchmark: one closed-loop client running CLI ops in-process.

Run from the root of a clmat checkout:

    python3 bench/run.py --workload select-sparse --seed 1 --seconds 30 --trace 0

It imports clmat from ./src, generates the workload's topologies from the
seed, then calls clmat.cli.main on them one op at a time until --seconds
have passed, checking every op's outputs. The last stdout line is a JSON
object {correct, attempted, failed, metrics}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. A fuller results file and,
for traced runs, a span dump go to bench/out/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback

from tracer import Tracer
from workloads import SPECS, CheckFailed, argv_for, build_pool, check, read_text

SETUP_REPS = 5

# The host's speed moves by up to 2x within seconds (other tenants share its
# cores), so every timing is scaled to a reference host. While a timed region
# runs, SIGALRM fires every PROBE_INTERVAL_S and the handler times a small
# reference task; the region's own time (its wall time less the probes') is
# multiplied by the mean of REFERENCE_S over each probe's time. The task
# calls no clmat code, so only the host's speed moves it.
PROBE_INTERVAL_S = 0.05
REFERENCE_S = 0.0006
_REF_RNG = random.Random(20130322)
_REF_POINTS = [(_REF_RNG.uniform(0, 100), _REF_RNG.uniform(0, 100)) for _ in range(40)]

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "op_p50_s": "s",
    "work_per_s": "items/s",
    "peak_rss_mib": "MiB",
}

# <span>.<stat>; calls and self_s are per op (per setup for set-up spans).
PER_LAYER = {
    "topology.load_topology.calls": "count/op",
    "topology.load_topology.self_s": "s/op",
    "topology.restricted.calls": "count/op",
    "topology.restricted.self_s": "s/op",
    "topology.restricted.links_copied": "count/op",
    "topology.random_topology.self_s": "s/setup",
    "topology.export_json.self_s": "s/setup",
    "trees.shortest_path_tree.calls": "count/op",
    "trees.shortest_path_tree.self_s": "s/op",
    "trees.build_all_candidates.self_s": "s/op",
    "trees.AggregationTree.depth.calls": "count/op",
    "trees.AggregationTree.depth.self_s": "s/op",
    "metrics.tree_energy.calls": "count/op",
    "metrics.tree_energy.self_s": "s/op",
    "metrics.tree_cost.calls": "count/op",
    "metrics.tree_cost.self_s": "s/op",
    "metrics.total_distance.calls": "count/op",
    "metrics.total_distance.self_s": "s/op",
    "selection.compare_trees.calls": "count/op",
    "selection.compare_trees.self_s": "s/op",
    "selection.select_aggregator.calls": "count/op",
    "simulator.drain_round.calls": "count/op",
    "simulator.drain_round.self_s": "s/op",
    "simulator.run_lifetime.self_s": "s/op",
    "simulator.reselect.calls": "count/op",
    "simulator.reselect.useful_ratio": "ratio",
    "simulator.reports_csv.self_s": "s/op",
    "simulator.residual_trace_csv.self_s": "s/op",
    "cli.main.self_s": "s/op",
    "trace.overhead_ratio": "ratio",
}

# Spans each workload must record at least once in a traced run.
_SELECT_SPANS = (
    "topology.random_topology", "topology.export_json", "topology.load_topology",
    "trees.shortest_path_tree", "trees.build_all_candidates", "trees.AggregationTree.depth",
    "metrics.tree_energy", "metrics.tree_cost", "metrics.total_distance",
    "selection.compare_trees", "cli.main")
_SIM_SPANS = _SELECT_SPANS + (
    "topology.restricted", "selection.select_aggregator", "simulator.drain_round",
    "simulator.run_lifetime")
EXPECTED_SPANS = {
    "select-sparse": _SELECT_SPANS,
    "simulate-lifetime": _SIM_SPANS + ("simulator.reports_csv", "simulator.residual_trace_csv"),
    "compare-dense": _SIM_SPANS,
}


class SetupError(Exception):
    pass


def _reference_task() -> None:
    """O(n^2) shortest-path scan over fixed points: clmat's mix of dict, float and call work."""
    dist = {0: 0.0}
    done = set()
    for _ in range(len(_REF_POINTS)):
        u = min((v for v in dist if v not in done), key=dist.__getitem__)
        done.add(u)
        ux, uy = _REF_POINTS[u]
        du = dist[u]
        for v, (vx, vy) in enumerate(_REF_POINTS):
            if v not in done:
                d = du + math.hypot(ux - vx, uy - vy)
                if d < dist.get(v, math.inf):
                    dist[v] = d


class SpeedProbe:
    """Times the reference task during a timed region; see PROBE_INTERVAL_S.

    One probe runs just before the region and one just after it, so even a
    region shorter than the interval is scaled.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.measured = 0.0

    def _probe(self, *_signal) -> None:
        start = time.perf_counter()
        _reference_task()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> SpeedProbe:
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        # a probe that was pending when the timer stopped has run by now
        self.measured = time.perf_counter() - self._start - sum(self.samples[1:])
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def scaled(self) -> float:
        """The region's own seconds, as the reference host would take them."""
        return self.measured * statistics.fmean(REFERENCE_S / s for s in self.samples)


def import_clmat(src: str):
    """Import clmat afresh from src; return its topology, trees and cli modules."""
    for name in [k for k in sys.modules if k == "clmat" or k.startswith("clmat.")]:
        del sys.modules[name]
    try:
        clmat = importlib.import_module("clmat")
        importlib.import_module("clmat.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import clmat from {src}: {exc}") from exc
    if os.path.dirname(os.path.dirname(os.path.realpath(clmat.__file__))) != os.path.realpath(src):
        raise SetupError(f"clmat was imported from {clmat.__file__}, not from {src}")
    return (sys.modules["clmat.topology"], sys.modules["clmat.trees"],
            sys.modules["clmat.cli"])


def git_commit(root: str) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    if not os.path.isfile(os.path.join(git, "HEAD")):
        return None
    head = read_text(os.path.join(git, "HEAD")).strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if os.path.isfile(os.path.join(git, ref)):
        return read_text(os.path.join(git, ref)).strip()
    if os.path.isfile(os.path.join(git, "packed-refs")):
        for line in read_text(os.path.join(git, "packed-refs")).splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_digest(root: str) -> str:
    """SHA-256 over src/clmat/*.py, which names the code when there is no .git."""
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "clmat")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            digest.update(read_text(os.path.join(pkg, name)).encode())
    return digest.hexdigest()


def tail(times: list[float]) -> dict | None:
    """Highest percentile of op time with at least ten samples beyond it."""
    if len(times) < 11:
        return None
    ordered = sorted(times)
    idx = len(ordered) - 11
    return {"value": ordered[idx], "percentile": 100.0 * (idx + 1) / len(ordered),
            "beyond": 10, "ops": len(ordered)}


class Client:
    """One closed-loop client: runs an op, checks it, then runs the next."""

    def __init__(self, workload, pool, workdir, cli, oracle_fn):
        self.workload = workload
        self.pool = pool
        self.workdir = workdir
        self.cli = cli
        self.oracle_fn = oracle_fn
        self.attempted = 0
        self.failures: list[dict] = []

    def run_op(self, index: int, tracer: Tracer | None = None, scale: bool = False):
        """Run op `index`; return (seconds, scaled seconds, work) or None when it failed.

        With scale the op runs under a SpeedProbe, whose probes its seconds
        exclude; without, scaled seconds is None.
        """
        topo = self.pool[index % len(self.pool)]
        argv = argv_for(self.workload, topo, self.workdir)
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        gc.collect()
        if tracer is not None:
            tracer.install()
            tracer.begin_op(self.attempted, "op")
        probe = SpeedProbe() if scale else None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                with probe or contextlib.nullcontext():
                    rc = self.cli.main(argv)
                elapsed = time.perf_counter() - start
        except Exception:  # an op that raises is a failed op; keep the loop going
            self.failures.append({"op": self.attempted, "argv": argv,
                                  "error": traceback.format_exc()})
            return None
        finally:
            if tracer is not None:
                tracer.end_op()
                tracer.uninstall()
        if rc != 0:
            self.failures.append({"op": self.attempted, "argv": argv,
                                  "error": f"exit code {rc}: {err.getvalue()}"})
            return None
        try:
            work = check(self.workload, topo, self.workdir, err.getvalue(), self.oracle_fn)
        except (CheckFailed, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            self.failures.append({"op": self.attempted, "argv": argv,
                                  "error": f"{type(exc).__name__}: {exc}"})
            return None
        if probe is not None:
            return probe.measured, probe.scaled(), work
        return elapsed, None, work


def timed_setup(root: str, spec, seed: int, workdir: str):
    """Import clmat afresh and build the pool.

    Returns the modules, the pool and the set-up's (measured, scaled) seconds.
    """
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "clmat", "__init__.py")):
        raise SetupError(f"no clmat package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    gc.collect()
    with SpeedProbe() as probe:
        modules = import_clmat(src)
        pool = build_pool(modules[0], spec, seed, workdir)
    return modules, pool, (probe.measured, probe.scaled())


def measure(client: Client, seconds: float, resetup) -> dict:
    """Untraced run: ops back to back for `seconds` of op time.

    The SETUP_REPS - 1 repeat set-ups are spread evenly over the run, so
    their median sees the same host as the ops; the op clock stops while
    they run.
    """
    times, scaled, work, setups = [], [], [], []
    start = time.perf_counter()
    paused = 0.0
    i = 0
    while i == 0 or time.perf_counter() - start - paused < seconds:
        if (len(setups) < SETUP_REPS - 1 and time.perf_counter() - start - paused
                >= (len(setups) + 1) * seconds / SETUP_REPS):
            t0 = time.perf_counter()
            setups.append(resetup())
            paused += time.perf_counter() - t0
        res = client.run_op(i, scale=True)
        i += 1
        if res is not None:
            times.append(res[0])
            scaled.append(res[1])
            work.append(res[2])
    while len(setups) < SETUP_REPS - 1:
        setups.append(resetup())
    return {"times": times, "scaled": scaled, "work": work, "setups": setups}


def measure_traced(client: Client, topology_mod, spec, seed, workdir, seconds) -> dict:
    """Traced run: one traced set-up, then untraced and traced ops in pairs."""
    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0, "setup")
    try:
        build_pool(topology_mod, spec, seed, workdir)
    finally:
        tracer.end_op()
        tracer.uninstall()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        # alternate which side of the pair runs first
        order = (None, tracer) if i % 2 == 0 else (tracer, None)
        for t in order:
            res = client.run_op(i, t)
            if res is not None:
                (traced if t is not None else plain).append(res[0])
        i += 1
    return {"tracer": tracer, "plain": plain, "traced": traced}


def layer_metrics(workload: str, tracer: Tracer, plain, traced) -> tuple[dict, list]:
    agg = tracer.aggregate()
    kinds = list(tracer.op_kind.values())
    units = {"setup": kinds.count("setup"), "op": kinds.count("op")}

    def per_unit(span: str, stat: int) -> float:
        return sum(agg[(kind, span)][stat] / units[kind]
                   for kind in units if (kind, span) in agg)

    n_ops = units["op"]
    reselect = [sum(c[0] for c in tracer.reselect.values()),
                sum(c[1] for c in tracer.reselect.values())]
    values = {}
    for name in PER_LAYER:
        span, stat = name.rsplit(".", 1)
        if stat == "calls" and span == "simulator.reselect":
            values[name] = reselect[0] / n_ops
        elif stat == "useful_ratio":
            values[name] = reselect[1] / reselect[0] if reselect[0] else 0.0
        elif stat == "links_copied":
            values[name] = sum(tracer.links_copied.values()) / n_ops
        elif stat == "overhead_ratio":
            values[name] = (statistics.median(traced) / statistics.median(plain)
                            if traced and plain else 0.0)
        else:
            values[name] = per_unit(span, 0 if stat == "calls" else 1)
    seen = {span for _, span in agg}
    missing = [s for s in EXPECTED_SPANS[workload] if s not in seen]
    return values, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    spec = SPECS[args.workload]
    outdir = os.path.join(root, "bench", "out")
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(outdir, f"work-{label}-{os.getpid()}")
    try:
        os.makedirs(workdir)
        (topology, trees, cli), pool, first_setup = timed_setup(root, spec, args.seed, workdir)
        client = Client(args.workload, pool, workdir, cli, trees.oracle_shortest_paths)
        if args.trace:
            run = measure_traced(client, topology, spec, args.seed, workdir, args.seconds)
        else:
            run = measure(client, args.seconds,
                          lambda: timed_setup(root, spec, args.seed, workdir)[2])
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(client.failures)
    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "client": "one closed-loop client, one op in flight, single thread",
        "git_commit": git_commit(root), "src_sha256": src_digest(root),
        "topologies": [t.params for t in pool],
        "attempted": client.attempted, "failed": failed,
        "failed_ratio": failed / client.attempted,
        "failures": client.failures[:5],
    }
    if args.trace:
        tracer = run["tracer"]
        metrics, missing = layer_metrics(args.workload, tracer, run["plain"], run["traced"])
        units = PER_LAYER
        results.update(traced_ops=len(run["traced"]), untraced_ops=len(run["plain"]),
                       spans=len(tracer.start), missing_spans=missing)
        if missing:
            print(f"bench: traced run recorded no span for {missing}", file=sys.stderr)
        os.makedirs(outdir, exist_ok=True)
        tracer.dump(os.path.join(outdir, f"{label}-spans.tsv.gz"))
    else:
        times, scaled = run["times"], run["scaled"]
        setups = [first_setup] + run["setups"]
        metrics = {
            "setup_s": statistics.median(x[1] for x in setups),
            "op_p50_s": statistics.median(scaled) if scaled else 0.0,
            "work_per_s": (statistics.median(w / t for w, t in zip(run["work"], scaled))
                           if scaled else 0.0),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        results.update(reference_s=REFERENCE_S, probe_interval_s=PROBE_INTERVAL_S,
                       setup_runs_s=[x[0] for x in setups],
                       setup_runs_scaled_s=[x[1] for x in setups],
                       ops=len(times), op_tail_s=tail(scaled), op_times_s=times,
                       op_times_scaled_s=scaled, op_work=run["work"],
                       unscaled={"setup_s": statistics.median(x[0] for x in setups),
                                 "op_p50_s": statistics.median(times) if times else 0.0,
                                 "work_per_s": (statistics.median(
                                     w / t for w, t in zip(run["work"], times)) if times else 0.0)})
    line = {"correct": failed == 0, "attempted": client.attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    results["result"] = line
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, f"{label}.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
