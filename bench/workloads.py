"""The three benchmark workloads: their topologies, CLI invocations and checks.

Each workload is a pool of distinct, connected random topologies drawn from
the run's seed, plus the clmat command line one op runs on one topology and
a check of that op's outputs. Why each workload exists is in README.md.
"""

from __future__ import annotations

import json
import math
import os
import re
from collections import deque
from dataclasses import dataclass, field

HARSH_RADIO = "1e-3,1e-6,2,5e-4"
COMPARE_POLICIES = ("clmat", "max-energy", "random", "fixed:n0")
COMPARE_TRIALS = 3
SIM_HORIZON = 1000


@dataclass(frozen=True)
class Spec:
    n: int
    side: float
    radio_range: float
    energy: tuple[float, float]
    pool: int                     # distinct topologies per run


SPECS = {
    "select-sparse": Spec(200, 100.0, 20.0, (2.0, 5.0), 3),
    "simulate-lifetime": Spec(35, 100.0, 30.0, (0.1, 0.15), 48),
    "compare-dense": Spec(20, 100.0, 150.0, (0.1, 0.15), 48),
}


@dataclass
class Topology:
    path: str
    params: dict
    graph: object                 # the generated clmat NetworkGraph
    energies: dict[str, float]
    oracle: dict = field(default_factory=dict)   # root -> summed oracle distance


def _connected(doc: dict) -> bool:
    ids = [n["id"] for n in doc["nodes"]]
    adj: dict[str, list[str]] = {v: [] for v in ids}
    for e in doc["edges"]:
        adj[e["u"]].append(e["v"])
        adj[e["v"]].append(e["u"])
    seen = {ids[0]}
    queue = deque(seen)
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(ids)


def build_pool(topology_mod, spec: Spec, seed: int, workdir: str) -> list[Topology]:
    """Generate, export and write spec.pool connected topologies for this seed.

    Topology k uses generator seed seed * 1_000_003 + attempt; attempts that
    come out disconnected are skipped, so the pool depends on the seed alone.
    """
    pool: list[Topology] = []
    attempt = 0
    while len(pool) < spec.pool:
        topo_seed = seed * 1_000_003 + attempt
        attempt += 1
        graph = topology_mod.random_topology(spec.n, spec.side, spec.radio_range,
                                             spec.energy[0], spec.energy[1], topo_seed)
        text = topology_mod.export_json(graph)
        doc = json.loads(text)
        if not _connected(doc):
            continue
        path = os.path.join(workdir, f"topo{len(pool)}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        params = {"n": spec.n, "side": spec.side, "range": spec.radio_range,
                  "energy_lo": spec.energy[0], "energy_hi": spec.energy[1],
                  "seed": topo_seed, "edges": len(doc["edges"]), "connected": True}
        energies = {rec["id"]: rec["energy"] for rec in doc["nodes"]}
        pool.append(Topology(path, params, graph, energies))
    return pool


def argv_for(workload: str, topo: Topology, workdir: str) -> list[str]:
    if workload == "select-sparse":
        return ["select", topo.path, "--format", "json",
                "-o", os.path.join(workdir, "select.json")]
    if workload == "simulate-lifetime":
        return ["simulate", topo.path, "--policy", "clmat", "--reselect-every", "1",
                "--until", "exhaustion", "--rounds", str(SIM_HORIZON),
                "--radio", HARSH_RADIO,
                "-o", os.path.join(workdir, "rounds.csv"),
                "--trace", os.path.join(workdir, "residuals.csv")]
    return ["compare", topo.path, "--policies", ",".join(COMPARE_POLICIES),
            "--trials", str(COMPARE_TRIALS), "--radio", HARSH_RADIO,
            "-o", os.path.join(workdir, "compare.txt")]


class CheckFailed(Exception):
    pass


def _require(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def check(workload: str, topo: Topology, workdir: str, stderr: str,
          oracle_fn) -> int:
    """Check one op's outputs; return its work count or raise CheckFailed.

    Work is candidate roots scored (select) or simulated rounds (simulate,
    compare). oracle_fn is clmat's independent relaxation SSSP.
    """
    if workload == "select-sparse":
        return _check_select(topo, read_text(os.path.join(workdir, "select.json")), oracle_fn)
    if workload == "simulate-lifetime":
        return _check_simulate(topo, read_text(os.path.join(workdir, "rounds.csv")),
                               read_text(os.path.join(workdir, "residuals.csv")), stderr)
    return _check_compare(read_text(os.path.join(workdir, "compare.txt")))


def _check_select(topo: Topology, text: str, oracle_fn) -> int:
    doc = json.loads(text)
    root = doc["chosen_root"]
    chosen = doc["metrics"]["distance"]
    if root not in topo.oracle:
        topo.oracle[root] = math.fsum(oracle_fn(topo.graph, root).values())
    _require(math.isclose(chosen, topo.oracle[root], rel_tol=1e-9),
             f"chosen root {root} distance {chosen!r} != oracle {topo.oracle[root]!r}")
    ranking = doc["ranking"]
    _require(len(ranking) == len(topo.energies), "ranking does not list every root")
    _require(any(c["root"] == root and c["spanning"] for c in ranking),
             "chosen root is not a spanning candidate")
    smaller = [c["root"] for c in ranking if c["spanning"] and c["distance"] < chosen]
    _require(not smaller, f"spanning candidates beat the chosen root: {smaller[:3]}")
    return len(ranking)


_LIFETIME = re.compile(r"lifetime: (\d+) rounds \(first death: (\d+|none), "
                       r"delivered: (\d+) packets, partitioned: (yes|no)\)")


def _check_simulate(topo: Topology, reports: str, trace: str, stderr: str) -> int:
    rows = [line.split(",") for line in reports.splitlines()[1:]]
    _require(rows, "no round reports")
    drained = math.fsum(float(r[2]) for r in rows)
    final: dict[str, float] = {}
    for line in trace.splitlines()[1:]:
        _, node, residual = line.split(",")
        final[node] = float(residual)
    _require(final.keys() == topo.energies.keys(), "trace does not cover every node")
    spent = math.fsum(topo.energies.values()) - math.fsum(final.values())
    _require(math.isclose(spent, drained, rel_tol=1e-9, abs_tol=1e-12),
             f"ledger: initial - final = {spent!r}, reported drains = {drained!r}")

    m = _LIFETIME.search(stderr)
    _require(m is not None, f"no lifetime line in stderr: {stderr!r}")
    lifetime, first, delivered, partitioned = m.groups()
    deaths = [int(r[0]) for r in rows if r[4]]
    want_first = str(deaths[0]) if deaths else "none"
    _require(first == want_first, f"first death {first} but CSV says {want_first}")
    want_life = deaths[0] if deaths else SIM_HORIZON
    _require(int(lifetime) == want_life, f"lifetime {lifetime} but CSV says {want_life}")
    alive_before = [len(topo.energies)] + [int(r[3]) for r in rows[:-1]]
    _require(int(delivered) == sum(alive_before),
             f"delivered {delivered} but CSV says {sum(alive_before)}")
    _require((partitioned == "yes") == (len(rows) < SIM_HORIZON),
             f"partitioned={partitioned} after {len(rows)} rounds")
    return len(rows)


def _check_compare(text: str) -> int:
    lines = text.splitlines()
    _require(lines and lines[0].split() == ["policy", "lifetime_rounds"],
             f"bad compare header: {lines[:1]}")
    rows = [line.split() for line in lines[1:]]
    _require([r[0] for r in rows] == list(COMPARE_POLICIES),
             f"compare rows {[r[0] for r in rows]} != {list(COMPARE_POLICIES)}")
    # Every policy stops at its first death, so its lifetime is the rounds it
    # ran; the random row averages COMPARE_TRIALS runs.
    return round(sum(float(life) * (COMPARE_TRIALS if name == "random" else 1)
                     for name, life in rows))
