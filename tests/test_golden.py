"""Byte-level regression gate: CLI outputs must match files recorded earlier.

Each case generates a small topology with `clmat gen` and runs `trees` and
`select` in every output format, `simulate --trace` and `compare` on it. A
further case generates a topology that no root spans (an isolated node, a
4-node and a 9-node component) and records the `trees` rows of its partial
trees. The recorded files live in tests/golden/. After a deliberate output
change, re-record with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import functools
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from clmat.cli import main

GOLDEN = Path(__file__).parent / "golden"
SEEDS = (1, 2, 5)
RADIO = "1e-3,1e-6,2,5e-4"


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, (argv, err.getvalue())
    return out.getvalue(), err.getvalue()


def outputs(seed: int) -> dict[str, str]:
    """Every recorded output of one case, keyed by golden file name."""
    with tempfile.TemporaryDirectory() as tmp:
        topo = os.path.join(tmp, "topo.json")
        trace = os.path.join(tmp, "trace.csv")
        _invoke(["gen", "--nodes", "14", "--side", "100", "--range", "40",
                 "--energy-lo", "0.1", "--energy-hi", "0.15", "--seed", str(seed),
                 "-o", topo])
        select, _ = _invoke(["select", topo, "--format", "json"])
        trees = {fmt: _invoke(["trees", topo, "--format", fmt])[0]
                 for fmt in ("table", "csv", "json")}
        residual, _ = _invoke(["trees", topo, "--format", "json", "--radio", RADIO])
        select_table, _ = _invoke(["select", topo])
        select_dot, _ = _invoke(["select", topo, "--format", "dot"])
        first_min, _ = _invoke(["select", topo, "--tie", "first-min", "--format", "json"])
        rounds, lifetime = _invoke(["simulate", topo, "--radio", RADIO, "--until", "exhaustion",
                                    "--trace", trace])
        compare, _ = _invoke(["compare", topo, "--radio", RADIO, "--trials", "3",
                              "--policies", "clmat,max-energy,random,fixed:n0"])
        return {
            "topo.json": Path(topo).read_text(encoding="utf-8"),
            "select.json": select,
            "trees.txt": trees["table"],
            "trees.csv": trees["csv"],
            "trees.json": trees["json"],
            "trees-residual.json": residual,
            "select.txt": select_table,
            "select.dot": select_dot,
            "select-first-min.json": first_min,
            "simulate.csv": rounds,
            "simulate.stderr": lifetime,
            "trace.csv": Path(trace).read_text(encoding="utf-8"),
            "compare.txt": compare,
        }


def partial_outputs() -> dict[str, str]:
    """trees rows on a topology that no root spans, under the default radio and RADIO."""
    with tempfile.TemporaryDirectory() as tmp:
        topo = os.path.join(tmp, "topo.json")
        _invoke(["gen", "--nodes", "14", "--side", "100", "--range", "30",
                 "--energy-lo", "0.1", "--energy-hi", "0.15", "--seed", "19", "-o", topo])
        trees, _ = _invoke(["trees", topo, "--format", "json"])
        residual, _ = _invoke(["trees", topo, "--format", "json", "--radio", RADIO])
        return {
            "topo.json": Path(topo).read_text(encoding="utf-8"),
            "trees.json": trees,
            "trees-residual.json": residual,
        }


@pytest.mark.parametrize("seed", SEEDS)
def test_cli_outputs_match_golden(seed):
    recorded = GOLDEN / f"seed{seed}"
    for name, text in outputs(seed).items():
        assert text == (recorded / name).read_text(encoding="utf-8"), name


def test_partial_tree_outputs_match_golden():
    recorded = GOLDEN / "partial"
    for name, text in partial_outputs().items():
        assert text == (recorded / name).read_text(encoding="utf-8"), name


def test_partial_case_has_no_spanning_root_and_an_isolated_node():
    rows = json.loads((GOLDEN / "partial" / "trees.json").read_text(encoding="utf-8"))
    rows = rows["candidates"]
    assert not any(row["spanning"] for row in rows)
    isolated = [row for row in rows if row["distance"] == 0.0]
    assert len(isolated) == 1 and isolated[0]["energy"] is None
    assert {row["depth"] for row in rows} > {0}


if __name__ == "__main__":
    cases = {f"seed{seed}": functools.partial(outputs, seed) for seed in SEEDS}
    cases["partial"] = partial_outputs
    for case, record in cases.items():
        target = GOLDEN / case
        target.mkdir(parents=True, exist_ok=True)
        for name, text in record().items():
            (target / name).write_text(text, encoding="utf-8")
    sys.exit(0)
