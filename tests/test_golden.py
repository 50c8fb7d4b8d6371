"""Byte-level regression gate: CLI outputs must match files recorded earlier.

Each case generates a small topology with `clmat gen` and runs `select
--format json`, `simulate --trace` and `compare` on it. The recorded files
live in tests/golden/. After a deliberate output change, re-record with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
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
        rounds, lifetime = _invoke(["simulate", topo, "--radio", RADIO, "--until", "exhaustion",
                                    "--trace", trace])
        compare, _ = _invoke(["compare", topo, "--radio", RADIO, "--trials", "3",
                              "--policies", "clmat,max-energy,random,fixed:n0"])
        return {
            "topo.json": Path(topo).read_text(encoding="utf-8"),
            "select.json": select,
            "simulate.csv": rounds,
            "simulate.stderr": lifetime,
            "trace.csv": Path(trace).read_text(encoding="utf-8"),
            "compare.txt": compare,
        }


@pytest.mark.parametrize("seed", SEEDS)
def test_cli_outputs_match_golden(seed):
    recorded = GOLDEN / f"seed{seed}"
    for name, text in outputs(seed).items():
        assert text == (recorded / name).read_text(encoding="utf-8"), name


if __name__ == "__main__":
    for seed in SEEDS:
        target = GOLDEN / f"seed{seed}"
        target.mkdir(parents=True, exist_ok=True)
        for name, text in outputs(seed).items():
            (target / name).write_text(text, encoding="utf-8")
    sys.exit(0)
