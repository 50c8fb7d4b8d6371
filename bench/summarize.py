"""Median and quartiles of each metric over a set of bench/run.py results files.

    python3 bench/summarize.py bench/out/*-trace0.json > summary.json

Groups the files by workload; for each metric prints the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread, the
quartile distance as a share of the median.
"""

from __future__ import annotations

import json
import statistics
import sys


def summarize(paths: list[str]) -> dict:
    by_workload: dict[str, list[dict]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            run = json.load(fh)
        by_workload.setdefault(run["workload"], []).append(run)
    out: dict = {}
    for workload, runs in sorted(by_workload.items()):
        first = runs[0]
        entry = {"runs": len(runs), "seeds": sorted(r["seed"] for r in runs),
                 "seconds": first["seconds"], "git_commit": first["git_commit"],
                 "src_sha256": first["src_sha256"], "python": first["python"],
                 "nproc": first["nproc"], "failed": sum(r["failed"] for r in runs),
                 "metrics": {}}
        for name, metric in first["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            row = {"unit": metric["unit"], "median": median}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                row.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
            entry["metrics"][name] = row
        out[workload] = entry
    return out


if __name__ == "__main__":
    json.dump(summarize(sys.argv[1:]), sys.stdout, indent=2)
    sys.stdout.write("\n")
