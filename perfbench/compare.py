"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds ``<workload>.jsonl``: the result lines ``run.py``
printed last, one per run, in the order the runs were made (parent and
change runs alternate, so run ``i`` of each side forms a pair).  Every
end-to-end metric of ``BENCHMARK.json`` gets one verdict per workload:

* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
* ``better``: the change wins at least nine tenths of the pairs and the
  medians differ by more than the parent's own quartile spread;
* ``unresolved``: the parent's spread is wider than the bound and not
  every change run beats every parent run;
* ``same``: none of these.

A ``failed`` row per workload reads ``worse`` when the change's runs
failed more invocations than the parent's.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (0 below 2 runs)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(parent: list[float], change: list[float], bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(parent)
    worse_by = sign * (statistics.median(change) - base) / base
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    if spread(parent) > bound:
        if max(sign * c for c in change) < min(sign * p for p in parent):
            return "better"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if wins >= 0.9 * min(len(parent), len(change)) and -worse_by > spread(parent):
        return "better"
    return "same"


def compare(parent: dict, change: dict, spec: dict) -> list[tuple[str, str, str]]:
    """``(workload, metric, verdict)`` rows; inputs map workload -> results."""
    rows = []
    for workload in sorted(parent):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [
                [r["metrics"][name]["value"] for r in side[workload]]
                for side in (parent, change)
            ]
            rows.append(
                (workload, name, verdict(*values, metric["bound"], metric["better"]))
            )
        failed = [sum(r["failed"] for r in side[workload]) for side in (parent, change)]
        rows.append((workload, "failed", "worse" if failed[1] > failed[0] else "same"))
    return rows


def load(directory: Path) -> dict:
    return {
        path.stem: [json.loads(line) for line in path.read_text().splitlines() if line]
        for path in sorted(directory.glob("*.jsonl"))
    }


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load(Path(argv[0])), load(Path(argv[1])), spec)
    for workload, name, result in rows:
        print(f"{workload:8s} {name:14s} {result}")
    return 1 if any(result == "worse" for *_rest, result in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
