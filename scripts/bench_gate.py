"""Perf regression gate over the BENCH_SWEEP.json trajectory.

Usage:  python scripts/bench_gate.py [--json PATH] [--threshold FRACTION]

Reads the JSONL benchmark trajectory that ``scripts/bench_sweep.py
--append-json`` grows (one row per ``smoke.sh bench`` run) and compares
the **newest** row against the **median of every earlier row**, metric by
metric: each benchmark section (``fig06``, ``matrix``, ``engine``, …) is
a dict whose float entries are wall-clock seconds.  A metric regresses
when the newest normalised time exceeds the historical median by more
than ``--threshold`` (default 0.25, i.e. 25 %); any regression exits 1
listing every offender, so ``smoke.sh bench`` fails instead of silently
recording a slowdown.

Normalisation: rows record the ``cpus`` the run had (``os.cpu_count()``).
Only the benches that fan work out over a process pool scale with it —
the explicit :data:`POOLED` ``(section, metric)`` keys — so only those
are compared in core-seconds (``seconds × cpus``); every other timing
(serial sessions, single-process kernels, warm cache reads) is compared
in wall seconds, because more cores do not make it faster and scaling it
would report a false regression whenever ``cpus`` grows.  A section
that records an integer ``cells`` workload count (the ``matrix`` bench
sweeps the whole policy × scenario registry, which grows as PRs register
new entries) is further normalised **per cell**, so a structurally
larger registry is not mistaken for a slowdown.  Early trajectory rows predate the
``cpus`` / ``executor`` fields — they count as ``cpus = 1`` — and rows
may lack whole sections (the ``--matrix`` / ``--engine`` / ``--events``
benches were added over time); a metric is gated only against the rows
that actually recorded it, and gated at all only when at least one
earlier row did.  Fewer than three rows passes trivially (with a logged
notice): a median over a single earlier row is just that row, so there
is no trajectory to regress against yet.

The median — not the previous row — is the reference, so one lucky or
unlucky run does not move the gate, and the threshold absorbs normal
machine-load jitter on top.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Section entries that are floats but not wall-clock seconds.
NOT_SECONDS = {"repaired_fraction"}

#: Timings that ``scripts/bench_sweep.py`` takes over a ``--jobs`` /
#: ``--engine-jobs`` process pool; only these are normalised by ``cpus``.
POOLED = {
    ("fig06", "sweep"),
    ("fig13", "sweep"),
    ("matrix", "cold"),
    ("engine", "cell_granular"),
    ("engine", "sharded"),
    ("events", "matrix_closed"),
    ("events", "matrix_event"),
}


def load_rows(path: Path) -> list[dict]:
    """Parse the JSONL trajectory; unparseable lines are skipped."""
    rows = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(row, dict):
            rows.append(row)
    return rows


def row_cpus(row: dict) -> int:
    """The CPU count a row was recorded at; pre-``cpus`` rows count as 1."""
    cpus = row.get("cpus", 1)
    if not isinstance(cpus, int) or cpus < 1:
        return 1
    return cpus


def timing_metrics(row: dict) -> dict[tuple[str, str], float]:
    """Normalised seconds per ``(section, metric)`` of one row.

    Sections are the dict-valued top-level entries; within one, every
    float (but not bool/int — those are counts, and not
    :data:`NOT_SECONDS`) is a wall-clock timing.  :data:`POOLED` timings
    are multiplied by the row's ``cpus`` (core-seconds); the rest stay
    wall seconds.  A section recording an integer ``cells`` workload
    count has its timings divided by it, so the metric tracks per-cell
    cost rather than registry size.
    """
    cpus = row_cpus(row)
    metrics = {}
    for section, body in row.items():
        if not isinstance(body, dict):
            continue
        cells = body.get("cells")
        per_cell = (
            isinstance(cells, int) and not isinstance(cells, bool) and cells > 0
        )
        divisor = cells if per_cell else 1
        for name, value in body.items():
            if name in NOT_SECONDS:
                continue
            if isinstance(value, float) and not isinstance(value, bool):
                scale = cpus if (section, name) in POOLED else 1
                metrics[(section, name)] = value * scale / divisor
    return metrics


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def gate(rows: list[dict], threshold: float) -> tuple[list[str], list[str]]:
    """Return ``(report_lines, regressions)`` for the newest row."""
    newest = timing_metrics(rows[-1])
    history: dict[tuple[str, str], list[float]] = {}
    for row in rows[:-1]:
        for key, value in timing_metrics(row).items():
            history.setdefault(key, []).append(value)
    report, regressions = [], []
    for key in sorted(newest):
        section, name = key
        label = f"{section}.{name}"
        past = history.get(key)
        if not past:
            report.append(f"  {label:28s} {newest[key]:8.3f}s  (no history, skipped)")
            continue
        reference = median(past)
        ratio = newest[key] / reference if reference > 0 else float("inf")
        status = "ok"
        if ratio > 1.0 + threshold:
            status = f"REGRESSION (> {1.0 + threshold:.2f}x)"
            regressions.append(
                f"{label}: {newest[key]:.3f}s vs median {reference:.3f}s "
                f"over {len(past)} row(s) = {ratio:.2f}x"
            )
        report.append(
            f"  {label:28s} {newest[key]:8.3f}s  median {reference:8.3f}s  "
            f"{ratio:5.2f}x  {status}"
        )
    return report, regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when the newest BENCH_SWEEP.json row regresses "
        "against the trajectory median"
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=REPO_ROOT / "BENCH_SWEEP.json",
        metavar="PATH",
        help="JSONL benchmark trajectory (default: BENCH_SWEEP.json)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        metavar="FRACTION",
        help="allowed slowdown over the historical median before failing "
        "(default: 0.25 = 25%%)",
    )
    args = parser.parse_args(argv)
    if args.threshold < 0:
        parser.error(f"--threshold must be >= 0, got {args.threshold}")
    if not args.json.exists():
        print(f"bench gate: {args.json} not found; nothing to gate")
        return 0
    rows = load_rows(args.json)
    if len(rows) < 3:
        print(
            f"bench gate: {len(rows)} row(s) in {args.json.name}; "
            "need at least 3 for a median trajectory — pass"
        )
        return 0
    report, regressions = gate(rows, args.threshold)
    print(
        f"bench gate: newest of {len(rows)} rows vs trajectory median "
        f"(threshold {args.threshold:.0%}, pooled times in core-seconds, "
        "the rest in wall seconds, per cell where the section records a "
        "cell count)"
    )
    for line in report:
        print(line)
    if regressions:
        print(f"{len(regressions)} regression(s):", file=sys.stderr)
        for item in regressions:
            print(f"  {item}", file=sys.stderr)
        return 1
    print("bench gate OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
