"""Benchmark of the ``repro`` CLI: cold, warm and set-up time per workload.

    python3 perfbench/run.py --workload {paper,matrix,stream} --seed S
        --seconds N --trace {0,1}

Run from the root of a checkout.  Every invocation is a fresh interpreter
at ``--jobs 1`` against a private run store under ``.perfbench_tmp/``,
with BLAS/OpenMP pinned to one thread.  ``--trace 0`` repeats (cold, warm
x3) rounds for ``--seconds`` and reports the end-to-end timings;
``--trace 1`` pairs an untraced with a traced cold run, then a traced warm
run, and reports the per-layer trace.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

#: The CLI command of each workload; ``--seed``, ``--jobs 1`` and the
#: private ``--cache-dir`` are appended per invocation.
WORKLOADS = {
    # The README's main workflow: all 16 figures, forecaster training,
    # scalar sessions, 16 small sweeps.
    "paper": ["experiments", "--quick"],
    # The docs/results.md grid: 150 policy x scenario cells dominated by
    # S2C2 planning, repair and policy-auto probing.
    "matrix": ["matrix", "--quick", "--trials", "16", "--summary-only"],
    # One fat cell in 625 shards on the batched event kernel: scenario
    # draws, the quantile fold and store appends; no repair or training.
    "stream": [
        "stream", "--quick", "--backend", "event", "--policy", "mds",
        "--scenario", "netslow", "--reducer", "quantile", "--trials", "20000",
    ],
}

WARM_REPS = 3
CHILD_TIMEOUT_S = 120
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Per-layer expectations checked on the traced run: counts and times the
#: layer map predicts are non-zero, and counts it predicts are zero.
EXPECT = {
    "paper": {
        "nonzero": (
            "prediction.fit.calls", "prediction.fit.self_s",
            "runtime.session.self_s", "scheduling.repair.calls",
            "cluster.closed.trials", "engine.digest.self_s",
            "experiments.render.self_s", "warm.engine.store.records_read",
        ),
        "zero": ("cluster.events.trials",),
    },
    "matrix": {
        "nonzero": (
            "scheduling.plan.rows", "scheduling.repair.calls",
            "scheduling.adaptive.self_s", "scheduling.auto.commit_s",
            "cluster.closed.trials", "cluster.replication.self_s",
            "cluster.overdecomp.self_s", "prediction.forecast.calls",
            "warm.engine.store.records_read",
        ),
        "zero": ("cluster.events.trials",),
    },
    "stream": {
        "nonzero": (
            "engine.plan.shards", "engine.store.appends", "engine.fold.self_s",
            "cluster.events.trials", "cluster.draw.self_s",
            "runtime.metrics.self_s", "warm.engine.store.records_read",
        ),
        "zero": (
            "scheduling.repair.calls", "prediction.fit.calls",
            "cluster.closed.trials", "cluster.events.replay_ratio",
        ),
    },
}

#: Layer metrics also reported for the traced warm run: the boundaries the
#: layer map ties to ``warm_s``.
WARM_LAYER_METRICS = (
    "engine.digest.self_s",
    "engine.store.read.self_s",
    "engine.store.records_read",
    "engine.run.self_s",
    "experiments.self_s",
    "experiments.render.self_s",
    "trace.unattributed_s",
    "trace.wall_s",
)

#: Share of the traced wall by which the per-layer self times plus the
#: unattributed remainder may miss it.
RECONCILE_TOLERANCE = 0.02


class Session:
    """The invocations of one benchmark run and their failures."""

    def __init__(self, workload: str, seed: int, work: Path, delay: str | None):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.delay = delay
        self.attempted = 0
        self.failed: set[int] = set()
        self.reference = json.loads((HERE / "reference.json").read_text())

    def fail(self, reason: str, record: dict | None = None) -> None:
        """Count the invocation (``record``, else the latest) as failed."""
        self.failed.add(record["id"] if record else self.attempted)
        print(f"FAIL {self.workload} seed={self.seed}: {reason}", file=sys.stderr)

    def cli(self, store: Path) -> list[str]:
        return [
            *WORKLOADS[self.workload],
            "--seed", str(self.seed), "--jobs", "1", "--cache-dir", str(store),
        ]

    def invoke(self, store: Path, *flags: str, count: bool = True) -> dict | None:
        """Run one fresh child; ``None`` (and a failure) if it did not succeed."""
        out = Path(tempfile.mkstemp(suffix=".json", dir=self.work)[1])
        env = {k: v for k, v in os.environ.items() if k != "REPRO_CACHE_DIR"}
        env.update({name: "1" for name in THREAD_VARS})
        cmd = [sys.executable, str(CHILD), "--out", str(out), *flags]
        if self.delay and "--setup-only" not in flags:
            cmd += ["--delay", self.delay]
        cmd += ["--", *self.cli(store)]
        if count:
            self.attempted += 1
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.fail(f"timed out after {CHILD_TIMEOUT_S}s: {' '.join(cmd)}")
            return None
        if proc.returncode != 0:
            self.fail(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return None
        record = json.loads(out.read_text())
        out.unlink()
        record["id"] = self.attempted
        record["setup_s"] = record["t_ready"] - spawned
        record["interpreter_s"] = record["t_start"] - spawned
        return record

    def check_output(self, record: dict) -> None:
        """Correctness checks on one invocation's stdout."""
        text = record["stdout"]
        if not text.strip():
            self.fail("empty stdout", record)
        elif self.workload == "stream":
            try:
                json.loads(text)
            except json.JSONDecodeError:
                self.fail("stream stdout is not JSON", record)
        if self.seed == self.reference["seed"]:
            expected = self.reference["digests"][self.workload]
            if record["digest"] != expected:
                self.fail(f"digest {record['digest']} != reference {expected}", record)

    def cold_warm(self, trace: bool, warm_reps: int) -> tuple[dict, list, Path] | None:
        """One cold run against a new store, then ``warm_reps`` warm runs."""
        store = Path(tempfile.mkdtemp(dir=self.work))
        flags = ("--trace",) if trace else ()
        cold = self.invoke(store, *flags)
        if cold is None:
            return None
        self.check_output(cold)
        warms = []
        for _ in range(warm_reps):
            warm = self.invoke(store, *flags)
            if warm is None:
                continue
            if warm["digest"] != cold["digest"]:
                self.fail("warm stdout differs from cold", warm)
            elif hit_ratio(warm) < 1:
                self.fail(f"warm run recomputed: hit ratio {hit_ratio(warm)}", warm)
            else:
                warms.append(warm)
        return cold, warms, store


def hit_ratio(record: dict) -> float:
    total = record["shards_total"]
    return record["shard_hits"] / total if total else 0.0


def store_bytes(store: Path) -> int:
    """Bytes the run store's append-only logs hold."""
    return sum(p.stat().st_size for p in store.rglob("*.jsonl"))


def end_to_end(session: Session, deadline: float) -> tuple[dict, dict | None]:
    """Rounds of (cold, warm x WARM_REPS) until the deadline.

    ``warm_s`` is a mean, the other timings are medians: warm dispatch
    times on a shared host fall into two modes about 30 % apart, and the
    median of a run's warm samples jumps between them while the mean moves
    with their mix.
    """
    colds, warms = [], []
    while True:
        started = time.monotonic()
        rep = session.cold_warm(trace=False, warm_reps=WARM_REPS)
        if rep is not None:
            colds.append(rep[0])
            warms.extend(rep[1])
            shutil.rmtree(rep[2], ignore_errors=True)
        elif not colds:
            break
        if time.monotonic() + (time.monotonic() - started) > deadline:
            break
    processes = colds + warms
    warm_walls = [r["wall_s"] for r in warms]
    return {
        "cold_s": (median(r["wall_s"] for r in colds), "s"),
        "warm_s": (statistics.fmean(warm_walls) if warm_walls else 0.0, "s"),
        "setup_s": (median(r["setup_s"] for r in processes), "s"),
        "peak_rss_mb": (median(r["rss_kb"] / 1024 for r in colds), "MB"),
    }, (colds or [None])[0]


def per_layer(session: Session, deadline: float) -> tuple[dict, dict | None]:
    """(untraced cold, traced cold) pairs until the deadline, one traced warm."""
    pairs = []
    while True:
        started = time.monotonic()
        plain_store = Path(tempfile.mkdtemp(dir=session.work))
        plain = session.invoke(plain_store)
        shutil.rmtree(plain_store, ignore_errors=True)
        rep = session.cold_warm(trace=True, warm_reps=0 if pairs else 1)
        if plain is None or rep is None:
            break
        traced, warms, store = rep
        session.check_output(plain)
        if traced["digest"] != plain["digest"]:
            session.fail("tracing changed the output", traced)
        check_reconciles(session, traced)
        traced["layers"]["engine.store.bytes"] = store_bytes(store)
        shutil.rmtree(store, ignore_errors=True)
        if not pairs:
            if not warms:
                break
            warm = warms[0]
            check_reconciles(session, warm)
        pairs.append((plain, traced))
        if time.monotonic() + (time.monotonic() - started) > deadline:
            break
    if not pairs:
        return {}, None
    metrics: dict[str, tuple[float, str]] = {}
    for name in pairs[0][1]["layers"]:
        metrics[name] = (median(t["layers"][name] for _p, t in pairs), unit_of(name))
    for name in WARM_LAYER_METRICS:
        metrics[f"warm.{name}"] = (warm["layers"][name], unit_of(name))
    metrics["engine.hit_ratio.cold"] = (median(hit_ratio(t) for _p, t in pairs), "ratio")
    metrics["engine.hit_ratio.warm"] = (hit_ratio(warm), "ratio")
    metrics["trace.overhead_frac"] = (
        median(t["wall_s"] / p["wall_s"] - 1 for p, t in pairs),
        "ratio",
    )
    metrics["setup.interpreter_s"] = (median(p["interpreter_s"] for p, _t in pairs), "s")
    for package in pairs[0][0]["imports"]:
        metrics[f"setup.import.{package}_s"] = (
            median(p["imports"][package] for p, _t in pairs),
            "s",
        )
    metrics["setup.parse_s"] = (median(p["parse_s"] for p, _t in pairs), "s")
    values = {name: value for name, (value, _unit) in metrics.items()}
    for name in EXPECT[session.workload]["nonzero"]:
        if not values[name]:
            session.fail(f"{name} is 0 but the layer map predicts work", traced)
    for name in EXPECT[session.workload]["zero"]:
        if values[name]:
            session.fail(f"{name} is {values[name]} but the layer map predicts 0", traced)
    return metrics, pairs[0][0]


def check_reconciles(session: Session, record: dict) -> None:
    """Self times plus the unattributed remainder must add up to the wall."""
    layers = record["layers"]
    attributed = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    wall = layers["trace.wall_s"]
    if abs(attributed + layers["trace.unattributed_s"] - wall) > RECONCILE_TOLERANCE * wall:
        session.fail("layer self times do not add up to the traced wall", record)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    return "count"


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def environment(session: Session, sample: dict | None) -> dict:
    """What a result row was measured on: code, host and seed."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.read_bytes())
    return {
        "workload": session.workload,
        "seed": session.seed,
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        **((sample or {}).get("versions") or {}),
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--delay",
        metavar="MODULE:QUALNAME=SECONDS",
        help="sleep before every call of one boundary (sensitivity self-test)",
    )
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> dict:
    """One benchmark run; returns the result object."""
    work_root = ROOT / ".perfbench_tmp"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    session = Session(args.workload, args.seed, work, args.delay)
    try:
        deadline = time.monotonic() + args.seconds
        # Compile bytecode and warm the file cache; users do not pay this
        # on every run.
        session.invoke(work / "warmup", "--setup-only", count=False)
        measure = per_layer if args.trace else end_to_end
        metrics, sample = measure(session, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    print("# " + json.dumps(environment(session, sample), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8s} {name:40s} {value:14.6g} {unit}")
    return {
        "correct": not session.failed and bool(metrics),
        "attempted": max(session.attempted, 1),
        "failed": len(session.failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__main__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
