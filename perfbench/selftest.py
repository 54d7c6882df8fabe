"""Self-test of the benchmark itself (about five minutes).

    python3 perfbench/selftest.py

* The tracer wraps every boundary at every module that binds it, leaves
  the command's output unchanged, and its per-layer self times plus the
  unattributed remainder add up to the traced wall.
* Sensitivity: slowing ``repair_assignments`` by 1 ms per call, through
  the benchmark's own wrapper (``run.py --delay``), makes the comparison
  flag ``cold_s`` as worse on ``matrix``, which repairs, and report no
  change on ``stream``, which never calls it.

The file is deliberately not named ``test_*.py``: the repository's test
suite does not collect it.  ``python3 -m pytest perfbench/selftest.py``
runs the same checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SMALL = ["matrix", "--quick", "--trials", "2", "--policy", "timeout-repair",
         "--policy", "policy-auto", "--scenario", "bursty", "--no-cache"]
DELAY = "repro.scheduling.timeout:repair_assignments=0.001"
PAIRS = 4
SECONDS = "15"


def _child(*flags: str) -> dict:
    work_root = run.ROOT / ".perfbench_tmp"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as work:
        out = Path(work) / "record.json"
        subprocess.run(
            [sys.executable, str(run.CHILD), "--out", str(out), *flags, "--", *SMALL],
            cwd=run.ROOT, check=True, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=120,
        )
        return json.loads(out.read_text())


def test_tracer_covers_every_binding_and_reconciles():
    plain, traced = _child(), _child("--trace")
    for name, modules in tracer.KNOWN_SITES.items():
        missing = modules - set(traced["sites"][name])
        assert not missing, f"{name} not wrapped in {sorted(missing)}"
    assert traced["digest"] == plain["digest"], "tracing changed the output"
    layers = traced["layers"]
    attributed = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    total = attributed + layers["trace.unattributed_s"]
    assert abs(total - layers["trace.wall_s"]) <= 0.02 * layers["trace.wall_s"]
    assert layers["scheduling.repair.calls"] > 0
    assert layers["cluster.events.trials"] == 0


def _bench(workload: str, seed: int, delay: str | None) -> dict:
    args = run.parse_args(
        ["--workload", workload, "--seed", str(seed), "--seconds", SECONDS, "--trace", "0"]
        + (["--delay", delay] if delay else [])
    )
    with contextlib.redirect_stdout(io.StringIO()):
        result = run.run(args)
    assert result["correct"], f"{workload} run failed"
    return result


def test_slowed_repair_flags_matrix_only():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parent: dict = {"matrix": [], "stream": []}
    change: dict = {"matrix": [], "stream": []}
    for workload in parent:
        for i in range(PAIRS):
            # Alternate which side runs first, so drift hits both sides.
            order = [(parent, None), (change, DELAY)]
            for side, delay in order if i % 2 == 0 else order[::-1]:
                side[workload].append(_bench(workload, 100 + i, delay))
    verdicts = {(w, m): v for w, m, v in compare.compare(parent, change, spec)}
    assert verdicts[("matrix", "cold_s")] == "worse", verdicts
    assert verdicts[("stream", "cold_s")] == "same", verdicts


if __name__ == "__main__":
    failed = 0
    for name, check in list(globals().items()):
        if name.startswith("test_"):
            try:
                check()
            except AssertionError as error:
                failed += 1
                print(f"FAIL {name}: {error}")
            else:
                print(f"ok   {name}")
    sys.exit(1 if failed else 0)
