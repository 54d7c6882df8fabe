"""The bench regression gate's short-trajectory and regression contracts.

``scripts/bench_gate.py`` compares the newest ``BENCH_SWEEP.json`` row
against the median of every earlier row.  With fewer than three rows the
median of "every earlier row" is a single run — pure machine-load noise —
so the gate must pass trivially (with a logged notice), and only start
gating once a real trajectory exists.
"""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "bench_gate", REPO_ROOT / "scripts" / "bench_gate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _row(seconds: float) -> dict:
    return {"cpus": 1, "matrix": {"closed": seconds}}


def _write(tmp_path, rows) -> Path:
    path = tmp_path / "BENCH_SWEEP.json"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return path


def test_missing_file_passes(tmp_path, capsys):
    gate = _load_gate()
    assert gate.main(["--json", str(tmp_path / "absent.json")]) == 0
    assert "nothing to gate" in capsys.readouterr().out


def test_zero_one_and_two_rows_pass_with_notice(tmp_path, capsys):
    gate = _load_gate()
    for rows in ([], [_row(1.0)], [_row(1.0), _row(50.0)]):
        path = _write(tmp_path, rows)
        assert gate.main(["--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"{len(rows)} row(s)" in out
        assert "need at least 3" in out


def test_three_steady_rows_pass(tmp_path, capsys):
    gate = _load_gate()
    path = _write(tmp_path, [_row(1.0), _row(1.1), _row(1.05)])
    assert gate.main(["--json", str(path)]) == 0
    assert "bench gate OK" in capsys.readouterr().out


def test_three_rows_with_regression_fail(tmp_path, capsys):
    gate = _load_gate()
    path = _write(tmp_path, [_row(1.0), _row(1.1), _row(5.0)])
    assert gate.main(["--json", str(path)]) == 1
    captured = capsys.readouterr()
    assert "REGRESSION" in captured.out
    assert "matrix.closed" in captured.err


def test_first_appearance_metric_passes_with_notice(tmp_path, capsys):
    # A key that exists only in the newest row — e.g. `events.batch` the
    # first time the batched-event-kernel bench lands — has no history to
    # gate against, so it must pass with a logged notice while the
    # historical metrics keep gating.
    gate = _load_gate()
    rows = [
        _row(1.0),
        _row(1.1),
        {"cpus": 1, "matrix": {"closed": 1.05}, "events": {"batch": 0.01}},
    ]
    assert gate.main(["--json", str(_write(tmp_path, rows))]) == 0
    out = capsys.readouterr().out
    assert "events.batch" in out
    assert "no history, skipped" in out


def test_first_appearance_does_not_mask_a_regression_elsewhere(tmp_path):
    gate = _load_gate()
    rows = [
        _row(1.0),
        _row(1.1),
        {"cpus": 1, "matrix": {"closed": 9.0}, "events": {"batch": 0.01}},
    ]
    assert gate.main(["--json", str(_write(tmp_path, rows))]) == 1


def test_registry_growth_is_not_a_regression(tmp_path, capsys):
    # The matrix bench sweeps the whole policy × scenario registry, which
    # grows as PRs register new entries.  A section recording a `cells`
    # count is gated per cell, so 25% more cells at the same per-cell
    # cost must pass.
    gate = _load_gate()
    rows = [
        {"cpus": 1, "matrix": {"closed": 2.0, "cells": 100}},
        {"cpus": 1, "matrix": {"closed": 2.1, "cells": 100}},
        {"cpus": 1, "matrix": {"closed": 3.0, "cells": 150}},
    ]
    assert gate.main(["--json", str(_write(tmp_path, rows))]) == 0
    assert "bench gate OK" in capsys.readouterr().out


def test_per_cell_regression_still_fails(tmp_path, capsys):
    gate = _load_gate()
    rows = [
        {"cpus": 1, "matrix": {"closed": 2.0, "cells": 100}},
        {"cpus": 1, "matrix": {"closed": 2.1, "cells": 100}},
        {"cpus": 1, "matrix": {"closed": 4.0, "cells": 100}},
    ]
    assert gate.main(["--json", str(_write(tmp_path, rows))]) == 1
    assert "matrix.closed" in capsys.readouterr().err


def test_two_row_pass_is_not_a_silent_skip_of_real_regressions(tmp_path):
    # The <3 short-circuit must not swallow a genuine 3-row regression:
    # appending one more row to a passing 2-row trajectory arms the gate.
    gate = _load_gate()
    path = _write(tmp_path, [_row(1.0), _row(9.0)])
    assert gate.main(["--json", str(path)]) == 0
    path = _write(tmp_path, [_row(1.0), _row(1.0), _row(9.0)])
    assert gate.main(["--json", str(path)]) == 1


def _newest_recorded_row() -> dict:
    rows = _load_gate().load_rows(REPO_ROOT / "BENCH_SWEEP.json")
    assert rows, "BENCH_SWEEP.json holds the recorded trajectory"
    return rows[-1]


def test_more_cpus_is_not_a_serial_regression():
    # Re-gating a copy of the newest recorded row with only `cpus: 2`
    # changed used to flag every timing (fig06.serial, predictor.loop,
    # …) as ~2x slower: single-process timings were scaled by cpus too.
    gate = _load_gate()
    newest = _newest_recorded_row()
    doubled = dict(newest, cpus=2)
    _, regressions = gate.gate([newest, newest, doubled], threshold=0.25)
    flagged = {line.split(":")[0] for line in regressions}
    serial = {
        f"{section}.{name}"
        for section, name in gate.timing_metrics(newest)
        if (section, name) not in gate.POOLED
    }
    assert serial, "the recorded row has serial timings"
    assert not flagged & serial
    # Pooled timings are still compared in core-seconds.
    assert flagged == {
        f"{section}.{name}"
        for section, name in gate.timing_metrics(newest)
        if (section, name) in gate.POOLED
    }


def test_serial_slowdown_still_fails_at_equal_cpus():
    gate = _load_gate()
    newest = _newest_recorded_row()
    slower = json.loads(json.dumps(newest))
    slower["fig06"]["serial"] *= 2.0
    _, regressions = gate.gate([newest, newest, slower], threshold=0.25)
    assert [line.split(":")[0] for line in regressions] == ["fig06.serial"]


def test_serial_slowdown_fails_despite_more_cpus(tmp_path, capsys):
    # A 2x slower serial metric is not excused by the run having 2 cpus.
    gate = _load_gate()
    rows = [
        {"cpus": 1, "predictor": {"loop": 1.0}, "fig06": {"sweep": 1.0}},
        {"cpus": 1, "predictor": {"loop": 1.05}, "fig06": {"sweep": 1.0}},
        {"cpus": 2, "predictor": {"loop": 2.0}, "fig06": {"sweep": 0.5}},
    ]
    assert gate.main(["--json", str(_write(tmp_path, rows))]) == 1
    err = capsys.readouterr().err
    assert "predictor.loop" in err
    assert "fig06.sweep" not in err  # 0.5 s × 2 cpus = the same core-seconds
