"""One benchmark invocation of the ``repro`` CLI, in a fresh interpreter.

    python3 perfbench/child.py --out RESULT.json [--trace] [--setup-only]
        [--delay MODULE:QUALNAME=SECONDS] -- CLI-ARGS...

Imports the ``repro`` layer packages, parses the CLI arguments (the end of
set-up), then dispatches the command with its stdout captured and writes
the timings, the stdout digest and, with ``--trace``, the per-layer trace
to ``RESULT.json``.  Exits with the command's exit code.
"""

import time

T_START = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402

#: Layer packages in dependency order.  ``repro.prediction`` and
#: ``repro.cluster`` import each other, so whichever comes first pays for
#: both; ``prediction`` goes first because scipy is its dependency.
IMPORT_ORDER = (
    ("repro", "repro"),
    ("scheduling", "repro.scheduling"),
    ("prediction", "repro.prediction"),
    ("cluster", "repro.cluster"),
    ("runtime", "repro.runtime"),
    ("engine", "repro.engine"),
    ("apps", "repro.apps"),
    ("experiments", "repro.experiments"),
    ("cli", "repro.__main__"),
)


def _options(argv: list[str]) -> tuple[dict, list[str]]:
    split = argv.index("--")
    own, cli = argv[:split], argv[split + 1 :]
    opts = {"out": None, "trace": False, "setup_only": False, "delay": None}
    i = 0
    while i < len(own):
        flag = own[i]
        if flag in ("--out", "--delay"):
            opts[flag[2:]] = own[i + 1]
            i += 2
        elif flag in ("--trace", "--setup-only"):
            opts[flag[2:].replace("-", "_")] = True
            i += 1
        else:
            raise SystemExit(f"child.py: unknown option {flag}")
    if opts["out"] is None:
        raise SystemExit("child.py: --out is required")
    return opts, cli


def main() -> int:
    opts, cli = _options(sys.argv[1:])
    record: dict = {"t_start": T_START, "imports": {}}
    for label, module in IMPORT_ORDER:
        start = time.monotonic()
        importlib.import_module(module)
        record["imports"][label] = time.monotonic() - start
    from repro.__main__ import build_parser
    from repro.__main__ import main as dispatch

    start = time.monotonic()
    build_parser().parse_args(cli)
    record["t_ready"] = time.monotonic()
    record["parse_s"] = record["t_ready"] - start
    code = 0
    if not opts["setup_only"]:
        tracer = tracing.Tracer()
        if opts["trace"]:
            tracing.install(tracer)
        else:
            tracing.install(tracer, (tracing.ENGINE_RUN,), experiments=False)
        if opts["delay"]:
            target, seconds = opts["delay"].rsplit("=", 1)
            tracing.install_delay(target, float(seconds))
        out = io.StringIO()
        tracer.open_root()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = dispatch(cli)
        record["wall_s"] = time.perf_counter() - start
        tracer.close_root()
        text = out.getvalue()
        record.update(
            exit=code,
            stdout=text,
            digest=hashlib.sha256(text.encode()).hexdigest(),
            rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            shard_hits=tracer.counters.get("engine.shard_hits", 0),
            shards_total=tracer.counters.get("engine.shards_total", 0),
            versions={
                "python": sys.version.split()[0],
                "numpy": sys.modules["numpy"].__version__,
                "scipy": getattr(sys.modules.get("scipy"), "__version__", None),
            },
        )
        if opts["trace"]:
            record["layers"] = tracing.layer_metrics(tracer)
            record["sites"] = tracer.sites
    Path(opts["out"]).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
