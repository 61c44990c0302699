"""End-to-end benchmark of the reproduction, with a per-layer ledger.

Usage (from the repository root)::

    python3 ledgerbench/run.py --workload cold_start --seed 1 --seconds 10 --trace 0

Workloads are ``cold_start``, ``warm_explore`` and ``service_mix`` (see
``workloads.py``).  ``--trace 0`` measures the end-to-end metrics with no
instrumentation.  ``--trace 1`` runs the same workload twice, each time
in a child process: untraced, then with every layer's public functions
wrapped (``tracing.py``).  It reports the per-layer metrics plus the
tracing overhead (traced minus untraced end-to-end values).

Human-readable ledger lines go to standard output first; the last line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The exit status is 0 when a result was printed, 2 when the benchmark
could not run at all (for example, when ``src/repro`` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"

#: The seed whose simulated statistics are stored in ``expected.json``.
COMMITTED_SEED = 1

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "call_s": "s",
    "sim_insts_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "workloads.calibrate_s": "s",
    "workloads.generate_s": "s",
    "locks.rewrite_s": "s",
    "memory.annotate_s": "s",
    "engine.cache.store_s": "s",
    "engine.cache.store_mb": "MB",
    "engine.cache.duplicate_builds": "count",
    "engine.cache.load_s": "s",
    "engine.cache.load_mb": "MB",
    "engine.cache.hit_ratio": "ratio",
    "core.simulate_s": "s",
    "core.sim_insts_per_s": "1/s",
    "core.epochs": "count",
    "engine.runner.batch_s": "s",
    "engine.runner.job_busy_s": "s",
    "engine.runner.utilization": "ratio",
    "estimate.call_s": "s",
    "unattributed_s": "s",
}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold_start", "warm_explore", "service_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Trace sizing; the defaults are ExperimentSettings()'s.  The
    # self-check shrinks them, which also disables expected.json.
    parser.add_argument("--warmup", type=int, default=40_000)
    parser.add_argument("--measure", type=int, default=120_000)
    parser.add_argument("--no-calibrate", action="store_true")
    parser.add_argument(
        "--in-process", action="store_true",
        help="with --trace 1: trace this process and report every metric, "
             "instead of running an untraced and a traced child",
    )
    parser.add_argument(
        "--record-expected", action="store_true",
        help="store this run's reference statistics in expected.json "
             "(only with the committed seed and default sizing)",
    )
    return parser.parse_args(argv)


def default_sizing(args: argparse.Namespace) -> bool:
    return (args.warmup, args.measure, args.no_calibrate) == (40_000, 120_000, False)


def environment() -> Dict[str, str]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def load_expected(args: argparse.Namespace) -> Optional[Dict[str, Any]]:
    if (args.record_expected or args.seed != COMMITTED_SEED
            or not default_sizing(args)):
        return None
    stored = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    if args.workload not in stored.get("workloads", {}):
        raise SystemExit(
            f"{EXPECTED.name} has no values for {args.workload}; "
            f"record them with --record-expected"
        )
    return stored["workloads"][args.workload]


def record_expected(args: argparse.Namespace, reference: Dict[str, Any]) -> None:
    if args.seed != COMMITTED_SEED or not default_sizing(args):
        raise SystemExit("--record-expected needs the committed seed "
                         "and default sizing")
    stored = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    stored["seed"] = COMMITTED_SEED
    stored.setdefault("workloads", {})[args.workload] = dict(sorted(reference.items()))
    EXPECTED.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


# ------------------------------------------------------------- ledger --


def per_layer(ctx: Any, book: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer metrics of one :func:`tracing.ledger` book."""
    chosen = book["spans"]
    self_s = book["self_s"]

    def spans_named(name: str) -> List[Dict[str, Any]]:
        return [span for span in chosen if span["name"] == name]

    loads = spans_named("engine.cache.load")
    hits = sum(span.get("lookup") in ("disk", "memory") for span in loads)
    simulates = spans_named("core.simulate")
    batches = spans_named("engine.runner.batch")
    batch_s = sum(span["end"] - span["start"] for span in batches)
    busy = sum(span.get("busy", 0.0) for span in batches)
    capacity = sum(
        (span["end"] - span["start"]) * span.get("workers", 1)
        for span in batches
    )
    sim_s = self_s.get("core.simulate", 0.0)
    return {
        "workloads.calibrate_s": self_s.get("workloads.calibrate", 0.0),
        "workloads.generate_s": self_s.get("workloads.generate", 0.0),
        "locks.rewrite_s": self_s.get("locks.rewrite", 0.0),
        "memory.annotate_s": self_s.get("memory.annotate", 0.0),
        "engine.cache.store_s": self_s.get("engine.cache.store", 0.0),
        "engine.cache.store_mb": sum(
            span.get("mb", 0.0) for span in spans_named("engine.cache.store")
        ),
        "engine.cache.duplicate_builds": ctx.duplicate_builds,
        "engine.cache.load_s": self_s.get("engine.cache.load", 0.0),
        "engine.cache.load_mb": sum(span.get("mb", 0.0) for span in loads),
        "engine.cache.hit_ratio": hits / len(loads) if loads else 0.0,
        "engine.cache.lookups": len(loads),
        "core.simulate_s": sim_s,
        "core.sim_insts_per_s": (
            sum(span.get("insts", 0) for span in simulates) / sim_s
            if sim_s else 0.0
        ),
        "core.epochs": ctx.epochs,
        "core.simulate_calls": len(simulates),
        "engine.runner.batch_s": batch_s,
        "engine.runner.job_busy_s": busy,
        "engine.runner.utilization": busy / capacity if capacity else 0.0,
        "estimate.call_s": self_s.get("estimate.call", 0.0),
        "estimate.calls": len(spans_named("estimate.call")),
        "smt.run_s": self_s.get("smt.run", 0.0),
        "service.submit_s": self_s.get("service.submit", 0.0),
        "engine.runner.job_self_s": self_s.get("engine.runner.job", 0.0),
        "engine.runner.batch_self_s": self_s.get("engine.runner.batch", 0.0),
        "unattributed_s": book["unattributed_s"],
    }


def print_ledger(ctx: Any, workload: Any, spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Print the per-phase ledger; return the whole-run per-layer values.

    Every root span whose layers exceed its wall time times its pool size
    counts as a failed operation.
    """
    from tracing import ledger

    setup, timed = ctx.phases["setup"], ctx.phases["timed"]
    # The daemon's spans start before it exits, inside the timed window.
    whole = (setup[0], float("inf"))
    for label, window in (("setup", setup), ("timed", (timed[0], whole[1])),
                          ("run", whole)):
        book = ledger(spans, *window)
        values = per_layer(ctx, book)  # "run" comes last
        print(f"# ledger [{label}] roots (wall, self time of the layers "
              f"under them, unattributed, bound = wall x pool size):")
        for name, row in sorted(book["roots"].items()):
            print(f"#   {name:26s} n={int(row['count']):4d} "
                  f"wall {row['wall_s']:11.6f} layers {row['layers_s']:11.6f} "
                  f"unattributed {row['unattributed_s']:10.6f} "
                  f"bound {row['bound_s']:11.6f} "
                  f"breaches {int(row['breaches'])}")
        print(f"# ledger [{label}] layers (self time and counts):")
        for name, value in values.items():
            print(f"#   {name:32s} {value:14.6f}")
    for breach in book["breaches"]:
        ctx.record("ledger bound", None, breach)
    if hasattr(workload, "service_layer"):
        for name, (value, unit) in workload.service_layer().items():
            print(f"# service layer {name:36s} {value:14.6f} {unit}")
    return values


# ---------------------------------------------------------------- run --


def run_workload(args: argparse.Namespace, work_dir: Path) -> Dict[str, Any]:
    from tracing import Recorder, install
    from workloads import WORKLOADS, Context, SetupError

    recorder = None
    if args.trace:
        trace_dir = work_dir / "trace"
        trace_dir.mkdir()
        recorder = Recorder(trace_dir)
        install(recorder)
    ctx = Context(args, ROOT, work_dir, load_expected(args), recorder)
    workload = WORKLOADS[args.workload](ctx)
    try:
        wall0, start = time.time(), time.perf_counter()
        try:
            workload.setup()
        except SetupError as exc:
            print(f"set-up failed: {exc}", file=sys.stderr)
            raise SystemExit(2)
        # Write the artifacts set-up stored back to disk now, so the
        # kernel's write-back does not run during the timed part.
        os.sync()
        setup_s = time.perf_counter() - start
        wall1 = time.time()
        ctx.phases["setup"] = (wall0, wall1)
        workload.timed(time.perf_counter() + args.seconds)
    finally:
        workload.teardown()
    ctx.phases["timed"] = (wall1, time.time())
    metrics = {"setup_s": setup_s, **workload.metrics(), "peak_rss_mb": peak_rss_mb()}
    if args.record_expected:
        record_expected(args, ctx.reference)
    layers: Dict[str, float] = {}
    if recorder is not None:
        layers = print_ledger(ctx, workload, recorder.collect())
    for name, (value, unit) in workload.ledger_rows().items():
        print(f"# {args.workload} {name:44s} {value:14.6f} {unit}")
    return {"ctx": ctx, "metrics": metrics, "layers": layers}


def run_child(args: argparse.Namespace, trace: int) -> Dict[str, Any]:
    """Run the workload in a child process, relay its ledger lines and
    return its JSON line.  A traced child reports every metric."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--warmup", str(args.warmup), "--measure", str(args.measure),
    ]
    if args.no_calibrate:
        command.append("--no-calibrate")
    if trace:
        command.append("--in-process")
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate(timeout=170)
    except BaseException:
        # SIGTERM lets the child stop its server and delete its directories.
        child.terminate()
        child.wait()
        raise
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise SystemExit(f"{'traced' if trace else 'untraced'} run failed "
                         f"with {child.returncode}")
    label = "traced" if trace else "untraced"
    for line in lines[:-1]:
        print(f"# [{label}]{line[1:]}" if line.startswith("#")
              else f"# [{label}] {line}")
    return json.loads(lines[-1])


def trace_both(args: argparse.Namespace) -> int:
    """``--trace 1``: an untraced and a traced run, each in a process of
    its own so neither's peak resident set includes the other's."""
    untraced = run_child(args, 0)
    traced = run_child(args, 1)
    for name, unit in END_TO_END.items():
        value = traced["metrics"][name]["value"]
        base = untraced["metrics"][name]["value"]
        print(f"# tracing overhead {name:20s} traced {value:.6f} "
              f"- untraced {base:.6f} = {value - base:+.6f} {unit}")
    attempted = traced["attempted"] + untraced["attempted"]
    failed = traced["failed"] + untraced["failed"]
    print(f"# error_rate {failed / max(1, attempted):.6f} "
          f"({failed} failed / {attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: traced["metrics"][name] for name in PER_LAYER},
    }))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind through the finally blocks that stop the server
    # and delete the run's directories.  Forked pool workers keep the
    # default action, so a signalled worker dies instead of idling orphaned.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.register_at_fork(
        after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL),
    )
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; nothing to benchmark",
              file=sys.stderr)
        return 2
    env = environment()
    print("# environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace and not args.in_process:
        return trace_both(args)
    sys.path.insert(0, str(ROOT / "src"))
    # Library defaults only: no backend override, no shared cache.
    for name in ("REPRO_BACKEND", "REPRO_CACHE_DIR"):
        os.environ.pop(name, None)
    scratch = ROOT / ".ledgerbench-work"
    scratch.mkdir(exist_ok=True)
    work_dir = scratch / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir()
    try:
        outcome = run_workload(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still owns a directory here
    ctx, metrics = outcome["ctx"], outcome["metrics"]
    for error in ctx.errors[:20]:
        print(f"# FAILED {error}")
    for name, unit in END_TO_END.items():
        print(f"# e2e {name:20s} {metrics[name]:16.6f} {unit}")
    print(f"# error_rate {ctx.failed / max(1, ctx.attempted):.6f} "
          f"({ctx.failed} failed / {ctx.attempted} attempted)")
    chosen = {name: (metrics[name], unit) for name, unit in END_TO_END.items()}
    if args.trace:
        chosen.update((name, (outcome["layers"][name], unit))
                      for name, unit in PER_LAYER.items())
    print(json.dumps({
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in chosen.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
