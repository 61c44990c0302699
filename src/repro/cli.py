"""Command-line entry point: ``mlpsim`` / ``python -m repro``.

Reproduces any of the paper's tables and figures from the terminal::

    mlpsim table1
    mlpsim figure2 --workloads database tpcw
    mlpsim figure7 --measure 60000
    mlpsim run --workload specjbb --prefetch sp2 --consistency wc

and drives the engine layer for parallel work::

    mlpsim sweep --workload database --axis store_queue=16,32,64 \\
        --axis store_prefetch=sp0,sp1,sp2 --workers 4
    mlpsim figures --names figure2,figure3 --workers 4
    mlpsim bench --smoke
    mlpsim bench --perf --out BENCH_core.json --baseline BENCH_core.json

Commands are thin wrappers over :mod:`repro.api` (the documented library
facade) — anything the CLI does is a few lines of ``api.run`` /
``api.sweep`` / ``api.connect`` away in a script.

or runs as / talks to a long-lived simulation service::

    mlpsim serve --port 8137 --workers 4
    mlpsim submit --url http://127.0.0.1:8137 --workload database \\
        --axis store_prefetch=sp0,sp1,sp2
    mlpsim status JOB_ID --url http://127.0.0.1:8137

Artifacts (traces, annotations) persist under ``--cache-dir`` (default:
``$REPRO_CACHE_DIR`` or ``.repro-cache``), so a repeated invocation starts
from a warm cache; pass ``--cache-dir none`` to disable persistence.
Inspect or bound that store with ``mlpsim cache stats`` and
``mlpsim cache prune --max-bytes 500M --older-than 7d``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Sequence, Tuple

from . import api
from .api import (  # the documented facade re-exports the working types
    EngineRunner,
    ExperimentSettings,
    JobSpec,
    SweepSpec,
    Workbench,
)
from .config import ConsistencyModel, ScoutMode, StorePrefetchMode
from .core.backend import backend_names
from .harness import (
    coerce_axis_value,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    format_series,
    table1,
    table2,
    table3,
)
from .harness.figures import ALL_WORKLOADS
from .tune import STRATEGIES
from .harness.formatting import format_table
from .harness.tables import format_table1, format_table2, format_table3

_PREFETCH = {
    "sp0": StorePrefetchMode.NONE,
    "sp1": StorePrefetchMode.AT_RETIRE,
    "sp2": StorePrefetchMode.AT_EXECUTE,
}
_SCOUT = {mode.value: mode for mode in ScoutMode}
_FIGURES = ("figure2", "figure3", "figure4", "figure5", "figure6",
            "figure7", "figure8")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlpsim",
        description=(
            "Epoch MLP model reproduction of 'Store Memory-Level Parallelism "
            "Optimizations for Commercial Applications' (MICRO 2005)"
        ),
    )
    parser.add_argument(
        "--warmup", type=int, default=40_000,
        help="cache/predictor warmup instructions (default 40000)",
    )
    parser.add_argument(
        "--measure", type=int, default=120_000,
        help="measured instructions (default 120000)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="workload generator seed"
    )
    parser.add_argument(
        "--no-calibrate", action="store_true",
        help="skip Table 1 calibration of the workload profiles",
    )
    parser.add_argument(
        "--workloads", default=",".join(ALL_WORKLOADS),
        help="comma-separated subset of workloads to run "
             f"(default: {','.join(ALL_WORKLOADS)})",
    )
    parser.add_argument(
        "--cache-dir", default="auto",
        help="artifact cache directory; 'auto' (default) uses "
             "$REPRO_CACHE_DIR or .repro-cache, 'none' disables persistence",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("table1", "table2", "table3", "figure2", "figure4",
                 "figure5", "figure6", "figure7", "figure8"):
        sub.add_parser(name, help=f"reproduce {name}")
    report = sub.add_parser(
        "report", help="emit the full paper-vs-measured markdown report"
    )
    report.add_argument(
        "--sections", nargs="*", default=None,
        help="subset of sections (default: all tables and figures)",
    )
    fig3 = sub.add_parser("figure3", help="reproduce figure3")
    fig3.add_argument(
        "--sle", action="store_true",
        help="Figure 3B: SLE + prefetch past serializing",
    )
    run = sub.add_parser("run", help="one simulation with explicit knobs")
    run.add_argument(
        "--workload", default="database",
        help="workload profile; with --contexts > 1 also a '+'-joined "
             "mix (database+specjbb) or a named mix (oltp_java, "
             "web_tier, commercial)",
    )
    run.add_argument(
        "--contexts", type=int, default=1, metavar="N",
        help="SMT hardware contexts (default 1 = the single-context "
             "pipeline, bit-identical to the reference backend)",
    )
    run.add_argument(
        "--scheduler", default="",
        help="SMT thread-scheduling policy for --contexts > 1 "
             "(round_robin, icount, mlp; default round_robin)",
    )
    run.add_argument("--prefetch", default="sp1", choices=sorted(_PREFETCH))
    run.add_argument(
        "--consistency", default="pc", choices=["pc", "wc"],
    )
    run.add_argument("--scout", default="none", choices=sorted(_SCOUT))
    run.add_argument("--sle", action="store_true")
    run.add_argument("--store-buffer", type=int, default=16)
    run.add_argument("--store-queue", type=int, default=32)
    run.add_argument("--perfect-stores", action="store_true")
    run.add_argument(
        "--trace", default=None, metavar="DIR",
        help="write a JSONL epoch trace into this directory "
             "(render with 'mlpsim trace DIR')",
    )
    run.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="segment the trace at quiescent epoch boundaries and run the "
             "shards in parallel (result is bit-identical to unsharded)",
    )
    run.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="K",
        help="snapshot simulation state every K instructions so an "
             "interrupted run resumes via 'mlpsim resume TOKEN'",
    )
    run.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for a sharded run (default: min(4, cpus))",
    )
    run.add_argument(
        "--backend", default=None, choices=list(backend_names()),
        help="execution backend (default: $REPRO_BACKEND or 'reference'); "
             "all backends return bit-identical results",
    )

    est = sub.add_parser(
        "estimate",
        help="analytical EPI prediction for a job spec — no trace read, "
             "no simulation run (sub-millisecond)",
    )
    est.add_argument(
        "--workload", default="database",
        help="workload profile, '+'-joined mix or named mix",
    )
    est.add_argument("--variant", default="pc")
    est.add_argument(
        "--contexts", type=int, default=1, metavar="N",
        help="SMT hardware contexts (mix components are averaged)",
    )
    est.add_argument(
        "--knob", action="append", default=[], metavar="NAME=VALUE",
        help="one core-config knob, e.g. scout=hws2 or store_queue=64 "
             "(repeatable; same names as the sweep axes)",
    )
    est.add_argument(
        "--json", action="store_true",
        help="print the full estimate as JSON instead of the summary line",
    )

    rs = sub.add_parser(
        "resume",
        help="resume a checkpointed simulation from its resume token",
    )
    rs.add_argument(
        "token",
        help="resume token printed by 'mlpsim run --checkpoint-every K' "
             "(the checkpoint's artifact-cache key)",
    )
    rs.add_argument("--workers", type=int, default=None)

    sw = sub.add_parser(
        "sweep",
        help="parallel sweep over core-configuration axes via the engine "
             "runner",
    )
    sw.add_argument("--workload", default="database",
                    choices=list(ALL_WORKLOADS))
    sw.add_argument("--variant", default="pc")
    sw.add_argument(
        "--axis", action="append", default=[], metavar="NAME=V1,V2",
        help="one sweep axis, e.g. store_queue=16,32,64 or "
             "store_prefetch=sp0,sp1,sp2 (repeatable)",
    )
    sw.add_argument("--workers", type=int, default=None,
                    help="worker processes (default: min(4, cpus))")
    sw.add_argument("--timeout", type=float, default=600.0,
                    help="per-job timeout in seconds")
    sw.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="every worker writes a JSONL trace file into this directory",
    )
    sw.add_argument(
        "--backend", default=None, choices=list(backend_names()),
        help="execution backend for every grid point",
    )

    tn = sub.add_parser(
        "tune",
        help="search the design space for the lowest-EPI configuration "
             "(grid / random / genetic, with analytical pruning)",
    )
    tn.add_argument(
        "--workload", default="database",
        help="workload profile; with --contexts > 1 also a '+'-joined "
             "or named mix",
    )
    tn.add_argument("--variant", default="pc")
    tn.add_argument(
        "--param", action="append", default=[], metavar="NAME=V1,V2",
        help="one search dimension, e.g. store_queue=16,32,64 "
             "(repeatable; same axes as 'mlpsim sweep')",
    )
    tn.add_argument(
        "--contexts", type=int, default=1, metavar="N",
        help="evaluate every candidate as an N-context SMT run "
             "(aggregate EPI is the optimized metric)",
    )
    tn.add_argument(
        "--scheduler", default="",
        help="SMT scheduling policy for --contexts > 1",
    )
    tn.add_argument(
        "--strategy", default="genetic", choices=list(STRATEGIES),
    )
    tn.add_argument(
        "--budget", type=int, default=16,
        help="max measured evaluations (cached/pruned/resumed candidates "
             "are free)",
    )
    tn.add_argument(
        "--search-seed", type=int, default=0,
        help="strategy RNG seed (distinct from --seed, the workload "
             "generator seed)",
    )
    tn.add_argument(
        "--margin", type=float, default=0.30,
        help="prune candidates predicted this fraction worse than the "
             "incumbent (default 0.30)",
    )
    tn.add_argument(
        "--no-resume", action="store_true",
        help="ignore persisted tuning state (state is still rewritten)",
    )
    tn.add_argument("--workers", type=int, default=None,
                    help="worker processes (default: min(4, cpus))")
    tn.add_argument(
        "--backend", default=None, choices=list(backend_names()),
        help="execution backend for every evaluation",
    )
    tn.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="write JSONL tune_generation spans into this directory",
    )
    tn.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the winning configuration as JSON "
             "(the benchmarks/best_configs.json shape)",
    )

    figs = sub.add_parser(
        "figures",
        help="reproduce several figures, pre-warming the artifact cache in "
             "parallel",
    )
    figs.add_argument(
        "--names", default=",".join(_FIGURES),
        help=f"comma-separated figures (default: {','.join(_FIGURES)})",
    )
    figs.add_argument("--workers", type=int, default=None)

    bench_cmd = sub.add_parser(
        "bench", help="engine smoke test or core-loop perf benchmark",
    )
    bench_cmd.add_argument(
        "--smoke", action="store_true",
        help="run one tiny parallel sweep end-to-end as a smoke test",
    )
    bench_cmd.add_argument("--workers", type=int, default=2)
    bench_cmd.add_argument(
        "--perf", action="store_true",
        help="measure the core simulation loop (instructions/sec per "
             "profile, median of --reps)",
    )
    bench_cmd.add_argument(
        "--reps", type=int, default=5,
        help="timed repetitions per perf profile (default 5)",
    )
    bench_cmd.add_argument(
        "--warmup-reps", type=int, default=2,
        help="untimed repetitions before measuring (default 2)",
    )
    bench_cmd.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the perf report as JSON (e.g. BENCH_core.json)",
    )
    bench_cmd.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="regression-gate against this committed perf report",
    )
    bench_cmd.add_argument(
        "--max-regression", type=float, default=0.20,
        help="allowed insts/sec drop vs --baseline before failing "
             "(default 0.20)",
    )
    bench_cmd.add_argument(
        "--backend", default=None,
        choices=list(backend_names()) + ["all"],
        help="perf-bench one execution backend, or 'all' for the full "
             "backend comparison report (BENCH_backends.json)",
    )

    srv = sub.add_parser(
        "serve",
        help="run the simulation service daemon (JSON HTTP API)",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8137,
                     help="listen port (0 binds an ephemeral port)")
    srv.add_argument("--workers", type=int, default=None,
                     help="engine worker processes (default: min(4, cpus))")
    srv.add_argument("--queue-capacity", type=int, default=256,
                     help="max queued (pending) jobs before 429")
    srv.add_argument("--job-timeout", type=float, default=600.0,
                     help="per-simulation timeout in seconds")
    srv.add_argument(
        "--log-level", default="info",
        choices=["debug", "info", "warning", "error", "critical"],
        help="daemon log level (default info)",
    )
    srv.add_argument(
        "--log-format", default="text", choices=["text", "json"],
        help="log records as human-readable text or JSON lines",
    )
    srv.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="trace every job's engine batches and epochs as JSONL here",
    )
    srv.add_argument(
        "--trace-max-bytes", type=int, default=0, metavar="BYTES",
        help="rotate trace files at this size (trace-<pid>.jsonl -> .1, "
             ".2, ...; 0 disables rotation)",
    )
    srv.add_argument(
        "--fleet", action="store_true",
        help="run as a fleet coordinator (async front end + pull-based "
             "workers joined with 'mlpsim worker --join URL') instead of "
             "executing jobs in-process",
    )
    srv.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="seconds SIGTERM waits for in-flight work before abandoning "
             "it (exit status is nonzero when work was abandoned)",
    )
    srv.add_argument(
        "--lease-ttl", type=float, default=5.0,
        help="fleet worker heartbeat lease TTL in seconds",
    )
    srv.add_argument(
        "--max-inflight", type=int, default=2,
        help="fleet: max tasks leased per worker at once (backpressure "
             "bound)",
    )
    srv.add_argument(
        "--lease-batch", type=int, default=4,
        help="fleet: tasks offered per lease long-poll",
    )
    srv.add_argument(
        "--default-backend", default="",
        choices=["", *backend_names()],
        help="fleet: backend stamped on jobs that did not pick one",
    )

    wk = sub.add_parser(
        "worker",
        help="join a fleet coordinator and execute leased tasks",
    )
    wk.add_argument(
        "--join", required=True, metavar="URL",
        help="coordinator base URL, e.g. http://127.0.0.1:8137",
    )
    wk.add_argument("--name", default="", help="worker name for the fleet "
                    "status table (default: worker-<pid>)")
    wk.add_argument(
        "--runner-workers", type=int, default=1,
        help="engine worker processes inside this fleet worker (default 1)",
    )
    wk.add_argument(
        "--lease-batch", type=int, default=0,
        help="max tasks pulled per lease (default: the coordinator's hint)",
    )
    wk.add_argument(
        "--log-level", default="info",
        choices=["debug", "info", "warning", "error", "critical"],
    )
    wk.add_argument(
        "--log-format", default="text", choices=["text", "json"],
    )
    wk.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="trace leased batches as JSONL into this directory",
    )
    wk.add_argument(
        "--trace-max-bytes", type=int, default=0, metavar="BYTES",
        help="rotate trace files at this size (0 disables rotation)",
    )

    fl = sub.add_parser(
        "fleet", help="inspect or control a running fleet coordinator",
    )
    fl_sub = fl.add_subparsers(dest="fleet_command", required=True)
    fl_status = fl_sub.add_parser(
        "status", help="worker and task table of a coordinator",
    )
    fl_status.add_argument("--url", default="http://127.0.0.1:8137")
    fl_status.add_argument("--json", action="store_true",
                           help="print the raw JSON payload")
    fl_drain = fl_sub.add_parser(
        "drain", help="flag one worker (or the whole fleet) to drain",
    )
    fl_drain.add_argument("--url", default="http://127.0.0.1:8137")
    fl_drain.add_argument("--worker", default="",
                          help="worker id (empty drains the whole fleet)")
    fl_top = fl_sub.add_parser(
        "top",
        help="live console view of a coordinator: per-worker federated "
             "metrics, lease ages and queue state, polled from /metrics",
    )
    fl_top.add_argument("--url", default="http://127.0.0.1:8137")
    fl_top.add_argument("--interval", type=float, default=2.0,
                        help="seconds between refreshes")
    fl_top.add_argument(
        "--iterations", type=int, default=0, metavar="N",
        help="stop after N frames (0 = run until interrupted)",
    )

    sb = sub.add_parser(
        "submit", help="submit a sweep to a running service and wait",
    )
    sb.add_argument("--url", default="http://127.0.0.1:8137",
                    help="service base URL")
    sb.add_argument("--workload", default="database",
                    choices=list(ALL_WORKLOADS))
    sb.add_argument("--variant", default="pc")
    sb.add_argument(
        "--axis", action="append", default=[], metavar="NAME=V1,V2",
        help="one sweep axis (repeatable), e.g. store_queue=16,32",
    )
    sb.add_argument("--priority", type=int, default=0)
    sb.add_argument(
        "--backend", default="", choices=["", *backend_names()],
        help="execution backend the service should run the sweep on",
    )
    sb.add_argument("--no-wait", action="store_true",
                    help="print the job id and return without polling")
    sb.add_argument("--poll-timeout", type=float, default=600.0,
                    help="seconds to wait for completion")

    st = sub.add_parser("status", help="query one job on a running service")
    st.add_argument("job_id")
    st.add_argument("--url", default="http://127.0.0.1:8137")

    cache_cmd = sub.add_parser(
        "cache", help="inspect or prune the persistent artifact cache",
    )
    cache_sub = cache_cmd.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser("stats", help="entry count and bytes by kind")
    prune = cache_sub.add_parser(
        "prune", help="evict persistent artifacts, oldest first",
    )
    prune.add_argument(
        "--max-bytes", default=None, metavar="BYTES",
        help="shrink the store to at most this size (suffixes K/M/G)",
    )
    prune.add_argument(
        "--older-than", default=None, metavar="AGE",
        help="drop entries older than this (suffixes s/m/h/d, default s)",
    )

    tr = sub.add_parser(
        "trace",
        help="render the per-epoch timeline of a JSONL trace run",
    )
    tr.add_argument(
        "path", help="trace file, or directory of trace-<pid>.jsonl files",
    )
    tr.add_argument(
        "--limit", type=int, default=40,
        help="max epoch rows before eliding the middle (0 = no limit)",
    )

    obs_cmd = sub.add_parser(
        "obs", help="observability tooling over JSONL traces",
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report",
        help="event counts, termination breakdown and span table of a trace",
    )
    obs_report.add_argument(
        "path", help="trace file, or directory of trace-<pid>.jsonl files",
    )
    obs_report.add_argument(
        "--format", default="text", choices=["text", "json"],
        help="render for humans (text) or machines (json digest)",
    )
    obs_critical = obs_sub.add_parser(
        "critical-path",
        help="per-phase latency decomposition and critical path of a "
             "fleet job's merged cross-process trace",
    )
    obs_critical.add_argument(
        "job_id",
        help="fleet job id (its correlation id), or 'all' for every fleet "
             "job in the trace",
    )
    obs_critical.add_argument(
        "--trace-dir", required=True, metavar="PATH", dest="trace_path",
        help="trace file or directory holding the coordinator's (and "
             "optionally the workers') trace-<pid>.jsonl files",
    )
    obs_critical.add_argument(
        "--json", action="store_true",
        help="print the timeline as JSON instead of the console rendering",
    )
    return parser


def _cache_dir(args: argparse.Namespace) -> Any:
    return None if args.cache_dir == "none" else args.cache_dir


def _parse_axis(spec: str, flag: str = "--axis") -> Tuple[str, List[Any]]:
    """``store_queue=16,32`` -> ("store_queue", [16, 32])."""
    name, _, raw = spec.partition("=")
    name = name.strip()
    if not name or not raw:
        raise SystemExit(f"bad {flag} {spec!r}: expected NAME=V1,V2,...")
    try:
        values = [
            coerce_axis_value(name, token.strip())
            for token in raw.split(",") if token.strip()
        ]
    except ValueError as exc:
        raise SystemExit(str(exc))
    if not values:
        raise SystemExit(f"axis {name} has no values")
    return name, values


def _parse_axes(specs: Sequence[str], flag: str) -> Dict[str, List[Any]]:
    """Parse repeated ``NAME=V1,V2`` options, rejecting duplicate names.

    A repeated knob name used to silently keep the last spelling; now it
    is an explicit error so ``--param store_queue=16 --param
    store_queue=32`` cannot masquerade as a two-value dimension.
    """
    axes: Dict[str, List[Any]] = {}
    for spec in specs:
        name, values = _parse_axis(spec, flag)
        if name in axes:
            raise SystemExit(
                f"duplicate {flag} name {name!r}: merge the values into "
                f"one option ({flag} {name}=V1,V2,...)"
            )
        axes[name] = values
    return axes


_SIZE_SUFFIXES = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}
_AGE_SUFFIXES = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


def _parse_size(text: str) -> int:
    """``"500M"`` -> bytes."""
    value = text.strip().lower()
    scale = _SIZE_SUFFIXES.get(value[-1:], None)
    if scale is not None:
        value = value[:-1]
    try:
        return int(float(value) * (scale or 1))
    except ValueError:
        raise SystemExit(f"bad size {text!r}: expected e.g. 1000000 or 500M")


def _parse_age(text: str) -> float:
    """``"7d"`` -> seconds."""
    value = text.strip().lower()
    scale = _AGE_SUFFIXES.get(value[-1:], None)
    if scale is not None:
        value = value[:-1]
    try:
        return float(value) * (scale or 1.0)
    except ValueError:
        raise SystemExit(f"bad age {text!r}: expected e.g. 3600 or 7d")


def _print_nested(results: dict, precision: int = 3) -> None:
    for workload, series in results.items():
        print(f"== {workload} ==")
        if all(isinstance(v, dict) for v in series.values()):
            for key, value in series.items():
                if isinstance(value, dict) and all(
                    isinstance(v, (int, float)) for v in value.values()
                ):
                    print(" ", format_series(str(key), value, precision))
                else:
                    print(f"  {key}: {value}")
        else:
            numeric = {
                k: v for k, v in series.items() if isinstance(v, (int, float))
            }
            print(" ", format_series("EPI/1000", numeric, precision))


def _print_figure3(bench: Workbench, workloads, sle: bool = False) -> None:
    results = figure3(bench, workloads, sle=sle)
    for workload, fractions in results.items():
        print(f"== {workload} ==")
        for cond, fraction in sorted(
            fractions.items(), key=lambda kv: -kv[1]
        ):
            print(f"  {cond.value:32s} {fraction:.3f}")


def _print_figure4(bench: Workbench, workloads) -> None:
    results = figure4(bench, workloads)
    for workload, cells in results.items():
        print(f"== {workload} ==")
        for (store_mlp, load_mlp), fraction in sorted(cells.items()):
            if store_mlp == 0:
                continue
            print(
                f"  storeMLP={store_mlp:2d} load+instMLP={load_mlp:2d} "
                f"fraction={fraction:.4f}"
            )


def _print_figure6(bench: Workbench, workloads) -> None:
    results = figure6(bench, workloads)
    for workload, series in results.items():
        print(f"== {workload} ==")
        for metric, by_nodes in series.items():
            for nodes, by_entries in by_nodes.items():
                print(
                    " ",
                    format_series(f"{metric}/{nodes}-node", by_entries),
                )


def _print_with_perfect(results: dict) -> None:
    for workload, series in results.items():
        print(f"== {workload} ==")
        for key, pair in series.items():
            print(
                f"  {key:10s} with_stores={pair['with_stores']:.3f} "
                f"perfect={pair['perfect']:.3f}"
            )


def _render_figure(name: str, bench: Workbench, workloads,
                   sle: bool = False) -> None:
    if name == "figure2":
        _print_nested(figure2(bench, workloads))
    elif name == "figure3":
        _print_figure3(bench, workloads, sle=sle)
    elif name == "figure4":
        _print_figure4(bench, workloads)
    elif name == "figure5":
        _print_nested(figure5(bench, workloads))
    elif name == "figure6":
        _print_figure6(bench, workloads)
    elif name == "figure7":
        _print_with_perfect(figure7(bench, workloads))
    elif name == "figure8":
        _print_with_perfect(figure8(bench, workloads))
    else:
        raise SystemExit(f"unknown figure {name!r}")


def _cmd_sweep(args, settings: ExperimentSettings, workloads) -> int:
    axes = _parse_axes(args.axis, "--axis")
    if not axes:
        print("sweep needs at least one --axis", file=sys.stderr)
        return 2
    try:
        spec = SweepSpec.build(args.workload, args.variant, **axes)
    except ValueError as exc:
        raise SystemExit(str(exc))
    records = api.sweep(
        spec,
        settings=settings,
        cache_dir=_cache_dir(args),
        workers=args.workers,
        job_timeout=args.timeout,
        trace=args.trace_dir,
        backend=args.backend,
    )
    rows = [
        [record.label(), record.epi_per_1000, record.mlp,
         record.store_mlp, record.store_bandwidth_overhead]
        for record in records
    ]
    print(format_table(
        ["point", "EPI/1000", "MLP", "storeMLP", "bw overhead"],
        rows,
        title=f"{args.workload}/{args.variant} sweep",
    ))
    best = min(records, key=lambda r: r.epi_per_1000)
    print(f"best point: {best.label()} (EPI/1000={best.epi_per_1000:.3f})")
    return 0


def _best_config_payload(result) -> Dict[str, Any]:
    """The JSON shape committed under benchmarks/best_configs.json."""
    return {
        "workload": result.spec.workload,
        "variant": result.spec.variant,
        "strategy": result.spec.strategy,
        "budget": result.spec.budget,
        "seed": result.spec.seed,
        "settings": {
            "warmup": result.settings.warmup,
            "measure": result.settings.measure,
            "seed": result.settings.seed,
            "calibrate": result.settings.calibrate,
        },
        "space": result.spec.space.describe(),
        "best_epi_per_1000": result.best_epi_per_1000,
        "best_knobs": {
            name: getattr(value, "value", value)
            for name, value in result.best
        },
        "evaluations": result.evaluations,
        "deduped": result.deduped,
        "pruned": result.pruned,
        "resumed": result.resumed,
        "generations": result.generations,
    }


def _cmd_tune(args, settings: ExperimentSettings, workloads) -> int:
    space = _parse_axes(args.param, "--param")
    if not space:
        print("tune needs at least one --param", file=sys.stderr)
        return 2
    _check_workload(args.workload, args.contexts)
    try:
        result = api.tune(
            space,
            profile=args.workload,
            variant=args.variant,
            strategy=args.strategy,
            budget=args.budget,
            seed=args.search_seed,
            settings=settings,
            cache_dir=_cache_dir(args),
            workers=args.workers,
            backend=args.backend,
            trace=args.trace_dir,
            margin=args.margin,
            resume=not args.no_resume,
            contexts=args.contexts,
            scheduler=args.scheduler,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    rows = [
        [
            obs.generation,
            obs.source,
            obs.epi_per_1000,
            " ".join(
                f"{name}={getattr(value, 'value', value)}"
                for name, value in obs.candidate
            ),
        ]
        for obs in result.history
    ]
    print(format_table(
        ["gen", "source", "EPI/1000", "candidate"],
        rows,
        title=f"{args.workload}/{args.variant} tune ({args.strategy})",
    ))
    print(result.summary())
    if result.token:
        print(f"resume state token: {result.token[:16]}...")
    if args.out:
        payload = _best_config_payload(result)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote best configuration to {args.out}")
    return 0


def _cmd_figures(args, settings: ExperimentSettings, workloads) -> int:
    names = [n.strip() for n in args.names.split(",") if n.strip()]
    unknown = set(names) - set(_FIGURES)
    if unknown:
        print(f"unknown figures: {sorted(unknown)}", file=sys.stderr)
        return 2
    cache_dir = _cache_dir(args)
    # Warm phase: fan annotation jobs out across workers; the figure
    # drivers then run serially against a warm (persistent) cache.
    variants = ["pc"]
    if any(name in ("figure7", "figure8") for name in names):
        variants.append("wc")
    runner = EngineRunner(
        settings=settings, cache_dir=cache_dir, workers=args.workers,
    )
    warm_jobs = [
        JobSpec(workload=workload, variant=variant, action="annotate")
        for workload in workloads for variant in variants
    ]
    if cache_dir is not None:
        report = runner.run(warm_jobs)
        print(f"# warm: {report.summary()}", file=sys.stderr)
    bench = api.workbench(settings, cache_dir)
    for name in names:
        print(f"# {name}")
        _render_figure(name, bench, workloads)
    return 0


def _cmd_bench_smoke(args, settings: ExperimentSettings) -> int:
    """A tiny end-to-end parallel sweep: pipeline + cache + pool."""
    smoke_settings = ExperimentSettings(
        warmup=min(settings.warmup, 3000),
        measure=min(settings.measure, 9000),
        seed=settings.seed,
        calibrate=False,
    )
    runner = EngineRunner(
        settings=smoke_settings,
        cache_dir=_cache_dir(args),
        workers=args.workers,
        job_timeout=300.0,
    )
    jobs = [
        JobSpec(
            workload="database",
            core_changes=(
                ("store_prefetch", prefetch), ("store_queue", queue),
            ),
        )
        for prefetch in (StorePrefetchMode.NONE, StorePrefetchMode.AT_RETIRE)
        for queue in (16, 32)
    ]
    report = runner.run(jobs)
    print(report.summary())
    for job in report.jobs:
        line = f"  {job.spec.describe():48s} [{job.status}]"
        if job.ok:
            line += f" EPI/1000={job.result.epi_per_1000:.3f}"
        else:
            line += f" {job.error}"
        print(line)
    if report.failed:
        return 1
    print("smoke ok")
    return 0


def _check_workload(name: str, contexts: int) -> None:
    """Single-context commands need a plain profile name; SMT commands
    defer to the mix resolver (which validates and lists the mixes)."""
    if contexts == 1 and name not in ALL_WORKLOADS:
        raise SystemExit(
            f"unknown workload {name!r}; valid workloads: "
            f"{', '.join(ALL_WORKLOADS)} (mixes need --contexts > 1)"
        )


def _cmd_run(args, settings: ExperimentSettings) -> int:
    _check_workload(args.workload, args.contexts)
    variant = (
        ("wc" if args.consistency == "wc" else "pc")
        + ("_sle" if args.sle else "")
    )
    core_changes = dict(
        store_prefetch=_PREFETCH[args.prefetch],
        consistency=(
            ConsistencyModel.WC if args.consistency == "wc"
            else ConsistencyModel.PC
        ),
        scout=_SCOUT[args.scout],
        store_buffer=args.store_buffer,
        store_queue=args.store_queue,
        perfect_stores=args.perfect_stores,
    )
    if args.contexts > 1:
        if args.shards > 1 or args.checkpoint_every > 0 or args.trace:
            print(
                "--contexts > 1 is not supported with --shards/"
                "--checkpoint-every/--trace",
                file=sys.stderr,
            )
            return 2
        try:
            result = api.run(
                args.workload,
                settings=settings,
                cache_dir=_cache_dir(args),
                variant=variant,
                contexts=args.contexts,
                scheduler=args.scheduler,
                **core_changes,
            )
        except ValueError as exc:
            raise SystemExit(str(exc))
        print(result.summary())
        return 0
    if args.scheduler:
        print("--scheduler only applies with --contexts > 1",
              file=sys.stderr)
        return 2
    if args.shards > 1 or args.checkpoint_every > 0:
        if args.trace is not None:
            print("--trace is not supported with --shards/--checkpoint-every",
                  file=sys.stderr)
            return 2
        runner = EngineRunner(
            settings=settings, cache_dir=_cache_dir(args),
            workers=args.workers,
        )
        spec = JobSpec(
            workload=args.workload, variant=variant,
            core_changes=tuple(sorted(core_changes.items())),
            backend=args.backend or "",
        )
        report = runner.run_sharded(
            spec, args.shards, checkpoint_every=args.checkpoint_every,
        )
        print(f"# plan: {report.plan.describe()}", file=sys.stderr)
        for job in report.jobs:
            line = f"  {job.spec.describe():52s} [{job.status}]"
            if job.resumed_pos >= 0:
                line += f" resumed@{job.resumed_pos}"
            print(line)
            if job.checkpoint_token:
                print(f"    resume token: {job.checkpoint_token}")
        print(f"# {report.summary()}", file=sys.stderr)
        if not report.ok:
            return 1
        print(report.merged.summary())
        return 0
    result = api.run(
        args.workload,
        settings=settings,
        cache_dir=_cache_dir(args),
        trace=args.trace,
        variant=variant,
        backend=args.backend,
        **core_changes,
    )
    print(result.summary())
    return 0


def _cmd_estimate(args) -> int:
    knobs = {}
    for spec in args.knob:
        name, _, raw = spec.partition("=")
        name = name.strip()
        if not name or not raw:
            raise SystemExit(
                f"bad --knob {spec!r}: expected NAME=VALUE"
            )
        if name in knobs:
            raise SystemExit(
                f"duplicate --knob name {name!r}"
            )
        try:
            knobs[name] = coerce_axis_value(name, raw.strip())
        except ValueError as exc:
            raise SystemExit(str(exc))
    try:
        guess = api.estimate({
            "workload": args.workload,
            "variant": args.variant,
            "contexts": args.contexts,
            "core_changes": knobs,
        })
    except (KeyError, ValueError) as exc:
        raise SystemExit(str(exc))
    if args.json:
        from .engine import serialize

        print(json.dumps(
            serialize.to_jsonable(guess), indent=2, sort_keys=True,
        ))
    else:
        print(guess.summary())
    return 0


def _cmd_resume(args) -> int:
    from .errors import ReproError

    try:
        job = api.resume(
            args.token, cache_dir=_cache_dir(args), workers=args.workers,
        )
    except (KeyError, ValueError, ReproError) as exc:
        print(f"resume failed: {exc}", file=sys.stderr)
        return 1
    line = f"{job.spec.describe()} [{job.status}]"
    if job.resumed_pos >= 0:
        line += f" resumed@{job.resumed_pos}"
    print(line)
    if not job.ok:
        print(f"  error: {job.error}", file=sys.stderr)
        return 1
    print(job.result.summary())
    return 0


def _cmd_serve(args, settings: ExperimentSettings) -> int:
    from .obs import ObsOptions
    from .service import serve

    obs = (
        ObsOptions.for_trace(
            args.trace_dir, trace_max_bytes=args.trace_max_bytes,
        )
        if args.trace_dir is not None else None
    )
    if args.fleet:
        from .fleet import serve_fleet

        return serve_fleet(
            host=args.host,
            port=args.port,
            settings=settings,
            cache_dir=_cache_dir(args),
            queue_capacity=args.queue_capacity,
            lease_ttl=args.lease_ttl,
            max_inflight=args.max_inflight,
            lease_batch=args.lease_batch,
            drain_timeout=args.drain_timeout,
            log_level=args.log_level,
            log_format=args.log_format,
            obs=obs,
            default_backend=args.default_backend,
        )
    return serve(
        host=args.host,
        port=args.port,
        settings=settings,
        cache_dir=_cache_dir(args),
        workers=args.workers,
        job_timeout=args.job_timeout,
        queue_capacity=args.queue_capacity,
        drain_timeout=args.drain_timeout,
        log_level=args.log_level,
        log_format=args.log_format,
        obs=obs,
    )


def _cmd_worker(args) -> int:
    from .obs import ObsOptions
    from .fleet import run_worker

    obs = (
        ObsOptions.for_trace(
            args.trace_dir, trace_max_bytes=args.trace_max_bytes,
        )
        if args.trace_dir is not None else None
    )
    cache_dir = _cache_dir(args)
    return run_worker(
        args.join,
        name=args.name,
        cache_dir=None if cache_dir == "auto" else cache_dir,
        runner_workers=args.runner_workers,
        lease_batch=args.lease_batch,
        log_level=args.log_level,
        log_format=args.log_format,
        obs=obs,
    )


def _cmd_fleet_top(args) -> int:
    """Live console view over ``/metrics?format=json`` + fleet status."""
    import urllib.error
    import urllib.request

    def fetch(path: str) -> Dict[str, Any]:
        with urllib.request.urlopen(
            f"{args.url.rstrip('/')}{path}", timeout=10.0,
        ) as response:
            return json.loads(response.read().decode("utf-8"))

    frames = 0
    try:
        while True:
            try:
                snapshot = fetch("/metrics?format=json")
                status = fetch("/v1/fleet/status")
            except (urllib.error.URLError, ConnectionError, OSError) as exc:
                print(f"fleet top: cannot reach {args.url}: {exc}",
                      file=sys.stderr)
                return 1
            frames += 1
            if frames > 1:
                print("\x1b[2J\x1b[H", end="")
            print(_render_fleet_top(args.url, snapshot, status))
            if args.iterations and frames >= args.iterations:
                return 0
            time.sleep(max(0.1, args.interval))
    except KeyboardInterrupt:
        return 0


def _render_fleet_top(
    url: str, snapshot: Dict[str, Any], status: Dict[str, Any],
) -> str:
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    labeled = snapshot.get("labeled", {})
    latency = snapshot.get("latency", {})

    def series(family: str) -> Dict[str, float]:
        return {
            entry["labels"].get("worker", "?"): entry["value"]
            for entry in labeled.get(family, [])
        }

    inflight = series("fleet_worker_inflight")
    lease_age = series("fleet_worker_lease_age_oldest")
    tasks_done = series("fleet_worker_tasks_done_total")
    epochs = series("fleet_worker_sim_epochs_total")
    insts = series("fleet_worker_sim_instructions_total")
    names = sorted(
        set(inflight) | set(tasks_done) | set(epochs) | set(lease_age)
    )
    lines = [
        f"fleet top — {url}",
        (
            f"workers {gauges.get('fleet_workers', 0):.0f}"
            f" (evicted {gauges.get('fleet_workers_evicted_total', 0):.0f})"
            f"  queue depth {gauges.get('queue_depth', 0):.0f}"
            f"  tasks {status.get('tasks')}"
            f"  submitted {counters.get('jobs_submitted_total', 0)}"
            f"  shed {counters.get('jobs_shed_total', 0)}"
        ),
        (
            f"{'worker':<18}{'inflight':>9}{'lease age':>11}"
            f"{'tasks done':>12}{'epochs':>12}{'insts':>14}"
        ),
    ]
    for name in names:
        lines.append(
            f"{name:<18}{inflight.get(name, 0):>9.0f}"
            f"{lease_age.get(name, 0.0):>10.1f}s"
            f"{tasks_done.get(name, 0):>12.0f}"
            f"{epochs.get(name, 0):>12.0f}"
            f"{insts.get(name, 0):>14.0f}"
        )
    if not names:
        lines.append("  (no federated worker series yet)")
    phases = []
    for name, label in (
        ("job_queue_wait", "queue"),
        ("task_lease_wait", "lease"),
        ("task_exec", "exec"),
        ("job_assemble", "merge"),
        ("job_latency", "job e2e"),
    ):
        summary = latency.get(name)
        if summary and summary.get("count"):
            phases.append(
                f"{label} p50={summary['p50']:.3f}s p99={summary['p99']:.3f}s"
            )
    if phases:
        lines.append("latency: " + "  |  ".join(phases))
    return "\n".join(lines)


def _cmd_fleet(args) -> int:
    from .service import ServiceClient, ServiceError

    if args.fleet_command == "top":
        return _cmd_fleet_top(args)
    client = ServiceClient(args.url)
    try:
        if args.fleet_command == "drain":
            client.fleet_drain(args.worker)
            print("drain requested" + (
                f" for worker {args.worker}" if args.worker else
                " for the whole fleet"
            ))
            return 0
        status = client.fleet_status()
    except ServiceError as exc:
        print(f"fleet query failed: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "json", False):
        print(json.dumps(status, indent=2))
        return 0
    workers = status.get("workers", [])
    print(f"{len(workers)} worker(s); queue depth "
          f"{status.get('queue_depth', 0)}; tasks {status.get('tasks')}")
    for worker in workers:
        flags = " draining" if worker.get("draining") else ""
        print(
            f"  {worker['id']}  {worker['name']:<16} "
            f"pid={worker.get('pid', 0):<7} "
            f"done={worker.get('tasks_done', 0):<5} "
            f"failed={worker.get('tasks_failed', 0):<4} "
            f"hb={worker.get('heartbeat_age_seconds', 0.0):.1f}s ago"
            f"{flags}"
        )
    outstanding = status.get("outstanding_cost_units", 0)
    if outstanding:
        print(f"outstanding predicted cost: {outstanding} units "
              f"(retry-after hint {status.get('retry_after_hint')}s)")
    return 0


def _cmd_trace(args) -> int:
    from .obs import read_events, render_timeline

    try:
        print(render_timeline(read_events(args.path), limit=args.limit),
              end="")
    except (OSError, ValueError) as exc:
        print(f"trace failed: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_obs(args) -> int:
    from .obs import load_events, read_events, render_report
    from .obs.report import summarize

    if args.obs_command == "report":
        try:
            if getattr(args, "format", "text") == "json":
                digest = summarize(load_events(args.path))
                print(json.dumps(digest, indent=2, sort_keys=True))
            else:
                print(render_report(read_events(args.path)), end="")
        except (OSError, ValueError) as exc:
            print(f"obs report failed: {exc}", file=sys.stderr)
            return 1
        return 0
    if args.obs_command == "critical-path":
        return _cmd_obs_critical_path(args)
    print(f"unknown obs command {args.obs_command!r}", file=sys.stderr)
    return 2


def _cmd_obs_critical_path(args) -> int:
    from .obs import (
        fleet_job_ids,
        job_timeline,
        load_events,
        render_timeline_report,
    )

    try:
        events = load_events(args.trace_path)
    except (OSError, ValueError) as exc:
        print(f"obs critical-path failed: {exc}", file=sys.stderr)
        return 1
    if args.job_id == "all":
        job_ids = fleet_job_ids(events)
        if not job_ids:
            print("no fleet jobs found in trace", file=sys.stderr)
            return 1
    else:
        job_ids = [args.job_id]
    timelines = []
    for job_id in job_ids:
        timeline = job_timeline(events, job_id)
        if timeline is None:
            print(f"no trace for job {job_id!r}", file=sys.stderr)
            return 1
        timelines.append(timeline)
    if args.json:
        payload = [timeline.to_dict() for timeline in timelines]
        print(json.dumps(
            payload[0] if args.job_id != "all" else payload,
            indent=2, sort_keys=True,
        ))
    else:
        for index, timeline in enumerate(timelines):
            if index:
                print()
            print(render_timeline_report(timeline, events), end="")
    return 0


def _print_job_status(status: Dict[str, Any]) -> None:
    from .service import ServiceClient

    print(f"job {status['id']}: {status['state']} "
          f"({status['description']})")
    if status["state"] == "failed":
        print(f"  error: {status.get('error', '')}")
    result = status.get("result") or {}
    if status["state"] == "done" and "report" in result:
        report = ServiceClient.decode_report(status)
        print(f"  {report.summary()}")
        for row in result.get("records", []):
            print(
                f"  {row['workload']:10s} {row['point']:42s} "
                f"EPI/1000={row['epi_per_1000']:.3f}"
            )
    elif status["state"] == "done" and result.get("kind") == "figure":
        print(json.dumps(result["data"], indent=2))


def _cmd_submit(args) -> int:
    from .service import ServiceError

    axes = _parse_axes(args.axis, "--axis")
    if not axes:
        print("submit needs at least one --axis", file=sys.stderr)
        return 2
    client = api.connect(args.url)
    try:
        receipt = client.submit_sweep(
            args.workload, variant=args.variant, priority=args.priority,
            backend=args.backend,
            **{
                name: [getattr(v, "value", v) for v in values]
                for name, values in axes.items()
            },
        )
    except ServiceError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    dedup = " (deduplicated against an in-flight job)" \
        if receipt["deduped"] else ""
    print(f"submitted {receipt['id']}{dedup}")
    if args.no_wait:
        return 0
    status = client.wait(receipt["id"], timeout=args.poll_timeout)
    _print_job_status(status)
    return 0 if status["state"] == "done" else 1


def _cmd_status(args) -> int:
    from .service import ServiceError

    try:
        status = api.connect(args.url).status(args.job_id)
    except ServiceError as exc:
        print(f"status failed: {exc}", file=sys.stderr)
        return 1
    _print_job_status(status)
    return 0


def _cmd_cache(args) -> int:
    from .engine.cache import ArtifactCache, resolve_cache_dir

    directory = resolve_cache_dir(_cache_dir(args))
    if directory is None:
        print("persistent cache disabled (--cache-dir none)",
              file=sys.stderr)
        return 2
    cache = ArtifactCache(directory)
    if args.cache_command == "stats":
        stats = cache.disk_stats()
        print(f"cache directory: {directory}")
        print(f"{stats.entries} entries, {stats.total_bytes} bytes")
        for kind, (entries, size) in sorted(stats.by_kind.items()):
            print(f"  {kind:12s} {entries:6d} entries {size:12d} bytes")
        return 0
    max_bytes = _parse_size(args.max_bytes) \
        if args.max_bytes is not None else None
    older_than = _parse_age(args.older_than) \
        if args.older_than is not None else None
    if max_bytes is None and older_than is None:
        print("prune needs --max-bytes and/or --older-than",
              file=sys.stderr)
        return 2
    result = cache.prune(max_bytes=max_bytes, older_than=older_than)
    print(
        f"pruned {result.removed_entries} entries "
        f"({result.removed_bytes} bytes); "
        f"{result.remaining_entries} entries "
        f"({result.remaining_bytes} bytes) remain"
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    settings = ExperimentSettings(
        warmup=args.warmup,
        measure=args.measure,
        seed=args.seed,
        calibrate=not args.no_calibrate,
    )
    workloads = tuple(
        name.strip() for name in args.workloads.split(",") if name.strip()
    )
    unknown = set(workloads) - set(ALL_WORKLOADS)
    if unknown:
        print(f"unknown workloads: {sorted(unknown)}", file=sys.stderr)
        return 2

    if args.command == "run":
        return _cmd_run(args, settings)
    if args.command == "estimate":
        return _cmd_estimate(args)
    if args.command == "resume":
        return _cmd_resume(args)
    if args.command == "serve":
        return _cmd_serve(args, settings)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "fleet":
        return _cmd_fleet(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "status":
        return _cmd_status(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "sweep":
        return _cmd_sweep(args, settings, workloads)
    if args.command == "tune":
        return _cmd_tune(args, settings, workloads)
    if args.command == "figures":
        return _cmd_figures(args, settings, workloads)
    if args.command == "bench":
        if args.perf:
            from .bench.perf import main as perf_main

            return perf_main(
                reps=args.reps,
                warmup_reps=args.warmup_reps,
                out=args.out,
                baseline=args.baseline,
                max_regression=args.max_regression,
                backend=args.backend,
            )
        if not args.smoke:
            print("bench requires --smoke or --perf", file=sys.stderr)
            return 2
        return _cmd_bench_smoke(args, settings)

    bench = api.workbench(settings, _cache_dir(args))
    if args.command == "table1":
        print(format_table1(table1(bench, workloads)))
    elif args.command == "table2":
        print(format_table2(table2(bench, workloads)))
    elif args.command == "table3":
        print(format_table3(table3(bench, workloads)))
    elif args.command == "figure3":
        _render_figure("figure3", bench, workloads, sle=args.sle)
    elif args.command in _FIGURES:
        _render_figure(args.command, bench, workloads)
    elif args.command == "report":
        from .harness.report import ALL_SECTIONS, generate_report
        sections = args.sections or list(ALL_SECTIONS)
        sys.stdout.write(generate_report(bench, sections))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
