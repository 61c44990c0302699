"""Core-loop microbenchmark: tracked instructions/sec for MLPsim.

The paper's evaluation is thousands of MLPsim runs (every figure sweeps the
core configuration over an annotated trace), so the per-instruction scan in
:meth:`repro.core.mlpsim.MlpSimulator.run` is the throughput bottleneck of
the whole harness.  This module measures exactly that loop:

1. build annotated traces for a fixed set of workload profiles — fixed
   seed, fixed sizing, ``calibrate=False``, in-memory cache only — so the
   simulator input is bit-identical across machines and commits,
2. per profile, run the simulator ``warmup_reps`` times untimed (interpreter
   warmup, branch-predictor-friendly bytecode caches), then ``reps`` timed
   runs with GC disabled, and report the **median**,
3. score **instructions/sec** (trace instructions retired per wall second)
   and **epochs/sec**, plus the geometric mean across profiles.

Annotation time is deliberately excluded: it is paid once per sweep and
already amortised by the artifact cache; the figure-sweep cost that scales
with configuration count is the simulation loop alone.

The emitted report (``BENCH_core.json`` at the repo root) is the committed
performance baseline.  ``check_regression`` compares a fresh run against
it; the CI perf-smoke step fails the build when instructions/sec drops more
than 20% below the committed numbers.
"""

from __future__ import annotations

import gc
import json
import math
import platform
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..config import ScoutMode, StorePrefetchMode
from ..core import MlpSimulator
from ..harness.experiment import ExperimentSettings, Workbench

__all__ = [
    "BENCH_FILENAME",
    "BACKENDS_FILENAME",
    "BenchProfile",
    "DEFAULT_PROFILES",
    "check_backends_regression",
    "check_regression",
    "load_report",
    "run_backend_bench",
    "run_core_bench",
    "write_report",
]

#: Canonical location of the committed baseline, relative to the repo root.
BENCH_FILENAME = "BENCH_core.json"

#: Committed per-backend comparison report (``mlpsim bench --perf
#: --backend all``): the same profiles measured on every registered
#: execution backend, with geomean speedups vs the reference loop.
BACKENDS_FILENAME = "BENCH_backends.json"

#: Report schema version (bump when the JSON layout changes).
SCHEMA_VERSION = 1

#: Fixed trace sizing/seeding: changing these invalidates every committed
#: number, so they are constants of the harness rather than CLI knobs.
BENCH_WARMUP = 8_000
BENCH_MEASURE = 24_000
BENCH_SEED = 11


@dataclass(frozen=True)
class BenchProfile:
    """One benchmarked configuration: a workload under fixed core knobs."""

    name: str
    workload: str
    variant: str = "pc"
    core_changes: Tuple[Tuple[str, Any], ...] = ()

    def config_kwargs(self) -> Dict[str, Any]:
        return dict(self.core_changes)


#: The tracked profile set: one per workload, covering the consistency
#: models and the scout/SLE machinery so every class handler is exercised.
DEFAULT_PROFILES: Tuple[BenchProfile, ...] = (
    BenchProfile("database_pc", "database"),
    BenchProfile("database_wc", "database", "wc"),
    BenchProfile(
        "tpcw_scout_hws2", "tpcw",
        core_changes=(
            ("scout", ScoutMode.HWS2),
            ("store_prefetch", StorePrefetchMode.NONE),
        ),
    ),
    BenchProfile(
        "specjbb_sle_pps", "specjbb", "pc_sle",
        core_changes=(("prefetch_past_serializing", True),),
    ),
    BenchProfile(
        "specweb_wc_sp2", "specweb", "wc",
        core_changes=(("store_prefetch", StorePrefetchMode.AT_EXECUTE),),
    ),
)


@dataclass
class _ProfileMeasurement:
    """Internal accumulator for one profile's timed runs."""

    profile: BenchProfile
    instructions: int = 0
    epochs: int = 0
    epi_per_1000: float = 0.0
    seconds: List[float] = field(default_factory=list)

    @property
    def median_seconds(self) -> float:
        return statistics.median(self.seconds)

    def to_dict(self) -> Dict[str, Any]:
        median = self.median_seconds
        return {
            "workload": self.profile.workload,
            "variant": self.profile.variant,
            "instructions": self.instructions,
            "epochs": self.epochs,
            "epi_per_1000": round(self.epi_per_1000, 9),
            "median_seconds": median,
            "min_seconds": min(self.seconds),
            "instructions_per_sec": self.instructions / median,
            "epochs_per_sec": self.epochs / median,
        }


def _geomean(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _backend_runner(backend: str, config, annotated):
    """A zero-arg callable executing one simulation on *backend*.

    The empty name and ``"reference"`` keep the pre-backend measurement
    loop byte-identical (one reused :class:`MlpSimulator`); other names go
    through :func:`repro.core.backend.resolve_backend`, whose built-ins
    cache per-trace skip tables so warmup repetitions absorb the one-time
    table build exactly like a long-lived sweep does.
    """
    if not backend or backend == "reference":
        simulator = MlpSimulator(config)
        return lambda: simulator.run(annotated)
    from ..core.backend import resolve_backend

    chosen = resolve_backend(backend)
    return lambda: chosen.simulate(config, annotated)


def run_core_bench(
    reps: int = 5,
    warmup_reps: int = 2,
    profiles: Sequence[BenchProfile] = DEFAULT_PROFILES,
    verbose: bool = False,
    backend: str = "",
) -> Dict[str, Any]:
    """Measure the core simulation loop and return the report dict.

    *reps* timed repetitions per profile (median reported) after
    *warmup_reps* untimed ones.  The annotated traces are built through a
    cache-less Workbench at the harness's fixed sizing, so the numbers are
    a pure function of the code under test and the host machine.
    *backend* measures a specific execution backend; the default keeps the
    historical reference-loop measurement.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    if warmup_reps < 0:
        raise ValueError("warmup_reps must be non-negative")

    bench = Workbench(
        ExperimentSettings(
            warmup=BENCH_WARMUP,
            measure=BENCH_MEASURE,
            seed=BENCH_SEED,
            calibrate=False,
        ),
        cache_dir=None,
    )
    measurements: List[_ProfileMeasurement] = []
    for profile in profiles:
        annotated = bench.annotated(profile.workload, profile.variant)
        config = bench.simulation_config(
            profile.workload, **profile.config_kwargs()
        )
        if profile.variant.startswith("wc"):
            from ..config import ConsistencyModel

            config = config.with_core(consistency=ConsistencyModel.WC)
        run_once = _backend_runner(backend, config, annotated)
        for _ in range(warmup_reps):
            run_once()
        measurement = _ProfileMeasurement(profile=profile)
        gc_was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for _ in range(reps):
                start = time.perf_counter()
                result = run_once()
                measurement.seconds.append(time.perf_counter() - start)
        finally:
            if gc_was_enabled:
                gc.enable()
        measurement.instructions = result.instructions
        measurement.epochs = result.epoch_count
        measurement.epi_per_1000 = result.epi_per_1000
        measurements.append(measurement)
        if verbose:
            row = measurement.to_dict()
            print(
                f"  {profile.name:20s} "
                f"{row['instructions_per_sec']:12.0f} insts/s "
                f"{row['epochs_per_sec']:10.1f} epochs/s "
                f"(median of {reps}: {row['median_seconds'] * 1e3:.2f} ms)"
            )

    per_profile = {m.profile.name: m.to_dict() for m in measurements}
    settings: Dict[str, Any] = {
        "warmup": BENCH_WARMUP,
        "measure": BENCH_MEASURE,
        "seed": BENCH_SEED,
        "reps": reps,
        "warmup_reps": warmup_reps,
    }
    if backend:
        settings["backend"] = backend
    return {
        "schema": SCHEMA_VERSION,
        "benchmark": "mlpsim-core",
        "settings": settings,
        "python": platform.python_version(),
        "profiles": per_profile,
        "aggregate": {
            "instructions_per_sec_geomean": _geomean(
                [row["instructions_per_sec"] for row in per_profile.values()]
            ),
            "epochs_per_sec_geomean": _geomean(
                [row["epochs_per_sec"] for row in per_profile.values()]
            ),
        },
    }


def run_backend_bench(
    reps: int = 5,
    warmup_reps: int = 2,
    backends: Optional[Sequence[str]] = None,
    profiles: Sequence[BenchProfile] = DEFAULT_PROFILES,
    verbose: bool = False,
) -> Dict[str, Any]:
    """Measure every execution backend over the tracked profile set.

    Runs :func:`run_core_bench` once per backend (defaulting to every
    registered backend) and reports per-backend profiles/aggregates plus
    geomean speedups relative to the ``reference`` section.
    """
    from ..core.backend import backend_names

    if backends is None:
        backends = sorted(backend_names(), key=lambda n: (n != "reference", n))
    sections: Dict[str, Dict[str, Any]] = {}
    for name in backends:
        if verbose:
            print(f"backend {name}:")
        report = run_core_bench(
            reps=reps, warmup_reps=warmup_reps, profiles=profiles,
            verbose=verbose, backend=name,
        )
        sections[name] = {
            "profiles": report["profiles"],
            "aggregate": report["aggregate"],
        }
    reference = sections.get("reference", {})
    ref_geo = reference.get("aggregate", {}).get(
        "instructions_per_sec_geomean"
    )
    speedups = {
        name: section["aggregate"]["instructions_per_sec_geomean"] / ref_geo
        for name, section in sections.items()
    } if ref_geo else {}
    return {
        "schema": SCHEMA_VERSION,
        "benchmark": "mlpsim-backends",
        "settings": {
            "warmup": BENCH_WARMUP,
            "measure": BENCH_MEASURE,
            "seed": BENCH_SEED,
            "reps": reps,
            "warmup_reps": warmup_reps,
        },
        "python": platform.python_version(),
        "backends": sections,
        "speedup_vs_reference_geomean": speedups,
    }


def check_backends_regression(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    max_regression: float = 0.20,
) -> List[str]:
    """The per-backend analogue of :func:`check_regression`.

    Each backend section carries the same ``profiles``/``aggregate`` shape
    as a core-bench report, so the per-profile and geomean thresholds are
    applied within every backend present in both reports.  Backends in only
    one report are ignored.
    """
    failures: List[str] = []
    for name, base_section in baseline.get("backends", {}).items():
        cur_section = current.get("backends", {}).get(name)
        if cur_section is None:
            continue
        failures.extend(
            f"{name}/{failure}"
            for failure in check_regression(
                cur_section, base_section, max_regression=max_regression,
            )
        )
    return failures


def write_report(report: Dict[str, Any], path: str | Path) -> Path:
    """Write *report* as stable, diff-friendly JSON; returns the path."""
    target = Path(path)
    target.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return target


def load_report(path: str | Path) -> Dict[str, Any]:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or (
        "profiles" not in data and "backends" not in data
    ):
        raise ValueError(f"{path} is not a perf-bench report")
    return data


def check_regression(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    max_regression: float = 0.20,
) -> List[str]:
    """Compare *current* against a committed *baseline* report.

    Returns a list of human-readable failures: one per profile whose
    instructions/sec fell more than *max_regression* below the baseline,
    plus one for the geometric mean.  An empty list means the run passed.
    Profiles present in only one report are ignored (the tracked set may
    grow over time).
    """
    if not 0.0 < max_regression < 1.0:
        raise ValueError("max_regression must be in (0, 1)")
    failures: List[str] = []
    floor = 1.0 - max_regression
    for name, base_row in baseline.get("profiles", {}).items():
        cur_row = current.get("profiles", {}).get(name)
        if cur_row is None:
            continue
        base_ips = base_row["instructions_per_sec"]
        cur_ips = cur_row["instructions_per_sec"]
        if cur_ips < base_ips * floor:
            failures.append(
                f"{name}: {cur_ips:.0f} insts/s is "
                f"{100 * (1 - cur_ips / base_ips):.1f}% below the committed "
                f"baseline ({base_ips:.0f} insts/s; allowed "
                f"{100 * max_regression:.0f}%)"
            )
    base_geo = baseline.get("aggregate", {}).get(
        "instructions_per_sec_geomean"
    )
    cur_geo = current.get("aggregate", {}).get("instructions_per_sec_geomean")
    if base_geo and cur_geo and cur_geo < base_geo * floor:
        failures.append(
            f"geomean: {cur_geo:.0f} insts/s is "
            f"{100 * (1 - cur_geo / base_geo):.1f}% below the committed "
            f"baseline ({base_geo:.0f} insts/s)"
        )
    return failures


def _backends_main(
    reps: int,
    warmup_reps: int,
    out: Optional[str],
    baseline: Optional[str],
    max_regression: float,
) -> int:
    """``mlpsim bench --perf --backend all``: the backend matrix report."""
    print(
        f"mlpsim backend bench: {BENCH_MEASURE} measured instructions, "
        f"seed {BENCH_SEED}, median of {reps} (+{warmup_reps} warmup)"
    )
    report = run_backend_bench(
        reps=reps, warmup_reps=warmup_reps, verbose=True,
    )
    for name, speedup in sorted(
        report["speedup_vs_reference_geomean"].items()
    ):
        geo = report["backends"][name]["aggregate"][
            "instructions_per_sec_geomean"
        ]
        print(
            f"  {name:12s} geomean {geo:12.0f} insts/s "
            f"({speedup:.2f}x vs reference)"
        )

    if baseline is not None:
        committed = load_report(baseline)
        failures = check_backends_regression(
            report, committed, max_regression=max_regression,
        )
        if failures:
            print("PERF REGRESSION:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print(
            f"  regression gate ok (tolerance {100 * max_regression:.0f}%)"
        )

    if out is not None:
        write_report(report, out)
        print(f"  wrote {out}")
    return 0


def main(
    reps: int = 5,
    warmup_reps: int = 2,
    out: Optional[str] = None,
    baseline: Optional[str] = None,
    max_regression: float = 0.20,
    keep_baseline: bool = True,
    backend: Optional[str] = None,
) -> int:
    """Drive one measurement: print, optionally persist and gate.

    When *out* names an existing report carrying a ``baseline`` section
    (the committed pre-optimization numbers), that section is preserved in
    the rewritten file (*keep_baseline*) so the speedup trail survives
    re-measurement.  *baseline* enables the regression gate against a
    committed report; a failure returns exit status 1.

    *backend* measures a single named execution backend, or ``"all"`` for
    the full backend comparison (written/gated as ``BENCH_backends.json``).
    """
    if backend == "all":
        return _backends_main(
            reps, warmup_reps, out, baseline, max_regression,
        )
    tag = f" [{backend}]" if backend else ""
    print(
        f"mlpsim core bench{tag}: {BENCH_MEASURE} measured instructions, "
        f"seed {BENCH_SEED}, median of {reps} (+{warmup_reps} warmup)"
    )
    report = run_core_bench(
        reps=reps, warmup_reps=warmup_reps, verbose=True,
        backend=backend or "",
    )
    geo = report["aggregate"]["instructions_per_sec_geomean"]
    print(f"  geomean: {geo:.0f} instructions/sec")

    if baseline is not None:
        committed = load_report(baseline)
        reference = committed
        base_geo = reference.get("aggregate", {}).get(
            "instructions_per_sec_geomean"
        )
        if base_geo:
            print(
                f"  vs committed {baseline}: {geo / base_geo:.2f}x geomean"
            )
        failures = check_regression(
            report, reference, max_regression=max_regression
        )
        if failures:
            print("PERF REGRESSION:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print(
            f"  regression gate ok (tolerance "
            f"{100 * max_regression:.0f}%)"
        )

    if out is not None:
        out_path = Path(out)
        if keep_baseline and out_path.exists():
            try:
                previous = load_report(out_path)
            except (ValueError, json.JSONDecodeError):
                previous = {}
            if "baseline" in previous:
                report["baseline"] = previous["baseline"]
                base_geo = report["baseline"]["aggregate"][
                    "instructions_per_sec_geomean"
                ]
                report["speedup_vs_baseline"] = geo / base_geo
        write_report(report, out_path)
        print(f"  wrote {out_path}")
    return 0
