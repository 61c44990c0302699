"""Parallel job runner for simulation batches.

.. deprecated:: entry point
   Constructing an :class:`EngineRunner` directly still works, but new
   code should go through :func:`repro.api.sweep`, which builds the runner
   and pairs the report back with its sweep grid.

A figure sweep is a batch of independent ``(workload, variant, core
configuration)`` jobs.  :class:`EngineRunner` executes such a batch across
worker processes (``concurrent.futures.ProcessPoolExecutor``) with a
per-job timeout and retry-once-on-failure, and returns a structured
:class:`RunReport` (per-job status, wall time, cache hit/miss counts).

Each worker process owns one :class:`~repro.harness.experiment.Workbench`
built from the same :class:`ExperimentSettings` and pointing at the same
persistent :class:`~repro.engine.cache.ArtifactCache` directory, so the
expensive calibrate → generate → annotate stages are computed once per
content key *across the whole pool* — the first worker to annotate a
variant publishes it; everyone else gets disk hits.  Simulation results are
deterministic functions of the (seeded) artifacts, so a parallel run
returns bit-identical numbers to a serial one.

``workers <= 1`` runs the batch serially in-process — same jobs, same
report shape — which is both the comparison baseline and the fallback on
platforms where process pools are unavailable.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
import traceback
from collections import Counter
from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    TimeoutError as FutureTimeoutError,
)
from dataclasses import dataclass, field, fields, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..config import MemoryConfig, SimulationConfig
from ..core.epoch import TerminationCondition
from ..core.results import SimulationResult
from ..core.window import WindowObserver
from ..errors import BatchFailedError, EngineConfigError
from ..obs.context import (
    correlation_id,
    parent_span_id,
    set_correlation_id,
    set_parent_span_id,
)
from ..obs.metrics import MetricsRegistry
from ..obs.options import ObsOptions
from ..obs.profile import PhaseProfiler
from ..obs.recorder import EpochTimelineRecorder
from ..obs.trace import Tracer
from ..workloads import WorkloadProfile
from . import serialize

if TYPE_CHECKING:  # break the harness <-> engine import cycle: the
    # harness builds on engine.cache, so the runner (which builds
    # Workbenches) resolves the harness lazily at call time.
    from ..harness.experiment import (
        ExperimentSettings,
        SharingSettings,
        Workbench,
    )

__all__ = [
    "BatchHandle",
    "EngineRunner",
    "EngineTelemetry",
    "JobResult",
    "JobSpec",
    "RunReport",
    "ShardedReport",
    "execute_job",
]


def _ensure_wire_types() -> None:
    """Importing the harness registers its wire-visible dataclasses
    (ExperimentSettings, SharingSettings) — needed before decoding specs
    that embed them."""
    from ..harness import experiment  # noqa: F401


@dataclass(frozen=True)
class JobSpec:
    """One unit of work: annotate and/or simulate one configuration.

    ``action`` is ``"simulate"`` (annotate through the cache, then run
    MLPsim, returning a :class:`SimulationResult`) or ``"annotate"`` (warm
    the artifact cache only, returning ``None``).  ``core_changes`` is a
    tuple of ``(field, value)`` pairs applied to the core configuration —
    the hashable form of a sweep grid point.

    The shard fields turn a simulate job into one segment of a sharded run
    (see :mod:`repro.shard`): ``shard_start``/``shard_stop`` bound the
    half-open trace span (``-1`` means the natural end), ``checkpoint_every``
    asks for a snapshot every K instructions so a failed attempt resumes
    instead of restarting, and ``fault`` arms a test-only fault injection
    (``"kill@M"``/``"corrupt@M"``).  All default to "off", keeping plain
    jobs byte-compatible with previously serialized specs.

    ``backend`` names the execution backend (``"reference"``, ``"event"``)
    the simulation runs on; ``""`` defers to ``$REPRO_BACKEND``
    and then the default.  Backends are bit-identical, so the field changes
    how the job executes, never what it returns.

    ``contexts``/``scheduler`` opt a simulate job into the SMT
    multi-context model (:mod:`repro.smt`): ``contexts`` hardware
    contexts run the workload mix named by ``workload`` (``"a+b"`` or a
    named mix) under the chosen scheduling policy, returning an
    :class:`repro.smt.SmtResult`.  The defaults — one context, no
    scheduler — keep the single-context path bit-identical to the
    reference backend and previously serialized specs decodable.
    """

    workload: str
    variant: str = "pc"
    action: str = "simulate"
    memory_config: Optional[MemoryConfig] = None
    sharing: Optional[SharingSettings] = None
    tag: str = ""
    config: Optional[SimulationConfig] = None
    core_changes: Tuple[Tuple[str, Any], ...] = ()
    label: str = ""
    shard_start: int = -1
    shard_stop: int = -1
    checkpoint_every: int = 0
    fault: str = ""
    backend: str = ""
    contexts: int = 1
    scheduler: str = ""

    @property
    def sharded(self) -> bool:
        """True when this spec runs through the shard execution path."""
        return self.action == "simulate" and (
            self.shard_start >= 0
            or self.shard_stop >= 0
            or self.checkpoint_every > 0
        )

    def effective_backend(self) -> str:
        """The backend name this spec will actually execute on."""
        from ..core.backend import BACKEND_ENV_VAR, DEFAULT_BACKEND

        return (
            self.backend
            or os.environ.get(BACKEND_ENV_VAR, "")
            or DEFAULT_BACKEND
        )

    def describe(self) -> str:
        if self.label:
            return self.label
        knobs = " ".join(
            f"{name}={getattr(value, 'value', value)}"
            for name, value in self.core_changes
        )
        head = f"{self.action}:{self.workload}/{self.variant}"
        if self.contexts > 1:
            head += f" x{self.contexts}"
            if self.scheduler:
                head += f"/{self.scheduler}"
        if self.shard_start >= 0 or self.shard_stop >= 0:
            lo = self.shard_start if self.shard_start >= 0 else 0
            hi = self.shard_stop if self.shard_stop >= 0 else ""
            head += f"[{lo}:{hi})"
        if self.backend:
            head += f" @{self.backend}"
        return f"{head} {knobs}".strip()

    def to_dict(self) -> Dict[str, Any]:
        """A plain-JSON rendering (see :mod:`repro.engine.serialize`)."""
        return serialize.to_jsonable(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        _ensure_wire_types()
        spec = serialize.from_jsonable(data)
        if not isinstance(spec, cls):
            raise serialize.SerializeError(
                f"expected a JobSpec payload, decoded {type(spec).__name__}"
            )
        return spec

    @classmethod
    def coerce(cls, job: Any) -> "JobSpec":
        """Normalize a JobSpec-shaped input into a :class:`JobSpec`.

        The shared input convention of ``api.run`` and
        ``ServiceClient.submit_simulate``: a :class:`JobSpec` passes
        through, a workload name becomes a default spec, and a mapping is
        validated field-by-field — unknown keys raise ``ValueError``
        listing the valid field names (the ``valid_axes()`` error style),
        and a ``core_changes`` mapping is coerced through the sweep axes
        so enum spellings like ``"sp2"`` work everywhere.
        """
        if isinstance(job, cls):
            return job
        if isinstance(job, str):
            return cls(workload=job)
        if not isinstance(job, Mapping):
            raise TypeError(
                f"expected a JobSpec, workload name or mapping, got "
                f"{type(job).__name__}"
            )
        data = dict(job)
        valid = tuple(f.name for f in fields(cls))
        unknown = sorted(set(data) - set(valid))
        if unknown:
            raise ValueError(
                f"unknown job field{'s' if len(unknown) > 1 else ''} "
                f"{', '.join(repr(name) for name in unknown)}; valid "
                f"fields: {', '.join(valid)}"
            )
        changes = data.get("core_changes")
        if changes is not None:
            from ..harness.sweeps import coerce_axis_value

            items = (
                changes.items() if isinstance(changes, Mapping)
                else tuple(changes)
            )
            data["core_changes"] = tuple(sorted(
                (name, coerce_axis_value(name, value))
                for name, value in items
            ))
        if "contexts" in data:
            contexts = data["contexts"]
            if isinstance(contexts, str):
                try:
                    contexts = int(contexts)
                except ValueError:
                    contexts = -1
            if not isinstance(contexts, int) or isinstance(contexts, bool) \
                    or contexts < 1:
                raise ValueError(
                    f"bad value {data['contexts']!r} for 'contexts': "
                    f"expected an integer >= 1"
                )
            data["contexts"] = contexts
        if data.get("scheduler"):
            from ..smt.schedulers import resolve_scheduler

            # Resolution validates the name; unknown policies raise a
            # ValueError listing the valid schedulers (valid_axes style).
            resolve_scheduler(data["scheduler"])
        return cls(**data)


@dataclass
class JobResult:
    """Outcome of one job.

    For sharded/checkpointed jobs the extra fields record recovery
    behaviour: ``resumed_pos`` is the absolute trace position the attempt
    restarted from (``-1`` = fresh start), ``checkpoints_written`` counts
    snapshots persisted by this attempt, and ``checkpoint_token`` is the
    cache key ``mlpsim resume`` accepts.
    """

    spec: JobSpec
    status: str  # "ok" | "failed" | "timeout"
    result: Optional[SimulationResult] = None
    error: str = ""
    attempts: int = 1
    wall_time: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    resumed_pos: int = -1
    checkpoints_written: int = 0
    checkpoint_token: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> Dict[str, Any]:
        """A plain-JSON rendering, simulation result included."""
        return serialize.to_jsonable(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobResult":
        _ensure_wire_types()
        result = serialize.from_jsonable(data)
        if not isinstance(result, cls):
            raise serialize.SerializeError(
                f"expected a JobResult payload, decoded {type(result).__name__}"
            )
        return result


@dataclass
class RunReport:
    """Structured account of one batch execution."""

    jobs: List[JobResult] = field(default_factory=list)
    wall_time: float = 0.0
    workers: int = 1

    @property
    def ok_count(self) -> int:
        return sum(1 for job in self.jobs if job.ok)

    @property
    def failed(self) -> List[JobResult]:
        return [job for job in self.jobs if not job.ok]

    @property
    def cache_hits(self) -> int:
        return sum(job.cache_hits for job in self.jobs)

    @property
    def cache_misses(self) -> int:
        return sum(job.cache_misses for job in self.jobs)

    def results(self) -> List[Optional[SimulationResult]]:
        """Per-job simulation results, in submission order."""
        return [job.result for job in self.jobs]

    def raise_on_failure(self) -> None:
        bad = self.failed
        if bad:
            details = "; ".join(
                f"{job.spec.describe()}: [{job.status}] {job.error}"
                for job in bad[:3]
            )
            raise BatchFailedError(
                f"{len(bad)}/{len(self.jobs)} jobs failed: {details}"
            )

    def summary(self) -> str:
        return (
            f"{self.ok_count}/{len(self.jobs)} jobs ok "
            f"({len(self.failed)} failed) in {self.wall_time:.2f}s "
            f"across {self.workers} worker(s); "
            f"artifact cache: {self.cache_hits} hits / "
            f"{self.cache_misses} misses"
        )

    def to_dict(self) -> Dict[str, Any]:
        """A plain-JSON rendering of the whole batch outcome."""
        return serialize.to_jsonable(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunReport":
        _ensure_wire_types()
        report = serialize.from_jsonable(data)
        if not isinstance(report, cls):
            raise serialize.SerializeError(
                f"expected a RunReport payload, decoded {type(report).__name__}"
            )
        return report


@dataclass
class ShardedReport:
    """Outcome of one sharded execution (:meth:`EngineRunner.run_sharded`).

    ``jobs`` holds the final :class:`JobResult` per shard in trace order
    (the last attempt when a shard was retried); ``rounds`` counts
    execution rounds (1 = no shard needed a retry); ``merged`` is the
    exact whole-run :class:`SimulationResult` when every shard succeeded,
    ``None`` otherwise.
    """

    spec: JobSpec
    plan: Any  # repro.shard.plan.ShardPlan
    jobs: List[JobResult] = field(default_factory=list)
    rounds: int = 1
    wall_time: float = 0.0
    workers: int = 1
    merged: Optional[SimulationResult] = None

    @property
    def ok(self) -> bool:
        return self.merged is not None

    @property
    def failed(self) -> List[JobResult]:
        return [job for job in self.jobs if not job.ok]

    @property
    def resumed_shards(self) -> int:
        return sum(1 for job in self.jobs if job.resumed_pos >= 0)

    @property
    def checkpoints_written(self) -> int:
        return sum(job.checkpoints_written for job in self.jobs)

    def raise_on_failure(self) -> None:
        bad = self.failed
        if bad:
            details = "; ".join(
                f"{job.spec.describe()}: [{job.status}] {job.error}"
                for job in bad[:3]
            )
            raise BatchFailedError(
                f"{len(bad)}/{len(self.jobs)} shards failed after "
                f"{self.rounds} round(s): {details}"
            )

    def summary(self) -> str:
        state = "merged ok" if self.ok else f"{len(self.failed)} shard(s) failed"
        return (
            f"{len(self.jobs)} shard(s) in {self.rounds} round(s), {state}; "
            f"{self.resumed_shards} resumed from checkpoints, "
            f"{self.checkpoints_written} checkpoint(s) written; "
            f"{self.wall_time:.2f}s across {self.workers} worker(s)"
        )

    def to_dict(self) -> Dict[str, Any]:
        """A plain-JSON rendering of the sharded outcome."""
        return serialize.to_jsonable(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ShardedReport":
        _ensure_wire_types()
        import repro.shard  # registers ShardPlan on the wire  # noqa: F401
        report = serialize.from_jsonable(data)
        if not isinstance(report, cls):
            raise serialize.SerializeError(
                f"expected a ShardedReport payload, decoded "
                f"{type(report).__name__}"
            )
        return report


# ------------------------------------------------------------- telemetry --


class EngineTelemetry:
    """Cross-batch engine + simulation activity, for ``/metrics``.

    One instance per :class:`EngineRunner`; :meth:`record_report` folds
    every finished batch in (under a lock — batches resolve on their own
    threads), :meth:`register_metrics` exposes the aggregates as gauges so
    the service's ``/metrics`` endpoint reports the whole stack, not just
    HTTP-level counters.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.batches = 0
        self.jobs_ok = 0
        self.jobs_failed = 0
        self.jobs_timeout = 0
        self.job_retries = 0
        self.jobs_active = 0
        self.sharded_runs = 0
        self.shard_rounds = 0
        self.checkpoints_written = 0
        self.shard_resumes = 0
        self.sim_epochs = 0
        self.sim_instructions = 0
        self.sb_occupancy_hwm = 0
        self.sq_occupancy_hwm = 0
        self.termination_counts: Counter = Counter()
        #: simulate jobs and instructions by effective execution backend.
        self.backend_jobs: Counter = Counter()
        self.backend_instructions: Counter = Counter()

    def batch_started(self, jobs: int) -> None:
        with self._lock:
            self.jobs_active += jobs

    def record_report(self, report: "RunReport") -> None:
        with self._lock:
            self.batches += 1
            self.jobs_active = max(0, self.jobs_active - len(report.jobs))
            for job in report.jobs:
                if job.status == "ok":
                    self.jobs_ok += 1
                elif job.status == "timeout":
                    self.jobs_timeout += 1
                else:
                    self.jobs_failed += 1
                self.job_retries += max(0, job.attempts - 1)
                self.checkpoints_written += job.checkpoints_written
                if job.resumed_pos >= 0:
                    self.shard_resumes += 1
                result = job.result
                if result is None:
                    continue
                backend = job.spec.effective_backend()
                self.backend_jobs[backend] += 1
                self.backend_instructions[backend] += result.instructions
                self.sim_epochs += result.epoch_count
                self.sim_instructions += result.instructions
                if result.sb_occupancy_hwm > self.sb_occupancy_hwm:
                    self.sb_occupancy_hwm = result.sb_occupancy_hwm
                if result.sq_occupancy_hwm > self.sq_occupancy_hwm:
                    self.sq_occupancy_hwm = result.sq_occupancy_hwm
                for cond, count in result.termination_histogram().items():
                    if cond is not None:
                        self.termination_counts[cond.value] += count

    def totals(self) -> Dict[str, float]:
        """Cumulative counters as a flat dict (the federation payload).

        Fleet workers piggyback this on heartbeats; the coordinator
        republishes each entry as ``fleet_worker_<name>{worker=...}`` plus
        a fleet-wide total (:mod:`repro.fleet.federation`).
        """
        with self._lock:
            return {
                "engine_batches_total": float(self.batches),
                "engine_jobs_ok_total": float(self.jobs_ok),
                "engine_jobs_failed_total": float(self.jobs_failed),
                "engine_jobs_timeout_total": float(self.jobs_timeout),
                "engine_job_retries_total": float(self.job_retries),
                "shard_checkpoints_written_total": float(
                    self.checkpoints_written
                ),
                "shard_resumes_total": float(self.shard_resumes),
                "sim_epochs_total": float(self.sim_epochs),
                "sim_instructions_total": float(self.sim_instructions),
            }

    def epochs_per_1k_insts(self) -> float:
        with self._lock:
            if not self.sim_instructions:
                return 0.0
            return 1000.0 * self.sim_epochs / self.sim_instructions

    def register_metrics(
        self, registry: MetricsRegistry, workers: int = 1,
    ) -> None:
        """Expose engine-level and simulation-level gauges on *registry*."""
        registry.gauge(
            "engine_batches_total", lambda: self.batches,
            help="engine batches executed",
        )
        registry.gauge(
            "engine_jobs_ok_total", lambda: self.jobs_ok,
            help="engine jobs that completed successfully",
        )
        registry.gauge(
            "engine_jobs_failed_total", lambda: self.jobs_failed,
            help="engine jobs that failed after retries",
        )
        registry.gauge(
            "engine_jobs_timeout_total", lambda: self.jobs_timeout,
            help="engine jobs abandoned on timeout",
        )
        registry.gauge(
            "engine_job_retries_total", lambda: self.job_retries,
            help="failed engine job attempts that were resubmitted",
        )
        registry.gauge(
            "engine_jobs_active", lambda: self.jobs_active,
            help="jobs currently submitted to in-flight batches",
        )
        registry.gauge(
            "engine_worker_utilization",
            lambda: min(1.0, self.jobs_active / workers) if workers else 0.0,
            help="fraction of the worker pool busy with active jobs",
        )
        registry.gauge(
            "engine_sharded_runs_total", lambda: self.sharded_runs,
            help="sharded executions completed or abandoned",
        )
        registry.gauge(
            "engine_shard_rounds_total", lambda: self.shard_rounds,
            help="shard execution rounds (retries add rounds)",
        )
        registry.gauge(
            "engine_checkpoints_written_total",
            lambda: self.checkpoints_written,
            help="simulator checkpoints persisted to the artifact cache",
        )
        registry.gauge(
            "engine_shard_resumes_total", lambda: self.shard_resumes,
            help="shard attempts that resumed from a checkpoint",
        )
        registry.gauge(
            "sim_epochs_total", lambda: self.sim_epochs,
            help="epochs committed across all simulator runs",
        )
        registry.gauge(
            "sim_instructions_total", lambda: self.sim_instructions,
            help="instructions simulated across all runs",
        )
        registry.gauge(
            "sim_epochs_per_1k_insts", self.epochs_per_1k_insts,
            help="aggregate epochs per 1000 simulated instructions",
        )
        registry.gauge(
            "sim_sb_occupancy_hwm", lambda: self.sb_occupancy_hwm,
            help="store-buffer occupancy high-water mark across runs",
        )
        registry.gauge(
            "sim_sq_occupancy_hwm", lambda: self.sq_occupancy_hwm,
            help="store-queue occupancy high-water mark across runs",
        )
        for cond in TerminationCondition:
            registry.gauge(
                f"sim_terminations_{cond.name.lower()}",
                lambda c=cond.value: self.termination_counts.get(c, 0),
                help=f"epochs terminated by {cond.value}",
            )
        from ..core.backend import backend_names

        for name in backend_names():
            registry.gauge(
                f"sim_backend_{name}_jobs_total",
                lambda n=name: self.backend_jobs.get(n, 0),
                help=f"simulate jobs executed on the {name} backend",
            )
            registry.gauge(
                f"sim_backend_{name}_instructions_total",
                lambda n=name: self.backend_instructions.get(n, 0),
                help=f"instructions simulated on the {name} backend",
            )


# ---------------------------------------------------------------- worker --

#: One Workbench per worker process, built by the pool initializer; the
#: obs state (options, per-process tracer, phase profiler) rides along.
_WORKER_BENCH: Optional[Workbench] = None
_WORKER_OBS: Optional[ObsOptions] = None
_WORKER_TRACER: Optional[Tracer] = None
_WORKER_PROFILER: Optional[PhaseProfiler] = None


def _build_bench(
    settings: "ExperimentSettings",
    cache_dir: Any,
    profiles: Dict[str, WorkloadProfile],
) -> "Workbench":
    from ..harness.experiment import Workbench

    bench = Workbench(settings, cache_dir=cache_dir)
    for name, profile in profiles.items():
        bench.set_profile(name, profile)
    return bench


def _init_worker(
    settings: ExperimentSettings,
    cache_dir: Any,
    profiles: Dict[str, WorkloadProfile],
    obs: Optional[ObsOptions] = None,
    corr: str = "",
    parent_span: str = "",
) -> None:
    global _WORKER_BENCH, _WORKER_OBS, _WORKER_TRACER, _WORKER_PROFILER
    _WORKER_BENCH = _build_bench(settings, cache_dir, profiles)
    _WORKER_OBS = obs
    if corr:
        # Correlation IDs are contextvars and do not cross the process
        # boundary on their own; the parent snapshots its value into the
        # initargs so worker-side trace events still tie back to the job.
        set_correlation_id(corr)
    if parent_span:
        # Same for the cross-process parent span: installing it makes the
        # worker's root spans children of the parent's batch span, so a
        # fleet job's spans join into one tree across processes.
        set_parent_span_id(parent_span)
    if obs is not None:
        _WORKER_TRACER = obs.open_tracer()
        if obs.profile_phases:
            _WORKER_PROFILER = PhaseProfiler(
                sample_rate=obs.sample_rate, tracer=_WORKER_TRACER,
            )


def execute_job(
    bench: Workbench,
    spec: JobSpec,
    observer: Optional[WindowObserver] = None,
    profiler: Optional[PhaseProfiler] = None,
    tracer: Optional[Tracer] = None,
) -> Optional[SimulationResult]:
    """Run one job against *bench* (shared by the serial and worker paths).

    Sharded/checkpointed simulate specs (``spec.sharded``) return a
    :class:`repro.shard.execute.ShardOutcome` instead of a bare result —
    :func:`_run_job` unpacks it into the job payload.
    """
    if spec.contexts > 1:
        if spec.sharded:
            raise EngineConfigError(
                "multi-context (SMT) jobs cannot be sharded or "
                "checkpointed; run with contexts=1 or drop the shard "
                "options"
            )
        from ..smt import run_smt

        if profiler is not None:
            with profiler.phase("simulate"):
                return run_smt(
                    bench, spec.workload,
                    contexts=spec.contexts, scheduler=spec.scheduler,
                    variant=spec.variant, memory_config=spec.memory_config,
                    sharing=spec.sharing, tag=spec.tag, config=spec.config,
                    **dict(spec.core_changes),
                )
        return run_smt(
            bench, spec.workload,
            contexts=spec.contexts, scheduler=spec.scheduler,
            variant=spec.variant, memory_config=spec.memory_config,
            sharing=spec.sharing, tag=spec.tag, config=spec.config,
            **dict(spec.core_changes),
        )
    if spec.sharded:
        from ..shard.execute import run_shard_job

        return run_shard_job(
            bench, spec, observer=observer, profiler=profiler, tracer=tracer,
        )
    if spec.action == "annotate":
        if profiler is not None:
            with profiler.phase("annotate"):
                bench.annotated(
                    spec.workload, spec.variant, spec.memory_config,
                    spec.sharing, spec.tag,
                )
        else:
            bench.annotated(
                spec.workload, spec.variant, spec.memory_config,
                spec.sharing, spec.tag,
            )
        return None
    if spec.action == "simulate":
        if profiler is not None:
            with profiler.phase("simulate"):
                return bench.run(
                    spec.workload,
                    variant=spec.variant,
                    memory_config=spec.memory_config,
                    sharing=spec.sharing,
                    tag=spec.tag,
                    config=spec.config,
                    observer=observer,
                    backend=spec.backend or None,
                    **dict(spec.core_changes),
                )
        return bench.run(
            spec.workload,
            variant=spec.variant,
            memory_config=spec.memory_config,
            sharing=spec.sharing,
            tag=spec.tag,
            config=spec.config,
            observer=observer,
            backend=spec.backend or None,
            **dict(spec.core_changes),
        )
    raise EngineConfigError(f"unknown job action {spec.action!r}")


def _run_job(
    bench: Workbench,
    spec: JobSpec,
    obs: Optional[ObsOptions] = None,
    tracer: Optional[Tracer] = None,
    profiler: Optional[PhaseProfiler] = None,
) -> Dict[str, Any]:
    """Execute one job, capturing status, timing and cache deltas."""
    observer: Optional[WindowObserver] = None
    if (
        tracer is not None
        and obs is not None
        and obs.trace_epochs
        and spec.action == "simulate"
    ):
        observer = EpochTimelineRecorder(tracer, label=spec.describe())
    span = (
        tracer.span(
            "job", job=spec.describe(), backend=spec.effective_backend(),
        )
        if tracer is not None else None
    )
    start = time.perf_counter()
    hits_before, misses_before = bench.artifacts.stats.snapshot()
    shard_meta: Dict[str, Any] = {}
    try:
        result = execute_job(
            bench, spec, observer=observer, profiler=profiler, tracer=tracer,
        )
        if spec.sharded and result is not None:
            outcome = result
            result = outcome.result
            shard_meta = {
                "resumed_pos": outcome.resumed_pos,
                "checkpoints_written": outcome.checkpoints_written,
                "checkpoint_token": outcome.checkpoint_token,
            }
        status, error = "ok", ""
    except Exception as exc:  # reported per-job, never crashes the batch
        result = None
        status = "failed"
        error = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
    finally:
        if span is not None:
            span.__exit__()
    hits_after, misses_after = bench.artifacts.stats.snapshot()
    return {
        "status": status,
        "result": result,
        "error": error,
        "wall_time": time.perf_counter() - start,
        "cache_hits": hits_after - hits_before,
        "cache_misses": misses_after - misses_before,
        **shard_meta,
    }


def _run_job_in_worker(spec: JobSpec) -> Dict[str, Any]:
    assert _WORKER_BENCH is not None, "worker initializer did not run"
    return _run_job(
        _WORKER_BENCH, spec,
        obs=_WORKER_OBS, tracer=_WORKER_TRACER, profiler=_WORKER_PROFILER,
    )


# ---------------------------------------------------------------- runner --


class BatchHandle:
    """A non-blocking handle on one in-flight :meth:`EngineRunner.submit_batch`.

    The batch runs on a daemon thread; ``result()`` blocks until the report
    is ready (re-raising any batch-level failure), ``done()`` polls.  An
    optional callback fires with the resolved handle on the batch thread
    once it completes — the hook the service dispatcher builds on.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self._report: Optional[RunReport] = None
        self._error: Optional[BaseException] = None

    def _finish(
        self,
        report: Optional[RunReport],
        error: Optional[BaseException],
        callback: Optional[Callable[["BatchHandle"], None]],
    ) -> None:
        self._report = report
        self._error = error
        self._event.set()
        if callback is not None:
            callback(self)

    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._event.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> RunReport:
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"batch did not complete within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._report is not None
        return self._report


class EngineRunner:
    """Executes batches of :class:`JobSpec` with caching and parallelism.

    Parameters
    ----------
    settings:
        Trace sizing/seeding shared by every job's Workbench.
    cache_dir:
        Artifact cache directory convention (see
        :func:`repro.engine.cache.resolve_cache_dir`).  Workers share it;
        ``None`` still works but each process recomputes its artifacts.
    profiles:
        Custom workload profiles (e.g. the SMAC-scaled variants) installed
        into every worker's Workbench via ``set_profile``.
    workers:
        Process count.  ``None`` picks ``min(4, cpu_count)``; ``<= 1`` runs
        serially in-process.
    job_timeout:
        Seconds allowed per job once the collector starts waiting on it.
        Timed-out jobs are reported as ``"timeout"`` and not retried (the
        worker cannot be interrupted mid-simulation).
    retries:
        How many times a *failed* job is resubmitted (default once).
    obs:
        :class:`~repro.obs.options.ObsOptions` for the batch: when tracing
        is enabled every process (this one on the serial path, each pool
        worker on the parallel path) writes its own
        ``trace-<pid>.jsonl`` under ``obs.trace_dir`` and every simulate
        job runs with an :class:`~repro.obs.recorder.EpochTimelineRecorder`
        attached.  ``None`` (the default) keeps the zero-overhead path.
    """

    def __init__(
        self,
        settings: ExperimentSettings | None = None,
        cache_dir: Any = "auto",
        profiles: Dict[str, WorkloadProfile] | None = None,
        workers: int | None = None,
        job_timeout: float = 600.0,
        retries: int = 1,
        obs: Optional[ObsOptions] = None,
    ) -> None:
        if workers is None:
            workers = min(4, os.cpu_count() or 1)
        if job_timeout <= 0:
            raise EngineConfigError("job_timeout must be positive")
        if retries < 0:
            raise EngineConfigError("retries must be non-negative")
        from ..harness.experiment import ExperimentSettings

        self.settings = settings or ExperimentSettings()
        self.cache_dir = cache_dir
        self.profiles = dict(profiles or {})
        self.workers = workers
        self.job_timeout = job_timeout
        self.retries = retries
        self.obs = obs
        self.telemetry = EngineTelemetry()
        #: Reused across serial batches so a long-lived caller (the service
        #: dispatcher) keeps its in-memory artifact tier warm between jobs.
        self._serial_bench: Optional[Workbench] = None
        #: This process's tracer/profiler (serial batches and batch-level
        #: spans); opened lazily so an obs-less runner never touches disk.
        self._tracer: Optional[Tracer] = None
        self._profiler: Optional[PhaseProfiler] = None

    def _obs_tracer(self) -> Optional[Tracer]:
        if self.obs is None:
            return None
        if self._tracer is None and self.obs.trace_dir is not None:
            self._tracer = self.obs.open_tracer()
            if self.obs.profile_phases:
                self._profiler = PhaseProfiler(
                    sample_rate=self.obs.sample_rate, tracer=self._tracer,
                )
        return self._tracer

    def run(self, jobs: Sequence[JobSpec]) -> RunReport:
        """Execute *jobs*, returning per-job results in submission order."""
        specs = list(jobs)
        start = time.perf_counter()
        self.telemetry.batch_started(len(specs))
        tracer = self._obs_tracer()
        span = (
            tracer.span("engine_batch", jobs=len(specs))
            if tracer is not None else None
        )
        try:
            if self.workers <= 1 or len(specs) <= 1:
                results = self._run_serial(specs)
                workers = 1
            else:
                results = self._run_parallel(specs)
                workers = min(self.workers, len(specs))
        finally:
            if span is not None:
                span.__exit__()
        report = RunReport(
            jobs=results,
            wall_time=time.perf_counter() - start,
            workers=workers,
        )
        self.telemetry.record_report(report)
        return report

    def submit_batch(
        self,
        jobs: Sequence[JobSpec],
        callback: Optional[Callable[[BatchHandle], None]] = None,
    ) -> BatchHandle:
        """Start *jobs* on a background thread and return immediately.

        The returned :class:`BatchHandle` resolves to the same
        :class:`RunReport` a blocking :meth:`run` would produce; *callback*
        (if given) is invoked with the handle when the batch finishes, on
        the batch thread.
        """
        specs = list(jobs)
        handle = BatchHandle()
        # Snapshot the submitter's context so the batch thread (and, via
        # pool initargs, the workers) inherit the correlation ID the
        # dispatcher set for this job.
        context = contextvars.copy_context()

        def _drive() -> None:
            try:
                report = self.run(specs)
            except BaseException as exc:  # surfaced via handle.result()
                handle._finish(None, exc, callback)
            else:
                handle._finish(report, None, callback)

        thread = threading.Thread(
            target=lambda: context.run(_drive),
            name="engine-batch", daemon=True,
        )
        thread.start()
        return handle

    # ------------------------------------------------------------- sharded --

    def _planning_bench(self) -> "Workbench":
        """The in-process Workbench used for planning (and serial runs)."""
        if self._serial_bench is None:
            self._serial_bench = _build_bench(
                self.settings, self.cache_dir, self.profiles,
            )
        return self._serial_bench

    def run_sharded(
        self,
        spec: JobSpec,
        shards: int,
        checkpoint_every: int = 0,
        plan: Any = None,
    ) -> "ShardedReport":
        """Execute one simulate job as a fault-tolerant sharded run.

        The trace is segmented at probed quiescent boundaries (*plan*, or
        :func:`repro.shard.execute.shard_plan_for` if omitted), the shards
        fan out across the worker pool as independent jobs, and the
        per-shard results merge into a result bit-identical to an unsharded
        run.  Failed shards are retried in follow-up rounds (up to
        ``retries`` extra rounds) with a **fresh pool** — the recovery path
        for a worker process dying mid-shard, which breaks the whole pool —
        and, when ``checkpoint_every > 0``, each retry resumes from the
        shard's last persisted checkpoint instead of recomputing.
        Shards that already succeeded are never re-run, and each shard's
        ``attempts`` counts its tries across every round.
        """
        from ..shard.execute import shard_plan_for
        from ..shard.merge import merge_results

        if spec.action != "simulate":
            raise EngineConfigError(
                f"only simulate jobs can be sharded, not {spec.action!r}"
            )
        if shards < 1:
            raise EngineConfigError(f"shard count must be >= 1, got {shards}")
        start_time = time.perf_counter()
        if plan is None:
            plan = shard_plan_for(self._planning_bench(), spec, shards)
        base = spec.describe()
        shard_specs = [
            replace(
                spec,
                shard_start=lo,
                shard_stop=hi,
                checkpoint_every=checkpoint_every,
                label=f"{base} shard[{lo}:{hi})",
            )
            for lo, hi in plan.shards
        ]
        final: Dict[int, JobResult] = {}
        pending = list(range(len(shard_specs)))
        rounds = 0
        while pending:
            rounds += 1
            report = self.run([shard_specs[i] for i in pending])
            still_failed = []
            for index, job in zip(pending, report.jobs):
                # A shard's attempts accumulate across rounds, so one that
                # resumed in a later round reports every try it took.
                if index in final:
                    job.attempts += final[index].attempts
                final[index] = job
                if not job.ok:
                    still_failed.append(index)
            pending = still_failed
            if pending and rounds > self.retries:
                break
        jobs = [final[i] for i in range(len(shard_specs))]
        merged: Optional[SimulationResult] = None
        if not pending:
            merged = merge_results([job.result for job in jobs])
        with self.telemetry._lock:
            self.telemetry.sharded_runs += 1
            self.telemetry.shard_rounds += rounds
        return ShardedReport(
            spec=spec,
            plan=plan,
            jobs=jobs,
            rounds=rounds,
            wall_time=time.perf_counter() - start_time,
            workers=self.workers,
            merged=merged,
        )

    # -------------------------------------------------------------- serial --

    def _run_serial(self, specs: List[JobSpec]) -> List[JobResult]:
        bench = self._planning_bench()
        tracer = self._obs_tracer()
        out: List[JobResult] = []
        for spec in specs:
            attempts = 0
            while True:
                attempts += 1
                payload = _run_job(
                    bench, spec,
                    obs=self.obs, tracer=tracer, profiler=self._profiler,
                )
                if payload["status"] == "ok" or attempts > self.retries:
                    break
            out.append(JobResult(spec=spec, attempts=attempts, **payload))
        return out

    # ------------------------------------------------------------ parallel --

    def _run_parallel(self, specs: List[JobSpec]) -> List[JobResult]:
        # A fresh pool is created per batch, so the initargs can carry the
        # batch's correlation ID — and the enclosing span (the batch span
        # when tracing, else any inherited cross-process parent) — into
        # every worker process.
        parent = (
            self._tracer._current_span()
            if self._tracer is not None
            else parent_span_id()
        )
        initargs = (
            self.settings, self.cache_dir, self.profiles,
            self.obs, correlation_id(), parent,
        )
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(specs)),
            initializer=_init_worker,
            initargs=initargs,
        ) as pool:
            futures = [pool.submit(_run_job_in_worker, spec) for spec in specs]
            return [
                self._collect(pool, spec, future)
                for spec, future in zip(specs, futures)
            ]

    def _collect(
        self,
        pool: ProcessPoolExecutor,
        spec: JobSpec,
        future: "Future[Dict[str, Any]]",
    ) -> JobResult:
        """Await one job, retrying failures up to ``retries`` times."""
        attempts = 1
        while True:
            try:
                payload = future.result(timeout=self.job_timeout)
            except FutureTimeoutError:
                future.cancel()
                return JobResult(
                    spec=spec,
                    status="timeout",
                    error=f"no result within {self.job_timeout:.0f}s",
                    attempts=attempts,
                    wall_time=self.job_timeout,
                )
            except Exception as exc:  # e.g. BrokenProcessPool
                payload = {
                    "status": "failed",
                    "result": None,
                    "error": f"{type(exc).__name__}: {exc}",
                    "wall_time": 0.0,
                    "cache_hits": 0,
                    "cache_misses": 0,
                }
            if payload["status"] == "ok" or attempts > self.retries:
                return JobResult(spec=spec, attempts=attempts, **payload)
            attempts += 1
            try:
                future = pool.submit(_run_job_in_worker, spec)
            except Exception as exc:  # pool already broken: give up
                payload["error"] += f" (retry unavailable: {exc})"
                return JobResult(spec=spec, attempts=attempts, **payload)


serialize.register(JobSpec, JobResult, RunReport, ShardedReport)
