"""The unified entry point for running, sweeping and remoting simulations.

Three execution surfaces accreted as the codebase grew — the serial
:class:`~repro.harness.experiment.Workbench`, the process-pool
:class:`~repro.engine.runner.EngineRunner` and the HTTP
:class:`~repro.service.client.ServiceClient` — each with its own
construction ritual.  This module is the single documented front door over
all three:

- :func:`run` — one simulation, one result::

      from repro import api

      result = api.run("database", store_prefetch="sp2")
      print(result.epi_per_1000)

- :func:`sweep` — a configuration grid, executed in parallel through the
  engine's worker pool with artifact caching::

      spec = api.SweepSpec.build(
          "database", store_queue=[16, 32, 64],
          store_prefetch=["sp0", "sp1", "sp2"],
      )
      records = api.sweep(spec)
      best = min(records, key=lambda r: r.epi_per_1000)

- :func:`tune` — search the design space instead of sweeping it: three
  seeded strategies (grid/random/genetic) with analytical pruning,
  cached deduplication and resumable state::

      result = api.tune(
          {"store_queue": [16, 32, 64], "scout": ["none", "hws2"]},
          profile="database", strategy="genetic", budget=12, seed=7,
      )
      print(result.best_knobs, result.best_epi_per_1000)

- :func:`estimate` — the analytical EPI prediction behind ``mlpsim
  estimate``: no trace read, no simulation run, sub-millisecond::

      guess = api.estimate("database", scout="hws2")
      print(guess.predicted_epi_per_1000)

- :func:`connect` — the same verbs against a running service daemon::

      client = api.connect("http://127.0.0.1:8137")
      receipt = client.submit_sweep("database", store_queue=[16, 32])
      report = client.result(receipt["id"])

:func:`run`, :func:`sweep` (via the ``contexts``/``scheduler`` axes),
:func:`tune` and :func:`estimate` all accept the SMT axis: ``contexts=N``
runs N hardware contexts over one shared memory system and returns a
:class:`~repro.smt.results.SmtResult` with per-context breakdowns plus
STP/ANTT/fairness aggregates; ``scheduler=`` picks the thread-scheduling
policy (``round_robin``, ``icount``, ``mlp``)::

    smt = api.run("oltp_java", contexts=2, scheduler="mlp")
    print(smt.stp, smt.antt, smt.contexts[0].epi_per_1000)

:func:`workbench` constructs the underlying serial workbench for repeated
interactive runs that should share one annotated-trace cache.

Since v2.0 this module (plus the ``mlpsim`` CLI and the service protocol)
is the *only supported entry-point surface*: the deprecated aliases
(``repro.Workbench``, ``repro.harness.Workbench``,
``repro.harness.sweeps.sweep``/``sweep_workloads``, the
``repro.service.metrics`` shim) have been removed per the DESIGN.md
timeline.  The underlying classes are still importable from their
canonical homes (``repro.harness.experiment.Workbench`` et al.) for
extension and testing.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, List, Mapping, Optional, Union

from .config import SimulationConfig
from .core.results import SimulationResult
from .estimate import EpiEstimate, estimate
from .engine.cache import ArtifactCache, resolve_cache_dir
from .engine.runner import (
    EngineRunner,
    JobResult,
    JobSpec,
    RunReport,
    ShardedReport,
)
from .harness.experiment import ExperimentSettings, Workbench
from .harness.sweeps import (
    SweepRecord,
    SweepSpec,
    coerce_axis_value,
    valid_axes,
)
from .obs.options import ObsOptions
from .obs.recorder import EpochTimelineRecorder
from .service.client import ServiceClient
from .shard.checkpoint import CheckpointStore
from .shard.execute import shard_plan_for
from .shard.plan import ShardPlan
from .smt import SmtResult, run_smt, valid_schedulers
from .tune import SearchSpace, TuneResult, TuneSpec, run_tune

__all__ = [
    "EngineRunner",
    "EpiEstimate",
    "ExperimentSettings",
    "JobResult",
    "JobSpec",
    "ObsOptions",
    "RunReport",
    "SearchSpace",
    "ServiceClient",
    "ShardPlan",
    "ShardedReport",
    "SimulationConfig",
    "SimulationResult",
    "SmtResult",
    "SweepRecord",
    "SweepSpec",
    "TuneResult",
    "TuneSpec",
    "Workbench",
    "connect",
    "estimate",
    "resume",
    "run",
    "shard_plan",
    "sweep",
    "tune",
    "valid_axes",
    "valid_schedulers",
    "workbench",
]


def _resolve_obs(
    trace: Union[str, Path, None], obs: Optional[ObsOptions],
) -> Optional[ObsOptions]:
    """``trace=`` is sugar for ``obs=ObsOptions.for_trace(trace)``."""
    if trace is not None and obs is not None:
        raise ValueError(
            "pass either trace= (a trace directory) or obs= "
            "(full ObsOptions), not both"
        )
    if trace is not None:
        return ObsOptions.for_trace(trace)
    return obs


def workbench(
    settings: Optional[ExperimentSettings] = None,
    cache_dir: Any = "auto",
) -> Workbench:
    """A serial workbench for repeated runs sharing one trace cache.

    ``cache_dir="auto"`` persists artifacts under ``$REPRO_CACHE_DIR`` or
    ``.repro-cache``; pass ``None`` for in-memory caching only.
    """
    return Workbench(settings or ExperimentSettings(), cache_dir=cache_dir)


def _coerce_core_changes(core_changes: Mapping[str, Any]) -> dict:
    """Type every knob through the sweep axes.

    Unknown knob names raise ``ValueError`` listing the valid axes —
    the same actionable error surface as the CLI and the service.
    """
    return {
        name: coerce_axis_value(name, value)
        for name, value in core_changes.items()
    }


def run(
    profile: Union[str, JobSpec, Mapping[str, Any]],
    config: Optional[SimulationConfig] = None,
    *,
    variant: str = "pc",
    settings: Optional[ExperimentSettings] = None,
    cache_dir: Any = "auto",
    bench: Optional[Workbench] = None,
    trace: Union[str, Path, None] = None,
    obs: Optional[ObsOptions] = None,
    shards: int = 1,
    checkpoint_every: int = 0,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    contexts: int = 1,
    scheduler: str = "",
    **core_changes: Any,
) -> Union[SimulationResult, SmtResult]:
    """Simulate one workload *profile* under one configuration.

    *profile* names a calibrated workload (``"database"``, ``"tpcw"``,
    ``"specjbb"``, ``"specweb"``) — or is a whole :class:`JobSpec` (or an
    equivalent mapping, the shape ``ServiceClient.submit_simulate`` also
    accepts), whose workload/variant/config/core-changes/backend seed the
    run and explicit keyword arguments override.  *variant* selects the
    trace flavour (``"pc"``, ``"wc"``, ``"pc_sle"``, ...).  *config*
    overrides the whole :class:`SimulationConfig`; *core_changes* tweak
    individual core fields (``store_prefetch="sp2"``, ``store_queue=64``,
    ...) — see :func:`valid_axes` for the accepted names; an unknown name
    raises ``ValueError`` listing them.  Pass *bench* (from
    :func:`workbench`) to reuse an annotated trace across calls.

    *backend* selects the execution backend — ``"reference"`` (the golden
    tick loop) or ``"event"`` (event-driven epoch skipping).  ``None``
    defers to ``$REPRO_BACKEND`` and then ``"reference"``.  Backends are
    bit-identical, so this only changes execution speed::

        result = api.run("database", backend="event")

    *shards* > 1 segments the trace at probed quiescent boundaries and fans
    the segments across *workers* processes; *checkpoint_every* > 0
    additionally snapshots progress every K instructions so interrupted
    runs resume instead of restarting (``mlpsim resume`` /
    :func:`resume`).  Either engages the fault-tolerant sharded execution
    path; the returned result is bit-identical to an unsharded run.

    *trace* names a directory to write a JSONL epoch trace into
    (rendered by ``mlpsim trace`` / ``mlpsim obs report``); *obs* passes
    full :class:`ObsOptions` instead.  They are mutually exclusive, and
    neither perturbs the simulation result.

    *contexts* > 1 runs an SMT simulation: N hardware contexts sharing
    the SMAC and lock lines, each running one component of the *profile*
    mix (``"database+specjbb"`` or a named mix like ``"oltp_java"``;
    a single workload name replicates).  *scheduler* picks the policy
    (see :func:`valid_schedulers`).  Returns an :class:`SmtResult`
    instead of a :class:`SimulationResult`; ``contexts=1`` is
    bit-identical to the single-context pipeline under every policy.
    SMT runs do not compose with *shards*/*checkpoint_every*/*trace*.
    """
    options = _resolve_obs(trace, obs)
    if not isinstance(profile, str):
        base = JobSpec.coerce(profile)
        merged = dict(base.core_changes)
        merged.update(core_changes)
        core_changes = merged
        if variant == "pc":
            variant = base.variant
        if config is None:
            config = base.config
        if backend is None and base.backend:
            backend = base.backend
        if checkpoint_every == 0 and base.checkpoint_every > 0:
            checkpoint_every = base.checkpoint_every
        if contexts == 1 and base.contexts > 1:
            contexts = base.contexts
        if not scheduler and base.scheduler:
            scheduler = base.scheduler
        profile = base.workload
    core_changes = _coerce_core_changes(core_changes)
    if contexts > 1:
        if shards > 1 or checkpoint_every > 0:
            raise ValueError(
                "contexts= cannot be combined with shards=/checkpoint_every= "
                "(SMT runs are not shardable)"
            )
        if options is not None:
            raise ValueError(
                "contexts= cannot be combined with trace=/obs= "
                "(SMT contexts drive their own shared-SMAC observers)"
            )
        if bench is None:
            bench = workbench(settings, cache_dir)
        return run_smt(
            bench, profile, contexts=contexts, scheduler=scheduler,
            variant=variant, config=config, **core_changes,
        )
    if scheduler:
        raise ValueError(
            "scheduler= only applies to SMT runs; pass contexts > 1"
        )
    if shards > 1 or checkpoint_every > 0:
        if bench is not None:
            raise ValueError(
                "bench= cannot be combined with shards=/checkpoint_every= "
                "(sharded runs execute through an EngineRunner)"
            )
        runner = EngineRunner(
            settings=settings or ExperimentSettings(),
            cache_dir=cache_dir,
            workers=workers,
            obs=options,
        )
        spec = JobSpec(
            workload=profile,
            variant=variant,
            config=config,
            core_changes=tuple(sorted(core_changes.items())),
            backend=backend or "",
        )
        report = runner.run_sharded(
            spec, shards, checkpoint_every=checkpoint_every,
        )
        report.raise_on_failure()
        assert report.merged is not None
        return report.merged
    if bench is None:
        bench = workbench(settings, cache_dir)
    if options is None or options.trace_dir is None:
        return bench.run(
            profile, variant=variant, config=config, backend=backend,
            **core_changes,
        )
    tracer = options.open_tracer()
    try:
        observer = (
            EpochTimelineRecorder(tracer, label=f"{profile}/{variant}")
            if options.trace_epochs else None
        )
        return bench.run(
            profile, variant=variant, config=config, observer=observer,
            backend=backend, **core_changes,
        )
    finally:
        tracer.close()


def sweep(
    spec: Union[SweepSpec, Mapping[str, Any]],
    *,
    settings: Optional[ExperimentSettings] = None,
    cache_dir: Any = "auto",
    workers: Optional[int] = None,
    job_timeout: float = 600.0,
    runner: Optional[EngineRunner] = None,
    trace: Union[str, Path, None] = None,
    obs: Optional[ObsOptions] = None,
    backend: Optional[str] = None,
    shards: int = 1,
    checkpoint_every: int = 0,
) -> List[SweepRecord]:
    """Execute a sweep *spec* and return one record per grid point.

    *spec* is a :class:`SweepSpec` (build one with
    :meth:`SweepSpec.build`) or an equivalent mapping with ``workloads``,
    ``axes`` and optionally ``variant`` keys — the same shape the service
    protocol accepts.  The grid fans out across *workers* processes
    (default ``min(4, cpus)``) sharing the persistent artifact cache;
    records come back workload-major in grid order, deterministically.

    *shards* > 1 runs every grid point through the fault-tolerant sharded
    path (:meth:`EngineRunner.run_sharded`) — long traces split at
    quiescent boundaries, failed shards retry, results stay bit-identical.
    *checkpoint_every* > 0 snapshots each job every K instructions so an
    interrupted sweep resumes instead of restarting; it composes with
    *shards* the same way it does for :func:`run`.

    *backend* runs every grid point on the named execution backend.
    Results are bit-identical across backends.

    *trace* names a directory the engine (every worker process) writes
    JSONL trace files into; *obs* passes full :class:`ObsOptions`.
    Mutually exclusive; ignored if an explicit *runner* is supplied (the
    runner already carries its own obs configuration).
    """
    options = _resolve_obs(trace, obs)
    if runner is not None and options is not None:
        raise ValueError(
            "trace=/obs= cannot be combined with an explicit runner; "
            "configure EngineRunner(obs=...) instead"
        )
    if not isinstance(spec, SweepSpec):
        try:
            workloads = spec["workloads"]
            axes = dict(spec["axes"])
        except (TypeError, KeyError) as exc:
            raise TypeError(
                "spec must be a SweepSpec or a mapping with 'workloads' "
                "and 'axes' keys"
            ) from exc
        spec = SweepSpec.build(workloads, spec.get("variant", "pc"), **axes)
    if runner is None:
        runner = EngineRunner(
            settings=settings or ExperimentSettings(),
            cache_dir=cache_dir,
            workers=workers,
            job_timeout=job_timeout,
            obs=options,
        )
    jobs = spec.to_jobs()
    if backend or checkpoint_every > 0:
        from dataclasses import replace

        jobs = [
            replace(
                job,
                backend=backend or job.backend,
                checkpoint_every=checkpoint_every or job.checkpoint_every,
            )
            for job in jobs
        ]
    if shards > 1:
        # Each grid point runs as its own sharded execution; synthesize a
        # grid-ordered report from the merged results so spec.records()
        # pairs them exactly like the unsharded path.
        merged_jobs: List[JobResult] = []
        wall_time = 0.0
        for job in jobs:
            sharded = runner.run_sharded(
                job, shards, checkpoint_every=checkpoint_every,
            )
            sharded.raise_on_failure()
            wall_time += sharded.wall_time
            merged_jobs.append(JobResult(
                spec=job,
                status="ok",
                result=sharded.merged,
                wall_time=sharded.wall_time,
            ))
        report = RunReport(
            jobs=merged_jobs, wall_time=wall_time, workers=runner.workers,
        )
    else:
        report = runner.run(jobs)
    return spec.records(report)


def tune(
    space: Union[TuneSpec, SearchSpace, Mapping[str, Any]],
    *,
    profile: str = "database",
    variant: str = "pc",
    strategy: str = "genetic",
    budget: int = 16,
    seed: int = 0,
    settings: Optional[ExperimentSettings] = None,
    cache_dir: Any = "auto",
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    trace: Union[str, Path, None] = None,
    obs: Optional[ObsOptions] = None,
    margin: float = 0.30,
    resume: bool = True,
    contexts: int = 1,
    scheduler: str = "",
) -> TuneResult:
    """Search the design space for the lowest-EPI configuration.

    *space* is a mapping of axis values (coerced like sweep axes:
    ``{"store_queue": [16, 32, 64], "scout": ["none", "hws2"]}``), a
    built :class:`SearchSpace`, or a whole :class:`TuneSpec` (in which
    case *profile*/*variant*/*strategy*/*budget*/*seed*/*backend* are
    already part of the spec and must be left at their defaults).

    *contexts* > 1 evaluates every candidate as an SMT run (aggregate
    EPI is the optimized metric) under *scheduler* — the analytical
    pruner disengages for mix workloads, so every candidate is measured.

    *strategy* is ``"grid"`` (exhaustive, sweep order), ``"random"``
    (uniform without replacement) or ``"genetic"`` (seeded tournament
    selection + crossover + per-knob mutation); *budget* caps *measured*
    evaluations — candidates served from the artifact cache, skipped by
    the analytical pruner (within *margin* of predicted-worse), or
    replayed from a previous interrupted run are free.  Identical
    (workload, variant, candidate, settings) evaluations are measured
    exactly once across runs and strategies.

    Tuning state persists under the artifact cache after every
    generation, so a killed run re-run with the same arguments resumes
    where it stopped (``resume=False`` ignores — but still rewrites —
    that state).  *trace*/*obs* record a ``tune_generation`` span per
    batch in the usual JSONL trace.

    Returns a :class:`TuneResult`; see ``result.best_knobs``,
    ``result.best_epi_per_1000`` and ``result.summary()``.
    """
    options = _resolve_obs(trace, obs)
    if isinstance(space, TuneSpec):
        spec = space
        if backend or contexts > 1 or scheduler:
            from dataclasses import replace

            spec = replace(
                spec,
                backend=backend or spec.backend,
                contexts=contexts if contexts > 1 else spec.contexts,
                scheduler=scheduler or spec.scheduler,
            )
    else:
        spec = TuneSpec.build(
            profile, space, variant=variant, strategy=strategy,
            budget=budget, seed=seed, backend=backend or "",
            contexts=contexts, scheduler=scheduler,
        )
    return run_tune(
        spec,
        settings=settings,
        cache_dir=cache_dir,
        workers=workers,
        obs=options,
        margin=margin,
        resume=resume,
    )


def shard_plan(
    profile: str,
    shards: int = 4,
    *,
    variant: str = "pc",
    config: Optional[SimulationConfig] = None,
    settings: Optional[ExperimentSettings] = None,
    cache_dir: Any = "auto",
    bench: Optional[Workbench] = None,
    **core_changes: Any,
) -> ShardPlan:
    """The deterministic shard plan a sharded :func:`run` would use.

    Probes the simulation's quiescent epoch boundaries (cached per
    configuration + trace) and returns the :class:`ShardPlan` — inspect
    ``plan.shards`` for the spans, ``plan.shard_count`` for how many
    shards the trace actually supports (boundary-starved traces yield
    fewer than requested, never unsafe cuts).
    """
    if bench is None:
        bench = workbench(settings, cache_dir)
    spec = JobSpec(
        workload=profile,
        variant=variant,
        config=config,
        core_changes=tuple(sorted(core_changes.items())),
    )
    return shard_plan_for(bench, spec, shards)


def resume(
    job_or_token: Union[JobSpec, str],
    *,
    settings: Optional[ExperimentSettings] = None,
    cache_dir: Any = "auto",
    workers: Optional[int] = None,
) -> JobResult:
    """Resume a checkpointed job from its latest persisted checkpoint.

    Accepts either the original :class:`JobSpec` (with *settings* matching
    the original run) or the resume *token* a sharded/checkpointed run
    reported — the token's stored record carries the spec and settings, so
    ``api.resume(token)`` needs nothing else beyond the same *cache_dir*.

    The job re-executes through the engine; if a verified checkpoint
    exists it restarts from that snapshot (``JobResult.resumed_pos`` tells
    you where), otherwise it runs from the beginning.  A corrupt
    checkpoint raises :class:`repro.errors.CheckpointCorruptError` when
    resuming by token, and is silently discarded (fresh start) when
    resuming by spec.
    """
    if isinstance(job_or_token, JobSpec):
        spec = job_or_token
        if spec.checkpoint_every <= 0:
            raise ValueError(
                "the job spec was never checkpointed "
                "(checkpoint_every == 0); there is nothing to resume from"
            )
    else:
        directory = resolve_cache_dir(cache_dir)
        if directory is None:
            raise ValueError(
                "resuming from a token requires a persistent cache_dir"
            )
        store = CheckpointStore(ArtifactCache(directory))
        record = store.load_record(str(job_or_token))
        if record is None:
            raise KeyError(
                f"no checkpoint stored under token "
                f"{str(job_or_token)[:16]}... in {directory}"
            )
        record.verify()
        spec = record.spec
        settings = record.settings
    runner = EngineRunner(
        settings=settings or ExperimentSettings(),
        cache_dir=cache_dir,
        workers=workers if workers is not None else 1,
    )
    report = runner.run([spec])
    report.raise_on_failure()
    return report.jobs[0]


def connect(
    url: str,
    *,
    timeout: float = 30.0,
    retries: int = 3,
    backoff: float = 0.1,
) -> ServiceClient:
    """A client for a running simulation service daemon.

    The returned :class:`ServiceClient` speaks the versioned wire protocol
    and mirrors this module's verbs: ``submit`` (and the
    ``submit_sweep``/``submit_simulate``/``submit_figure`` conveniences),
    ``result`` and ``cancel``.
    """
    return ServiceClient(
        url, timeout=timeout, retries=retries, backoff=backoff,
    )
