"""The three benchmark workloads: ``cold_start``, ``warm_explore`` and
``service_mix``.

Each workload has a set-up (artifact build plus the reference run that
checks every later answer), a timed part that drives the public surfaces
(``repro.api.run``, ``repro.api.sweep``, ``repro.api.estimate`` and the
``mlpsim serve`` daemon through ``ServiceClient``) with library defaults
for everything but the cache directory, and a teardown.  The seed picks
the core knobs and the order of operations; the trace sizing stays
``ExperimentSettings()`` unless the self-check shrinks it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, ContextManager, Dict, List, Optional, Tuple

STORE_QUEUE = (16, 24, 32, 48, 64)
STORE_PREFETCH = ("sp0", "sp1", "sp2")
SCOUT = ("none", "hws0", "hws1", "hws2")
SCHEDULERS = ("round_robin", "icount", "mlp")


class SetupError(RuntimeError):
    """Set-up failed: the run cannot produce a result."""


def op(workload: str, variant: str = "pc", contexts: int = 1,
       scheduler: str = "", **knobs: Any) -> Dict[str, Any]:
    """One simulated configuration, in the shape ``JobSpec.coerce`` takes."""
    config: Dict[str, Any] = {
        "workload": workload, "variant": variant,
        "core_changes": dict(sorted(knobs.items())),
    }
    if contexts > 1:
        config["contexts"] = contexts
        config["scheduler"] = scheduler
    return config


def key_of(kind: str, config: Dict[str, Any]) -> str:
    return kind + " " + json.dumps(config, sort_keys=True)


def stats_of(result: Any) -> Dict[str, float]:
    """The checked statistics of a simulation or SMT result."""
    stats = {"epi": result.epi_per_1000}
    if hasattr(result, "stp"):
        stats.update(stp=result.stp, antt=result.antt, fairness=result.fairness)
    return stats


class Context:
    """What one benchmark run shares across its phases."""

    def __init__(self, args: Any, root: Path, work_dir: Path,
                 expected: Optional[Dict[str, Any]], recorder: Any) -> None:
        from repro.api import ExperimentSettings

        self.args = args
        self.root = root
        self.work_dir = work_dir
        self.rng = random.Random(args.seed)
        self.settings = ExperimentSettings(
            warmup=args.warmup, measure=args.measure,
            calibrate=not args.no_calibrate,
        )
        self.workers = os.cpu_count() or 1
        self.expected = expected
        self.recorder = recorder
        self.reference: Dict[str, Dict[str, float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.epochs = 0
        self.duplicate_builds = 0
        self.phases: Dict[str, Tuple[float, float]] = {}

    def cache_dir(self, name: str) -> Path:
        path = self.work_dir / name
        path.mkdir()
        return path

    def record(self, key: str, stats: Optional[Dict[str, float]],
               error: str = "") -> None:
        """Count one operation; it fails on an error or any stat mismatch."""
        if not error:
            wanted = [self.reference.get(key)]
            if self.expected is not None:
                wanted.append(self.expected.get(key))
            for want in wanted:
                if want is None:
                    error = "no expected value"
                elif want != stats:
                    error = f"got {stats}, expected {want}"
        self.attempted += 1
        if error:
            self.failed += 1
            self.errors.append(f"{key}: {error}")

    def build_reference(self, cache_dir: Path,
                        stages: List[List[Tuple[str, Dict[str, Any]]]]) -> None:
        """Run every planned configuration once on the ``reference``
        backend through the engine, stage by stage, building the artifact
        cache on the way.  Each stage's jobs touch disjoint artifacts, so no
        two workers build the same one."""
        from repro.api import EngineRunner, JobSpec

        reports = []
        for stage in stages:
            specs = [
                dataclasses.replace(JobSpec.coerce(config), backend="reference")
                for _, config in stage
            ]
            runner = EngineRunner(
                settings=self.settings, cache_dir=cache_dir,
                workers=self.workers,
            )
            report = runner.run(specs)
            reports.append(report)
            for (key, config), job in zip(stage, report.jobs):
                if not job.ok:
                    raise SetupError(f"reference run of {key}: {job.error}")
                self.reference[key] = stats_of(job.result)
                if config.get("contexts", 1) == 1:
                    self.epochs += job.result.epoch_count
        self.count_duplicate_builds(reports, cache_dir)

    def reference_estimates(self, configs: List[Dict[str, Any]]) -> None:
        from repro import estimate as estimate_mod

        for config in configs:
            guess = estimate_mod.estimate(config)
            self.reference[key_of("estimate", config)] = {
                "epi": guess.predicted_epi_per_1000,
            }

    def estimate(self, config: Dict[str, Any]) -> None:
        from repro import api

        key = key_of("estimate", config)
        try:
            guess = api.estimate(config)
        except Exception as exc:  # counted, never aborts the run
            self.record(key, None, f"{type(exc).__name__}: {exc}")
            return
        self.record(key, {"epi": guess.predicted_epi_per_1000})

    def count_duplicate_builds(self, reports: List[Any], cache_dir: Path) -> None:
        """Per-job cache misses beyond the distinct artifacts on disk."""
        from repro.engine.cache import ArtifactCache

        misses = sum(report.cache_misses for report in reports)
        entries = ArtifactCache(cache_dir).disk_stats().entries
        self.duplicate_builds = misses - entries

    def call(self, name: str) -> ContextManager[Any]:
        """A benchmark-level span around one public call (traced runs)."""
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span(name)


def _interleave(*groups: List[Any]) -> List[Any]:
    out: List[Any] = []
    for index in range(max(len(group) for group in groups)):
        out.extend(group[index] for group in groups if index < len(group))
    return out


# --------------------------------------------------------------- cold --


class ColdStart:
    """A user's first figure: one sweep on an empty artifact cache."""

    name = "cold_start"
    profiles = ("database", "tpcw")

    def __init__(self, ctx: Context) -> None:
        from repro import api

        self.ctx = ctx
        rng = ctx.rng
        self.spec = api.SweepSpec.build(
            list(self.profiles), "wc",
            store_queue=sorted(rng.sample(STORE_QUEUE, 2)),
            store_prefetch=sorted(rng.sample(STORE_PREFETCH, 2)),
        )
        self.points = [
            (profile, op(profile, "wc", **{
                name: getattr(value, "value", value) for name, value in point
            }))
            for profile in self.profiles
            for point in self.spec.points()
        ]
        self.sweep_s: List[float] = []

    def setup(self) -> None:
        ctx = self.ctx
        by_profile = [
            [(key_of("simulate", config), config)
             for name, config in self.points if name == profile]
            for profile in self.profiles
        ]
        ctx.build_reference(ctx.cache_dir("reference"), [
            [group[0] for group in by_profile],
            _interleave(*[group[1:] for group in by_profile]),
        ])
        ctx.reference_estimates([config for _, config in self.points])

    def timed(self, deadline: float) -> None:
        from repro import api

        ctx = self.ctx
        # Another sweep only if one more fits before the deadline.
        while not self.sweep_s or (
            deadline - time.perf_counter() >= self.sweep_s[-1]
        ):
            cache_dir = ctx.cache_dir(f"cold-{len(self.sweep_s)}")
            for _, config in self.points:
                with ctx.call("call.api.estimate"):
                    ctx.estimate(config)
            start = time.perf_counter()
            try:
                with ctx.call("call.api.sweep"):
                    records = api.sweep(
                        self.spec, settings=ctx.settings,
                        cache_dir=cache_dir, workers=ctx.workers,
                    )
            except Exception as exc:
                ctx.record(key_of("sweep", {"cold": len(self.sweep_s)}), None,
                           f"{type(exc).__name__}: {exc}")
                records = None
            self.sweep_s.append(time.perf_counter() - start)
            if records is not None:
                for (_, config), record in zip(self.points, records):
                    ctx.record(key_of("simulate", config),
                               {"epi": record.epi_per_1000})
            if ctx.recorder is not None and len(self.sweep_s) == 1:
                ctx.count_duplicate_builds(ctx.recorder.reports[-1:], cache_dir)

    def metrics(self) -> Dict[str, float]:
        sim = len(self.points) * self.ctx.settings.measure
        return {
            "call_s": statistics.median(self.sweep_s),
            "sim_insts_per_s": sim * len(self.sweep_s) / sum(self.sweep_s),
        }

    def ledger_rows(self) -> Dict[str, Tuple[float, str]]:
        return {
            "cold_sweep_s": (statistics.median(self.sweep_s), "s"),
            "cold_sweeps": (len(self.sweep_s), "count"),
        }

    def teardown(self) -> None:
        return None


# --------------------------------------------------------------- warm --


class WarmExplore:
    """The interactive user on a warm disk cache: single runs, a knob
    sweep and SMT runs under every scheduler."""

    name = "warm_explore"
    sweep_profiles = ("database", "tpcw")

    def __init__(self, ctx: Context) -> None:
        from repro import api

        self.ctx = ctx
        rng = ctx.rng
        # Two runs per scout mode (the knob that sets the simulation cost),
        # in seeded order with seeded queue and prefetch knobs.
        self.run_configs = [
            op("database", store_queue=rng.choice(STORE_QUEUE),
               store_prefetch=rng.choice(STORE_PREFETCH), scout=scout)
            for _ in range(2) for scout in rng.sample(SCOUT, len(SCOUT))
        ]
        self.spec = api.SweepSpec.build(
            list(self.sweep_profiles), "wc",
            store_queue=sorted(rng.sample(STORE_QUEUE, 2)),
            store_prefetch=list(STORE_PREFETCH),
            scout=["none", rng.choice(SCOUT[1:])],
        )
        self.sweep_configs = [
            op(profile, "wc", **{
                name: getattr(value, "value", value) for name, value in point
            })
            for profile in self.sweep_profiles
            for point in self.spec.points()
        ]
        prefetch = rng.choice(STORE_PREFETCH)
        self.smt_configs = [
            op("oltp_java", contexts=2, scheduler=name, store_prefetch=prefetch)
            for name in SCHEDULERS
        ]
        self.run_s: List[float] = []
        self.sweep_s: List[float] = []
        self.smt_s: List[float] = []
        self.cache: Optional[Path] = None

    def setup(self) -> None:
        ctx = self.ctx
        self.cache = ctx.cache_dir("warm")

        def keyed(configs: List[Dict[str, Any]]) -> List[Tuple[str, Dict]]:
            return [(key_of("simulate", config), config) for config in configs]

        runs, smt = keyed(self.run_configs), keyed(self.smt_configs)
        sweep = keyed(self.sweep_configs)
        half = len(sweep) // 2
        # Stage 1 builds database/pc and tpcw/wc; stage 2 database/wc and
        # the second SMT context; stage 3 only reads.
        ctx.build_reference(self.cache, [
            [runs[0], sweep[half]],
            [sweep[0], smt[0]],
            _interleave(runs[1:], sweep[1:half] + sweep[half + 1:], smt[1:]),
        ])
        ctx.reference_estimates(self.run_configs)

    def _run(self, config: Dict[str, Any], timings: List[float]) -> None:
        from repro import api

        ctx = self.ctx
        key = key_of("simulate", config)
        name = "call.api.run_smt" if config.get("contexts") else "call.api.run"
        start = time.perf_counter()
        try:
            with ctx.call(name):
                result = api.run(
                    config, settings=ctx.settings, cache_dir=self.cache,
                )
        except Exception as exc:
            timings.append(time.perf_counter() - start)
            ctx.record(key, None, f"{type(exc).__name__}: {exc}")
            return
        timings.append(time.perf_counter() - start)
        ctx.record(key, stats_of(result))

    def _sweep(self) -> None:
        from repro import api

        ctx = self.ctx
        start = time.perf_counter()
        try:
            with ctx.call("call.api.sweep"):
                records = api.sweep(
                    self.spec, settings=ctx.settings,
                    cache_dir=self.cache, workers=ctx.workers,
                )
        except Exception as exc:
            self.sweep_s.append(time.perf_counter() - start)
            ctx.record(key_of("sweep", {}), None, f"{type(exc).__name__}: {exc}")
            return
        self.sweep_s.append(time.perf_counter() - start)
        for config, record in zip(self.sweep_configs, records):
            ctx.record(key_of("simulate", config), {"epi": record.epi_per_1000})

    def timed(self, deadline: float) -> None:
        ctx = self.ctx
        script: List[Any] = []
        for index, config in enumerate(self.run_configs):
            script.append(("run", config))
            if index % 2 and index // 2 < len(self.smt_configs):
                script.append(("smt", self.smt_configs[index // 2]))
            if index == 3:
                script.append(("sweep", None))
        step = 0
        while step < len(script) or time.perf_counter() < deadline:
            kind, config = script[step % len(script)]
            step += 1
            if kind == "run":
                with ctx.call("call.api.estimate"):
                    ctx.estimate(config)
                self._run(config, self.run_s)
            elif kind == "smt":
                self._run(config, self.smt_s)
            else:
                self._sweep()

    def metrics(self) -> Dict[str, float]:
        # Instructions per host second at each call kind's median time, so
        # one call slowed by a noisy neighbour does not move the rate.
        measure = self.ctx.settings.measure
        kinds = (
            (self.run_s, 1), (self.smt_s, 2),
            (self.sweep_s, len(self.sweep_configs)),
        )
        sim = sum(measure * per_call * len(times) for times, per_call in kinds)
        wall = sum(statistics.median(times) * len(times) for times, _ in kinds)
        return {
            "call_s": statistics.median(self.run_s),
            "sim_insts_per_s": sim / wall,
        }

    def ledger_rows(self) -> Dict[str, Tuple[float, str]]:
        sweep_insts = len(self.sweep_configs) * self.ctx.settings.measure
        rows = {
            "warm_run_s": (statistics.median(self.run_s), "s"),
            "warm_runs": (len(self.run_s), "count"),
            "sweep_sim_insts_per_s": (
                sweep_insts * len(self.sweep_s) / sum(self.sweep_s), "1/s",
            ),
            "sweep_s": (statistics.median(self.sweep_s), "s"),
            "sweeps": (len(self.sweep_s), "count"),
            "smt_run_s": (statistics.median(self.smt_s), "s"),
            "smt_runs": (len(self.smt_s), "count"),
        }
        # What each policy buys in throughput (STP) and costs in fairness,
        # from the exact simulated statistics.
        for config in self.smt_configs:
            stats = self.ctx.reference[key_of("simulate", config)]
            for stat in ("stp", "antt", "fairness"):
                rows[f"smt.{config['scheduler']}.{stat}"] = (stats[stat], "ratio")
        return rows

    def teardown(self) -> None:
        return None


# ------------------------------------------------------------ service --


class ServiceMix:
    """``mlpsim serve`` on a pre-built cache, driven in a closed loop by
    one client: simulate jobs drawn from a pool of distinct
    configurations, and estimate jobs."""

    name = "service_mix"
    profiles = ("database", "tpcw")
    #: Size of the configuration pool.  An assumption, as is the estimate
    #: share: no traffic of real users has been recorded.  Each distinct
    #: configuration costs a reference run in set-up.
    distinct = 24
    #: Every fifth op is an estimate job.
    estimate_every = 5
    #: A second client on a 2-CPU host oversubscribes it (client, daemon
    #: request threads and dispatcher), and the latency then swung twice
    #: as far as the host's speed did; one client tracks the host.
    #: Polls every 20 ms, so a finished job waits 10 ms on average for
    #: the client to notice it.
    poll_s = 0.02

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        rng = ctx.rng
        # Jobs keep the default scout mode, so every job costs about the
        # same and the latency percentiles measure the service, not the
        # mix.  The pool holds as many jobs of each profile, with seeded
        # queue and prefetch knobs, in seeded order.
        knobs = {
            profile: rng.sample(
                [(sq, sp) for sq in STORE_QUEUE for sp in STORE_PREFETCH],
                self.distinct // len(self.profiles),
            )
            for profile in self.profiles
        }
        self.configs = []
        for pair in range(self.distinct // len(self.profiles)):
            for profile in rng.sample(self.profiles, len(self.profiles)):
                sq, sp = knobs[profile][pair]
                self.configs.append(
                    op(profile, "wc", store_queue=sq, store_prefetch=sp)
                )
        self.prewarm = [op(profile, "wc") for profile in self.profiles]
        # As in benchmarks/loadtest: each op draws its configuration
        # uniformly from the pool, so repeats arise on their own.  A
        # simulate job whose configuration came up before is a resubmit;
        # the daemon keeps no finished results, so it runs again.
        self.script: List[Tuple[str, Dict[str, Any]]] = []
        seen = set()
        for index in range(4000):
            config = rng.choice(self.configs)
            if index % self.estimate_every == self.estimate_every - 1:
                kind = "estimate"
            else:
                kind = "resubmit" if id(config) in seen else "simulate"
                seen.add(id(config))
            self.script.append((kind, config))
        self.server: Optional[subprocess.Popen] = None
        self.server_log: Optional[Path] = None
        self.client: Any = None
        self.samples: List[Tuple[str, float]] = []
        self.deduped = 0
        self.submits = 0
        self.sim_jobs = 0
        self.server_exit: Optional[int] = None
        self.metrics_before: Dict[str, Any] = {}
        self.metrics_after: Dict[str, Any] = {}
        self.server_url = ""
        self.timed_s = 0.0

    def setup(self) -> None:
        from repro import api

        ctx = self.ctx
        cache = ctx.cache_dir("service")
        first = [(key_of("simulate", config), config) for config in self.prewarm]
        rest = [(key_of("simulate", config), config) for config in self.configs]
        ctx.build_reference(cache, [first, rest])
        ctx.reference_estimates(self.configs)
        self._start_server(cache)
        self.client = api.connect(self.server_url, timeout=60.0)
        for config in self.prewarm:
            self._job("simulate", config, record=False)
        self.metrics_before = self.client.metrics()

    def _start_server(self, cache: Path) -> None:
        ctx = self.ctx
        args = ["--cache-dir", str(cache), "--warmup", str(ctx.args.warmup),
                "--measure", str(ctx.args.measure)]
        if ctx.args.no_calibrate:
            args.append("--no-calibrate")
        args += ["serve", "--port", "0"]
        if ctx.recorder is not None:
            command = [sys.executable, str(Path(__file__).with_name(
                "serve_traced.py")), str(ctx.recorder.trace_dir), *args]
        else:
            command = [sys.executable, "-m", "repro", *args]
        env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
        self.server_log = ctx.work_dir / "server.log"
        with open(self.server_log, "wb") as log:
            self.server = subprocess.Popen(
                command, cwd=ctx.work_dir, env=env,
                stdout=subprocess.DEVNULL, stderr=log,
            )
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            text = self.server_log.read_text(errors="replace")
            if "listening on " in text:
                self.server_url = text.split("listening on ", 1)[1].split()[0]
                return
            if self.server.poll() is not None:
                break
            time.sleep(0.02)
        raise SetupError(f"server did not start:\n{self.server_log.read_text()}")

    def _job(self, kind: str, config: Dict[str, Any],
             record: bool = True) -> None:
        """Submit one job and wait for its terminal state."""
        ctx = self.ctx
        client = self.client
        key = key_of("estimate" if kind == "estimate" else "simulate", config)
        submitted = time.time()
        try:
            with ctx.call(f"call.service.{kind}"):
                if kind == "estimate":
                    receipt = client.submit_estimate(config)
                else:
                    receipt = client.submit_simulate(config)
                status = client.status(receipt["id"])
                while status["state"] not in ("done", "failed", "cancelled"):
                    if time.time() - submitted > 120.0:
                        raise TimeoutError("no terminal state within 120 s")
                    time.sleep(self.poll_s)
                    status = client.status(receipt["id"])
        except Exception as exc:
            if not record:
                raise SetupError(f"pre-warm job failed: {exc}") from exc
            ctx.record(key, None, f"{type(exc).__name__}: {exc}")
            return
        latency = (status["finished_at"] or time.time()) - submitted
        if status["state"] != "done":
            stats, error = None, f"job {status['state']}: {status.get('error')}"
        elif kind == "estimate":
            stats = {"epi": status["result"]["predicted_epi_per_1000"]}
            error = ""
        else:
            job = client.decode_report(status).jobs[0]
            stats = stats_of(job.result) if job.ok else None
            error = "" if job.ok else f"job {job.status}: {job.error}"
        if not record:
            if error:
                raise SetupError(f"pre-warm job failed: {error}")
            return
        self.samples.append((kind, latency))
        self.submits += 1
        self.deduped += bool(receipt.get("deduped"))
        self.sim_jobs += kind != "estimate" and not error
        ctx.record(key, stats, error)

    def timed(self, deadline: float) -> None:
        start = time.perf_counter()
        for kind, config in self.script:
            if time.perf_counter() >= deadline:
                break
            self._job(kind, config)
        self.timed_s = time.perf_counter() - start
        self.metrics_after = self.client.metrics()

    def _latency(self, kinds: Tuple[str, ...], quantile: float) -> float:
        values = sorted(v for kind, v in self.samples if kind in kinds)
        if not values:
            return 0.0
        return values[min(len(values) - 1, int(quantile * len(values)))]

    def metrics(self) -> Dict[str, float]:
        return {
            "call_s": statistics.median(v for _, v in self.samples),
            "sim_insts_per_s": (
                self.sim_jobs * self.ctx.settings.measure / self.timed_s
            ),
        }

    def ledger_rows(self) -> Dict[str, Tuple[float, str]]:
        values = sorted(v for _, v in self.samples)
        count = len(values)
        rows = {
            "service_jobs_per_s": (count / self.timed_s, "1/s"),
            "service_latency_p50_s": (statistics.median(values), "s"),
            "service_latency_samples": (count, "count"),
        }
        if count > 10:
            # p90, or the highest percentile with ten samples beyond it.
            pct = min(90, 100 * (count - 10) // count)
            rows[f"service_latency_p{pct}_s"] = (
                values[math.ceil(pct * count / 100) - 1], "s")
        return rows

    def service_layer(self) -> Dict[str, Tuple[float, str]]:
        """The service group of the per-layer ledger."""
        def hist(name: str) -> Tuple[float, float]:
            after = self.metrics_after["latency"].get(name, {})
            before = self.metrics_before["latency"].get(name, {})
            return (after.get("sum", 0.0) - before.get("sum", 0.0),
                    after.get("count", 0) - before.get("count", 0))

        wait_s, wait_n = hist("job_queue_wait")
        exec_s, exec_n = hist("job_exec")
        rows = {
            "service.queue_wait_s": (wait_s, "s"),
            "service.exec_s": (exec_s, "s"),
            "service.exec_jobs": (exec_n, "count"),
            "service.dedup_ratio": (self.deduped / max(1, self.submits), "ratio"),
            "service.submits": (self.submits, "count"),
        }
        for kind in ("simulate", "resubmit", "estimate"):
            rows[f"service.{kind}_latency_p50_s"] = (
                self._latency((kind,), 0.5), "s")
        return rows

    def teardown(self) -> None:
        if self.server is None:
            return
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGTERM)
            try:
                self.server.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        self.server_exit = self.server.returncode
        if self.server_exit != 0:
            self.ctx.record("server exit", None,
                            f"server exited with {self.server_exit}")


WORKLOADS = {cls.name: cls for cls in (ColdStart, WarmExplore, ServiceMix)}
