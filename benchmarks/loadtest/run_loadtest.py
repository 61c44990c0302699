#!/usr/bin/env python
"""Fleet load test: many concurrent clients against 1/2/4-worker fleets.

Spins up an in-process :class:`FleetCoordinator` plus N thread workers per
fleet size, then fires a swarm of concurrent clients (default 200) at it.
Each client submits a stream of small simulate jobs drawn from a pool of
distinct configurations and blocks until each completes, so the measured
latency is the end-to-end service latency (admission, routing, execution,
assembly) a real caller would see.  Saturation answers (429/503) are
retried client-side honouring ``Retry-After`` + decorrelated jitter — the
load test *counts* them rather than failing, because producing structured
backpressure under overload is exactly the behaviour under test.

The committed ``BENCH_service.json`` records, per fleet size: p50/p99
client-observed latency, throughput (jobs/sec), saturation answers seen,
dedup/result-store hits, and a per-phase latency breakdown (p50/p99 of
queued / lease_wait / recovery / executing / merging across executed
jobs) reconstructed from the coordinator's trace by
:mod:`repro.obs.timeline` — the column that says *where* p99 lives, not
just how big it is.  ``cpu_count`` is recorded alongside because
worker scaling is meaningless without it: thread workers on a single CPU
time-share one core, so jobs/sec stays roughly flat until the host has
cores to give (the shape to look for on multicore CI is throughput
tracking worker count while p99 holds).

Usage::

    PYTHONPATH=src python benchmarks/loadtest/run_loadtest.py \
        [--clients 200] [--requests 2] [--fleet-sizes 1,2,4] \
        [--out BENCH_service.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import tempfile
import threading
import time

from repro.fleet import FleetCoordinator, FleetWorker
from repro.harness import ExperimentSettings
from repro.obs import (
    ObsOptions,
    aggregate_phases,
    fleet_job_ids,
    job_timeline,
    load_events,
)
from repro.service.client import ServiceClient, ServiceError

#: A deliberately tiny trace: the load test measures the *service*, not
#: the simulator, so each job must cost milliseconds.
TINY = ExperimentSettings(warmup=300, measure=900, seed=11, calibrate=False)

WORKLOADS = ("database", "tpcw", "specjbb", "specweb")


def percentile(values, fraction):
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _phase_breakdown(trace_dir: str) -> dict:
    """Per-phase p50/p99/mean across the run's executed jobs.

    Deduped jobs and result-store hits never expand into tasks, so the
    breakdown covers jobs that actually crossed the fleet — the ones
    whose latency the phases explain.
    """
    events = load_events(trace_dir, strict=False)
    timelines = [
        timeline
        for timeline in (
            job_timeline(events, job_id) for job_id in fleet_job_ids(events)
        )
        if timeline is not None and timeline.state == "done"
    ]
    stats = aggregate_phases(timelines)
    return {
        name: {
            "count": int(summary["count"]),
            "mean": round(summary["mean"], 4),
            "p50": round(summary["p50"], 4),
            "p99": round(summary["p99"], 4),
        }
        for name, summary in sorted(stats.items())
    }


def run_fleet_size(
    workers: int,
    clients: int,
    requests_per_client: int,
    distinct_configs: int,
    queue_capacity: int,
    cache_dir: str,
) -> dict:
    # Trace only the coordinator: the five-phase decomposition is built
    # from coordinator-side events alone (single clock), and worker-side
    # tracing would add per-job span overhead to the thing being timed.
    trace_dir = os.path.join(cache_dir, "traces")
    coordinator = FleetCoordinator(
        port=0,
        settings=TINY,
        cache_dir=cache_dir,
        queue_capacity=queue_capacity,
        lease_ttl=5.0,
        default_backend="event",
        obs=ObsOptions.for_trace(trace_dir, trace_epochs=False),
    ).start()
    fleet_workers = []
    threads = []
    for index in range(workers):
        worker = FleetWorker(
            coordinator.url, name=f"lt-w{index}", lease_wait=2.0,
        ).join()
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        fleet_workers.append(worker)
        threads.append(thread)

    latencies: list[float] = []
    saturation = [0]
    failures: list[str] = []
    lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)

    def client_loop(client_index: int) -> None:
        rng = random.Random(1000 + client_index)
        client = ServiceClient(
            coordinator.url,
            timeout=60.0,
            saturation_retries=50,
            backoff=0.02,
            max_backoff=2.0,
            rng=rng,
        )
        barrier.wait()
        for request_index in range(requests_per_client):
            point = rng.randrange(distinct_configs)
            started = time.perf_counter()
            try:
                receipt = client.submit({
                    "kind": "simulate",
                    "job": {
                        "workload": WORKLOADS[point % len(WORKLOADS)],
                        "variant": "pc",
                        "core_changes": {
                            "store_queue": 4 + (point % 16) * 4,
                        },
                    },
                })
                status = client.wait(receipt["id"], timeout=600.0)
            except (ServiceError, TimeoutError) as exc:
                with lock:
                    failures.append(f"client {client_index}: {exc}")
                continue
            elapsed = time.perf_counter() - started
            with lock:
                latencies.append(elapsed)
                if status["state"] != "done":
                    failures.append(
                        f"client {client_index}: job ended "
                        f"{status['state']}: {status.get('error', '')}"
                    )

    client_threads = [
        threading.Thread(target=client_loop, args=(index,))
        for index in range(clients)
    ]
    for thread in client_threads:
        thread.start()
    barrier.wait()
    wall_start = time.perf_counter()
    for thread in client_threads:
        thread.join()
    wall = time.perf_counter() - wall_start

    counters = coordinator.metrics.to_dict()["counters"]
    saturation[0] = counters.get("jobs_shed_total", 0)
    result = {
        "workers": workers,
        "clients": clients,
        "requests_per_client": requests_per_client,
        "jobs_completed": len(latencies),
        "failures": len(failures),
        "wall_seconds": round(wall, 3),
        "jobs_per_sec": round(len(latencies) / wall, 2) if wall else 0.0,
        "latency_p50_seconds": round(percentile(latencies, 0.50), 4),
        "latency_p99_seconds": round(percentile(latencies, 0.99), 4),
        "latency_max_seconds": round(max(latencies), 4) if latencies else 0.0,
        "latency_mean_seconds": (
            round(statistics.fmean(latencies), 4) if latencies else 0.0
        ),
        "submitted_total": counters.get("jobs_submitted_total", 0),
        "deduped_total": counters.get("jobs_deduped_total", 0),
        "result_store_hits": counters.get(
            "fleet_result_cache_hits_total", 0,
        ),
        "shed_total": counters.get("jobs_shed_total", 0),
        "tasks_done_total": counters.get("fleet_tasks_done_total", 0),
        "phase_breakdown_seconds": _phase_breakdown(trace_dir),
    }

    coordinator.begin_drain()
    for worker in fleet_workers:
        worker.request_stop()
    for thread in threads:
        thread.join(timeout=15.0)
    coordinator.stop()

    if failures:
        for failure in failures[:10]:
            print(f"  FAIL: {failure}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=200)
    parser.add_argument("--requests", type=int, default=2,
                        help="jobs each client submits sequentially")
    parser.add_argument("--fleet-sizes", default="1,2,4")
    parser.add_argument("--distinct-configs", type=int, default=64,
                        help="size of the job-configuration pool; repeats "
                             "exercise dedup and the shared result store")
    parser.add_argument("--queue-capacity", type=int, default=64)
    parser.add_argument("--out", default="BENCH_service.json")
    args = parser.parse_args(argv)

    sizes = [int(s) for s in args.fleet_sizes.split(",") if s]
    runs = []
    for size in sizes:
        # A fresh cache per fleet size: result-store hits then measure
        # dedup *within* one run, not leakage from the previous one.
        with tempfile.TemporaryDirectory(prefix="loadtest-") as cache_dir:
            print(
                f"loadtest: {size} worker(s), {args.clients} clients x "
                f"{args.requests} request(s) ..."
            )
            run = run_fleet_size(
                size, args.clients, args.requests, args.distinct_configs,
                args.queue_capacity, cache_dir,
            )
            runs.append(run)
            print(
                f"  {run['jobs_completed']} jobs in {run['wall_seconds']}s "
                f"({run['jobs_per_sec']}/s), p50 "
                f"{run['latency_p50_seconds']}s, "
                f"p99 {run['latency_p99_seconds']}s, "
                f"{run['failures']} failure(s)"
            )

    report = {
        "harness": "benchmarks/loadtest/run_loadtest.py",
        "settings": {
            "warmup": TINY.warmup,
            "measure": TINY.measure,
            "seed": TINY.seed,
        },
        "environment": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "note": (
            "thread workers time-share the host's cores: jobs/sec tracks "
            "worker count only when cpu_count allows; on a single CPU the "
            "curve is flat by construction"
        ),
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"loadtest: report written to {args.out}")
    return 1 if any(run["failures"] for run in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
