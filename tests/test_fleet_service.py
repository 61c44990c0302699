"""End-to-end fleet tests: coordinator + in-process workers over real HTTP.

The acceptance contract of repro.fleet: results produced by a fleet (any
number of workers, with or without a mid-run worker death) are
**bit-identical** to single-node execution; saturation answers are
structured 429/503 with ``Retry-After``; cluster-wide dedup serves
repeated requests from the shared artifact store without touching a
worker.

Workers run as threads here (the real thing is a process; the wire
protocol is identical either way) so a "killed" worker is simply one that
stops heartbeating while holding a lease.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.engine import serialize
from repro.engine.runner import (
    EngineRunner, JobResult, JobSpec, RunReport, ShardedReport,
)
from repro.fleet import FleetCoordinator, FleetWorker
from repro.harness import ExperimentSettings
from repro.harness.experiment import Workbench
from repro.service.client import ServiceClient, ServiceError

SMALL = ExperimentSettings(warmup=1500, measure=4000, seed=11,
                           calibrate=False)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    # One shared artifact store for the whole module: traces, annotations,
    # checkpoints and finished service results — exactly how a real fleet
    # shares state.
    return tmp_path_factory.mktemp("fleet-cache")


@pytest.fixture(scope="module")
def golden(cache_dir):
    return Workbench(SMALL, cache_dir=cache_dir).run("database")


def _post(url, path, body):
    request = urllib.request.Request(
        f"{url}{path}", data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with urllib.request.urlopen(request, timeout=30.0) as response:
        return json.loads(response.read())


class _Fleet:
    """A coordinator plus N thread workers, torn down deterministically."""

    def __init__(self, cache_dir, workers=1, **coord_kwargs):
        coord_kwargs.setdefault("lease_ttl", 1.0)
        self.coord = FleetCoordinator(
            port=0, settings=SMALL, cache_dir=str(cache_dir), **coord_kwargs,
        ).start()
        self.workers = []
        self.threads = []
        for index in range(workers):
            self.add_worker(f"w{index}")

    def add_worker(self, name, obs=None):
        worker = FleetWorker(
            self.coord.url, name=name, lease_wait=1.0, obs=obs,
        ).join()
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        self.workers.append(worker)
        self.threads.append(thread)
        return worker

    def client(self, **kwargs):
        return ServiceClient(self.coord.url, **kwargs)

    def stop(self):
        self.coord.begin_drain()
        for worker in self.workers:
            worker.request_stop()
        for thread in self.threads:
            thread.join(timeout=15.0)
        self.coord.stop()


@pytest.fixture
def fleet_factory(cache_dir):
    fleets = []

    def make(workers=1, **kwargs):
        fleet = _Fleet(cache_dir, workers=workers, **kwargs)
        fleets.append(fleet)
        return fleet

    yield make
    for fleet in fleets:
        fleet.stop()


class TestFleetExecution:
    def test_simulate_bit_identical_to_single_node(
        self, fleet_factory, golden,
    ):
        fleet = fleet_factory(workers=1)
        client = fleet.client()
        health = client.health()
        assert health["mode"] == "fleet"
        assert health["fleet"]["workers"] == 1
        assert "reference" in health["backends"]

        receipt = client.submit({
            "kind": "simulate",
            "job": {"workload": "database", "variant": "pc"},
            "backend": "event",
        })
        status = client.wait(receipt["id"], timeout=120)
        assert status["state"] == "done"
        report = RunReport.from_dict(status["result"]["report"])
        assert report.jobs[0].ok
        assert report.jobs[0].result == golden

    def test_sweep_spreads_over_two_workers(self, fleet_factory, golden):
        fleet = fleet_factory(workers=2, max_inflight=1)
        client = fleet.client()
        receipt = client.submit({
            "kind": "sweep",
            "sweep": {
                "workloads": ["database"],
                "variant": "pc",
                "axes": {"store_queue": [8, 16]},
            },
            "backend": "event",
        })
        status = client.wait(receipt["id"], timeout=180)
        assert status["state"] == "done"
        assert len(status["result"]["records"]) == 2
        report = RunReport.from_dict(status["result"]["report"])
        assert all(job.ok for job in report.jobs)
        assert sum(w.tasks_done for w in fleet.workers) == 2
        # order is the sweep's grid order, regardless of which worker ran
        # which point
        queues = [dict(job.spec.core_changes)["store_queue"]
                  for job in report.jobs]
        assert queues == [8, 16]

    def test_dead_worker_shard_resumes_from_checkpoint(
        self, fleet_factory, golden, cache_dir,
    ):
        """A worker dies mid-shard; its shard is re-routed and *resumed*.

        The zombie leases one shard over the real wire, executes it with a
        kill fault (so verified checkpoints land in the shared store),
        then goes silent.  After eviction the replacement worker must
        finish from the zombie's checkpoint — and the merged result must
        equal the straight-through golden bit for bit.
        """
        fleet = fleet_factory(workers=0, lease_ttl=0.3)
        url = fleet.coord.url
        zombie = _post(url, "/v1/fleet/register", {"name": "zombie"})

        client = fleet.client()
        receipt = client.submit({
            "kind": "simulate",
            "job": {"workload": "database", "variant": "pc"},
            "shards": 2,
            "checkpoint_every": 500,
        })
        job_id = receipt["id"]

        # Long-poll until the expansion lands and the zombie holds a lease.
        lease = _post(
            url, "/v1/fleet/lease",
            {"worker": zombie["worker"], "max": 1, "wait": 20},
        )
        assert len(lease["tasks"]) == 1
        spec = serialize.from_jsonable(lease["tasks"][0]["spec"])
        assert spec.sharded and spec.checkpoint_every == 500

        # Execute the leased shard with a kill fault: checkpoints are
        # written to the shared cache, then the attempt dies.
        runner = EngineRunner(
            settings=SMALL, cache_dir=str(cache_dir), workers=1, retries=0,
        )
        # Fault positions are absolute: aim inside the leased shard.
        doomed = dataclasses.replace(
            spec, fault=f"kill@{spec.shard_start + 600}",
        )
        outcome = runner.run([doomed]).jobs[0]
        assert not outcome.ok
        # The kill fired at checkpoint-save time, so the failed attempt
        # reports nothing — but its snapshot is in the shared store (the
        # token excludes the fault field, so any worker can resume it).
        from repro.engine.cache import ArtifactCache, resolve_cache_dir
        from repro.shard.checkpoint import CheckpointStore

        store = CheckpointStore(ArtifactCache(resolve_cache_dir(cache_dir)))
        assert store.load(spec, SMALL) is not None
        # ... and the zombie never reports back, never heartbeats again.

        fleet.add_worker("replacement")
        status = client.wait(job_id, timeout=180)
        assert status["state"] == "done"

        sharded = status["result"]["sharded"]
        assert sharded["rounds"] == 2          # the shard was re-leased
        assert sharded["resumed_shards"] >= 1  # ... and resumed, not redone
        report = ShardedReport.from_dict(status["result"]["report"])
        assert report.merged == golden
        resumed = [job for job in report.jobs if job.resumed_pos >= 0]
        assert resumed and all(job.ok for job in report.jobs)
        assert fleet.coord.registry.evicted_total == 1

    def test_cluster_wide_dedup_serves_from_result_store(
        self, fleet_factory, cache_dir,
    ):
        body = {
            "kind": "simulate",
            "job": {
                "workload": "database", "variant": "pc",
                "core_changes": {"store_queue": 24},
            },
            "backend": "event",
        }
        fleet = fleet_factory(workers=1)
        client = fleet.client()
        first = client.wait(client.submit(body)["id"], timeout=120)
        assert first["state"] == "done"
        before = fleet.coord.metrics.to_dict()["counters"].get(
            "fleet_result_cache_hits_total", 0,
        )
        assert before == 0

        again = client.wait(client.submit(body)["id"], timeout=30)
        assert again["state"] == "done"
        assert again["result"] == first["result"]
        counters = fleet.coord.metrics.to_dict()["counters"]
        assert counters["fleet_result_cache_hits_total"] == 1

        # A *different* coordinator sharing the store — and owning ZERO
        # workers — still answers instantly: dedup-by-request-hash extends
        # across nodes and restarts.
        other = fleet_factory(workers=0)
        answer = other.client().wait(
            other.client().submit(body)["id"], timeout=30,
        )
        assert answer["state"] == "done"
        assert answer["result"] == first["result"]


class TestFleetObservability:
    """Cross-process trace propagation and metrics federation, end to end."""

    def test_sigkill_resume_yields_one_connected_trace_tree(
        self, fleet_factory, cache_dir, tmp_path,
    ):
        """One job, two workers, one SIGKILL: still a single span tree.

        The zombie worker leases a shard over the real wire, restores the
        propagated trace context, executes with a kill fault (emitting its
        engine spans parented under the coordinator's job span), then goes
        silent.  The replacement resumes from the zombie's checkpoint.
        The merged trace must form ONE connected tree rooted at the
        coordinator's ``fleet_job`` span, with engine spans from both
        workers — and the result must stay bit-identical to a single-node
        run without any tracing (observer neutrality).
        """
        from repro.obs import (
            ObsOptions,
            connected_roots,
            job_timeline,
            load_events,
            span_tree,
            trace_context,
        )

        golden = Workbench(SMALL, cache_dir=cache_dir).run("tpcw")
        trace_dir = tmp_path / "traces"
        obs = ObsOptions.for_trace(trace_dir, trace_epochs=False)
        fleet = fleet_factory(workers=0, lease_ttl=0.3, obs=obs)
        url = fleet.coord.url
        zombie = _post(url, "/v1/fleet/register", {"name": "obs-zombie"})

        client = fleet.client()
        receipt = client.submit({
            "kind": "simulate",
            "job": {"workload": "tpcw", "variant": "pc"},
            "shards": 2,
            "checkpoint_every": 500,
        })
        job_id = receipt["id"]

        lease = _post(
            url, "/v1/fleet/lease",
            {"worker": zombie["worker"], "max": 1, "wait": 20},
        )
        assert len(lease["tasks"]) == 1
        entry = lease["tasks"][0]
        # The lease carries the job's trace context on the wire.
        assert entry["traceparent"].startswith(f"00-{job_id}-")

        runner = EngineRunner(
            settings=SMALL, cache_dir=str(cache_dir), workers=1, retries=0,
            obs=obs,
        )
        leased = serialize.from_jsonable(entry["spec"])
        # Fault positions are absolute: aim inside the leased shard.
        doomed = dataclasses.replace(
            leased, fault=f"kill@{leased.shard_start + 600}",
        )
        with trace_context(entry["traceparent"]):
            outcome = runner.run([doomed]).jobs[0]
        assert not outcome.ok
        # ... and the zombie never reports back, never heartbeats again.

        fleet.add_worker("obs-replacement", obs=obs)
        status = client.wait(job_id, timeout=180)
        assert status["state"] == "done"

        # Neutrality: tracing + federation changed nothing in the result.
        report = ShardedReport.from_dict(status["result"]["report"])
        assert report.merged == golden

        events = load_events(trace_dir)
        roots = connected_roots(events, job_id)
        assert len(roots) == 1, f"split trace tree: {len(roots)} roots"
        (root,) = roots
        nodes = span_tree(events, job_id)
        assert nodes[root]["name"] == "fleet_job"
        batches = [
            node for node in nodes.values()
            if node["name"] == "engine_batch" and node["parent"] == root
        ]
        assert len(batches) >= 2  # spans from both the zombie and the
        #                           replacement hang under the job root

        timeline = job_timeline(events, job_id)
        assert timeline is not None and timeline.state == "done"
        assert len(timeline.workers) == 2
        assert timeline.resumes >= 1
        assert timeline.phases["recovery"] > 0.0
        # The five phases tile the wall: reconcile within the 5% bound.
        assert timeline.phase_sum == pytest.approx(
            timeline.wall, rel=0.05,
        )

    def test_workers_federate_labeled_series_onto_metrics(
        self, fleet_factory,
    ):
        from test_obs_metrics import parse_exposition

        fleet = fleet_factory(workers=2, max_inflight=1)
        client = fleet.client()
        receipt = client.submit({
            "kind": "sweep",
            "sweep": {
                "workloads": ["database"],
                "variant": "pc",
                "axes": {"store_queue": [40, 48]},
            },
            "backend": "event",
        })
        assert client.wait(receipt["id"], timeout=180)["state"] == "done"

        def scrape():
            with urllib.request.urlopen(
                fleet.coord.url + "/metrics", timeout=10.0,
            ) as response:
                return response.read().decode("utf-8")

        # Totals ride on heartbeats; wait for both workers to phone home.
        family = "repro_fleet_worker_tasks_done_total"
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            families = parse_exposition(scrape())
            samples = families.get(family, {"samples": []})["samples"]
            if (
                len(samples) == 2
                and sum(value for _, _, value in samples) == 2
            ):
                break
            time.sleep(0.2)
        families = parse_exposition(scrape())
        assert families[family]["type"] == "counter"
        labels = sorted(labels for _, labels, _ in families[family]["samples"])
        assert labels == ['{worker="w0"}', '{worker="w1"}']
        assert sum(v for _, _, v in families[family]["samples"]) == 2

        # Fleet-wide total gauge, derived from the same reports.
        total_family = families["repro_fleet_tasks_done_total"]
        assert total_family["samples"][0][2] == 2

        # Point-in-time health gauges carry per-worker labels too, and
        # are rebuilt per scrape for live workers only.
        inflight = families["repro_fleet_worker_inflight"]
        assert sorted(
            labels for _, labels, _ in inflight["samples"]
        ) == ['{worker="w0"}', '{worker="w1"}']

        # The JSON rendering exposes the same labeled section.
        with urllib.request.urlopen(
            fleet.coord.url + "/metrics?format=json", timeout=10.0,
        ) as response:
            snapshot = json.loads(response.read())
        series = {
            entry["labels"]["worker"]: entry["value"]
            for entry in snapshot["labeled"]["fleet_worker_tasks_done_total"]
        }
        assert set(series) == {"w0", "w1"}
        assert sum(series.values()) == 2

    def test_eviction_retains_federated_totals_end_to_end(
        self, fleet_factory,
    ):
        """Evicting a worker must not erase what it already reported."""
        fleet = fleet_factory(workers=0, lease_ttl=0.3)
        coord = fleet.coord
        ghost = _post(
            fleet.coord.url, "/v1/fleet/register", {"name": "ghost"},
        )
        _post(
            fleet.coord.url, "/v1/fleet/heartbeat",
            {"worker": ghost["worker"],
             "metrics": {"tasks_done_total": 5.0}},
        )
        assert coord.federation.fleet_total("tasks_done_total") == 5.0
        # Go silent; the eviction loop reaps the lease.
        deadline = time.monotonic() + 10.0
        while (
            coord.registry.evicted_total == 0
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        assert coord.registry.evicted_total == 1
        assert coord.federation.fleet_total("tasks_done_total") == 5.0
        assert coord.metrics.labeled_value(
            "fleet_worker_tasks_done_total", {"worker": "ghost"},
        ) == 5.0


class TestFleetBackpressure:
    def test_no_workers_means_structured_503(self, fleet_factory):
        fleet = fleet_factory(workers=0)
        with pytest.raises(ServiceError) as excinfo:
            fleet.client().submit({
                "kind": "simulate",
                "job": {"workload": "tpcw", "variant": "pc"},
            })
        assert excinfo.value.status == 503
        assert excinfo.value.payload["code"] == "saturated"
        assert excinfo.value.retry_after >= 1  # from the Retry-After header

    def test_full_queue_answers_429_with_retry_after(self, fleet_factory):
        fleet = fleet_factory(workers=0, queue_capacity=1, max_inflight=1)
        # A registered-but-idle worker keeps admission open while ensuring
        # nothing dequeues: one claimed job saturates its single slot, so
        # the dispatcher stops claiming and the queue fills.
        _post(fleet.coord.url, "/v1/fleet/register", {"name": "idler"})
        client = fleet.client()

        def submit(queue):
            return client.submit({
                "kind": "simulate",
                "job": {
                    "workload": "specjbb", "variant": "pc",
                    "core_changes": {"store_queue": queue},
                },
            })

        submit(4)
        deadline = time.monotonic() + 5.0
        while (
            fleet.coord.queue.counts_by_state()["running"] < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)  # dispatcher claims #1; capacity frees up
        submit(8)  # fills the single queued slot
        with pytest.raises(ServiceError) as excinfo:
            submit(12)
        assert excinfo.value.status == 429
        assert excinfo.value.payload["code"] == "saturated"
        assert excinfo.value.retry_after >= 1

        # Higher-priority work sheds the queued job instead of bouncing.
        queued = [
            job for job in fleet.coord.queue.list_jobs()
            if job.state.value == "queued"
        ]
        assert len(queued) == 1
        urgent = client.submit({
            "kind": "simulate", "priority": 5,
            "job": {
                "workload": "specjbb", "variant": "pc",
                "core_changes": {"store_queue": 16},
            },
        })
        assert urgent["state"] == "queued"
        shed = client.status(queued[0].id)
        assert shed["state"] == "cancelled"
        victim = fleet.coord.queue.get(queued[0].id)
        assert victim is not None and victim.error.startswith("shed:")

    def test_draining_coordinator_answers_503(self, fleet_factory):
        fleet = fleet_factory(workers=1)
        fleet.coord.begin_drain()
        with pytest.raises(ServiceError) as excinfo:
            fleet.client().submit({
                "kind": "simulate",
                "job": {"workload": "tpcw", "variant": "pc"},
            })
        assert excinfo.value.status == 503
        assert fleet.client().health()["status"] == "draining"

    def test_figure_jobs_are_rejected_structurally(self, fleet_factory):
        fleet = fleet_factory(workers=1)
        with pytest.raises(ServiceError) as excinfo:
            fleet.client().submit({"kind": "figure", "figure": "figure2"})
        assert excinfo.value.status == 400


def _jsonable_result(status="ok", error=""):
    return serialize.to_jsonable(JobResult(
        spec=JobSpec(workload="database"), status=status,
        result=None, error=error,
    ))


class TestCompletionProtocol:
    """The /v1/fleet/complete contract: stale answers are acknowledged,
    malformed batches are rejected atomically — a healthy worker must
    never get an error answer for work the coordinator half-accepted.
    """

    def test_stale_completion_answers_200_not_error(self, fleet_factory):
        # The task's job settled (failed/forgotten) while this worker was
        # still executing; its late answer is a shrug, not a 500 that
        # would crash the worker and cascade through the fleet.
        fleet = fleet_factory(workers=0)
        worker = _post(
            fleet.coord.url, "/v1/fleet/register", {"name": "straggler"},
        )
        answer = _post(
            fleet.coord.url, "/v1/fleet/complete",
            {
                "worker": worker["worker"],
                "results": [{"task": "gone.0", "result": _jsonable_result()}],
            },
        )
        assert answer["ok"] is True
        assert answer["accepted"] == 0
        assert answer["stale"] == 1

    def test_malformed_batch_rejected_before_any_result_applies(
        self, fleet_factory,
    ):
        fleet = fleet_factory(workers=0)
        url = fleet.coord.url
        worker = _post(url, "/v1/fleet/register", {"name": "w"})
        client = fleet.client()
        client.submit({
            "kind": "sweep",
            "sweep": {
                "workloads": ["database"],
                "variant": "pc",
                "axes": {"store_queue": [8, 16]},
            },
        })
        lease = _post(
            url, "/v1/fleet/lease",
            {"worker": worker["worker"], "max": 2, "wait": 20},
        )
        assert len(lease["tasks"]) == 2
        good, other = (entry["task"] for entry in lease["tasks"])

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(url, "/v1/fleet/complete", {
                "worker": worker["worker"],
                "results": [
                    {"task": good, "result": _jsonable_result()},
                    {"task": other, "result": {"garbage": True}},
                ],
            })
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert "results[1]" in body["error"]
        # atomic rejection: the valid first entry was NOT applied
        assert fleet.coord.router.counts()["leased"] == 2

        answer = _post(url, "/v1/fleet/complete", {
            "worker": worker["worker"],
            "results": [
                {"task": good, "result": _jsonable_result()},
                {"task": other, "result": _jsonable_result()},
            ],
        })
        assert answer["accepted"] == 2

    def test_malformed_content_length_answers_400(self, fleet_factory):
        fleet = fleet_factory(workers=0)
        with socket.create_connection(
            (fleet.coord.host, fleet.coord.port), timeout=5.0,
        ) as sock:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Length: banana\r\n\r\n"
            )
            data = sock.recv(65536)
        assert data.split(b"\r\n", 1)[0] == b"HTTP/1.1 400 Bad Request"


class TestWorkerResilience:
    def _worker(self):
        worker = FleetWorker("http://127.0.0.1:1")
        worker.worker_id = "w-test"
        return worker

    def test_rejected_completion_is_dropped_not_fatal(self, monkeypatch):
        worker = self._worker()

        def reject(path, payload):
            raise urllib.error.HTTPError(path, 500, "boom", None, None)

        monkeypatch.setattr(worker, "_post", reject)
        assert worker._post_complete([{"task": "t", "result": None}]) is True

    def test_eviction_410_stops_the_worker(self, monkeypatch):
        worker = self._worker()

        def gone(path, payload):
            raise urllib.error.HTTPError(path, 410, "gone", None, None)

        monkeypatch.setattr(worker, "_post", gone)
        assert worker._post_complete([{"task": "t", "result": None}]) is False

    def test_unreachable_coordinator_retries_then_gives_up(
        self, monkeypatch,
    ):
        worker = self._worker()
        worker.max_connect_failures = 3
        calls = []

        def unreachable(path, payload):
            calls.append(path)
            raise ConnectionRefusedError("nope")

        monkeypatch.setattr(worker, "_post", unreachable)
        assert worker._post_complete([{"task": "t", "result": None}]) is False
        assert len(calls) == 3


class TestFleetDrain:
    def test_drain_finishes_backlog_and_releases_workers(
        self, fleet_factory,
    ):
        fleet = fleet_factory(workers=1)
        client = fleet.client()
        receipt = client.submit({
            "kind": "simulate",
            "job": {
                "workload": "database", "variant": "pc",
                "core_changes": {"store_queue": 32},
            },
            "backend": "event",
        })
        abandoned = fleet.coord.drain(timeout=120.0)
        assert abandoned == 0
        assert client.status(receipt["id"])["state"] == "done"
        # the drained worker observes the flag and leaves by itself
        deadline = time.monotonic() + 10.0
        while (
            fleet.coord.registry.count() and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        assert fleet.coord.registry.count() == 0

    def test_fleet_status_payload(self, fleet_factory):
        fleet = fleet_factory(workers=2)
        status = fleet.client().fleet_status()
        assert len(status["workers"]) == 2
        assert status["tasks"] == {
            "pending": 0, "leased": 0, "done": 0, "failed": 0,
        }
        assert status["draining"] is False
