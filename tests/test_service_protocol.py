"""Request validation and wire serialization (repro.service.protocol)."""

from __future__ import annotations

import json

import pytest

from repro.config import ScoutMode, StorePrefetchMode
from repro.core.epoch import EpochRecord, TerminationCondition, TriggerKind
from repro.core.results import SimulationResult
from repro.engine import from_jsonable, to_jsonable
from repro.engine.runner import JobResult, JobSpec, RunReport
from repro.harness.sweeps import SweepSpec
from repro.service.protocol import (
    PROTOCOL_VERSION,
    JobRequest,
    ProtocolError,
    jsonify,
    parse_job_request,
)


def wire(payload):
    """Force a real JSON round trip, as HTTP would."""
    return json.loads(json.dumps(payload))


class TestParseJobRequest:
    def test_sweep_request_coerces_enum_axes(self):
        request = parse_job_request({
            "kind": "sweep",
            "sweep": {
                "workloads": ["database", "tpcw"],
                "axes": {
                    "store_prefetch": ["sp0", "sp2"],
                    "store_queue": [16, 32],
                },
            },
        })
        assert request.kind == "sweep"
        axes = request.sweep.axes_dict
        assert axes["store_prefetch"] == [
            StorePrefetchMode.NONE, StorePrefetchMode.AT_EXECUTE,
        ]
        assert axes["store_queue"] == [16, 32]
        assert len(request.sweep.to_jobs()) == 2 * 4

    def test_sweep_accepts_singular_workload(self):
        request = parse_job_request({
            "kind": "sweep",
            "sweep": {"workload": "database",
                      "axes": {"store_queue": [16]}},
        })
        assert request.sweep.workloads == ("database",)

    def test_simulate_request(self):
        request = parse_job_request({
            "kind": "simulate",
            "job": {
                "workload": "specjbb",
                "variant": "wc",
                "core_changes": {"scout": "hws2", "store_buffer": 8},
            },
        })
        assert request.job == JobSpec(
            workload="specjbb", variant="wc",
            core_changes=(("scout", ScoutMode.HWS2), ("store_buffer", 8)),
        )

    def test_figure_request_defaults_all_workloads(self):
        request = parse_job_request({"kind": "figure", "figure": "figure2"})
        assert request.figure == "figure2"
        assert len(request.workloads) == 4

    def test_tune_request_coerces_space(self):
        request = parse_job_request(wire({
            "kind": "tune",
            "tune": {"workload": "database", "strategy": "random",
                     "budget": 8, "seed": 7,
                     "space": {"scout": ["none", "hws2"],
                               "store_buffer": [4, 16]}},
        }))
        assert request.kind == "tune"
        spec = request.tune
        assert spec.strategy == "random"
        assert spec.budget == 8 and spec.seed == 7
        assert spec.space.values("scout") == (
            ScoutMode.NONE, ScoutMode.HWS2,
        )
        assert spec.space.values("store_buffer") == (4, 16)
        assert "tune:database" in spec.describe()

    def test_tune_priority_excluded_from_signature(self):
        body = {
            "kind": "tune",
            "tune": {"workload": "database",
                     "space": {"store_buffer": [4, 16]}},
        }
        low = parse_job_request({**body, "priority": 0})
        high = parse_job_request({**body, "priority": 9})
        assert low.signature() == high.signature()

    @pytest.mark.parametrize("payload,fragment", [
        ({"kind": "tune"}, "'tune'"),
        ({"kind": "tune", "tune": {"workload": "nosuch",
                                   "space": {"store_buffer": [4]}}},
         "'tune.workload'"),
        ({"kind": "tune", "tune": {"workload": "database",
                                   "strategy": "anneal",
                                   "space": {"store_buffer": [4]}}},
         "'tune.strategy'"),
        ({"kind": "tune", "tune": {"workload": "database", "budget": 0,
                                   "space": {"store_buffer": [4]}}},
         "'tune.budget'"),
        ({"kind": "tune", "tune": {"workload": "database", "budget": 9999,
                                   "space": {"store_buffer": [4]}}},
         "'tune.budget'"),
        ({"kind": "tune", "tune": {"workload": "database"}},
         "'tune.space'"),
        ({"kind": "tune", "tune": {"workload": "database",
                                   "space": {"warp_drive": [1]}}},
         "valid axes"),
        ({"kind": "tune", "tune": {"workload": "database",
                                   "space": {"scout": ["sp9"]}}},
         "sp9"),
    ])
    def test_bad_tune_payloads_raise_protocol_error(
            self, payload, fragment):
        with pytest.raises(ProtocolError) as excinfo:
            parse_job_request(payload)
        assert fragment.lower() in str(excinfo.value).lower()

    @pytest.mark.parametrize("payload,fragment", [
        ("not a dict", "JSON object"),
        ({}, "'kind'"),
        ({"kind": "dance"}, "'kind'"),
        ({"kind": "sweep"}, "'sweep'"),
        ({"kind": "sweep", "sweep": {"workloads": [], "axes": {"a": [1]}}},
         "workloads"),
        ({"kind": "sweep",
          "sweep": {"workloads": ["nosuch"], "axes": {"a": [1]}}},
         "unknown workloads"),
        ({"kind": "sweep",
          "sweep": {"workloads": ["database"], "axes": {}}}, "axes"),
        ({"kind": "sweep",
          "sweep": {"workloads": ["database"],
                    "axes": {"store_prefetch": ["sp9"]}}}, "sp9"),
        ({"kind": "simulate"}, "'job'"),
        ({"kind": "simulate", "job": {"workload": "nosuch"}},
         "'job.workload'"),
        ({"kind": "figure", "figure": "figure99"}, "'figure'"),
        ({"kind": "sweep", "priority": "high",
          "sweep": {"workloads": ["database"],
                    "axes": {"store_queue": [16]}}}, "priority"),
    ])
    def test_bad_payloads_raise_protocol_error(self, payload, fragment):
        with pytest.raises(ProtocolError) as excinfo:
            parse_job_request(payload)
        assert fragment.lower() in str(excinfo.value).lower()

    def test_current_protocol_version_accepted(self):
        request = parse_job_request(wire({
            "v": PROTOCOL_VERSION,
            "kind": "simulate",
            "job": {"workload": "database"},
        }))
        assert request.kind == "simulate"

    def test_missing_version_accepted_as_v1(self):
        # Pre-versioning clients send no "v"; they speak v1 by definition.
        request = parse_job_request(wire({
            "kind": "simulate", "job": {"workload": "database"},
        }))
        assert request.kind == "simulate"

    @pytest.mark.parametrize("version", [2, 0, "1", None])
    def test_unsupported_version_is_structured_400(self, version):
        with pytest.raises(ProtocolError) as excinfo:
            parse_job_request(wire({
                "v": version,
                "kind": "simulate",
                "job": {"workload": "database"},
            }))
        assert excinfo.value.status == 400
        message = str(excinfo.value)
        assert "protocol version" in message
        assert f"v{PROTOCOL_VERSION}" in message

    def test_priority_excluded_from_signature(self):
        body = {
            "kind": "sweep",
            "sweep": {"workloads": ["database"],
                      "axes": {"store_queue": [16, 32]}},
        }
        low = parse_job_request({**body, "priority": 0})
        high = parse_job_request({**body, "priority": 9})
        assert low.signature() == high.signature()

    def test_different_work_different_signature(self):
        def build(queues):
            return parse_job_request({
                "kind": "sweep",
                "sweep": {"workloads": ["database"],
                          "axes": {"store_queue": queues}},
            })
        assert build([16, 32]).signature() != build([16, 64]).signature()


class TestWireRoundTrips:
    def test_job_request_round_trip(self):
        request = parse_job_request({
            "kind": "sweep",
            "priority": 2,
            "sweep": {"workloads": ["database"],
                      "axes": {"store_prefetch": ["sp0", "sp1"]}},
        })
        assert JobRequest.from_dict(wire(request.to_dict())) == request

    def test_tune_request_round_trip(self):
        request = parse_job_request({
            "kind": "tune",
            "priority": 1,
            "backend": "event",
            "tune": {"workload": "tpcw", "variant": "wc",
                     "strategy": "genetic", "budget": 12, "seed": 11,
                     "space": {"scout": ["hws0", "hws1"],
                               "store_queue": [16, 64]}},
        })
        back = JobRequest.from_dict(wire(request.to_dict()))
        assert back == request
        assert back.tune.space.grid() == request.tune.space.grid()

    def test_sweep_spec_round_trip(self):
        spec = SweepSpec.build(
            ["database", "specweb"], variant="wc",
            store_queue=[16, 32], scout=["none", "hws1"],
        )
        back = SweepSpec.from_dict(wire(spec.to_dict()))
        assert back == spec
        assert back.to_jobs() == spec.to_jobs()

    def test_simulation_result_round_trip_is_exact(self):
        result = SimulationResult(
            instructions=1000,
            epochs=[
                EpochRecord(
                    index=0, trigger=TriggerKind.STORE,
                    termination=TerminationCondition.STORE_SERIALIZE,
                    store_misses=3, load_misses=1, instructions=140,
                ),
                EpochRecord(
                    index=1, trigger=TriggerKind.LOAD,
                    termination=TerminationCondition.WINDOW_FULL,
                    load_misses=2, instructions=77,
                ),
            ],
            fully_overlapped_stores=4,
            stores_committed=55,
            store_prefetch_requests=13,
        )
        back = from_jsonable(wire(to_jsonable(result)))
        assert back == result
        assert back.epi_per_1000 == result.epi_per_1000
        assert back.store_bandwidth_overhead == \
            result.store_bandwidth_overhead

    def test_run_report_round_trip(self):
        spec = JobSpec(
            workload="database",
            core_changes=(("store_prefetch", StorePrefetchMode.AT_RETIRE),),
        )
        report = RunReport(
            jobs=[JobResult(
                spec=spec, status="ok", wall_time=0.25,
                result=SimulationResult(instructions=10),
                cache_hits=2, cache_misses=1,
            )],
            wall_time=0.5,
            workers=2,
        )
        back = RunReport.from_dict(wire(report.to_dict()))
        assert back == report
        assert back.summary() == report.summary()

    def test_failed_job_round_trip_keeps_error(self):
        spec = JobSpec(workload="tpcw")
        job = JobResult(
            spec=spec, status="failed", error="ValueError: boom", attempts=2,
        )
        back = JobResult.from_dict(wire(job.to_dict()))
        assert back == job and not back.ok


class TestJsonify:
    def test_enum_keys_and_values_become_strings(self):
        data = {
            TriggerKind.STORE: {(1, 2): 0.5},
            "plain": [StorePrefetchMode.NONE, 3, None],
        }
        assert jsonify(data) == {
            "store": {"1,2": 0.5},
            "plain": ["sp0", 3, None],
        }


class TestSmtRequests:
    """SMT fields and the ``estimate`` kind on the wire."""

    def test_simulate_carries_contexts_and_scheduler(self):
        request = parse_job_request(wire({
            "kind": "simulate",
            "job": {
                "workload": "oltp_java",
                "contexts": 2,
                "scheduler": "mlp",
            },
        }))
        assert request.job.contexts == 2
        assert request.job.scheduler == "mlp"

    def test_contexts_default_to_single(self):
        request = parse_job_request({
            "kind": "simulate", "job": {"workload": "database"},
        })
        assert request.job.contexts == 1
        assert request.job.scheduler == ""

    def test_mix_workloads_need_multiple_contexts(self):
        with pytest.raises(ProtocolError) as err:
            parse_job_request({
                "kind": "simulate", "job": {"workload": "oltp_java"},
            })
        assert "workload" in str(err.value)

    @pytest.mark.parametrize("contexts", [0, -1, True, "two", 2.5])
    def test_bad_contexts_rejected(self, contexts):
        with pytest.raises(ProtocolError):
            parse_job_request({
                "kind": "simulate",
                "job": {"workload": "database", "contexts": contexts},
            })

    def test_unknown_scheduler_lists_policies(self):
        with pytest.raises(ProtocolError) as err:
            parse_job_request({
                "kind": "simulate",
                "job": {"workload": "database", "contexts": 2,
                        "scheduler": "fifo"},
            })
        assert "valid schedulers" in str(err.value)

    def test_smt_jobs_cannot_shard_or_checkpoint(self):
        with pytest.raises(ProtocolError) as err:
            parse_job_request({
                "kind": "simulate",
                "job": {"workload": "database", "contexts": 2},
                "shards": 2,
            })
        assert "sharded" in str(err.value)

    def test_smt_fields_change_the_signature(self):
        def build(job):
            return parse_job_request({"kind": "simulate", "job": job})

        base = build({"workload": "database"})
        smt = build({"workload": "database", "contexts": 2})
        mlp = build({"workload": "database", "contexts": 2,
                     "scheduler": "mlp"})
        assert base.signature() != smt.signature()
        assert smt.signature() != mlp.signature()

    def test_estimate_request(self):
        request = parse_job_request(wire({
            "kind": "estimate",
            "job": {
                "workload": "database",
                "core_changes": {"scout": "hws2"},
            },
        }))
        assert request.kind == "estimate"
        assert request.job.workload == "database"
        assert "estimate[" in request.describe()

    def test_estimate_accepts_smt_specs(self):
        request = parse_job_request({
            "kind": "estimate",
            "job": {"workload": "oltp_java", "contexts": 2},
        })
        assert request.job.contexts == 2

    def test_estimate_validates_like_simulate(self):
        with pytest.raises(ProtocolError):
            parse_job_request({
                "kind": "estimate",
                "job": {"workload": "database", "contexts": 0},
            })
