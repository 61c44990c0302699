"""Fast self-check of the benchmark at small ``--no-calibrate`` sizing.

Run from the repository root with ``python3 -m pytest ledgerbench -q``.
Each workload runs once, traced (which also runs it untraced for the
overhead rows), and must print every end-to-end and per-layer metric with
its unit, the workload's ledger rows, and no failed operation.  The
ledger's bound check is tested on made-up spans.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER  # noqa: E402
from tracing import ledger  # noqa: E402

SMALL = ["--seconds", "1", "--warmup", "2000", "--measure", "6000",
         "--no-calibrate"]

#: Ledger rows each workload prints in addition to the JSON metrics.
LEDGER_ROWS = {
    "cold_start": ["cold_sweep_s"],
    "warm_explore": ["warm_run_s", "sweep_sim_insts_per_s", "smt_run_s",
                     "smt.run_s"],
    "service_mix": [
        "service_jobs_per_s", "service_latency_p50_s",
        "service_latency_samples", "service.submit_s",
        "service.queue_wait_s", "service.exec_s",
        "service.simulate_latency_p50_s", "service.resubmit_latency_p50_s",
        "service.estimate_latency_p50_s", "service.dedup_ratio",
    ],
}


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "ledgerbench" / "run.py"),
         "--workload", workload, "--seed", "5", "--trace", str(trace), *SMALL],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(LEDGER_ROWS))
def test_workload_emits_every_metric(workload: str) -> None:
    done = run_bench(ROOT, workload, trace=1)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 1
    assert "error_rate 0.000000" in done.stdout
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == PER_LAYER
    text = done.stdout
    for name, unit in END_TO_END.items():
        assert text.count(f"overhead {name}") == 1
        for label in ("untraced", "traced"):
            row = next(line for line in lines
                       if line.startswith(f"# [{label}] e2e {name} "))
            assert row.split()[-1] == unit
    for name in LEDGER_ROWS[workload]:
        assert f" {name} " in text, name
    assert "ledger [run] roots" in text


def span(name, span_id, parent, pid, start, end, **extra):
    return {"id": span_id, "name": name, "parent": parent, "pid": pid,
            "wall": start, "start": start, "end": end, **extra}


def test_ledger_bounds_each_root_by_its_pool() -> None:
    # A 10 s sweep whose batch ran two pool workers for 8 s each.
    spans = [
        span("call.api.sweep", "1-1", None, 1, 0.0, 10.0),
        span("engine.runner.batch", "1-2", "1-1", 1, 1.0, 9.5, workers=2),
        span("engine.runner.job", "2-1", "1-2", 2, 1.2, 9.2),
        span("core.simulate", "2-2", "2-1", 2, 2.0, 9.0),
        span("engine.runner.job", "3-1", "1-2", 3, 1.3, 9.3),
    ]
    book = ledger(spans, 0.0, 100.0)
    assert book["breaches"] == []
    assert book["unattributed_s"] == pytest.approx(1.5)
    assert book["self_s"]["core.simulate"] == pytest.approx(7.0)
    # The batch's own time is when no worker job was running.
    assert book["self_s"]["engine.runner.batch"] == pytest.approx(0.4)
    row = book["roots"]["call.api.sweep"]
    assert row["layers_s"] + row["unattributed_s"] == pytest.approx(17.9)
    assert row["bound_s"] == pytest.approx(20.0)
    # A worker that ran 20 s for a 10 s call breaks the bound.
    spans.append(span("engine.runner.job", "4-1", "1-2", 4, 1.0, 21.0))
    assert len(ledger(spans, 0.0, 100.0)["breaches"]) == 1


def test_benchmark_json_declares_the_printed_metrics() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(LEDGER_ROWS)


def test_untraced_run_prints_end_to_end_metrics() -> None:
    done = run_bench(ROOT, "cold_start", trace=0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == END_TO_END
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copytree(HERE, tmp_path / "ledgerbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = run_bench(tmp_path, "cold_start", trace=0)
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")
