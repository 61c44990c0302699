#!/usr/bin/env python
"""CI fault-injection smoke: kill a worker mid-shard, verify recovery.

Runs one workload unsharded (the golden), then sharded across real pool
workers with a ``kill@M`` fault injected into the shard specs.  The kill
hard-exits one worker mid-shard; the engine must recover on a retry
round, resume the dead shard from its last persisted checkpoint, and
produce a merged result bit-identical to the golden.

Exits non-zero (with a diagnostic) on any deviation, so the checkpoint
directory can be uploaded as a CI artifact for post-mortem.

Usage::

    python scripts/fault_smoke.py [--cache-dir DIR] [--shards N]
        [--checkpoint-every K] [--kill-at M]
"""

from __future__ import annotations

import argparse
import sys

from repro.engine.runner import EngineRunner, JobSpec
from repro.harness import ExperimentSettings
from repro.harness.experiment import Workbench


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", default=".ci-fault-cache")
    parser.add_argument("--workload", default="database")
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--checkpoint-every", type=int, default=1000)
    parser.add_argument("--kill-at", type=int, default=1200)
    parser.add_argument("--warmup", type=int, default=3000)
    parser.add_argument("--measure", type=int, default=9000)
    parser.add_argument("--seed", type=int, default=13)
    args = parser.parse_args(argv)

    settings = ExperimentSettings(
        warmup=args.warmup, measure=args.measure, seed=args.seed,
        calibrate=False,
    )

    print(f"fault smoke: golden unsharded run of {args.workload} ...")
    golden = Workbench(settings).run(args.workload)
    print(f"  golden: {golden.summary()}")

    runner = EngineRunner(
        settings=settings, cache_dir=args.cache_dir, workers=2, retries=1,
    )
    spec = JobSpec(workload=args.workload, fault=f"kill@{args.kill_at}")
    print(
        f"fault smoke: sharded x{args.shards}, checkpoint every "
        f"{args.checkpoint_every}, kill@{args.kill_at} "
        "(absolute trace position) ..."
    )
    report = runner.run_sharded(
        spec, args.shards, checkpoint_every=args.checkpoint_every,
    )
    print(f"  plan: {report.plan.describe()}")
    print(f"  {report.summary()}")
    for job in report.jobs:
        mark = "ok" if job.ok else f"FAILED: {job.error}"
        resumed = (
            f" resumed@{job.resumed_pos}" if job.resumed_pos >= 0 else ""
        )
        print(f"  {job.spec.describe():<48} {mark}{resumed}")

    failures = []
    if not report.ok:
        failures.append("sharded run did not recover from the kill")
    if report.merged != golden:
        failures.append("merged result differs from the unsharded golden")
    recovered = report.rounds >= 2 or any(
        job.attempts > 1 for job in report.jobs
    )
    if not recovered:
        failures.append(
            "the injected kill never fired (no retry round or re-attempt)"
        )
    if report.checkpoints_written == 0:
        failures.append("no checkpoints were written")
    if not any(job.resumed_pos >= 0 for job in report.jobs):
        failures.append("the retried shard did not resume from a checkpoint")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"fault smoke OK: recovered in {report.rounds} round(s), "
        f"{report.checkpoints_written} checkpoints, merged == golden"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
