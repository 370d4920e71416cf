"""Write pinned.json: output digests and work counts per workload and input seed.

    python3 perfbench/pin.py

Run it on the commit whose outputs are the reference; it re-pins every
workload and input seed. A change that alters a seeded output on
purpose re-pins and names the changed file and the reason in
CHANGES.md; any other digest change is a failure.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

from outputs import collect_digests, work_counts
from pipeline import child_env, fresh_dir, run_pipeline_processes
from run import PINNED, ROOT, WORK
from workloads import SEED_POOL, WORKLOADS


def pin_one(workload, seed: int) -> dict:
    workdir = WORK / workload.name
    fresh_dir(workdir)
    result = run_pipeline_processes(workload.stage_args(seed), workdir, child_env(ROOT), time.perf_counter() + 600)
    for stage in result.failed_stages:
        raise SystemExit(f"{workload.name} seed {seed}: stage {stage.name} failed: {stage.error}")
    return {"digests": collect_digests(workdir), "counts": work_counts(workdir)}


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    pinned = {}
    try:
        for name in sorted(WORKLOADS):
            pinned[name] = {}
            for seed in range(SEED_POOL):
                pinned[name][str(seed)] = entry = pin_one(WORKLOADS[name], seed)
                print(f"{name} seed {seed}: {len(entry['digests'])} files, {entry['counts']}", flush=True)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
