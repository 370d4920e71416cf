"""fedvra benchmark: the synth -> split -> run -> report pipeline, end to end.

    python3 perfbench/run.py --workload cv-serial --seed 3 --seconds 25 --trace 0

Run from anywhere; it works on the checkout that holds this file and
writes only under `<checkout>/.perfbench_work`, which it removes again.

--trace 0 runs the stages as `python -m fedvra.cli` child processes,
with PYTHONPATH=src and BLAS pinned to one thread, repeating the whole
pipeline for --seconds, and reports medians of the end-to-end metrics.
--trace 1 runs the pipeline in this process instead, alternating an
untraced pass with a traced one (see tracing.py), and reports the
per-layer metrics of layers.py. Either way every output is checked
against the digests and work counts pinned in pinned.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. attempted counts operations:
each stage invocation and each pinned output file of every pipeline
pass; failed counts stages that exited non-zero and files that are
missing or differ from their pinned digest.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

from layers import METRICS as LAYER_METRICS, layer_metrics, stage_accounting
from outputs import check_digests, collect_digests, work_counts
from pipeline import (
    BLAS_THREAD_VARS,
    child_env,
    fresh_dir,
    run_pipeline_in_process,
    run_pipeline_processes,
)
from tracing import Tracer
from workloads import STAGES, WORKLOADS, input_seed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench_work"
PINNED = BENCH_DIR / "pinned.json"
# Stop starting stages after this long, so the run exits well within 180 s.
HARD_LIMIT_S = 160.0

E2E_METRICS = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("report_s", "s"),
    ("pipeline_s", "s"),
    ("train_samples_per_s", "1/s"),
    ("resamples_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
# The stages whose wall times add up to each time metric.
STAGE_TIMES = {
    "setup_s": ("synth", "split"),
    "run_s": ("run",),
    "report_s": ("report",),
    "pipeline_s": STAGES,
}
EXACT_COUNTS = ("train_samples", "steps", "fits", "rounds", "resamples", "redrawn", "records")


class Checker:
    """Counts operations and failures, and checks outputs against the pins."""

    def __init__(self, pinned: dict):
        self.expected_digests = pinned["digests"]
        self.expected_counts = pinned["counts"]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def problem(self, text: str) -> None:
        if text not in self.problems:
            self.problems.append(text)

    def check(self, pipeline, workdir: Path) -> dict[str, int]:
        """Check one finished pipeline; returns its work counts."""
        self.attempted += len(pipeline.stages)
        for stage in pipeline.failed_stages:
            self.failed += 1
            last = stage.error.splitlines()[-1] if stage.error else ""
            self.problem(f"stage {stage.name} exited {stage.exit_code}: {last}")
        digests = collect_digests(workdir)
        mismatches = check_digests(digests, self.expected_digests)
        self.attempted += len(self.expected_digests)
        self.failed += len(mismatches)
        for text in mismatches:
            self.problem(text)
        try:
            counts = work_counts(workdir)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.problem(f"work counts unavailable: {type(exc).__name__}: {exc}")
            counts = dict.fromkeys(EXACT_COUNTS, 0)
        for name in EXACT_COUNTS:
            if counts[name] != self.expected_counts[name]:
                self.problem(f"count {name} is {counts[name]}, pinned {self.expected_counts[name]}")
        return counts


def _fits(start: float, seconds: float, passes: int) -> bool:
    """Whether one more pass, at the mean pass time so far, ends in time."""
    elapsed = time.perf_counter() - start
    return passes == 0 or elapsed + elapsed / passes <= seconds


def _spread(values) -> str:
    return f"median {statistics.median(values):.4f}  min {min(values):.4f}  max {max(values):.4f}  n={len(values)}"


def measure_end_to_end(workload, stage_args, seconds: float, checker: Checker) -> dict:
    env = child_env(ROOT)
    workdir = WORK / workload.name
    hard_deadline = time.perf_counter() + HARD_LIMIT_S
    # One untimed pass first: it compiles the package's bytecode and warms
    # the file cache. Its outputs are checked like every other pass.
    fresh_dir(workdir)
    checker.check(run_pipeline_processes(stage_args, workdir, env, hard_deadline), workdir)
    start = time.perf_counter()
    passes = []
    while _fits(start, seconds, len(passes)) and time.perf_counter() < hard_deadline:
        fresh_dir(workdir)
        result = run_pipeline_processes(stage_args, workdir, env, hard_deadline)
        counts = checker.check(result, workdir)
        passes.append(result)

    samples = {name: [p.wall(*stages) for p in passes] for name, stages in STAGE_TIMES.items()}
    samples["peak_rss_mb"] = [max(s.max_rss_mb for s in p.stages) for p in passes]
    for name, values in samples.items():
        line = f"{name:>20}: {_spread(values)}"
        if name in STAGE_TIMES:
            # CPU time (user + system) leaves out the time a virtual machine's
            # host steals, so it shows whether a wall-time change was the program.
            cpu = statistics.median(p.cpu(*STAGE_TIMES[name]) for p in passes)
            line += f"  cpu median {cpu:.4f}"
        print(line)
    values = {name: statistics.median(v) for name, v in samples.items()}
    values["train_samples_per_s"] = counts["train_samples"] / values["run_s"]
    values["resamples_per_s"] = counts["resamples"] / values["report_s"]
    print(
        f"{'train_samples_per_s':>20}: {values['train_samples_per_s']:.1f} "
        f"({counts['train_samples']} samples, {counts['steps']} steps, {counts['fits']} fits, "
        f"{counts['rounds']} rounds)"
    )
    print(
        f"{'resamples_per_s':>20}: {values['resamples_per_s']:.1f} "
        f"({counts['resamples']} resamples, {counts['redrawn']} redrawn)"
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E_METRICS}


def _print_accounting(accounting: dict) -> None:
    layers = sorted({k for acc in accounting.values() for k in acc} - {"wall", "unattributed", "overlap"})
    print("self time by layer per stage (s), traced pass with the median wall time:")
    print(f"{'stage':>8} {'wall':>8} " + " ".join(f"{l:>10}" for l in layers) + f" {'unattrib':>9} {'overlap':>8}")
    for stage in STAGES:
        acc = accounting.get(stage, {})
        cells = " ".join(f"{acc.get(l, 0.0):10.4f}" for l in layers)
        print(f"{stage:>8} {acc.get('wall', 0.0):8.4f} {cells} {acc.get('unattributed', 0.0):9.4f} {acc.get('overlap', 0.0):8.4f}")


def measure_traced(workload, stage_args, seconds: float, checker: Checker) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    cli = importlib.import_module("fedvra.cli")
    workdir = WORK / workload.name
    start = time.perf_counter()
    untraced, traced, per_pass, accountings = [], [], [], []
    while _fits(start, seconds, len(traced)) and time.perf_counter() < start + HARD_LIMIT_S:
        fresh_dir(workdir)
        result = run_pipeline_in_process(cli, stage_args, workdir)
        checker.check(result, workdir)
        untraced.append(result.wall(*STAGES))

        fresh_dir(workdir)
        tracer = Tracer()
        tracer.install()
        try:
            result = run_pipeline_in_process(cli, stage_args, workdir, tracer.span)
        finally:
            tracer.uninstall()
        counts = checker.check(result, workdir)
        traced.append(result.wall(*STAGES))
        accounting = stage_accounting(tracer.spans)
        metrics = layer_metrics(tracer.spans, accounting, counts, workload.threads)
        for stage, acc in accounting.items():
            attributed = sum(v for k, v in acc.items() if k not in ("wall", "unattributed", "overlap"))
            gap = attributed + acc["unattributed"] - acc["overlap"] - acc["wall"]
            if abs(gap) > 1e-6:
                checker.problem(f"stage {stage}: self times miss the wall time by {gap:.3g} s")
        if metrics["network.steps"] != counts["steps"]:
            checker.problem(f"traced {metrics['network.steps']} steps, outputs imply {counts['steps']}")
        per_pass.append(metrics)
        accountings.append(accounting)

    for name in ("network.steps", "seeds.make_rng_calls", "seeds.derive_seed_calls"):
        if len({m[name] for m in per_pass}) != 1:
            checker.problem(f"{name} differs between traced passes: {[m[name] for m in per_pass]}")
    values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    print(f"{'untraced pipeline_s':>20}: {_spread(untraced)}")
    print(f"{'traced pipeline_s':>20}: {_spread(traced)}")
    median_pass = sorted(range(len(traced)), key=traced.__getitem__)[(len(traced) - 1) // 2]
    _print_accounting(accountings[median_pass])
    print(
        f"network+federated share of run: {values['trace.run_network_federated_frac']:.3f}; "
        f"stats share of report: {values['trace.report_stats_frac']:.3f}"
    )
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        **{var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (ROOT / "src" / "fedvra" / "cli.py").is_file():
        print(f"error: no fedvra sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2

    # Before numpy is imported, by the traced run or by environment().
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    workload = WORKLOADS[args.workload]
    seed = input_seed(args.seed)
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))[workload.name][str(seed)]
    checker = Checker(pinned)
    stage_args = workload.stage_args(seed)
    print(f"workload {workload.name}, input seed {seed}, {args.seconds:g} s, trace {args.trace}")
    try:
        if args.trace:
            metrics = measure_traced(workload, stage_args, args.seconds, checker)
        else:
            metrics = measure_end_to_end(workload, stage_args, args.seconds, checker)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    frac = checker.failed / checker.attempted
    print(f"{'failed_frac':>20}: {frac:.4f} ratio ({checker.failed} failed of {checker.attempted} operations)")
    for text in checker.problems:
        print(f"problem: {text}")
    print(json.dumps({"env": environment()}))
    print(
        json.dumps(
            {"correct": checker.correct, "attempted": checker.attempted, "failed": checker.failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
