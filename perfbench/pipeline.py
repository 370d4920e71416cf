"""Running the four CLI stages, as child processes or in this process."""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import STAGES

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class StageResult:
    name: str
    exit_code: int
    wall_s: float
    cpu_s: float | None = None
    max_rss_mb: float | None = None
    error: str = ""


@dataclass
class PipelineResult:
    stages: list[StageResult] = field(default_factory=list)

    def wall(self, *names: str) -> float:
        return sum(s.wall_s for s in self.stages if s.name in names)

    def cpu(self, *names: str) -> float:
        return sum(s.cpu_s for s in self.stages if s.name in names)

    @property
    def failed_stages(self) -> list[StageResult]:
        return [s for s in self.stages if s.exit_code != 0]


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def fresh_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def run_stage_process(name: str, args: list[str], cwd: Path, env: dict, timeout_s: float) -> StageResult:
    """One `python -m fedvra.cli` child; its own peak RSS comes from wait4."""
    err_path = cwd / f".{name}.stderr"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "fedvra.cli", name, *args],
            cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        watchdog = threading.Timer(max(timeout_s, 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    error = err_path.read_text(encoding="utf-8", errors="replace").strip()
    err_path.unlink()
    # ru_maxrss is in KiB on Linux
    cpu = usage.ru_utime + usage.ru_stime
    return StageResult(name, proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0, error)


def run_pipeline_processes(stage_args: dict, cwd: Path, env: dict, deadline: float) -> PipelineResult:
    result = PipelineResult()
    for name in STAGES:
        result.stages.append(
            run_stage_process(name, stage_args[name], cwd, env, deadline - time.perf_counter())
        )
    return result


@contextlib.contextmanager
def working_directory(path: Path):
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


def run_pipeline_in_process(cli, stage_args: dict, cwd: Path, stage_span=None) -> PipelineResult:
    """Call `cli.main` for each stage; `stage_span(name)` wraps each call."""
    result = PipelineResult()
    with working_directory(cwd):
        for name in STAGES:
            span = stage_span(f"stage.{name}") if stage_span else contextlib.nullcontext()
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main([name, *stage_args[name]])
                except Exception as exc:  # an uncaught error is a failed stage, not a crash
                    code, err = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
            wall = time.perf_counter() - start
            result.stages.append(StageResult(name, code, wall, error=err.getvalue().strip()))
    return result
