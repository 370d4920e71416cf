"""Every demo script runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SLOW_DEMOS = {"04_bootstrap_comparison.py"}  # about 9 s


@pytest.mark.parametrize(
    "demo",
    [
        pytest.param(path, id=path.name, marks=[pytest.mark.slow] if path.name in SLOW_DEMOS else [])
        for path in sorted((ROOT / "demos").glob("*.py"))
    ],
)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
