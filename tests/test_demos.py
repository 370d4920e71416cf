"""Every demo script, and the README's library example, runs to
completion against the package in src/, with nothing on stderr and
every RuntimeWarning an error."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args], cwd=ROOT, env=env, capture_output=True, text=True
    )


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.name)
def test_demo_runs(demo):
    result = run_python(str(demo))
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"^## Library\n+```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    assert code, "README has no python block under ## Library"
    result = run_python("-c", code.group(1))
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout.strip()  # the example prints the federated model's F1
