"""Static check of the package source: no module imports a name it never uses.

No linter is a dependency, so the check walks each module's syntax tree.
A name counts as used when it appears as a name anywhere in the module
(an attribute access such as np.array uses np). __init__.py is exempt:
its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fedvra"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names the source imports and never uses, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names if alias.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_a_leftover_import():
    source = (
        "import os.path\n"
        "import numpy as np\n"
        "from .experiment import check_cv_folds, run_treatments as run\n"
        "def f():\n"
        "    from .stats import roc_curve\n"
        "    return run(np.zeros(1))\n"
    )
    assert unused_imports(source) == ["check_cv_folds", "os", "roc_curve"]


def test_the_package_modules_are_found():
    assert {"cli.py", "data.py", "experiment.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
