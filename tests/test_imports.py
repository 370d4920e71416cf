"""Static checks of the package source: no module imports a name it
never uses, and only the one writer, data._replacing, writes a file.

No linter is a dependency, so each check walks the modules' syntax trees.
A name counts as used when it appears as a name anywhere in the module
(an attribute access such as np.array uses np). __init__.py is exempt
from the import check: its one import from the package, backward, is a
binding the benchmark harness asserts, not a name the package uses.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fedvra"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
WRITER = "_replacing"


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


def file_writes(source: str) -> list[str]:
    """The calls in the source, outside a function named _replacing, that
    open a file for writing or put one in place, as "line N: call".

    A call counts when it is open(file, mode) or path.open(mode) with a
    literal mode holding w, a, x or +; os.open, os.fdopen or mkstemp; a
    write_text, write_bytes, rename or renames method; os.replace; or a
    .replace method of one positional argument (Path.replace: str.replace
    takes two). An archive member opened on the writer's handle, such as
    ZipFile.open(name, "w"), takes its mode second and does not count.
    """
    found = []

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name == WRITER:
            return
        if isinstance(node, ast.Call) and _writes(node):
            found.append(f"line {node.lineno}: {ast.unparse(node.func)}")
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


def _writes(call: ast.Call) -> bool:
    func = call.func
    on_os = isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "os"
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("mkstemp", "fdopen", "write_text", "write_bytes", "rename", "renames") or on_os and name == "open":
        return True
    if name == "replace":
        return on_os or (len(call.args) == 1 and not call.keywords)
    if name == "open":
        mode_at = 1 if isinstance(func, ast.Name) else 0
        modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[mode_at : mode_at + 1]
        return any(isinstance(m, ast.Constant) and isinstance(m.value, str) and set(m.value) & set("wax+") for m in modes)
    return False


def test_file_writes_finds_every_way_to_write():
    source = (
        "import os, tempfile, zipfile\n"
        "from pathlib import Path\n"
        "def _replacing(path):\n"
        "    with open(path + '.tmp', 'wb') as fh:\n"
        "        yield fh\n"
        "    os.replace(path + '.tmp', path)\n"
        "def save(path, text, fh):\n"
        "    open(path).close(), open(path, 'rb').close(), Path(path).open().close()\n"
        "    with open(path, mode='a') as out, Path(path).open('r+') as other:\n"
        "        out.write(text.replace('a', 'b'))\n"
        "    Path(path).write_text(text), Path(path).write_bytes(b'')\n"
        "    tempfile.mkstemp(), os.fdopen(3, 'rb'), os.open(path, os.O_WRONLY)\n"
        "    os.rename(path, path + '.old'), Path(path).replace(path + '.new')\n"
        "    zipfile.ZipFile(fh, 'w').open('member.npy', 'w')\n"
    )
    assert file_writes(source) == [
        "line 9: open",
        "line 9: Path(path).open",
        "line 11: Path(path).write_text",
        "line 11: Path(path).write_bytes",
        "line 12: tempfile.mkstemp",
        "line 12: os.fdopen",
        "line 12: os.open",
        "line 13: os.rename",
        "line 13: Path(path).replace",
    ]


def test_the_one_writer_is_in_data():
    tree = ast.parse((PACKAGE / "data.py").read_text(encoding="utf-8"))
    assert WRITER in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_one_writer_writes_a_file(path):
    assert file_writes(path.read_text(encoding="utf-8")) == []
