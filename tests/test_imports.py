"""Static checks of the package source: no module imports a name it
never uses, only the one writer, data._replacing, writes a file, only
data.py opens or reads one or spells an institution's name, and no
public name exists only for the tests.

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
DEMOS = sorted((PACKAGE.parent.parent / "demos").glob("*.py"))
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


def file_reads(source: str) -> list[str]:
    """The calls in the source that open a file or read one whole, as
    "line N: call", in source order: open(...), any .open(...) method
    (os.open, Path.open, an archive member's), read_text, read_bytes, and
    np.load. Reading from a handle already open, such as fh.read(), does
    not count: the open did.
    """
    calls = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call) and _reads(node.func)]
    calls.sort(key=lambda node: (node.lineno, node.col_offset))
    return [f"line {node.lineno}: {ast.unparse(node.func)}" for node in calls]


def _reads(func: ast.expr) -> bool:
    if isinstance(func, ast.Name):
        return func.id == "open"
    if not isinstance(func, ast.Attribute):
        return False
    on_numpy = isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")
    return func.attr in ("open", "read_text", "read_bytes") or on_numpy and func.attr == "load"


def test_file_reads_finds_every_way_to_read():
    source = (
        "import json, os, numpy, numpy as np\n"
        "from pathlib import Path\n"
        "def load(path, fh, text):\n"
        "    with open(path) as a, Path(path).open('rb') as b:\n"
        "        a.read(), b.readline(), text.replace('a', 'b')\n"
        "    Path(path).read_text(), Path(path).read_bytes(), json.loads(text)\n"
        "    np.load(fh), numpy.load(path), os.open(path, os.O_RDONLY), np.loads\n"
    )
    assert file_reads(source) == [
        "line 4: open",
        "line 4: Path(path).open",
        "line 6: Path(path).read_text",
        "line 6: Path(path).read_bytes",
        "line 7: np.load",
        "line 7: numpy.load",
        "line 7: os.open",
    ]


def test_the_one_reader_is_in_data():
    source = (PACKAGE / "data.py").read_text(encoding="utf-8")
    assert "_load_text" in {node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    assert file_reads(source)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "data.py"], ids=lambda p: p.name)
def test_only_data_opens_or_reads_a_file(path):
    assert file_reads(path.read_text(encoding="utf-8")) == []


def institution_spellings(source: str) -> list[str]:
    """The string constants "A" and "B" in the source, as "line N: 'A'",
    in source order: outside data.py the names are read from
    data.INSTITUTIONS. A longer string that holds one, such as "A1", does
    not count; the literal text of an f-string, as in f"{name}A", does."""
    found = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Constant) and node.value in ("A", "B")]
    found.sort(key=lambda node: (node.lineno, node.col_offset))
    return [f"line {node.lineno}: {node.value!r}" for node in found]


def test_institution_spellings_finds_every_spelling():
    source = (
        "from .data import INSTITUTIONS\n"
        'SETS = ("A", "B", "combined")\n'
        'SILOS = {"a": (("A", ("A",)),), "A1": "AB"}\n'
        "def f(name=INSTITUTIONS[1]):\n"
        "    return name == 'B' or f\"{name}A\" or b\"A\" or 65\n"
    )
    assert institution_spellings(source) == [
        "line 2: 'A'",
        "line 2: 'B'",
        "line 3: 'A'",
        "line 3: 'A'",
        "line 5: 'B'",
        "line 5: 'A'",
    ]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "data.py"], ids=lambda p: p.name)
def test_only_data_spells_an_institution(path):
    assert institution_spellings(path.read_text(encoding="utf-8")) == []


def unreferenced_names(package: dict[str, str], users: list[str]) -> list[str]:
    """The public top-level functions, classes and constants of the package
    (module name -> source) that no code of the package or of the users
    refers to, as "module.name", sorted.

    A reference is a name read anywhere, an attribute, or an imported name;
    a definition, or an assignment to the name, is not one. Names are
    matched without their module, so a name another module reads under the
    same spelling counts as referenced.
    """
    trees = {module: ast.parse(source) for module, source in package.items()}
    referenced = set()
    for tree in [*trees.values(), *map(ast.parse, users)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name.rpartition(".")[2])
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            found += [f"{module}.{n}" for n in names if not n.startswith("_") and n not in referenced]
    return sorted(found)


def test_unreferenced_names_finds_a_name_only_tests_use():
    package = {
        "core": (
            "import numpy as np\n"
            "LIMIT = 3\n"
            "SPARE: int = 4\n"
            "_PRIVATE = 5\n"
            "def helper(x):\n"
            "    return min(x, LIMIT)\n"
            "def entry(x):\n"
            "    return helper(x)\n"
            "class Shape:\n"
            "    pass\n"
            "class Unused:\n"
            "    pass\n"
        ),
        "cli": "from . import core\nfrom .core import entry as run\ndef main():\n    return run(core.Shape)\n",
    }
    demo = "from fedvra.cli import main\nmain()\n"
    # cli.main is read only by the demo
    assert unreferenced_names(package, [demo]) == ["core.SPARE", "core.Unused"]
    assert unreferenced_names(package, []) == ["cli.main", "core.SPARE", "core.Unused"]


def test_every_public_name_is_used_outside_the_tests():
    package = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    demos = [p.read_text(encoding="utf-8") for p in DEMOS]
    assert DEMOS
    # ROADMAP item 2's demo will read saved models back with load_params
    exempt = {"data.load_params"}
    assert unreferenced_names(package, demos) == sorted(exempt)
