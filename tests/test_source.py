"""Static checks of the source tree."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(
    p for p in [*(ROOT / "src" / "weakkam").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    """The names an import binds that the module never references, with their lines.

    An import line marked ``# noqa: F401`` is exempt, as is ``__future__``.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_scan_sees_an_unused_name():
    source = "import os\nimport sys  # noqa: F401\nfrom a import b, c as d\nprint(b)\n"
    assert unused_imports(source) == ["d (line 3)", "os (line 1)"]


# the names by which a module maps a (cell offset, destination) pair to a
# flat start index: numpy's index (un)ravelling, or a helper of its own
INDEX_CALLS = {"ravel_multi_index", "unravel_index"}
SHIFT_HELPER = re.compile(r"shift_?ind|start_?of|start_?ind")


def call_name(node: ast.Call):
    """The name a call invokes: f(...) and m.f(...) give f, anything else None."""
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def start_index_rules(source: str) -> list:
    """The calls and function definitions of ``source`` that restate the start rule."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            if call_name(node) in INDEX_CALLS:
                found.append(f"{call_name(node)} (line {node.lineno})")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if SHIFT_HELPER.search(node.name.lower()):
                found.append(f"def {node.name} (line {node.lineno})")
    return found


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.parent.name == "weakkam" and p.name != "kernels.py"],
    ids=lambda p: p.name,
)
def test_only_kernels_maps_an_offset_to_a_start_index(path):
    assert start_index_rules(path.read_text()) == []


def test_start_index_scan_sees_each_restatement():
    source = (
        "import numpy as np\nfrom numpy import unravel_index\n"
        "np.ravel_multi_index((1,), (4,), mode='wrap')\nunravel_index(3, (2, 2))\n"
        "def shift_indices(o):\n    pass\n"
        "class G:\n    def _start_of(self, k, j):\n        pass\n"
    )
    assert start_index_rules(source) == [
        "def shift_indices (line 5)",
        "ravel_multi_index (line 3)",
        "unravel_index (line 4)",
        "def _start_of (line 8)",
    ]
    assert start_index_rules((ROOT / "src" / "weakkam" / "kernels.py").read_text()) != []


# the lifecycle steps that only weakkam.cli._run takes for every command
LIFECYCLE_CALLS = {"_manifest", "perf_counter"}


def lifecycle_restatements(source: str) -> list:
    """The timing and manifest calls of ``source`` outside ``_run``, and the
    ``cmd_*`` functions that take a ``threads`` parameter."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and owner != "_run":
                if call_name(node) in LIFECYCLE_CALLS:
                    found.append(f"{call_name(node)} in {owner} (line {node.lineno})")
            elif isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_"):
                if any(a.arg == "threads" for a in node.args.args + node.args.kwonlyargs):
                    found.append(f"def {node.name}(threads) (line {node.lineno})")
    return found


def test_only_run_times_a_command_and_writes_its_manifest():
    source = (ROOT / "src" / "weakkam" / "cli.py").read_text()
    assert lifecycle_restatements(source) == []
    run = next(n for n in ast.parse(source).body if getattr(n, "name", None) == "_run")
    called = {call_name(n) for n in ast.walk(run) if isinstance(n, ast.Call)}
    assert LIFECYCLE_CALLS <= called


def test_lifecycle_scan_sees_each_restatement():
    source = (
        "import time\nT0 = time.perf_counter()\n"
        "def cmd_solve(cfg, out_dir, threads):\n    _manifest(cfg, out_dir)\n"
        "def _run(command):\n    t0 = time.perf_counter()\n    _manifest(command)\n"
    )
    assert lifecycle_restatements(source) == [
        "perf_counter in None (line 2)",
        "def cmd_solve(threads) (line 3)",
        "_manifest in cmd_solve (line 4)",
    ]
