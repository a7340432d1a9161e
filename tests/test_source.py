"""Static checks of the source tree."""

import ast
import collections
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


# the prefix of every message that names a config key; config._require alone forms it
KEY_MESSAGE = "config key `"


def key_message_formats(source: str, module: str) -> list:
    """The string literals of ``source`` that hold the key-message prefix,
    outside ``_require`` of the module ``config``."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        if (module, owner) == ("config", "_require"):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Constant) and KEY_MESSAGE in str(node.value):
                found.append(f"{owner} (line {node.lineno})")
    return found


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.parent.name == "weakkam"], ids=lambda p: p.name,
)
def test_only_require_formats_a_config_key_message(path):
    assert key_message_formats(path.read_text(), path.stem) == []


def test_key_message_scan_sees_each_restatement():
    source = (
        "def _require(cond, key, msg):\n    raise E(f'config key `{key}`: {msg}')\n"
        "def parse(block):\n    try:\n        build(block)\n    except ValueError as e:\n"
        "        raise E(f'config key `grid.dt`: {e}') from e\n"
        "MESSAGE = 'config key `seed`: must be an integer'\n"
    )
    assert key_message_formats(source, "config") == ["parse (line 7)", "None (line 8)"]
    assert key_message_formats(source, "cli") == [
        "_require (line 2)", "parse (line 7)", "None (line 8)"]
    # the one format the rule allows is the one the real config module has
    config = (ROOT / "src" / "weakkam" / "config.py").read_text()
    assert [f.split()[0] for f in key_message_formats(config, "cli")] == ["_require"]



# the functions that may compare a grid dimension with an integer literal: the
# CSV header writers, the choice of the 2-D row path, and the dimension checks
DIM_COMPARISONS_ALLOWED = {
    "torus._point_columns", "characteristics.Trajectory.write_csv",
    "action.ActionTable.write_csv", "kernels.row_path", "config.parse_config",
    "torus.Grid.__post_init__",
}


def _is_dim(node) -> bool:
    """A grid dimension: x.dim, or a name dim or d."""
    return (isinstance(node, ast.Attribute) and node.attr == "dim") or (
        isinstance(node, ast.Name) and node.id in ("dim", "d"))


def _is_int_literal(node) -> bool:
    """An integer literal, or a tuple, list or set of them."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return bool(node.elts) and all(map(_is_int_literal, node.elts))
    return isinstance(node, ast.Constant) and type(node.value) is int


def dimension_forks(source: str, module: str, allowed=DIM_COMPARISONS_ALLOWED) -> list:
    """The comparisons of a grid dimension with an integer literal in ``source``,
    as module.[Class.]function (line), outside the functions ``allowed``."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}"
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(_is_dim, operands)) and any(map(_is_int_literal, operands)):
                if owner not in allowed:
                    found.append(f"{owner} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), module)
    return found


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.parent.name == "weakkam"], ids=lambda p: p.name,
)
def test_only_the_allowed_functions_compare_a_grid_dimension_with_a_literal(path):
    assert dimension_forks(path.read_text(), path.stem) == []


def test_dimension_scan_sees_a_fork():
    source = (
        "def points(grid):\n    if grid.dim == 1:\n        return 1\n"
        "class Grid:\n    def __post_init__(self):\n        assert self.dim not in (1, 2)\n"
        "def shaped(values, dim):\n    return values if 2 > dim else values.ndim == 1\n"
    )
    assert dimension_forks(source, "torus") == ["torus.points (line 2)", "torus.shaped (line 8)"]
    assert dimension_forks(source, "kernels") == [
        "kernels.points (line 2)", "kernels.Grid.__post_init__ (line 6)", "kernels.shaped (line 8)"]
    # every allowed function holds such a comparison: the list names no stale entry
    seen = set()
    for path in SOURCES:
        if path.parent.name == "weakkam":
            seen.update(f.split()[0] for f in dimension_forks(path.read_text(), path.stem, set()))
    assert seen == DIM_COMPARISONS_ALLOWED



# held by `perfbench/tracing.py` until ROADMAP item 3: the benchmark's tracer
# wraps these by name, and no module of the package calls them
TRACER_HELD = ["action.ActionTable.compose", "fdoracle.lf_solve",
               "kernels.StepKernel.apply_with_argmin", "kernels.StepKernel.start_index",
               "semigroup.extract_calibrated_curve"]


def definitions(tree: ast.Module):
    """(qualified name, node) of each top-level function, class and constant
    of a module, and of each method of its classes whose name has no leading __."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{f.name}", f) for f in node.body
                        if isinstance(f, ast.FunctionDef) and not f.name.startswith("__"))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from ((n.id, node) for n in ast.walk(target) if isinstance(n, ast.Name))


def identifiers(node) -> collections.Counter:
    """How often each variable (ast.Name) and attribute (ast.Attribute) name occurs under node."""
    return collections.Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                               if isinstance(n, (ast.Name, ast.Attribute)))


def unreferenced_definitions(sources: dict) -> list:
    """The definitions in ``sources`` (module name -> text) that no module
    names outside the definition itself, as module.[Class.]name.

    Names match as identifiers, whatever they are bound to: a method counts
    as named where any attribute has its name, so ``SpaceTimeField.to_csv``
    passes because ``cli`` calls ``FixedPointReport.to_csv``.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    total = sum(map(identifiers, trees.values()), collections.Counter())
    return sorted(f"{module}.{qual}" for module, tree in trees.items()
                  for qual, node in definitions(tree)
                  if total[qual.split(".")[-1]] == identifiers(node)[qual.split(".")[-1]])


def test_every_package_definition_is_named_by_the_package():
    # what only tests call lives in tests/oracles.py; the allowed list names
    # exactly what the scan flags, so it holds no stale entry
    sources = {p.stem: p.read_text() for p in SOURCES if p.parent.name == "weakkam"}
    assert unreferenced_definitions(sources) == TRACER_HELD


def test_definition_scan_sees_a_planted_unused_definition():
    source = (
        "import math\nLIMIT, _SPARE = 4, 5\nRATE: float = 0.5\n"
        "def halve(x):\n    return halve(x / 2) if x > LIMIT else x\n"
        "class Report:\n    def __repr__(self):\n        return 'Report'\n"
        "    def total(self):\n        return Report()\n    def to_csv(self):\n        pass\n"
        "def main():\n    return Report().to_csv(), math.pi * RATE\n"
    )
    assert unreferenced_definitions({"m": source}) == [
        "m.Report.total", "m._SPARE", "m.halve", "m.main"]
    # a name another module uses is named
    assert unreferenced_definitions({"m": source, "n": "from m import halve\nhalve(main)\n"}) == [
        "m.Report.total", "m._SPARE"]
