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



# the budgets and measured constants of a command's run plan: cli._plan alone
# reads them, and validation and the manifest read the plan it builds
PLAN_CONSTANTS = {
    "MEMORY_BUDGET_BYTES", "_WORK_BUDGET_NS", "_KERNEL_COPIES", "_LF_COPIES", "_ROW_BYTES",
    "_HISTORY_BYTES", "_CHAR_STATE_BYTES", "_POLICY_VECTORS", "_POLICY_BLOCKS", "_LF_POINT_NS",
    "_LF_STEP_POINTS", "_CANDIDATE_NS",
}


def plan_constant_reads(source: str, module: str) -> list:
    """The reads of a plan constant in ``source``, by name or as an
    attribute, outside ``_plan`` of the module ``cli``."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        if (module, owner) == ("cli", "_plan"):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            else:
                name = getattr(node, "attr", None)
            if name in PLAN_CONSTANTS:
                found.append(f"{name} in {owner} (line {node.lineno})")
    return found


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.parent.name == "weakkam"], ids=lambda p: p.name,
)
def test_only_the_plan_reads_the_budgets_and_byte_constants(path):
    assert plan_constant_reads(path.read_text(), path.stem) == []


def test_plan_constant_scan_sees_each_restatement():
    source = (
        "MEMORY_BUDGET_BYTES, _KERNEL_COPIES = 1 << 30, 8\n"
        "def _plan(command):\n    return {'bytes': MEMORY_BUDGET_BYTES * _KERNEL_COPIES}\n"
        "def _check_command(planned):\n    return planned <= MEMORY_BUDGET_BYTES\n"
        "LIMIT = 2 * _WORK_BUDGET_NS\n"
        "def peak(cli):\n    return cli._ROW_BYTES\n"
    )
    outside = ["MEMORY_BUDGET_BYTES in _check_command (line 5)",
               "_WORK_BUDGET_NS in None (line 6)", "_ROW_BYTES in peak (line 8)"]
    assert plan_constant_reads(source, "cli") == outside
    # in another module _plan is no exception
    assert plan_constant_reads(source, "kernels") == [
        "MEMORY_BUDGET_BYTES in _plan (line 3)", "_KERNEL_COPIES in _plan (line 3)", *outside]
    # the real plan reads every constant the rule names: the set holds no stale name
    cli = (ROOT / "src" / "weakkam" / "cli.py").read_text()
    assert {f.split()[0] for f in plan_constant_reads(cli, "plan")} == PLAN_CONSTANTS


# the PyYAML calls that read a document; config.load_config alone makes them
YAML_READS = {"load", "safe_load"}


def yaml_reads(source: str, module: str) -> list:
    """The calls yaml.load and yaml.safe_load of ``source`` (also by a name
    imported from yaml), outside ``load_config`` of the module ``config``."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "yaml"
                for alias in node.names if alias.name in YAML_READS}
    found = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        if (module, owner) == ("config", "load_config"):
            continue
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr in YAML_READS
                    and getattr(func.value, "id", None) == "yaml") or (
                    isinstance(func, ast.Name) and func.id in imported):
                found.append(f"{call_name(node)} in {owner} (line {node.lineno})")
    return found


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.parent.name == "weakkam"], ids=lambda p: p.name,
)
def test_only_load_config_reads_yaml(path):
    assert yaml_reads(path.read_text(), path.stem) == []


def test_yaml_read_scan_sees_each_call():
    source = (
        "import json\nimport yaml\nfrom yaml import safe_load as read\n"
        "DEFAULTS = yaml.safe_load('a: 1')\n"
        "def load_config(path):\n    return yaml.load(open(path), Loader=yaml.CSafeLoader)\n"
        "def other(fh):\n    return read(fh), json.load(fh), yaml.safe_dump({})\n"
    )
    assert yaml_reads(source, "config") == ["safe_load in None (line 4)", "read in other (line 8)"]
    assert yaml_reads(source, "cli") == [
        "safe_load in None (line 4)", "load in load_config (line 6)", "read in other (line 8)"]
    # the one call the rule allows is the one the real config module makes
    config = (ROOT / "src" / "weakkam" / "config.py").read_text()
    assert [f.split()[-3] for f in yaml_reads(config, "cli")] == ["load_config"]


# the functions that may compare a grid dimension with an integer literal: the
# CSV header writers, the choice of the 2-D row path, and the dimension checks
DIM_COMPARISONS_ALLOWED = {
    "torus._point_columns", "characteristics.Trajectory.write_csv",
    "action.ActionTable.write_csv", "kernels.row_path", "characteristics.flow",
    "config.parse_config", "torus.Grid.__post_init__",
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


def stale_oracles(sources: dict) -> list:
    """The definitions of the ``oracles`` module in ``sources`` (module name ->
    text) that neither a test module nor the rest of ``oracles`` names."""
    return [d for d in unreferenced_definitions(sources) if d.startswith("oracles.")]


def test_every_oracle_is_named_by_a_test():
    # a reference no test reads can drift from the code it once checked
    sources = {p.stem: p.read_text() for p in SOURCES if p.parent.name == "tests"}
    assert "oracles" in sources
    assert stale_oracles(sources) == []


def test_oracle_scan_sees_a_planted_stale_reference():
    oracles = (
        "STEPS, SPARE = 4, 5\n"
        "def march(k):\n    return k * STEPS\n"
        "def step_T(k):\n    return march(k)\n"
        "def stale(k):\n    return stale(k - 1) if k else 0\n"
    )
    tests = "from oracles import step_T\ndef test_step():\n    assert step_T(1) == 4\n"
    assert stale_oracles({"oracles": oracles, "test_m": tests}) == [
        "oracles.SPARE", "oracles.stale"]
    # without the test module, what only it read is stale too
    assert stale_oracles({"oracles": oracles}) == [
        "oracles.SPARE", "oracles.stale", "oracles.step_T"]



# defaulted parameters that no call inside the package sets: ``main``'s argv is
# set by the tests (``python -m`` passes none), and ``match_calibrated``'s
# p_source is kept for the gradient-momentum launch of ROADMAP item 4
UNSET_ALLOWED = ["characteristics.match_calibrated(p_source)", "cli.main(argv)"]


def defaulted_parameters(tree: ast.Module):
    """(parameter as owner(name), the name a call uses, its positional index
    in such a call or None when keyword-only) of each defaulted parameter of
    the module's functions and methods; a class's ``__init__`` is called by
    the class name, and a method's first parameter is its receiver."""
    methods = {id(f): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body if isinstance(f, ast.FunctionDef)}
    for f in ast.walk(tree):
        if not isinstance(f, ast.FunctionDef):
            continue
        cls = methods.get(id(f))
        positional = f.args.posonlyargs + f.args.args
        if cls is not None and not any(getattr(d, "id", None) == "staticmethod"
                                       for d in f.decorator_list):
            positional = positional[1:]
        owner = f"{cls.name}.{f.name}" if cls is not None else f.name
        called = cls.name if f.name == "__init__" and cls is not None else f.name
        first = len(positional) - len(f.args.defaults)
        for i, a in enumerate(positional[first:], first):
            yield f"{owner}({a.arg})", called, a.arg, i
        for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults):
            if d is not None:
                yield f"{owner}({a.arg})", called, a.arg, None


def unset_options(sources: dict) -> list:
    """The defaulted parameters in ``sources`` (module name -> text) that no
    call in them sets, by keyword or by position, as module.owner(name).

    Calls match by the name they invoke (f(...) or x.f(...)), whatever it is
    bound to; a call with *args or **kwargs sets whatever it could.  Dataclass
    fields are outside the scan: a report such as ``PropertyReport`` is built
    empty and filled in afterwards, so its defaults are set by assignment.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    calls = collections.defaultdict(list)  # name -> [(positional count, keywords)]
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                calls[call_name(node)].append(
                    (float("inf") if starred else len(node.args), keywords))
    return sorted(
        f"{module}.{param}" for module, tree in trees.items()
        for param, called, name, index in defaulted_parameters(tree)
        if not any(name in kw or None in kw or (index is not None and n > index)
                   for n, kw in calls[called]))


def test_every_option_is_set_by_some_package_call():
    # the allowed list names exactly what the scan flags, so it holds no stale entry
    sources = {p.stem: p.read_text() for p in SOURCES if p.parent.name == "weakkam"}
    assert unset_options(sources) == UNSET_ALLOWED


def test_option_scan_sees_a_planted_unset_option():
    source = (
        "def solve(x, tol=1e-6, *, verbose=False, steps=4):\n    return x\n"
        "class Kernel:\n    def __init__(self, n, quad='left', reach=1):\n        pass\n"
        "    def apply(self, v, out=None, scale=1.0):\n        return v\n"
        "    @staticmethod\n    def build(n, dense=False):\n        return n\n"
        "def main(args, extra=None):\n"
        "    k = Kernel(args, 'exact')\n    k.apply(args, None)\n    Kernel.build(3, **args)\n"
        "    return solve(*args, steps=2)\n"
    )
    assert unset_options({"m": source}) == [
        "m.Kernel.__init__(reach)", "m.Kernel.apply(scale)", "m.main(extra)", "m.solve(verbose)"]
