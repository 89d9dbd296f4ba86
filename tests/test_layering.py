"""The package's module graph, the names ``perfbench/tracer.py`` patches,
and the names the benchmark reads: all read from the source with ``ast``,
so a deferred import inside a function counts as an edge too."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import tasd.workload
from tasd._parallel import map_ordered, resolve_workers
from tasd.hwmodel import HwSpec

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tasd"
PERFBENCH = PACKAGE.parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _targets(node):
    """The tasd modules one import statement loads."""
    if isinstance(node, ast.Import):
        names = [a.name.split(".") for a in node.names]
        return {parts[1] for parts in names if parts[0] == "tasd" and len(parts) > 1}
    if node.level == 0:
        parts = (node.module or "").split(".")
        if parts[0] != "tasd":
            return set()
        if len(parts) > 1:
            return {parts[1]}
    elif node.module:
        return {node.module.split(".")[0]}
    # "from . import x" or "from tasd import x": a submodule or the package
    return {a.name if a.name in MODULES else "__init__" for a in node.names}


def _imports(module):
    """(target, inside a function) for every tasd import in ``module``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = []

    def visit(node, in_function):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.extend((t, in_function) for t in _targets(node))
        in_function = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for child in ast.iter_child_nodes(node):
            visit(child, in_function)

    visit(tree, False)
    return found


GRAPH = {module: {t for t, _ in _imports(module)} for module in MODULES}


def test_import_graph_is_acyclic():
    done, active = set(), []

    def walk(module):
        if module in active:
            cycle = active[active.index(module):] + [module]
            raise AssertionError(f"import cycle: {' -> '.join(cycle)}")
        if module in done:
            return
        active.append(module)
        for target in sorted(GRAPH[module]):
            walk(target)
        active.pop()
        done.add(module)

    for module in sorted(GRAPH):
        walk(module)


def test_no_import_inside_a_function():
    deferred = sorted(
        (module, target)
        for module in MODULES
        for target, in_function in _imports(module)
        if in_function
    )
    assert deferred == []


def _json_users(names):
    """Modules that reach any of ``names`` in the json module."""
    users = set()
    for module in MODULES:
        for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in names
                and isinstance(node.value, ast.Name)
                and node.value.id == "json"
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "json"
                and {a.name for a in node.names} & set(names)
            ):
                users.add(module)
    return users


def test_only_matrix_parses_json():
    """JSON files are read through ``matrix.read_json``, the one place that
    turns malformed JSON into a SchemaError."""
    assert _json_users(("load", "loads")) <= {"matrix"}


def test_only_matrix_writes_json_files():
    """JSON files are written by ``matrix.write_json`` and
    ``matrix.save_indices``."""
    assert _json_users(("dump",)) <= {"matrix"}


def test_search_ranks_without_decomposing():
    assert GRAPH["search"] <= {"errors", "matrix"}


def test_cost_model_does_not_import_search():
    assert "search" not in GRAPH["hwmodel"]
    assert GRAPH["hwmodel"] <= {"errors", "matrix"}


def _tracer_targets():
    """The (module, attribute) pairs of the tracer's ``TARGETS`` tuple."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_tracer_targets_exist():
    targets = _tracer_targets()
    assert targets
    missing = [t for t in targets if not hasattr(importlib.import_module(t[0]), t[1])]
    assert missing == []


def _dotted(node):
    """``a.b.c`` for an attribute chain on a plain name, else ""."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


def _benchmark_reads():
    """Every ``tasd.<name>`` chain that ``perfbench/run.py`` and
    ``perfbench/workloads.py`` read, and every name they import from tasd."""
    reads = set()
    for name in ("run.py", "workloads.py"):
        for node in ast.walk(ast.parse((PERFBENCH / name).read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tasd":
                reads.update(f"{node.module}.{a.name}" for a in node.names)
            elif _dotted(node).startswith("tasd."):
                reads.add(_dotted(node))
    return reads


def _resolves(dotted):
    """Whether ``dotted`` names an object once its longest module prefix is
    imported, as ``import tasd.cli`` then ``tasd.cli.main`` does."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for part in parts[i:]:
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True
    return False


def test_benchmark_reads_exist():
    reads = _benchmark_reads()
    assert {
        "tasd.active_backend",
        "tasd.HAS_NUMBA",
        "tasd.decompose",
        "tasd.matmul",
        "tasd.tasd_matmul",
        "tasd.random_matrix",
        "tasd.approximate",
        "tasd.save_matrix",
        "tasd.cli.main",
    } <= reads
    assert [dotted for dotted in sorted(reads) if not _resolves(dotted)] == []


def test_tracer_passes_workers_positionally():
    # the tracer calls map_ordered(fn, items, workers) and resolve_workers(workers)
    for fn, index in ((map_ordered, 2), (resolve_workers, 0)):
        param = list(inspect.signature(fn).parameters.values())[index]
        assert param.name == "workers"
        assert param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def test_only_concrete_oracles_define_evaluate():
    # the tracer wraps every evaluate defined in tasd.workload; one on a base
    # class would be counted twice
    defining = {
        name
        for name, cls in vars(tasd.workload).items()
        if inspect.isclass(cls) and cls.__module__ == "tasd.workload" and "evaluate" in vars(cls)
    }
    assert defining == {"MagnitudeOracle", "ErrorOracle", "CommandOracle"}


def test_every_hwspec_field_is_read():
    # a field that no cost reads is a setting that changes nothing; the
    # checks and the (de)serialization touch every field, so they do not count
    exempt = {"__post_init__", "to_dict", "from_dict"}
    read = set()

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name in exempt:
            return
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id in ("hw", "self")):
            read.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse((PACKAGE / "hwmodel.py").read_text()))
    assert {f.name for f in dataclasses.fields(HwSpec)} - read == set()


def test_kernels_use_no_unpinned_product():
    # BLAS does not pin its summation order, so the kernels use no matrix
    # product operator or dot-like call, and einsum only with a literal
    # subscript string that sums no index, without its BLAS-backed optimize
    unpinned = {"dot", "vdot", "matmul", "inner", "tensordot"}
    found = []
    for node in ast.walk(ast.parse((PACKAGE / "_kernels.py").read_text())):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"@ on line {node.lineno}")
        elif isinstance(node, ast.Attribute) and node.attr in unpinned:
            found.append(f"{node.attr} on line {node.lineno}")
        elif isinstance(node, ast.Call) and "einsum" in (
            getattr(node.func, "attr", None), getattr(node.func, "id", None)
        ):
            spec = node.args[0] if node.args else None
            literal = isinstance(spec, ast.Constant) and isinstance(spec.value, str)
            inputs, _, output = spec.value.partition("->") if literal else ("", "", "")
            if (not literal or "->" not in spec.value or "." in spec.value
                    or set(inputs) - {","} - set(output)
                    or any(k.arg == "optimize" for k in node.keywords)):
                found.append(f"einsum on line {node.lineno}")
    assert found == []
