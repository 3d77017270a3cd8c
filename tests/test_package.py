"""The runtime needs only numpy: scipy serves the test oracles alone.

Every import of the package is at module level, so no call pays for one
lazily, and the Sym^N engine (``_sympower``) depends on no other module of
the package than the exceptions: it takes 2x2 cores, never parameters.
"""

import ast
import inspect
import pathlib
import re

import pytest

from epbs import _sympower

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _imported_roots(path: pathlib.Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def _requirement_name(dep: str) -> str:
    return re.split(r"[\s<>=!~;\[]", dep)[0]


def test_package_imports_no_scipy_and_depends_on_numpy_only():
    modules = sorted((ROOT / "src" / "epbs").glob("*.py"))
    assert modules
    assert [m.name for m in modules if "scipy" in _imported_roots(m)] == []

    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [_requirement_name(d) for d in project["dependencies"]] == ["numpy"]
    test_extra = project["optional-dependencies"]["test"]
    assert "scipy" in [_requirement_name(d) for d in test_extra]


def test_no_module_imports_inside_a_function():
    lazy = []
    for path in sorted((ROOT / "src" / "epbs").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lazy += [
                    f"{path.name}:{inner.lineno}"
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                ]
    assert lazy == []


def test_sympower_imports_only_errors_from_the_package():
    path = ROOT / "src" / "epbs" / "_sympower.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            imported.add(node.module)
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "epbs":
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names if a.name.split(".")[0] == "epbs")
    assert imported == {"errors"}
    takes_params = [
        name
        for name, func in inspect.getmembers(_sympower, inspect.isfunction)
        if func.__module__ == _sympower.__name__ and "params" in inspect.signature(func).parameters
    ]
    assert takes_params == []
    # a flag the engine could work out from its cores (such as Gamma == 0) is no option
    flags = [
        f"{name}.{arg.name}"
        for name, func in inspect.getmembers(_sympower, inspect.isfunction)
        if func.__module__ == _sympower.__name__
        for arg in inspect.signature(func).parameters.values()
        if (arg.annotation in (bool, "bool") or isinstance(arg.default, bool))
        and arg.name != "with_occupations"
    ]
    assert flags == []


def _names_kappa_or_gamma(node) -> bool:
    name = getattr(node, "id", None) or getattr(node, "attr", None) or ""
    return re.search("kappa|gamma", name, re.IGNORECASE) is not None


def _squares(node) -> bool:
    """Whether ``node`` squares kappa or Gamma: x * x in a product, x ** p, or square/pow/hypot(x)."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        factors, stack = [], [node]
        while stack:
            f = stack.pop()
            if isinstance(f, ast.BinOp) and isinstance(f.op, ast.Mult):
                stack += [f.left, f.right]
            elif _names_kappa_or_gamma(f):
                factors.append(ast.dump(f))
        return len(factors) > len(set(factors))
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return _names_kappa_or_gamma(node.left)
    if isinstance(node, ast.Call):
        func = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        return func in ("square", "pow", "power", "hypot") and any(
            _names_kappa_or_gamma(a) for a in node.args
        )
    return False


def test_only_delta_lambda_squares_kappa_or_gamma():
    owners = set()
    for path in sorted((ROOT / "src" / "epbs").glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            scopes = top.body if isinstance(top, ast.ClassDef) else [top]
            for scope in scopes:
                name = getattr(scope, "name", "<module>")
                if any(_squares(node) for node in ast.walk(scope)):
                    owners.add(f"{path.stem}.{name}")
    assert owners == {"spectral.delta_lambda"}


def test_one_sympower_function_forms_angles():
    # one closed-form 2x2 SVD serves states and operator columns alike
    path = ROOT / "src" / "epbs" / "_sympower.py"
    owners = {
        top.name
        for top in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(top, ast.FunctionDef)
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) or getattr(node.func, "id", None))
        in ("arctan2", "arctan")
    }
    assert owners == {"_svd_2x2"}


def test_only_the_decay_law_reads_gamma_z():
    # the forms add each z's log gain, -z slow_decay, which the core carries; forming
    # it from 2 log_scale - Gamma z cancelled two terms of size Gamma z far above Gamma_c
    path = ROOT / "src" / "epbs" / "_sympower.py"
    readers = {
        top.name
        for top in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(top, ast.FunctionDef)
        for node in ast.walk(top)
        if isinstance(node, ast.Name) and node.id == "gz"
    }
    assert readers == {"_check_rows"}
    # by field name, only the block loop reads a core's Gamma z, to hand it to the decay law
    field_readers = {
        top.name
        for top in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(top, ast.FunctionDef)
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == "gz"
    }
    assert field_readers == {"_state_rows"}


# g1's core and its SVD factors are records (``_sympower.Core`` and ``Svd``): kernels, helpers
# and tests read their fields by name, so that adding a field moves no reader
_RECORD_NAMES = {"core", "cb", "svd"}
_RECORD_CALLS = {"_g1", "_svd_2x2"}


def _makes_record(node) -> bool:
    """Whether ``node`` is a record itself: one of the names above, or a call that forms one."""
    if isinstance(node, ast.Name):
        return node.id in _RECORD_NAMES
    func = getattr(node, "func", None)
    return isinstance(node, ast.Call) and (
        getattr(func, "id", None) or getattr(func, "attr", None)) in _RECORD_CALLS


def _holds_record(node) -> bool:
    """Whether ``node`` is a record or an expression that contains a call forming one."""
    return _makes_record(node) or any(
        isinstance(inner, ast.Call) and _makes_record(inner) for inner in ast.walk(node)
    )


def _by_position(index) -> bool:
    """Whether a subscript's index is an integer, a slice, or a tuple or list holding one."""
    if isinstance(index, ast.UnaryOp) and isinstance(index.op, ast.USub):
        index = index.operand
    if isinstance(index, (ast.Tuple, ast.List)):
        return any(_by_position(e) for e in index.elts)
    return isinstance(index, ast.Slice) or (
        isinstance(index, ast.Constant) and type(index.value) is int)


def _positional_reads(path: pathlib.Path) -> list[str]:
    """Lines of ``path`` that read a record by position: an integer or slice subscript, a *
    unpacking, a tuple-target assignment (``map(float, record)`` included) or iteration."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Subscript):
            hit = _holds_record(node.value) and _by_position(node.slice)
        elif isinstance(node, ast.Starred):
            hit = _holds_record(node.value)
        elif isinstance(node, ast.Assign):
            value = node.value
            if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "map":
                value = value.args[-1]
            hit = _makes_record(value) and any(
                isinstance(t, (ast.Tuple, ast.List)) for t in node.targets)
        elif isinstance(node, (ast.For, ast.comprehension)):
            hit = _makes_record(node.iter)
        else:
            continue
        if hit:
            lines.add(node.lineno if hasattr(node, "lineno") else node.iter.lineno)
    return [f"{path.relative_to(ROOT)}:{line}" for line in sorted(lines)]


def test_records_are_read_by_field_name():
    paths = sorted((ROOT / "src" / "epbs").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert [read for path in paths for read in _positional_reads(path)] == []
