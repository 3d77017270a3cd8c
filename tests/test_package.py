"""The runtime needs only numpy: scipy serves the test oracles alone.

Every import of the package is at module level, so no call pays for one
lazily, and the Sym^N engine (``_sympower``) depends on no other module of
the package than the exceptions and the parameters.
"""

import ast
import pathlib
import re

import pytest

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


def test_sympower_imports_only_errors_and_fock_core_from_the_package():
    path = ROOT / "src" / "epbs" / "_sympower.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            imported.add(node.module)
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "epbs":
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names if a.name.split(".")[0] == "epbs")
    assert imported == {"errors", "fock_core"}
