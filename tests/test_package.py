"""The runtime needs only numpy: scipy serves the test oracles alone."""

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
