"""The package imports only numpy, the standard library and itself, and
exports only names it defines."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "branchnet").glob("*.py"))
ALLOWED = {"numpy", "branchnet"}


def imported_roots(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"model.py", "tensor.py", "training.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_numpy_stdlib_or_package(path):
    bad = [f"{path.name}:{line} imports {root}" for line, root in imported_roots(path)
           if root not in ALLOWED and root not in sys.stdlib_module_names]
    assert not bad, bad


def test_every_export_resolves():
    import branchnet
    missing = [name for name in branchnet.__all__ if not hasattr(branchnet, name)]
    assert not missing, f"branchnet.__all__ names undefined attributes: {missing}"
    assert len(set(branchnet.__all__)) == len(branchnet.__all__)
