"""The package imports only numpy, the standard library and itself, at
module level except where a cycle forces otherwise, and exports only names
it defines."""

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


def function_level_imports(path: Path):
    """(line, source) of every import statement inside a function body."""
    found = set()
    for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.update((node.lineno, ast.unparse(node)) for node in ast.walk(fn)
                         if isinstance(node, (ast.Import, ast.ImportFrom)))
    return sorted(found)


def test_only_the_data_training_cycle_imports_inside_functions():
    # data.py's checkpoint reader and writer need TrainConfig, and training
    # imports data, so those two imports cannot move to the top; every other
    # import belongs at module level, where the dependency graph shows it
    found = [f"{path.name}: {source}"
             for path in SOURCES for _, source in function_level_imports(path)]
    assert found == ["data.py: from .training import TrainConfig"] * 2, found
