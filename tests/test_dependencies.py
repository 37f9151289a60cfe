"""The package imports only numpy, the standard library and itself, all at
module level and without a cycle between its modules, uses every name it
imports outside ``__init__``, exports only names it defines, and its
docstrings name only functions and classes that exist."""

import ast
import functools
import importlib
import re
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


def test_no_import_inside_a_function():
    # every import sits at module level, where the dependency graph shows it
    found = [f"{path.name}:{line}: {source}"
             for path in SOURCES for line, source in function_level_imports(path)]
    assert not found, found


def unused_imports(path: Path) -> list[str]:
    """Every name that ``path`` imports and no expression of it reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name.split(".")[0], node.lineno)
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} imports {name}" for name, line in imported.items()
            if name not in read]


def test_unused_import_check_is_not_vacuous(tmp_path):
    module = tmp_path / "stale.py"
    module.write_text("import os\nfrom .tensor import relu, conv2d\n\nconv2d(os.sep)\n")
    assert unused_imports(module) == ["stale.py:2 imports relu"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    # a name kept only so that something outside the module finds it there
    # hides a dependency; __init__ imports to re-export
    unused = unused_imports(path)
    assert not unused, unused


def package_imports(path: Path) -> set[str]:
    """Modules of the package that ``path`` imports, at any level of nesting."""
    modules = {p.stem for p in SOURCES}
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module] if node.module else [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module.removeprefix("branchnet.")]
        elif isinstance(node, ast.Import):
            names = [a.name.removeprefix("branchnet.") for a in node.names]
        else:
            continue
        found.update(name.split(".")[0] for name in names)
    return found & modules


def test_package_import_graph_has_no_cycle():
    graph = {path.stem: package_imports(path) for path in SOURCES}
    done: set[str] = set()

    def visit(module, trail):
        assert module not in trail, " -> ".join(trail + [module])
        if module not in done:
            for imported in sorted(graph[module]):
                visit(imported, trail + [module])
            done.add(module)

    for module in sorted(graph):
        visit(module, [])


DOC_TARGET = re.compile(r":(?:func|class):`~?([\w.]+)`")


def docstring_targets(path: Path) -> list[str]:
    """Every ``:func:``/``:class:`` target named in a docstring of ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            found += DOC_TARGET.findall(ast.get_docstring(node) or "")
    return found


def test_docstrings_name_targets():
    # the check below is not vacuous: tensor.py alone names several
    assert len(docstring_targets(SOURCES[0].parent / "tensor.py")) >= 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_docstring_targets_resolve_in_their_module(path):
    # a refactor that deletes or renames a helper must not leave a stale reference
    module = importlib.import_module(f"branchnet.{path.stem}")
    missing = [name for name in docstring_targets(path)
               if functools.reduce(lambda obj, attr: getattr(obj, attr, None),
                                   name.split("."), module) is None]
    assert not missing, f"{path.name} docstrings name undefined targets: {missing}"
