import ast
import importlib
import pkgutil
from pathlib import Path

import popflex


def test_submodules_bind_as_modules():
    """`import popflex.<name> as m` binds the submodule, never a function
    the package exports under the same name."""
    names = [m.name for m in pkgutil.iter_modules(popflex.__path__)]
    assert "fibs" in names and "eog" in names
    for name in names:
        module = importlib.import_module(f"popflex.{name}")
        assert getattr(popflex, name) is module, name


def test_no_module_imports_a_private_name_of_a_sibling():
    """A `_`-prefixed name stays inside its module: a sibling that needs it
    needs a public name."""
    imported = []
    for path in sorted(Path(popflex.__path__[0]).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("popflex")):
                imported += [(path.name, alias.name) for alias in node.names
                             if alias.name.startswith("_")]
    assert imported == []


def _loaded_names(tree: ast.AST) -> set[str]:
    """Every name that `tree` reads: bare names, attributes and dotted
    strings (a name looked up by its text)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


def test_every_module_level_definition_has_a_caller():
    """Each function and class defined at the top of a module is read
    somewhere other than its own definition, by the package, the benchmark
    or the scripts; the package's re-exports do not count."""
    repo = Path(popflex.__path__[0]).parents[1]
    package = [path for path in sorted(Path(popflex.__path__[0]).glob("*.py"))
               if path.name != "__init__.py"]
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in package + sorted((repo / "perfbench").glob("*.py"))
             + sorted((repo / "scripts").glob("*.py"))}
    readers = {path: _loaded_names(tree) for path, tree in trees.items()}
    uncalled = []
    for path in package:
        statements = [(node, _loaded_names(node)) for node in trees[path].body]
        elsewhere = set().union(*(names for other, names in readers.items()
                                  if other != path))
        for node, _ in statements:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and node.name not in elsewhere \
                    and not any(node.name in names
                                for other, names in statements
                                if other is not node):
                uncalled.append(f"{path.name}:{node.name}")
    assert uncalled == []
