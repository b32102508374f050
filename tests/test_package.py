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
