import importlib
import pkgutil

import popflex


def test_submodules_bind_as_modules():
    """`import popflex.<name> as m` binds the submodule, never a function
    the package exports under the same name."""
    names = [m.name for m in pkgutil.iter_modules(popflex.__path__)]
    assert "fibs" in names and "eog" in names
    for name in names:
        module = importlib.import_module(f"popflex.{name}")
        assert getattr(popflex, name) is module, name
