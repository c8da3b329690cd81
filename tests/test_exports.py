import importlib
import pkgutil

import equiguide


def test_every_exported_name_resolves():
    modules = ["equiguide"] + [f"equiguide.{m.name}" for m in pkgutil.iter_modules(equiguide.__path__)]
    missing = {}
    for name in modules:
        mod = importlib.import_module(name)
        gone = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        if gone:
            missing[name] = gone
    assert not missing, f"__all__ names with no definition: {missing}"
