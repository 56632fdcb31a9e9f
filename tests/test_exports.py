"""Every exported name resolves, in the package and in each submodule."""

import importlib
import pkgutil

import moyeval


def test_every_exported_name_resolves():
    modules = [moyeval] + [
        importlib.import_module(f"moyeval.{info.name}") for info in pkgutil.iter_modules(moyeval.__path__)
    ]
    assert len(modules) == 9
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
