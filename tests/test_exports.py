"""Every exported name resolves, in the package and in each submodule, and
every imported name is used."""

import ast
import importlib
import pkgutil
from pathlib import Path

import moyeval

MODULES = [moyeval] + [
    importlib.import_module(f"moyeval.{info.name}") for info in pkgutil.iter_modules(moyeval.__path__)
]


def test_every_exported_name_resolves():
    assert len(MODULES) == 9
    for module in MODULES:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_every_imported_name_is_used():
    # a name listed in __all__ counts as used: the module re-exports it
    for module in MODULES:
        tree = ast.parse(Path(module.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted(imported - used - set(module.__all__))
        assert not unused, (module.__name__, unused)
