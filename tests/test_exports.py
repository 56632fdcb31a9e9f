"""Every exported name resolves, in the package and in each submodule,
to its defining submodule's object, the package exports exactly its
submodules' lists and leaks no other public name, every imported name is
used, every private name has a caller, every exported function or class
has a reader besides the unit tests, the package imports nothing outside
the standard library, and the README's library example runs."""

import ast
import contextlib
import importlib
import io
import pkgutil
import sys
from importlib.util import resolve_name
from pathlib import Path

import moyeval

SUBMODULE_NAMES = [info.name for info in pkgutil.iter_modules(moyeval.__path__)]
MODULES = [moyeval] + [importlib.import_module(f"moyeval.{name}") for name in SUBMODULE_NAMES]
# the submodules the package star-imports; homfly loads on first use
EAGER = [moyeval.cycles, moyeval.diagram, moyeval.genseries, moyeval.qexact, moyeval.qtorus, moyeval.statesum]


def test_every_exported_name_resolves():
    assert len(MODULES) == 10
    for module in MODULES:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def _defining_module(name):
    """The one submodule whose ``__all__`` lists ``name``."""
    owners = [module for module in MODULES[1:] if name in module.__all__]
    assert len(owners) == 1, (name, [module.__name__ for module in owners])
    return owners[0]


def test_package_names_are_the_objects_of_their_submodules():
    # the HOMFLY names resolve through the package's __getattr__: a name read
    # from the wrong module fails here
    for name in moyeval.__all__:
        if name != "__version__":
            assert getattr(moyeval, name) is getattr(_defining_module(name), name), name


def test_the_package_exports_exactly_its_submodules_lists():
    # a name in two eager lists would be bound by whichever import runs last
    for i, first in enumerate(EAGER):
        for second in EAGER[i + 1:]:
            shared = set(first.__all__) & set(second.__all__)
            assert not shared, (first.__name__, second.__name__, sorted(shared))
    assert len(moyeval.__all__) == len(set(moyeval.__all__))
    expected = {"__version__", *moyeval._HOMFLY_NAMES}.union(*(module.__all__ for module in EAGER))
    assert set(moyeval.__all__) == expected
    # the one list the package restates: reading homfly.__all__ there would run homfly.py
    assert set(moyeval._HOMFLY_NAMES) == set(moyeval.homfly.__all__)


def test_the_package_namespace_holds_only_exported_names_and_submodules():
    leaked = [name for name in dir(moyeval)
              if not name.startswith("_") and name not in moyeval.__all__ and name not in SUBMODULE_NAMES]
    assert leaked == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from moyeval import *", namespace)
    assert [name for name in moyeval.__all__ if namespace.get(name) is not getattr(moyeval, name)] == []


def test_the_readme_library_example_runs():
    # it imports the HOMFLY names from the package root
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "homfly_series" in example
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(example, {})
    assert out.getvalue().splitlines()[0] == "QLaurent({-2: 1, 2: 1})"


def test_every_imported_name_is_used():
    # a name listed in __all__ counts as used: the module re-exports it; a
    # star import brings in each name of its source module's __all__, and
    # each of them must be used or listed the same way
    for module in MODULES:
        tree = ast.parse(Path(module.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    if alias.name == "*":
                        source = resolve_name("." * node.level + (node.module or ""), module.__package__)
                        imported.update(importlib.import_module(source).__all__)
                    else:
                        imported.add(alias.asname or alias.name)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted(imported - used - set(module.__all__))
        assert not unused, (module.__name__, unused)


def test_the_runtime_imports_only_the_standard_library():
    # relative imports stay inside the package; every absolute one names a
    # standard-library module
    imported = set()
    for module in MODULES:
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported and "__future__" in imported
    assert sorted(imported - sys.stdlib_module_names) == []


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _reads(trees):
    """Every name and attribute loaded in ``trees``, mapped to the nodes that load it."""
    reads = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                reads.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                reads.setdefault(node.attr, []).append(node)
    return reads


def _read_outside(name, node, reads):
    """Whether ``name`` is read anywhere outside the definition ``node``."""
    inside = {id(n) for n in ast.walk(node)}
    return any(id(read) not in inside for read in reads.get(name, ()))


def test_every_private_name_is_referenced():
    # a private name defined at module or class level must be read somewhere
    # in the package outside its own definition, so removals leave no leftovers
    trees = {module.__name__: ast.parse(Path(module.__file__).read_text()) for module in MODULES}
    definitions = []
    for name, tree in trees.items():
        scopes = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
        for body in scopes:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defined = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    defined = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
                else:
                    continue
                definitions += [(name, private, node) for private in defined if _is_private(private)]
    reads = _reads(trees.values())
    assert definitions
    unreferenced = [(module_name, private) for module_name, private, node in definitions
                    if not _read_outside(private, node, reads)]
    assert not unreferenced, unreferenced


def test_every_exported_function_and_class_has_a_reader():
    """A module-level function or class in a submodule's ``__all__`` is read
    by src code outside ``__init__.py`` and outside its own definition, or
    by ``tests/test_acceptance.py``: the package ships no API that only
    unit tests use.

    Methods are not covered: names like ``zero``, ``one`` or ``key`` recur
    across classes, and a read by name cannot tell them apart.
    """
    trees = {module.__name__: ast.parse(Path(module.__file__).read_text()) for module in MODULES[1:]}
    acceptance = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    reads = _reads([*trees.values(), acceptance])
    unread = [(module.__name__, node.name) for module in MODULES[1:] for node in trees[module.__name__].body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in module.__all__
              and not _read_outside(node.name, node, reads)]
    assert unread == []
