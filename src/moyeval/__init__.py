"""Exact evaluation of colored MOY graphs.

The package computes evaluations of planar trivalent graphs with colored
edges in three independent ways and cross-checks them:

* a direct state sum over cycles (:mod:`moyeval.statesum`),
* finite twisted products of cycle polynomials in a quantum torus
  (:mod:`moyeval.genseries`),
* truncated infinite products giving two-variable HOMFLY-style series for
  positive diagrams (:mod:`moyeval.homfly`).

All arithmetic is exact over the integers, in the fourth-root variables
``v**4 == q`` and ``b**4 == a``.

Each public name is listed once, in the ``__all__`` of the submodule that
defines it.  The package star-imports each eagerly loaded submodule and
splices its ``__all__`` into its own, so a name added there is exported
here with no further edit.

The HOMFLY layer loads on first use.  Only ``homfly_series`` and its
checks (the CLI's ``homfly`` and ``check --suite homfly``) run it, and a
process without a bytecode cache compiles every module it imports, so an
eager import would make every other command compile it for nothing.
:mod:`moyeval.homfly` is registered in ``sys.modules`` as a lazy module
(``importlib.util.LazyLoader``) that runs its source on the first read of
one of its attributes, so code that imports it or looks it up there finds
it as before.  Reading its ``__all__`` would run it too, so its exported
names are the one list restated here (``_HOMFLY_NAMES``; a test keeps it
equal to ``homfly.__all__``).  They resolve through the module
``__getattr__`` (PEP 562): ``from moyeval import homfly_series`` and
``from moyeval import *`` load it then.
"""

from . import cycles, diagram, genseries, qexact, qtorus, statesum
from .cycles import *
from .diagram import *
from .genseries import *
from .qexact import *
from .qtorus import *
from .statesum import *


def _lazy_submodule(name: str):
    """Register the submodule ``name`` unrun; its first attribute read runs it."""
    import sys
    from importlib.util import LazyLoader, find_spec, module_from_spec

    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


homfly = _lazy_submodule("homfly")

# the names of moyeval.homfly exported here, resolved by __getattr__
_HOMFLY_NAMES = (
    "CheckReport",
    "HomflySeries",
    "SpecializedCoefficient",
    "TruncatedTorusSeries",
    "check_fphi",
    "check_shift",
    "homfly_series",
    "specialization_check",
    "specialize_to_N",
)


def __getattr__(name: str):
    # Read from the module each time, not cached here, so the package always
    # hands out what moyeval.homfly holds.
    if name in _HOMFLY_NAMES:
        return getattr(homfly, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(_HOMFLY_NAMES))


__version__ = "0.1.0"

__all__ = [
    "__version__",
    *cycles.__all__,
    *diagram.__all__,
    *genseries.__all__,
    *qexact.__all__,
    *qtorus.__all__,
    *statesum.__all__,
    *_HOMFLY_NAMES,
]
