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
"""

from .cycles import Component, Cycle, CycleSet, elementary_circuits, pairing_doubled, rotation_of_loop
from .diagram import (
    Circle,
    Coloring,
    DiagramError,
    Edge,
    Flag,
    FlowViolation,
    PlanarDiagram,
    Vertex,
    builtin,
    builtin_names,
    parse_diagram,
    serialize_diagram,
    validate_coloring,
)
from .genseries import classical_series, generating_series_N, pochhammer_N
from .homfly import (
    CheckReport,
    HomflySeries,
    SpecializedCoefficient,
    TruncatedTorusSeries,
    check_fphi,
    check_shift,
    homfly_series,
    series_invert,
    specialization_check,
    specialize_to_N,
)
from .qexact import (
    ExactDivisionError,
    QLaurent,
    TruncatedRSeries,
    exact_div,
    qbinom,
    qfact,
    qint,
    qmultinom,
)
from .qtorus import CycleAlgebra, FlagAlgebra, TorusElement, TorusSignature, torus_mul
from .statesum import (
    classical_eval,
    doubled_labels,
    eval_table,
    eval_table_alt,
    moy_eval,
    moy_eval_alt,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # diagram
    "Circle",
    "Coloring",
    "DiagramError",
    "Edge",
    "Flag",
    "FlowViolation",
    "PlanarDiagram",
    "Vertex",
    "builtin",
    "builtin_names",
    "parse_diagram",
    "serialize_diagram",
    "validate_coloring",
    # cycles
    "Component",
    "Cycle",
    "CycleSet",
    "elementary_circuits",
    "pairing_doubled",
    "rotation_of_loop",
    # exact rings
    "ExactDivisionError",
    "QLaurent",
    "TruncatedRSeries",
    "exact_div",
    "qbinom",
    "qfact",
    "qint",
    "qmultinom",
    # quantum torus
    "CycleAlgebra",
    "FlagAlgebra",
    "TorusElement",
    "TorusSignature",
    "torus_mul",
    # state sum
    "classical_eval",
    "doubled_labels",
    "eval_table",
    "eval_table_alt",
    "moy_eval",
    "moy_eval_alt",
    # generating series
    "classical_series",
    "generating_series_N",
    "pochhammer_N",
    # homfly
    "CheckReport",
    "HomflySeries",
    "SpecializedCoefficient",
    "TruncatedTorusSeries",
    "check_fphi",
    "check_shift",
    "homfly_series",
    "series_invert",
    "specialization_check",
    "specialize_to_N",
]
