"""Exact graded Poisson calculus for Lie algebroids and their homotopy kin.

Everything is computed over exact rationals in normal-ordered graded
polynomial charts; all values are immutable and all operations pure, so any
of them may run in parallel.
"""

from .errors import (
    AlgebroidsError, ChartMismatch, DegreeError, DegreeMismatch,
    ExponentOverflow, MissingSection, NotLieAlgebra, NotPoisson, NotSplit,
    NotTriangular, OddSquare, ParseError, TruncationIncomplete,
    UndeclaredVariable,
)
from .gpoly import (
    Chart, GPoly, GVar, Monomial, inject, mono_normalize, partial_left,
    render_poly, substitute,
)
from .expr import parse_expression
from .symplectic import (
    BracketContext, Hamiltonian, PolyMap, SymplecticChart, canonical_bracket,
    canonical_context, check_poisson_map, hamiltonian_lift, is_integrable,
    legendre, shifted_cotangent, twin_chart,
)
from .algebroid import (
    AlgebroidSpec, Connection, adjoint_line_connection, bv_operator,
    ce_differential, check_algebroid, contraction, curvature,
    hamiltonian_of_algebroid, koszul_algebroid, lie_derivative, lie_poisson,
    line_connection, schouten_bracket, schouten_context, section_bracket,
    tangent_spec, torsion,
)
from .bialgebroid import (
    BialgebroidSpec, FullMorphism, assemble_hamiltonian, big_bracket,
    check_bialgebroid, check_linfty, embed_semistrict, hamiltonian_action,
    legendre_quadratic_check, linfty_morphism_check,
    semistrict_morphism_check, taylor,
)
from .constructions import (
    NijenhuisData, action_algebroid, linfty_bialgebra, nijenhuis_check,
    poisson_bialgebroid, tangent_algebroid, triangular,
)
from .report import CheckRecord, Report
from .specfile import SpecFile, parse_spec, serialize

__all__ = [
    "AlgebroidSpec", "AlgebroidsError", "BialgebroidSpec", "BracketContext",
    "Chart", "ChartMismatch", "CheckRecord", "Connection", "DegreeError",
    "DegreeMismatch", "ExponentOverflow", "FullMorphism", "GPoly", "GVar",
    "Hamiltonian", "MissingSection", "Monomial", "NijenhuisData",
    "NotLieAlgebra", "NotPoisson", "NotSplit", "NotTriangular",
    "OddSquare", "ParseError", "PolyMap", "Report", "SpecFile",
    "SymplecticChart", "TruncationIncomplete", "UndeclaredVariable",
    "action_algebroid", "adjoint_line_connection", "assemble_hamiltonian",
    "big_bracket", "bv_operator", "canonical_bracket", "canonical_context",
    "ce_differential", "check_algebroid", "check_bialgebroid",
    "check_linfty", "check_poisson_map", "contraction", "curvature",
    "embed_semistrict", "hamiltonian_action", "hamiltonian_lift",
    "hamiltonian_of_algebroid", "inject", "is_integrable", "koszul_algebroid",
    "legendre", "legendre_quadratic_check", "lie_derivative", "lie_poisson",
    "line_connection", "linfty_bialgebra", "linfty_morphism_check",
    "mono_normalize", "nijenhuis_check", "parse_expression", "parse_spec",
    "partial_left", "poisson_bialgebroid", "render_poly",
    "schouten_bracket", "schouten_context", "section_bracket",
    "semistrict_morphism_check", "serialize", "shifted_cotangent",
    "substitute", "tangent_algebroid", "tangent_spec", "taylor", "torsion",
    "triangular", "twin_chart",
]
