"""Shared example structures used across the test modules, and the
polynomial helpers that only the tests need.

The corpus deliberately mixes points and polynomial bases, constant and
x-dependent anchors, and includes deliberately broken variants for the
route-equivalence checks.
"""

from fractions import Fraction

from algebroids.algebroid import AlgebroidSpec, koszul_algebroid, tangent_spec
from algebroids.bialgebroid import BialgebroidSpec
from algebroids.errors import ChartMismatch
from algebroids.gpoly import (KIND_FIBER, MOMENTUM_KINDS, Chart, GPoly,
                              enumerate_monomials, pull_legs)
from algebroids.symplectic import hamiltonian_action

POINT = Chart([])
LINE = Chart([("x", 0)])
PLANE = Chart([("x1", 0), ("x2", 0)])


def two_dim_algebra():
    # [e1, e2] = e1
    return AlgebroidSpec(POINT, [("xi1", 0), ("xi2", 0)], {},
                         {("xi1", "xi2", "xi1"): 1})


def heisenberg():
    # [e1, e2] = e3
    return AlgebroidSpec(POINT, [("xi1", 0), ("xi2", 0), ("xi3", 0)], {},
                         {("xi1", "xi2", "xi3"): 1})


def heisenberg_plus_line():
    # [e1, e2] = e3, e4 central
    return AlgebroidSpec(POINT,
                         [("xi1", 0), ("xi2", 0), ("xi3", 0), ("xi4", 0)], {},
                         {("xi1", "xi2", "xi3"): 1})


def rotations():
    # [e1, e2] = e3, [e2, e3] = e1, [e3, e1] = e2
    return AlgebroidSpec(POINT, [("xi1", 0), ("xi2", 0), ("xi3", 0)], {},
                         {("xi1", "xi2", "xi3"): 1,
                          ("xi2", "xi3", "xi1"): 1,
                          ("xi1", "xi3", "xi2"): -1})


def abelian(rank=2):
    return AlgebroidSpec(POINT, [(f"xi{i + 1}", 0) for i in range(rank)], {}, {})


def action_on_line():
    # e1 -> d/dx, e2 -> x d/dx realizes [e1, e2] = e1
    return AlgebroidSpec(LINE, [("xi1", 0), ("xi2", 0)],
                         {("xi1", "x"): 1, ("xi2", "x"): "x"},
                         {("xi1", "xi2", "xi1"): 1})


def zero_anchor_family():
    # a family of Lie algebras over the line: constant Heisenberg brackets
    return AlgebroidSpec(LINE, [("xi1", 0), ("xi2", 0), ("xi3", 0)], {},
                         {("xi1", "xi2", "xi3"): 1})


def rank_one_polynomial_anchor():
    # rank one, rho(e) = x d/dx
    return AlgebroidSpec(LINE, [("xi1", 0)], {("xi1", "x"): "x"}, {})


def koszul_linear():
    return koszul_algebroid(PLANE, {(0, 1): "x1"})


def koszul_constant():
    return koszul_algebroid(PLANE, {(0, 1): 1})


def broken_constants():
    # Jacobiator residual e2 on (e1, e2, e3)
    return AlgebroidSpec(POINT, [("xi1", 0), ("xi2", 0), ("xi3", 0)], {},
                         {("xi1", "xi2", "xi1"): 1, ("xi1", "xi3", "xi2"): 1})


def swapped_action():
    return AlgebroidSpec(LINE, [("xi1", 0), ("xi2", 0)],
                         {("xi1", "x"): "x", ("xi2", "x"): 1},
                         {("xi1", "xi2", "xi1"): 1})


def broken_three_dim():
    # [e1, e2] = e3, [e2, e3] = e2 violates Jacobi
    return AlgebroidSpec(POINT, [("xi1", 0), ("xi2", 0), ("xi3", 0)], {},
                         {("xi1", "xi2", "xi3"): 1, ("xi2", "xi3", "xi2"): 1})


def abelian_bad_anchor():
    # zero brackets but a non-commuting anchor image
    return AlgebroidSpec(LINE, [("xi1", 0), ("xi2", 0)],
                         {("xi1", "x"): 1, ("xi2", "x"): "x"}, {})


def koszul_perturbed():
    # flip one derivative entry of the x1-linear cotangent structure
    return AlgebroidSpec(PLANE, [("xi1", 0), ("xi2", 0)],
                         {("xi2", "x1"): "x1", ("xi1", "x2"): "-x1"},
                         {("xi1", "xi2", "xi1"): 1})


PASSING = {
    "tangent-line": lambda: tangent_spec(LINE),
    "tangent-plane": lambda: tangent_spec(PLANE),
    "two-dim": two_dim_algebra,
    "heisenberg": heisenberg,
    "heisenberg-plus-line": heisenberg_plus_line,
    "rotations": rotations,
    "abelian": abelian,
    "action-on-line": action_on_line,
    "zero-anchor-family": zero_anchor_family,
    "rank-one-polynomial-anchor": rank_one_polynomial_anchor,
    "koszul-linear": koszul_linear,
    "koszul-constant": koszul_constant,
}

FAILING = {
    "broken-constants": broken_constants,
    "swapped-action": swapped_action,
    "broken-three-dim": broken_three_dim,
    "abelian-bad-anchor": abelian_bad_anchor,
    "koszul-perturbed": koszul_perturbed,
}


def dual_tangent_type(primal):
    """The dual-side spec with identity anchor and zero brackets."""
    names = primal.starred_names()
    anchor = {(fn, xv.name): 1 for fn, xv in zip(names, primal.base.vars)}
    return AlgebroidSpec(primal.base, [(fn, 0) for fn in names], anchor, {})


def dual_abelian(primal):
    return AlgebroidSpec(primal.base,
                         [(fn, 0) for fn in primal.starred_names()], {}, {})


def poisson_pair(pi_entries, base=PLANE):
    primal = koszul_algebroid(base, pi_entries)
    return BialgebroidSpec(primal, dual_tangent_type(primal))


def two_dim_with_abelian_dual():
    primal = two_dim_algebra()
    return BialgebroidSpec(primal, dual_abelian(primal))


def two_dim_triangular_pair():
    """The dual bracket induced by r = e1 ^ e2 on the two-dim algebra."""
    primal = two_dim_algebra()
    dual = AlgebroidSpec(POINT, [("xi1*", 0), ("xi2*", 0)], {},
                         {("xi1*", "xi2*", "xi2*"): 1})
    return BialgebroidSpec(primal, dual)


def two_dim_mirror_pair():
    """The other cobracket on the two-dim algebra; on this algebra every
    linear map into the top wedge is a cocycle, so the pair is compatible."""
    primal = two_dim_algebra()
    dual = AlgebroidSpec(POINT, [("xi1*", 0), ("xi2*", 0)], {},
                         {("xi1*", "xi2*", "xi1*"): 1})
    return BialgebroidSpec(primal, dual)


def heisenberg_self_dual_pair():
    """Cobracket dual to the Heisenberg bracket itself: delta(e3) = e1 ^ e2
    is not a cocycle, so the compatibility fails."""
    primal = heisenberg()
    dual = AlgebroidSpec(POINT, [("xi1*", 0), ("xi2*", 0), ("xi3*", 0)], {},
                         {("xi1*", "xi2*", "xi3*"): 1})
    return BialgebroidSpec(primal, dual)


BIALGEBROID_PASSING = {
    "poisson-linear": lambda: poisson_pair({(0, 1): "x1"}),
    "poisson-zero": lambda: poisson_pair({}),
    "poisson-constant": lambda: poisson_pair({(0, 1): 1}),
    "two-dim-abelian-dual": two_dim_with_abelian_dual,
    "two-dim-triangular": two_dim_triangular_pair,
    "two-dim-mirror": two_dim_mirror_pair,
}

BIALGEBROID_FAILING = {
    "heisenberg-bad-cobracket": heisenberg_self_dual_pair,
}


# -- helpers that only the tests need ------------------------------------------


def random_poly(chart, rng, max_weight=4, max_base_degree=2, max_terms=3,
                degree=None, homogeneous=False):
    """A small random polynomial, optionally homogeneous (of a given degree)."""
    pool = [chart.pack(m)
            for m in enumerate_monomials(chart, max_weight, max_base_degree)
            if any(m)]
    if homogeneous or degree is not None:
        by_degree = {}
        for m in pool:
            by_degree.setdefault(chart.monomial_degree(m), []).append(m)
        if degree is None:
            degree = rng.choice(sorted(by_degree))
        pool = by_degree.get(degree, [])
        if not pool:
            return chart.zero()
    n = rng.randint(1, max_terms)
    terms = {}
    for _ in range(n):
        m = rng.choice(pool)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if c:
            terms[m] = terms.get(m, 0) + c
    return GPoly(chart, terms)


def restrict_to(f, target):
    """Re-express f on a chart that holds every variable f uses, by name;
    the namesake legs carry the Koszul sign of a reordering."""
    legs = [target.index_of(v.name) if target.has(v.name) else None
            for v in f.chart.vars]
    used = 0
    for m in f.terms:
        used |= m   # a field is non-zero here exactly when a term uses it
    if any(legs[i] is None for i, _ in f.chart.fields(used)):
        raise ChartMismatch("polynomial uses variables outside the target chart")
    return pull_legs(f, legs, target)


def split_by(p, key):
    """The terms of p grouped by `key` of their exponent tuples."""
    out = {}
    for m, c in p.terms.items():
        out.setdefault(key(p.chart.unpack(m)), {})[m] = c
    return {k: GPoly(p.chart, v) for k, v in sorted(out.items())}


def failures(report):
    """The records of a report that did not pass."""
    return [r for r in report.records if not r.passed]


def classification(ham):
    """(total degree or None, momentum weights, fiber weights) of a
    Hamiltonian's body."""
    return (ham.body.degree(), ham.body.kind_weights(MOMENTUM_KINDS),
            ham.body.kind_weights((KIND_FIBER,)))


def act_twice(lham, g):
    """chi(chi(g)) as an hbar series: the powers of the two actions add."""
    by_power = {}
    for p1, first in hamiltonian_action(lham, g).items():
        for p2, second in hamiltonian_action(lham, first).items():
            by_power.setdefault(p1 + p2, []).append(second)
    ce = lham.chart.base_chart
    total = {k: ce.sum(parts) for k, parts in by_power.items()}
    return {k: v for k, v in total.items() if v}
