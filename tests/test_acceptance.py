"""Acceptance suite: one test per criterion, exact equality throughout.

Every test prints an `[acceptance] criterion N: PASS/FAIL` line through the
collector in conftest.py.  Desk scale: base dimension <= 3, fiber rank <= 4,
weight cap <= 6.
"""

import io
import contextlib
import itertools
import os
import random
import time

import pytest

from corpus import (BIALGEBROID_FAILING, BIALGEBROID_PASSING, FAILING, LINE,
                    PASSING, PLANE, POINT, abelian, act_twice,
                    dual_tangent_type, heisenberg, heisenberg_plus_line,
                    koszul_linear, random_poly, two_dim_algebra,
                    two_dim_triangular_pair)

from algebroids.algebroid import (AlgebroidSpec, adjoint_line_connection,
                                  basis_section, bv_operator, ce_differential,
                                  check_algebroid, contraction,
                                  hamiltonian_of_algebroid, lie_derivative,
                                  schouten_bracket, section_bracket,
                                  tangent_spec)
from algebroids.bialgebroid import (BialgebroidSpec,
                                    assemble_hamiltonian, check_bialgebroid,
                                    check_linfty, legendre_quadratic_check)
from algebroids.constructions import linfty_bialgebra, triangular
from algebroids.expr import parse_expression as pe
from algebroids.gpoly import Chart, inject, vector_field_commutator
from algebroids.symplectic import (Hamiltonian, PolyMap, canonical_bracket,
                                   hamiltonian_lift, legendre,
                                   shifted_cotangent, twin_chart)
from algebroids.bialgebroid import semistrict_morphism_check


def _ce_chart(lham):
    return Chart([(v.name, v.degree, v.kind)
                  for v in lham.chart.base_chart.vars])


def test_criterion_01_canonical_bracket_axioms():
    """>= 200 random homogeneous triples per chart family, under 10 s."""
    families = [
        shifted_cotangent(Chart([("x", 0), ("xi", 1, "fiber")]), 2),
        shifted_cotangent(Chart([("xi1", 1, "fiber"), ("xi2", 1, "fiber"),
                                 ("xi3", 1, "fiber")]), 2),
        shifted_cotangent(Chart([("x", 0)]), 1),
    ]
    started = time.perf_counter()
    rng = random.Random(101)
    for sc in families:
        n = sc.shift
        chart = sc.chart
        checked = 0
        while checked < 200:
            f = random_poly(chart, rng, 4, 1, 2, homogeneous=True)
            g = random_poly(chart, rng, 4, 1, 2, homogeneous=True)
            h = random_poly(chart, rng, 4, 1, 2, homogeneous=True)
            if f.is_zero() or g.is_zero() or h.is_zero():
                continue
            checked += 1
            df, dg = f.degree(), g.degree()
            sign = -1 if ((df - n) * (dg - n)) % 2 else 1
            assert canonical_bracket(f, g, sc) == \
                -sign * canonical_bracket(g, f, sc)
            sign2 = -1 if ((df - n) * dg) % 2 else 1
            assert canonical_bracket(f, g * h, sc) == \
                canonical_bracket(f, g, sc) * h + \
                sign2 * (g * canonical_bracket(f, h, sc))
            lhs = canonical_bracket(f, canonical_bracket(g, h, sc), sc)
            rhs = canonical_bracket(canonical_bracket(f, g, sc), h, sc) + \
                sign * canonical_bracket(g, canonical_bracket(f, h, sc), sc)
            assert lhs == rhs
            br = canonical_bracket(f, g, sc)
            if not br.is_zero():
                assert br.degree() == df + dg - n
    assert time.perf_counter() - started < 10.0


def test_criterion_02_lift_is_a_bracket_morphism():
    """>= 100 random polynomial vector-field pairs, under 5 s."""
    started = time.perf_counter()
    rng = random.Random(103)
    base = Chart([("x1", 0), ("x2", 0)])
    sc = shifted_cotangent(base, 2)
    for _ in range(100):
        q1 = {n: random_poly(base, rng, 0, 2, 2) for n in base.names}
        q2 = {n: random_poly(base, rng, 0, 2, 2) for n in base.names}
        lhs = canonical_bracket(hamiltonian_lift(sc, q1),
                                hamiltonian_lift(sc, q2), sc)
        rhs = hamiltonian_lift(sc, vector_field_commutator(base, q1, q2))
        assert lhs == rhs
    assert time.perf_counter() - started < 5.0


def test_criterion_03_hamiltonian_axiom_equivalence():
    """{mu, mu} = 0 iff the direct axioms, over >= 10 passing and >= 5
    deliberately broken structures."""
    assert len(PASSING) >= 10 and len(FAILING) >= 5
    for name, build in {**PASSING, **FAILING}.items():
        report = check_algebroid(build())
        routes = next(r for r in report.records if r.name == "routes-agree")
        assert routes.passed, name
        assert report.passed == (name in PASSING), name


def test_criterion_04_de_rham_instance():
    spec = tangent_spec(PLANE)
    ce = spec.ce_chart()
    for xv, fn in zip(PLANE.names, spec.fiber_names):
        assert ce_differential(spec, ce.var_poly(xv)) == ce.var_poly(fn)
    rng = random.Random(107)
    for name in ce.names:
        assert ce_differential(
            spec, ce_differential(spec, ce.var_poly(name))).is_zero()
    for _ in range(10):
        phi = random_poly(ce, rng, 3, 2, 3)
        assert ce_differential(spec, ce_differential(spec, phi)).is_zero()


def test_criterion_05_cartan_suite():
    """L_X = d iota_X + iota_X d and [L_X, iota_Y] = iota_[X,Y] on all basis
    pairs of every structure in the passing corpus."""
    rng = random.Random(109)
    for name, build in PASSING.items():
        spec = build()
        ce = spec.ce_chart()
        for a in range(spec.rank):
            x = basis_section(spec, a)
            for _ in range(3):
                phi = random_poly(ce, rng, 2, 1, 2)
                assert lie_derivative(spec, x, phi) == \
                    ce_differential(spec, contraction(spec, x, phi)) + \
                    contraction(spec, x, ce_differential(spec, phi))
            for b in range(spec.rank):
                y = basis_section(spec, b)
                for _ in range(2):
                    phi = random_poly(ce, rng, 2, 1, 2)
                    lhs = lie_derivative(spec, x, contraction(spec, y, phi)) \
                        - contraction(spec, y, lie_derivative(spec, x, phi))
                    rhs = contraction(spec, section_bracket(spec, x, y), phi)
                    assert lhs == rhs, name


def test_criterion_06_legendre_quadratic_identity():
    for name, build in BIALGEBROID_PASSING.items():
        assert legendre_quadratic_check(build()).passed, name
    # dual structure with a polynomial anchor
    primal = AlgebroidSpec(LINE, [("xi1", 0)], {}, {})
    dual = AlgebroidSpec(LINE, [("xi1*", 0)], {("xi1*", "x"): "x"}, {})
    assert legendre_quadratic_check(BialgebroidSpec(primal, dual)).passed


def test_criterion_07_poisson_bialgebroid():
    primal = koszul_linear()
    b = BialgebroidSpec(primal, dual_tangent_type(primal))
    chi = assemble_hamiltonian(b)
    displayed = pe(
        "x1* * xi1* + x2* * xi2* + x1 * xi2 * x1* - x1 * xi1 * x2* "
        "+ xi1 * xi2 * xi1*", b.chart.chart)
    assert chi.body == displayed
    assert canonical_bracket(chi.body, chi.body, b.chart).is_zero()
    report = check_bialgebroid(b)
    assert report.passed
    assert all(r.passed for r in report.records
               if r.name.startswith("compatibility"))
    # perturbing the dual-side bracket breaks both routes consistently
    bad = check_bialgebroid(BIALGEBROID_FAILING["heisenberg-bad-cobracket"]())
    assert not next(r for r in bad.records if r.name == "chi-squared").passed
    assert any(not r.passed for r in bad.records
               if r.name.startswith("compatibility"))
    assert next(r for r in bad.records if r.name == "routes-agree").passed


def test_criterion_08_morphism_theorem_instance():
    src = tangent_spec(LINE, ["xi"])
    tgt = tangent_spec(Chart([("y", 0)]), ["eta"])
    f = PolyMap(src.ce_chart(), tgt.ce_chart(),
                {"y": pe("x^2", src.ce_chart()),
                 "eta": pe("2 * x * xi", src.ce_chart())})
    mu_s = hamiltonian_of_algebroid(src)
    mu_t = hamiltonian_of_algebroid(tgt)
    assert semistrict_morphism_check(f, mu_s, mu_t).passed
    perturbed = Hamiltonian(
        mu_t.chart, mu_t.body + pe("eta * eta* * y*", mu_t.chart.chart))
    assert not semistrict_morphism_check(f, mu_s, perturbed).passed


def test_criterion_09_triangular_self_check():
    for spec, r_text in ((two_dim_algebra(), "xi1* * xi2*"),
                         (abelian(), "xi1* * xi2*")):
        mv = spec.multivector_chart()
        r = pe(r_text, mv)
        lham = triangular(spec, r)   # the identity is asserted on build
        # recompute both sides explicitly
        sc = spec.symplectic_chart()
        tw = twin_chart(sc)
        lmap = legendre(sc)
        comps = {}
        for v in mv.vars:
            val = schouten_bracket(spec, r, mv.var_poly(v.name))
            if val:
                comps[v.name] = inject(val, tw.base_chart)
        lifted = lmap.pullback(hamiltonian_lift(tw, comps))
        mu = hamiltonian_of_algebroid(spec, sc).body
        direct = canonical_bracket(mu, lmap.pullback(inject(r, tw.chart)), sc)
        assert lifted == direct
        assert check_linfty(lham).passed
        weights = lham.body.kind_weights(("momentum-base", "momentum-fiber"))
        assert weights <= {1, 2}


def test_criterion_10_bv_suite():
    spec = two_dim_algebra()
    conn = adjoint_line_connection(spec)
    mv = spec.multivector_chart()
    assert bv_operator(spec, conn, pe("xi1* * xi2*", mv)) == pe("xi1*", mv)
    # generator identity on all basis pairs, two- and three-dimensional
    for s in (spec, heisenberg()):
        c = adjoint_line_connection(s)
        m = s.multivector_chart()

        def delta(p, _s=s, _c=c):
            return bv_operator(_s, _c, p)

        for a in s.fiber_names:
            for b in s.fiber_names:
                pa, pb = m.var_poly(a + "*"), m.var_poly(b + "*")
                lhs = schouten_bracket(s, pa, pb)
                rhs = -(delta(pa * pb) - delta(pa) * pb + pa * delta(pb))
                assert lhs == rhs
    # flat connection: the operator squares to zero
    rng = random.Random(113)
    for s in (spec, heisenberg()):
        c = adjoint_line_connection(s)
        m = s.multivector_chart()
        for _ in range(10):
            w = random_poly(m, rng, 3, 0, 3)
            assert bv_operator(s, c, bv_operator(s, c, w)).is_zero()


# The operator action composes to zero exactly when no trace-type terms
# appear: divergence-free bivectors, unimodular algebras with unimodular
# duals.  Structures with a nonzero modular field genuinely violate the
# composition identity at first order in the formal parameter even though
# {chi, chi} = 0 (pinned by the regression below).
NILPOTENT_CORPUS = {
    "poisson-zero": lambda: assemble_hamiltonian(
        BIALGEBROID_PASSING["poisson-zero"]()),
    "poisson-constant": lambda: assemble_hamiltonian(
        BIALGEBROID_PASSING["poisson-constant"]()),
    "two-dim-abelian-dual": lambda: assemble_hamiltonian(
        BIALGEBROID_PASSING["two-dim-abelian-dual"]()),
    "triangular-heis4": lambda: triangular(
        heisenberg_plus_line(),
        pe("xi1* * xi4*", heisenberg_plus_line().multivector_chart())),
    "linfty-table-heis4": lambda: linfty_bialgebra(
        [("xi1", 0), ("xi2", 0), ("xi3", 0), ("xi4", 0)],
        {(2, 1): "-xi1 * xi2 * xi3*", (1, 2): "-xi4 * xi1* * xi3*"}),
}


def test_criterion_11_operator_nilpotency():
    """chi(chi(g)) = 0 through formal-parameter cap 4, >= 50 random g per
    structure in the composable corpus."""
    rng = random.Random(127)
    for name, build in NILPOTENT_CORPUS.items():
        lham = build()
        assert check_linfty(lham).passed, name
        ce = _ce_chart(lham)
        for _ in range(50):
            g = random_poly(ce, rng, 3, 2, 3)
            assert act_twice(lham, g) == {}, name
    # pinned counterexample: the linear bivector carries a modular field
    chi = assemble_hamiltonian(BIALGEBROID_PASSING["poisson-linear"]())
    ce = _ce_chart(chi)
    residual = act_twice(chi, pe("x1^2 * x2 * xi1 * xi2", ce))
    assert residual == {1: pe("-x1^2 * xi1 * xi2", ce)}


def _bidegree_support(chi_sq, chart):
    out = {}
    for m in chi_sq.terms:
        fw = chart.kind_weight(m, ("fiber",))
        mw = chart.kind_weight(m, ("momentum-base", "momentum-fiber"))
        out.setdefault((fw, mw), set()).add(chart.unpack(m))
    return out


def _jacobiator_support(spec):
    """Expected self-bracket monomials from the section-route Jacobiator."""
    words = set()
    names = spec.fiber_names
    for a, b, c in itertools.combinations(range(spec.rank), 3):
        ea, eb, ec = (basis_section(spec, k) for k in (a, b, c))
        jac = {}
        for term in (section_bracket(spec, section_bracket(spec, ea, eb), ec),
                     section_bracket(spec, section_bracket(spec, eb, ec), ea),
                     section_bracket(spec, section_bracket(spec, ec, ea), eb)):
            for n, p in term.items():
                jac[n] = jac.get(n, spec.base.zero()) + p
        for n, p in jac.items():
            if not p.is_zero():
                words.add((names[a], names[b], names[c], n))
    return words


def test_criterion_12_point_case_component_expansion():
    pt_names = [("xi1", 0), ("xi2", 0), ("xi3", 0)]

    # compatible bracket + cobracket: no residual at all
    good = assemble_hamiltonian(two_dim_triangular_pair())
    assert canonical_bracket(good.body, good.body, good.chart).is_zero()

    # broken bracket only: residual concentrated in bidegree (3,1) with
    # support matching the section-route Jacobiator
    broken = FAILING["broken-constants"]()
    mu = hamiltonian_of_algebroid(broken)
    chi_b = Hamiltonian(mu.chart, mu.body)
    sq = canonical_bracket(chi_b.body, chi_b.body, chi_b.chart)
    support = _bidegree_support(sq, chi_b.chart.chart)
    assert set(support) == {(3, 1)}
    expected = _jacobiator_support(broken)
    actual = set()
    chart = chi_b.chart.chart
    for m in support[(3, 1)]:
        fibers = tuple(chart.names[i] for i, e in enumerate(m)
                       if e and chart.kinds[i] == "fiber")
        mom = next(chart.names[i] for i, e in enumerate(m)
                   if e and chart.kinds[i] == "momentum-fiber")
        actual.add(fibers + (mom[:-1],))
    assert actual == expected

    # broken cobracket only: residual concentrated in bidegree (1,3) and the
    # starred support mirrors the dual-side Jacobiator
    dual_broken = AlgebroidSpec(
        POINT, [("xi1*", 0), ("xi2*", 0), ("xi3*", 0)], {},
        {("xi1*", "xi2*", "xi1*"): 1, ("xi1*", "xi3*", "xi2*"): 1})
    pair = BialgebroidSpec(
        AlgebroidSpec(POINT, pt_names, {}, {}), dual_broken)
    chi_c = assemble_hamiltonian(pair)
    sq_c = canonical_bracket(chi_c.body, chi_c.body, chi_c.chart)
    support_c = _bidegree_support(sq_c, chi_c.chart.chart)
    assert set(support_c) == {(1, 3)}
    expected_dual = {tuple(x[:-1] if x.endswith("*") else x for x in word)
                     for word in _jacobiator_support(dual_broken)}
    chart_c = chi_c.chart.chart
    actual_c = set()
    for m in support_c[(1, 3)]:
        momenta = tuple(chart_c.names[i][:-1] for i, e in enumerate(m)
                        if e and chart_c.kinds[i] == "momentum-fiber")
        fiber = next(chart_c.names[i] for i, e in enumerate(m)
                     if e and chart_c.kinds[i] == "fiber")
        actual_c.add(momenta + (fiber,))
    assert actual_c == expected_dual

    # broken compatibility only: residual concentrated in bidegree (2,2)
    # with support matching the failing derivation-identity pairs
    bad = BIALGEBROID_FAILING["heisenberg-bad-cobracket"]()
    chi_d = assemble_hamiltonian(bad)
    sq_d = canonical_bracket(chi_d.body, chi_d.body, chi_d.chart)
    support_d = _bidegree_support(sq_d, chi_d.chart.chart)
    assert set(support_d) == {(2, 2)}
    report = check_bialgebroid(bad)
    failing_pairs = set()
    for rec in report.records:
        if rec.name.startswith("compatibility") and not rec.passed:
            inner = rec.name[len("compatibility("):-1]
            a, b = inner.split(",")
            failing_pairs.add((a[:-1], b[:-1]))
    chart_d = chi_d.chart.chart
    actual_d = set()
    for m in support_d[(2, 2)]:
        fibers = tuple(chart_d.names[i] for i, e in enumerate(m)
                       if e and chart_d.kinds[i] == "fiber")
        actual_d.add(fibers)
    assert actual_d == failing_pairs


def test_criterion_13_cli_round_trip_and_determinism():
    """Golden files for every subcommand live in test_cli.py; determinism
    and exit-code discipline are re-asserted here."""
    from algebroids.cli import main as cli_main

    def run(argv):
        buf = io.StringIO()
        cwd = os.getcwd()
        os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        try:
            with contextlib.redirect_stdout(buf):
                code = cli_main(argv)
        finally:
            os.chdir(cwd)
        return code, buf.getvalue()

    golden_dir = os.path.join(os.path.dirname(__file__), "data", "golden")
    expected_subs = {"check-algebroid", "check-coalgebroid",
                     "check-bialgebroid", "check-linfty", "check-morphism",
                     "bracket", "ce-diff", "schouten", "bv", "lift",
                     "legendre", "construct", "round-trip"}
    have = {name.split(".")[0].replace("-json", "")
            for name in os.listdir(golden_dir)}
    assert expected_subs <= have
    first = run(["check-bialgebroid", "tests/data/poisson.alg", "--json"])
    second = run(["check-bialgebroid", "tests/data/poisson.alg", "--json"])
    assert first == second and first[0] == 0
    assert run(["check-algebroid", "tests/data/bad_order.alg"])[0] == 2
