import itertools
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (FAILING, LINE, PASSING, PLANE, POINT, abelian,
                    action_on_line, classification, failures, heisenberg,
                    koszul_constant, koszul_linear, random_poly, restrict_to,
                    split_by, two_dim_algebra)

from algebroids.algebroid import (AlgebroidSpec, _close,
                                  adjoint_line_connection, anchor_of,
                                  basis_anchor, basis_section, bv_operator,
                                  ce_differential,
                                  check_algebroid, contraction, curvature,
                                  hamiltonian_of_algebroid, koszul_algebroid,
                                  lie_derivative, lie_poisson, line_connection,
                                  schouten_bracket, schouten_context,
                                  section_add, section_bracket,
                                  section_to_multivector, tangent_spec,
                                  torsion)
from algebroids.errors import DegreeError, DegreeMismatch, NotPoisson
from algebroids.expr import parse_expression as pe
from algebroids.gpoly import (Chart, GPoly, apply_vector_field, inject,
                             mono_normalize, partial_left)
from algebroids.specfile import parse_spec
from algebroids.symplectic import (canonical_bracket, check_poisson_map,
                                   shifted_cotangent, twin_chart)

DATA = os.path.join(os.path.dirname(__file__), "data")


class TestSpecValidation:
    def test_degree_checks(self):
        graded = Chart([("t", 2)])
        with pytest.raises(DegreeError):
            # anchor entries must be homogeneous of degree d_a + |x^i|
            AlgebroidSpec(graded, [("xi1", 0)], {("xi1", "t"): 1}, {})
        with pytest.raises(DegreeError):
            AlgebroidSpec(POINT, [("xi1", 0), ("xi2", 0)], {},
                          {("xi2", "xi1", "xi1"): 1})

    def test_antisymmetric_completion(self):
        spec = two_dim_algebra()
        assert spec.structure_entry(0, 1, 0) == POINT.const(1)
        assert spec.structure_entry(1, 0, 0) == POINT.const(-1)

    def test_even_diagonal_rejected(self):
        with pytest.raises(DegreeError):
            AlgebroidSpec(POINT, [("xi1", 0)], {}, {("xi1", "xi1", "xi1"): 1})

    def test_mixed_parity_component_rejected(self):
        with pytest.raises(DegreeError):
            AlgebroidSpec(POINT, [("a", 0), ("b", 1), ("c", 1)], {},
                          {("a", "b", "c"): 1})


class TestHamiltonianOfAlgebroid:
    def test_tangent_line(self):
        mu = hamiltonian_of_algebroid(tangent_spec(LINE))
        assert mu.body == pe("dx * x*", mu.chart.chart)
        degree, mom, fib = classification(mu)
        assert degree == 3 and mom == frozenset({1})

    def test_two_dim_algebra_frozen_sign(self):
        # the bracket relations force mu = -1/2 C xi xi xi*; frozen here
        mu = hamiltonian_of_algebroid(two_dim_algebra())
        assert mu.body == pe("-xi1 * xi2 * xi1*", mu.chart.chart)

    def test_poisson_algebroid_matches_displayed_formula(self):
        mu = hamiltonian_of_algebroid(koszul_linear())
        expected = pe("x1 * xi2 * x1* - x1 * xi1 * x2* + xi1 * xi2 * xi1*",
                      mu.chart.chart)
        assert mu.body == expected

    def test_momentum_weight_one_and_fiber_vanishing(self):
        for build in PASSING.values():
            mu = hamiltonian_of_algebroid(build())
            if mu.body.is_zero():
                continue
            degree, mom, _ = classification(mu)
            assert degree == 3
            assert mom == frozenset({1})


class TestCheckAlgebroid:
    def test_passing_corpus(self):
        for name, build in PASSING.items():
            report = check_algebroid(build())
            assert report.passed, f"{name} unexpectedly failed"

    def test_failing_corpus(self):
        for name, build in FAILING.items():
            report = check_algebroid(build())
            assert not report.passed, f"{name} unexpectedly passed"

    def test_routes_agree_everywhere(self):
        for build in list(PASSING.values()) + list(FAILING.values()):
            report = check_algebroid(build())
            routes = [r for r in report.records if r.name == "routes-agree"]
            assert routes and routes[0].passed

    def test_broken_constants_jacobiator(self):
        report = check_algebroid(FAILING["broken-constants"]())
        failing = {r.name for r in failures(report)}
        assert "jacobi(xi1,xi2,xi3)" in failing
        rec = next(r for r in report.records
                   if r.name == "jacobi(xi1,xi2,xi3)")
        assert rec.residual == "xi2*"


def _graded_spec(rng):
    """A random graded spec: fiber degrees in -1..2 with odd self-brackets,
    a base of 0-2 degree-0 variables x_i and perhaps one degree-1 variable
    y, polynomial anchor and structure entries of every degree the base
    has, drawn without regard to the Jacobi identity.  With y, sections of
    odd degree carry anchors too."""
    nbase = rng.choice((0, 1, 2))
    odd = rng.random() < 0.5
    base = Chart([(f"x{i + 1}", 0) for i in range(nbase)]
                 + ([("y", 1)] if odd else []))
    fiber = [(f"e{a + 1}", rng.randint(-1, 2))
             for a in range(rng.randint(2, 4))]
    return _graded_structure(rng, base, fiber)


def _graded_structure(rng, base, fiber):
    """A random spec on `base` and `fiber` as `_graded_spec` draws it."""
    entries = (0, 1) if base.has("y") else (0,)
    anchor = {}
    bracket = {}
    for a, (fa, da) in enumerate(fiber):
        for v in base.vars:
            want = da + v.degree
            if want in entries and rng.random() < 0.5:
                anchor[(fa, v.name)] = _base_poly(base, rng, want)
        for fb, db in fiber[a:]:
            if (da + db) % 2 or (fa == fb and da % 2 == 0):
                continue
            for fc, dc in fiber:
                if da + db - dc in entries and rng.random() < 0.4:
                    bracket[(fa, fb, fc)] = _base_poly(base, rng, da + db - dc)
    return AlgebroidSpec(base, fiber, anchor, bracket)


def _odd_anchor_spec():
    """A degree-1 base coordinate y with rho(e1) = y d_y and [e1, e2] = -2 e1:
    the anchor is not a bracket morphism."""
    base = Chart([("y", 1)])
    return AlgebroidSpec(base, [("e1", 0), ("e2", 0)], {("e1", "y"): "y"},
                         {("e1", "e2", "e1"): -2})


def _base_poly(base, rng, degree, constant=False):
    """A non-zero polynomial of degree 0 or 1 on a `_graded_spec` base: a
    polynomial in the x_i, times y for degree 1; a constant one when
    `constant`."""
    p = base.const(rng.choice((-2, -1, 1, 2)))
    for _ in range(0 if constant else rng.randint(0, 2)):
        p = p + rng.choice((-1, 1, 3)) * random_poly(base, rng, 2, 2, 2,
                                                     degree=0)
    return p * base.var_poly("y") if degree else p


def _graded_section(spec, rng):
    """A random homogeneous section: each coefficient zero, constant or a
    polynomial of the degree the section's degree asks of it."""
    entries = (0, 1) if spec.base.has("y") else (0,)
    degree = rng.choice(spec.fiber_degrees) + rng.choice(entries)
    out = {}
    for name, d in zip(spec.fiber_names, spec.fiber_degrees):
        kind = rng.choice(("zero", "constant", "polynomial"))
        if degree - d in entries and kind != "zero":
            out[name] = _base_poly(spec.base, rng, degree - d,
                                   constant=kind == "constant")
    return out


def _reference_section_bracket(spec, x, y):
    """[X, Y] as section_bracket computed it before constant coefficients
    became scales: every product is taken, and so are rho(X) and every
    rho_b(f)."""
    def graded(section):
        entries = [(n, spec.fiber_index(n), p, p.degree())
                   for n, p in section.items() if p]
        degs = {d + spec.fiber_degrees[a] for _, a, _, d in entries}
        assert len(degs) <= 1
        return entries, (degs.pop() if degs else 0)

    xs, dx = graded(x)
    ys, _ = graded(y)
    names = spec.fiber_names
    parts = {}
    rho_x = anchor_of(spec, x)
    for bn, b, g, gdeg in ys:
        db = spec.fiber_degrees[b]
        rho_b = anchor_of(spec, basis_section(spec, b))
        if rho_x:
            parts.setdefault(bn, []).append(apply_vector_field(rho_x, g))
        s1 = -1 if (dx * gdeg) % 2 else 1
        for an, a, f, fdeg in xs:
            row = spec.structure.get((a, b))
            if row:
                gf = g * f
                for c, centry in row.items():
                    parts.setdefault(names[c], []).append((s1, gf * centry))
            rb = apply_vector_field(rho_b, f) if rho_b else None
            if rb:
                s2 = -1 if ((fdeg + spec.fiber_degrees[a]) * db) % 2 else 1
                parts.setdefault(an, []).append((-s1 * s2, g * rb))
    out = ((n, spec.base.sum(parts[n])) for n in names if n in parts)
    return {n: p for n, p in out if p}


def _reference_mu(spec):
    """mu with the structure part as the sum over ordered pairs,
    -1/2 C^c_ab xi^a xi^b xi*_c for every (a, b)."""
    sc = spec.symplectic_chart()
    C = sc.chart
    names = spec.fiber_names
    terms = []
    for a, an in enumerate(names):
        for i, xv in enumerate(spec.base.vars):
            if spec.anchor[a][i]:
                terms.append(C.var_poly(an) * inject(spec.anchor[a][i], C)
                             * C.var_poly(sc.momentum_of(xv.name).name))
    for (a, b), row in spec.structure.items():
        for c, centry in row.items():
            terms.append(Fraction(-1, 2) * inject(centry, C)
                         * C.var_poly(names[a]) * C.var_poly(names[b])
                         * C.var_poly(sc.momentum_of(names[c]).name))
    return C.sum(terms)


def _reference_jacobi(spec):
    """Every Jacobi record, from nested section_bracket calls alone."""
    names, degs = spec.fiber_names, spec.fiber_degrees
    basis = [basis_section(spec, k) for k in range(spec.rank)]
    out = {}
    for a, b, c in itertools.combinations_with_replacement(range(spec.rank), 3):
        jac = {}
        for p, q, r in ((a, b, c), (b, c, a), (c, a, b)):
            sign = (-1) ** ((degs[p] * degs[r]) % 2)
            inner = section_bracket(spec, basis[p], basis[q])
            for n, t in section_bracket(spec, inner, basis[r]).items():
                jac[n] = jac.get(n, spec.base.zero()) + sign * t
        jac = {n: t for n, t in jac.items() if t}
        residual = repr(section_to_multivector(spec, jac)) if jac else None
        out[f"jacobi({names[a]},{names[b]},{names[c]})"] = (not jac, residual)
    return out


class TestAxiomRoute:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_nested_section_brackets(self, seed):
        spec = _graded_spec(random.Random(seed))
        report = check_algebroid(spec)
        got = {r.name: (r.passed, r.residual) for r in report.records
               if r.name.startswith("jacobi(")}
        assert got == _reference_jacobi(spec)
        routes = next(r for r in report.records if r.name == "routes-agree")
        assert routes.passed, routes.detail

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_basis_bracket_is_the_structure_row(self, seed):
        # check_algebroid reads [e_a, e_b] off the structure table
        spec = _graded_spec(random.Random(seed))
        for a in range(spec.rank):
            for b in range(spec.rank):
                row = spec.structure.get((a, b), {})
                table = [(spec.fiber_names[c], row[c]) for c in sorted(row)]
                got = section_bracket(spec, basis_section(spec, a),
                                      basis_section(spec, b))
                assert list(got.items()) == table

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_section_bracket_matches_reference(self, seed):
        rng = random.Random(seed)
        spec = _graded_spec(rng)
        for _ in range(6):
            x, y = _graded_section(spec, rng), _graded_section(spec, rng)
            want = _reference_section_bracket(spec, x, y)
            assert list(section_bracket(spec, x, y).items()) == \
                list(want.items())

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_into_then_close(self, seed):
        # appending sign * [X, Y] and closing once equals the closed sum
        rng = random.Random(seed)
        spec = _graded_spec(rng)
        x, y, z = (_graded_section(spec, rng) for _ in range(3))
        parts = {}
        assert section_bracket(spec, x, y, into=parts) is None
        assert list(_close(spec, parts).items()) == \
            list(section_bracket(spec, x, y).items())
        section_bracket(spec, z, y, into=parts, sign=-1)
        want = section_add(spec, section_bracket(spec, x, y),
                           section_bracket(spec, z, y), scale=-1)
        assert _close(spec, parts) == want

    def test_constant_coefficients_scale(self):
        # [xi1, xi2] = -x2 xi1 - x1 xi2 - xi3 mixes constant and polynomial
        # structure entries; every section pairs a constant, a polynomial
        # and a zero coefficient in each order
        space = Chart([("x1", 0), ("x2", 0), ("x3", 0)])
        spec = koszul_algebroid(space, {(0, 1): "x1 * x2 + x3"})
        kinds = (None, space.const(Fraction(-2, 3)), pe("x1 + 3 * x3^2", space))
        sections = [{n: p for n, p in zip(spec.fiber_names, coeffs) if p}
                    for coeffs in itertools.product(kinds, repeat=spec.rank)]
        for x in sections:
            for y in sections:
                assert list(section_bracket(spec, x, y).items()) == \
                    list(_reference_section_bracket(spec, x, y).items())

    def test_odd_anchor_sign(self):
        # [y e_a, e_b] = -(-1)^{(|y| + d_a) d_b} rho_b(y) e_a = e_a: the
        # sign of the rho_b(f) term is -1 here
        base = Chart([("x", 0), ("y", 1)])
        spec = AlgebroidSpec(base, [("a", 0), ("b", -1)], {("b", "y"): 1})
        x, y = {"a": base.var_poly("y")}, {"b": base.one()}
        assert section_bracket(spec, x, y) == {"a": base.one()}
        assert _reference_section_bracket(spec, x, y) == {"a": base.one()}

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_mu_is_the_ordered_pair_sum(self, seed):
        # the packed terms against the product route on odd and even base
        # coordinates and fibers
        spec = _graded_spec(random.Random(seed))
        assert hamiltonian_of_algebroid(spec).body == _reference_mu(spec)

    def test_anchor_morphism_on_an_odd_coordinate(self):
        # rho([e1, e2]) = -2 y d_y but [rho(e1), rho(e2)] = 0; as a base
        # polynomial -2 y * y would vanish, its lift -2 y y* does not
        records = {r.name: r for r in check_algebroid(_odd_anchor_spec()).records}
        assert not records["anchor-morphism(e1,e2)"].passed
        assert records["anchor-morphism(e1,e2)"].residual == "-2 * y * y*"
        assert not records["mu-squared"].passed
        assert records["routes-agree"].passed

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_record_names(self, seed):
        # no record family holds by the definition of section_bracket: the
        # Leibniz rule is that definition, so it has no record
        spec = _graded_spec(random.Random(seed))
        names = spec.fiber_names
        want = (["mu-squared"]
                + [f"jacobi({a},{b},{c})" for a, b, c in
                   itertools.combinations_with_replacement(names, 3)]
                + [f"anchor-morphism({a},{b})" for a, b in
                   itertools.combinations_with_replacement(names, 2)]
                + ["routes-agree"])
        assert [r.name for r in check_algebroid(spec).records] == want

    def test_every_record_family_can_fail(self):
        with open(os.path.join(DATA, "kernel", "gl3_broken.alg")) as fh:
            gl3 = parse_spec(fh.read()).lookup("G").resolved
        failed = {r.name.split("(")[0] for spec in (gl3, _odd_anchor_spec())
                  for r in check_algebroid(spec).records if not r.passed}
        assert failed == {"mu-squared", "jacobi", "anchor-morphism"}

    def test_negative_odd_degree_product(self):
        # d_a |x| = -1 in the Leibniz sign; an integer power of -1 with a
        # negative exponent is a float that no polynomial multiplies
        base = Chart([("x", 1)])
        spec = AlgebroidSpec(base, [("e", -1), ("h", 1), ("k", 0)], {},
                             {("e", "h", "k"): 1})
        report = check_algebroid(spec)
        assert report.passed


class TestCEDifferential:
    def test_de_rham(self):
        spec = tangent_spec(LINE)
        ce = spec.ce_chart()
        assert ce_differential(spec, pe("x", ce)) == pe("dx", ce)

    def test_two_dim_dual_generator(self):
        spec = two_dim_algebra()
        ce = spec.ce_chart()
        assert ce_differential(spec, pe("xi1", ce)) == pe("-xi1 * xi2", ce)
        assert ce_differential(spec, pe("xi2", ce)).is_zero()

    def test_constant(self):
        spec = two_dim_algebra()
        assert ce_differential(spec, spec.ce_chart().one()).is_zero()

    def test_mu_is_kept_per_chart(self):
        # the same spec on two cotangent charts that name the momenta apart
        spec = two_dim_algebra()
        ce = spec.ce_chart()
        other = shifted_cotangent(ce, 2, [n + "_p" for n in ce.names])
        phi = pe("xi1", ce)
        assert ce_differential(spec, phi) == ce_differential(spec, phi, other)
        assert ce_differential(spec, phi, other) == pe("-xi1 * xi2", ce)

    def test_square_zero_on_passing_corpus(self):
        rng = random.Random(17)
        for build in PASSING.values():
            spec = build()
            ce = spec.ce_chart()
            for name in ce.names:
                assert ce_differential(
                    spec, ce_differential(spec, ce.var_poly(name))).is_zero()
            for _ in range(5):
                phi = random_poly(ce, rng, max_weight=3, max_base_degree=2)
                assert ce_differential(spec, ce_differential(spec, phi)).is_zero()

    def test_degree_plus_one(self):
        spec = koszul_linear()
        ce = spec.ce_chart()
        d = ce_differential(spec, pe("x1 * xi1", ce))
        assert d.is_homogeneous(2)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_bracket_route(self, seed):
        rng = random.Random(seed)
        spec = _graded_spec(rng)
        ce = spec.ce_chart()
        for _ in range(3):
            phi = random_poly(ce, rng, max_weight=3, max_base_degree=2,
                              max_terms=4)
            assert ce_differential(spec, phi) == ce_by_bracket(spec, phi)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_bracket_route_on_a_twin_chart(self, seed):
        # d* of a dual structure acts on the primal multivectors, the
        # function chart of the Legendre twin, as check_bialgebroid runs it
        rng = random.Random(seed)
        spec = _graded_spec(rng)
        dual = _graded_structure(rng, spec.base, [
            (n, -d) for n, d in zip(spec.starred_names(), spec.fiber_degrees)])
        twin = twin_chart(spec.symplectic_chart())
        mv = spec.multivector_chart()
        assert twin.base_chart == mv
        for _ in range(3):
            p = random_poly(mv, rng, max_weight=3, max_base_degree=2,
                            max_terms=4)
            assert ce_differential(dual, p, twin) == \
                ce_by_bracket(dual, p, twin)


def ce_by_bracket(spec, phi, sc=None):
    """d(phi) as ce_differential computed it before it read mu's word
    split: {mu, phi} on the symplectic chart, restricted to V[1]."""
    sc = sc if sc is not None else spec.symplectic_chart()
    mu = hamiltonian_of_algebroid(spec, sc).body
    out = canonical_bracket(mu, inject(phi, sc.chart), sc)
    return restrict_to(out, sc.base_chart)


def _evaluate_form(spec, phi, sections):
    """Multilinear evaluation: contract the first argument innermost."""
    out = phi
    for x in sections:
        out = contraction(spec, x, out)
    return out


def _eq1_oracle(spec, phi, sections):
    """The alternating-sum coboundary formula on decomposable arguments."""
    base = spec.base
    total = base.zero()
    k = len(sections)
    for i in range(k):
        rest = sections[:i] + sections[i + 1:]
        inner = restrict_to(_evaluate_form(spec, phi, rest), base)
        total = total + ((-1) ** i) * apply_vector_field(
            anchor_of(spec, sections[i]), inner)
    for i in range(k):
        for j in range(i + 1, k):
            rest = [section_bracket(spec, sections[i], sections[j])] + \
                [s for l, s in enumerate(sections) if l not in (i, j)]
            total = total + ((-1) ** (i + j)) * restrict_to(
                _evaluate_form(spec, phi, rest), base)
    return total


class TestEq1Agreement:
    def test_classical_cross_check(self):
        # the bracket route {mu, -} agrees with the multilinear coboundary
        # formula on decomposable arguments for classical specs
        rng = random.Random(23)
        for build in (two_dim_algebra, heisenberg, action_on_line,
                      koszul_linear):
            spec = build()
            ce = spec.ce_chart()
            nbase = len(spec.base.vars)
            for _ in range(6):
                sample = random_poly(ce, rng, max_weight=2, max_base_degree=1)
                for w in (0, 1, 2):
                    phi = sample.component(lambda m: sum(m[nbase:]) == w)
                    if phi.is_zero() or spec.rank < w + 1:
                        continue
                    for idx in itertools.combinations(range(spec.rank), w + 1):
                        sections = [basis_section(spec, a) for a in idx]
                        lhs = restrict_to(_evaluate_form(
                            spec, ce_differential(spec, phi), sections),
                            spec.base)
                        assert lhs == _eq1_oracle(spec, phi, sections)


class TestCartan:
    def test_contraction_on_generators(self):
        spec = two_dim_algebra()
        ce = spec.ce_chart()
        assert contraction(spec, basis_section(spec, 0), pe("xi1 * xi2", ce)) \
            == pe("xi2", ce)

    def test_lie_derivative_de_rham(self):
        spec = tangent_spec(LINE)
        ce = spec.ce_chart()
        assert lie_derivative(spec, {"dx": LINE.one()}, pe("x", ce)) == ce.one()

    def test_cartan_commutator_identity(self):
        rng = random.Random(29)
        for build in (two_dim_algebra, heisenberg, action_on_line):
            spec = build()
            ce = spec.ce_chart()
            for a in range(spec.rank):
                for b in range(spec.rank):
                    x = basis_section(spec, a)
                    y = basis_section(spec, b)
                    for _ in range(4):
                        phi = random_poly(ce, rng, max_weight=2,
                                          max_base_degree=1)
                        lhs = lie_derivative(spec, x, contraction(spec, y, phi)) \
                            - contraction(spec, y, lie_derivative(spec, x, phi))
                        rhs = contraction(
                            spec, section_bracket(spec, x, y), phi)
                        assert lhs == rhs

    def test_lie_bracket_identity(self):
        rng = random.Random(31)
        spec = two_dim_algebra()
        ce = spec.ce_chart()
        for a in range(2):
            for b in range(2):
                x, y = basis_section(spec, a), basis_section(spec, b)
                for _ in range(4):
                    phi = random_poly(ce, rng, max_weight=2, max_base_degree=0)
                    lhs = lie_derivative(spec, x, lie_derivative(spec, y, phi)) \
                        - lie_derivative(spec, y, lie_derivative(spec, x, phi))
                    rhs = lie_derivative(spec, section_bracket(spec, x, y), phi)
                    assert lhs == rhs


class TestSchouten:
    def test_wedge_square_of_decomposable(self):
        spec = two_dim_algebra()
        mv = spec.multivector_chart()
        s = pe("xi1* * xi2*", mv)
        assert schouten_bracket(spec, s, s).is_zero()

    def test_bivector_on_plane(self):
        spec = tangent_spec(PLANE)
        mv = spec.multivector_chart()
        pi = pe("x1 * dx1* * dx2*", mv)
        assert schouten_bracket(spec, pi, pi).is_zero()

    def test_generator_function_value_frozen(self):
        # the suspension to the shifted dual chart globally negates the
        # generator table: [e_a, f] = -rho(e_a) f in this realization
        spec = action_on_line()
        mv = spec.multivector_chart()
        assert schouten_bracket(spec, pe("xi1*", mv), pe("x", mv)) == \
            pe("-1", mv)
        assert schouten_bracket(spec, pe("xi1*", mv), pe("xi2*", mv)) == \
            pe("-xi1*", mv)

    def test_graded_antisymmetry_and_jacobi(self):
        rng = random.Random(37)
        for build in (two_dim_algebra, heisenberg, koszul_linear):
            spec = build()
            mv = spec.multivector_chart()
            for _ in range(15):
                f = random_poly(mv, rng, 3, 1, 2, homogeneous=True)
                g = random_poly(mv, rng, 3, 1, 2, homogeneous=True)
                h = random_poly(mv, rng, 3, 1, 2, homogeneous=True)
                if f.is_zero() or g.is_zero() or h.is_zero():
                    continue
                df, dg = f.degree(), g.degree()
                sign = -1 if ((df - 1) * (dg - 1)) % 2 else 1
                assert schouten_bracket(spec, f, g) == \
                    -sign * schouten_bracket(spec, g, f)
                jac_sign = -1 if ((df - 1) * (dg - 1)) % 2 else 1
                lhs = schouten_bracket(spec, f, schouten_bracket(spec, g, h))
                rhs = schouten_bracket(spec, schouten_bracket(spec, f, g), h) \
                    + jac_sign * schouten_bracket(
                        spec, g, schouten_bracket(spec, f, h))
                assert lhs == rhs

    def test_biderivation(self):
        rng = random.Random(41)
        spec = koszul_linear()
        mv = spec.multivector_chart()
        for _ in range(10):
            f = random_poly(mv, rng, 2, 1, 2, homogeneous=True)
            g = random_poly(mv, rng, 2, 1, 2, homogeneous=True)
            h = random_poly(mv, rng, 2, 1, 2, homogeneous=True)
            if f.is_zero() or g.is_zero():
                continue
            df, dg = f.degree(), g.degree()
            sign = -1 if ((df - 1) * dg) % 2 else 1
            assert schouten_bracket(spec, f, g * h) == \
                schouten_bracket(spec, f, g) * h + \
                sign * (g * schouten_bracket(spec, f, h))

    def test_arity(self):
        spec = two_dim_algebra()
        mv = spec.multivector_chart()
        nbase = len(spec.base.vars)
        p = pe("xi1* * xi2*", mv)
        assert {sum(mv.unpack(m)[nbase:]) for m in p.terms} == {2}


class TestLiePoisson:
    def test_kostant_kirillov(self):
        ctx = lie_poisson(two_dim_algebra())
        u1 = ctx.chart.var_poly("xi1*")
        u2 = ctx.chart.var_poly("xi2*")
        assert ctx.bracket(u1, u2) == u1

    def test_base_functions_commute(self):
        ctx = lie_poisson(action_on_line())
        f = ctx.chart.var_poly("x")
        assert ctx.bracket(f, f * f).is_zero()

    def test_jacobi_fails_for_broken_spec(self):
        ctx = lie_poisson(FAILING["broken-constants"]())
        c = ctx.chart
        u = [c.var_poly(f"xi{i}*") for i in (1, 2, 3)]
        jac = ctx.bracket(u[0], ctx.bracket(u[1], u[2])) \
            + ctx.bracket(u[1], ctx.bracket(u[2], u[0])) \
            + ctx.bracket(u[2], ctx.bracket(u[0], u[1]))
        assert not jac.is_zero()

    def test_jacobi_holds_for_passing_specs(self):
        for build in (two_dim_algebra, heisenberg, action_on_line):
            ctx = lie_poisson(build())
            c = ctx.chart
            gens = [c.var_poly(n) for n in c.names]
            for f, g, h in itertools.combinations(gens, 3):
                jac = ctx.bracket(f, ctx.bracket(g, h)) \
                    + ctx.bracket(g, ctx.bracket(h, f)) \
                    + ctx.bracket(h, ctx.bracket(f, g))
                assert jac.is_zero()

    def test_poisson_map_between_duals(self):
        # scaling e1 and fixing e2 is an endomorphism of [e1,e2] = e1,
        # so its dual map is Poisson; swapping the basis is not
        from algebroids.symplectic import PolyMap
        spec = two_dim_algebra()
        ctx = lie_poisson(spec)
        c = ctx.chart
        good = PolyMap(c, c, {"xi1*": 3 * c.var_poly("xi1*")})
        assert check_poisson_map(good, ctx, ctx).passed
        swap = PolyMap(c, c, {"xi1*": c.var_poly("xi2*"),
                              "xi2*": c.var_poly("xi1*")})
        rep = check_poisson_map(swap, ctx, ctx)
        assert not rep.passed


class TestKoszulAlgebroid:
    def test_constant_bivector(self):
        spec = koszul_constant()
        assert all(not p for (_, row) in spec.structure.items()
                   for p in row.values())
        assert spec.anchor[0][1] == pe("-1", PLANE)
        assert spec.anchor[1][0] == pe("1", PLANE)

    def test_zero_bivector(self):
        spec = koszul_algebroid(PLANE, {})
        assert all(p.is_zero() for row in spec.anchor for p in row)
        assert not spec.structure

    def test_linear_bivector_hamiltonian_pinned(self):
        mu = hamiltonian_of_algebroid(koszul_linear())
        assert mu.body == pe(
            "x1 * xi2 * x1* - x1 * xi1 * x2* + xi1 * xi2 * xi1*",
            mu.chart.chart)

    def test_not_poisson_rejected(self):
        base = Chart([("x1", 0), ("x2", 0), ("x3", 0)])
        with pytest.raises(NotPoisson):
            koszul_algebroid(base, {(0, 1): "x2", (1, 2): "x1"})


class TestConnections:
    def test_directional_derivative_is_flat(self):
        spec = abelian()
        conn = line_connection(spec, {})
        x = basis_section(spec, 0)
        y = basis_section(spec, 1)
        r = curvature(spec, conn, x, y)
        assert all(p.is_zero() for col in r.values() for p in col.values())

    def test_adjoint_connection_flat(self):
        spec = two_dim_algebra()
        conn = adjoint_line_connection(spec)
        gammas = [conn.gamma[a][0][0] for a in range(2)]
        assert gammas[0].is_zero()
        assert gammas[1] == POINT.const(-1)
        x, y = basis_section(spec, 0), basis_section(spec, 1)
        r = curvature(spec, conn, x, y)
        assert all(p.is_zero() for col in r.values() for p in col.values())

    def test_zero_connection_torsion(self):
        spec = two_dim_algebra()
        zero_conn = line_connection(spec, {})
        # connection on the bundle itself: zero coefficient matrices
        from algebroids.algebroid import Connection
        z = POINT.zero()
        conn = Connection(spec, spec.fiber_names,
                          tuple(tuple(tuple(z for _ in range(2))
                                      for _ in range(2)) for _ in range(2)))
        x, y = basis_section(spec, 0), basis_section(spec, 1)
        t = torsion(spec, conn, x, y)
        expected = {n: -p for n, p in section_bracket(spec, x, y).items()}
        assert t == expected


    def test_gamma_of_another_degree_is_refused(self):
        # D has degree -1 only when each Gamma_a has the degree d_a of e_a
        spec = AlgebroidSpec(LINE, [("e", 0), ("c", 2)])
        line_connection(spec, {"e": "x + 1"})
        with pytest.raises(DegreeError) as err:
            line_connection(spec, {"c": 3})
        assert err.value.entry == "c"
        with pytest.raises(DegreeError):
            line_connection(spec, {"e": "3 * x", "c": "x"})


class TestBVOperator:
    def test_two_dim_top_power(self):
        spec = two_dim_algebra()
        conn = adjoint_line_connection(spec)
        mv = spec.multivector_chart()
        assert bv_operator(spec, conn, pe("xi1* * xi2*", mv)) == pe("xi1*", mv)

    def test_arity_zero_input(self):
        spec = two_dim_algebra()
        conn = adjoint_line_connection(spec)
        mv = spec.multivector_chart()
        assert bv_operator(spec, conn, mv.one()).is_zero()

    def test_flat_zero_connection_on_abelian(self):
        spec = abelian()
        conn = line_connection(spec, {})
        mv = spec.multivector_chart()
        assert bv_operator(spec, conn, pe("xi1*", mv)).is_zero()

    def test_divergence_on_tangent_line(self):
        spec = tangent_spec(LINE)
        conn = line_connection(spec, {})
        mv = spec.multivector_chart()
        assert bv_operator(spec, conn, pe("x * dx*", mv)) == mv.one()

    def _xu_identity(self, spec, conn, a, b):
        mv = spec.multivector_chart()
        pa, pb = mv.var_poly(a), mv.var_poly(b)

        def delta(p):
            return bv_operator(spec, conn, p)

        lhs = schouten_bracket(spec, pa, pb)
        rhs = -(delta(pa * pb) - delta(pa) * pb + pa * delta(pb))
        return lhs == rhs

    def test_generator_identity(self):
        for build in (two_dim_algebra, heisenberg):
            spec = build()
            conn = adjoint_line_connection(spec)
            for a in spec.fiber_names:
                for b in spec.fiber_names:
                    assert self._xu_identity(spec, conn,
                                             a + "*", b + "*")

    def test_square_zero_flat(self):
        rng = random.Random(43)
        for build in (two_dim_algebra, heisenberg):
            spec = build()
            conn = adjoint_line_connection(spec)
            mv = spec.multivector_chart()
            for _ in range(10):
                w = random_poly(mv, rng, 3, 0, 3)
                assert bv_operator(spec, conn,
                                   bv_operator(spec, conn, w)).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_evaluation_on_top_forms(self, seed):
        rng = random.Random(seed)
        spec, conn = _bv_spec(rng)
        mv = spec.multivector_chart()
        for _ in range(3):
            w = random_poly(mv, rng, 4, 2, 5)
            assert bv_operator(spec, conn, w) == bv_by_evaluation(spec, conn, w)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_generates_the_bracket(self, seed):
        # [a,b] = (-1)^{|a|}(D(ab) - D(a)b - (-1)^{|a|} a D(b)) on drawn
        # homogeneous multivectors, not only on generators
        rng = random.Random(seed)
        spec, conn = _bv_spec(rng)
        mv = spec.multivector_chart()

        def delta(p):
            return bv_operator(spec, conn, p)

        for _ in range(3):
            a = random_poly(mv, rng, 3, 2, 3, homogeneous=True)
            b = random_poly(mv, rng, 3, 2, 3, homogeneous=True)
            s = -1 if (a.degree() or 0) % 2 else 1
            rhs = s * (delta(a * b) - delta(a) * b - s * (a * delta(b)))
            assert schouten_bracket(spec, a, b) == rhs


def _bv_spec(rng):
    """A random spec with even section degrees (-2, 0 or 2) over a base of
    0-2 degree-0 variables x_i and perhaps one degree-2 variable t, with
    polynomial anchor and structure entries drawn without regard to the
    Jacobi identity, and a zero, adjoint or random polynomial line
    connection with each Gamma_a of degree d_a."""
    nbase = rng.choice((0, 1, 2))
    graded = rng.random() < 0.5
    base = Chart([(f"x{i + 1}", 0) for i in range(nbase)]
                 + ([("t", 2)] if graded else []))
    fiber = [(f"e{a + 1}", rng.choice((-2, 0, 0, 2)))
             for a in range(rng.randint(1, 4))]

    def poly(degree):
        p = base.const(rng.choice((-2, -1, 1, 2)))
        for _ in range(rng.randint(0, 2) if nbase else 0):
            p = p + rng.choice((-1, 1, 3)) * random_poly(base, rng, 2, 2, 2,
                                                         degree=0)
        return p * base.var_poly("t") if degree else p

    entries = (0, 2) if graded else (0,)
    anchor, bracket = {}, {}
    for a, (fa, da) in enumerate(fiber):
        for v in base.vars:
            if da + v.degree in entries and rng.random() < 0.5:
                anchor[(fa, v.name)] = poly(da + v.degree)
        for fb, db in fiber[a + 1:]:
            for fc, dc in fiber:
                if da + db - dc in entries and rng.random() < 0.5:
                    bracket[(fa, fb, fc)] = poly(da + db - dc)
    spec = AlgebroidSpec(base, fiber, anchor, bracket)
    kind = rng.choice(("zero", "adjoint", "polynomial"))
    if kind == "adjoint" and not anchor:
        return spec, adjoint_line_connection(spec)
    # Gamma_a has the degree d_a of e_a: zero when no entry has that degree
    gammas = {} if kind == "zero" else {
        n: poly(d) for n, d in zip(spec.fiber_names, spec.fiber_degrees)
        if d in entries and rng.random() < 0.7}
    return spec, line_connection(spec, gammas)


def bv_by_evaluation(spec, conn, omega):
    """D(omega) as bv_operator computed it before the left-derivative
    formula: identify multivectors with top-valued forms, evaluate the
    connection's alternating formula on every ascending tuple of basis
    sections, and rebuild the arity q - 1 part from those values."""
    chart = spec.multivector_chart()
    n = spec.rank
    nbase = len(spec.base.vars)
    stars = spec.starred_names()
    gamma = [conn.gamma[a][0][0] for a in range(n)]

    def top_coefficient(p):
        # the base coefficient of the top multivector monomial e_1...e_n
        out = {}
        for m, c in p.terms.items():
            exps = p.chart.unpack(m)
            fiber_part = exps[nbase:]
            if all(e == 1 for e in fiber_part):
                out[spec.base.pack(exps[:nbase])] = c
            elif any(fiber_part):
                raise DegreeMismatch("not a top-power section")
        return GPoly(spec.base, out)

    by_arity = split_by(omega, lambda m: sum(m[nbase:]))
    out = []
    for q, part in by_arity.items():
        if q == 0:
            continue
        p = n - q
        # wedging the arguments on the left costs (-1)^{p q} per evaluation;
        # relative to the reconstruction side the mismatch is (-1)^p
        side = (-1) ** p
        values = {}
        for tup in itertools.combinations(range(n), p + 1):
            terms = []
            for k, ik in enumerate(tup):
                wedge = chart.one()
                for j in tup:
                    if j != ik:
                        wedge = wedge * chart.var_poly(stars[j])
                h = top_coefficient(wedge * part)
                val = (apply_vector_field(basis_anchor(spec, ik), h)
                       + h * gamma[ik])
                terms.append(((-1) ** k) * val)
            for k in range(len(tup)):
                for l in range(k + 1, len(tup)):
                    br = section_bracket(spec, basis_section(spec, tup[k]),
                                         basis_section(spec, tup[l]))
                    wedge = section_to_multivector(spec, br)
                    for j in tup:
                        if j != tup[k] and j != tup[l]:
                            wedge = wedge * chart.var_poly(stars[j])
                    h = top_coefficient(wedge * part)
                    terms.append(((-1) ** (k + l)) * h)
            values[tup] = spec.base.sum(terms)
        for ktup in itertools.combinations(range(n), q - 1):
            itup = tuple(j for j in range(n) if j not in ktup)
            word = [(stars[j], 1) for j in itup + ktup]
            sign, _ = mono_normalize(chart, word)
            coeff = values[itup]
            if coeff.is_zero():
                continue
            term = inject(coeff, chart) * Fraction(sign * side)
            for j in ktup:
                term = term * chart.var_poly(stars[j])
            out.append(term)
    return chart.sum(out)


class TestSectionBracket:
    def test_action_algebroid_sections(self):
        spec = action_on_line()
        x = {"xi1": LINE.var_poly("x")}
        y = {"xi2": LINE.one()}
        br = section_bracket(spec, x, y)
        # [x e1, e2] = x [e1,e2] - rho(e2)(x) e1 = x e1 - x e1 = 0
        assert all(p.is_zero() for p in br.values())

    def test_anchor_of(self):
        spec = action_on_line()
        assert anchor_of(spec, basis_section(spec, 1)) == \
            {"x": LINE.var_poly("x")}
