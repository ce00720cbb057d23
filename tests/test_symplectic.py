import random

import pytest

from algebroids.algebroid import koszul_algebroid, schouten_bracket
from algebroids.errors import ChartMismatch, DegreeMismatch, NotSplit
from algebroids.expr import parse_expression as pe
from algebroids.gpoly import Chart, inject, random_poly, vector_field_commutator
from algebroids.symplectic import (Hamiltonian, PolyMap, canonical_bracket,
                                   canonical_context, check_poisson_map,
                                   hamiltonian_lift, is_integrable, legendre,
                                   shifted_cotangent, twin_chart)

LINE = Chart([("x", 0)])
SUPERLINE = Chart([("x", 0), ("xi", 1, "fiber")])
POINT2 = Chart([("xi1", 1, "fiber"), ("xi2", 1, "fiber")])
POINT3 = Chart([("xi1", 1, "fiber"), ("xi2", 1, "fiber"), ("xi3", 1, "fiber")])


class TestShiftedCotangent:
    def test_degree_two_shift(self):
        sc = shifted_cotangent(SUPERLINE, 2)
        assert [(v.name, v.degree) for v in sc.chart.vars] == \
            [("x", 0), ("xi", 1), ("x*", 2), ("xi*", 1)]

    def test_degree_one_shift(self):
        sc = shifted_cotangent(LINE, 1)
        assert sc.momentum_of("x").degree == 1

    def test_odd_base_coordinate(self):
        sc = shifted_cotangent(Chart([("theta", 1)]), 2)
        assert sc.momentum_of("theta").degree == 1

    def test_name_collision_rejected(self):
        with pytest.raises(ChartMismatch):
            shifted_cotangent(Chart([("x", 0), ("x*", 2)]), 2)


class TestCanonicalBracket:
    def test_defining_relation(self):
        sc = shifted_cotangent(LINE, 2)
        c = sc.chart
        assert canonical_bracket(pe("x*", c), pe("x", c), sc) == c.one()

    def test_two_dim_algebra_hamiltonian_self_bracket(self):
        sc = shifted_cotangent(POINT2, 2)
        mu = pe("xi1 * xi2 * xi1*", sc.chart)
        assert canonical_bracket(mu, mu, sc).is_zero()

    def test_broken_jacobi_residual(self):
        # C^1_12 = 1, C^2_13 = 1 has Jacobiator e2 on (e1, e2, e3); the
        # self-bracket must be nonzero with support on the xi2* component
        sc = shifted_cotangent(POINT3, 2)
        mu = pe("xi1 * xi2 * xi1* + xi1 * xi3 * xi2*", sc.chart)
        res = canonical_bracket(mu, mu, sc)
        assert not res.is_zero()
        k = sc.chart.index_of("xi2*")
        assert all(sc.chart.unpack(m)[k] == 1 for m in res.terms)

    def test_chart_mismatch(self):
        sc = shifted_cotangent(LINE, 2)
        with pytest.raises(ChartMismatch):
            canonical_bracket(pe("x", LINE), pe("x", LINE), sc)


def random_homogeneous(chart, rng, max_weight=4):
    f = random_poly(chart, rng, max_weight=max_weight, max_base_degree=2,
                    max_terms=2, homogeneous=True)
    return f


def assert_bracket_laws(bracket, f, g, h, n):
    """Graded antisymmetry, Leibniz in the second slot, Jacobi and degree
    bookkeeping of a degree -n bracket on homogeneous f, g, h."""
    df, dg = f.degree(), g.degree()
    sign = -1 if ((df - n) * (dg - n)) % 2 else 1
    assert bracket(f, g) == -sign * bracket(g, f)
    sign2 = -1 if ((df - n) * dg) % 2 else 1
    assert bracket(f, g * h) == \
        bracket(f, g) * h + sign2 * (g * bracket(f, h))
    lhs = bracket(f, bracket(g, h))
    rhs = bracket(bracket(f, g), h) + sign * bracket(g, bracket(f, h))
    assert lhs == rhs
    br = bracket(f, g)
    if not br.is_zero():
        assert br.degree() == df + dg - n


class TestBracketInvariants:
    CHARTS = [shifted_cotangent(SUPERLINE, 2),
              shifted_cotangent(POINT2, 2),
              shifted_cotangent(LINE, 1),
              # six coordinates: most monomial pairs have no non-zero
              # generator value between them and are skipped
              shifted_cotangent(Chart([("x", 0), ("y", 0),
                                       ("xi", 1, "fiber")]), 2)]

    def test_antisymmetry_leibniz_jacobi_degree(self):
        rng = random.Random(5)
        for sc in self.CHARTS:
            for _ in range(40):
                f = random_homogeneous(sc.chart, rng)
                g = random_homogeneous(sc.chart, rng)
                h = random_homogeneous(sc.chart, rng)
                if f.is_zero() or g.is_zero() or h.is_zero():
                    continue
                assert_bracket_laws(
                    lambda a, b: canonical_bracket(a, b, sc), f, g, h, sc.shift)

    def test_schouten_laws_rank_four_over_polynomial_base(self):
        # the cotangent algebroid of a log-canonical bivector on R^4
        base = Chart([(f"x{i}", 0) for i in range(1, 5)])
        pi = {(f"x{i}", f"x{j}"): f"{i + j} * x{i} * x{j}"
              for i in range(1, 5) for j in range(i + 1, 5)}
        spec = koszul_algebroid(base, pi)
        assert spec.rank == 4
        chart = spec.multivector_chart()
        rng = random.Random(11)
        checked = 0
        for _ in range(30):
            f, g, h = (random_homogeneous(chart, rng, max_weight=2)
                       for _ in range(3))
            if f.is_zero() or g.is_zero() or h.is_zero():
                continue
            assert_bracket_laws(lambda a, b: schouten_bracket(spec, a, b),
                                f, g, h, 1)
            checked += 1
        assert checked >= 15


class TestHamiltonianLift:
    def test_quadratic_field(self):
        sc = shifted_cotangent(LINE, 2)
        mu = hamiltonian_lift(sc, {"x": pe("x^2", LINE)})
        assert mu == pe("x^2 * x*", sc.chart)

    def test_zero_field(self):
        sc = shifted_cotangent(LINE, 2)
        assert hamiltonian_lift(sc, {}).is_zero()

    def test_bracket_realizes_commutator(self):
        sc = shifted_cotangent(LINE, 2)
        m1 = hamiltonian_lift(sc, {"x": LINE.one()})
        m2 = hamiltonian_lift(sc, {"x": LINE.var_poly("x")})
        assert canonical_bracket(m1, m2, sc) == pe("x*", sc.chart)

    def test_morphism_property_random(self):
        rng = random.Random(9)
        base = Chart([("x1", 0), ("x2", 0)])
        sc = shifted_cotangent(base, 2)
        for _ in range(30):
            q1 = {n: random_poly(base, rng, 0, 2, 2) for n in base.names}
            q2 = {n: random_poly(base, rng, 0, 2, 2) for n in base.names}
            lhs = canonical_bracket(hamiltonian_lift(sc, q1),
                                    hamiltonian_lift(sc, q2), sc)
            rhs = hamiltonian_lift(sc, vector_field_commutator(base, q1, q2))
            assert lhs == rhs


class TestLegendre:
    def test_coordinate_exchange(self):
        sc = shifted_cotangent(SUPERLINE, 2)
        lmap = legendre(sc)
        images = {v.name: lmap.image_of(v.name) for v in lmap.target.vars}
        src = sc.chart
        assert images["x"] == pe("x", src)
        assert images["x*"] == pe("x*", src)
        assert images["xi"] == pe("xi", src)       # twin momentum
        assert images["xi*"] == pe("xi*", src)     # twin fiber coordinate

    def test_involution(self):
        sc = shifted_cotangent(SUPERLINE, 2)
        assert legendre(sc).then(legendre(twin_chart(sc))).is_identity()

    def test_pullback_preserves_bracket(self):
        rng = random.Random(13)
        sc = shifted_cotangent(SUPERLINE, 2)
        tw = twin_chart(sc)
        lmap = legendre(sc)
        for _ in range(25):
            f = random_poly(lmap.target, rng, max_weight=4, max_base_degree=2,
                            max_terms=2)
            g = random_poly(lmap.target, rng, max_weight=4, max_base_degree=2,
                            max_terms=2)
            lhs = lmap.pullback(canonical_bracket(f, g, tw))
            rhs = canonical_bracket(lmap.pullback(f), lmap.pullback(g), sc)
            assert lhs == rhs

    def test_requires_split_chart(self):
        with pytest.raises(NotSplit):
            # fiber listed before base violates the split ordering
            legendre(shifted_cotangent(
                Chart([("xi", 1, "fiber"), ("x", 0, "base")]), 2))


class TestIsIntegrable:
    def test_tangent_hamiltonian(self):
        sc = shifted_cotangent(SUPERLINE, 2)
        ham = Hamiltonian(sc, pe("xi * x*", sc.chart))
        residual, flag = is_integrable(ham)
        assert flag and residual.is_zero()

    def test_zero(self):
        sc = shifted_cotangent(SUPERLINE, 2)
        assert is_integrable(Hamiltonian(sc, sc.chart.zero()))[1]

    def test_broken(self):
        sc = shifted_cotangent(POINT3, 2)
        ham = Hamiltonian(sc, pe("xi1 * xi2 * xi1* + xi1 * xi3 * xi2*", sc.chart))
        residual, flag = is_integrable(ham)
        assert not flag and not residual.is_zero()


class TestHamiltonianClassification:
    def test_recomputed(self):
        sc = shifted_cotangent(SUPERLINE, 2)
        ham = Hamiltonian(sc, pe("xi * x* + x* * xi*", sc.chart))
        degree, mom, fib = ham.classification()
        assert degree == 3
        assert mom == frozenset({1, 2})
        assert fib == frozenset({0, 1})


class TestCheckPoissonMap:
    def test_identity_map_passes(self):
        sc = shifted_cotangent(SUPERLINE, 2)
        ctx = canonical_context(sc)
        ident = PolyMap(sc.chart, sc.chart, {})
        assert check_poisson_map(ident, ctx, ctx).passed

    def test_legendre_is_poisson(self):
        sc = shifted_cotangent(SUPERLINE, 2)
        tw = twin_chart(sc)
        rep = check_poisson_map(legendre(sc), canonical_context(sc),
                                canonical_context(tw))
        assert rep.passed

    def test_momentum_scaling_fails(self):
        sc = shifted_cotangent(LINE, 2)
        ctx = canonical_context(sc)
        stretch = PolyMap(sc.chart, sc.chart,
                          {"x*": 2 * sc.chart.var_poly("x*")})
        rep = check_poisson_map(stretch, ctx, ctx)
        assert not rep.passed
        failing = [r.name for r in rep.failures()]
        assert "pair(x,x*)" in failing


class TestPolyMap:
    def test_degree_preserving_enforced(self):
        sc = shifted_cotangent(SUPERLINE, 2)
        with pytest.raises(DegreeMismatch):
            PolyMap(sc.chart, sc.chart, {"x": pe("xi", sc.chart)})

    def test_basepoint_enforced(self):
        with pytest.raises(DegreeMismatch):
            PolyMap(LINE, LINE, {"x": LINE.const(1) + LINE.var_poly("x")})

    def test_fiber_zero_section_enforced(self):
        # a fiber coordinate may not pull back to a base-only polynomial
        src = Chart([("x", 0), ("xi", 0, "fiber")])
        tgt = Chart([("y", 0), ("eta", 0, "fiber")])
        with pytest.raises(DegreeMismatch):
            PolyMap(src, tgt, {"y": src.var_poly("x"),
                               "eta": src.var_poly("x")})
        PolyMap(src, tgt, {"y": src.var_poly("x"),
                           "eta": src.var_poly("xi")})

    def test_composition(self):
        src = Chart([("x", 0), ("xi", 1, "fiber")])
        mid = Chart([("y", 0), ("eta", 1, "fiber")])
        f = PolyMap(src, mid, {"y": pe("x^2", src), "eta": pe("2 * x * xi", src)})
        g = PolyMap(mid, mid, {"y": 3 * mid.var_poly("y"),
                               "eta": 3 * mid.var_poly("eta")})
        comp = f.then(g)
        assert comp.image_of("y") == pe("3 * x^2", src)
        assert comp.image_of("eta") == pe("6 * x * xi", src)
