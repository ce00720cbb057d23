import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corpus import classification, failures, random_poly

from algebroids.algebroid import (hamiltonian_of_algebroid, koszul_algebroid,
                                  schouten_bracket)
from algebroids.errors import (ChartMismatch, DegreeMismatch, ExponentOverflow,
                               NotSplit)
from algebroids.expr import parse_expression as pe
from algebroids.gpoly import (KIND_BASE, MAX_EXPONENT, Chart, GPoly,
                              enumerate_monomials, inject,
                              vector_field_commutator)
from algebroids.specfile import parse_spec
from algebroids.symplectic import (Hamiltonian, PolyMap, biderivation_bracket,
                                   canonical_bracket, canonical_context,
                                   check_poisson_map, hamiltonian_lift,
                                   is_integrable, legendre, shifted_cotangent,
                                   twin_chart)
from test_workload_oracle import W

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


# The reference for the bracket engine: the two Leibniz rules of the module
# docstring as a plain recursion over exponent tuples, with no memo and no
# zero test, peeling the first variable of each monomial as the engine does.


def _leibniz_bracket(f, g, n, pair):
    chart = f.chart
    degs = chart.degrees
    zero = chart.zero()

    def sign(s):
        return -1 if s % 2 else 1

    def mono(e):
        return GPoly(chart, {chart.pack(e): 1})

    def var(i):
        return chart.var_poly(chart.names[i])

    def degree(e):
        return sum(x * d for x, d in zip(e, degs))

    def split(e):
        # a normal-ordered monomial as its first variable times the rest
        i = next(i for i, x in enumerate(e) if x)
        return i, e[:i] + (e[i] - 1,) + e[i + 1:]

    def vbracket(k, e2):
        # {v_k, v_l r} = {v_k, v_l} r + (-1)^{(|v_k|-n)|v_l|} v_l {v_k, r}
        if not any(e2):
            return zero
        l, rest = split(e2)
        head = (pair(k, l) or zero) * mono(rest)
        return head + sign((degs[k] - n) * degs[l]) * (var(l)
                                                       * vbracket(k, rest))

    def mbracket(e1, e2):
        # {v_k r, m2} = v_k {r, m2} + (-1)^{|r|(|m2|-n)} {v_k, m2} r
        if not any(e1):
            return zero
        k, rest = split(e1)
        return var(k) * mbracket(rest, e2) + sign(
            degree(rest) * (degree(e2) - n)) * (vbracket(k, e2) * mono(rest))

    return chart.sum(c1 * c2 * mbracket(chart.unpack(m1), chart.unpack(m2))
                     for m1, c1 in f.terms.items()
                     for m2, c2 in g.terms.items())


def _canonical_pair(sc):
    """{p_i, q^i} = 1 and its graded antisymmetric partner, by index."""
    one, n, npairs = sc.chart.one(), sc.shift, sc.npairs
    degs = sc.chart.degrees

    def pair(k, l):
        if k >= npairs and l == k - npairs:
            return one
        if k < npairs and l == k + npairs:
            s = (degs[k] - n) * (degs[l] - n)
            return one if s % 2 else -one
        return None
    return pair


def _schouten_pair(spec):
    chart = spec.multivector_chart()
    gens = [chart.var_poly(name) for name in chart.names]
    return lambda k, l: schouten_bracket(spec, gens[k], gens[l]) or None


def _variables(p):
    return {i for m in p.terms for i, e in enumerate(p.chart.unpack(m)) if e}


def _engine_matches_reference(f, g, n, pair):
    calls = []

    def recorded(k, l):
        calls.append((k, l))
        return pair(k, l)

    got = biderivation_bracket(f, g, n, recorded)
    assert got == _leibniz_bracket(f, g, n, pair)
    # the generator table is read once per variable of f and of g
    assert len(calls) == len(set(calls))
    assert set(calls) == {(k, l) for k in _variables(f)
                          for l in _variables(g)}
    return got


def _wide_poly(chart, shift, rng, count):
    """`count` distinct monomials with coefficients in +-{1, 2, 3}/{1, 2, 3},
    one with |m| - shift even and one with it odd among them."""
    pool = [chart.pack(m) for m in enumerate_monomials(chart, 4, 2) if any(m)]
    by_parity = ([], [])
    for m in pool:
        by_parity[(chart.monomial_degree(m) - shift) % 2].append(m)
    picked = [rng.choice(by_parity[0]), rng.choice(by_parity[1])]
    rest = [m for m in pool if m not in picked]
    picked += rng.sample(rest, count - 2)
    return GPoly(chart, {m: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                                     rng.randint(1, 3)) for m in picked})


def _lie_hamiltonian(struct, rank):
    doc = parse_spec(W.lie_spec(struct, rank))
    return hamiltonian_of_algebroid(doc.registry["G"].resolved)


def _chi(d, upper):
    """chi of a bivector on R^d as `verdictbench/workloads.py` writes it out."""
    text = "\n".join(W._chart_lines(d) + W.koszul_lines(d, upper)
                     + ["hamiltonian H", "  algebroid V",
                        f"  value = {W.chi_text(d, upper)}"]) + "\n"
    return parse_spec(text).registry["H"].resolved


class TestBracketReference:
    # the charts of TestBracketInvariants, one with two base and two fiber
    # coordinates, and the multivectors of a rank-four cotangent algebroid
    PLANE = shifted_cotangent(Chart([("x", 0), ("y", 0), ("xi1", 1, "fiber"),
                                     ("xi2", 1, "fiber")]), 2)
    SYMPLECTIC = TestBracketInvariants.CHARTS + [PLANE]

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           at=st.integers(0, len(SYMPLECTIC) - 1))
    def test_canonical(self, seed, at):
        rng = random.Random(seed)
        sc = self.SYMPLECTIC[at]
        f, g = (random_poly(sc.chart, rng, max_weight=4, max_base_degree=2,
                            max_terms=5) for _ in range(2))
        got = _engine_matches_reference(f, g, sc.shift, _canonical_pair(sc))
        assert got == canonical_bracket(f, g, sc)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           at=st.integers(0, len(SYMPLECTIC) - 1))
    def test_self_bracket(self, seed, at):
        # f is g: both sides of the recursion read the same operand
        rng = random.Random(seed)
        sc = self.SYMPLECTIC[at]
        f = random_poly(sc.chart, rng, max_weight=4, max_base_degree=2,
                        max_terms=8)
        got = _engine_matches_reference(f, f, sc.shift, _canonical_pair(sc))
        assert got == canonical_bracket(f, f, sc)

    # the charts with base coordinates and room for twelve distinct monomials
    WIDE = [sc for sc in SYMPLECTIC
            if KIND_BASE in sc.chart.kinds
            and len(list(enumerate_monomials(sc.chart, 4, 2))) > 13]

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           at=st.integers(0, len(WIDE) - 1), itself=st.booleans())
    def test_wide_right_operand_of_both_parities(self, seed, at, itself):
        # g has 8-12 terms, with |m2| - n both even and odd among them, so
        # both of its parts, and both signs of the peeling of m1, are used
        rng = random.Random(seed)
        sc = self.WIDE[at]
        g = _wide_poly(sc.chart, sc.shift, rng, rng.randint(8, 12))
        f = g if itself else random_poly(sc.chart, rng, max_weight=4,
                                         max_base_degree=2, max_terms=6)
        got = _engine_matches_reference(f, g, sc.shift, _canonical_pair(sc))
        assert got == canonical_bracket(f, g, sc)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_schouten_rank_four(self, seed):
        rng = random.Random(seed)
        spec = koszul_algebroid(
            Chart([(f"x{i}", 0) for i in range(1, 5)]),
            {(f"x{i}", f"x{j}"): f"{i + j} * x{i} * x{j}"
             for i in range(1, 5) for j in range(i + 1, 5)})
        f, g = (random_poly(spec.multivector_chart(), rng, max_weight=2,
                            max_base_degree=2, max_terms=4) for _ in range(2))
        got = _engine_matches_reference(f, g, 1, _schouten_pair(spec))
        assert got == schouten_bracket(spec, f, g)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), itself=st.booleans())
    def test_schouten_wide_right_operand(self, seed, itself):
        rng = random.Random(seed)
        spec = koszul_algebroid(
            Chart([(f"x{i}", 0) for i in range(1, 4)]),
            {(f"x{i}", f"x{j}"): f"{i * j} * x{i} * x{j}"
             for i in range(1, 4) for j in range(i + 1, 4)})
        chart = spec.multivector_chart()
        g = _wide_poly(chart, 1, rng, rng.randint(8, 12))
        f = g if itself else random_poly(chart, rng, max_weight=2,
                                         max_base_degree=2, max_terms=4)
        got = _engine_matches_reference(f, g, 1, _schouten_pair(spec))
        assert got == schouten_bracket(spec, f, g)

    @pytest.mark.parametrize("kind,n", [("sl", 2), ("so", 3), ("gl", 2),
                                        ("b", 3)])
    @pytest.mark.parametrize("broken", [False, True])
    def test_lie_self_bracket(self, kind, n, broken):
        # {mu, mu} of a rescaled matrix Lie algebra, or of one with a single
        # structure constant changed; zero exactly when Jacobi holds
        rng = random.Random(f"{kind}{n}")
        rank = W.lie_rank(kind, n)
        struct = W.rescale(W.lie_structure(kind, n), rng, rank)
        if broken:
            struct = W._mutate_lie(struct, rank, rng)
        mu = _lie_hamiltonian(struct, rank)
        got = _engine_matches_reference(mu.body, mu.body, 2,
                                        _canonical_pair(mu.chart))
        assert got.is_zero() == W.jacobi_holds(struct, rank) != broken

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("broken", [False, True])
    def test_log_canonical_chi_self_bracket(self, d, broken):
        # {chi, chi} of a log-canonical bivector, or of one with a monomial
        # added; zero exactly when its Jacobiator is
        rng = random.Random(d)
        upper = W.log_canonical(d, rng)
        if broken:
            upper = W._mutate_bivector(d, upper, rng)
        chi = _chi(d, upper)
        got = _engine_matches_reference(chi.body, chi.body, 2,
                                        _canonical_pair(chi.chart))
        assert got.is_zero() == W.jacobiator_vanishes(d, upper) != broken

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_one_variable_reaches(self, data):
        # a monomial of three or more variables of which only v_k has a
        # non-zero value with g, against a monomial of g of which only the
        # partner of v_k reaches back: every other level of the recursion on
        # either side brackets to zero
        sc = data.draw(st.sampled_from(
            [sc for sc in self.SYMPLECTIC if len(sc.chart.vars) >= 4]))
        chart = sc.chart
        parities = chart.parities

        def exponent(i):
            return data.draw(st.integers(1, 1 if parities[i] else 2))

        size = len(chart.vars)
        picked = data.draw(st.lists(st.integers(0, size - 1), min_size=3,
                                    max_size=4, unique=True))
        k = data.draw(st.sampled_from(picked))

        def partner(i):
            return (i + sc.npairs) % size

        partners = {partner(i) for i in picked}
        others = [i for i in range(size) if i not in partners]
        extra = data.draw(st.lists(st.sampled_from(others), max_size=3,
                                   unique=True)) if others else []
        e1, e2 = [0] * size, [0] * size
        for i in picked:
            e1[i] = exponent(i)
        e2[partner(k)] = 1
        for i in extra:
            e2[i] = exponent(i)
        c1, c2 = (data.draw(st.integers(-3, 3).filter(bool)) for _ in range(2))
        f = GPoly(chart, {chart.pack(e1): c1})
        g = GPoly(chart, {chart.pack(e2): c2})
        got = _engine_matches_reference(f, g, sc.shift, _canonical_pair(sc))
        assert got == canonical_bracket(f, g, sc)

    # the charts with two even variables whose generator value is non-zero
    EVEN_PAIRS = [sc for sc in SYMPLECTIC
                  if any(not sc.chart.parities[i]
                         and not sc.chart.parities[i + sc.npairs]
                         for i in range(sc.npairs))]

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_even_powers_on_both_sides(self, data):
        # a coordinate of exponent 2-3 on one side and its momentum of
        # exponent 2-3 on the other: the walk peels a variable that is
        # still in its prefix, and each of its places gives the same term
        sc = data.draw(st.sampled_from(self.EVEN_PAIRS))
        chart = sc.chart
        size, parities = len(chart.vars), chart.parities
        even = [i for i in range(sc.npairs)
                if not parities[i] and not parities[i + sc.npairs]]

        def monomial(forced):
            e = [data.draw(st.integers(0, 1 if parities[i] else 3))
                 for i in range(size)]
            for i in forced:
                e[i] = data.draw(st.integers(2, 3))
            return chart.pack(e)

        def operand(forced):
            terms = {monomial(forced): data.draw(st.integers(-3, 3).filter(
                bool))}
            for _ in range(data.draw(st.integers(0, 2))):
                terms[monomial(())] = data.draw(st.integers(-3, 3))
            return GPoly(chart, terms)

        i = data.draw(st.sampled_from(even))
        f, g = operand([i]), operand([i + sc.npairs])
        if data.draw(st.booleans()):
            f, g = g, f
        got = _engine_matches_reference(f, g, sc.shift, _canonical_pair(sc))
        assert got == canonical_bracket(f, g, sc)

    @staticmethod
    def _fraction_poly(chart, rng, parity, shift):
        """Up to four monomials with |m| - shift of the given parity, with
        coefficients of numerator and denominator up to 6."""
        pool = [chart.pack(m) for m in enumerate_monomials(chart, 4, 2)
                if any(m) and (chart.monomial_degree(chart.pack(m)) - shift)
                % 2 == parity]
        return GPoly(chart, {m: Fraction(rng.choice((-1, 1))
                                         * rng.randint(1, 6),
                                         rng.randint(1, 6))
                             for m in rng.sample(pool, min(4, len(pool)))})

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           at=st.integers(0, len(SYMPLECTIC) - 1))
    def test_fraction_terms_cancel(self, seed, at):
        # with |a| - n even and |b| - n odd, graded antisymmetry makes
        # {a, a} = 0 and {a, b} = -{b, a}, so {a + b, a + b} = {b, b}: the
        # engine adds Fraction terms that cancel exactly, and must leave no
        # zero coefficient and no integral Fraction behind
        rng = random.Random(seed)
        sc = self.SYMPLECTIC[at]
        a = self._fraction_poly(sc.chart, rng, 0, sc.shift)
        b = self._fraction_poly(sc.chart, rng, 1, sc.shift)
        pair = _canonical_pair(sc)
        assert _engine_matches_reference(a, a, sc.shift, pair).is_zero()
        both = _engine_matches_reference(a + b, a + b, sc.shift, pair)
        assert both == _engine_matches_reference(b, b, sc.shift, pair)
        assert all(c.__class__ is int or c.denominator != 1
                   for c in both.terms.values())

    @pytest.mark.parametrize("d", [3, 4])
    def test_log_canonical_with_fraction_coefficients(self, d):
        # {chi, chi} = 0 for any log-canonical coefficients: every Fraction
        # term of the self-bracket cancels
        rng = random.Random(f"fractions{d}")
        upper = {key: {m: c * Fraction(rng.randint(1, 9), rng.randint(2, 9))
                       for m, c in p.items()}
                 for key, p in W.log_canonical(d, rng).items()}
        chi = _chi(d, upper)
        got = _engine_matches_reference(chi.body, chi.body, 2,
                                        _canonical_pair(chi.chart))
        assert got.is_zero()

    def test_exponent_overflow_names_the_variable(self):
        # a term of a bracket whose exponent leaves its field raises at the
        # guard bit, naming the variable, in either rule
        chart = self.PLANE.chart
        top = chart.pack([MAX_EXPONENT, 0, 0, 0, 0, 0, 0, 0])
        x, x_star = chart.var_poly("x"), chart.var_poly("x*")
        pair = _canonical_pair(self.PLANE)
        # the second rule: x^max * {x*, x^2}, a multiple of x^max * x
        f = GPoly(chart, {top: 1}) * x_star
        with pytest.raises(ExponentOverflow, match="'x'"):
            biderivation_bracket(f, x * x, 2, pair)
        # the first rule: {v_k, v_l} = x^max, times the rest x of m2
        y, y_star = chart.index_of("y"), chart.index_of("y*")
        value = GPoly(chart, {top: 1})

        def pair_to_top(k, l):
            return value if (k, l) == (y_star, y) else None

        with pytest.raises(ExponentOverflow, match="'x'"):
            biderivation_bracket(chart.var_poly("y*"),
                                 chart.var_poly("y") * x, 2, pair_to_top)


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


class TestIntegralSelfBracket:
    # is_integrable brackets d*H with itself in integers and divides by d^2;
    # the bracket of H with itself in Fraction arithmetic is the reference

    @staticmethod
    def _agrees(ham):
        assert any(c.__class__ is Fraction for c in ham.body.terms.values())
        residual, flag = is_integrable(ham)
        want = canonical_bracket(ham.body, ham.body, ham.chart)
        assert residual == want and flag == want.is_zero()
        # stored coefficients keep their form: an int when integral
        assert all(c.__class__ is int or c.denominator != 1
                   for c in residual.terms.values())
        return flag

    @pytest.mark.parametrize("kind,n", [("sl", 2), ("so", 3), ("b", 3)])
    @pytest.mark.parametrize("broken", [False, True])
    def test_lie_hamiltonian_with_denominators(self, kind, n, broken):
        rng = random.Random(f"{kind}{n}")
        rank = W.lie_rank(kind, n)
        struct = W.rescale(W.lie_structure(kind, n), rng, rank)
        if broken:
            struct = W._mutate_lie(struct, rank, rng)
        mu = _lie_hamiltonian(struct, rank)
        ham = Hamiltonian(mu.chart, mu.body * Fraction(2, 3))
        assert self._agrees(ham) == W.jacobi_holds(struct, rank) != broken

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           at=st.integers(0, len(TestBracketReference.WIDE) - 1))
    def test_fraction_coefficients(self, seed, at):
        rng = random.Random(seed)
        sc = TestBracketReference.WIDE[at]
        body = _wide_poly(sc.chart, sc.shift, rng, rng.randint(3, 8))
        assume(body)
        # its numerators are at most 3, so 5/7 gives each a denominator
        self._agrees(Hamiltonian(sc, body * Fraction(5, 7)))

    def test_residual_of_two_weights(self):
        # the residual keeps its weight-2 term 2/3 x* y* and its weight-3
        # term 3/4 xi1 xi2 y*: charts carry no weight cap
        sc = TestBracketReference.PLANE
        ham = Hamiltonian(sc, pe("1/2 * xi1 * x* + 2/3 * xi1* * y*"
                                 " + 3/4 * x * xi2 * y*", sc.chart))
        assert not self._agrees(ham)
        assert is_integrable(ham)[0] == \
            pe("2/3 * x* * y* + 3/4 * xi1 * xi2 * y*", sc.chart)


class TestHamiltonianClassification:
    def test_recomputed(self):
        sc = shifted_cotangent(SUPERLINE, 2)
        ham = Hamiltonian(sc, pe("xi * x* + x* * xi*", sc.chart))
        degree, mom, fib = classification(ham)
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

    def test_legendre_without_even_fiber_sign_fails_one_pair(self):
        # b has degree 2; its twin momentum must pull back to -b
        sc = shifted_cotangent(
            Chart([("x", 0), ("a", 1, "fiber"), ("b", 2, "fiber")]), 2)
        tw = twin_chart(sc)
        exchange = legendre(sc)
        assert exchange.image_of("b") == -sc.chart.var_poly("b")
        unsigned = PolyMap(sc.chart, tw.chart, {**exchange.assignment,
                                                "b": sc.chart.var_poly("b")})
        rep = check_poisson_map(unsigned, canonical_context(sc),
                                canonical_context(tw))
        assert len(rep.records) == 21
        assert [(r.name, r.residual) for r in failures(rep)] == \
            [("pair(b*,b)", "-2")]

    def test_momentum_scaling_fails(self):
        sc = shifted_cotangent(LINE, 2)
        ctx = canonical_context(sc)
        stretch = PolyMap(sc.chart, sc.chart,
                          {"x*": 2 * sc.chart.var_poly("x*")})
        rep = check_poisson_map(stretch, ctx, ctx)
        assert not rep.passed
        failing = [r.name for r in failures(rep)]
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
