import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import random_poly, restrict_to

from algebroids.errors import (ChartMismatch, DegreeMismatch,
                               ExponentOverflow, OddSquare)
from algebroids.expr import parse_expression as pe
from algebroids.gpoly import (MAX_EXPONENT, Chart, GPoly, Monomial, add_into,
                              apply_vector_field, enumerate_monomials, inject,
                              insert_into, mono_normalize, mul_into,
                              mul_monomial, partial_left, render_poly,
                              splits, substitute, vector_field_commutator)

ODD2 = Chart([("xi1", 1, "fiber"), ("xi2", 1, "fiber")])
MIXED = Chart([("x", 0), ("xi1", 1, "fiber"), ("xi2", 1, "fiber")])


def poly(text, chart=MIXED):
    return pe(text, chart)


class TestMonoNormalize:
    def test_two_odd_swap(self):
        sign, mono = mono_normalize(ODD2, ["xi2", "xi1"])
        assert sign == -1
        assert mono == Monomial(ODD2, (1, 1))

    def test_even_commutes(self):
        sign, mono = mono_normalize(MIXED, ["xi1", "x"])
        assert sign == 1
        assert mono == Monomial(MIXED, (1, 1, 0))

    def test_odd_square_raises(self):
        with pytest.raises(OddSquare):
            mono_normalize(ODD2, ["xi1", "xi1"])


class TestPolyMul:
    def test_odd_square_is_zero(self):
        f = poly("xi1")
        assert (f * f).is_zero()

    def test_koszul_sign(self):
        assert poly("xi2") * poly("xi1") == poly("-xi1 * xi2")

    def test_even_factor_distributes(self):
        lhs = (poly("x") + poly("xi1 * xi2")) * poly("x")
        assert lhs == poly("x^2 + x * xi1 * xi2")

    def test_scalar_multiplication(self):
        assert poly("x") * Fraction(1, 2) == poly("1/2 * x")
        assert 2 * poly("x") == poly("2 * x")
        assert poly("x") / 2 == poly("1/2 * x")


class TestPartialLeft:
    def test_second_odd_variable(self):
        assert partial_left(poly("xi1 * xi2"), "xi2") == poly("-xi1")

    def test_even_variable(self):
        assert partial_left(poly("x^2 * xi1"), "x") == poly("2 * x * xi1")

    def test_leading_odd_variable(self):
        assert partial_left(poly("xi1 * xi2"), "xi1") == poly("xi2")


class TestSubstitute:
    def test_expand_with_odd_square_collapse(self):
        src = Chart([("x", 0), ("xi", 1, "fiber"), ("xstar", 2, "momentum-base")])
        tgt = Chart([("x", 0), ("xi", 1, "fiber"), ("y", 0),
                     ("eta", 1, "fiber"), ("ystar", 2, "momentum-base"),
                     ("etastar", 1, "momentum-fiber")])
        f = pe("xi * xstar", src)
        image = pe("2 * x * ystar + 2 * xi * etastar", tgt)
        assert substitute(f, {"xstar": image}, target=tgt) == \
            pe("2 * x * xi * ystar", tgt)

    def test_identity_substitution(self):
        f = poly("x^2 * xi1 + 1/2 * xi1 * xi2")
        assert substitute(f, {}) == f

    def test_even_image_of_even_variable_kills_odd_squares(self):
        src = Chart([("u", 2)])
        f = pe("u^2", src)
        image = poly("xi1 * xi2") * 1
        # |xi1 xi2| = 2 matches |u|; the square of an odd product vanishes
        assert substitute(f, {"u": image}, target=MIXED).is_zero()

    def test_degree_mismatch(self):
        src = Chart([("u", 2)])
        with pytest.raises(DegreeMismatch):
            substitute(pe("u", src), {"u": poly("x")}, target=MIXED)

    def test_algebra_map_property(self):
        rng = random.Random(3)
        tgt = MIXED
        src = Chart([("a", 0), ("b", 1, "fiber")])
        images = {"a": poly("x + x^2"), "b": poly("x * xi1 + xi2")}
        for _ in range(25):
            f = random_poly(src, rng, max_weight=2, max_base_degree=2)
            g = random_poly(src, rng, max_weight=2, max_base_degree=2)
            lhs = substitute(f * g, images, target=tgt)
            rhs = substitute(f, images, target=tgt) * substitute(g, images, target=tgt)
            assert lhs == rhs


class TestChart:
    def test_unique_names_enforced(self):
        with pytest.raises(ValueError):
            Chart([("x", 0), ("x", 1)])

    def test_chart_mismatch(self):
        other = Chart([("x", 0)])
        with pytest.raises(ChartMismatch):
            poly("x") + other.var_poly("x")

    def test_inject(self):
        small = Chart([("x", 0)])
        f = pe("x^2", small)
        assert inject(f, MIXED) == poly("x^2")

    def test_restrict_to_reordered_odd_variables(self):
        swapped = Chart([("xi2", 1, "fiber"), ("xi1", 1, "fiber")])
        f = pe("xi1 * xi2", ODD2)
        assert restrict_to(f, swapped) == pe("-xi2 * xi1", swapped)
        assert restrict_to(f, swapped) == inject(f, swapped)

    def test_restrict_to_needs_every_used_variable(self):
        small = Chart([("x", 0), ("xi1", 1, "fiber")])
        assert restrict_to(poly("x * xi1"), small) == pe("x * xi1", small)
        with pytest.raises(ChartMismatch):
            restrict_to(poly("x * xi2"), small)


@st.composite
def small_poly(draw, chart=MIXED, max_weight=3):
    pool = [chart.pack(m)
            for m in enumerate_monomials(chart, max_weight, max_base_degree=2)]
    n = draw(st.integers(min_value=0, max_value=3))
    terms = {}
    for _ in range(n):
        m = draw(st.sampled_from(pool))
        c = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        terms[m] = terms.get(m, 0) + c
    return GPoly(chart, terms)


@st.composite
def homogeneous_poly(draw, chart=MIXED, max_weight=3):
    f = draw(small_poly(chart, max_weight))
    if f.is_zero():
        return f
    degs = sorted({chart.monomial_degree(m) for m in f.terms})
    d = draw(st.sampled_from(degs))
    return f.component(lambda m: chart.monomial_degree(chart.pack(m)) == d)


class TestRingInvariants:
    @settings(max_examples=60, deadline=None)
    @given(f=homogeneous_poly(), g=homogeneous_poly())
    def test_graded_commutativity(self, f, g):
        df, dg = f.degree(), g.degree()
        if df is None or dg is None:
            return
        sign = -1 if (df * dg) % 2 else 1
        assert f * g == sign * (g * f)

    @settings(max_examples=40, deadline=None)
    @given(f=small_poly(max_weight=2), g=small_poly(max_weight=2),
           h=small_poly(max_weight=2))
    def test_associativity_and_distributivity(self, f, g, h):
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h

    @settings(max_examples=40, deadline=None)
    @given(f=small_poly())
    def test_mixed_partials(self, f):
        for u in f.chart.names:
            for v in f.chart.names:
                pu = f.chart.var(u).parity
                pv = f.chart.var(v).parity
                sign = -1 if (pu * pv) % 2 else 1
                lhs = partial_left(partial_left(f, v), u)
                rhs = sign * partial_left(partial_left(f, u), v)
                assert lhs == rhs

    @settings(max_examples=40, deadline=None)
    @given(f=homogeneous_poly(), g=small_poly())
    def test_left_leibniz(self, f, g):
        if f.degree() is None:
            return
        for v in f.chart.names:
            pv = f.chart.var(v).parity
            sign = -1 if (pv * f.degree()) % 2 else 1
            lhs = partial_left(f * g, v)
            rhs = partial_left(f, v) * g + sign * (f * partial_left(g, v))
            assert lhs == rhs


# the fast kernels against the general product they replace
SOURCE = Chart([("x", 0), ("xi1", 1, "fiber"), ("xi2", 1, "fiber"),
                ("t", 2, "formal-parameter")])
# the source variables in another order, with an extra variable between
SHUFFLED = [("xi2", 1, "fiber"), ("z", 0), ("t", 2, "formal-parameter"),
            ("x", 0), ("xi1", 1, "fiber")]
TARGET = Chart(SHUFFLED)


class TestKernelEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_mul_monomial_is_product_by_one_term(self, data):
        chart = data.draw(st.sampled_from([MIXED, SOURCE]))
        p = data.draw(small_poly(chart))
        m = chart.pack(data.draw(st.sampled_from(enumerate_monomials(chart, 3))))
        mono = GPoly(chart, {m: 1})
        assert mul_monomial(p, m) == p * mono
        assert mul_monomial(p, m, left=True) == mono * p

    def test_mul_monomial_odd_square(self):
        f = pe("xi1 + x * xi2 + xi2 * t", SOURCE)
        xi1 = SOURCE.pack((0, 1, 0, 0))
        assert mul_monomial(f, xi1) == \
            pe("x * xi2 * xi1 + xi2 * t * xi1", SOURCE)
        assert mul_monomial(f, xi1, left=True) == \
            pe("x * xi1 * xi2 + xi1 * xi2 * t", SOURCE)
        assert mul_monomial(f, SOURCE.pack((2, 0, 0, 1))) == \
            pe("x^2 * t * xi1 + x^3 * xi2 * t + x^2 * xi2 * t^2", SOURCE)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_identity_legs_match_explicit_images(self, data):
        f = data.draw(small_poly(SOURCE))
        explicit = {name: TARGET.var_poly(name) for name in SOURCE.names}
        assert substitute(f, {}, TARGET) == substitute(f, explicit, TARGET)
        # one assigned leg among identity legs
        x_image = {"x": pe("x + z", TARGET)}
        assert substitute(f, x_image, TARGET) == \
            substitute(f, {**explicit, **x_image}, TARGET)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_restrict_to_undoes_inject(self, data):
        f = data.draw(small_poly(SOURCE))
        shuffled = Chart(data.draw(st.permutations(SOURCE.vars)))
        assert restrict_to(inject(f, TARGET), shuffled) == inject(f, shuffled)


# integer coefficients against a reference that computes with Fractions only
# on exponent tuples; it multiplies through mono_normalize


def coefficient():
    return st.one_of(st.integers(-4, 4),
                     st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)))


@st.composite
def mixed_poly(draw, chart=MIXED, degree=None):
    pool = [chart.pack(m) for m in enumerate_monomials(chart, 2, max_base_degree=2)
            if degree is None or chart.monomial_degree(chart.pack(m)) == degree]
    terms = {}
    for m in draw(st.lists(st.sampled_from(pool), max_size=4)):
        terms[m] = terms.get(m, 0) + draw(coefficient())
    return GPoly(chart, terms)


@st.composite
def sized_poly(draw, chart, n):
    """A polynomial of exactly n terms from the monomials of `mixed_poly`."""
    pool = [chart.pack(m) for m in enumerate_monomials(chart, 2, max_base_degree=2)]
    keys = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n,
                         unique=True))
    return GPoly(chart, {m: draw(coefficient().filter(bool)) for m in keys})


def assert_canonical(p):
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


def ref(p):
    return {p.chart.unpack(m): Fraction(c) for m, c in p.terms.items()}


def tuples(p):
    """The terms of p keyed by exponent tuples."""
    return {p.chart.unpack(m): c for m, c in p.terms.items()}


def ref_clean(chart, terms):
    return {m: c for m, c in terms.items() if c != 0}


def ref_add(chart, *summands):
    out = {}
    for terms in summands:
        for m, c in terms.items():
            out[m] = out.get(m, Fraction(0)) + c
    return ref_clean(chart, out)


def ref_scale(chart, a, s):
    return ref_clean(chart, {m: c * Fraction(s) for m, c in a.items()})


def ref_mul(chart, a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            word = list(zip(chart.names, m1)) + list(zip(chart.names, m2))
            try:
                sign, mono = mono_normalize(chart, word)
            except OddSquare:
                continue
            out[mono.exps] = out.get(mono.exps, Fraction(0)) + sign * c1 * c2
    return ref_clean(chart, out)


def ref_partial(chart, a, k):
    out = {}
    for m, c in a.items():
        if not m[k]:
            continue
        odd_before = sum(m[j] for j in range(k) if chart.parities[j])
        sign = -1 if chart.parities[k] and odd_before % 2 else 1
        nm = m[:k] + (m[k] - 1,) + m[k + 1:]
        out[nm] = out.get(nm, Fraction(0)) + sign * m[k] * c
    return ref_clean(chart, out)


def ref_substitute(f, images, target):
    parts = []
    for m, c in ref(f).items():
        part = {(0,) * len(target.vars): c}
        for name, e in zip(f.chart.names, m):
            for _ in range(e):
                part = ref_mul(target, part, images[name])
        parts.append(part)
    return ref_add(target, *parts)


class TestIntegerCoefficients:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_ring_operations_match_fraction_reference(self, data):
        chart = data.draw(st.sampled_from([MIXED, SOURCE]))
        f, g, h = (data.draw(mixed_poly(chart)) for _ in range(3))
        s = data.draw(coefficient().filter(bool))
        a, b = ref(f), ref(g)
        cases = [(f + g, ref_add(chart, a, b)),
                 (f - g, ref_add(chart, a, ref_scale(chart, b, -1))),
                 (f * g, ref_mul(chart, a, b)),
                 (f * s, ref_scale(chart, a, s)),
                 (s * f, ref_scale(chart, a, s)),
                 (f / s, ref_scale(chart, a, 1 / Fraction(s))),
                 (chart.sum([f, g, h]), ref_add(chart, a, b, ref(h)))]
        cases += [(partial_left(f, name), ref_partial(chart, a, k))
                  for k, name in enumerate(chart.names)]
        m = data.draw(st.sampled_from(enumerate_monomials(chart, 2)))
        cases.append((mul_monomial(f, chart.pack(m), coeff=s),
                       ref_mul(chart, a, {m: Fraction(s)})))
        for got, want in cases:
            assert tuples(got) == want
            assert_canonical(got)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_substitute_matches_fraction_reference(self, data):
        f = data.draw(mixed_poly(SOURCE))
        images = {v.name: data.draw(mixed_poly(TARGET, degree=v.degree))
                  for v in SOURCE.vars}
        got = substitute(f, images, TARGET)
        assert tuples(got) == ref_substitute(
            f, {n: ref(p) for n, p in images.items()}, TARGET)
        assert_canonical(got)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_accumulators_match_fraction_reference(self, data):
        # into a dict that already holds terms, among them the negated
        # product or sum, so that whole terms cancel; the scale may be 0.
        # mul_into loops over the operand with fewer terms: lopsided
        # operands take each orientation
        chart = data.draw(st.sampled_from([MIXED, SOURCE]))
        f, g = data.draw(st.one_of(
            st.tuples(mixed_poly(chart), mixed_poly(chart)),
            st.tuples(sized_poly(chart, 1), sized_poly(chart, 4)),
            st.tuples(sized_poly(chart, 4), sized_poly(chart, 1))))
        h = data.draw(mixed_poly(chart))
        s = data.draw(coefficient())
        a, b = ref(f), ref(g)
        start = data.draw(st.sampled_from(
            [ref(h), ref_scale(chart, ref_mul(chart, a, b), -s),
             ref_scale(chart, a, -s), {}]))
        for kernel, operands, want in (
                (mul_into, (f, g), ref_mul(chart, a, b)),
                (add_into, (f,), a)):
            acc = {chart.pack(m): _canonical(c) for m, c in start.items()}
            kernel(acc, *operands, s)
            got = GPoly._raw(chart, acc)
            assert tuples(got) == ref_add(chart, start,
                                          ref_scale(chart, want, s))
            assert_canonical(got)
            assert 0 not in acc.values()
        # the operands are never mutated
        assert (ref(f), ref(g)) == (a, b)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_insert_into_is_prefix_times_p_times_rest(self, data):
        # at each variable v_i of m, m = prefix * v_i * rest; inserting p
        # there is the product of the three, which never has to reorder
        # prefix or rest against each other
        chart = data.draw(st.sampled_from([MIXED, SOURCE]))
        m = data.draw(exponent_tuple(chart))
        p = data.draw(mixed_poly(chart))
        s = data.draw(coefficient().filter(bool))
        walk = splits(chart, chart.pack(m))
        assert [(i, e) for _, i, e, *_ in walk] == \
            [(i, e) for i, e in enumerate(m) if e]
        for at, i, e, split, before, after in walk:
            assert at == chart.exp_masks[i] << chart.shifts[i]
            prefix = tuple(m[j] if j < i else 0 for j in range(len(m)))
            rest = tuple(0 if j < i else m[j] - (j == i)
                         for j in range(len(m)))
            assert (before, after) == tuple(
                sum(x for x, par in zip(part, chart.parities) if par) % 2
                for part in (prefix, rest))
            acc = {}
            insert_into(acc, p, split, s)
            want = ref_mul(chart, ref_mul(chart, {prefix: Fraction(s)},
                                          ref(p)), {rest: Fraction(1)})
            assert tuples(GPoly._raw(chart, acc)) == want
            assert_canonical(GPoly._raw(chart, acc))

    def test_halves_pair_up_to_int(self):
        half = poly("1/2 * x + 1/2 * xi1 * xi2")
        for total in (MIXED.sum([half, half]), half + half, half - (-half),
                      half * 2, half * poly("2"), half / Fraction(1, 2),
                      partial_left(poly("1/2 * x^2"), "x")):
            assert_canonical(total)
            assert all(type(c) is int for c in total.terms.values())

    def test_constructors_store_ints(self):
        for p in (GPoly(MIXED, {MIXED.pack((1, 0, 0)): Fraction(4, 2)}),
                  MIXED.const(Fraction(6, 3)), MIXED.var_poly("x"),
                  poly("4/2 * x")):
            assert [type(c) for c in p.terms.values()] == [int]


def _canonical(c):
    return c.numerator if c.denominator == 1 else c


# packed keys against the tuple kernel they replaced, kept here as the
# reference: a product of keys is their sum, an odd square is a shared odd
# bit, the sign is the parity of the odd crossings, and the cap is a shift


def _merge_exps(e1, e2, parities):
    """Multiply two normal-ordered exponent tuples.

    Returns (sign, merged) or None when an odd square appears.
    """
    sgn = 0
    prefix = 0  # odd exponents of e2 strictly below the current position
    out = []
    for i, p in enumerate(parities):
        a, b = e1[i], e2[i]
        if p:
            if a and b:
                return None
            if a:
                sgn += prefix
            if b:
                prefix += 1
        out.append(a + b)
    return (-1 if sgn % 2 else 1), tuple(out)


def _weight(chart, exps):
    return sum(e * w for e, w in zip(exps, chart.weights))


# a chart of every kind but the formal parameter, one with a formal-parameter
# field between the others, and one of 50 variables (the size of the gl(5)
# chart) with parities interleaved
PACKED_CHARTS = [
    Chart([("x", 0), ("xi1", 1, "fiber"), ("y", 0), ("xi2", 1, "fiber"),
           ("x*", 2, "momentum-base"), ("xi1*", 1, "momentum-fiber")]),
    Chart([("x", 0), ("xi1", 1, "fiber"), ("hbar", 2, "formal-parameter"),
           ("xi2", 1, "fiber"), ("xi1*", 1, "momentum-fiber")]),
    Chart([(f"v{i}", (0, 1, 2, 1, 1)[i % 5],
            ("base", "fiber", "momentum-base", "momentum-fiber",
             "fiber")[i % 5]) for i in range(50)]),
]


@st.composite
def exponent_tuple(draw, chart):
    return tuple(draw(st.sampled_from((0, 0, 1) if p else (0, 0, 1, 2, 7)))
                 for p in chart.parities)


class TestPackedKeys:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_product_sign_and_odd_square(self, data):
        chart = data.draw(st.sampled_from(PACKED_CHARTS))
        e1 = data.draw(exponent_tuple(chart))
        e2 = data.draw(exponent_tuple(chart))
        k1, k2 = chart.pack(e1), chart.pack(e2)
        assert (chart.unpack(k1), chart.unpack(k2)) == (e1, e2)
        assert k1 >> chart.wshift == _weight(chart, e1)
        merged = _merge_exps(e1, e2, chart.parities)
        assert (merged is None) == bool(k1 & k2 & chart.odd_bits)
        want = {}
        if merged is not None:
            sign, exps = merged
            assert k1 + k2 == chart.pack(exps)
            want = {exps: sign}
        p1, p2 = GPoly(chart, {k1: 1}), GPoly(chart, {k2: 1})
        for got in (p1 * p2, mul_monomial(p1, k2),
                    mul_monomial(p2, k1, left=True)):
            assert tuples(got) == want

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_partial_left(self, data):
        chart = data.draw(st.sampled_from(PACKED_CHARTS))
        e = data.draw(exponent_tuple(chart))
        f = GPoly(chart, {chart.pack(e): 3})
        for k, name in enumerate(chart.names):
            want = {}
            if e[k]:
                odd_before = sum(e[j] for j in range(k) if chart.parities[j])
                sign = -1 if chart.parities[k] and odd_before % 2 else 1
                want = {e[:k] + (e[k] - 1,) + e[k + 1:]: sign * 3 * e[k]}
            assert tuples(partial_left(f, name)) == want

    def test_pack_validates_exponents(self):
        with pytest.raises(ValueError, match="length"):
            ODD2.pack((1,))
        with pytest.raises(ValueError, match="length"):
            ODD2.pack((1, 0, 0))
        with pytest.raises(ValueError, match="negative"):
            MIXED.pack((-1, 0, 0))
        with pytest.raises(OddSquare):
            ODD2.pack((0, 2))
        with pytest.raises(ExponentOverflow):
            MIXED.pack((MAX_EXPONENT + 1, 0, 0))
        top = (MAX_EXPONENT, 1, 1)
        assert MIXED.unpack(MIXED.pack(top)) == top
        with pytest.raises(OddSquare):
            Monomial(ODD2, (0, 2))
        with pytest.raises(ValueError):
            Monomial(ODD2, (1,))

    def test_polynomials_take_packed_keys_only(self):
        with pytest.raises(TypeError):
            GPoly(ODD2, {(0, 2): 1})
        with pytest.raises(TypeError):
            GPoly(ODD2, {(1,): 1})

    def test_carry_into_a_guard_bit_raises(self):
        # the guard bit above x catches the carry: xi1 above it is untouched
        # by a wrap, and the product raises instead
        top = GPoly(MIXED, {MIXED.pack((MAX_EXPONENT, 1, 0)): 1})
        x = MIXED.var_poly("x")
        with pytest.raises(ExponentOverflow, match="'x'"):
            top * x
        with pytest.raises(ExponentOverflow, match="'x'"):
            mul_monomial(top, MIXED.pack((1, 0, 1)), left=True)
        half = GPoly(MIXED, {MIXED.pack((MAX_EXPONENT // 2 + 1, 0, 0)): 1})
        with pytest.raises(ExponentOverflow):
            half * half
        assert (top * MIXED.var_poly("xi2")).terms == \
            {MIXED.pack((MAX_EXPONENT, 1, 1)): 1}
        # a product loops over the operand with fewer terms and places the
        # other beside each of its terms: a 2-term operand on either side
        pair = top + MIXED.var_poly("xi2")
        for product in (lambda: pair * x, lambda: x * pair):
            with pytest.raises(ExponentOverflow, match="'x'"):
                product()
        # on either side, a shared odd variable still gives zero
        assert pair * poly("xi1") == poly("-xi1 * xi2")
        assert poly("xi1") * pair == poly("xi1 * xi2")


def apply_by_sum(comps, f):
    """Q = sum_v Q^v d_v as its first implementation, kept as a reference:
    one product per component, summed once."""
    parts = []
    for name, q in comps.items():
        if q:
            deriv = partial_left(f, name)
            if deriv:
                parts.append(q * deriv)
    return f.chart.sum(parts)


class TestVectorFields:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_apply_matches_the_sum_of_products(self, data):
        chart = data.draw(st.sampled_from([MIXED, SOURCE]))
        comps = {name: data.draw(mixed_poly(chart))
                 for name in data.draw(st.lists(st.sampled_from(chart.names),
                                                unique=True))}
        f = data.draw(mixed_poly(chart))
        got = apply_vector_field(comps, f)
        assert got == apply_by_sum(comps, f)
        assert_canonical(got)

    def test_commutator_classical(self):
        line = Chart([("x", 0)])
        q1 = {"x": line.one()}
        q2 = {"x": line.var_poly("x")}
        assert vector_field_commutator(line, q1, q2) == {"x": line.one()}

    def test_apply(self):
        line = Chart([("x", 0)])
        q = {"x": pe("x^2", line)}
        assert apply_vector_field(q, pe("x", line)) == pe("x^2", line)


class TestRendering:
    def test_examples(self):
        assert render_poly(poly("0")) == "0"
        assert render_poly(poly("x^2 - 1/2 * xi1 * xi2")) == \
            "x^2 - 1/2 * xi1 * xi2"
        assert render_poly(poly("-x")) == "-x"
        assert render_poly(MIXED.const(3)) == "3"

    def test_round_trip_through_grammar(self):
        rng = random.Random(11)
        for _ in range(40):
            f = random_poly(MIXED, rng, max_weight=3, max_base_degree=2)
            assert pe(render_poly(f), MIXED) == f
