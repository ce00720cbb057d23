import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (BIALGEBROID_FAILING, BIALGEBROID_PASSING, LINE, PLANE,
                    POINT, abelian, act_twice, classification,
                    dual_tangent_type, failures, koszul_linear, random_poly,
                    restrict_to, split_by, two_dim_algebra,
                    two_dim_triangular_pair)
from test_algebroid import _graded_spec, _graded_structure

from algebroids.algebroid import (AlgebroidSpec, ce_differential,
                                  check_algebroid, hamiltonian_of_algebroid,
                                  koszul_algebroid, tangent_spec)
from algebroids.bialgebroid import (BialgebroidSpec, FullMorphism, HBAR,
                                    assemble_hamiltonian, base_chart,
                                    big_bracket,
                                    check_bialgebroid, check_linfty,
                                    embed_semistrict, hamiltonian_action,
                                    legendre_quadratic_check,
                                    linfty_morphism_check,
                                    semistrict_morphism_check, taylor,
                                    with_formal_parameter)
from algebroids.errors import (ChartMismatch, DegreeError, DegreeMismatch,
                               TruncationIncomplete)
from algebroids.expr import parse_expression as pe
from algebroids.gpoly import (KIND_MOMENTUM_BASE, MOMENTUM_KINDS, Chart,
                              GPoly, enumerate_monomials, inject, mul_monomial,
                              partial_left, substitute)
from algebroids.symplectic import (Hamiltonian, PolyMap, canonical_bracket,
                                   is_integrable, shifted_cotangent)


class TestBialgebroidSpec:
    def test_name_discipline(self):
        primal = two_dim_algebra()
        with pytest.raises(DegreeError):
            BialgebroidSpec(primal, AlgebroidSpec(
                POINT, [("eta1", 0), ("eta2", 0)], {}, {}))

    def test_degree_discipline(self):
        primal = two_dim_algebra()
        with pytest.raises(DegreeError):
            # |p| = 2 - |q| forces opposite section degrees on the dual
            BialgebroidSpec(primal, AlgebroidSpec(
                POINT, [("xi1*", 2), ("xi2*", 2)], {}, {}))


class TestAssemble:
    def test_poisson_display(self):
        primal = koszul_linear()
        b = BialgebroidSpec(primal, dual_tangent_type(primal))
        chi = assemble_hamiltonian(b)
        expected = pe(
            "x1* * xi1* + x2* * xi2* + x1 * xi2 * x1* - x1 * xi1 * x2* "
            "+ xi1 * xi2 * xi1*", b.chart.chart)
        assert chi.body == expected

    def test_both_abelian(self):
        primal = abelian()
        dual = AlgebroidSpec(POINT, [("xi1*", 0), ("xi2*", 0)], {}, {})
        chi = assemble_hamiltonian(BialgebroidSpec(primal, dual))
        assert chi.body.is_zero()

    def test_abelian_dual_gives_primal_hamiltonian(self):
        b = BIALGEBROID_PASSING["two-dim-abelian-dual"]()
        chi = assemble_hamiltonian(b)
        assert chi.body == hamiltonian_of_algebroid(b.primal).body
        mom = classification(chi)[1]
        assert mom == frozenset({1})


class TestCheckBialgebroid:
    def test_passing_corpus(self):
        for name, build in BIALGEBROID_PASSING.items():
            report = check_bialgebroid(build())
            assert report.passed, f"{name} unexpectedly failed"

    def test_failing_corpus_consistent_verdicts(self):
        for name, build in BIALGEBROID_FAILING.items():
            report = check_bialgebroid(build())
            assert not report.passed, f"{name} unexpectedly passed"
            routes = next(r for r in report.records if r.name == "routes-agree")
            assert routes.passed
            chi_rec = next(r for r in report.records if r.name == "chi-squared")
            compat = [r for r in report.records
                      if r.name.startswith("compatibility")]
            assert not chi_rec.passed
            assert any(not r.passed for r in compat)

    def test_perturbed_cobracket_residuals_nonzero(self):
        report = check_bialgebroid(BIALGEBROID_FAILING["heisenberg-bad-cobracket"]())
        bad = [r for r in failures(report) if r.residual]
        assert bad

    def test_linfty_check_agrees_with_pair_check(self):
        for name, build in {**BIALGEBROID_PASSING,
                            **BIALGEBROID_FAILING}.items():
            pair = build()
            chi = assemble_hamiltonian(pair)
            assert check_linfty(chi).passed == check_bialgebroid(pair).passed, \
                name


def _rescaled_bracket(spec, s):
    """`spec` with every structure function times s."""
    names = spec.fiber_names
    anchor = {(names[a], v.name): p for a, row in enumerate(spec.anchor)
              for v, p in zip(spec.base.vars, row) if p}
    bracket = {(names[a], names[b], names[c]): s * p
               for (a, b), row in spec.structure.items() if a <= b
               for c, p in row.items()}
    return AlgebroidSpec(spec.base, list(zip(names, spec.fiber_degrees)),
                         anchor, bracket)


def _drawn_pair(rng, kind):
    """A bialgebroid pair: the Koszul algebroid of a drawn bivector on the
    plane with its tangent-type dual ("koszul"); the same with a bivector
    x1^i x2^j of positive degree and its structure functions rescaled, so
    that the anchor is not a bracket morphism ("broken"); or two graded
    structures drawn without regard to any identity ("graded")."""
    if kind == "graded":
        primal = _graded_spec(rng)
        dual = _graded_structure(rng, primal.base, [
            (n, -d) for n, d in zip(primal.starred_names(),
                                    primal.fiber_degrees)])
        return BialgebroidSpec(primal, dual)
    if kind == "koszul":
        pi = random_poly(PLANE, rng, 0, 2, 3) + PLANE.const(rng.randint(-2, 2))
        primal = koszul_algebroid(PLANE, {(0, 1): pi})
        return BialgebroidSpec(primal, dual_tangent_type(primal))
    i, j = rng.choice([(1, 0), (0, 1), (1, 1), (2, 0), (1, 2)])
    pi = rng.choice([-2, -1, 1, 3]) * pe(f"x1^{i} * x2^{j}", PLANE)
    primal = _rescaled_bracket(koszul_algebroid(PLANE, {(0, 1): pi}),
                               rng.choice([-1, 2, 3, Fraction(1, 2)]))
    return BialgebroidSpec(primal, dual_tangent_type(primal))


class TestBidegreeReadOff:
    # x (0,0), xi (1,0), xi* (0,1), x* (1,1) and a bracket of bidegree
    # (-1,-1): mu is (2,1), L*(mu_dual) is (1,2), and the part (3,1) of
    # {chi, chi}, its terms of momentum weight one, is {mu, mu}
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["koszul", "graded", "broken"]))
    def test_momentum_weight_one_part_is_mu_squared(self, seed, kind):
        b = _drawn_pair(random.Random(seed), kind)
        sc = b.chart
        chi_squared, _ = is_integrable(assemble_hamiltonian(b))
        mu_squared, mu_ok = is_integrable(
            hamiltonian_of_algebroid(b.primal, sc))
        assert chi_squared.component(
            lambda m: sum(m[sc.npairs:]) == 1) == mu_squared
        if kind == "broken":
            assert not mu_ok
        # the record that reads {mu, mu} off {chi, chi} gives the primal
        # check's own verdict
        primal = next(r for r in check_bialgebroid(b).records
                      if r.name == "primal-structure")
        assert primal.passed == check_algebroid(b.primal).passed


class TestLegendreQuadratic:
    def test_corpus(self):
        for name, build in BIALGEBROID_PASSING.items():
            assert legendre_quadratic_check(build()).passed, name

    def test_polynomial_anchor_dual(self):
        primal = AlgebroidSpec(LINE, [("xi1", 0)], {}, {})
        dual = AlgebroidSpec(LINE, [("xi1*", 0)], {("xi1*", "x"): "x"}, {})
        b = BialgebroidSpec(primal, dual)
        assert legendre_quadratic_check(b).passed
        chi = assemble_hamiltonian(b)
        assert chi.body == pe("x * x* * xi1*", b.chart.chart)

    def test_abelian_zero(self):
        primal = abelian()
        dual = AlgebroidSpec(POINT, [("xi1*", 0), ("xi2*", 0)], {}, {})
        assert legendre_quadratic_check(BialgebroidSpec(primal, dual)).passed


class TestCheckLinfty:
    def test_assembled_structures_pass(self):
        for name, build in BIALGEBROID_PASSING.items():
            chi = assemble_hamiltonian(build())
            assert check_linfty(chi).passed, name

    def test_momentum_only_term_fails_base_restriction(self):
        sc = shifted_cotangent(Chart([("x", 0), ("xi", 1, "fiber")]), 2)
        # a momentum monomial with no fiber direction at all
        bad = Hamiltonian(sc, pe("x * x*", sc.chart))
        report = check_linfty(bad)
        failing = {r.name for r in failures(report)}
        assert "vanish-over-base" in failing
        assert "degree-three" in failing

    def test_cocycle_dependence(self):
        good = assemble_hamiltonian(two_dim_triangular_pair())
        assert check_linfty(good).passed
        bad = assemble_hamiltonian(BIALGEBROID_FAILING["heisenberg-bad-cobracket"]())
        report = check_linfty(bad)
        integ = next(r for r in report.records if r.name == "integrable")
        assert not integ.passed


class TestHamiltonianAction:
    def test_de_rham(self):
        spec = tangent_spec(LINE)
        mu = hamiltonian_of_algebroid(spec)
        ce = spec.ce_chart()
        assert hamiltonian_action(mu, pe("x^2", ce)) == \
            {0: pe("2 * x * dx", ce)}

    def test_weight_two_regression(self):
        # frozen module convention: the second-order part acts with the
        # normal-ordered composition of left derivatives
        pt = Chart([("xi1", 1, "fiber"), ("xi2", 1, "fiber")])
        sc = shifted_cotangent(pt, 2)
        chi = Hamiltonian(sc, pe("xi1* * xi2* * xi1", sc.chart))
        assert hamiltonian_action(chi, pe("xi1 * xi2", pt)) == \
            {1: pe("-xi1", pt)}
        assert hamiltonian_action(chi, pe("xi1", pt)) == {}

    def test_constant_argument(self):
        chi = assemble_hamiltonian(BIALGEBROID_PASSING["poisson-linear"]())
        ce = chi.chart.base_chart
        assert hamiltonian_action(chi, ce.one()) == {}

    def test_degree_shift(self):
        rng = random.Random(47)
        chi = assemble_hamiltonian(BIALGEBROID_PASSING["poisson-linear"]())
        ce = Chart([(v.name, v.degree, v.kind)
                    for v in chi.chart.base_chart.vars])
        for _ in range(20):
            g = random_poly(ce, rng, 3, 2, 2, homogeneous=True)
            if g.is_zero():
                continue
            # hbar has degree 2: coefficient k has degree |g| + 1 - 2k
            for k, coeff in hamiltonian_action(chi, g).items():
                assert coeff.is_homogeneous(g.degree() + 1 - 2 * k)

    def test_vanishes_at_base_for_strict_fiber_hamiltonians(self):
        # when every monomial carries a plain fiber coordinate, the image
        # vanishes along the zero section
        spec = two_dim_algebra()
        mu = hamiltonian_of_algebroid(spec)
        ce = spec.ce_chart()
        rng = random.Random(53)
        nfib = [i for i, v in enumerate(ce.vars) if v.kind == "fiber"]
        for _ in range(10):
            g = random_poly(ce, rng, 3, 0, 3)
            out = hamiltonian_action(Hamiltonian(mu.chart, mu.body), g)
            for coeff in out.values():
                at_base = coeff.component(
                    lambda m: not any(m[i] for i in nfib))
                assert at_base.is_zero()

    def test_k1_term_matches_bracket(self):
        rng = random.Random(59)
        chi = assemble_hamiltonian(BIALGEBROID_PASSING["poisson-linear"]())
        sc = chi.chart
        ce = Chart([(v.name, v.degree, v.kind) for v in sc.base_chart.vars])
        for _ in range(15):
            g = random_poly(ce, rng, 2, 2, 2)
            k1 = hamiltonian_action(chi, g).get(0, ce.zero())
            br = canonical_bracket(chi.body, inject(g, sc.chart), sc)
            br0 = br.component(lambda m: not any(m[sc.npairs:]))
            assert k1 == restrict_to(br0, ce)


def action_by_derivatives(ham, g):
    """The operator action by a chain of `partial_left` calls per momentum
    word, kept as a reference: the terms of the body that share a word
    p_{j1}...p_{jk} share d_{j1} ... d_{jk} g (d_{jk} taken first), which
    their sum U_w multiplies at hbar^{k-1}."""
    sc = ham.chart
    ce = sc.base_chart
    words = {}
    for key, coeff in ham.body.terms.items():
        mono = sc.chart.unpack(key)
        word = mono[sc.npairs:]
        if any(word):
            words.setdefault(word, []).append(
                GPoly(ce, {ce.pack(mono[:sc.npairs]): coeff}))
    by_power = {}
    for word, us in words.items():
        deriv = g
        for j in reversed(range(sc.npairs)):
            for _ in range(word[j]):
                deriv = partial_left(deriv, ce.names[j])
        by_power.setdefault(sum(word) - 1, []).append(ce.sum(us) * deriv)
    series = {k: ce.sum(parts) for k, parts in by_power.items()}
    return {k: p for k, p in series.items() if p}


def action_by_shifts(ham, g):
    """The operator action as its previous implementation, kept as a
    reference: d_w of each monomial of g by the `left_step`s of the word,
    U_w times it as one `mul_monomial` per monomial, and one sum per power
    of hbar."""
    ce = ham.chart.base_chart
    by_power = {}
    for power, steps, u in ham._word_split:
        parts = by_power.setdefault(power, [])
        for m, c in g.terms.items():
            for unit, shift, mask, below in steps:
                e = (m >> shift) & mask
                if not e:
                    break
                c = -c * e if (m & below).bit_count() & 1 else c * e
                m -= unit
            else:
                parts.append(mul_monomial(u, m, coeff=c))
    series = {k: ce.sum(parts) for k, parts in sorted(by_power.items())}
    return {k: coeff for k, coeff in series.items() if coeff}


def action_by_injection(sc, body, g):
    """The operator action by its first implementation, kept as a reference:
    each term built on the V[1] chart, injected next to hbar, multiplied by
    hbar ** (k - 1), and the sum split by the power of hbar into the series
    {k: coefficient on the V[1] chart}."""
    ce = sc.base_chart
    out_chart = with_formal_parameter(ce)
    hb = out_chart.var_poly(HBAR)
    terms = []
    for key, coeff in body.terms.items():
        mono = sc.chart.unpack(key)
        k = sum(mono[sc.npairs:])
        if k == 0:
            continue
        deriv = g
        for j in reversed(range(sc.npairs)):
            for _ in range(mono[sc.npairs + j]):
                deriv = partial_left(deriv, ce.names[j])
        u = GPoly(ce, {ce.pack(mono[:sc.npairs]): coeff})
        terms.append(inject(u * deriv, out_chart) * hb ** (k - 1))
    out = out_chart.sum(terms)
    hb_idx = out_chart.index_of(HBAR)
    return {power: GPoly(ce, {ce.pack(out_chart.unpack(m)[:hb_idx]): c
                              for m, c in piece.terms.items()})
            for power, piece in split_by(out, lambda m: m[hb_idx]).items()}


class TestActionKernel:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_injection_route(self, seed):
        rng = random.Random(seed)
        ce = Chart([("x", 0), ("xi1", 1, "fiber"), ("xi2", 1, "fiber")])
        sc = shifted_cotangent(ce, 2)
        body = random_poly(sc.chart, rng, max_weight=4, max_base_degree=2,
                           max_terms=6)
        g = random_poly(ce, rng, max_weight=3, max_base_degree=2, max_terms=4)
        assert hamiltonian_action(Hamiltonian(sc, body), g) == \
            action_by_injection(sc, body, g)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_one_hamiltonian_many_arguments(self, seed):
        # one Hamiltonian object acts on several arguments in a row, and
        # several terms share each momentum word
        rng = random.Random(seed)
        ce = Chart([("x", 0), ("xi1", 1, "fiber"), ("xi2", 1, "fiber")])
        sc = shifted_cotangent(ce, 2)
        words = ["x*", "xi1*", "x* * xi2*", "xi1* * xi2*", "x*^2 * xi1*"]
        body = sc.chart.sum(
            [inject(random_poly(ce, rng, max_weight=2, max_base_degree=2,
                                max_terms=4), sc.chart) * pe(w, sc.chart)
             for w in rng.sample(words, 3)]
            + [random_poly(sc.chart, rng, max_weight=4, max_terms=3)])
        ham = Hamiltonian(sc, body)
        for _ in range(4):
            g = random_poly(ce, rng, max_weight=3, max_base_degree=2,
                            max_terms=4)
            assert hamiltonian_action(ham, g) == \
                action_by_injection(sc, body, g)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_derivative_chain(self, seed):
        # odd base and fiber coordinates, an even fiber of degree 2,
        # Fraction coefficients on both sides, several terms in g
        rng = random.Random(seed)
        ce = Chart([("x", 0), ("y", 1), ("xi1", 1, "fiber"),
                    ("xi2", 1, "fiber"), ("c", 2, "fiber")])
        sc = shifted_cotangent(ce, 2)
        ham = Hamiltonian(sc, random_poly(sc.chart, rng, max_weight=3,
                                          max_base_degree=2, max_terms=8))
        g = random_poly(ce, rng, max_weight=3, max_base_degree=2,
                        max_terms=6)
        got = hamiltonian_action(ham, g)
        assert got == action_by_derivatives(ham, g)
        assert got == action_by_shifts(ham, g)
        # canonical coefficients: an int whenever the value is integral
        assert all(c.__class__ is int or c.denominator != 1
                   for coeff in got.values() for c in coeff.terms.values())

    def test_split_is_built_once_per_hamiltonian(self):
        # a Hamiltonian is frozen, so the split it keeps cannot go stale:
        # the first action builds it, every later argument reuses it, and a
        # new body is a new Hamiltonian with its own split
        ce = Chart([("x", 0), ("xi1", 1, "fiber"), ("xi2", 1, "fiber")])
        sc = shifted_cotangent(ce, 2)
        first = pe("x * xi1* + xi2 * xi1* + 2 * x^2 * xi1* + xi1* * xi2*",
                   sc.chart)
        second = pe("xi1 * xi1* * xi2* - 3 * x * xi1* * xi2* + x*", sc.chart)
        args = [pe("x^2 * xi1 * xi2 + x * xi1", ce), pe("xi2", ce),
                pe("x^3", ce)]
        ham = Hamiltonian(sc, first)
        assert "_word_split" not in vars(ham)
        assert hamiltonian_action(ham, args[0]) == \
            action_by_injection(sc, first, args[0])
        split = vars(ham)["_word_split"]
        for g in args[1:]:
            assert hamiltonian_action(ham, g) == \
                action_by_injection(sc, first, g)
            assert vars(ham)["_word_split"] is split
        with pytest.raises(dataclasses.FrozenInstanceError):
            ham.body = second
        replaced = dataclasses.replace(ham, body=second)
        assert "_word_split" not in vars(replaced)
        assert replaced != ham
        for g in args:
            assert hamiltonian_action(replaced, g) == \
                action_by_injection(sc, second, g)
        assert vars(replaced)["_word_split"] is not split
        assert vars(ham)["_word_split"] is split
        # the split is no field: it leaves equality and repr alone
        assert Hamiltonian(sc, first) == ham
        assert repr(Hamiltonian(sc, first)) == repr(ham)

    def test_hbar_name_is_reserved(self):
        with pytest.raises(ChartMismatch):
            with_formal_parameter(Chart([("hbar", 0)]))


class TestNilpotency:
    SAFE = ["poisson-zero", "poisson-constant", "two-dim-abelian-dual"]

    def test_divergence_free_corpus(self):
        rng = random.Random(61)
        for name in self.SAFE:
            chi = assemble_hamiltonian(BIALGEBROID_PASSING[name]())
            ce = Chart([(v.name, v.degree, v.kind)
                        for v in chi.chart.base_chart.vars])
            for _ in range(15):
                g = random_poly(ce, rng, 3, 2, 3)
                assert act_twice(chi, g) == {}, name

    def test_modular_obstruction_regression(self):
        # for a bivector with nonzero divergence the restricted-action
        # composition picks up the modular vector field at first order in
        # the formal parameter even though {chi, chi} = 0; pinned here
        chi = assemble_hamiltonian(BIALGEBROID_PASSING["poisson-linear"]())
        ce = Chart([(v.name, v.degree, v.kind)
                    for v in chi.chart.base_chart.vars])
        g = pe("x1^2 * x2 * xi1 * xi2", ce)
        assert act_twice(chi, g) == {1: pe("-x1^2 * xi1 * xi2", ce)}


class TestTaylor:
    # words are packed keys on the function chart; coefficients live on its
    # base chart, whose keys are the base parts of the function chart's keys
    def test_pure_fiber_word(self):
        ce = two_dim_algebra().ce_chart()
        base = base_chart(ce)
        table = taylor(pe("xi1 * xi2", ce), 3, base)
        (word, coeff), = table.items()
        assert ce.unpack(word) == (1, 1)
        assert coeff == base.one()

    def test_base_function_at_empty_word(self):
        spec = tangent_spec(LINE)
        ce = spec.ce_chart()
        base = base_chart(ce)
        table = taylor(pe("x^2", ce), 2, base)
        (word, coeff), = table.items()
        assert word == 0
        assert coeff == pe("x^2", base)
        assert coeff.terms == pe("x^2", ce).terms

    def test_linearity_and_cap(self):
        ce = tangent_spec(LINE, ["xi1", "xi2"]).ce_chart()
        base = base_chart(ce)
        f = pe("x * xi1", ce)
        g = pe("x^2 * xi1 * xi2 + xi1 * xi2", ce)
        t = taylor(f + g, 3, base)
        assert {ce.unpack(w): c for w, c in t.items()} == {
            (0, 1, 0): pe("x", base), (0, 1, 1): pe("x^2 + 1", base)}
        capped = taylor(f + g, 1, base)
        assert [ce.unpack(w) for w in capped] == [(0, 1, 0)]


IDENTITY_CAP = 3


class TestSemistrictMorphism:
    def _tangent_pair(self):
        src = tangent_spec(LINE, ["xi"])
        tgt = tangent_spec(Chart([("y", 0)]), ["eta"])
        return src, tgt

    def test_square_map_between_tangent_structures(self):
        src, tgt = self._tangent_pair()
        f = PolyMap(src.ce_chart(), tgt.ce_chart(),
                    {"y": pe("x^2", src.ce_chart()),
                     "eta": pe("2 * x * xi", src.ce_chart())})
        rep = semistrict_morphism_check(f, hamiltonian_of_algebroid(src),
                                        hamiltonian_of_algebroid(tgt))
        assert rep.passed

    def test_identity(self):
        for name, build in BIALGEBROID_PASSING.items():
            chi = assemble_hamiltonian(build())
            ce = Chart([(v.name, v.degree, v.kind)
                        for v in chi.chart.base_chart.vars])
            ident = PolyMap(ce, ce, {})
            ham = Hamiltonian(chi.chart, chi.body)
            assert semistrict_morphism_check(ident, ham, ham).passed, name

    def test_perturbed_target_fails(self):
        src, tgt = self._tangent_pair()
        f = PolyMap(src.ce_chart(), tgt.ce_chart(),
                    {"y": pe("x^2", src.ce_chart()),
                     "eta": pe("2 * x * xi", src.ce_chart())})
        mu_t = hamiltonian_of_algebroid(tgt)
        perturbed = Hamiltonian(mu_t.chart,
                                mu_t.body + pe("eta * eta* * y*", mu_t.chart.chart))
        rep = semistrict_morphism_check(f, hamiltonian_of_algebroid(src),
                                        perturbed)
        assert not rep.passed

    def test_composition(self):
        src = tangent_spec(LINE, ["xi"])
        mid = tangent_spec(Chart([("y", 0)]), ["eta"])
        tgt = tangent_spec(Chart([("z", 0)]), ["zeta"])
        f = PolyMap(src.ce_chart(), mid.ce_chart(),
                    {"y": pe("x^2", src.ce_chart()),
                     "eta": pe("2 * x * xi", src.ce_chart())})
        g = PolyMap(mid.ce_chart(), tgt.ce_chart(),
                    {"z": pe("3 * y", mid.ce_chart()),
                     "zeta": pe("3 * eta", mid.ce_chart())})
        mu = [hamiltonian_of_algebroid(s) for s in (src, mid, tgt)]
        assert semistrict_morphism_check(f, mu[0], mu[1]).passed
        assert semistrict_morphism_check(g, mu[1], mu[2]).passed
        assert semistrict_morphism_check(f.then(g), mu[0], mu[2]).passed


class TestFullMorphism:
    def test_identity_table_passes(self):
        chi = assemble_hamiltonian(two_dim_triangular_pair())
        ce = Chart([(v.name, v.degree, v.kind)
                    for v in chi.chart.base_chart.vars])
        table = embed_semistrict(PolyMap(ce, ce, {}), IDENTITY_CAP)
        rep = linfty_morphism_check(table, chi, chi)
        assert rep.passed

    def test_point_strict_isomorphism(self):
        # rescaling an abelian pair is a strict morphism of the structures
        primal = abelian()
        dual = AlgebroidSpec(POINT, [("xi1*", 0), ("xi2*", 0)], {},
                             {("xi1*", "xi2*", "xi1*"): 1})
        chi = assemble_hamiltonian(BialgebroidSpec(primal, dual))
        assert check_linfty(chi).passed
        ce = Chart([(v.name, v.degree, v.kind)
                    for v in chi.chart.base_chart.vars])
        # the cobracket scales quadratically, so an invariant map must fix it
        ident = embed_semistrict(PolyMap(ce, ce, {}), IDENTITY_CAP)
        assert linfty_morphism_check(ident, chi, chi).passed

    def test_identity_fails_between_different_structures(self):
        chi_tri = assemble_hamiltonian(two_dim_triangular_pair())
        chi_ab = assemble_hamiltonian(
            BIALGEBROID_PASSING["two-dim-abelian-dual"]())
        ce = Chart([(v.name, v.degree, v.kind)
                    for v in chi_tri.chart.base_chart.vars])
        table = embed_semistrict(PolyMap(ce, ce, {}), IDENTITY_CAP)
        rep = linfty_morphism_check(table, chi_tri, chi_ab)
        assert not rep.passed

    def test_point_consistency_with_semistrict(self):
        # a semistrict map embedded as a weight-one table gives the same
        # verdict as the Hamiltonian-relation check
        primal = abelian()
        dual = AlgebroidSpec(POINT, [("xi1*", 0), ("xi2*", 0)], {}, {})
        chi = assemble_hamiltonian(BialgebroidSpec(primal, dual))
        ce = Chart([(v.name, v.degree, v.kind)
                    for v in chi.chart.base_chart.vars])
        scale = PolyMap(ce, ce, {"xi1": 2 * ce.var_poly("xi1")})
        ham = Hamiltonian(chi.chart, chi.body)
        semi = semistrict_morphism_check(scale, ham, ham)
        full = linfty_morphism_check(embed_semistrict(scale, IDENTITY_CAP),
                                     chi, chi)
        assert semi.passed == full.passed

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_residual_matches_the_out_chart_route(self, seed):
        # the check compares the coefficients of hbar^k, every power kept,
        # modulo fiber weight above the cap; a record's residual is their
        # difference written out with hbar as a coordinate, cut at weight
        # counted without hbar.  The map c -> c + k * a * b raises weight,
        # so the pulled-back side can exceed the cap.
        rng = random.Random(seed)
        ce = Chart([("a", 1, "fiber"), ("b", 1, "fiber"), ("c", 2, "fiber")])
        sc = shifted_cotangent(ce, 2)
        shear = PolyMap(ce, ce, {"c": pe(f"c + {rng.choice([1, -2])} * a * b",
                                        ce)})
        table = embed_semistrict(shear, 2)
        source, target = (Hamiltonian(sc, random_poly(
            sc.chart, rng, max_weight=4, max_terms=5)) for _ in range(2))
        out = with_formal_parameter(ce)
        hbar = out.var_poly(HBAR)

        def on_out_chart(series):
            return out.sum(inject(p, out) * hbar ** k
                           for k, p in series.items())

        rep = linfty_morphism_check(table, source, target)
        assert len(rep.records) == 7
        for rec in rep.records:
            g = pe(rec.name[len("generator("):-1], ce)
            lhs = hamiltonian_action(source, table.pull_taylor(g))
            rhs = {k: table.pull_taylor(p)
                   for k, p in hamiltonian_action(target, g).items()}
            # a, b, c: each of weight one; hbar, the last, is not counted
            want = (on_out_chart(lhs) - on_out_chart(rhs)).component(
                lambda m: sum(m[:3]) <= 2)
            assert rec.passed == want.is_zero()
            assert rec.residual == (repr(want) if want else None)

    def test_hbar_coordinate_is_refused(self):
        # a failing record writes hbar out next to the source coordinates,
        # and the name stays reserved on the target side too
        hb = Chart([("hbar", 1, "fiber")])
        plain = Chart([("xi", 1, "fiber")])
        ham = {ce: Hamiltonian(shifted_cotangent(ce, 2),
                               shifted_cotangent(ce, 2).chart.zero())
               for ce in (hb, plain)}
        for src, tgt in ((hb, hb), (plain, hb), (hb, plain)):
            table = FullMorphism(src, tgt, {}, {}, 0)
            with pytest.raises(ChartMismatch):
                linfty_morphism_check(table, ham[src], ham[tgt])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_kept_images_match_a_fresh_table(self, seed):
        # one table pulls back many arguments, keeping the image of each
        # monomial; each result equals a fresh table's, and the pullback of
        # the part of g up to the cap
        rng = random.Random(seed)
        ce = Chart([("x", 0), ("a", 1, "fiber"), ("b", 1, "fiber"),
                    ("c", 2, "fiber")])
        k = [rng.choice([-2, -1, 1, 2, Fraction(1, 2)]) for _ in range(4)]
        x, a, b, c = (ce.var_poly(n) for n in ce.names)
        f = PolyMap(ce, ce, {"x": k[0] * x + k[1] * x * x,
                             "a": a + k[2] * x * a, "c": c + k[3] * a * b})
        cap = rng.choice([1, 2, 3])
        table = embed_semistrict(f, cap)
        for _ in range(12):
            g = random_poly(ce, rng, max_weight=4, max_base_degree=2,
                            max_terms=5)
            got = table.pull_taylor(g)
            assert got == embed_semistrict(f, cap).pull_taylor(g)
            # x has weight 0, each fiber coordinate weight 1
            assert got == f.pullback(g.component(
                lambda m: sum(m[1:]) <= cap))

    def test_missing_word_with_a_cancelling_image(self):
        # x1 and x2 both go to t: the coefficient x1 - x2 of the missing
        # word xi pulls back to zero, so nothing is missing, although each
        # of its monomials alone pulls back to t * xi, which needs the word
        target = Chart([("x1", 0), ("x2", 0), ("xi", 1, "fiber")])
        source = Chart([("t", 0), ("eta", 1, "fiber")])
        table = FullMorphism(source, target, {"x1": pe("t", source),
                                              "x2": pe("t", source)}, {}, 1)
        cancelling = pe("x1 * xi - x2 * xi", target)
        assert table.pull_taylor(pe("x1 + x2", target)) == pe("2 * t", source)
        assert table.pull_taylor(cancelling).is_zero()
        for g in ("x1 * xi", "x1 * xi + x2 * xi", "x1 * xi - 2 * x2 * xi"):
            with pytest.raises(TruncationIncomplete):
                table.pull_taylor(pe(g, target))
        assert table.pull_taylor(cancelling).is_zero()

    def test_missing_word_raises(self):
        chi = assemble_hamiltonian(two_dim_triangular_pair())
        ce = Chart([(v.name, v.degree, v.kind)
                    for v in chi.chart.base_chart.vars])
        table = FullMorphism(ce, ce, {},
                             {(1, 0): ce.var_poly("xi1"),
                              (0, 1): ce.var_poly("xi2")}, 2)
        with pytest.raises(TruncationIncomplete):
            linfty_morphism_check(table, chi, chi)


def residual_series(fm, source, target, g):
    """The two sides of the operator identity on the argument g, as in
    `linfty_morphism_check`: {k: nonzero difference at hbar^k}, every power
    kept and each difference cut to fiber weight at most the cap."""
    lhs = hamiltonian_action(source, fm.pull_taylor(g))
    rhs = {k: fm.pull_taylor(c)
           for k, c in hamiltonian_action(target, g).items()}
    zero, weights = fm.source.zero(), fm.source.weights
    diffs = {k: (lhs.get(k, zero) - rhs.get(k, zero)).component(
        lambda m: sum(e * w for e, w in zip(m, weights)) <= fm.cap)
        for k in lhs.keys() | rhs.keys()}
    return {k: d for k, d in diffs.items() if d}


def argument_bound(fm, source, target):
    """r, the most base momenta in one monomial of either body (at least
    1); K, the most momenta of any kind, when a base image has a term of
    positive fiber weight."""
    weights = fm.source.weights
    fibered = any(sum(e * w for e, w in zip(fm.source.unpack(m), weights))
                  for v in fm.base.target.vars
                  for m in fm.base.image_of(v.name).terms)
    kinds = MOMENTUM_KINDS if fibered else (KIND_MOMENTUM_BASE,)
    return max([1] + [h.chart.chart.kind_weight(m, kinds)
                      for h in (source, target) for m in h.body.terms])


def per_exponent_verdict(fm, source, target):
    """The verdict on the argument set before the total-order bound: every
    nonconstant target monomial of weight at most the cap whose each base
    exponent is at most the bound."""
    ce, bound = fm.target, argument_bound(fm, source, target)
    return all(not residual_series(fm, source, target,
                                   GPoly(ce, {ce.pack(m): 1}))
               for m in enumerate_monomials(ce, fm.cap, max_base_degree=bound)
               if any(m))


# V[1] over an even base coordinate of degree 2: its momentum x* has degree
# 0, so one monomial of a degree-3 body can hold any number of them
DEGREE_TWO = Chart([("x", 2), ("xi1", 1, "fiber")])


class TestArgumentSet:
    @settings(max_examples=100, deadline=None)
    @given(a=st.sampled_from([-2, -1, 1, 2, 3]),
           b=st.sampled_from([-2, -1, 1, 2]),
           alpha=st.lists(st.integers(-2, 2), min_size=3, max_size=3),
           beta=st.lists(st.integers(-2, 2), min_size=4, max_size=4),
           perturb=st.one_of(st.none(), st.tuples(st.integers(0, 6),
                                                  st.sampled_from([-1, 1]))),
           top=st.sampled_from([2, 3, 1]), cap=st.integers(1, 3))
    def test_higher_base_degree_adds_no_residual(self, a, b, alpha, beta,
                                                 perturb, top, cap):
        # source body sum_k alpha_k x xi1 x*^k + beta_k x xi1* x*^k for
        # k <= top, and the target body that the table x -> a x,
        # xi1 -> b xi1 maps it to, perhaps with one coefficient moved; r is
        # the largest k present
        sc = shifted_cotangent(DEGREE_TWO, 2)
        src_c = {("xi1", k): c for k, c in enumerate(alpha[:top], 1)}
        src_c.update((("xi1*", k), c) for k, c in enumerate(beta[:top + 1]))
        tgt_c = {(f, k): Fraction(c * a ** (k - 1)) * (b if f == "xi1*"
                                                       else Fraction(1, b))
                 for (f, k), c in src_c.items()}
        if perturb is not None:
            key = sorted(tgt_c)[perturb[0] % len(tgt_c)]
            tgt_c[key] += perturb[1]

        def body(coeffs):
            return sc.chart.sum(
                c * pe(" * ".join(["x", f] + ["x*"] * k), sc.chart)
                for (f, k), c in coeffs.items() if c)

        source, target = Hamiltonian(sc, body(src_c)), Hamiltonian(
            sc, body(tgt_c))
        table = FullMorphism(DEGREE_TWO, DEGREE_TWO,
                             {"x": a * DEGREE_TWO.var_poly("x")},
                             {(0, 1): b * DEGREE_TWO.var_poly("xi1")}, cap)
        r = max([1] + [k for coeffs in (src_c, tgt_c)
                       for (_, k), c in coeffs.items() if c])
        passed = linfty_morphism_check(table, source, target).passed
        assert passed == per_exponent_verdict(table, source, target)
        if not passed:
            return
        for n in (r + 1, r + 2):
            for g in (f"x^{n}", f"x^{n} * xi1"):
                assert not residual_series(table, source, target,
                                           pe(g, DEGREE_TWO)), g


class TestSecondRoute:
    # the squaring map of morphism.alg between the tangent algebroids of two
    # lines, and its cubic neighbours: the semistrict Hamiltonian relation
    # and the embedded table must give one verdict
    @settings(max_examples=40, deadline=None)
    @given(a=st.integers(-2, 2), b=st.integers(-2, 2), c=st.integers(-2, 2),
           slip=st.one_of(st.none(), st.tuples(st.integers(0, 2),
                                               st.sampled_from([-1, 1]))))
    def test_embedded_table_agrees_with_the_relation(self, a, b, c, slip):
        src = tangent_spec(LINE, ["dx"])
        tgt = tangent_spec(Chart([("y", 0)]), ["dy"])
        ce_v, ce_w = src.ce_chart(), tgt.ce_chart()
        jac = {0: a, 1: 2 * b, 2: 3 * c}   # y' = sum jac[j] x^j
        if slip is not None:
            jac[slip[0]] += slip[1]
        f = PolyMap(ce_v, ce_w, {
            "y": pe(f"{a} * x + {b} * x^2 + {c} * x^3", ce_v),
            "dy": pe(" + ".join(f"{k} * x^{j} * dx" for j, k in jac.items()),
                     ce_v)})
        mu_v, mu_w = hamiltonian_of_algebroid(src), hamiltonian_of_algebroid(
            tgt)
        want = semistrict_morphism_check(f, mu_v, mu_w).passed
        for cap in (1, 2, 3):
            table = embed_semistrict(f, cap)
            full = linfty_morphism_check(table, mu_v, mu_w)
            assert full.passed == want, cap
            assert per_exponent_verdict(table, mu_v, mu_w) == want, cap

    def test_zero_image_keeps_its_word(self):
        # a word whose image is zero is still an entry of the table: the
        # check reads it as zero instead of a missing word
        ce = Chart([("xi1", 1, "fiber"), ("xi2", 1, "fiber")])
        sc = shifted_cotangent(ce, 2)
        ham = Hamiltonian(sc, pe("xi1 * xi2 * xi1*", sc.chart))
        f = PolyMap(ce, ce, {"xi2": ce.zero()})
        want = semistrict_morphism_check(f, ham, ham).passed
        assert linfty_morphism_check(embed_semistrict(f, 2), ham,
                                     ham).passed == want


def conjugate_pair(rng, d, two, cross):
    """A linear chart map f and two bodies with (source action) o f* =
    f* o (target action), the target body written down without the check.

    The target V[1] chart has a base coordinate x of degree d (odd for
    d = 1), perhaps a second one y of degree 0, an odd fiber xi and a fiber
    z of degree d; the source chart is the same or, for a cross-chart
    table, a primed copy.  f* sends x -> a x' + c z' (a base image with a
    fiber term when c != 0), y -> a2 y', xi -> b xi', z -> e z'.  For the
    random source body S, the target body is T = (f*)^-1 S f*: S with each
    source coordinate written in target ones (the inverse map) and each
    source momentum as the transposed Jacobian on target momenta (z'* ->
    c x* + e z*).  The substitution is linear with constant coefficients,
    so it keeps normal order and the momentum count of every term."""
    q = "'" if cross else ""

    def chart(p):
        return Chart([("x" + p, d)] + ([("y" + p, 0)] if two else [])
                     + [("xi" + p, 1, "fiber"), ("z" + p, d, "fiber")])

    src, tgt = chart(q), chart("")
    a, a2, b, e = (rng.choice([1, -1, 2, Fraction(1, 2)]) for _ in range(4))
    c = rng.choice([0, 1, -2])
    v = {n: src.var_poly(n) for n in src.names}
    images = {"x": a * v["x" + q] + c * v["z" + q], "xi": b * v["xi" + q],
              "z": e * v["z" + q]}
    ssc, tsc = shifted_cotangent(src, 2), shifted_cotangent(tgt, 2)
    w = {n: tsc.chart.var_poly(n) for n in tsc.chart.names}
    inverse = {"x" + q: (w["x"] - Fraction(c) / e * w["z"]) / a,
               "xi" + q: w["xi"] / b, "z" + q: w["z"] / e,
               f"x{q}*": a * w["x*"], f"xi{q}*": b * w["xi*"],
               f"z{q}*": c * w["x*"] + e * w["z*"]}
    if two:
        images["y"] = a2 * v["y" + q]
        inverse.update({"y" + q: w["y"] / a2, f"y{q}*": a2 * w["y*"]})
    body = random_poly(ssc.chart, rng, max_weight=3, max_base_degree=2,
                       max_terms=4)
    return (PolyMap(src, tgt, images), Hamiltonian(ssc, body),
            Hamiltonian(tsc, substitute(body, inverse, target=tsc.chart)))


class TestArgumentBound:
    # the check takes base parts of total order at most the bound; the
    # reference takes each base exponent up to it
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.sampled_from([0, 1, 2]),
           two=st.booleans(), cross=st.booleans(), cap=st.integers(0, 2),
           slip=st.one_of(st.none(), st.tuples(st.booleans(),
                                               st.sampled_from([-1, 1]))))
    def test_total_order_agrees_with_each_exponent(self, seed, d, two, cross,
                                                   cap, slip):
        rng = random.Random(seed)
        f, source, target = conjugate_pair(rng, d, two, cross)
        table = embed_semistrict(f, cap)
        passed = linfty_morphism_check(table, source, target).passed
        if slip is None:
            # an honest morphism passes under every cap
            assert passed
            return
        # one coefficient moved, on either side: a near miss
        on_source, delta = slip
        ham = source if on_source else target
        moved = Hamiltonian(ham.chart, ham.body + delta * random_poly(
            ham.chart.chart, rng, max_weight=3, max_base_degree=2,
            max_terms=1))
        source, target = (moved, target) if on_source else (source, moved)
        assert linfty_morphism_check(table, source, target).passed == \
            per_exponent_verdict(table, source, target)

    def test_a_top_order_slip_fails_only_at_top_order(self):
        # x1 xi x1* x2* differentiates b twice: only x1 * x2 sees it, an
        # argument of total order r = 2 that each exponent up to 1 also has
        ce = Chart([("x1", 0), ("x2", 0), ("xi", 1, "fiber")])
        sc = shifted_cotangent(ce, 2)
        ham = Hamiltonian(sc, pe("x1 * xi * x1* + xi * x2*", sc.chart))
        slipped = Hamiltonian(sc, ham.body + pe("x1 * xi * x1* * x2*",
                                                sc.chart))
        table = embed_semistrict(PolyMap(ce, ce, {}), 1)
        rep = linfty_morphism_check(table, slipped, ham)
        # words 1, xi times the 6 base parts of total order at most 2
        assert len(rep.records) == 11
        assert [r.name for r in rep.records if not r.passed] == \
            ["generator(x1 * x2)"]

    def test_a_fibered_base_image_raises_the_bound(self):
        # x -> x + z: a fiber momentum differentiates f*(b), so z*^2 on the
        # source differentiates b twice although no body has a base
        # momentum; only x^2 (total order K = 2 > r = 1) sees it at cap 0
        ce = Chart([("x", 0), ("z", 0, "fiber")])
        sc = shifted_cotangent(ce, 2)
        shift = embed_semistrict(PolyMap(ce, ce, {"x": pe("x + z", ce)}), 0)
        zero = Hamiltonian(sc, sc.chart.zero())
        rep = linfty_morphism_check(shift, Hamiltonian(sc, pe("z* * z*",
                                                              sc.chart)),
                                    zero)
        assert [(r.name, r.residual) for r in rep.records] == \
            [("generator(x)", None), ("generator(x^2)", "2 * hbar")]
        # z*^2 on the source is (z* + x*)^2 on the target
        for cap in (0, 1, 2):
            table = embed_semistrict(PolyMap(ce, ce, {"x": pe("x + z", ce)}),
                                     cap)
            assert linfty_morphism_check(
                table, Hamiltonian(sc, pe("z* * z*", sc.chart)),
                Hamiltonian(sc, pe("(z* + x*)^2", sc.chart))).passed

    def test_a_residual_at_the_cap_is_kept(self):
        # the draw that rules out cutting at weight counted with hbar: the
        # residual 8 * x * xi1 * hbar has fiber weight 1, at the cap
        table = FullMorphism(DEGREE_TWO, DEGREE_TWO,
                             {"x": -2 * DEGREE_TWO.var_poly("x")},
                             {(0, 1): -2 * DEGREE_TWO.var_poly("xi1")}, 1)
        sc = shifted_cotangent(DEGREE_TWO, 2)
        rep = linfty_morphism_check(
            table, Hamiltonian(sc, sc.chart.zero()),
            Hamiltonian(sc, pe("-x * xi1 * x* * x*", sc.chart)))
        assert [(r.name, r.residual) for r in rep.records if not r.passed] \
            == [("generator(x^2)", "8 * x * xi1 * hbar")]

    def test_a_weight_lowering_word_is_refused(self):
        # a b has weight 2 and c weight 1: words above the cap would reach
        # weights the comparison keeps
        ce = Chart([("a", 1, "fiber"), ("b", 1, "fiber"), ("c", 2, "fiber")])
        with pytest.raises(DegreeMismatch):
            FullMorphism(ce, ce, {}, {(1, 1, 0): ce.var_poly("c")}, 2)
        FullMorphism(ce, ce, {}, {(0, 0, 1): pe("c + a * b", ce)}, 2)


class TestBigBracket:
    def test_canonical_pairing(self):
        pt = Chart([("xi1", 1, "fiber"), ("xi2", 1, "fiber")])
        sc = shifted_cotangent(pt, 2)
        assert big_bracket(pe("xi1*", sc.chart), pe("xi1", sc.chart), sc) \
            == sc.chart.one()
        assert big_bracket(pe("xi1*", sc.chart), pe("xi2", sc.chart), sc) \
            .is_zero()

    def test_pure_bracket_part_integrable(self):
        pt = Chart([("xi1", 1, "fiber"), ("xi2", 1, "fiber")])
        sc = shifted_cotangent(pt, 2)
        chi = pe("xi1 * xi2 * xi1*", sc.chart)
        assert big_bracket(chi, chi, sc).is_zero()

    def test_triangular_mixed_hamiltonian_integrable(self):
        chi = assemble_hamiltonian(two_dim_triangular_pair())
        assert big_bracket(chi.body, chi.body, chi.chart).is_zero()

    def test_rejects_base_directions(self):
        sc = shifted_cotangent(Chart([("x", 0), ("xi", 1, "fiber")]), 2)
        with pytest.raises(ChartMismatch):
            big_bracket(sc.chart.one(), sc.chart.one(), sc)
