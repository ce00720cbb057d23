"""Bialgebroid Hamiltonians, Taylor tables, and morphism checking.

A compatible pair of algebroid structures on a bundle and its dual is
encoded by the degree-three Hamiltonian chi = mu + L*(mu_dual) on T*[2]V[1],
where L is the Legendre exchange onto the dual-side chart; {chi, chi} = 0 is
the compatibility condition, cross-checked against the derivation identity
d([X,Y]) = [dX, Y] + [X, dY] on generator pairs.

The morphism checks compare the operator action of two Hamiltonians
(`symplectic.hamiltonian_action`, imported here under its own name) power
by power in the formal parameter; only a failing morphism record writes
hbar out as a coordinate.

Every structure here, an assembled chi, a homotopy table or the mu of a
morphism endpoint, is a `symplectic.Hamiltonian`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .algebroid import (AlgebroidSpec, hamiltonian_of_algebroid,
                        check_algebroid, ce_differential, schouten_bracket)
from .errors import ChartMismatch, DegreeError, TruncationIncomplete
from .gpoly import (Chart, GPoly, GVar, KIND_BASE, KIND_FIBER, KIND_FORMAL,
                    KIND_MOMENTUM_BASE, FIBER_DIRECTION_KINDS, MOMENTUM_KINDS,
                    enumerate_monomials, inject, partial_left,
                    render_monomial, substitute)
from .report import Report
from .symplectic import (Hamiltonian, PolyMap, SymplecticChart,
                         canonical_bracket, hamiltonian_action,
                         is_integrable, legendre, twin_chart)

HBAR = "hbar"


def with_formal_parameter(chart: Chart) -> Chart:
    """`chart` followed by the formal parameter."""
    if chart.has(HBAR):
        raise ChartMismatch(
            f"the coordinate name {HBAR!r} is reserved for the formal parameter")
    return chart.extend([(HBAR, 2, KIND_FORMAL)])


class BialgebroidSpec:
    """A pair of algebroid structures on a bundle and on its dual.

    The dual spec's fiber coordinates must carry the starred names of the
    primal ones with complementary section degrees, so that the dual-side
    chart is the Legendre twin of the primal one.
    """

    def __init__(self, primal: AlgebroidSpec, dual: AlgebroidSpec):
        if primal.base != dual.base:
            raise ChartMismatch("both structures must share the base chart")
        if primal.rank != dual.rank:
            raise DegreeError("fiber ranks must agree")
        if dual.fiber_names != primal.starred_names():
            raise DegreeError(
                "dual fiber coordinates must be the starred primal names")
        for da, db in zip(primal.fiber_degrees, dual.fiber_degrees):
            if db != -da:
                raise DegreeError(
                    "dual section degrees must be opposite to the primal ones")
        self.primal = primal
        self.dual = dual
        self.chart = primal.symplectic_chart()
        self.twin = twin_chart(self.chart)
        self.legendre = legendre(self.chart)

    def __repr__(self):
        return f"BialgebroidSpec({self.primal!r}, {self.dual!r})"


def assemble_hamiltonian(b: BialgebroidSpec) -> Hamiltonian:
    """chi = mu + L*(mu_dual); linear-quadratic in the momenta."""
    mu = hamiltonian_of_algebroid(b.primal, b.chart).body
    mu_dual = hamiltonian_of_algebroid(b.dual, b.twin).body
    return Hamiltonian(b.chart, mu + b.legendre.pullback(mu_dual))


def check_linfty(lham: Hamiltonian, squared=None) -> Report:
    """Degree-three homogeneity, the two vanishing conditions, integrability.

    `squared` is `is_integrable(lham)` when the caller has it already."""
    report = Report("homotopy-structure")
    body = lham.body
    chart = lham.chart.chart
    kinds = chart.kinds
    report.add("degree-three", "chi is homogeneous of degree 3",
               passed=body.is_homogeneous(3),
               detail=f"degree={body.degree()}")
    bad_zero = body.component(
        lambda m: not any(e and kinds[i] in MOMENTUM_KINDS
                          for i, e in enumerate(m)))
    report.add("vanish-on-zero-section",
               "every monomial carries a momentum variable", bad_zero)
    bad_base = body.component(
        lambda m: not any(e and kinds[i] in FIBER_DIRECTION_KINDS
                          for i, e in enumerate(m)))
    report.add("vanish-over-base",
               "every monomial carries a fiber-direction variable", bad_base)
    residual, _ = squared or is_integrable(lham)
    report.add("integrable", "{chi, chi} = 0", residual)
    return report


def check_bialgebroid(b: BialgebroidSpec, squared=None) -> Report:
    """{chi, chi} = 0 cross-checked against the derivation identity
    d([X,Y]) = [dX, Y] + [X, dY] on all generator pairs.

    `squared` is `is_integrable` of the assembled chi when the caller has it
    already."""
    report = Report("bialgebroid")
    rep_primal = check_algebroid(b.primal)
    rep_dual = check_algebroid(b.dual)
    report.add("primal-structure", "primal data passes the algebroid checks",
               passed=rep_primal.passed)
    report.add("dual-structure", "dual data passes the algebroid checks",
               passed=rep_dual.passed)

    residual, bracket_ok = squared or is_integrable(assemble_hamiltonian(b))
    report.add("chi-squared", "{chi, chi} = 0", residual)

    # derivation identity on basis-section pairs; sections are the starred
    # symbols of the primal multivector chart, which is the dual spec's
    # function chart.  (On arity-zero arguments the graded identity carries
    # an extra sign, so only section pairs are the displayed identity.)
    compat_ok = True
    if b.primal.is_classical():
        mv = b.primal.multivector_chart()
        spec, dual = b.primal, b.dual

        def d_star(p):
            return ce_differential(dual, p, b.twin)

        labels = list(spec.starred_names())
        gens = [mv.var_poly(n) for n in labels]
        d_gens = [d_star(p) for p in gens]
        for i, (la, pa, da) in enumerate(zip(labels, gens, d_gens)):
            for lb, pb, db in zip(labels[i:], gens[i:], d_gens[i:]):
                lhs = d_star(schouten_bracket(spec, pa, pb))
                rhs = (schouten_bracket(spec, da, pb)
                       + schouten_bracket(spec, pa, db))
                res = lhs - rhs
                ok = res.is_zero()
                compat_ok = compat_ok and ok
                report.add(f"compatibility({la},{lb})",
                           "d([X,Y]) = [dX, Y] + [X, dY]", res)
        report.add("routes-agree",
                   "({chi,chi} = 0) iff the derivation identity holds",
                   passed=(bracket_ok == (compat_ok and rep_primal.passed
                                          and rep_dual.passed)),
                   detail=f"hamiltonian={'pass' if bracket_ok else 'fail'}, "
                          f"identity={'pass' if compat_ok else 'fail'}")
    else:
        report.add("routes-agree",
                   "derivation-identity route runs on classical data only",
                   passed=True, detail="skipped")
    return report


def legendre_quadratic_check(b: BialgebroidSpec) -> Report:
    """The pullback of the dual Hamiltonian through the Legendre exchange
    equals the fiberwise-quadratic form of the dual structure functions,
    assembled directly on the primal chart:

        xi*_a A^i_a(x) x*_i  -  1/2 C_c^{ab}(x) xi*_a xi*_b xi^c
    """
    report = Report("legendre-quadratic")
    via_legendre = b.legendre.pullback(
        hamiltonian_of_algebroid(b.dual, b.twin).body)

    C = b.chart.chart
    dual = b.dual
    terms = []
    stars = dual.fiber_names           # starred symbols, momenta on the chart
    plain = b.primal.fiber_names
    for a, an in enumerate(stars):
        for i, xv in enumerate(dual.base.vars):
            entry = dual.anchor[a][i]
            if entry.is_zero():
                continue
            mom = b.chart.momentum_of(xv.name).name
            terms.append(C.var_poly(an) * inject(entry, C) * C.var_poly(mom))
    half = Fraction(-1, 2)
    for (a, bb), row in dual.structure.items():
        for c, centry in row.items():
            terms.append(half * (inject(centry, C) * C.var_poly(stars[a])
                                 * C.var_poly(stars[bb]) * C.var_poly(plain[c])))
    report.add("quadratic-form",
               "Legendre pullback of the dual Hamiltonian equals the direct "
               "quadratic assembly", via_legendre - C.sum(terms))
    return report


def base_chart(chart: Chart) -> Chart:
    """The leading base coordinates of a V[1] chart as a chart of their
    own: a base monomial has the same packed key on both."""
    nbase = chart.kinds.count(KIND_BASE)
    if chart.kinds[:nbase] != (KIND_BASE,) * nbase:
        raise ChartMismatch("base coordinates must precede fiber coordinates")
    return Chart(chart.vars[:nbase])


def taylor(g: GPoly, cap: int, base: Chart) -> dict:
    """The coefficient table of g about the zero section: the packed key of
    each fiber word of weight at most cap -> its coefficient on `base`,
    which is `base_chart(g.chart)`.  The base-field mask splits each key
    into the word and the coefficient monomial, whose key it already is."""
    mask, wshift = base.var_bits, g.chart.wshift
    table = {}
    for m, c in g.terms.items():
        if m >> wshift <= cap:
            # distinct monomials have distinct (word, base part) pairs
            table.setdefault(m & ~mask, {})[m & mask] = c
    return {word: GPoly._raw(base, terms) for word, terms in table.items()}


# -- morphisms -------------------------------------------------------------------


def semistrict_morphism_check(f: PolyMap, ham_source: Hamiltonian,
                              ham_target: Hamiltonian) -> Report:
    """Verify F*(target Hamiltonian) = Phi*(source Hamiltonian).

    F* substitutes the coordinates of the target V[1]-chart by their images
    and keeps target momenta; Phi* substitutes every source momentum by the
    left-derivative Jacobian pairing  p_i -> sum_j (d_i f^j) p_j.  Both land
    on the mixed chart (source coordinates, target momenta).
    """
    sc_v: SymplecticChart = ham_source.chart
    sc_w: SymplecticChart = ham_target.chart
    ce_v = sc_v.base_chart
    ce_w = sc_w.base_chart
    if f.source != ce_v or f.target != ce_w:
        raise ChartMismatch("the map must go between the V[1] charts")
    report = Report("morphism")

    if ce_v != ce_w:
        shared = set(ce_v.names) & set(ce_w.names)
        if shared:
            raise ChartMismatch(
                f"source and target coordinate names overlap: {sorted(shared)}")

    mixed = ce_v.extend(sc_w.momenta())

    # F* : substitute W[1]-coordinates, keep W-momenta
    f_assign = {}
    for v in ce_w.vars:
        f_assign[v.name] = inject(f.image_of(v.name), mixed)
    f_star = substitute(ham_target.body, f_assign, target=mixed)

    # Phi* : substitute V-momenta by the Jacobian pairing
    phi_assign = {}
    for q in ce_v.vars:
        p_name = sc_v.momentum_of(q.name).name
        terms = []
        for w in ce_w.vars:
            jac = partial_left(f.image_of(w.name), q.name)
            if jac.is_zero():
                continue
            p_w = sc_w.momentum_of(w.name).name
            terms.append(inject(jac, mixed) * mixed.var_poly(p_w))
        phi_assign[p_name] = mixed.sum(terms)
    phi_star = substitute(ham_source.body, phi_assign, target=mixed)

    report.add("hamiltonian-relation",
               "pullback of the target Hamiltonian equals the momentum-"
               "Jacobian pullback of the source Hamiltonian",
               f_star - phi_star)
    return report


def table_entry(source: Chart, target: Chart, key, img: GPoly) -> int:
    """Check one row of a morphism table alone, as the map onto one
    coordinate that it is, and return the row's packed key on `target`.

    `key` names a base coordinate of `target`, or is a word: an exponent
    tuple over its fiber coordinates, whose image `img` on `source` must
    vanish on the zero section as a fiber coordinate's does."""
    if isinstance(key, str):
        v = target.var(key)
        if v.kind != KIND_BASE:
            raise ChartMismatch(f"{key!r} is not a base coordinate")
        packed = target.units[v.index]
    else:
        if len(key) != len(target.vars):
            raise ChartMismatch("word length does not match the target chart")
        if any(e and kind == KIND_BASE for e, kind in zip(key, target.kinds)):
            raise ChartMismatch("words range over fiber coordinates only")
        packed = target.pack(key)
        v = GVar(render_monomial(target, key), target.monomial_degree(packed),
                 KIND_FIBER)
    PolyMap(source, Chart([v]), {v.name: img})
    return packed


class FullMorphism:
    """A morphism table V[1] -> S(W[1]) up to a weight cap, between two
    bases in general.  It holds what `pull_taylor` reads: the weight cap `cap`;
    `words`, the image on `source` of each word in the fiber coordinates of
    `target`, keyed by its packed key there (the constructor takes exponent
    tuples, each checked by `table_entry`); and `base`, the PolyMap from
    `source` to the target base chart that `base_map` gives.
    """

    def __init__(self, source: Chart, target: Chart,
                 base_map: Mapping[str, GPoly], words: Mapping[tuple, GPoly],
                 cap: int):
        self.words = {table_entry(source, target, word, img): img
                      for word, img in words.items()}
        self.base = PolyMap(source, base_chart(target), base_map)
        self.source, self.target, self.cap = source, target, cap

    def pull_taylor(self, g: GPoly) -> GPoly:
        """Apply f* after the Taylor expansion of g about the zero section."""
        if g.chart != self.target:
            raise ChartMismatch("the table pulls back functions on its target")
        terms = []
        for word, coeff in taylor(g, self.cap, self.base.target).items():
            pulled = self.base.pullback(coeff)
            if pulled and word:
                img = self.words.get(word)
                if img is None:
                    raise TruncationIncomplete(
                        f"missing word {self.target.unpack(word)} below the "
                        f"weight cap {self.cap}")
                pulled = pulled * img
            terms.append(pulled)
        return self.source.sum(terms)


def embed_semistrict(f: PolyMap, cap: int) -> FullMorphism:
    """A chart morphism as a table: each word's entry is the pullback of
    the word, and the base entries are the base-coordinate images."""
    target = f.target
    base_map = {v.name: f.image_of(v.name) for v in target.vars
                if v.kind == KIND_BASE}
    # the words of weight at most cap, with every base exponent zero
    words = {word: f.pullback(GPoly._raw(target, {target.pack(word): 1}))
             for word in enumerate_monomials(target, cap, max_base_degree=0)
             if any(word)}
    return FullMorphism(f.source, target, base_map, words, cap)


def linfty_morphism_check(fm: FullMorphism, lham_source: Hamiltonian,
                          lham_target: Hamiltonian) -> Report:
    """Verify the operator identity (source action) o f* o T = f* o T o
    (target action) power by power in the formal parameter, with words and
    powers of hbar cut at the table's cap.

    The identity is evaluated on every monomial of the target function chart
    up to the weight cap, not only on the coordinate generators: second
    derivatives vanish on linear arguments, so generators alone cannot see
    the higher operations.  Each base exponent runs up to r, the most base
    momenta in one monomial of either body (at least 1).  The two sides
    then differ by sum_a c_a * f*(d^a g) over base multi-indices a of order
    at most r, and g = x^b gives a multiple of c_b plus terms in c_a for
    a < b: where these arguments pass, every c_a is zero.  A failing
    record shows its residual as a polynomial in hbar.
    """
    report = Report("homotopy-morphism")
    ce_v = lham_source.chart.base_chart
    ce_w = lham_target.chart.base_chart
    if fm.source != ce_v or fm.target != ce_w:
        raise ChartMismatch("table endpoints must be the V[1] charts")
    with_formal_parameter(ce_w)   # hbar is reserved on both sides
    out_chart = with_formal_parameter(ce_v)
    hbar = out_chart.var_poly(HBAR)
    zero = ce_v.zero()
    base_momenta = (KIND_MOMENTUM_BASE,)
    r = max({1} | lham_source.body.kind_weights(base_momenta)
            | lham_target.body.kind_weights(base_momenta))
    for mono in enumerate_monomials(ce_w, fm.cap, max_base_degree=r):
        if not any(mono):
            continue
        name = render_monomial(ce_w, mono)
        g = GPoly(ce_w, {ce_w.pack(mono): 1})
        # left side: act downstairs after pulling back; right side: act
        # upstairs and pull back each power of hbar
        lhs = hamiltonian_action(lham_source, fm.pull_taylor(g), fm.cap)
        rhs = {k: fm.pull_taylor(c)
               for k, c in hamiltonian_action(lham_target, g, fm.cap).items()}
        diffs = {k: lhs.get(k, zero) - rhs.get(k, zero)
                 for k in lhs.keys() | rhs.keys()}
        residual = [inject(d, out_chart) * hbar ** k
                    for k, d in diffs.items() if d]
        report.add(f"generator({name})", "operator identity on the generator",
                   out_chart.sum(residual))
    return report


def big_bracket(t1: GPoly, t2: GPoly, sc: SymplecticChart) -> GPoly:
    """The canonical degree -2 bracket on the double chart over a point."""
    if any(v.kind == KIND_BASE for v in sc.coords()):
        raise ChartMismatch("the double bracket lives over a point")
    return canonical_bracket(t1, t2, sc)
