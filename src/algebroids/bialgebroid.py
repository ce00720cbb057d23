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
from .errors import (ChartMismatch, DegreeError, DegreeMismatch,
                     TruncationIncomplete)
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
    already.  The primal check reads {mu, mu} off it: in Roytenberg's
    bigrading of T*[2]A[1] (x (0,0), xi (1,0), xi* (0,1), x* (1,1), the
    bracket (-1,-1)) mu has bidegree (2,1) and L*(mu_dual) (1,2), so the
    part of {chi, chi} of momentum weight one, bidegree (3,1), is exactly
    {mu, mu} on the same chart."""
    report = Report("bialgebroid")
    residual, bracket_ok = squared or is_integrable(assemble_hamiltonian(b))
    kinds = b.chart.chart.kinds
    mu_squared = residual.component(
        lambda m: sum(e for e, kind in zip(m, kinds)
                      if kind in MOMENTUM_KINDS) == 1)
    rep_primal = check_algebroid(b.primal, (mu_squared, not mu_squared))
    rep_dual = check_algebroid(b.dual)
    report.add("primal-structure", "primal data passes the algebroid checks",
               passed=rep_primal.passed)
    report.add("dual-structure", "dual data passes the algebroid checks",
               passed=rep_dual.passed)
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
    vanish on the zero section as a fiber coordinate's does, and have no
    term of lower weight than the word (the table is filtered, as
    `linfty_morphism_check` needs)."""
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
        weight = target.monomial_weight(packed)
        if any(m >> source.wshift < weight for m in img.terms):
            raise DegreeMismatch(
                f"image of the word {v.name!r} has a term of weight below "
                f"its weight {weight}: the table must not lower weight")
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
        # packed key of a target monomial with a word in `words`, or with
        # no word -> its image on `source`, filled by `pull_taylor`
        self._pulled = {}

    def pull_taylor(self, g: GPoly) -> GPoly:
        """Apply f* after the Taylor expansion of g about the zero section.

        Each monomial of a word in the table is pulled back once per table
        and kept.  A word missing from the table is an error only when its
        whole pulled coefficient is non-zero, so its monomials are pulled
        back together, as a coefficient, and not kept: their images may
        cancel."""
        if g.chart != self.target:
            raise ChartMismatch("the table pulls back functions on its target")
        pulled = self._pulled
        terms = []
        for word, coeff in taylor(g, self.cap, self.base.target).items():
            img = self.words.get(word)
            if word and img is None:
                if self.base.pullback(coeff):
                    name = render_monomial(self.target,
                                           self.target.unpack(word))
                    raise TruncationIncomplete(
                        f"missing word {name} below the weight cap {self.cap}")
                continue
            for b, c in coeff.terms.items():
                image = pulled.get(word + b)
                if image is None:
                    image = self.base.pullback(
                        GPoly._raw(coeff.chart, {b: 1}))
                    if image and word:
                        image = image * img
                    pulled[word + b] = image
                terms.append((c, image))
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
    (target action) power by power in the formal parameter, on every target
    argument of weight at most the table's cap, modulo weight above it.

    The weight cut.  Both actions keep every power of hbar: the bodies are
    polynomials, so each series is finite.  Each power of the difference is
    cut to the terms of fiber weight at most the cap on the V[1] chart, read
    off the weight field of their keys, which holds no hbar.  The cut is
    decided by the table alone when the table is filtered: no word image has
    a term of lower weight than its word (`table_entry` refuses such a row;
    a base image has weight >= 0, a base coordinate's).  Then f* o T of an
    argument needs only words of the table, and a word above the cap that
    the target action reaches pulls back to weight above the cap.  Terms of
    weight above the cap form an ideal, so the cut is a ring map.

    The arguments are b * w: each word w of weight at most the cap times
    each base monomial b of total order at most R.  R is r, the most base
    momenta in one monomial of either body (at least 1); when a base image
    has a fiber term, R is K, the most momenta of any kind in one monomial.
    Why these decide:
    - f* o T is a module map over the base pullback:
      f*(T(b * w)) = f*(b) * f*(T(w)).
    - So for fixed w each power of the difference is an operator of order
      at most R in b along the base map: D(b) = sum_a E_a * f*(d^a b) over
      base multi-indices of total order |a| <= R, E_a free of b.  On the
      target side each base momentum takes one derivative of b; on the
      source side the Leibniz and chain rules let each momentum that can
      reach f*(b) take one: only base momenta when the base images are
      fiber-free (a fiber momentum kills f*(b)), any momentum otherwise.
    - Such an operator is fixed by its values on b of total order at most
      R (Grothendieck's order, EGA IV 16.8): D(x^c) is +-c! * E_c plus
      terms E_a * f*(...) with a < c, so by induction on |c| the cut of
      every E_a vanishes where the arguments pass, and then the cut of D(b)
      vanishes for every b, because the cut is a ring map.

    A failing record shows its residual as a polynomial in hbar.
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
    cap, wshift = fm.cap, ce_v.wshift
    # a base image with fiber terms lets every momentum differentiate it
    fibered = any(m >> wshift for v in fm.base.target.vars
                  for m in fm.base.image_of(v.name).terms)
    momenta = MOMENTUM_KINDS if fibered else (KIND_MOMENTUM_BASE,)
    order = max({1} | lham_source.body.kind_weights(momenta)
                | lham_target.body.kind_weights(momenta))
    for mono in enumerate_monomials(ce_w, cap, max_base_degree=order):
        key = ce_w.pack(mono)
        if not key or ce_w.kind_weight(key, (KIND_BASE,)) > order:
            continue
        name = render_monomial(ce_w, mono)
        g = GPoly._raw(ce_w, {key: 1})
        # left side: act downstairs after pulling back; right side: act
        # upstairs and pull back each power of hbar
        lhs = hamiltonian_action(lham_source, fm.pull_taylor(g))
        rhs = {k: fm.pull_taylor(c)
               for k, c in hamiltonian_action(lham_target, g).items()}
        residual = []
        for k in lhs.keys() | rhs.keys():
            cut = {m: c for m, c in (lhs.get(k, zero)
                                     - rhs.get(k, zero)).terms.items()
                   if m >> wshift <= cap}
            if cut:
                residual.append(inject(GPoly._raw(ce_v, cut), out_chart)
                                * hbar ** k)
        report.add(f"generator({name})", "operator identity on the generator",
                   out_chart.sum(residual))
    return report


def big_bracket(t1: GPoly, t2: GPoly, sc: SymplecticChart) -> GPoly:
    """The canonical degree -2 bracket on the double chart over a point."""
    if any(v.kind == KIND_BASE for v in sc.coords()):
        raise ChartMismatch("the double bracket lives over a point")
    return canonical_bracket(t1, t2, sc)
