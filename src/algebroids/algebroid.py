"""Lie algebroid data and its calculus.

An algebroid on a bundle V over a polynomial base is given by an anchor
matrix A^i_a(x) and structure functions C^c_ab(x); the same data is encoded
as a Hamiltonian mu = xi^a A^i_a x*_i + 1/2 C^c_ab xi^a xi^b xi*_c of
momentum-weight one on T*[2]V[1], and integrability {mu, mu} = 0 is
equivalent to the bracket axioms.  Both routes are implemented and cross
checked.

Chart conventions.  Fiber coordinate names are the user-facing handles; the
basis section e_a appears in multivector charts as the starred symbol (the
same name the momentum of xi^a carries on the cotangent chart), so that the
Legendre identification is literal.  Section degrees d_a give coordinate
degrees 1 - d_a on V[1], 1 + d_a on V*[1], d_a on unshifted V*.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Tuple

from .errors import (ChartMismatch, DegreeError, DegreeMismatch, NotPoisson,
                     NotSplit)
from .expr import parse_expression
from .gpoly import (Chart, GPoly, KIND_BASE, KIND_FIBER, add_into,
                    apply_vector_field, inject, mul_into, mul_monomial,
                    partial_left, vector_field_commutator)
from .report import Report
from .symplectic import (BracketContext, Hamiltonian, SymplecticChart,
                         biderivation_bracket, hamiltonian_action,
                         hamiltonian_lift, is_integrable, shifted_cotangent)

Section = Mapping[str, GPoly]   # fiber name -> coefficient polynomial on base


def _coerce(base: Chart, value) -> GPoly:
    if isinstance(value, GPoly):
        if value.chart != base:
            raise ChartMismatch("structure polynomial lives on the wrong chart")
        return value
    if isinstance(value, str):
        return parse_expression(value, base)
    return base.const(value)


class AlgebroidSpec:
    """Anchor and structure functions over a polynomial base chart.

    `fiber` lists (coordinate name, section degree) pairs; `anchor` maps
    (fiber name, base name) to A^i_a; `bracket` maps (a, b, c) fiber-name
    triples to C^c_ab, with keys in canonical order (index a < index b, or
    a == b when the section degree is odd).  Graded antisymmetry
    C^c_ab = -(-1)^{d_a d_b} C^c_ba is completed automatically.
    """

    def __init__(self, base: Chart, fiber: Sequence[Tuple[str, int]],
                 anchor: Optional[Mapping] = None,
                 bracket: Optional[Mapping] = None):
        for v in base.vars:
            if v.kind != KIND_BASE:
                raise NotSplit("algebroid base charts take base coordinates only")
        self.base = base
        self.fiber_names = tuple(str(n) for n, _ in fiber)
        self.fiber_degrees = tuple(int(d) for _, d in fiber)
        seen = set()
        for fname in self.fiber_names:
            if fname in seen:
                raise DegreeError(f"fiber {fname!r} is declared twice", fname)
            seen.add(fname)
            # derived charts hold the base variables beside e.g. xi and xi*
            for name in (fname, fname + "*"):
                if base.has(name):
                    raise DegreeError(f"fiber {fname!r} clashes with the base "
                                      f"variable {name!r}", fname)
            # T*[2]V[1] names the momentum of each coordinate q as q*
            owner = fname[:-1]
            if fname.endswith("*") and (base.has(owner)
                                        or owner in self.fiber_names):
                what = "base variable" if base.has(owner) else "fiber"
                raise DegreeError(f"fiber {fname!r} is the momentum name of "
                                  f"the {what} {owner!r}", fname)
        self.rank = len(self.fiber_names)
        self._fidx = {n: i for i, n in enumerate(self.fiber_names)}

        zero = base.zero()
        grid = [[zero] * len(base.vars) for _ in range(self.rank)]
        for (fname, xname), val in (anchor or {}).items():
            a = self._fidx[fname]
            i = base.index_of(xname)
            p = _coerce(base, val)
            want = self.fiber_degrees[a] + base.degrees[i]
            if p and not p.is_homogeneous(want):
                raise DegreeError(
                    f"anchor entry ({fname},{xname}) must be homogeneous of degree {want}",
                    (fname, xname))
            grid[a][i] = p
        self.anchor = tuple(tuple(row) for row in grid)

        table = {}
        for (fa, fb, fc), val in (bracket or {}).items():
            a, b, c = self._fidx[fa], self._fidx[fb], self._fidx[fc]
            if a > b:
                raise DegreeError(
                    f"bracket key ({fa},{fb}) must be in canonical order",
                    (fa, fb, fc))
            da, db, dc = (self.fiber_degrees[a], self.fiber_degrees[b],
                          self.fiber_degrees[c])
            if a == b and da % 2 == 0:
                raise DegreeError(
                    f"[{fa},{fa}] vanishes for an even section", (fa, fb, fc))
            p = _coerce(base, val)
            if p and (da + db) % 2:
                raise DegreeError(
                    "mixed-parity structure components are outside the "
                    "Hamiltonian encoding implemented here", (fa, fb, fc))
            want = da + db - dc
            if p and not p.is_homogeneous(want):
                raise DegreeError(
                    f"bracket entry ({fa},{fb},{fc}) must be homogeneous of degree {want}",
                    (fa, fb, fc))
            if p:
                row = table.setdefault((a, b), {})
                row[c] = row.get(c, zero) + p
        # complete by graded antisymmetry
        full = {}
        for (a, b), row in table.items():
            full[(a, b)] = dict(row)
            if a != b:
                da, db = self.fiber_degrees[a], self.fiber_degrees[b]
                sign = -1 if (da * db) % 2 == 0 else 1
                full[(b, a)] = {c: (p if sign > 0 else -p) for c, p in row.items()}
        self.structure = full
        self._cache = {}

    # -- structure access ---------------------------------------------------

    def fiber_index(self, name: str) -> int:
        return self._fidx[name]

    def structure_entry(self, a: int, b: int, c: int) -> GPoly:
        return self.structure.get((a, b), {}).get(c, self.base.zero())

    def is_classical(self) -> bool:
        return (all(d == 0 for d in self.fiber_degrees)
                and all(d == 0 for d in self.base.degrees))

    # -- derived charts -------------------------------------------------------

    def _cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def _fiber_chart(self, key, names, degree) -> Chart:
        """The base chart followed by one fiber coordinate per section, of
        degree `degree(d_a)`."""
        return self._cached(key, lambda: self.base.extend(
            (n, degree(d), KIND_FIBER)
            for n, d in zip(names, self.fiber_degrees)))

    def ce_chart(self) -> Chart:
        """V[1]: base coordinates then fiber coordinates of degree 1 - d_a."""
        return self._fiber_chart("ce", self.fiber_names, lambda d: 1 - d)

    def symplectic_chart(self) -> SymplecticChart:
        return self._cached("symp", lambda: shifted_cotangent(self.ce_chart(), 2))

    def starred_names(self) -> Tuple[str, ...]:
        return tuple(n + "*" for n in self.fiber_names)

    def multivector_chart(self) -> Chart:
        """V*[1]: multivectors; the section e_a is the starred symbol."""
        return self._fiber_chart("multi", self.starred_names(), lambda d: 1 + d)

    def lie_poisson_chart(self) -> Chart:
        """Unshifted V*: fiber-linear functions are sections of V."""
        return self._fiber_chart("lp", self.starred_names(), lambda d: d)

    def __repr__(self):
        return (f"AlgebroidSpec(base={self.base!r}, "
                f"fiber={list(zip(self.fiber_names, self.fiber_degrees))})")


# -- sections and the bracket of sections -------------------------------------


def basis_section(spec: AlgebroidSpec, a: int) -> Section:
    return {spec.fiber_names[a]: spec.base.one()}


def _graded_entries(spec: AlgebroidSpec, x: Section):
    """The non-zero entries of a section as (name, index, coefficient,
    coefficient degree, scalar of a constant coefficient or None), and the
    section's degree: None unless it is homogeneous, 0 for the zero
    section."""
    entries = []
    degs = set()
    for name, coeff in x.items():
        if coeff.is_zero():
            continue
        a = spec.fiber_index(name)
        k = _constant(coeff)
        d = 0 if k is not None else coeff.degree()
        if d is None:
            return entries, None
        entries.append((name, a, coeff, d, k))
        degs.add(d + spec.fiber_degrees[a])
    if len(degs) > 1:
        return entries, None
    return entries, (degs.pop() if degs else 0)


def anchor_of(spec: AlgebroidSpec, x: Section) -> dict:
    """The base vector field rho(X); components keyed by base names."""
    comps = {}
    for name, coeff in x.items():
        a = spec.fiber_index(name)
        for i, xv in enumerate(spec.base.vars):
            entry = spec.anchor[a][i]
            if entry.is_zero() or coeff.is_zero():
                continue
            comps[xv.name] = comps.get(xv.name, spec.base.zero()) + coeff * entry
    return {n: p for n, p in comps.items() if p}


def basis_anchor(spec: AlgebroidSpec, b: int) -> dict:
    """rho(e_b), read straight from anchor row b; one shared dict per
    spec, which callers only read."""
    return spec._cached(("anchor", b), lambda: {
        xv.name: entry for xv, entry in zip(spec.base.vars, spec.anchor[b])
        if entry})


def _close(spec: AlgebroidSpec, parts: Mapping[str, dict]) -> dict:
    """The section whose coefficient of each fiber name is its accumulated
    terms, in fiber order and without zero coefficients."""
    base = spec.base
    return {n: GPoly._raw(base, parts[n]) for n in spec.fiber_names
            if parts.get(n)}


def _constant(p: GPoly):
    """The scalar of a constant polynomial; None for any other."""
    terms = p.terms
    return terms[0] if len(terms) == 1 and 0 in terms else None


def section_bracket(spec: AlgebroidSpec, x: Section, y: Section,
                    into: Optional[dict] = None, sign: int = 1):
    """[X, Y] from the structure functions, anchor derivatives included.

    Graded inputs must be homogeneous; the classical case has no signs.
    A constant coefficient on either side scales its terms instead of
    multiplying them, and a derivative of a constant is never taken: a
    constant has degree 0 and no odd variable, so k * p is p scaled by k
    with no Koszul sign, and rho(X)(k) = 0.

    With `into`, the terms of sign * [X, Y] are added into its per-fiber
    dicts (`add_into`, `mul_into`) and nothing is returned; `_close` of
    those dicts is then sign * [X, Y], or its sum with whatever else they
    hold.
    """
    xs, dx = _graded_entries(spec, x)
    ys, dy = _graded_entries(spec, y)
    if dx is None or dy is None:
        raise DegreeMismatch("section_bracket requires homogeneous sections")
    names = spec.fiber_names
    parts = {} if into is None else into   # only the fiber names hit
    rho_x = None   # built for the first non-constant g
    for bn, b, g, gdeg, k in ys:
        db = spec.fiber_degrees[b]
        rho_b = basis_anchor(spec, b)
        # rho(X)(g^b) e_b
        if k is None:
            if rho_x is None:
                rho_x = anchor_of(spec, x)
            if rho_x:
                add_into(parts.setdefault(bn, {}),
                         apply_vector_field(rho_x, g), sign)
        # (-1)^{|X||g|} g * (f [e_a, e_b] - (-1)^{(|f|+d_a) d_b} rho_b(f) e_a)
        s1 = -sign if (dx * gdeg) % 2 else sign
        for an, a, f, fdeg, kf in xs:
            row = spec.structure.get((a, b))
            if row:
                # g * f as a scale and a polynomial, None for a unit one
                if k is None:
                    scale, gf = (s1, g * f) if kf is None else (s1 * kf, g)
                elif kf is None:
                    scale, gf = s1 * k, f
                else:
                    scale, gf = s1 * k * kf, None
                for c, centry in row.items():
                    acc = parts.setdefault(names[c], {})
                    if gf is None:
                        add_into(acc, centry, scale)
                    else:
                        mul_into(acc, gf, centry, scale)
            if rho_b and kf is None:
                rb = apply_vector_field(rho_b, f)
                if rb:
                    s2 = -1 if ((fdeg + spec.fiber_degrees[a]) * db) % 2 else 1
                    acc = parts.setdefault(an, {})
                    if k is not None:
                        add_into(acc, rb, -s1 * s2 * k)
                    else:
                        mul_into(acc, g, rb, -s1 * s2)
    if into is None:
        return _close(spec, parts)


def section_add(spec, x, y, scale=1):
    out = dict(x)
    for n, p in y.items():
        out[n] = out.get(n, spec.base.zero()) + scale * p
    return {n: p for n, p in out.items() if p}


def section_is_zero(x: Section) -> bool:
    return all(p.is_zero() for p in x.values())


def section_to_multivector(spec: AlgebroidSpec, x: Section) -> GPoly:
    chart = spec.multivector_chart()
    return chart.sum(inject(coeff, chart) * chart.var_poly(name + "*")
                     for name, coeff in x.items())


# -- the Hamiltonian encoding --------------------------------------------------


def hamiltonian_of_algebroid(spec: AlgebroidSpec,
                             sympl: Optional[SymplecticChart] = None) -> Hamiltonian:
    """mu = xi^a A^i_a(x) x*_i - 1/2 C^c_ab(x) xi^a xi^b xi*_c.

    The relative sign between the anchor and structure terms is forced by
    the bracket relations {p_i, q^j} = delta: with it, {mu, mu} = 0 is
    equivalent to the bracket axioms, and d = {mu, -} restricts to
    d(xi^c) = -1/2 C^c_ab xi^a xi^b, the homogeneous-coordinate form of the
    classical coboundary operator.

    Each term is its coefficient shifted by the unit keys of its variables
    (`mul_monomial`).  The spec keeps the result per chart: mu's one memo.
    """
    sc = sympl if sympl is not None else spec.symplectic_chart()
    C = sc.chart
    made = spec._cache.get(("mu", C))
    if made is not None:
        return made
    unit = dict(zip(C.names, C.units))
    mom = {v.name: unit[sc.momentum_of(v.name).name] for v in sc.coords()}
    names = spec.fiber_names
    terms = []
    for an, row in zip(names, spec.anchor):
        for xv, entry in zip(spec.base.vars, row):
            if entry:
                term = mul_monomial(inject(entry, C), mom[xv.name])
                terms.append(mul_monomial(term, unit[an], left=True))
    # one term per pair a <= b: the (b, a) term equals the (a, b) one, since
    # d_a + d_b is even and the antisymmetry of C cancels the Koszul sign
    # of xi^b xi^a
    for (a, b), row in spec.structure.items():
        if a > b:
            continue
        scale = -1 if a < b else Fraction(-1, 2)
        for c, centry in row.items():
            term = mul_monomial(inject(centry, C), unit[names[a]])
            term = mul_monomial(term, unit[names[b]])
            terms.append(mul_monomial(term, mom[names[c]], coeff=scale))
    return spec._cache.setdefault(("mu", C), Hamiltonian(sc, C.sum(terms)))


def check_algebroid(spec: AlgebroidSpec, squared=None) -> Report:
    """Cross-validate {mu, mu} = 0 against the direct bracket axioms.

    `squared` is `is_integrable` of mu on `spec.symplectic_chart()` when the
    caller has it already, as `bialgebroid.check_bialgebroid` has from the
    terms of momentum weight one of {chi, chi}.

    There is no Leibniz record: the Leibniz rule is how `section_bracket`
    extends the structure table to all sections, so it holds by definition.
    """
    report = Report("algebroid")
    residual, mu_ok = squared or is_integrable(hamiltonian_of_algebroid(spec))
    report.add("mu-squared", "{mu, mu} = 0", residual)

    names = spec.fiber_names
    degs = spec.fiber_degrees
    axioms_ok = True
    basis = [basis_section(spec, k) for k in range(spec.rank)]
    # [e_a, e_b] is structure row (a, b): with unit coefficients both anchor
    # terms of section_bracket vanish
    table = {ab: {names[c]: row[c] for c in sorted(row)}
             for ab, row in spec.structure.items()}

    # reach[r]: the fiber names d with a structure row (d, r)
    reach = [set() for _ in range(spec.rank)]
    for d, r in spec.structure:
        reach[r].add(names[d])
    anchored = [bool(basis_anchor(spec, r)) for r in range(spec.rank)]

    # graded Jacobi on basis triples.  [[e_p, e_q], e_r] is zero, and
    # skipped, when [e_p, e_q] = 0, or when e_r has no anchor and no fiber
    # name of [e_p, e_q] reaches it
    for a, b, c in itertools.combinations_with_replacement(range(spec.rank), 3):
        parts = {}
        for p, q, r, dd in ((a, b, c, degs[a] * degs[c]),
                            (b, c, a, degs[b] * degs[a]),
                            (c, a, b, degs[c] * degs[b])):
            inner = table.get((p, q))
            if inner and (anchored[r] or not reach[r].isdisjoint(inner)):
                section_bracket(spec, inner, basis[r], into=parts,
                                sign=-1 if dd % 2 else 1)
        j = _close(spec, parts) if parts else {}
        axioms_ok = axioms_ok and not j
        report.add(f"jacobi({names[a]},{names[b]},{names[c]})",
                   "[[X,Y],Z] + graded cyclic = 0",
                   section_to_multivector(spec, j) if j else None)
    # anchor is a bracket morphism
    for a in range(spec.rank):
        for b in range(a, spec.rank):
            lhs = anchor_of(spec, table.get((a, b), {}))
            rhs = vector_field_commutator(spec.base, basis_anchor(spec, a),
                                          basis_anchor(spec, b))
            diff = section_add(spec, lhs, rhs, scale=-1)
            # the residual shows Q^i d_i as its lift Q^i x_i*: decide on
            # the components
            res = hamiltonian_lift(spec.symplectic_chart(), diff)
            ok = not diff
            axioms_ok = axioms_ok and ok
            report.add(f"anchor-morphism({names[a]},{names[b]})",
                       "rho([X,Y]) = [rho(X), rho(Y)]", res, passed=ok)

    report.add("routes-agree",
               "({mu,mu} = 0) iff (Jacobi, anchor-morphism)",
               passed=(mu_ok == axioms_ok),
               detail=f"hamiltonian={'pass' if mu_ok else 'fail'}, "
                      f"axioms={'pass' if axioms_ok else 'fail'}")
    return report


# -- Cartan calculus on V[1] ---------------------------------------------------


def ce_differential(spec: AlgebroidSpec, phi: GPoly,
                    sympl: Optional[SymplecticChart] = None) -> GPoly:
    """d(phi) = {mu, phi}, a degree +1 derivation of functions on V[1]:
    mu's operator action, which is {mu, -} with no higher power of hbar,
    since every term of mu carries exactly one momentum."""
    sc = sympl if sympl is not None else spec.symplectic_chart()
    ce = sc.base_chart
    if phi.chart != ce:
        raise ChartMismatch("ce_differential input must be momentum-free")
    mu = hamiltonian_of_algebroid(spec, sc)
    return hamiltonian_action(mu, phi).get(0, ce.zero())


def contraction(spec: AlgebroidSpec, x: Section, phi: GPoly) -> GPoly:
    """iota_X: the derivation with iota_X xi^a = f^a, iota_X x = 0."""
    ce = spec.ce_chart()
    if phi.chart != ce:
        raise ChartMismatch("contraction input must live on V[1]")
    terms = []
    for name, coeff in x.items():
        spec.fiber_index(name)
        terms.append(inject(coeff, ce) * partial_left(phi, name))
    return ce.sum(terms)


def lie_derivative(spec: AlgebroidSpec, x: Section, phi: GPoly) -> GPoly:
    """L_X = d iota_X + iota_X d (Cartan formula, by definition)."""
    return (ce_differential(spec, contraction(spec, x, phi))
            + contraction(spec, x, ce_differential(spec, phi)))


# -- brackets induced on the dual side -----------------------------------------


def _table_bracket(spec: AlgebroidSpec, chart: Chart, shift: int, sign: int):
    """Generator table {e_a, e_b} = sign * C^c_ab e_c,
    {e_a, f} = sign * rho(e_a) f on a chart whose starred symbols stand for
    the basis sections."""
    nbase = len(spec.base.vars)
    degs = chart.degrees

    def pair(k, l):
        k_fiber = k >= nbase
        l_fiber = l >= nbase
        if not k_fiber and not l_fiber:
            return None
        if k_fiber and l_fiber:
            row = spec.structure.get((k - nbase, l - nbase))
            if not row:
                return None
            stars = spec.starred_names()
            return sign * chart.sum(inject(centry, chart)
                                    * chart.var_poly(stars[c])
                                    for c, centry in row.items())
        if k_fiber:
            entry = spec.anchor[k - nbase][l]
            return sign * inject(entry, chart) if entry else None
        # {f, e_a} by graded antisymmetry
        entry = spec.anchor[l - nbase][k]
        if not entry:
            return None
        s = (degs[k] - shift) * (degs[l] - shift)
        out = sign * inject(entry, chart)
        return out if s % 2 else -out

    return pair


def schouten_bracket(spec: AlgebroidSpec, p: GPoly, q: GPoly) -> GPoly:
    """The degree -1 bracket on functions on V*[1]; for the tangent
    algebroid this is the multivector bracket.

    The generator values are [e_a, e_b] = -C^c_ab e_c and
    [e_a, f] = -rho(e_a) f: realizing sections as coordinates on V*[1]
    suspends the bracket, and with left-derivative conventions the
    suspension shows up as a global sign.  This is the convention under
    which the cotangent lift of [r, -] agrees with {mu, -} and the
    divergence-type operator below generates the bracket.
    """
    chart = spec.multivector_chart()
    if p.chart != chart or q.chart != chart:
        raise ChartMismatch("multivectors live on the V*[1] chart")
    return biderivation_bracket(p, q, 1, _table_bracket(spec, chart, 1, -1))


def schouten_context(spec: AlgebroidSpec) -> BracketContext:
    return BracketContext("multivectors", spec.multivector_chart(),
                          lambda f, g: schouten_bracket(spec, f, g))


def lie_poisson(spec: AlgebroidSpec) -> BracketContext:
    """The fiber-linear Poisson bracket on the unshifted dual bundle:
    {e_a, e_b} = C^c_ab e_c, {e_a, f} = rho(e_a) f, {f, g} = 0."""
    chart = spec.lie_poisson_chart()
    return BracketContext("dual-bundle", chart,
                          lambda f, g: biderivation_bracket(
                              f, g, 0, _table_bracket(spec, chart, 0, 1)))


# -- constructions on the base: the cotangent algebroid of a bivector ----------


def tangent_spec(base: Chart, fiber_names: Optional[Sequence[str]] = None) -> AlgebroidSpec:
    """The tangent algebroid: identity anchor, zero structure functions."""
    if fiber_names is None:
        fiber_names = ["d" + v.name for v in base.vars]
    anchor = {(fn, v.name): 1 for fn, v in zip(fiber_names, base.vars)}
    return AlgebroidSpec(base, [(fn, 0) for fn in fiber_names], anchor, {})


def bivector_matrix(base: Chart, pi: Mapping) -> dict:
    """Normalize {(i, j) or (name_i, name_j): entry} into a full antisymmetric
    matrix of base polynomials (upper indices pi^{ij})."""
    full = {}
    for (i, j), val in pi.items():
        ii = i if isinstance(i, int) else base.index_of(i)
        jj = j if isinstance(j, int) else base.index_of(j)
        if ii == jj:
            raise DegreeError("diagonal bivector entries vanish")
        p = _coerce(base, val)
        full[(ii, jj)] = full.get((ii, jj), base.zero()) + p
        full[(jj, ii)] = full.get((jj, ii), base.zero()) - p
    return full


def bivector_multivector(spec_t: AlgebroidSpec, pi_full: Mapping) -> GPoly:
    """pi = 1/2 pi^{ij} d_i ^ d_j as a weight-2 multivector of the tangent
    algebroid."""
    chart = spec_t.multivector_chart()
    stars = spec_t.starred_names()
    half = Fraction(1, 2)
    return chart.sum(half * (inject(entry, chart) * chart.var_poly(stars[i])
                             * chart.var_poly(stars[j]))
                     for (i, j), entry in pi_full.items() if entry)


def koszul_algebroid(base: Chart, pi: Mapping) -> AlgebroidSpec:
    """The cotangent algebroid of a Poisson bivector.

    Conventions matching the Hamiltonian dictionary above: the anchor sends
    the a-th coordinate form to sum_i pi^{ia} d_i and the bracket of two
    coordinate forms is [dx^i, dx^j] = -d(pi^{ij}); the resulting
    Hamiltonian is sum xi^j pi^{ij} x*_i + 1/2 d_k(pi^{ij}) xi^i xi^j xi*_k.
    """
    full = bivector_matrix(base, pi)
    t = tangent_spec(base)
    pi_mv = bivector_multivector(t, full)
    if not schouten_bracket(t, pi_mv, pi_mv).is_zero():
        raise NotPoisson("[pi, pi] != 0")
    n = len(base.vars)
    fiber_names = [f"xi{i + 1}" for i in range(n)]
    zero = base.zero()
    anchor = {}
    for j in range(n):
        for i in range(n):
            entry = full.get((i, j), zero)
            if entry:
                anchor[(fiber_names[j], base.names[i])] = entry
    bracket = {}
    for i in range(n):
        for j in range(i + 1, n):
            entry = full.get((i, j), zero)
            for k in range(n):
                d = partial_left(entry, base.names[k])
                if d:
                    bracket[(fiber_names[i], fiber_names[j], fiber_names[k])] = -d
    return AlgebroidSpec(base, [(fn, 0) for fn in fiber_names], anchor, bracket)


# -- connections, curvature, torsion, and the divergence-type operator ---------


@dataclass(frozen=True)
class Connection:
    """A V-connection on a bundle E given by coefficient matrices.

    gamma[a][beta][alpha] is the s_beta coefficient of nabla_{e_a} s_alpha.
    The one-dimensional case (E the top exterior power line) is the input of
    the divergence-type operator below.
    """

    spec: AlgebroidSpec
    bundle_names: Tuple[str, ...]
    gamma: Tuple[Tuple[Tuple[GPoly, ...], ...], ...]

    @property
    def rank(self) -> int:
        return len(self.bundle_names)

    def apply(self, x: Section, s: Mapping[str, GPoly]) -> dict:
        """nabla_X s, C-linear in X, Leibniz in s."""
        spec = self.spec
        parts = {n: [] for n in self.bundle_names}
        bidx = {n: i for i, n in enumerate(self.bundle_names)}
        for an, f in x.items():
            a = spec.fiber_index(an)
            for sn, h in s.items():
                alpha = bidx[sn]
                parts[sn].append(f * apply_vector_field(
                    basis_anchor(spec, a), h))
                for beta in range(self.rank):
                    g = self.gamma[a][beta][alpha]
                    if g:
                        parts[self.bundle_names[beta]].append(f * (h * g))
        out = {n: spec.base.sum(ps) for n, ps in parts.items()}
        return {n: p for n, p in out.items() if p}


def line_connection(spec: AlgebroidSpec,
                    gammas: Mapping[str, object]) -> Connection:
    """A connection on a line bundle: one coefficient polynomial per e_a,
    homogeneous of the degree d_a of e_a, so that the operator
    `bv_operator` builds from it has degree -1."""
    base = spec.base
    rows = []
    for name, degree in zip(spec.fiber_names, spec.fiber_degrees):
        g = _coerce(base, gammas.get(name, 0))
        if g and not g.is_homogeneous(degree):
            raise DegreeError(f"gamma entry {name} must be homogeneous of "
                              f"degree {degree}", name)
        rows.append(((g,),))
    return Connection(spec, ("vol",), tuple(rows))


def adjoint_line_connection(spec: AlgebroidSpec) -> Connection:
    """The top-power adjoint connection Gamma_a = sum_c C^c_ac; a genuine
    connection when the anchor vanishes (families of Lie algebras)."""
    if any(any(p for p in row) for row in spec.anchor):
        raise NotSplit("the adjoint line connection needs a zero anchor")
    gammas = {name: spec.base.sum(spec.structure_entry(a, c, c)
                                  for c in range(spec.rank))
              for a, name in enumerate(spec.fiber_names)}
    return line_connection(spec, gammas)


def curvature(spec: AlgebroidSpec, conn: Connection, x: Section,
              y: Section) -> dict:
    """R(X,Y) = nabla_X nabla_Y - nabla_Y nabla_X - nabla_[X,Y] as an
    endomorphism matrix (columns indexed by bundle basis)."""
    out = {}
    for alpha, sn in enumerate(conn.bundle_names):
        s = {sn: spec.base.one()}
        r = conn.apply(x, conn.apply(y, s))
        r2 = conn.apply(y, conn.apply(x, s))
        r3 = conn.apply(section_bracket(spec, x, y), s)
        col = {}
        for beta, tn in enumerate(conn.bundle_names):
            z = spec.base.zero()
            v = (r.get(tn, z) - r2.get(tn, z)) - r3.get(tn, z)
            if v:
                col[tn] = v
        out[sn] = col
    return out


def torsion(spec: AlgebroidSpec, conn: Connection, x: Section,
            y: Section) -> dict:
    """T(X,Y) = nabla_X Y - nabla_Y X - [X,Y] for a connection on V itself."""
    if conn.bundle_names != spec.fiber_names:
        raise ChartMismatch("torsion needs a connection on the bundle itself")
    t = section_add(spec, conn.apply(x, y), conn.apply(y, x), scale=-1)
    return section_add(spec, t, section_bracket(spec, x, y), scale=-1)


def bv_operator(spec: AlgebroidSpec, conn: Connection, omega: GPoly) -> GPoly:
    """The order-two operator on multivectors induced by a top-power line
    connection Gamma,

        D = sum_a (rho_a^i d_{x^i} + Gamma_a - sum_c C^c_ac) d_{e_a}
            + 1/2 sum_{a,b,c} C^c_ab e_c d_{e_b} d_{e_a},

    with left derivatives, coefficients on the left, and d_{e_a} taken
    first in d_{e_b} d_{e_a}.  It lowers arity by one and generates the
    bracket through [a,b] = (-1)^{|a|}(D(ab) - D(a)b - (-1)^{|a|} a D(b)),
    which freezes its sign convention.  For the adjoint connection of a Lie
    algebra it is the homological coboundary: D(e_1 ^ e_2) = [e_1, e_2]."""
    if any(d % 2 for d in spec.fiber_degrees):
        raise NotSplit("top-power evaluation needs even section degrees")
    if conn.rank != 1:
        raise ChartMismatch("the operator takes a line connection on the top power")
    chart = spec.multivector_chart()
    if omega.chart != chart:
        raise ChartMismatch("multivectors live on the V*[1] chart")
    stars = spec.starred_names()
    half = Fraction(1, 2)
    out = []
    for a, star in enumerate(stars):
        d_a = partial_left(omega, star)
        if not d_a:
            continue
        rho_a = {name: inject(entry, chart)
                 for name, entry in basis_anchor(spec, a).items()}
        out.append(apply_vector_field(rho_a, d_a))
        trace = conn.gamma[a][0][0] - spec.base.sum(
            spec.structure_entry(a, c, c) for c in range(spec.rank))
        if trace:
            out.append(inject(trace, chart) * d_a)
        for b, star_b in enumerate(stars):
            row = spec.structure.get((a, b))
            d_ba = partial_left(d_a, star_b) if row else None
            if d_ba:
                # C^c_ab e_c, the multivector of [e_a, e_b]
                e_ab = section_to_multivector(
                    spec, {spec.fiber_names[c]: p for c, p in row.items()})
                out.append((half, e_ab * d_ba))
    return chart.sum(out)
