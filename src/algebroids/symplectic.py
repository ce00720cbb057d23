"""Shifted cotangent charts and the canonical graded Poisson bracket.

A chart T*[n]X lists the coordinates q^i first (base, then fiber) and the
momenta p_i after them, paired index to index with |p_i| + |q^i| = n.  The
bracket is defined by the relations {p_i, q^j} = delta_i^j,
{q^i, q^j} = {p_i, p_j} = 0, extended as a biderivation through

    {f, g*h} = {f,g}*h + (-1)^{(|f|-n)|g|} g*{f,h}
    {f*g, h} = f*{g,h} + (-1)^{|g|(|h|-n)} {f,h}*g

with no closed sign formula anywhere: term-level signs come from these two
rules alone.  The same extension engine drives every other bracket in the
package (Schouten, Lie-Poisson), each from its own generator table.

Lie algebroids, Lie bialgebroids and their homotopy versions are all a
degree-three H on T*[2]V[1] with {H, H} = 0; `Hamiltonian` is the one
frozen value for every one of them, from spec file to operator action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from .errors import ChartMismatch, DegreeMismatch, NotSplit
from .gpoly import (
    Chart, GPoly, GVar, KIND_BASE, KIND_FIBER, KIND_MOMENTUM_BASE,
    KIND_MOMENTUM_FIBER, MOMENTUM_KINDS, image_legs, inject, mul_monomial,
    pull_legs,
)
from .report import Report


class SymplecticChart:
    """T*[n] of a graded chart: coordinates first, conjugate momenta after."""

    def __init__(self, base: Chart, momenta: Sequence[GVar], shift: int):
        if len(base.vars) != len(momenta):
            raise ChartMismatch("coordinates and momenta must pair up")
        for q, p in zip(base.vars, momenta):
            if q.degree + p.degree != shift:
                raise DegreeMismatch(
                    f"|{p.name}| + |{q.name}| must equal {shift}")
        self.shift = shift
        self.npairs = len(momenta)
        self.base_chart = base
        self.chart = base.extend(momenta)

    def __eq__(self, other):
        return (isinstance(other, SymplecticChart) and self.chart == other.chart
                and self.shift == other.shift)

    def __hash__(self):
        return hash((self.chart, self.shift))

    def __repr__(self):
        return f"SymplecticChart(n={self.shift}, {self.chart!r})"

    def coords(self):
        return self.chart.vars[:self.npairs]

    def momenta(self):
        return self.chart.vars[self.npairs:]

    def momentum_of(self, name: str) -> GVar:
        k = self.chart.index_of(name)
        if k >= self.npairs:
            raise ChartMismatch(f"{name!r} is already a momentum")
        return self.chart.vars[k + self.npairs]


def shifted_cotangent(base: Chart, n: int,
                      momentum_names: Optional[Sequence[str]] = None) -> SymplecticChart:
    """Build T*[n] of `base`, generating momenta named `q*` by default."""
    for v in base.vars:
        if v.kind not in (KIND_BASE, KIND_FIBER):
            raise NotSplit("base chart of a cotangent bundle takes base/fiber "
                           "coordinates only")
    if momentum_names is None:
        momentum_names = [v.name + "*" for v in base.vars]
    if len(momentum_names) != len(base.vars):
        raise ChartMismatch("one momentum name per coordinate")
    taken = set(base.names)
    momenta = []
    for v, name in zip(base.vars, momentum_names):
        if name in taken:
            raise ChartMismatch(f"momentum name collision: {name!r}")
        taken.add(name)
        kind = KIND_MOMENTUM_BASE if v.kind == KIND_BASE else KIND_MOMENTUM_FIBER
        momenta.append(GVar(name, n - v.degree, kind))
    return SymplecticChart(base, momenta, n)


def _split_base_fiber(sc: SymplecticChart):
    base = [v for v in sc.coords() if v.kind == KIND_BASE]
    fiber = [v for v in sc.coords() if v.kind == KIND_FIBER]
    if len(base) + len(fiber) != sc.npairs:
        raise NotSplit("chart lacks the base/fiber partition")
    order = [v.kind for v in sc.coords()]
    if order != sorted(order, key=lambda k: 0 if k == KIND_BASE else 1):
        raise NotSplit("base coordinates must precede fiber coordinates")
    return base, fiber


def twin_chart(sc: SymplecticChart) -> SymplecticChart:
    """The Legendre twin: fiber coordinates and their momenta swap roles.

    For T*[n]V[1] with coordinates (x, xi, x*, xi*) the twin is T*[n]V*[1]
    with coordinates (x, xi*) and momenta (x*, xi); variable names are reused
    and only their roles change.
    """
    base, fiber = _split_base_fiber(sc)
    mom = {v.name: sc.momentum_of(v.name) for v in sc.coords()}
    coords = list(base) + [GVar(mom[v.name].name, mom[v.name].degree, KIND_FIBER)
                           for v in fiber]
    momenta = ([GVar(mom[v.name].name, mom[v.name].degree, KIND_MOMENTUM_BASE)
                for v in base]
               + [GVar(v.name, v.degree, KIND_MOMENTUM_FIBER) for v in fiber])
    return SymplecticChart(Chart(coords), momenta, sc.shift)


# -- the biderivation extension engine ---------------------------------------


def biderivation_bracket(f: GPoly, g: GPoly, shift: int,
                         pair: Callable[[int, int], Optional[GPoly]]) -> GPoly:
    """Extend a generator table to a bracket of degree -shift.

    `pair(k, l)` returns {v_k, v_l} for chart indices k, l (None for zero);
    it is called once per variable v_k of f and v_l of g.  The extension
    applies the two Leibniz rules recursively; it never uses a closed sign
    formula.  The first rule peels the right monomial m2 for {v_k, m2}; the
    second peels the left monomial m1 against a whole part G of g, from the
    sums {v_k, G} = sum c2 {v_k, m2}.  Its sign (-1)^{|rest|(|m2|-n)} reads
    m2 only through the parity of |m2| - n, so with g split once by that
    parity, one sign per part is exact.

    By those rules every term of {m1, m2} carries a factor {v_k, v_l} with
    v_k in m1 and v_l in m2.  So a bracket at any level of the recursion is
    zero, and is not computed, when no such value is non-zero: `hits[k]` is
    the fields of the variables of g that v_k has a non-zero value with, and
    `reach` the fields of the variables of f whose {v_k, G} is non-zero.
    """
    chart = f.chart
    if g.chart != chart:
        raise ChartMismatch("bracket operands live on different charts")
    degs = chart.degrees
    units = chart.units
    odd = chart.odd_bits
    field_at = chart.field_at
    fields = [mask << at for mask, at in zip(chart.exp_masks, chart.shifts)]
    zero = chart.zero()

    def variables(p):
        # the variables of p: or-ing keys never carries into another field
        bits = 0
        for m in p.terms:
            bits |= m
        return [k for k, _ in chart.fields(bits)]

    g_vars = variables(g)
    table = {}   # (k, l) -> {v_k, v_l}, or None when it is zero
    hits = {}
    for k in variables(f):
        hits[k] = 0
        for l in g_vars:
            value = table[k, l] = pair(k, l) or None
            if value is not None:
                hits[k] |= fields[l]

    vb_memo = {}

    def vbracket(k, m2):
        # {v_k, m2} by peeling the first variable of m2
        if not m2 & hits[k]:
            return zero
        key = (k, m2)
        if key in vb_memo:
            return vb_memo[key]
        first = field_at[(m2 & -m2).bit_length()]
        rest = m2 - units[first]
        parts = []
        head = table[k, first]
        if head is not None:
            parts.append(mul_monomial(head, rest))
        tail = vbracket(k, rest)
        if tail:
            s = (degs[k] - shift) * degs[first]
            parts.append(mul_monomial(tail, units[first], left=True,
                                      coeff=-1 if s % 2 else 1))
        out = vb_memo[key] = parts[0] if len(parts) == 1 else chart.sum(parts)
        return out

    def left_terms(part, parity):
        # (c1, {m1, G}) for the monomials m1 of f that reach the part G of g,
        # whose monomials all have |m2| - n of the given parity
        vg = {k: value for k, h in hits.items()
              if h and (value := chart.sum((c2, vbracket(k, m2))
                                           for m2, c2 in part.items()
                                           if m2 & h))}
        reach = sum(fields[k] for k in vg)
        memo = {}

        def mbracket(m1):
            # {m1, G} by peeling the first variable of m1, which meets reach
            if m1 in memo:
                return memo[m1]
            first = field_at[(m1 & -m1).bit_length()]
            rest = m1 - units[first]
            parts = []
            if rest & reach:
                t1 = mbracket(rest)
                if t1:
                    parts.append(mul_monomial(t1, units[first], left=True))
            t2 = vg.get(first)
            if t2 is not None:
                # the degree parity of a monomial is that of its odd bits
                s = (rest & odd).bit_count() & parity
                parts.append(mul_monomial(t2, rest, coeff=-1 if s else 1))
            out = memo[m1] = parts[0] if len(parts) == 1 else chart.sum(parts)
            return out

        return [(c1, mbracket(m1)) for m1, c1 in f.terms.items()
                if m1 & reach]

    split = ({}, {})
    for m2, c2 in g.terms.items():
        split[((m2 & odd).bit_count() - shift) & 1][m2] = c2
    return chart.sum(term for parity, part in enumerate(split) if part
                     for term in left_terms(part, parity))


@dataclass(frozen=True)
class BracketContext:
    """A chart together with a bracket on it, for Poisson-map checking."""

    label: str
    chart: Chart
    shift: int
    bracket: Callable[[GPoly, GPoly], GPoly]


def canonical_bracket(f: GPoly, g: GPoly, sc: SymplecticChart) -> GPoly:
    """The canonical degree-(-n) bracket of T*[n], {p_i, q^j} = delta_i^j."""
    if f.chart != sc.chart or g.chart != sc.chart:
        raise ChartMismatch("operands must live on the symplectic chart")
    n = sc.shift
    degs = sc.chart.degrees
    npairs = sc.npairs

    one = sc.chart.one()

    def pair(k, l):
        if k >= npairs and l < npairs:            # {p, q}
            return one if k - npairs == l else None
        if k < npairs and l >= npairs and l - npairs == k:   # {q, p}
            s = (degs[k] - n) * (degs[l] - n)
            return one if s % 2 else -one
        return None

    return biderivation_bracket(f, g, n, pair)


def canonical_context(sc: SymplecticChart, label: str = "canonical") -> BracketContext:
    return BracketContext(label, sc.chart, sc.shift,
                          lambda f, g: canonical_bracket(f, g, sc))


# -- Hamiltonians -------------------------------------------------------------


@dataclass(frozen=True)
class Hamiltonian:
    """A polynomial on a shifted cotangent chart with derived classification.

    `bialgebroid.check_linfty`, not construction, checks the
    homotopy-structure conditions.
    """

    chart: SymplecticChart
    body: GPoly
    # the operator action's split of the body, per hbar cap
    # (`bialgebroid._word_split`)
    _word_splits: dict = field(default_factory=dict, init=False,
                               compare=False, repr=False)

    def __post_init__(self):
        if self.body.chart != self.chart.chart:
            raise ChartMismatch("body must live on the symplectic chart")

    def classification(self):
        """(total degree or None, momentum weights, fiber weights): always
        recomputed from the body."""
        return (self.body.degree(),
                self.body.kind_weights(MOMENTUM_KINDS),
                self.body.kind_weights((KIND_FIBER,)))


def hamiltonian_lift(sc: SymplecticChart, components: Mapping[str, GPoly]) -> GPoly:
    """Lift a vector field Q = sum Q^i d/dq^i to mu_Q = sum Q^i p_i."""
    return sc.chart.sum(
        inject(comp, sc.chart) * sc.chart.var_poly(sc.momentum_of(name).name)
        for name, comp in components.items() if comp)


def is_integrable(ham: Hamiltonian):
    """Return ({H, H}, {H, H} == 0) for a Hamiltonian.

    The bracket runs over integers: with d the lcm of the denominators of
    H, {dH, dH} = d^2 {H, H}, since the bracket is bilinear, and dH and
    every generator value (+-1) are integral.  Dividing by d^2 is exact.
    """
    d = math.lcm(*(c.denominator for c in ham.body.terms.values()
                   if c.__class__ is not int))
    scaled = ham.body * d
    residual = canonical_bracket(scaled, scaled, ham.chart) / (d * d)
    return residual, residual.is_zero()


# -- polynomial maps ----------------------------------------------------------


class PolyMap:
    """A graded-manifold morphism in coordinates: each target coordinate is
    assigned a source polynomial of the same degree, with zero constant term
    (basepoints go to basepoints); fiber-direction targets pull back to
    polynomials with no base-only monomials.  An unassigned coordinate maps
    to its same-degree namesake on the source.  The map keeps the legs that
    `gpoly.image_legs` checked once, so `pullback` checks nothing per call.
    """

    def __init__(self, source: Chart, target: Chart,
                 assignment: Mapping[str, GPoly]):
        self.source = source
        self.target = target
        self.assignment = dict(assignment)
        self._legs = image_legs(target, self.assignment, source)
        src_kinds = source.kinds
        for name, img in self.assignment.items():
            if img.constant_term() != 0:
                raise DegreeMismatch(
                    f"image of {name!r} must preserve the basepoint "
                    "(zero constant term)")
            if target.var(name).kind != KIND_BASE and any(
                    all(src_kinds[i] == KIND_BASE for i, _ in source.fields(m))
                    for m in img.terms):
                raise DegreeMismatch(
                    f"image of {name!r} must vanish on the zero section")

    def image_of(self, name: str) -> GPoly:
        img = self.assignment.get(name)
        if img is None:
            img = self.source.var_poly(name)
        return img

    def pullback(self, poly: GPoly) -> GPoly:
        if poly.chart != self.target:
            raise ChartMismatch("pullback input must live on the target chart")
        return pull_legs(poly, self._legs, self.source)

    def then(self, other: "PolyMap") -> "PolyMap":
        """Composition: self followed by other (source -> other.target)."""
        if other.source != self.target:
            raise ChartMismatch("charts do not compose")
        assignment = {v.name: self.pullback(other.image_of(v.name))
                      for v in other.target.vars}
        return PolyMap(self.source, other.target, assignment)

    def is_identity(self) -> bool:
        if self.source != self.target:
            return False
        return all(self.image_of(v.name) == self.source.var_poly(v.name)
                   for v in self.target.vars)

    def __repr__(self):
        inner = ", ".join(f"{v.name} -> {self.image_of(v.name)!r}"
                          for v in self.target.vars)
        return f"PolyMap({inner})"


def legendre(sc: SymplecticChart) -> PolyMap:
    """The coordinate exchange identifying T*[n]V[1] with T*[n]V*[1].

    On a classical chart this is (x, xi, x*, xi*) -> (x, xi*, x*, xi); for a
    fiber coordinate of even degree the momentum leg carries the sign that
    keeps the pullback a bracket morphism.
    """
    base, fiber = _split_base_fiber(sc)
    twin = twin_chart(sc)
    assignment = {}
    for v in base:
        assignment[v.name] = sc.chart.var_poly(v.name)
        mom = sc.momentum_of(v.name).name
        assignment[mom] = sc.chart.var_poly(mom)
    for v in fiber:
        mom = sc.momentum_of(v.name).name
        assignment[mom] = sc.chart.var_poly(mom)   # twin fiber coordinate
        img = sc.chart.var_poly(v.name)            # twin momentum of that fiber
        if v.parity == 0:
            img = -img
        assignment[v.name] = img
    return PolyMap(sc.chart, twin.chart, assignment)


def check_poisson_map(f: PolyMap, src: BracketContext,
                      tgt: BracketContext) -> Report:
    """Verify f*{a,b}_tgt = {f*a, f*b}_src on all target generator pairs.

    This decides whether f* preserves the brackets: both sides are
    biderivations along the algebra map f*, so they agree on every pair of
    polynomials exactly when they agree on every pair of generators, and
    graded skew-symmetry of both brackets gives (b, a) from (a, b)."""
    if f.source != src.chart or f.target != tgt.chart:
        raise ChartMismatch("map endpoints do not match the bracket contexts")
    report = Report(f"poisson-map {src.label} -> {tgt.label}")
    names = tgt.chart.names
    for i, a in enumerate(names):
        for b in names[i:]:
            pa, pb = tgt.chart.var_poly(a), tgt.chart.var_poly(b)
            lhs = f.pullback(tgt.bracket(pa, pb))
            rhs = src.bracket(f.pullback(pa), f.pullback(pb))
            report.add(f"pair({a},{b})",
                       "pullback of {a,b} equals {pullback a, pullback b}",
                       lhs - rhs)
    return report
