"""Exact graded-commutative polynomial arithmetic with Koszul signs.

A chart fixes an ordered list of graded variables; monomials are stored in
chart order, and every reordering performed during arithmetic contributes the
Koszul sign (-1)^{|x||y|} per transposition of odd variables.  Odd variables
square to zero.

A monomial is stored as one `int` key (`Chart.pack`).  Variable i owns a bit
field at `Chart.shifts[i]`: one exponent bit for an odd variable, fifteen for
an even one, each topped by a guard bit that catches a carry.  One more field
above all of them holds the weight.  So a product of monomials is the sum of
their keys, a monomial's weight is a shift, an odd square is
`k1 & k2 & chart.odd_bits`, and the Koszul sign is the parity of the
crossings of the odd bits.  Exponent tuples appear only at the edges, through
`Chart.pack` and `Chart.unpack`.

Coefficients are exact rationals, stored as an `int` when integral and as a
`Fraction` only when they have a denominator; every constructor and every
accumulation returns that form.  All derivatives are LEFT derivatives:
d_v(f*g) = d_v(f)*g + (-1)^{|v||f|} f*d_v(g).

Values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from .errors import (ChartMismatch, DegreeMismatch, ExponentOverflow, OddSquare,
                     UndeclaredVariable)

KIND_BASE = "base"
KIND_FIBER = "fiber"
KIND_MOMENTUM_BASE = "momentum-base"
KIND_MOMENTUM_FIBER = "momentum-fiber"
KIND_FORMAL = "formal-parameter"

KINDS = (KIND_BASE, KIND_FIBER, KIND_MOMENTUM_BASE, KIND_MOMENTUM_FIBER, KIND_FORMAL)

MOMENTUM_KINDS = (KIND_MOMENTUM_BASE, KIND_MOMENTUM_FIBER)
FIBER_DIRECTION_KINDS = (KIND_FIBER, KIND_MOMENTUM_FIBER)

Scalar = Union[int, Fraction]

_WIDTH = (16, 2)   # bits of the field of an even and of an odd variable,
#                    its guard bit included
MAX_EXPONENT = (1 << (_WIDTH[0] - 1)) - 1   # of an even variable


def _reduce(c: Scalar) -> Scalar:
    """An integral Fraction as its int; any other scalar unchanged."""
    if c.__class__ is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _scalar(c) -> Scalar:
    """Any exact number as a stored coefficient: an int when integral."""
    return c if c.__class__ is int else _reduce(Fraction(c))


@dataclass(frozen=True)
class GVar:
    """A named graded variable; parity is the degree mod 2, never stored."""

    name: str
    degree: int
    kind: str = KIND_BASE
    index: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown variable kind {self.kind!r}")

    @property
    def parity(self) -> int:
        return self.degree % 2

    @property
    def weight(self) -> int:
        # formal-series weight: base directions are weight 0, all others 1
        return 0 if self.kind == KIND_BASE else 1

    def __repr__(self):
        return f"GVar({self.name!r}, {self.degree})"


VarSpec = Union[GVar, tuple]


def _make_vars(variables: Iterable[VarSpec]):
    out = []
    for pos, v in enumerate(variables):
        if isinstance(v, GVar):
            if v.index != pos:
                v = replace(v, index=pos)
        else:
            name, degree = v[0], v[1]
            kind = v[2] if len(v) > 2 else KIND_BASE
            v = GVar(str(name), int(degree), kind, pos)
        out.append(v)
    return tuple(out)


class Chart:
    """An ordered graded coordinate system.

    The declaration order is the canonical monomial order.  The chart also
    fixes the packed layout of its monomial keys, whose top field holds the
    weight (base directions carry weight 0, all others 1).
    """

    __slots__ = ("vars", "names", "degrees", "parities", "weights",
                 "kinds", "_index", "shifts", "exp_masks", "units", "odd_bits",
                 "guard_bits", "wshift", "var_bits", "field_at")

    def __init__(self, variables: Iterable[VarSpec]):
        self.vars = _make_vars(variables)
        self.names = tuple(v.name for v in self.vars)
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be unique within a chart")
        self.degrees = tuple(v.degree for v in self.vars)
        self.parities = tuple(v.parity for v in self.vars)
        self.weights = tuple(v.weight for v in self.vars)
        self.kinds = tuple(v.kind for v in self.vars)
        self._index = {v.name: v.index for v in self.vars}
        self.exp_masks = tuple((1 << (_WIDTH[p] - 1)) - 1 for p in self.parities)
        self.wshift = wshift = sum(_WIDTH[p] for p in self.parities)
        self.var_bits = (1 << wshift) - 1
        shifts, units = [], []
        field_at = [None]   # bit length of a key's lowest set bit -> variable
        odd_bits = guard_bits = pos = 0
        for i, (p, w) in enumerate(zip(self.parities, self.weights)):
            width = _WIDTH[p]
            shifts.append(pos)
            units.append((1 << pos) + (w << wshift))
            field_at += (i,) * width
            if p:
                odd_bits |= 1 << pos
            pos += width
            guard_bits |= 1 << (pos - 1)
        self.shifts, self.units = tuple(shifts), tuple(units)
        self.field_at = tuple(field_at)
        self.odd_bits, self.guard_bits = odd_bits, guard_bits

    def __eq__(self, other):
        return isinstance(other, Chart) and self.vars == other.vars

    def __hash__(self):
        return hash(self.vars)

    def __repr__(self):
        inner = ", ".join(f"{v.name}:{v.degree}" for v in self.vars)
        return f"Chart({inner})"

    def __len__(self):
        return len(self.vars)

    def var(self, name: str) -> GVar:
        try:
            return self.vars[self._index[name]]
        except KeyError:
            raise UndeclaredVariable(name) from None

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UndeclaredVariable(name) from None

    def has(self, name: str) -> bool:
        return name in self._index

    def extend(self, variables: Iterable[VarSpec]) -> "Chart":
        """This chart followed by `variables`."""
        return Chart(self.vars + tuple(variables))

    def sum(self, polys: Iterable) -> "GPoly":
        """The sum of polynomials on this chart, built in one fresh dict.

        A summand is a polynomial or a pair (scalar, polynomial); a pair adds
        the scaled polynomial without building it (`add_into`).  The summands
        are never mutated.
        """
        res = {}
        for p in polys:
            if p.__class__ is tuple:
                k, p = p
            else:
                k = 1
            if p.chart is not self and p.chart != self:
                raise ChartMismatch(f"{self!r} vs {p.chart!r}")
            add_into(res, p, k)
        return GPoly._raw(self, res)

    # -- packed monomial keys ---------------------------------------------

    def pack(self, exps: Iterable[int]) -> int:
        """The key of the monomial with exponents `exps` in chart order."""
        exps = tuple(exps)
        if len(exps) != len(self.vars):
            raise ValueError("exponent tuple length does not match chart")
        key = 0
        for e, v, mask, unit in zip(exps, self.vars, self.exp_masks,
                                    self.units):
            e = operator.index(e)
            if e < 0:
                raise ValueError("negative exponent")
            if e > mask:
                if v.parity:
                    raise OddSquare(v.name)
                raise ExponentOverflow(
                    f"exponent of {v.name!r} is above {MAX_EXPONENT}")
            key += e * unit
        return key

    def unpack(self, key: int) -> tuple:
        """The exponent tuple, in chart order, of the monomial `key`."""
        return tuple((key >> s) & mask
                     for s, mask in zip(self.shifts, self.exp_masks))

    def fields(self, key: int) -> list:
        """(index, exponent) of each variable of the monomial `key`, in
        chart order, peeling the lowest set field."""
        key &= self.var_bits
        field_at, shifts, masks = self.field_at, self.shifts, self.exp_masks
        out = []
        while key:
            i = field_at[(key & -key).bit_length()]
            e = (key >> shifts[i]) & masks[i]
            out.append((i, e))
            key ^= e << shifts[i]
        return out

    def carry_error(self, key: int) -> ExponentOverflow:
        """The error for a sum of keys that carried into a guard bit."""
        guard = key & self.guard_bits
        i = self.field_at[(guard & -guard).bit_length()]
        return ExponentOverflow(f"exponent of {self.names[i]!r} is above "
                                f"{self.exp_masks[i]}")

    # -- polynomial constructors ------------------------------------------

    def zero(self) -> "GPoly":
        return GPoly(self, {})

    def one(self) -> "GPoly":
        return self.const(1)

    def const(self, c: Scalar) -> "GPoly":
        c = _scalar(c)
        if c == 0:
            return self.zero()
        return GPoly._raw(self, {0: c})

    def var_poly(self, name: str) -> "GPoly":
        return GPoly(self, {self.units[self.index_of(name)]: 1})

    def monomial_weight(self, key: int) -> int:
        return key >> self.wshift

    def monomial_degree(self, key: int) -> int:
        if not key:
            return 0
        degrees = self.degrees
        return sum(e * degrees[i] for i, e in self.fields(key))

    def kind_weight(self, key: int, kinds) -> int:
        own = self.kinds
        return sum(e for i, e in self.fields(key) if own[i] in kinds)


@dataclass(frozen=True)
class Monomial:
    """A normal-ordered monomial on a chart (exponents in chart order)."""

    chart: Chart
    exps: tuple

    def __post_init__(self):
        self.chart.pack(self.exps)   # validates the exponents

    @property
    def key(self) -> int:
        return self.chart.pack(self.exps)

    @property
    def degree(self) -> int:
        return self.chart.monomial_degree(self.key)

    @property
    def weight(self) -> int:
        return self.chart.monomial_weight(self.key)

    def __repr__(self):
        return render_monomial(self.chart, self.exps) or "1"


def mono_normalize(chart: Chart, word: Iterable) -> tuple:
    """Normal-order a word of variable powers.

    `word` is a sequence of variable names, GVars, or (name, exponent)
    pairs, in multiplication order.  Returns (sign, Monomial); raises
    OddSquare when an odd variable repeats (the zero case).
    """
    factors = []
    for w in word:
        if isinstance(w, GVar):
            factors.append((chart.index_of(w.name), 1))
        elif isinstance(w, str):
            factors.append((chart.index_of(w), 1))
        else:
            name, e = w
            idx = chart.index_of(name if isinstance(name, str) else name.name)
            factors.append((idx, int(e)))
    parities = chart.parities
    exps = [0] * len(chart.vars)
    sign = 1
    # odd variables currently to the RIGHT of the insertion point flip the sign
    for idx, e in factors:
        if e < 0:
            raise ValueError("negative exponent")
        for _ in range(e):
            if parities[idx]:
                if exps[idx]:
                    raise OddSquare(chart.names[idx])
                crossings = sum(exps[j] for j in range(idx + 1, len(exps))
                                if parities[j])
                if crossings % 2:
                    sign = -sign
            exps[idx] += 1
    return sign, Monomial(chart, tuple(exps))


def _sign_mask(odd: int, left: bool) -> int:
    """The bits that flip the Koszul sign of a product with the odd bits
    `odd` of one factor: the product of that factor by `a` (`left`), or of
    `a` by it, carries (-1)^popcount(mask & odd bits of a).

    A bit of `a` is set in the mask when it crosses an odd number of bits of
    `odd`: those above it when `odd` is on the left, those below it when
    `odd` is on the right.  The parity is that of the crossings summed over
    the set bits `low` of the left factor's odd bits,
    `(right odd bits & (low - 1)).bit_count()`.
    """
    mask = 0
    while odd:
        low = odd & -odd
        mask ^= low - 1 if left else -(low << 1)
        odd ^= low
    return mask


class GPoly:
    """A graded-commutative polynomial: finite map monomial key ->
    coefficient, the keys packed by `Chart.pack`."""

    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, terms: dict):
        self.chart = chart
        clean = {}
        for m, c in terms.items():
            if m.__class__ is not int:
                raise TypeError("monomial keys are packed ints (Chart.pack)")
            c = _scalar(c)
            if c == 0:
                continue
            clean[m] = c
        self.terms = clean

    @classmethod
    def _raw(cls, chart, terms):
        p = object.__new__(cls)
        p.chart = chart
        p.terms = terms
        return p

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, GPoly):
            return NotImplemented
        return self.chart.sum((self, other))

    def __sub__(self, other):
        if not isinstance(other, GPoly):
            return NotImplemented
        return self.chart.sum((self, (-1, other)))

    def __neg__(self):
        return GPoly._raw(self.chart, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _scalar(other)
            if c == 0:
                return self.chart.zero()
            return GPoly._raw(self.chart,
                              {m: _reduce(k * c) for m, k in self.terms.items()})
        if not isinstance(other, GPoly):
            return NotImplemented
        chart = self.chart
        if chart is not other.chart and chart != other.chart:
            raise ChartMismatch(f"{chart!r} vs {other.chart!r}")
        res = {}
        mul_into(res, self, other)
        return GPoly._raw(chart, res)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)) and other != 0:
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = self.chart.one()
        for _ in range(n):
            out = out * self
        return out

    # -- structure queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, GPoly) and self.chart == other.chart
                and self.terms == other.terms)

    __hash__ = None

    def degree(self) -> Optional[int]:
        """Total degree when homogeneous; None for 0 or mixed polynomials."""
        degs = {self.chart.monomial_degree(m) for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_homogeneous(self, degree: Optional[int] = None) -> bool:
        if not self.terms:
            return True
        d = self.degree()
        if d is None:
            return False
        return degree is None or d == degree

    def constant_term(self) -> Scalar:
        return self.terms.get(0, 0)

    def component(self, keep) -> "GPoly":
        """Sub-sum of the terms whose exponent tuple satisfies `keep`."""
        unpack = self.chart.unpack
        return GPoly._raw(self.chart, {m: c for m, c in self.terms.items()
                                       if keep(unpack(m))})

    def kind_weights(self, kinds) -> frozenset:
        return frozenset(self.chart.kind_weight(m, kinds) for m in self.terms)

    def __repr__(self):
        return render_poly(self)


def add_into(acc: dict, p: GPoly, scale: Scalar = 1) -> None:
    """Add scale * p to the terms `acc` in place; a term whose coefficient
    sums to zero leaves `acc`, and every other is stored in canonical form.
    This loop and the one of `insert_into` hold that rule: `Chart.sum` and
    `GPoly.__add__` add by this one, and every product by that one."""
    if not scale:
        return
    for m, c in p.terms.items():
        s = acc.get(m, 0) + (c if scale == 1 else c * scale)
        if s:
            acc[m] = _reduce(s)
        else:
            del acc[m]


def mul_into(acc: dict, p: GPoly, q: GPoly, scale: Scalar = 1) -> None:
    """Add scale * p * q to the terms `acc` in place: one `insert_into` per
    term of the operand with fewer terms, the other operand placed beside
    it.  The charts of p and q are the caller's to check."""
    if not scale:
        return
    odd = p.chart.odd_bits
    if len(p.terms) < len(q.terms):
        for m1, c1 in p.terms.items():
            insert_into(acc, q, _split(odd, m1, m1 & odd, 0), c1 * scale)
    else:
        for m2, c2 in q.terms.items():
            insert_into(acc, p, _split(odd, m2, 0, m2 & odd), c2 * scale)


def mul_monomial(p: GPoly, m: int, left: bool = False,
                 coeff: Scalar = 1) -> GPoly:
    """p times the term `coeff` * (the monomial with key `m`), or that term
    times p when `left` (`insert_into`)."""
    odd = p.chart.odd_bits
    below, above = (m & odd, 0) if left else (0, m & odd)
    res = {}
    if coeff:
        insert_into(res, p, _split(odd, m, below, above), coeff)
    return GPoly._raw(p.chart, res)


def _split(odd: int, outside: int, below: int, above: int) -> tuple:
    """The split that `insert_into` reads to put a polynomial between a
    prefix and a rest with odd bits `below` and `above` whose keys sum to
    `outside`: that key, the odd bits taken, and the Koszul sign mask."""
    return (outside, below | above,
            (_sign_mask(below, True) ^ _sign_mask(above, False)) & odd)


def splits(chart: Chart, m: int) -> list:
    """The monomial `m` as prefix * v_i * rest at each of its variables v_i,
    lowest field first: (field of v_i, i, exponent e of v_i, split, parity
    of |prefix|, parity of |rest|), where rest keeps e - 1 factors v_i.

    The prefix is the product of the variables below v_i in chart order,
    which is its own normal form with sign +1; `split` is what `insert_into`
    reads to put a polynomial in the place of v_i.  All e places of an even
    v_i give the same split, since moving an even factor costs no sign."""
    odd = chart.odd_bits
    units, shifts, masks = chart.units, chart.shifts, chart.exp_masks
    below = 0   # the odd bits of the prefix
    out = []
    for i, e in chart.fields(m):
        own = masks[i] << shifts[i]
        above = (m & odd) ^ below ^ (own & odd)
        out.append((own, i, e, _split(odd, m - units[i], below, above),
                    below.bit_count() & 1, above.bit_count() & 1))
        below |= own & odd
    return out


def insert_into(acc: dict, p: GPoly, split: tuple, scale: Scalar) -> None:
    """Add scale * prefix * p * rest to the terms `acc` by the rule of
    `add_into`, for a `split` (prefix + rest as one key, the odd bits of
    prefix and rest, the sign mask of p between them) from `_split`.  It is
    the one loop that writes a signed product: a term of p that shares an
    odd variable with prefix or rest gives zero, and the Koszul sign counts
    the odd bits of the prefix above and of the rest below each of its own."""
    outside, taken, flips = split
    chart = p.chart
    guard = chart.guard_bits
    for e, c in p.terms.items():
        if e & taken:
            continue
        m = outside + e
        if m & guard:
            raise chart.carry_error(m)
        c = c * scale
        if (e & flips).bit_count() & 1:
            c = -c
        s = acc.get(m, 0) + c
        if s:
            acc[m] = _reduce(s)
        else:
            del acc[m]


def left_step(chart: Chart, k: int) -> tuple:
    """(unit, shift, mask, below) of the left derivative by variable k: it
    sends a key m whose exponent e = (m >> shift) & mask is non-zero to
    e times m - unit, negated when (m & below) has an odd bit count.  That
    is the sign rule of `partial_left`: moving an odd v_k to the front
    crosses the odd variables before it."""
    shift = chart.shifts[k]
    below = chart.odd_bits & ((1 << shift) - 1) if chart.parities[k] else 0
    return chart.units[k], shift, chart.exp_masks[k], below


def partial_left(f: GPoly, v) -> GPoly:
    """Left derivative of f by the variable v (a GVar or name)."""
    chart = f.chart
    unit, shift, mask, below = left_step(
        chart, chart.index_of(v if isinstance(v, str) else v.name))
    res = {}
    for m, c in f.terms.items():
        e = (m >> shift) & mask
        if not e:
            continue
        c = _reduce(c * e)
        res[m - unit] = -c if (m & below).bit_count() & 1 else c
    return GPoly._raw(chart, res)


def image_legs(chart: Chart, images: Mapping[str, "GPoly"],
               target: Chart) -> list:
    """The leg, in chart order, of each variable of `chart` under the
    algebra map onto `target` that sends the variables named in `images`
    to their images, homogeneous polynomials of the same degree on
    `target`; a leg is that image, or the index of the same-degree namesake
    on `target` that an unnamed variable maps to.  This is the one check of
    map images: `substitute`, `PolyMap` and `FullMorphism` all use it."""
    for name in images:
        chart.index_of(name)  # raises UndeclaredVariable
    legs = []
    for v in chart.vars:
        img = images.get(v.name)
        if img is None:
            if not target.has(v.name) or target.var(v.name).degree != v.degree:
                raise DegreeMismatch(
                    f"variable {v.name!r} has no image and no same-degree "
                    f"counterpart on {target!r}")
            legs.append(target.index_of(v.name))
        elif img.chart != target:
            raise ChartMismatch(f"image of {v.name!r} must live on {target!r}")
        elif not img.is_homogeneous(v.degree):
            raise DegreeMismatch(
                f"image of {v.name!r} must be homogeneous of degree {v.degree}")
        else:
            legs.append(img)
    return legs


def pull_legs(f: GPoly, legs: list, target: Chart) -> GPoly:
    """f under the algebra map with the checked `legs` (`image_legs`) of its
    chart's variables; an identity leg is a monomial shift."""
    units = target.units

    def image(m, c):
        part = target.const(c)
        for idx, e in f.chart.fields(m):
            leg = legs[idx]
            if leg.__class__ is int:
                part = mul_monomial(part, e * units[leg])
            else:
                for _ in range(e):
                    part = part * leg
            if not part:
                return part
        return part

    return target.sum(image(m, c) for m, c in f.terms.items())


def substitute(f: GPoly, assignment: Mapping[str, GPoly],
               target: Optional[Chart] = None) -> GPoly:
    """Apply the algebra map sending each variable named in `assignment` to
    its polynomial on `target`, and every other variable to its namesake
    there (`image_legs`)."""
    if target is None:
        target = next((p.chart for p in assignment.values()), f.chart)
    return pull_legs(f, image_legs(f.chart, assignment, target), target)


def inject(f: GPoly, target: Chart) -> GPoly:
    """Re-express f on a larger chart containing all its variables by name."""
    return substitute(f, {}, target=target)


# -- vector fields ---------------------------------------------------------


def apply_vector_field(comps: Mapping[str, GPoly], f: GPoly) -> GPoly:
    """Apply Q = sum_v Q^v d_v (left derivatives, coefficients on the left).

    A component multiplies its derivative only when both are non-zero, and
    each product is added into one dict (`mul_into`)."""
    chart = f.chart
    res = {}
    for name, q in comps.items():
        if q:
            if q.chart is not chart and q.chart != chart:
                raise ChartMismatch(f"{q.chart!r} vs {chart!r}")
            deriv = partial_left(f, name)
            if deriv:
                mul_into(res, q, deriv)
    return GPoly._raw(chart, res)


def vector_field_commutator(chart: Chart, q1: Mapping[str, GPoly],
                            q2: Mapping[str, GPoly]) -> dict:
    """Graded commutator of two polynomial vector fields on a chart.

    Works for arbitrary (inhomogeneous) fields by splitting each component
    into homogeneous derivation degrees.
    """
    def split(q):
        parts = {}
        for name, poly in q.items():
            vdeg = chart.var(name).degree
            for m, c in poly.terms.items():
                d = chart.monomial_degree(m) - vdeg
                parts.setdefault(d, {}).setdefault(name, {})[m] = c
        return {d: {n: GPoly(chart, t) for n, t in comp.items()}
                for d, comp in parts.items()}

    parts = {name: [] for name in chart.names}
    for d1, c1 in split(q1).items():
        for d2, c2 in split(q2).items():
            sign = -1 if (d1 * d2) % 2 else 1
            for name in chart.names:
                if name in c2:
                    parts[name].append(apply_vector_field(c1, c2[name]))
                if name in c1:
                    parts[name].append(-sign * apply_vector_field(c2, c1[name]))
    out = {name: chart.sum(ps) for name, ps in parts.items()}
    return {n: p for n, p in out.items() if p}


# -- monomial enumeration --------------------------------------------------


def enumerate_monomials(chart: Chart, max_weight: int, max_base_degree: int = 2):
    """All exponent tuples of weight <= max_weight.

    Weight-0 (base) variables are bounded by max_base_degree instead.
    """
    outs = [((), 0)]
    for v in chart.vars:
        cap = max_base_degree if v.weight == 0 else (1 if v.parity else max_weight)
        new = []
        for exps, w in outs:
            for e in range(cap + 1):
                if v.parity and e > 1:
                    break
                w2 = w + e * v.weight
                if w2 > max_weight:
                    break
                new.append((exps + (e,), w2))
        outs = new
    return [e for e, _ in outs]


# -- rendering ---------------------------------------------------------------


def render_monomial(chart: Chart, exps) -> str:
    parts = []
    for v, e in zip(chart.vars, exps):
        if e == 1:
            parts.append(v.name)
        elif e > 1:
            parts.append(f"{v.name}^{e}")
    return " * ".join(parts)


def render_poly(p: GPoly) -> str:
    """Deterministic, re-parseable rendering in canonical monomial order."""
    if not p.terms:
        return "0"
    chart = p.chart
    # int order is not tuple order: sort by degree, then exponent tuple
    rows = sorted((chart.monomial_degree(m), chart.unpack(m), c)
                  for m, c in p.terms.items())
    chunks = []
    for _, exps, c in rows:
        mono = render_monomial(chart, exps)
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)} * {mono}"
        chunks.append((c < 0, body))
    first_neg, first = chunks[0]
    out = ("-" if first_neg else "") + first
    for neg, body in chunks[1:]:
        out += (" - " if neg else " + ") + body
    return out
