"""Exact graded-commutative polynomial arithmetic with Koszul signs.

A chart fixes an ordered list of graded variables; monomials are stored in
chart order, and every reordering performed during arithmetic contributes the
Koszul sign (-1)^{|x||y|} per transposition of odd variables.  Odd variables
square to zero.  Coefficients are exact rationals, stored as an `int` when
integral and as a `Fraction` only when they have a denominator; every
constructor and every accumulation returns that form.  All derivatives are LEFT
derivatives: d_v(f*g) = d_v(f)*g + (-1)^{|v||f|} f*d_v(g).

Values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import ChartMismatch, DegreeMismatch, OddSquare, UndeclaredVariable

KIND_BASE = "base"
KIND_FIBER = "fiber"
KIND_MOMENTUM_BASE = "momentum-base"
KIND_MOMENTUM_FIBER = "momentum-fiber"
KIND_FORMAL = "formal-parameter"

KINDS = (KIND_BASE, KIND_FIBER, KIND_MOMENTUM_BASE, KIND_MOMENTUM_FIBER, KIND_FORMAL)

MOMENTUM_KINDS = (KIND_MOMENTUM_BASE, KIND_MOMENTUM_FIBER)
FIBER_DIRECTION_KINDS = (KIND_FIBER, KIND_MOMENTUM_FIBER)

Scalar = Union[int, Fraction]


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

    The declaration order is the canonical monomial order.  An optional
    weight cap `trunc` makes the chart a formal-series ring truncated by the
    ideal of monomials of weight > trunc (base directions carry weight 0).
    """

    __slots__ = ("vars", "trunc", "names", "degrees", "parities", "weights",
                 "kinds", "_index")

    def __init__(self, variables: Iterable[VarSpec], trunc: Optional[int] = None):
        self.vars = _make_vars(variables)
        if trunc is not None and trunc < 0:
            raise ValueError("trunc must be non-negative")
        self.trunc = trunc
        self.names = tuple(v.name for v in self.vars)
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be unique within a chart")
        self.degrees = tuple(v.degree for v in self.vars)
        self.parities = tuple(v.parity for v in self.vars)
        self.weights = tuple(v.weight for v in self.vars)
        self.kinds = tuple(v.kind for v in self.vars)
        self._index = {v.name: v.index for v in self.vars}

    def __eq__(self, other):
        return (isinstance(other, Chart) and self.vars == other.vars
                and self.trunc == other.trunc)

    def __hash__(self):
        return hash((self.vars, self.trunc))

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
        """This chart followed by `variables`, under the same weight cap."""
        return Chart(self.vars + tuple(variables), trunc=self.trunc)

    def sum(self, polys: Iterable["GPoly"]) -> "GPoly":
        """The sum of polynomials on this chart, built in one fresh dict.

        The summands are never mutated: memoised bracket values share them.
        """
        res = {}
        for p in polys:
            if p.chart != self:
                raise ChartMismatch(f"{self!r} vs {p.chart!r}")
            for m, c in p.terms.items():
                s = res.get(m, 0) + c
                if s:
                    res[m] = _reduce(s)
                else:
                    del res[m]
        return GPoly._raw(self, res)

    # -- polynomial constructors ------------------------------------------

    def zero(self) -> "GPoly":
        return GPoly(self, {})

    def one(self) -> "GPoly":
        return self.const(1)

    def const(self, c: Scalar) -> "GPoly":
        c = _scalar(c)
        if c == 0:
            return self.zero()
        return GPoly(self, {(0,) * len(self.vars): c})

    def var_poly(self, name: str) -> "GPoly":
        k = self.index_of(name)
        exps = [0] * len(self.vars)
        exps[k] = 1
        return GPoly(self, {tuple(exps): 1})

    def monomial_weight(self, exps: Sequence[int]) -> int:
        return sum(e * w for e, w in zip(exps, self.weights))

    def monomial_degree(self, exps: Sequence[int]) -> int:
        return sum(e * d for e, d in zip(exps, self.degrees))

    def kind_weight(self, exps: Sequence[int], kinds) -> int:
        return sum(e for e, k in zip(exps, self.kinds) if k in kinds)


@dataclass(frozen=True)
class Monomial:
    """A normal-ordered monomial on a chart (exponents in chart order)."""

    chart: Chart
    exps: tuple

    def __post_init__(self):
        if len(self.exps) != len(self.chart.vars):
            raise ValueError("exponent tuple length does not match chart")
        for e, p in zip(self.exps, self.chart.parities):
            if e < 0 or (p and e > 1):
                raise OddSquare("odd variable with exponent > 1")

    @property
    def degree(self) -> int:
        return self.chart.monomial_degree(self.exps)

    @property
    def weight(self) -> int:
        return self.chart.monomial_weight(self.exps)

    def as_poly(self) -> "GPoly":
        return GPoly(self.chart, {self.exps: 1})

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


class GPoly:
    """A graded-commutative polynomial: finite map monomial -> coefficient."""

    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, terms: dict):
        self.chart = chart
        cap = chart.trunc
        clean = {}
        for exps, c in terms.items():
            c = _scalar(c)
            if c == 0:
                continue
            if cap is not None and chart.monomial_weight(exps) > cap:
                continue
            clean[exps] = c
        self.terms = clean

    @classmethod
    def _raw(cls, chart, terms):
        p = object.__new__(cls)
        p.chart = chart
        p.terms = terms
        return p

    # -- ring structure ----------------------------------------------------

    def _check(self, other):
        if self.chart != other.chart:
            raise ChartMismatch(f"{self.chart!r} vs {other.chart!r}")

    def __add__(self, other):
        if not isinstance(other, GPoly):
            return NotImplemented
        self._check(other)
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = res.get(m, 0) + c
            if s:
                res[m] = _reduce(s)
            else:
                res.pop(m, None)
        return GPoly._raw(self.chart, res)

    def __sub__(self, other):
        if not isinstance(other, GPoly):
            return NotImplemented
        self._check(other)
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = res.get(m, 0) - c
            if s:
                res[m] = _reduce(s)
            else:
                res.pop(m, None)
        return GPoly._raw(self.chart, res)

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
        self._check(other)
        parities = self.chart.parities
        cap = self.chart.trunc
        weight = self.chart.monomial_weight
        res = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                merged = _merge_exps(m1, m2, parities)
                if merged is None:
                    continue
                sign, m = merged
                if cap is not None and weight(m) > cap:
                    continue
                c = c1 * c2
                s = res.get(m, 0) + (c if sign > 0 else -c)
                if s:
                    res[m] = _reduce(s)
                else:
                    del res[m]
        return GPoly._raw(self.chart, res)

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
        return self.terms.get((0,) * len(self.chart.vars), 0)

    def monomials(self):
        return [Monomial(self.chart, m) for m in sorted(self.terms)]

    def component(self, keep) -> "GPoly":
        """Sub-sum of the terms whose exponent tuple satisfies `keep`."""
        return GPoly._raw(self.chart,
                          {m: c for m, c in self.terms.items() if keep(m)})

    def split_by(self, key) -> dict:
        out = {}
        for m, c in self.terms.items():
            out.setdefault(key(m), {})[m] = c
        return {k: GPoly._raw(self.chart, v) for k, v in sorted(out.items())}

    def kind_weights(self, kinds) -> frozenset:
        return frozenset(self.chart.kind_weight(m, kinds) for m in self.terms)

    def __repr__(self):
        return render_poly(self)


def mul_monomial(p: GPoly, m: tuple, left: bool = False,
                 coeff: Scalar = 1) -> GPoly:
    """p times the term `coeff` * (monomial with exponents `m`), or that term
    times p when `left`.

    The product is an exponent shift with the Koszul sign of `_merge_exps`,
    under the chart cap.  Shifting by one monomial maps distinct monomials to
    distinct monomials, so no two terms collide.
    """
    chart = p.chart
    parities = chart.parities
    cap = chart.trunc
    weight = chart.monomial_weight
    res = {}
    for e, c in p.terms.items():
        merged = _merge_exps(m, e, parities) if left else \
            _merge_exps(e, m, parities)
        if merged is None:
            continue
        sign, out = merged
        if cap is not None and weight(out) > cap:
            continue
        if coeff != 1:
            c = _reduce(c * coeff)
        res[out] = c if sign > 0 else -c
    return GPoly._raw(chart, res)


def partial_left(f: GPoly, v) -> GPoly:
    """Left derivative of f by the variable v (a GVar or name)."""
    chart = f.chart
    k = chart.index_of(v if isinstance(v, str) else v.name)
    parities = chart.parities
    pk = parities[k]
    res = {}
    for m, c in f.terms.items():
        e = m[k]
        if not e:
            continue
        coeff = c * e
        if pk:
            before = sum(m[j] for j in range(k) if parities[j])
            if before % 2:
                coeff = -coeff
        nm = m[:k] + (e - 1,) + m[k + 1:]
        s = res.get(nm, 0) + coeff
        if s:
            res[nm] = _reduce(s)
        else:
            del res[nm]
    return GPoly._raw(chart, res)


def substitute(f: GPoly, assignment: Mapping, target: Optional[Chart] = None) -> GPoly:
    """Apply the algebra map sending each variable to its assigned polynomial.

    Keys of `assignment` are variable names (or GVars) of f's chart; values
    are homogeneous polynomials of the same degree on `target`.  Unassigned
    variables must exist on `target` with the same degree and map to
    themselves.
    """
    src = f.chart
    images = {}
    for key, val in assignment.items():
        name = key if isinstance(key, str) else key.name
        src.index_of(name)  # raises UndeclaredVariable
        images[name] = val
    if target is None:
        target = next((p.chart for p in images.values()), src)
    # each leg is an image polynomial, or the target index of an unassigned
    # variable: an identity leg, applied as a monomial shift
    legs = []
    for v in src.vars:
        img = images.get(v.name)
        if img is None:
            if not target.has(v.name) or target.var(v.name).degree != v.degree:
                raise DegreeMismatch(
                    f"variable {v.name!r} has no same-degree counterpart on the target chart")
            legs.append(target.index_of(v.name))
        else:
            if img.chart != target:
                raise ChartMismatch("assigned polynomial lives on the wrong chart")
            if not img.is_homogeneous(v.degree):
                raise DegreeMismatch(
                    f"image of {v.name!r} is not homogeneous of degree {v.degree}")
            legs.append(img)

    def image(m, c):
        part = target.const(c)
        for idx, e in enumerate(m):
            if not e:
                continue
            leg = legs[idx]
            if isinstance(leg, int):
                exps = [0] * len(target.vars)
                exps[leg] = e
                part = mul_monomial(part, tuple(exps))
            else:
                for _ in range(e):
                    part = part * leg
            if not part:
                return part
        return part

    return target.sum(image(m, c) for m, c in f.terms.items())


def inject(f: GPoly, target: Chart) -> GPoly:
    """Re-express f on a larger chart containing all its variables by name."""
    return substitute(f, {}, target=target)


def restrict_to(f: GPoly, target: Chart) -> GPoly:
    """Project f onto a sub-chart, requiring no foreign variables appear."""
    idx = []
    for v in f.chart.vars:
        idx.append(target.index_of(v.name) if target.has(v.name) else None)
    res = {}
    for m, c in f.terms.items():
        out = [0] * len(target.vars)
        ok = True
        for i, e in enumerate(m):
            if not e:
                continue
            if idx[i] is None:
                ok = False
                break
            out[idx[i]] = e
        if not ok:
            raise ChartMismatch(
                "polynomial uses variables outside the target chart")
        res[tuple(out)] = c
    return GPoly(target, res)


# -- vector fields ---------------------------------------------------------


def apply_vector_field(comps: Mapping[str, GPoly], f: GPoly) -> GPoly:
    """Apply Q = sum_v Q^v d_v (left derivatives, coefficients on the left)."""
    return f.chart.sum(q * partial_left(f, name)
                       for name, q in comps.items() if q)


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


# -- monomial enumeration and random generation -----------------------------


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


def random_poly(chart: Chart, rng, max_weight: int = 4, max_base_degree: int = 2,
                max_terms: int = 3, degree: Optional[int] = None,
                homogeneous: bool = False) -> GPoly:
    """A small random polynomial, optionally homogeneous (of a given degree)."""
    pool = enumerate_monomials(chart, max_weight, max_base_degree)
    pool = [m for m in pool if any(m)]
    if homogeneous or degree is not None:
        by_degree = {}
        for m in pool:
            by_degree.setdefault(chart.monomial_degree(m), []).append(m)
        if degree is None:
            degree = rng.choice(sorted(by_degree))
        pool = by_degree.get(degree, [])
        if not pool:
            return chart.zero()
    n = rng.randint(1, max_terms)
    terms = {}
    for _ in range(n):
        m = rng.choice(pool)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if c:
            terms[m] = terms.get(m, 0) + c
    return GPoly(chart, terms)


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
    keys = sorted(p.terms, key=lambda m: (p.chart.monomial_degree(m), m))
    chunks = []
    for m in keys:
        c = p.terms[m]
        mono = render_monomial(p.chart, m)
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
