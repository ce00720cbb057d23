"""Catalog of named constructions feeding the verification machinery."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence, Tuple

from .algebroid import (AlgebroidSpec, basis_section, bivector_matrix,
                        check_algebroid, hamiltonian_of_algebroid,
                        koszul_algebroid, schouten_bracket, section_add,
                        section_bracket, section_is_zero,
                        section_to_multivector, tangent_spec,
                        vector_field_commutator, _coerce)
from .bialgebroid import (BialgebroidSpec, assemble_hamiltonian,
                          check_bialgebroid, check_linfty)
from .errors import (AlgebroidsError, ChartMismatch, DegreeError,
                     NotLieAlgebra, NotPoisson, NotTriangular)
from .gpoly import Chart, GPoly, KIND_FIBER, MOMENTUM_KINDS, inject
from .report import Report
from .symplectic import (Hamiltonian, canonical_bracket, hamiltonian_lift,
                         is_integrable, legendre, twin_chart)


def tangent_algebroid(base: Chart,
                      fiber_names: Optional[Sequence[str]] = None) -> AlgebroidSpec:
    """Identity anchor, zero structure functions; mu = sum xi^i x*_i."""
    return tangent_spec(base, fiber_names)


def action_algebroid(base: Chart, fiber: Sequence[Tuple[str, int]],
                     brackets: Mapping, action: Mapping) -> AlgebroidSpec:
    """The transformation algebroid of a Lie algebra action.

    `brackets` maps (a, b, c) fiber-name triples to constant structure
    coefficients (validated against Jacobi; a coefficient that is not a
    constant is a DegreeError naming its triple); `action` maps (fiber
    name, base name) to the vector-field components of the acting
    generators.
    Whether the action map is a morphism is detected downstream by
    check_algebroid.
    """
    point = Chart([])
    constants = {}
    for key, v in brackets.items():
        if isinstance(v, GPoly):
            if any(v.terms):   # a key other than 0 is not a constant
                raise DegreeError("structure coefficients must be constants",
                                  key)
            constants[key] = v.constant_term()
        else:
            constants[key] = _coerce(point, v).constant_term()
    const_table = {key: point.const(c) for key, c in constants.items()}
    algebra = AlgebroidSpec(point, [(n, d) for n, d in fiber], {}, const_table)
    if not check_algebroid(algebra).passed:
        raise NotLieAlgebra("structure constants violate the Jacobi identity")
    anchor = {(fn, xn): _coerce(base, v) for (fn, xn), v in action.items()}
    bracket = {key: base.const(c) for key, c in constants.items()}
    return AlgebroidSpec(base, [(n, d) for n, d in fiber], anchor, bracket)


def poisson_bialgebroid(base: Chart,
                        pi: Mapping) -> Tuple[BialgebroidSpec, Hamiltonian]:
    """The bialgebroid of a Poisson bivector: the cotangent algebroid paired
    with the tangent structure on its dual; chi is linear-quadratic and
    integrable."""
    primal = koszul_algebroid(base, pi)
    b = BialgebroidSpec(primal, tangent_spec(base, primal.starred_names()))
    return b, assemble_hamiltonian(b)


def triangular(spec: AlgebroidSpec, r: GPoly) -> Hamiltonian:
    """The homotopy structure induced by a classical element r with [r,r] = 0.

    The dual-side Hamiltonian is the cotangent lift of the odd Hamiltonian
    vector field [r, -] on the dual-shifted chart, pulled back through the
    Legendre exchange; the construction self-checks the identity
    L*(lift of [r,-]) = {mu, L*(r)} before returning.
    """
    mv = spec.multivector_chart()
    if r.chart != mv:
        raise ChartMismatch("r must live on the multivector chart")
    if not schouten_bracket(spec, r, r).is_zero():
        raise NotTriangular("[r, r] != 0")
    sc = spec.symplectic_chart()
    twin = twin_chart(sc)
    comps = {}
    for v in mv.vars:
        val = schouten_bracket(spec, r, mv.var_poly(v.name))
        if val:
            comps[v.name] = inject(val, twin.base_chart)
    alpha = hamiltonian_lift(twin, comps)
    lmap = legendre(sc)
    cobracket_part = lmap.pullback(alpha)
    mu = hamiltonian_of_algebroid(spec, sc).body
    self_check = canonical_bracket(mu, lmap.pullback(inject(r, twin.chart)), sc)
    if cobracket_part != self_check:
        raise AlgebroidsError(
            "triangular self-check failed: the lifted vector field does not "
            "match the bracket route")
    return Hamiltonian(sc, mu + cobracket_part)


@dataclass(frozen=True)
class NijenhuisData:
    """An endomorphism matrix on the tangent bundle and a Poisson bivector.

    `endo` maps (i, j) index pairs (or base-name pairs) to N^i_j, the
    d_i-component of N(d_j); `pi` is a bivector entry table as in
    koszul_algebroid.  `koszul` is the cotangent algebroid of `pi`, built
    with the pair, so that a bivector with [pi, pi] != 0 raises NotPoisson.
    """

    base: Chart
    endo: Mapping
    pi: Mapping
    koszul: AlgebroidSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "koszul", koszul_algebroid(self.base, self.pi))

    def matrix(self):
        n = len(self.base.vars)
        zero = self.base.zero()
        out = [[zero] * n for _ in range(n)]
        for (i, j), v in self.endo.items():
            ii = i if isinstance(i, int) else self.base.index_of(i)
            jj = j if isinstance(j, int) else self.base.index_of(j)
            out[ii][jj] = _coerce(self.base, v)
        return out


def _matrix_action(base: Chart, rows, names, x: Mapping[str, GPoly]) -> dict:
    """The i-th name of the result is sum_j rows[i][j] x_j, where x_j is the
    entry of x under the j-th name: a matrix of base polynomials acting on
    vector fields (keyed by base names) or on forms (keyed by fiber names)."""
    out = {}
    for j, xn in enumerate(names):
        comp = x.get(xn)
        if comp is None or comp.is_zero():
            continue
        for i, key in enumerate(names):
            entry = rows[i][j]
            if entry.is_zero():
                continue
            out[key] = out.get(key, base.zero()) + entry * comp
    return {k: v for k, v in out.items() if v}


def nijenhuis_check(data: NijenhuisData) -> Report:
    """Torsion of the endomorphism, the deformed algebroid, and the two
    compatibility identities with the Poisson structure."""
    base = data.base
    nmat = data.matrix()
    kspec_pi = data.koszul
    full = bivector_matrix(base, data.pi)
    t = tangent_spec(base)
    report = Report("nijenhuis")
    nb = len(base.vars)
    coords = [{base.names[i]: base.one()} for i in range(nb)]

    def nof(x):
        return _matrix_action(base, nmat, base.names, x)

    # vector fields add componentwise like sections of the tangent algebroid
    for i in range(nb):
        for j in range(i + 1, nb):
            ni, nj = nof(coords[i]), nof(coords[j])
            tors = section_add(
                t, vector_field_commutator(base, ni, nj),
                nof(section_add(t,
                                vector_field_commutator(base, ni, coords[j]),
                                vector_field_commutator(base, coords[i], nj))),
                scale=-1)
            report.add(f"torsion({base.names[i]},{base.names[j]})",
                       "[NX,NY] - N([NX,Y] + [X,NY]) + N^2([X,Y]) = 0",
                       base.sum(v * base.var_poly(k) for k, v in tors.items()))

    # deformed algebroid on the tangent bundle with anchor N
    fiber_names = ["d" + v.name for v in base.vars]
    anchor = {}
    for j in range(nb):
        for i in range(nb):
            if nmat[i][j]:
                anchor[(fiber_names[j], base.names[i])] = nmat[i][j]
    bracket = {}
    for i in range(nb):
        for j in range(i + 1, nb):
            deformed = section_add(
                t,
                vector_field_commutator(base, nof(coords[i]), coords[j]),
                vector_field_commutator(base, coords[i], nof(coords[j])))
            for k, comp in deformed.items():
                if comp:
                    bracket[(fiber_names[i], fiber_names[j],
                             "d" + k)] = comp
    deformed_spec = AlgebroidSpec(base, [(fn, 0) for fn in fiber_names],
                                  anchor, bracket)
    deformed_rep = check_algebroid(deformed_spec)
    report.add("deformed-algebroid",
               "the deformed bracket with anchor N passes the algebroid checks",
               passed=deformed_rep.passed)

    # N o pi-sharp = pi-sharp o N^t on coordinate generators
    zero = base.zero()
    compat_ok = True
    for a in range(nb):
        for k in range(nb):
            lhs = base.sum(full.get((b_, a), zero) * nmat[k][b_]
                           for b_ in range(nb))
            rhs = base.sum(nmat[a][j] * full.get((k, j), zero)
                           for j in range(nb))
            res = lhs - rhs
            ok = res.is_zero()
            compat_ok = compat_ok and ok
            report.add(f"endo-bivector({base.names[a]},{base.names[k]})",
                       "N o pi-sharp = pi-sharp o N-transpose", res)

    # deformed-bracket compatibility on coordinate forms
    if compat_ok:
        # (N pi)^{ka} = sum_b N^k_b pi^{ba}, stored on canonical k < a keys
        npi_in = {}
        for a in range(nb):
            for k in range(a):
                entry = base.sum(nmat[k][b_] * full.get((b_, a), zero)
                                 for b_ in range(nb))
                if entry:
                    npi_in[(k, a)] = entry
        # N-transpose on coordinate forms: the a-th form maps to
        # sum_j N^a_j times the j-th form
        nmat_t = [list(col) for col in zip(*nmat)]

        def nstar(form):
            return _matrix_action(base, nmat_t, kspec_pi.fiber_names, form)

        try:
            kspec_npi = koszul_algebroid(base, npi_in)
        except NotPoisson:
            report.add("deformed-forms-bracket",
                       "the deformed bivector is not Poisson", passed=False)
        else:
            for i in range(nb):
                for j in range(i + 1, nb):
                    ei = basis_section(kspec_pi, i)
                    ej = basis_section(kspec_pi, j)
                    lhs = section_bracket(kspec_npi, ei, ej)
                    rhs = section_add(
                        kspec_pi,
                        section_add(kspec_pi,
                                    section_bracket(kspec_pi, nstar(ei), ej),
                                    section_bracket(kspec_pi, ei, nstar(ej))),
                        nstar(section_bracket(kspec_pi, ei, ej)),
                        scale=-1)
                    res = section_add(kspec_pi, lhs, rhs, scale=-1)
                    ok = section_is_zero(res)
                    report.add(f"deformed-forms-bracket({i + 1},{j + 1})",
                               "bracket of the deformed bivector matches the "
                               "endomorphism-twisted bracket",
                               section_to_multivector(kspec_pi, res))
    else:
        report.add("deformed-forms-bracket",
                   "skipped: the endomorphism-bivector identity fails",
                   passed=True, detail="skipped")
    return report


def poisson_report(built) -> Report:
    """The bialgebroid and homotopy checks of a Poisson construction."""
    b, chi = built
    squared = is_integrable(chi)    # read by chi-squared and by integrable
    rep = check_bialgebroid(b, squared)
    rep.extend(check_linfty(chi, squared))
    return replace(rep, title="construct poisson")


def triangular_report(lham) -> Report:
    """The homotopy checks of a triangular structure, and its weights."""
    rep = Report("construct triangular")
    rep.add("self-check",
            "lifted [r,-] matches the bracket route (checked on build)",
            passed=True)
    rep.extend(check_linfty(lham))
    weights = lham.body.kind_weights(MOMENTUM_KINDS)
    rep.add("weight-profile",
            "momentum weights stay within the linear-quadratic window",
            passed=weights <= {1, 2},
            detail=f"weights={sorted(weights)}")
    return rep


def linfty_bialgebra(fiber, components: Mapping) -> Hamiltonian:
    """A point-case homotopy structure from weighted components.

    `fiber` is an algebroid spec over a point, or the (name, section
    degree) pairs of V that declare one, which checks their names; the
    double chart T*[2]V[1] is its symplectic chart.  `components` maps
    (m, n) with m, n >= 1 to a polynomial on the double chart with m fiber
    factors, n momentum factors, and total degree 3.
    """
    if not isinstance(fiber, AlgebroidSpec):
        fiber = AlgebroidSpec(Chart([]), fiber)
    sc = fiber.symplectic_chart()
    chart = sc.chart
    parts = []
    for (m, n), val in sorted(components.items()):
        if m < 1 or n < 1:
            raise DegreeError("component indices must be at least one")
        p = _coerce(chart, val)
        if not p.is_homogeneous(3):
            raise DegreeError(f"component ({m},{n}) must be homogeneous of degree 3")
        for mono in p.terms:
            fw = chart.kind_weight(mono, (KIND_FIBER,))
            mw = chart.kind_weight(mono, MOMENTUM_KINDS)
            if fw != m or mw != n:
                raise DegreeError(
                    f"component ({m},{n}) has a term of bidegree ({fw},{mw})")
        parts.append(p)
    return Hamiltonian(sc, chart.sum(parts))
