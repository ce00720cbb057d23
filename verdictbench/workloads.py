"""Seeded inputs for the verdict benchmark, with answers known independently.

Every input is spec-file text plus the argument list of one CLI call and
the verdict it must produce.  The answers never come from `algebroids`:

* matrix Lie algebras (gl, sl, so, upper triangular) are Lie by
  construction; their structure constants come from matrix commutators
  computed here;
* log-canonical bivectors pi^{ij} = c_ij x_i x_j are Poisson for every
  choice of c_ij;
* identity morphisms satisfy every morphism identity;
* mutated Lie algebras are judged by an exact Jacobi check on the
  structure constants, mutated bivectors by the commutative Jacobiator.

Two verdicts of the current program are known to be wrong.  They stay in
the workloads and are marked with `known_wrong`, so they are counted as
wrong verdicts without being mistaken for new defects.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

WORKLOADS = ("lie-ladder", "poisson-ladder", "broken-ladder", "cli-cold")

# known defects: why the program's verdict differs from the answer
KNOWN_MORPHISM_CAP = ("identity table on log-canonical chi fails when the "
                      "cap is below the fiber rank")
KNOWN_TRUNC_PASS = ("broken Hamiltonian passes under --trunc 2 "
                    "(vacuous pass under truncation)")


@dataclass
class Case:
    """One CLI call and the verdict it must produce."""

    label: str
    argv: List[str]          # subcommand and flags; the spec path goes second
    text: str                # spec file contents
    expect_pass: bool
    known_wrong: Optional[str] = None
    path: Optional[str] = None   # an existing spec file, instead of `text`


# -- exact Lie algebras from matrices ------------------------------------------
#
# A matrix is a dict {(row, col): int}.  Each basis element has a pivot
# position where it is 1 and every other basis element is 0, so the
# coordinates of a matrix in the algebra are read off at the pivots.


def _unit(i, j):
    return {(i, j): 1}


def _commutator(a, b):
    out = {}
    for (i, k), x in a.items():
        for (k2, j), y in b.items():
            if k == k2:
                out[(i, j)] = out.get((i, j), 0) + x * y
    for (i, k), x in b.items():
        for (k2, j), y in a.items():
            if k == k2:
                out[(i, j)] = out.get((i, j), 0) - x * y
    return {p: v for p, v in out.items() if v}


def _family(kind: str, n: int):
    """(basis matrices, pivot positions) of a classical matrix algebra."""
    if kind == "gl":
        pos = [(i, j) for i in range(n) for j in range(n)]
        return [_unit(*p) for p in pos], pos
    if kind == "sl":
        pos = [(i, j) for i in range(n) for j in range(n) if i != j]
        basis = [_unit(*p) for p in pos]
        for i in range(n - 1):
            basis.append({(i, i): 1, (n - 1, n - 1): -1})
            pos.append((i, i))
        return basis, pos
    if kind == "so":
        pos = [(i, j) for i in range(n) for j in range(i + 1, n)]
        return [{(i, j): 1, (j, i): -1} for i, j in pos], pos
    if kind == "b":
        pos = [(i, j) for i in range(n) for j in range(i, n)]
        return [_unit(*p) for p in pos], pos
    raise ValueError(kind)


@functools.lru_cache(maxsize=None)
def lie_structure(kind: str, n: int) -> Dict[Tuple[int, int], Dict[int, int]]:
    """Structure constants {(a, b): {c: C^c_ab}} for a < b, from commutators.

    Cached; callers must not mutate the result."""
    basis, pos = _family(kind, n)
    where = {p: a for a, p in enumerate(pos)}
    out = {}
    for a, b in itertools.combinations(range(len(basis)), 2):
        m = _commutator(basis[a], basis[b])
        row = {where[p]: m.get(p, 0) for p in pos if m.get(p, 0)}
        # the pivot read-out must reproduce the commutator exactly
        back = {}
        for c, v in row.items():
            for q, x in basis[c].items():
                back[q] = back.get(q, 0) + v * x
        if {q: v for q, v in back.items() if v} != m:
            raise ValueError(f"{kind}({n}): pivots do not span [{a}, {b}]")
        if row:
            out[(a, b)] = row
    return out


def _lie_bracket(struct, x, y):
    """[x, y] for sparse coordinate vectors x, y ({index: Fraction})."""
    out = {}
    for a, xa in x.items():
        for b, yb in y.items():
            if a == b:
                continue
            row, sign = ((struct.get((a, b)), 1) if a < b
                         else (struct.get((b, a)), -1))
            for c, v in (row or {}).items():
                out[c] = out.get(c, 0) + sign * xa * yb * v
    return {c: v for c, v in out.items() if v}


def jacobi_holds(struct, rank: int) -> bool:
    """Exact Jacobi identity on every basis triple a < b < c."""
    basis = [{a: 1} for a in range(rank)]
    for a, b, c in itertools.combinations(range(rank), 3):
        ea, eb, ec = basis[a], basis[b], basis[c]
        total = {}
        for x, y, z in ((ea, eb, ec), (eb, ec, ea), (ec, ea, eb)):
            for k, v in _lie_bracket(struct, _lie_bracket(struct, x, y), z).items():
                total[k] = total.get(k, 0) + v
        if any(total.values()):
            return False
    return True


def rescale(struct, rng: random.Random, rank: int):
    """Structure constants in the basis s_a e_a, for seeded nonzero s_a."""
    s = [Fraction(rng.choice((1, 2, 3)) * rng.choice((1, -1))) for _ in range(rank)]
    return {(a, b): {c: v * s[a] * s[b] / s[c] for c, v in row.items()}
            for (a, b), row in struct.items()}


def _num(v) -> str:
    v = Fraction(v)
    text = str(abs(v))
    return f"-{text}" if v < 0 else text


def lie_spec(struct, rank: int) -> str:
    lines = ["chart pt", "", "algebroid G", "  base pt"]
    lines += [f"  fiber e{a + 1} 0" for a in range(rank)]
    for (a, b), row in sorted(struct.items()):
        for c, v in sorted(row.items()):
            lines.append(f"  bracket e{a + 1} e{b + 1} e{c + 1} = {_num(v)}")
    return "\n".join(lines) + "\n"


# -- commutative polynomials on R^d for bivectors --------------------------------
#
# A polynomial is a dict {exponent tuple: Fraction}.


def _padd(p, q, scale=1):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + scale * c
    return {m: c for m, c in out.items() if c}


def _pmul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _pdiff(p, k):
    out = {}
    for m, c in p.items():
        if m[k]:
            out[m[:k] + (m[k] - 1,) + m[k + 1:]] = c * m[k]
    return out


def _mono(d, *idx):
    e = [0] * d
    for i in idx:
        e[i] += 1
    return tuple(e)


def full_bivector(d, upper):
    """pi^{ij} for all i != j from the entries with i < j."""
    full = {}
    for (i, j), p in upper.items():
        full[(i, j)] = p
        full[(j, i)] = {m: -c for m, c in p.items()}
    return full


def jacobiator_vanishes(d: int, upper) -> bool:
    """J^{ijk} = sum_l pi^{il} d_l pi^{jk} + cyclic, on every i < j < k."""
    full = full_bivector(d, upper)
    for i, j, k in itertools.combinations(range(d), 3):
        total = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for l in range(d):
                if (a, l) in full and (b, c) in full:
                    total = _padd(total, _pmul(full[(a, l)],
                                               _pdiff(full[(b, c)], l)))
        if total:
            return False
    return True


def anchors_commute(d: int, upper, structure) -> bool:
    """rho([e_i, e_j]) = [rho(e_i), rho(e_j)] for the Koszul-type data
    rho(e_a) = sum_i pi^{ia} d_i and [e_i, e_j] = sum_k C^k_ij e_k."""
    full = full_bivector(d, upper)
    rho = [{i: full[(i, a)] for i in range(d) if (i, a) in full}
           for a in range(d)]
    for i, j in itertools.combinations(range(d), 2):
        lhs = {}
        for k, c in structure.get((i, j), {}).items():
            for x, p in rho[k].items():
                lhs[x] = _padd(lhs.get(x, {}), {m: c * v for m, v in p.items()})
        rhs = {}
        for x in range(d):
            val = {}
            for y, p in rho[i].items():
                val = _padd(val, _pmul(p, _pdiff(rho[j].get(x, {}), y)))
            for y, p in rho[j].items():
                val = _padd(val, _pmul(p, _pdiff(rho[i].get(x, {}), y)), -1)
            rhs[x] = val
        for x in range(d):
            if _padd(lhs.get(x, {}), rhs[x], -1):
                return False
    return True


def _signed_terms(p, tail=()):
    """Terms of c * x^m * tail as ['+ 3 * x1 * x2 * xi1', '- x1', ...]."""
    out = []
    for m, c in sorted(p.items(), reverse=True):
        factors = []
        for i, e in enumerate(m):
            factors += [f"x{i + 1}"] * e
        factors += list(tail)
        mag = abs(c)
        body = " * ".join(([str(mag)] if mag != 1 or not factors else [])
                          + factors)
        out.append(("- " if c < 0 else "+ ") + body)
    return out


def _join(terms) -> str:
    text = " ".join(terms)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _poly_text(p) -> str:
    """A commutative polynomial in x1..xd as spec-file text."""
    return _join(_signed_terms(p))


def log_canonical(d: int, rng: random.Random):
    """pi^{ij} = c_ij x_i x_j with seeded nonzero integers c_ij."""
    return {(i, j): {_mono(d, i, j): Fraction(rng.choice((1, 2, 3, 4, 5))
                                              * rng.choice((1, -1)))}
            for i, j in itertools.combinations(range(d), 2)}


def _chart_lines(d):
    return ["chart M"] + [f"  var x{i + 1} 0" for i in range(d)] + [""]


def koszul_lines(d, upper):
    """The cotangent algebroid of pi, written out: rho(xi_a) = pi^{ia} d_i,
    [xi_i, xi_j] = -d(pi^{ij})."""
    full = full_bivector(d, upper)
    lines = ["algebroid V", "  base M"]
    lines += [f"  fiber xi{a + 1} 0" for a in range(d)]
    for a in range(d):
        for i in range(d):
            if (i, a) in full and full[(i, a)]:
                lines.append(f"  anchor xi{a + 1} x{i + 1} = "
                             f"{_poly_text(full[(i, a)])}")
    for (i, j), p in sorted(upper.items()):
        for k in range(d):
            dp = _pdiff(p, k)
            if dp:
                neg = {m: -c for m, c in dp.items()}
                lines.append(f"  bracket xi{i + 1} xi{j + 1} xi{k + 1} = "
                             f"{_poly_text(neg)}")
    return lines + [""]


def chi_text(d, upper) -> str:
    """chi = sum x_i* xi_i* + sum pi^{ia} xi_a x_i* + sum_{i<j} d_k pi^{ij}
    xi_i xi_j xi_k*, the Hamiltonian of the Poisson bialgebroid."""
    full = full_bivector(d, upper)
    terms = [f"+ x{i + 1}* * xi{i + 1}*" for i in range(d)]
    for a in range(d):
        for i in range(d):
            if (i, a) in full:
                terms += _signed_terms(full[(i, a)], (f"xi{a + 1}", f"x{i + 1}*"))
    for (i, j), p in sorted(upper.items()):
        for k in range(d):
            terms += _signed_terms(_pdiff(p, k), (f"xi{i + 1}", f"xi{j + 1}",
                                                  f"xi{k + 1}*"))
    return _join(terms)


def poisson_construct_spec(d, upper) -> str:
    lines = _chart_lines(d) + ["construct poisson P", "  base M"]
    for (i, j), p in sorted(upper.items()):
        lines.append(f"  bivector x{i + 1} x{j + 1} = {_poly_text(p)}")
    return "\n".join(lines) + "\n"


def identity_morphism_spec(d, upper, cap) -> str:
    """The identity `type full` table on the written-out chi, up to `cap`."""
    lines = _chart_lines(d) + koszul_lines(d, upper)
    lines += ["hamiltonian H", "  algebroid V", "  hbar-cap 4",
              f"  value = {chi_text(d, upper)}", "",
              "morphism F", "  type full", "  source H", "  target H",
              f"  cap {cap}"]
    for size in range(1, cap + 1):
        for word in itertools.combinations(range(d), size):
            names = [f"xi{a + 1}" for a in word]
            lines.append(f"  word {' '.join(names)} = {' * '.join(names)}")
    return "\n".join(lines) + "\n"


def bialgebroid_spec(d, upper) -> str:
    """The cotangent algebroid of pi paired with the tangent algebroid."""
    lines = _chart_lines(d) + koszul_lines(d, upper)
    lines += ["algebroid Vd", "  base M"]
    lines += [f"  fiber xi{a + 1}* 0" for a in range(d)]
    lines += [f"  anchor xi{a + 1}* x{a + 1} = 1" for a in range(d)]
    lines += ["", "bialgebroid B", "  primal V", "  dual Vd"]
    return "\n".join(lines) + "\n"


def truncation_spec(k) -> str:
    """The plane bivector pi^{12} = x1 with its structure term scaled by k."""
    return "\n".join([
        "chart M", "  var x1 0", "  var x2 0", "",
        "algebroid V", "  base M", "  fiber xi1 0", "  fiber xi2 0",
        "  anchor xi2 x1 = x1", "  anchor xi1 x2 = -x1",
        "  bracket xi1 xi2 xi1 = -1", "",
        "hamiltonian H", "  algebroid V", "  hbar-cap 4",
        "  value = x1* * xi1* + x2* * xi2* + x1 * xi2 * x1* - x1 * xi1 * x2* "
        f"+ {k} * xi1 * xi2 * xi1*",
    ]) + "\n"


# -- the workloads ---------------------------------------------------------------

# (family, n, copies per pass).  The copies fix the mix of every pass and
# whole passes are timed, so each percentile falls inside the same group of
# rungs however many passes a run holds: the median among sl(3), gl(3),
# b(4), so(5), the 90th percentile among sl(4), gl(4), so(6), b(5).  gl(5)
# dominates the throughput.  Every rung timed there takes 50 ms or more.
LIE_RUNGS = (("sl", 2, 1), ("so", 3, 1), ("gl", 2, 1), ("b", 3, 1),
             ("so", 4, 1), ("sl", 3, 3), ("gl", 3, 3), ("b", 4, 3),
             ("so", 5, 3), ("sl", 4, 1), ("gl", 4, 1), ("so", 6, 1),
             ("b", 5, 1), ("gl", 5, 1))
# (d, copies): the median falls among the d=3 constructions, the 90th
# percentile on d=5; d=6 and the d=4 morphism checks dominate the throughput
POISSON_DIMS = ((3, 21), (4, 4), (5, 2), (6, 1))
MORPHISM_DIMS = (3, 4)
MORPHISM_CAPS = (1, 2, 3)
# the median falls among the rank 8-10 algebras and d=3, the 90th
# percentile among sl(4), gl(4) and d=5
BROKEN_LIE = (("sl", 3, 3), ("gl", 3, 3), ("so", 5, 3), ("b", 4, 3),
              ("sl", 4, 2), ("gl", 4, 2))
BROKEN_POISSON = ((3, 3), (4, 3), (5, 2))
TRUNCATION_COPIES = 3


def lie_rank(kind, n):
    return {"gl": n * n, "sl": n * n - 1, "so": n * (n - 1) // 2,
            "b": n * (n + 1) // 2}[kind]


def _lie_ladder(rng):
    cases = []
    for kind, n, copies in LIE_RUNGS:
        for _ in range(copies):
            rank = lie_rank(kind, n)
            struct = rescale(lie_structure(kind, n), rng, rank)
            cases.append(Case(f"{kind}({n})", ["check-algebroid", "--json"],
                              lie_spec(struct, rank), True))
    return cases


def _poisson_ladder(rng):
    cases = []
    for d, copies in POISSON_DIMS:
        for _ in range(copies):
            cases.append(Case(f"poisson(d={d})", ["construct", "--json"],
                              poisson_construct_spec(d, log_canonical(d, rng)),
                              True))
    for d in MORPHISM_DIMS:
        upper = log_canonical(d, rng)
        for cap in MORPHISM_CAPS:
            known = KNOWN_MORPHISM_CAP if cap < d else None
            cases.append(Case(f"identity-morphism(d={d},cap={cap})",
                              ["check-morphism", "--json"],
                              identity_morphism_spec(d, upper, cap), True,
                              known))
    return cases


def _mutate_lie(struct, rank, rng):
    """Change one structure constant until the Jacobi identity breaks."""
    while True:
        a, b = sorted(rng.sample(range(rank), 2))
        c = rng.randrange(rank)
        out = {k: dict(v) for k, v in struct.items()}
        row = out.setdefault((a, b), {})
        row[c] = row.get(c, 0) + rng.choice((1, 2, -1, -2))
        if not row[c]:
            del row[c]
        if not row:
            del out[(a, b)]
        if not jacobi_holds(out, rank):
            return out


def _mutate_bivector(d, upper, rng):
    """Add one monomial to one entry until the Jacobiator is nonzero."""
    while True:
        i, j = sorted(rng.sample(range(d), 2))
        k, l = rng.randrange(d), rng.randrange(d)
        out = {key: dict(p) for key, p in upper.items()}
        out[(i, j)] = _padd(out[(i, j)],
                            {_mono(d, k, l): Fraction(rng.choice((1, -1, 2)))})
        if not jacobiator_vanishes(d, out):
            return out


def _broken_ladder(rng):
    flags = ["--json", "--residuals"]
    cases = []
    for kind, n, copies in BROKEN_LIE:
        rank = lie_rank(kind, n)
        for _ in range(copies):
            struct = _mutate_lie(rescale(lie_structure(kind, n), rng, rank), rank,
                                 rng)
            cases.append(Case(f"broken-{kind}({n})",
                              ["check-algebroid"] + flags,
                              lie_spec(struct, rank),
                              jacobi_holds(struct, rank)))
    for d, copies in BROKEN_POISSON:
        for _ in range(copies):
            upper = _mutate_bivector(d, log_canonical(d, rng), rng)
            cases.append(Case(f"broken-poisson(d={d})",
                              ["check-bialgebroid"] + flags,
                              bialgebroid_spec(d, upper),
                              jacobiator_vanishes(d, upper)))
    plane = {(0, 1): {_mono(2, 0): Fraction(1)}}
    for _ in range(TRUNCATION_COPIES):
        # ROADMAP item 1: pi^{12} = x1 with the structure term scaled by k
        k = rng.choice((2, 3, 4, 5, 6, 7))
        honest = anchors_commute(2, plane, {(0, 1): {0: Fraction(-k)}})
        text = truncation_spec(k)
        cases.append(Case("scaled-structure", ["check-linfty"] + flags, text,
                          honest))
        cases.append(Case("scaled-structure-trunc2",
                          ["check-linfty"] + flags + ["--trunc", "2"], text,
                          honest, None if honest else KNOWN_TRUNC_PASS))
    return cases


# the golden CLI cases, as listed beside the golden outputs
GOLDEN_CASES = (
    ("check-algebroid", "two_dim_algebra.alg", ()),
    ("check-coalgebroid", "two_dim_algebra.alg", ()),
    ("check-bialgebroid", "poisson.alg", ()),
    ("check-linfty", "poisson.alg", ()),
    ("check-morphism", "morphism.alg", ()),
    ("bracket", "two_dim_algebra.alg", ()),
    ("ce-diff", "two_dim_algebra.alg", ()),
    ("schouten", "two_dim_algebra.alg", ()),
    ("bv", "two_dim_algebra.alg", ()),
    ("lift", "morphism.alg", ()),
    ("legendre", "two_dim_algebra.alg", ()),
    ("construct", "constructs.alg", ()),
    ("round-trip", "poisson.alg", ()),
    ("check-bialgebroid", "poisson.alg", ("--json", "--residuals")),
    ("check-algebroid", "two_dim_algebra.alg", ("--json",)),
)


def golden_tag(sub, flags) -> str:
    return sub + ("-json" if "--json" in flags else "")


def _cli_cold(rng):
    order = list(GOLDEN_CASES)
    rng.shuffle(order)
    return [Case(golden_tag(sub, flags), [sub] + list(flags), "", True,
                 path=f"tests/data/{fname}")
            for sub, fname, flags in order]


_BUILDERS = {"lie-ladder": _lie_ladder, "poisson-ladder": _poisson_ladder,
             "broken-ladder": _broken_ladder, "cli-cold": _cli_cold}


def make_pass(workload: str, seed: int, index: int) -> List[Case]:
    """The inputs of pass `index`; fresh for every pass, fixed by the seed."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    return _BUILDERS[workload](rng)


def digest(cases: List[Case], h=None):
    """Fold the inputs (argv, text, answer) into a sha256 object."""
    h = h or hashlib.sha256()
    for case in cases:
        h.update(repr((case.label, case.argv, case.path, case.text,
                       case.expect_pass)).encode())
    return h
