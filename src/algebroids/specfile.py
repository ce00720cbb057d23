"""Line-oriented structured input files.

A document is a sequence of sections.  A section header sits at column zero
(`chart M`, `algebroid V`, `construct poisson P`); body lines are indented
`key value ...` entries, with expressions after an `=`.  Comments run from
`#` to end of line.  A single top-level `trunc <k>` line caps formal-series
weights for every chart in the file.  Unknown section kinds and unknown keys
are rejected with positions.

Expressions follow the core grammar; momentum names end in `*`, so products
must be written with spaced `*` operators (`xi1* * xi2*`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .algebroid import AlgebroidSpec, line_connection
from .bialgebroid import BialgebroidSpec, FullMorphism, LinftyHamiltonian
from .constructions import NijenhuisData
from .errors import DegreeError, ParseError, UndeclaredVariable
from .expr import parse_expression
from .gpoly import Chart, KIND_BASE
from .symplectic import PolyMap, shifted_cotangent

_SECTION_KINDS = ("chart", "algebroid", "bialgebroid", "hamiltonian",
                  "morphism", "connection", "bracket", "cediff", "schouten",
                  "bv", "lift", "legendre", "construct")

_CONSTRUCT_KINDS = ("tangent", "action", "poisson", "triangular", "nijenhuis",
                    "linfty-bialgebra")


@dataclass
class Section:
    kind: str
    name: str
    line: int
    entries: List[tuple]          # (key, args, expr_text, line)
    # expr_text keeps its columns in the line: what precedes it is blanked
    subtype: Optional[str] = None
    resolved: object = None

    def rows(self, key):
        """The `key` rows in file order; a row repeating the key and the
        arguments of an earlier one is refused at its line."""
        rows = [e for e in self.entries if e[0] == key]
        seen = set()
        for _, args, _, lineno in rows:
            if args in seen:
                raise ParseError(f"duplicate row {' '.join((key,) + args)!r} "
                                 f"in section {self.name!r}", lineno)
            seen.add(args)
        return rows

    def single(self, key, required=True):
        rows = [e for e in self.entries if e[0] == key]
        if len(rows) > 1:
            raise ParseError(f"duplicate key {key!r} in section {self.name!r}",
                             rows[1][3])
        if not rows:
            if required:
                raise ParseError(
                    f"section {self.name!r} is missing the {key!r} key",
                    self.line)
            return None
        return rows[0]


@dataclass
class SpecFile:
    trunc: Optional[int]
    sections: List[Section]
    registry: dict = field(default_factory=dict)

    def of_kind(self, kind, subtype=None):
        return [s for s in self.sections
                if s.kind == kind and (subtype is None or s.subtype == subtype)]

    def lookup(self, name, line=None):
        if name not in self.registry:
            raise ParseError(f"unknown section reference {name!r}", line)
        return self.registry[name]

    def __eq__(self, other):
        return isinstance(other, SpecFile) and serialize(self) == serialize(other)


def _tokenize_line(line: str):
    if "#" in line:
        line = line[:line.index("#")]
    if "=" in line:
        head, expr = line.split("=", 1)
        return head.split(), " " * (len(head) + 1) + expr.rstrip()
    return line.split(), None


def _scan(text: str) -> List[Section]:
    sections = []
    trunc = None
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.rstrip()
        tokens, expr = _tokenize_line(stripped)
        if not tokens:
            continue
        indented = stripped[:1].isspace()
        if not indented:
            if tokens[0] == "trunc":
                if len(tokens) != 2 or expr is not None or not tokens[1].isdigit():
                    raise ParseError("trunc takes one non-negative integer",
                                     lineno)
                trunc = int(tokens[1])
                continue
            kind = tokens[0]
            if kind not in _SECTION_KINDS:
                raise ParseError(f"unknown section kind {kind!r}", lineno,
                                 expected=_SECTION_KINDS)
            if kind == "construct":
                if len(tokens) != 3:
                    raise ParseError("construct sections read "
                                     "'construct <kind> <name>'", lineno)
                subtype, name = tokens[1], tokens[2]
                if subtype not in _CONSTRUCT_KINDS:
                    raise ParseError(f"unknown construction {subtype!r}",
                                     lineno, expected=_CONSTRUCT_KINDS)
            else:
                if len(tokens) != 2:
                    raise ParseError(f"{kind} sections read '{kind} <name>'",
                                     lineno)
                subtype, name = None, tokens[1]
            current = Section(kind, name, lineno, [], subtype)
            sections.append(current)
            continue
        if current is None:
            raise ParseError("indented line outside any section", lineno)
        current.entries.append((tokens[0], tuple(tokens[1:]), expr, lineno))
    return sections, trunc


def _int(token, lineno, what):
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"bad {what} {token!r}", lineno) from None


def _arg(row, i=0):
    """Argument `i` of a `key arg ...` row; a missing one is a ParseError at
    the row's line."""
    key, args, _, lineno = row
    if i >= len(args):
        raise ParseError(f"{key!r} row is missing argument {i + 1}", lineno)
    return args[i]


def _expr(text, chart, lineno):
    if text is None:
        raise ParseError("missing '=' expression", lineno)
    return parse_expression(text, chart, line=lineno)


_KEYS = {
    "chart": {"var"},
    "algebroid": {"base", "fiber", "anchor", "bracket"},
    "bialgebroid": {"primal", "dual"},
    "hamiltonian": {"algebroid", "value", "hbar-cap"},
    "morphism": {"type", "source", "target", "map", "base", "word", "cap"},
    "connection": {"algebroid", "gamma"},
    "bracket": {"algebroid", "left", "right"},
    "cediff": {"algebroid", "value"},
    "schouten": {"algebroid", "left", "right"},
    "bv": {"algebroid", "connection", "value"},
    "lift": {"chart", "shift", "component"},
    "legendre": {"algebroid"},
    "construct": {"base", "fiber", "anchor", "bracket", "act", "bivector",
                  "endo", "algebroid", "r", "component", "hbar-cap"},
}


def parse_spec(text: str, trunc_override: Optional[int] = None) -> SpecFile:
    sections, trunc = _scan(text)
    if trunc_override is not None:
        if trunc_override < 0:
            raise ParseError("--trunc takes one non-negative integer")
        trunc = trunc_override
    doc = SpecFile(trunc, sections)
    for section in sections:
        if section.name in doc.registry:
            raise ParseError(f"duplicate section name {section.name!r}",
                             section.line)
        for key, args, expr, lineno in section.entries:
            if key not in _KEYS[section.kind]:
                raise ParseError(
                    f"unknown key {key!r} in {section.kind} section",
                    lineno, expected=sorted(_KEYS[section.kind]))
        _RESOLVERS[section.kind](doc, section)
        doc.registry[section.name] = section
    return doc


# -- per-section resolution ---------------------------------------------------


def _resolve_chart(doc, section):
    variables = []
    seen = set()
    for key, args, expr, lineno in section.entries:
        if len(args) != 2 or expr is not None:
            raise ParseError("chart rows read 'var <name> <degree>'", lineno)
        name, degree = args
        if name in seen:
            raise ParseError(f"duplicate variable {name!r} in chart "
                             f"{section.name!r}", lineno)
        seen.add(name)
        variables.append((name, _int(degree, lineno, "degree"), KIND_BASE))
    section.resolved = Chart(variables, trunc=doc.trunc)


def _algebroid_section(doc, section) -> AlgebroidSpec:
    base_row = section.single("base")
    base = doc.lookup(_arg(base_row), base_row[3]).resolved
    if not isinstance(base, Chart):
        raise ParseError("the base must reference a chart section", base_row[3])
    fiber = []
    seen = set()
    for key, args, expr, lineno in section.rows("fiber"):
        if len(args) != 2:
            raise ParseError("fiber rows read 'fiber <name> <degree>'", lineno)
        fiber.append((args[0], _int(args[1], lineno, "degree")))
        seen.add(args[0])
    if not fiber:
        raise ParseError(f"section {section.name!r} declares no fiber", section.line)
    index = {n: i for i, (n, _) in enumerate(fiber)}
    lines = {}   # anchor or bracket key -> the line it was declared on
    anchor = {}
    for key, args, expr, lineno in section.rows("anchor"):
        if len(args) != 2:
            raise ParseError("anchor rows read 'anchor <fiber> <base> = expr>'",
                             lineno)
        fn, xn = args
        if fn not in index:
            raise UndeclaredVariable(fn, lineno, 0)
        anchor[(fn, xn)] = _expr(expr, base, lineno)
        lines[(fn, xn)] = lineno
    bracket = {}
    for key, args, expr, lineno in section.rows("bracket"):
        if len(args) != 3:
            raise ParseError(
                "bracket rows read 'bracket <a> <b> <c> = expr'", lineno)
        a, b, c = args
        for n in (a, b, c):
            if n not in index:
                raise UndeclaredVariable(n, lineno, 0)
        if index[a] > index[b]:
            raise ParseError(
                f"bracket pair ({a},{b}) must be in canonical order "
                "(earlier fiber first)", lineno)
        bracket[(a, b, c)] = _expr(expr, base, lineno)
        lines[(a, b, c)] = lineno
    try:
        return AlgebroidSpec(base, fiber, anchor, bracket)
    except DegreeError as exc:
        if exc.entry not in lines:
            raise
        raise DegreeError(exc.message, exc.entry,
                          lines[exc.entry]) from None


def _resolve_algebroid(doc, section):
    section.resolved = _algebroid_section(doc, section)


def _resolve_bialgebroid(doc, section):
    primal_row = section.single("primal")
    dual_row = section.single("dual")
    primal = doc.lookup(_arg(primal_row), primal_row[3]).resolved
    dual = doc.lookup(_arg(dual_row), dual_row[3]).resolved
    if not isinstance(primal, AlgebroidSpec) or not isinstance(dual, AlgebroidSpec):
        raise ParseError("bialgebroid sections reference algebroid sections",
                         section.line)
    section.resolved = BialgebroidSpec(primal, dual)


def _resolve_hamiltonian(doc, section):
    alg_row = section.single("algebroid")
    spec = doc.lookup(_arg(alg_row), alg_row[3]).resolved
    if not isinstance(spec, AlgebroidSpec):
        raise ParseError("hamiltonian sections reference an algebroid",
                         alg_row[3])
    cap_row = section.single("hbar-cap", required=False)
    cap = _int(_arg(cap_row), cap_row[3], "hbar-cap") if cap_row else 4
    value_row = section.single("value")
    sc = spec.symplectic_chart()
    body = _expr(value_row[2], sc.chart, value_row[3])
    section.resolved = LinftyHamiltonian(sc, body, cap)


def _resolve_morphism(doc, section):
    type_row = section.single("type")
    mtype = _arg(type_row)
    if mtype not in ("semistrict", "full"):
        raise ParseError("morphism type is 'semistrict' or 'full'", type_row[3])
    source = doc.lookup(_arg(section.single("source")), section.line).resolved
    target = doc.lookup(_arg(section.single("target")), section.line).resolved
    for endpoint in (source, target):
        if not isinstance(endpoint, (AlgebroidSpec, LinftyHamiltonian)):
            raise ParseError("morphism endpoints reference algebroid or "
                             "hamiltonian sections", section.line)

    def ce_chart_of(obj):
        if isinstance(obj, AlgebroidSpec):
            return obj.ce_chart()
        return obj.chart.base_chart

    src_ce, tgt_ce = ce_chart_of(source), ce_chart_of(target)
    if mtype == "semistrict":
        assignment = {}
        for key, args, expr, lineno in section.rows("map"):
            if len(args) != 1:
                raise ParseError("map rows read 'map <targetvar> = expr'",
                                 lineno)
            assignment[args[0]] = _expr(expr, src_ce, lineno)
        resolved = PolyMap(src_ce, tgt_ce, assignment)
    else:
        cap_row = section.single("cap")
        cap = _int(_arg(cap_row), cap_row[3], "cap")
        base_map = {}
        for row in section.rows("base"):
            base_map[_arg(row)] = _expr(row[2], src_ce, row[3])
        words = {}
        for key, args, expr, lineno in section.rows("word"):
            exps = [0] * len(tgt_ce.vars)
            for n in args:
                exps[tgt_ce.index_of(n)] += 1
            words[tuple(exps)] = _expr(expr, src_ce, lineno)
        resolved = FullMorphism(src_ce, tgt_ce, base_map, words, cap)
    section.resolved = (mtype, source, target, resolved)


def _resolve_connection(doc, section):
    spec = doc.lookup(_arg(section.single("algebroid")), section.line).resolved
    gammas = {}
    for row in section.rows("gamma"):
        gammas[_arg(row)] = _expr(row[2], spec.base, row[3])
    section.resolved = (spec, line_connection(spec, gammas))


def _resolve_bracket(doc, section):
    spec = doc.lookup(_arg(section.single("algebroid")), section.line).resolved
    sc = spec.symplectic_chart()
    left = _expr(section.single("left")[2], sc.chart, section.single("left")[3])
    right = _expr(section.single("right")[2], sc.chart,
                  section.single("right")[3])
    section.resolved = (spec, left, right)


def _resolve_cediff(doc, section):
    spec = doc.lookup(_arg(section.single("algebroid")), section.line).resolved
    row = section.single("value")
    section.resolved = (spec, _expr(row[2], spec.ce_chart(), row[3]))


def _resolve_schouten(doc, section):
    spec = doc.lookup(_arg(section.single("algebroid")), section.line).resolved
    mv = spec.multivector_chart()
    left = _expr(section.single("left")[2], mv, section.single("left")[3])
    right = _expr(section.single("right")[2], mv, section.single("right")[3])
    section.resolved = (spec, left, right)


def _resolve_bv(doc, section):
    spec = doc.lookup(_arg(section.single("algebroid")), section.line).resolved
    conn_spec, conn = doc.lookup(_arg(section.single("connection")),
                                 section.line).resolved
    if conn_spec is not spec:
        raise ParseError("the connection must belong to the same algebroid",
                         section.line)
    row = section.single("value")
    section.resolved = (spec, conn,
                        _expr(row[2], spec.multivector_chart(), row[3]))


def _resolve_lift(doc, section):
    chart = doc.lookup(_arg(section.single("chart")), section.line).resolved
    if not isinstance(chart, Chart):
        raise ParseError("lift sections reference a chart", section.line)
    shift_row = section.single("shift", required=False)
    shift = _int(_arg(shift_row), shift_row[3], "shift") if shift_row else 2
    comps = {}
    for row in section.rows("component"):
        comps[_arg(row)] = _expr(row[2], chart, row[3])
    section.resolved = (chart, shift, comps)


def _resolve_legendre(doc, section):
    spec = doc.lookup(_arg(section.single("algebroid")), section.line).resolved
    section.resolved = spec


def _resolve_construct(doc, section):
    kind = section.subtype
    if kind == "tangent":
        base = doc.lookup(_arg(section.single("base")), section.line).resolved
        section.resolved = ("tangent", (base,))
    elif kind == "action":
        base = doc.lookup(_arg(section.single("base")), section.line).resolved
        fiber = [(_arg(row), _int(_arg(row, 1), row[3], "degree"))
                 for row in section.rows("fiber")]
        brackets = {}
        for row in section.rows("bracket"):
            p = _expr(row[2], base, row[3])
            if any(p.terms):   # a key other than 0 is not a constant
                raise DegreeError(
                    "action structure coefficients must be constants")
            brackets[(_arg(row), _arg(row, 1), _arg(row, 2))] = p
        action = {}
        for row in section.rows("act"):
            action[(_arg(row), _arg(row, 1))] = _expr(row[2], base, row[3])
        section.resolved = ("action", (base, fiber, brackets, action))
    elif kind == "poisson":
        base = doc.lookup(_arg(section.single("base")), section.line).resolved
        pi = {}
        for row in section.rows("bivector"):
            pi[(_arg(row), _arg(row, 1))] = _expr(row[2], base, row[3])
        cap_row = section.single("hbar-cap", required=False)
        cap = _int(_arg(cap_row), cap_row[3], "hbar-cap") if cap_row else 4
        section.resolved = ("poisson", (base, pi, cap))
    elif kind == "triangular":
        spec = doc.lookup(_arg(section.single("algebroid")),
                          section.line).resolved
        row = section.single("r")
        r = _expr(row[2], spec.multivector_chart(), row[3])
        section.resolved = ("triangular", (spec, r))
    elif kind == "nijenhuis":
        base = doc.lookup(_arg(section.single("base")), section.line).resolved
        endo = {}
        for row in section.rows("endo"):
            endo[(_arg(row), _arg(row, 1))] = _expr(row[2], base, row[3])
        pi = {}
        for row in section.rows("bivector"):
            pi[(_arg(row), _arg(row, 1))] = _expr(row[2], base, row[3])
        section.resolved = ("nijenhuis", (NijenhuisData(base, endo, pi),))
    elif kind == "linfty-bialgebra":
        fiber = [(_arg(row), _int(_arg(row, 1), row[3], "degree"))
                 for row in section.rows("fiber")]
        coords = Chart([(n, 1 - d, "fiber") for n, d in fiber],
                       trunc=doc.trunc)
        sc = shifted_cotangent(coords, 2)
        components = {}
        for row in section.rows("component"):
            m, n = (_int(_arg(row, i), row[3], "arity") for i in (0, 1))
            components[(m, n)] = _expr(row[2], sc.chart, row[3])
        cap_row = section.single("hbar-cap", required=False)
        cap = _int(_arg(cap_row), cap_row[3], "hbar-cap") if cap_row else 4
        section.resolved = ("linfty-bialgebra", (sc, components, cap))


_RESOLVERS = {
    "chart": _resolve_chart,
    "algebroid": _resolve_algebroid,
    "bialgebroid": _resolve_bialgebroid,
    "hamiltonian": _resolve_hamiltonian,
    "morphism": _resolve_morphism,
    "connection": _resolve_connection,
    "bracket": _resolve_bracket,
    "cediff": _resolve_cediff,
    "schouten": _resolve_schouten,
    "bv": _resolve_bv,
    "lift": _resolve_lift,
    "legendre": _resolve_legendre,
    "construct": _resolve_construct,
}


# -- serialization -------------------------------------------------------------


def serialize(doc: SpecFile) -> str:
    lines = []
    if doc.trunc is not None:
        lines.append(f"trunc {doc.trunc}")
        lines.append("")
    for section in doc.sections:
        header = (f"construct {section.subtype} {section.name}"
                  if section.kind == "construct"
                  else f"{section.kind} {section.name}")
        lines.append(header)
        for key, args, expr, _ in section.entries:
            row = "  " + " ".join((key,) + tuple(args))
            if expr is not None:
                row += f" = {expr.strip()}"
            lines.append(row)
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
