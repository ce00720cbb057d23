"""Line-oriented structured input files.

A document is a sequence of sections.  A section header sits at column zero
(`chart M`, `algebroid V`, `construct poisson P`); body lines are indented
`key value ...` entries, with expressions after an `=`.  Comments run from
`#` to end of line.  Charts carry no weight cap: the `cap` row of a
`type full` morphism table is the only one, and a top-level `trunc <k>`
line is refused.

One table, `_SECTIONS`, gives each section kind its keys, each key's row
shape, and its resolver; `_CONSTRUCTS` does the same for each construction
kind, so the keys of a `construct` section are checked against its own kind.
Unknown section kinds, construction kinds and keys are rejected with
positions.  A row shape is the number of arguments its key takes (a fixed
count, or one or more for `word`) and whether the row ends in `= expr`.
`parse_spec` checks every row against its key's shape before any resolver
runs: a row with an argument too few or too many, an `= expr` on a key that
takes none, or no `=` on a key that takes one is a ParseError at its line,
and so is an `=` on a line with no key or on a section header.  A section
names earlier sections in reference rows (`base M`, `algebroid V`); `_ref`
reads every one of them, and a name that no earlier section has, or one
whose section is of the wrong kind, is a ParseError at the row's line.

Expressions follow the core grammar; momentum names end in `*`, so products
must be written with spaced `*` operators (`xi1* * xi2*`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .algebroid import (AlgebroidSpec, hamiltonian_of_algebroid,
                        line_connection)
from .bialgebroid import BialgebroidSpec, FullMorphism, table_entry
from .constructions import NijenhuisData
from .errors import (AlgebroidsError, DegreeError, ParseError,
                     UndeclaredVariable)
from .expr import parse_expression
from .gpoly import Chart, KIND_BASE
from .symplectic import Hamiltonian, PolyMap


@dataclass
class Section:
    kind: str
    name: str
    line: int
    entries: List[tuple]          # (key, args, expr_text, line)
    # expr_text keeps its columns in the line: what precedes it is blanked
    subtype: Optional[str] = None
    resolved: object = None

    @property
    def label(self):
        """The kind as a header spells it: `chart`, `construct poisson`."""
        return f"{self.kind} {self.subtype}" if self.subtype else self.kind

    def rows(self, key, unordered=False):
        """The `key` rows in file order; a row repeating the key and the
        arguments of an earlier one, in any order when `unordered`, is
        refused at its line."""
        rows = [e for e in self.entries if e[0] == key]
        seen = set()
        for _, args, _, lineno in rows:
            same = tuple(sorted(args)) if unordered else args
            if same in seen:
                raise ParseError(f"duplicate row {' '.join((key,) + args)!r} "
                                 f"in section {self.name!r}", lineno)
            seen.add(same)
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
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.rstrip()
        tokens, expr = _tokenize_line(stripped)
        indented = stripped[:1].isspace()
        if expr is not None and not (tokens and indented):
            raise ParseError("an '=' expression outside an indented key row",
                             lineno)
        if not tokens:
            continue
        if not indented:
            if tokens[0] == "trunc":
                raise ParseError("'trunc' lines are refused: charts carry no "
                                 "weight cap; a morphism table's 'cap' row "
                                 "is the only weight cap", lineno)
            kind = tokens[0]
            if kind not in _SECTIONS:
                raise ParseError(f"unknown section kind {kind!r}", lineno,
                                 expected=_SECTIONS)
            if kind == "construct":
                if len(tokens) != 3:
                    raise ParseError("construct sections read "
                                     "'construct <kind> <name>'", lineno)
                subtype, name = tokens[1], tokens[2]
                if subtype not in _CONSTRUCTS:
                    raise ParseError(f"unknown construction {subtype!r}",
                                     lineno, expected=_CONSTRUCTS)
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
    return sections


def _int(token, lineno, what):
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"bad {what} {token!r}", lineno) from None


def _name(row, i, names):
    """Argument `i` of a row, which must be one of `names`; another name is
    an UndeclaredVariable at the row's line."""
    arg = row[1][i]
    if arg not in names:
        raise UndeclaredVariable(arg, row[3], 0)
    return arg


def _int_row(section, key, default):
    """The integer of the single `key` row, or `default` without one; a
    `None` default makes the row required."""
    row = section.single(key, required=default is None)
    return default if row is None else _int(row[1][0], row[3], key)


def _cap_row(section, key, default):
    """`_int_row` for a weight cap, which is non-negative: a negative cap
    leaves nothing to check, and is refused at its row's line."""
    cap = _int_row(section, key, default)
    if cap < 0:
        raise ParseError(f"bad {key} {cap}: a cap is non-negative",
                         section.single(key)[3])
    return cap


def _expr_row(row, chart):
    """The `= expr` of a row, parsed on `chart` at the row's line."""
    return parse_expression(row[2], chart, line=row[3])


def _value(section, key, chart):
    """The expression of the single `key` row."""
    return _expr_row(section.single(key), chart)


def _table(section, key, chart, *names):
    """The `key <a1> .. <an> = expr` rows as a table from the argument (for
    n = 1) or the argument tuple to the polynomial on `chart`.  Argument
    `i` must be one of `names[i]`."""
    table = {}
    for row in section.rows(key):
        value = _expr_row(row, chart)
        args = tuple(_name(row, i, n) for i, n in enumerate(names))
        table[args if len(names) > 1 else args[0]] = value
    return table


def _fibers(section):
    """The (name, degree) pairs of the `fiber` rows, in file order."""
    return [(name, _int(degree, lineno, "degree"))
            for _, (name, degree), _, lineno in section.rows("fiber")]


def _ref(doc, section, key, *kinds):
    """The value of the section that the single `key` row names.  A name no
    earlier section has, or one whose section is of none of `kinds`, is a
    ParseError at the row's line."""
    row = section.single(key)
    target = doc.lookup(row[1][0], row[3])
    if target.label not in kinds:
        raise ParseError(f"{key!r} must name a section of kind "
                         f"{' or '.join(kinds)}, not {target.label} "
                         f"{target.name!r}", row[3])
    return target.resolved


def parse_spec(text: str) -> SpecFile:
    sections = _scan(text)
    doc = SpecFile(sections)
    for section in sections:
        if section.name in doc.registry:
            raise ParseError(f"duplicate section name {section.name!r}",
                             section.line)
        shapes, resolve = (_CONSTRUCTS[section.subtype] if section.subtype
                           else _SECTIONS[section.kind])
        for key, args, expr, lineno in section.entries:
            if key not in shapes:
                raise ParseError(
                    f"unknown key {key!r} in {section.label} section",
                    lineno, expected=sorted(shapes))
            n, takes_expr = shapes[key]
            if len(args) < (1 if n is None else n):
                raise ParseError(
                    f"{key!r} row is missing argument {len(args) + 1}", lineno)
            if n is not None and len(args) > n:
                raise ParseError(
                    f"{key!r} row has a surplus argument {args[n]!r}", lineno)
            if takes_expr and expr is None:
                raise ParseError(f"{key!r} row is missing its '=' expression",
                                 lineno)
            if expr is not None and not takes_expr:
                raise ParseError(f"{key!r} row takes no '=' expression",
                                 lineno)
        section.resolved = resolve(doc, section)
        doc.registry[section.name] = section
    return doc


# -- per-section resolution: each resolver returns the section's value -------


def _resolve_chart(doc, section):
    variables = []
    seen = set()
    names = {args[0] for _, args, _, _ in section.entries}
    for _, (name, degree), _, lineno in section.entries:
        if name in seen:
            raise ParseError(f"duplicate variable {name!r} in chart "
                             f"{section.name!r}", lineno)
        seen.add(name)
        # every cotangent chart over this one names the momentum of v as v*
        if name.endswith("*") and name[:-1] in names:
            raise ParseError(f"variable {name!r} is the momentum name of the "
                             f"variable {name[:-1]!r}", lineno)
        variables.append((name, _int(degree, lineno, "degree"), KIND_BASE))
    return Chart(variables)


def _resolve_algebroid(doc, section):
    base = _ref(doc, section, "base", "chart")
    fiber = _fibers(section)
    if not fiber:
        raise ParseError(f"section {section.name!r} declares no fiber", section.line)
    index = {n: i for i, (n, _) in enumerate(fiber)}
    anchor = _table(section, "anchor", base, index, base.names)
    bracket = _table(section, "bracket", base, index, index, index)
    for _, (a, b, _), _, lineno in section.rows("bracket"):
        if index[a] > index[b]:
            raise ParseError(
                f"bracket pair ({a},{b}) must be in canonical order "
                "(earlier fiber first)", lineno)
    return _at_entry(section, {"fiber": 1, "anchor": 2, "bracket": 3},
                     AlgebroidSpec, base, fiber, anchor, bracket)


def _resolve_bialgebroid(doc, section):
    return BialgebroidSpec(_ref(doc, section, "primal", "algebroid"),
                           _ref(doc, section, "dual", "algebroid"))


def _resolve_hamiltonian(doc, section):
    spec = _ref(doc, section, "algebroid", "algebroid")
    _cap_row(section, "hbar-cap", 0)   # checked, sets nothing
    sc = spec.symplectic_chart()
    return Hamiltonian(sc, _value(section, "value", sc.chart))


def _endpoint(doc, section, key):
    """The Hamiltonian of the algebroid or hamiltonian section that the
    single `key` row names: an algebroid stands for its mu."""
    value = _ref(doc, section, key, "algebroid", "hamiltonian")
    return (hamiltonian_of_algebroid(value)
            if isinstance(value, AlgebroidSpec) else value)


def _resolve_morphism(doc, section):
    type_row = section.single("type")
    mtype = type_row[1][0]
    if mtype not in ("semistrict", "full"):
        raise ParseError("morphism type is 'semistrict' or 'full'", type_row[3])
    # a row that only the other type reads would be read by nothing
    foreign = ("map",) if mtype == "full" else ("base", "word", "cap")
    for key, _, _, lineno in section.entries:
        if key in foreign:
            raise ParseError(f"a type {mtype} morphism takes no {key!r} row",
                             lineno)
    source = _endpoint(doc, section, "source")
    target = _endpoint(doc, section, "target")
    src_ce, tgt_ce = source.chart.base_chart, target.chart.base_chart
    # each row alone first, as the map onto the one coordinate or word it
    # names, so that its fault names its row; what only the whole table
    # lacks, such as a base row, names the type row
    if mtype == "semistrict":
        assignment = _table(section, "map", src_ce, tgt_ce.names)
        for row, (name, img) in zip(section.rows("map"), assignment.items()):
            _at_row(row, PolyMap, src_ce, Chart([tgt_ce.var(name)]),
                    {name: img})
        resolved = _at_row(type_row, PolyMap, src_ce, tgt_ce, assignment)
    else:
        cap = _cap_row(section, "cap", None)
        # the check's arguments are the nonconstant target monomials of
        # weight at most the cap: a cap that leaves none checks nothing
        if not any(w <= cap for w in tgt_ce.weights):
            raise ParseError(f"cap {cap} leaves no argument: the target has "
                             f"no nonconstant monomial of weight at most "
                             f"{cap}", section.single("cap")[3])
        base_map = _table(section, "base", src_ce, tgt_ce.names)
        entries = [(row, name, img) for row, (name, img)
                   in zip(section.rows("base"), base_map.items())]
        words = {}
        # the same fibers in another order name the same word
        for row in section.rows("word", unordered=True):
            exps = [0] * len(tgt_ce.vars)
            for i in range(len(row[1])):
                exps[tgt_ce.index_of(_name(row, i, tgt_ce.names))] += 1
            word = tuple(exps)
            words[word] = _expr_row(row, src_ce)
            entries.append((row, word, words[word]))
        for row, key, img in entries:
            weight = tgt_ce.monomial_weight(
                _at_row(row, table_entry, src_ce, tgt_ce, key, img))
            # the check reads no word above the cap: such a row is unused
            if weight > cap:
                raise ParseError(f"a word of weight {weight} is above the "
                                 f"table's cap {cap}", row[3])
        resolved = _at_row(type_row, FullMorphism, src_ce, tgt_ce, base_map,
                           words, cap)
    return (mtype, source, target, resolved)


def _at_row(row, build, *args):
    """build(*args), with the AlgebroidsError it raises placed at the line
    of `row`."""
    try:
        return build(*args)
    except AlgebroidsError as exc:
        raise ParseError(str(exc), row[3]) from None


def _at_entry(section, keys, build, *args):
    """build(*args), with a DegreeError about one entry placed at the line
    of the row that gives it.  `keys` maps each row key to the number of
    leading arguments that name its entry, keyed as `_table` keys its rows:
    the argument itself for one, their tuple for more.  Of two rows that
    name one entry, the last is placed."""
    try:
        return build(*args)
    except DegreeError as exc:
        lines = {(a[:n] if n > 1 else a[0]): lineno
                 for key, n in keys.items()
                 for _, a, _, lineno in section.rows(key)}
        if exc.entry not in lines:
            raise
        raise DegreeError(exc.message, exc.entry, lines[exc.entry]) from None


def _resolve_connection(doc, section):
    spec = _ref(doc, section, "algebroid", "algebroid")
    gammas = _table(section, "gamma", spec.base, spec.fiber_names)
    return _at_entry(section, {"gamma": 1}, line_connection, spec, gammas)


def _resolve_bracket(doc, section):
    spec = _ref(doc, section, "algebroid", "algebroid")
    chart = spec.symplectic_chart().chart
    return (spec, _value(section, "left", chart),
            _value(section, "right", chart))


def _resolve_cediff(doc, section):
    spec = _ref(doc, section, "algebroid", "algebroid")
    return (spec, _value(section, "value", spec.ce_chart()))


def _resolve_schouten(doc, section):
    spec = _ref(doc, section, "algebroid", "algebroid")
    mv = spec.multivector_chart()
    return (spec, _value(section, "left", mv), _value(section, "right", mv))


def _resolve_bv(doc, section):
    spec = _ref(doc, section, "algebroid", "algebroid")
    conn = _ref(doc, section, "connection", "connection")
    if conn.spec is not spec:
        raise ParseError("the connection must belong to the same algebroid",
                         section.single("connection")[3])
    return (spec, conn,
            _value(section, "value", spec.multivector_chart()))


def _resolve_lift(doc, section):
    chart = _ref(doc, section, "chart", "chart")
    shift = _int_row(section, "shift", 2)
    return (chart, shift, _table(section, "component", chart, chart.names))


def _resolve_legendre(doc, section):
    return _ref(doc, section, "algebroid", "algebroid")


# -- construct sections: each resolves to the arguments of its catalog entry -


def _construct_tangent(doc, section):
    return (_ref(doc, section, "base", "chart"),)


def _construct_action(doc, section):
    base = _ref(doc, section, "base", "chart")
    fiber = _fibers(section)
    names = [n for n, _ in fiber]
    brackets = _table(section, "bracket", base, names, names, names)
    for row, p in zip(section.rows("bracket"), brackets.values()):
        if any(p.terms):   # a key other than 0 is not a constant
            raise DegreeError(
                "action structure coefficients must be constants",
                line=row[3])
    return (base, fiber, brackets,
            _table(section, "act", base, names, base.names))


def _bivector(section, base):
    """The `bivector <xi> <xj> = expr` rows as a table; a pair given in both
    orders, or a diagonal pair, is refused at its line."""
    for _, args, _, lineno in section.rows("bivector", unordered=True):
        if len(args) == 2 and args[0] == args[1]:
            raise ParseError("diagonal bivector entries vanish: row "
                             f"'bivector {' '.join(args)}'", lineno)
    return _table(section, "bivector", base, base.names, base.names)


def _construct_poisson(doc, section):
    base = _ref(doc, section, "base", "chart")
    pi = _bivector(section, base)
    _cap_row(section, "hbar-cap", 0)   # checked, sets nothing
    return (base, pi)


def _construct_triangular(doc, section):
    spec = _ref(doc, section, "algebroid", "algebroid")
    return (spec, _value(section, "r", spec.multivector_chart()))


def _construct_nijenhuis(doc, section):
    base = _ref(doc, section, "base", "chart")
    endo = _table(section, "endo", base, base.names, base.names)
    return (NijenhuisData(base, endo, _bivector(section, base)),)


def _construct_linfty_bialgebra(doc, section):
    fiber = _fibers(section)
    # the double chart over a point, as `linfty_bialgebra` builds it
    chart = _at_entry(section, {"fiber": 1}, AlgebroidSpec, Chart([]),
                      fiber).symplectic_chart().chart
    components = {}
    for row in section.rows("component"):
        m, n = (_int(arg, row[3], "arity") for arg in row[1])
        components[(m, n)] = _expr_row(row, chart)
    _cap_row(section, "hbar-cap", 0)   # checked, sets nothing
    return (fiber, components)


# row shapes: (the number of arguments the key takes, or None for one or
# more; whether the row ends in `= expr`)
_ONE = (1, False)     # `key <arg>`: a reference, an integer or a type
_EXPR = (0, True)     # `key = expr`

# section kind -> (its keys, each with its row shape; resolver from the
# document and the section to the section's value).  A construct section
# takes both from the `_CONSTRUCTS` entry of its construction kind instead.
_SECTIONS = {
    "chart": ({"var": (2, False)}, _resolve_chart),
    "algebroid": ({"base": _ONE, "fiber": (2, False), "anchor": (2, True),
                   "bracket": (3, True)}, _resolve_algebroid),
    "bialgebroid": ({"primal": _ONE, "dual": _ONE}, _resolve_bialgebroid),
    "hamiltonian": ({"algebroid": _ONE, "value": _EXPR, "hbar-cap": _ONE},
                    _resolve_hamiltonian),
    "morphism": ({"type": _ONE, "source": _ONE, "target": _ONE,
                  "map": (1, True), "base": (1, True), "word": (None, True),
                  "cap": _ONE}, _resolve_morphism),
    "connection": ({"algebroid": _ONE, "gamma": (1, True)},
                   _resolve_connection),
    "bracket": ({"algebroid": _ONE, "left": _EXPR, "right": _EXPR},
                _resolve_bracket),
    "cediff": ({"algebroid": _ONE, "value": _EXPR}, _resolve_cediff),
    "schouten": ({"algebroid": _ONE, "left": _EXPR, "right": _EXPR},
                 _resolve_schouten),
    "bv": ({"algebroid": _ONE, "connection": _ONE, "value": _EXPR},
           _resolve_bv),
    "lift": ({"chart": _ONE, "shift": _ONE, "component": (1, True)},
             _resolve_lift),
    "legendre": ({"algebroid": _ONE}, _resolve_legendre),
    "construct": (None, None),   # keys and resolver per construction kind
}

# construction kind -> (its keys, each with its row shape; resolver to the
# argument tuple of the catalog entry `cli._CONSTRUCTS` builds it with)
_CONSTRUCTS = {
    "tangent": ({"base": _ONE}, _construct_tangent),
    "action": ({"base": _ONE, "fiber": (2, False), "bracket": (3, True),
                "act": (2, True)}, _construct_action),
    "poisson": ({"base": _ONE, "bivector": (2, True), "hbar-cap": _ONE},
                _construct_poisson),
    "triangular": ({"algebroid": _ONE, "r": _EXPR}, _construct_triangular),
    "nijenhuis": ({"base": _ONE, "endo": (2, True), "bivector": (2, True)},
                  _construct_nijenhuis),
    "linfty-bialgebra": ({"fiber": (2, False), "component": (2, True),
                          "hbar-cap": _ONE}, _construct_linfty_bialgebra),
}


# -- serialization -------------------------------------------------------------


def serialize(doc: SpecFile) -> str:
    lines = []
    for section in doc.sections:
        lines.append(f"{section.label} {section.name}")
        for key, args, expr, _ in section.entries:
            row = "  " + " ".join((key,) + tuple(args))
            if expr is not None:
                row += f" = {expr.strip()}"
            lines.append(row)
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
