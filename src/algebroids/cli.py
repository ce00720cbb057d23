"""Command-line interface: parse a spec file, run checks, report verdicts.

Exit codes: 0 all checks pass, 1 verification failure, 2 parse/validation
error, 3 internal error or a verdict that could not be written.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from time import perf_counter
from typing import List, Optional

from .algebroid import (AlgebroidSpec, bv_operator, ce_differential,
                        check_algebroid, schouten_bracket)
from .bialgebroid import (check_bialgebroid, check_linfty,
                          legendre_quadratic_check, linfty_morphism_check,
                          semistrict_morphism_check)
from .errors import (AlgebroidsError, MissingSection, ParseError,
                     TruncationIncomplete)
from .gpoly import KIND_FIBER, render_poly
from .report import Report, verdict_json
from .specfile import (Section, SpecFile, construct_report, hamiltonian_of,
                       parse_spec, serialize)
from .symplectic import (PolyMap, canonical_bracket, canonical_context,
                         check_poisson_map, hamiltonian_lift, legendre,
                         shifted_cotangent, twin_chart)


def _value_report(title, value) -> Report:
    report = Report(title)
    report.add("value", "evaluation", passed=True, detail=render_poly(value))
    return report


def _legendre_report(sc) -> Report:
    report = Report("legendre")
    twin = twin_chart(sc)
    lmap = legendre(sc)
    for v in lmap.target.vars:
        report.add(f"assign({v.name})", "coordinate image", passed=True,
                   detail=render_poly(lmap.image_of(v.name)))
    # each exchange signs the momentum leg of an even fiber coordinate, so
    # the composite is -1 on such a coordinate and on its momentum
    chart = sc.chart
    signs = PolyMap(chart, chart, {
        name: -chart.var_poly(name) for v in sc.coords()
        if v.kind == KIND_FIBER and not v.parity
        for name in (v.name, sc.momentum_of(v.name).name)})
    report.add("involution", "the exchange composed with itself is the "
               "identity, but -1 on an even fiber coordinate and its momentum",
               passed=lmap.then(legendre(twin)).then(signs).is_identity())
    report.extend(check_poisson_map(lmap, canonical_context(sc),
                                    canonical_context(twin)))
    return report


def _check_linfty(section) -> Optional[Report]:
    # an algebroid, constructed or not, is check-algebroid's
    if isinstance(section.resolved, AlgebroidSpec):
        return None
    ham = hamiltonian_of(section.resolved)
    return None if ham is None else check_linfty(ham)


def _check_morphism(section) -> Report:
    mtype, source, target, data = section.resolved
    if mtype == "semistrict":
        return semistrict_morphism_check(data, source, target)
    try:
        return linfty_morphism_check(data, source, target)
    except TruncationIncomplete as exc:
        # only the check finds a word the table lacks: place it at the cap
        raise ParseError(str(exc), section.single("cap")[3]) from None


def _check_bialgebroid(section) -> Report:
    rep = check_bialgebroid(section.resolved)
    rep.extend(legendre_quadratic_check(section.resolved))
    return rep


def _round_trip(section) -> Report:
    doc = section.resolved
    report = Report("round-trip")
    report.add("serialize-parse", "parse, serialize, parse is the identity",
               passed=(parse_spec(serialize(doc)) == doc))
    return report


# subcommand -> (section kinds it reads, the Section field `--name` selects
# by, handler from a section to a Report or None for a section it skips).
# Each kind heads a label of `specfile`'s one table of sections, `construct`
# every construction's.  No kinds means the whole file, as one section named
# "file".
COMMANDS = {
    "check-algebroid": (("algebroid",), "name",
                        lambda s: check_algebroid(s.resolved)),
    # dual-structure data presented as an algebroid on the dual bundle
    "check-coalgebroid": (("algebroid",), "name",
                          lambda s: replace(
                              check_algebroid(s.resolved),
                              title="coalgebroid (dual algebroid data)")),
    "check-bialgebroid": (("bialgebroid",), "name", _check_bialgebroid),
    "check-linfty": (("hamiltonian", "construct"), "name", _check_linfty),
    "check-morphism": (("morphism",), "name", _check_morphism),
    "bracket": (("bracket",), "name", lambda s: _value_report(
        "bracket", canonical_bracket(s.resolved[1], s.resolved[2],
                                     s.resolved[0].symplectic_chart()))),
    "ce-diff": (("cediff",), "name", lambda s: _value_report(
        "ce-differential", ce_differential(*s.resolved))),
    "schouten": (("schouten",), "name", lambda s: _value_report(
        "schouten", schouten_bracket(*s.resolved))),
    "bv": (("bv",), "name", lambda s: _value_report(
        "bv-operator", bv_operator(*s.resolved))),
    "lift": (("lift",), "name", lambda s: _value_report(
        "hamiltonian-lift",
        hamiltonian_lift(shifted_cotangent(s.resolved[0], s.resolved[1]),
                         s.resolved[2]))),
    "legendre": (("legendre",), "name", lambda s: _legendre_report(s.resolved)),
    "construct": (("construct",), "subtype", construct_report),
    "round-trip": ((), "name", _round_trip),
}
SUBCOMMANDS = tuple(COMMANDS)


def run(subcommand: str, doc: SpecFile,
        name: Optional[str] = None) -> List[tuple]:
    """Execute a subcommand; returns [(section name, Report), ...].

    Each report's `elapsed_ms` is the time its own section took."""
    if subcommand not in COMMANDS:
        raise AlgebroidsError(f"unknown subcommand {subcommand!r}")
    kinds, field, handler = COMMANDS[subcommand]
    if kinds:
        sections = [s for kind in kinds for s in doc.of_kind(kind)
                    if name is None or getattr(s, field) == name]
    else:
        sections = [Section("file", "file", 0, [], resolved=doc)]
    out = []
    for s in sections:
        started = perf_counter()
        try:
            rep = handler(s)
        except AlgebroidsError as exc:   # placed at its section if lineless
            if getattr(exc, "line", None) is None:
                raise ParseError(str(exc), s.line) from None
            raise
        if rep is not None:
            rep.elapsed_ms = (perf_counter() - started) * 1000.0
            out.append((s.name, rep))
    if not out:
        # the first kind is the one the subcommand needs
        if not sections and name is not None and any(
                doc.of_kind(kind) for kind in kinds):
            raise MissingSection(
                f"no {' or '.join(kinds)} section matches --name {name!r}")
        raise MissingSection(f"no {kinds[0]} sections in the file")
    return out


# -- entry point ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algebroids",
        description="Exact verification of graded bracket structures "
                    "declared in spec files.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("file", help="input spec file")
    parser.add_argument("--name", help="restrict to one section "
                                       "(or one construction kind for 'construct')")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable output")
    parser.add_argument("--residuals", action="store_true",
                        help="print full residual polynomials")
    # accepted and ignored while verdictbench/workloads.py still passes it
    parser.add_argument("--trunc", type=int, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--timings", action="store_true",
                        help="show elapsed time in the human summary")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.trunc is not None:
        if args.trunc < 0:
            print("error: --trunc takes one non-negative integer",
                  file=sys.stderr)
            return 2
        print("warning: --trunc is ignored: charts carry no weight cap; "
              "a morphism table's cap row is the only weight cap",
              file=sys.stderr)
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        doc = parse_spec(text)
        results = run(args.subcommand, doc, name=args.name)
    except AlgebroidsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # an exception with no text (MemoryError) is named by its type
        print(f"internal error: {str(exc) or type(exc).__name__}",
              file=sys.stderr)
        return 3

    passed = all(rep.passed for _, rep in results)
    # a verdict that cannot be written is no verdict: the flush is inside
    # the guard, so that nothing is left to fail at interpreter exit
    try:
        if args.as_json:
            print(verdict_json(args.subcommand, results, args.residuals))
        else:
            for name, rep in results:
                print(f"[{name}]")
                print(rep.render(residuals=args.residuals,
                                 timings=args.timings))
            print(f"result: {'PASS' if passed else 'FAIL'}")
        sys.stdout.flush()
    except OSError as exc:   # BrokenPipeError among them
        _discard_stdout()
        print(f"error: cannot write the verdict: {exc}", file=sys.stderr)
        return 3
    return 0 if passed else 1


def _discard_stdout() -> None:
    """Point standard output at the null device, so that the unwritten
    rest of its buffer is dropped at interpreter exit instead of failing
    again."""
    try:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
    except (OSError, ValueError):
        # io.UnsupportedOperation (no file descriptor) is both
        pass


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
