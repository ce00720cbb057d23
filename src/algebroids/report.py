"""Verification reports: one record per checked identity."""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import List, NamedTuple, Optional


class CheckRecord(NamedTuple):
    """Outcome of a single identity check; a tuple, so a record is cheap
    to build and compares equal to the tuple of its fields."""

    name: str
    identity: str          # the mathematical identity being tested
    passed: bool
    residual: Optional[str] = None   # rendered residual polynomial, if any
    detail: Optional[str] = None

    def to_dict(self, residuals: bool = False) -> dict:
        out = {"name": self.name, "identity": self.identity,
               "passed": self.passed}
        if self.detail is not None:
            out["detail"] = self.detail
        if residuals and self.residual is not None:
            out["residual"] = self.residual
        return out


@dataclass
class Report:
    """A deterministic, ordered collection of check records."""

    title: str
    records: List[CheckRecord] = field(default_factory=list)
    elapsed_ms: Optional[float] = None

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def add(self, name: str, identity: str, residual_poly=None, passed=None,
            detail: Optional[str] = None) -> CheckRecord:
        if passed is None:
            passed = residual_poly is None or residual_poly.is_zero()
        rendered = None
        if residual_poly is not None and not residual_poly.is_zero():
            rendered = repr(residual_poly)
        rec = CheckRecord(name, identity, passed, rendered, detail)
        self.records.append(rec)
        return rec

    def extend(self, other: "Report") -> None:
        self.records.extend(other.records)

    def to_dict(self, residuals: bool = False) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "checks": [r.to_dict(residuals) for r in self.records],
        }

    def render(self, residuals: bool = False, timings: bool = False) -> str:
        lines = [f"== {self.title} =="]
        for r in self.records:
            status = "PASS" if r.passed else "FAIL"
            line = f"  [{status}] {r.name}: {r.identity}"
            if r.detail:
                line += f" [{r.detail}]"
            lines.append(line)
            if residuals and r.residual:
                lines.append(f"         residual: {r.residual}")
        verdict = "OK" if self.passed else "FAILED"
        tail = f"-- {self.title}: {verdict}"
        if timings and self.elapsed_ms is not None:
            tail += f" ({self.elapsed_ms:.1f} ms)"
        lines.append(tail)
        return "\n".join(lines)


# -- the --json verdict ---------------------------------------------------------
#
# `json.dumps` falls back to its pure-Python encoder whenever `indent` is
# set, and a verdict can hold thousands of records.  So the writer below
# emits the same bytes directly: each string through the encoder `json.dumps`
# uses, each record in one join, and the whole text in one more join, so a
# large verdict is copied once.

_BOOL = {True: "true", False: "false"}


def _record_json(r: CheckRecord, residuals: bool) -> str:
    fields = ['"name": ' + encode_basestring_ascii(r.name),
              '"identity": ' + encode_basestring_ascii(r.identity),
              '"passed": ' + _BOOL[r.passed]]
    if r.detail is not None:
        fields.append('"detail": ' + encode_basestring_ascii(r.detail))
    if residuals and r.residual is not None:
        fields.append('"residual": ' + encode_basestring_ascii(r.residual))
    return "{\n          " + ",\n          ".join(fields) + "\n        }"


def verdict_json(command: str, results, residuals: bool = False) -> str:
    """The `--json` output for [(section name, Report), ...]: the bytes of
    `json.dumps(payload, indent=2)` for

        payload = {"command": command,
                   "sections": [{"name": name, **report.to_dict(residuals)}
                                for name, report in results],
                   "passed": every report passed}
    """
    out = ['{\n  "command": ', encode_basestring_ascii(command),
           ',\n  "sections": [']
    passed = True
    for i, (name, rep) in enumerate(results):
        ok = rep.passed
        passed = passed and ok
        out += (",\n    {" if i else "\n    {",
                '\n      "name": ', encode_basestring_ascii(name),
                ',\n      "title": ', encode_basestring_ascii(rep.title),
                ',\n      "passed": ', _BOOL[ok], ',\n      "checks": [')
        for j, r in enumerate(rep.records):
            out += (",\n        " if j else "\n        ",
                    _record_json(r, residuals))
        out.append("\n      ]\n    }" if rep.records else "]\n    }")
    out += ("\n  ]" if results else "]", ',\n  "passed": ', _BOOL[passed],
            "\n}")
    return "".join(out)
