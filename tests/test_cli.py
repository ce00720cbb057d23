import io
import contextlib
import json
import os

import pytest

from algebroids import cli
from algebroids.cli import main

HERE = os.path.dirname(__file__)
DATA = os.path.join(HERE, "data")
GOLDEN = os.path.join(DATA, "golden")
ROOT = os.path.dirname(HERE)


def run_cli(argv):
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, buf.getvalue()


GOLDEN_CASES = [
    ("check-algebroid", "two_dim_algebra.alg", []),
    ("check-coalgebroid", "two_dim_algebra.alg", []),
    ("check-bialgebroid", "poisson.alg", []),
    ("check-linfty", "poisson.alg", []),
    ("check-morphism", "morphism.alg", []),
    ("bracket", "two_dim_algebra.alg", []),
    ("ce-diff", "two_dim_algebra.alg", []),
    ("schouten", "two_dim_algebra.alg", []),
    ("bv", "two_dim_algebra.alg", []),
    ("lift", "morphism.alg", []),
    ("legendre", "two_dim_algebra.alg", []),
    ("construct", "constructs.alg", []),
    ("round-trip", "poisson.alg", []),
    ("check-bialgebroid", "poisson.alg", ["--json", "--residuals"]),
    ("check-algebroid", "two_dim_algebra.alg", ["--json"]),
]


@pytest.mark.parametrize("sub,fname,flags", GOLDEN_CASES,
                         ids=[c[0] + ("-json" if "--json" in c[2] else "")
                              for c in GOLDEN_CASES])
def test_golden(sub, fname, flags):
    code, out = run_cli([sub, f"tests/data/{fname}"] + flags)
    tag = sub + ("-json" if "--json" in flags else "")
    with open(os.path.join(GOLDEN, f"{tag}.txt")) as fh:
        golden = fh.read()
    assert golden == f"# exit={code}\n" + out


# inputs on which the monomial shifts, the zero-support skip, the basis
# bracket table and the cached mu all fire; each golden is named after its
# input and its tag
KERNEL_CASES = [
    ("check-algebroid", "gl3_broken.alg", ["--json", "--residuals"]),
    ("check-morphism", "log_canonical_d3.alg", ["--json"]),
    ("check-morphism", "point_morphism.alg", ["--json", "--residuals"]),
    ("check-morphism", "base_degree_two.alg", ["--json", "--residuals"]),
    ("check-morphism", "cross_chart_morphism.alg", ["--json", "--residuals"]),
    ("bv", "bv_polynomial.alg", ["--json"]),
]


@pytest.mark.parametrize("sub,fname,flags", KERNEL_CASES,
                         ids=[c[1].split(".")[0] for c in KERNEL_CASES])
def test_kernel_golden(sub, fname, flags):
    code, out = run_cli([sub, f"tests/data/kernel/{fname}"] + flags)
    stem = fname.split(".")[0]
    tag = sub + ("-json" if "--json" in flags else "")
    with open(os.path.join(DATA, "kernel", f"{stem}.{tag}.txt")) as fh:
        golden = fh.read()
    assert golden == f"# exit={code}\n" + out


def test_json_deterministic():
    runs = [run_cli(["check-bialgebroid", "tests/data/poisson.alg", "--json"])
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_parse_error_exit_code():
    code, _ = run_cli(["check-algebroid", "tests/data/bad_order.alg"])
    assert code == 2


def test_missing_file_exit_code():
    code, _ = run_cli(["check-algebroid", "tests/data/does_not_exist.alg"])
    assert code == 2


def test_missing_section_exit_code(capsys):
    code, _ = run_cli(["check-bialgebroid", "tests/data/two_dim_algebra.alg"])
    assert code == 2
    assert capsys.readouterr().err == ("error: no bialgebroid sections in "
                                       "the file\n")


def test_name_without_match_names_the_filter(capsys):
    code, _ = run_cli(["check-algebroid", "tests/data/two_dim_algebra.alg",
                       "--name", "nosuch"])
    assert code == 2
    assert capsys.readouterr().err == ("error: no algebroid section matches "
                                       "--name 'nosuch'\n")


def test_failure_exit_code(tmp_path):
    bad = tmp_path / "broken.alg"
    bad.write_text("""\
chart pt

algebroid V
  base pt
  fiber xi1 0
  fiber xi2 0
  fiber xi3 0
  bracket xi1 xi2 xi1 = 1
  bracket xi1 xi3 xi2 = 1
""")
    code, out = run_cli(["check-algebroid", str(bad)])
    assert code == 1
    assert "FAIL" in out


def test_residuals_flag_prints_polynomials(tmp_path):
    bad = tmp_path / "broken.alg"
    bad.write_text("""\
chart pt

algebroid V
  base pt
  fiber xi1 0
  fiber xi2 0
  fiber xi3 0
  bracket xi1 xi2 xi1 = 1
  bracket xi1 xi3 xi2 = 1
""")
    _, out = run_cli(["check-algebroid", str(bad), "--residuals"])
    assert "residual:" in out


def test_name_filter():
    code, out = run_cli(["construct", "tests/data/constructs.alg",
                         "--name", "tangent"])
    assert code == 0
    assert "[T]" in out and "[A]" not in out


def test_legendre_checks_every_generator_pair(tmp_path):
    # b has degree 0 on V[1]: both exchanges sign its momentum leg, so the
    # composite is b -> -b, b* -> -b*, which the involution record expects
    spec = tmp_path / "graded.alg"
    spec.write_text("chart M\n  var x 0\n\nalgebroid V\n  base M\n"
                    "  fiber a 0\n  fiber b 1\n\nlegendre L\n  algebroid V\n")
    code, out = run_cli(["legendre", str(spec), "--json"])
    checks = json.loads(out)["sections"][0]["checks"]
    n = sum(c["name"].startswith("assign(") for c in checks)
    pairs = [c for c in checks if c["name"].startswith("pair(")]
    assert n == 6 and len(pairs) == n * (n + 1) // 2
    assert all(c["passed"] for c in checks)
    assert code == 0


def test_seed_flag_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["legendre", "tests/data/two_dim_algebra.alg", "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


BAD_INPUTS = {
    "duplicate-var": (b"chart M\n  var x 0\n  var x 1\n", "at line 3"),
    "zero-denominator": (b"chart pt\n\nalgebroid V\n  base pt\n"
                         b"  fiber xi1 0\n  fiber xi2 0\n"
                         b"  bracket xi1 xi2 xi1 = 1/0\n", "at 7:25"),
    "non-utf8": (b"chart M\n  var x\xff 0\n", "utf-8"),
    "fiber-named-like-base": (b"chart M\n  var x 0\n\nalgebroid V\n"
                              b"  base M\n  fiber x 0\n",
                              "fiber 'x' clashes with the base variable 'x'"),
    "non-integer-degree": (b"chart pt\n\nalgebroid V\n  base pt\n"
                           b"  fiber e1 q\n", "bad degree 'q' at line 5"),
    "deep-nesting": (b"chart pt\n\nalgebroid V\n  base pt\n"
                     b"  fiber xi1 0\n  fiber xi2 0\n"
                     b"  bracket xi1 xi2 xi1 = " + b"(" * 3000 + b"1"
                     + b")" * 3000 + b"\n",
                     "parentheses nested deeper than 100 at 7:125"),
    "hbar-cap-without-value": (b"chart pt\n\nalgebroid G\n  base pt\n"
                               b"  fiber xi1 0\n\nhamiltonian H\n"
                               b"  algebroid G\n  hbar-cap\n"
                               b"  value = xi1 * xi1*\n",
                               "'hbar-cap' row is missing argument 1 at line 9"),
    "bare-primal": (b"chart pt\n\nalgebroid G\n  base pt\n  fiber xi1 0\n\n"
                    b"algebroid Gd\n  base pt\n  fiber xi1* 0\n\n"
                    b"bialgebroid B\n  primal\n  dual Gd\n",
                    "'primal' row is missing argument 1 at line 12"),
    "huge-exponent": (b"chart M\n  var x1 0\n\nalgebroid V\n  base M\n"
                      b"  fiber dx 0\n  anchor dx x1 = x1^2000000\n",
                      "exponent 2000000 is above 200 at 7:21"),
    "bracket-degree-1500": (b"chart M\n  var x 0\n\nalgebroid V\n  base M\n"
                            b"  fiber dx 0\n\nbracket B\n  algebroid V\n"
                            b"  left = x^1500\n  right = x*\n",
                            "exponent 1500 is above 200 at 10:12"),
    "duplicate-bracket-row": (b"chart pt\n\nalgebroid V\n  base pt\n"
                              b"  fiber xi1 0\n  fiber xi2 0\n"
                              b"  bracket xi1 xi2 xi1 = 1\n"
                              b"  bracket xi1 xi2 xi1 = 2\n",
                              "duplicate row 'bracket xi1 xi2 xi1' in "
                              "section 'V' at line 8"),
    "duplicate-anchor-row": (b"chart M\n  var x 0\n\nalgebroid V\n"
                             b"  base M\n  fiber xi1 0\n"
                             b"  anchor xi1 x = 1\n  anchor xi1 x = x\n",
                             "duplicate row 'anchor xi1 x' in section 'V' "
                             "at line 8"),
    "even-diagonal-pair": (b"chart pt\n\nalgebroid V\n  base pt\n"
                           b"  fiber xi1 0\n  fiber xi2 0\n"
                           b"  bracket xi1 xi1 xi2 = 1\n",
                           "[xi1,xi1] vanishes for an even section "
                           "at line 7"),
    "mixed-parity-entry": (b"chart pt\n\nalgebroid V\n  base pt\n"
                           b"  fiber xi1 0\n  fiber xi2 1\n"
                           b"  bracket xi1 xi2 xi2 = 1\n",
                           "mixed-parity structure components are outside "
                           "the Hamiltonian encoding implemented here "
                           "at line 7"),
    "inhomogeneous-bracket-entry": (b"chart M\n  var x 0\n  var y 1\n\n"
                                    b"algebroid V\n  base M\n"
                                    b"  fiber xi1 0\n  fiber xi2 0\n"
                                    b"  bracket xi1 xi2 xi1 = x + y\n",
                                    "bracket entry (xi1,xi2,xi1) must be "
                                    "homogeneous of degree 0 at line 9"),
    "inhomogeneous-anchor-entry": (b"chart M\n  var x 0\n  var y 1\n\n"
                                   b"algebroid V\n  base M\n"
                                   b"  fiber xi1 0\n  anchor xi1 x = x + y\n",
                                   "anchor entry (xi1,x) must be homogeneous "
                                   "of degree 0 at line 8"),
    "term-budget": (b"chart M\n" + b"".join(b"  var x%d 0\n" % i
                                             for i in range(1, 7))
                    + b"\nalgebroid V\n  base M\n  fiber xi1 0\n"
                    b"  anchor xi1 x1 = (x1 + x2 + x3 + x4 + x5 + x6)^30\n",
                    "a product of up to 324632 terms is above 10000 terms "
                    "at 12:19"),
    "foreign-construct-key": (b"chart M\n  var x 0\n\nconstruct tangent T\n"
                              b"  base M\n  bivector x x = 1\n  r = 7\n",
                              "unknown key 'bivector' in construct tangent "
                              "section at line 6 (expected base)"),
    "wrong-kind-reference": (b"chart M\n  var x 0\n\nbracket B\n"
                             b"  algebroid M\n  left = x\n  right = x\n",
                             "'algebroid' must name a section of kind "
                             "algebroid, not chart 'M' at line 5"),
    "trunc-line": (b"trunc 2\n\nchart pt\n\nalgebroid V\n  base pt\n"
                   b"  fiber xi1 0\n",
                   "'trunc' lines are refused: charts carry no weight cap; "
                   "a morphism table's 'cap' row is the only weight cap "
                   "at line 1"),
    # trailing items are extra command-line arguments
    "negative-trunc-flag": (b"chart pt\n\nalgebroid V\n  base pt\n"
                            b"  fiber xi1 0\n",
                            "--trunc takes one non-negative integer",
                            "--trunc", "-1"),
}

# two algebroids V over M and W over N, for a morphism section from line 13
TWO_ALGEBROIDS = (b"chart M\n  var x 0\n\nchart N\n  var y 0\n\n"
                  b"algebroid V\n  base M\n  fiber dx 0\n\n"
                  b"algebroid W\n  base N\n  fiber dy 0\n\n")
# a row argument that names no variable of its kind: the input, the name and
# line of the row, and the subcommand that reads its section
UNDECLARED_NAMES = {
    "word-names-no-variable": (
        TWO_ALGEBROIDS + b"morphism f\n  type full\n  source V\n"
        b"  target W\n  cap 1\n  word zz = dx\n", "'zz' at 20",
        "check-morphism"),
    "map-names-no-variable": (
        TWO_ALGEBROIDS + b"morphism f\n  type semistrict\n  source V\n"
        b"  target W\n  map zz = x\n", "'zz' at 19", "check-morphism"),
    "base-names-no-variable": (
        TWO_ALGEBROIDS + b"morphism f\n  type full\n  source V\n"
        b"  target W\n  cap 1\n  base zz = x\n", "'zz' at 20",
        "check-morphism"),
    "anchor-names-no-base-variable": (
        b"chart M\n  var x 0\n\nalgebroid V\n  base M\n  fiber dx 0\n"
        b"  anchor dx nosuch = 1\n", "'nosuch' at 7", "check-algebroid"),
    "gamma-names-no-fiber": (
        b"chart M\n  var x 0\n\nalgebroid V\n  base M\n  fiber e1 0\n\n"
        b"connection C\n  algebroid V\n  gamma nosuch = x\n",
        "'nosuch' at 10", "round-trip"),
    "component-names-no-variable": (
        b"chart M\n  var x 0\n\nlift L\n  chart M\n"
        b"  component nosuch = x\n", "'nosuch' at 6", "lift"),
    "bivector-names-no-variable": (
        b"chart M\n  var x1 0\n  var x2 0\n\nconstruct poisson P\n"
        b"  base M\n  bivector x1 nosuch = x1\n", "'nosuch' at 7",
        "construct"),
    "endo-names-no-variable": (
        b"chart M\n  var x1 0\n  var x2 0\n\nconstruct nijenhuis N\n"
        b"  base M\n  endo x1 nosuch = 1\n", "'nosuch' at 7", "construct"),
    "act-names-no-variable": (
        b"chart M\n  var x 0\n\nconstruct action A\n  base M\n"
        b"  fiber e 0\n  act e nosuch = x\n", "'nosuch' at 7", "construct"),
    "act-names-no-fiber": (
        b"chart M\n  var x 0\n\nconstruct action A\n  base M\n"
        b"  fiber e 0\n  act nosuch x = x\n", "'nosuch' at 7", "construct"),
    "action-bracket-names-no-fiber": (
        b"chart M\n  var x 0\n\nconstruct action A\n  base M\n"
        b"  fiber e 0\n  bracket e nosuch e = 1\n", "'nosuch' at 7",
        "construct"),
}
BAD_INPUTS.update((case, (data, f"undeclared variable {where}:0"))
                  for case, (data, where, _) in UNDECLARED_NAMES.items())
# a row with more arguments than its key takes, and a `full` morphism entry
# that the target chart refuses: each is refused at its row's line
BAD_INPUTS.update({
    "surplus-component-argument": (
        b"chart M\n  var x 0\n\nlift L\n  chart M\n  component x junk = x\n",
        "'component' row has a surplus argument 'junk' at line 6"),
    "surplus-hbar-cap-argument": (
        b"chart pt\n\nalgebroid G\n  base pt\n  fiber xi1 0\n\n"
        b"hamiltonian H\n  algebroid G\n  hbar-cap 3 7\n"
        b"  value = xi1 * xi1*\n",
        "'hbar-cap' row has a surplus argument '7' at line 9"),
    "surplus-cap-argument": (
        TWO_ALGEBROIDS + b"morphism f\n  type full\n  source V\n"
        b"  target W\n  cap 2 9\n",
        "'cap' row has a surplus argument '9' at line 19"),
    "surplus-reference-argument": (
        b"chart M\n  var x 0\n\nchart N\n  var y 0\n\nalgebroid V\n"
        b"  base M N\n  fiber dx 0\n",
        "'base' row has a surplus argument 'N' at line 8"),
    "base-entry-names-a-fiber": (
        TWO_ALGEBROIDS + b"morphism f\n  type full\n  source V\n"
        b"  target W\n  cap 1\n  base dy = x\n",
        "'dy' is not a base coordinate at line 20"),
    # a target base coordinate with neither a base row nor a namesake on
    # the source: only the whole table lacks it, so its type row is named
    "missing-base-row": (
        TWO_ALGEBROIDS + b"morphism f\n  type full\n  source V\n"
        b"  target W\n  cap 1\n  word dy = dx\n",
        "variable 'y' has no image and no same-degree counterpart on "
        "Chart(x:0, dx:1) at line 16"),
    "word-names-a-base-variable": (
        TWO_ALGEBROIDS + b"morphism f\n  type full\n  source V\n"
        b"  target W\n  cap 1\n  word y = dx\n",
        "words range over fiber coordinates only at line 20"),
    "empty-word": (
        TWO_ALGEBROIDS + b"morphism f\n  type full\n  source V\n"
        b"  target W\n  cap 1\n  word = dx\n",
        "'word' row is missing argument 1 at line 20"),
    # the same word with its fibers in another order
    "reordered-duplicate-word": (
        b"chart M\n  var x 0\n\nchart N\n  var y 0\n\n"
        b"algebroid V\n  base M\n  fiber dx 0\n\n"
        b"algebroid W\n  base N\n  fiber dy 0\n  fiber dz 0\n\n"
        b"morphism f\n  type full\n  source V\n  target W\n  cap 2\n"
        b"  word dy dz = 0\n  word dz dy = 0\n",
        "duplicate row 'word dz dy' in section 'f' at line 22"),
    # pi is antisymmetric: a pair in both orders would be summed, and a
    # diagonal pair is zero
    "reversed-bivector-pair": (
        b"chart M\n  var x1 0\n  var x2 0\n\nconstruct poisson P\n"
        b"  base M\n  bivector x1 x2 = x1\n  bivector x2 x1 = x2\n",
        "duplicate row 'bivector x2 x1' in section 'P' at line 8"),
    "reversed-nijenhuis-bivector-pair": (
        b"chart M\n  var x1 0\n  var x2 0\n\nconstruct nijenhuis N\n"
        b"  base M\n  bivector x1 x2 = 1\n  bivector x2 x1 = 1\n",
        "duplicate row 'bivector x2 x1' in section 'N' at line 8"),
    "diagonal-bivector": (
        b"chart M\n  var x1 0\n  var x2 0\n\nconstruct poisson P\n"
        b"  base M\n  bivector x1 x1 = x1\n",
        "diagonal bivector entries vanish: row 'bivector x1 x1' at line 7"),
    "diagonal-nijenhuis-bivector": (
        b"chart M\n  var x1 0\n  var x2 0\n\nconstruct nijenhuis N\n"
        b"  base M\n  bivector x2 x2 = 1\n",
        "diagonal bivector entries vanish: row 'bivector x2 x2' at line 7"),
    # a `semistrict` row is checked alone, as the map onto its coordinate;
    # what only the whole map lacks names the type row
    "semistrict-map-moves-the-basepoint": (
        TWO_ALGEBROIDS + b"morphism f\n  type semistrict\n  source V\n"
        b"  target W\n  map y = x ^ 2 + 1\n  map dy = 2 * x * dx\n",
        "image of 'y' must preserve the basepoint (zero constant term) "
        "at line 19"),
    "semistrict-missing-map-row": (
        TWO_ALGEBROIDS + b"morphism f\n  type semistrict\n  source V\n"
        b"  target W\n  map dy = dx\n",
        "variable 'y' has no image and no same-degree counterpart on "
        "Chart(x:0, dx:1) at line 16"),
    # the check reads no word above the table's cap
    "word-above-cap": (
        b"chart pt\n\nalgebroid G\n  base pt\n  fiber xi1 0\n"
        b"  fiber xi2 0\n\nmorphism F\n  type full\n  source G\n"
        b"  target G\n  cap 1\n  word xi1 = xi1\n  word xi2 = xi2\n"
        b"  word xi1 xi2 = xi1 * xi2\n",
        "a word of weight 2 is above the table's cap 1 at line 15"),
    # over a point, cap 0 leaves no argument either
    "cap-leaves-no-argument": (
        b"chart pt\n\nalgebroid G\n  base pt\n  fiber xi1 0\n\n"
        b"morphism F\n  type full\n  source G\n  target G\n  cap 0\n",
        "cap 0 leaves no argument: the target has no nonconstant monomial "
        "of weight at most 0 at line 11"),
    # a negative cap leaves no argument to check: a vacuous PASS
    "negative-cap": (
        TWO_ALGEBROIDS + b"morphism f\n  type full\n  source V\n"
        b"  target W\n  cap -1\n",
        "bad cap -1: a cap is non-negative at line 19"),
    "negative-hbar-cap": (
        b"chart pt\n\nalgebroid G\n  base pt\n  fiber xi1 0\n\n"
        b"hamiltonian H\n  algebroid G\n  hbar-cap -3\n"
        b"  value = xi1 * xi1*\n",
        "bad hbar-cap -3: a cap is non-negative at line 9"),
    "negative-poisson-hbar-cap": (
        b"chart M\n  var x1 0\n  var x2 0\n\nconstruct poisson P\n"
        b"  base M\n  bivector x1 x2 = x1\n  hbar-cap -1\n",
        "bad hbar-cap -1: a cap is non-negative at line 8"),
})
# a row that takes only an expression, given an argument: the key, the
# section that holds it, and the row's line when the section follows an
# algebroid V over a chart M
EXPRESSION_ROWS = {
    "hamiltonian-value": ("value", b"hamiltonian H\n  algebroid V\n"
                          b"  value junk = x * x*\n", 10),
    "bracket-left": ("left", b"bracket B\n  algebroid V\n"
                     b"  left junk = x\n  right = x*\n", 10),
    "bracket-right": ("right", b"bracket B\n  algebroid V\n"
                      b"  left = x\n  right junk = x*\n", 11),
    "schouten-left": ("left", b"schouten S\n  algebroid V\n"
                      b"  left junk = x\n  right = x\n", 10),
    "schouten-right": ("right", b"schouten S\n  algebroid V\n"
                       b"  left = x\n  right junk = x\n", 11),
    "cediff-value": ("value", b"cediff D\n  algebroid V\n"
                     b"  value junk = x\n", 10),
    "bv-value": ("value", b"connection C\n  algebroid V\n\nbv W\n"
                 b"  algebroid V\n  connection C\n  value junk = x\n", 14),
    "triangular-r": ("r", b"construct triangular T\n  algebroid V\n"
                     b"  r junk = 0\n", 10),
}
BAD_INPUTS.update(
    (f"surplus-{case}-argument",
     (b"chart M\n  var x 0\n\nalgebroid V\n  base M\n  fiber dx 0\n\n"
      + section, f"{key!r} row has a surplus argument 'junk' at line {line}"))
    for case, (key, section, line) in EXPRESSION_ROWS.items())


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2(case, tmp_path, capsys):
    data, where, *flags = BAD_INPUTS[case]
    path = tmp_path / "bad.alg"
    path.write_bytes(data)
    code, _ = run_cli(["check-algebroid", str(path), *flags])
    err = capsys.readouterr().err
    assert code == 2
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors and where in errors[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("case", sorted(UNDECLARED_NAMES))
def test_undeclared_row_name_exits_2(case, tmp_path, capsys):
    data, where, own = UNDECLARED_NAMES[case]
    path = tmp_path / "bad.alg"
    path.write_bytes(data)
    for sub in ("round-trip", own):
        code, _ = run_cli([sub, str(path)])
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: undeclared variable {where}:0\n"


TRUNC_WARNING = ("warning: --trunc is ignored: charts carry no weight cap; "
                 "a morphism table's cap row is the only weight cap\n")


# the flag is accepted and ignored: every golden output and exit code stands,
# and stderr holds the one warning line
@pytest.mark.parametrize("cap", ["0", "1", "2", "3", "4"])
@pytest.mark.parametrize("sub,fname,flags", GOLDEN_CASES,
                         ids=[f"{c[0]}{'-json' if '--json' in c[2] else ''}-"
                              f"{c[1]}" for c in GOLDEN_CASES])
def test_trunc_keeps_golden(sub, fname, flags, cap, capsys):
    code, out = run_cli([sub, f"tests/data/{fname}", *flags, "--trunc", cap])
    tag = sub + ("-json" if "--json" in flags else "")
    with open(os.path.join(GOLDEN, f"{tag}.txt")) as fh:
        golden = fh.read()
    assert golden == f"# exit={code}\n" + out
    assert capsys.readouterr().err == TRUNC_WARNING


def test_hbar_cap_row_leaves_check_morphism_alone(tmp_path):
    # an hbar-cap row sets nothing: the morphism check truncates at its
    # table's cap
    with open(os.path.join(DATA, "morphism.alg")) as fh:
        text = fh.read()
    assert "  hbar-cap 3\n" in text
    outs = []
    for cap in ("0", "3"):
        path = tmp_path / f"cap{cap}.alg"
        path.write_text(text.replace("  hbar-cap 3\n", f"  hbar-cap {cap}\n"))
        outs.append(run_cli(["check-morphism", str(path), "--json"]))
    assert outs[0] == outs[1]
    assert outs[0][0] == 0


def test_timings_per_section(monkeypatch):
    ticks = iter([0.0, 0.004, 0.010, 0.0125])
    monkeypatch.setattr(cli, "perf_counter", lambda: next(ticks))
    code, out = run_cli(["check-morphism", "tests/data/morphism.alg",
                         "--timings"])
    assert code == 0
    assert "-- morphism: OK (4.0 ms)" in out.splitlines()
    assert "-- homotopy-morphism: OK (2.5 ms)" in out.splitlines()


def test_internal_error_without_text_names_its_type(monkeypatch, capsys):
    def fault(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "run", fault)
    code, _ = run_cli(["check-algebroid", "tests/data/two_dim_algebra.alg"])
    assert code == 3
    assert capsys.readouterr().err == "internal error: MemoryError\n"


def test_exponent_overflow_exits_2(tmp_path, capsys):
    # pulling y^200 back through y = x^200 needs x^40000, above the field
    # a packed monomial key gives an even variable
    path = tmp_path / "overflow.alg"
    path.write_text("chart M\n  var x 0\n\nchart N\n  var y 0\n\n"
                    "algebroid V\n  base M\n  fiber dx 0\n  anchor dx x = 1\n\n"
                    "algebroid W\n  base N\n  fiber dy 0\n"
                    "  anchor dy y = y^200\n\nmorphism f\n  type semistrict\n"
                    "  source V\n  target W\n  map y = x^200\n"
                    "  map dy = 200 * x^199 * dx\n")
    code, _ = run_cli(["check-morphism", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: exponent of 'x' is above 32767" in err.splitlines()


def test_bracket_at_the_degree_budget(tmp_path):
    # the Leibniz recursion takes one frame per factor of each operand
    from algebroids.expr import MAX_DEGREE
    path = tmp_path / "deep.alg"
    path.write_text("chart M\n  var x 0\n\nalgebroid V\n  base M\n"
                    "  fiber dx 0\n\nbracket B\n  algebroid V\n"
                    f"  left = x^{MAX_DEGREE}\n  right = x*^{MAX_DEGREE}\n")
    code, out = run_cli(["bracket", str(path)])
    assert code == 0
    n = MAX_DEGREE
    assert f"[-{n * n} * x^{n - 1} * x*^{n - 1}]" in out


def test_construct_poisson_brackets_each_hamiltonian_once(monkeypatch):
    from algebroids import algebroid, bialgebroid, symplectic
    from algebroids.constructions import poisson_bialgebroid
    from algebroids.specfile import parse_spec

    bodies = []
    original = symplectic.is_integrable

    def counted(ham):
        bodies.append(repr(ham.body))
        return original(ham)

    for module in (symplectic, algebroid, bialgebroid, cli):
        monkeypatch.setattr(module, "is_integrable", counted)
    code, _ = run_cli(["construct", "tests/data/poisson.alg"])
    assert code == 0
    with open(os.path.join(DATA, "poisson.alg")) as fh:
        doc = parse_spec(fh.read())
    b, chi = poisson_bialgebroid(*doc.lookup("P").resolved)
    mu = algebroid.hamiltonian_of_algebroid(b.primal)
    mu_dual = algebroid.hamiltonian_of_algebroid(b.dual)
    assert sorted(bodies) == sorted(repr(h.body) for h in (mu, mu_dual, chi))


# mu builds per subcommand on poisson.alg: one per algebroid section (V and
# Vd); one per spec and chart (V, Vd, Vd on the Legendre twin chart) for
# the bialgebroid B and for the construction P
@pytest.mark.parametrize("sub, builds", [("check-algebroid", 2),
                                         ("check-bialgebroid", 3),
                                         ("construct", 3)])
def test_mu_is_built_once_per_spec_and_chart(sub, builds, monkeypatch):
    # the builder's binding in every module that calls it, wrapped: a memo
    # hit returns the Hamiltonian it returned before, a build a new one
    from algebroids import algebroid, bialgebroid, constructions, specfile
    original = algebroid.hamiltonian_of_algebroid
    returned = []

    def counted(*args, **kwargs):
        ham = original(*args, **kwargs)
        if not any(ham is seen for seen in returned):
            returned.append(ham)
        return ham

    for module in (algebroid, bialgebroid, constructions, specfile):
        monkeypatch.setattr(module, "hamiltonian_of_algebroid", counted)
    code, _ = run_cli([sub, "tests/data/poisson.alg"])
    assert code == 0
    assert len(returned) == builds
