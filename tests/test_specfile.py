import os

import pytest

from algebroids.algebroid import AlgebroidSpec, hamiltonian_of_algebroid
from algebroids.symplectic import Hamiltonian
from algebroids.errors import DegreeError, ParseError, UndeclaredVariable
from algebroids.gpoly import Chart
from algebroids.specfile import parse_spec, serialize

MINIMAL = """\
chart M
  var x 0

algebroid V
  base M
  fiber xi1 0
  anchor xi1 x = 1
"""

TWO_DIM = """\
chart pt

algebroid V
  base pt
  fiber xi1 0
  fiber xi2 0
  bracket xi1 xi2 xi1 = 1
"""


def test_minimal_document():
    doc = parse_spec(MINIMAL)
    spec = doc.lookup("V").resolved
    assert isinstance(spec, AlgebroidSpec)
    assert spec.fiber_names == ("xi1",)
    chart = doc.lookup("M").resolved
    assert isinstance(chart, Chart)


def test_canonical_pair_order_enforced():
    bad = TWO_DIM.replace("bracket xi1 xi2 xi1", "bracket xi2 xi1 xi1")
    with pytest.raises(ParseError) as err:
        parse_spec(bad)
    assert "canonical order" in str(err.value)


def test_odd_diagonal_pair_accepted():
    text = ("chart pt\n\nalgebroid V\n  base pt\n  fiber e 1\n"
            "  fiber f 2\n  bracket e e f = 1\n")
    spec = parse_spec(text).lookup("V").resolved
    assert spec.structure_entry(0, 0, 1) == spec.base.const(1)


def test_momentum_degree_mismatch_is_degree_error():
    text = TWO_DIM + """
algebroid Vd
  base pt
  fiber xi1* 2
  fiber xi2* 2

bialgebroid B
  primal V
  dual Vd
"""
    with pytest.raises(DegreeError):
        parse_spec(text)


def test_unknown_section_kind_rejected():
    with pytest.raises(ParseError):
        parse_spec("gadget G\n  base M\n")


def test_unknown_key_rejected():
    with pytest.raises(ParseError) as err:
        parse_spec("chart M\n  vr x 0\n")
    assert "unknown key" in str(err.value)


def test_undeclared_variable_in_expression():
    bad = MINIMAL.replace("anchor xi1 x = 1", "anchor xi1 x = y")
    with pytest.raises(UndeclaredVariable):
        parse_spec(bad)


def test_duplicate_names_rejected():
    with pytest.raises(ParseError):
        parse_spec("chart M\n  var x 0\n\nchart M\n  var y 0\n")


def test_round_trip_identity():
    text = TWO_DIM + """
hamiltonian H
  algebroid V
  hbar-cap 3
  value = xi1 * xi2 * xi1*

construct triangular TR
  algebroid V
  r = xi1* * xi2*
"""
    doc = parse_spec(text)
    assert parse_spec(serialize(doc)) == doc
    assert serialize(parse_spec(serialize(doc))) == serialize(doc)


def test_hamiltonian_section_builds_linfty():
    doc = parse_spec(TWO_DIM + """
hamiltonian H
  algebroid V
  value = xi1 * xi2 * xi1*
""")
    lham = doc.lookup("H").resolved
    assert isinstance(lham, Hamiltonian)
    assert lham.body.is_homogeneous(3)


def test_morphism_endpoints_are_hamiltonians():
    path = os.path.join(os.path.dirname(__file__), "data", "morphism.alg")
    with open(path) as fh:
        doc = parse_spec(fh.read())
    for name in ("f", "F"):
        _, source, target, _ = doc.lookup(name).resolved
        assert isinstance(source, Hamiltonian)
        assert isinstance(target, Hamiltonian)
    # an algebroid endpoint is the mu of its algebroid
    _, source, target, _ = doc.lookup("f").resolved
    for ham, spec in ((source, "V"), (target, "W")):
        mu = hamiltonian_of_algebroid(doc.lookup(spec).resolved)
        assert ham.body == mu.body
    assert doc.lookup("F").resolved[1] is doc.lookup("HG").resolved


@pytest.mark.parametrize("text,where", [
    ("chart pt\n\nconstruct action A\n  base pt\n  fiber e1 q\n",
     "bad degree 'q' at line 5"),
    ("construct linfty-bialgebra LB\n  fiber xi1 0\n  fiber xi2 1/2\n",
     "bad degree '1/2' at line 3"),
    ("construct linfty-bialgebra LB\n  fiber xi1 0\n"
     "  component 2 x = xi1\n", "bad arity 'x' at line 3"),
    ("chart M\n  var x 0\n\nlift L\n  chart M\n  shift two\n",
     "bad shift 'two' at line 6"),
])
def test_integer_fields_reject_other_tokens(text, where):
    with pytest.raises(ParseError, match=where):
        parse_spec(text)


def test_expression_columns_count_from_line_start():
    text = TWO_DIM.replace("= 1", "= 1 + y")
    with pytest.raises(UndeclaredVariable, match="at 7:29"):
        parse_spec(text)


@pytest.mark.parametrize("text,where", [
    ("chart pt\n\nconstruct linfty-bialgebra LB\n  fiber xi1 0\n"
     "  hbar-cap\n", "'hbar-cap' row is missing argument 1 at line 5"),
    ("chart pt\n\nconstruct action A\n  base\n",
     "'base' row is missing argument 1 at line 4"),
    ("chart pt\n\nconstruct action A\n  base pt\n  fiber e1\n",
     "'fiber' row is missing argument 2 at line 5"),
    ("chart pt\n\nconstruct poisson P\n  base pt\n  bivector x = 1\n",
     "'bivector' row is missing argument 2 at line 5"),
    ("chart M\n  var x 0\n\nlift L\n  chart M\n  component = x\n",
     "'component' row is missing argument 1 at line 6"),
])
def test_missing_row_arguments(text, where):
    with pytest.raises(ParseError, match=where):
        parse_spec(text)


# a chart M and an algebroid V over it; a wrong-kind reference to one of them
# sits on the line given with each section
WRONG_KIND_PRELUDE = ("chart M\n  var x 0\n\n"
                      "algebroid V\n  base M\n  fiber e1 0\n\n")
WRONG_KIND = {
    "algebroid.base": ("algebroid W\n  base V\n  fiber e2 0\n", 9),
    "bialgebroid.primal": ("bialgebroid B\n  primal M\n  dual V\n", 9),
    "bialgebroid.dual": ("bialgebroid B\n  primal V\n  dual M\n", 10),
    "hamiltonian.algebroid": ("hamiltonian H\n  algebroid M\n  value = x\n", 9),
    "morphism.source": ("morphism F\n  type semistrict\n  source M\n"
                        "  target V\n", 10),
    "morphism.target": ("morphism F\n  type semistrict\n  source V\n"
                        "  target M\n", 11),
    "connection.algebroid": ("connection C\n  algebroid M\n", 9),
    "bracket.algebroid": ("bracket B\n  algebroid M\n  left = x\n"
                          "  right = x\n", 9),
    "cediff.algebroid": ("cediff D\n  algebroid M\n  value = x\n", 9),
    "schouten.algebroid": ("schouten S\n  algebroid M\n  left = x\n"
                           "  right = x\n", 9),
    "bv.algebroid": ("bv Q\n  algebroid M\n  connection V\n  value = 1\n", 9),
    "bv.connection": ("bv Q\n  algebroid V\n  connection V\n  value = 1\n",
                      10),
    "lift.chart": ("lift L\n  chart V\n", 9),
    "legendre.algebroid": ("legendre L\n  algebroid M\n", 9),
    "tangent.base": ("construct tangent T\n  base V\n", 9),
    "action.base": ("construct action A\n  base V\n", 9),
    "poisson.base": ("construct poisson P\n  base V\n", 9),
    "nijenhuis.base": ("construct nijenhuis N\n  base V\n", 9),
    "triangular.algebroid": ("construct triangular R\n  algebroid M\n"
                             "  r = 1\n", 9),
}


@pytest.mark.parametrize("case", sorted(WRONG_KIND))
def test_wrong_kind_reference_names_its_row(case):
    section, line = WRONG_KIND[case]
    key = case.split(".")[1]
    with pytest.raises(ParseError,
                       match=f"^'{key}' must name a section of kind .* "
                             f"at line {line}$"):
        parse_spec(WRONG_KIND_PRELUDE + section)
