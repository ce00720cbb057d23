import pytest

from algebroids.errors import ParseError, UndeclaredVariable
from algebroids.expr import parse_expression
from algebroids.gpoly import Chart

CHART = Chart([("x", 0), ("xi1", 1, "fiber"), ("xi2", 1, "fiber"),
               ("x*", 2, "momentum-base")])


def pe(text):
    return parse_expression(text, CHART)


def test_rational_literals():
    assert pe("3") == CHART.const(3)
    assert pe("-1/2") == CHART.const(-1) / 2
    assert pe("2/4") == CHART.const(1) / 2


def test_precedence_and_parentheses():
    assert pe("x + 2 * x") == pe("3 * x")
    assert pe("(x + x) * x") == pe("2 * x^2")
    assert pe("-x^2") == -pe("x^2")
    assert pe("2 * x^2 + 1") == pe("1 + x^2 + x^2")


def test_momentum_identifiers():
    assert pe("x* * x*") == pe("x*^2")
    assert pe("x* * xi1") == pe("xi1 * x*")


def test_odd_order_normalized_on_parse():
    assert pe("xi2 * xi1") == -pe("xi1 * xi2")
    assert pe("xi1 * xi1").is_zero()


def test_power_requires_nonnegative_integer():
    with pytest.raises(ParseError):
        pe("x ^ (1/2)")
    with pytest.raises(ParseError):
        pe("x ^ 1/2")
    with pytest.raises(ParseError):
        pe("x ^ x")


def test_juxtaposition_rejected():
    with pytest.raises(ParseError) as err:
        pe("x xi1")
    assert "juxtaposition" in str(err.value)
    # a momentum star glues to the identifier, so this is two adjacent atoms
    with pytest.raises(ParseError):
        pe("x*xi1")


def test_error_positions():
    with pytest.raises(ParseError) as err:
        pe("x + ")
    assert err.value.line == 1
    assert err.value.col == 5
    with pytest.raises(UndeclaredVariable) as err2:
        pe("x + y")
    assert err2.value.name == "y"
    assert err2.value.col == 5


def test_unbalanced_parenthesis():
    with pytest.raises(ParseError):
        pe("(x + 1")


def test_unexpected_character():
    with pytest.raises(ParseError):
        pe("x @ 1")


def test_degree_budget():
    from algebroids.expr import MAX_DEGREE
    assert pe(f"x^{MAX_DEGREE}") == pe("x") ** MAX_DEGREE
    assert pe(f"x^{MAX_DEGREE - 1} * x") == pe(f"x^{MAX_DEGREE}")
    # the exponent itself is refused before the power is computed
    with pytest.raises(ParseError, match=f"exponent 2000000 is above "
                                         f"{MAX_DEGREE} at 1:7"):
        pe("1 + x^2000000")
    with pytest.raises(ParseError, match=f"degree above {MAX_DEGREE} at 1:9"):
        pe(f"x^{MAX_DEGREE} * x")
    with pytest.raises(ParseError, match=f"degree above {MAX_DEGREE} at 1:1"):
        pe(f"(x^{MAX_DEGREE // 2 + 1})^2")
    # odd squares vanish, so only monomials that survive count
    assert pe(f"(xi1 + x)^{MAX_DEGREE}") == pe(f"x^{MAX_DEGREE}") \
        + MAX_DEGREE * pe(f"x^{MAX_DEGREE - 1} * xi1")


def test_term_budget():
    from algebroids.expr import MAX_TERMS
    # 100 * 100 products and a power of C(t + n - 1, n) terms stay within it
    hundred = " + ".join(f"{i} * x^{i}" for i in range(1, 101))
    assert len(pe(f"({hundred}) * ({hundred})").terms) == 199
    assert len(pe("(x + x* + xi1)^20").terms) == 41
    # refused before anything is expanded, at the factor that breaks it
    left = f"({hundred} + x^101) * "
    with pytest.raises(ParseError, match=f"up to 10100 terms is above "
                                         f"{MAX_TERMS} terms at 1:{len(left) + 1}$"):
        pe(f"{left}({hundred})")
    with pytest.raises(ParseError, match=f"up to 53130 terms is above "
                                         f"{MAX_TERMS} terms at 1:5$"):
        pe("1 + (1 + x + x^2 + x*^3 + xi1 + x * xi2)^20")
