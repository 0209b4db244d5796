import numpy as np
import pytest

from levelcross.expressions import (
    BinOp,
    EvalError,
    Neg,
    Num,
    ParseError,
    Var,
    eval_expr,
    parse_expr,
    to_text,
)


def test_precedence_sub_div():
    assert parse_expr("1 - a/2") == BinOp("-", Num(1.0), BinOp("/", Var(), Num(2.0)))


def test_grouping():
    assert parse_expr("1/(a+1)") == BinOp("/", Num(1.0), BinOp("+", Var(), Num(1.0)))


def test_grouping_leaves_no_node():
    assert parse_expr("(1)-a/2") == parse_expr("1 - a/2")


def test_unknown_identifier_offset():
    with pytest.raises(ParseError, match=r"unknown identifier 'b' at offset 4"):
        parse_expr("1 - b/2")


@pytest.mark.parametrize(
    "text",
    ["", "   ", "(a+1", "a+", "a b", "1..2", "a )", "*a", "2 3", "1 $ a"],
)
def test_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_expr(text)


def test_error_offsets():
    with pytest.raises(ParseError) as err:
        parse_expr("a b")
    assert err.value.offset == 2
    with pytest.raises(ParseError) as err:
        parse_expr("(a+1")
    assert err.value.offset == 4


def test_eval_linear_identity():
    ast = parse_expr("1 - a/2")
    value = eval_expr(ast, 2 / 3)
    assert value == 1.0 - (2 / 3) / 2
    assert abs(value - 2 / 3) < 3e-16  # one ulp of rounding is allowed


def test_eval_coulomb_like():
    assert eval_expr(parse_expr("1/(a+1)"), 0.0) == 1.0


def test_eval_pole():
    with pytest.raises(EvalError, match="division by zero") as err:
        eval_expr(parse_expr("1/(a+1)"), -1.0)
    assert err.value.a == -1.0


def test_pole_not_masked_by_zero_product():
    with pytest.raises(EvalError, match="division by zero"):
        eval_expr(parse_expr("0*(1/a)"), 0.0)


def test_power_right_associative():
    assert eval_expr(parse_expr("2^3^2"), 0.0) == 512.0


def test_unary_minus_binds_below_power():
    assert eval_expr(parse_expr("-a^2"), 3.0) == -9.0
    assert eval_expr(parse_expr("a^-2"), 2.0) == 0.25


def test_left_associativity():
    assert eval_expr(parse_expr("1-2-3"), 0.0) == -4.0
    assert eval_expr(parse_expr("8/4/2"), 0.0) == 1.0


def test_scientific_literals():
    assert eval_expr(parse_expr("1.5e2 + .5"), 0.0) == 150.5


def test_power_domain_errors():
    with pytest.raises(EvalError, match="fractional power"):
        eval_expr(parse_expr("(0-2)^0.5"), 0.0)
    with pytest.raises(EvalError, match="zero to a negative power"):
        eval_expr(parse_expr("a^-1"), 0.0)


def test_overflow_is_reported():
    with pytest.raises(EvalError, match="non-finite"):
        eval_expr(parse_expr("1e300*1e300"), 0.0)


def test_array_eval_matches_scalar_bitwise():
    grid = np.linspace(0.0, 4.0, 101)
    for text in ["1 - a/2", "1/(a+1)", "1.1 - 1/(a+1)", "0.05 + a", "a^2 - a"]:
        ast = parse_expr(text)
        vec = eval_expr(ast, grid)
        assert vec.shape == grid.shape
        for k in range(grid.size):
            assert vec[k] == eval_expr(ast, float(grid[k]))


def test_array_eval_constant_expression():
    grid = np.linspace(0.0, 1.0, 7)
    vec = eval_expr(parse_expr("3"), grid)
    assert vec.shape == grid.shape
    assert np.all(vec == 3.0)


def test_array_pole_reports_offending_point():
    grid = np.array([0.0, 0.5, 1.0, 1.5])
    with pytest.raises(EvalError) as err:
        eval_expr(parse_expr("1/(a-1)"), grid)
    assert err.value.a == 1.0


def _random_ast(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Var()
        return Num(float(np.round(rng.uniform(0.0, 4.0), 3)))
    pick = rng.random()
    if pick < 0.15:
        return Neg(_random_ast(rng, depth - 1))
    if pick < 0.25:
        # keep exponents small, integral, and positive
        return BinOp("^", _random_ast(rng, depth - 1), Num(float(rng.integers(0, 4))))
    op = "+-*/"[rng.integers(0, 4)]
    left = _random_ast(rng, depth - 1)
    right = _random_ast(rng, depth - 1)
    if op == "/":
        right = BinOp("+", right, Num(9.0))  # push the pole out of the sample box
    return BinOp(op, left, right)


def test_roundtrip_random_trees():
    rng = np.random.default_rng(20260817)
    points = np.linspace(0.0, 2.0, 9)
    for _ in range(300):
        tree = _random_ast(rng, 4)
        text = to_text(tree)
        again = parse_expr(text)
        assert again == tree, text
        try:
            want = eval_expr(tree, points)
        except EvalError:
            continue
        assert np.array_equal(eval_expr(again, points), want)


def test_roundtrip_caption_forms():
    for text in ["1 - a/2", "1.05 - a/2", "1.1 - a/2", "a", "1 - 1/(a+1)", "0.05 + a"]:
        tree = parse_expr(text)
        assert parse_expr(to_text(tree)) == tree


def test_roundtrip_parenthesized_power_exponent():
    # a sum in the exponent binds looser than ^, so it keeps its parentheses
    tree = parse_expr("2^(a+1)")
    assert to_text(tree) == "2.0^(a + 1.0)"
    assert parse_expr(to_text(tree)) == tree


def test_long_flat_sum_is_refused_at_parse_time():
    # a flat sum builds a left-deep tree, one level per term, that the
    # parser builds in a loop; evaluating it would recurse 5000 deep
    text = " + ".join(["a"] * 5000)
    with pytest.raises(ParseError, match=r"expression nested too deeply at offset \d+$") as err:
        parse_expr(text)
    assert text[err.value.offset] == "+"


def test_500_term_sum_evaluates_in_order_and_round_trips():
    coeffs = [1.0 / (k + 3) for k in range(499)]
    text = "a" + "".join(f" + {c!r}*a" for c in coeffs)
    tree = parse_expr(text)
    a = np.linspace(-1.0, 2.0, 7)
    want = a.copy()
    for c in coeffs:  # left to right, as the left-deep tree adds
        want = want + c * a
    assert eval_expr(tree, a).tobytes() == want.tobytes()
    # a tree this deep is past what == can recurse through; compare its text
    assert to_text(tree) == text
    assert to_text(parse_expr(text)) == text
