from dataclasses import dataclass, replace

import numpy as np
import pytest

from levelcross.expressions import (
    EvalError,
    Expr,
    ParseError,
    _first_fault,
    _tokenize,
    eval_expr,
    parse_expr,
    to_text,
)
from levelcross.model import LevelSpec
from levelcross.presets import PRESET_IDS, preset


def test_precedence_sub_div():
    assert parse_expr("1 - a/2").code == (("num", 1.0), ("a",), ("num", 2.0), ("/",), ("-",))


def test_grouping():
    assert parse_expr("1/(a+1)").code == (("num", 1.0), ("a",), ("num", 1.0), ("+",), ("/",))


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
    assert parse_expr("-a^2").code == (("a",), ("num", 2.0), ("^",), ("neg",))
    assert parse_expr("a^-2").code == (("a",), ("num", 2.0), ("neg",), ("^",))


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


def _random_code(rng, depth):
    """The program of a random tree: a leaf, or an operator on subtrees."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return (("a",),)
        return (("num", float(np.round(rng.uniform(0.0, 4.0), 3))),)
    pick = rng.random()
    if pick < 0.15:
        return (*_random_code(rng, depth - 1), ("neg",))
    if pick < 0.25:
        # keep exponents small, integral, and positive
        return (*_random_code(rng, depth - 1), ("num", float(rng.integers(0, 4))), ("^",))
    op = "+-*/"[rng.integers(0, 4)]
    left = _random_code(rng, depth - 1)
    right = _random_code(rng, depth - 1)
    if op == "/":
        right = (*right, ("num", 9.0), ("+",))  # push the pole out of the sample box
    return (*left, *right, (op,))


def test_roundtrip_random_trees():
    rng = np.random.default_rng(20260817)
    points = np.linspace(0.0, 2.0, 9)
    for _ in range(300):
        tree = Expr(_random_code(rng, 4))
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


def test_deep_expressions_parse_evaluate_compare_and_hash():
    # no walk of a program recurses, so depth meets no interpreter limit
    coeffs = [1.0 / (k + 3) for k in range(10**5 - 1)]
    text = "a" + "".join(f" + {c!r}*a" for c in coeffs)
    expr = parse_expr(text)
    a = np.linspace(-1.0, 2.0, 7)
    want = a.copy()
    for c in coeffs:  # left to right
        want = want + c * a
    assert eval_expr(expr, a).tobytes() == want.tobytes()
    assert to_text(expr) == text

    assert parse_expr("(" * 10**4 + "a" + ")" * 10**4).code == (("a",),)

    deep = " + ".join(["a"] * 10**4)
    one, two = (
        replace(preset("fig1"), levels=(LevelSpec(parse_expr(deep), 0.5), *preset("fig1").levels[1:]))
        for _ in range(2)
    )
    assert one.levels[0].energy_expr is not two.levels[0].energy_expr
    assert one == two and hash(one.levels) == hash(two.levels)
    other = replace(one, levels=(LevelSpec(parse_expr(deep + " + 1"), 0.5), *one.levels[1:]))
    assert one != other


def test_500_term_sum_evaluates_in_order_and_round_trips():
    coeffs = [1.0 / (k + 3) for k in range(499)]
    text = "a" + "".join(f" + {c!r}*a" for c in coeffs)
    tree = parse_expr(text)
    a = np.linspace(-1.0, 2.0, 7)
    want = a.copy()
    for c in coeffs:  # left to right, as the program adds
        want = want + c * a
    assert eval_expr(tree, a).tobytes() == want.tobytes()
    assert to_text(tree) == text
    assert parse_expr(to_text(tree)) == tree


# ---------------------------------------------------------------------------
# reference: the recursive tree parser, evaluator and renderer the programs
# replaced (without the depth bound, which only mattered past half the
# interpreter's recursion limit); every program must give what it gave


@dataclass(frozen=True)
class RefNum:
    value: float


@dataclass(frozen=True)
class RefVar:
    pass


@dataclass(frozen=True)
class RefNeg:
    arg: object


@dataclass(frozen=True)
class RefBinOp:
    op: str
    left: object
    right: object


class RefParser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", len(self.text))
        self.pos += 1
        return tok

    def expr(self):
        node = self.term()
        while (tok := self.peek()) and tok[1] in "+-":
            self.pos += 1
            node = RefBinOp(tok[1], node, self.term())
        return node

    def term(self):
        node = self.factor()
        while (tok := self.peek()) and tok[1] in "*/":
            self.pos += 1
            node = RefBinOp(tok[1], node, self.factor())
        return node

    def factor(self):
        tok = self.peek()
        if tok and tok[1] == "-":
            self.pos += 1
            return RefNeg(self.factor())
        return self.power()

    def power(self):
        node = self.atom()
        if (tok := self.peek()) and tok[1] == "^":
            self.pos += 1
            node = RefBinOp("^", node, self.factor())
        return node

    def atom(self):
        kind, lexeme, offset = self.take()
        if kind == "num":
            return RefNum(float(lexeme))
        if kind == "name":
            if lexeme != "a":
                raise ParseError(f"unknown identifier {lexeme!r}", offset)
            return RefVar()
        if lexeme == "(":
            node = self.expr()
            tok = self.peek()
            if tok is None or tok[1] != ")":
                raise ParseError("expected ')'", tok[2] if tok else len(self.text))
            self.pos += 1
            return node
        raise ParseError(f"unexpected {lexeme!r}", offset)


def ref_parse(text):
    parser = RefParser(text)
    if parser.peek() is None:
        raise ParseError("empty expression", 0)
    node = parser.expr()
    if (tok := parser.peek()) is not None:
        raise ParseError(f"trailing garbage {tok[1]!r}", tok[2])
    return node


def _ref_eval(node, a):
    if isinstance(node, RefNum):
        return node.value
    if isinstance(node, RefVar):
        return a
    if isinstance(node, RefNeg):
        return -_ref_eval(node.arg, a)
    left = _ref_eval(node.left, a)
    right = _ref_eval(node.right, a)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        bad = np.equal(right, 0.0)
        if np.any(bad):
            raise EvalError("division by zero", _first_fault(a, bad))
        return left / right
    bad = np.logical_and(np.less(left, 0.0), np.not_equal(right, np.floor(right)))
    if np.any(bad):
        raise EvalError("fractional power of negative base", _first_fault(a, bad))
    bad = np.logical_and(np.equal(left, 0.0), np.less(right, 0.0))
    if np.any(bad):
        raise EvalError("zero to a negative power", _first_fault(a, bad))
    return np.power(left, right)


def ref_eval(node, a):
    arr = np.asarray(a, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        value = _ref_eval(node, arr)
    value = np.asarray(value, dtype=float)
    if value.shape != arr.shape:
        value = np.broadcast_to(value, arr.shape).copy()
    finite = np.isfinite(value)
    if not np.all(finite):
        raise EvalError("non-finite result", _first_fault(arr, ~finite))
    if arr.ndim == 0:
        return float(value)
    return value


REF_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _ref_prec(node):
    if isinstance(node, (RefNum, RefVar)):
        return REF_PREC["atom"]
    if isinstance(node, RefNeg):
        return REF_PREC["neg"]
    return REF_PREC[node.op]


def ref_render(node):
    if isinstance(node, RefNum):
        text = repr(node.value)
        return f"({text})" if node.value < 0 else text
    if isinstance(node, RefVar):
        return "a"
    if isinstance(node, RefNeg):
        inner = ref_render(node.arg)
        if _ref_prec(node.arg) < REF_PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    left, right = ref_render(node.left), ref_render(node.right)
    if node.op in "+-":
        if _ref_prec(node.right) <= REF_PREC[node.op]:
            right = f"({right})"
        return f"{left} {node.op} {right}"
    if node.op in "*/":
        if _ref_prec(node.left) < REF_PREC[node.op]:
            left = f"({left})"
        if _ref_prec(node.right) <= REF_PREC[node.op]:
            right = f"({right})"
        return f"{left}{node.op}{right}"
    if not isinstance(node.left, (RefNum, RefVar)):
        left = f"({left})"
    if _ref_prec(node.right) < REF_PREC["neg"]:
        right = f"({right})"
    return f"{left}^{right}"


def ref_random_tree(rng, depth):
    """The tree _random_code writes as a program, from the same draws."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return RefVar()
        return RefNum(float(np.round(rng.uniform(0.0, 4.0), 3)))
    pick = rng.random()
    if pick < 0.15:
        return RefNeg(ref_random_tree(rng, depth - 1))
    if pick < 0.25:
        return RefBinOp("^", ref_random_tree(rng, depth - 1), RefNum(float(rng.integers(0, 4))))
    op = "+-*/"[rng.integers(0, 4)]
    left = ref_random_tree(rng, depth - 1)
    right = ref_random_tree(rng, depth - 1)
    if op == "/":
        right = RefBinOp("+", right, RefNum(9.0))
    return RefBinOp(op, left, right)


def tree_code(node):
    """The postfix program of a reference tree, children first."""
    if isinstance(node, RefNum):
        return (("num", node.value),)
    if isinstance(node, RefVar):
        return (("a",),)
    if isinstance(node, RefNeg):
        return (*tree_code(node.arg), ("neg",))
    return (*tree_code(node.left), *tree_code(node.right), (node.op,))


def outcome(evaluate, expr, a):
    """The result's type and bytes, or the EvalError message."""
    try:
        value = evaluate(expr, a)
    except EvalError as err:
        return str(err)
    return type(value), np.asarray(value).tobytes()


def test_random_code_draws_the_reference_trees():
    # the round-trip test's 300 programs are the 300 trees it used to build
    one, two = np.random.default_rng(20260817), np.random.default_rng(20260817)
    for _ in range(300):
        assert _random_code(one, 4) == tree_code(ref_random_tree(two, 4))


def test_programs_match_the_tree_reference_on_random_trees():
    rng = np.random.default_rng(20261020)
    points = np.linspace(-2.0, 2.0, 41)
    for _ in range(3000):
        tree = ref_random_tree(rng, 5)
        expr = Expr(tree_code(tree))
        text = ref_render(tree)
        assert to_text(expr) == text
        assert parse_expr(text).code == tree_code(ref_parse(text))
        for a in (points, 0.5, -1.0):
            assert outcome(eval_expr, expr, a) == outcome(ref_eval, tree, a), text


MALFORMED = [
    "", "   ", "(a+1", "a+", "a b", "1..2", "a )", "*a", "2 3", "1 $ a", "1 - b/2",
    "(a b)", "(a))", "()", "a-)", "2^-", "(a(", "a(", "(", ")", "-", "a^", "a^^2",
    "((a)", "(-)", "2 ^ * 3", "a*/2", "ab", "a (1)", "(a b", "--",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_inputs_match_the_tree_reference(text):
    with pytest.raises(ParseError) as want:
        ref_parse(text)
    with pytest.raises(ParseError) as got:
        parse_expr(text)
    assert (str(got.value), got.value.offset) == (str(want.value), want.value.offset)


@pytest.mark.parametrize("pid", PRESET_IDS)
def test_preset_levels_match_the_tree_reference(pid):
    a = np.linspace(-1.0, 3.0, 10**4)
    for level in preset(pid).levels:
        text = to_text(level.energy_expr)
        tree = ref_parse(text)
        assert level.energy_expr.code == tree_code(tree)
        assert ref_render(tree) == text
        assert outcome(eval_expr, level.energy_expr, a) == outcome(ref_eval, tree, a)
