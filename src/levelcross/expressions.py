"""One-variable arithmetic expressions for level trajectories e_i(a).

Grammar (EBNF):

    expr    = term , { ("+" | "-") , term } ;
    term    = factor , { ("*" | "/") , factor } ;
    factor  = "-" , factor | power ;
    power   = atom , [ "^" , factor ] ;
    atom    = NUMBER | "a" | "(" , expr , ")" ;
    NUMBER  = digits , [ "." , [ digits ] ] , [ exponent ]
            | "." , digits , [ exponent ] ;
    exponent = ("e" | "E") , [ "+" | "-" ] , digits ;

"^" is right-associative and binds tighter than unary minus, so
"-a^2" means -(a^2) while "a^-2" is still accepted.  The only
identifier is the sweep variable "a"; there are no named constants.

Parentheses shape the tree but leave no node behind, so "(1)-a/2"
and "1 - a/2" parse to equal trees.  Evaluation works elementwise
on scalars and ndarrays through the same numpy code path.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "ExprAst",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "ParseError",
    "EvalError",
    "parse_expr",
    "eval_expr",
    "to_text",
]


class ParseError(ValueError):
    """Syntax error with the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class EvalError(ValueError):
    """Evaluation fault (pole, domain, overflow) at a parameter value."""

    def __init__(self, message: str, a: float):
        super().__init__(f"{message} at a={a!r}")
        self.a = a


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    arg: "ExprAst"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "ExprAst"
    right: "ExprAst"


ExprAst = Union[Num, Var, Neg, BinOp]

_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    # (kind, lexeme, offset); kinds: num, name, op
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        m = _NUMBER.match(text, i)
        if m:
            tokens.append(("num", m.group(), i))
            i = m.end()
            continue
        m = _NAME.match(text, i)
        if m:
            tokens.append(("name", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    """Recursive descent; each rule returns (node, depth of its tree)."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", len(self.text))
        self.pos += 1
        return tok

    def node(self, tok, *children) -> tuple[ExprAst, int]:
        """The Neg (one child) or BinOp (two children) of operator token tok."""
        depth = 1 + max(d for _, d in children)
        # evaluating and rendering recurse once per level: leave the caller
        # half of the recursion limit
        if depth > sys.getrecursionlimit() // 2:
            raise ParseError("expression nested too deeply", tok[2])
        args = [c for c, _ in children]
        return (Neg(*args) if len(args) == 1 else BinOp(tok[1], *args)), depth

    def expr(self) -> tuple[ExprAst, int]:
        node = self.term()
        while (tok := self.peek()) and tok[1] in "+-":
            self.pos += 1
            node = self.node(tok, node, self.term())
        return node

    def term(self) -> tuple[ExprAst, int]:
        node = self.factor()
        while (tok := self.peek()) and tok[1] in "*/":
            self.pos += 1
            node = self.node(tok, node, self.factor())
        return node

    def factor(self) -> tuple[ExprAst, int]:
        tok = self.peek()
        if tok and tok[1] == "-":
            self.pos += 1
            return self.node(tok, self.factor())
        return self.power()

    def power(self) -> tuple[ExprAst, int]:
        node = self.atom()
        if (tok := self.peek()) and tok[1] == "^":
            self.pos += 1
            node = self.node(tok, node, self.factor())
        return node

    def atom(self) -> tuple[ExprAst, int]:
        kind, lexeme, offset = self.take()
        if kind == "num":
            return Num(float(lexeme)), 0
        if kind == "name":
            if lexeme != "a":
                raise ParseError(f"unknown identifier {lexeme!r}", offset)
            return Var(), 0
        if lexeme == "(":
            node = self.expr()
            tok = self.peek()
            if tok is None or tok[1] != ")":
                raise ParseError("expected ')'", tok[2] if tok else len(self.text))
            self.pos += 1
            return node
        raise ParseError(f"unexpected {lexeme!r}", offset)


def parse_expr(text: str) -> ExprAst:
    """Parse ``text`` into an expression tree.

    Raises ParseError (with a byte offset) for empty input, unknown
    identifiers, unbalanced parentheses, trailing garbage, and nesting
    deeper than the interpreter's recursion limit allows: a tree more
    than half the limit deep, such as a flat sum of that many terms.
    """
    parser = _Parser(text)
    if parser.peek() is None:
        raise ParseError("empty expression", 0)
    try:
        node, _ = parser.expr()
    except RecursionError:
        offset = parser.tokens[parser.pos - 1][2]  # the opener that went too deep
        raise ParseError("expression nested too deeply", offset) from None
    if (tok := parser.peek()) is not None:
        raise ParseError(f"trailing garbage {tok[1]!r}", tok[2])
    return node


def _first_fault(a: np.ndarray, mask) -> float:
    # first sweep value hitting the fault, for the error message
    full = np.zeros(np.shape(a), dtype=bool)
    full[...] = mask
    if full.ndim == 0:
        return float(a)
    return float(np.asarray(a).flat[int(np.argmax(full))])


def _eval(node: ExprAst, a: np.ndarray):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return a
    if isinstance(node, Neg):
        return -_eval(node.arg, a)
    left = _eval(node.left, a)
    right = _eval(node.right, a)
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
    # power: reject the two ways C pow leaves the reals
    bad = np.logical_and(np.less(left, 0.0), np.not_equal(right, np.floor(right)))
    if np.any(bad):
        raise EvalError("fractional power of negative base", _first_fault(a, bad))
    bad = np.logical_and(np.equal(left, 0.0), np.less(right, 0.0))
    if np.any(bad):
        raise EvalError("zero to a negative power", _first_fault(a, bad))
    return np.power(left, right)


def eval_expr(ast: ExprAst, a):
    """Evaluate ``ast`` at ``a`` (scalar or ndarray), elementwise.

    The result is a float for scalar input and an ndarray otherwise.
    Poles, domain faults, and non-finite results raise EvalError
    carrying the offending parameter value.
    """
    arr = np.asarray(a, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        value = _eval(ast, arr)
    value = np.asarray(value, dtype=float)
    if value.shape != arr.shape:  # constant expression
        value = np.broadcast_to(value, arr.shape).copy()
    finite = np.isfinite(value)
    if not np.all(finite):
        raise EvalError("non-finite result", _first_fault(arr, ~finite))
    if arr.ndim == 0:
        return float(value)
    return value


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(node: ExprAst) -> int:
    if isinstance(node, (Num, Var)):
        return _PREC["atom"]
    if isinstance(node, Neg):
        return _PREC["neg"]
    return _PREC[node.op]


def _render(node: ExprAst) -> str:
    if isinstance(node, Num):
        text = repr(node.value)
        return f"({text})" if node.value < 0 else text
    if isinstance(node, Var):
        return "a"
    if isinstance(node, Neg):
        inner = _render(node.arg)
        if _prec(node.arg) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    left, right = _render(node.left), _render(node.right)
    if node.op in "+-":
        if _prec(node.right) <= _PREC[node.op]:
            right = f"({right})"
        return f"{left} {node.op} {right}"
    if node.op in "*/":
        if _prec(node.left) < _PREC[node.op]:
            left = f"({left})"
        if _prec(node.right) <= _PREC[node.op]:
            right = f"({right})"
        return f"{left}{node.op}{right}"
    # ^: left operand must be an atom, right is a factor
    if not isinstance(node.left, (Num, Var)):
        left = f"({left})"
    if _prec(node.right) < _PREC["neg"]:
        right = f"({right})"
    return f"{left}^{right}"


def to_text(ast: ExprAst) -> str:
    """Render ``ast`` with minimal parentheses; parse_expr(to_text(t)) == t."""
    return _render(ast)
