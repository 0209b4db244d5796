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

An expression is a flat postfix program, one tuple of instructions
run on a stack, so parsing, evaluating, rendering, comparing and
hashing are loops at any nesting depth.  Parentheses set the order of
the instructions but leave none behind, so "(1)-a/2" and "1 - a/2"
parse to equal programs.  Evaluation works elementwise on scalars and
ndarrays through the same numpy code path.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr",
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
class Expr:
    """An expression as a postfix program.

    code is a tuple of instructions: ("num", value) and ("a",) push an
    operand, ("neg",) negates the top of the stack, and ("+",), ("-",),
    ("*",), ("/",) and ("^",) pop the right operand, then the left, and
    push the result.  So "1 - a/2" is
    (("num", 1.0), ("a",), ("num", 2.0), ("/",), ("-",)).
    """

    code: tuple


# precedence, and what to_text writes: the operator's text, and the
# highest precedence of a left / right operand it puts in parentheses;
# a pending "(" has the lowest precedence, so no operator pops it
_OPS = {
    "(": (0, None, None, None),
    "+": (1, " + ", 0, 1),
    "-": (1, " - ", 0, 1),
    "*": (2, "*", 1, 2),
    "/": (2, "/", 1, 2),
    "neg": (3, "-", None, 2),
    "^": (4, "^", 4, 2),
}
_ATOM = 5  # the precedence of a number or "a"

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


def parse_expr(text: str) -> Expr:
    """Parse ``text`` into a postfix program (shunting-yard).

    Raises ParseError (with a byte offset) for empty input, unknown
    identifiers, unbalanced parentheses and trailing garbage.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 0)
    code, pending = [], []  # pending: operators and "(" not yet emitted
    depth = 0  # open parentheses, counted so that no token scans pending
    want_operand = True
    for kind, lexeme, offset in tokens:
        if want_operand:
            if kind == "num":
                code.append(("num", float(lexeme)))
                want_operand = False
            elif kind == "name":
                if lexeme != "a":
                    raise ParseError(f"unknown identifier {lexeme!r}", offset)
                code.append(("a",))
                want_operand = False
            elif lexeme == "(":
                pending.append("(")
                depth += 1
            elif lexeme == "-":
                pending.append("neg")
            else:
                raise ParseError(f"unexpected {lexeme!r}", offset)
        elif lexeme == ")" and depth:
            while (op := pending.pop()) != "(":
                code.append((op,))
            depth -= 1
        elif kind == "op" and lexeme in "+-*/^":
            # "^" is right-associative and binds tightest, so it pops
            # nothing, not even a pending unary minus: "-a^2" is -(a^2)
            prec = _OPS[lexeme][0]
            while lexeme != "^" and pending and _OPS[pending[-1]][0] >= prec:
                code.append((pending.pop(),))
            pending.append(lexeme)
            want_operand = True
        elif depth:
            raise ParseError("expected ')'", offset)
        else:
            raise ParseError(f"trailing garbage {lexeme!r}", offset)
    if want_operand:
        raise ParseError("unexpected end of expression", len(text))
    if depth:
        raise ParseError("expected ')'", len(text))
    code.extend((op,) for op in reversed(pending))
    return Expr(tuple(code))


def _first_fault(a: np.ndarray, mask) -> float:
    # first sweep value hitting the fault, for the error message
    full = np.zeros(np.shape(a), dtype=bool)
    full[...] = mask
    if full.ndim == 0:
        return float(a)
    return float(np.asarray(a).flat[int(np.argmax(full))])


def _binary(op: str, left, right, a: np.ndarray):
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
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


def eval_expr(expr: Expr, a):
    """Evaluate ``expr`` at ``a`` (scalar or ndarray), elementwise.

    The result is a float for scalar input and an ndarray otherwise.
    Poles, domain faults, and non-finite results raise EvalError
    carrying the offending parameter value.
    """
    arr = np.asarray(a, dtype=float)
    stack = []  # literals stay Python floats, "a" is arr
    with np.errstate(over="ignore", invalid="ignore"):
        for op, *arg in expr.code:
            if op == "num":
                stack.append(arg[0])
            elif op == "a":
                stack.append(arr)
            elif op == "neg":
                stack.append(-stack.pop())
            else:
                right = stack.pop()
                stack.append(_binary(op, stack.pop(), right, arr))
    value = np.asarray(stack.pop(), dtype=float)
    if value.shape != arr.shape:  # constant expression
        value = np.broadcast_to(value, arr.shape).copy()
    finite = np.isfinite(value)
    if not np.all(finite):
        raise EvalError("non-finite result", _first_fault(arr, ~finite))
    if arr.ndim == 0:
        return float(value)
    return value


def _wrap(pieces: deque, parenthesize: bool) -> deque:
    if parenthesize:
        pieces.appendleft("(")
        pieces.append(")")
    return pieces


def _join(left: deque, text: str, right: deque) -> deque:
    # extend the longer side, so that a deep chain renders in linear time
    if len(left) >= len(right):
        left.append(text)
        left.extend(right)
        return left
    right.appendleft(text)
    right.extendleft(reversed(left))
    return right


def to_text(expr: Expr) -> str:
    """Render ``expr`` with minimal parentheses; parse_expr(to_text(e)) == e."""
    stack = []  # (text pieces, precedence) of each operand
    for op, *arg in expr.code:
        if op == "num":
            text = repr(arg[0])
            stack.append((deque([f"({text})" if arg[0] < 0 else text]), _ATOM))
        elif op == "a":
            stack.append((deque(["a"]), _ATOM))
        else:
            prec, text, wrap_left, wrap_right = _OPS[op]
            right, right_prec = stack.pop()
            pieces = _wrap(right, right_prec <= wrap_right)
            if op == "neg":
                pieces.appendleft(text)
            else:
                left, left_prec = stack.pop()
                pieces = _join(_wrap(left, left_prec <= wrap_left), text, pieces)
            stack.append((pieces, prec))
    return "".join(stack.pop()[0])
