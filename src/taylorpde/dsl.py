"""A small language for first-order-in-time evolution systems.

One equation per line, `#` starts a comment:

    u' = -11/2 * (1 - u^2)
    v' = u * v_x + d_x^2(v)

Grammar (left-associative, `^` binds tightest, unary minus below `*`):

    system   := equation*
    equation := NAME "'" "=" expr
    expr     := term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := "-" factor | power
    power    := atom ["^" INT]
    atom     := NUMBER ["/" INT]          exact rational literal
              | NAME                      field, or derivative like u_xx
              | "d_x" "^" INT "(" NAME ")"
              | "(" expr ")"

Only spatial derivatives of plain fields are allowed; `u_t` on a
right-hand side is rejected, as is differentiating a subexpression.
Numeric literals are kept as exact rationals until evaluation.  Fields
are ordered by the appearance of their defining equations.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

import numpy as np

from . import _backend
from .errors import ConfigError, ParseError, TaylorPdeError
from .series import TanhPoly, TimeSeries, add_rows, check_finite, dx_row, sub_rows, trim


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class Field:
    index: int


@dataclass(frozen=True)
class Deriv:
    index: int
    order: int


@dataclass(frozen=True)
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Sub:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Mul:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


Node = Union[Const, Field, Deriv, Add, Sub, Mul, Neg, Pow]


@dataclass(frozen=True)
class PdeSystem:
    """Parsed system: field names plus one right-hand side per field."""

    fields: tuple[str, ...]
    equations: tuple[Node, ...]

    def __post_init__(self):
        if len(self.fields) != len(self.equations):
            raise ValueError("one equation per field required")

    def pretty(self) -> str:
        lines = [
            f"{name}' = {pretty(eq, self.fields)}"
            for name, eq in zip(self.fields, self.equations)
        ]
        return "\n".join(lines)


def _operands(node: Node) -> tuple[Node, ...]:
    if isinstance(node, (Add, Sub, Mul)):
        return (node.left, node.right)
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, Pow):
        return (node.base,)
    return ()


def _fold(root: Node, build: Callable[[Node, list], object]):
    """build(node, [results of its operands]) for every node of a tree,
    operands first and left to right; returns the root's result.

    The walk keeps its own stack, so a tree deeper than Python's recursion
    limit (a left-deep sum of thousands of terms) folds too.
    """
    results: list = []
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        operands = _operands(node)
        if operands and not expanded:
            stack.append((node, True))
            stack.extend((operand, False) for operand in reversed(operands))
            continue
        first = len(results) - len(operands)
        args = results[first:]
        del results[first:]
        results.append(build(node, args))
    return results[0]


class _Token(NamedTuple):
    kind: str  # "name" | "number" | "op"
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"[A-Za-z][A-Za-z0-9]*(?:_[A-Za-z0-9]+)?"  # name, one optional subscript
    r"|\d+\.\d*|\.\d+|\d+"  # number
    r"|[-+*/^()'=]"  # operator
)


def _tokenize(line: str, lineno: int) -> list[_Token]:
    hash_pos = line.find("#")
    if hash_pos >= 0:
        line = line[:hash_pos]
    tokens = []
    pos = 0
    n = len(line)
    while pos < n:
        if line[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(line, pos)
        if m is None:
            raise ParseError(f"unexpected character {line[pos]!r}", lineno, pos + 1)
        text = m.group(0)
        first = text[0]
        if first.isalpha():
            kind = "name"
        elif first.isdigit() or first == ".":
            kind = "number"
        else:
            kind = "op"
        tokens.append(_Token(kind, text, lineno, pos + 1))
        pos = m.end()
    return tokens


def parse_system(text: str) -> PdeSystem:
    """Parse system source text; raises ParseError subclasses on bad input."""
    equations = []  # (name, rhs tokens, name token)
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        tokens = _tokenize(raw, lineno)
        if not tokens:
            continue
        head = tokens[0]
        if head.kind != "name":
            raise ParseError("each equation must start with a field name", lineno, head.col)
        if "_" in head.text:
            raise ParseError("left-hand side must be a bare field name", lineno, head.col)
        if len(tokens) < 2 or tokens[1].text != "'":
            raise ParseError(f"expected \"'\" after field name '{head.text}'", lineno, head.col)
        if len(tokens) < 3 or tokens[2].text != "=":
            raise ParseError("expected '=' after the primed field name", lineno, head.col)
        if head.text in seen:
            raise ParseError(
                f"field '{head.text}' already has an equation on line {seen[head.text]}",
                lineno,
                head.col,
            )
        seen[head.text] = lineno
        equations.append((head.text, tokens[3:], head))

    if not equations:
        raise ParseError("no equations found")

    fields = tuple(name for name, _, _ in equations)
    index = {name: i for i, name in enumerate(fields)}
    rhs = []
    for name, tokens, head in equations:
        if not tokens:
            raise ParseError(f"empty right-hand side for '{name}'", head.line, head.col)
        rhs.append(_ExprParser(tokens, index).parse())
    return PdeSystem(fields, tuple(rhs))


class _ExprParser:
    def __init__(self, tokens: list[_Token], fields: dict[str, int]):
        self._toks = tokens
        self._fields = fields
        self._i = 0
        self._line = tokens[0].line

    def parse(self) -> Node:
        node = self._expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected '{tok.text}'", tok.line, tok.col)
        return node

    def _peek(self, ahead: int = 0) -> _Token | None:
        i = self._i + ahead
        return self._toks[i] if i < len(self._toks) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self._line)
        self._i += 1
        return tok

    def _expr(self) -> Node:
        node = self._term()
        while True:
            tok = self._peek()
            if tok is None or tok.kind != "op" or tok.text not in "+-":
                return node
            self._next()
            right = self._term()
            node = Add(node, right) if tok.text == "+" else Sub(node, right)

    def _term(self) -> Node:
        node = self._factor()
        while True:
            tok = self._peek()
            if tok is None or tok.kind != "op" or tok.text != "*":
                return node
            self._next()
            node = Mul(node, self._factor())

    def _factor(self) -> Node:
        tok = self._peek()
        if tok is not None and tok.kind == "op" and tok.text == "-":
            self._next()
            child = self._factor()
            if isinstance(child, Const):
                return Const(-child.value)
            return Neg(child)
        return self._power()

    def _power(self) -> Node:
        base = self._atom()
        tok = self._peek()
        if tok is None or tok.kind != "op" or tok.text != "^":
            return base
        self._next()
        exp = self._next()
        if exp.kind != "number" or "." in exp.text or int(exp.text) < 1:
            raise ParseError("exponent must be a positive integer", exp.line, exp.col)
        k = int(exp.text)
        return base if k == 1 else Pow(base, k)

    def _atom(self) -> Node:
        tok = self._next()
        if tok.kind == "number":
            return self._number(tok)
        if tok.kind == "name":
            return self._name(tok)
        if tok.text == "(":
            node = self._expr()
            closing = self._next()
            if closing.text != ")":
                raise ParseError(f"expected ')', got '{closing.text}'", closing.line, closing.col)
            return node
        raise ParseError(f"unexpected '{tok.text}'", tok.line, tok.col)

    def _number(self, tok: _Token) -> Node:
        nxt = self._peek()
        if nxt is not None and nxt.kind == "op" and nxt.text == "/":
            if "." in tok.text:
                raise ParseError("rational literal parts must be integers", tok.line, tok.col)
            self._next()
            den = self._next()
            if den.kind != "number" or "." in den.text:
                raise ParseError("rational literal parts must be integers", den.line, den.col)
            if int(den.text) == 0:
                raise ParseError("zero denominator in rational literal", den.line, den.col)
            return Const(Fraction(int(tok.text), int(den.text)))
        # Fraction parses decimal strings exactly.
        return Const(Fraction(tok.text))

    def _name(self, tok: _Token) -> Node:
        text = tok.text
        if text == "d_x":
            t0, t1, t2 = self._peek(0), self._peek(1), self._peek(2)
            if (
                t0 is not None
                and t0.text == "^"
                and t1 is not None
                and t1.kind == "number"
                and t2 is not None
                and t2.text == "("
            ):
                return self._deriv_operator()
            if t0 is not None and t0.text == "(":
                raise ParseError(
                    "write d_x^k(name) with an explicit derivative order",
                    tok.line,
                    tok.col,
                )
        if "_" in text:
            base, suffix = text.split("_", 1)
            if "t" in suffix:
                raise ParseError(
                    "time derivatives cannot appear in a right-hand side",
                    tok.line,
                    tok.col,
                )
            if suffix and set(suffix) == {"x"}:
                return Deriv(self._field_index(base, tok), len(suffix))
            raise ParseError(f"unrecognized subscript '_{suffix}'", tok.line, tok.col)
        return Field(self._field_index(text, tok))

    def _deriv_operator(self) -> Node:
        self._next()  # ^
        exp = self._next()
        if "." in exp.text or int(exp.text) < 1:
            raise ParseError("derivative order must be a positive integer", exp.line, exp.col)
        self._next()  # (
        inner = self._next()
        if inner.kind != "name" or "_" in inner.text:
            raise ParseError("d_x applies to a single plain field name", inner.line, inner.col)
        idx = self._field_index(inner.text, inner)
        closing = self._next()
        if closing.text != ")":
            raise ParseError(
                "d_x applies to a single field name, not an expression",
                closing.line,
                closing.col,
            )
        return Deriv(idx, int(exp.text))

    def _field_index(self, name: str, tok: _Token) -> int:
        try:
            return self._fields[name]
        except KeyError:
            raise ParseError(f"unknown field '{name}'", tok.line, tok.col) from None


def pretty(node: Node, fields: Sequence[str]) -> str:
    """Render a node so that parsing the output rebuilds the same tree."""
    text, _ = _fold(node, lambda node, operands: _fmt(node, operands, fields))
    return text


# Precedence levels: 1 additive, 2 unary minus, 3 multiplicative, 4 power,
# 5 atom.  A child is parenthesized when its level is below the minimum its
# position requires; right operands require strictly more than the operator.
def _fmt(node: Node, operands: list[tuple[str, int]], fields: Sequence[str]) -> tuple[str, int]:
    """(text, level) of a node whose operands rendered as `operands`."""
    if isinstance(node, Const):
        v = node.value
        text = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        return text, 5 if v >= 0 else 2
    if isinstance(node, Field):
        return fields[node.index], 5
    if isinstance(node, Deriv):
        if node.order <= 3:
            return f"{fields[node.index]}_{'x' * node.order}", 5
        return f"d_x^{node.order}({fields[node.index]})", 5
    if isinstance(node, Neg):
        return f"-{_wrap(operands[0], 4)}", 2
    if isinstance(node, Add):
        return f"{_wrap(operands[0], 1)} + {_wrap(operands[1], 2)}", 1
    if isinstance(node, Sub):
        return f"{_wrap(operands[0], 1)} - {_wrap(operands[1], 2)}", 1
    if isinstance(node, Mul):
        # A unary-minus child needs no parens beside '*': a leading '-'
        # before a factor reparses into the same tree.
        left = _wrap(operands[0], 3, unary_ok=True)
        right = _wrap(operands[1], 4, unary_ok=True)
        return f"{left} * {right}", 3
    if isinstance(node, Pow):
        return f"{_wrap(operands[0], 5)}^{node.exponent}", 4
    raise TypeError(f"not an expression node: {node!r}")


def _wrap(rendered: tuple[str, int], minprec: int, unary_ok: bool = False) -> str:
    text, prec = rendered
    if prec >= minprec or (unary_ok and prec == 2):
        return text
    return f"({text})"


class RowEvaluator:
    """The right-hand sides of a system, evaluated one order in t at a time.

    advance(row) takes the order-j coefficient of every field, j being the
    number of earlier advance() calls, and returns the order-j coefficient
    of every right-hand side.  Rows are 1-D float64 arrays in TanhPoly's
    normal form (series.trim) from kernel to kernel; TanhPoly values exist
    only at the boundary, in the series that solve() and eval_rhs()
    return.  The expression trees are compiled once into nodes that keep
    the rows they have computed, so each order computes only its own row:
    a product row is sum_i a_i * b_(j-i) over the stored rows of its
    factors.  Equal subexpressions are one node, computed once per order:
    nodes are keyed by their operation and the identity of their operand
    nodes, u^k is the product of u^(k-1) and u (so u^2 and u*u are one
    node) and u_xx is the x-derivative of u_x.  A product of two series
    keeps a _backend.ProductState, the nonzero terms of its left factor
    rows and a zero-padded copy of its right factor rows, so every factor
    row is taken in once, not once per later order.

    Constants are folded.  A sum, difference or negation of constants is
    the constant that float arithmetic gives on their values, and on the
    signed zeros of their later rows, so its rows are the floats the node
    would compute.  A product with a constant factor c is no kernel call:
    its row j is the other factor's row j scaled, v * c + 0.0 per
    coefficient, a product of two constants is the constant c_a * c_b +
    0.0, and a zero constant on the left gives the zero constant (see the
    solver module docstring).  A row is the same float sequence that the
    full truncated Cauchy product gives, whatever order is reached.

    The kernels match the dense loops only on finite rows, so advance()
    raises a TaylorPdeError naming the order and field of the first inf
    or nan coefficient it is given.  A nonzero constant that no float
    holds, too large or too small, raises a TaylorPdeError naming it when
    the evaluator is built.
    """

    def __init__(self, system: PdeSystem):
        self._subjects = tuple(f"field {f}" for f in system.fields)
        self._state: list[list[np.ndarray]] = [[] for _ in system.fields]
        self._steps: list[Callable[[int], None]] = []  # operands first
        # Keyed by operation and the ids of the operands' row lists, which
        # live as long as the evaluator, so an id is never reused.  Not
        # keyed by the tree nodes: hashing one recurses through its subtree.
        self._nodes: dict[tuple, list[np.ndarray]] = {}
        # Every constant node's (row-0 value, value of its later rows),
        # keyed by the id of its rows; the later rows are a signed zero.
        self._constants: dict[int, tuple[float, float]] = {}
        self._roots = tuple(_fold(eq, self._compile) for eq in system.equations)
        self._order = 0

    @_backend.quiet
    def advance(self, row: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
        j = self._order
        check_finite(self._subjects, j, row)
        for rows, p in zip(self._state, row):
            rows.append(p)
        for step in self._steps:
            step(j)
        self._order += 1
        return tuple(rows[j] for rows in self._roots)

    def _compile(self, node: Node, operands: list[list[np.ndarray]]) -> list[np.ndarray]:
        """Register the steps that extend a node's rows, given the rows of
        its operands (compiled first, by _fold); return the rows."""
        if isinstance(node, Field):
            return self._state[node.index]
        if isinstance(node, Const):
            try:
                value = float(node.value)
            except OverflowError:
                value = None
            # Too large a value overflows; too small a one rounds to 0.0.
            if value is None or (value == 0.0 and node.value != 0):
                raise TaylorPdeError(f"constant {node.value} is outside the float range")
            return self._constant(("c", node.value), value)
        if isinstance(node, Deriv):
            # A chain of keyed nodes, u_x then u_xx and so on; a loop, not
            # recursion on order k-1, so the stack depth does not bound k.
            rows = self._state[node.index]
            for _ in range(node.order):
                rows = self._node(("dx", id(rows)), lambda j, a=rows: dx_row(a[j]))
            return rows
        if isinstance(node, Add):
            return self._pointwise("+", operator.add, add_rows, operands)
        if isinstance(node, Sub):
            return self._pointwise("-", operator.sub, sub_rows, operands)
        if isinstance(node, Mul):
            return self._product(*operands)
        if isinstance(node, Neg):
            return self._pointwise("neg", operator.neg, np.negative, operands)
        if isinstance(node, Pow):
            # The same chain of keyed products: u^2 is the node of u*u.
            base = rows = operands[0]
            for _ in range(node.exponent - 1):
                rows = self._product(rows, base)
            return rows
        raise TypeError(f"not an expression node: {node!r}")

    def _node(self, key: tuple, row: Callable[[int], np.ndarray]) -> list[np.ndarray]:
        """The rows of node `key`; on first sight a new node whose row j is
        row(j), after every step registered so far."""
        rows = self._nodes.get(key)
        if rows is None:
            rows = self._nodes[key] = []
            self._steps.append(lambda j: rows.append(row(j)))
        return rows

    def _constant(self, key: tuple, value: float, zero: float = 0.0) -> list[np.ndarray]:
        """The rows of constant node `key`: value, then the signed zero."""
        head = np.array([value])
        tail = np.array([zero])
        rows = self._node(key, lambda j: head if j == 0 else tail)
        self._constants[id(rows)] = (value, zero)
        return rows

    def _pointwise(
        self,
        tag: str,
        op: Callable[..., float],
        row_op: Callable[..., np.ndarray],
        operands: list[list[np.ndarray]],
    ) -> list[np.ndarray]:
        """The node whose row j is row_op of its operands' rows j; of
        constants, the constant that op gives on their values and zeros."""
        key = (tag, *map(id, operands))
        constants = [self._constants.get(id(rows)) for rows in operands]
        if None not in constants:
            return self._constant(key, *(op(*sides) for sides in zip(*constants)))
        return self._node(key, lambda j: row_op(*[rows[j] for rows in operands]))

    def _product(self, a: list[np.ndarray], b: list[np.ndarray]) -> list[np.ndarray]:
        key = ("*", id(a), id(b))
        ca = self._constants.get(id(a))
        cb = self._constants.get(id(b))
        if ca is not None and ca[0] == 0.0:
            # The kernel skips a zero left factor whatever b holds.
            return self._constant(key, 0.0)
        if ca is not None and cb is not None:
            return self._constant(key, ca[0] * cb[0] + 0.0)
        if ca is not None or cb is not None:
            x, c = (b, ca[0]) if ca is not None else (a, cb[0])
            return self._node(key, lambda j: trim(x[j] * c + 0.0))
        state = _backend.ProductState()
        return self._node(
            key, lambda j: trim(_backend.series_product(a, b, j, start=j, nonzero=state)[0])
        )


def eval_rhs(system: PdeSystem, state: Sequence[TimeSeries], order: int) -> tuple[TimeSeries, ...]:
    """Evaluate every right-hand side on a state vector of series.

    Each result is truncated at exactly `order` and reads state
    coefficients 0..order only, one row per order through a RowEvaluator,
    so every state series must carry at least order+1 of them.
    """
    if len(state) != len(system.fields):
        raise ConfigError(
            f"system has {len(system.fields)} fields but state has {len(state)} entries"
        )
    if order < 0:
        raise ValueError("order must be nonnegative")
    for field, s in zip(system.fields, state):
        if s.order < order:
            raise ConfigError(
                f"field {field} has order {s.order}; evaluating to order {order} "
                f"needs {order + 1} coefficients"
            )
    evaluator = RowEvaluator(system)
    rows = [evaluator.advance([s.coeffs[j].row() for s in state]) for j in range(order + 1)]
    return tuple(TimeSeries(map(TanhPoly, col)) for col in zip(*rows))
