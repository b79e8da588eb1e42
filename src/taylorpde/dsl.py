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
from .series import (
    TanhPoly,
    TimeSeries,
    add_rows,
    check_finite,
    dx_row,
    dx_rows,
    grid,
    sub_rows,
    trim,
)


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
        try:
            rhs.append(_ExprParser(tokens, index).parse())
        except RecursionError:
            # The parser recurses once per nesting level, so input past the
            # interpreter's limit (about 200 parentheses or 1,000 unary
            # minuses) is refused here.
            message = f"right-hand side of '{name}' is nested too deeply"
            raise ParseError(message, head.line) from None
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
    """The right-hand sides of a system, evaluated order by order in t or
    node by node.

    advance(row) takes the order-j coefficient of every field, j being the
    number of orders taken so far, and returns the order-j coefficient of
    every right-hand side: each node makes its one row of order j, operands
    first.  That is the order-by-order schedule a solve needs, since the
    rows of order j + 1 come from those of order j.  extend(columns) takes
    every order that a caller already has, one list of rows per field,
    and runs each node once over all of them, operands first: a product
    makes all of its rows in one kernel call, whose factors take in their
    new rows in one batch.  residual() and eval_rhs(), whose series are
    given, use it; solve() is the only caller of advance().  Either way
    every row has the same bits, since a row of a node reads only its
    operands' rows of the same and lower orders.

    Rows are 1-D float64 arrays in TanhPoly's normal form (series.trim)
    from kernel to kernel; TanhPoly values exist only at the boundary, in
    the coefficients of the series that solve() and eval_rhs()
    return.  The expression trees are compiled once into nodes that keep
    the rows they have computed, so each order computes only its own row:
    a product row is sum_i a_i * b_(j-i) over the stored rows of its
    factors.  Equal subexpressions are one node, computed once per order:
    nodes are keyed by their operation and the identity of their operand
    nodes, u^k is the product of u^(k-1) and u (so u^2 and u*u are one
    node) and u_xx is the x-derivative of u_x.  A product of two series
    keeps a _backend.ProductState, the nonzero terms and a zero-padded
    copy of the rows of each factor (of the one factor of a square such
    as u^2), so every factor row is taken in once, not once per later
    order.  A row of a product of two series takes its terms from one
    factor's early rows and the other's; a row of a square takes them
    once, from its factor's rows up to half the order, and reuses each
    product for the mirrored pair.  Either skips a pair when the factor
    that supplies its term holds an exact zero there; that is not always
    the left factor.  Only the nodes that a root reads are computed: in
    0 * (u*u), the zero constant discards the product, which then costs
    no kernel call.

    Constants are folded through the same row functions.  A constant is
    two rows, row 0 and the row of every later order.  A sum, difference
    or negation of constants is the constant that add_rows, sub_rows or
    np.negative gives on their two rows.  A product with a constant
    factor c is no kernel call: its row j is the other factor's row j
    scaled, trim(row * c + 0.0), a constant other factor's two rows too,
    and a zero constant on the left gives the zero constant, as the
    kernel skips it.  These are the dense loops' bits while every
    coefficient is finite: past row 0 a constant's rows are zero, so each
    column of row j sums the one term v * c and signed zeros from +0.0,
    which is v * c except that a -0.0 product sums to +0.0, as the + 0.0
    gives.  A row is the same float sequence that the full truncated
    Cauchy product gives, whatever order is reached.

    A sum or difference of a series x and a constant is folded past row
    0 too.  There the constant's row is one entry t, +0.0, -0.0 or nan
    (an inf constant times a zero), and add_rows and sub_rows change only
    x's head: row j >= 1 is x's row j, negated for t - x, with the head
    x[0] + t, x[0] - t or t - x[0].  These are the IEEE operations that
    add_rows and sub_rows perform, so no bit moves (but which nan a
    head of two nans keeps, which numpy's own loops do not fix either);
    row 0 still goes through them.  Where the head operation is the
    identity bit for bit, x + -0.0, -0.0 + x and x - +0.0 (coupled's
    u - 1), the node holds x's own rows.  A node's rows can thus be the
    very arrays of another node's, or of the state rows advance() or
    extend() was given.  That is safe because no stored row is ever
    written in place: every row function makes a new array.

    advance() and extend() raise a ConfigError when they are given a row
    count other than the field count.  The kernels match the dense loops
    only on finite rows, so they raise a TaylorPdeError naming the order
    and field of the first inf or nan coefficient they are given, before
    they make any row.  A nonzero constant that no float holds, too large
    or too small, raises a TaylorPdeError naming it when the evaluator is
    built.
    """

    @_backend.quiet  # a constant folds to inf or nan silently, as a float does
    def __init__(self, system: PdeSystem):
        self._subjects = tuple(f"field {f}" for f in system.fields)
        self._state: list[list[np.ndarray]] = [[] for _ in system.fields]
        # (rows.append, row, rows.extend, span) of every node, operands
        # first: row(j) is its row j, span(start, stop) its rows
        # start..stop-1.
        self._steps: list[tuple[Callable, Callable, Callable, Callable]] = []
        # Keyed by operation and the ids of the operands' row lists, which
        # live as long as the evaluator, so an id is never reused.  Not
        # keyed by the tree nodes: hashing one recurses through its subtree.
        self._nodes: dict[tuple, list[np.ndarray]] = {}
        # Every constant node's (row 0, row of every later order), keyed
        # by the id of its rows.
        self._constants: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._roots = tuple(_fold(eq, self._compile) for eq in system.equations)
        self._prune()
        self._order = 0

    def _prune(self) -> None:
        """Drop the steps of nodes that no root reads, walking back from the
        roots: a node's key holds the ids of the rows it reads (a literal's
        holds its value), and its operands were registered before it."""
        live = set(map(id, self._roots))
        steps = []
        for (key, rows), step in zip(reversed(self._nodes.items()), reversed(self._steps)):
            if id(rows) in live:
                steps.append(step)
                if key[0] != "c":
                    live.update(key[1:])
        self._steps = steps[::-1]

    @_backend.quiet
    def advance(self, row: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
        j = self._order
        if len(row) != len(self._state):
            raise ConfigError(
                f"system has {len(self._state)} fields but state has {len(row)} entries"
            )
        # check_finite's first pass, inline: calling check_finite on every
        # order made solves 1-3% slower.
        if not np.isfinite(np.concatenate(row)).all():
            check_finite(self._subjects, [row], j)
        for rows, p in zip(self._state, row):
            rows.append(p)
        for append, row_of, _, _ in self._steps:
            append(row_of(j))
        self._order += 1
        return tuple(rows[j] for rows in self._roots)

    @_backend.quiet
    def extend(self, columns: Sequence[Sequence[np.ndarray]]) -> tuple[list[np.ndarray], ...]:
        """advance() once per order of columns, one list of rows per field,
        run node by node: returns the rows of those orders of every
        right-hand side, one list per field.  A product makes its rows in
        one kernel call, and a derivative or a scale by a constant in one
        pass over the grid of its operand's rows; the other nodes make
        them row by row.

        The rows are those of the advance() calls, bit for bit, and so is
        the first error: the field-count ConfigError, then the
        TaylorPdeError of one check_finite call over every order given,
        which names the lowest order, then first field, that holds an inf
        or nan.  Every field brings the same number of rows.
        """
        j = self._order
        if len(columns) != len(self._state):
            raise ConfigError(
                f"system has {len(self._state)} fields but state has {len(columns)} entries"
            )
        n = len(columns[0]) if columns else 0
        check_finite(self._subjects, zip(*columns), j)
        for rows, col in zip(self._state, columns):
            rows += col
        for _, _, extend, span in self._steps:
            extend(span(j, j + n))
        self._order += n
        return tuple(rows[j:] for rows in self._roots)

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
            return self._constant(("c", node.value), np.array([value]), np.zeros(1))
        if isinstance(node, Deriv):
            # A chain of keyed nodes, u_x then u_xx and so on; a loop, not
            # recursion on order k-1, so the stack depth does not bound k.
            rows = self._state[node.index]
            for _ in range(node.order):
                rows = self._node(
                    ("dx", id(rows)),
                    lambda j, a=rows: dx_row(a[j]),
                    lambda start, stop, a=rows: dx_rows(a[start:stop]),
                )
            return rows
        if isinstance(node, Add):
            return self._sum("+", *operands)
        if isinstance(node, Sub):
            return self._sum("-", *operands)
        if isinstance(node, Mul):
            return self._product(*operands)
        if isinstance(node, Neg):
            return self._pointwise("neg", np.negative, operands)
        if isinstance(node, Pow):
            # The same chain of keyed products: u^2 is the node of u*u.
            base = rows = operands[0]
            for _ in range(node.exponent - 1):
                rows = self._product(rows, base)
            return rows
        raise TypeError(f"not an expression node: {node!r}")

    def _node(
        self,
        key: tuple,
        row: Callable[[int], np.ndarray],
        span: Callable[[int, int], list] | None = None,
    ) -> list[np.ndarray]:
        """The rows of node `key`; on first sight a new node whose row j is
        row(j), after every step registered so far, and whose rows
        start..stop-1 are span(start, stop), by default row(j) for each j."""
        rows = self._nodes.get(key)
        if rows is None:
            rows = self._nodes[key] = []
            if span is None:
                span = lambda start, stop: list(map(row, range(start, stop)))
            self._steps.append((rows.append, row, rows.extend, span))
        return rows

    def _constant(self, key: tuple, head: np.ndarray, tail: np.ndarray) -> list[np.ndarray]:
        """The rows of constant node `key`: head, then tail at every later order."""
        rows = self._node(key, lambda j: head if j == 0 else tail)
        self._constants[id(rows)] = (head, tail)
        return rows

    def _pointwise(
        self, tag: str, row_op: Callable[..., np.ndarray], operands: list[list[np.ndarray]]
    ) -> list[np.ndarray]:
        """The node whose row j is row_op of its operands' rows j; of
        constants, the constant whose two rows row_op gives on theirs."""
        key = (tag, *map(id, operands))
        constants = [self._constants.get(id(rows)) for rows in operands]
        if None not in constants:
            return self._constant(key, *(row_op(*rows) for rows in zip(*constants)))
        return self._node(key, lambda j: row_op(*[rows[j] for rows in operands]))

    def _sum(self, tag: str, a: list[np.ndarray], b: list[np.ndarray]) -> list[np.ndarray]:
        """The node a + b (tag "+") or a - b (tag "-"): add_rows or
        sub_rows of the operands' rows, folded past row 0 when exactly one
        operand is a constant (see the class docstring)."""
        row_op = add_rows if tag == "+" else sub_rows
        ca = self._constants.get(id(a))
        cb = self._constants.get(id(b))
        if (ca is None) == (cb is None):
            return self._pointwise(tag, row_op, [a, b])
        x, (_, tail) = (b, ca) if ca is not None else (a, cb)
        t = tail[0].item()
        negate = tag == "-" and x is b  # t - x
        key = (tag, id(a), id(b))
        # x + -0.0, -0.0 + x and x - +0.0 leave every head as it is.
        if not negate and t == 0.0 and np.signbit(t) == (tag == "+"):
            return self._node(key, lambda j: row_op(a[0], b[0]) if j == 0 else x[j])
        head = operator.add if tag == "+" else operator.sub

        def fold(row: np.ndarray) -> np.ndarray:
            out = np.negative(row) if negate else row.copy()
            out[0] = head(t, row[0]) if negate else head(row[0], t)
            return out

        return self._node(key, lambda j: row_op(a[0], b[0]) if j == 0 else fold(x[j]))

    def _product(self, a: list[np.ndarray], b: list[np.ndarray]) -> list[np.ndarray]:
        key = ("*", id(a), id(b))
        ca = self._constants.get(id(a))
        cb = self._constants.get(id(b))
        if ca is not None and ca[0][0] == 0.0:
            # The kernel skips a zero left factor whatever b holds.
            return self._compile(Const(Fraction(0)), [])
        if ca is not None or cb is not None:
            # A Python float: scaling by one is faster than by a numpy scalar.
            x, c = (b, ca[0].item()) if ca is not None else (a, cb[0].item())
            cx = self._constants.get(id(x))
            if cx is not None:
                return self._constant(key, *(trim(row * c + 0.0) for row in cx))
            return self._node(
                key,
                lambda j: trim(x[j] * c + 0.0),
                lambda start, stop: [
                    trim(s[: len(r)]) for s, r in zip(grid(x[start:stop]) * c + 0.0, x[start:stop])
                ],
            )
        state = _backend.ProductState()
        return self._node(
            key,
            lambda j: trim(_backend.series_product(a, b, j, start=j, nonzero=state)[0]),
            lambda start, stop: list(
                map(trim, _backend.series_product(a, b, stop - 1, start=start, nonzero=state))
            ),
        )


def eval_rhs(system: PdeSystem, state: Sequence[TimeSeries], order: int) -> tuple[TimeSeries, ...]:
    """Evaluate every right-hand side on a state vector of series.

    Each result is truncated at exactly `order` and reads state
    coefficients 0..order only, so every state series must carry at least
    order+1 of them.  The series are given, so one RowEvaluator.extend
    call runs the evaluator node by node over all of those orders, as
    residual() does.  A TaylorPdeError names the first inf or nan
    coefficient: the state's rows are checked first, lowest order and
    then field first, then the right-hand sides' rows.  The evaluator
    refuses a state whose length is not the field count.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    for field, s in zip(system.fields, state):
        if s.order < order:
            raise ConfigError(
                f"field {field} has order {s.order}; evaluating to order {order} "
                f"needs {order + 1} coefficients"
            )
    made = RowEvaluator(system).extend([[p.row() for p in s.coeffs[: order + 1]] for s in state])
    check_finite([f"the right-hand side of field {f}" for f in system.fields], zip(*made))
    return tuple(TimeSeries(map(TanhPoly, rows)) for rows in made)
