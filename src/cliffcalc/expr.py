"""Scalar expressions over x1..xn with exact forward-mode derivatives.

Grammar (standard precedence, left associative; parentheses, function calls
and unary minus signs nest at most MAX_DEPTH levels, as the parser recurses
once per level, and deeper is a syntax error):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' '-'? integer)?
    atom   := number | 'i' | 'x' digits | func '(' expr ')' | '(' expr ')' | '-' atom
    func   := exp | log | sin | cos | sqrt

The parser writes into a Tape, a node table in which equal subexpressions
share one slot. A tape evaluates as a straight-line list of truncated Taylor
operations, so values and all partial derivatives up to the requested order
are exact to machine precision, and each shared node is computed once.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

from .taylor import JetDomainError, Taylor

FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")
MAX_DEPTH = 100
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul}


class ExprError(ValueError):
    pass


class ExprSyntaxError(ExprError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExprDomainError(ArithmeticError):
    """Evaluation left a function's domain at a point: a failure of the
    arithmetic, not a malformed expression."""


class Tape:
    """Hash-consed node table: each node (op, a, b) is stored once, after its
    children. op is "x" (a = variable index from 0), "c" (a = constant), "^"
    (slot a to the integer power b), a key of _BINARY (slots a and b), or
    "neg", "reciprocal" or one of FUNCTIONS (slot a). a / b is stored as
    a * reciprocal(b), so each distinct denominator is inverted once.
    Nothing is reordered or simplified; constants are keyed by repr, which
    keeps 0.0 and -0.0 apart.
    """

    def __init__(self, n: int):
        self.n = n
        self.nodes = []
        self._slots = {}  # node key -> slot
        self._orders = {}  # tuple of roots -> evaluation order

    def add(self, op, a, b=None) -> int:
        key = (op, repr(a), b) if op == "c" else (op, a, b)
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = len(self.nodes)
            self.nodes.append((op, a, b))
        return slot

    def parse(self, source: str) -> ScalarExpr:
        if not isinstance(source, str):
            raise ExprError(f"expression must be a string, got {source!r}")
        if not source.strip():
            raise ExprSyntaxError("empty expression", 0)
        if self.n < 1:
            raise ExprError(f"dimension must be positive, got {self.n}")
        return ScalarExpr(self, _Parser(source, self).parse())

    def adopt(self, e: ScalarExpr) -> ScalarExpr:
        """e's expression in this tape, copying the nodes it reaches."""
        new = {}
        for s in e.tape.order((e.slot,)):
            op, a, b = e.tape.nodes[s]
            if op != "x" and op != "c":
                a, b = new[a], new[b] if op in _BINARY else b
            new[s] = self.add(op, a, b)
        return ScalarExpr(self, new[e.slot])

    def order(self, roots) -> list:
        """Slots the roots reach, in the order a left-to-right post-order walk
        of each root in turn first meets them."""
        roots = tuple(roots)
        if roots not in self._orders:
            nodes, out = self.nodes, {}  # a dict keeps the slots in insertion order
            # no recursion, for sums of any length: a slot goes back under its children, emitted when popped again
            stack = [(root, False) for root in reversed(roots)]
            while stack:
                s, expanded = stack.pop()
                if expanded:
                    out[s] = None
                elif s not in out:
                    op, a, b = nodes[s]
                    stack.append((s, True))
                    if op in _BINARY:
                        stack.append((b, False))
                    if op != "x" and op != "c":
                        stack.append((a, False))
            self._orders[roots] = list(out)
        return self._orders[roots]

    def run(self, slots, p, order: int) -> list:
        """Jets at p of the given slots, indexed by slot, computed in the
        given order (children first, as order() returns them)."""
        n = self.n
        if len(p) != n:
            raise ExprError(f"point has {len(p)} coordinates, expected {n}")
        nodes = self.nodes
        vals = [None] * len(nodes)
        try:
            for s in slots:
                op, a, b = nodes[s]
                if op in _BINARY:
                    vals[s] = _BINARY[op](vals[a], vals[b])
                elif op == "x":
                    vals[s] = Taylor.variable(a, p[a], n, order)
                elif op == "c":
                    vals[s] = Taylor.constant(a, n, order)
                elif op == "neg":
                    vals[s] = -vals[a]
                elif op == "^":
                    vals[s] = vals[a].intpow(b)
                else:
                    vals[s] = getattr(vals[a], op)()
        except JetDomainError as err:
            if nodes[s][0] == "reciprocal":
                # name the division: order() puts each reciprocal right
                # before the first a / b that divides by it
                s = slots[slots.index(s) + 1]
            raise ExprDomainError(f"{err}, in subexpression '{self.render(s)}'") from err
        return vals

    def render(self, slot: int) -> str:
        """The slot's expression as text, each node's built from its children's, in order()."""
        nodes, text = self.nodes, {}
        for s in self.order((slot,)):
            op, a, b = nodes[s]
            if op == "x":
                text[s] = f"x{a + 1}"
            elif op == "c":  # mixed constants are programmatic only; the parser never builds one
                text[s] = "i" if a == 1j else repr(a.real) if a.imag == 0 else f"({a.real!r} + {a.imag!r}*i)"
            elif op == "neg":
                text[s] = f"(-{text[a]})"
            elif op == "^":
                text[s] = f"({text[a]}^{b})"
            elif op == "*" and nodes[b][0] == "reciprocal":
                text[s] = f"({text[a]} / {text[nodes[b][1]]})"
            elif op in _BINARY:
                text[s] = f"({text[a]} {op} {text[b]})"
            else:
                text[s] = f"{op}({text[a]})"
        return text[slot]


_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z]+")
_DIGITS = re.compile(r"\d+")


class _Parser:
    """Recursive descent over the grammar; each rule returns the slot of the
    node it added to the tape."""

    def __init__(self, source: str, tape: Tape):
        self.src = source
        self.n = tape.n
        self.add = tape.add
        self.pos = 0
        self.depth = 0

    def error(self, message):
        raise ExprSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def take(self, chars):
        """The next character if it is one of chars (consumed), else ''."""
        ch = self.peek()
        if ch and ch in chars:
            self.pos += 1
            return ch
        return ""

    def expect(self, ch):
        if not self.take(ch):
            self.error(f"expected {ch!r}")

    def nested(self, rule):
        """rule() one level deeper than the '(' or '-' just taken."""
        if self.depth == MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested more than {MAX_DEPTH} levels deep", self.pos - 1)
        self.depth += 1
        node = rule()
        self.depth -= 1
        return node

    def parse(self):
        node = self.expr()
        self.skip_ws()
        if self.pos != len(self.src):
            self.error(f"unexpected trailing input {self.src[self.pos]!r}")
        return node

    def expr(self):
        node = self.term()
        while op := self.take("+-"):
            node = self.add(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while op := self.take("*/"):
            right = self.factor()
            node = self.add("*", node, self.add("reciprocal", right) if op == "/" else right)
        return node

    def factor(self):
        node = self.atom()
        if self.take("^"):
            self.skip_ws()
            sign = -1 if self.take("-") else 1
            m = _DIGITS.match(self.src, self.pos)
            if not m:
                self.error("expected integer exponent after '^'")
            self.pos = m.end()
            return self.add("^", node, sign * int(m.group()))
        return node

    def atom(self):
        ch = self.peek()
        if ch == "-":
            self.pos += 1
            return self.add("neg", self.nested(self.atom))
        if ch == "(":
            self.pos += 1
            node = self.nested(self.expr)
            self.expect(")")
            return node
        m = _NUMBER.match(self.src, self.pos)
        if m:
            self.pos = m.end()
            return self.add("c", complex(float(m.group())))
        m = _NAME.match(self.src, self.pos)
        if not m:
            self.error("expected a number, variable, function, or '('")
        name = m.group()
        start = self.pos
        self.pos = m.end()
        if name == "i":
            return self.add("c", 1j)
        if name == "x":
            d = _DIGITS.match(self.src, self.pos)
            if not d:
                self.pos = start
                self.error("variable needs an index, e.g. x1")
            self.pos = d.end()
            index = int(d.group())
            if not 1 <= index <= self.n:
                self.pos = start
                self.error(f"variable x{index} out of range for dimension {self.n}")
            return self.add("x", index - 1)
        if name in FUNCTIONS:
            self.expect("(")
            node = self.nested(self.expr)
            self.expect(")")
            return self.add(name, node)
        self.pos = start
        self.error(f"unknown name {name!r}")


@dataclass(frozen=True)
class ScalarExpr:
    """The expression at one slot of a tape."""

    tape: Tape
    slot: int

    @property
    def n(self) -> int:
        return self.tape.n

    def render(self) -> str:
        return self.tape.render(self.slot)

    def variables(self) -> set:
        nodes = self.tape.nodes
        return {nodes[s][1] + 1 for s in self.tape.order((self.slot,)) if nodes[s][0] == "x"}

    def taylor(self, p, order: int) -> Taylor:
        """Jet at p of this expression alone: only the nodes it reaches are evaluated."""
        return self.tape.run(self.tape.order((self.slot,)), p, order)[self.slot]


def parse(source: str, n: int) -> ScalarExpr:
    return Tape(n).parse(source)


def constant_expr(value, n: int) -> ScalarExpr:
    tape = Tape(n)
    return ScalarExpr(tape, tape.add("c", complex(value)))
