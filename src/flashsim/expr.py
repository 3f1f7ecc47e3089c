"""Arithmetic expression parser/evaluator for user-supplied model equations.

Grammar (documented verbatim in the README config reference):

    expr    := term (("+" | "-") term)*
    term    := unary (("*" | "/") unary)*
    unary   := ("+" | "-") unary | primary
    primary := NUMBER | IDENT | ("min" | "max") "(" expr ("," expr)+ ")"
             | "(" expr ")"

"*" and "/" bind tighter than "+" and "-"; binary operators are
left-associative. Identifiers are checked against the allowed variable set
at parse time, so a parsed expression can only fail at evaluation on
division by zero.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence, Union

from .errors import ExpressionSyntaxError, UnknownIdentifierError

_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/(),]))"
)

_FUNCTIONS: dict[str, Callable[..., float]] = {"min": min, "max": max}

Node = Union["_Num", "_Var", "_Unary", "_Binary", "_Call"]


@dataclass(frozen=True)
class _Num:
    value: float


@dataclass(frozen=True)
class _Var:
    name: str


@dataclass(frozen=True)
class _Unary:
    op: str
    operand: Node


@dataclass(frozen=True)
class _Binary:
    op: str
    left: Node
    right: Node


@dataclass(frozen=True)
class _Call:
    func: str
    args: tuple[Node, ...]


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "ident" | "op" | "end"
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ExpressionSyntaxError(f"unexpected character '{text[bad_at]}'", bad_at)
        kind = str(match.lastgroup)
        tokens.append(_Token(kind, match.group(kind), match.start(kind)))
        pos = match.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], variables: frozenset[str]):
        self.tokens = tokens
        self.variables = variables
        self.index = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.current
        self.index += 1
        return token

    def expect_op(self, op: str) -> None:
        if self.current.kind == "op" and self.current.text == op:
            self.advance()
            return
        raise ExpressionSyntaxError(f"expected '{op}'", self.current.position)

    def at_op(self, *ops: str) -> bool:
        return self.current.kind == "op" and self.current.text in ops

    def parse(self) -> Node:
        node = self.expr()
        if self.current.kind != "end":
            raise ExpressionSyntaxError(
                f"unexpected trailing input '{self.current.text}'",
                self.current.position,
            )
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.at_op("+", "-"):
            op = self.advance().text
            node = _Binary(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.at_op("*", "/"):
            op = self.advance().text
            node = _Binary(op, node, self.unary())
        return node

    def unary(self) -> Node:
        if self.at_op("+", "-"):
            op = self.advance().text
            return _Unary(op, self.unary())
        return self.primary()

    def primary(self) -> Node:
        token = self.current
        if token.kind == "number":
            self.advance()
            return _Num(float(token.text))
        if token.kind == "ident":
            self.advance()
            if self.at_op("("):
                if token.text not in _FUNCTIONS:
                    raise ExpressionSyntaxError(
                        f"unknown function '{token.text}'", token.position
                    )
                self.advance()
                args = [self.expr()]
                while self.at_op(","):
                    self.advance()
                    args.append(self.expr())
                self.expect_op(")")
                if len(args) < 2:
                    raise ExpressionSyntaxError(
                        f"'{token.text}' needs at least two arguments", token.position
                    )
                return _Call(token.text, tuple(args))
            if token.text not in self.variables:
                raise UnknownIdentifierError(token.text, token.position)
            return _Var(token.text)
        if self.at_op("("):
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        if token.kind == "end":
            raise ExpressionSyntaxError("unexpected end of input", token.position)
        raise ExpressionSyntaxError(f"unexpected '{token.text}'", token.position)


def _compile(node: Node, slots: Mapping[str, object]) -> Callable[[object], float]:
    """Turn an AST into nested closures over one `values` argument.

    A variable reads ``values[slots[name]]``, so the same compiler serves a
    name-keyed environment (each slot is the name) and a positional tuple.
    Operands are evaluated left to right, as they are written.
    """
    if isinstance(node, _Num):
        constant = node.value
        return lambda values: constant
    if isinstance(node, _Var):
        slot = slots[node.name]
        return lambda values: values[slot]
    if isinstance(node, _Unary):
        operand = _compile(node.operand, slots)
        if node.op == "-":
            return lambda values: -operand(values)
        return operand
    if isinstance(node, _Binary):
        left = _compile(node.left, slots)
        right = _compile(node.right, slots)
        if node.op == "+":
            return lambda values: left(values) + right(values)
        if node.op == "-":
            return lambda values: left(values) - right(values)
        if node.op == "*":
            return lambda values: left(values) * right(values)

        def divide(values):
            dividend = left(values)
            divisor = right(values)
            if divisor == 0:
                raise ZeroDivisionError("division by zero in expression")
            return dividend / divisor

        return divide
    func = _FUNCTIONS[node.func]
    args = tuple(_compile(arg, slots) for arg in node.args)
    return lambda values: func([arg(values) for arg in args])


@dataclass(frozen=True)
class Expression:
    """A parsed, validated model equation. Stateless and safe to share."""

    source: str
    root: Node
    variables: frozenset[str]
    _by_name: Callable[[Mapping[str, float]], float] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        slots = {name: name for name in _referenced(self.root)}
        object.__setattr__(self, "_by_name", _compile(self.root, slots))

    def compile(self, slots: Mapping[str, int]) -> Callable[[Sequence[float]], float]:
        """The equation as a function of one positional tuple of floats.

        `slots` maps every referenced variable to its index in the tuple.
        The function computes exactly what `evaluate` computes from the same
        values, and likewise raises only ZeroDivisionError.
        """
        return _compile(self.root, slots)

    def evaluate(self, env: Mapping[str, float]) -> float:
        """Evaluate against a complete variable environment.

        Pure: identical (expression, env) pairs always produce identical
        results. The only possible failure is ZeroDivisionError.
        """
        return self._by_name(env)


def _referenced(node: Node) -> frozenset[str]:
    if isinstance(node, _Var):
        return frozenset({node.name})
    if isinstance(node, _Unary):
        return _referenced(node.operand)
    if isinstance(node, _Binary):
        return _referenced(node.left) | _referenced(node.right)
    if isinstance(node, _Call):
        out: frozenset[str] = frozenset()
        for arg in node.args:
            out |= _referenced(arg)
        return out
    return frozenset()


def parse_expression(text: str, variables: frozenset[str]) -> Expression:
    """Parse `text` against the allowed variable names.

    Raises ExpressionSyntaxError (with position) on malformed input and
    UnknownIdentifierError for identifiers outside `variables`.
    """
    root = _Parser(_tokenize(text), variables).parse()
    return Expression(text, root, _referenced(root))
