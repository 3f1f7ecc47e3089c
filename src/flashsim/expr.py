"""Arithmetic expression parser and code emitter for user-supplied model equations.

Grammar (documented verbatim in the README config reference):

    expr    := term (("+" | "-") term)*
    term    := unary (("*" | "/") unary)*
    unary   := ("+" | "-") unary | primary
    primary := NUMBER | IDENT | ("min" | "max") "(" expr ("," expr)+ ")"
             | "(" expr ")"

"*" and "/" bind tighter than "+" and "-"; binary operators are
left-associative. Identifiers are checked against the allowed variable set
at parse time, so a parsed expression can only fail at evaluation on
division by zero. A parsed tree is at most ``MAX_DEPTH`` levels deep, where
each operator, sign, function call and pair of parentheses is one level
above its operands; deeper input is rejected at parse time, so that every
recursive pass over a tree stays well inside Python's recursion limit.

Trees are evaluated by generated code. `Emitter` writes a tree as the
straight-line body of a Python function, one statement per interior node,
and compiles it. Only the emitter's own text reaches ``compile()``: literals
are read from names bound in the function's namespace, variables from names
the caller chooses, and operators come from the emitter's own tables, so no
config text is ever compiled.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Mapping, Sequence
from functools import cache, cached_property

from .errors import ExpressionSyntaxError, Record, UnknownIdentifierError


@cache
def _token_pattern() -> re.Pattern[str]:
    # compiled on first use, as only configs with expressions tokenize
    return re.compile(
        r"\s*(?:(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
        r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
        r"|(?P<op>[-+*/(),]))"
    )


_FUNCTIONS: dict[str, Callable[..., float]] = {"min": min, "max": max}

# The deepest tree the parser accepts; see the module docstring.
MAX_DEPTH = 200

DIVISION_BY_ZERO = "division by zero in expression"


class Num(Record):
    value: float


class Var(Record):
    name: str


class Unary(Record):
    op: str
    operand: Node


class Binary(Record):
    op: str
    left: Node
    right: Node


class Call(Record):
    func: str
    args: tuple[Node, ...]


Node = Num | Var | Unary | Binary | Call


class _Token(Record):
    kind: str  # "number" | "ident" | "op" | "end"
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    token = _token_pattern().match
    while pos < len(text):
        match = token(text, pos)
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


def _too_deep(token: _Token) -> ExpressionSyntaxError:
    return ExpressionSyntaxError(
        f"expression nested more than {MAX_DEPTH} levels deep", token.position
    )


class _Parser:
    """Recursive descent over the grammar; each rule returns its tree and
    the tree's depth."""

    def __init__(self, tokens: list[_Token], variables: frozenset[str]):
        self.tokens = tokens
        self.variables = variables
        self.index = 0
        # signs, parentheses and calls open around the current token; each
        # is a level above at least one leaf, so too many of them reject the
        # input before the descent can exhaust the stack
        self.open = 0

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

    def enter(self, token: _Token) -> None:
        self.open += 1
        if self.open >= MAX_DEPTH:
            raise _too_deep(token)

    def above(self, token: _Token, depth: int) -> int:
        """The depth of a node built at `token` over operands `depth` deep."""
        if depth >= MAX_DEPTH:
            raise _too_deep(token)
        return depth + 1

    def parse(self) -> Node:
        node, _ = self.expr()
        if self.current.kind != "end":
            raise ExpressionSyntaxError(
                f"unexpected trailing input '{self.current.text}'",
                self.current.position,
            )
        return node

    def expr(self) -> tuple[Node, int]:
        node, depth = self.term()
        while self.at_op("+", "-"):
            token = self.advance()
            right, right_depth = self.term()
            node = Binary(token.text, node, right)
            depth = self.above(token, max(depth, right_depth))
        return node, depth

    def term(self) -> tuple[Node, int]:
        node, depth = self.unary()
        while self.at_op("*", "/"):
            token = self.advance()
            right, right_depth = self.unary()
            node = Binary(token.text, node, right)
            depth = self.above(token, max(depth, right_depth))
        return node, depth

    def unary(self) -> tuple[Node, int]:
        if self.at_op("+", "-"):
            token = self.advance()
            self.enter(token)
            operand, depth = self.unary()
            self.open -= 1
            return Unary(token.text, operand), self.above(token, depth)
        return self.primary()

    def primary(self) -> tuple[Node, int]:
        token = self.current
        if token.kind == "number":
            self.advance()
            return Num(float(token.text)), 1
        if token.kind == "ident":
            self.advance()
            if self.at_op("("):
                if token.text not in _FUNCTIONS:
                    raise ExpressionSyntaxError(
                        f"unknown function '{token.text}'", token.position
                    )
                self.advance()
                self.enter(token)
                arg, depth = self.expr()
                args = [arg]
                while self.at_op(","):
                    self.advance()
                    arg, arg_depth = self.expr()
                    args.append(arg)
                    depth = max(depth, arg_depth)
                self.expect_op(")")
                self.open -= 1
                if len(args) < 2:
                    raise ExpressionSyntaxError(
                        f"'{token.text}' needs at least two arguments", token.position
                    )
                return Call(token.text, tuple(args)), self.above(token, depth)
            if token.text not in self.variables:
                raise UnknownIdentifierError(token.text, token.position)
            return Var(token.text), 1
        if self.at_op("("):
            self.advance()
            self.enter(token)
            node, depth = self.expr()
            self.expect_op(")")
            self.open -= 1
            return node, self.above(token, depth)
        if token.kind == "end":
            raise ExpressionSyntaxError("unexpected end of input", token.position)
        raise ExpressionSyntaxError(f"unexpected '{token.text}'", token.position)


# Source for each operator and function, looked up by the parsed token, so
# the emitted text never copies the token itself.
_BINARY_SOURCE = {"+": " + ", "-": " - ", "*": " * ", "/": " / "}
_CALL_SOURCE = {"min": "min", "max": "max"}


class Emitter:
    """Writes parsed trees as the straight-line body of one Python function.

    Each interior node becomes one statement that assigns a fresh local,
    in the left-to-right order its operands are written, so the generated
    code computes exactly what evaluating the tree node by node computes,
    bit for bit. A literal is read from a global that `bind` adds to the
    function's namespace, and a variable from the name its caller maps it
    to. The namespace has no builtins but min and max.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.namespace: dict[str, object] = {"__builtins__": {}, **_FUNCTIONS}
        self._locals = 0

    def bind(self, value: object) -> str:
        """A fresh global name that the generated code reads `value` from."""
        name = f"_g{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def assign(self, source: str) -> str:
        """Append a statement that stores `source` in a fresh local; return
        the local's name."""
        name = f"_v{self._locals}"
        self._locals += 1
        self.lines.append(f"{name} = {source}")
        return name

    def emit(
        self,
        node: Node,
        names: Mapping[str, str],
        on_zero_division: Callable[[], Exception],
    ) -> str:
        """Append the statements that evaluate `node`; return the name that
        holds its value.

        `names` maps every variable the tree reads to the name holding it.
        A division by zero raises ``on_zero_division()``; a division by a
        non-zero literal is not checked.
        """
        return self._emit(node, names, self.bind(on_zero_division))

    def _emit(self, node: Node, names: Mapping[str, str], raise_zero: str) -> str:
        if isinstance(node, Num):
            return self.bind(node.value)
        if isinstance(node, Var):
            return names[node.name]
        if isinstance(node, Unary):
            operand = self._emit(node.operand, names, raise_zero)
            return self.assign(f"-{operand}") if node.op == "-" else operand
        if isinstance(node, Binary):
            left = self._emit(node.left, names, raise_zero)
            right = self._emit(node.right, names, raise_zero)
            if node.op == "/" and not (isinstance(node.right, Num) and node.right.value != 0):
                self.lines.append(f"if {right} == 0: raise {raise_zero}()")
            return self.assign(left + _BINARY_SOURCE[node.op] + right)
        args = [self._emit(arg, names, raise_zero) for arg in node.args]
        return self.assign(f"{_CALL_SOURCE[node.func]}({', '.join(args)})")

    def function(self, params: Sequence[str], result: str) -> Callable:
        """Compile the statements so far as a function of `params` that
        returns `result`; both are the caller's own text."""
        source = "\n    ".join(
            [f"def _f({', '.join(params)}):", *self.lines, f"return {result}"]
        )
        exec(compile(source, "<flashsim model>", "exec"), self.namespace)
        return self.namespace.pop("_f")  # type: ignore[return-value]


class _ExpressionFields(Record):
    source: str
    root: Node
    variables: frozenset[str]


class Expression(_ExpressionFields):
    """A parsed, validated model equation. Stateless and safe to share.

    A named tuple of its source, tree and variables. It alone subclasses
    its fields base, for an instance dict where `_compiled` is cached.
    """

    @cached_property
    def _compiled(self) -> tuple[Callable[..., float], tuple[str, ...]]:
        # built on first use, so parsing a config compiles nothing
        names = tuple(sorted(self.variables))
        params = [f"_x{index}" for index in range(len(names))]
        emitter = Emitter()
        result = emitter.emit(
            self.root,
            dict(zip(names, params)),
            lambda: ZeroDivisionError(DIVISION_BY_ZERO),
        )
        return emitter.function(params, result), names

    def evaluate(self, env: Mapping[str, float]) -> float:
        """Evaluate against a complete variable environment.

        Pure: identical (expression, env) pairs always produce identical
        results. The only possible failure is ZeroDivisionError.
        """
        function, names = self._compiled
        return function(*[env[name] for name in names])


def variables_of(node: Node) -> frozenset[str]:
    """The variables a tree reads."""
    if isinstance(node, Var):
        return frozenset({node.name})
    if isinstance(node, Unary):
        return variables_of(node.operand)
    if isinstance(node, Binary):
        return variables_of(node.left) | variables_of(node.right)
    if isinstance(node, Call):
        out: frozenset[str] = frozenset()
        for arg in node.args:
            out |= variables_of(arg)
        return out
    return frozenset()


def parse_expression(text: str, variables: frozenset[str]) -> Expression:
    """Parse `text` against the allowed variable names.

    Raises ExpressionSyntaxError (with position) on malformed input or a
    tree deeper than MAX_DEPTH, and UnknownIdentifierError for identifiers
    outside `variables`.
    """
    root = _Parser(_tokenize(text), variables).parse()
    return Expression(text, root, variables_of(root))
