"""Text format for system definitions.

Grammar (one declaration per line, `#` starts a comment):

    system <name>
    params <name> ...        (optional)
    states <name> ...
    inputs <name> ...
    numeric                  (optional: allow sin/cos/exp/pi, numeric path only)
    <state>' = <expression>

Expressions use + - * / ^ with integer and rational literals and
parentheses; `^` takes an integer exponent.  `^` binds tightest and
associates right, then unary minus, then `* /`, then `+ -`; the binary
operators `+ - * /` associate left, so `2*-x^2` is `2*(-(x^2))`, as in
Python.  Every declared state needs exactly one update line.  All
diagnostics carry line and column.

One evaluator, `_evaluate`, folds an expression tree in any arithmetic
that supports Python's operators: `to_system_model` runs it over exact
rational functions, `to_numeric_step` over floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub, truediv

from .errors import AccessKitError
from .ring import RationalFunction, VariableRegistry
from .system import SystemModel

# the functions a `numeric` file may call, as float functions
_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "exp": math.exp}
_OPERATORS = {"+": add, "-": sub, "*": mul, "/": truediv}


class ParseError(AccessKitError):
    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# Expression AST


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: object
    right: object


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


# how tightly each operator binds, unary minus under its node type; the
# parser and the printer both read it
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, Neg: 3, "^": 4}


# ---------------------------------------------------------------------------
# Tokenizer


@dataclass(frozen=True)
class _Tok:
    kind: str  # NAME NUMBER OP END
    text: str
    column: int


def _tokenize(text, line_no):
    toks = []
    i = 0
    while i < len(text):
        c = text[i]
        if c in " \t":
            i += 1
            continue
        if c == "#":
            break
        col = i + 1
        if "0" <= c <= "9":  # ASCII only: int() also reads other digits
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            toks.append(_Tok("NUMBER", text[i:j], col))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("NAME", text[i:j], col))
            i = j
        elif c in "+-*/^()'=,":
            toks.append(_Tok("OP", c, col))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", line_no, col)
    toks.append(_Tok("END", "", len(text) + 1))
    return toks


class _ExprParser:
    """Precedence climbing over the operators of `_PREC`."""

    def __init__(self, toks, line_no, numeric):
        self.toks = toks
        self.pos = 0
        self.line = line_no
        self.numeric = numeric

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, msg, tok=None):
        tok = tok or self.peek()
        raise ParseError(msg, self.line, tok.column)

    def parse(self):
        e = self.expr(1)
        if self.peek().kind != "END":
            self.fail(f"unexpected {self.peek().text!r} after expression")
        return e

    def expr(self, least):
        """An operand, then every binary operator that binds at least
        `least`; a binary operator parses its right operand one level up
        (left associative), `^` at its own level (right associative)."""
        if self.peek().text == "-":
            self.take()
            node = Neg(self.expr(_PREC[Neg]))
        else:
            node = self.atom()
        while _PREC.get(self.peek().text, 0) >= least:
            op = self.take()
            prec = _PREC[op.text]
            if op.text != "^":
                right = self.expr(prec + 1)
            elif self.peek().text == "-":
                self.fail("exponent must be a nonnegative integer", op)
            else:
                right = self.expr(prec)
                if not isinstance(right, Num) or right.value.denominator != 1:
                    self.fail("exponent must be an integer literal", op)
            node = BinOp(op.text, node, right)
        return node

    def atom(self):
        tok = self.take()
        if tok.kind == "NUMBER":
            return Num(Fraction(int(tok.text)))
        if tok.kind == "NAME":
            if tok.text in _FUNCTIONS:
                if not self.numeric:
                    self.fail(
                        f"function {tok.text!r} needs the `numeric` flag", tok
                    )
                if self.take().text != "(":
                    self.fail(f"expected '(' after {tok.text!r}", tok)
                arg = self.expr(1)
                if self.take().text != ")":
                    self.fail("expected ')'", tok)
                return Call(tok.text, arg)
            if tok.text == "pi":
                if not self.numeric:
                    self.fail("`pi` needs the `numeric` flag", tok)
                return Var("pi")
            return Var(tok.text)
        if tok.text == "(":
            e = self.expr(1)
            close = self.take()
            if close.text != ")":
                self.fail("expected ')'", close)
            return e
        self.fail(f"unexpected {tok.text or 'end of line'!r}", tok)


# ---------------------------------------------------------------------------
# File model


@dataclass
class SystemSpecFile:
    name: str
    params: tuple
    states: tuple
    inputs: tuple
    updates: dict  # state name -> AST
    numeric_only: bool = False

    def free_names(self):
        return set().union(*map(_names_of, self.updates.values())) - {"pi"}


def parse_system(text):
    """Parse the text format into a validated SystemSpecFile."""
    name = None
    params = []
    states = []
    inputs = []
    numeric_only = False
    updates = {}
    update_lines = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        toks = _tokenize(raw, line_no)
        if toks[0].kind == "END":
            continue
        head = toks[0]
        if head.kind == "NAME" and head.text == "system":
            if len(toks) != 3 or toks[1].kind != "NAME":
                raise ParseError("expected `system <name>`", line_no, head.column)
            if name is not None:
                raise ParseError("duplicate `system` line", line_no, head.column)
            name = toks[1].text
            continue
        if head.kind == "NAME" and head.text in ("params", "states", "inputs"):
            target = {"params": params, "states": states, "inputs": inputs}[
                head.text
            ]
            if target:
                raise ParseError(
                    f"duplicate `{head.text}` line", line_no, head.column
                )
            body = toks[1:-1]
            if not body or any(t.kind != "NAME" for t in body):
                raise ParseError(
                    f"expected `{head.text} <name> ...`", line_no, head.column
                )
            target.extend(t.text for t in body)
            continue
        if head.kind == "NAME" and head.text == "numeric" and len(toks) == 2:
            numeric_only = True
            continue
        # update line: <state>' = expr
        if (
            head.kind == "NAME"
            and len(toks) > 3
            and toks[1].text == "'"
            and toks[2].text == "="
        ):
            state = head.text
            if state not in states:
                raise ParseError(
                    f"update for undeclared state {state!r}", line_no, head.column
                )
            if state in updates:
                raise ParseError(
                    f"duplicate update for {state!r}", line_no, head.column
                )
            ast = _ExprParser(toks[3:], line_no, numeric_only).parse()
            updates[state] = ast
            update_lines[state] = line_no
            continue
        raise ParseError(
            f"unrecognized declaration starting with {head.text!r}",
            line_no,
            head.column,
        )
    if name is None:
        raise ParseError("missing `system <name>` line", 1, 1)
    if not states:
        raise ParseError("missing `states` line", 1, 1)
    if not inputs:
        raise ParseError("missing `inputs` line", 1, 1)
    declared = set(params) | set(states) | set(inputs)
    if len(declared) != len(params) + len(states) + len(inputs):
        raise ParseError("duplicate symbol declaration", 1, 1)
    spec = SystemSpecFile(
        name=name,
        params=tuple(params),
        states=tuple(states),
        inputs=tuple(inputs),
        updates=updates,
        numeric_only=numeric_only,
    )
    missing = [s for s in states if s not in updates]
    if missing:
        raise ParseError(f"missing update for state {missing[0]!r}", 1, 1)
    undeclared = spec.free_names() - declared
    if undeclared:
        state = next(
            s for s in states if _names_of(spec.updates[s]) & undeclared
        )
        raise ParseError(
            f"undeclared symbol {sorted(undeclared)[0]!r}",
            update_lines[state],
            1,
        )
    return spec


def _names_of(node):
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, BinOp):
        return _names_of(node.left) | _names_of(node.right)
    if isinstance(node, Neg):
        return _names_of(node.operand)
    if isinstance(node, Call):
        return _names_of(node.arg)
    return set()


# ---------------------------------------------------------------------------
# Conversions


def _evaluate(node, leaf, functions=None):
    """Fold an expression tree with Python's operators: leaf(node) gives
    the value of a Num or a Var, `^` raises to the integer literal the
    parser checked, and a Call applies functions[name]."""
    if isinstance(node, BinOp):
        a = _evaluate(node.left, leaf, functions)
        if node.op == "^":
            return a ** int(node.right.value)
        return _OPERATORS[node.op](a, _evaluate(node.right, leaf, functions))
    if isinstance(node, Neg):
        return -_evaluate(node.operand, leaf, functions)
    if isinstance(node, Call):
        return functions[node.func](_evaluate(node.arg, leaf, functions))
    return leaf(node)


def to_system_model(spec):
    """Build the exact symbolic SystemModel (numeric-only files refuse)."""
    if spec.numeric_only:
        raise AccessKitError(
            "numeric-only system files have no exact symbolic form; "
            "use the numeric scan path"
        )
    reg = VariableRegistry(spec.states, spec.inputs, spec.params, horizon=1)
    env = {n: RationalFunction(reg.var(n)) for n in reg.names()}

    def leaf(node):
        if isinstance(node, Num):
            return RationalFunction(reg.const(node.value))
        return env[node.name]

    phi = [_evaluate(spec.updates[s], leaf) for s in spec.states]
    return SystemModel(spec.states, spec.inputs, phi, spec.params, spec.name)


def to_numeric_step(spec, params=None):
    """Compile a one-dimensional, one-input file (numeric or rational)
    into a float step function step(x, u)."""
    if len(spec.states) != 1 or len(spec.inputs) != 1:
        raise AccessKitError("numeric scan needs exactly one state and one input")
    params = {k: float(v) for k, v in (params or {}).items()}
    for name in params:
        if name not in spec.params:
            raise ValueError(f"{name!r} is not a parameter of {spec.name}")
    missing = [p for p in spec.params if p not in params]
    if missing:
        raise AccessKitError(
            f"numeric scan needs values for parameters: {', '.join(missing)}"
        )
    ast = spec.updates[spec.states[0]]

    def step(x, u):
        env = {**params, spec.states[0]: x, spec.inputs[0]: u, "pi": math.pi}

        def leaf(node):
            return float(node.value) if isinstance(node, Num) else env[node.name]

        return _evaluate(ast, leaf, _FUNCTIONS)

    return step


# ---------------------------------------------------------------------------
# Pretty printer (canonical form; parse . pretty . parse == parse)


def _fmt(node, least=1):
    """Text for node in a slot that takes operators binding at least
    `least`; a node that binds less tightly is parenthesized."""
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({_fmt(node.arg)})"
    if isinstance(node, Neg):
        prec = _PREC[Neg]
        s = f"-{_fmt(node.operand, prec)}"
    elif node.op == "^":
        prec = _PREC["^"]
        s = f"{_fmt(node.left, prec + 1)}^{_fmt(node.right, prec)}"
    else:
        prec = _PREC[node.op]
        s = f"{_fmt(node.left, prec)} {node.op} {_fmt(node.right, prec + 1)}"
    return f"({s})" if prec < least else s


def pretty(spec):
    """Canonical text rendering; reparsing yields an identical model."""
    lines = [f"system {spec.name}"]
    if spec.params:
        lines.append("params " + " ".join(spec.params))
    lines.append("states " + " ".join(spec.states))
    lines.append("inputs " + " ".join(spec.inputs))
    if spec.numeric_only:
        lines.append("numeric")
    for s in spec.states:
        lines.append(f"{s}' = {_fmt(spec.updates[s])}")
    return "\n".join(lines) + "\n"
