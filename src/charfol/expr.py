"""Expression trees for scalar fields over a coordinate chart.

A small language shared by scene files and the programmatic
constructors: numbers, coordinate names, + - * / ^ (or **), function
calls, and d(f, x) for a partial derivative. Trees compile once into a
plain Python function; the generated code calls only ring-generic
operations, so a single compiled object evaluates over floats, numpy
arrays of points, the recording scalars of `kernel`, jets, and nested
jets without recompilation.

Partial derivatives are not expanded symbolically. A d() node compiles
to a helper that lifts every argument into a one-slot jet and reads the
derivative off the result, which keeps nesting levels from mixing.
"""

from __future__ import annotations

import math
import re
from typing import Mapping, Sequence

from .errors import SceneParseError
from .jets import FUNCTIONS, Jet, power

CONSTANTS = {"pi": 3.141592653589793}


# nodes ---------------------------------------------------------------

class Node:
    __slots__ = ()


class Const(Node):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)


class Var(Node):
    __slots__ = ("index", "name")

    def __init__(self, index, name):
        self.index = index
        self.name = name


class Bin(Node):
    __slots__ = ("op", "a", "b")

    def __init__(self, op, a, b):
        self.op = op  # one of + - * / **
        self.a = a
        self.b = b


class Neg(Node):
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a


class Call(Node):
    __slots__ = ("fn", "args")

    def __init__(self, fn, args):
        self.fn = fn
        self.args = tuple(args)


class Deriv(Node):
    __slots__ = ("a", "index")

    def __init__(self, a, index):
        self.a = a
        self.index = index


def is_zero(node) -> bool:
    return isinstance(node, Const) and node.value == 0.0


def uses_var(node, j) -> bool:
    if isinstance(node, Var):
        return node.index == j
    if isinstance(node, Const):
        return False
    if isinstance(node, Bin):
        return uses_var(node.a, j) or uses_var(node.b, j)
    if isinstance(node, Neg):
        return uses_var(node.a, j)
    if isinstance(node, Call):
        return any(uses_var(a, j) for a in node.args)
    if isinstance(node, Deriv):
        return uses_var(node.a, j)
    raise TypeError(f"not a node: {node!r}")


def deriv(node, j) -> Node:
    """Partial derivative as a tree node; structurally zero trees collapse."""
    if not uses_var(node, j):
        return Const(0.0)
    return Deriv(node, j)


def to_text(node, names: Sequence[str]) -> str:
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return names[node.index]
    if isinstance(node, Bin):
        op = "^" if node.op == "**" else node.op
        return f"({to_text(node.a, names)} {op} {to_text(node.b, names)})"
    if isinstance(node, Neg):
        return f"(-{to_text(node.a, names)})"
    if isinstance(node, Call):
        return f"{node.fn}({', '.join(to_text(a, names) for a in node.args)})"
    if isinstance(node, Deriv):
        return f"d({to_text(node.a, names)}, {names[node.index]})"
    raise TypeError(f"not a node: {node!r}")


# compilation ---------------------------------------------------------

def _partial_evaluator(fn, j):
    def dv(*xs):
        lifted = [Jet(x, (1.0 if i == j else 0.0,)) for i, x in enumerate(xs)]
        out = fn(*lifted)
        return out.g[0] if isinstance(out, Jet) else 0.0

    return dv


def compile_node(node, dim: int):
    """Compile a tree to a function of dim positional scalars."""
    ns = {"_" + k: v for k, v in FUNCTIONS.items()}
    # repr() of a non-finite Const is the name inf or nan
    ns.update(_pow=power, inf=math.inf, nan=math.nan)
    argstr = ", ".join(f"x{i}" for i in range(dim))
    counter = [0]

    def emit(nd):
        if isinstance(nd, Const):
            return repr(nd.value)
        if isinstance(nd, Var):
            return f"x{nd.index}"
        if isinstance(nd, Bin):
            if nd.op == "**":
                return f"_pow({emit(nd.a)}, {emit(nd.b)})"
            return f"({emit(nd.a)} {nd.op} {emit(nd.b)})"
        if isinstance(nd, Neg):
            return f"(-{emit(nd.a)})"
        if isinstance(nd, Call):
            return f"_{nd.fn}({', '.join(emit(a) for a in nd.args)})"
        if isinstance(nd, Deriv):
            name = f"_dv{counter[0]}"
            counter[0] += 1
            ns[name] = _partial_evaluator(compile_node(nd.a, dim), nd.index)
            return f"{name}({argstr})"
        raise TypeError(f"not a node: {nd!r}")

    src = f"def _f({argstr}):\n    return {emit(node)}\n"
    exec(compile(src, "<charfol expr>", "exec"), ns)
    return ns["_f"]


# parsing -------------------------------------------------------------

_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>\*\*|[-+*/^(),])
    """,
    re.VERBOSE,
)


class _Tok:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text, origin):
    line0, col0 = origin
    toks = []
    pos, line, col = 0, line0, col0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise SceneParseError(f"bad character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind != "ws":
            toks.append(_Tok(kind, chunk, line, col))
        nl = chunk.count("\n")
        if nl:
            line += nl
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    toks.append(_Tok("end", "", line, col))
    return toks


class _Parser:
    def __init__(self, toks, variables, params):
        self.toks = toks
        self.i = 0
        self.variables = list(variables)
        self.params = dict(params or {})

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op):
        t = self.next()
        if t.kind != "op" or t.text != op:
            raise SceneParseError(f"expected {op!r}, found {t.text or 'end of input'!r}",
                                  t.line, t.col)
        return t

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            node = Bin(op, node, self.unary())
        return node

    def unary(self):
        if self.peek().kind == "op" and self.peek().text == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        t = self.peek()
        if t.kind == "op" and t.text in ("^", "**"):
            self.next()
            node = Bin("**", node, self.unary())
        return node

    def atom(self):
        t = self.next()
        if t.kind == "num":
            value = float(t.text)
            if not math.isfinite(value):
                raise SceneParseError(f"number {t.text!r} overflows",
                                      t.line, t.col)
            return Const(value)
        if t.kind == "name":
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                return self.call(t)
            if t.text in self.variables:
                return Var(self.variables.index(t.text), t.text)
            if t.text in self.params:
                return Const(self.params[t.text])
            if t.text in CONSTANTS:
                return Const(CONSTANTS[t.text])
            if t.text in FUNCTIONS or t.text == "d":
                raise SceneParseError(f"function {t.text!r} used without arguments",
                                      t.line, t.col)
            raise SceneParseError(
                f"unknown name {t.text!r}; not a coordinate, parameter, or constant",
                t.line, t.col)
        if t.kind == "op" and t.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise SceneParseError(f"unexpected {t.text or 'end of input'!r}", t.line, t.col)

    def call(self, nametok):
        self.expect_op("(")
        args = [self.expr()]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.next()
            args.append(self.expr())
        self.expect_op(")")
        fn = nametok.text
        if fn == "d":
            if len(args) != 2:
                raise SceneParseError("d() takes exactly two arguments",
                                      nametok.line, nametok.col)
            if not isinstance(args[1], Var):
                raise SceneParseError("second argument of d() must be a coordinate",
                                      nametok.line, nametok.col)
            return deriv(args[0], args[1].index)
        if fn not in FUNCTIONS:
            raise SceneParseError(f"unknown function {fn!r}", nametok.line, nametok.col)
        if len(args) != 1:
            raise SceneParseError(f"{fn}() takes exactly one argument",
                                  nametok.line, nametok.col)
        return Call(fn, args)


def parse_expression(text: str,
                     variables: Sequence[str],
                     params: Mapping[str, float] | None = None,
                     origin: tuple[int, int] = (1, 1)) -> Node:
    """Parse an expression over the given coordinate names.

    Parameter names are substituted as constants at parse time. Errors
    carry positions relative to origin, so callers embedding expressions
    in larger files report file coordinates.
    """
    p = _Parser(_tokenize(text, origin), variables, params)
    node = p.expr()
    t = p.peek()
    if t.kind != "end":
        raise SceneParseError(f"trailing input starting at {t.text!r}", t.line, t.col)
    return node
