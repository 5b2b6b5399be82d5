"""Straight-line kernels traced from the ring-generic evaluators.

`Rec` is one more scalar ring. A Rec carries its value at the trace
point; every operation on it computes that value and appends one line
to the tape of its trace, and every comparison appends a guard that
re-checks the trace-point outcome. `run` runs a function once on
Recs and compiles the tape, as `expr.compile_node` compiles a tree,
into one plain Python function of floats. That kernel does the float
operations of the generic run on the same operands, so it computes the
same values, and returns None at the first guard that fails, that is
wherever the generic code would have taken another branch.

An operator method of Rec appends its line tuple to the tape itself,
from a template and a `binds` entry made once per operator and operand
shape, so a trace takes about twice as long as the same run on floats.

`run_rows` runs a kernel list over the rows of an array. The same tape
compiles a second time over numpy columns, to the kernel's array twin:
a failing guard marks its rows instead of returning. numpy rounds + -
* / as Python floats do, but not `exp`, `log` and `**` as libm does,
so a twin calls math functions and `math.pow` element by element
(`_each`): a row it serves gets the kernel's bits. `run` takes the rows
no twin serves, and those of a block where a twin raises a math error.
A kernel that rows make compiles to kernel and twin from its one
trace; only a kernel that a scalar call made is traced again, at its
trace point, for its twin. No kernel keeps its tape.

Operations with a Python number are folded away when they are exact
identities or structural zeros, as the table `_FOLDS` lists them. The
zero seed tangents of the jets vanish this way, which is where most of
the speed comes from. Values agree with the generic run except in the
sign of a zero and where a fold meets an operand that is not finite:
`x * 0` folds to 0.0 where the generic run gives NaN because x is ±inf
or NaN, and `0 / x` folds to 0.0 where it gives NaN because x is NaN
(or raises because x is 0). The negation of a recorded negation is
its operand, which has the same bits.

A value used once is written into the line that uses it, in
parentheses only where Python's precedence needs them (`_BINDS`): the
left operand of + - * / that binds more loosely than the operator, the
right one that binds as loosely or more, and the operand of a
negation that is a sum, difference, product or quotient; a power is
a call of `math.pow`. Parentheses the grammar does not need leave
nothing in the syntax tree, so the source parses to the tree, and
compiles to the bytecode, of the fully parenthesized text; the
parser, where `compile` spends most of its time, reads less.

A Rec refuses `bool`, `float` and `index`, so a branch on a value
that is not a recorded comparison cannot be baked into a kernel.
Every guard is one such comparison: `argmax` records its choice among
several values as the comparisons with the chosen one that decide it.
"""

from __future__ import annotations

import math
import operator
from itertools import repeat

import numpy as np

# ** is math.pow, which raises ValueError where float ** is complex
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "**": math.pow}

_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge, "==": operator.eq}

_NUMBER = (int, float)

# The folds: an operation with a Python number that is an exact identity
# or a structural zero records nothing. For each operator, the numbers
# that fold on the right (x op n) and on the left (n op x), and what the
# operation folds to: "x" is the Rec itself, "-x" its negation (a line
# of its own) and 0.0 the number 0.0.
_FOLDS = {
    "+": ({0: "x"}, {0: "x"}),
    "-": ({0: "x"}, {0: "-x"}),
    "*": ({0: 0.0, 1: "x"}, {0: 0.0, 1: "x"}),
    "/": ({1: "x"}, {0: 0.0}),
    "**": ({1: "x"}, {}),
}


def _operators(op):
    """The methods `x op y` and `n op x` of a Rec x: a number that
    _FOLDS lists folds, any other number or a Rec y records one line,
    and anything else is NotImplemented. Rec op Rec reaches only the
    first. A number goes into its line's template as its `_slot`
    text."""
    right, left = _FOLDS[op]
    fn = _BINARY[op]
    if op == "**":
        head, mid, tail, raises = "_pow(", ", ", ")", True
        bind_both = bind_x = bind_n = None
    else:
        head, mid, tail, raises = "", f" {op} ", "", False
        strength, need_a, need_b = _BINDS[op]
        bind_both, bind_x, bind_n = ((strength, [need_a, need_b]),
                                     (strength, [need_a]), (strength, [need_b]))
    both = head + "{}" + mid + "{}" + tail
    # a number divisor is not 0, or the trace would have raised
    divides = op == "/"

    def forward(self, other):
        if isinstance(other, Rec):
            value, template, bind = fn(self.v, other.v), both, bind_both
            names = [self.name, other.name]
            fails = other.name if divides else raises
        elif not isinstance(other, _NUMBER):
            return NotImplemented
        else:
            to = right.get(other)
            if to is not None:
                return self if to == "x" else -self if to == "-x" else to
            value = fn(self.v, other)
            template = head + "{}" + mid + _slot(other) + tail
            names, bind, fails = [self.name], bind_x, raises
        tape = self.tape
        name = f"t{len(tape.lines)}"
        tape.lines.append((name, template, names, fails))
        if bind is None:
            tape.functions["_pow"] = math.pow
        else:
            tape.binds[name] = bind
        return Rec(value, name, tape)

    def reflected(self, other):
        if not isinstance(other, _NUMBER):
            return NotImplemented
        to = left.get(other)
        if to is not None:
            return self if to == "x" else -self if to == "-x" else to
        value = fn(other, self.v)
        tape = self.tape
        name = f"t{len(tape.lines)}"
        tape.lines.append((name, head + _slot(other) + mid + "{}" + tail,
                           [self.name], self.name if divides else raises))
        if bind_n is None:
            tape.functions["_pow"] = math.pow
        else:
            tape.binds[name] = bind_n
        return Rec(value, name, tape)

    return forward, reflected


def _comparison(op):
    """The method `x op y` of a Rec x, recording a guard."""
    def compare(self, other):
        if not isinstance(other, (Rec, *_NUMBER)):
            return NotImplemented
        return self.tape.guard(self, op, other)
    return compare


def _slot(x) -> str:
    """A Rec's place in a line template, or the text of a number."""
    if isinstance(x, Rec):
        return "{}"
    r = repr(float(x))
    return f"({r})" if r[0] == "-" else r


def _value(x):
    return x.v if isinstance(x, Rec) else x


# An expression is nested at most this deep into the line that uses it.
_NEST = 16

# How tightly an operation binds in Python source, then how tightly each
# operand must bind to go in without parentheses: the left operand of
# + - * / as tightly as the operator, the right one tighter. A negation's
# line gets _NEG_BIND: its operand must bind as tightly as a negation.
_ATOM = 5
_BINDS = {"+": (1, 1, 2), "-": (1, 1, 2), "*": (2, 2, 3), "/": (2, 2, 3)}
_NEG_BIND = (3, [3])


class Tape:
    """The lines recorded by one trace, in execution order."""

    def __init__(self):
        # (target name, or None for a guard; template; operand names;
        #  raises: False, True, or for a division by a recorded value
        #  that value's name, since it raises where that value is 0)
        self.lines = []
        # the math functions the lines call, by their name in the kernel
        self.functions = {}
        # for a line of an operator of _BINDS: how tightly it binds, and
        # how tightly each of its operand names must bind
        self.binds = {}

    def emit(self, template, value, operands, raises=False) -> "Rec":
        name = f"t{len(self.lines)}"
        self.lines.append((name, template, _names(operands), raises))
        return Rec(value, name, self)

    def guard(self, a, op, b) -> bool:
        """`a op b` at the trace point, recorded as a guard: the kernel
        returns None where the comparison comes out otherwise."""
        outcome = bool(_COMPARE[op](_value(a), _value(b)))
        test = f"{_slot(a)} {op} {_slot(b)}"
        # {neg} is `not ` in a kernel and `~` in an array twin
        self.lines.append((None, f"{{neg}}({test})" if outcome else test,
                           _names((a, b)), True))
        return outcome

    def compile(self, nargs: int, outputs, rows: bool = False):
        """The kernel returning `outputs` (Recs or numbers) as a tuple.

        Lines that feed neither an output nor a guard are dropped, unless
        they can raise (a division by a recorded value, a power, a math
        function): where the generic code fails, the kernel fails too. A
        value used once is written into the expression that uses it
        instead of being stored, in parentheses only where `_BINDS` asks
        for them, which shrinks the source to parse; compiling the
        largest kernels is otherwise the largest transient allocation of
        a run.
        Values are only ever computed later than on the tape, never
        earlier, so every guard still runs before anything that the
        generic code computed only after its branch.

        With `rows`, the same lines compile to the array twin: a function
        of numpy columns returning (miss, outputs), where miss marks the
        rows at which a guard fails or a divisor is 0, and the kernel
        would return None or raise; its powers and math functions run
        element by element (`_each`).
        """
        results = _names(outputs)
        uses = {}   # reads of each live name; a raising line may have none
        for name in results:
            uses[name] = uses.get(name, 0) + 1
        kept = []
        for line in reversed(self.lines):
            if line[3] or line[0] in uses:
                kept.append(line)
                for name in line[2]:
                    uses[name] = uses.get(name, 0) + 1
                if rows and isinstance(line[3], str):
                    uses[line[3]] += 1      # a divisor the twin tests is stored
        kept.reverse()
        # name -> (expression, nesting, strength) awaiting its one use
        pending = {}
        neg = "~" if rows else "not "

        def fill(template, names, needs):
            parts, depth = [], 0
            for n, need in zip(names, needs):
                if n in pending:
                    text, k, strength = pending.pop(n)
                    parts.append(f"({text})" if strength < need else text)
                    depth = max(depth, k)
                else:
                    parts.append(n)
            return template.format(*parts, neg=neg), depth

        body = ["    _miss = False"] if rows else []
        atom = (_ATOM, repeat(0))
        for name, template, names, raises in kept:
            strength, needs = self.binds.get(name, atom)
            text, depth = fill(template, names, needs)
            if rows and isinstance(raises, str):
                body.append(f"    _miss |= {raises} == 0.0")
            if name is None:
                body.append(f"    _miss |= {text}" if rows
                            else f"    if {text}: return None")
            elif uses.get(name, 0) == 1 and depth < _NEST:
                pending[name] = (text, depth + 1, strength)
            else:
                body.append(f"    {name} = {text}")
        ret, _ = fill("".join(_slot(o) + ", " for o in outputs), results,
                      atom[1])
        if rows:
            ret = f"_miss, ({ret})"
        args = ", ".join(f"x{i}" for i in range(nargs))
        src = "\n".join([f"def _k({args}):", *body, f"    return ({ret})\n"])
        ns = dict({n: _each(f) for n, f in self.functions.items()}
                  if rows else self.functions, inf=math.inf, nan=math.nan)
        exec(compile(src, "<charfol kernel>", "exec"), ns)
        return ns["_k"]


def _names(operands) -> list:
    return [x.name for x in operands if isinstance(x, Rec)]


class Rec:
    """A recording scalar: its value at the trace point, the kernel
    variable that holds it, the tape of its trace, and for a recorded
    negation the Rec it negates."""

    __slots__ = ("v", "name", "tape", "negates")

    # numpy must hand `float64 op Rec` to the reflected Rec operator.
    __array_ufunc__ = None

    def __init__(self, v, name, tape):
        self.v = v
        self.name = name
        self.tape = tape
        self.negates = None

    def __repr__(self):
        return f"Rec({self.v!r}, {self.name!r})"

    __add__, __radd__ = _operators("+")
    __sub__, __rsub__ = _operators("-")
    __mul__, __rmul__ = _operators("*")
    __truediv__, __rtruediv__ = _operators("/")
    __pow__, __rpow__ = _operators("**")

    def __neg__(self):
        if self.negates is not None:    # -(-x) has x's bits, NaN included
            return self.negates
        tape = self.tape
        name = f"t{len(tape.lines)}"
        tape.lines.append((name, "-{}", [self.name], False))
        tape.binds[name] = _NEG_BIND
        out = Rec(-self.v, name, tape)
        out.negates = self
        return out

    def __abs__(self):
        return self.tape.emit("abs({})", abs(self.v), (self,))

    def apply(self, fn: str) -> "Rec":
        """The math function `fn` (a row of the jets ring table)."""
        f = self.tape.functions["_" + fn] = getattr(math, fn)
        return self.tape.emit(f"_{fn}({{}})", f(self.v), (self,), raises=True)

    # comparisons become guards (in the order of _COMPARE)
    __lt__, __le__, __gt__, __ge__, __eq__ = map(_comparison, _COMPARE)
    __hash__ = None

    def _hidden_branch(self, *_):
        raise TypeError("a recording scalar has no concrete value; "
                        "branch only through comparisons")

    __bool__ = __float__ = __index__ = __int__ = _hidden_branch


def _argmax(*values) -> int:
    # the first of the largest, as max picks it; index finds the NaN that
    # max returns through its identity test
    return values.index(max(values))


def _each(f):
    """f over numpy columns one element at a time, with f's bits and
    errors; a number (a power's constant) stands for every element."""
    def over(*args):
        n = max(map(np.size, args))
        return np.fromiter(map(f, *[a.tolist() if np.ndim(a) else repeat(a)
                                    for a in args]), float, n)
    return over


def argmax(keys) -> int:
    """The index p that max() picks from `keys`: the first of the largest.

    On recording scalars the choice becomes the comparisons with
    top = keys[p] that decide it, each a guard: keys[0] < top when
    p > 0, keys[i] >= top for 0 < i < p, and keys[i] > top for i > p.
    Their outcomes repeat exactly where max() picks p again, with ties,
    signed zeros, infinities and NaN (max() keeps a NaN first key and
    passes over a later one). max() itself would record its running
    comparisons, whose outcomes differ between points with the same
    answer (up to 2^(len - 1) patterns), and every pattern would cost a
    kernel of its own.
    """
    p = _argmax(*map(_value, keys))
    top = keys[p]
    # a comparison with a recording scalar records its guard
    if p:
        keys[0] < top
    for k in keys[1:p]:
        k >= top
    for k in keys[p + 1:]:
        k > top
    return p


def _trace(fn, args):
    """The tape of fn run once on recording scalars valued at args, and
    fn's outputs."""
    tape = Tape()
    outputs = fn([Rec(v, f"x{i}", tape) for i, v in enumerate(args)])
    return tape, list(outputs)


def run(kernels: list, fn, args, twin: bool = False):
    """fn(args) for a list of floats, through the first of `kernels`
    whose guards hold at args.

    When none does, fn runs once on recording scalars valued at args
    and the tape becomes a new kernel at the front of the list; a point
    where fn raises raises the same error from that run. The list ends
    up with one kernel per outcome of fn's comparisons (for `char_data`,
    one per pivot). Its owner keeps it, and nothing in it refers back to
    the owner, so the kernels go when the owner does. Each kernel keeps
    its trace point but not its tape. With `twin`, as `run_rows` asks,
    the same tape also compiles to the kernel's array twin.
    """
    for i, k in enumerate(kernels):
        out = k(*args)
        if out is not None:
            if i:
                kernels.insert(0, kernels.pop(i))
            return out
    tape, outputs = _trace(fn, args)
    k = tape.compile(len(args), outputs)
    k.at = tuple(args)
    if twin:
        k.twin = tape.compile(len(args), outputs, rows=True)
    kernels.insert(0, k)
    return k(*args)


# Rows go through the array twins this many at a time, which bounds the
# memory that the twins' intermediate columns take: 128 KiB a column, so
# about 4 MiB for the 32 stored columns of the largest grid twin (the
# n = 2 shell's value kernel). A 24^3 grid projects in one block a step.
BLOCK = 16384


def _twin(k, fn):
    """The array twin of kernel k. A kernel that `run` made without its
    twin (a scalar call made it) gets one compiled from a new trace at
    its trace point, which repeats its tape."""
    if not hasattr(k, "twin"):
        tape, outputs = _trace(fn, k.at)
        k.twin = tape.compile(len(k.at), outputs, rows=True)
    return k.twin


def run_rows(kernels: list, fn, x, width: int) -> np.ndarray:
    """The (m, width) array whose rows are `run(kernels, fn, row)` for
    the rows of the (m, d) float array `x`, bit for bit.

    A block of rows at a time runs through the twins of `kernels`. A
    twin serves a row where its guards hold, no divisor is 0 and the
    outputs are finite (of two NaN operands, numpy and Python floats may
    keep different ones), unless it raises a math error in the block;
    the guards of at most one kernel hold at a point. A row that no twin
    serves goes through `run` on its own, which traces the kernel it
    lacks, with its twin from the same tape, or raises what the generic
    code raises there; that twin then serves the rows still waiting.
    """
    out = np.empty((len(x), width))
    for start in range(0, len(x), BLOCK):
        _run_block(kernels, fn, x[start:start + BLOCK],
                   out[start:start + BLOCK])
    return out


def _run_block(kernels, fn, x, out) -> None:
    if not kernels:
        run(kernels, fn, x[0].tolist(), twin=True)  # the first twin's kernel
    cols = np.ascontiguousarray(x.T)
    wait = slice(None)      # the rows not yet served; at first all, unindexed
    fresh = list(kernels)               # the kernels whose twins have not run
    while True:
        for k in fresh:
            wait = _serve(_twin(k, fn), cols, out, wait)
            if not len(wait):
                return
        count = len(kernels)
        i, wait = wait[0], wait[1:]
        out[i] = run(kernels, fn, x[i].tolist(), twin=True)
        if not len(wait):
            return
        fresh = kernels[:len(kernels) - count]      # what that run traced


def _serve(twin, cols, out, wait):
    """Write the rows `wait` of the block (a slice or indices) that
    `twin` serves into `out`; return the indices of those it leaves."""
    rows = np.arange(len(out))[wait]
    try:
        with np.errstate(all="ignore"):
            miss, values = twin(*cols[:, wait])
    except (ArithmeticError, ValueError):
        return rows
    for j, v in enumerate(values):
        out[wait, j] = v                # rows left are written again later
    return rows[miss | ~np.isfinite(out[wait]).all(axis=1)]
