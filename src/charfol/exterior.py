"""Charts, scalar fields, and exterior algebra.

An AltArray is an alternating array kept as a sparse dictionary from
strictly increasing index tuples to entries of any ring (floats, numpy
arrays of points, recording scalars, jets over these, nested jets); it
holds the wedge, the pullback to a frame and the sum. A KForm is an
AltArray whose entries are ScalarFields of one chart, and adds the
exterior derivative, which produces derivative nodes evaluated through
jets, so the usual identities hold to machine precision rather than to
a finite-difference error. Hot loops run the straight-line kernels of
`kernel`, which AltArray code traces once per pivot.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from itertools import combinations
from typing import Sequence

from . import expr
from .errors import ChartMismatchError, DegenerateVolumeError
from .expr import (Bin, Call, Const, Deriv, Neg, Node, Var, compile_node,
                   parse_expression)
from .jets import fval, seed, split
from .kernel import run, run_rows


class Chart:
    """An ordered list of coordinate names, some possibly circle-valued.

    `angular` is either an iterable of names (period 2*pi each) or a
    mapping name -> period for circles of other circumference.
    """

    __slots__ = ("names", "angular", "periods")

    def __init__(self, names: Sequence[str], angular=()):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate coordinate names")
        if isinstance(angular, Mapping):
            per = {str(k): float(v) for k, v in angular.items()}
        else:
            per = {str(k): 2.0 * math.pi for k in angular}
        for k, v in per.items():
            if not v > 0.0:
                raise ValueError(f"angular period for {k!r} must be positive")
        ang = tuple(a for a in self.names if a in per)
        missing = set(per) - set(self.names)
        if missing:
            raise ValueError(f"angular names not in chart: {sorted(missing)}")
        self.angular = ang
        self.periods = {k: per[k] for k in ang}

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no coordinate {name!r} in chart {self.names}") from None

    def var(self, name: str) -> "ScalarField":
        i = self.index(name)
        return ScalarField(self, expr.Var(i, name))

    def vars(self) -> tuple["ScalarField", ...]:
        return tuple(self.var(n) for n in self.names)

    def constant(self, c: float) -> "ScalarField":
        return ScalarField(self, Const(c))

    def parse(self, text: str, params: Mapping[str, float] | None = None,
              origin: tuple[int, int] = (1, 1)) -> "ScalarField":
        return ScalarField(self, parse_expression(text, self.names, params, origin))

    def __eq__(self, other):
        return (isinstance(other, Chart) and self.names == other.names
                and self.angular == other.angular and self.periods == other.periods)

    def __hash__(self):
        return hash((self.names, self.angular, tuple(sorted(self.periods.items()))))

    def __repr__(self):
        return f"Chart({self.names!r}, angular={self.periods!r})"


def _check_chart(a, b):
    if a != b:
        raise ChartMismatchError(f"charts differ: {a!r} vs {b!r}")


def _as_node(chart, x) -> Node:
    if isinstance(x, ScalarField):
        _check_chart(chart, x.chart)
        return x.node
    if isinstance(x, Node):
        return x
    return Const(float(x))


class ScalarField:
    """An expression tree bound to a chart, compiled on first use."""

    __slots__ = ("chart", "node", "_fn", "_kernels")

    def __init__(self, chart: Chart, node):
        self.chart = chart
        self.node = node if isinstance(node, Node) else Const(float(node))
        self._fn = None
        self._kernels = []      # traced kernels of _value_and_grad

    @property
    def fn(self):
        if self._fn is None:
            self._fn = compile_node(self.node, self.chart.dim)
        return self._fn

    def __call__(self, point):
        return self.fn(*point)

    def value_and_grad(self, point):
        """One jet sweep: value and all partials at a point of ring scalars."""
        return split(self.fn(*seed(point)), self.chart.dim)

    def _value_and_grad(self, point):
        v, g = self.value_and_grad(point)
        return (v, *g)

    def traced_value_and_grad(self, x: list) -> tuple:
        """`value_and_grad` at a list of Python floats, taken as it is,
        through the field's traced kernels: the value and the partials
        as one tuple of floats."""
        return run(self._kernels, self._value_and_grad, x)

    def value_and_grad_rows(self, x):
        """`traced_value_and_grad` at each row of an (m, d) float array,
        as an (m, d + 1) array, through its kernels' array twins."""
        return run_rows(self._kernels, self._value_and_grad, x,
                        self.chart.dim + 1)

    def d(self, which) -> "ScalarField":
        j = which if isinstance(which, int) else self.chart.index(which)
        return ScalarField(self.chart, expr.deriv(self.node, j))

    # arithmetic ------------------------------------------------------

    def _bin(self, op, other, flip=False):
        a, b = self.node, _as_node(self.chart, other)
        if flip:
            a, b = b, a
        return ScalarField(self.chart, Bin(op, a, b))

    def __add__(self, other):
        return self._bin("+", other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._bin("-", other)

    def __rsub__(self, other):
        return self._bin("-", other, flip=True)

    def __mul__(self, other):
        return self._bin("*", other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._bin("/", other)

    def __rtruediv__(self, other):
        return self._bin("/", other, flip=True)

    def __pow__(self, p):
        return ScalarField(self.chart, Bin("**", self.node, Const(float(p))))

    def __neg__(self):
        return ScalarField(self.chart, Neg(self.node))

    def __repr__(self):
        return f"<field {expr.to_text(self.node, self.chart.names)}>"


def _fn(name: str, f: ScalarField) -> ScalarField:
    """Apply the named ring function (a row of the table behind
    expr.FUNCTIONS, jets._RULES) to a field."""
    return ScalarField(f.chart, Call(name, [f.node]))


def _rebase(node, old: Chart, new: Chart):
    """Transplant an expression tree onto a chart that shares its names."""
    if isinstance(node, Var):
        return Var(new.index(node.name), node.name)
    if isinstance(node, Const):
        return node
    if isinstance(node, Bin):
        return Bin(node.op, _rebase(node.a, old, new), _rebase(node.b, old, new))
    if isinstance(node, Neg):
        return Neg(_rebase(node.a, old, new))
    if isinstance(node, Call):
        return Call(node.fn, [_rebase(a, old, new) for a in node.args])
    if isinstance(node, Deriv):
        return Deriv(_rebase(node.a, old, new),
                     new.index(old.names[node.index]))
    raise TypeError(f"cannot rebase node of type {type(node).__name__}")


# index combinatorics -------------------------------------------------

def merge_ordered(I, J):
    """Merge strictly increasing tuples; (sign, merged) with sign 0 on collision."""
    out = []
    i = j = 0
    sign = 1
    while i < len(I) and j < len(J):
        a, b = I[i], J[j]
        if a == b:
            return 0, None
        if a < b:
            out.append(a)
            i += 1
        else:
            out.append(b)
            j += 1
            if (len(I) - i) % 2:
                sign = -sign
    out.extend(I[i:])
    out.extend(J[j:])
    return sign, tuple(out)


def _insert_pos(I, j):
    p = 0
    while p < len(I) and I[p] < j:
        p += 1
    return p


def ring_det(m):
    """Determinant by minor expansion: division-free, any ring."""
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = None
    for c in range(n):
        a = m[0][c]
        if isinstance(a, (int, float)) and a == 0.0:
            continue
        minor = [row[:c] + row[c + 1:] for row in m[1:]]
        term = a * ring_det(minor)
        if c % 2:
            term = -term
        total = term if total is None else total + term
    return 0.0 if total is None else total


# numeric alternating arrays ------------------------------------------

class AltArray:
    """Antisymmetric degree-k array over an m-dimensional space.

    Entries live in whatever scalar ring the caller supplies; only
    increasing index tuples are stored.
    """

    __slots__ = ("dim", "deg", "comps")

    def __init__(self, dim, deg, comps=None):
        self.dim = dim
        self.deg = deg
        self.comps = dict(comps or {})

    def _like(self, deg, comps):
        """An array of the same kind and space with the given entries."""
        return AltArray(self.dim, deg, comps)

    def _check(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")

    def get(self, I):
        return self.comps.get(tuple(I), 0.0)

    def wedge(self, other):
        self._check(other)
        comps = {}
        for I, a in self.comps.items():
            for J, b in other.comps.items():
                s, K = merge_ordered(I, J)
                if s == 0:
                    continue
                term = a * b if s > 0 else -(a * b)
                comps[K] = comps[K] + term if K in comps else term
        return self._like(self.deg + other.deg, comps)

    def on_frame(self, vectors):
        """Pull back along the linear map sending basis vector a to vectors[a]."""
        m = len(vectors)
        out = {}
        for A in combinations(range(m), self.deg):
            total = None
            for I, a in self.comps.items():
                mat = [[vectors[c][r] for c in A] for r in I]
                term = a * ring_det(mat)
                total = term if total is None else total + term
            if total is not None:
                out[A] = total
        return AltArray(m, self.deg, out)

    def __add__(self, other):
        self._check(other)
        if self.deg != other.deg:
            raise ValueError("degree mismatch")
        comps = dict(self.comps)
        for I, b in other.comps.items():
            comps[I] = comps[I] + b if I in comps else b
        return self._like(self.deg, comps)


def solve_top_contraction(vol_coeff, eta: AltArray):
    """Solve i_X (vol) = eta for X, with vol the top form vol_coeff d0^...^d(m-1).

    eta has degree m-1 on an m-dimensional space. Contracting the first
    slot of the coordinate volume with e_b leaves sign (-1)^b on the
    complementary index tuple, so the solve is componentwise.
    """
    m = eta.dim
    if eta.deg != m - 1:
        raise ValueError("eta must have degree dim-1")
    if abs(fval(vol_coeff)) == 0.0:
        raise DegenerateVolumeError("volume coefficient vanishes")
    full = tuple(range(m))
    X = []
    for b in range(m):
        A = full[:b] + full[b + 1:]
        v = eta.get(A)
        term = v / vol_coeff
        if b % 2:
            term = -term
        X.append(term)
    return X


# symbolic forms -------------------------------------------------------

class KForm(AltArray):
    """Differential form: an AltArray whose entries are ScalarFields of
    one chart."""

    __slots__ = ("chart",)

    def __init__(self, chart: Chart, deg: int, comps: Mapping):
        clean = {}
        for I, f in comps.items():
            I = tuple(I)
            if list(I) != sorted(set(I)) or (I and (I[0] < 0 or I[-1] >= chart.dim)):
                raise ValueError(f"bad index tuple {I}")
            if len(I) != deg:
                raise ValueError(f"index tuple {I} does not match degree {deg}")
            fld = f if isinstance(f, ScalarField) else ScalarField(chart, f)
            _check_chart(chart, fld.chart)
            if not expr.is_zero(fld.node):
                clean[I] = fld
        super().__init__(chart.dim, deg, clean)
        self.chart = chart

    def _like(self, deg, comps):
        return KForm(self.chart, deg, comps)

    def _check(self, other):
        _check_chart(self.chart, other.chart)

    @classmethod
    def one_form(cls, chart: Chart, coeffs) -> "KForm":
        return cls(chart, 1, {(i,): c for i, c in enumerate(coeffs)})

    def d(self) -> "KForm":
        comps = {}
        for I, f in self.comps.items():
            for j in range(self.chart.dim):
                if j in I or not expr.uses_var(f.node, j):
                    continue
                p = _insert_pos(I, j)
                K = I[:p] + (j,) + I[p:]
                term = f.d(j) if p % 2 == 0 else -f.d(j)
                comps[K] = comps[K] + term if K in comps else term
        return KForm(self.chart, self.deg + 1, comps)

    def at(self, point) -> AltArray:
        return AltArray(self.chart.dim, self.deg,
                        {I: f(point) for I, f in self.comps.items()})

    def __mul__(self, c):
        return KForm(self.chart, self.deg,
                     {I: f * c for I, f in self.comps.items()})

    __rmul__ = __mul__

    def __repr__(self):
        names = self.chart.names
        if not self.comps:
            return "<0>"
        bits = []
        for I in sorted(self.comps):
            base = "^".join("d" + names[i] for i in I) or "1"
            bits.append(f"[{expr.to_text(self.comps[I].node, names)}] {base}")
        return " + ".join(bits)
