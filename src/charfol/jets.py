"""Forward-mode first-order jets.

A Jet carries a value and a fixed-width tuple of partial derivatives.
The arithmetic never inspects the scalar type of its parts, so a Jet
whose parts are themselves Jets propagates exact second derivatives,
and a Jet whose parts are numpy arrays carries a whole batch of points.
The rings are therefore floats, numpy float arrays, the recording
scalars of `kernel` (which turn one evaluation into a straight-line
kernel), jets over any of these, and nested jets. All differentiation
in the library goes through this module; there is no symbolic
differentiation and no finite differencing on hot paths.
"""

from __future__ import annotations

import math

import numpy as np

from .kernel import Rec


class Jet:
    __slots__ = ("f", "g")

    # numpy must hand `ndarray op Jet` to the reflected Jet operator
    # instead of building an object array around the Jet.
    __array_ufunc__ = None

    def __init__(self, f, g):
        self.f = f
        self.g = tuple(g)

    def __repr__(self):
        return f"Jet({self.f!r}, {self.g!r})"

    # ring operations ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.f + other.f,
                       tuple(a + b for a, b in zip(self.g, other.g, strict=True)))
        return Jet(self.f + other, self.g)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.f, tuple(-a for a in self.g))

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.f - other.f,
                       tuple(a - b for a, b in zip(self.g, other.g, strict=True)))
        return Jet(self.f - other, self.g)

    def __rsub__(self, other):
        return Jet(other - self.f, tuple(-a for a in self.g))

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(self.f * other.f,
                       tuple(a * other.f + self.f * b
                             for a, b in zip(self.g, other.g, strict=True)))
        return Jet(self.f * other, tuple(a * other for a in self.g))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            q = self.f / other.f
            return Jet(q, tuple((a - q * b) / other.f
                                for a, b in zip(self.g, other.g, strict=True)))
        return Jet(self.f / other, tuple(a / other for a in self.g))

    def __rtruediv__(self, other):
        q = other / self.f
        return Jet(q, tuple(-q * b / self.f for b in self.g))

    def __pow__(self, p):
        if isinstance(p, Jet):
            return exp(p * log(self))
        if p == 0:
            return Jet(1.0, tuple(0.0 * a for a in self.g))
        if p == 1:
            return self
        base = self.f ** (p - 1)
        return Jet(base * self.f, tuple((p * base) * a for a in self.g))

    def __rpow__(self, c):
        # c ** jet, c a positive constant
        v = c ** self.f
        lc = log(c)
        return Jet(v, tuple(v * lc * a for a in self.g))


def fval(x):
    """Strip all jet structure, returning the underlying plain scalar."""
    while isinstance(x, Jet):
        x = x.f
    return x


_KEPT = (Jet, np.ndarray, Rec)


def seed(values):
    """Lift a point to jets carrying identity gradients.

    Plain scalars are coerced to float; Jet, array and recording
    entries are kept as-is, so seeding twice produces the nesting used
    for second derivatives, seeding coordinate arrays evaluates a batch
    and seeding recording scalars traces a kernel.
    """
    vals = [v if isinstance(v, _KEPT) else float(v) for v in values]
    n = len(vals)
    return [Jet(v, tuple(1.0 if j == i else 0.0 for j in range(n)))
            for i, v in enumerate(vals)]


# ring functions ----------------------------------------------------
# Each dispatches on Jet, then on ndarray (numpy), then on the recording
# scalar, and otherwise defers to math, so compiled expressions evaluate
# over floats, arrays, recording scalars, jets, and nested jets. The
# ndarray test must come before math: math.sin of a one-element array
# silently returns a float.

def sin(x):
    if isinstance(x, Jet):
        c = cos(x.f)
        return Jet(sin(x.f), tuple(c * a for a in x.g))
    if isinstance(x, np.ndarray):
        return np.sin(x)
    if isinstance(x, Rec):
        return x.apply("sin")
    return math.sin(x)


def cos(x):
    if isinstance(x, Jet):
        s = sin(x.f)
        return Jet(cos(x.f), tuple(-s * a for a in x.g))
    if isinstance(x, np.ndarray):
        return np.cos(x)
    if isinstance(x, Rec):
        return x.apply("cos")
    return math.cos(x)


def tan(x):
    if isinstance(x, Jet):
        t = tan(x.f)
        d = 1.0 + t * t
        return Jet(t, tuple(d * a for a in x.g))
    if isinstance(x, np.ndarray):
        return np.tan(x)
    if isinstance(x, Rec):
        return x.apply("tan")
    return math.tan(x)


def exp(x):
    if isinstance(x, Jet):
        v = exp(x.f)
        return Jet(v, tuple(v * a for a in x.g))
    if isinstance(x, np.ndarray):
        return np.exp(x)
    if isinstance(x, Rec):
        return x.apply("exp")
    return math.exp(x)


def log(x):
    if isinstance(x, Jet):
        return Jet(log(x.f), tuple(a / x.f for a in x.g))
    if isinstance(x, np.ndarray):
        return np.log(x)
    if isinstance(x, Rec):
        return x.apply("log")
    return math.log(x)


def sqrt(x):
    if isinstance(x, Jet):
        v = sqrt(x.f)
        return Jet(v, tuple(a / (2.0 * v) for a in x.g))
    if isinstance(x, np.ndarray):
        return np.sqrt(x)
    if isinstance(x, Rec):
        return x.apply("sqrt")
    return math.sqrt(x)


def tanh(x):
    if isinstance(x, Jet):
        t = tanh(x.f)
        d = 1.0 - t * t
        return Jet(t, tuple(d * a for a in x.g))
    if isinstance(x, np.ndarray):
        return np.tanh(x)
    if isinstance(x, Rec):
        return x.apply("tanh")
    return math.tanh(x)


def atan(x):
    if isinstance(x, Jet):
        d = 1.0 / (1.0 + x.f * x.f)
        return Jet(atan(x.f), tuple(d * a for a in x.g))
    if isinstance(x, np.ndarray):
        return np.arctan(x)
    if isinstance(x, Rec):
        return x.apply("atan")
    return math.atan(x)
