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
The array ring serves what keeps numpy's rounding of its functions:
`ContactScene.verify_contact`, `certify`'s collar profile and
`mori._column_profile_data`; other rows run on the kernels' twins.
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
        # g is a tuple, which every caller builds
        self.f = f
        self.g = g

    def __repr__(self):
        return f"Jet({self.f!r}, {self.g!r})"

    # ring operations ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.f + other.f,
                       tuple([a + b for a, b in zip(self.g, other.g, strict=True)]))
        return Jet(self.f + other, self.g)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.f, tuple([-a for a in self.g]))

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.f - other.f,
                       tuple([a - b for a, b in zip(self.g, other.g, strict=True)]))
        return Jet(self.f - other, self.g)

    def __rsub__(self, other):
        return Jet(other - self.f, tuple([-a for a in self.g]))

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(self.f * other.f,
                       tuple([a * other.f + self.f * b
                              for a, b in zip(self.g, other.g, strict=True)]))
        return Jet(self.f * other, tuple([a * other for a in self.g]))

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
        base = power(self.f, p - 1)
        return Jet(base * self.f, tuple((p * base) * a for a in self.g))

    def __rpow__(self, c):
        # c ** jet, c a positive constant
        v = power(c, self.f)
        lc = log(c)
        return Jet(v, tuple(v * lc * a for a in self.g))


def split(x, width: int):
    """(value, tangent) of x at one jet level; anything but a Jet is a
    constant there, with a zero tangent of the given width."""
    if isinstance(x, Jet):
        return x.f, x.g
    return x, (0.0,) * width


def fval(x):
    """Strip all jet structure, returning the underlying plain scalar."""
    while isinstance(x, Jet):
        x = x.f
    return x


_KEPT = (Jet, np.ndarray, Rec)


def power(a, b):
    """a ** b over every ring; math.pow on anything else, which raises
    ValueError where float ** returns a complex number."""
    if isinstance(a, _KEPT) or isinstance(b, _KEPT):
        return a ** b
    return math.pow(a, b)


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
# One row per function: its numpy ufunc and its jet rule. The rule
# gives the derivative factor d from the argument f and the value v;
# the tangents are multiplied by d, or divided by it where the last
# entry says so.

_RULES = (
    ("sin", np.sin, lambda f, v: cos(f), False),
    ("cos", np.cos, lambda f, v: -sin(f), False),
    ("tan", np.tan, lambda f, v: 1.0 + v * v, False),
    ("exp", np.exp, lambda f, v: v, False),
    ("log", np.log, lambda f, v: f, True),
    ("sqrt", np.sqrt, lambda f, v: 2.0 * v, True),
    ("tanh", np.tanh, lambda f, v: 1.0 - v * v, False),
    ("atan", np.arctan, lambda f, v: 1.0 / (1.0 + f * f), False),
)


def _ring_function(name, ufunc, rule, divides):
    """The function `name` over every ring: a Jet goes through the rule,
    an ndarray to numpy, a recording scalar onto its tape, anything else
    to math. The ndarray test must come before math: math.sin of a
    one-element array silently returns a float."""
    mathfn = getattr(math, name)

    def fn(x):
        if isinstance(x, Jet):
            f = x.f
            v = fn(f)
            d = rule(f, v)
            if divides:
                return Jet(v, tuple(a / d for a in x.g))
            return Jet(v, tuple(d * a for a in x.g))
        if isinstance(x, np.ndarray):
            return ufunc(x)
        if isinstance(x, Rec):
            return x.apply(name)
        return mathfn(x)

    fn.__name__ = fn.__qualname__ = name
    return fn


FUNCTIONS = {row[0]: _ring_function(*row) for row in _RULES}

# jets.sin, jets.cos, ... are the table's functions.
globals().update(FUNCTIONS)
