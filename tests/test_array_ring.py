"""Numpy arrays as a ring: one tree evaluation over a whole batch of points.

An array evaluation of value_and_grad must agree with evaluating the
same compiled tree point by point over floats. Trees built from
+ - * / and squares agree bit for bit: numpy's elementwise arithmetic is
the same IEEE arithmetic, and the jet power rule reduces x ** 2 to
products. Where numpy's sin, cos, exp, log or power replace the math
module's (the two libraries implement them separately), each result
agrees within 4 ulp; such calls are drawn at the root of an exact
subtree, since an inexact argument inside a longer expression can be
amplified by any amount.
"""

import math
import operator
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charfol import jets, kernel, mori
from charfol.exterior import Chart, _fn
from charfol.expr import FUNCTIONS
from charfol.jets import Jet
from charfol.scenefile import load_scene

CHART = Chart(("x", "y"))
X, Y = CHART.vars()

BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv}

leaves = st.one_of(
    st.sampled_from([X, Y]),
    st.floats(-4.0, 4.0, allow_nan=False).map(CHART.constant))


def _grow(kids):
    return st.one_of(
        st.builds(lambda op, a, b: BINOPS[op](a, b),
                  st.sampled_from(sorted(BINOPS)), kids, kids),
        kids.map(operator.neg),
        kids.map(lambda f: f ** 2))


exact_trees = st.recursive(leaves, _grow, max_leaves=8)

ring_trees = st.one_of(
    st.builds(_fn, st.sampled_from(["sin", "cos", "exp", "log"]), exact_trees),
    st.builds(operator.pow, exact_trees, st.sampled_from([-1.0, 0.5, 1.5, 3.0])))

coords = st.floats(-3.0, 3.0, allow_nan=False)
point_lists = st.lists(st.tuples(coords, coords), min_size=1, max_size=12)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


def pointwise(f, pts):
    """Per-point float evaluation; ok marks points with finite real results."""
    dim = f.chart.dim
    vals, grads, ok = [], [], []
    for p in pts:
        try:
            v, g = f.value_and_grad(p)
            v, g = float(v), [float(c) for c in g]
        except (ArithmeticError, ValueError, TypeError):
            v, g = 0.0, [0.0] * dim      # a float raised or went complex
            ok.append(False)
        else:
            ok.append(all(math.isfinite(c) for c in [v, *g]))
        vals.append(v)
        grads.append(g)
    return np.array(vals), np.array(grads).T, np.array(ok)


def arraywise(f, pts):
    """One evaluation on coordinate arrays; scalar results are broadcast.

    Returns None where a constant subtree fails (a division by zero, a
    logarithm of a non-positive number, a complex power): that part is
    plain float arithmetic, so it fails exactly as at every single point.
    """
    cols = list(np.array(pts, dtype=float).T)
    try:
        with np.errstate(all="ignore"):
            v, g = f.value_and_grad(cols)
    except (ArithmeticError, ValueError, TypeError):
        return None
    if any(np.iscomplexobj(c) for c in (v, *g)):
        return None
    shape = cols[0].shape
    return (np.broadcast_to(v, shape),
            np.array([np.broadcast_to(c, shape) for c in g]))


def both(f, pts):
    """(array, pointwise) pairs of values and of gradients at the points
    where the pointwise evaluation is finite and real."""
    pv, pg, ok = pointwise(f, pts)
    arr = arraywise(f, pts)
    if arr is None:
        assert not ok.any()
        return (pv, pv), (pg, pg)
    av, ag = arr
    return (av[ok], pv[ok]), (ag[:, ok], pg[:, ok])


@PROPERTY
@given(exact_trees, point_lists)
def test_exact_trees_match_pointwise_bit_for_bit(f, pts):
    vals, grads = both(f, pts)
    np.testing.assert_array_equal(*vals)
    np.testing.assert_array_equal(*grads)


@PROPERTY
@given(ring_trees, point_lists)
def test_ring_functions_match_pointwise_within_4_ulp(f, pts):
    vals, grads = both(f, pts)
    np.testing.assert_array_max_ulp(*vals, maxulp=4)
    np.testing.assert_array_max_ulp(*grads, maxulp=4)


def _bundled_fields():
    """(label, scene, F and alpha components) for every bundled scene
    that carries a hypersurface; the Mori family in both charts."""
    out = []
    for path in sorted((resources.files("charfol") / "scenes").iterdir()):
        doc = load_scene(str(path))
        if doc.kind == "field":
            out.append((doc.name, doc.scene, doc.surface))
        elif doc.kind == "family":
            sh = mori.mori_scene(doc.family["n"], doc.family["eps"])
            out.append((sh.polar.name, sh.polar, sh.surface_polar))
            out.append((sh.cartesian.name, sh.cartesian, sh.surface_cartesian))
    return [pytest.param(sc, [surf.F, *sc.alpha.comps.values()], id=label)
            for label, sc, surf in out]


@pytest.mark.parametrize("scene,trees", _bundled_fields())
def test_bundled_scene_trees_match_pointwise(scene, trees):
    pts = scene.sample_points(np.random.default_rng(1), 200)
    for f in trees:
        pv, pg, ok = pointwise(f, pts)
        av, ag = arraywise(f, pts)
        assert ok.all()
        np.testing.assert_array_equal(av, pv)
        np.testing.assert_array_equal(ag, pg)


def test_constant_trees_broadcast():
    xs = np.linspace(-1.0, 1.0, 7)
    for f in (CHART.constant(2.5), X - X + 2.5):
        av, ag = arraywise(f, list(zip(xs, xs)))
        assert av.shape == (7,) and ag.shape == (2, 7)
        assert (av == 2.5).all() and (ag == 0.0).all()


# Each function's jet rule as the float operations it must perform: the
# tangent a of the argument f with value v = fn(f) becomes rule(f, v, a).
JET_RULES = {
    "sin": lambda f, v, a: math.cos(f) * a,
    "cos": lambda f, v, a: -math.sin(f) * a,
    "tan": lambda f, v, a: (1.0 + v * v) * a,
    "exp": lambda f, v, a: v * a,
    "log": lambda f, v, a: a / f,
    "sqrt": lambda f, v, a: a / (2.0 * v),
    "tanh": lambda f, v, a: (1.0 - v * v) * a,
    "atan": lambda f, v, a: (1.0 / (1.0 + f * f)) * a,
}


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_ring_functions_return_arrays_for_arrays(name):
    """Every ring, bit for bit: numpy for arrays, the jet rule for jets,
    math in kernels, traced from plain and from jet arguments."""
    x = np.array([0.5])
    out = FUNCTIONS[name](x)
    assert isinstance(out, np.ndarray) and out.shape == (1,)
    assert out[0] == getattr(np, "arctan" if name == "atan" else name)(0.5)

    # at this point and these tangents, a / d and a * (1 / d) differ
    fn, rule, x, g = FUNCTIONS[name], JET_RULES[name], 1.3, (0.3, -1.7, 2.9)
    v = getattr(math, name)(x)
    want = (v, *(rule(x, v, a) for a in g))
    j = fn(Jet(x, g))
    assert (j.f, *j.g) == want
    assert kernel.run([], lambda xs: (fn(xs[0]),), [x]) == (v,)

    def traced(xs):
        out = fn(Jet(xs[0], g))
        return (out.f, *out.g)
    assert kernel.run([], traced, [x]) == want


@pytest.mark.parametrize("left", [np.float64(1.5), np.array([1.5, 0.5])],
                         ids=["float64", "ndarray"])
def test_numpy_left_operand_defers_to_jet(left):
    j = Jet(np.array([2.0, 3.0]), (np.array([1.0, 1.0]),))
    for op in (operator.add, operator.sub, operator.mul, operator.truediv,
               operator.pow):
        out = op(left, j)
        assert isinstance(out, Jet)
        np.testing.assert_array_equal(out.f, op(left, j.f))


def test_seed_keeps_arrays_and_coerces_scalars():
    xs = np.array([0.25, 0.5])
    a, b = jets.seed([xs, 3])
    assert a.f is xs and type(b.f) is float and b.f == 3.0
    assert a.g == (1.0, 0.0) and b.g == (0.0, 1.0)
