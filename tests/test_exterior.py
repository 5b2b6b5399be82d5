"""Exterior algebra identities at random points, dims 3 to 7."""

from itertools import combinations

import numpy as np
import pytest

from charfol.errors import ChartMismatchError, DegenerateVolumeError
from charfol.exterior import (AltArray, Chart, KForm, merge_ordered, ring_det,
                              solve_top_contraction)
from charfol.jets import fval

ALG_TOL = 1e-12


def make_chart(dim):
    return Chart([f"x{i}" for i in range(dim)])


def random_scalar_text(rng, dim, terms=3):
    bits = []
    for _ in range(terms):
        kind = int(rng.integers(0, 3))
        i, j = int(rng.integers(0, dim)), int(rng.integers(0, dim))
        c = repr(float(rng.normal()))
        if kind == 0:
            bits.append(f"({c})*x{i}*x{j}")
        elif kind == 1:
            bits.append(f"({c})*sin(x{i})*x{j}")
        else:
            bits.append(f"({c})*exp(0.3*x{i})")
    return " + ".join(bits)


def random_form(chart, deg, rng, nterms=4):
    idx = list(combinations(range(chart.dim), deg))
    comps = {}
    for _ in range(nterms):
        I = idx[int(rng.integers(0, len(idx)))]
        if I not in comps:
            comps[I] = chart.parse(random_scalar_text(rng, chart.dim))
    return KForm(chart, deg, comps)


# The algebra below only the tests use. The interior product is the
# reference that the Leibniz rules and solve_top_contraction are checked
# against.

def iprod(w, vec):
    """The interior product i_vec w of an AltArray or a KForm."""
    comps = {}
    for I, a in w.comps.items():
        for p, i in enumerate(I):
            J = I[:p] + I[p + 1:]
            term = a * vec[i] if p % 2 == 0 else -(a * vec[i])
            comps[J] = comps[J] + term if J in comps else term
    return w._like(w.deg - 1, comps)


def neg(w):
    return w._like(w.deg, {I: -a for I, a in w.comps.items()})


def max_abs(w):
    return max((abs(fval(a)) for a in w.comps.values()), default=0.0)


def resid(a: AltArray, b: AltArray):
    return max_abs(a + neg(b)) / (1.0 + max_abs(a) + max_abs(b))


@pytest.mark.parametrize("dim", [3, 5, 7])
def test_d_squared_is_zero(dim):
    rng = np.random.default_rng(100 + dim)
    ch = make_chart(dim)
    for deg in (0, 1, 2):
        if deg == 0:
            w = KForm(ch, 0, {(): ch.parse(random_scalar_text(rng, dim))})
        else:
            w = random_form(ch, deg, rng)
        dd = w.d().d()
        for _ in range(10):
            p = rng.uniform(-1.0, 1.0, dim)
            assert max_abs(dd.at(p)) < ALG_TOL


@pytest.mark.parametrize("dim", [3, 5, 7])
def test_leibniz_rule(dim):
    rng = np.random.default_rng(200 + dim)
    ch = make_chart(dim)
    for ka, kb in [(1, 1), (1, 2), (2, 1)]:
        a, b = random_form(ch, ka, rng), random_form(ch, kb, rng)
        lhs = a.wedge(b).d()
        rhs = a.d().wedge(b) + (a.wedge(b.d()) * (-1.0 if ka % 2 else 1.0))
        for _ in range(10):
            p = rng.uniform(-1.0, 1.0, dim)
            assert resid(lhs.at(p), rhs.at(p)) < ALG_TOL


@pytest.mark.parametrize("dim", [3, 5, 7])
def test_wedge_graded_commutative_and_associative(dim):
    rng = np.random.default_rng(300 + dim)
    ch = make_chart(dim)
    a, b = random_form(ch, 1, rng), random_form(ch, 2, rng)
    ab, ba = a.wedge(b), b.wedge(a)  # odd*even commute: sign (-1)^(1*2) = +1
    c = random_form(ch, 1, rng)
    assoc_l, assoc_r = a.wedge(b).wedge(c), a.wedge(b.wedge(c))
    for _ in range(10):
        p = rng.uniform(-1.0, 1.0, dim)
        assert resid(ab.at(p), ba.at(p)) < ALG_TOL
        assert resid(assoc_l.at(p), assoc_r.at(p)) < ALG_TOL


@pytest.mark.parametrize("dim", [3, 5, 7])
def test_one_forms_anticommute(dim):
    rng = np.random.default_rng(400 + dim)
    ch = make_chart(dim)
    a, c = random_form(ch, 1, rng), random_form(ch, 1, rng)
    lhs, rhs = a.wedge(c), c.wedge(a) * (-1.0)
    for _ in range(10):
        p = rng.uniform(-1.0, 1.0, dim)
        assert resid(lhs.at(p), rhs.at(p)) < ALG_TOL


@pytest.mark.parametrize("dim", [3, 5, 7])
def test_interior_product_antiderivation(dim):
    rng = np.random.default_rng(500 + dim)
    ch = make_chart(dim)
    a, b = random_form(ch, 1, rng), random_form(ch, 2, rng)
    V = [ch.parse(random_scalar_text(rng, dim, terms=2)) for _ in range(dim)]
    lhs = iprod(a.wedge(b), V)
    a_V = iprod(a, V).comps.get((), ch.constant(0.0))
    rhs_form = (b * a_V) + (a.wedge(iprod(b, V)) * -1.0)
    for _ in range(10):
        p = rng.uniform(-1.0, 1.0, dim)
        assert resid(lhs.at(p), rhs_form.at(p)) < ALG_TOL


@pytest.mark.parametrize("dim", [3, 5, 7])
def test_double_contraction_vanishes(dim):
    rng = np.random.default_rng(600 + dim)
    ch = make_chart(dim)
    b = random_form(ch, 3, rng) if dim > 3 else random_form(ch, 2, rng)
    V = [ch.parse(random_scalar_text(rng, dim, terms=2)) for _ in range(dim)]
    w = iprod(iprod(b, V), V)
    for _ in range(10):
        p = rng.uniform(-1.0, 1.0, dim)
        assert max_abs(w.at(p)) < ALG_TOL


def test_on_frame_matches_direct_evaluation():
    rng = np.random.default_rng(7)
    ch = make_chart(5)
    w = random_form(ch, 2, rng)
    p = rng.uniform(-1.0, 1.0, 5)
    arr = w.at(p)
    v1, v2 = rng.normal(size=5), rng.normal(size=5)
    pulled = arr.on_frame([list(v1), list(v2)])
    direct = sum(arr.get((i, j)) * (v1[i] * v2[j] - v1[j] * v2[i])
                 for i in range(5) for j in range(i + 1, 5))
    assert abs(pulled.get((0, 1)) - direct) < 1e-12 * (1 + abs(direct))


def test_solve_top_contraction_round_trip():
    rng = np.random.default_rng(8)
    m = 4
    vol = AltArray(m, m, {tuple(range(m)): 2.7})
    X = list(rng.normal(size=m))
    eta = iprod(vol, X)
    back = solve_top_contraction(2.7, eta)
    assert np.allclose(back, X, atol=1e-14)
    with pytest.raises(DegenerateVolumeError):
        solve_top_contraction(0.0, eta)


def test_ring_det_matches_numpy():
    rng = np.random.default_rng(9)
    for n in (2, 3, 4, 5):
        m = rng.normal(size=(n, n))
        assert np.isclose(ring_det([list(r) for r in m]), np.linalg.det(m), rtol=1e-10)


def test_merge_sign_basics():
    assert merge_ordered((0,), (1,)) == (1, (0, 1))
    assert merge_ordered((1,), (0,)) == (-1, (0, 1))
    assert merge_ordered((0, 2), (1,)) == (-1, (0, 1, 2))
    assert merge_ordered((0, 1), (1,)) == (0, None)


def test_chart_mismatch_rejected():
    a = make_chart(3)
    b = Chart(["u", "v", "w"])
    with pytest.raises(ChartMismatchError):
        a.var("x0") + b.var("u")


def test_volume_and_components():
    ch = make_chart(3)
    vol = KForm(ch, 3, {(0, 1, 2): ch.constant(1.0)})
    p = [0.1, 0.2, 0.3]
    assert vol.at(p).get((0, 1, 2)) == 1.0
    x0 = ch.var("x0")
    w = KForm.one_form(ch, [x0 * 0.0, x0, ch.constant(2.0)])
    assert w.comps[(1,)](p) == pytest.approx(0.1)
    dw = w.d()
    assert dw.at(p).get((0, 1)) == 1.0
