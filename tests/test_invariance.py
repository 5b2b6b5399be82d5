"""Structural invariances of the solved foliation.

Five families: conformal rescaling of the contact form, volume-form
rescaling of the defining identity, angular equivariance on the
rotation-symmetric shell, time reversal, and the choice of pivot in the
tangent frame. Each is checked through the public classification
surface or `char_data`, with exact transformation laws where they exist
(a conformal factor g multiplies the direction by g^n; a volume factor
h divides it by h).
"""

import functools
import math
from importlib import resources

import numpy as np
import pytest

from charfol import contact, mori, policy
from charfol.certify import check_morse_smale
from charfol.contact import ContactScene, FoliationField, Hypersurface
from charfol.dynamics import classify_zero, find_zeros
from charfol.exterior import Chart, KForm
from charfol.jets import fval
from charfol.scenefile import load_scene, parse_scene
from test_generated_scenes import SCENES


class RescaledField:
    """h times a foliation field, with the matching Jacobian and divergence.

    Multiplying the reference volume by 1/h rescales the solved field
    by h; this wrapper is that transformation applied directly, so the
    classification layer can be run on both sides.
    """

    def __init__(self, base, h, grad_h=None):
        self.base = base
        self.scene = base.scene
        self.surface = base.surface
        self.h = h
        self.grad_h = grad_h

    def vector(self, p):
        return self.h(p) * self.base.vector(p)

    def vector_and_jacobian(self, p):
        return self.flow_data(p)[:2]

    def flow_data(self, p):
        X, J, div = self.base.flow_data(p)
        h = self.h(p)
        J, div = h * J, h * div
        if self.grad_h is not None:
            J = J + np.outer(X, self.grad_h(p))
            div += float(np.dot(self.grad_h(p), X))
        return h * X, J, div


def sphere_setup():
    ch = Chart(("x", "y", "z"))
    x_, y_ = ch.var("x"), ch.var("y")
    alpha = KForm.one_form(ch, [-y_, x_, ch.constant(1.0)])
    scene = ContactScene(alpha, name="sphere",
                         domain={n: (-1.3, 1.3) for n in ch.names})
    surf = Hypersurface(x_ * x_ + y_ * y_ + ch.var("z") * ch.var("z") - 1.0)
    return ch, scene, surf


def surface_samples(scene, surf, rng, count):
    pts = []
    while len(pts) < count:
        for q in scene.sample_points(rng, count):
            try:
                p = surf.project(q)
            except Exception:
                continue
            if scene.in_domain(p):
                pts.append(p)
            if len(pts) == count:
                break
    return pts


# conformal invariance ----------------------------------------------------

def conformal_deviation(scene, surf, g, n, points):
    """Worst direction deviation and factor error for alpha -> g alpha."""
    scaled = ContactScene(scene.alpha * g, name="scaled",
                          domain=dict(scene.domain))
    f1 = FoliationField(scene, surf)
    f2 = FoliationField(scaled, surf)
    worst_dir = worst_fac = 0.0
    for p in points:
        X1, X2 = f1.vector(p), f2.vector(p)
        c = float(np.dot(X2, X1) / np.dot(X1, X1))
        assert c > 0.0
        worst_dir = max(worst_dir, float(np.linalg.norm(X2 - c * X1)
                                         / np.linalg.norm(X2)))
        gv = float(g(list(p))) ** n
        worst_fac = max(worst_fac, abs(c - gv) / gv)
    return worst_dir, worst_fac


def test_conformal_invariance_on_sphere():
    ch, scene, surf = sphere_setup()
    g = 1.5 + 0.3 * ch.var("x") - 0.2 * ch.var("y") * ch.var("z")
    pts = surface_samples(scene, surf, np.random.default_rng(2), 40)
    dev, fac = conformal_deviation(scene, surf, g, 1, pts)
    assert dev < 1e-9
    assert fac < 1e-8


def test_conformal_invariance_on_shell_n2():
    scn = mori.mori_scene(2, 0.1)
    cart = scn.cartesian
    ch = cart.chart
    g = 2.0 + 0.1 * ch.var(ch.names[0]) + 0.05 * ch.var(ch.names[-1])
    rng = np.random.default_rng(3)
    pts = [scn.cartesian_point(p)
           for p in mori.sample_surface_polar(scn, rng, 30)]
    dev, fac = conformal_deviation(cart, scn.surface_cartesian, g, 2, pts)
    assert dev < 1e-9
    assert fac < 1e-8


# volume-form independence -------------------------------------------------

def test_divergence_sign_survives_volume_rescaling():
    ch, scene, surf = sphere_setup()
    tols = policy.DEFAULT
    field = FoliationField(scene, surf)
    pts = find_zeros(field, [[0.05, -0.03, 0.99], [-0.04, 0.02, -0.99]],
                     tols)
    base = [classify_zero(field, p) for p in pts]
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(25):
        a = rng.uniform(-0.6, 0.6, size=3)
        b = float(rng.uniform(1.1, 3.0))

        def h(p, a=a, b=b):
            return b * math.exp(float(np.dot(a, p)))

        def grad_h(p, a=a, b=b):
            return h(p) * a

        wrapped = RescaledField(field, h, grad_h)
        for z in base:
            w = classify_zero(wrapped, z.point)
            assert w.sign == z.sign
            assert int(np.sign(w.divergence)) == int(np.sign(z.divergence))
            assert w.stable_dim == z.stable_dim
            assert w.hyperbolic
            # eigenvalues scale by exactly h(p); ratios are preserved
            ratio = np.sort(w.spectrum.real) / np.sort(z.spectrum.real)
            assert np.allclose(ratio, h(z.point), rtol=1e-7)
            checked += 1
    assert checked == 50


# angular equivariance -----------------------------------------------------

def test_angular_shift_invariance_on_shell():
    scn = mori.mori_scene(2, 0.1)
    field = scn.field_polar
    ch = scn.polar.chart
    ang = [ch.index(n) for n in ch.names if n in ch.periods]
    assert len(ang) == 2
    rng = np.random.default_rng(11)
    pts = mori.sample_surface_polar(scn, rng, 40)
    worst = 0.0
    for p in pts:
        X = field.vector(p)
        scale = float(np.max(np.abs(X)))
        for _ in range(2):
            q = np.asarray(p, dtype=float).copy()
            for i in ang:
                q[i] = (q[i] + rng.uniform(0.0, 2.0 * math.pi)) \
                    % (2.0 * math.pi)
            Y = field.vector(q)
            worst = max(worst, float(np.max(np.abs(Y - X))) / scale)
    assert worst < 1e-9


# pivot independence --------------------------------------------------------

def _bundled_field(name):
    doc = load_scene(str(resources.files("charfol") / "scenes"
                         / f"{name}.scene"))
    return FoliationField(doc.scene, doc.surface)


def _generated_field(name):
    doc = parse_scene(SCENES[name])
    return FoliationField(doc.scene, doc.surface)


PIVOT_FIELDS = {
    "s2-height": lambda: _bundled_field("s2-height"),
    "graph-model": lambda: _bundled_field("graph-model"),
    "shell-n2-cartesian": lambda: mori.mori_scene(2, 0.1).field_cartesian,
    "shell-n3-cartesian": lambda: mori.mori_scene(3, 0.1).field_cartesian,
    **{name: functools.partial(_generated_field, name) for name in SCENES},
}


@pytest.mark.parametrize("name", sorted(PIVOT_FIELDS))
def test_direction_does_not_depend_on_the_pivot(name, monkeypatch):
    # the frame pivots on the first largest |N_p|; any index with |N_q|
    # of the same order gives a frame of the same tangent space, so X
    # and div X must agree to roundoff whichever one the solve uses
    field = PIVOT_FIELDS[name]()
    pts = field.surface_samples(np.random.default_rng(5), 40)
    pivot = contact.argmax
    switched = 0
    for p in pts.tolist():
        ref = field.char_data(p)
        X0 = np.array([fval(c) for c in ref.X])
        div0 = fval(ref.divergence)
        N = np.abs(np.array(field.surface.F.value_and_grad(p)[1], float))
        for q in np.flatnonzero(N >= 0.3 * N.max()).tolist():
            monkeypatch.setattr(contact, "argmax", lambda keys, q=q: q)
            data = field.char_data(p)
            monkeypatch.setattr(contact, "argmax", pivot)
            X = np.array([fval(c) for c in data.X])
            assert np.max(np.abs(X - X0)) <= 1e-12 * np.max(np.abs(X0))
            assert (abs(fval(data.divergence) - div0)
                    <= 1e-12 * max(1.0, abs(div0)))
            switched += q != pivot(N.tolist())
    assert len(pts) >= 30 and switched >= 10


# time reversal -------------------------------------------------------------

def test_time_reversal_swaps_census_signs():
    ch, scene, surf = sphere_setup()
    tols = policy.DEFAULT
    field = FoliationField(scene, surf)
    pts = find_zeros(field, [[0.05, -0.03, 0.99], [-0.04, 0.02, -0.99]],
                     tols)
    fw = [classify_zero(field, p) for p in pts]
    rev = RescaledField(field, lambda p: -1.0)
    for z in fw:
        w = classify_zero(rev, z.point)
        assert w.sign == -z.sign
        assert w.divergence == pytest.approx(-z.divergence)
        assert w.stable_dim == 2 - z.stable_dim
        assert w.hyperbolic


def test_time_reversal_swaps_shell_census():
    scn = mori.mori_scene(2, 0.1)
    cen = mori.census(scn)
    rev = RescaledField(scn.field_cartesian, lambda p: -1.0)
    for z in cen["zeros"]:
        w = classify_zero(rev, z.point)
        assert w.sign == -z.sign
        assert w.stable_dim == 4 - z.stable_dim


def test_time_reversed_certificate_passes_on_sphere():
    ch, scene, surf = sphere_setup()
    tols = policy.DEFAULT
    field = FoliationField(scene, surf)
    pts = find_zeros(field, [[0.05, -0.03, 0.99], [-0.04, 0.02, -0.99]],
                     tols)
    zeros = [classify_zero(field, p) for p in pts]
    rng = np.random.default_rng(19)
    seeds = [p / np.linalg.norm(p)
             for p in rng.normal(size=(8, 3))]
    cert = check_morse_smale(field, seeds, zeros, tols=tols, sense=-1)
    assert cert.verdict == "pass"
    assert cert.limit_check == pytest.approx(1.0)
