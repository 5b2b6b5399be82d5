"""Characteristic direction solve against hand-computed cases."""

import math

import numpy as np
import pytest

from charfol import cli, kernel, mori
from charfol.contact import (ContactScene, FoliationField, Hypersurface,
                             _hamiltonian_solve, alpha_data_at,
                             graph_foliation_check, hamiltonian_residuals)
from charfol.errors import ContactConditionError, ProjectionError
from charfol.exterior import Chart, KForm


def darboux3():
    ch = Chart(["x", "y", "z"])
    alpha = KForm.one_form(ch, [ch.constant(0.0), ch.var("x"), ch.constant(1.0)])
    return ContactScene(alpha, name="darboux3")


def linear_scene():
    # dz + y dx + 2x dy on {z = 0}: direction field (2x, -y, 0) exactly
    ch = Chart(["x", "y", "z"])
    alpha = KForm.one_form(ch, [ch.var("y"), 2.0 * ch.var("x"), ch.constant(1.0)])
    scene = ContactScene(alpha, name="linear")
    surf = Hypersurface(ch.var("z"))
    return scene, surf


def test_plane_in_standard_form():
    scene = darboux3()
    surf = Hypersurface(scene.chart.var("z"))
    fld = FoliationField(scene, surf)
    for x, y in [(0.5, 0.2), (-1.2, 0.7), (2.0, -3.0)]:
        X = fld.vector([x, y, 0.0])
        assert np.allclose(X, [x, 0.0, 0.0], atol=1e-14)


def test_linear_scene_field_and_jacobian():
    scene, surf = linear_scene()
    fld = FoliationField(scene, surf)
    X = fld.vector([0.3, -0.4, 0.0])
    assert np.allclose(X, [0.6, 0.4, 0.0], atol=1e-14)
    _, J = fld.vector_and_jacobian([0.0, 0.0, 0.0])
    assert np.allclose(J[:2, :2], [[2.0, 0.0], [0.0, -1.0]], atol=1e-12)
    # exact divergence: trace of the restricted linearization
    assert fld.flow_data([0.0, 0.0, 0.0])[2] == pytest.approx(1.0, abs=1e-13)
    assert fld.flow_data([0.9, 1.1, 0.0])[2] == pytest.approx(1.0, abs=1e-13)


def test_direction_lies_in_both_hyperplane_fields():
    # alpha(X) = 0 and dF(X) = 0 must hold wherever the solve succeeds
    ch = Chart(["x", "y", "z"])
    alpha = KForm.one_form(ch, [ch.parse("y - 0.3*z^2"),
                                ch.parse("2*x + 0.1*sin(y)"),
                                ch.parse("1 + 0.2*x^2")])
    scene = ContactScene(alpha)
    surf = Hypersurface(ch.parse("z - 0.4*x^2 + 0.25*y^2 - 0.1"))
    fld = FoliationField(scene, surf)
    rng = np.random.default_rng(3)
    for _ in range(25):
        x, y = rng.uniform(-1, 1, 2)
        p = surf.project([x, y, 0.0])
        X = fld.vector(p)
        scale = max(1.0, float(np.max(np.abs(X))))
        for covector in (surf.value_and_grad(p)[1], alpha_data_at(scene, p)[0]):
            assert abs(float(np.dot(covector, X))) / scale < 1e-12


def test_projection_converges_and_reports_failure():
    ch = Chart(["x", "y", "z"])
    sphere = Hypersurface(ch.parse("x^2 + y^2 + z^2 - 1"))
    p = sphere.project([1.3, -0.2, 0.4])
    assert abs(p @ p - 1.0) < 1e-12
    flat = Hypersurface(ch.parse("(x^2 + y^2 + z^2 - 1)^2"))
    with pytest.raises(ProjectionError):
        flat.project([1.4, 0.0, 0.0])


def _project_each(surf, points):
    """The per-point path: `project` at each point, with the indices of
    the points it rejects."""
    rows, dropped = [], []
    for i, q in enumerate(points):
        try:
            rows.append(surf.project(q))
        except ProjectionError:
            dropped.append(i)
    return rows, dropped


def _batched(surf, points):
    """`project_samples`, checking that it never projects one point at a
    time, through `project` or `project_floats`."""

    def per_point(_):
        raise AssertionError("the batched path projected one point")

    surf.project = surf.project_floats = per_point
    try:
        return surf.project_samples(points)
    finally:
        del surf.project, surf.project_floats


@pytest.mark.parametrize("which", ["s2-height", "graph-model", "mori-n2"])
def test_project_samples_matches_project_bitwise(which):
    if which == "mori-n2":
        # the 5-D box at --grid 24 has 8 million points; 6 per axis is 7,776
        sc = mori.mori_scene(2, 0.1)
        scene, surf = sc.cartesian, sc.surface_cartesian
        box = scene.grid_points(6)
    else:
        doc = cli._resolve_scene(which)
        scene, surf = doc.scene, doc.surface
        box = scene.grid_points(24)
    rand = scene.sample_points(np.random.default_rng(17), 500)
    for points in (rand, box):
        want, _ = _project_each(surf, points)
        got = _batched(surf, points)
        assert len(got) == len(want)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


@pytest.mark.parametrize("term", ["x^2", "x^3", "x^4", "x^(-1)", "exp(x)"])
def test_project_samples_agrees_with_project_to_roundoff(term):
    # to no roundoff at all: the twins call libm's exp and pow element by
    # element, so the rows keep their bits where numpy's exp and power
    # would round otherwise
    ch = Chart(["x", "y", "z"])
    surf = Hypersurface(ch.parse(f"{term} + y^2 + z^2 - 1"))
    pts = np.random.default_rng(23).uniform(-1.5, 1.5, (2000, 3))
    want, dropped = _project_each(surf, pts)
    got = _batched(surf, pts)
    assert not dropped and len(got) == len(want)
    assert got.tobytes() == np.array(want).tobytes()


def test_project_samples_drops_what_project_rejects():
    ch = Chart(["x", "y", "z"])
    pts = np.vstack([np.random.default_rng(19).uniform(-1.5, 1.5, (300, 3)),
                     np.zeros((1, 3))])
    # Newton creeps towards the double root of the first surface and
    # runs out of steps at most points; the centre has a zero gradient
    for text, ndrop in (("(x^2 + y^2 + z^2 - 1)^2", 224),
                        ("x^2 + y^2 + z^2 - 1", 1)):
        surf = Hypersurface(ch.parse(text))
        want, dropped = _project_each(surf, pts)
        assert len(dropped) == ndrop and len(pts) - 1 in dropped
        got = _batched(surf, pts)
        assert len(got) == len(want)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


@pytest.mark.parametrize("block", [1, 3])
def test_project_samples_in_small_blocks(block, monkeypatch):
    # the moving rows of each step span many blocks, and rows converge,
    # stall and run out of steps in blocks of their own: a row whose
    # gradient vanishes and a row that exhausts PROJECT_MAX_ITER are
    # dropped as `project` rejects them, and every other row has
    # `project`'s bits
    ch = Chart(["x", "y", "z"])
    text = "(x^2 + y^2 + z^2 - 1)^2"
    pts = np.vstack([np.random.default_rng(19).uniform(-1.5, 1.5, (40, 3)),
                     np.zeros((1, 3))])
    monkeypatch.setattr(kernel, "BLOCK", block)
    got = _batched(Hypersurface(ch.parse(text)), pts)
    surf = Hypersurface(ch.parse(text))
    want, dropped = _project_each(surf, pts)
    why = set()
    for i in dropped:
        with pytest.raises(ProjectionError) as e:
            surf.project(pts[i])
        why.add(str(e.value).split()[0])
    assert why == {"gradient", "projection"} and len(want) > 1
    assert len(got) == len(want)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_project_samples_raises_where_project_raises():
    ch = Chart(["x", "y", "z"])
    surf = Hypersurface(ch.parse("log(x) + y^2 + z^2"))
    for bad in ([-0.5, 0.1, 0.2], [0.0, 0.3, 0.1]):
        with pytest.raises(ValueError):
            surf.project(bad)
        with pytest.raises(ValueError):
            surf.project_samples([[1.5, 0.2, 0.1], bad, [0.7, 0.0, 0.3]])
    for empty in ([], np.empty((0, 3))):
        assert surf.project_samples(empty).shape == (0, 3)


def test_domain_mask_matches_in_domain():
    doc = cli._resolve_scene("graph-model")
    pts = np.vstack([doc.scene.grid_points(7) * 1.2,
                     [[-0.1, 1.5, -1.5], [2.3, 0.0, 0.0]]])
    assert doc.scene.domain_mask(pts).tolist() == [
        doc.scene.in_domain(p) for p in pts]
    assert 0 < doc.scene.domain_mask(pts).sum() < len(pts)


def hamiltonian_field(scene, H, p):
    """The Hamiltonian field Y of H at p: alpha(Y) = H and
    i_Y d alpha = dH(R) alpha - dH."""
    a_row, M = alpha_data_at(scene, p)
    hval, *hg = H.traced_value_and_grad([float(c) for c in p])
    return _hamiltonian_solve(a_row, M, hval, np.array(hg))[1]


def test_reeb_and_hamiltonian_closed_forms():
    scene = darboux3()
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.0, 1.0, (20, 3))
    # H = 1 gives the Reeb field, d/dz for dz + x dy
    for p in pts:
        R = hamiltonian_field(scene, scene.chart.constant(1.0), p)
        assert np.allclose(R, [0.0, 0.0, 1.0], atol=1e-12)
    # H = x^2 y + z has Y = (x - x^2, 2xy, z - x^2 y) in this form
    H = scene.chart.parse("x^2*y + z")
    for p in pts:
        Y = hamiltonian_field(scene, H, p)
        x, y, z = p
        assert np.allclose(Y, [x - x * x, 2 * x * y, z - x * x * y], atol=1e-10)
    rep = hamiltonian_residuals(scene, H, pts)
    assert rep["alpha_residual"] < 1e-10
    assert rep["pairing_residual"] < 1e-10


def test_unit_hamiltonian_recovers_reeb():
    ch = Chart(["x", "y", "z"])
    alpha = KForm.one_form(ch, [-0.5 * ch.var("y"), 0.5 * ch.var("x"),
                                ch.constant(1.0)])
    scene = ContactScene(alpha)
    H = ch.constant(1.0)
    rng = np.random.default_rng(12)
    # the Reeb field of dz + (x dy - y dx)/2 is d/dz
    for p in rng.uniform(-1.0, 1.0, (10, 3)):
        Y = hamiltonian_field(scene, H, p)
        assert np.allclose(Y, [0.0, 0.0, 1.0], atol=1e-11)


def test_reeb_solve_refuses_a_non_contact_form():
    # alpha = x dy has d alpha = dx ^ dy, so i_R d alpha = 0 forces
    # R_x = R_y = 0 and alpha(R) = 1 cannot hold
    ch = Chart(["x", "y", "z"])
    scene = ContactScene(KForm.one_form(
        ch, [ch.constant(0.0), ch.var("x"), ch.constant(0.0)]))
    with pytest.raises(ContactConditionError, match="Reeb solve residual"):
        hamiltonian_field(scene, ch.constant(1.0), [0.5, 0.2, 0.1])


def test_contact_condition_verification():
    scene = darboux3()
    rng = np.random.default_rng(13)
    pts = rng.uniform(-1.0, 1.0, (30, 3))
    vals = scene.verify_contact(pts)
    assert all(v > 0 for v in vals) or all(v < 0 for v in vals)

    ch = Chart(["x", "y", "z"])
    degenerate = ContactScene(KForm.one_form(
        ch, [ch.constant(0.0), ch.constant(0.0), ch.constant(1.0)]))
    with pytest.raises(ContactConditionError):
        degenerate.verify_contact(pts)

    flipping = ContactScene(KForm.one_form(
        ch, [ch.constant(0.0), ch.parse("x^2"), ch.constant(1.0)]))
    with pytest.raises(ContactConditionError):
        flipping.verify_contact([[1.0, 0, 0], [-1.0, 0, 0]])


def graph_model(delta=0.3):
    ch = Chart(["t", "s", "psi"], angular=("s", "psi"))
    alpha = KForm.one_form(ch, [ch.constant(0.0), ch.var("t"), ch.constant(1.0)])
    scene = ContactScene(alpha, name="graph3")
    H = ch.parse(f"{delta} * sin(psi)")
    surf = Hypersurface.graph("t", H)
    return scene, surf, H


def test_graph_prediction_matches_engine():
    scene, surf, H = graph_model(delta=0.3)
    fld = FoliationField(scene, surf)

    def predicted(p):
        _, s, psi = p
        h = 0.3 * math.sin(psi)
        h_s, h_psi = 0.0, 0.3 * math.cos(psi)
        return [h_s - h * h_psi, 1.0, -h]

    rng = np.random.default_rng(5)
    pts = []
    for _ in range(30):
        s, psi = rng.uniform(0.0, 2 * math.pi, 2)
        pts.append([0.3 * math.sin(psi), s, psi])
    rep = graph_foliation_check(fld, predicted, pts)
    assert rep["max_rel_dev"] < 1e-10
    assert rep["factor_min"] > 0.0


def test_graph_constructor_rejects_self_dependence():
    ch = Chart(["t", "s", "psi"], angular=("s", "psi"))
    with pytest.raises(ValueError):
        Hypersurface.graph("t", ch.parse("t + sin(psi)"))
