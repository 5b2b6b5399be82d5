"""Certificates on a height-function sphere and convexity profiles."""

import math
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from charfol import policy
from charfol.certify import (ConvexityProfile, MorseSmaleCertificate,
                             RecurrenceCandidate, _loop_distance,
                             build_profile, check_morse_smale, standard_gamma,
                             verification_grid, verify_convex_form)
from charfol.contact import ContactScene, FoliationField, Hypersurface
from charfol.dynamics import OrbitInfo, classify_zero, find_zeros
from charfol.errors import ConstructiveFailure
from charfol.exterior import Chart, KForm
from charfol.jets import fval


def s2_setup():
    # alpha = dz + x dy - y dx; the unit sphere's foliation runs pole to pole
    ch = Chart(["x", "y", "z"])
    x_, y_, z_ = ch.vars()
    alpha = KForm.one_form(ch, [-y_, x_, ch.constant(1.0)])
    scene = ContactScene(alpha, name="s2-height",
                         domain={"x": (-1.3, 1.3), "y": (-1.3, 1.3),
                                 "z": (-1.3, 1.3)})
    surf = Hypersurface(x_ * x_ + y_ * y_ + z_ * z_ - 1.0)
    return FoliationField(scene, surf)


@pytest.fixture(scope="module")
def s2():
    fld = s2_setup()
    pts = find_zeros(fld, [np.array([0.05, -0.03, 0.99]),
                           np.array([-0.04, 0.02, -0.99])])
    zeros = [classify_zero(fld, p) for p in pts]
    assert len(zeros) == 2
    return fld, zeros


@pytest.fixture(scope="module")
def sphere_seeds():
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(10, 3))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def test_s2_census_structure(s2):
    _, zeros = s2
    south = next(z for z in zeros if z.point[2] < 0)
    north = next(z for z in zeros if z.point[2] > 0)
    assert np.allclose(north.point, [0, 0, 1], atol=1e-9)
    assert np.allclose(south.point, [0, 0, -1], atol=1e-9)
    assert north.liouville_sign == 1 and north.stable_dim == 0
    assert south.liouville_sign == -1 and south.stable_dim == 2
    assert north.hyperbolic and south.hyperbolic
    # focus pair: complex eigenvalues, matched real parts
    assert abs(north.eigenvalues[0].imag) > 0


def test_s2_census_sums_to_euler_characteristic(s2):
    # Poincare-Hopf on S^2: sum of (-1)^stable_dim over hyperbolic zeros
    _, zeros = s2
    assert all(z.hyperbolic for z in zeros)
    assert sum((-1) ** z.stable_dim for z in zeros) == 2


def test_certificate_passes_on_sphere(s2, sphere_seeds):
    fld, zeros = s2
    cert = check_morse_smale(fld, sphere_seeds, zeros=zeros)
    assert isinstance(cert, MorseSmaleCertificate)
    assert cert.verdict == "pass"
    assert cert.limit_check == 1.0
    assert cert.seeds_used == len(sphere_seeds)
    assert cert.transversality == "not verified"
    assert cert.connection_violations == []
    assert cert.recurrence == []
    assert set(cert.elements) == {"zeros", "orbits"}


def test_time_reversal_passes_with_same_census(s2, sphere_seeds):
    fld, zeros = s2
    cert = check_morse_smale(fld, sphere_seeds[:6], zeros=zeros, sense=-1)
    assert cert.verdict == "pass"
    assert cert.limit_check == 1.0


def test_no_seeds_is_inconclusive(s2):
    fld, zeros = s2
    cert = check_morse_smale(fld, [], zeros=zeros)
    assert cert.verdict == "inconclusive"
    assert cert.seeds_used == 0 and cert.limit_check == 0.0
    assert cert.reasons == []
    assert cert.notes == ["no usable seeds; nothing was sampled"]


def test_doctored_signs_raise_connection_violation(s2, sphere_seeds):
    fld, zeros = s2
    flipped = [replace(z, liouville_sign=-z.liouville_sign) for z in zeros]
    cert = check_morse_smale(fld, sphere_seeds[:4], zeros=flipped)
    assert cert.verdict == "fail"
    assert any("connection violation" in r for r in cert.reasons)
    assert cert.connection_violations
    hit = cert.connection_violations[0]
    assert set(hit) == {"from", "to", "kind"}
    assert hit["from"][2] > 0.5              # launched from the doctored source


def test_nonhyperbolic_zero_fails_fast(s2, sphere_seeds):
    fld, zeros = s2
    doctored = [replace(zeros[0], hyperbolic=False), zeros[1]]
    cert = check_morse_smale(fld, sphere_seeds, zeros=doctored)
    assert cert.verdict == "fail"
    assert any("neutral eigenvalue" in r for r in cert.reasons)
    assert cert.limit_check == 0.0
    assert cert.seeds_used == 0


def test_nonhyperbolic_orbit_fails_fast(s2, sphere_seeds):
    fld, zeros = s2
    th = np.linspace(0, 2 * np.pi, 24, endpoint=False)
    loop = np.column_stack([np.cos(th), np.sin(th), 0 * th])
    info = OrbitInfo(point=loop[0], period=6.28,
                     multipliers=np.array([1.0 + 0j]), C=1.0,
                     det_residual=0.0, pairing_residual=0.0, div_residual=0.0,
                     positive=True, liouville_sign=1, stable_index=1,
                     hyperbolic=False)
    cert = check_morse_smale(fld, sphere_seeds, zeros=zeros,
                             orbits=[SimpleNamespace(info=info, loop=loop)])
    assert cert.verdict == "fail"
    assert any("unit modulus" in r for r in cert.reasons)


def test_verified_candidate_disqualifies(s2, sphere_seeds):
    fld, zeros = s2
    cand = RecurrenceCandidate(point=np.zeros(3), description="synthetic torus",
                               verify=lambda field, tols: {"kind": "synthetic"})
    cert = check_morse_smale(fld, sphere_seeds, zeros=zeros,
                             recurrence_candidates=[cand])
    assert cert.verdict == "fail"
    assert any("recurren" in r for r in cert.reasons)
    assert cert.recurrence[0]["description"] == "synthetic torus"


def test_unverified_candidate_is_ignored(s2, sphere_seeds):
    fld, zeros = s2
    cand = RecurrenceCandidate(point=np.zeros(3), description="hollow claim",
                               verify=lambda field, tols: None)
    cert = check_morse_smale(fld, sphere_seeds[:4], zeros=zeros,
                             recurrence_candidates=[cand])
    assert cert.verdict == "pass"
    assert cert.recurrence == []


def test_more_budget_never_flips_pass_to_fail(s2, sphere_seeds):
    fld, zeros = s2
    small = policy.replace(policy.DEFAULT, flow_budget=2.0)
    cert_small = check_morse_smale(fld, sphere_seeds[:5], zeros=zeros,
                                   tols=small)
    cert_big = check_morse_smale(fld, sphere_seeds[:5], zeros=zeros)
    assert cert_big.verdict == "pass"
    assert cert_small.verdict in ("pass", "inconclusive")
    assert cert_small.limit_check <= cert_big.limit_check + 1e-12


def test_recurrent_sampled_trajectory_fails():
    # alpha = dz + x dy on R x T^2: on the torus x = 1 every leaf is a
    # closed loop of period 2 pi, with no element to be captured by
    ch = Chart(["x", "y", "z"], angular=("y", "z"))
    x_, _, _ = ch.vars()
    scene = ContactScene(KForm(ch, 1, {(1,): x_, (2,): ch.constant(1.0)}),
                         name="torus")
    fld = FoliationField(scene, Hypersurface(x_ - 1.0))
    cert = check_morse_smale(fld, [[1.0, 0.3, 0.5]],
                             tols=policy.replace(policy.DEFAULT,
                                                 flow_budget=100.0))
    assert cert.verdict == "fail"
    assert any("recurrent" in r for r in cert.reasons)
    assert len(cert.recurrence) == 2        # forward and backward
    for rec in cert.recurrence:
        assert rec["returns"] == 50
        assert abs(rec["mean_return_time"] - 2.0 * math.pi) < 1e-9


def test_loop_distance_matches_segment_formula():
    # a column-like loop once around s, wobbling in psi, with a repeated
    # vertex (a zero-length edge); the closing edge crosses the seam of s
    ch = Chart(["t", "s", "a", "psi"], angular={"s": 60.0, "psi": 2 * math.pi})
    per = {1: 60.0, 3: 2 * math.pi}
    s = np.linspace(0.0, 60.0, 129)[:-1] + 0.3
    loop = np.column_stack([0.01 * np.sin(s), s, 0.2 * np.cos(s / 7.0),
                            3.0 + 0.5 * np.sin(s / 9.0)])
    loop[40] = loop[39]

    def wrap(v):
        v = v.copy()
        for i, p in per.items():
            v[i] = (v[i] + 0.5 * p) % p - 0.5 * p
        return v

    def reference(p):
        best = math.inf
        for i in range(len(loop)):
            a, b = loop[i], loop[(i + 1) % len(loop)]
            d0, seg = wrap(p - a), wrap(b - a)
            ss = float(seg @ seg)
            t = 0.0 if ss == 0.0 else min(max(float(d0 @ seg) / ss, 0.0), 1.0)
            best = min(best, float(np.linalg.norm(d0 - t * seg)))
        return best

    dist = _loop_distance(ch, loop)
    rng = np.random.default_rng(5)
    far = np.column_stack([rng.normal(size=40), rng.uniform(-90.0, 150.0, 40),
                           rng.normal(size=40), rng.uniform(-10.0, 10.0, 40)])
    near = loop[rng.integers(0, len(loop), 40)] \
        + 0.05 * rng.normal(size=(40, 4)) + [0.0, 60.0, 0.0, -2 * math.pi]
    for p in np.vstack([far, near, loop[[0, 39, 127]]]):
        assert abs(dist(p) - reference(p)) <= 1e-12 * (1.0 + reference(p))


# convexity profiles ----------------------------------------------------

S_GRID = verification_grid()


def field_samples(f, ss):
    vals, slopes = [], []
    for s in ss:
        v, g = f.value_and_grad([float(s)])
        vals.append(fval(v))
        slopes.append(fval(g[0]))
    return np.array(vals), np.array(slopes)


def grid_residual_min(prof):
    u, up = field_samples(prof.u, S_GRID)
    h, hp = field_samples(prof.h1, S_GRID)
    return float(np.min(u ** prof.n * hp - up * h ** prof.n))


def test_grid_is_interior_and_sized():
    g = verification_grid()
    assert len(g) == 1000
    assert g[0] > -1.0 and g[-1] < 1.0
    assert np.allclose(np.diff(g), 2.0 / 1000)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_build_profile_invariants(n):
    prof = build_profile((1.0, 0.6), (1.0, -0.6), n)
    assert isinstance(prof, ConvexityProfile)
    assert prof.n == n

    u, up = field_samples(prof.u, [-1.0, 0.0, 1.0])
    assert abs(u[0] - 1.0) < 1e-14 and abs(u[1]) < 1e-14 \
        and abs(u[2] + 1.0) < 1e-14
    assert abs(up[0]) < 1e-13 and abs(up[2]) < 1e-13
    assert up[1] < -0.5

    _, up_i = field_samples(prof.u, S_GRID)
    assert (up_i < 0).all()

    h, hp = field_samples(prof.h1, [-1.0, 0.0, 1.0])
    assert abs(h[0] - 1.0) < 1e-10 and abs(h[2] - 1.0) < 1e-10
    assert abs(hp[0] - 0.6) < 1e-10 and abs(hp[2] + 0.6) < 1e-10
    assert abs(hp[1]) < 1e-12

    h_i, hp_i = field_samples(prof.h1, S_GRID)
    assert (h_i > 0).all()
    assert (hp_i[S_GRID < 0] > 0).all()
    assert (hp_i[S_GRID > 0] < 0).all()

    assert prof.grid_residuals > 0
    # the stored minimum is the direct grid evaluation, nothing else
    assert abs(prof.grid_residuals - grid_residual_min(prof)) \
        < 1e-9 * abs(prof.grid_residuals)


def test_even_n_flatness_on_grid():
    for n, germs in [(2, ((1.0, 0.6), (1.0, -0.6))),
                     (2, ((0.8, 0.5), (1.3, -0.4)))]:
        prof = build_profile(germs[0], germs[1], n)
        pos = S_GRID[S_GRID > 0]
        u, up = field_samples(prof.u, pos)
        h, hp = field_samples(prof.h1, pos)
        assert (np.abs(hp) < np.abs(up) * np.abs(h / u) ** n).all()
        assert prof.grid_residuals > 0


def test_asymmetric_germs_match():
    prof = build_profile((0.8, 0.5), (1.3, -0.4), 1)
    h, hp = field_samples(prof.h1, [-1.0, 1.0])
    assert abs(h[0] - 0.8) < 1e-10 and abs(h[1] - 1.3) < 1e-10
    assert abs(hp[0] - 0.5) < 1e-10 and abs(hp[1] + 0.4) < 1e-10
    assert prof.boundary == {"h_minus": (0.8, 0.5), "h_plus": (1.3, -0.4)}


def test_dividing_set_is_simple_zero():
    prof = build_profile((1.0, 0.6), (1.0, -0.6), 2)
    u, up = field_samples(prof.u, S_GRID)
    assert (np.sign(u) == -np.sign(S_GRID)).all()
    v0, g0 = prof.u.value_and_grad([0.0])
    assert fval(v0) == 0.0 and abs(fval(g0[0])) > 0.5


def test_bad_germs_are_rejected():
    with pytest.raises(ConstructiveFailure, match="slope"):
        build_profile((1.0, -0.2), (1.0, -0.6), 1)
    with pytest.raises(ConstructiveFailure, match="slope"):
        build_profile((1.0, 0.6), (1.0, 0.3), 1)
    with pytest.raises(ConstructiveFailure, match="positive"):
        build_profile((-0.5, 0.6), (1.0, -0.6), 1)
    with pytest.raises(ConstructiveFailure, match="positive"):
        build_profile((1.0, 0.6), (0.0, -0.6), 1)


def test_sweep_exhaustion_names_constraint():
    with pytest.raises(ConstructiveFailure) as ei:
        build_profile((1.0, 30.0), (0.001, -30.0), 2)
    msg = str(ei.value).lower()
    assert "sweep" in msg
    assert re.search(r"positivity|flatness|amplitude|q > 0", msg)


@pytest.mark.parametrize("n,samples", [(1, 500), (2, 500), (3, 200)])
def test_verify_convex_form_matches_closed_form(n, samples):
    prof = build_profile((1.0, 0.6), (1.0, -0.6), n)
    rep = verify_convex_form(prof, standard_gamma(n), samples=samples,
                             rng=np.random.default_rng(3))
    assert rep["samples"] == samples
    assert rep["positive"] is True
    assert rep["min_volume"] > 0
    assert rep["max_rel_dev"] < 1e-8
    assert rep["matched"] is True
    assert rep["flagged"] == []


def test_standard_gammas_are_contact():
    for n in (1, 2, 3):
        sc = standard_gamma(n)
        assert sc.chart.dim == 2 * n - 1
        pts = sc.sample_points(np.random.default_rng(0), 40)
        sc.verify_contact(pts)


def test_verify_rejects_mismatches():
    prof = build_profile((1.0, 0.6), (1.0, -0.6), 1)
    with pytest.raises(ValueError):
        verify_convex_form(prof, standard_gamma(2))
    prof2 = build_profile((1.0, 0.6), (1.0, -0.6), 2)
    with pytest.raises(ValueError):
        verify_convex_form(prof2, standard_gamma(1))


def test_degenerate_u_is_flagged():
    prof = build_profile((1.0, 0.6), (1.0, -0.6), 1)
    dead = replace(prof, u=prof.u.chart.constant(0.0))
    rep = verify_convex_form(dead, standard_gamma(1), samples=60,
                             rng=np.random.default_rng(5))
    assert rep["positive"] is False
    assert len(rep["flagged"]) == 60
    # with u killed the surviving closed-form term is -u' h1^n, which is 0 here
    assert all(f["surrogate"] <= 1e-12 for f in rep["flagged"])
    assert rep["min_volume"] <= 0


class BuggyBatch:
    """A scalar field whose evaluation on rows, the batched projection of
    the seed points, fails with a bug."""

    def __init__(self, F):
        self.F = F

    def __getattr__(self, name):
        return getattr(self.F, name)

    def value_and_grad_rows(self, x):
        raise RuntimeError("bug in projection")


def test_seed_projection_bugs_propagate():
    # only charfol's own failures mean "this seed does not project"; any
    # other exception is a bug and must not quietly shrink the sample
    fld = s2_setup()
    fld.surface.F = BuggyBatch(fld.surface.F)
    with pytest.raises(RuntimeError, match="bug in projection"):
        fld.surface_samples(np.random.default_rng(0), 3)


def test_gamma_form_with_partial_derivative():
    # (2 + d(sin phi, phi)) dphi is (2 + cos phi) dphi written with d();
    # rebasing onto the band chart must carry the derivative node along
    ch = Chart(("phi",), angular=("phi",))
    prof = build_profile((1.0, 0.6), (1.0, -0.6), 1)
    reps = []
    for text in ("2 + d(sin(phi), phi)", "2 + cos(phi)"):
        sc = ContactScene(KForm(ch, 1, {(0,): ch.parse(text)}),
                          name="weighted circle")
        reps.append(verify_convex_form(prof, sc, samples=120,
                                       rng=np.random.default_rng(9)))
    assert reps[0]["positive"] is True and reps[0]["matched"] is True
    assert reps[0] == reps[1]


def test_nonconstant_circle_form():
    # lambda = (2 + cos phi) dphi is still a contact form on the circle
    ch = Chart(("phi",), angular=("phi",))
    lam = KForm(ch, 1, {(0,): ch.parse("2 + cos(phi)")})
    sc = ContactScene(lam, name="weighted circle")
    prof = build_profile((1.0, 0.6), (1.0, -0.6), 1)
    rep = verify_convex_form(prof, sc, samples=120,
                             rng=np.random.default_rng(9))
    assert rep["positive"] is True
    assert rep["max_rel_dev"] < 1e-8


def test_neutral_zero_sign_fails_the_gate(s2, sphere_seeds):
    fld, zeros = s2
    doctored = [replace(zeros[0], liouville_sign=0, hyperbolic=False),
                zeros[1]]
    cert = check_morse_smale(fld, sphere_seeds, zeros=doctored)
    assert cert.verdict == "fail"
    assert any("no Liouville sign" in r for r in cert.reasons)
    assert not any("neutral eigenvalue" in r for r in cert.reasons)
    assert cert.seeds_used == 0


def test_neutral_orbit_sign_fails_the_gate(s2, sphere_seeds):
    fld, zeros = s2
    th = np.linspace(0, 2 * np.pi, 24, endpoint=False)
    loop = np.column_stack([np.cos(th), np.sin(th), 0 * th])
    # doctored so that only the sign gate can fire
    info = OrbitInfo(point=loop[0], period=6.28,
                     multipliers=np.array([1.0 + 0j]), C=1.0,
                     det_residual=0.0, pairing_residual=0.0, div_residual=0.0,
                     positive=False, liouville_sign=0, stable_index=1,
                     hyperbolic=True)
    cert = check_morse_smale(fld, sphere_seeds, zeros=zeros,
                             orbits=[SimpleNamespace(info=info, loop=loop)])
    assert cert.verdict == "fail"
    assert any("C = 1, so no Liouville sign" in r for r in cert.reasons)
    assert cert.seeds_used == 0
