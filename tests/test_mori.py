"""Mori hypersurface family: reference field, census, invariant torus, column model.

Oracles are computed here, independently of the package: the saddle ring
radius by bisection on the defining quadratic, zero/orbit heights in closed
form, orbit exponents from the reduced rates, and the column-model
multipliers from a 1-D quadrature of the bump profile.
"""

import functools
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from charfol import certify, contact, kernel, mori, parallel, policy, report
from charfol.cli import main
from charfol.contact import (FoliationField, Hypersurface,
                             graph_foliation_check, hamiltonian_residuals)
from charfol.dynamics import Flow, NoOrbitError, find_orbit
from charfol.errors import PolarDomainError

EPS = 0.1


def ring_radius_sq(eps):
    # bisection for (x - 1)^2 = eps (2 x - 1) on (0.5, 1); x = r^2 at the saddle ring
    def f(x):
        return (x - 1.0) ** 2 - eps * (2.0 * x - 1.0)

    lo, hi = 0.5, 1.0
    assert f(lo) > 0.0 > f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def scene():
    return mori.mori_scene(n=2, eps=EPS)


@pytest.fixture(scope="module")
def census(scene):
    return mori.census(scene)


@pytest.fixture(scope="module")
def probe(scene):
    return mori.torus_probe(scene, samples=100, rng=np.random.default_rng(7))


@pytest.fixture(scope="module")
def perturb():
    return mori.perturb_analysis(mori.PerturbationSpec(delta=0.05),
                                 rng=np.random.default_rng(11))


def test_scene_constants_against_bisection(scene):
    x = ring_radius_sq(EPS)
    c = scene.constants
    assert abs(c.ring_r - math.sqrt(x)) < 1e-12
    assert abs(c.ring_r - 0.87654864152793028) < 1e-12
    assert abs(c.ring_rho - EPS * math.sqrt(1.0 + EPS - x)) < 1e-12
    assert abs(c.axis_z - EPS * math.sqrt(1.0 + EPS)) < 1e-14
    assert abs(c.axis_z - 0.10488088481701516) < 1e-14
    assert abs(c.orbit_z - EPS ** 1.5) < 1e-14
    slope = (2.0 * x * x - 2.0 * x + 1.0) / (EPS ** 2 * (1.0 + 2.0 * EPS))
    assert abs(c.torus_slope - slope) < 1e-9
    assert abs(slope - 53.667504192892003) < 1e-9


def test_scene_validation():
    with pytest.raises(ValueError):
        mori.mori_scene(n=1, eps=0.1)
    with pytest.raises(ValueError):
        mori.mori_scene(n=2, eps=0.31)
    with pytest.raises(ValueError):
        mori.mori_scene(n=2, eps=0.0)
    with pytest.warns(UserWarning):
        mori.mori_scene(n=2, eps=0.2)


def test_reference_field_sample_values(scene):
    # z = 0, r = 0.5, rho1 from the shell constraint
    rho = math.sqrt(scene.eps ** 2 * (1.0 + scene.eps - 0.25))
    p = np.array([0.0, 0.5, 0.3, rho, 1.1])
    v = mori.reference_field(scene, p)
    names = scene.polar.chart.names
    assert abs(v[names.index("z")] - 0.6125) < 1e-12
    assert abs(v[names.index("theta")] - 1.2) < 1e-12
    assert abs(v[names.index("rho1")]) < 1e-12          # z = 0 kills the rho rates
    assert abs(v[names.index("phi1")] - 62.5) < 1e-9


def test_reference_field_polar_guard(scene):
    p = np.array([0.0, 0.02, 0.0, 0.08, 0.0])
    with pytest.raises(PolarDomainError, match="[Cc]artesian"):
        mori.reference_field(scene, p)


def _draw_point_by_point(scene, rng, count):
    # the per-point draws: radii, height fraction, its sign, angles
    eps, n = scene.eps, scene.n
    budget = eps ** 2 * (1.0 + eps)
    lo = scene.polar_floor * 1.05
    hi = math.sqrt(0.5 * budget / (n - 1))
    pts = []
    for _ in range(count):
        rho = rng.uniform(lo, hi, n - 1)
        used = float(np.sum(rho * rho))
        z = math.copysign(math.sqrt(rng.uniform(0.0, 0.9) * (budget - used)),
                          rng.uniform(-1.0, 1.0))
        r = math.sqrt(1.0 + eps - (z * z + used) / eps ** 2)
        ang = rng.uniform(0.0, 2.0 * math.pi, n)
        pts.append([z, r, ang[0], *(c for pair in zip(rho, ang[1:])
                                    for c in pair)])
    return np.array(pts)


@pytest.mark.parametrize("n", range(2, 11))
def test_shell_samples_equal_point_by_point_draws(n):
    # one array draw gives the bits and the generator state of a draw
    # per point, also where the row sum of the radii pairs its terms
    scene = mori.mori_scene(n, EPS)
    for seed in (0, 1, 12345):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        pts = mori.sample_surface_polar(scene, rng, 40)
        want = _draw_point_by_point(scene, ref, 40)
        assert pts.shape == want.shape == (40, 2 * n + 1)
        assert pts.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state
        cart = scene.cartesian_points(pts)
        assert cart.tobytes() == np.array(
            [scene.cartesian_point(p) for p in pts], dtype=float).tobytes()


def test_reference_field_tangency(scene):
    rng = np.random.default_rng(3)
    pts = mori.sample_surface_polar(scene, rng, 60)
    for p in pts:
        v = mori.reference_field(scene, p)
        _, g = scene.surface_polar.F.value_and_grad(list(p))
        res = abs(float(np.dot(g, v))) / max(1.0, float(np.max(np.abs(v))))
        assert res < 1e-9


def test_direction_match_n2(scene):
    rep = mori.direction_match(scene, count=200, rng=np.random.default_rng(5))
    assert rep["samples"] == 200
    assert rep["max_angle"] < 1e-8
    assert rep["factor_min"] > 0.0


def test_direction_match_catches_mutation(scene, monkeypatch):
    reference = mori.reference_field

    def flipped(sc, point):
        out = np.array(reference(sc, point), dtype=float)
        out[..., sc.polar.chart.index("phi1")] *= -1.0
        return out

    monkeypatch.setattr(mori, "reference_field", flipped)
    rep = mori.direction_match(scene, count=20, rng=np.random.default_rng(5))
    assert rep["max_angle"] > 1e-3


@pytest.mark.parametrize("n", (2, 3))
def test_reference_field_rows_match_points(n):
    sc = mori.mori_scene(n, EPS)
    pts = mori.sample_surface_polar(sc, np.random.default_rng(4), 50)
    want = np.array([mori.reference_field(sc, p) for p in pts])
    assert mori.reference_field(sc, pts).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", (2, 3))
def test_direction_fit_matches_the_per_row_formula(n):
    # bit for bit against the fit one point at a time, on the solved and
    # the closed-form directions at shell samples
    sc = mori.mori_scene(n, EPS)
    pts = mori.sample_surface_polar(sc, np.random.default_rng(4), 50)
    X = np.array([sc.field_polar.vector(p) for p in pts])
    P = mori.reference_field(sc, pts)
    c, sine = contact.direction_fit(X, P)
    want_c, want_sine = [], []
    for x, ref in zip(X, P):
        k = float(np.dot(x, ref) / np.dot(ref, ref))
        want_c.append(k)
        want_sine.append(float(np.linalg.norm(x - k * ref)
                               / np.linalg.norm(x)))
    assert c.tobytes() == np.array(want_c).tobytes()
    assert sine.tobytes() == np.array(want_sine).tobytes()


def test_direction_match_n3():
    sc = mori.mori_scene(n=3, eps=EPS)
    rep = mori.direction_match(sc, count=40, rng=np.random.default_rng(9))
    assert rep["max_angle"] < 1e-8
    assert rep["factor_min"] > 0.0


def test_chart_agreement(scene):
    rep = mori.chart_agreement(scene, count=100, rng=np.random.default_rng(2))
    assert rep["max_pullback_dev"] < 1e-10


def test_pushforward_zero_families(scene):
    c = scene.constants
    for zrr in [(c.axis_z, 0.0, 0.0), (-c.axis_z, 0.0, 0.0),
                (c.orbit_z, 1.0, 0.0), (-c.orbit_z, 1.0, 0.0),
                (0.0, c.ring_r, c.ring_rho)]:
        assert abs(mori.reduced_constraint(scene, zrr)) < 1e-12
        v = mori.pushforward_field(scene, zrr)
        assert float(np.max(np.abs(v))) < 1e-12


def test_torus_base_point(scene):
    (z, r, rho), _ = mori.torus_base_point(scene)
    x = ring_radius_sq(EPS)
    assert abs(z) < 1e-10
    assert abs(r - math.sqrt(x)) < 1e-10
    assert abs(rho - EPS * math.sqrt(1.0 + EPS - x)) < 1e-10


def test_torus_probe(scene, probe):
    assert probe["invariance_residual"] < 1e-8
    assert probe["angular_rate_variation"] < 1e-9
    assert abs(probe["slope"] - scene.constants.torus_slope) < 1e-6 * scene.constants.torus_slope
    assert probe["fiber_multiplier"] == 1.0
    # transverse saddle exponent per loop: the reason trajectory shadowing
    # fails (e^25 noise amplification per loop); closed form
    # sqrt(4 (1+eps)(2 x - 1)/eps) * 2 pi / (1 + 2 eps)
    lam = math.sqrt(4.0 / EPS * (1.0 + EPS) * (2.0 * ring_radius_sq(EPS) - 1.0))
    lam_loop = lam * 2.0 * math.pi / (1.0 + 2.0 * EPS)
    assert abs(probe["transverse_exponent_per_loop"]) > 20.0
    assert abs(abs(probe["transverse_exponent_per_loop"]) - lam_loop) < 1e-4 * lam_loop
    assert "no-op" in probe["slope_note"]


def test_torus_recurrence_reads_its_probe(scene, probe):
    # the record is read off the probe it is given: none when the field
    # leaves the torus, else one at the lifted probe point
    assert mori.torus_recurrence(
        scene, {**probe, "invariance_residual": 2e-6}) == []
    moved = (0.01, probe["point"][1], probe["point"][2])
    [rec] = mori.torus_recurrence(
        scene, {**probe, "invariance_residual": 1e-7, "point": moved})
    assert rec["point"].tolist() == mori.cartesian_lift(scene, moved)
    assert rec["description"] == "invariant torus over the reduced saddle ring"
    assert rec["kind"] == "invariant torus"
    assert rec["unit_modulus_fiber_multiplier"] == 1.0
    assert abs(rec["transverse_exponent_per_loop"]) > 20.0


@pytest.mark.parametrize("n", [2, 3])
def test_torus_exponent_matches_closed_form(n):
    # the linearization comes from the field's jets, so the exponent per
    # loop agrees with the closed form of test_torus_probe to roundoff
    sc = mori.mori_scene(n=n, eps=EPS)
    probe = mori.torus_probe(sc, samples=20, rng=np.random.default_rng(7))
    lam = math.sqrt(4.0 / EPS * (1.0 + EPS) * (2.0 * ring_radius_sq(EPS) - 1.0))
    lam_loop = lam * 2.0 * math.pi / (1.0 + 2.0 * EPS)
    got = probe["transverse_exponent_per_loop"]
    assert abs(got - lam_loop) < 1e-12 * lam_loop


@pytest.mark.parametrize("n, eps", [(2, EPS), (2, 0.05), (2, 0.15), (4, 0.1)])
def test_census_zeros(n, eps):
    scene = mori.mori_scene(n, eps)
    zeros = mori.census(scene)["zeros"]
    assert len(zeros) == 2
    names = scene.cartesian.chart.names
    iz = names.index("z")
    heights = sorted(float(z.point[iz]) for z in zeros)
    assert abs(heights[0] + scene.constants.axis_z) < 1e-8
    assert abs(heights[1] - scene.constants.axis_z) < 1e-8
    for z in zeros:
        assert z.hyperbolic
        body = [z.point[i] for i in range(len(names)) if i != iz]
        assert float(np.max(np.abs(body))) < 1e-9
        # top pole attracts, bottom pole repels
        assert z.sign == (-1 if z.point[iz] > 0 else 1)
    assert zeros[0].sign * zeros[1].sign == -1


@pytest.mark.parametrize("n", [2, 3])
def test_census_zeros_sum_to_euler_characteristic(n):
    # Poincare-Hopf on the shell S^2n: the axis seeds miss no zero
    zeros = mori.census(mori.mori_scene(n, EPS))["zeros"]
    assert all(z.hyperbolic for z in zeros)
    assert {z.stable_dim for z in zeros} == {0, 2 * n}
    assert sum((-1) ** z.stable_dim for z in zeros) == 2


def test_census_orbits(scene, census):
    orbits = census["orbits"]
    assert len(orbits) == 2
    names = scene.cartesian.chart.names
    iz = names.index("z")
    c = scene.constants
    for o in orbits:
        z = float(o.point[iz])
        assert abs(abs(z) - c.orbit_z) < 1e-8
        r = math.hypot(o.point[names.index("x")], o.point[names.index("y")])
        assert abs(r - 1.0) < 1e-8
        assert o.hyperbolic
        assert (o.sign > 0) == (z > 0)
        assert o.sign == (1 if z > 0 else -1)
        assert o.det_residual < 1e-6
        assert o.pairing_residual < 1e-6
        assert o.div_residual < 1e-6
    pos = [o for o in orbits if o.sign > 0]
    neg = [o for o in orbits if o.sign <= 0]
    assert len(pos) == 1 and len(neg) == 1
    assert pos[0].stable_dim <= 2
    moduli = np.abs(neg[0].spectrum)
    assert int(np.sum(moduli > 1.0)) <= 2


def test_orbit_exponents_closed_form(census):
    # per-loop log multipliers are parametrization invariants:
    # {4 pi / sqrt(eps), 2 pi / sqrt(eps) twice}, sign following the orbit height
    a = 2.0 * math.pi / math.sqrt(EPS)
    for o in census["orbits"]:
        sgn = 1.0 if o.sign > 0 else -1.0
        got = np.sort(np.log(np.abs(o.spectrum)))
        want = np.sort(sgn * np.array([2.0 * a, a, a]))
        assert float(np.max(np.abs(got - want))) < 1e-6 * 2.0 * a
        assert abs(math.log(o.C) - sgn * 2.0 * a) < 1e-6 * 2.0 * a


def test_orbit_closedness_dynamic(scene, census):
    # one full loop in the contracting time direction returns to the start
    rep = mori.verify_orbit_closure(scene, census["orbits"])
    assert rep["max_return_gap"] < 1e-6
    assert rep["max_period_dev"] < 1e-6


def test_shooting_refuses_edge_orbit(scene, census, monkeypatch):
    # the return map amplifies noise by e^(2 pi / sqrt(eps)) per transverse
    # direction and loop, so shooting from an offset seed has to fail
    field = scene.field_cartesian
    o = next(o for o in census["orbits"] if o.sign > 0)
    seed = np.array(o.point, dtype=float)
    seed[scene.cartesian.chart.index("z")] += 1e-3
    tols = policy.replace(policy.DEFAULT, newton_max_iter=4)
    monkeypatch.setattr(policy, "ODE_MAX_STEPS", 4000)
    with pytest.raises(NoOrbitError):
        find_orbit(field, seed, o.period, tols)


def test_shooting_refuses_torus_circle(scene, monkeypatch):
    (z, r, rho), _ = mori.torus_base_point(scene)
    p = mori.cartesian_lift(scene, (z, r, rho), theta=0.4, phi=1.9)
    field = scene.field_cartesian
    # one base loop: 2 pi over the constant angular rate on the torus
    q = mori.cartesian_lift(scene, (z, r, rho), theta=0.3, phi=1.1)
    X = field.vector(q)
    T = 2.0 * math.pi / abs(float((q[0] * X[1] - q[1] * X[0]) / (r * r)))
    tols = policy.replace(policy.DEFAULT, newton_max_iter=3)
    monkeypatch.setattr(policy, "ODE_MAX_STEPS", 4000)
    with pytest.raises(NoOrbitError):
        find_orbit(field, p, T, tols)


def test_phase_portrait(scene):
    rows = mori.phase_portrait_data(scene)
    assert {"id", "t", "z", "r", "rho"} <= set(rows[0])
    for row in rows:
        res = mori.reduced_constraint(scene, (row["z"], row["r"], row["rho"]))
        assert abs(res) < 1e-8


def test_phase_portrait_projects_through_a_kernel(scene, monkeypatch):
    # the starts and every accepted step go through the project_floats
    # of one surface, the reduced constraint over the chart (z, r, rho),
    # whose traced kernel gives the constraint's own floats
    seen = []
    project = Hypersurface.project_floats

    def spy(self, x):
        seen.append(self)
        return project(self, x)

    monkeypatch.setattr(Hypersurface, "project_floats", spy)
    rows = mori.phase_portrait_data(scene)
    assert rows and len(seen) >= len(rows)
    shell = seen[0]
    assert all(s is shell for s in seen)
    assert shell.chart.names == ("z", "r", "rho")
    for row in rows[::25]:
        p = [row["z"], row["r"], row["rho"]]
        value = shell.F.traced_value_and_grad(p)[0]
        assert value == mori.reduced_constraint(scene, p)
        assert abs(value) < policy.PROJECT_TOL


class Buggy:
    """A scalar field whose method `name` fails with a bug."""

    def __init__(self, F, name):
        self.F, self.name = F, name

    def __getattr__(self, name):
        if name == self.name:
            raise RuntimeError(f"bug in {name}")
        return getattr(self.F, name)


def test_census_needs_no_random_seeds(monkeypatch):
    scene = mori.mori_scene(2, 0.1)
    surf = scene.surface_cartesian
    surf.F = Buggy(surf.F, "value_and_grad_rows")

    def no_samples(self, rng, count):
        raise RuntimeError("census drew random seeds")

    monkeypatch.setattr(FoliationField, "surface_samples", no_samples)
    cen = mori.census(scene)
    assert len(cen["zeros"]) == 2 and len(cen["orbits"]) == 2


def test_census_lets_projection_bugs_propagate():
    scene = mori.mori_scene(2, 0.1)
    surf = scene.surface_cartesian
    surf.F = Buggy(surf.F, "traced_value_and_grad")
    with pytest.raises(RuntimeError, match="bug in traced_value_and_grad"):
        mori.census(scene)


# column model ----------------------------------------------------------


def test_column_bump_invariants(perturb):
    h = perturb["hamiltonian"]
    d = 0.05
    assert h["sup_H"] < d
    assert h["sup_dH"] < d
    assert h["outside_sup"] < 1e-9 * d
    assert abs(h["center_window"] - 1.0) < 1e-8
    assert h["center_gradient"] < 1e-12


def test_column_direction_prediction(perturb):
    rep = perturb["direction_check"]
    assert rep["max_rel_dev"] < 1e-8
    assert rep["factor_min"] > 0.0


def test_column_hamiltonian_residuals(perturb):
    rep = perturb["hamiltonian_residuals"]
    assert rep["alpha_residual"] < 1e-10
    assert rep["pairing_residual"] < 1e-10


def test_column_orbits_match_quadrature(perturb):
    """Measured multipliers against exp(-A I) from 1-D quadrature of the bump."""
    orbits = perturb["orbits"]
    assert len(orbits) == 2
    A = perturb["hamiltonian"]["amplitude"]
    spec = perturb["spec"]
    chi = mori.column_bump(spec)
    I, err = quad(chi, 0.0, spec.circumference, limit=400)
    assert err < 1e-6 * I
    for o in orbits:
        sgn = 1.0 if o.sign > 0 else -1.0
        want = np.sort(sgn * A * I * np.array([1.0, 0.5, 0.5]))
        got = np.sort(np.log(np.abs(o.spectrum)))
        assert float(np.max(np.abs(got - want))) < 1e-4 * A * I
        assert abs(math.log(o.C) - sgn * A * I) < 1e-4 * A * I
        psi = mori.column_psi(perturb["scene"].chart, o.point)
        assert abs(abs(psi) - (math.pi if o.sign > 0 else 0.0)) < 1e-6
        assert mori.transverse_shift(perturb["scene"].chart, o.point) < 1e-8
        assert o.det_residual < 1e-6
        assert o.pairing_residual < 1e-6
    signs = sorted(o.sign for o in orbits)
    assert signs == [-1, 1]


def test_column_orbit_angles_are_stable(perturb):
    # psi is wrapped to [-pi/2, 3pi/2): the contracting orbit reads 0 and
    # the expanding one +pi, whichever side of pi Newton stops on
    ch = perturb["scene"].chart
    psi = sorted(mori.column_psi(ch, o.point) for o in perturb["orbits"])
    assert abs(psi[0]) < 1e-6
    assert abs(psi[1] - math.pi) < 1e-6


def test_column_orbits_match_closed_form(perturb):
    # log C = sgn A I to integration accuracy (at most 8.5e-9 A I today);
    # error control on the state components alone lands 2.2e-6 A I off,
    # inside the 1e-4 bound on C of the quadrature test above
    A = perturb["hamiltonian"]["amplitude"]
    I = perturb["hamiltonian"]["bump_integral"]
    assert len(perturb["orbits"]) == 2
    for o in perturb["orbits"]:
        sgn = 1.0 if o.sign > 0 else -1.0
        assert abs(math.log(o.C) - sgn * A * I) < 1e-7 * A * I


def test_column_shooting_reuses_variational_trials(monkeypatch):
    # the expanding orbit is shot in reversed time, where it contracts,
    # and converges in 4 variational shots, 2 coarse and 2 at the
    # profile's tolerances (7 at full accuracy when shot forward); a
    # line search scored with plain runs, a different discretisation from
    # the residual, stalls it at lambda = 1/8 (19 variational, 57 plain)
    spec = mori.PerturbationSpec()
    scene, surface, info = mori.column_scene(spec)
    field = FoliationField(scene, surface)
    calls = {"variational": 0, "plain": 0}
    senses = set()
    variational, plain = Flow.integrate_variational, Flow.integrate

    def count_variational(self, *args, **kw):
        calls["variational"] += 1
        senses.add(self.sense)
        return variational(self, *args, **kw)

    def count_plain(self, *args, **kw):
        calls["plain"] += 1
        return plain(self, *args, **kw)

    monkeypatch.setattr(Flow, "integrate_variational", count_variational)
    monkeypatch.setattr(Flow, "integrate", count_plain)
    orbit = mori._column_orbit(field, info["H"], math.pi, spec,
                               policy.DEFAULT)
    assert orbit.sign > 0
    assert calls["variational"] <= 5
    assert calls["plain"] == 0
    assert senses == {-1.0}


# variational runs per column orbit, at psi = 0 and pi, when every shot
# ran at the profile's tolerances and carried the whole ambient monodromy
FULL_ACCURACY_RUNS = {0.005: 5, 0.01: 5, 0.02: 5, 0.05: 4, 0.08: 4, 0.1: 4}


@pytest.mark.parametrize("delta", sorted(FULL_ACCURACY_RUNS))
def test_column_shots_are_coarse_until_the_residual_is_small(delta,
                                                             monkeypatch):
    # early shots only aim Newton and run at the chase tolerances; the
    # shots after the hand-over, and the orbit returned, are at `tols`
    tols = policy.DEFAULT
    coarse = policy.coarse(tols)
    spec = mori.PerturbationSpec(delta=delta)
    scene, surface, info = mori.column_scene(spec)
    field = FoliationField(scene, surface)
    runs, found = [], []
    variational = Flow.integrate_variational

    def spy(self, *args):
        out = variational(self, *args)
        runs.append((self.tols, out[1]))
        return out

    def keep(*args, **kw):
        found.append(find_orbit(*args, **kw))
        return found[-1]

    monkeypatch.setattr(Flow, "integrate_variational", spy)
    monkeypatch.setattr(mori, "find_orbit", keep)
    for psi0 in (0.0, math.pi):
        runs.clear()
        mori._column_orbit(field, info["H"], psi0, spec, tols)
        schedule = [t for t, _ in runs]
        assert len(runs) <= FULL_ACCURACY_RUNS[delta]
        k = schedule.count(coarse)
        assert k >= 1 and schedule == [coarse] * k + [tols] * (len(runs) - k)
        assert found[-1].monodromy is runs[-1][1]
        if delta == 0.05:
            # the first full shot at psi = 0 has already converged
            assert schedule == [coarse, coarse, tols] + [tols] * (psi0 > 0)


def test_column_shot_calls_run_only_where_the_front_kernel_misses(
        monkeypatch):
    # one reversed-time shot of the column's expanding orbit, on a new
    # field: the step and the projection call the front kernels
    # themselves, and kernel.run only to trace or where the front's
    # guards fail
    spec = mori.PerturbationSpec()
    scene, surface, info = mori.column_scene(spec)
    field = FoliationField(scene, surface)
    seed = mori._graph_point(scene.chart, info["H"], 5.0, 0.02, -0.01,
                             math.pi + 0.1)
    X = field.vector(seed)
    period = spec.circumference / abs(float(X[scene.chart.index("s")]))
    hits, misses = [], []
    run = kernel.run

    def spy(kernels, fn, args):
        front = kernels[0](*args) if kernels else None
        (misses if front is None else hits).append(len(kernels))
        return run(kernels, fn, args)

    monkeypatch.setattr(kernel, "run", spy)
    monkeypatch.setattr(contact, "run", spy)
    q = field.surface.project(seed)
    # three columns, as a shot's section has
    Flow(field, sense=-1).integrate_variational(q, period, np.eye(5)[:, :3])
    # two traces, F's kernel in the first projection and the
    # variational kernel in the first slope, and no other call
    assert hits == [] and misses == [0, 0]
    assert len(surface.F._kernels) == len(field.variational_rhs(3)[0]) == 1


def test_column_shots_compile_no_first_order_kernel(monkeypatch):
    # a shot reads X and div at its seed from the section-width
    # variational kernel that its runs use, with the first-order
    # kernel's bits; on one worker a spy sees every trace
    monkeypatch.setattr(parallel, "_cpus", lambda: 1)
    traced, trace = [], kernel._trace

    def spy(fn, args):
        traced.append(fn.__name__)
        return trace(fn, args)

    monkeypatch.setattr(kernel, "_trace", spy)
    scene, surface, info = mori.column_scene(mori.PerturbationSpec())
    field = FoliationField(scene, surface)
    col = mori.column_certificate(field, info)
    assert col["certificate"].verdict == "pass"
    assert "_variational_outputs" in traced and "_jet_outputs" not in traced
    assert not field._kernels[1]
    d = scene.chart.dim
    for psi in (0.1, math.pi + 0.1):
        seed = mori._graph_point(scene.chart, info["H"], 5.0, 0.02, -0.01,
                                 psi)
        out = kernel.run(*field.variational_rhs(3),
                         [*map(float, seed), *[0.0] * (3 * d), 0.0])
        X, _, div = field.flow_data(seed)
        assert (np.array(out[:d]).tobytes(), out[-1]) == (X.tobytes(), div)


def test_column_certificate_passes_on_every_stream(monkeypatch):
    # delta = 0.01 on each of the streams default_rng(0), ..., (5): every
    # seed is captured both ways and none is recurrent. With a capture
    # ball of 2e-2 the streams 0 and 5 failed on one "recurrent" seed
    monkeypatch.setattr(parallel, "_cpus", lambda: 1)
    scene, surface, info = mori.column_scene(mori.PerturbationSpec(delta=0.01))
    field = FoliationField(scene, surface)
    for k in range(6):
        cert = mori.column_certificate(
            field, info, rng=np.random.default_rng(k))["certificate"]
        assert cert.verdict == "pass", (k, cert.reasons)
        assert cert.limit_check == 1.0 and not cert.recurrence, k


@functools.cache
def column_at(delta):
    spec = mori.PerturbationSpec(delta=delta)
    scene, surface, info = mori.column_scene(spec)
    return {**mori.column_certificate(FoliationField(scene, surface), info),
            "chart": scene.chart}


@pytest.mark.parametrize("delta", [0.005, 0.01, 0.02, 0.05, 0.08, 0.1])
def test_column_orbits_across_delta(delta):
    # both orbits are found and hyperbolic over the accepted range; the
    # expanding one, shot forward, was lost from delta = 0.08 on
    rep = column_at(delta)
    assert not rep["degenerate"]
    psi = sorted(mori.column_psi(rep["chart"], o.point)
                 for o in rep["orbits"])
    assert len(psi) == 2 and all(o.hyperbolic for o in rep["orbits"])
    assert abs(psi[0]) < 1e-6 and abs(psi[1] - math.pi) < 1e-6
    pers = rep["persistence"]
    assert (abs(pers["margin"] - pers["predicted_margin"])
            < 1e-8 * pers["predicted_margin"])


@pytest.mark.parametrize("delta", [
    pytest.param(0.005, marks=pytest.mark.xfail(strict=True, reason=(
        "inconclusive: 1 of 10 seeds is not captured (all are in `mori "
        "perturb` at seed 0); its backward chase spends the budget "
        "leaving the psi = 0 orbit and ends 1.6 from the psi = pi loop, "
        "outside its capture region"))),
    0.01, 0.02, 0.05, 0.08, 0.1])
def test_column_certificate_across_delta(delta):
    cert = column_at(delta)["certificate"]
    assert cert.verdict == "pass", cert.reasons


@pytest.mark.parametrize("profile", ["default", "strict", "fast"])
@pytest.mark.parametrize("scene_name", ["s2-height", "mori-column"])
def test_certificate_flows_run_coarse(scene_name, profile, monkeypatch,
                                      tmp_path):
    # every flow of check_morse_smale (chases, settles, recurrence
    # counts) runs at the profile's coarse tolerances, also on the
    # column, which hands the certificate its profile unchanged
    monkeypatch.setattr(parallel, "_cpus", lambda: 1)
    seen = []

    class Spy(Flow):
        def integrate(self, *args, **kwargs):
            seen.append(self.tols)
            return super().integrate(*args, **kwargs)

    monkeypatch.setattr(certify, "Flow", Spy)
    main(["certify", scene_name, "--tolerance-profile", profile,
          "--json", str(tmp_path / "r.json")])
    tols = policy.PROFILES[profile]
    want = policy.coarse(tols)
    assert seen and all(t == want for t in seen)
    assert want.ode_max_step == 2.0
    assert want.ode_rtol == pytest.approx(100.0 * tols.ode_rtol, rel=1e-12)
    assert want.ode_atol == pytest.approx(10.0 * tols.ode_atol, rel=1e-12)
    assert want == policy.replace(tols, ode_rtol=want.ode_rtol,
                                  ode_atol=want.ode_atol, ode_max_step=2.0)
    if profile == "default":
        assert (want.ode_rtol, want.ode_atol) == (1e-7, 1e-9)


def test_column_persistence_and_margin(perturb):
    rep = perturb["persistence"]
    assert rep["holds"]
    assert rep["max_shift"] < 1e-8
    assert rep["margin"] > 0.5
    assert abs(rep["margin"] - rep["predicted_margin"]) < 1e-3 * rep["predicted_margin"]


def test_column_certificate_passes(perturb):
    cert = perturb["certificate"]
    assert cert.verdict == "pass"
    assert cert.limit_check == 1.0
    assert not cert.connection_violations


def test_a_lost_column_orbit_leaves_a_degenerate_column(monkeypatch):
    # the orbit at psi = pi is not found: the column is degenerate, the
    # persistence block reports the collapse, and on an incomplete census
    # nothing is chased and no region is calibrated: the certificate runs
    # no flow. Chased, a seed that tends to the lost orbit read
    # "recurrent" and failed the certificate on a false witness
    monkeypatch.setattr(parallel, "_cpus", lambda: 1)
    monkeypatch.setattr(certify, "_seed_chases", None)
    column_orbit, flows = mori._column_orbit, []

    class Spy(Flow):
        def integrate(self, *args, **kwargs):
            res = super().integrate(*args, **kwargs)
            flows.append(res.t)
            return res

    monkeypatch.setattr(certify, "Flow", Spy)

    def lose(field, H, psi0, spec, tols):
        if psi0 == math.pi:
            raise NoOrbitError("the orbit at psi = pi is lost")
        return column_orbit(field, H, psi0, spec, tols)

    monkeypatch.setattr(mori, "_column_orbit", lose)
    scene, surface, info = mori.column_scene(mori.PerturbationSpec())
    rep = mori.column_certificate(FoliationField(scene, surface), info)
    assert rep["degenerate"] and len(rep["orbits"]) == 1
    pers = rep["persistence"]
    assert pers["holds"] is False and pers["margin"] == 0.0
    assert math.isnan(pers["max_shift"])
    cert = rep["certificate"]
    assert [id(e) for e in cert.elements] == [id(o) for o in rep["orbits"]]
    assert cert.verdict == "inconclusive"
    assert cert.reasons == ["shooting lost the closed orbit at psi = pi"]
    assert cert.seeds_used == 0 and cert.limit_check == 0.0
    assert cert.recurrence == [] and cert.connection_violations == []
    assert flows == []


def test_column_tiny_delta_collapses():
    rep = mori.perturb_analysis(mori.PerturbationSpec(delta=1e-9),
                                rng=np.random.default_rng(4))
    assert rep["degenerate"]
    assert rep["certificate"].verdict == "fail"
    assert any("unit modulus" in r or "recurren" in r
               for r in rep["certificate"].reasons)


def test_perturbation_spec_validation():
    with pytest.raises(ValueError, match="delta must be positive"):
        mori.PerturbationSpec(delta=-0.01)
    with pytest.raises(ValueError, match="perturbation strengths above 0.1 "
                                         "are out of scope"):
        mori.PerturbationSpec(delta=0.2)


def test_certify_column_runs_only_the_certificate(perturb, monkeypatch,
                                                  tmp_path, capsys):
    # the dossier's checks are `mori perturb`'s; `certify` reports the
    # certificate and persistence, which rest on the orbits alone, so
    # they equal the dossier's whatever the seed
    def refuse(*args, **kwargs):
        raise AssertionError("certify ran a dossier check")

    # one worker: a refused call in a forked child would raise here
    # only when this process computes the child's share again
    monkeypatch.setattr(parallel, "_cpus", lambda: 1)

    for name in ("graph_foliation_check", "hamiltonian_residuals",
                 "_predicted_lift"):
        monkeypatch.setattr(mori, name, refuse)
    out = tmp_path / "r.json"
    assert main(["certify", "mori-column", "--json", str(out)]) == 0
    capsys.readouterr()
    rep = json.loads(out.read_text())
    want = report.certificate_dict(perturb["certificate"])
    assert (report.to_json(rep["certificate"]["elements"])
            == report.to_json(want["elements"]))
    assert (report.to_json(rep["persistence"])
            == report.to_json(perturb["persistence"]))
