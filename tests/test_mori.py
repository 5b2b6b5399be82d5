"""Mori hypersurface family: reference field, census, invariant torus, column model.

Oracles are computed here, independently of the package: the saddle ring
radius by bisection on the defining quadratic, zero/orbit heights in closed
form, orbit exponents from the reduced rates, and the column-model
multipliers from a 1-D quadrature of the bump profile.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from charfol import mori, policy
from charfol.contact import FoliationField, graph_foliation_check, hamiltonian_residuals
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
    # z = 0, r = 0.5, mass split evenly between the rho_i
    p = scene.polar_point(z=0.0, r=0.5, theta=0.3, rho=[None], phi=[1.1])
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


def test_direction_match_catches_mutation(scene):
    def flip(point, vec):
        out = np.array(vec, dtype=float)
        out[scene.polar.chart.index("phi1")] *= -1.0
        return out

    rep = mori.direction_match(scene, count=20, rng=np.random.default_rng(5),
                               mutate=flip)
    assert rep["max_angle"] > 1e-3


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
    z, r, rho = mori.torus_base_point(scene)
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


def test_census_zeros(scene, census):
    zeros = census["zeros"]
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
        assert z.liouville_sign == (-1 if z.point[iz] > 0 else 1)
    assert zeros[0].liouville_sign * zeros[1].liouville_sign == -1


def test_census_orbits(scene, census):
    orbits = census["orbits"]
    assert len(orbits) == 2
    names = scene.cartesian.chart.names
    iz = names.index("z")
    c = scene.constants
    for o in orbits:
        z = float(o.info.point[iz])
        assert abs(abs(z) - c.orbit_z) < 1e-8
        r = math.hypot(o.info.point[names.index("x")], o.info.point[names.index("y")])
        assert abs(r - 1.0) < 1e-8
        assert o.info.hyperbolic
        assert o.info.positive == (z > 0)
        assert o.info.liouville_sign == (1 if z > 0 else -1)
        assert o.info.det_residual < 1e-6
        assert o.info.pairing_residual < 1e-6
        assert o.info.div_residual < 1e-6
    pos = [o for o in orbits if o.info.positive]
    neg = [o for o in orbits if not o.info.positive]
    assert len(pos) == 1 and len(neg) == 1
    assert pos[0].info.stable_index <= 2
    moduli = np.abs(neg[0].info.multipliers)
    assert int(np.sum(moduli > 1.0)) <= 2


def test_orbit_exponents_closed_form(census):
    # per-loop log multipliers are parametrization invariants:
    # {4 pi / sqrt(eps), 2 pi / sqrt(eps) twice}, sign following the orbit height
    a = 2.0 * math.pi / math.sqrt(EPS)
    for o in census["orbits"]:
        sgn = 1.0 if o.info.positive else -1.0
        got = np.sort(np.log(np.abs(o.info.multipliers)))
        want = np.sort(sgn * np.array([2.0 * a, a, a]))
        assert float(np.max(np.abs(got - want))) < 1e-6 * 2.0 * a
        assert abs(math.log(o.info.C) - sgn * 2.0 * a) < 1e-6 * 2.0 * a


def test_orbit_closedness_dynamic(scene, census):
    # one full loop in the contracting time direction returns to the start
    rep = mori.verify_orbit_closure(scene, census["orbits"])
    assert rep["max_return_gap"] < 1e-6
    assert rep["max_period_dev"] < 1e-6


def test_shooting_refuses_edge_orbit(scene, census):
    # the return map amplifies noise by e^(2 pi / sqrt(eps)) per transverse
    # direction and loop, so shooting from an offset seed has to fail
    field = scene.field_cartesian
    o = next(o for o in census["orbits"] if o.info.positive)
    seed = np.array(o.info.point, dtype=float)
    seed[scene.cartesian.chart.index("z")] += 1e-3
    tols = policy.replace(policy.DEFAULT, newton_max_iter=4,
                          ode_max_steps=4000)
    with pytest.raises(NoOrbitError):
        find_orbit(field, seed, o.info.period, tols)


def test_shooting_refuses_torus_circle(scene):
    z, r, rho = mori.torus_base_point(scene)
    p = mori.cartesian_lift(scene, (z, r, rho), theta=0.4, phi=1.9)
    field = scene.field_cartesian
    T = mori.torus_loop_time(scene)
    tols = policy.replace(policy.DEFAULT, newton_max_iter=3,
                          ode_max_steps=4000)
    with pytest.raises(NoOrbitError):
        find_orbit(field, p, T, tols)


def test_phase_portrait(scene):
    rows = mori.phase_portrait_data(scene, trajectories=6, span=2.5)
    assert {"id", "t", "z", "r", "rho"} <= set(rows[0])
    for row in rows:
        res = mori.reduced_constraint(scene, (row["z"], row["r"], row["rho"]))
        assert abs(res) < 1e-8


class BuggyBatch:
    """A scalar field whose evaluation on coordinate arrays, the batched
    projection of the census seeds, fails with a bug."""

    def __init__(self, F):
        self.F = F

    def __getattr__(self, name):
        return getattr(self.F, name)

    def value_and_grad(self, point):
        if isinstance(point[0], np.ndarray):
            raise RuntimeError("bug in projection")
        return self.F.value_and_grad(point)


def test_census_lets_projection_bugs_propagate():
    scene = mori.mori_scene(2, 0.1)
    surf = scene.surface_cartesian
    surf.F = BuggyBatch(surf.F)
    with pytest.raises(RuntimeError, match="bug in projection"):
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
        sgn = 1.0 if o.info.positive else -1.0
        want = np.sort(sgn * A * I * np.array([1.0, 0.5, 0.5]))
        got = np.sort(np.log(np.abs(o.info.multipliers)))
        assert float(np.max(np.abs(got - want))) < 1e-4 * A * I
        assert abs(math.log(o.info.C) - sgn * A * I) < 1e-4 * A * I
        assert abs(abs(o.psi) - (0.0 if o.info.positive is False else math.pi)) < 1e-6
        assert o.transverse_shift < 1e-8
        assert o.info.det_residual < 1e-6
        assert o.info.pairing_residual < 1e-6
    signs = sorted(o.info.liouville_sign for o in orbits)
    assert signs == [-1, 1]


def test_column_orbit_angles_are_stable(perturb):
    # psi is wrapped to [-pi/2, 3pi/2): the contracting orbit reads 0 and
    # the expanding one +pi, whichever side of pi Newton stops on
    psi = sorted(o.psi for o in perturb["orbits"])
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
        sgn = 1.0 if o.info.positive else -1.0
        assert abs(math.log(o.info.C) - sgn * A * I) < 1e-7 * A * I


def test_column_shooting_reuses_variational_trials(monkeypatch):
    # the expanding orbit converges in a handful of variational shots; a
    # line search scored with plain runs, a different discretisation from
    # the residual, stalls it at lambda = 1/8 (19 variational, 57 plain)
    spec = mori.PerturbationSpec()
    scene, surface, info = mori.column_scene(spec)
    field = FoliationField(scene, surface)
    calls = {"variational": 0, "plain": 0}
    variational, plain = Flow.integrate_variational, Flow.integrate

    def count_variational(self, *args, **kw):
        calls["variational"] += 1
        return variational(self, *args, **kw)

    def count_plain(self, *args, **kw):
        calls["plain"] += 1
        return plain(self, *args, **kw)

    monkeypatch.setattr(Flow, "integrate_variational", count_variational)
    monkeypatch.setattr(Flow, "integrate", count_plain)
    orbit = mori._column_orbit(field, info["H"], math.pi, spec,
                               policy.DEFAULT)
    assert orbit.info.positive
    assert calls["variational"] <= 8
    assert calls["plain"] == 0


def test_certificate_tols_follow_profile():
    for tols in (policy.DEFAULT, policy.STRICT, policy.FAST):
        ct = mori._certificate_tols(tols)
        assert ct.ode_max_step == 2.0 and ct.flow_budget == 900.0
        assert ct.ode_rtol == pytest.approx(100.0 * tols.ode_rtol, rel=1e-12)
        assert ct.ode_atol == pytest.approx(10.0 * tols.ode_atol, rel=1e-12)
        assert ct.newton_tol == tols.newton_tol
    ct = mori._certificate_tols(policy.DEFAULT)
    assert (ct.ode_rtol, ct.ode_atol) == (1e-7, 1e-9)


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


def test_column_tiny_delta_collapses():
    rep = mori.perturb_analysis(mori.PerturbationSpec(delta=1e-9),
                                rng=np.random.default_rng(4))
    assert rep["degenerate"]
    assert rep["certificate"].verdict == "fail"
    assert any("unit modulus" in r or "recurren" in r
               for r in rep["certificate"].reasons)


def test_perturbation_spec_validation():
    with pytest.raises(ValueError):
        mori.PerturbationSpec(delta=-0.01)
    with pytest.raises(ValueError):
        mori.perturb_analysis(mori.PerturbationSpec(delta=0.2))
