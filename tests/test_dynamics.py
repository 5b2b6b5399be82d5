"""Integrator, zeros, and closed orbits against analytic flows."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charfol import cli, dynamics, jets, kernel, policy
from charfol.certify import capture_region
from charfol.contact import ContactScene, FoliationField, Hypersurface
from charfol.dynamics import (_A, _E, Flow, RefinedOrbit, _integrate_core,
                              _locate_event, _step, classify_orbit,
                              classify_zero, find_orbit, find_zeros,
                              flow_split_basis, linearize_zero, refine_zero,
                              wrap_diff)
from charfol.errors import (ConstructiveFailure, EscapeError, NoOrbitError,
                            ProjectionError)
from charfol.exterior import Chart, KForm


def linear_setup(domain=None):
    # dz + y dx + 2x dy on {z = 0}: X = (2x, -y, 0), flow diag(e^{2t}, e^{-t})
    ch = Chart(["x", "y", "z"])
    alpha = KForm.one_form(ch, [ch.var("y"), 2.0 * ch.var("x"), ch.constant(1.0)])
    scene = ContactScene(alpha, name="linear", domain=domain)
    surf = Hypersurface(ch.var("z"))
    return FoliationField(scene, surf)


def graph_setup(delta=0.3):
    ch = Chart(["t", "s", "psi"], angular=("s", "psi"))
    alpha = KForm.one_form(ch, [ch.constant(0.0), ch.var("t"), ch.constant(1.0)])
    scene = ContactScene(alpha, name="graph3")
    H = ch.parse(f"{delta} * sin(psi)")
    surf = Hypersurface.graph("t", H)
    return FoliationField(scene, surf), delta


def test_flow_matches_linear_solution():
    fld = linear_setup()
    flow = Flow(fld)
    res = flow.integrate([0.3, 0.8, 0.0], 1.25)
    want = [0.3 * math.exp(2 * 1.25), 0.8 * math.exp(-1.25), 0.0]
    assert np.allclose(res.y, want, rtol=1e-8, atol=1e-10)
    back = Flow(fld, sense=-1).integrate(res.y, 1.25)
    assert np.allclose(back.y, [0.3, 0.8, 0.0], rtol=1e-7, atol=1e-9)


def test_event_location_is_precise():
    fld = linear_setup()
    flow = Flow(fld)
    res = flow.integrate([0.5, 0.1, 0.0], 5.0, event=lambda y: y[0] - 2.0)
    assert res.status == "event"
    t_true = 0.5 * math.log(4.0)
    assert abs(res.t - t_true) < 1e-9
    assert abs(res.y[0] - 2.0) < 1e-11


def test_event_slope_comes_from_jets():
    # sin(w (x - 2)) rises through 0 where x = 0.5 e^{2t} reaches 2. Its
    # slope is read off a jet evaluation; without it, landing stops at
    # the bisection of the step's interpolant, about 3e-10 off in time.
    fld = linear_setup()
    w = math.pi / 4
    res = Flow(fld, policy.STRICT).integrate(
        [0.5, 0.1, 0.0], 5.0, event=lambda y: jets.sin(w * (y[0] - 2.0)))
    assert res.status == "event"
    assert abs(res.t - 0.5 * math.log(4.0)) < 1e-11
    assert abs(res.y[0] - 2.0) < 1e-11


def test_event_is_located_on_the_accepted_step(monkeypatch):
    # the crossing is found inside the step that detected it, on that
    # step's own map: one integration loop, no nested run, and a few
    # evaluations of the step map (6 slopes each) after the detection
    calls, slopes, located = [], [], []

    def rhs(*y):
        slopes.append(list(y))
        return (-y[1], y[0])

    def spy(*args, **kwargs):
        calls.append(args)
        return _integrate_core(*args, **kwargs)

    def locate(*args, **kwargs):
        located.append(len(slopes))
        return _locate_event(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_integrate_core", spy)
    monkeypatch.setattr(dynamics, "_locate_event", locate)
    res = dynamics._integrate_core(([rhs], None), [1.0, 0.0], 6.0,
                                   policy.DEFAULT, event=lambda y: y[1] - 0.5)
    assert res.status == "event"
    assert abs(res.t - math.pi / 6) < 1e-9
    assert abs(res.y[1] - 0.5) < 1e-13
    assert len(calls) == 1 and len(located) == 1
    assert 0 < len(slopes) - located[0] <= 4 * 6


def test_escape_raises_with_state():
    fld = linear_setup(domain={"x": (-3.0, 3.0)})
    flow = Flow(fld)
    with pytest.raises(EscapeError) as ei:
        flow.integrate([0.5, 0.1, 0.0], 5.0)
    assert ei.value.state is not None
    assert ei.value.state[0] > 3.0 - 1e-6


def test_variational_monodromy_and_divergence():
    fld = linear_setup()
    flow = Flow(fld)
    T = 0.8
    y, M, w = flow.integrate_variational([0.2, 0.5, 0.0], T, np.eye(3))
    assert np.allclose(M[:2, :2],
                       [[math.exp(2 * T), 0.0], [0.0, math.exp(-T)]],
                       rtol=1e-7, atol=1e-9)
    # divergence of (2x, -y) is 1; integral over [0, T] is T
    assert abs(w - T) < 1e-8


def test_variational_run_moves_its_basis_by_the_monodromy():
    # on the linear field the ambient Jacobian A is constant, so a run
    # carrying a d x k basis B returns V = expm(T A) B, and its state
    # has d + d k + 1 floats
    from scipy.linalg import expm
    fld = linear_setup()
    p = [0.2, 0.5, 0.0]
    A = fld.flow_data(p)[1]
    B = np.random.default_rng(5).normal(size=(3, 2))
    T = 0.8
    seen = []
    rhs = fld.variational_rhs(2)
    fld.variational_rhs = lambda k: (seen.append(k) or rhs)
    y, V, w = Flow(fld).integrate_variational(p, T, B)
    assert seen == [2] and len(rhs[0]) == 1
    assert len(rhs[0][0].at) == 3 + 3 * 2 + 1
    assert V.shape == (3, 2)
    assert np.allclose(V, expm(T * A) @ B, rtol=1e-7, atol=1e-9)
    assert abs(w - T) < 1e-8


def test_zero_refinement_and_classification():
    fld = linear_setup()
    zeros = find_zeros(fld, [[0.4, -0.3, 0.0], [0.2, 0.1, 0.0], [1e-3, 1e-3, 0.0]])
    assert len(zeros) == 1
    z = zeros[0]
    assert np.max(np.abs(z)) < 1e-9
    info = classify_zero(fld, z)
    assert sorted(info.spectrum.real) == pytest.approx([-1.0, 2.0], abs=1e-9)
    assert info.hyperbolic
    assert info.stable_dim == 1
    assert info.divergence == pytest.approx(1.0, abs=1e-10)
    assert info.sign == 1
    # tangency of the restricted linearization
    A, frame, div = linearize_zero(fld, z)
    assert A.shape == (2, 2)
    assert div == info.divergence


def test_classify_zero_runs_the_first_order_kernel_once():
    fld = linear_setup()
    calls = []
    flow_floats = fld.flow_floats
    fld.flow_floats = lambda x: calls.append(x) or flow_floats(x)
    classify_zero(fld, [0.0, 0.0, 0.0])
    assert len(calls) == 1


def test_orbit_refinement_and_return_map():
    fld, delta = graph_setup(delta=0.3)
    guess = 2 * math.pi * (1 + delta ** 2)
    orbit = find_orbit(fld, [0.05, 0.3, 0.2], guess)
    # converged onto the psi = 0 circle
    assert abs(math.sin(orbit.point[2])) < 1e-8
    assert abs(orbit.point[0]) < 1e-8
    info = classify_orbit(fld, orbit)
    want_C = math.exp(-2 * math.pi * delta)
    assert info.C == pytest.approx(want_C, rel=1e-6)
    assert info.det_residual < 1e-6
    assert info.div_residual < 1e-6
    assert info.sign == -1
    assert info.stable_dim == 2
    assert info.hyperbolic

    # the other orbit, psi = pi, is the positive one
    orbit2 = find_orbit(fld, [-0.05, 0.3, math.pi - 0.2], guess)
    info2 = classify_orbit(fld, orbit2)
    assert info2.C == pytest.approx(1.0 / want_C, rel=1e-6)
    assert info2.sign > 0 and info2.stable_dim == 1
    assert info2.sign == 1


def test_reversed_shot_classifies_as_the_forward_orbit():
    # the positive psi = pi circle, shot as a contracting orbit of the
    # reversed flow; classify_orbit inverts the multipliers and C
    fld, delta = graph_setup(delta=0.3)
    guess = 2 * math.pi * (1 + delta ** 2)
    seed = [-0.05, 0.3, math.pi - 0.2]
    fwd_orbit = find_orbit(fld, seed, guess)
    fwd = classify_orbit(fld, fwd_orbit)
    orbit = find_orbit(fld, seed, guess, sense=-1)
    assert orbit.period == pytest.approx(fwd_orbit.period, rel=1e-8)
    assert orbit.div_integral < 0.0 < fwd_orbit.div_integral
    info = classify_orbit(fld, orbit)
    assert info.C == pytest.approx(fwd.C, rel=1e-6)
    assert np.sort(np.abs(info.spectrum)) == pytest.approx(
        np.sort(np.abs(fwd.spectrum)), rel=1e-6)
    assert info.sign == 1
    assert (info.stable_dim, info.hyperbolic) == (fwd.stable_dim, True)
    raw = classify_orbit(fld, replace(orbit, sense=1))
    assert info.C == 1.0 / raw.C
    assert info.det_residual == raw.det_residual


def test_orbit_is_classified_in_the_sense_it_was_shot():
    # a reversed shot carries its sense: classified without arguments it
    # is the forward orbit, not the reversed flow's
    fld, delta = graph_setup(delta=0.3)
    guess = 2 * math.pi * (1 + delta ** 2)
    seed = [-0.05, 0.3, math.pi - 0.2]
    fwd_orbit = find_orbit(fld, seed, guess)
    orbit = find_orbit(fld, seed, guess, sense=-1)
    assert (fwd_orbit.sense, orbit.sense) == (1, -1)
    fwd, info = classify_orbit(fld, fwd_orbit), classify_orbit(fld, orbit)
    assert (info.sign, info.stable_dim, info.hyperbolic) == (
        fwd.sign, fwd.stable_dim, fwd.hyperbolic) == (1, 1, True)
    assert info.C == pytest.approx(fwd.C, rel=1e-6)
    assert np.sort(np.abs(info.spectrum)) == pytest.approx(
        np.sort(np.abs(fwd.spectrum)), rel=1e-6)


def test_an_orbit_shot_either_way_gets_one_region():
    # the positive psi = pi circle attracts in reversed time. Shot
    # forward, where it expands, its return map has every multiplier
    # outside the unit circle, and its capture region inverts it. Each
    # orbit is taken alone, without a loop: with no other element of a
    # census there is no point to exclude, and no loop is needed
    fld, delta = graph_setup(delta=0.3)
    guess = 2 * math.pi * (1 + delta ** 2)
    seed = [-0.05, 0.3, math.pi - 0.2]
    fwd, back = (classify_orbit(fld, find_orbit(fld, seed, guess, sense=s))
                 for s in (1, -1))
    assert np.all(np.abs(np.linalg.eigvals(fwd.return_map)) > 1.0)
    assert np.all(np.abs(np.linalg.eigvals(back.return_map)) < 1.0)
    a, b = capture_region(fld, fwd), capture_region(fld, back)
    assert a["sense"] == b["sense"] == -1
    assert list(a["radii"]) == pytest.approx([0.8]) == list(b["radii"])
    # measured 0.6551028127850894 and 0.6551028128345955
    assert a["level"] == pytest.approx(b["level"], rel=1e-9)
    assert a["P"] == pytest.approx(b["P"], rel=1e-9)


def test_stalled_zero_seed_gives_up_early():
    # on graph-model this random seed reaches a plateau at residual
    # 1.26e-4, off every zero, at Newton step 25; refine_zero gives up
    # 3 steps into it, not after all 40
    doc = cli._resolve_scene("graph-model")
    fld = FoliationField(doc.scene, doc.surface)
    steps = []
    vector_and_jacobian = fld.vector_and_jacobian
    fld.vector_and_jacobian = lambda x: (steps.append(x)
                                         or vector_and_jacobian(x))
    seed = [0.7602700222616668, 0.5444067868791745, -1.10641822785203]
    with pytest.raises(ConstructiveFailure,
                       match=r"^zero refinement stalled at residual 1\.260e-04$"):
        refine_zero(fld, seed)
    assert len(steps) == 28 < policy.DEFAULT.newton_max_iter


def test_a_field_failure_at_the_seed_is_raised():
    # the field fails at the projected seed itself: the seed is bad, not
    # a refinement that went astray, so the error is raised and
    # find_zeros does not drop the seed silently
    fld = linear_setup()

    def fail(x):
        raise ValueError("field undefined at the seed")

    fld.vector_and_jacobian = fail
    with pytest.raises(ValueError, match="^field undefined at the seed$"):
        refine_zero(fld, [0.1, 0.2, 0.0])
    with pytest.raises(ValueError, match="^field undefined at the seed$"):
        find_zeros(fld, [[0.1, 0.2, 0.0]])


def _shot_periods(monkeypatch, fail=lambda k: False, error=ProjectionError):
    """The periods of the variational runs of one find_orbit on the
    graph model's psi = 0 circle, and its result; run k raises `error`
    where fail(k) holds."""
    periods = []
    variational = Flow.integrate_variational

    def spy(self, y0, tmax, basis):
        periods.append(tmax)
        if fail(len(periods) - 1):
            raise error("projection did not converge")
        return variational(self, y0, tmax, basis)

    fld, delta = graph_setup(delta=0.3)
    guess = 2 * math.pi * (1 + delta ** 2)
    with monkeypatch.context() as mp:
        mp.setattr(Flow, "integrate_variational", spy)
        return periods, find_orbit(fld, [0.05, 0.3, 0.2], guess)


def test_a_trial_that_does_not_project_halves_the_step(monkeypatch):
    # the first trial (run 1, lambda = 1) fails to project; the next
    # trial takes half the step, and the orbit is still found
    plain, orbit = _shot_periods(monkeypatch)
    failing, again = _shot_periods(monkeypatch, fail=lambda k: k == 1)
    assert failing[1] == plain[1]
    assert failing[2] - plain[0] == pytest.approx(0.5 * (plain[1] - plain[0]),
                                                  rel=1e-12)
    assert again.period == pytest.approx(orbit.period, rel=1e-9)
    assert abs(again.point[0]) < 1e-8


def test_a_value_error_of_a_trial_run_is_raised(monkeypatch):
    # a ValueError is not read as a trial that cannot run, whether the
    # trial's run raises it or its start has no section
    with pytest.raises(ValueError, match="^projection did not converge$"):
        _shot_periods(monkeypatch, fail=lambda k: k == 1, error=ValueError)


def test_the_first_trial_at_full_accuracy_is_taken(monkeypatch):
    # the first run at `tols` comes back 1e-2 off in psi, so its residual
    # is far above the coarse shot's; it is taken all the same, and the
    # next run is a Newton shot from it, not the half step of a line
    # search from the coarse shot
    runs = []
    variational = Flow.integrate_variational

    def spy(self, y0, tmax, basis):
        y, V, w = variational(self, y0, tmax, basis)
        if self.tols == policy.DEFAULT and all(t != self.tols
                                               for t, _ in runs):
            y = y + np.array([0.0, 0.0, 1e-2])
        runs.append((self.tols, tmax))
        return y, V, w

    fld, delta = graph_setup(delta=0.3)
    guess = 2 * math.pi * (1 + delta ** 2)
    plain = find_orbit(fld, [0.05, 0.3, 0.2], guess)
    monkeypatch.setattr(Flow, "integrate_variational", spy)
    orbit = find_orbit(fld, [0.05, 0.3, 0.2], guess)
    tols = [t for t, _ in runs]
    k = tols.index(policy.DEFAULT)
    assert k >= 1 and len(runs) > k + 1
    assert tols[:k] == [policy.coarse(policy.DEFAULT)] * k
    (_, T0), (_, T1), (_, T2) = runs[k - 1:k + 2]
    assert T2 != pytest.approx(T0 + 0.5 * (T1 - T0), rel=1e-12)
    assert abs(T2 - T1) < abs(T1 - T0)
    assert orbit.period == pytest.approx(plain.period, rel=1e-9)


def test_a_trial_that_runs_is_the_next_shot(monkeypatch):
    # the first coarse trial (run 1) comes back 0.3 off in psi, far above
    # the first shot's residual; it is still the next shot, so run 2 is a
    # Newton step from it and not the half step from run 0, and the orbit
    # is the unperturbed one
    runs = []
    variational = Flow.integrate_variational

    def spy(self, y0, tmax, basis):
        y, V, w = variational(self, y0, tmax, basis)
        if len(runs) == 1:
            y = y + np.array([0.0, 0.0, 0.3])
        runs.append(tmax)
        return y, V, w

    fld, delta = graph_setup(delta=0.3)
    guess = 2 * math.pi * (1 + delta ** 2)
    plain = find_orbit(fld, [0.05, 0.3, 0.2], guess)
    monkeypatch.setattr(Flow, "integrate_variational", spy)
    orbit = find_orbit(fld, [0.05, 0.3, 0.2], guess)
    T0, T1, T2 = runs[:3]
    assert T2 != pytest.approx(T0 + 0.5 * (T1 - T0), rel=1e-9)
    assert orbit.period == pytest.approx(plain.period, rel=1e-9)
    assert abs(orbit.point[0]) < 1e-8


def test_a_first_shot_that_does_not_project_finds_no_orbit(monkeypatch):
    # one attempt: no second loop starts from the seed
    runs = []
    with pytest.raises(NoOrbitError,
                       match=r"^shooting could not complete a loop "
                             r"\(projection did not converge\)$"):
        _shot_periods(monkeypatch, fail=lambda k: runs.append(k) or True)
    assert runs == [0]


def test_no_orbit_from_zero_seed():
    fld = linear_setup()
    with pytest.raises(NoOrbitError):
        find_orbit(fld, [1e-14, 1e-14, 0.0], 1.0)


def test_wrap_diff_reduces_angular():
    ch = Chart(["a", "b"], angular=("b",))
    d = wrap_diff(ch, [1.0, 6.2], [0.5, 0.1])
    assert d[0] == pytest.approx(0.5)
    assert d[1] == pytest.approx(6.1 - 2 * math.pi)


class ZeroDivergenceField:
    """The linear field with its divergence forced to exactly 0."""

    def __init__(self, base):
        self.base = base
        self.scene = base.scene
        self.surface = base.surface

    def vector_and_jacobian(self, p):
        return self.base.vector_and_jacobian(p)

    def flow_data(self, p):
        return (*self.base.vector_and_jacobian(p), 0.0)


def test_zero_divergence_gives_neutral_sign():
    info = classify_zero(ZeroDivergenceField(linear_setup()), [0.0, 0.0, 0.0])
    # the eigenvalues (-1, 2) are off the axis; the sign alone is neutral
    assert sorted(info.spectrum.real) == pytest.approx([-1.0, 2.0])
    assert info.sign == 0
    assert not info.hyperbolic


def test_unit_conformal_factor_gives_neutral_sign():
    # an identity monodromy at a regular point: the return map is the
    # identity and its conformal factor is exactly 1
    fld = linear_setup()
    p = np.array([1.0, 0.0, 0.0])
    _, S = flow_split_basis(fld, p)
    orbit = RefinedOrbit(point=p, period=1.0, section=S, monodromy=S,
                         div_integral=0.0)
    info = classify_orbit(fld, orbit)
    assert info.C == 1.0
    assert info.sign == 0


def test_float_entry_points_and_array_results():
    # the three shapes agree bit for bit: the array wrappers, the float
    # lists and the rows of the row-array functions
    fld, _ = graph_setup()
    surf = fld.surface
    p = surf.project([0.1, 0.3, 0.2])
    qs = np.array([p, [0.4, 0.3, 0.2], [-0.2, 1.0, 2.5]])
    pts = np.array([surf.project(q) for q in qs])
    rows = fld.vectors(pts)
    for i, q in enumerate(pts):
        X = fld.vector(q)
        assert X.tobytes() == np.array(fld.vector_floats(q.tolist())).tobytes()
        assert X.tobytes() == rows[i].tobytes()
        X, J, div = fld.flow_data(q)
        assert ([*X.tolist(), *J.ravel().tolist(), div]
                == list(fld.flow_floats(q.tolist())))
    projected = surf.project_samples(qs)
    assert len(projected) == len(qs)
    for q, row in zip(qs, projected):
        P = surf.project(q)
        assert P.tobytes() == np.array(surf.project_floats(q.tolist())).tobytes()
        assert P.tobytes() == row.tobytes()
    res = Flow(fld, sense=-1).integrate(p, 2.0, record=True)
    assert res.status == "time" and len(res.path) > 1
    for t, y in [(res.t, res.y), *res.path]:
        assert type(t) is float
        assert isinstance(y, np.ndarray)
        assert y.dtype == np.float64 and y.shape == (3,)


# the integrator's generated step -------------------------------------------

def _same(got, want):
    """Equal, NaN in the same places, zeros of the same sign."""
    got, want = np.array(got, dtype=float), np.array(want, dtype=float)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan], want[~nan])
    assert np.array_equal(np.signbit(got[~nan]), np.signbit(want[~nan]))


def _in_order(terms):
    """The sum of `terms`, one by one in order, from the first term."""
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    return acc


def _check_step(z, k, h, sense, atol=1e-9, rtol=1e-7):
    """`_step` for a sense against the plain-order sums and norm it is
    specified by, over the slopes k for sense 1 and over their negations
    for sense -1: every stage input, z5, k6 and enorm bit for bit."""
    lists = [kj.tolist() for kj in k]
    seen = []

    def rhs(*y):        # the given slopes, in stage order
        seen.append(y)
        return lists[len(seen)]

    def weighted(coeffs):
        return _in_order([c * (-kj if sense < 0 else kj)
                          for c, kj in zip(coeffs, k) if c])

    z5, k6, enorm = _step(len(z), sense)([rhs], None, z.tolist(), lists[0],
                                         h, atol, rtol)
    with np.errstate(all="ignore"):
        wants = [z + h * weighted(_A[i]) for i in range(1, 7)]
        err = (h * weighted(_E)
               / (atol + rtol * np.maximum(np.abs(z), np.abs(wants[-1]))))
        norm = math.sqrt(_in_order((err * err).tolist()) / len(z))
    # the last stage hands the kernel z5's own floats
    assert len(seen) == 6 and type(z5) is list
    assert len(seen[-1]) == len(z5)
    assert all(a is b for a, b in zip(seen[-1], z5))
    for got, want in zip(seen, wants):
        _same(got, want)
    assert k6 is lists[6]
    assert type(enorm) is float
    _same(enorm, norm)


SPECIAL = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])


@pytest.mark.parametrize("n", [1, 3, 5, 7, 8, 9, 16, 31])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_step_equals_numpy_sums(n, data):
    # z, k0..k6 finite, with a few entries replaced by specials; both
    # senses, sense -1 against the sums of the negated slopes
    vecs = [np.array(data.draw(st.lists(st.floats(-1e3, 1e3),
                                        min_size=n, max_size=n)))
            for _ in range(8)]
    for a, j, v in data.draw(st.lists(st.tuples(
            st.integers(0, 7), st.integers(0, n - 1), SPECIAL), max_size=3)):
        vecs[a][j] = v
    h = data.draw(st.floats(1e-6, 1.0))
    for sense in (1, -1):
        _check_step(vecs[0], vecs[1:], h, sense)


def test_negated_weights_keep_the_zero_signs():
    # a -0.0 coordinate whose stage increment is a zero of cancelling
    # terms: stepping on the negated slopes gives +0.0 there, and so
    # does sense -1, whose weights carry the sign; a step of -h on the
    # slopes themselves would give -0.0
    z, k = np.array([-0.0]), [np.array([0.0])] * 7
    _check_step(z, k, 0.5, -1)
    seen = []

    def rhs(*y):
        seen.append(y)
        return [0.0]
    _step(1, 1)([rhs], None, [-0.0], [0.0], -0.5, 1e-9, 1e-7)
    _step(1, -1)([rhs], None, [-0.0], [0.0], 0.5, 1e-9, 1e-7)
    assert math.copysign(1.0, seen[2][0]) == -1.0
    assert math.copysign(1.0, seen[8][0]) == 1.0


def _in_order_product(J, V, d, k):
    """J @ V for a d x d J and a d x k V given row by row, as flat lists:
    each entry J_i0 V_0j + J_i1 V_1j + ... summed in that order."""
    out = []
    for i in range(0, d * d, d):
        for j in range(k):
            acc = J[i] * V[j]
            for m in range(1, d):
                acc = acc + J[i + m] * V[m * k + j]
            out.append(acc)
    return out


@pytest.mark.parametrize("sense", [1, -1])
def test_flow_right_hand_sides_equal_the_entry_points(sense, monkeypatch):
    # the (kernels, fn) pairs that integrate and integrate_variational
    # hand to the loop, with the flow's sense, against vector_floats, and
    # flow_floats followed by J @ V in order, for bases of 3 and 2
    # columns, each with its own kernels
    fld, _ = graph_setup()
    rhss = []

    def spy(rhs, *args, **kwargs):
        rhss.append((rhs, kwargs["sense"]))
        return _integrate_core(rhs, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_integrate_core", spy)
    flow = Flow(fld, sense=sense)
    p = fld.surface.project([0.1, 0.3, 0.2])
    flow.integrate(p, 0.5)
    widths = (3, 2)
    for k in widths:
        flow.integrate_variational(p, 0.5, np.eye(3)[:, :k])
    assert [s for _, s in rhss] == [sense] * 3
    assert rhss[1][0][0] is not rhss[2][0][0]
    vector, *variational = (functools.partial(kernel.run, *rhs)
                            for rhs, _ in rhss)
    rng = np.random.default_rng(3)
    eps = np.finfo(float).eps
    for _ in range(5):
        q = fld.surface.project(p + rng.uniform(-0.3, 0.3, 3))
        X = list(fld.vector_floats(q.tolist()))
        out = fld.flow_floats(q.tolist())
        got_X = vector(q.tolist())
        assert np.array(got_X).tobytes() == np.array(X).tobytes()
        for k, run_k in zip(widths, variational):
            V = rng.normal(size=(3, k))
            JV = _in_order_product(out[3:-1], V.ravel().tolist(), 3, k)
            want = [*out[:3], *JV, out[-1]]
            got = run_k([*q.tolist(), *V.ravel().tolist(), 0.0])
            # the same floats; a zero's sign may differ where the kernel
            # folded a structural zero of J
            assert list(got) == want
            # and numpy's product to within its rounding bound
            J = np.array(out[3:-1]).reshape(3, 3)
            bound = 4 * eps * (np.abs(J) @ np.abs(V))
            assert np.all(np.abs(np.array(got[3:-1]).reshape(3, k) - J @ V)
                          <= bound)


def test_variational_run_backward_undoes_the_forward_run():
    # sense -1 integrates the variational system of -X: from the forward
    # run's end it comes back to the start, with the inverse monodromy
    # and the opposite divergence integral
    fld, _ = graph_setup()
    p = fld.surface.project([0.1, 0.3, 0.2])
    T = 2.0
    y, M, w = Flow(fld).integrate_variational(p, T, np.eye(3))
    y_back, M_back, w_back = Flow(fld, sense=-1).integrate_variational(
        y, T, np.eye(3))
    assert np.max(np.abs(y_back - p)) < 1e-8
    assert np.max(np.abs(M_back @ M - np.eye(3))) < 1e-7
    assert abs(w_back + w) < 1e-8
    assert abs(w) > 1e-3        # the divergence integral is not 0 here


def test_variational_run_backward_returns_the_start_basis():
    # a forward run carries the section S at p to V = M S; the backward
    # run from its end, carrying V, brings back p and S
    fld, _ = graph_setup()
    p = fld.surface.project([0.1, 0.3, 0.2])
    _, S = flow_split_basis(fld, p)
    T = 2.0
    y, V, w = Flow(fld).integrate_variational(p, T, S)
    assert V.shape == S.shape == (3, 1)
    assert np.max(np.abs(V - S)) > 1e-3     # the run moved the basis
    y_back, S_back, w_back = Flow(fld, sense=-1).integrate_variational(
        y, T, V)
    assert np.max(np.abs(y_back - p)) < 1e-8
    assert np.max(np.abs(S_back - S)) < 1e-7
    assert abs(w_back + w) < 1e-8


def test_reversed_flow_is_the_forward_flow_of_the_negated_field():
    # sense -1 is the sign of the step's weights: integrate, with an
    # event located inside a step, and integrate_variational give the
    # bytes of forward runs along the negated kernels' slopes
    fld, _ = graph_setup()
    surf, in_domain = fld.surface, fld.scene.in_domain
    p = surf.project([0.1, 0.3, 0.2])
    back = Flow(fld, sense=-1)

    def forward(rhs, z0, post, **kwargs):
        neg = ([lambda *z: [-c for c in kernel.run(*rhs, list(z))]], None)
        return _integrate_core(neg, z0, 2.0, policy.DEFAULT, post=post,
                               domain_ok=in_domain, **kwargs)

    res = back.integrate(p, 2.0, record=True)
    want = forward(fld.vector_rhs, p, surf.project_floats, record=True)
    assert res.t == want.t and len(res.path) == len(want.path) > 5
    assert all(t == u and y.tobytes() == w.tobytes()
               for (t, y), (u, w) in zip(res.path, want.path))
    # a level of s between two accepted states, crossed upward
    (_, a), (_, b) = res.path[3], res.path[4]
    mid, up = 0.5 * (a[1] + b[1]), 1 if b[1] > a[1] else -1
    def ev(y):
        return up * (y[1] - mid)

    res = back.integrate(p, 2.0, event=ev)
    want = forward(fld.vector_rhs, p, surf.project_floats, event=ev)
    assert res.status == want.status == "event"
    assert res.t == want.t and res.y.tobytes() == want.y.tobytes()
    assert abs(res.y[1] - mid) < 1e-12

    y, M, w = back.integrate_variational(p, 2.0, np.eye(3))
    z0 = [*p.tolist(), *np.eye(3).ravel().tolist(), 0.0]
    want = forward(fld.variational_rhs(3), z0,
                   lambda z: [*surf.project_floats(z[:3]), *z[3:]]).y
    assert np.concatenate([y, M.ravel(), [w]]).tobytes() == want.tobytes()


def test_pivot_change_inside_a_step_goes_through_run():
    # on the sphere the pivot is the largest |coordinate|: this run
    # starts with z largest and ends with y largest, so a step's stages
    # miss the front kernel. It has the bytes, and the kernel lists, of
    # a run that sends every stage through kernel.run, and ends with the
    # new pivot's kernel at the front; a second run moves the kernels
    doc = cli._resolve_scene("s2-height")

    def pivot(x):
        return int(np.argmax(np.abs(x)))

    fld = FoliationField(doc.scene, doc.surface)
    ref = FoliationField(doc.scene, doc.surface)
    every = ([lambda *y: kernel.run(*ref.vector_rhs, list(y))], None)
    p = fld.surface.project([0.5, 0.2, 0.8])
    for _ in range(2):
        res = Flow(fld).integrate(p, 1.0, record=True)
        want = _integrate_core(every, p, 1.0, policy.DEFAULT,
                               post=fld.surface.project_floats,
                               domain_ok=fld.scene.in_domain, record=True)
        assert len(res.path) == len(want.path)
        assert all(t == u and y.tobytes() == w.tobytes()
                   for (t, y), (u, w) in zip(res.path, want.path))
        assert (pivot(p), pivot(res.y)) == (2, 1)
        kernels = fld.vector_rhs[0]
        assert [k.at for k in kernels] == [k.at for k in ref.vector_rhs[0]]
        assert len(kernels) == 2 and pivot(kernels[0].at) == pivot(res.y)
        assert kernels[0](*res.y.tolist()) is not None


@pytest.mark.parametrize("sense", [1, -1])
def test_numpy_time_spans_feed_the_kernels_python_floats(sense, monkeypatch):
    # the kernels take Python floats: a numpy tmax must not turn the
    # step size, and so every stage input, into numpy scalars
    fld, _ = graph_setup()
    kinds = set()

    def spy(rhs, *args, **kwargs):
        def typed(*z):
            kinds.update(type(v) for v in z)
            return kernel.run(*rhs, list(z))
        return _integrate_core(([typed], None), *args, **kwargs)

    monkeypatch.setattr(dynamics, "_integrate_core", spy)
    flow = Flow(fld, sense=sense)
    p = fld.surface.project([0.1, 0.3, 0.2])
    variational = functools.partial(flow.integrate_variational,
                                    basis=np.eye(3))
    for go, state in ((flow.integrate, lambda r: r.y),
                      (variational, lambda r: r[0])):
        kinds.clear()
        res = go(p, np.float64(0.5))
        assert kinds == {float}
        assert state(res).tobytes() == state(go(p, 0.5)).tobytes()


# first same as last ------------------------------------------------------

def _counted_rotation():
    """The rotation y' = (-y1, y0) as a one-kernel right-hand side, and
    the list of states it ran at."""
    seen = []

    def rhs(*y):
        seen.append(list(y))
        return (-y[1], y[0])
    return ([rhs], None), seen


def _steps(post):
    rhs, seen = _counted_rotation()
    res = _integrate_core(rhs, [1.0, 0.0], 6.0, policy.DEFAULT, post=post,
                          record=True)
    return res, len(res.path) - 1, seen


def test_accepted_step_reuses_the_last_stage_slope():
    # a post that returns the last stage input's own floats: the first
    # slope of the next step is the last stage's; new floats with the
    # same values: one more call per accepted step, and the same bits
    same, accepted, seen = _steps(lambda z: z)
    copied, accepted2, seen2 = _steps(lambda z: [v + 0.0 for v in z])
    assert accepted == accepted2 > 10 and same.steps == copied.steps
    assert len(seen) == 1 + 6 * same.steps
    assert len(seen2) == 1 + 6 * same.steps + accepted
    assert same.y.tobytes() == copied.y.tobytes()
    assert [y.tobytes() for _, y in same.path] == \
        [y.tobytes() for _, y in copied.path]


def test_no_reuse_where_post_moves_the_state():
    # a projection onto the unit circle moves every accepted state, and
    # each next step starts from the slope at the projected state
    def post(z):
        r = math.hypot(*z)
        return [v / r for v in z]

    res, accepted, seen = _steps(post)
    assert accepted > 10
    assert len(seen) == 1 + 6 * res.steps + accepted
    starts = [y.tolist() for _, y in res.path[1:]]
    assert all(s in seen for s in starts)
