"""Certificates on a height-function sphere and convexity profiles."""

import json
import math
import os
import re
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from charfol import certify, mori, parallel, policy, report
from charfol.certify import (ConvexityProfile, MorseSmaleCertificate,
                             _capture_sets, _chase, _loop_distance,
                             build_profile, capture_region,
                             check_morse_smale, standard_gamma,
                             verification_grid, verify_convex_form)
from charfol.cli import main
from charfol.contact import ContactScene, FoliationField, Hypersurface
from charfol.dynamics import (Element, Flow, classify_zero, find_zeros,
                              wrap_diff)
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
    assert north.sign == 1 and north.stable_dim == 0
    assert south.sign == -1 and south.stable_dim == 2
    assert north.hyperbolic and south.hyperbolic
    # focus pair: complex eigenvalues, matched real parts
    assert abs(north.spectrum[0].imag) > 0


def test_s2_census_sums_to_euler_characteristic(s2):
    # Poincare-Hopf on S^2: sum of (-1)^stable_dim over hyperbolic zeros
    _, zeros = s2
    assert all(z.hyperbolic for z in zeros)
    assert sum((-1) ** z.stable_dim for z in zeros) == 2


def test_certificate_passes_on_sphere(s2, sphere_seeds):
    fld, zeros = s2
    cert = check_morse_smale(fld, sphere_seeds, zeros)
    assert isinstance(cert, MorseSmaleCertificate)
    assert cert.verdict == "pass"
    assert cert.limit_check == 1.0
    assert cert.seeds_used == len(sphere_seeds)
    assert cert.transversality == "not verified"
    assert cert.connection_violations == []
    assert cert.recurrence == []
    assert cert.elements is not zeros
    assert [id(e) for e in cert.elements] == [id(z) for z in zeros]


def test_time_reversal_passes_with_same_census(s2, sphere_seeds):
    fld, zeros = s2
    cert = check_morse_smale(fld, sphere_seeds[:6], zeros, sense=-1)
    assert cert.verdict == "pass"
    assert cert.limit_check == 1.0


def test_a_chase_that_gives_up_is_inconclusive(s2, sphere_seeds,
                                               monkeypatch):
    # a chase whose integrator gives up captures nothing and proves
    # nothing either: a note per chase, and no reason to fail
    fld, zeros = s2
    monkeypatch.setattr(policy, "ODE_MAX_STEPS", 5)
    cert = check_morse_smale(fld, sphere_seeds[:2], zeros)
    assert cert.verdict == "inconclusive"
    assert cert.reasons == [] and cert.limit_check == 0.0
    assert len(cert.notes) == 4
    assert all(note.endswith(": integration gave up: step budget exhausted")
               for note in cert.notes)


def test_no_seeds_is_inconclusive(s2):
    fld, zeros = s2
    cert = check_morse_smale(fld, [], zeros)
    assert cert.verdict == "inconclusive"
    assert cert.seeds_used == 0 and cert.limit_check == 0.0
    assert cert.reasons == []
    assert cert.notes == ["no usable seeds; nothing was sampled"]


def test_doctored_signs_raise_connection_violation(s2, sphere_seeds):
    fld, zeros = s2
    flipped = [replace(z, sign=-z.sign) for z in zeros]
    cert = check_morse_smale(fld, sphere_seeds[:4], flipped)
    assert cert.verdict == "fail"
    assert any("connection violation" in r for r in cert.reasons)
    assert cert.connection_violations
    hit = cert.connection_violations[0]
    assert set(hit) == {"from", "to", "kind"}
    assert hit["from"][2] > 0.5              # launched from the doctored source


def test_connection_violations_reach_the_json_report(s2, sphere_seeds):
    # through the report writer and back: each violation is a row of two
    # 3-float points and the kind of the element the separatrix reached
    fld, zeros = s2
    flipped = [replace(z, sign=-z.sign) for z in zeros]
    cert = check_morse_smale(fld, sphere_seeds[:4], flipped)
    rows = json.loads(report.to_json(report.certificate_dict(cert)))[
        "connection_violations"]
    assert len(rows) == len(cert.connection_violations) == 2
    for row in rows:
        assert set(row) == {"from", "to", "kind"} and row["kind"] == "zero"
        assert np.array(row["from"], dtype=float).tolist() == [0.0, 0.0, 1.0]
        assert np.array(row["to"], dtype=float).tolist() == [0.0, 0.0, -1.0]


SYNTHETIC_TORUS = {"description": "synthetic torus", "point": np.zeros(3),
                   "kind": "synthetic"}


def test_nonhyperbolic_zero_fails_fast(s2, sphere_seeds):
    fld, zeros = s2
    doctored = [replace(zeros[0], hyperbolic=False), zeros[1]]
    cert = check_morse_smale(fld, sphere_seeds, doctored)
    assert cert.verdict == "fail"
    assert any("neutral eigenvalue" in r for r in cert.reasons)
    assert cert.limit_check == 0.0
    assert cert.seeds_used == 0
    # a verified recurrence is recorded only past the hyperbolicity gate
    cert = check_morse_smale(fld, sphere_seeds, doctored,
                             recurrence=[SYNTHETIC_TORUS])
    assert cert.verdict == "fail" and cert.seeds_used == 0
    assert cert.recurrence == []
    assert not any("recurren" in r for r in cert.reasons)
    assert cert.notes == ["hyperbolicity gate failed; sampling skipped"]


def test_nonhyperbolic_orbit_fails_fast(s2, sphere_seeds):
    fld, zeros = s2
    th = np.linspace(0, 2 * np.pi, 24, endpoint=False)
    loop = np.column_stack([np.cos(th), np.sin(th), 0 * th])
    orbit = Element(kind="orbit", point=loop[0],
                    spectrum=np.array([1.0 + 0j]), sign=1, stable_dim=1,
                    hyperbolic=False, period=6.28, C=1.0, det_residual=0.0,
                    pairing_residual=0.0, div_residual=0.0, loop=loop)
    cert = check_morse_smale(fld, sphere_seeds, zeros + [orbit])
    assert cert.verdict == "fail"
    assert any("unit modulus" in r for r in cert.reasons)


def test_verified_candidate_disqualifies(s2, sphere_seeds):
    fld, zeros = s2
    cert = check_morse_smale(fld, sphere_seeds, zeros,
                             recurrence=[SYNTHETIC_TORUS])
    assert cert.verdict == "fail"
    assert cert.reasons == ["verified recurrence: synthetic torus"]
    assert cert.recurrence == [SYNTHETIC_TORUS]
    assert cert.seeds_used == 0
    assert cert.notes == ["a verified recurrence was supplied; "
                          "sampling skipped"]


def test_more_budget_never_flips_pass_to_fail(s2, sphere_seeds,
                                              monkeypatch):
    fld, zeros = s2
    cert_big = check_morse_smale(fld, sphere_seeds[:5], zeros)
    monkeypatch.setattr(policy, "FLOW_BUDGET", 2.0)
    cert_small = check_morse_smale(fld, sphere_seeds[:5], zeros)
    assert cert_big.verdict == "pass"
    assert cert_small.verdict in ("pass", "inconclusive")
    assert cert_small.limit_check <= cert_big.limit_check + 1e-12


@pytest.fixture(scope="module")
def column_orbits():
    """The column's field and its two orbits, psi = 0 then psi = pi."""
    spec = mori.PerturbationSpec()
    scene, surface, info = mori.column_scene(spec)
    field = FoliationField(scene, surface)
    return field, [mori._column_orbit(field, info["H"], psi0, spec,
                                      policy.DEFAULT)
                   for psi0 in (0.0, math.pi)]


# (census, sense, forward set, backward set) as the separate zero and
# orbit rules gave them: the sphere's sink is its south pole and its
# source the north pole; the column's psi = 0 orbit attracts (stable
# set of dimension 4) and its psi = pi orbit repels (stable_dim 1)
@pytest.mark.parametrize("census, sense, forward, backward", [
    ("s2-height", 1, ["south"], ["north"]),
    ("s2-height", -1, ["north"], ["south"]),
    ("column", 1, ["psi = 0"], ["psi = pi"]),
    ("column", -1, ["psi = pi"], ["psi = 0"]),
])
def test_capture_sets_from_one_element_list(s2, column_orbits, census,
                                            sense, forward, backward):
    if census == "s2-height":
        fld, elements = s2
        names = {id(z): "north" if z.point[2] > 0 else "south"
                 for z in elements}
    else:
        fld, elements = column_orbits
        names = dict(zip(map(id, elements), ["psi = 0", "psi = pi"]))
        assert [o.stable_dim for o in elements] == [4, 1]
    regions = [capture_region(fld, el, policy.DEFAULT,
                              [o for o in elements if o is not el])
               for el in elements]
    fw, bw = _capture_sets(fld, elements, regions, sense)
    assert [names[id(cap.element)] for cap in fw] == forward
    assert [names[id(cap.element)] for cap in bw] == backward
    for cap in fw + bw:
        # each region is tested near its element, which it holds
        assert cap.near(cap.element.point) < 1e-12 < cap.reach
        assert cap.V(cap.element.point) == 0.0 < cap.level


def test_regions_stay_with_their_elements_given_orbits_first(
        monkeypatch, s2, column_orbits):
    # regions[i] is computed for elements[i] from the rest of the census,
    # whatever the order: zeros in the calling process, orbits side by
    # side. Only the bookkeeping is checked, so the spies stand in for
    # the regions and the capture sets (the census mixes two fields)
    monkeypatch.setattr(parallel, "_cpus", lambda: 2)
    fld, orbits = column_orbits
    elements = [*orbits, *s2[1]]
    parent, sets = os.getpid(), []

    def index(el):
        return [e is el for e in elements].index(True)

    def spy_region(field, el, tols, others):
        return index(el), os.getpid() == parent, sorted(map(index, others))

    def spy_sets(field, els, regions, sense):
        sets.append((list(map(index, els)), regions))
        return [], []

    monkeypatch.setattr(certify, "capture_region", spy_region)
    monkeypatch.setattr(certify, "_capture_sets", spy_sets)
    cert = check_morse_smale(fld, [], elements)
    assert [el.kind for el in elements] == ["orbit"] * 2 + ["zero"] * 2
    assert sets == [([0, 1, 2, 3], cert.regions)]
    assert cert.regions == [(0, True, [1, 2, 3]), (1, False, [0, 2, 3]),
                            (2, True, [0, 1, 3]), (3, True, [0, 1, 2])]


def _min_ratio(fld, region, el, points):
    """min V/level of an element's region over points."""
    xi = wrap_diff(fld.scene.chart, points, el.point) @ region["basis"]
    v = np.einsum("ij,jk,ik->i", xi, region["P"], xi)
    return float(np.min(v)) / region["level"]


def test_a_region_holds_no_other_element_of_the_census(monkeypatch):
    # with the ladder started at outer radius 3.2, each of the column's
    # orbits at delta = 0.1 confirms the first rung on its own, a region
    # that holds points of the other orbit's loop (min V/level 0.955).
    # Given the census, the level halves. At 0.8 the minimum is 15.3 and
    # no region moves
    spec = mori.PerturbationSpec(delta=0.1)
    scene, surface, info = mori.column_scene(spec)
    fld = FoliationField(scene, surface)
    orbits = [mori._column_orbit(fld, info["H"], psi0, spec, policy.DEFAULT)
              for psi0 in (0.0, math.pi)]
    for el, other in (orbits, orbits[::-1]):
        alone, census = (capture_region(fld, el, policy.DEFAULT, others)
                         for others in ((), [other]))
        assert census["level"] == alone["level"]
        assert _min_ratio(fld, census, el, other.loop) == pytest.approx(
            15.27, abs=0.01)
    monkeypatch.setattr(certify, "LADDER_RADIUS", 3.2)
    for el, other in (orbits, orbits[::-1]):
        alone, census = (capture_region(fld, el, policy.DEFAULT, others)
                         for others in ((), [other]))
        assert alone["radii"][0] == pytest.approx(3.2)
        assert _min_ratio(fld, alone, el, other.loop) == pytest.approx(
            0.955, abs=1e-3)
        assert census["level"] == 0.5 * alone["level"]
        assert census["radii"][0] == pytest.approx(3.2 / math.sqrt(2.0))
        assert _min_ratio(fld, census, el, other.loop) == pytest.approx(
            1.909, abs=1e-3)


def sink_saddle_setup():
    # alpha = -(dz + x dy) on the graph z = x^2/2 + y^2/2 + 2y^3/3: a sink
    # (a focus) at the origin and a saddle half a unit away, at y = -1/2
    ch = Chart(["x", "y", "z"])
    x_, y_, _ = ch.vars()
    scene = ContactScene(KForm(ch, 1, {(1,): -x_, (2,): ch.constant(-1.0)}),
                         name="sink-saddle",
                         domain={"x": (-2.0, 2.0), "y": (-2.0, 2.0)})
    f = x_ * x_ * 0.5 + y_ * y_ * 0.5 + y_ * y_ * y_ * (2.0 / 3.0)
    fld = FoliationField(scene, Hypersurface.graph("z", f))
    pts = find_zeros(fld, [np.array([0.01, 0.02, 0.0]),
                           np.array([0.01, -0.48, 0.0])])
    return fld, [classify_zero(fld, p) for p in pts]


def test_a_sinks_region_excludes_the_saddle_beside_it():
    fld, zeros = sink_saddle_setup()
    saddle, sink = sorted(zeros, key=lambda z: z.stable_dim)
    assert (saddle.stable_dim, sink.stable_dim) == (1, 2)
    assert capture_region(fld, saddle) is None
    region = capture_region(fld, sink)
    assert region["sense"] == 1 and region["level"] > 0.0
    # the saddle lies within the region's outer radius, but V > level there
    gap = saddle.point - sink.point
    assert np.linalg.norm(gap) < region["radii"][0]
    xi = gap @ region["basis"]
    assert xi @ region["P"] @ xi > region["level"]


@pytest.mark.parametrize("kind", ["orbit", "zero"])
def test_the_ladder_halves_past_rungs_that_leave_the_domain(
        monkeypatch, column_orbits, kind):
    # the first rungs, raised far past 0.8, take the sample out of the
    # domain (a zero's shells; an orbit's points, or their returns): the
    # level halves to a confirmed power-of-two fraction of the first
    # rung, measured 1/8 at outer radius 40 for the column's psi = 0
    # orbit and 1/256 at 8 for the sink, whose domain is |x|, |y| < 2.
    # The ladder's mechanics only: that radius-14 orbit region wraps psi
    # and holds points of the other orbit's loop (min V/level 0.049 over
    # the psi = pi loop), which is why the start stays at 0.8
    if kind == "orbit":
        fld, orbits = column_orbits
        el, radius, fraction = orbits[0], 40.0, 1 / 8
    else:
        fld, zeros = sink_saddle_setup()
        el = max(zeros, key=lambda z: z.stable_dim)
        radius, fraction = 8.0, 1 / 256
    monkeypatch.setattr(certify, "LADDER_RADIUS", radius)
    region = capture_region(fld, el)
    first = radius ** 2 * np.linalg.eigvalsh(region["P"])[0]
    assert region["level"] == first * fraction
    assert region["radii"][0] == pytest.approx(radius * fraction ** 0.5)
    assert 0.0 < region["reach"] <= region["radii"][0] * (1.0 + 1e-12)
    # with one rung nothing is confirmed, and the region captures no chase
    monkeypatch.setattr(certify, "LADDER_RUNGS", 1)
    region = capture_region(fld, el)
    assert region["level"] == region["reach"] == 0.0
    monkeypatch.setattr(policy, "FLOW_BUDGET", 60.0)
    fw, bw = _capture_sets(fld, [el], [region], region["sense"])
    assert ([cap.element for cap in fw], bw) == ([el], [])
    captor, _, note = _chase(fld, el.point, fw, region["sense"],
                             policy.coarse(policy.DEFAULT))
    assert captor is None and note is None


def test_no_region_is_computed_where_nothing_is_chased(monkeypatch,
                                                       tmp_path, capsys):
    # classify, the shell's certificate (skipped on its verified torus)
    # and the shell reproductions compute no region and run no flow of
    # the certificate; certify s2-height does both
    monkeypatch.setattr(parallel, "_cpus", lambda: 1)
    calls = []
    region = certify.capture_region

    def spy_region(*args, **kwargs):
        calls.append("region")
        return region(*args, **kwargs)

    class Spy(Flow):
        def integrate(self, *args, **kwargs):
            calls.append("flow")
            return super().integrate(*args, **kwargs)

    monkeypatch.setattr(certify, "capture_region", spy_region)
    monkeypatch.setattr(certify, "Flow", Spy)
    base = resources.files("charfol") / "scenes"
    argvs = [["classify", f.name.removesuffix(".scene")]
             for f in sorted(base.iterdir(), key=lambda f: f.name)
             if f.name.endswith(".scene")]
    argvs += [["certify", "mori-sigma0-n2"], ["mori", "reproduce"],
              ["mori", "reproduce", "--n", "3"]]
    for argv in argvs:
        main([*argv, "--json", str(tmp_path / "r.json")])
    capsys.readouterr()
    assert len(argvs) == 8 and calls == []
    assert main(["certify", "s2-height", "--json",
                 str(tmp_path / "r.json")]) == 0
    capsys.readouterr()
    assert calls.count("region") == 2 and "flow" in calls


def flat_torus():
    # alpha = dz + x dy on R x T^2: on the torus x = 1 every leaf is a
    # closed loop of period 2 pi, with no element to be captured by
    ch = Chart(["x", "y", "z"], angular=("y", "z"))
    x_, _, _ = ch.vars()
    scene = ContactScene(KForm(ch, 1, {(1,): x_, (2,): ch.constant(1.0)}),
                         name="torus")
    return FoliationField(scene, Hypersurface(x_ - 1.0))


def test_recurrent_sampled_trajectory_fails(monkeypatch):
    fld = flat_torus()
    monkeypatch.setattr(policy, "FLOW_BUDGET", 100.0)
    cert = check_morse_smale(fld, [[1.0, 0.3, 0.5]])
    assert cert.verdict == "fail"
    assert any("recurrent" in r for r in cert.reasons)
    assert len(cert.recurrence) == 2        # forward and backward
    for rec in cert.recurrence:
        assert rec["returns"] == 50
        assert abs(rec["mean_return_time"] - 2.0 * math.pi) < 1e-9


@pytest.mark.parametrize("case", ["torus", "column"])
def test_unwound_angles_leave_the_certificate_as_it_is(monkeypatch, case):
    # moving every seed's angular coordinates by k whole periods keeps
    # the verdict, the number of recurrence records and each record's
    # returns. The tube was scaled by the unwound angles too: on the
    # column at delta = 0.005 a chase that had carried s to -1,767 got
    # a tube of 17.7 instead of 0.01 and a false witness of 50 returns
    monkeypatch.setattr(parallel, "_cpus", lambda: 1)
    if case == "torus":
        fld, elements, tols = flat_torus(), [], policy.DEFAULT
        seeds = [np.array([1.0, 0.3, 0.5])]
        monkeypatch.setattr(policy, "FLOW_BUDGET", 100.0)
        want = check_morse_smale(fld, seeds, elements, tols)
    else:
        # the column certificate's own seeds and orbits
        spec = mori.PerturbationSpec(delta=0.005)
        scene, surface, info = mori.column_scene(spec)
        fld, calls = FoliationField(scene, surface), []
        check = certify.check_morse_smale
        monkeypatch.setattr(certify, "check_morse_smale", lambda *a, **k: (
            calls.append((a, k)) or check(*a, **k)))
        want = mori.column_certificate(fld, info)["certificate"]
        (_, seeds, elements), kwargs = calls[0]
        tols = kwargs["tols"]
    ch = fld.scene.chart
    turn = np.array([ch.periods.get(name, 0.0) for name in ch.names])
    for k in (-3, 1, 100):
        cert = check_morse_smale(fld, [q + k * turn for q in seeds],
                                 elements, tols)
        assert cert.verdict == want.verdict
        assert [r["returns"] for r in cert.recurrence] == [
            r["returns"] for r in want.recurrence]
    if case == "torus":
        assert want.verdict == "fail" and len(want.recurrence) == 2
    else:
        assert want.verdict == "inconclusive" and not want.recurrence
        assert want.limit_check == 0.9


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
    doctored = [replace(zeros[0], sign=0, hyperbolic=False),
                zeros[1]]
    cert = check_morse_smale(fld, sphere_seeds, doctored)
    assert cert.verdict == "fail"
    assert any("no Liouville sign" in r for r in cert.reasons)
    assert not any("neutral eigenvalue" in r for r in cert.reasons)
    assert cert.seeds_used == 0


def test_neutral_orbit_sign_fails_the_gate(s2, sphere_seeds):
    fld, zeros = s2
    th = np.linspace(0, 2 * np.pi, 24, endpoint=False)
    loop = np.column_stack([np.cos(th), np.sin(th), 0 * th])
    # doctored so that only the sign gate can fire
    orbit = Element(kind="orbit", point=loop[0],
                    spectrum=np.array([1.0 + 0j]), sign=0, stable_dim=1,
                    hyperbolic=True, period=6.28, C=1.0, det_residual=0.0,
                    pairing_residual=0.0, div_residual=0.0, loop=loop)
    cert = check_morse_smale(fld, sphere_seeds, zeros + [orbit])
    assert cert.verdict == "fail"
    assert any("C = 1, so no Liouville sign" in r for r in cert.reasons)
    assert cert.seeds_used == 0
