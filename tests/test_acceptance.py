"""End-to-end acceptance gates.

One test per criterion, one PASS/FAIL line per criterion on stdout
(run with -s to watch them stream). Expensive artifacts (the shell
census, the perturbation dossier) are built once at module scope and
shared; stated runtime bounds are asserted on the timed construction,
not on the sharing.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from charfol import mori, policy
from charfol.certify import (build_profile, check_morse_smale,
                             standard_gamma, verification_grid,
                             verify_convex_form)
from charfol.contact import (ContactScene, FoliationField, Hypersurface,
                             _hamiltonian_solve, alpha_data_at,
                             hamiltonian_residuals)
from charfol.dynamics import classify_zero, find_zeros
from charfol.exterior import Chart, KForm


def emit(num: int, ok: bool, label: str, detail: str = ""):
    line = f"acceptance {num}: {'PASS' if ok else 'FAIL'}  {label}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def scene2():
    return mori.mori_scene(2, 0.1)


@pytest.fixture(scope="module")
def census2(scene2):
    t0 = time.perf_counter()
    cen = mori.census(scene2)
    return cen, time.perf_counter() - t0


@pytest.fixture(scope="module")
def dossier():
    t0 = time.perf_counter()
    d = mori.perturb_analysis(mori.PerturbationSpec(delta=0.05))
    return d, time.perf_counter() - t0


# 1 ------------------------------------------------------------------


def test_criterion_1_closed_form_direction(scene2):
    t0 = time.perf_counter()
    rep = mori.direction_match(scene2, count=200,
                               rng=np.random.default_rng(1))
    dt = time.perf_counter() - t0
    ok = (rep["samples"] == 200 and rep["max_angle"] < 1e-8
          and rep["factor_min"] > 0.0 and dt < 10.0)
    emit(1, ok, "closed-form field reproduced on the shell",
         f"max dev {rep['max_angle']:.2e}, {dt:.1f} s")


# 2 ------------------------------------------------------------------


def _rand_scalar(rng, dim):
    bits = []
    for _ in range(3):
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


def _rand_form(ch, deg, rng, nterms=4):
    idx = list(combinations(range(ch.dim), deg))
    comps = {}
    for _ in range(nterms):
        I = idx[int(rng.integers(0, len(idx)))]
        if I not in comps:
            comps[I] = ch.parse(_rand_scalar(rng, ch.dim))
    return KForm(ch, deg, comps)


def _iprod(w, vec):
    """The interior product i_vec w of a KForm, as `iprod` of
    test_exterior.py (test modules do not import each other)."""
    comps = {}
    for I, a in w.comps.items():
        for p, i in enumerate(I):
            J = I[:p] + I[p + 1:]
            term = a * vec[i] if p % 2 == 0 else -(a * vec[i])
            comps[J] = comps[J] + term if J in comps else term
    return w._like(w.deg - 1, comps)


def _max_abs(w):
    return max((abs(float(a)) for a in w.comps.values()), default=0.0)


def test_criterion_2_exterior_identities():
    worst_diff = worst_alg = 0.0
    for dim in (3, 5, 7):
        rng = np.random.default_rng(40 + dim)
        ch = Chart([f"x{i}" for i in range(dim)])
        f0 = KForm(ch, 0, {(): ch.parse(_rand_scalar(rng, dim))})
        a = _rand_form(ch, 1, rng)
        b = _rand_form(ch, 2, rng)
        c = _rand_form(ch, 1, rng)
        V = [ch.parse(_rand_scalar(rng, dim)) for _ in range(dim)]

        dd = [f0.d().d(), a.d().d(), b.d().d()]
        leib = a.wedge(b).d() + (a.d().wedge(b)
                                 + a.wedge(b.d()) * (-1.0)) * (-1.0)
        anti_12 = a.wedge(b) + b.wedge(a) * (-1.0)
        anti_11 = a.wedge(c) + c.wedge(a)
        round_trip = _iprod(_iprod(b.wedge(a), V), V)

        for _ in range(50):
            p = rng.uniform(-1.0, 1.0, dim)
            scale = 1.0 + _max_abs(a.wedge(b).at(p))
            for w in dd:
                worst_diff = max(worst_diff, _max_abs(w.at(p)))
            worst_diff = max(worst_diff, _max_abs(leib.at(p)) / scale)
            worst_alg = max(worst_alg, _max_abs(anti_12.at(p)) / scale,
                            _max_abs(anti_11.at(p)) / scale,
                            _max_abs(round_trip.at(p)) / scale)
    ok = worst_diff < 1e-9 and worst_alg < 1e-12
    emit(2, ok, "exterior identities in dims 3, 5, 7",
         f"derivative {worst_diff:.2e}, algebraic {worst_alg:.2e}")


# 3 ------------------------------------------------------------------


def test_criterion_3_return_map_structure(census2, dossier):
    infos = census2[0]["orbits"] + dossier[0]["orbits"]
    assert len(infos) >= 4
    worst_det = max(o.det_residual for o in infos)
    worst_pair = max(o.pairing_residual for o in infos)
    signs = all(o.hyperbolic
                and o.sign == (1 if math.log(o.C) > 0 else -1)
                and (o.sign > 0) == (o.C > 1.0) for o in infos)
    ok = worst_det < 1e-6 and worst_pair < 1e-6 and signs
    emit(3, ok, f"return-map structure on {len(infos)} hyperbolic orbits",
         f"det {worst_det:.2e}, pairing {worst_pair:.2e}")


# 4 ------------------------------------------------------------------


def test_criterion_4_shell_census(scene2, census2):
    cen, dt = census2
    con = scene2.constants
    zeros, orbits = cen["zeros"], cen["orbits"]
    zs = sorted(float(z.point[-1]) for z in zeros)
    oz = sorted(float(o.point[-1]) for o in orbits)
    loc = (len(zeros) == 2 and len(orbits) == 2
           and abs(zs[0] + con.axis_z) < 1e-8
           and abs(zs[1] - con.axis_z) < 1e-8
           and abs(oz[0] + con.orbit_z) < 1e-8
           and abs(oz[1] - con.orbit_z) < 1e-8)
    signs = ({z.sign for z in zeros} == {-1, 1}
             and {o.sign for o in orbits} == {-1, 1})
    idx = all(z.stable_dim <= 2 for z in zeros if z.sign > 0)
    idx = idx and all(o.stable_dim <= 2 for o in orbits
                      if o.sign > 0)
    ok = loc and signs and idx and dt < 120.0
    emit(4, ok, "shell census: 2 zeros + 2 orbits at the closed-form "
         "heights", f"census in {dt:.1f} s")


# 5 ------------------------------------------------------------------


def test_criterion_5_degeneracy_detection(scene2, census2):
    eps = scene2.eps

    def f(x):
        return (x - 1.0) ** 2 - eps * (2.0 * x - 1.0)

    lo, hi = 0.5, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    r_star = math.sqrt(0.5 * (lo + hi))

    cen, _ = census2
    field = scene2.field_cartesian
    rng = np.random.default_rng(5)
    seeds = field.surface_samples(rng, 20)
    probe = mori.torus_probe(scene2, rng=rng)
    cert = check_morse_smale(field, seeds, cen["zeros"] + cen["orbits"],
                             recurrence=mori.torus_recurrence(scene2, probe))
    rec = cert.recurrence
    ok = cert.verdict == "fail" and len(rec) == 1
    if ok:
        p = np.asarray(rec[0]["point"], dtype=float)
        r_found = math.hypot(p[0], p[1])
        ok = abs(r_found - r_star) < 1e-6
        detail = f"|r - r*| = {abs(r_found - r_star):.2e}"
    else:
        detail = f"verdict {cert.verdict}, {len(rec)} recurrences"
    emit(5, ok, "certificate fails on the shell with the torus localized",
         detail)


# 6 ------------------------------------------------------------------


def test_criterion_6_perturbation(dossier):
    d, dt = dossier
    orbits = d["orbits"]
    pers = d["persistence"]
    ok = (len(orbits) == 2 and all(o.hyperbolic for o in orbits)
          and not d["degenerate"]
          and abs(pers["margin"] - pers["predicted_margin"]) < 1e-4
          and d["certificate"].verdict == "pass"
          and dt < 120.0)
    emit(6, ok, "perturbed column: two hyperbolic orbits, passing "
         "certificate",
         f"margin gap {abs(pers['margin'] - pers['predicted_margin']):.1e},"
         f" {dt:.1f} s")


# 7 ------------------------------------------------------------------


def test_criterion_7_convexity_profiles():
    grid = verification_grid()
    pos = grid > 0.0
    ok, details = True, []
    for n in (1, 2, 3):
        prof = build_profile((1.0, 0.6), (1.0, -0.6), n)
        ok = ok and prof.grid_residuals > 0.0
        if n % 2 == 0:
            uvals = [prof.u.value_and_grad([s]) for s in grid]
            hvals = [prof.h1.value_and_grad([s]) for s in grid]
            u = np.array([v for v, _ in uvals])
            up = np.array([g[0] for _, g in uvals])
            h = np.array([v for v, _ in hvals])
            hp = np.array([g[0] for _, g in hvals])
            flat = np.abs(hp[pos]) < np.abs(up[pos]) * np.abs(
                h[pos] / u[pos]) ** n
            ok = ok and bool(flat.all())
        rep = verify_convex_form(prof, standard_gamma(n), samples=500,
                                 rng=np.random.default_rng(70 + n))
        ok = ok and rep["positive"] and rep["matched"] \
            and rep["samples"] == 500
        details.append(f"n={n} dev {rep['max_rel_dev']:.1e}")
    emit(7, ok, "profiles build for n in {1, 2, 3} and match the "
         "closed form", ", ".join(details))


# 8 ------------------------------------------------------------------


def test_criterion_8_hamiltonian_contract(dossier):
    rng = np.random.default_rng(8)
    worst = 0.0
    scenes = []
    ch = Chart(("x", "y", "z"))
    scenes.append((ContactScene(KForm.one_form(
        ch, [ch.constant(0.0), ch.var("x"), ch.constant(1.0)])),
        ch.parse("x^2*y + z")))
    ch2 = Chart(("x", "y", "z"))
    scenes.append((ContactScene(KForm.one_form(
        ch2, [-0.5 * ch2.var("y"), 0.5 * ch2.var("x"), ch2.constant(1.0)])),
        ch2.parse("sin(x) + 0.5*y*z")))
    g2 = standard_gamma(2)
    scenes.append((g2, g2.chart.parse("0.3*sin(th) + 0.1*x")))
    for scene, H in scenes:
        pts = scene.sample_points(rng, 100)
        rep = hamiltonian_residuals(scene, H, pts)
        worst = max(worst, rep["alpha_residual"], rep["pairing_residual"])
    # H = 1 gives the Reeb field, d/dz for dz + x dy
    reeb_dev = 0.0
    one = ch.constant(1.0)
    for p in rng.uniform(-1.0, 1.0, (100, 3)):
        a_row, M = alpha_data_at(scenes[0][0], p)
        hval, *hg = one.traced_value_and_grad(p.tolist())
        Y = _hamiltonian_solve(a_row, M, hval, np.array(hg))[1]
        reeb_dev = max(reeb_dev, float(np.max(np.abs(Y - [0.0, 0.0, 1.0]))))
    prod = dossier[0]["direction_check"]
    ok = (worst < 1e-10 and reeb_dev < 1e-10
          and prod["max_rel_dev"] < 1e-8 and prod["factor_min"] > 0.0)
    emit(8, ok, "contact-Hamiltonian defining equations and product model",
         f"residual {worst:.1e}, reeb {reeb_dev:.1e}, "
         f"product {prod['max_rel_dev']:.1e}")


# 9 ------------------------------------------------------------------


def _sphere():
    ch = Chart(("x", "y", "z"))
    x_, y_ = ch.var("x"), ch.var("y")
    alpha = KForm.one_form(ch, [-y_, x_, ch.constant(1.0)])
    scene = ContactScene(alpha, name="sphere",
                         domain={n: (-1.3, 1.3) for n in ch.names})
    surf = Hypersurface(x_ * x_ + y_ * y_ + ch.var("z") * ch.var("z") - 1.0)
    return ch, scene, surf


def test_criterion_9_invariance_suite(scene2):
    from test_invariance import (RescaledField, conformal_deviation,
                                 surface_samples)

    tols = policy.DEFAULT
    rng = np.random.default_rng(9)

    # conformal rescaling: 100 points across n = 1 and n = 2 scenes
    ch, scene, surf = _sphere()
    field = FoliationField(scene, surf)
    pts = surface_samples(scene, surf, rng, 60)
    g = 1.5 + 0.3 * ch.var("x") - 0.2 * ch.var("y") * ch.var("z")
    dev1, _ = conformal_deviation(scene, surf, g, 1, pts)
    cart = scene2.cartesian
    gch = cart.chart
    g2 = 2.0 + 0.1 * gch.var(gch.names[0]) + 0.05 * gch.var(gch.names[-1])
    pts2 = [scene2.cartesian_point(p)
            for p in mori.sample_surface_polar(scene2, rng, 40)]
    dev2, _ = conformal_deviation(cart, scene2.surface_cartesian, g2, 2,
                                  pts2)
    conformal_ok = dev1 < 1e-8 and dev2 < 1e-8

    # volume rescaling: 50 scalings x 2 zeros = 100 element checks
    zpts = find_zeros(field, [[0.05, -0.03, 0.99], [-0.04, 0.02, -0.99]],
                      tols)
    base = [classify_zero(field, p) for p in zpts]
    volume_ok, n_vol = True, 0
    for _ in range(50):
        a = rng.uniform(-0.6, 0.6, size=3)
        b = float(rng.uniform(1.1, 3.0))

        def h(p, a=a, b=b):
            return b * math.exp(float(np.dot(a, p)))

        def gh(p, a=a, b=b):
            return h(p) * a

        wrapped = RescaledField(field, h, gh)
        for z in base:
            w = classify_zero(wrapped, z.point)
            volume_ok = volume_ok and (
                w.sign == z.sign
                and int(np.sign(w.divergence)) == int(np.sign(z.divergence))
                and w.stable_dim == z.stable_dim)
            n_vol += 1

    # angular shifts on the shell: 100 points
    pol = scene2.field_polar
    pch = scene2.polar.chart
    ang = [pch.index(n) for n in pch.names if n in pch.periods]
    ang_dev = 0.0
    for p in mori.sample_surface_polar(scene2, rng, 100):
        X = pol.vector(p)
        q = np.asarray(p, dtype=float).copy()
        for i in ang:
            q[i] = (q[i] + rng.uniform(0.0, 2.0 * math.pi)) \
                % (2.0 * math.pi)
        Y = pol.vector(q)
        ang_dev = max(ang_dev, float(np.max(np.abs(Y - X))
                                     / np.max(np.abs(X))))
    angular_ok = ang_dev < 1e-9

    # time reversal: census signs swap, and the reversed certificate
    # passes over 100 sampled seeds
    rev = RescaledField(field, lambda p: -1.0)
    swap_ok = True
    for z in base:
        w = classify_zero(rev, z.point)
        swap_ok = swap_ok and (w.sign == -z.sign
                               and w.stable_dim == 2 - z.stable_dim)
    seeds = [p / np.linalg.norm(p) for p in rng.normal(size=(100, 3))]
    cert = check_morse_smale(field, seeds, base, tols=tols, sense=-1)
    reversal_ok = swap_ok and cert.verdict == "pass" \
        and cert.seeds_used == 100

    ok = conformal_ok and volume_ok and angular_ok and reversal_ok
    emit(9, ok, "invariance suite: conformal, volume, angular, reversal",
         f"conformal {max(dev1, dev2):.1e}, volume checks {n_vol}, "
         f"angular {ang_dev:.1e}, reversed seeds {cert.seeds_used}")
