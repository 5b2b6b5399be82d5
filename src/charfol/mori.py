"""A family of rotationally symmetric hypersurfaces with a known foliation.

The family lives in R^(2n+1) and is served in two charts: a polar chart
where the structure formulas are short, and a cartesian chart that stays
regular on the coordinate axes, which is where all the interesting
dynamics sits (the zeros and the closed orbits are polar-degenerate).
The divergence sign of the characteristic field does not depend on the
chart or on the choice of volume, so census signs carry over.

The census exploits the circle symmetry. Closed orbits are rigid
rotations, so their location reduces to a one dimensional root find and
their monodromy has the exact rotating-frame form exp(T (J - w G)) with
G the rotation generator. This is not a shortcut for convenience: the
transverse log-multipliers are of size 2 pi / sqrt(eps) per loop, so a
shooting method would have to invert a return map that amplifies
floating point noise by seventeen orders of magnitude. The module keeps
find_orbit for the perturbation model, where the multipliers are
moderate and each orbit is shot in the time direction where it
contracts; the test suite shows that forward shooting refuses the stiff
cases.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from . import certify, jets, kernel, parallel, policy
from .contact import (ContactScene, FoliationField, Hypersurface,
                      _hamiltonian_solve, alpha_data_at, direction_fit,
                      graph_foliation_check, hamiltonian_residuals)
from .dynamics import (Element, Flow, RefinedOrbit, _integrate_core,
                       classify_orbit, classify_zero, find_orbit, find_zeros,
                       flow_split_basis)
from .errors import ConstructiveFailure, NoOrbitError, PolarDomainError
from .exterior import Chart, KForm, ScalarField, _fn
from .jets import Jet, seed


# scene construction ----------------------------------------------------

@dataclass(frozen=True)
class MoriConstants:
    """Closed-form landmarks of the reduced flow for one (n, eps)."""

    axis_z: float        # heights of the two zeros on the symmetry axis
    orbit_z: float       # heights of the two closed orbit circles
    ring_r: float        # radius of the saddle ring of the reduced flow
    ring_rho: float      # transverse radius of the saddle ring
    torus_slope: float   # fiber over base angular rate on the invariant torus


class MoriScene:
    """Both charts of one member of the family, with their foliations."""

    def __init__(self, n: int, eps: float):
        if int(n) != n or n < 2:
            raise ValueError("n must be an integer >= 2")
        if not 0.0 < eps <= 0.3:
            raise ValueError("eps must lie in (0, 0.3]")
        if eps > 0.15:
            warnings.warn("eps > 0.15 leaves little room between the shell "
                          "and the model core; expect poor conditioning")
        self.n = int(n)
        self.eps = float(eps)

        x = (1.0 + eps) - math.sqrt(eps * (1.0 + eps))   # ring radius squared
        self.constants = MoriConstants(
            axis_z=eps * math.sqrt(1.0 + eps),
            orbit_z=eps ** 1.5,
            ring_r=math.sqrt(x),
            ring_rho=eps * math.sqrt(1.0 + eps - x),
            torus_slope=(2.0 * x * x - 2.0 * x + 1.0)
                        / (eps ** 2 * (1.0 + 2.0 * eps)))
        # closer to an axis than this, use the cartesian chart
        self.polar_floor = min(0.05, 0.6 * eps * math.sqrt((1.0 + eps)
                                                           / (n - 1)))

        e2 = eps ** -2
        m = n - 1

        pnames = ["z", "r", "theta"]
        for i in range(1, n):
            pnames += [f"rho{i}", f"phi{i}"]
        pang = ["theta"] + [f"phi{i}" for i in range(1, n)]
        pch = Chart(pnames, angular=pang)
        z, r = pch.var("z"), pch.var("r")
        comps = {(0,): r * r * 2.0 - 1.0,
                 (2,): r * r * (r * r - 1.0)}
        rho_sq = None
        for i in range(1, n):
            rho = pch.var(f"rho{i}")
            comps[(pch.index(f"phi{i}"),)] = rho * rho
            rho_sq = rho * rho if rho_sq is None else rho_sq + rho * rho
        alpha_p = KForm(pch, 1, comps)
        Fp = r * r + (z * z + rho_sq) * e2 - (1.0 + eps)
        zmax = 1.5 * self.constants.axis_z
        pdom = {"z": (-zmax, zmax), "r": (0.0, 1.2),
                **{f"rho{i}": (0.0, 0.8) for i in range(1, n)}}
        self.polar = ContactScene(alpha_p, name=f"mori-polar-n{n}",
                                  domain=pdom)
        self.surface_polar = Hypersurface(ScalarField(pch, Fp.node))

        cnames = ["x", "y"]
        for i in range(1, n):
            cnames += [f"u{i}", f"v{i}"]
        cnames.append("z")
        cch = Chart(cnames)
        xx, yy, zz = cch.var("x"), cch.var("y"), cch.var("z")
        rr = xx * xx + yy * yy
        comps = {(cch.index("z"),): rr * 2.0 - 1.0,
                 (cch.index("x"),): -((rr - 1.0) * yy),
                 (cch.index("y"),): (rr - 1.0) * xx}
        usum = None
        for i in range(1, n):
            u, v = cch.var(f"u{i}"), cch.var(f"v{i}")
            comps[(cch.index(f"u{i}"),)] = -v
            comps[(cch.index(f"v{i}"),)] = u
            s = u * u + v * v
            usum = s if usum is None else usum + s
        alpha_c = KForm(cch, 1, comps)
        Fc = rr + (zz * zz + usum) * e2 - (1.0 + eps)
        cdom = {"x": (-1.2, 1.2), "y": (-1.2, 1.2), "z": (-zmax, zmax),
                **{k: (-0.8, 0.8) for k in cnames[2:-1]}}
        self.cartesian = ContactScene(alpha_c, name=f"mori-cartesian-n{n}",
                                      domain=cdom)
        self.surface_cartesian = Hypersurface(ScalarField(cch, Fc.node))

        self.field_polar = FoliationField(self.polar, self.surface_polar)
        self.field_cartesian = FoliationField(self.cartesian,
                                              self.surface_cartesian)
        self._kernels = []      # traced kernels of cartesian_point

    # point helpers -----------------------------------------------------

    def cartesian_point(self, polar_pt) -> list:
        """The cartesian coordinates of a polar point, as a list over the
        ring of its entries; seeded jets carry d(cartesian)/d(polar)."""
        z, r, th = polar_pt[0], polar_pt[1], polar_pt[2]
        q = [r * jets.cos(th), r * jets.sin(th)]
        for i in range(self.n - 1):
            rho, ph = polar_pt[3 + 2 * i], polar_pt[4 + 2 * i]
            q += [rho * jets.cos(ph), rho * jets.sin(ph)]
        q.append(z)
        return q

    def cartesian_points(self, polar_pts: np.ndarray) -> np.ndarray:
        """`cartesian_point` of each row of a float array, bit for bit,
        through the array twins of its kernels."""
        return kernel.run_rows(self._kernels, self.cartesian_point,
                               polar_pts, polar_pts.shape[1])


def mori_scene(n: int = 2, eps: float = 0.1) -> MoriScene:
    """Build one member of the family in both charts."""
    return MoriScene(n, eps)


def cartesian_lift(scene: MoriScene, zrr, theta: float = 0.0,
                   phi: float = 0.0) -> list:
    """Lift a reduced point (z, r, rho) to the cartesian chart.

    The transverse mass rho is split evenly over the n-1 planes, all at
    phase phi; for n = 2 this is just (u, v) = rho (cos phi, sin phi).
    Any ring works, as for `MoriScene.cartesian_point`.
    """
    z, r, rho = zrr
    return scene.cartesian_point(
        [z, r, theta] + [rho / math.sqrt(scene.n - 1), phi] * (scene.n - 1))


# the reference field ----------------------------------------------------

def reference_field(scene: MoriScene, point) -> np.ndarray:
    """The closed-form representative of the characteristic direction.

    Polar components at a point or at each row of an array, valid away
    from the coordinate axes; the z, r and rho_i ones are
    `pushforward_field`'s. On the shell it is tangent and never vanishes,
    so it fixes the direction of the foliation where the polar chart is
    honest.
    """
    p = np.asarray(point, dtype=float)
    floor = scene.polar_floor
    if np.any(p[..., 1::2] < floor):        # r and the rho_i
        raise PolarDomainError(
            f"point sits within {floor:g} of a polar axis; evaluate on the "
            "cartesian chart instead")
    z, r = p[..., :1], p[..., 1:2]          # columns, against the rho_i
    e2, r2 = scene.eps ** -2, r * r
    out = np.empty_like(p)
    out[..., :1], out[..., 1:2], out[..., 3::2] = pushforward_field(
        scene, (z, r, p[..., 3::2]))
    out[..., 2:3] = 1.0 + 2.0 * scene.eps - 2.0 * e2 * z * z
    out[..., 4::2] = e2 * (2.0 * r2 * r2 - 2.0 * r2 + 1.0)
    return out


def sample_surface_polar(scene: MoriScene, rng, count: int) -> np.ndarray:
    """Polar-regular random points on the shell, as the rows of an array.

    Transverse radii and height are drawn inside the constraint budget,
    then r picks up the slack, so no rejection loop is needed. One draw
    fills the array row by row, in the order of a point's coordinates:
    the n - 1 radii, the height fraction, its sign, the n angles.
    """
    eps, n = scene.eps, scene.n
    budget = eps ** 2 * (1.0 + eps)
    lo = scene.polar_floor * 1.05
    hi = math.sqrt(0.5 * budget / (n - 1))
    if not lo < hi:
        raise ConstructiveFailure("polar floor eats the whole shell budget")
    u = rng.uniform([lo] * (n - 1) + [0.0, -1.0] + [0.0] * n,
                    [hi] * (n - 1) + [0.9, 1.0] + [2.0 * math.pi] * n,
                    size=(count, 2 * n + 1))
    rho, frac, sign, ang = u[:, :n - 1], u[:, n - 1], u[:, n], u[:, n + 1:]
    # summed along rows as np.sum sums one point's radii, bit for bit
    used = (rho * rho).sum(axis=1)
    z = np.copysign(np.sqrt(frac * (budget - used)), sign)
    pts = np.empty((count, scene.polar.chart.dim))
    pts[:, 0] = z
    pts[:, 1] = np.sqrt(1.0 + eps - (z * z + used) / eps ** 2)
    pts[:, 2] = ang[:, 0]
    pts[:, 3::2] = rho
    pts[:, 4::2] = ang[:, 1:]
    return pts


def direction_match(scene: MoriScene, count: int = 200, rng=None) -> dict:
    """Compare the solved polar direction against the reference field.

    Fits a pointwise scale factor (`direction_fit`) and reports the
    worst sine of the angle plus the factor range; the factor must come
    out positive everywhere for the orientations to agree.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    pts = sample_surface_polar(scene, rng, count)
    c, sine = direction_fit([scene.field_polar.vector(p) for p in pts],
                            reference_field(scene, pts))
    return {"samples": count, "max_angle": float(sine.max()),
            "factor_min": float(c.min()), "factor_max": float(c.max())}


def chart_agreement(scene: MoriScene, count: int = 100, rng=None) -> dict:
    """Polar and cartesian charts against each other at random shell points.

    Checks that the cartesian form pulls back to the polar form, that
    the defining functions agree, and that the two solved directions
    are positively proportional under the transition map (`direction_fit`).
    """
    rng = np.random.default_rng(0) if rng is None else rng
    worst_a = worst_f = 0.0
    Xp, Xc = [], []
    for p in sample_surface_polar(scene, rng, count):
        qj = scene.cartesian_point(seed(p))
        q = [c.f for c in qj]
        J = np.array([c.g for c in qj])     # d(cartesian)/d(polar)
        a_p, _ = alpha_data_at(scene.polar, p)
        a_c, _ = alpha_data_at(scene.cartesian, q)
        pb = J.T @ a_c
        worst_a = max(worst_a, float(np.max(np.abs(pb - a_p))
                                     / max(1.0, np.max(np.abs(a_p)))))
        worst_f = max(worst_f, abs(float(scene.surface_polar.F(list(p)))
                                   - float(scene.surface_cartesian.F(list(q)))))
        Xp.append(J @ scene.field_polar.vector(p))
        Xc.append(scene.field_cartesian.vector(q))
    c, sine = direction_fit(Xc, Xp)
    return {"max_pullback_dev": worst_a, "max_level_dev": worst_f,
            "direction_dev": float(sine.max()), "factor_min": float(c.min()),
            "samples": count}


# the reduced flow -------------------------------------------------------

def pushforward_field(scene: MoriScene, zrr) -> tuple:
    """The reduced (z, r, rho) components of the reference field, over
    the ring of its entries."""
    z, r, rho = zrr
    eps, e2 = scene.eps, scene.eps ** -2
    r2 = r * r
    return ((r2 - 1.0) ** 2 + (2.0 * r2 - 1.0) * (e2 * z * z - eps),
            e2 * r * (r2 - 1.0) * z,
            e2 * (2.0 * r2 - 1.0) * z * rho)


def reduced_constraint(scene: MoriScene, zrr):
    """The shell constraint on a reduced point, over the ring of its entries."""
    z, r, rho = zrr
    return r * r + (z * z + rho * rho) / scene.eps ** 2 - (1.0 + scene.eps)


def _reduced_rates(scene: MoriScene, z: float, rho: float):
    """Engine (zdot, rhodot) on the shell slice theta = phi = 0.

    Returns them as jets over (z, rho), plus the ambient field X. The
    lift runs on jets, and the field's tangents are its ambient Jacobian
    times the tangents of the lift.
    """
    zj, rj = seed([z, rho])
    rr = 1.0 + scene.eps - (zj * zj + rj * rj) / scene.eps ** 2
    if rr.f <= 0.0:
        raise ConstructiveFailure("reduced point left the shell")
    p = cartesian_lift(scene, (zj, jets.sqrt(rr), rj))
    X, J = scene.field_cartesian.vector_and_jacobian([c.f for c in p])
    dX = J @ np.array([c.g for c in p])
    Xj = [Jet(x, tuple(row)) for x, row in zip(X.tolist(), dX.tolist())]
    rdot = sum(p[2 + 2 * i] * Xj[2 + 2 * i] + p[3 + 2 * i] * Xj[3 + 2 * i]
               for i in range(scene.n - 1))
    return Xj[-1], rdot / rj, X


def torus_base_point(scene: MoriScene) -> tuple:
    """Newton on the engine's reduced rates for the saddle ring.

    Returns ((z, r, rho), A), A the Jacobian of the reduced rates over
    (z, rho) there. Independent of the closed forms in MoriConstants
    apart from the initial guess scale.
    """
    w = np.array([0.0, 0.9 * scene.constants.ring_rho])
    for _ in range(40):
        zd, rd, X = _reduced_rates(scene, w[0], w[1])
        r0 = np.array([zd.f, rd.f])
        A = np.array([zd.g, rd.g])
        if float(np.max(np.abs(r0))) < 1e-13 * float(np.max(np.abs(X))):
            break
        w = w + np.linalg.solve(A, -r0)
    else:
        raise ConstructiveFailure("saddle ring search did not converge")
    z, rho = float(w[0]), float(w[1])
    r = math.sqrt(1.0 + scene.eps - (z * z + rho * rho) / scene.eps ** 2)
    return (z, r, rho), A


def torus_probe(scene: MoriScene, samples: int = 100, rng=None) -> dict:
    """Invariance and return-map evidence for the torus over the ring.

    All checks are pointwise algebra. A trajectory-based probe is out of
    reach: the transverse saddle exponent per base loop is about 25 at
    eps = 0.1, an e^25 noise amplification, so no computed trajectory
    can shadow the torus for even one loop. What is verified instead: the field is tangent to the
    torus, the two angular rates are constant on it (so first returns
    act by a rigid rotation with unit-modulus fiber multiplier), and the
    rate ratio matches the closed form.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    (z0, r0, rho0), A = torus_base_point(scene)
    field = scene.field_cartesian
    each = rho0 / math.sqrt(scene.n - 1)
    worst_inv = 0.0
    rates = []
    for _ in range(samples):
        th = float(rng.uniform(0.0, 2.0 * math.pi))
        ph = float(rng.uniform(0.0, 2.0 * math.pi))
        p = cartesian_lift(scene, (z0, r0, rho0), theta=th, phi=ph)
        X = field.vector(p)
        scale = float(np.max(np.abs(X)))
        rdot = (p[0] * X[0] + p[1] * X[1]) / r0
        pdot = sum(p[2 + 2 * i] * X[2 + 2 * i] + p[3 + 2 * i] * X[3 + 2 * i]
                   for i in range(scene.n - 1)) / rho0
        worst_inv = max(worst_inv,
                        max(abs(float(X[-1])), abs(float(rdot)),
                            abs(float(pdot))) / scale)
        thdot = (p[0] * X[1] - p[1] * X[0]) / (r0 * r0)
        phdot = (p[2] * X[3] - p[3] * X[2]) / (each * each)
        rates.append((float(thdot), float(phdot)))
    rates = np.asarray(rates)
    mean = rates.mean(axis=0)
    variation = float(np.max(np.abs(rates - mean)) / np.max(np.abs(mean)))
    slope = float(mean[1] / mean[0])

    # fiber direction against (1 + 2 eps, closed-form slope), one factor
    fac = mean[0] / (1.0 + 2.0 * scene.eps)
    fdev = abs(mean[1] - fac * (1.0 + 2.0 * scene.eps)
               * scene.constants.torus_slope) / abs(mean[1])

    # transverse linearization of the reduced engine flow at the ring
    lam = float(np.max(np.real(np.linalg.eigvals(A))))
    loop = 2.0 * math.pi / abs(float(mean[0]))
    note = ("the rate ratio varies continuously with eps, and nothing "
            "downstream depends on whether it is rational; retuning eps to "
            "force rationality is a documented no-op")
    return {"point": (z0, r0, rho0),
            "samples": samples,
            "invariance_residual": worst_inv,
            "angular_rate_variation": variation,
            "slope": slope,
            "fiber_direction_dev": float(fdev),
            "fiber_multiplier": 1.0,
            "transverse_exponent_per_loop": lam * loop,
            "loop_time": loop,
            "slope_note": note}


def torus_recurrence(scene: MoriScene, probe: dict) -> list:
    """The invariant torus as verified recurrence for
    `certify.check_morse_smale`, read off a `torus_probe` report: []
    when the probe finds the field off the torus (invariance residual
    above 1e-6), and otherwise one record, at the lift of the probe's
    base point, with the probe's rigid-rotation evidence."""
    if probe["invariance_residual"] > 1e-6:
        return []
    return [{"description": "invariant torus over the reduced saddle ring",
             "point": np.array(cartesian_lift(scene, probe["point"])),
             "kind": "invariant torus",
             "unit_modulus_fiber_multiplier": probe["fiber_multiplier"],
             "slope": probe["slope"],
             "transverse_exponent_per_loop":
                 probe["transverse_exponent_per_loop"],
             "angular_rate_variation": probe["angular_rate_variation"]}]


# census -----------------------------------------------------------------

def _edge_orbit(scene: MoriScene, sign: float) -> Element:
    field = scene.field_cartesian
    eps = scene.eps
    d = scene.cartesian.chart.dim

    def lift(z):
        r = math.sqrt(1.0 + eps - z * z / eps ** 2)
        return cartesian_lift(scene, (z, r, 0.0))

    z = sign * 0.9 * eps ** 1.5
    for _ in range(60):
        X = field.vector(lift(z))
        f0 = float(X[-1])
        scale = float(np.max(np.abs(X)))
        if abs(f0) < 1e-13 * scale:
            break
        h = 1e-9 * (1.0 + abs(z))
        dz = (float(field.vector(lift(z + h))[-1]) - f0) / h
        z = z - f0 / dz
    else:
        raise ConstructiveFailure("edge orbit height search stalled")

    p = lift(z)
    X, J, div = field.flow_data(p)
    omega = float(X[1] / p[0])
    T = 2.0 * math.pi / abs(omega)

    G = np.zeros((d, d))
    G[0, 1], G[1, 0] = -1.0, 1.0
    A = J - omega * G

    # classify in the expanding time direction: a multiplier of e^-40
    # sits below the roundoff floor of the section projection, while its
    # inverse is perfectly representable
    tsign = 1 if div > 0.0 else -1
    from scipy.linalg import expm   # the one scipy use; keeps it off start-up
    _, S = flow_split_basis(field, p)
    orbit = RefinedOrbit(point=p, period=T, section=S,
                         monodromy=expm(tsign * T * A) @ S,
                         div_integral=tsign * T * div, sense=tsign)
    th = np.linspace(0.0, 2.0 * math.pi, 97)[:-1]
    loop = np.zeros((96, d))
    loop[:, 0] = p[0] * np.cos(th)
    loop[:, 1] = p[0] * np.sin(th)
    loop[:, -1] = z
    return replace(classify_orbit(field, orbit), loop=loop)


def census(scene: MoriScene, tols: policy.Tolerances = policy.DEFAULT) -> dict:
    """All zeros and closed orbits of the foliation on the shell, as
    {"zeros": [...], "orbits": [...]}: lists of `dynamics.Element`,
    zeros by height, then the orbit below the equator and the one above
    it, each with a loop of 96 points. zeros + orbits is the element
    list of the certificate and of `report.element_rows`.

    Zeros come from Newton refinement of four seeds on the rotation
    axis, where the symmetry puts every zero; the test suite checks
    completeness by the Poincare-Hopf sum chi(S^2n) = 2. Orbits come
    from the rotation symmetry, with monodromy in the rotating frame.
    See the module docstring for why shooting is not an option here.
    """
    field = scene.field_cartesian
    az = scene.constants.axis_z
    seeds = [cartesian_lift(scene, (s * az, 0.0, 0.0))
             for s in (-1.1, -0.9, 0.9, 1.1)]
    pts = find_zeros(field, seeds, tols)
    zeros = [classify_zero(field, p) for p in pts]
    zeros.sort(key=lambda z: z.point[-1])
    orbits = [_edge_orbit(scene, -1.0), _edge_orbit(scene, +1.0)]
    return {"zeros": zeros, "orbits": orbits}


def verify_orbit_closure(scene: MoriScene, orbits,
                         tols: policy.Tolerances = policy.DEFAULT) -> dict:
    """Dynamic evidence that the census orbits close up.

    Integrates one full loop in the contracting time direction of each
    orbit (the expanding direction is hopeless by design) and reports
    the worst return gap and the deviation of the measured return time
    from the rotation period. The rotation sense is the field's at the
    orbit's point.
    """
    field = scene.field_cartesian
    worst_gap = worst_T = 0.0
    for o in orbits:
        sense = -1 if o.sign > 0 else +1
        flow = Flow(field, tols, sense=sense)
        p = np.asarray(o.point, dtype=float)
        T = o.period
        up = 1 if sense * float(field.vector(p)[1] / p[0]) > 0.0 else -1
        res = flow.integrate(p, 1.4 * T, event=lambda y: up * y[1])
        if res.status != "event":
            raise ConstructiveFailure("orbit loop produced no section return")
        gap = float(np.max(np.abs(res.y - p)))
        worst_gap = max(worst_gap, gap / max(1.0, float(np.max(np.abs(p)))))
        worst_T = max(worst_T, abs(res.t - T) / T)
    return {"max_return_gap": worst_gap, "max_period_dev": worst_T}


def phase_portrait_data(scene: MoriScene,
                        tols: policy.Tolerances = policy.DEFAULT) -> list:
    """Reduced (z, r, rho) trajectories for plotting, as a list of rows:
    six starts across the axis band, each followed for 2.5 time units
    both ways. The reduced constraint is a `Hypersurface` over the chart
    (z, r, rho), whose `project_floats` projects the starts and every
    accepted step, and raises `ProjectionError` where one does not
    converge, as in every other flow. The reduced field runs through
    its traced kernels, one list for all the runs, and the backward
    runs in sense -1."""
    eps = scene.eps
    az, rr0 = scene.constants.axis_z, scene.constants.ring_rho
    shell = Hypersurface(
        reduced_constraint(scene, Chart(("z", "r", "rho")).vars()))
    ptols = policy.replace(tols, ode_max_step=0.05)
    rhs = ([], functools.partial(pushforward_field, scene))
    rows = []
    for k in range(6):
        f = (k + 0.5) / 6
        z0 = (2.0 * f - 1.0) * 0.75 * az
        rho0 = rr0 * (0.6 + 0.3 * f)
        rr = 1.0 + eps - (z0 * z0 + rho0 * rho0) / eps ** 2
        if rr <= 0.04:
            continue
        y0 = shell.project_floats([z0, math.sqrt(rr), rho0])
        for sgn in (+1.0, -1.0):
            res = _integrate_core(rhs, y0, 2.5, ptols,
                                  post=shell.project_floats, record=True,
                                  sense=sgn)
            for t, y in res.path:
                rows.append({"id": f"{k}{'+' if sgn > 0 else '-'}",
                             "t": sgn * t, "z": float(y[0]),
                             "r": float(y[1]), "rho": float(y[2])})
    return rows


# the column perturbation -------------------------------------------------

@dataclass(frozen=True)
class PerturbationSpec:
    """Strength and shape of the compactly supported contact Hamiltonian.

    delta bounds the sup norm of the Hamiltonian and of its first
    derivatives; it is the one setting. The class constants fix the
    circle the profile lives on, where the bump lives and how fast it
    dies. They keep every slope bound proportional to delta alone: a
    short circle cannot host a bump that is simultaneously C1-small,
    numerically supported inside the column, and large enough in
    integral to give usable multiplier margins, which is why the
    circumference is not 2 pi.
    """

    delta: float = 0.05
    circumference: ClassVar[float] = 60.0
    column: ClassVar[tuple] = (0.5, 59.5)
    bump_scale: ClassVar[float] = 1.35
    bump_depth: ClassVar[float] = 28.0
    window_edge: ClassVar[float] = 18.0
    window_scale: ClassVar[float] = 13.5
    box_radius: ClassVar[float] = 19.0

    def __post_init__(self):
        if not self.delta > 0.0:
            raise ValueError("delta must be positive")
        if self.delta > 0.1:
            raise ValueError(
                "perturbation strengths above 0.1 are out of scope")


def _column_bump_tree(spec: PerturbationSpec, s: ScalarField) -> ScalarField:
    """The periodic s-profile chi as a tree in the coordinate s.

    exp(-mu exp(-D(s)^2 / c^2)) with D a smooth periodic distance to the
    seam s = 0. The double exponential keeps the slope bound independent
    of the suppression depth mu, and the profile is exactly periodic, so
    the integrator never needs to reduce s mod the circumference.
    """
    L, c, mu = spec.circumference, spec.bump_scale, spec.bump_depth
    d2 = (1.0 - _fn("cos", s * (2.0 * math.pi / L))) \
        * (0.5 * (L / math.pi) ** 2)
    return _fn("exp", -(_fn("exp", -(d2 * (1.0 / c ** 2))) * mu))


def _column_window_tree(spec: PerturbationSpec, a: ScalarField,
                        b: ScalarField) -> ScalarField:
    """The transverse window g(a^2 + b^2), flat near the center line."""
    cg, e2 = spec.window_scale, spec.window_edge ** 2
    return _fn("exp", -(_fn("exp", (a * a + b * b - e2) * (1.0 / cg))
                        * spec.bump_depth))


def column_bump(spec: PerturbationSpec):
    """The s-profile chi as a function of s alone (floats or arrays)."""
    return _column_bump_tree(spec, Chart(("s",)).var("s")).fn


def _column_profile_data(spec: PerturbationSpec) -> dict:
    """Measured sup norms of the profile factors and the amplitude.

    The amplitude is chosen from the measured slopes so that the sup
    norms of H and dH land just under delta whatever the shape
    constants are; nothing here assumes their values.
    """
    L = spec.circumference
    chi = _column_bump_tree(spec, Chart(("s",)).var("s"))
    wch = Chart(("a", "b"))
    g = _column_window_tree(spec, wch.var("a"), wch.var("b"))
    sgrid = np.concatenate([np.linspace(0.0, L, 24001),
                            np.linspace(-8.0 * spec.bump_scale,
                                        8.0 * spec.bump_scale, 8001)])
    rgrid = np.linspace(0.0, spec.box_radius, 24001)
    chi_s, (chip_s,) = chi.value_and_grad([sgrid])
    g_r, (gp_r, _) = g.value_and_grad([rgrid, 0.0])
    sup_chi = float(np.max(chi_s))
    sup_chip = float(np.max(np.abs(chip_s)))
    sup_g = float(np.max(g_r))
    sup_gp = float(np.max(np.abs(gp_r)))
    M = max(1.0, sup_chip * sup_g, sup_chi * sup_gp)
    A = 0.98 * spec.delta / M
    inside = np.linspace(spec.column[0], spec.column[1], 24001)
    I = float(np.trapezoid(chi([inside]), inside))
    lo, hi = spec.column
    outside = np.linspace(hi - L, lo, 2001)
    out_sup = float(np.max(chi([outside]))) * sup_g * A
    return {"amplitude": A,
            "sup_H": A * sup_chi * sup_g,
            "sup_dH": A * max(sup_chip * sup_g, sup_chi * sup_gp,
                              sup_chi * sup_g),
            "outside_sup": out_sup,
            "center_window": float(g([0.0, 0.0])),
            "bump_integral": I,
            "sup_bump_slope": sup_chip,
            "sup_window_slope": sup_gp}


def column_scene(spec: PerturbationSpec):
    """The long-column model carrying the perturbation.

    Ambient chart (t, s, a, b, psi) with the product contact form
    t ds + (d psi + a db - b da); the hypersurface is the graph
    t = H with H = A chi(s) g(a^2 + b^2) sin(psi). Returns
    (scene, surface, info) where info carries the measured profile data
    and the ambient Hamiltonian field.
    """
    prof = _column_profile_data(spec)
    A = prof["amplitude"]
    box = spec.box_radius

    ch = Chart(("t", "s", "a", "b", "psi"),
               angular={"s": spec.circumference, "psi": 2.0 * math.pi})
    t_, s_, a_, b_, psi_ = (ch.var(k) for k in ch.names)
    H = _column_bump_tree(spec, s_) * _column_window_tree(spec, a_, b_) \
        * _fn("sin", psi_) * A

    alpha = KForm(ch, 1, {(1,): t_, (4,): ch.constant(1.0),
                          (3,): a_, (2,): -b_})
    scene = ContactScene(alpha, name="column",
                         domain={"t": (-1.0, 1.0), "a": (-box, box),
                                 "b": (-box, box)})
    surface = Hypersurface.graph("t", H)
    info = {"profile": prof, "H": H, "spec": spec}
    return scene, surface, info


def _base_scene(spec: PerturbationSpec):
    ch = Chart(("a", "b", "psi"), angular=("psi",))
    a_, b_ = ch.var("a"), ch.var("b")
    lam = KForm(ch, 1, {(2,): ch.constant(1.0), (1,): a_, (0,): -b_})
    return ContactScene(lam, name="column-base",
                        domain={"a": (-spec.box_radius, spec.box_radius),
                                "b": (-spec.box_radius, spec.box_radius)})


def _predicted_lift(scene: ContactScene, base: ContactScene, H: ScalarField):
    """Predicted direction: the s-translation minus the Hamiltonian field,
    lifted to the graph (the t component is forced by tangency)."""
    ch = scene.chart
    it, is_ = ch.index("t"), ch.index("s")
    sel = np.array([ch.index("a"), ch.index("b"), ch.index("psi")])

    def predicted(p):
        p = np.asarray(p, dtype=float)
        avec, Mm = alpha_data_at(base, p[sel])
        hval, *hg = H.traced_value_and_grad(p.tolist())
        hg = np.array(hg)
        _, Y = _hamiltonian_solve(avec, Mm, hval, hg[sel])
        out = np.zeros(ch.dim)
        out[is_] = 1.0
        out[sel] = -Y
        out[it] = float(hg @ out)
        return out

    return predicted


def _graph_point(ch, H: ScalarField, s, a, b, psi) -> np.ndarray:
    """The point of the column graph t = H over (s, a, b, psi)."""
    q = np.zeros(ch.dim)
    for name, v in (("s", s), ("a", a), ("b", b), ("psi", psi)):
        q[ch.index(name)] = v
    q[ch.index("t")] = float(H(list(q)))
    return q


def column_psi(ch: Chart, point) -> float:
    """The angle psi of a point of the column, wrapped to [-pi/2, 3pi/2):
    the orbits sit at 0 and pi, both away from the cut, so roundoff
    cannot flip the reported angle by 2 pi."""
    psi = float(point[ch.index("psi")])
    return psi - 2.0 * math.pi * math.floor((psi + 0.5 * math.pi)
                                           / (2.0 * math.pi))


def transverse_shift(ch: Chart, point) -> float:
    """Distance of a point of the column from the circle a = b = 0."""
    return math.hypot(float(point[ch.index("a")]),
                      float(point[ch.index("b")]))


def _column_orbit(field: FoliationField, H: ScalarField, psi0: float,
                  spec: PerturbationSpec,
                  tols: policy.Tolerances) -> Element:
    """The orbit Element near psi0 on the column, with a loop of 128
    points, shot in the time direction where it contracts: reversed
    where the divergence at the seed is positive. X and the divergence
    at the seed come from the section-width variational kernel that the
    shots run (on V = 0), with the first-order kernel's bits, so the
    shot compiles no first-order kernel of its own."""
    ch = field.scene.chart
    seed = _graph_point(ch, H, 5.0, 0.02, -0.01, psi0 + 0.1)
    d, k = ch.dim, 2 * field.scene.n - 1
    out = kernel.run(*field.variational_rhs(k),
                     [*map(float, seed), *[0.0] * (d * k), 0.0])
    X, div = out[:d], out[-1]
    guess = spec.circumference / abs(float(X[ch.index("s")]))
    orb = find_orbit(field, seed, guess, tols, sense=-1 if div > 0.0 else +1)
    loop = np.tile(orb.point, (128, 1))
    loop[:, ch.index("s")] = np.linspace(0.0, spec.circumference, 129)[:-1]
    loop[:, ch.index("t")] = [float(H(list(q))) for q in loop]
    return replace(classify_orbit(field, orb), loop=loop)


def column_certificate(field: FoliationField, info: dict,
                       tols: policy.Tolerances = policy.DEFAULT,
                       rng=None) -> dict:
    """The certificate of a built column and the persistence it rests on.

    `field` and `info` come from `column_scene`. Locates the two
    surviving orbits by shooting, chases 10 seeds drawn from `rng` with
    `check_morse_smale` under the same profile `tols`, and compares the
    orbits' multiplier margin with the bump integral. For delta below
    the hyperbolic resolution the orbit family is degenerate; the
    persistence block then reports the collapse instead of inventing
    isolated orbits. Where shooting loses an orbit, nothing is chased
    and the certificate is inconclusive, naming the lost orbit's psi.
    The two orbits are shot side by side (`parallel.pmap`), and so are
    the seeds' chases; the result has the same bytes as a serial run.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    spec, H, prof = info["spec"], info["H"], info["profile"]
    ch = field.scene.chart

    def shoot(psi0):
        try:
            return _column_orbit(field, H, psi0, spec, tols)
        except NoOrbitError:
            return None

    shots = dict(zip(("0", "pi"), parallel.pmap(shoot, (0.0, math.pi))))
    orbits = [o for o in shots.values() if o is not None]
    degenerate = len(orbits) < 2 or any(not o.hyperbolic for o in orbits)

    seeds = []
    for _ in range(10):
        s = rng.uniform(0.0, spec.circumference)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        rad = rng.uniform(0.1, 0.9)
        seeds.append(_graph_point(ch, H, s, rad * math.cos(ang),
                                  rad * math.sin(ang),
                                  rng.uniform(0.0, 2.0 * math.pi)))
    lost = [f"shooting lost the closed orbit at psi = {psi}"
            for psi, o in shots.items() if o is None]
    if lost:
        cert = certify.MorseSmaleCertificate(
            verdict="inconclusive", reasons=lost, elements=orbits,
            limit_check=0.0, connection_violations=[], recurrence=[],
            seeds_used=0, notes=["the census is incomplete; sampling "
                                 "skipped"])
    else:
        cert = certify.check_morse_smale(field, seeds, orbits, tols=tols)

    A, I = prof["amplitude"], prof["bump_integral"]
    pers44 = {"holds": False, "max_shift": math.nan, "margin": 0.0,
              "predicted_margin": 1.0 - math.exp(-0.5 * A * I)}
    if not degenerate:
        shift = max(transverse_shift(ch, o.point) for o in orbits)
        gap = min(float(np.min(np.abs(np.abs(o.spectrum) - 1.0)))
                  for o in orbits)
        pers44.update(holds=bool(shift < 1e-8), max_shift=shift, margin=gap)
    return {"orbits": orbits, "degenerate": degenerate,
            "persistence": pers44, "certificate": cert}


def perturb_analysis(spec: PerturbationSpec,
                     tols: policy.Tolerances = policy.DEFAULT,
                     rng=None) -> dict:
    """Full dossier for one perturbation strength.

    Builds the column scene, checks the Hamiltonian size and support
    invariants, verifies the predicted direction and the defining
    equations of the Hamiltonian field on points drawn from `rng`, and
    then adds `column_certificate` of the same field, whose seeds are
    the stream's next draws.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    scene, surface, info = column_scene(spec)
    field = FoliationField(scene, surface)
    H = info["H"]
    prof = info["profile"]
    ch = scene.chart
    base = _base_scene(spec)

    # center line really is flat: the transverse gradient vanishes on it
    cg = 0.0
    for s in (3.0, 20.0, 41.0):
        for psi in (0.4, 2.2):
            q = np.zeros(ch.dim)
            q[ch.index("s")], q[ch.index("psi")] = s, psi
            _, *hgrad = H.traced_value_and_grad(q.tolist())
            cg = max(cg, abs(hgrad[ch.index("a")]), abs(hgrad[ch.index("b")]))
    ham = dict(prof)
    ham["center_gradient"] = cg

    pts = [_graph_point(ch, H, rng.uniform(0.0, spec.circumference),
                        rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                        rng.uniform(0.0, 2.0 * math.pi)) for _ in range(200)]
    direction = graph_foliation_check(
        field, _predicted_lift(scene, base, H), pts)

    bch = base.chart
    mid = column_bump(spec)(0.5 * spec.circumference)
    gb = _column_window_tree(spec, bch.var("a"), bch.var("b"))
    Hb = gb * _fn("sin", bch.var("psi")) * (prof["amplitude"] * mid)
    bpts = [np.array([rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5),
                      rng.uniform(0.0, 2.0 * math.pi)]) for _ in range(100)]
    ham_res = hamiltonian_residuals(base, Hb, bpts)

    return {"spec": spec, "scene": scene, "surface": surface, "field": field,
            "hamiltonian": ham, "direction_check": direction,
            "hamiltonian_residuals": ham_res,
            **column_certificate(field, info, tols, rng)}
