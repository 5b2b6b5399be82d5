"""Flows, zeros, closed orbits, and return maps of the direction field.

The integrator is an adaptive Dormand-Prince 5(4) pair with Newton
re-projection onto the hypersurface after every accepted step; the
direction field is tangent to every level of the defining function, so
projection removes roundoff drift rather than fighting the dynamics.
Variational runs carry the ambient monodromy matrix and the divergence
integral alongside the state, all sourced from one jet pass per stage.

Angular coordinates integrate unwrapped; closure of orbits and
deduplication of elements are tested modulo the period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from . import policy
from .contact import FoliationField, alpha_data_at
from .errors import (ConstructiveFailure, ContactConditionError, EscapeError,
                     IntegrationError, NoOrbitError)

# Dormand-Prince 5(4) coefficients
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
               -17253 / 339200, 22 / 525, -1 / 40])


@dataclass
class EventSpec:
    """Scalar crossing detector g(y) = 0 along a trajectory, with the
    exact gradient of g used to land on the crossing."""

    fn: Callable
    grad: Callable
    direction: int = 0          # +1 upward crossings, -1 downward, 0 both
    terminal: bool = True


def wrap_diff(chart, a, b) -> np.ndarray:
    """Componentwise a - b, angular entries reduced to (-period/2, period/2]."""
    out = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    for name in chart.angular:
        i = chart.index(name)
        per = chart.periods[name]
        out[i] = (out[i] + 0.5 * per) % per - 0.5 * per
    return out


def sign_of(x: float, neutral: float = 0.0) -> int:
    """+1 above `neutral`, -1 below it, and 0 at it (or for NaN)."""
    return int(x > neutral) - int(x < neutral)


def _rms(v):
    return float(np.sqrt(np.mean(np.square(v))))


def _integrate_core(rhs, z0, tmax, tols: policy.Tolerances, post=None,
                    events: Sequence[EventSpec] = (), domain_ok=None,
                    record=False):
    """Shared adaptive loop. post() cleans an accepted state (projection);
    domain_ok() raising or returning False stops with an escape."""
    z = np.asarray(z0, dtype=float)
    if post is not None:
        z = post(z)
    t = 0.0
    f = rhs(z)
    sc = tols.ode_atol + tols.ode_rtol * np.abs(z)
    d0, d1 = _rms(z / sc), _rms(f / sc)
    h = min(tols.ode_max_step, 0.01 * d0 / d1 if d1 > 1e-12 else tols.ode_max_step)
    h = max(h, 1e-10)
    gvals = [ev.fn(z) for ev in events]
    path = [(0.0, z.copy())] if record else None
    steps = 0
    while t < tmax * (1.0 - 1e-15) :
        steps += 1
        if steps > tols.ode_max_steps:
            raise IntegrationError("step budget exhausted", t=t, state=z)
        h = min(h, tmax - t)
        k = [f]
        for i in range(1, 7):
            zi = z + h * sum(c * kj for c, kj in zip(_A[i], k))
            k.append(rhs(zi))
        z5 = z + h * sum(c * kj for c, kj in zip(_A[6], k))
        err = h * sum(c * kj for c, kj in zip(_E, k))
        scale = tols.ode_atol + tols.ode_rtol * np.maximum(np.abs(z), np.abs(z5))
        enorm = _rms(err / scale)
        if enorm > 1.0:
            h = max(h * max(0.2, 0.9 * enorm ** -0.25), 1e-14 * (1.0 + abs(t)))
            if h <= 1e-13 * (1.0 + abs(t)):
                raise IntegrationError("step size underflow", t=t, state=z)
            continue
        znew = post(z5) if post is not None else z5
        tnew = t + h
        hit = None
        for idx, ev in enumerate(events):
            g0, g1 = gvals[idx], ev.fn(znew)
            crossed = (g0 < 0.0 <= g1) if ev.direction > 0 else \
                      (g0 > 0.0 >= g1) if ev.direction < 0 else \
                      (g0 * g1 < 0.0 or (g0 != 0.0 and g1 == 0.0))
            if crossed:
                t_ev, z_ev = _locate_event(rhs, z, k[0], z5, k[6], h, ev, tols, post)
                hit = (idx, t + t_ev, z_ev)
                if ev.terminal:
                    return SimpleNamespace(status="event", t=t + t_ev, y=z_ev,
                                           steps=steps, event=hit, path=path)
            gvals[idx] = g1
        if hit is None and domain_ok is not None and not domain_ok(znew):
            raise EscapeError("trajectory left the declared domain",
                              t=tnew, state=znew)
        t, z, f = tnew, znew, rhs(znew)
        if record:
            path.append((t, z.copy()))
        grow = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm ** -0.2))
        h = min(tols.ode_max_step, h * grow)
    return SimpleNamespace(status="time", t=t, y=z, steps=steps, event=None,
                           path=path)


def _locate_event(rhs, z0, f0, z1, f1, h, ev: EventSpec,
                  tols: policy.Tolerances, post):
    """Bracket on the Hermite interpolant, then Newton with re-integration."""

    def hermite(th):
        h00 = 2 * th ** 3 - 3 * th ** 2 + 1
        h10 = th ** 3 - 2 * th ** 2 + th
        h01 = -2 * th ** 3 + 3 * th ** 2
        h11 = th ** 3 - th ** 2
        return h00 * z0 + (h10 * h) * f0 + h01 * z1 + (h11 * h) * f1

    g0 = ev.fn(z0)
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if g0 * ev.fn(hermite(mid)) > 0.0:
            lo = mid
        else:
            hi = mid
    dt = 0.5 * (lo + hi) * h

    y = None
    for _ in range(8):
        res = _integrate_core(rhs, z0, dt, tols, post=post)
        y = res.y
        g = ev.fn(y)
        gd = float(np.dot(ev.grad(y), rhs(y)))
        if gd == 0.0 or abs(g) < 1e-13 * (1.0 + abs(gd)):
            break
        dt = min(max(dt - g / gd, 0.0), h)
    return dt, y


class Flow:
    """Trajectories of the characteristic direction field on one surface."""

    def __init__(self, field: FoliationField, tols: policy.Tolerances = policy.DEFAULT,
                 sense: int = +1):
        self.field = field
        self.tols = tols
        self.sense = float(sense)

    def _rhs(self, y):
        return self.sense * self.field.vector(y)

    def _post(self, y):
        return self.field.surface.project(y, self.tols)

    def _domain_ok(self, y):
        return self.field.scene.in_domain(y)

    def integrate(self, y0, tmax, events: Sequence[EventSpec] = (),
                  record: bool = False):
        return _integrate_core(self._rhs, y0, tmax, self.tols, post=self._post,
                               events=events, domain_ok=self._domain_ok,
                               record=record)

    def integrate_variational(self, y0, tmax):
        """State, ambient monodromy, and divergence integral over [0, tmax]."""
        d = len(y0)
        s = self.sense

        def rhs(z):
            y = z[:d]
            M = z[d:d + d * d].reshape(d, d)
            X, J, div = self.field.flow_data(y)
            return np.concatenate([s * X, (s * (J @ M)).ravel(), [s * div]])

        def post(z):
            out = z.copy()
            out[:d] = self.field.surface.project(z[:d], self.tols)
            return out

        z0 = np.concatenate([np.asarray(y0, float), np.eye(d).ravel(), [0.0]])
        res = _integrate_core(rhs, z0, tmax, self.tols, post=post,
                              domain_ok=lambda z: self.field.scene.in_domain(z[:d]))
        y = res.y[:d]
        M = res.y[d:d + d * d].reshape(d, d)
        w = float(res.y[-1])
        return y, M, w


# tangent machinery ----------------------------------------------------

def tangent_orthobasis(field: FoliationField, point) -> np.ndarray:
    """Orthonormal columns spanning the surface tangent space (d x 2n)."""
    data = field.char_data([float(v) for v in point])
    V = np.array(data.frame, dtype=float).T
    Q, _ = np.linalg.qr(V)
    return Q

def flow_split_basis(field: FoliationField, point):
    """(unit flow direction, orthonormal section basis) inside the tangent space."""
    Q = tangent_orthobasis(field, point)
    X = field.vector(point)
    xc = Q.T @ X
    nx = np.linalg.norm(xc)
    if nx == 0.0:
        raise ValueError("point is a zero of the field; no flow direction")
    xc = (xc / nx).reshape(-1, 1)
    full, _ = np.linalg.qr(xc, mode="complete")
    S = Q @ full[:, 1:]
    return Q @ xc[:, 0], S


# zeros ----------------------------------------------------------------

@dataclass
class ZeroInfo:
    point: np.ndarray
    eigenvalues: np.ndarray
    divergence: float
    liouville_sign: int
    stable_dim: int
    hyperbolic: bool


def refine_zero(field: FoliationField, seed,
                tols: policy.Tolerances = policy.DEFAULT) -> np.ndarray:
    """Newton on (X, F) jointly; converges to a zero on the surface."""
    x = field.surface.project(seed, tols)
    scale = 1.0 + float(np.max(np.abs(x)))
    best = None
    for _ in range(tols.newton_max_iter):
        X, J = field.vector_and_jacobian(x)
        Fv, Fg = field.surface.F.value_and_grad(list(x))
        r = np.append(X, float(Fv))
        rn = float(np.max(np.abs(r)))
        if best is None or rn < best[0]:
            best = (rn, x.copy())
        if rn < tols.newton_tol * scale:
            return x
        A = np.vstack([J, np.asarray(Fg, dtype=float)])
        dx, *_ = np.linalg.lstsq(A, -r, rcond=None)
        if not np.all(np.isfinite(dx)):
            break
        x = x + dx
    raise ConstructiveFailure(
        f"zero refinement stalled at residual {best[0]:.3e}")


def find_zeros(field: FoliationField, seeds,
               tols: policy.Tolerances = policy.DEFAULT) -> list:
    """Refine every seed and keep the distinct results."""
    chart = field.scene.chart
    out = []
    for s in seeds:
        try:
            z = refine_zero(field, np.asarray(s, dtype=float), tols)
        except ConstructiveFailure:
            continue
        if any(np.max(np.abs(wrap_diff(chart, z, q))) < tols.dedup_radius
               for q in out):
            continue
        out.append(z)
    out.sort(key=lambda p: tuple(np.round(p, 9)))
    return out


def linearize_zero(field: FoliationField, point):
    """Restriction of the ambient Jacobian to the tangent space at a zero.

    The frame vectors each carry a single unit coordinate, so tangent
    coordinates are read off componentwise.
    """
    X, J = field.vector_and_jacobian(point)
    data = field.char_data([float(v) for v in point])
    m = len(data.frame_coords)
    A = np.empty((m, m))
    for a, v in enumerate(data.frame):
        img = J @ np.asarray(v, dtype=float)
        for b, jb in enumerate(data.frame_coords):
            A[b, a] = img[jb]
    return A, data


def classify_zero(field: FoliationField, point,
                  tols: policy.Tolerances = policy.DEFAULT) -> ZeroInfo:
    """Linearization and Liouville sign at a zero. A zero of divergence
    exactly 0 has no sign (0) and does not count as hyperbolic."""
    A, _ = linearize_zero(field, point)
    eigs = np.linalg.eigvals(A)
    div = field.divergence(point)
    sign = sign_of(div)
    band = tols.hyperbolic_band * max(1.0, float(np.max(np.abs(eigs))))
    return ZeroInfo(point=np.asarray(point, dtype=float),
                    eigenvalues=eigs,
                    divergence=div,
                    liouville_sign=sign,
                    stable_dim=int(np.sum(eigs.real < 0.0)),
                    hyperbolic=bool(sign != 0
                                    and np.all(np.abs(eigs.real) > band)))


# closed orbits ---------------------------------------------------------

@dataclass
class RefinedOrbit:
    point: np.ndarray
    period: float
    residual: float
    monodromy: np.ndarray
    div_integral: float


@dataclass
class OrbitInfo:
    point: np.ndarray
    period: float
    multipliers: np.ndarray      # eigenvalues of the section return map
    C: float                     # conformal factor of the return map
    det_residual: float          # |det dP - C^n| / |C^n|
    pairing_residual: float      # symplectic pairing mu <-> C/mu
    div_residual: float          # divergence integral vs log det dP
    positive: bool
    liouville_sign: int
    stable_index: int
    hyperbolic: bool


def find_orbit(field: FoliationField, seed_point, period_guess: float,
               tols: policy.Tolerances = policy.DEFAULT) -> RefinedOrbit:
    """Newton shooting for a closed orbit from one seed and a period guess."""
    chart = field.scene.chart
    p0 = field.surface.project(seed_point, tols)
    scale0 = 1.0 + float(np.max(np.abs(p0)))
    speed_floor = math.sqrt(tols.newton_tol) * scale0
    if float(np.linalg.norm(field.vector(p0))) < speed_floor:
        raise NoOrbitError("seed point is (numerically) a zero of the field")
    Q = tangent_orthobasis(field, p0)
    try:
        _, S = flow_split_basis(field, p0)
    except ValueError:
        raise NoOrbitError("seed point is a zero of the field") from None
    m = S.shape[1]
    flow = Flow(field, tols)
    u = np.zeros(m)
    T = float(period_guess)
    scale = 1.0 + float(np.max(np.abs(p0)))
    last = None
    for _ in range(tols.newton_max_iter):
        q = field.surface.project(p0 + S @ u, tols)
        try:
            yT, M, w = flow.integrate_variational(q, T)
        except (IntegrationError, EscapeError) as e:
            raise NoOrbitError(
                f"shooting could not complete a loop ({e})") from e
        diff = wrap_diff(chart, yT, q)
        r = Q.T @ diff
        rn = float(np.max(np.abs(r)))
        if rn < tols.newton_tol * scale * 10.0:
            if float(np.linalg.norm(field.vector(q))) < speed_floor:
                raise NoOrbitError("refinement collapsed onto a zero")
            return RefinedOrbit(point=q, period=T, residual=rn,
                                monodromy=M, div_integral=w)
        cols = [Q.T @ ((M - np.eye(len(q))) @ S[:, j]) for j in range(m)]
        cols.append(Q.T @ field.vector(yT))
        Amat = np.column_stack(cols)
        step, *_ = np.linalg.lstsq(Amat, -r, rcond=None)
        if not np.all(np.isfinite(step)):
            raise NoOrbitError("singular shooting system")
        # damped update, trial residuals with plain integration
        lam = 1.0
        for _ in range(5):
            u_try = u + lam * step[:m]
            T_try = T + lam * float(step[m])
            if T_try <= 0.05 * period_guess or T_try > 20.0 * period_guess:
                lam *= 0.5
                continue
            q_try = field.surface.project(p0 + S @ u_try, tols)
            try:
                res = flow.integrate(q_try, T_try)
            except (IntegrationError, EscapeError):
                lam *= 0.5
                continue
            rt = float(np.max(np.abs(Q.T @ wrap_diff(chart, res.y, q_try))))
            if rt < rn or lam <= 0.126:
                u, T, last = u_try, T_try, rt
                break
            lam *= 0.5
        else:
            raise NoOrbitError(f"shooting stalled at residual {rn:.3e}")
    raise NoOrbitError(f"no closed orbit from this seed (residual {last})")


def classify_orbit(field: FoliationField, orbit: RefinedOrbit,
                   tols: policy.Tolerances = policy.DEFAULT) -> OrbitInfo:
    """Return map data on the section normal to the flow at the base point."""
    p = orbit.point
    n = field.scene.n
    _, S = flow_split_basis(field, p)
    M = orbit.monodromy
    dP = S.T @ (M @ S)
    a_vec, Mda = alpha_data_at(field.scene, p)
    lam_row = a_vec @ S
    Msec = S.T @ (Mda @ S)
    A = np.vstack([Msec.T, lam_row])
    b = np.zeros(S.shape[1] + 1)
    b[-1] = 1.0
    c, *_ = np.linalg.lstsq(A, b, rcond=None)
    res = float(np.max(np.abs(A @ c - b)))
    if res > 1e3 * tols.linear_residual * max(1.0, float(np.max(np.abs(Msec)))):
        raise ContactConditionError(
            f"section form is not contact at the orbit (residual {res:.3e})")
    C = float(lam_row @ (dP @ c))
    eigs = np.linalg.eigvals(dP)
    detP = float(np.linalg.det(dP))
    det_res = abs(detP - C ** n) / max(abs(C) ** n, 1e-300)
    # pairing: drop the eigenvalue realizing C, then match mu with C/mu
    rest = list(eigs)
    drop = min(range(len(rest)), key=lambda i: abs(rest[i] - C))
    rest.pop(drop)
    pair_res = 0.0
    while rest:
        mu = rest.pop()
        j = min(range(len(rest)), key=lambda i: abs(mu * rest[i] - C))
        pair_res = max(pair_res, abs(mu * rest[j] - C) / max(abs(C), 1e-300))
        rest.pop(j)
    div_res = abs(orbit.div_integral - math.log(abs(detP))) / max(
        1.0, abs(math.log(abs(detP))))
    return orbit_info(orbit, eigs, C, det_res, pair_res, div_res, tols)


def orbit_info(orbit: RefinedOrbit, multipliers, C: float,
               det_residual: float, pairing_residual: float,
               div_residual: float, tols: policy.Tolerances) -> OrbitInfo:
    """Classify an orbit from its return-map multipliers and conformal
    factor C; the residuals are carried into the record as given."""
    band = tols.hyperbolic_band
    moduli = np.abs(multipliers)
    return OrbitInfo(point=orbit.point, period=orbit.period,
                     multipliers=multipliers, C=C,
                     det_residual=det_residual,
                     pairing_residual=pairing_residual,
                     div_residual=div_residual, positive=bool(C > 1.0),
                     liouville_sign=sign_of(C, 1.0),
                     stable_index=int(np.sum(moduli < 1.0 - band)) + 1,
                     hyperbolic=bool(np.all(np.abs(moduli - 1.0) > band)))
