"""Flows, zeros, closed orbits, and return maps of the direction field.

The integrator is an adaptive Dormand-Prince 5(4) pair with Newton
re-projection onto the hypersurface after every accepted step; the
direction field is tangent to every level of the defining function, so
projection removes roundoff drift rather than fighting the dynamics.
Variational runs carry V = M·basis, a d x k basis moved by the ambient
monodromy M, and the divergence integral alongside the state, all
sourced from one jet pass per stage.
The loop runs on lists of Python floats. A right-hand side is the
`(kernels, fn)` pair of `kernel.run`, and each attempted step is one
function generated per state length and time sense (`_step`): the
stage sums are locals, summed in index order, each stage calls the
front kernel itself (`kernel.run` only where its guards fail), and
reversed time is the sign of the weights. `Flow` feeds the loop the
field's pairs (`FoliationField.vector_rhs`, `variational_rhs(k)`) and
`Hypersurface.project_floats`, the one projection of every projected
flow: a variational run's right-hand side, J·V included, is one
kernel call. Shooting for closed orbits is plain Newton on variational
runs: a trial that runs is the next shot, and only one that cannot run
halves the step. Each shot carries only the 2n-1 columns of its
section, which Newton and the return map read, and an expanding orbit
is shot in reversed time, where it contracts, and classified inverted.
Its early shots only aim Newton and run at the loose `policy.coarse`
tolerances of the certificate's chases; the last ones, and the orbit
returned, run at the profile's.
An event is located on the accepted step that detects it, by
safeguarded Newton on that step's own map over the step size.

Angular coordinates integrate unwrapped; closure of orbits and
deduplication of elements are tested modulo the period.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import jets, kernel, policy
from .contact import FoliationField, alpha_data_at
from .errors import (ConstructiveFailure, ContactConditionError, EscapeError,
                     IntegrationError, NoOrbitError, ProjectionError)

# Dormand-Prince 5(4) coefficients; _A[6] is the 5th-order weight b, so
# the last stage input is the 5th-order solution
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920,
      -17253 / 339200, 22 / 525, -1 / 40)


def _weighted(coeffs, j: int, sense: int) -> str:
    """Source of the sum of (sense * c) * k{i}_{j} over the nonzero
    weights c of `coeffs`, in index order."""
    return "(" + " + ".join(f"{sense * c!r} * k{i}_{j}"
                            for i, c in enumerate(coeffs) if c) + ")"


@functools.cache
def _step(n: int, sense: int):
    """One attempted DOPRI5 step for states of length n in time sense
    +1 or -1, as one straight-line function of Python floats.

    step(kernels, fn, z, f, h, atol, rtol) -> (z5, k6, enorm) for the
    right-hand side `(kernels, fn)` of `kernel.run`: f is the slope at
    z, and stage i calls the front kernel on the floats of
    z + h * sum(sense * _A[i][j] * k_j); only where its guards fail
    does the stage go through `kernel.run`, and later stages call the
    new front kernel. The sense is the sign of the weights, and
    (-c) * k is -(c * k) exactly, so sense -1 has the bits of a step
    along the negated slopes, signed zeros included. z5 is the last
    stage input (the 5th-order solution) and k6 its slope. enorm is
    the RMS of the scaled error (h * sum(sense * _E[j] * k_j)) /
    (atol + rtol * max(|z|, |z5|)), where max is numpy's: a NaN on
    either side gives NaN, and a NaN in z makes z5's entry NaN too.
    Every sum runs in index order, over the nonzero weights.
    """
    ks = [[f"k{i}_{j}" for j in range(n)] for i in range(7)]
    src = ["def step(kernels, fn, z, f, h, atol, rtol):",
           f"    {', '.join(f'y{j}' for j in range(n))}, = z",
           f"    {', '.join(ks[0])}, = f",
           "    kern = kernels[0]"]
    for i in range(1, 7):
        s = [f"s{j}" if i < 6 else f"w{j}" for j in range(n)]
        src += [f"    {s[j]} = y{j} + h * {_weighted(_A[i], j, sense)}"
                for j in range(n)]
        args = ", ".join(s)
        if i < 6:
            src += [f"    r = kern({args})",
                    "    if r is None:",
                    f"        r = kernel.run(kernels, fn, [{args}])",
                    "        kern = kernels[0]",
                    f"    {', '.join(ks[i])}, = r"]
        else:
            src += [f"    z5 = [{args}]",
                    f"    k6 = kern({args})",
                    "    if k6 is None:",
                    "        k6 = kernel.run(kernels, fn, z5)",
                    f"    {', '.join(ks[6])}, = k6"]
    for j in range(n):
        src += [f"    a = abs(y{j}); b = abs(w{j})",
                f"    e = h * {_weighted(_E, j, sense)} / "
                f"(atol + rtol * (a if a >= b else b))",
                f"    q{j} = e * e"]
    sq = " + ".join(f"q{j}" for j in range(n))
    src.append(f"    return z5, k6, _sqrt(({sq}) / {n})")
    ns = {"_sqrt": math.sqrt, "kernel": kernel}
    exec(compile("\n".join(src) + "\n", "<charfol dopri5>", "exec"), ns)
    return ns["step"]


def wrap_diff(chart, a, b) -> np.ndarray:
    """a - b, angular entries (last axis) wrapped to (-period/2, period/2]."""
    out = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    for name in chart.angular:
        i = chart.index(name)
        per = chart.periods[name]
        out[..., i] = (out[..., i] + 0.5 * per) % per - 0.5 * per
    return out


def sign_of(x: float, neutral: float = 0.0) -> int:
    """+1 above `neutral`, -1 below it, and 0 at it (or for NaN)."""
    return int(x > neutral) - int(x < neutral)


def _integrate_core(rhs, z0, tmax, tols: policy.Tolerances, post=None,
                    event: Callable | None = None, domain_ok=None,
                    record=False, sense: int = 1):
    """Shared adaptive loop, backward in time for sense -1. post()
    cleans an accepted state (projection); domain_ok() raising or
    returning False stops with an escape.

    rhs is the `(kernels, fn)` pair of `kernel.run`: every slope comes
    from the front kernel, called on the state's floats as positional
    arguments, and from `kernel.run` only where its guards fail; a
    plain function f of floats is `([f], None)`. Each attempted step is
    one call of the generated `_step` for the state's length and sense.
    tmax is taken as a Python float, so the stage inputs built from it
    are Python floats too; t counts up from 0 in either sense. The
    first step size comes from in-order sums over the state's floats
    and its slope. States are lists: post returns a list, its argument
    itself where it leaves the state as it is, and then the last stage's
    slope is the next step's first (first same as last). The returned
    state, the recorded path and the states in errors are ndarrays. The
    first upward crossing of the event g (from < 0 to >= 0) stops the
    run with status "event"; g runs on any ring, and jets give its slope.
    """
    kernels, fn = rhs

    def slope(y):
        out = kernels[0](*y) if kernels else None
        return kernel.run(kernels, fn, y) if out is None else out

    tmax = float(tmax)
    z = np.asarray(z0, dtype=float).tolist()
    if post is not None:
        z = post(z)
    step = _step(len(z), sense)
    atol, rtol = tols.ode_atol, tols.ode_rtol
    t = 0.0
    f = slope(z)
    # RMS of z and f scaled by the tolerances, summed in order
    d0 = d1 = 0.0
    for v, fv in zip(z, f):
        s = atol + rtol * abs(v)
        a, b = v / s, fv / s
        d0, d1 = d0 + a * a, d1 + b * b
    d0, d1 = math.sqrt(d0 / len(z)), math.sqrt(d1 / len(z))
    h = min(tols.ode_max_step, 0.01 * d0 / d1 if d1 > 1e-12 else tols.ode_max_step)
    h = max(h, 1e-10)
    g0 = None if event is None else event(np.array(z))
    path = [(0.0, np.array(z))] if record else None
    steps = 0
    while t < tmax * (1.0 - 1e-15) :
        steps += 1
        if steps > policy.ODE_MAX_STEPS:
            raise IntegrationError("step budget exhausted", t=t,
                                   state=np.array(z))
        h = min(h, tmax - t)
        z5, k6, enorm = step(kernels, fn, z, f, h, atol, rtol)
        if enorm > 1.0:
            h = max(h * max(0.2, 0.9 * enorm ** -0.25), 1e-14 * (1.0 + abs(t)))
            if h <= 1e-13 * (1.0 + abs(t)):
                raise IntegrationError("step size underflow", t=t,
                                       state=np.array(z))
            continue
        znew = post(z5) if post is not None else z5
        tnew = t + h
        if event is not None:
            g1 = event(np.array(znew))
            if g0 < 0.0 <= g1:
                t_ev, z_ev = _locate_event(
                    lambda tau: step(kernels, fn, z, f, tau, atol, rtol),
                    h, g0, g1, event, post, sense)
                return SimpleNamespace(status="event", t=t + t_ev, y=z_ev,
                                       steps=steps, path=path)
            g0 = g1
        if domain_ok is not None and not domain_ok(znew):
            raise EscapeError("trajectory left the declared domain",
                              t=tnew, state=np.array(znew))
        t, z, f = tnew, znew, k6 if znew is z5 else slope(znew)
        if record:
            path.append((t, np.array(z)))
        grow = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm ** -0.2))
        h = min(tols.ode_max_step, h * grow)
    return SimpleNamespace(status="time", t=t, y=np.array(z), steps=steps,
                           path=path)


def _locate_event(step_to, h, g0, g1, event, post, sense):
    """(tau, state) of the crossing inside an accepted step of size h,
    whose event values are g0 and g1: safeguarded Newton on
    tau -> g(post(z5)), with (z5, k6, _) = step_to(tau) the step's own
    `_step` from its start, begun at the secant point. g and grad g come
    from the event on seeded jets, g' = sense * (grad g . k6) (0 for a
    result that is not a Jet), a Newton point off the bracket gives way
    to its midpoint, and it stops at |g| < 1e-13 (1 + |g'|)."""
    lo, hi, tau = 0.0, h, float(h * g0 / (g0 - g1))
    for _ in range(60):
        z5, k6, _ = step_to(tau)
        y = post(z5) if post is not None else z5
        g = event(jets.seed(y))
        gd = sense * float(np.dot(g.g, k6)) if isinstance(g, jets.Jet) else 0.0
        g = jets.fval(g)
        if abs(g) < 1e-13 * (1.0 + abs(gd)):
            break
        lo, hi = (tau, hi) if (g < 0.0) == (g0 < 0.0) else (lo, tau)
        newton = tau - g / gd if gd != 0.0 else lo
        tau = newton if lo < newton < hi else 0.5 * (lo + hi)
    return tau, np.array(y)


class Flow:
    """Trajectories of the characteristic direction field on one surface,
    backward in time for sense -1 (the sign of the step's weights).

    The loop calls the front kernels of the field's `(kernels, fn)`
    pairs (`vector_rhs`, `variational_rhs(k)`) itself and projects through
    `surface.project_floats`; a variational post returns its argument
    itself where the point stays, so first same as last holds."""

    def __init__(self, field: FoliationField, tols: policy.Tolerances = policy.DEFAULT,
                 sense: int = +1):
        self.field = field
        self.tols = tols
        self.sense = sense

    def integrate(self, y0, tmax, event: Callable | None = None,
                  record: bool = False):
        return _integrate_core(self.field.vector_rhs, y0, tmax, self.tols,
                               post=self.field.surface.project_floats,
                               event=event, domain_ok=self.field.scene.in_domain,
                               record=record, sense=self.sense)

    def integrate_variational(self, y0, tmax, basis):
        """State, V = M · basis for the ambient monodromy M (d x k for a
        d x k basis), and divergence integral over [0, tmax].

        The step controller's RMS error norm spans all d + d·k + 1
        floats of the run, so the steps taken, and V's accuracy at the
        profile's tolerances, depend on the basis width k: a narrower
        basis weighs the state more and V less."""
        d = len(y0)
        basis = np.asarray(basis, dtype=float)
        k = basis.shape[1]
        project = self.field.surface.project_floats

        def post(z):
            x = z[:d]
            p = project(x)
            return z if p is x else [*p, *z[d:]]

        # in_domain reads only the coordinates, the first d entries
        z0 = np.concatenate([np.asarray(y0, float), basis.ravel(), [0.0]])
        res = _integrate_core(self.field.variational_rhs(k), z0, tmax,
                              self.tols, post=post,
                              domain_ok=self.field.scene.in_domain,
                              sense=self.sense)
        y = res.y[:d]
        V = res.y[d:d + d * k].reshape(d, k)
        w = float(res.y[-1])
        return y, V, w


# tangent machinery ----------------------------------------------------

def flow_split_basis(field: FoliationField, point):
    """(Q, S): orthonormal columns spanning the surface tangent space
    (d x 2n), and the section normal to the flow inside it (d x 2n-1)."""
    _, frame = field.surface.frame(point)
    V = np.array(frame, dtype=float).T
    Q, _ = np.linalg.qr(V)
    X = field.vector(point)
    xc = Q.T @ X
    nx = np.linalg.norm(xc)
    if nx == 0.0:
        raise ValueError("point is a zero of the field; no flow direction")
    xc = (xc / nx).reshape(-1, 1)
    full, _ = np.linalg.qr(xc, mode="complete")
    return Q, Q @ full[:, 1:]


# census elements and zeros ---------------------------------------------

@dataclass
class Element:
    """A zero or a closed orbit of the field (kind "zero" or "orbit"), as
    a census lists it and the certificate checks it. spectrum: a zero's
    eigenvalues on the tangent space, or an orbit's multipliers on the
    section. sign: the Liouville sign, 0 for none. stable_dim: the
    dimension of the stable set, an orbit's own direction included.
    Only a zero has a divergence; only an orbit has a period, the
    conformal factor C of its return map, the residuals of
    `classify_orbit`, its section S and return map dP = SᵀMS, in the
    sense it was shot in, and a loop, points along it sampled by the caller.
    Every field pickles; capture regions are `check_morse_smale`'s."""

    kind: str
    point: np.ndarray
    spectrum: np.ndarray
    sign: int
    stable_dim: int
    hyperbolic: bool
    divergence: float | None = None
    period: float | None = None
    C: float | None = None
    det_residual: float | None = None       # |det dP - C^n| / |C^n|
    pairing_residual: float | None = None   # symplectic pairing mu <-> C/mu
    div_residual: float | None = None       # divergence integral vs log det dP
    section: np.ndarray | None = None
    return_map: np.ndarray | None = None
    loop: np.ndarray | None = None


def refine_zero(field: FoliationField, seed,
                tols: policy.Tolerances = policy.DEFAULT) -> np.ndarray:
    """Newton on (X, F) jointly; converges to a zero on the surface, or
    gives up once the residual sits at its best (`policy.ZERO_STALL_*`)
    or the field fails at an iterate after the (projected) seed."""
    x = field.surface.project(seed)
    scale = 1.0 + float(np.max(np.abs(x)))
    best, flat = None, 0
    for it in range(tols.newton_max_iter):
        try:
            X, J = field.vector_and_jacobian(x)
            Fv, Fg = field.surface.value_and_grad(x)
        except (ArithmeticError, ValueError) as e:
            if it == 0:
                raise
            raise ConstructiveFailure(f"zero refinement failed: {e}") from e
        r = np.append(X, Fv)
        rn = float(np.max(np.abs(r)))
        flat = flat + 1 if (best is not None and abs(rn - best)
                            <= policy.ZERO_STALL_RTOL * best) else 0
        if best is None or rn < best:
            best = rn
        if rn < tols.newton_tol * scale:
            return x
        if flat >= policy.ZERO_STALL_STEPS:
            break
        A = np.vstack([J, np.asarray(Fg, dtype=float)])
        dx, *_ = np.linalg.lstsq(A, -r, rcond=None)
        if not np.all(np.isfinite(dx)):
            break
        x = x + dx
    raise ConstructiveFailure(
        f"zero refinement stalled at residual {best:.3e}")


def find_zeros(field: FoliationField, seeds,
               tols: policy.Tolerances = policy.DEFAULT,
               with_seeds: bool = False) -> list:
    """Refine every seed and keep the distinct results, sorted; with
    `with_seeds`, as (zero, first seed that reached it) pairs."""
    chart = field.scene.chart
    out = []
    for s in seeds:
        s = np.asarray(s, dtype=float)
        try:
            z = refine_zero(field, s, tols)
        except ConstructiveFailure:
            continue
        if any(np.max(np.abs(wrap_diff(chart, z, q))) < policy.DEDUP_RADIUS
               for q, _ in out):
            continue
        out.append((z, s))
    out.sort(key=lambda zs: tuple(np.round(zs[0], 9)))
    return out if with_seeds else [z for z, _ in out]


def linearize_zero(field: FoliationField, point):
    """(A, frame, div): the ambient Jacobian at a zero restricted to the
    tangent space, in the frame of `Hypersurface.frame` (rows of `frame`),
    and the divergence, from one `flow_data`.

    The frame vectors each carry a single unit coordinate, so tangent
    coordinates are read off componentwise.
    """
    _, J, div = field.flow_data(point)
    coords, frame = field.surface.frame(point)
    frame = np.array(frame)
    return np.array([(J @ v)[coords] for v in frame]).T, frame, div


def classify_zero(field: FoliationField, point) -> Element:
    """The Element of a zero: linearization, divergence and its sign, the
    Liouville sign. A zero of divergence exactly 0 has no sign (0) and
    does not count as hyperbolic."""
    A, _, div = linearize_zero(field, point)
    eigs = np.linalg.eigvals(A)
    sign = sign_of(div)
    band = policy.HYPERBOLIC_BAND * max(1.0, float(np.max(np.abs(eigs))))
    return Element(kind="zero", point=np.asarray(point, dtype=float),
                   spectrum=eigs, sign=sign,
                   stable_dim=int(np.sum(eigs.real < 0.0)),
                   hyperbolic=bool(sign != 0
                                   and np.all(np.abs(eigs.real) > band)),
                   divergence=div)


# closed orbits ---------------------------------------------------------

@dataclass
class RefinedOrbit:
    """A closed orbit: a point on it and the period; the section S at
    the point (d x 2n-1, `flow_split_basis`'s); the section monodromy
    M·S of the ambient monodromy M over one period; the divergence
    integral; and the time sense that M and the integral are of."""

    point: np.ndarray
    period: float
    section: np.ndarray
    monodromy: np.ndarray
    div_integral: float
    sense: int = +1


def find_orbit(field: FoliationField, seed_point, period_guess: float,
               tols: policy.Tolerances = policy.DEFAULT,
               sense: int = +1) -> RefinedOrbit:
    """Newton shooting for a closed orbit from one seed and a period guess.
    Sense -1 shoots in reversed time, where a positive orbit contracts and
    seed errors shrink; the monodromy and divergence integral are then the
    reversed flow's, and the orbit carries its sense for `classify_orbit`.

    Each shot starts at a point q on the surface and carries V = M·S_q,
    the section S_q at q (`flow_split_basis`) moved by the monodromy:
    Newton solves in the coordinates of S_q and the period, on the
    residual's components in the seed's tangent basis Q. A trial starts
    at the projection of q + S_q·(λ·step); if it runs, it is the next
    shot, whatever its residual. If its period leaves [0.05, 20] times
    the guess, or its start or run fails to project, integrate or stay
    in the domain, λ halves instead, from 1 down to 1/16, and five
    failed tries stall the search. Shots run at `policy.coarse(tols)`,
    which aim Newton as well, until one's residual is below
    sqrt(coarse rtol) * scale; the shots after it run at `tols`, and
    only a shot at `tols` converges."""
    chart = field.scene.chart
    p0 = field.surface.project(seed_point)
    scale = 1.0 + float(np.max(np.abs(p0)))
    speed_floor = math.sqrt(tols.newton_tol) * scale
    if float(np.linalg.norm(field.vector(p0))) < speed_floor:
        raise NoOrbitError("seed point is (numerically) a zero of the field")
    Q, S = flow_split_basis(field, p0)
    m = S.shape[1]
    flow = Flow(field, policy.coarse(tols), sense)
    fine = Flow(field, tols, sense)
    handover = math.sqrt(flow.tols.ode_rtol) * scale
    failed = (IntegrationError, EscapeError, ProjectionError)

    def shoot(q, S, T):
        yT, V, w = flow.integrate_variational(q, T, S)
        r = Q.T @ wrap_diff(chart, yT, q)
        return q, S, yT, V, w, r, float(np.max(np.abs(r)))

    T = float(period_guess)
    try:
        shot = shoot(p0, S, T)
    except failed as e:
        raise NoOrbitError(f"shooting could not complete a loop ({e})") from e
    for _ in range(tols.newton_max_iter):
        q, S, yT, V, w, r, rn = shot
        if flow is fine and rn < tols.newton_tol * scale * 10.0:
            if float(np.linalg.norm(field.vector(q))) < speed_floor:
                raise NoOrbitError("refinement collapsed onto a zero")
            return RefinedOrbit(point=q, period=T, section=S, monodromy=V,
                                div_integral=w, sense=sense)
        Amat = np.column_stack([Q.T @ (V - S),
                                Q.T @ (sense * field.vector(yT))])
        step, *_ = np.linalg.lstsq(Amat, -r, rcond=None)
        if not np.all(np.isfinite(step)):
            raise NoOrbitError("singular shooting system")
        if flow is not fine and rn < handover:
            flow = fine
        for lam in (1.0, 0.5, 0.25, 0.125, 0.0625):
            T_try = T + lam * float(step[m])
            if not 0.05 * period_guess < T_try <= 20.0 * period_guess:
                continue
            try:
                q_try = field.surface.project(q + S @ (lam * step[:m]))
                shot = shoot(q_try, flow_split_basis(field, q_try)[1], T_try)
            except failed:
                continue
            T = T_try
            break
        else:
            raise NoOrbitError(f"shooting stalled at residual {rn:.3e}")
    raise NoOrbitError(
        f"no closed orbit from this seed (residual {shot[-1]})")


def classify_orbit(field: FoliationField, orbit: RefinedOrbit) -> Element:
    """The Element of a refined orbit, without loop, from the return map
    dP = Sᵀ(M·S) on the orbit's section S, normal to the flow at the
    base point; C's side of 1 is the Liouville sign. An orbit of sense
    -1 carries the reversed flow's monodromy, whose return map is the
    inverse: its multipliers and C are inverted, its residuals kept."""
    p = orbit.point
    n = field.scene.n
    S = orbit.section
    dP = S.T @ orbit.monodromy
    a_vec, Mda = alpha_data_at(field.scene, p)
    lam_row = a_vec @ S
    Msec = S.T @ (Mda @ S)
    A = np.vstack([Msec.T, lam_row])
    b = np.zeros(S.shape[1] + 1)
    b[-1] = 1.0
    c, *_ = np.linalg.lstsq(A, b, rcond=None)
    res = float(np.max(np.abs(A @ c - b)))
    if res > 1e3 * policy.LINEAR_RESIDUAL * max(1.0, float(np.max(np.abs(Msec)))):
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
    if orbit.sense < 0:
        eigs, C = 1.0 / eigs, 1.0 / C
    band = policy.HYPERBOLIC_BAND
    moduli = np.abs(eigs)
    return Element(kind="orbit", point=p, spectrum=eigs,
                   sign=sign_of(C, 1.0),
                   stable_dim=int(np.sum(moduli < 1.0 - band)) + 1,
                   hyperbolic=bool(np.all(np.abs(moduli - 1.0) > band)),
                   period=orbit.period, C=C, det_residual=det_res,
                   pairing_residual=pair_res, div_residual=div_res,
                   section=S, return_map=dP)
