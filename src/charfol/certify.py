"""Sampling-based structural certificates for characteristic foliations.

What a finite computation can honestly certify: that every element of a
proposed census is hyperbolic, that a sample of trajectories lands on
census elements in both time directions, that separatrices launched
from negative elements do not reach positive ones, and that no
verified recurrence was supplied (a record such as
`mori.torus_recurrence` returns). A pass is therefore evidence
within the sampled basins, not a global proof, and the certificate says
so; a fail always carries a concrete witness (a neutral multiplier, a
verified invariant set, a forbidden connection, or a recurrent sampled
trajectory). Transversality of invariant manifolds is out of scope and
is reported as such. A chase is captured in an element's own region
(`capture_region`), a sublevel set of a quadratic Lyapunov function of
its linearization. Every flow the certificate starts runs at
`policy.coarse` of the profile, for times derived from
`policy.FLOW_BUDGET`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from types import SimpleNamespace

import numpy as np

from . import jets, parallel, policy
from .contact import ContactScene
from .dynamics import Flow, linearize_zero, wrap_diff
from .errors import (ConstructiveFailure, EscapeError, IntegrationError,
                     ProjectionError)
from .exterior import Chart, KForm, ScalarField, _fn, _rebase


@dataclass
class MorseSmaleCertificate:
    verdict: str                      # "pass" | "fail" | "inconclusive"
    reasons: list
    elements: list                    # the census, zeros first
    limit_check: float                # fraction of seeds captured both ways
    connection_violations: list
    recurrence: list
    seeds_used: int
    transversality: str = "not verified"
    notes: list = dc_field(default_factory=list)
    regions: list = dc_field(default_factory=list)  # per element, or None


def _loop_distance(chart, loop):
    """Distance from a point to a closed polyline, angular coords wrapped,
    as a function of the point; the wrapped edges are computed once."""
    a = np.asarray(loop, dtype=float)
    seg = wrap_diff(chart, np.roll(a, -1, axis=0), a)
    ss = np.einsum("ij,ij->i", seg, seg)

    def dist(p):
        d0 = wrap_diff(chart, p, a)
        t = np.divide(np.einsum("ij,ij->i", d0, seg), ss,
                      out=np.zeros_like(ss), where=ss != 0.0)
        r = d0 - np.clip(t, 0.0, 1.0)[:, None] * seg
        return math.sqrt(float(np.min(np.einsum("ij,ij->i", r, r))))

    return dist


# capture regions ---------------------------------------------------------

# the ladder of levels starts at outer radius LADDER_RADIUS and halves;
# a zero's sample is SHELLS shells {V = c'} of DIRECTIONS points each
LADDER_RADIUS, LADDER_RUNGS = 0.8, 16
SHELLS, DIRECTIONS = 8, 64


def _lyapunov(A, discrete: bool) -> np.ndarray:
    """P with AᵀPA - P = -I (discrete) or AᵀP + PA = -I: a Kronecker solve."""
    m = len(A)
    K = (np.kron(A.T, A.T) - np.eye(m * m) if discrete
         else np.kron(A.T, np.eye(m)) + np.kron(np.eye(m), A.T))
    P = np.linalg.solve(K, -np.eye(m).ravel()).reshape(m, m)
    return 0.5 * (P + P.T)


def capture_region(field, el, tols: policy.Tolerances = policy.DEFAULT,
                   others=()):
    """{V < level} for a hyperbolic element, in the sense it attracts in:
    V(x) = ξᵀPξ, ξ = basisᵀ(x - point) wrapped, as a dict of plain arrays
    and numbers (sense, basis, P, level, radii largest first, reach,
    samples); None where the element attracts in neither sense.

    A zero's basis picks its tangent coordinates, and AᵀP + PA = -I for
    its linearization A; an orbit's is its section, and dPᵀP dP - P = -I
    for its return map dP, inverted where it expands. The level is the
    first rung of the ladder a sample confirms, 0.0 for none. A zero's
    sample, projected, must stay in the domain with V' < 0; reach is its
    farthest point. An orbit's is the 4 points of {V = level} on the ±
    extreme eigenvectors of P, projected, which must return to the
    section (`_next_crossing`, at `policy.coarse(tols)`) with V at most
    (1 + max |μ|²) / 2 times the level; reach is the outer radius. No
    point of others, the rest of the census (a zero, or each sample of
    an orbit's loop), may have V < level within reach: V reads only a
    zero's tangent coordinates, so a sphere's other pole has V = 0."""
    chart, p, dim = field.scene.chart, el.point, field.scene.chart.dim - 1
    # forward where the stable set is all of the surface, backward where
    # the unstable one is; both hold the dim - len(spectrum) own directions
    sense = (1 if el.stable_dim == dim
             else -1 if el.stable_dim == dim - len(el.spectrum) else 0)
    if not el.hyperbolic or sense == 0:
        return None
    if el.kind == "zero":
        basis = np.eye(len(p))[:, field.surface.frame(p)[0]]
        P = _lyapunov(sense * linearize_zero(field, p)[0], False)
        w = np.random.default_rng(0).standard_normal(
            (SHELLS * DIRECTIONS, len(P)))
        w *= np.sqrt(np.repeat(np.arange(1, SHELLS + 1) / SHELLS, DIRECTIONS)
                     / np.einsum("ij,jk,ik->i", w, P, w))[:, None]

        def reach(level):
            """The sample's farthest distance, None where it fails."""
            x = field.surface.project_samples(p + math.sqrt(level) * w
                                              @ basis.T)
            if len(x) < len(w) or not field.scene.domain_mask(x).all():
                return None
            d = wrap_diff(chart, x, p)
            rate = sense * field.vectors(x) @ basis
            if np.all(np.einsum("ij,jk,ik->i", d @ basis, P, rate) < 0.0):
                return float(np.max(np.linalg.norm(d, axis=1)))
            return None
    else:
        basis, dP = el.section, el.return_map
        if np.max(np.abs(np.linalg.eigvals(dP))) > 1.0:
            dP = np.linalg.inv(dP)
        P = _lyapunov(dP, True)
        rho = 0.5 * (1.0 + float(np.max(np.abs(np.linalg.eigvals(dP)))) ** 2)
        lam, E = np.linalg.eigh(P)
        w = [s * E[:, j] / math.sqrt(lam[j]) for j in (0, -1) for s in (1, -1)]
        flow = Flow(field, policy.coarse(tols), sense=sense)
        event = _section_event(chart, p, sense * field.vector(p))
        V = _quadratic(chart, p, basis, P)

        def returns(u, level):
            try:
                x = field.surface.project(p + basis @ (math.sqrt(level) * u))
                _, y, crossed = _next_crossing(flow, x, el.period, event,
                                               clear=0.5 * el.period)
            except (EscapeError, IntegrationError, ProjectionError):
                return False
            return crossed and V(y) <= rho * level

        def reach(level):
            """The outer radius, None where a return fails."""
            if all(returns(u, level) for u in w):
                return math.sqrt(level / lam[0])
            return None

    pts = np.array([q for o in others for q in (
        [o.point] if o.loop is None else o.loop)]).reshape(-1, len(p))
    xi = wrap_diff(chart, pts, p) @ basis
    vs = np.einsum("ij,jk,ik->i", xi, P, xi)
    near = _loop_distance(chart, [p] if el.loop is None else el.loop)
    level = LADDER_RADIUS ** 2 * float(np.linalg.eigvalsh(P)[0])
    for _ in range(LADDER_RUNGS):
        far = reach(level)
        if far is not None and all(near(x) >= far for x in pts[vs < level]):
            break
        level *= 0.5
    else:
        level, far = 0.0, 0.0
    return {"sense": sense, "basis": basis, "P": P, "level": level,
            "radii": np.sqrt(level / np.linalg.eigvalsh(P)),
            "reach": far, "samples": len(w)}


def _quadratic(chart, point, basis, P):
    """V(x) = ξᵀPξ for ξ = basisᵀ(x - point), angular entries wrapped."""

    def V(x):
        xi = wrap_diff(chart, x, point) @ basis
        return float(xi @ P @ xi)

    return V


def _section_event(chart, point, normal):
    """Event: a crossing along `normal` of the hyperplane through point
    normal to it, an angular offset u of period L read as L sin(2πu/L)/2π."""
    terms = [(i, n, p, 2.0 * math.pi / chart.periods.get(name, math.inf))
             for i, (name, n, p) in enumerate(zip(
                 chart.names, normal.tolist(), point.tolist())) if n]

    def fn(y):
        g = 0.0
        for i, n, p, w in terms:
            u = y[i] - p
            g = g + n * (jets.sin(w * u) / w if w else u)
        return g

    return fn


def _next_crossing(flow, x, period: float, event, clear: float = 0.0):
    """(time, point, crossed) of the first crossing of an orbit's section
    from x after `clear` time, at most 1.5 periods on, else its run's end."""
    t = 0.0
    if clear:
        res = flow.integrate(x, clear)
        t, x = res.t, res.y
    res = flow.integrate(x, 1.5 * period - clear, event=event)
    return t + res.t, res.y, res.status == "event"


def _capture_sets(field, elements, regions, sense):
    """(forward, backward) capture tests of the elements with a region in
    the chase's sense: element, V, level, reach, near(x), the distance to
    the point or loop, and an orbit's period and section event."""
    fw, bw, chart = [], [], field.scene.chart
    for el, r in zip(elements, regions):
        if r is not None:
            orbit, p = el.kind == "orbit", el.point
            (fw if r["sense"] == sense else bw).append(SimpleNamespace(
                element=el, level=r["level"], reach=r["reach"],
                period=el.period, V=_quadratic(chart, p, r["basis"], r["P"]),
                near=_loop_distance(chart, el.loop if orbit else [p]),
                event=_section_event(chart, p, r["sense"] * field.vector(p))
                if orbit else None))
    return fw, bw


def _chase(field, q, sets, sense, tols):
    """Flow in legs until a capture set captures or the budget dies.

    Returns (element or None, endpoint, note or None): the element that
    captured the chase, where the chase stopped, and why it gave up
    early. An orbit's test runs on to its section, where the chase goes on.
    """
    flow = Flow(field, tols, sense=sense)
    budget = policy.FLOW_BUDGET
    spent, p = 0.0, np.asarray(q, dtype=float)
    try:
        while spent < budget:
            res = flow.integrate(p, min(budget / 96.0, budget - spent))
            p, spent = res.y, spent + res.t
            for cap in sets:
                if not cap.near(p) < cap.reach:
                    continue
                if cap.event is None:
                    if cap.V(p) < cap.level:
                        return cap.element, p, None
                    continue
                t, p, crossed = _next_crossing(flow, p, cap.period,
                                               cap.event)
                spent += t
                if crossed and cap.V(p) < cap.level:
                    return cap.element, p, None
                break                       # p moved on: a new leg
    except EscapeError:
        return None, p, "trajectory left the declared domain"
    except IntegrationError as e:
        return None, p, f"integration gave up: {e}"
    return None, p, None


def _angular_recurrence(field, q, sense, tols):
    """Count full returns of the fastest angular coordinate near q.

    Detection keys on a smooth periodic function of one coordinate, so
    a two-unit integration step cannot jump over a return the way a
    thin-tube crossing test would. Charts without angular coordinates
    return None (nothing to count against). The tube scales with q's
    non-angular coordinates alone, not with the turns of an angle.
    """
    chart = field.scene.chart
    q = np.asarray(q, dtype=float)
    X = field.vector(q)
    scale = max([1.0, *(abs(float(q[i])) for i, name in enumerate(chart.names)
                        if name not in chart.angular)])
    best, rate = None, 0.0
    for name in chart.angular:
        i = chart.index(name)
        r = abs(float(X[i])) / chart.periods[name]
        if r > rate:
            best, rate = i, r
    if best is None or rate < 1e-10:
        return None
    direction = 1 if X[best] * sense > 0 else -1
    flow = Flow(field, tols, sense=sense)
    budget = 4.0 * policy.FLOW_BUDGET
    tube = policy.RECURRENCE_TUBE * scale
    spent, p = 0.0, q.copy()
    returns, drift, gaps = 0, 0.0, []
    while spent < budget and returns < tols.recurrence_returns:
        # each leg counts one turn from its own start: a landing a hair
        # short of the crossing would otherwise fire again at once
        ev = _section_event(chart, p, direction * np.eye(len(p))[best])
        try:
            res = flow.integrate(p, budget - spent, event=ev)
        except (EscapeError, IntegrationError):
            break
        if res.status != "event":
            break
        p, spent = res.y, spent + res.t
        gaps.append(res.t)
        d = float(np.max(np.abs(wrap_diff(chart, p, q))))
        if d > 50.0 * tube:
            break                       # wandered off; not a recurrence
        drift = max(drift, d)
        if d < tube:
            returns += 1
    if returns >= tols.recurrence_returns:
        return {"kind": "recurrent trajectory", "returns": returns,
                "max_drift": drift, "coordinate": chart.names[best],
                "mean_return_time": float(np.mean(gaps))}
    return None


def _unstable_directions(field, point, sense):
    """Deduplicated real unstable directions at a zero, ambient components."""
    A, frame, _ = linearize_zero(field, point)
    w, V = np.linalg.eig(A)
    out = []
    for j in range(len(w)):
        if w[j].real * sense <= 0.0:
            continue
        for part in (V[:, j].real, V[:, j].imag):
            nm = float(np.linalg.norm(part))
            if nm < 1e-12:
                continue
            amb = (part / nm) @ frame
            amb /= float(np.linalg.norm(amb))
            if any(min(np.linalg.norm(amb - u), np.linalg.norm(amb + u))
                   < 1e-8 for u in out):
                continue
            out.append(amb)
    return out


def _seed_chases(field, q, fw, bw, sense, tols):
    """(captured, notes, recurrence records, reasons) of one seed, chased
    forward to fw and backward to bw."""
    ok, notes, records, reasons = True, [], [], []
    for s, sets in ((sense, fw), (-sense, bw)):
        captor, endpoint, note = _chase(field, q, sets, s, tols)
        if captor is not None:
            continue
        ok = False
        if note:
            notes.append(f"seed {np.round(q, 4)}: {note}")
            continue
        evidence = _angular_recurrence(field, endpoint, s, tols)
        if evidence is not None:
            records.append({"seed": np.round(q, 6), **evidence})
            reasons.append("a sampled trajectory is recurrent without "
                           "being asymptotic to any element")
        else:
            notes.append(f"seed {np.round(q, 4)} exhausted the flow "
                         "budget without capture")
    return ok, notes, records, reasons


def _gate_reasons(el) -> list:
    """Why an element fails the hyperbolicity gate; a zero without sign
    is named for that alone."""
    if el.kind == "zero":
        at = f"zero at {np.round(el.point, 6)} has"
        if el.sign == 0:
            return [f"{at} divergence 0, so no Liouville sign"]
        return [] if el.hyperbolic else [f"{at} a neutral eigenvalue"]
    at = f"orbit through {np.round(el.point, 6)} has"
    reasons = [] if el.hyperbolic else [f"{at} a multiplier of unit modulus"]
    if el.sign == 0:
        reasons.append(f"{at} conformal factor C = 1, so no Liouville sign")
    return reasons


def check_morse_smale(field, seeds, elements=(),
                      tols: policy.Tolerances = policy.DEFAULT,
                      recurrence=(), sense: int = +1) -> MorseSmaleCertificate:
    """Assemble the certificate for one census on one surface.

    seeds are the points of the surface whose trajectories are chased
    in both time directions (for instance `field.surface_samples(rng,
    count)`); elements is the census, a list of `dynamics.Element`,
    zeros first (the order of `report.element_rows`), each orbit with
    its loop. recurrence holds already verified recurrent sets, dicts
    with at least a description (for instance
    `mori.torus_recurrence(scene, probe)`); once every element is
    hyperbolic each is recorded, and disqualifies. Past both, each
    element gets its `capture_region`, in `regions`, in element order.
    A chase is captured where V < level in a region of its sense: a
    zero's at a leg end, an orbit's at the next crossing of its section,
    once a leg ends within the outer radius of its loop. A separatrix
    of a negative zero may enter no positive element's region.
    The verdict is fail on any concrete witness against the structure,
    pass when every element is hyperbolic, no recurrence is supplied,
    no launched connection lands wrong, and every seed is captured both
    ways; anything short of that is inconclusive, with the offending
    seed recorded. No seeds is inconclusive. tols is the profile; every
    flow runs at `policy.coarse(tols)`.

    The orbits' regions and the seeds' chases run side by side on one
    worker per CPU (`parallel.pmap`; a zero's region, one sample, runs
    here), and what each seed found is merged in seed order, so the
    certificate has the same bytes whatever the worker count. A
    recurrent sampled trajectory is recorded per seed and direction,
    and its reason is stated once.
    """
    seeds = [np.asarray(q, dtype=float) for q in seeds]
    profile, tols = tols, policy.coarse(tols)
    elements = list(elements)
    supplied, recurrence = recurrence, []
    reasons, notes, violations = [], [], []

    def skipped(note):
        return MorseSmaleCertificate(
            verdict="fail", reasons=reasons, elements=elements,
            limit_check=0.0, connection_violations=[], recurrence=recurrence,
            seeds_used=0, notes=[f"{note}; sampling skipped"])

    for el in elements:
        reasons += _gate_reasons(el)
    if reasons:
        return skipped("hyperbolicity gate failed")

    recurrence += supplied
    reasons += [f"verified recurrence: {rec['description']}"
                for rec in supplied]
    if reasons:
        return skipped("a verified recurrence was supplied")

    def region(el):
        return capture_region(field, el, profile,
                              [o for o in elements if o is not el])

    done = parallel.pmap(region, [o for o in elements if o.kind == "orbit"])
    regions = [done.pop(0) if el.kind == "orbit" else region(el)
               for el in elements]
    fw, bw = _capture_sets(field, elements, regions, sense)

    # signs are read in the effective time direction. Only zeros are
    # launched; unstable Floquet bundles of orbits are left to sampling
    positive = [cap for cap in fw if cap.element.sign * sense > 0]
    for z in elements:
        if not positive or z.kind != "zero" or z.sign * sense >= 0:
            continue
        for v in _unstable_directions(field, z.point, sense):
            start = field.surface.project(z.point + 1e-4 * v)
            hit, _, note = _chase(field, start, positive, sense, tols)
            if note:
                notes.append(f"separatrix launch: {note}")
            if hit is not None:
                violations.append({"from": np.round(z.point, 6),
                                   "to": np.round(hit.point, 6),
                                   "kind": hit.kind})
    if violations:
        reasons.append("a separatrix of a negative element reaches a "
                       "positive element (connection violation)")

    captured = 0
    for ok, seed_notes, records, seed_reasons in parallel.pmap(
            lambda q: _seed_chases(field, q, fw, bw, sense, tols), seeds):
        captured += ok
        notes += seed_notes
        recurrence += records
        for reason in seed_reasons:
            if reason not in reasons:
                reasons.append(reason)
    limit = captured / len(seeds) if seeds else 0.0

    if reasons:
        verdict = "fail"
    elif seeds and captured == len(seeds):
        verdict = "pass"
    else:
        verdict = "inconclusive"
        if not seeds:
            notes.append("no usable seeds; nothing was sampled")
    return MorseSmaleCertificate(
        verdict=verdict, reasons=reasons, elements=elements,
        limit_check=limit, connection_violations=violations,
        recurrence=recurrence, seeds_used=len(seeds), notes=notes,
        regions=regions)


# convexity profiles ----------------------------------------------------

PROFILE_GRID = 1000


def verification_grid() -> np.ndarray:
    """The PROFILE_GRID cell midpoints of [-1, 1]. Endpoints are excluded:
    u' vanishes at both, so the graded positivity expression degenerates
    there and a strictly sloped boundary germ would be misread as a
    failure at s = 1 regardless of the profile between the ends."""
    k = np.arange(PROFILE_GRID)
    return -1.0 + (2.0 * k + 1.0) / float(PROFILE_GRID)


@dataclass(frozen=True)
class ConvexityProfile:
    """The pair (u, h1) on the dividing-set collar [-1, 1].

    grid_residuals holds the minimum of u^n h1' - u' h1^n over the
    verification grid; boundary records the germ data (value, slope)
    the construction matched at s = -1 and s = +1.
    """

    u: ScalarField
    h1: ScalarField
    n: int
    grid_residuals: float
    boundary: dict
    params: dict


def _u_expr(s: ScalarField) -> ScalarField:
    # fixed odd quintic step: u(-1) = 1, u(0) = 0, u(1) = -1,
    # u' = -(15/8)(1 - s^2)^2 with double zeros at the ends
    s2 = s * s
    return s * s2 * (10.0 / 8.0) - s * (15.0 / 8.0) - s * s2 * s2 * (3.0 / 8.0)


def _g_expr(s: ScalarField, qm, qp, rho, nu, K) -> ScalarField:
    # exponent of h1 = c exp(g), with g' = -s q(s)
    s2 = s * s
    s3 = s2 * s
    s4 = s2 * s2
    s5 = s4 * s
    s6 = s3 * s3
    s7 = s6 * s
    pm = (s2 * 0.5 - s3 * (4.0 / 3.0) + s4 * 1.5 - s5 * 0.8 + s6 * (1.0 / 6.0)) \
        * (1.0 / 16.0)
    pp = _fn("exp", (s - 1.0) * K) * (s * (1.0 / K) - 1.0 / K ** 2) \
        + math.exp(-K) / K ** 2
    pc = s2 * 0.5 - s4 * 0.5 + s6 * (1.0 / 6.0)
    pd = s3 * (1.0 / 3.0) - s5 * 0.4 + s7 * (1.0 / 7.0)
    return -(pm * qm + pp * qp + pc * rho + pd * nu)


def _q_np(s, qm, qp, rho, nu, K):
    return (qm * ((1.0 - s) / 2.0) ** 4 + qp * np.exp(K * (s - 1.0))
            + (1.0 - s ** 2) ** 2 * (rho + nu * s))


def profile_arrays(u: ScalarField, h1: ScalarField, n: int, ss):
    """u, u', h1, h1' and the residual u^n h1' - u' h1^n on an array of s.

    One pass of one-slot jets over the whole array; this is the only
    place the graded positivity residual is computed.
    """
    uv, (up,) = u.value_and_grad([ss])
    hv, (hp,) = h1.value_and_grad([ss])
    return uv, up, hv, hp, uv ** n * hp - up * hv ** n


def build_profile(h_minus, h_plus, n: int) -> ConvexityProfile:
    """Construct (u, h1) matching the boundary germs for this n.

    Germs are (value, slope) pairs of h at s = -1 and s = +1. The h1
    template is a plateau times an exponential bump, h1 = c exp(g) with
    g' = -s q(s): a positive q gives the required slope signs outright,
    q(-1) and q(1) reproduce the germ slopes, and the weighted integral
    of q fixes the value ratio h1(-1)/h1(1). One odd shape term closes
    that integral; the remaining mid-bump mass rho and the seam
    stiffness K are swept over a bounded lattice until the grid checks
    pass, since no a-priori choice is available. For even n the
    positivity expression forces |h1'| below |u'| |h1/u|^n on the
    positive half, which the K-localized seam makes possible while the
    germ slope at s = +1 stays exact.
    """
    m0, m1 = (float(v) for v in h_minus)
    p0, p1 = (float(v) for v in h_plus)
    if not m0 > 0.0:
        raise ConstructiveFailure("left germ value h(-1) must be positive")
    if not p0 > 0.0:
        raise ConstructiveFailure("right germ value h(+1) must be positive")
    if not m1 > 0.0:
        raise ConstructiveFailure(
            "left germ slope must be positive (h' > 0 at s = -1)")
    if not p1 < 0.0:
        raise ConstructiveFailure(
            "right germ slope must be negative (h' < 0 at s = +1)")
    if int(n) != n or n < 1:
        raise ValueError("n must be a positive integer")
    n = int(n)

    qm, qp = m1 / m0, -p1 / p0
    G = math.log(m0 / p0)
    grid = verification_grid()
    fine = np.linspace(-1.0, 1.0, 4001)
    pos = grid > 0.0
    s_ = Chart(("s",)).var("s")
    u_f = _u_expr(s_)

    # the lattice: 18 geometric steps of rho in [lo, hi] at each K
    lo, hi = 0.05, 12.0
    tried, deepest = 0, (-1, "no candidate was evaluated")
    for K in (4.0e4, 1.2e5, 3.6e5):
        iep = (1.0 / K - 1.0 / K ** 2) + math.exp(-K) / K ** 2
        nu = (G + qm * (4.0 / 15.0) - qp * iep) * (105.0 / 16.0)
        ladder = list(np.geomspace(lo, hi, 18))
        ladder += [a * abs(nu) for a in (1.05, 1.3, 2.0)
                   if lo <= a * abs(nu) <= hi]
        for rho in sorted(set(ladder)):
            tried += 1
            g_f = _g_expr(s_, qm, qp, rho, nu, K)
            gf = g_f([fine])
            if np.max(np.abs(gf)) > 60.0:
                if deepest[0] < 0:
                    deepest = (0, "profile amplitude within floating range")
                continue
            if _q_np(fine, qm, qp, rho, nu, K).min() <= 0.0:
                if deepest[0] < 1:
                    deepest = (1, "interior slope positivity (q > 0)")
                continue
            c = m0 * math.exp(-gf[0])
            h1_f = _fn("exp", g_f) * c
            u, up, h, hp, res = profile_arrays(u_f, h1_f, n, grid)
            if res.min() <= 0.0:
                if deepest[0] < 2:
                    deepest = (2, "grid positivity of the profile expression")
                continue
            if n % 2 == 0:
                flat = (np.abs(hp[pos])
                        < np.abs(up[pos]) * np.abs(h[pos] / u[pos]) ** n)
                if not flat.all():
                    if deepest[0] < 3:
                        deepest = (3, "flatness inequality on (0, 1]")
                    continue
            return ConvexityProfile(
                u=u_f, h1=h1_f, n=n, grid_residuals=float(res.min()),
                boundary={"h_minus": (m0, m1), "h_plus": (p0, p1)},
                params={"rho": float(rho), "nu": float(nu),
                        "stiffness": K, "plateau": c,
                        "q_minus": qm, "q_plus": qp})
    raise ConstructiveFailure(
        f"parameter sweep exhausted after {tried} candidates; "
        f"tightest failure: {deepest[1]}")


def standard_gamma(n: int) -> ContactScene:
    """Desk-scale contact models for the dividing-set factor."""
    if n == 1:
        ch = Chart(("phi",), angular=("phi",))
        return ContactScene(KForm(ch, 1, {(0,): ch.constant(1.0)}),
                            name="gamma-circle")
    if n == 2:
        ch = Chart(("th", "x", "y"), angular=("th", "x", "y"))
        th = ch.var("th")
        lam = KForm(ch, 1, {(1,): _fn("cos", th), (2,): -_fn("sin", th)})
        return ContactScene(lam, name="gamma-torus")
    if n == 3:
        ch = Chart(("th", "x", "y", "a", "b"), angular=("th", "x", "y"))
        th, a = ch.var("th"), ch.var("a")
        lam = KForm(ch, 1, {(1,): _fn("cos", th), (2,): -_fn("sin", th),
                            (4,): a})
        return ContactScene(lam, name="gamma-torus-plane",
                            domain={"a": (-1.5, 1.5), "b": (-1.5, 1.5)})
    raise ValueError("standard Gamma models exist for n in {1, 2, 3}")


def verify_convex_form(profile: ConvexityProfile, gamma_scene: ContactScene,
                       *, samples: int = 500, rng=None) -> dict:
    """Compare the assembled form against its closed-form volume.

    n is `profile.n`; gamma_scene must have dimension 2n - 1.
    alpha_1 = u dt + h1 lambda is built on R x [-1,1] x Gamma and
    alpha_1 ^ (d alpha_1)^n evaluated by the exterior machinery; wedge
    expansion collapses that coefficient to
    n h1^(n-1) (u h1' - u' h1) dt ds lambda (d lambda)^(n-1), which is
    evaluated independently from the profile functions. The report
    carries the worst relative deviation between the two paths (matched
    below policy.CONVEX_FORM_MATCH), the positivity verdict, and for
    every non-positive sample the graded surrogate
    n (u^n h1' - u' h1^n) so a degenerate injection shows where
    positivity died.
    """
    n = profile.n
    gch = gamma_scene.chart
    if gch.dim != 2 * n - 1:
        raise ValueError(
            f"Gamma scene must have dimension 2n - 1 = {2 * n - 1}, "
            f"got {gch.dim}")
    if "t" in gch.names or "s" in gch.names:
        raise ValueError("Gamma chart must not name coordinates t or s")
    big = Chart(("t", "s") + gch.names, angular=dict(gch.periods))
    u_b = ScalarField(big, _rebase(profile.u.node, profile.u.chart, big))
    h_b = ScalarField(big, _rebase(profile.h1.node, profile.h1.chart, big))
    lam = KForm(big, 1, {tuple(i + 2 for i in I):
                         ScalarField(big, _rebase(f.node, gch, big))
                         for I, f in gamma_scene.alpha.comps.items()})
    alpha1 = KForm(big, 1, {(0,): u_b}) + lam * h_b
    band = ContactScene(alpha1, name=f"band over {gamma_scene.name}",
                        domain={"t": (-1.0, 1.0), "s": (-1.0, 1.0),
                                **gamma_scene.domain})
    top = tuple(range(big.dim))
    W = KForm(big, 1, {(0,): big.constant(1.0)}) \
        .wedge(KForm(big, 1, {(1,): big.constant(1.0)})).wedge(lam)
    dlam = lam.d()
    for _ in range(n - 1):
        W = W.wedge(dlam)

    rng = np.random.default_rng(0) if rng is None else rng
    pts = band.sample_points(rng, int(samples))
    # one call per quantity on coordinate arrays; a tree that does not
    # read the sampled coordinates comes back as a scalar and is broadcast
    cols = list(pts.T)
    uv, ug = u_b.value_and_grad(cols)
    hv, hg = h_b.value_and_grad(cols)
    direct, vol, uv, up, hv, hp = (np.broadcast_to(x, (len(pts),)) for x in (
        band.contact_volume_at(cols), W.at(cols).get(top),
        uv, ug[1], hv, hg[1]))
    closed = n * hv ** (n - 1) * (uv * hp - up * hv) * vol
    dev = np.abs(direct - closed) / np.maximum(
        np.maximum(np.abs(direct), np.abs(closed)), 1e-30)
    worst = float(dev.max())
    bad = ~(direct > 0.0)
    surrogate = n * (uv ** n * hp - up * hv ** n) * vol
    flagged = [{"point": p.copy(), "volume": float(v), "surrogate": float(w)}
               for p, v, w in zip(pts[bad], direct[bad], surrogate[bad])]
    return {"samples": int(len(pts)), "positive": not flagged,
            "min_volume": float(direct.min()), "max_rel_dev": worst,
            "matched": worst < policy.CONVEX_FORM_MATCH, "flagged": flagged}
