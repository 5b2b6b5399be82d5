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
is reported as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import jets, parallel, policy
from .contact import ContactScene
from .dynamics import EventSpec, Flow, linearize_zero, wrap_diff
from .errors import ConstructiveFailure, EscapeError, IntegrationError
from .exterior import Chart, KForm, ScalarField, _fn, _rebase


@dataclass
class MorseSmaleCertificate:
    verdict: str                      # "pass" | "fail" | "inconclusive"
    reasons: list
    elements: dict
    limit_check: float                # fraction of seeds captured both ways
    connection_violations: list
    recurrence: list
    seeds_used: int
    transversality: str = "not verified"
    notes: list = dc_field(default_factory=list)


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


def _capture_entry(chart, kind, el):
    """(kind, element, distance from a point to it) for a zero or an orbit."""
    if kind == "zero":
        return kind, el, lambda p: float(
            np.max(np.abs(wrap_diff(chart, p, el.point))))
    return kind, el, _loop_distance(chart, el.loop)


def _capture_sets(chart, zeros, orbits, sense, dim_surface):
    """(forward, backward) capture predicates under the given time sense."""
    fw, bw = [], []
    for z in zeros:
        sdim = z.stable_dim if sense > 0 else dim_surface - z.stable_dim
        entry = _capture_entry(chart, "zero", z)
        if sdim == dim_surface:
            fw.append(entry)
        if sdim == 0:
            bw.append(entry)
    for o in orbits:
        sidx = o.info.stable_index if sense > 0 \
            else dim_surface + 1 - o.info.stable_index
        entry = _capture_entry(chart, "orbit", o)
        if sidx == dim_surface:
            fw.append(entry)
        if sidx == 1:
            bw.append(entry)
    return fw, bw


def _chunk(tols) -> float:
    """Flow time of one leg of a chase, and of the settle after a capture."""
    return max(4.0 * tols.ode_max_step, tols.flow_budget / 24.0)


def _chase(field, q, sets, sense, tols):
    """Chunked integration until a capture set is reached or the budget dies.

    Returns (reached, endpoint, note or None): whether a capture set was
    reached, where the chase stopped, and why it gave up early.
    """
    flow = Flow(field, tols, sense=sense)
    radius = policy.CAPTURE_RADIUS
    chunk = _chunk(tols)
    spent, p = 0.0, np.asarray(q, dtype=float)
    while spent < tols.flow_budget:
        step = min(chunk, tols.flow_budget - spent)
        try:
            res = flow.integrate(p, step)
        except EscapeError:
            return False, p, "trajectory left the declared domain"
        except IntegrationError as e:
            return False, p, f"integration gave up: {e}"
        p, spent = res.y, spent + res.t
        if any(dist(p) < radius for _, _, dist in sets):
            return True, p, None
    return False, p, None


def _angular_recurrence(field, q, sense, tols):
    """Count full returns of the fastest angular coordinate near q.

    Detection keys on a smooth periodic function of one coordinate, so
    a two-unit integration step cannot jump over a return the way a
    thin-tube crossing test would. Charts without angular coordinates
    return None (nothing to count against).
    """
    chart = field.scene.chart
    q = np.asarray(q, dtype=float)
    X = field.vector(q)
    scale = max(1.0, float(np.max(np.abs(q))))
    best, rate = None, 0.0
    for name in chart.angular:
        i = chart.index(name)
        r = abs(float(X[i])) / chart.periods[name]
        if r > rate:
            best, rate = i, r
    if best is None or rate < 1e-10:
        return None
    per = chart.periods[chart.names[best]]
    direction = 1 if X[best] * sense > 0 else -1
    flow = Flow(field, tols, sense=sense)
    budget = 4.0 * tols.flow_budget
    tube = policy.RECURRENCE_TUBE * scale
    spent, p = 0.0, q.copy()
    returns, drift, gaps = 0, 0.0, []
    while spent < budget and returns < tols.recurrence_returns:
        # each leg counts one turn from its own start: a landing a hair
        # short of the crossing would otherwise fire again at once
        ev = _turn_event(best, per, p[best], direction)
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


def _turn_event(i: int, per: float, start: float, direction: int):
    """Event: coordinate i has turned a full period from start."""
    w = 2.0 * math.pi / per

    return EventSpec(fn=lambda y: jets.sin(w * (y[i] - start)),
                     direction=direction)


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
        reached, endpoint, note = _chase(field, q, sets, s, tols)
        if reached:
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


def check_morse_smale(field, seeds, zeros=(), orbits=(),
                      tols: policy.Tolerances = policy.DEFAULT,
                      recurrence=(), sense: int = +1) -> MorseSmaleCertificate:
    """Assemble the certificate for one census on one surface.

    seeds are the points of the surface whose trajectories are chased
    in both time directions (for instance `field.surface_samples(rng,
    count)`); zeros are ZeroInfo records; orbits carry .info (OrbitInfo)
    and .loop (a sampled closed curve). recurrence holds already
    verified recurrent sets, dicts with at least a description (for
    instance `mori.torus_recurrence(scene)`); once every element is
    hyperbolic each is recorded, and disqualifies. The verdict is fail
    on any concrete witness against the structure, pass when every
    element is hyperbolic, no recurrence is supplied, no launched
    connection lands wrong, and every seed is captured both ways;
    anything short of that is inconclusive, with the offending seed
    recorded. No seeds is inconclusive.

    The seeds are chased side by side on one worker per CPU
    (`parallel.pmap`, one `_seed_chases` call per seed), and what each
    seed found is merged in seed order, so the certificate has the
    same bytes whatever the worker count. A recurrent sampled
    trajectory is recorded per seed and direction, and its reason is
    stated once.
    """
    seeds = [np.asarray(q, dtype=float) for q in seeds]
    chart = field.scene.chart
    dim_surface = chart.dim - 1
    supplied, recurrence = recurrence, []
    reasons, notes, violations = [], [], []
    elements = {"zeros": list(zeros), "orbits": list(orbits)}

    def skipped(note):
        return MorseSmaleCertificate(
            verdict="fail", reasons=reasons, elements=elements,
            limit_check=0.0, connection_violations=[], recurrence=recurrence,
            seeds_used=0, notes=[f"{note}; sampling skipped"])

    for z in zeros:
        if z.liouville_sign == 0:
            reasons.append(
                f"zero at {np.round(z.point, 6)} has divergence 0, so no "
                "Liouville sign")
        elif not z.hyperbolic:
            reasons.append(
                f"zero at {np.round(z.point, 6)} has a neutral eigenvalue")
    for o in orbits:
        if not o.info.hyperbolic:
            reasons.append(
                f"orbit through {np.round(o.info.point, 6)} has a multiplier "
                "of unit modulus")
        if o.info.liouville_sign == 0:
            reasons.append(
                f"orbit through {np.round(o.info.point, 6)} has conformal "
                "factor C = 1, so no Liouville sign")
    if reasons:
        return skipped("hyperbolicity gate failed")

    recurrence += supplied
    reasons += [f"verified recurrence: {rec['description']}"
                for rec in supplied]
    if reasons:
        return skipped("a verified recurrence was supplied")

    fw, bw = _capture_sets(chart, zeros, orbits, sense, dim_surface)

    # separatrices of negative elements must not reach positive elements.
    # Signs are read in the effective time direction, so a reversed run
    # swaps the two sets. Only zeros are launched; unstable Floquet
    # bundles of orbits would need a different parametrization and are
    # left to the sampling pass.
    positive = [_capture_entry(chart, "zero", z)
                for z in zeros if z.liouville_sign * sense > 0]
    positive += [_capture_entry(chart, "orbit", o)
                 for o in orbits if o.info.liouville_sign * sense > 0]
    approach = 1e-3
    for z in zeros:
        if z.liouville_sign * sense >= 0:
            continue
        for v in _unstable_directions(field, z.point, sense):
            start = field.surface.project(z.point + 1e-4 * v)
            reached, endpoint, note = _chase(field, start, positive, sense,
                                             tols)
            if note:
                notes.append(f"separatrix launch: {note}")
            if not reached:
                continue
            # capture fires at chunk boundaries and can sit anywhere
            # inside the capture radius; settle one more chunk so a
            # genuine landing contracts below the approach threshold
            # while a transit leaves again.
            try:
                settle = Flow(field, tols, sense=sense).integrate(
                    endpoint, _chunk(tols))
                endpoint = settle.y
            except (EscapeError, IntegrationError):
                pass
            hit = None
            for kind, el, dist in positive:
                if dist(endpoint) < approach:
                    hit = (kind, el)
            if hit is not None:
                violations.append(
                    {"from": np.round(z.point, 6),
                     "to": np.round(hit[1].point if hit[0] == "zero"
                                    else hit[1].info.point, 6),
                     "kind": hit[0]})
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
        recurrence=recurrence, seeds_used=len(seeds), notes=notes)


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
