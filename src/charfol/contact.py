"""Contact scenes, hypersurfaces, and the characteristic direction field.

The central construction: given a one-form alpha on a (2n+1)-chart and a
hypersurface F = 0, the induced line field X on the surface solves

    i_X vol_S = beta ^ (d beta)^(n-1),     beta = pullback of alpha,

where vol_S is the surface volume induced by the ambient coordinate
volume and the outward normal grad F placed first. X is canonical up to
a positive factor; this module returns the representative produced by
that normalization and never rescales it afterwards, so signs of
divergences and multipliers are mutually consistent everywhere.

Everything is evaluated pointwise over a generic scalar ring. Feeding
jet coordinates through the same code path yields Jacobians, so there
is one implementation to trust rather than a value path and a separate
derivative path. The per-point entry points used along trajectories
(`vector`, `flow_data`, `vector_and_jacobian`, `project`) run that
code once on recording scalars and then call the traced straight-line
kernels (see `kernel`); `char_data` and `ScalarField.value_and_grad`
remain the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import policy
from .errors import (CharfolError, ContactConditionError,
                     DegenerateVolumeError, ProjectionError)
from .exterior import (AltArray, Chart, KForm, ScalarField, ring_det,
                       solve_top_contraction)
from .expr import uses_var
from .jets import Jet, fval, seed
from .kernel import argmax, run


def _coords(point) -> list:
    """A point as Python floats, the way `seed` coerces plain scalars;
    jet entries give their values."""
    if isinstance(point, np.ndarray):
        return point.astype(float, copy=False).tolist()
    return [float(fval(c)) for c in point]


class ContactScene:
    """A chart of dimension 2n+1 carrying a (candidate) contact form."""

    def __init__(self, chart: Chart, alpha: KForm, name: str = "scene",
                 domain: Mapping[str, tuple] | None = None,
                 params: Mapping[str, float] | None = None):
        if alpha.deg != 1:
            raise ValueError("alpha must be a one-form")
        if alpha.chart != chart:
            raise ValueError("alpha lives on a different chart")
        if chart.dim % 2 == 0:
            raise ValueError("contact charts have odd dimension")
        self.chart = chart
        self.alpha = alpha
        self.name = name
        self.n = (chart.dim - 1) // 2
        self.params = dict(params or {})
        dom = {}
        for k, v in (domain or {}).items():
            chart.index(k)
            dom[k] = (None if v[0] is None else float(v[0]),
                      None if v[1] is None else float(v[1]))
        self.domain = dom

    def in_domain(self, point) -> bool:
        for name, (lo, hi) in self.domain.items():
            v = fval(point[self.chart.index(name)])
            if lo is not None and v < lo:
                return False
            if hi is not None and v > hi:
                return False
        return True

    def sample_points(self, rng, count: int) -> np.ndarray:
        """Random points: declared bounds, else [-1, 1]; angular on a period."""
        cols = []
        for name in self.chart.names:
            if name in self.chart.angular:
                cols.append(rng.uniform(0.0, self.chart.periods[name], count))
                continue
            lo, hi = self.domain.get(name, (None, None))
            lo = -1.0 if lo is None else lo
            hi = 1.0 if hi is None else hi
            cols.append(rng.uniform(lo, hi, count))
        return np.column_stack(cols)

    def contact_volume_at(self, point):
        """Coefficient of alpha ^ (d alpha)^n against the coordinate volume."""
        arrs = _alpha_data(self, point)
        top = arrs.alpha
        for _ in range(self.n):
            top = top.wedge(arrs.dalpha)
        return top.get(tuple(range(self.chart.dim)))

    def verify_contact(self, points, tols: policy.Tolerances = policy.DEFAULT):
        """Check non-degeneracy and constant sign at the given points."""
        vals = [fval(self.contact_volume_at(p)) for p in points]
        floor = min(abs(v) for v in vals)
        if floor <= tols.degenerate_volume:
            raise ContactConditionError(
                f"contact volume falls to {floor:.3e} on the sample")
        if min(vals) < 0.0 < max(vals):
            raise ContactConditionError("contact volume changes sign on the sample")
        return vals


@dataclass
class _AlphaData:
    values: list
    grads: list
    alpha: AltArray
    dalpha: AltArray


def _alpha_data(scene: ContactScene, point) -> _AlphaData:
    d = scene.chart.dim
    lifted = seed(point)
    values, grads = [], []
    for i in range(d):
        comp = scene.alpha.comps.get((i,))
        if comp is None:
            values.append(0.0)
            grads.append((0.0,) * d)
            continue
        out = comp.fn(*lifted)
        if isinstance(out, Jet):
            values.append(out.f)
            grads.append(out.g)
        else:
            values.append(out)
            grads.append((0.0,) * d)
    dal = {}
    for i in range(d):
        for j in range(i + 1, d):
            c = grads[j][i] - grads[i][j]
            if not (isinstance(c, float) and c == 0.0):
                dal[(i, j)] = c
    arr = AltArray(d, 1, {(i,): v for i, v in enumerate(values)
                          if not (isinstance(v, float) and v == 0.0)})
    return _AlphaData(values, grads, arr, AltArray(d, 2, dal))


class Hypersurface:
    """Zero set of a scalar field, with Newton projection along the gradient."""

    def __init__(self, field: ScalarField, label: str = "surface"):
        self.F = field
        self.chart = field.chart
        self.label = label
        self._kernels = []      # traced kernels of _value_and_grad

    @classmethod
    def graph(cls, chart: Chart, coord: str, h: ScalarField, label: str = "graph"):
        """The set coord = h(other coordinates)."""
        i = chart.index(coord)
        if uses_var(h.node, i):
            raise ValueError(f"graph function may not depend on {coord!r}")
        return cls(chart.var(coord) - h, label)

    def _value_and_grad(self, x):
        v, g = self.F.value_and_grad(x)
        return (v, *g)

    def project(self, point, tols: policy.Tolerances = policy.DEFAULT):
        """Newton steps along grad F back onto the surface."""
        x = _coords(point)
        for _ in range(tols.project_max_iter):
            v, *g = run(self._kernels, self._value_and_grad, x)
            if abs(v) < tols.project_tol:
                return np.asarray(x, dtype=float)
            gg = sum(gi * gi for gi in g)
            if gg == 0.0:
                raise ProjectionError("gradient vanished during projection")
            step = v / gg
            x = [xi - step * gi for xi, gi in zip(x, g)]
        raise ProjectionError(
            f"projection did not reach |F| < {tols.project_tol:g} "
            f"in {tols.project_max_iter} steps (|F| = {abs(v):.3e})")

    def project_samples(self, points,
                        tols: policy.Tolerances = policy.DEFAULT) -> list:
        """`project` each point, leaving out the points where it fails
        with a CharfolError; any other error propagates."""
        out = []
        for q in points:
            try:
                out.append(self.project(q, tols))
            except CharfolError:
                continue
        return out


@dataclass
class CharData:
    """Everything the solve produced at one point, in one place."""

    point: list
    X: list                  # ambient components, ring scalars
    X_frame: list
    frame: list              # tangent frame vectors, ambient components
    frame_coords: list       # ambient coordinate index backing each frame slot
    pivot: int
    omega0: object           # surface volume coefficient in the frame
    normal: list
    beta: AltArray
    dbeta: AltArray
    divergence: object


class FoliationField:
    """The characteristic direction field of one hypersurface in one scene."""

    def __init__(self, scene: ContactScene, surface: Hypersurface,
                 tols: policy.Tolerances = policy.DEFAULT):
        if surface.chart != scene.chart:
            raise ValueError("surface lives on a different chart")
        self.scene = scene
        self.surface = surface
        self.tols = tols
        self._d = scene.chart.dim
        # traced kernels of _value_outputs and of _jet_outputs
        self._kernels = ([], [])

    # core ------------------------------------------------------------

    def char_data(self, point) -> CharData:
        ad = _alpha_data(self.scene, point)
        d, n = self._d, self.scene.n
        _, Ng = self.surface.F.value_and_grad(point)
        N = list(Ng)
        pivot = argmax([abs(fval(c)) for c in N])
        Np = N[pivot]
        if abs(fval(Np)) < self.tols.degenerate_volume:
            raise DegenerateVolumeError(
                "surface gradient vanishes; the point is not regular")
        frame_coords = [i for i in range(d) if i != pivot]
        frame = []
        for a in frame_coords:
            v = [0.0] * d
            v[a] = 1.0
            v[pivot] = -(N[a] / Np)
            frame.append(v)
        beta = ad.alpha.on_frame(frame)
        dbeta = ad.dalpha.on_frame(frame)
        eta = beta
        for _ in range(n - 1):
            eta = eta.wedge(dbeta)
        omega0 = ring_det([N] + frame)
        if abs(fval(omega0)) < self.tols.degenerate_volume:
            raise DegenerateVolumeError("degenerate induced volume")
        Xf = solve_top_contraction(omega0, eta)
        X = [0.0] * d
        acc_p = None
        for a, c, v in zip(frame_coords, Xf, frame):
            X[a] = c
            term = c * v[pivot]
            acc_p = term if acc_p is None else acc_p + term
        X[pivot] = 0.0 if acc_p is None else acc_p
        dbn = dbeta
        for _ in range(n - 1):
            dbn = dbn.wedge(dbeta)
        div = dbn.get(tuple(range(2 * n))) / omega0
        return CharData(point=list(point), X=X, X_frame=Xf, frame=frame,
                        frame_coords=frame_coords, pivot=pivot, omega0=omega0,
                        normal=N, beta=beta, dbeta=dbeta, divergence=div)

    def vector(self, point) -> np.ndarray:
        return np.array(run(self._kernels[0], self._value_outputs,
                            _coords(point)), dtype=float)

    def _value_outputs(self, point):
        return self.char_data(point).X

    def _jet_outputs(self, point):
        """X, the rows of its ambient Jacobian and the divergence, flat,
        from char_data on one jet level."""
        data = self.char_data(seed(point))
        X, J = [], []
        for c in data.X:
            if isinstance(c, Jet):
                X.append(c.f)
                J.extend(c.g)
            else:
                X.append(c)
                J.extend((0.0,) * self._d)
        return X + J + [fval(data.divergence)]

    def _jet_pass(self, point):
        """X, its ambient Jacobian and div from the first-order kernel."""
        out = run(self._kernels[1], self._jet_outputs, _coords(point))
        d = self._d
        X = np.array(out[:d], dtype=float)
        J = np.array(out[d:-1], dtype=float).reshape(d, d)
        return X, J, float(out[-1])

    def vector_and_jacobian(self, point):
        """Value and ambient Jacobian in one pass, via a jet level."""
        X, J, _ = self._jet_pass(point)
        return X, J

    def flow_data(self, point):
        """Value, ambient Jacobian, and divergence from a single jet pass."""
        return self._jet_pass(point)

    def divergence(self, point) -> float:
        """Divergence of X against the induced surface volume.

        Uses the exact identity d(beta ^ (d beta)^(n-1)) = (d beta)^n on
        the surface, so no derivatives of X itself are needed.
        """
        return float(fval(self.char_data(point).divergence))

    # derived checks ----------------------------------------------------

    def tangency_residual(self, point) -> float:
        data = self.char_data(point)
        dot = sum(fval(a) * fval(b) for a, b in zip(data.normal, data.X))
        scale = max(1.0, max(abs(fval(c)) for c in data.X))
        return abs(dot) / scale

    def contact_plane_residual(self, point) -> float:
        """alpha(X) vanishes identically for the characteristic direction."""
        ad = _alpha_data(self.scene, point)
        data = self.char_data(point)
        val = sum(fval(a) * fval(b) for a, b in zip(ad.values, data.X))
        scale = max(1.0, max(abs(fval(c)) for c in data.X))
        return abs(val) / scale


def alpha_data_at(scene: ContactScene, point):
    """Numeric alpha covector and d alpha matrix at one point.

    Returns (a, M) with a[i] the alpha coefficients and M antisymmetric,
    M[i, j] = (d alpha)(e_i, e_j).
    """
    ad = _alpha_data(scene, point)
    d = scene.chart.dim
    a = np.array([fval(v) for v in ad.values])
    M = np.zeros((d, d))
    for (i, j), c in ad.dalpha.comps.items():
        M[i, j] = fval(c)
        M[j, i] = -fval(c)
    return a, M


# Reeb and Hamiltonian solves -----------------------------------------

def _solve(A, b, what: str, tols: policy.Tolerances) -> np.ndarray:
    """Least-squares solve of A x = b, refused above the residual tolerance."""
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    res = np.max(np.abs(A @ sol - b))
    if res > tols.linear_residual:
        raise ContactConditionError(
            f"{what} solve residual {res:.3e} exceeds {tols.linear_residual:g}")
    return sol


def _reeb(A, tols: policy.Tolerances) -> np.ndarray:
    b = np.zeros(A.shape[0])
    b[-1] = 1.0
    return _solve(A, b, "Reeb", tols)


def reeb_at(scene: ContactScene, point,
            tols: policy.Tolerances = policy.DEFAULT) -> np.ndarray:
    """The unique vector with alpha(R) = 1 annihilating d alpha."""
    a_row, M = alpha_data_at(scene, point)
    return _reeb(np.vstack([M.T, a_row]), tols)


def _hamiltonian(scene: ContactScene, H: ScalarField, point,
                 tols: policy.Tolerances):
    """(a, M, H, dH(R) a - dH, Y) at one point, each computed once."""
    a_row, M = alpha_data_at(scene, point)
    A = np.vstack([M.T, a_row])
    hval, hg = H.value_and_grad(point)
    hval = float(fval(hval))
    hgrad = np.array([fval(g) for g in hg])
    R = _reeb(A, tols)
    rhs_form = float(hgrad @ R) * a_row - hgrad
    Y = _solve(A, np.append(rhs_form, hval), "Hamiltonian", tols)
    return a_row, M, hval, rhs_form, Y


def hamiltonian_field_at(scene: ContactScene, H: ScalarField, point,
                         tols: policy.Tolerances = policy.DEFAULT) -> np.ndarray:
    """Solve alpha(Y) = H, i_Y d alpha = dH(R) alpha - dH at one point."""
    return _hamiltonian(scene, H, point, tols)[-1]


def hamiltonian_residuals(scene: ContactScene, H: ScalarField, points,
                          tols: policy.Tolerances = policy.DEFAULT) -> dict:
    """Sup norms of the two defining conditions over a point sample."""
    worst_pair = 0.0
    worst_contact = 0.0
    for p in points:
        a_row, M, hval, rhs, Y = _hamiltonian(scene, H, p, tols)
        worst_contact = max(worst_contact, abs(float(a_row @ Y) - hval))
        worst_pair = max(worst_pair, float(np.max(np.abs(M.T @ Y - rhs))))
    return {"alpha_residual": worst_contact, "pairing_residual": worst_pair}


def graph_foliation_check(field: FoliationField, predicted, points,
                          require_positive: bool = True) -> dict:
    """Compare the solved direction against a predicted vector field.

    predicted maps a point to an ambient vector. Returns the worst
    relative deviation after fitting a pointwise scale factor, and the
    range of fitted factors. Raises if a factor has the wrong sign.
    """
    worst = 0.0
    factors = []
    for p in points:
        X = field.vector(p)
        P = np.asarray(predicted(p), dtype=float)
        k = int(np.argmax(np.abs(P)))
        if P[k] == 0.0:
            raise ValueError("predicted field vanishes at a sample point")
        c = X[k] / P[k]
        if require_positive and c <= 0.0:
            raise ContactConditionError(
                f"predicted direction has the wrong sign (factor {c:.3e})")
        dev = np.max(np.abs(X - c * P)) / max(1.0, np.max(np.abs(X)))
        worst = max(worst, float(dev))
        factors.append(float(c))
    return {"max_rel_dev": worst,
            "factor_min": min(factors), "factor_max": max(factors)}
