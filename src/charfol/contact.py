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
derivative path. At runtime every per-point quantity comes from the
straight-line kernels traced from that code (see `kernel`): X, its
Jacobian and the divergence (`vector`, `flow_data`, `divergence`), and
F, grad F and the tangent frame (`Hypersurface.value_and_grad`,
`frame`, `project`). `vector_values`, `flow_values` and
`project_values` return the kernels' floats as they are, for the
integrator; the others wrap them in arrays. `vectors` evaluates X on
many points through the value kernels' array twins, the same records
compiled over numpy columns, with `vector`'s bits in every row. The
generic `char_data` and `ScalarField.value_and_grad` run only while a
kernel is recorded, on sample batches and in tests, as the reference:
`project_samples` projects a batch through the array ring, one
evaluation of F's tree per Newton iteration on numpy coordinate
columns.
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
from .jets import fval, seed, split
from .kernel import argmax, run, run_rows


def _coords(point) -> list:
    """A point as Python floats, the way `seed` coerces plain scalars;
    jet entries give their values."""
    if isinstance(point, np.ndarray):
        return point.astype(float, copy=False).tolist()
    return [c if type(c) is float else float(fval(c)) for c in point]


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
        dom, bounds = {}, []
        for k, v in (domain or {}).items():
            i = chart.index(k)
            dom[k] = (None if v[0] is None else float(v[0]),
                      None if v[1] is None else float(v[1]))
            bounds.append((i, *dom[k]))
        self.domain = dom
        self._bounds = bounds       # (coordinate index, lo, hi)

    def in_domain(self, point) -> bool:
        for i, lo, hi in self._bounds:
            v = fval(point[i])
            if lo is not None and v < lo:
                return False
            if hi is not None and v > hi:
                return False
        return True

    def domain_mask(self, points) -> np.ndarray:
        """`in_domain` of each point, as one boolean array."""
        x = np.array(points, dtype=float).reshape(len(points), self.chart.dim)
        keep = np.ones(len(x), dtype=bool)
        for i, lo, hi in self._bounds:
            if lo is not None:
                keep &= ~(x[:, i] < lo)
            if hi is not None:
                keep &= ~(x[:, i] > hi)
        return keep

    def _box(self):
        """(lo, hi, angular) of each coordinate: 0 and the period of an
        angular one, else its declared bounds, -1 and 1 where none is."""
        for name in self.chart.names:
            if name in self.chart.periods:
                yield 0.0, self.chart.periods[name], True
            else:
                lo, hi = self.domain.get(name, (None, None))
                yield (-1.0 if lo is None else lo, 1.0 if hi is None else hi,
                       False)

    def sample_points(self, rng, count: int) -> np.ndarray:
        """`count` uniform random points of the box."""
        return np.column_stack([rng.uniform(lo, hi, count)
                                for lo, hi, _ in self._box()])

    def grid_points(self, k: int) -> np.ndarray:
        """The product grid of k values per coordinate over the box,
        without the end of an angular coordinate's period."""
        axes = [np.linspace(lo, hi, k, endpoint=not angular)
                for lo, hi, angular in self._box()]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def contact_volume_at(self, point):
        """Coefficient of alpha ^ (d alpha)^n against the coordinate volume."""
        arrs = _alpha_data(self, point)
        top = arrs.alpha
        for _ in range(self.n):
            top = top.wedge(arrs.dalpha)
        return top.get(tuple(range(self.chart.dim)))

    def verify_contact(self, points):
        """Check non-degeneracy and constant sign at the given points."""
        vals = [fval(self.contact_volume_at(p)) for p in points]
        floor = min(abs(v) for v in vals)
        if floor <= policy.DEGENERATE_VOLUME:
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
        v, g = split(0.0 if comp is None else comp.fn(*lifted), d)
        values.append(v)
        grads.append(g)
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

    def value_and_grad(self, point):
        """F and its gradient at a point, as floats from the traced kernel."""
        v, *g = run(self._kernels, self._value_and_grad, _coords(point))
        return v, g

    def frame(self, point):
        """(frame_coords, frame) of `char_data`, on the kernel's grad F."""
        return tangent_frame(self.value_and_grad(point)[1])[1:]

    def project(self, point):
        """Newton steps along grad F back onto the surface."""
        return np.array(self.project_values(point), dtype=float)

    def project_values(self, point) -> list:
        """`project` on Python floats: the projected point as a list."""
        x = _coords(point)
        for _ in range(policy.PROJECT_MAX_ITER):
            v, g = self.value_and_grad(x)
            if abs(v) < policy.PROJECT_TOL:
                return x
            gg = sum(gi * gi for gi in g)
            if gg == 0.0:
                raise ProjectionError("gradient vanished during projection")
            step = v / gg
            x = [xi - step * gi for xi, gi in zip(x, g)]
        raise ProjectionError(
            f"projection did not reach |F| < {policy.PROJECT_TOL:g} "
            f"in {policy.PROJECT_MAX_ITER} steps (|F| = {abs(v):.3e})")

    def project_samples(self, points) -> list:
        """`project` each point, leaving out the points where it fails
        with a CharfolError; any other error propagates.

        All points take their Newton steps together: one evaluation of
        F's tree per iteration on the coordinate columns of the points
        still moving (numpy arrays, a ring of the jets), with the float
        operations of `project_values` in every row. Where numpy flags
        a floating-point error, the per-point path runs instead, so the
        errors raised and the points dropped are those of `project`.
        """
        try:
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                return self._project_batch(points)
        except FloatingPointError:
            out = []
            for q in points:
                try:
                    out.append(self.project(q))
                except CharfolError:
                    continue
            return out

    def _project_batch(self, points) -> list:
        x = np.array(points, dtype=float).reshape(len(points), self.chart.dim)
        done = np.zeros(len(x), dtype=bool)
        rows = np.arange(len(x))        # the points still moving
        for _ in range(policy.PROJECT_MAX_ITER):
            if not len(rows):
                break
            xa = x[rows]
            v, g = self.F.value_and_grad(list(xa.T))
            v, *g = (np.broadcast_to(c, rows.shape) for c in (v, *g))
            hit = np.abs(v) < policy.PROJECT_TOL
            done[rows[hit]] = True
            gg = sum(gi * gi for gi in g)
            move = ~hit & (gg != 0.0)
            step = v[move] / gg[move]
            x[rows[move]] = xa[move] - step[:, None] * np.stack(g, 1)[move]
            rows = rows[move]
        return list(x[done])


def tangent_frame(N):
    """(pivot, frame_coords, frame) for a surface normal N over any ring.

    The pivot p is the first index of the largest |N_p|; the frame is
    e_a - (N_a / N_p) e_p for every other coordinate a, in order.
    """
    pivot = argmax([abs(fval(c)) for c in N])
    Np = N[pivot]
    if abs(fval(Np)) < policy.DEGENERATE_VOLUME:
        raise DegenerateVolumeError(
            "surface gradient vanishes; the point is not regular")
    coords = [i for i in range(len(N)) if i != pivot]
    frame = []
    for a in coords:
        v = [1.0 if i == a else 0.0 for i in range(len(N))]
        v[pivot] = -(N[a] / Np)
        frame.append(v)
    return pivot, coords, frame


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

    def __init__(self, scene: ContactScene, surface: Hypersurface):
        if surface.chart != scene.chart:
            raise ValueError("surface lives on a different chart")
        self.scene = scene
        self.surface = surface
        self._d = scene.chart.dim
        # traced kernels of _value_outputs and of _jet_outputs
        self._kernels = ([], [])

    # core ------------------------------------------------------------

    def char_data(self, point) -> CharData:
        ad = _alpha_data(self.scene, point)
        d, n = self._d, self.scene.n
        N = list(self.surface.F.value_and_grad(point)[1])
        pivot, frame_coords, frame = tangent_frame(N)
        beta = ad.alpha.on_frame(frame)
        dbeta = ad.dalpha.on_frame(frame)
        eta = beta
        for _ in range(n - 1):
            eta = eta.wedge(dbeta)
        omega0 = ring_det([N] + frame)
        if abs(fval(omega0)) < policy.DEGENERATE_VOLUME:
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
        return np.array(self.vector_values(point), dtype=float)

    def vector_values(self, point) -> tuple:
        """X at a point, as a tuple of floats from the value kernel."""
        return run(self._kernels[0], self._value_outputs, _coords(point))

    def vectors(self, points) -> np.ndarray:
        """`vector` at every row of an (m, d) array, as an (m, d) array,
        bit for bit, evaluated through the value kernels' array twins."""
        x = np.asarray(points, dtype=float).reshape(-1, self._d)
        out = np.empty_like(x)
        run_rows(self._kernels[0], self._value_outputs, x, out)
        return out

    def surface_samples(self, rng, count: int) -> list:
        """`project_samples` of `count` random points of the scene's box:
        the projections that did not fail."""
        return self.surface.project_samples(
            self.scene.sample_points(rng, count))

    def _value_outputs(self, point):
        return self.char_data(point).X

    def _jet_outputs(self, point):
        """X, the rows of its ambient Jacobian and the divergence, flat,
        from char_data on one jet level."""
        data = self.char_data(seed(point))
        X, J = [], []
        for c in data.X:
            v, g = split(c, self._d)
            X.append(v)
            J.extend(g)
        return X + J + [fval(data.divergence)]

    def flow_values(self, point) -> tuple:
        """X, the rows of its ambient Jacobian and div, flat, as a tuple
        of floats from the first-order kernel."""
        return run(self._kernels[1], self._jet_outputs, _coords(point))

    def vector_and_jacobian(self, point):
        """Value and ambient Jacobian in one pass, via a jet level."""
        return self.flow_data(point)[:2]

    def flow_data(self, point):
        """X, its ambient Jacobian and div from the first-order kernel."""
        out = self.flow_values(point)
        d = self._d
        X = np.array(out[:d], dtype=float)
        J = np.array(out[d:-1], dtype=float).reshape(d, d)
        return X, J, float(out[-1])

    def divergence(self, point) -> float:
        """Divergence of X against the induced surface volume.

        Uses the exact identity d(beta ^ (d beta)^(n-1)) = (d beta)^n on
        the surface, so no derivatives of X itself are needed; the value
        is the last entry of `flow_values`.
        """
        return float(self.flow_values(point)[-1])

    # derived checks ----------------------------------------------------

    def tangency_residual(self, point) -> float:
        return self._residual(self.char_data(point).normal, point)

    def contact_plane_residual(self, point) -> float:
        """alpha(X) vanishes identically for the characteristic direction."""
        return self._residual(_alpha_data(self.scene, point).values, point)

    def _residual(self, covector, point) -> float:
        """|covector(X)| at a point, relative to max(1, max |X_i|)."""
        X = [fval(c) for c in self.char_data(point).X]
        dot = sum(fval(a) * b for a, b in zip(covector, X))
        return abs(dot) / max(1.0, max(abs(c) for c in X))


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

def _solve(A, b, what: str) -> np.ndarray:
    """Least-squares solve of A x = b, refused above the residual tolerance."""
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    res = np.max(np.abs(A @ sol - b))
    if res > policy.LINEAR_RESIDUAL:
        raise ContactConditionError(
            f"{what} solve residual {res:.3e} exceeds {policy.LINEAR_RESIDUAL:g}")
    return sol


def _reeb(A) -> np.ndarray:
    b = np.zeros(A.shape[0])
    b[-1] = 1.0
    return _solve(A, b, "Reeb")


def reeb_at(scene: ContactScene, point) -> np.ndarray:
    """The unique vector with alpha(R) = 1 annihilating d alpha."""
    a_row, M = alpha_data_at(scene, point)
    return _reeb(np.vstack([M.T, a_row]))


def _hamiltonian_solve(a_row, M, hval: float, hgrad):
    """(dH(R) a - dH, Y) from alpha's data and H's value and gradient."""
    A = np.vstack([M.T, a_row])
    R = _reeb(A)
    rhs_form = float(hgrad @ R) * a_row - hgrad
    Y = _solve(A, np.append(rhs_form, hval), "Hamiltonian")
    return rhs_form, Y


def _hamiltonian(scene: ContactScene, H: ScalarField, point):
    """(a, M, H, dH(R) a - dH, Y) at one point, each computed once."""
    a_row, M = alpha_data_at(scene, point)
    hval, hg = H.value_and_grad(point)
    hval = float(fval(hval))
    rhs_form, Y = _hamiltonian_solve(
        a_row, M, hval, np.array([fval(g) for g in hg]))
    return a_row, M, hval, rhs_form, Y


def hamiltonian_field_at(scene: ContactScene, H: ScalarField,
                         point) -> np.ndarray:
    """Solve alpha(Y) = H, i_Y d alpha = dH(R) alpha - dH at one point."""
    return _hamiltonian(scene, H, point)[-1]


def hamiltonian_residuals(scene: ContactScene, H: ScalarField,
                          points) -> dict:
    """Sup norms of the two defining conditions over a point sample."""
    worst_pair = 0.0
    worst_contact = 0.0
    for p in points:
        a_row, M, hval, rhs, Y = _hamiltonian(scene, H, p)
        worst_contact = max(worst_contact, abs(float(a_row @ Y) - hval))
        worst_pair = max(worst_pair, float(np.max(np.abs(M.T @ Y - rhs))))
    return {"alpha_residual": worst_contact, "pairing_residual": worst_pair}


def graph_foliation_check(field: FoliationField, predicted, points) -> dict:
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
        if c <= 0.0:
            raise ContactConditionError(
                f"predicted direction has the wrong sign (factor {c:.3e})")
        dev = np.max(np.abs(X - c * P)) / max(1.0, np.max(np.abs(X)))
        worst = max(worst, float(dev))
        factors.append(float(c))
    return {"max_rel_dev": worst,
            "factor_min": min(factors), "factor_max": max(factors)}
