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
derivative path. At runtime X, its Jacobian, the divergence and the
projection come from the straight-line kernels traced from that code
(see `kernel`) in three shapes: float lists (`vector_floats`,
`flow_floats`, `project_floats`), and for the integrator the
(kernels, fn) pairs whose kernels it calls itself (`vector_rhs`, and
`variational_rhs(k)` for a variational state of k columns); row
arrays of (m, d) points (`vectors`,
`project_samples`), through the kernels' array twins, with the
per-point bits in every row; and array wrappers of the float lists for
any point (`vector`, `flow_data`, `project`).
F, grad F, the tangent frame and alpha's data (`value_and_grad`,
`frame`, `alpha_data_at`) come from kernels too.
The generic `char_data` runs only while a kernel is recorded and in
tests, as the reference; `value_and_grad` also on profile arrays.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import policy
from .errors import (ContactConditionError, DegenerateVolumeError,
                     ProjectionError)
from .exterior import (AltArray, KForm, ScalarField, ring_det,
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
    """A (candidate) contact form alpha on its chart of dimension 2n+1."""

    def __init__(self, alpha: KForm, name: str = "scene",
                 domain: Mapping[str, tuple] | None = None):
        if alpha.deg != 1:
            raise ValueError("alpha must be a one-form")
        chart = alpha.chart
        if chart.dim % 2 == 0:
            raise ValueError("contact charts have odd dimension")
        self.chart = chart
        self.alpha = alpha
        self.name = name
        self.n = (chart.dim - 1) // 2
        dom, bounds = {}, []
        for k, v in (domain or {}).items():
            i = chart.index(k)
            dom[k] = (None if v[0] is None else float(v[0]),
                      None if v[1] is None else float(v[1]))
            bounds.append((i, *dom[k]))
        self.domain = dom
        self._bounds = bounds       # (coordinate index, lo, hi)
        self._kernels = []          # traced kernels of _alpha_outputs

    def in_domain(self, point) -> bool:
        """Whether a point (floats or an array row) is in the domain box."""
        for i, lo, hi in self._bounds:
            v = point[i]
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

    def _alpha_outputs(self, point):
        """alpha's coefficients, then (d alpha)_ij for i < j, flat: the
        function `alpha_data_at` evaluates through the scene's kernels."""
        ad = _alpha_data(self, point)
        d = self.chart.dim
        return [*ad.values, *(ad.dalpha.get((i, j))
                              for i in range(d) for j in range(i + 1, d))]

    def contact_volume_at(self, point):
        """Coefficient of alpha ^ (d alpha)^n against the coordinate volume."""
        arrs = _alpha_data(self, point)
        top = arrs.alpha
        for _ in range(self.n):
            top = top.wedge(arrs.dalpha)
        return top.get(tuple(range(self.chart.dim)))

    def verify_contact(self, points) -> np.ndarray:
        """Check non-degeneracy and constant sign at the rows of an
        (m, d) array, evaluated once on its coordinate columns; return
        the contact volumes."""
        x = np.asarray(points, dtype=float).reshape(-1, self.chart.dim)
        with np.errstate(all="ignore"):
            vals = np.broadcast_to(self.contact_volume_at(list(x.T)),
                                   (len(x),))
        if not len(vals):
            return vals
        floor = float(np.min(np.abs(vals)))
        if not floor > policy.DEGENERATE_VOLUME:
            raise ContactConditionError(
                f"contact volume falls to {floor:.3e} on the sample")
        if vals.min() < 0.0 < vals.max():
            raise ContactConditionError("contact volume changes sign on the sample")
        return vals


@dataclass
class _AlphaData:
    values: list
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
    return _AlphaData(values, arr, AltArray(d, 2, dal))


class Hypersurface:
    """Zero set of a scalar field, with Newton projection along the gradient."""

    def __init__(self, field: ScalarField):
        self.F = field
        self.chart = field.chart

    @classmethod
    def graph(cls, coord: str, h: ScalarField):
        """The set coord = h(other coordinates), in h's chart."""
        if uses_var(h.node, h.chart.index(coord)):
            raise ValueError(f"graph function may not depend on {coord!r}")
        return cls(h.chart.var(coord) - h)

    def value_and_grad(self, point):
        """F and its gradient at a point, as floats from the traced kernel."""
        v, *g = self.F.traced_value_and_grad(_coords(point))
        return v, g

    def frame(self, point):
        """(frame_coords, frame) of `char_data`, on the kernel's grad F."""
        return tangent_frame(self.value_and_grad(point)[1])[1:]

    def project(self, point) -> np.ndarray:
        """Newton steps along grad F back onto the surface."""
        return np.array(self.project_floats(_coords(point)), dtype=float)

    def project_floats(self, x: list) -> list:
        """`project` of a list of Python floats, taken as it is (other
        entry types give undefined results): x itself where F(x) is
        already below the tolerance, else a new list. F and grad F come
        from the front kernel of F's list, called directly, and from
        `run` only where its guards fail."""
        kernels, fn = self.F._kernels, self.F._value_and_grad
        for _ in range(policy.PROJECT_MAX_ITER):
            out = kernels[0](*x) if kernels else None
            v, *g = run(kernels, fn, x) if out is None else out
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

    def project_samples(self, points) -> np.ndarray:
        """`project` each point, as the rows of a (k, d) array, leaving
        out the points where it fails with a CharfolError; any other
        error propagates. All points take the Newton steps of
        `project_floats` together, on F and grad F from the array twins
        of F's kernels, so each row has `project`'s bits. The points
        still moving are an array of their own, and a point that
        converges is written back once."""
        x = np.array(points, dtype=float).reshape(len(points), self.chart.dim)
        done = np.zeros(len(x), dtype=bool)
        # the points still moving, and their rows in x
        xm, rows = x, np.arange(len(x))
        # numpy's float steps overflow to inf silently, as Python's do
        with np.errstate(all="ignore"):
            for _ in range(policy.PROJECT_MAX_ITER):
                if not len(rows):
                    break
                vg = self.F.value_and_grad_rows(xm)
                v, g = vg[:, 0], vg[:, 1:]
                hit = np.abs(v) < policy.PROJECT_TOL
                x[rows[hit]] = xm[hit]
                done[rows[hit]] = True
                gg = sum(gi * gi for gi in g.T)
                move = ~hit & (gg != 0.0)
                step = v[move] / gg[move]
                xm, rows = xm[move] - step[:, None] * g[move], rows[move]
        return x[done]


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
    """What the solve produced at one point and its callers read."""

    X: list                  # ambient components, ring scalars
    divergence: object


class FoliationField:
    """The characteristic direction field of one hypersurface in one scene."""

    def __init__(self, scene: ContactScene, surface: Hypersurface):
        if surface.chart != scene.chart:
            raise ValueError("surface lives on a different chart")
        self.scene = scene
        self.surface = surface
        self._d = scene.chart.dim
        # traced kernels of _value_outputs and _jet_outputs, and of
        # _variational_outputs by basis width
        self._kernels = ([], [], {})
        # the right-hand side of `dynamics` for X, as the (kernels, fn)
        # pair `run` takes
        self.vector_rhs = (self._kernels[0], self._value_outputs)
        # X, and (X, the rows of its ambient Jacobian, div) flat, as
        # tuples of floats, for a list of d Python floats taken as it is
        # (an entry of any other type gives an undefined result)
        self.vector_floats = functools.partial(run, *self.vector_rhs)
        self.flow_floats = functools.partial(
            run, self._kernels[1], self._jet_outputs)

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
        return CharData(X=X, divergence=div)

    def vector(self, point) -> np.ndarray:
        """X at a point, from the value kernel."""
        return np.array(self.vector_floats(_coords(point)), dtype=float)

    def vectors(self, points) -> np.ndarray:
        """`vector` at every row of an (m, d) array, as an (m, d) array,
        bit for bit, evaluated through the value kernels' array twins."""
        x = np.asarray(points, dtype=float).reshape(-1, self._d)
        return run_rows(self._kernels[0], self._value_outputs, x, self._d)

    def surface_samples(self, rng, count: int) -> np.ndarray:
        """`project_samples` of `count` random points of the scene's box:
        the projections that did not fail, as rows."""
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

    def variational_rhs(self, width: int):
        """The right-hand side of `dynamics` for (X, J·V, div), as the
        (kernels, fn) pair `run` takes, for a variational state of
        d + d * width + 1 floats: V is d x width. Each width has its
        own kernels."""
        return (self._kernels[2].setdefault(width, []),
                self._variational_outputs)

    def _variational_outputs(self, z):
        """X, J·V row by row and div, flat, for z = (x, V row by row, w)
        with V of d rows: each entry of J·V sums J_ik V_kj over
        k = 0, ..., d - 1 in order."""
        d = self._d
        k = (len(z) - d - 1) // d
        out = self._jet_outputs(z[:d])
        J, V = out[d:-1], z[d:-1]
        JV = [functools.reduce(operator.add, [J[i + m] * V[m * k + j]
                                              for m in range(d)])
              for i in range(0, d * d, d) for j in range(k)]
        return [*out[:d], *JV, out[-1]]

    def vector_and_jacobian(self, point):
        """Value and ambient Jacobian in one pass, via a jet level."""
        return self.flow_data(point)[:2]

    def flow_data(self, point):
        """X, its ambient Jacobian and div from the first-order kernel.
        div is taken against the induced surface volume, through the
        identity d(beta ^ (d beta)^(n-1)) = (d beta)^n on the surface."""
        out, d = self.flow_floats(_coords(point)), self._d
        return (np.array(out[:d], dtype=float),
                np.array(out[d:-1], dtype=float).reshape(d, d), float(out[-1]))


def alpha_data_at(scene: ContactScene, point):
    """Numeric alpha covector and d alpha matrix at one point, from the
    scene's traced kernel.

    Returns (a, M) with a[i] the alpha coefficients and M antisymmetric,
    M[i, j] = (d alpha)(e_i, e_j); a zero entry is +0.0 on both sides,
    as the generic `_alpha_data` leaves it out.
    """
    d = scene.chart.dim
    out = run(scene._kernels, scene._alpha_outputs, _coords(point))
    M = np.zeros((d, d))
    pairs = ((i, j) for i in range(d) for j in range(i + 1, d))
    for (i, j), c in zip(pairs, out[d:]):
        if c != 0.0:
            M[i, j] = c
            M[j, i] = -c
    return np.array(out[:d]), M


# Reeb and Hamiltonian solves -----------------------------------------

def _solve(A, b, what: str) -> np.ndarray:
    """Least-squares solve of A x = b, refused above the residual tolerance."""
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    res = np.max(np.abs(A @ sol - b))
    if res > policy.LINEAR_RESIDUAL:
        raise ContactConditionError(
            f"{what} solve residual {res:.3e} exceeds {policy.LINEAR_RESIDUAL:g}")
    return sol


def _hamiltonian_solve(a_row, M, hval: float, hgrad):
    """(dH(R) a - dH, Y) from alpha's data and H's value and gradient,
    R the Reeb field: alpha(R) = 1 and i_R d alpha = 0."""
    A = np.vstack([M.T, a_row])
    R = _solve(A, np.eye(len(A))[-1], "Reeb")
    rhs_form = float(hgrad @ R) * a_row - hgrad
    Y = _solve(A, np.append(rhs_form, hval), "Hamiltonian")
    return rhs_form, Y


def hamiltonian_residuals(scene: ContactScene, H: ScalarField,
                          points) -> dict:
    """Sup norms of the two defining conditions of H's Hamiltonian field
    Y, alpha(Y) = H and i_Y d alpha = dH(R) alpha - dH, over points."""
    worst_pair = 0.0
    worst_contact = 0.0
    for p in points:
        a_row, M = alpha_data_at(scene, p)
        hval, *hg = H.traced_value_and_grad(_coords(p))
        rhs, Y = _hamiltonian_solve(a_row, M, hval, np.array(hg))
        worst_contact = max(worst_contact, abs(float(a_row @ Y) - hval))
        worst_pair = max(worst_pair, float(np.max(np.abs(M.T @ Y - rhs))))
    return {"alpha_residual": worst_contact, "pairing_residual": worst_pair}


def row_dot(A, B) -> np.ndarray:
    """The dot product of each row of A with the same row of B, both
    (m, d), as one stacked matmul, with `np.dot`'s bits on every row."""
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


def direction_fit(X, P) -> tuple:
    """(c, sine) per row of X against P, both (m, d): the least-squares
    factor c = X·P / P·P and the sine |X - cP| / |X| of the angle between
    the two directions."""
    X, P = np.asarray(X, dtype=float), np.asarray(P, dtype=float)
    c = row_dot(X, P) / row_dot(P, P)
    R = X - c[:, None] * P
    return c, np.sqrt(row_dot(R, R)) / np.sqrt(row_dot(X, X))


def graph_foliation_check(field: FoliationField, predicted, points) -> dict:
    """Compare the solved direction against a predicted vector field.

    predicted maps a point to an ambient vector. Returns the worst sine
    of the angle (`direction_fit`) and the range of the fitted factors.
    Raises if the prediction vanishes or a factor has the wrong sign.
    """
    P = np.array([predicted(p) for p in points], dtype=float)
    if not np.all(np.any(P, axis=1)):
        raise ValueError("predicted field vanishes at a sample point")
    c, sine = direction_fit(field.vectors(points), P)
    if np.any(c <= 0.0):
        raise ContactConditionError(
            f"predicted direction has the wrong sign (factor {c.min():.3e})")
    return {"max_rel_dev": float(sine.max()),
            "factor_min": float(c.min()), "factor_max": float(c.max())}
