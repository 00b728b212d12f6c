"""Horizontal lift: the group trajectory driven by extremal controls.

In the explicit coordinate model of the step-2 free Carnot group, a point is
(x_1..x_k; x_12..x_(k-1)k) and the left-invariant frame gives

    dx_i/dt  = u_i,
    dx_ij/dt = (x_i u_j - x_j u_i) / 2,   i < j,

so the second-layer coordinates accumulate the signed areas swept by the
first-layer projection.  The identity is the origin.  The vertical and
horizontal systems are integrated as one coupled system so the controls feed
the lift without interpolation error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec, SkewMatrix, kernel_basis
from .bodies import ControlBody
from .errors import DriftExceededError, InputError
from .flow import IntegrationOptions, Trajectory, _assemble_vertical, _solve


@dataclass(frozen=True, eq=False)
class GroupPoint:
    """Point of the group in the explicit chart: first layer x, second layer y.

    y is flat-indexed in lexicographic pair order (1,2), (1,3), ..., (k-1,k).
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or x.size < 2:
            raise InputError(f"first-layer coordinates must be a vector of length >= 2, got shape {x.shape}")
        expected = x.size * (x.size - 1) // 2
        if y.shape != (expected,):
            raise InputError(f"second-layer coordinates must have length {expected}, got shape {y.shape}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise InputError("group coordinates have non-finite entries")
        x = x.copy(); x.setflags(write=False)
        y = y.copy(); y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @classmethod
    def identity(cls, k: int) -> "GroupPoint":
        spec = AlgebraSpec(k)
        return cls(np.zeros(spec.k), np.zeros(spec.num_pairs))

    @property
    def k(self) -> int:
        return self.x.size


def horizontal_rhs(q: GroupPoint, u) -> tuple[np.ndarray, np.ndarray]:
    """Chart velocity (dx, dy) of the frame driven by control u at point q."""
    u = np.asarray(u, dtype=float)
    if u.shape != (q.k,):
        raise InputError(f"control must have length {q.k}, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise InputError("control has non-finite entries")
    rows, cols = AlgebraSpec(q.k).pair_rows_cols()
    ydot = 0.5 * (q.x[rows] * u[cols] - q.x[cols] * u[rows])
    return u.copy(), ydot


@dataclass(frozen=True, eq=False)
class HorizontalTrajectory:
    """Coupled vertical + group trajectory on a shared uniform grid."""

    trajectory: Trajectory
    x: np.ndarray  # (N, k)
    y: np.ndarray  # (N, k(k-1)/2)

    @property
    def endpoint(self) -> GroupPoint:
        return GroupPoint(self.x[-1], self.y[-1])

    def points(self) -> list[GroupPoint]:
        return [GroupPoint(xm, ym) for xm, ym in zip(self.x, self.y)]

    def control(self, t: float) -> np.ndarray:
        """Extremal control at arbitrary t from the dense output."""
        return self.trajectory.control(t)


def _lift_matrix(skew: SkewMatrix) -> np.ndarray:
    """Constant L with (dh, dx, dy) = L @ (u, vec(x u^T)) for the coupled state.

    Column k + i*k + j of L multiplies x_i u_j: the h rows hold -M, the x
    rows the identity, and the row of pair (i, j) takes +1/2 x_i u_j and
    -1/2 x_j u_i.
    """
    k = skew.k
    rows, cols = AlgebraSpec(k).pair_rows_cols()
    pairs = np.arange(rows.size)
    out = np.zeros((2 * k + rows.size, k + k * k))
    out[:k, :k] = -skew.matrix
    out[k:2 * k, :k] = np.eye(k)
    out[2 * k + pairs, k + rows * k + cols] = 0.5
    out[2 * k + pairs, k + cols * k + rows] = -0.5
    return out


def integrate_horizontal(h0, skew: SkewMatrix, body: ControlBody, t1: float,
                         opts: IntegrationOptions | None = None,
                         samples: int = 1000) -> HorizontalTrajectory:
    """Integrate the coupled vertical/horizontal system from the identity.

    The state is (h, x, y) of dimension k + k + k(k-1)/2; u(t) = grad H(h(t))
    enters both subsystems directly.  Drift monitoring and abort semantics
    match integrate_vertical; on a drift abort the partial result attached to
    the error is a HorizontalTrajectory.
    """
    opts = opts or IntegrationOptions()
    h0 = body.normalize_to_level(h0)
    k = skew.k
    if h0.size != k:
        raise InputError(f"h0 has length {h0.size}, skew matrix expects {k}")
    t1 = float(t1)
    if not np.isfinite(t1) or t1 <= 0.0:
        raise InputError(f"time horizon must be positive and finite, got {t1}")
    if samples < 1:
        raise InputError("samples must be >= 1")

    spec = AlgebraSpec(k)
    coupling = _lift_matrix(skew)
    grad = body._gradient

    def rhs(t, z):
        u = grad(z[:k])
        return coupling @ np.concatenate((u, np.multiply.outer(z[k:2 * k], u).ravel()))

    z0 = np.concatenate((h0, np.zeros(k), np.zeros(spec.num_pairs)))
    ts = np.linspace(0.0, t1, samples + 1)
    dense = None

    if opts.project_level:
        zs = np.empty((ts.size, z0.size))
        zs[0] = z0
        state = z0
        for m in range(ts.size - 1):
            seg = _solve(rhs, ts[m], ts[m + 1], state, opts)
            zs[m + 1] = seg.y[:, -1]
            state = zs[m + 1].copy()
            state[:k] /= body._support(state[:k])
    else:
        sol = _solve(rhs, 0.0, t1, z0, opts)
        zs = sol.sol(ts).T
        dense = lambda t: sol.sol(t)[:k]  # vertical slice of the coupled state

    hs = zs[:, :k]
    xs = zs[:, k:2 * k]
    ys = zs[:, 2 * k:]
    basis = kernel_basis(skew, opts.kernel_rel_tol)

    try:
        vertical = _assemble_vertical(ts, hs, skew, basis, body, opts, dense=dense)
    except DriftExceededError as err:
        stop = err.partial.t.size
        err.partial = HorizontalTrajectory(trajectory=err.partial, x=xs[:stop], y=ys[:stop])
        raise
    return HorizontalTrajectory(trajectory=vertical, x=xs, y=ys)
