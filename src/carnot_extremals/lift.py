"""Horizontal lift: the group trajectory driven by extremal controls.

In the explicit coordinate model of the step-2 free Carnot group, a point is
(x_1..x_k; x_12..x_(k-1)k) and the left-invariant frame gives

    dx_i/dt  = u_i,
    dx_ij/dt = (x_i u_j - x_j u_i) / 2,   i < j,

so the second-layer coordinates accumulate the signed areas swept by the
first-layer projection.  The identity is the origin.  The covector flow fixes
the whole extremal, so only h is integrated; x and y are quadratures of the
control u = grad H(h), taken by Gauss-Legendre rules on every solver step of
the dense output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec, SkewMatrix, kernel_basis
from .bodies import ControlBody
from .errors import DriftExceededError, InputError
from .flow import (IntegrationOptions, Trajectory, _assemble_vertical, _dense_values, _make_rhs,
                   _output_grid, _solve)

# Gauss-Legendre rule of _NODES nodes on [0, 1]: nodes _C, weights _W.
# _ANTIDERIVATIVE holds an antiderivative of each Lagrange basis polynomial of
# the nodes in the Legendre basis on [-1, 1], where the discrete orthogonality
# of the rule inverts the node Vandermonde matrix.
_NODES = 8
_Z, _ZW = np.polynomial.legendre.leggauss(_NODES)
_C, _W = 0.5 * (_Z + 1.0), 0.5 * _ZW
_ANTIDERIVATIVE = 0.5 * np.polynomial.legendre.legint(
    (np.arange(_NODES) + 0.5)[:, None] * np.polynomial.legendre.legvander(_Z, _NODES - 1).T * _ZW)


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


@dataclass(frozen=True, eq=False)
class HorizontalTrajectory:
    """Vertical trajectory and its group lift (x, y) on one uniform grid."""

    trajectory: Trajectory
    x: np.ndarray  # (N, k)
    y: np.ndarray  # (N, k(k-1)/2)

    @property
    def endpoint(self) -> GroupPoint:
        return GroupPoint(self.x[-1], self.y[-1])

    def control(self, t: float) -> np.ndarray:
        """Extremal control at arbitrary t from the dense output."""
        return self.trajectory.control(t)


def _antiderivative_weights(s) -> np.ndarray:
    """(N, _NODES) weights of int_0^s for the polynomial through the nodes.

    Subtracting the value at s = 0 term by term makes s = 0 give exact zeros.
    """
    vander = np.polynomial.legendre.legvander
    return (vander(2.0 * s - 1.0, _NODES) - vander(-1.0, _NODES)) @ _ANTIDERIVATIVE


_NODE_WEIGHTS = _antiderivative_weights(_C)  # Gauss integration matrix: int_0^c_i l_j


def _step_starts(increments: np.ndarray) -> np.ndarray:
    """Values at the step starts: zero, then the running sums of the increments."""
    out = np.zeros_like(increments)
    np.cumsum(increments[:-1], axis=0, out=out[1:])
    return out


def _lift(sol, ts: np.ndarray, body: ControlBody, k: int) -> tuple[np.ndarray, np.ndarray]:
    """x and y on the grid ts, by quadrature of u over the solver steps of sol.

    On every step u is taken at the Gauss nodes of the dense output.  Each
    step adds the Gauss-weighted sum of u to x, which running sums turn into
    the values at the step starts.  x at the nodes adds the Gauss integration
    matrix applied to u, and x at a grid time inside the step adds the
    antiderivative of the polynomial through the node values of u.  y is
    built the same way from its rate (x_i u_j - x_j u_i) / 2 at the nodes.
    """
    t_old = sol.t[:-1]
    step = np.diff(sol.t)
    nodes = t_old[:, None] + step[:, None] * _C
    u = body._gradient_batch(_dense_values(sol, nodes.ravel()).T).reshape(step.size, _NODES, k)
    x_nodes = (_step_starts(step[:, None] * (_W @ u))[:, None, :]
               + step[:, None, None] * (_NODE_WEIGHTS @ u))
    rows, cols = AlgebraSpec(k).pair_rows_cols()
    rates = np.empty((step.size, _NODES, k + rows.size))
    rates[..., :k] = u
    for p, (i, j) in enumerate(zip(rows, cols)):  # one pair at a time keeps temporaries small
        rates[..., k + p] = 0.5 * (x_nodes[..., i] * u[..., j] - x_nodes[..., j] * u[..., i])
    starts = _step_starts(step[:, None] * (_W @ rates))
    seg = np.clip(np.searchsorted(sol.t, ts, side="left") - 1, 0, step.size - 1)
    weights = step[seg, None] * _antiderivative_weights((ts - t_old[seg]) / step[seg])
    values = starts[seg]
    for j in range(_NODES):  # a node at a time: no (grid, node, column) array
        values += weights[:, j, None] * rates[seg, j]
    return values[:, :k], values[:, k:]


def integrate_horizontal(h0, skew: SkewMatrix, body: ControlBody, t1: float,
                         opts: IntegrationOptions | None = None,
                         samples: int = 1000) -> HorizontalTrajectory:
    """Integrate the vertical system from h0 and lift it from the identity.

    Only the covector h is integrated; x and y are quadratures of
    u(t) = grad H(h(t)) on the solver steps (see _lift), so the step size
    control sees h alone.  Drift monitoring and abort semantics match
    integrate_vertical; on a drift abort the partial result attached to the
    error is a HorizontalTrajectory.
    """
    opts = opts or IntegrationOptions()
    h0, ts = _output_grid(h0, skew, body, t1, samples)
    sol = _solve(_make_rhs(body, skew.matrix), 0.0, ts[-1], h0, opts)
    hs = _dense_values(sol, ts).T
    xs, ys = _lift(sol, ts, body, skew.k)
    basis = kernel_basis(skew, opts.kernel_rel_tol)

    try:
        vertical = _assemble_vertical(ts, hs, skew, basis, body, opts, dense=sol.sol)
    except DriftExceededError as err:
        stop = err.partial.t.size
        err.partial = HorizontalTrajectory(trajectory=err.partial, x=xs[:stop], y=ys[:stop])
        raise
    return HorizontalTrajectory(trajectory=vertical, x=xs, y=ys)
