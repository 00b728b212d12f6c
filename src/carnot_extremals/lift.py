"""Horizontal lift: the group trajectory driven by extremal controls.

In the explicit coordinate model of the step-2 free Carnot group, a point is
(x_1..x_k; x_12..x_(k-1)k) and the left-invariant frame gives

    dx_i/dt  = u_i,
    dx_ij/dt = (x_i u_j - x_j u_i) / 2,   i < j,

so the second-layer coordinates accumulate the signed areas swept by the
first-layer projection.  The identity is the origin.  The covector flow fixes
the whole extremal, so only h is integrated; x and y are quadratures of the
control u = grad H(h), taken by Gauss-Legendre rules on every solver step of
the dense output.  The group product in this chart is

    (x, y) . (x', y') = (x + x', y + y' + (x_i x'_j - x_j x'_i) / 2),

and the system is left-invariant, so where h has period T the lift obeys
gamma(nT + s) = gamma(T)^n . gamma(s): one period of h, x and y gives the
whole trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec, CasimirBasis, SkewMatrix, kernel_basis
from .bodies import ControlBody
from .errors import DriftExceededError, InputError
from .dop853 import _dense_values, _solve
from .flow import (_PARALLEL_WARN_BAND, _RETURN_RESIDUAL_TOL, IntegrationOptions, Trajectory,
                   _assemble_vertical, _make_rhs, _output_grid, _parallel_residual,
                   _return_event)

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
    """Vertical trajectory and its group lift (x, y) on one uniform grid.

    ``period`` is the period T of h when the lift was tiled from one period
    (see integrate_horizontal), and None when the whole horizon was solved.
    """

    trajectory: Trajectory
    x: np.ndarray  # (N, k)
    y: np.ndarray  # (N, k(k-1)/2)
    period: float | None = None

    @property
    def endpoint(self) -> GroupPoint:
        return GroupPoint(self.x[-1], self.y[-1])

    @property
    def max_lift_residual(self) -> float:
        """Largest miss of the momentum-map identities of the lift over its rows.

        dh/dt = -M u and dx/dt = u from x(0) = 0 give (I1) h + M x = h0, and
        with Euler's identity <grad H(h), h> = H(h) = 1 the y rate gives
        (I2) sum_{i<j} M_ij y_ij = (t - <x, h>) / 2.  Each miss is relative
        to the largest of its terms over the rows (|h| and |M x| for I1;
        |sum M_ij y_ij|, t / 2 and |<x, h>| / 2 for I2), and the larger of
        the two is returned; 0 for a trajectory without rows.
        """
        traj = self.trajectory
        if not traj.t.size:
            return 0.0
        matrix = traj.skew.matrix
        moved = self.x @ matrix.T
        worst = _relative_miss(traj.h + moved - traj.h[0], traj.h, moved)
        rows, cols = AlgebraSpec(matrix.shape[0]).pair_rows_cols()
        swept = self.y @ matrix[rows, cols]
        time, pairing = 0.5 * traj.t, 0.5 * np.einsum("ij,ij->i", self.x, traj.h)
        return max(worst, _relative_miss(swept - time + pairing, swept, time, pairing))


def _relative_miss(miss, *terms) -> float:
    """max |miss| over the largest |term|, or 0 where every term vanishes."""
    scale = max(float(np.abs(term).max()) for term in terms)
    return float(np.abs(miss).max()) / scale if scale > 0.0 else 0.0


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
    """(x, y) as one (N, k + k(k-1)/2) array on the times ts, and at the end of sol.

    The lift is a quadrature of u over the solver steps of sol, from its
    first time to its last, which after an event is the event root: the
    last step then ends there.  On every step u is taken at the Gauss nodes
    of the dense output.  Each step adds the Gauss-weighted sum of u to x,
    which running sums turn into the values at the step starts.  x at the
    nodes adds the Gauss integration matrix applied to u, and x at a time
    inside the step adds the antiderivative of the polynomial through the
    node values of u.  y is built the same way from its rate
    (x_i u_j - x_j u_i) / 2 at the nodes.  The value at a time uses only the
    steps up to it.
    """
    t_old = sol.t[:-1]
    step = np.diff(sol.t)
    nodes = t_old[:, None] + step[:, None] * _C
    u = body._gradient(_dense_values(sol, nodes.ravel()).T).reshape(step.size, _NODES, k)
    x_nodes = (_step_starts(step[:, None] * (_W @ u))[:, None, :]
               + step[:, None, None] * (_NODE_WEIGHTS @ u))
    rows, cols = AlgebraSpec(k).pair_rows_cols()
    rates = np.empty((step.size, _NODES, k + rows.size))
    rates[..., :k] = u
    for p, (i, j) in enumerate(zip(rows, cols)):  # one pair at a time keeps temporaries small
        rates[..., k + p] = 0.5 * (x_nodes[..., i] * u[..., j] - x_nodes[..., j] * u[..., i])
    increments = step[:, None] * (_W @ rates)
    starts = _step_starts(increments)
    seg = np.clip(np.searchsorted(sol.t, ts, side="left") - 1, 0, step.size - 1)
    weights = step[seg, None] * _antiderivative_weights((ts - t_old[seg]) / step[seg])
    values = starts[seg]
    for j in range(_NODES):  # a node at a time: no (grid, node, column) array
        values += weights[:, j, None] * rates[seg, j]
    return values, starts[-1] + increments[-1]


def _rank_two_orbit(h0: np.ndarray, skew: SkewMatrix, body: ControlBody,
                    basis: CasimirBasis) -> bool:
    """Whether h from h0 runs around a closed curve with a first return worth seeking.

    With rank M = 2 the orbit lies in the plane h0 + range M, on H = 1: a
    closed convex curve, run around monotonically unless grad H(h0) is
    normal to that plane.  A start whose parallel residual (see
    _parallel_residual) is at most _PARALLEL_WARN_BAND is left to the full
    solve, as is a kernel that kernel_basis flags near singular.
    """
    if skew.k - len(basis) != 2 or basis.near_singular:
        return False
    return _parallel_residual(body.support_gradient(h0), basis) > _PARALLEL_WARN_BAND


def _tile(sol, ts: np.ndarray, period: float, body: ControlBody, k: int):
    """h, x and y on ts from one period: sol ends at the first return, t = period.

    Each time is t = nT + s with 0 <= s (n = 0 exactly for t < T), h(t) is
    h(s) and (x, y)(t) is gamma(T)^n . gamma(s), that is
    (n x_T + x(s), n y_T + y(s) + (n / 2)(x_T,i x_j(s) - x_T,j x_i(s))).
    Times before T keep the values of a lift of sol at ts.
    """
    n = np.floor(ts / period)
    n[n * period > ts] -= 1.0
    s = ts - n * period
    hs = _dense_values(sol, s).T
    values, end = _lift(sol, s, body, k)
    later = int(np.searchsorted(n, 1.0))
    m, x_t, y_t = n[later:, None], end[:k], end[k:]
    x = values[later:, :k]
    rows, cols = AlgebraSpec(k).pair_rows_cols()
    values[later:, k:] += m * y_t + 0.5 * m * (x_t[rows] * x[:, cols] - x_t[cols] * x[:, rows])
    values[later:, :k] += m * x_t
    return hs, values[:, :k], values[:, k:]


def integrate_horizontal(h0, skew: SkewMatrix, body: ControlBody, t1: float,
                         opts: IntegrationOptions | None = None,
                         samples: int = 1000) -> HorizontalTrajectory:
    """Integrate the vertical system from h0 and lift it from the identity.

    Only the covector h is integrated; x and y are quadratures of
    u(t) = grad H(h(t)) on the solver steps (see _lift), so the step size
    control sees h alone.  h0 is rescaled to the level set H = 1 first (the
    zero covector is rejected as abnormal), and the grid has ``samples`` + 1
    uniform nodes on [0, t1].  ``trajectory`` holds h, u and, at every node,
    the drift of H and of each linear integral I_a, a in ker M.  A drift
    above ``opts.max_drift`` raises DriftExceededError carrying the offending
    time and, as ``partial``, the HorizontalTrajectory up to it.

    One period is enough when h is periodic.  With rank M = 2, a kernel
    that kernel_basis does not flag near singular and a start off the
    constant branch (see _rank_two_orbit), the one solve on [0, t1] stops
    at the first return of h to h0, the event detect_period stops at (see
    _return_event), and keeps its dense output.  If the return comes at
    T < t1 and misses h0 by at most _RETURN_RESIDUAL_TOL, only [0, T] is
    lifted, and every grid time t = nT + s takes h(s), u(s) and
    gamma(T)^n . gamma(s) (see _tile); ``period`` is T.  Then the cost no
    longer grows with t1, and h, u and the drifts before T, and x and y
    before the solver step that holds T, have the bits of the full solve.
    The tiled h lags the exact one by about n |dT| |dh/dt|, with dT the
    error of T: the phase error grows linearly in n = t / T, as the global
    error of a full solve does (on an ellipsoid of the tests, 6e-13,
    3.5e-11 and 3.5e-9 against the exact flow at n = 10, 1000 and 100000).
    A return that misses the bar is solved again without the event, and a
    solve that reaches t1 first is the full solve, bit for bit.
    """
    opts = opts or IntegrationOptions()
    h0, ts = _output_grid(h0, skew, body, t1, samples)
    basis = kernel_basis(skew)
    rhs = _make_rhs(body, skew.matrix)
    sol = period = None
    if _rank_two_orbit(h0, skew, body, basis):
        sol = _solve(rhs, 0.0, ts[-1], h0, opts, events=_return_event(rhs, h0), dense=True)
        if sol.status == 1:
            end = sol.t[-1]
            if end < ts[-1] and np.linalg.norm(sol.y[:, -1] - h0) <= _RETURN_RESIDUAL_TOL:
                period = float(end)
            else:
                sol = None
    if sol is None:
        sol = _solve(rhs, 0.0, ts[-1], h0, opts)
    if period is None:
        hs = _dense_values(sol, ts).T
        values = _lift(sol, ts, body, skew.k)[0]
        xs, ys = values[:, :skew.k], values[:, skew.k:]
    else:
        hs, xs, ys = _tile(sol, ts, period, body, skew.k)

    try:
        vertical = _assemble_vertical(ts, hs, skew, basis, body, opts)
    except DriftExceededError as err:
        stop = err.partial.t.size
        err.partial = HorizontalTrajectory(trajectory=err.partial, x=xs[:stop], y=ys[:stop],
                                           period=period)
        raise
    return HorizontalTrajectory(trajectory=vertical, x=xs, y=ys, period=period)
