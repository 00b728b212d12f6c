"""Vertical extremal flow: integration, invariant monitoring, classification.

The covector part of the extremal system is

    dh/dt = -M grad H(h),        dh_ij/dt = 0,

with M the constant skew-symmetric matrix of second-layer momenta and H the
support function of the control set, normalized to H = 1 along trajectories.
Skew symmetry makes H a first integral, and every a in ker M yields a linear
integral I_a(h) = <a, h>.  For k = 3 a nonconstant solution traverses the
closed planar curve {H = 1} intersected with {I_a = const} monotonically, so
it is periodic and its period is the first-return time; classification
reduces to a parallelism test plus return detection.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .algebra import CasimirBasis, SkewMatrix, kernel_basis
from .bodies import ControlBody
from .errors import (
    DriftExceededError,
    HorizonExhaustedError,
    InputError,
    IntegrationError,
    UnsupportedRankError,
)

logger = logging.getLogger(__name__)

CONSTANT = "constant"
PERIODIC = "periodic"
UNCLASSIFIED = "unclassified"

_BISECT_MAX_ITER = 200


@dataclass(frozen=True)
class IntegrationOptions:
    """Tolerances and knobs shared by the flow operations.

    The solver is fixed: Dormand-Prince 8(5,3) (SciPy's DOP853), an adaptive
    embedded Runge-Kutta pair with dense output, run forward in time.  The
    default tolerances keep invariant drift orders of magnitude under the
    1e-8 monitoring bars on horizons of a few hundred time units, including
    near equilibria and across the mild gradient kinks of lp bodies.
    """

    rtol: float = 1e-13
    atol: float = 1e-15
    max_drift: float = 1e-7
    kernel_rel_tol: float = 1e-10
    parallel_tol: float = 1e-9
    parallel_warn_band: float = 1e-6
    capture_radius: float = 1e-3
    return_residual_tol: float = 1e-8
    g_tol: float = 1e-12
    t_max: float | None = None


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled vertical trajectory with its invariant log.

    The second-layer momenta are constants of motion and are stored once in
    ``skew`` rather than per sample.  ``level_drift[m]`` is |H(h_m) - 1| and
    ``casimir_drift[m, n]`` is |I_a_n(h_m) - I_a_n(h_0)| for the n-th kernel
    basis vector.  ``state``/``control`` evaluate the dense output between
    grid nodes.
    """

    t: np.ndarray
    h: np.ndarray
    u: np.ndarray
    skew: SkewMatrix
    casimirs: CasimirBasis

    level_drift: np.ndarray
    casimir_drift: np.ndarray

    body: ControlBody | None = None
    dense: Callable | None = None

    @property
    def max_level_drift(self) -> float:
        return float(self.level_drift.max(initial=0.0))

    @property
    def max_casimir_drift(self) -> np.ndarray:
        if self.casimir_drift.size == 0:
            return np.zeros(len(self.casimirs))
        return self.casimir_drift.max(axis=0)

    def state(self, t) -> np.ndarray:
        """Covector h(t) from the dense output, for scalar or array t."""
        if self.dense is None:
            raise IntegrationError("dense output is not available for this trajectory")
        return self.dense(t)

    def control(self, t: float) -> np.ndarray:
        """Extremal control grad H(h(t)) from the dense output (scalar t)."""
        return self.body._gradient(np.asarray(self.state(t), dtype=float))


@dataclass(frozen=True)
class PeriodResult:
    """First-return time and the refined return residual ||h(T) - h0||."""

    period: float
    residual: float


@dataclass(frozen=True)
class QuasiPeriodResult:
    """Minimum return distance over a sampled window and where it occurs."""

    min_return_distance: float
    time_of_min: float


@dataclass(frozen=True)
class ExtremalClass:
    """Classification of a vertical extremal for k = 3.

    kind is "constant", "periodic" (with period and return residual), or
    "unclassified" with a reason; the latter flags a tolerance problem since
    the dichotomy is guaranteed for strictly convex bodies.
    """

    kind: str
    period: float | None = None
    return_residual: float | None = None
    parallel_residual: float | None = None
    reason: str | None = None
    warnings: tuple[str, ...] = ()


def _make_rhs(body: ControlBody, matrix: np.ndarray) -> Callable[[float, np.ndarray], np.ndarray]:
    """-M grad(H^s / s)(h), the solver's right-hand side (see ControlBody).

    On the level set H = 1 it equals -M grad H(h), and it conserves H and
    every I_a exactly as that field does, at a lower cost per call.
    """
    grad = body._level_gradient
    neg = -matrix

    def rhs(t, h):
        return neg @ grad(h)

    return rhs


def _solve(rhs, t0: float, t1: float, z0: np.ndarray, opts: IntegrationOptions, events=None,
           dense: bool = True):
    sol = solve_ivp(rhs, (t0, t1), z0, method="DOP853", rtol=opts.rtol, atol=opts.atol,
                    dense_output=dense, events=events)
    if not sol.success:
        raise IntegrationError(f"solver failed near t = {sol.t[-1]:.6g}: {sol.message}")
    return sol


def _dense_values(sol, t) -> np.ndarray:
    """``sol.sol(t)`` for a 1-D array of times t, shape (n, t.size).

    A DOP853 step keeps its interpolant as polynomial rows ``F`` with
    ``y_old``, ``t_old`` and the step length ``h`` (SciPy internals).
    Stacked over the steps, they evaluate all times in one pass with the
    operations ``OdeSolution`` applies step by step, so the bits are the
    same.  Each time goes to the step ``OdeSolution`` picks: at a step
    boundary, the step that ends there.  This takes a forward DOP853 solve,
    the only kind ``_solve`` makes.
    """
    dense = sol.sol
    steps = dense.interpolants
    t = np.asarray(t, dtype=float)
    seg = np.clip(np.searchsorted(dense.ts, t, side=dense.side) - 1, 0, len(steps) - 1)
    rows = np.stack([s.F for s in steps])
    x = ((t - np.array([s.t_old for s in steps])[seg])
         / np.array([s.h for s in steps])[seg])[:, None]
    y = np.zeros((t.size, rows.shape[2]))
    for i in range(rows.shape[1]):
        y += rows[seg, -1 - i]
        y *= x if i % 2 == 0 else 1 - x
    y += np.stack([s.y_old for s in steps])[seg]
    return y.T


def _output_grid(h0, skew: SkewMatrix, body: ControlBody, t_span, samples: int):
    """h0 rescaled to H = 1 and the uniform grid of samples + 1 output times."""
    h0 = body.normalize_to_level(h0)
    if h0.size != skew.k:
        raise InputError(f"h0 has length {h0.size}, skew matrix expects {skew.k}")
    if np.isscalar(t_span):
        t0, t1 = 0.0, float(t_span)
    else:
        t0, t1 = (float(v) for v in t_span)
    if not (np.isfinite(t0) and np.isfinite(t1) and t1 > t0):
        raise InputError(f"time span must be finite with t1 > t0, got ({t0}, {t1})")
    if samples < 1:
        raise InputError("samples must be >= 1")
    return h0, np.linspace(t0, t1, samples + 1)


def _check_drift(ts, level_drift, casimir_drift, max_drift, build_partial):
    bad = level_drift > max_drift
    if casimir_drift.size:
        bad = bad | (casimir_drift > max_drift).any(axis=1)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    worst = float(level_drift[i])
    if casimir_drift.size:
        worst = max(worst, float(casimir_drift[i].max()))
    raise DriftExceededError(
        f"invariant drift {worst:.3e} exceeds max_drift={max_drift:.1e} at t = {ts[i]:.9g}",
        time=float(ts[i]),
        drift=worst,
        partial=build_partial(i),
    )


def integrate_vertical(h0, skew: SkewMatrix, body: ControlBody, t_span,
                       opts: IntegrationOptions | None = None,
                       samples: int = 1000) -> Trajectory:
    """Integrate the vertical system on a uniform output grid.

    h0 is rescaled to the level set H = 1 before integration (the zero
    covector is rejected as abnormal).  The output grid of ``samples`` + 1
    nodes is decoupled from the adaptive steps via dense output.  At every
    node the drift of H and of each linear integral I_a, a in ker M, is
    logged; if any drift exceeds ``opts.max_drift`` a DriftExceededError is
    raised carrying the offending time and the partial trajectory.
    """
    opts = opts or IntegrationOptions()
    h0, ts = _output_grid(h0, skew, body, t_span, samples)
    basis = kernel_basis(skew, opts.kernel_rel_tol)
    sol = _solve(_make_rhs(body, skew.matrix), ts[0], ts[-1], h0, opts)
    return _assemble_vertical(ts, _dense_values(sol, ts).T, skew, basis, body, opts,
                              dense=sol.sol)


def _assemble_vertical(ts, hs, skew, basis, body, opts, dense=None) -> Trajectory:
    level = body._support_batch(hs)
    level_drift = np.abs(level - 1.0)
    if len(basis):
        values = hs @ basis.vectors.T
        casimir_drift = np.abs(values - values[0])
    else:
        casimir_drift = np.zeros((ts.size, 0))

    def build_partial(i):
        return Trajectory(
            t=ts[:i], h=hs[:i], u=body._gradient_batch(hs[:i]),
            skew=skew, casimirs=basis,
            level_drift=level_drift[:i], casimir_drift=casimir_drift[:i],
            body=body, dense=dense,
        )

    _check_drift(ts, level_drift, casimir_drift, opts.max_drift, build_partial)
    u = body._gradient_batch(hs)
    return Trajectory(t=ts, h=hs, u=u, skew=skew, casimirs=basis,
                      level_drift=level_drift, casimir_drift=casimir_drift,
                      body=body, dense=dense)


def detect_period(rhs, h0, t_max: float, opts: IntegrationOptions | None = None) -> PeriodResult:
    """First-return time of a nonconstant trajectory of ``rhs`` from h0.

    Monitors g(t) = <h(t) - h0, v> with v the unit initial velocity.  On a
    closed convex curve traversed monotonically, g leaves t = 0 upward,
    falls through zero once on the far side of the curve and rises through
    zero again only at the full return.  The search makes two event stops
    of the solver: one integration runs until g falls through zero, and a
    second one, started there, runs until g rises through zero.  Neither
    keeps dense output: the first is read at its end point, the second at
    the solver's event root and the state there.  That root is the
    candidate when |g| <= opts.g_tol there; otherwise the last step is
    solved again with dense output and the root refined by bisection on it
    until |g| <= opts.g_tol.  The candidate is accepted if it lands within
    opts.capture_radius of h0 with velocity aligned to the initial one;
    otherwise the two stops repeat from the candidate.  So the search
    integrates up to the first return and no further: there are no fixed
    chunks and no scan grid.  Crossings are seen through the sign of g at
    the solver's steps, so g dipping below zero and back within a single
    step would go unseen; at the default tolerances a period takes dozens
    of steps.

    Raises HorizonExhaustedError when no return is found by t_max.
    """
    opts = opts or IntegrationOptions()
    h0 = np.asarray(h0, dtype=float)
    if not np.isfinite(t_max) or t_max <= 0.0:
        raise InputError(f"t_max must be positive and finite, got {t_max}")
    hdot0 = np.asarray(rhs(0.0, h0), dtype=float)
    speed0 = float(np.linalg.norm(hdot0))
    if speed0 == 0.0:
        raise InputError("initial velocity vanishes; the trajectory is constant")
    vhat = hdot0 / speed0

    def crossing(t_start, side):
        # Terminal event on g, crossing from `side` to the other.  Where a
        # search leg starts (at h0 or at the previous stop) g is zero up to
        # rounding, so there the event reports the side g is known to leave
        # towards: the leg never stops at its own start, and a crossing
        # inside its first step is still bracketed.
        def event(t, h):
            if t == t_start:
                return side * np.finfo(float).tiny
            return float(vhat @ (h - h0))

        event.terminal = True
        event.direction = -side
        return event

    t_lo, state = 0.0, h0
    while t_lo < t_max:
        far = _solve(rhs, t_lo, t_max, state, opts, events=crossing(t_lo, 1.0), dense=False)
        if far.status != 1:
            break
        t_far = float(far.t[-1])
        rises = crossing(t_far, -1.0)
        back = _solve(rhs, t_far, t_max, far.y[:, -1], opts, events=rises, dense=False)
        if back.status != 1:
            break
        a, b = float(back.t[-2]), float(back.t[-1])
        state_at = _last_step(rhs, back, opts)
        t_star = _bisect_crossing(lambda t: rises(t, state_at(t)), a, b, opts.g_tol)
        h_star = state_at(t_star)
        residual = float(np.linalg.norm(h_star - h0))
        if residual <= opts.capture_radius and float(rhs(t_star, h_star) @ hdot0) > 0.0:
            logger.debug("first return at T=%.12g residual=%.3e", t_star, residual)
            return PeriodResult(period=float(t_star), residual=residual)
        t_lo, state = b, back.y[:, -1]
    raise HorizonExhaustedError(f"no first return found within t_max = {t_max:.6g}", t_max=t_max)


def _last_step(rhs, leg, opts: IntegrationOptions) -> Callable[[float], np.ndarray]:
    """h(t) on the last step of ``leg``, a solve stopped by a terminal event.

    At the step end, the event root, this is the solver's state there.  Any
    other time re-solves the step once, with dense output, from its start.
    """
    a, b = float(leg.t[-2]), float(leg.t[-1])
    end = leg.y[:, -1]
    dense = None

    def state_at(t):
        nonlocal dense
        if t == b:
            return end
        if dense is None:
            dense = _solve(rhs, a, b, leg.y[:, -2], opts).sol
        return dense(t)

    return state_at


def _bisect_crossing(g, a, b, g_tol) -> float:
    """Root of g on the step [a, b] whose end b is the solver's event root.

    The solver has already located the root to a few ulp, so b is returned
    after one evaluation of g when |g(b)| <= g_tol.  Only otherwise is [a, b]
    bisected; in ``detect_period`` that is the one case where the last step
    is solved again with dense output (see _last_step).
    """
    if abs(g(b)) <= g_tol:
        return b
    ga = g(a)
    mid = 0.5 * (a + b)
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (a + b)
        gm = g(mid)
        if abs(gm) <= g_tol or (b - a) <= 4.0 * np.finfo(float).eps * max(1.0, abs(mid)):
            break
        if (gm < 0.0) == (ga < 0.0):
            a, ga = mid, gm
        else:
            b = mid
    return mid


def classify_k3(h0, skew: SkewMatrix, body: ControlBody,
                opts: IntegrationOptions | None = None) -> ExtremalClass:
    """Constant/periodic dichotomy of the vertical extremal for k = 3.

    With M = 0 every solution is constant.  Otherwise ker M is spanned by a
    single unit vector a, and the solution is constant exactly when
    grad H(h0) is parallel to a (the extremum points of I_a on the level set
    H = 1 are the equilibria); the relative off-parallel residual is
    compared against opts.parallel_tol.  Nonconstant solutions are closed
    curves and are classified by first-return detection.  The axis a and
    sigma_max come from one scale-free kernel_basis call, and the flow runs on
    M / sigma_max in time units of 1 / sigma_max, so the outcome does not
    depend on the scale of M and T(lambda M) = T(M) / lambda.

    Residuals inside (parallel_tol, parallel_warn_band] attach a warning:
    that close to the constant branch the return time becomes
    ill-conditioned.
    """
    opts = opts or IntegrationOptions()
    if skew.k != 3:
        raise UnsupportedRankError(f"classification is only supported for k = 3, got k = {skew.k}")
    h0 = body.normalize_to_level(h0)
    if h0.size != 3:
        raise InputError(f"h0 must have length 3, got {h0.size}")

    if skew.is_zero:
        return ExtremalClass(kind=CONSTANT, parallel_residual=0.0)

    # With tau = sigma t the flow is dh/dtau = -(M / sigma) grad H(h); in t a
    # tiny M underflows the initial speed and a huge one overflows the first step.
    basis = kernel_basis(skew, opts.kernel_rel_tol)
    sigma = basis.sigma_max
    warnings: list[str] = []
    a = basis.vectors[0]
    grad = body.support_gradient(h0)
    residual = float(np.linalg.norm(grad - (grad @ a) * a) / np.linalg.norm(grad))
    if residual <= opts.parallel_tol:
        return ExtremalClass(kind=CONSTANT, parallel_residual=residual, warnings=tuple(warnings))
    if residual <= opts.parallel_warn_band:
        warnings.append(
            f"initial control is nearly aligned with the Casimir direction "
            f"(residual {residual:.3e}); the period is ill-conditioned here"
        )

    t_max = opts.t_max if opts.t_max is not None else 100.0 * (2.0 * np.pi / sigma)
    rhs = _make_rhs(body, skew.matrix / sigma)
    try:
        found = detect_period(rhs, h0, t_max * sigma, opts)
    except HorizonExhaustedError:
        return ExtremalClass(
            kind=UNCLASSIFIED, parallel_residual=residual,
            reason=f"no return within t_max = {t_max:.6g}; likely a tolerance problem",
            warnings=tuple(warnings),
        )
    period = found.period / sigma
    if found.residual > opts.return_residual_tol:
        return ExtremalClass(
            kind=UNCLASSIFIED, parallel_residual=residual,
            reason=(f"return residual {found.residual:.3e} exceeds "
                    f"{opts.return_residual_tol:.1e} at T = {period:.9g}"),
            warnings=tuple(warnings),
        )
    return ExtremalClass(kind=PERIODIC, period=period, return_residual=found.residual,
                         parallel_residual=residual, warnings=tuple(warnings))


def quasi_periodicity_check(h0, skew: SkewMatrix, body: ControlBody, t_max: float,
                            delta: float, opts: IntegrationOptions | None = None,
                            samples: int | None = None) -> QuasiPeriodResult:
    """Finite-horizon non-periodicity witness for k = 4.

    Integrates the vertical flow on [0, t_max], samples ||h(t) - h0|| on a
    uniform grid over [delta, t_max], and refines the grid minimum by
    root-finding on the time derivative of the squared distance.  A minimum
    bounded away from zero witnesses that no return happens in the window (a
    lower-bound witness at finite horizon, not a proof of non-periodicity);
    commensurate frequencies drive the refined minimum down to integration
    accuracy.
    """
    opts = opts or IntegrationOptions()
    if skew.k != 4:
        raise InputError(f"the quasi-periodicity witness is defined for k = 4, got k = {skew.k}")
    h0 = body.normalize_to_level(h0)
    if not (0.0 <= delta < t_max < np.inf):
        raise InputError(f"need 0 <= delta < t_max < inf, got delta={delta}, t_max={t_max}")
    if samples is None:
        samples = max(int(round((t_max - delta) / 0.01)) + 1, 1001)
    if samples < 1:
        raise InputError(f"need samples >= 1, got {samples}")

    rhs = _make_rhs(body, skew.matrix)
    sol = _solve(rhs, 0.0, t_max, h0, opts)
    grid = np.linspace(delta, t_max, samples)
    dist = np.linalg.norm(_dense_values(sol, grid) - h0[:, None], axis=0)
    j = int(np.argmin(dist))

    # Refine by locating the zero of d/dt ||h(t) - h0||^2, which is smooth
    # even when the minimum value sits at the integration-noise floor.
    def slope(t):
        h = sol.sol(t)
        return float((h - h0) @ rhs(t, h))

    lo = grid[max(j - 1, 0)]
    hi = grid[min(j + 1, grid.size - 1)]
    t_best, d_best = float(grid[j]), float(dist[j])
    if hi > lo and slope(lo) < 0.0 < slope(hi):
        t_star = float(brentq(slope, lo, hi, xtol=1e-13, rtol=4.0 * np.finfo(float).eps))
        d_star = float(np.linalg.norm(sol.sol(t_star) - h0))
        if d_star < d_best:
            t_best, d_best = t_star, d_star
    return QuasiPeriodResult(min_return_distance=d_best, time_of_min=t_best)
