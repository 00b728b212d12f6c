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

import json
import logging
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np
from scipy.integrate import DOP853, solve_ivp
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
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class IntegrationOptions:
    """Tolerances and knobs shared by the flow operations.

    The solver is fixed: Dormand-Prince 8(5,3) (SciPy's DOP853), an adaptive
    embedded Runge-Kutta pair with dense output, run forward in time.  The
    default tolerances keep invariant drift orders of magnitude under the
    1e-8 monitoring bars on horizons of a few hundred time units, including
    near equilibria and across the mild gradient kinks of lp bodies.
    Every value is checked on construction; a bad one raises InputError.
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

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if field.name == "t_max" and value is None:
                continue
            try:
                number = float(value)
            except (TypeError, ValueError):
                raise InputError(f"{field.name} must be a number, got {value!r}") from None
            if field.name == "g_tol":
                ok, bound = number >= 0.0, ">= 0"
            else:
                ok, bound = number > 0.0, "> 0"
            if not (ok and np.isfinite(number)):
                raise InputError(f"{field.name} must be finite and {bound}, got {value!r}")
        # SVD rounding leaves exact kernels at a few 1e-16 sigma_max; a cut of 1 takes all.
        if not 1e-15 <= self.kernel_rel_tol < 1.0:
            raise InputError(f"kernel_rel_tol must lie in [1e-15, 1), got {self.kernel_rel_tol!r}")
        # SciPy's DOP853 raises a smaller rtol to this floor; rejecting it keeps
        # the single and the batched first-return searches on one problem.
        if self.rtol < 100.0 * _EPS:
            raise InputError(f"rtol must be >= 100 eps = {100.0 * _EPS:.3g}, got {self.rtol!r}")


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


# SciPy's explicit Runge-Kutta step controller (scipy.integrate.RK45 and
# DOP853 share it); the DOP853 tableau itself is read from the public class.
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_STAGES = DOP853.n_stages
_STAGE_ROWS = [DOP853.A[s, :s] for s in range(1, _STAGES)]
_EXTRA_ROWS = [a[:s] for s, a in enumerate(DOP853.A_EXTRA, start=_STAGES + 1)]
_ERROR_EXPONENT = -1.0 / (DOP853.error_estimator_order + 1)


class _Lanes:
    """DOP853 on many initial states at once, each lane with its own step.

    Every lane runs SciPy's DOP853 forward from t = 0 towards ``t_bound``,
    with SciPy's initial-step rule, error norm and step controller applied
    to it alone: its own t, step size and rejection flag.  So a lane takes
    the steps ``solve_ivp(method="DOP853")`` would take from its start, up
    to rounding.  ``fun`` maps an (N, k) array of states to their
    derivatives; the field is autonomous, so stage times are not needed.
    ``step`` tries one step on every lane; ``interpolant`` builds the dense
    output of the last step on some lanes; ``keep`` drops the other lanes.
    """

    def __init__(self, fun, y0: np.ndarray, t_bound: float, opts: IntegrationOptions):
        self.fun, self.t_bound = fun, t_bound
        self.rtol, self.atol = opts.rtol, opts.atol
        self.rhs_rows = 0    # states passed to fun
        self.accepted = 0    # accepted lane steps
        self.rejected = 0    # rejected lane steps
        self.y = np.array(y0, dtype=float)
        self.t = np.zeros(len(self.y))
        self.f = self.rhs(self.y)
        self.h_abs = self._initial_step()
        self.retry = np.zeros(len(self.y), dtype=bool)
        self._last = None

    def rhs(self, ys):
        """``fun`` on the rows ys, counted in ``rhs_rows``."""
        self.rhs_rows += len(ys)
        return self.fun(ys)

    @staticmethod
    def _rms(x):
        return np.sqrt(np.einsum("ij,ij->i", x, x) / x.shape[1])

    def _initial_step(self):
        # SciPy's select_initial_step, lane by lane (order 7 error estimate).
        scale = self.atol + np.abs(self.y) * self.rtol
        d0, d1 = self._rms(self.y / scale), self._rms(self.f / scale)
        small = (d0 < 1e-5) | (d1 < 1e-5)
        h0 = np.where(small, 1e-6, 0.01 * d0 / np.where(small, 1.0, d1))
        h0 = np.minimum(h0, self.t_bound)
        f1 = self.rhs(self.y + h0[:, None] * self.f)
        d2 = self._rms((f1 - self.f) / scale) / h0
        flat = (d1 <= 1e-15) & (d2 <= 1e-15)
        h1 = np.where(flat, np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.where(flat, 1.0, np.maximum(d1, d2))) ** -_ERROR_EXPONENT)
        return np.minimum(np.minimum(100.0 * h0, h1), self.t_bound)

    def step(self) -> np.ndarray:
        """Try one step on every lane; returns the mask of accepted lanes.

        Accepted lanes move to the step's end; rejected ones keep t and
        retry next time with the smaller step SciPy would retry with.
        """
        t, y, f = self.t, self.y, self.f
        n, k = y.shape
        min_step = 10.0 * (np.nextafter(t, np.inf) - t)
        h_abs = np.where(self.retry, self.h_abs, np.maximum(self.h_abs, min_step))
        if (h_abs < min_step).any():
            lane = int(np.argmax(h_abs < min_step))
            raise IntegrationError(f"solver failed near t = {t[lane]:.6g}: Required step "
                                   f"size is less than spacing between numbers.")
        t_new = np.minimum(t + h_abs, self.t_bound)
        h = t_new - t
        hc = h[:, None]
        stages = np.empty((_STAGES + 4, n * k))
        stages[0] = f.ravel()
        for s, a in enumerate(_STAGE_ROWS, start=1):
            stages[s] = self.rhs(y + hc * (a @ stages[:s]).reshape(n, k)).ravel()
        y_new = y + hc * (DOP853.B @ stages[:_STAGES]).reshape(n, k)
        f_new = self.rhs(y_new)
        stages[_STAGES] = f_new.ravel()

        scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
        err5 = (DOP853.E5 @ stages[:_STAGES + 1]).reshape(n, k) / scale
        err3 = (DOP853.E3 @ stages[:_STAGES + 1]).reshape(n, k) / scale
        e5 = np.einsum("ij,ij->i", err5, err5)
        denom = e5 + 0.01 * np.einsum("ij,ij->i", err3, err3)
        error_norm = h * e5 / np.sqrt(np.where(denom > 0.0, denom, 1.0) * k)
        ok = error_norm < 1.0
        positive = error_norm > 0.0
        factor = _SAFETY * np.where(positive, error_norm, 1.0) ** _ERROR_EXPONENT
        factor = np.where(ok, np.where(positive, np.minimum(_MAX_FACTOR, factor), _MAX_FACTOR),
                          np.fmax(_MIN_FACTOR, factor))
        factor = np.where(ok & self.retry, np.minimum(1.0, factor), factor)

        self.h_abs = h * factor
        self.retry = ~ok
        accepted = int(ok.sum())
        self.accepted += accepted
        self.rejected += n - accepted
        self._last = (t, h, y, y_new, f, f_new, stages)
        self.t = np.where(ok, t_new, t)
        self.y = np.where(ok[:, None], y_new, y)
        self.f = np.where(ok[:, None], f_new, f)
        return ok

    def interpolant(self, lanes: np.ndarray):
        """(t_old, h, y_old, rows) of the last step on the given accepted lanes.

        This computes DOP853's 3 extra stages for those lanes only; rows are
        the 7 polynomial rows per lane, shaped (7, len(lanes), k).
        """
        t, h, y, y_new, f, f_new, stages = self._last
        k = y.shape[1]
        m = len(lanes)
        stages = stages.reshape(len(stages), -1, k)[:, lanes].reshape(len(stages), m * k)
        hc, y_old, f_old = h[lanes, None], y[lanes], f[lanes]
        for s, a in enumerate(_EXTRA_ROWS, start=_STAGES + 1):
            stages[s] = self.rhs(y_old + hc * (a @ stages[:s]).reshape(m, k)).ravel()
        delta = y_new[lanes] - y_old
        rows = np.empty((7, m, k))
        rows[0] = delta
        rows[1] = hc * f_old - delta
        rows[2] = 2.0 * delta - hc * (f_new[lanes] + f_old)
        rows[3:] = hc * (DOP853.D @ stages).reshape(len(DOP853.D), m, k)
        return t[lanes], h[lanes], y_old, rows

    def keep(self, mask: np.ndarray) -> None:
        """Drop every lane outside ``mask``."""
        self.t, self.y, self.f = self.t[mask], self.y[mask], self.f[mask]
        self.h_abs, self.retry = self.h_abs[mask], self.retry[mask]
        self._last = None


def _first_returns(body: ControlBody, matrix: np.ndarray, starts, t_max: float,
                   opts: IntegrationOptions) -> list[PeriodResult | None]:
    """``detect_period`` for dh/dt = -matrix grad(H^s / s) from every start at once.

    All starts move forward together as the lanes of one DOP853 integration
    (see _Lanes), and a lane leaves it once it finishes.  Each lane tracks
    g(t) = <h(t) - h0, v> with v its unit initial velocity, tested by sign
    at the end of every accepted step: first for the fall through zero on
    the far side of the orbit, then for the rise back through zero.  The
    lane does not restart at the fall, so its steps differ from
    ``detect_period``'s.  Only a step that brackets a rise computes the
    extra dense-output stages; the root of g on that step's interpolant is
    the candidate, accepted as in ``detect_period`` (within
    opts.capture_radius of h0, velocity aligned with the initial one) or
    else followed by a new fall and rise.  A lane that reaches t_max
    without a return gives None.  One debug log line, a JSON object, gives
    the work counters.
    """
    neg_t = -matrix.T
    grad = body._level_gradient_batch

    def fun(hs):
        return grad(hs) @ neg_t

    h0 = np.array(starts, dtype=float)
    lanes = _Lanes(fun, h0, t_max, opts)
    speed = np.linalg.norm(lanes.f, axis=1)
    if not speed.all():
        raise InputError("initial velocity vanishes; the trajectory is constant")
    hdot0 = lanes.f
    vhat = hdot0 / speed[:, None]
    found: list[PeriodResult | None] = [None] * len(h0)
    ids = np.arange(len(h0))
    g = np.zeros(len(h0))
    falling = np.ones(len(h0), dtype=bool)
    candidates = 0
    while ids.size:
        ok = lanes.step()
        g_new = np.where(ok, np.einsum("ij,ij->i", lanes.y - h0, vhat), g)
        rose = ok & ~falling & (g <= 0.0) & (g_new >= 0.0)
        falling = np.where(falling, ~(ok & (g >= 0.0) & (g_new <= 0.0)), rose)
        g = g_new
        done = lanes.t >= t_max
        if rose.any():
            lane = np.flatnonzero(rose)
            candidates += lane.size
            t_old, h, y_old, rows = lanes.interpolant(lane)
            for j, t_a, step, y_a, poly in zip(lane, t_old, h, y_old, rows.transpose(1, 0, 2)):
                t_star, h_star = _interpolant_root(poly, t_a, step, y_a, h0[j], vhat[j])
                residual = float(np.linalg.norm(h_star - h0[j]))
                if (residual <= opts.capture_radius
                        and float(lanes.rhs(h_star[None])[0] @ hdot0[j]) > 0.0):
                    found[ids[j]] = PeriodResult(period=t_star, residual=residual)
                    done[j] = True
        if done.any():
            stay = ~done
            lanes.keep(stay)
            ids, h0, hdot0, vhat, g, falling = (a[stay] for a in (ids, h0, hdot0, vhat, g, falling))
    logger.debug(json.dumps({"event": "batched_first_return", "lanes": len(found),
                             "accepted_steps": lanes.accepted,
                             "rejected_steps": lanes.rejected, "rhs_rows": lanes.rhs_rows,
                             "candidates": candidates,
                             "returns": sum(r is not None for r in found)}))
    return found


def _interpolant_root(rows, t_old, h, y_old, h0, vhat) -> tuple[float, np.ndarray]:
    """Root of g(t) = <h(t) - h0, vhat> on one step's interpolant, and h there.

    ``rows`` are the step's 7 polynomial rows, evaluated in the nested form
    of SciPy's ``Dop853DenseOutput`` (as in _dense_values).  g rises through
    zero on the step.  The root is located to a few ulp, as SciPy locates
    event roots; should rounding of the interpolant leave no sign change,
    the end with the smaller |g| is taken.
    """
    def state(t):
        x = (t - t_old) / h
        y = np.zeros_like(y_old)
        for i, row in enumerate(rows[::-1]):
            y += row
            y *= x if i % 2 == 0 else 1 - x
        return y + y_old

    def g(t):
        return float(vhat @ (state(t) - h0))

    a, b = t_old, t_old + h
    ga, gb = g(a), g(b)
    if ga < 0.0 < gb:
        t_star = brentq(g, a, b, xtol=4.0 * _EPS, rtol=4.0 * _EPS)
    else:
        t_star = a if abs(ga) < abs(gb) else b
    return float(t_star), state(t_star)


def _detect_each(body: ControlBody, matrix: np.ndarray, starts, t_max: float,
                 opts: IntegrationOptions) -> list[PeriodResult | None]:
    """``detect_period`` on SciPy's solve_ivp, one start after another."""
    rhs = _make_rhs(body, matrix)
    found = []
    for h0 in starts:
        try:
            found.append(detect_period(rhs, h0, t_max, opts))
        except HorizonExhaustedError:
            found.append(None)
    return found


def classify_k3(h0, skew: SkewMatrix, body: ControlBody,
                opts: IntegrationOptions | None = None) -> ExtremalClass:
    """Constant/periodic dichotomy of the vertical extremal for k = 3.

    With M = 0 every solution is constant.  Otherwise ker M is spanned by a
    single unit vector a, and the solution is constant exactly when
    grad H(h0) is parallel to a (the extremum points of I_a on the level set
    H = 1 are the equilibria); the relative off-parallel residual is
    compared against opts.parallel_tol.  Nonconstant solutions are closed
    curves and are classified by first-return detection (``detect_period``).
    The axis a and sigma_max come from one scale-free kernel_basis call, and
    the flow runs on M / sigma_max in time units of 1 / sigma_max, so the
    outcome does not depend on the scale of M and T(lambda M) = T(M) / lambda.

    Residuals inside (parallel_tol, parallel_warn_band] attach a warning:
    that close to the constant branch the return time becomes
    ill-conditioned.
    """
    return _classify([h0], skew, body, opts or IntegrationOptions(), _detect_each)[0]


def classify_sweep(h0s, skew: SkewMatrix, body: ControlBody,
                   opts: IntegrationOptions | None = None) -> list[ExtremalClass]:
    """``classify_k3`` for every covector of h0s, with one batched search.

    The checks, the parallel test, the warnings and the unclassified reasons
    are those of ``classify_k3``; the nonconstant covectors then move
    together through one lane-batched DOP853 first-return search
    (``_first_returns``), which pays the Python cost of a step once for all
    of them.  That search steps differently from ``detect_period``, so
    periods agree with ``classify_k3``'s to about 1e-10 relative, not bit
    for bit.
    """
    return _classify(h0s, skew, body, opts or IntegrationOptions(), _first_returns)


def _classify(h0s, skew: SkewMatrix, body: ControlBody, opts: IntegrationOptions,
              search) -> list[ExtremalClass]:
    """The classification of every covector of h0s, with the given return search.

    ``search(body, matrix, starts, t_max, opts)`` returns one PeriodResult,
    or None where no return came by t_max, for each start, on the flow of
    ``matrix`` = M / sigma_max.
    """
    if skew.k != 3:
        raise UnsupportedRankError(f"classification is only supported for k = 3, got k = {skew.k}")
    starts = [body.normalize_to_level(h0) for h0 in h0s]
    for h0 in starts:
        if h0.size != 3:
            raise InputError(f"h0 must have length 3, got {h0.size}")

    if skew.is_zero:
        return [ExtremalClass(kind=CONSTANT, parallel_residual=0.0) for _ in starts]

    # With tau = sigma t the flow is dh/dtau = -(M / sigma) grad H(h); in t a
    # tiny M underflows the initial speed and a huge one overflows the first step.
    basis = kernel_basis(skew, opts.kernel_rel_tol)
    sigma = basis.sigma_max
    a = basis.vectors[0]
    out: list[ExtremalClass | None] = []
    moving = []
    for h0 in starts:
        grad = body.support_gradient(h0)
        residual = float(np.linalg.norm(grad - (grad @ a) * a) / np.linalg.norm(grad))
        if residual <= opts.parallel_tol:
            out.append(ExtremalClass(kind=CONSTANT, parallel_residual=residual))
            continue
        warnings = ()
        if residual <= opts.parallel_warn_band:
            warnings = (f"initial control is nearly aligned with the Casimir direction "
                        f"(residual {residual:.3e}); the period is ill-conditioned here",)
        moving.append((len(out), h0, residual, warnings))
        out.append(None)
    if not moving:
        return out

    t_max = opts.t_max if opts.t_max is not None else 100.0 * (2.0 * np.pi / sigma)
    found = search(body, skew.matrix / sigma, [h0 for _, h0, _, _ in moving], t_max * sigma, opts)
    for (i, _, residual, warnings), result in zip(moving, found):
        if result is None:
            out[i] = ExtremalClass(
                kind=UNCLASSIFIED, parallel_residual=residual,
                reason=f"no return within t_max = {t_max:.6g}; likely a tolerance problem",
                warnings=warnings,
            )
            continue
        period = result.period / sigma
        if result.residual > opts.return_residual_tol:
            out[i] = ExtremalClass(
                kind=UNCLASSIFIED, parallel_residual=residual,
                reason=(f"return residual {result.residual:.3e} exceeds "
                        f"{opts.return_residual_tol:.1e} at T = {period:.9g}"),
                warnings=warnings,
            )
            continue
        out[i] = ExtremalClass(kind=PERIODIC, period=period, return_residual=result.residual,
                               parallel_residual=residual, warnings=warnings)
    return out


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
