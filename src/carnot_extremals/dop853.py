"""DOP853, the library's one Runge-Kutta integrator, on its own arrays.

``_solve`` steps one trajectory exactly as SciPy's
``solve_ivp(method="DOP853")`` does, and ``_Lanes`` steps many initial
states at once under the same step control, each with its own step.  Both
read the Dormand-Prince 8(5,3) tableau of Hairer, Nørsett and Wanner,
*Solving Ordinary Differential Equations I*, section II.10, from the
public ``scipy.integrate.DOP853`` class, and both keep a step's dense
output as the 7 polynomial rows that ``_dense_rows`` evaluates, which
``_interpolant_rows`` builds for both.  Their stage sums call
``ndarray.dot``: for these float64 shapes it makes the BLAS call that ``@``
and ``np.dot`` make, so the bits are the same, at about half the NumPy
dispatch cost of ``@``, which a stage of a few components pays in full.
``_solve`` without an event, or with one and ``dense``, keeps each accepted
step's stages and builds their interpolants in blocks of steps
(``_step_rows``), not step by step.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.integrate import DOP853
from scipy.optimize import brentq

from .errors import IntegrationError

if TYPE_CHECKING:
    from .flow import IntegrationOptions

logger = logging.getLogger(__name__)

_EPS = np.finfo(float).eps

# SciPy's DOP853 tableau, read from the public class, and its explicit
# Runge-Kutta step controller (scipy.integrate.RK45 and DOP853 share it).
# _solve and _Lanes both step with them.
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_STAGES = DOP853.n_stages
_STAGE_ROWS = [DOP853.A[s, :s] for s in range(1, _STAGES)]
_EXTRA_ROWS = [a[:s] for s, a in enumerate(DOP853.A_EXTRA, start=_STAGES + 1)]
_STAGE_TIMES = [float(c) for c in DOP853.C[1:]]
_EXTRA_TIMES = [float(c) for c in DOP853.C_EXTRA]
_ERROR_EXPONENT = -1.0 / (DOP853.error_estimator_order + 1)
_DENSE_BLOCK = 256   # steps of a dense _solve whose interpolants _step_rows builds together
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


@dataclass(frozen=True, eq=False)
class _Solution:
    """A forward DOP853 solve: step ends, states there, and step interpolants.

    ``t`` holds t0 and every accepted step end; after a terminal event the
    last entry is the event root instead.  ``y`` (n, t.size) holds the
    states there, ``nfev`` counts the right-hand side calls and ``status``
    is 0 when t1 was reached, 1 when the event stopped the solve.  The last
    ``h.size`` steps keep their interpolants: every step of a solve without
    an event or with ``dense``; of any other solve with an event, only the
    event step, if the event fired.
    A step's interpolant is y_old plus the nested polynomial of its 7
    ``rows`` in x = (t - t_old) / h; see _dense_rows, and _dense_values to
    evaluate it.
    """

    t: np.ndarray
    y: np.ndarray
    nfev: int
    status: int
    t_old: np.ndarray
    h: np.ndarray
    y_old: np.ndarray
    rows: np.ndarray


def _rms(x) -> float:
    """SciPy's RMS norm of a state-sized vector, with its bits."""
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _square_norm(x) -> float:
    """np.linalg.norm(x) ** 2 with its bits: the square of the rounded norm."""
    norm = math.sqrt(x.dot(x))
    try:
        return norm ** 2
    except OverflowError:
        return math.inf


def _initial_step(rhs, t: float, y, f, t_bound: float, rtol: float, atol: float) -> float:
    """SciPy's select_initial_step for DOP853 forward from t < t_bound: one call of rhs.

    A right-hand side so large that its error norm overflows gives a zero
    step, which raises IntegrationError before the call.
    """
    scale = atol + np.abs(y) * rtol
    with np.errstate(over="ignore"):
        d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound - t)
    if h0 == 0.0:   # d1 overflowed: no step can be taken, and SciPy would divide by zero
        raise IntegrationError(f"solver failed at t = {t:.6g}: the right-hand side overflows "
                               f"the error norm, so the initial step is zero")
    d2 = _rms((rhs(t + h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
    return min(100 * h0, h1, t_bound - t)


def _solve(rhs, t0: float, t1: float, z0: np.ndarray, opts: IntegrationOptions,
           events=None, dense: bool = False) -> _Solution:
    """DOP853 from (t0, z0) forward to t1, step for step as SciPy's solve_ivp takes it.

    This is ``solve_ivp(rhs, (t0, t1), z0, method="DOP853", rtol=opts.rtol,
    atol=opts.atol, dense_output=events is None, events=events)`` with the
    same arithmetic in the same order: SciPy's initial step, stages, error
    norm, step controller and dense output, so the steps, ``nfev``,
    interpolants and event root have the same bits.  ``events`` is None or
    one terminal event function g(t, y), which stops the solve where it
    rises through zero, as a solve_ivp event with ``direction = 1``: at the
    root of g on the interpolant of the step that takes g from <= 0 to >= 0
    (``brentq``, as solve_ivp).  A solve with an event keeps only its event
    step's interpolant, built when the event is found; a solve without one
    keeps every step's, built _DENSE_BLOCK steps at a time from the stages
    each step kept.  ``dense`` makes a solve with an event keep every step's
    interpolant the same way: the event step's is built with the steps
    stored before it, ahead of the root search, so up to the event the
    solve has the bits of one without the event.  A step size below 10 ulp
    of t, or an initial step that underflows to zero, raises
    IntegrationError, and each solve logs one JSON debug line with its
    counters.
    """
    t, t_bound = float(t0), float(t1)
    y = np.asarray(z0, dtype=float)
    n = y.size
    rtol, atol = opts.rtol, opts.atol
    f = rhs(t, y)
    nfev = 1
    status = h_abs = None
    if t_bound > t:
        h_abs = _initial_step(rhs, t, y, f, t_bound, rtol, atol)
        nfev += 1
    else:
        status = 0
    K = np.empty((_STAGES + 4, n))
    KT = [K[:s].T.dot for s in range(_STAGES + 2)]   # K[:s].T.dot, on the stages before stage s
    g = events(t, y) if events is not None else None
    ts, ys = [t], [y]
    dense = dense or events is None
    stages = np.empty((_DENSE_BLOCK if dense else 1, _STAGES + 4, n))  # stored steps
    kept = []           # (t_old, h, y_old, rows) of the steps that keep an interpolant
    built = stored = 0  # steps whose interpolants are built, and stored steps waiting
    accepted = rejected = 0

    def build():
        nonlocal built, stored, nfev
        t_end = np.array(ts[built:built + stored + 1])
        y_end = np.vstack(ys[built:built + stored + 1])
        t_old, h, y_old = t_end[:-1], t_end[1:] - t_end[:-1], y_end[:-1]
        kept.append((t_old, h, y_old, _step_rows(rhs, stages[:stored], t_old, h, y_old,
                                                 y_end[1:])))
        nfev += 3 * stored
        built += stored
        stored = 0

    while status is None:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        retry = False
        while True:
            if h_abs < min_step:
                status = -1
                break
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s, a, c in zip(range(1, _STAGES), _STAGE_ROWS, _STAGE_TIMES):
                K[s] = rhs(t + c * h, y + KT[s](a) * h)
            y_new = y + h * KT[_STAGES](DOP853.B)
            f_new = K[_STAGES] = rhs(t + h, y_new)
            nfev += _STAGES
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            e5 = _square_norm(KT[_STAGES + 1](DOP853.E5) / scale)
            e3 = _square_norm(KT[_STAGES + 1](DOP853.E3) / scale)
            if e5 == 0 and e3 == 0:
                error_norm = 0.0
            else:
                error_norm = h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * n)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if retry:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            retry = True
            rejected += 1
        if status == -1:
            break

        accepted += 1
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        if t >= t_bound:
            status = 0
        ts.append(t)
        ys.append(y)
        if dense:
            stages[stored, :_STAGES + 1] = K[:_STAGES + 1]
            stored += 1
        if events is not None:
            g_new = events(t, y)
            if g <= 0 and g_new >= 0:
                if not dense:   # the event step is the one step stored
                    stages[0, :_STAGES + 1] = K[:_STAGES + 1]
                    built, stored = accepted - 1, 1
                build()
                rows = kept[-1][3][-1]
                t = brentq(lambda s: events(s, _dense_rows(rows, (s - t_old) / h) + y_old),
                           t_old, t, xtol=4 * _EPS, rtol=4 * _EPS)
                y = _dense_rows(rows, (t - t_old) / h) + y_old
                if dense and t == t_old:
                    # A root at the step's start ends the solve there, without
                    # the empty step: solve_ivp with dense output does the same.
                    ts.pop()
                    ys.pop()
                    kept[-1] = tuple(part[:-1] for part in kept[-1])
                else:
                    ts[-1], ys[-1] = t, y
                status = 1
            g = g_new
        if stored == _DENSE_BLOCK:
            build()

    if stored and status != -1:
        build()
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(json.dumps({"event": "solve", "accepted": accepted, "rejected": rejected,
                                 "nfev": nfev, "t0": float(t0), "t1": t_bound,
                                 "status": status}))
    if status == -1:
        raise IntegrationError(f"solver failed near t = {ts[-1]:.6g}: {_TOO_SMALL_STEP}")
    if not kept:
        kept.append((np.empty(0), np.empty(0), np.empty((0, n)), np.empty((0, 7, n))))
    t_old, h, y_old, rows = kept[0] if len(kept) == 1 else map(np.concatenate, zip(*kept))
    return _Solution(t=np.array(ts), y=np.vstack(ys).T, nfev=nfev, status=status, t_old=t_old,
                     h=h, y_old=y_old, rows=rows)


def _step_rows(rhs, K: np.ndarray, t_old: np.ndarray, h: np.ndarray, y_old: np.ndarray,
               y_new: np.ndarray) -> np.ndarray:
    """The (m, 7, n) interpolant rows of m steps of _solve, from their stages K (m, 16, n).

    K holds each step's first _STAGES + 1 stages; this fills in DOP853's 3
    extra stages, one call of the one-point rhs per step and extra stage.
    Each stage sum is one stacked ``np.matmul`` over the steps, which gives
    the bits of the per-step ``K[:s].T.dot(a)``, as ``np.matmul(D, K)``
    gives those of ``D.dot(K)``.
    """
    hc = h[:, None]
    for s, a, c in zip(range(_STAGES + 1, _STAGES + 4), _EXTRA_ROWS, _EXTRA_TIMES):
        for j, (time, state) in enumerate(zip((t_old + c * h).tolist(),
                                               y_old + np.matmul(a, K[:, :s]) * hc)):
            K[j, s] = rhs(time, state)
    return _interpolant_rows(h, y_old, y_new, K[:, 0], K[:, _STAGES], np.matmul(DOP853.D, K))


def _interpolant_rows(h, y_old, y_new, f_old, f_new, dk) -> np.ndarray:
    """The 7 polynomial rows (m, 7, n) of m DOP853 steps, in SciPy's order of operations.

    h (m,) are the step sizes, y and f (m, n) the states and derivatives at
    the step ends, and dk (m, 4, n) DOP853's D matrix applied to each step's
    16 stages.
    """
    hc = h[:, None]
    delta = y_new - y_old
    rows = np.empty((len(h), 7, delta.shape[1]))
    rows[:, 0] = delta
    rows[:, 1] = hc * f_old - delta
    rows[:, 2] = 2 * delta - hc * (f_new + f_old)
    rows[:, 3:] = hc[:, None] * dk
    return rows


def _dense_values(sol: _Solution, t) -> np.ndarray:
    """The kept interpolants of a solve at times t: (n, t.size) for a 1-D t, (n,) for a scalar.

    Each time goes to the step solve_ivp's ``OdeSolution`` picks, and is
    evaluated with its operations, so the bits are the same: at a step
    boundary, the step that ends there; outside the span, the first or the
    last step.  A solve that kept only its event step evaluates that step.
    """
    t = np.asarray(t, dtype=float)
    m = sol.h.size
    seg = np.clip(np.searchsorted(sol.t[-m - 1:], t, side="left") - 1, 0, m - 1)
    y = _dense_rows(sol.rows, (t - sol.t_old[seg]) / sol.h[seg], seg)
    y += sol.y_old[seg]
    return y.T


def _dense_rows(rows: np.ndarray, x, seg=None, slope: bool = False):
    """The interpolant increment h(x) - y_old of DOP853 steps; with ``slope``, also d/dx.

    The polynomial rows are evaluated in the nested form of SciPy's
    ``Dop853DenseOutput``, so with its bits, at x in [0, 1]: ``rows``
    (7, k) of one step at one x, or (m, 7, k) of m steps at x[j] on step j,
    or on step seg[j] where ``seg`` is given.
    """
    x = np.asarray(x)[..., None]
    y = np.zeros(x.shape[:-1] + rows.shape[-1:])
    dy = np.zeros_like(y) if slope else None
    for i in range(rows.shape[-2]):
        y += rows[..., -1 - i, :] if seg is None else rows[seg, -1 - i]
        if i % 2 == 0:
            if slope:
                dy = dy * x + y
            y *= x
        else:
            if slope:
                dy = dy * (1.0 - x) - y
            y *= 1.0 - x
    return (y, dy) if slope else y


class _Lanes:
    """DOP853 on many initial states at once, each lane with its own step.

    Every lane runs SciPy's DOP853 forward from t = 0 towards ``t_bound``,
    with SciPy's initial-step rule, error norm and step controller applied
    to it alone: its own t, step size and rejection flag.  So a lane takes
    the steps ``_solve`` takes from its start, up to rounding.  ``fun`` maps
    an (N, k) array of states to their derivatives; the field is
    autonomous, so stage times are not needed.
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
            raise IntegrationError(f"solver failed near t = {t[lane]:.6g}: {_TOO_SMALL_STEP}")
        t_new = np.minimum(t + h_abs, self.t_bound)
        h = t_new - t
        hc = h[:, None]
        stages = np.empty((_STAGES + 4, n * k))
        stages[0] = f.ravel()
        for s, a in enumerate(_STAGE_ROWS, start=1):
            stages[s] = self.rhs(y + hc * a.dot(stages[:s]).reshape(n, k)).ravel()
        y_new = y + hc * DOP853.B.dot(stages[:_STAGES]).reshape(n, k)
        f_new = self.rhs(y_new)
        stages[_STAGES] = f_new.ravel()

        scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
        err5 = DOP853.E5.dot(stages[:_STAGES + 1]).reshape(n, k) / scale
        err3 = DOP853.E3.dot(stages[:_STAGES + 1]).reshape(n, k) / scale
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
        the 7 polynomial rows per lane, shaped (len(lanes), 7, k).
        """
        t, h, y, y_new, f, f_new, stages = self._last
        k = y.shape[1]
        m = len(lanes)
        stages = stages.reshape(len(stages), -1, k)[:, lanes].reshape(len(stages), m * k)
        h, y_old = h[lanes], y[lanes]
        for s, a in enumerate(_EXTRA_ROWS, start=_STAGES + 1):
            stages[s] = self.rhs(y_old + h[:, None] * a.dot(stages[:s]).reshape(m, k)).ravel()
        dk = DOP853.D.dot(stages).reshape(len(DOP853.D), m, k).transpose(1, 0, 2)
        return t[lanes], h, y_old, _interpolant_rows(h, y_old, y_new[lanes], f[lanes],
                                                     f_new[lanes], dk)

    def keep(self, mask: np.ndarray) -> None:
        """Drop every lane outside ``mask``."""
        self.t, self.y, self.f = self.t[mask], self.y[mask], self.f[mask]
        self.h_abs, self.retry = self.h_abs[mask], self.retry[mask]
        self._last = None
