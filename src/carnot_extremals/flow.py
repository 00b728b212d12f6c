"""Vertical extremal flow: integration, invariant monitoring, classification.

The covector part of the extremal system is

    dh/dt = -M grad H(h),        dh_ij/dt = 0,

with M the constant skew-symmetric matrix of second-layer momenta and H the
support function of the control set, normalized to H = 1 along trajectories.
Skew symmetry makes H a first integral, and every a in ker M yields a linear
integral I_a(h) = <a, h>.  For k = 3 a nonconstant solution traverses the
closed planar curve {H = 1} intersected with {I_a = const} monotonically, so
it is periodic and its period is the first-return time; classification
reduces to a parallelism test plus return detection.  On an ellipsoid or a
translated ellipsoid, H(h) = <c, h> + sqrt(h^T A h), the flow on H = 1 is
affine in the clock ds = dt / sqrt(h^T A h): dh/ds = -M ((A - c c^T) h + c).
Every nonconstant orbit then turns once in s = 2 pi / omega, with +-i omega
the nonzero eigenvalues of -M (A - c c^T), and takes the time
T = 2 pi (1 - <c, h*>) / omega, h* the centre of its orbit: the
classification of both families is in closed form, with no search.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .algebra import CasimirBasis, SkewMatrix, kernel_basis
from .bodies import ControlBody, Ellipsoid, TranslatedEllipsoid
from .dop853 import _dense_rows, _dense_values, _Lanes, _solve
from .errors import (
    DriftExceededError,
    HorizonExhaustedError,
    InputError,
    UnsupportedRankError,
)

logger = logging.getLogger(__name__)

CONSTANT = "constant"
PERIODIC = "periodic"
UNCLASSIFIED = "unclassified"

_BISECT_MAX_ITER = 200
# Batched Newton solves stop by here; bisecting [0, 1] down to 4 ulp takes 51.
_NEWTON_MAX_ITER = 60
_EPS = np.finfo(float).eps
# |g| at or below this accepts a return candidate of detect_period as it is.
_G_TOL = 1e-12
# The classification bars: detect_period accepts a return within _CAPTURE_RADIUS
# of h0; a parallel residual up to _PARALLEL_TOL is constant, a periodic one up to
# _PARALLEL_WARN_BAND warns, and a return residual above _RETURN_RESIDUAL_TOL
# leaves the covector unclassified.
_CAPTURE_RADIUS = 1e-3
_PARALLEL_TOL = 1e-9
_PARALLEL_WARN_BAND = 1e-6
_RETURN_RESIDUAL_TOL = 1e-8
# The classify search runs for _TURNS turns of 2 pi max(1, R^2) in the time
# tau = sigma_max t, R >= |h| on H = 1 the body's reach (ControlBody._reach).
# On a ball of radius rho <= 1, where R = 1 / rho, an orbit turns once in
# 2 pi R^2, and scaling a body by c scales the periods by 1 / c^2, as R^2
# does.  An orbit runs slowest where |h| is largest, so one bound over the
# whole level set also serves orbits far out from their start.  A reach of
# at most 1 keeps the horizon 2 pi _TURNS.
_TURNS = 100


@dataclass(frozen=True)
class IntegrationOptions:
    """Solver tolerances and drift bound of the flow operations.

    The solver is fixed: Dormand-Prince 8(5,3) (DOP853), an adaptive
    embedded Runge-Kutta pair with dense output, run forward in time by the
    library's own loop, which takes SciPy's DOP853 steps bit for bit.  The
    default tolerances keep invariant drift orders of magnitude under the
    1e-8 monitoring bars on horizons of a few hundred time units, including
    near equilibria and across the mild gradient kinks of lp bodies.
    Every value must be a real, non-bool number and is stored as a float;
    a bad one raises InputError.  The classification bars and the search
    horizon are not options but the module constants above.
    """

    rtol: float = 1e-13
    atol: float = 1e-15
    max_drift: float = 1e-7

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise InputError(f"{field.name} must be a number, got {value!r}")
            try:
                number = float(value)
            except OverflowError:
                number = np.inf
            if not (number > 0.0 and np.isfinite(number)):
                raise InputError(f"{field.name} must be finite and > 0, got {value!r}")
            object.__setattr__(self, field.name, number)
        # SciPy's DOP853, whose steps the solver repeats, raises a smaller rtol
        # to this floor; rejecting it keeps every search on one problem.
        if self.rtol < 100.0 * _EPS:
            raise InputError(f"rtol must be >= 100 eps = {100.0 * _EPS:.3g}, got {self.rtol!r}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled vertical trajectory with its invariant log.

    The second-layer momenta are constants of motion and are stored once in
    ``skew`` rather than per sample.  ``level_drift[m]`` is |H(h_m) - 1| and
    ``casimir_drift[m, n]`` is |I_a_n(h_m) - I_a_n(h_0)| for the n-th kernel
    basis vector.
    """

    t: np.ndarray
    h: np.ndarray
    u: np.ndarray
    skew: SkewMatrix
    casimirs: CasimirBasis

    level_drift: np.ndarray
    casimir_drift: np.ndarray

    @property
    def max_level_drift(self) -> float:
        return float(self.level_drift.max(initial=0.0))

    @property
    def max_casimir_drift(self) -> np.ndarray:
        if self.casimir_drift.size == 0:
            return np.zeros(len(self.casimirs))
        return self.casimir_drift.max(axis=0)


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
    grad = body._level_gradient_at
    dot = (-matrix).dot

    def rhs(t, h):
        return dot(grad(h))

    return rhs


def _output_grid(h0, skew: SkewMatrix, body: ControlBody, t1: float, samples: int):
    """h0 rescaled to H = 1 and the uniform grid of samples + 1 times on [0, t1]."""
    h0 = body.normalize_to_level(h0)
    if h0.size != skew.k:
        raise InputError(f"h0 has length {h0.size}, skew matrix expects {skew.k}")
    t1 = float(t1)
    if not (np.isfinite(t1) and t1 > 0.0):
        raise InputError(f"horizon t1 must be finite and > 0, got {t1}")
    _check_samples(samples)
    return h0, np.linspace(0.0, t1, samples + 1)


def _check_samples(samples) -> None:
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral) or samples < 1:
        raise InputError(f"samples must be an integer >= 1, got {samples!r}")


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


def _assemble_vertical(ts, hs, skew, basis, body, opts) -> Trajectory:
    level = body._support(hs)
    level_drift = np.abs(level - 1.0)
    if len(basis):
        values = hs @ basis.vectors.T
        casimir_drift = np.abs(values - values[0])
    else:
        casimir_drift = np.zeros((ts.size, 0))

    def build_partial(i):
        return Trajectory(
            t=ts[:i], h=hs[:i], u=body._gradient(hs[:i]),
            skew=skew, casimirs=basis,
            level_drift=level_drift[:i], casimir_drift=casimir_drift[:i],
        )

    _check_drift(ts, level_drift, casimir_drift, opts.max_drift, build_partial)
    u = body._gradient(hs)
    return Trajectory(t=ts, h=hs, u=u, skew=skew, casimirs=basis,
                      level_drift=level_drift, casimir_drift=casimir_drift)


def _return_event(rhs, h0: np.ndarray, t_start: float = 0.0):
    """g(t, h) = <h - h0, v>, v the unit initial velocity: the first-return event.

    On a closed convex orbit g leaves h0 upward, falls through zero on the
    far side and rises through zero again only at the return, which is
    where _solve stops.  At t_start, where g is zero up to rounding, it
    reads +tiny, so a solve from h0 or from an earlier rise never stops at
    its own start.
    """
    hdot0 = rhs(0.0, h0)
    hdot0 = hdot0 / np.abs(hdot0).max()   # a huge M would overflow the norm
    vhat = hdot0 / np.linalg.norm(hdot0)
    tiny = np.finfo(float).tiny

    def event(t, h):
        return tiny if t == t_start else float(vhat.dot(h - h0))

    return event


def _parallel_residual(grad: np.ndarray, basis: CasimirBasis) -> float:
    """|grad - V^T V grad| / |grad|, V = basis.vectors: the part of grad off ker M.

    grad is grad H(h0), and grad - V^T V grad its part in range M, the plane
    of the orbit when rank M = 2; it vanishes on the constant branch.
    """
    vectors = basis.vectors
    return float(np.linalg.norm(grad - vectors.T @ (vectors @ grad)) / np.linalg.norm(grad))


def detect_period(rhs, h0, t_max: float, opts: IntegrationOptions | None = None) -> PeriodResult:
    """First-return time of a nonconstant trajectory of ``rhs`` from h0.

    One solve per candidate runs until the return event g = <h - h0, v>
    (see _return_event) rises through zero, keeping only its event step's
    interpolant.  The solver's event root is the candidate when
    |g| <= _G_TOL there; otherwise it is refined by bisection on that
    interpolant until |g| <= _G_TOL.  The candidate is accepted if it lands
    within _CAPTURE_RADIUS of h0 with velocity aligned to the initial one;
    otherwise the next solve starts from it.  So the search integrates up
    to the first return and no further: there are no fixed chunks and no
    scan grid.  Crossings are seen through the sign of g at the solver's
    steps, so g dipping below zero and back within a single step would go
    unseen; at the default tolerances a period takes dozens of steps.

    Raises HorizonExhaustedError when no return is found by t_max.
    """
    opts = opts or IntegrationOptions()
    h0 = np.asarray(h0, dtype=float)
    if not np.isfinite(t_max) or t_max <= 0.0:
        raise InputError(f"t_max must be positive and finite, got {t_max}")
    hdot0 = np.asarray(rhs(0.0, h0), dtype=float)
    if np.linalg.norm(hdot0) == 0.0:
        raise InputError("initial velocity vanishes; the trajectory is constant")

    t_lo, state = 0.0, h0
    while t_lo < t_max:
        rises = _return_event(rhs, h0, t_lo)
        sol = _solve(rhs, t_lo, t_max, state, opts, events=rises)
        if sol.status != 1:
            break
        a, b = float(sol.t[-2]), float(sol.t[-1])
        end = sol.y[:, -1]

        def state_at(t):
            # At the root b the solve stored the interpolant's value: no call needed.
            return end if t == b else _dense_values(sol, t)

        t_star = _bisect_crossing(lambda t: rises(t, state_at(t)), a, b, _G_TOL)
        h_star = state_at(t_star)
        residual = float(np.linalg.norm(h_star - h0))
        if residual <= _CAPTURE_RADIUS and float(rhs(t_star, h_star).dot(hdot0)) > 0.0:
            logger.debug("first return at T=%.12g residual=%.3e", t_star, residual)
            return PeriodResult(period=float(t_star), residual=residual)
        t_lo, state = b, end
    raise HorizonExhaustedError(f"no first return found within t_max = {t_max:.6g}", t_max=t_max)


def _bisect_crossing(g, a, b, g_tol) -> float:
    """Root of g on the step [a, b] whose end b is the solver's event root.

    The solver has already located the root to a few ulp, so b is returned
    after one evaluation of g when |g(b)| <= g_tol.  Only otherwise is [a, b]
    bisected.
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


# Arcs per orbit of the sectioned search (see _first_returns), and the
# cosines and sines of its rays' angles.  6, 12, 16 and 24 arcs ran 8-covector
# sweeps of ellipsoids and translated ellipsoids within the noise of 8.
_ARCS = 8
_COS, _SIN = (f(2.0 * np.pi * np.arange(_ARCS) / _ARCS) for f in (np.cos, np.sin))
# A start with parallel residual r below this is searched as one arc.  An arc
# start solves H(o + rho e) = 1 with a slope of about r |grad H| on an orbit
# of size about r, so its relative error grows as eps / r^2, while one arc
# from h0 places no point.  Against 2 pi / omega on ellipsoids, 8 arcs erred
# by 5.8e-13, 1.5e-11 and 5.1e-10 at r = 1.5e-2, 1.5e-3 and 1.5e-4, one arc
# by 4.1e-13, 5.9e-12 and 6.0e-11: the two meet near r = 1e-2.
_ONE_ARC_BELOW = 1e-2


def _unit_axis(matrix: np.ndarray) -> np.ndarray:
    """The unit vector spanning the kernel of a nonzero 3 x 3 skew matrix."""
    axis = np.array([matrix[1, 2], -matrix[0, 2], matrix[0, 1]])
    return axis / np.linalg.norm(axis)


def _first_returns(body: ControlBody, matrix: np.ndarray, starts, horizons: np.ndarray,
                   opts: IntegrationOptions) -> list[PeriodResult | None]:
    """First returns of dh/dt = -matrix grad(H^s / s) from every start, as arcs.

    ``matrix`` is a 3 x 3 skew matrix, so an orbit is the closed convex curve
    {H = 1} in the plane through its start normal to the axis a of the
    matrix, and it turns monotonically about any interior point o.  Rays from
    o at the angles 2 pi j / _ARCS cut it into arcs: o is the midpoint of the
    chord from h0 along the in-plane inward normal, the ray j = 0 passes
    through p_0 = h0, and the arc starts p_j are solved on H = 1 by batched
    Newton steps (see _level_crossings).  Every arc of every covector is one
    lane of a single DOP853 integration (see _Lanes) from p_j until
    g_j = <h - o, n_{j+1}>, with n_{j+1} the in-plane normal of ray j + 1
    turned along the flow, rises through zero: g_j < 0 at p_j, and its first
    zero is the crossing of ray j + 1, so there is nothing to reject.  Only
    that step computes dense output; its interpolant is kept and all crossing
    roots are found at the end by one batched Newton solve (see _roots).
    The period is the sum of the arc times and the residual the largest
    landing miss ||h_j(t_j) - p_{j+1}||, where the last arc lands on p_0.

    Placing points on H = 1 is ill-conditioned near the constant branch, so a
    start whose parallel residual is below _ONE_ARC_BELOW is one arc from
    h0 around the whole orbit, with o = h0 and n the unit velocity direction:
    g falls through zero on the far side and its next rise is the return.
    The lanes step towards the largest of the horizons, and each lane stops
    at its covector's own; a covector with an arc still open there, or with
    arc times summing past it, gives None.  One debug log line, a JSON
    object, gives the work counters.
    """
    h0 = np.array(starts, dtype=float)
    axis = _unit_axis(matrix)
    grad = body._gradient(h0)
    outward = grad - np.outer(grad.dot(axis), axis)
    size = np.linalg.norm(outward, axis=1)
    if not size.all():
        raise InputError("initial velocity vanishes; the trajectory is constant")
    e1 = outward / size[:, None]
    e2 = np.cross(axis, e1)             # the direction of -matrix grad H(h0)
    one = size / np.linalg.norm(grad, axis=1) < _ONE_ARC_BELOW
    cut = np.flatnonzero(~one)

    # The chord from h0 along -e1 has its midpoint o inside the orbit, and
    # h0 - o runs along e1, the ray at angle 0, so chord / 2 is the radius
    # there and the guess for the other rays.
    chord, chord_iters = _level_crossings(body, h0[cut], -e1[cut])
    origin = h0[cut] - 0.5 * chord[:, None] * e1[cut]
    radial = _COS[:, None, None] * e1[cut] + _SIN[:, None, None] * e2[cut]   # (_ARCS, n, 3)
    rho, ray_iters = _level_crossings(body, np.tile(origin, (_ARCS - 1, 1)),
                                      radial[1:].reshape(-1, 3), np.tile(0.5 * chord, _ARCS - 1))
    rho = rho.reshape(_ARCS - 1, len(cut), 1)
    points = np.concatenate([h0[cut][None], origin + rho * radial[1:]])
    normal = -_SIN[:, None, None] * e1[cut] + _COS[:, None, None] * e2[cut]
    nxt = np.roll(np.arange(_ARCS), -1)

    lone = np.flatnonzero(one)
    owner = np.concatenate([np.tile(cut, _ARCS), lone])
    y0 = np.concatenate([points.reshape(-1, 3), h0[lone]])
    origin = np.concatenate([np.tile(origin, (_ARCS, 1)), h0[lone]])
    normal = np.concatenate([normal[nxt].reshape(-1, 3), e2[lone]])
    target = np.concatenate([points[nxt].reshape(-1, 3), h0[lone]])
    armed = np.arange(len(y0)) < _ARCS * len(cut)   # one-arc lanes arm at the fall

    neg_t = -matrix.T
    grad_level = body._level_gradient

    def fun(hs):
        return grad_level(hs).dot(neg_t)

    limit = horizons[owner]
    lanes = _Lanes(fun, y0, horizons.max(), opts)
    ids = np.arange(len(y0))
    g = np.einsum("ij,ij->i", y0 - origin, normal)
    hits = []
    while ids.size:
        ok = lanes.step()
        g_new = np.where(ok, np.einsum("ij,ij->i", lanes.y - origin[ids], normal[ids]), g)
        cross = ok & armed[ids] & (g_new >= 0.0)
        armed[ids] |= ok & (g_new < 0.0)
        if cross.any():
            lane = np.flatnonzero(cross)
            t_old, step, y_old, rows = lanes.interpolant(lane)
            hits.append((ids[lane], g[lane], g_new[lane], t_old, step, y_old, rows))
        g = g_new
        done = cross | (lanes.t >= limit[ids])
        if done.any():
            lanes.keep(~done)
            ids, g = ids[~done], g[~done]

    found: list[PeriodResult | None] = [None] * len(h0)
    root_iters = 0
    if hits:
        lane, g_a, g_b, t_old, step, y_old, rows = map(np.concatenate, zip(*hits))
        x, root_iters = _roots(rows, y_old, origin[lane], normal[lane], g_a, g_b)
        times = t_old + x * step
        miss = np.linalg.norm(_dense_rows(rows, x) + y_old - target[lane], axis=1)
        arcs = np.bincount(owner[lane], minlength=len(h0))
        period = np.bincount(owner[lane], weights=times, minlength=len(h0))
        worst = np.zeros(len(h0))
        np.maximum.at(worst, owner[lane], miss)
        for i in np.flatnonzero((arcs == np.where(one, 1, _ARCS)) & (period <= horizons)):
            found[i] = PeriodResult(period=float(period[i]), residual=float(worst[i]))
    logger.debug(json.dumps({"event": "batched_first_return", "covectors": len(found),
                             "arcs": len(y0), "one_arc": len(lone),
                             "accepted_steps": lanes.accepted,
                             "rejected_steps": lanes.rejected, "rhs_rows": lanes.rhs_rows,
                             "chord_newton": chord_iters, "ray_newton": ray_iters,
                             "root_newton": root_iters,
                             "returns": sum(r is not None for r in found)}))
    return found


def _level_crossings(body: ControlBody, base: np.ndarray, dirs: np.ndarray, guess=None):
    """The largest rho with H(base + rho dir) = 1 on every row, and the Newton iterations.

    f(rho) = H(base + rho dir) - 1 is convex, so Newton steps from a rho with
    f >= 0 fall monotonically onto the largest root; a row stops once its
    step is within a few ulp of rho or f is no longer positive.  Where f is
    negative at the guess and rising, one Newton step from it gives such a
    rho; otherwise, by subadditivity of H, rho = (1 + H(-base)) / H(dir)
    does.  A base may be the origin (a symmetric orbit's chord midpoint),
    where H = 0.
    """
    back = np.zeros(len(base))
    moved = base.any(axis=1)
    back[moved] = body._support(-base[moved])
    rho = (1.0 + back) / body._support(dirs)
    if guess is not None:
        pts = base + guess[:, None] * dirs
        f = body._support(pts) - 1.0
        slope = np.einsum("ij,ij->i", body._gradient(pts), dirs)
        rising = (f < 0.0) & (slope > 0.0)
        rho = np.where(f >= 0.0, guess, rho)
        rho[rising] = guess[rising] - f[rising] / slope[rising]
    todo = np.arange(len(rho))
    iterations = 0
    while todo.size and iterations < _NEWTON_MAX_ITER:
        iterations += 1
        pts = base[todo] + rho[todo, None] * dirs[todo]
        f = body._support(pts) - 1.0
        slope = np.einsum("ij,ij->i", body._gradient(pts), dirs[todo])
        step = f / slope
        go = step > 4.0 * _EPS * rho[todo]
        rho[todo[go]] -= step[go]
        todo = todo[go]
    return rho, iterations


def _roots(rows, y_old, origin, normal, g_a, g_b):
    """Root x in [0, 1] of g(x) = <h(x) - origin, normal> on each step's interpolant.

    g_a < 0 <= g_b are g at the step's ends.  Newton steps, from the secant
    root, that leave the bracket kept by the sign of g are replaced by
    bisection.  A lane stops when its Newton step is within a few ulp of x,
    or |g| is within a few ulp of |y_old|, the rounding of h(x) - origin.
    Returns x and the iterations of the batched solve.
    """
    lo, hi = np.zeros(len(g_a)), np.ones(len(g_a))
    floor = 4.0 * _EPS * np.abs(y_old).max(axis=1)
    x = g_a / (g_a - g_b)
    for iterations in range(1, _NEWTON_MAX_ITER + 1):
        y, dy = _dense_rows(rows, x, slope=True)
        g = np.einsum("ij,ij->i", y + y_old - origin, normal)
        slope = np.einsum("ij,ij->i", dy, normal)
        lo, hi = np.where(g < 0.0, x, lo), np.where(g < 0.0, hi, x)
        step = np.divide(g, slope, out=np.full_like(g, np.inf), where=slope > 0.0)
        new = x - step
        new = np.where((lo < new) & (new < hi), new, 0.5 * (lo + hi))
        stop = (np.abs(step) <= 4.0 * _EPS) | (np.abs(g) <= floor) | (hi - lo <= 4.0 * _EPS)
        new = np.where(stop, x, new)
        if (new == x).all():
            break
        x = new
    return x, iterations


def _detect_each(body: ControlBody, matrix: np.ndarray, starts, horizons: np.ndarray,
                 opts: IntegrationOptions) -> list[PeriodResult | None]:
    """``detect_period`` on the one-trajectory DOP853 loop, one start after another."""
    rhs = _make_rhs(body, matrix)
    found = []
    for h0, horizon in zip(starts, horizons):
        try:
            found.append(detect_period(rhs, h0, horizon, opts))
        except HorizonExhaustedError:
            found.append(None)
    return found


def _closed_form_returns(body: Ellipsoid | TranslatedEllipsoid, matrix: np.ndarray, starts,
                         horizons: np.ndarray, opts: IntegrationOptions) -> list[PeriodResult]:
    """First returns of an ellipsoidal body's flow dh/dt = -matrix grad H(h), in closed form.

    With H(h) = <c, h> + sqrt(h^T A h), c = 0 on an ellipsoid, H = 1 gives
    sqrt(h^T A h) = 1 - <c, h>, so on the clock ds = dt / sqrt(h^T A h) the
    flow is affine: dh/ds = L h - N c, with N = ``matrix``, L = -N B and
    B = A - c c^T, positive definite as c^T A^-1 c < 1.  For a 3 x 3 skew N,
    L has trace 0 and determinant 0, so its eigenvalues are 0 and +-i omega,
    with omega^2 the sum of the principal 2 x 2 minors of L (det B n^T B^-1 n,
    n the unit axis of N), and every nonconstant orbit turns once about its
    centre h* in S = 2 pi / omega.  h* is the fixed point of the flow on the
    leaf <n, h> = <n, h0>: B h* + c = lambda n, so h* = B^-1 (lambda n - c).
    Over a turn h - h* averages to zero, so the period is
    T = int_0^S sqrt(h^T A h) ds = S (1 - <c, h*>).  By Rodrigues' formula the
    flow map over S is h -> h* + E (h - h*), E = I + (sin omega S / omega) L +
    ((1 - cos omega S) / omega^2) L^2, and the residual is ||(E - I)(h0 - h*)||,
    with L (h0 - h*) = L h0 - N c: the miss that S carries from its rounding.
    On an ellipsoid T = S = 2 pi / omega and the residual is ||E h0 - h0||.

    As omega^2 >= lambda_min(B)^2 >= (lambda_min(A) (1 - d^2))^2, with
    d^2 = c^T A^-1 c, and sqrt(h^T A h) <= 1 / (1 - d) on H = 1, every T is
    at most 2 pi R^2 / (1 + d), R the body's reach: inside every classify
    horizon, so ``horizons`` is not used, nor is ``opts``, as nothing is
    integrated.  One debug log line, a JSON object, gives omega and S.
    """
    a = body.shape_matrix
    c = body.center if isinstance(body, TranslatedEllipsoid) else np.zeros(3)
    b = a - np.outer(c, c)
    lin = -matrix.dot(b)
    # L / 2^e and omega / 2^e, scaled exactly by a power of two, so that
    # omega^2 and L^2 neither under- nor overflow; E - I is the same in them.
    e = int(np.frexp(np.abs(lin).max())[1])
    unit = np.ldexp(lin, -e)
    (l00, l01, l02), (l10, l11, l12), (l20, l21, l22) = unit.tolist()
    w = math.sqrt(l00 * l11 - l01 * l10 + l00 * l22 - l02 * l20 + l11 * l22 - l12 * l21)
    omega = math.ldexp(w, e)
    tau = 2.0 * math.pi / omega
    turn = omega * tau
    starts = np.array(starts)
    v = starts.dot(unit.T) - np.ldexp(matrix.dot(c), -e)
    misses = math.sin(turn) / w * v + (1.0 - math.cos(turn)) / w**2 * v.dot(unit.T)
    axis = _unit_axis(matrix)
    bn, bc = np.linalg.solve(b, np.stack([axis, c], axis=1)).T
    centres = np.outer((starts.dot(axis) + axis.dot(bc)) / axis.dot(bn), bn) - bc
    found = [PeriodResult(period=float(period), residual=float(miss))
             for period, miss in zip(tau * (1.0 - centres.dot(c)), np.linalg.norm(misses, axis=1))]
    logger.debug(json.dumps({"event": "closed_form_return", "covectors": len(found),
                             "omega": omega, "period": tau, "returns": len(found)}))
    return found


def classify_k3(h0, skew: SkewMatrix, body: ControlBody,
                opts: IntegrationOptions | None = None) -> ExtremalClass:
    """Constant/periodic dichotomy of the vertical extremal for k = 3.

    With M = 0 every solution is constant.  Otherwise ker M is spanned by a
    single unit vector a, and the solution is constant exactly when
    grad H(h0) is parallel to a (the extremum points of I_a on the level set
    H = 1 are the equilibria); the relative off-parallel residual is
    compared against _PARALLEL_TOL.  Nonconstant solutions are closed
    curves.  On an ellipsoid or a translated ellipsoid the period is exact,
    2 pi (1 - <c, h*>) / omega in closed form, with no search
    (``_closed_form_returns``); on other bodies it comes from first-return
    detection (``detect_period``).  The axis a and
    sigma_max come from one scale-free kernel_basis call, and the flow runs
    on M / sigma_max in time units of 1 / sigma_max, so the outcome does not
    depend on the scale of M and T(lambda M) = T(M) / lambda.  The search
    gives up after _TURNS turns of 2 pi max(1, R^2) in those units, R the
    body's reach on H = 1, which scales with the body as its periods do.

    Residuals inside (_PARALLEL_TOL, _PARALLEL_WARN_BAND] attach a warning:
    that close to the constant branch the return time becomes
    ill-conditioned.
    """
    return _classify([h0], skew, body, opts or IntegrationOptions(), _detect_each)[0]


def classify_sweep(h0s, skew: SkewMatrix, body: ControlBody,
                   opts: IntegrationOptions | None = None) -> list[ExtremalClass]:
    """``classify_k3`` for every covector of h0s, with one batched search.

    The checks, the parallel test, the warnings and the unclassified reasons
    are those of ``classify_k3``.  On an ellipsoid or a translated
    ellipsoid every nonconstant covector gets its exact period in closed
    form with no search, bit for bit as in ``classify_k3``.  On other bodies
    the nonconstant covectors go through
    one sectioned search (``_first_returns``): rays from a point inside each
    orbit cut it into _ARCS arcs, and every arc of every covector is a lane
    of one DOP853 integration, which pays the Python cost of a step once for
    all of them.  The period is the sum of the arc times, and the return
    residual is the largest miss of an arc's end from the next arc's start.
    A start within _ONE_ARC_BELOW of the constant branch (by its parallel
    residual) is one arc around its whole orbit, and its residual is
    ||h(T) - h0|| as in ``classify_k3``.  The search steps differently from
    ``detect_period``, so periods agree with ``classify_k3``'s to about
    1e-10 relative, not bit for bit; nearer the constant branch both drift
    from the exact period by about 1e-14 / residual.
    """
    return _classify(h0s, skew, body, opts or IntegrationOptions(), _first_returns)


def _classify(h0s, skew: SkewMatrix, body: ControlBody, opts: IntegrationOptions,
              search) -> list[ExtremalClass]:
    """The classification of every covector of h0s, with the given return search.

    ``search(body, matrix, starts, horizons, opts)`` returns one
    PeriodResult, or None where no return came by its horizon, for each
    start, on the flow of ``matrix`` = M / sigma_max.  An ellipsoid or a
    translated ellipsoid, whose flow is affine on the clock
    ds = dt / sqrt(h^T A h), takes the closed form ``_closed_form_returns``
    in place of ``search``.  The horizon is _TURNS turns of 2 pi max(1, R^2)
    in the time of that flow, R the body's reach on H = 1; one that
    overflows raises InputError before any search.  The closed form's
    periods are at most 2 pi R^2, so only a search leaves a start
    unclassified for want of a return.
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
    basis = kernel_basis(skew)
    sigma = basis.sigma_max
    out: list[ExtremalClass | None] = []
    moving = []
    for h0 in starts:
        residual = _parallel_residual(body.support_gradient(h0), basis)
        if residual <= _PARALLEL_TOL:
            out.append(ExtremalClass(kind=CONSTANT, parallel_residual=residual))
            continue
        warnings = ()
        if residual <= _PARALLEL_WARN_BAND:
            warnings = (f"initial control is nearly aligned with the Casimir direction "
                        f"(residual {residual:.3e}); the period is ill-conditioned here",)
        moving.append((len(out), h0, residual, warnings))
        out.append(None)
    if not moving:
        return out

    # In Python floats a horizon past the double range is inf, not a warning.
    reach = body._reach(skew.k)
    horizon = 2.0 * math.pi * _TURNS * max(1.0, reach * reach)
    if not math.isfinite(horizon):
        raise InputError(f"the search horizon {_TURNS} turns of 2 pi max(1, R^2) "
                         f"overflows at the body's reach R = {reach:.6g} on H = 1")
    if isinstance(body, (Ellipsoid, TranslatedEllipsoid)):
        search = _closed_form_returns
    found = search(body, skew.matrix / sigma, [h0 for _, h0, _, _ in moving],
                   np.full(len(moving), horizon), opts)
    for (i, _, residual, warnings), result in zip(moving, found):
        if result is None:
            out[i] = ExtremalClass(
                kind=UNCLASSIFIED, parallel_residual=residual,
                reason=(f"no return within t = {horizon / sigma:.6g}, {_TURNS} turns of "
                        f"2 pi max(1, R^2) / sigma_max with R = {reach:.6g} the body's "
                        f"reach on H = 1; likely a tolerance problem"),
                warnings=warnings,
            )
            continue
        period = result.period / sigma
        if result.residual > _RETURN_RESIDUAL_TOL:
            out[i] = ExtremalClass(
                kind=UNCLASSIFIED, parallel_residual=residual,
                reason=(f"return residual {result.residual:.3e} exceeds "
                        f"{_RETURN_RESIDUAL_TOL:.1e} at T = {period:.9g}"),
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
    _check_samples(samples)

    rhs = _make_rhs(body, skew.matrix)
    sol = _solve(rhs, 0.0, t_max, h0, opts)
    grid = np.linspace(delta, t_max, samples)
    dist = np.linalg.norm(_dense_values(sol, grid) - h0[:, None], axis=0)
    j = int(np.argmin(dist))

    # Refine by locating the zero of d/dt ||h(t) - h0||^2, which is smooth
    # even when the minimum value sits at the integration-noise floor.
    def slope(t):
        h = _dense_values(sol, t)
        return float((h - h0) @ rhs(t, h))

    lo = grid[max(j - 1, 0)]
    hi = grid[min(j + 1, grid.size - 1)]
    t_best, d_best = float(grid[j]), float(dist[j])
    if hi > lo and slope(lo) < 0.0 < slope(hi):
        t_star = float(brentq(slope, lo, hi, xtol=1e-13, rtol=4.0 * np.finfo(float).eps))
        d_star = float(np.linalg.norm(_dense_values(sol, t_star) - h0))
        if d_star < d_best:
            t_best, d_best = t_star, d_star
    return QuasiPeriodResult(min_return_distance=d_best, time_of_min=t_best)
