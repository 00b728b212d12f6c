"""Strictly convex control sets and their support functions.

A control set U is a compact, strictly convex subset of R^k with the origin
in its interior.  It enters the extremal equations only through its support
function H(h) = max_{v in U} <v, h> and the gradient of H, which is the
maximizing control.  Three closed-form families are supported: centered
ellipsoids, lp balls with 1 < p < inf, and translated ellipsoids.
"""

from __future__ import annotations

import abc
import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import AbnormalCovectorError, InputError

# Covectors with max-norm below this are treated as zero.  On the level set
# H = 1 legitimate states are bounded away from the origin, so the guard only
# fires on genuinely degenerate input.
ZERO_GUARD = 1e-300

# The lp level-set field clamps r |h_i| at 2, or lower where q - 1 exceeds
# this, so that the clamp raised to q - 1 stays at most 2^_CLAMP_BITS.
_CLAMP_BITS = 128.0
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a body validation: empty ``violations`` means pass."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class ControlBody(abc.ABC):
    """Base class for control sets exposed through their support function.

    Each family evaluates H and grad H in row kernels: ``_support(hs)`` and
    ``_gradient(hs)`` take an (N, k) array of nonzero covectors and return
    (N,) support values and (N, k) gradients.

    The vertical flow is driven by the gradient of H^s / s for an exponent
    s > 0 each family picks.  It is H^(s-1) grad H: parallel to grad H and
    equal to it on the level set H = 1, so H and every linear integral stay
    exact first integrals and the flow on that level set is unchanged.
    ``_level_gradient(hs)`` is its row kernel, grad H itself (s = 1) unless
    a family overrides it, and ``_level_gradient_at(h)`` evaluates it at one
    covector for the one-trajectory solver, which calls it once per stage.
    """

    kind: ClassVar[str]

    @property
    @abc.abstractmethod
    def dim(self) -> int | None:
        """Ambient dimension, or None when the family is dimension-free."""

    @abc.abstractmethod
    def violations(self) -> list[str]:
        """Messages for every violated construction invariant."""

    @abc.abstractmethod
    def to_config(self) -> dict:
        """JSON-ready description matching the CLI config schema."""

    @abc.abstractmethod
    def _support(self, hs: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def _gradient(self, hs: np.ndarray) -> np.ndarray: ...

    def _level_gradient(self, hs: np.ndarray) -> np.ndarray:
        return self._gradient(hs)

    @abc.abstractmethod
    def _level_gradient_at(self, h: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def _reach(self, k: int) -> float:
        """A bound R >= |h| over the level set H = 1 in R^k, in closed form."""

    def validate(self) -> ValidationReport:
        return ValidationReport(tuple(self.violations()))

    def support(self, h) -> float:
        """Evaluate H(h) = max_{v in U} <v, h>.

        Nonnegative, convex and positively homogeneous of degree one;
        H(0) = 0 and H(h) > 0 for h != 0 because 0 is interior to U.
        """
        h = self._covector(h)
        if not h.any():
            return 0.0
        return float(self._support(h[None])[0])

    def support_gradient(self, h) -> np.ndarray:
        """Evaluate grad H(h), the unique maximizing control on the boundary of U.

        H is differentiable only away from the origin; h = 0 is rejected.
        """
        h = self._covector(h)
        self._require_nonzero(h, "support gradient")
        return self._gradient(h[None])[0]

    def normalize_to_level(self, h0) -> np.ndarray:
        """Rescale h0 to the level set H = 1, preserving its direction.

        Raises AbnormalCovectorError for h0 = 0: the vanishing covector is
        the abnormal case and is excluded throughout.
        """
        h0 = self._covector(h0)
        self._require_nonzero(h0, "level normalization")
        return h0 / self._support(h0[None])[0]

    def _covector(self, h) -> np.ndarray:
        arr = np.asarray(h, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise InputError(f"covector must be a nonempty 1-d vector, got shape {arr.shape}")
        if self.dim is not None and arr.size != self.dim:
            raise InputError(f"covector has length {arr.size}, body expects {self.dim}")
        if not np.all(np.isfinite(arr)):
            raise InputError("covector has non-finite entries")
        return arr

    def _require_nonzero(self, h: np.ndarray, what: str) -> None:
        if float(np.abs(h).max()) < ZERO_GUARD:
            raise AbnormalCovectorError(
                f"{what} requires a nonzero covector; h = 0 is the excluded abnormal case"
            )


def _quadratic_rows(a: np.ndarray, hs: np.ndarray):
    """(w, A w, w^T A w, e) for each row h of hs, with w = h / 2^e, max |w_i| in [1/2, 1).

    Scaling by a power of two is exact and keeps h^T A h from under- or
    overflowing, so covectors from 1e-300 to 1e300 keep every digit.  A
    component far below its row's maximum may round to a subnormal.
    """
    e = np.frexp(np.abs(hs).max(axis=1))[1]
    w = np.ldexp(hs, -e[:, None])
    aw = w.dot(a.T)
    return w, aw, np.einsum("ij,ij->i", w, aw), e


def _as_matrix(a) -> np.ndarray:
    arr = np.array(a, dtype=float)
    arr.setflags(write=False)
    return arr


def _matrix_violations(a: np.ndarray, name: str) -> list[str]:
    out = []
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        out.append(f"{name} must be a square matrix, got shape {a.shape}")
        return out
    if not np.all(np.isfinite(a)):
        out.append(f"{name} has non-finite entries")
        return out
    if float(np.abs(a - a.T).max(initial=0.0)) > 1e-12:
        out.append(f"{name} is not symmetric within 1e-12")
    elif float(np.linalg.eigvalsh(a).min()) <= 0.0:
        out.append(f"{name} must have strictly positive eigenvalues")
    return out


@dataclass(frozen=True, eq=False)
class Ellipsoid(ControlBody):
    """Centered ellipsoid {v : v^T A^-1 v <= 1} with H(h) = sqrt(h^T A h)."""

    shape_matrix: np.ndarray

    kind: ClassVar[str] = "ellipsoid"

    def __post_init__(self):
        object.__setattr__(self, "shape_matrix", _as_matrix(self.shape_matrix))

    @property
    def dim(self) -> int:
        return self.shape_matrix.shape[0]

    def violations(self) -> list[str]:
        return _matrix_violations(self.shape_matrix, "shape matrix A")

    def to_config(self) -> dict:
        return {"type": self.kind, "A": self.shape_matrix.tolist()}

    def _support(self, hs):
        _, _, d, e = _quadratic_rows(self.shape_matrix, hs)
        return np.ldexp(np.sqrt(d), e)

    def _gradient(self, hs):
        _, aw, d, _ = _quadratic_rows(self.shape_matrix, hs)
        return aw / np.sqrt(d)[:, None]

    def _level_gradient(self, hs):
        # grad(H^2 / 2) = A h: linear, no square root.
        return hs.dot(self.shape_matrix)  # rows of A h, as A is symmetric

    def _level_gradient_at(self, h):
        return self.shape_matrix.dot(h)

    def _reach(self, k):
        # H(h) >= sqrt(lambda_min(A)) |h|, with equality along its eigenvector.
        return 1.0 / math.sqrt(float(np.linalg.eigvalsh(self.shape_matrix)[0]))


@dataclass(frozen=True, eq=False)
class LpBall(ControlBody):
    """lp ball of radius r with H(h) = r * ||h||_q, 1/p + 1/q = 1.

    Strict convexity requires p strictly between 1 and infinity.  Works in
    any ambient dimension.
    """

    p: float
    radius: float = 1.0

    kind: ClassVar[str] = "lp_ball"

    @property
    def dim(self) -> None:
        return None

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)

    def violations(self) -> list[str]:
        out = []
        if not (np.isfinite(self.p) and self.p > 1.0):
            out.append(f"exponent p must lie strictly in (1, inf), got {self.p}")
        elif not self.q - 1.0 > 0.0:   # from p of about 1e16 on: an l1 support
            out.append(f"exponent p = {self.p} is too large: q = p / (p - 1) rounds to 1")
        if not (np.isfinite(self.radius) and self.radius > 0.0):
            out.append(f"radius must be positive, got {self.radius}")
        return out

    def to_config(self) -> dict:
        return {"type": self.kind, "p": self.p, "r": self.radius}

    def _support(self, hs):
        # Divided by the max component (H is homogeneous), w^q stays in [0, 1].
        a = np.abs(hs)
        m = a.max(axis=1)
        w = a / m[:, None]
        return self.radius * m * (w**self.q).sum(axis=1) ** (1.0 / self.q)

    def _gradient(self, hs):
        # Scale exactly by a power of two, to max w_i in [1/2, 1): dividing by the
        # max component would round w, and q - 1 (100 at p = 1.01) would multiply
        # that.  For q > 512, where w^q may underflow, t = w / max w gives t^q as
        # exp(q log1p(t - 1)): |h_i| - max |h| is exact for t >= 1/2.
        q = self.q
        a = np.abs(hs)
        m = a.max(axis=1, keepdims=True)
        if q <= 512.0:
            w = np.ldexp(a, -np.frexp(m)[1], out=a)
            s, wq1 = (w**q).sum(axis=1, keepdims=True), w ** (q - 1.0)
        else:
            with np.errstate(divide="ignore"):
                log_t = np.log1p((a - m) / m)
            s, wq1 = np.exp(q * log_t).sum(axis=1, keepdims=True), np.exp((q - 1.0) * log_t)
        return self.radius * np.sign(hs) * wq1 / s ** ((q - 1.0) / q)

    @functools.cached_property
    def _power(self) -> tuple[float, float]:
        """(q - 1, the clamp of r |h_i|) for the level-set field."""
        e = self.q - 1.0
        return e, 2.0 ** min(1.0, _CLAMP_BITS / e)

    def _level_gradient(self, hs):
        # grad(H^q / q) = r sign(h_i) (r |h_i|)^(q-1): no norm.  As r |h_i| <= H,
        # the clamp acts only where H exceeds it, off the level set, where a
        # rejected trial stage at p near 1 would otherwise overflow; it bounds
        # the field there by r 2^_CLAMP_BITS for every q.
        r = self.radius
        e, clamp = self._power
        return np.where(hs >= 0.0, r, -r) * np.minimum(r * np.abs(hs), clamp) ** e

    def _level_gradient_at(self, h):
        # _level_gradient on Python floats: for the few components of one
        # covector, NumPy's per-call overhead would cost more than the
        # arithmetic.  The rows' operations in their order, without builtin
        # calls: the clamp test keeps a NaN as min(w, clamp) does, and
        # components at -0.0 give +0.0, as in the rows.
        r = self.radius
        e, clamp = self._power
        out = []
        for v in h.tolist():
            w = r * abs(v)
            w = (clamp if clamp < w else w) ** e
            out.append(r * w if v >= 0.0 else -r * w)
        return np.array(out)

    def _reach(self, k):
        # |h|_2 <= k^(1/2 - 1/q) |h|_q for q >= 2, and |h|_2 <= |h|_q for q <= 2.
        return k ** max(0.0, 0.5 - 1.0 / self.q) / self.radius


@dataclass(frozen=True, eq=False)
class TranslatedEllipsoid(ControlBody):
    """Ellipsoid shifted to center c: H(h) = <c, h> + sqrt(h^T A h).

    The origin must stay interior, i.e. c^T A^-1 c < 1.
    """

    shape_matrix: np.ndarray
    center: np.ndarray

    kind: ClassVar[str] = "translated_ellipsoid"

    def __post_init__(self):
        object.__setattr__(self, "shape_matrix", _as_matrix(self.shape_matrix))
        object.__setattr__(self, "center", _as_matrix(self.center))

    @property
    def dim(self) -> int:
        return self.shape_matrix.shape[0]

    def violations(self) -> list[str]:
        out = _matrix_violations(self.shape_matrix, "shape matrix A")
        c = self.center
        if c.ndim != 1 or c.size != self.shape_matrix.shape[0]:
            out.append(f"center must be a vector of length {self.shape_matrix.shape[0]}")
            return out
        if not np.all(np.isfinite(c)):
            out.append("center has non-finite entries")
            return out
        if not out:
            depth = float(c @ np.linalg.solve(self.shape_matrix, c))
            if depth >= 1.0:
                out.append(
                    f"origin is not interior: c^T A^-1 c = {depth:.6g} must be < 1"
                )
        return out

    def to_config(self) -> dict:
        return {"type": self.kind, "A": self.shape_matrix.tolist(), "c": self.center.tolist()}

    def _support(self, hs):
        w, _, d, e = _quadratic_rows(self.shape_matrix, hs)
        return np.ldexp(w @ self.center + np.sqrt(d), e)

    def _gradient(self, hs):
        _, aw, d, _ = _quadratic_rows(self.shape_matrix, hs)
        return self.center + aw / np.sqrt(d)[:, None]

    def _level_gradient(self, hs):
        # grad H itself (s = 1), bit for bit as _gradient gives it: scaling by a
        # power of two changes no bit while h^T A h stays in the normal range,
        # so only rows outside it need _gradient's rescaling.
        ah = hs.dot(self.shape_matrix.T)
        d = np.einsum("ij,ij->i", hs, ah)
        if not (_TINY <= d.min(initial=np.inf) and d.max(initial=0.0) < np.inf):
            return self._gradient(hs)
        return self.center + ah / np.sqrt(d)[:, None]

    def _level_gradient_at(self, h):
        # Not rescaled like the rows: the solver only evaluates it near H = 1.
        ah = self.shape_matrix.dot(h)
        return self.center + ah / math.sqrt(float(h.dot(ah)))

    def _reach(self, k):
        # <c, h> >= -sqrt(c^T A^-1 c) sqrt(h^T A h) (Cauchy-Schwarz in the metric
        # of A), so H(h) >= (1 - sqrt(c^T A^-1 c)) sqrt(lambda_min(A)) |h|.
        a, c = self.shape_matrix, self.center
        depth = math.sqrt(float(c @ np.linalg.solve(a, c)))
        return 1.0 / ((1.0 - depth) * math.sqrt(float(np.linalg.eigvalsh(a)[0])))


BODY_KINDS = {cls.kind: cls for cls in (Ellipsoid, LpBall, TranslatedEllipsoid)}
