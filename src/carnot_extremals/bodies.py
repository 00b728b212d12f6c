"""Strictly convex control sets and their support functions.

A control set U is a compact, strictly convex subset of R^k with the origin
in its interior.  It enters the extremal equations only through its support
function H(h) = max_{v in U} <v, h> and the gradient of H, which is the
maximizing control.  Three closed-form families are supported: centered
ellipsoids, lp balls with 1 < p < inf, and translated ellipsoids.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import AbnormalCovectorError, InputError

# Covectors with max-norm below this are treated as zero.  On the level set
# H = 1 legitimate states are bounded away from the origin, so the guard only
# fires on genuinely degenerate input.
ZERO_GUARD = 1e-300

# Outside this band the quadratic form h^T A h of an ellipsoid may have lost
# digits to underflow or overflow; such covectors are first rescaled by a
# power of two, which is exact, and the result is scaled back.
_QUADRATIC_BAND = (1e-280, 1e280)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a body validation: empty ``violations`` means pass."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class ControlBody(abc.ABC):
    """Base class for control sets exposed through their support function.

    The vertical flow is driven by ``_level_gradient``, the gradient of
    H^s / s for an exponent s > 0 each family picks.  It is H^(s-1) grad H:
    parallel to grad H and equal to it on the level set H = 1, so H and
    every linear integral stay exact first integrals and the flow on that
    level set is unchanged.  The default is grad H itself (s = 1).
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
    def _support(self, h: np.ndarray) -> float: ...

    @abc.abstractmethod
    def _gradient(self, h: np.ndarray) -> np.ndarray: ...

    def _level_gradient(self, h: np.ndarray) -> np.ndarray:
        return self._gradient(h)

    # Row kernels: the same maps on an (N, k) array of nonzero covectors,
    # returning (N,) support values and (N, k) gradients.  The scalar forms
    # serve one point at a time; these serve whole sampled trajectories and
    # the lanes of a batched sweep (``_level_gradient_batch``).

    @abc.abstractmethod
    def _support_batch(self, hs: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def _gradient_batch(self, hs: np.ndarray) -> np.ndarray: ...

    def _level_gradient_batch(self, hs: np.ndarray) -> np.ndarray:
        return self._gradient_batch(hs)

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
        return float(self._support(h))

    def support_gradient(self, h) -> np.ndarray:
        """Evaluate grad H(h), the unique maximizing control on the boundary of U.

        H is differentiable only away from the origin; h = 0 is rejected.
        """
        h = self._covector(h)
        self._require_nonzero(h, "support gradient")
        return self._gradient(h)

    def normalize_to_level(self, h0) -> np.ndarray:
        """Rescale h0 to the level set H = 1, preserving its direction.

        Raises AbnormalCovectorError for h0 = 0: the vanishing covector is
        the abnormal case and is excluded throughout.
        """
        h0 = self._covector(h0)
        self._require_nonzero(h0, "level normalization")
        return h0 / self._support(h0)

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


def _quadratic(a: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, int]:
    """(w, A w, w^T A w, e) with w = h / 2^e.

    e = 0 unless h^T A h leaves the quadratic band; then w is h rescaled to
    max |w_i| in [1/2, 1).  Scaling by a power of two is exact.
    """
    ah = a @ h
    d = float(h @ ah)
    if _QUADRATIC_BAND[0] < d < _QUADRATIC_BAND[1]:
        return h, ah, d, 0
    e = math.frexp(float(np.abs(h).max()))[1]
    w = np.ldexp(h, -e)
    aw = a @ w
    return w, aw, float(w @ aw), e


def _quadratic_rows(a: np.ndarray, hs: np.ndarray):
    """Row-wise _quadratic, with every row rescaled to max |w_i| in [1/2, 1).

    The rescaling is exact, so inside the band it changes no result, except
    that a component far below its row's maximum may round to a subnormal.
    """
    e = np.frexp(np.abs(hs).max(axis=1))[1]
    w = np.ldexp(hs, -e[:, None])
    aw = w @ a.T
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

    def _support(self, h):
        _, _, d, e = _quadratic(self.shape_matrix, h)
        return math.ldexp(math.sqrt(d), e)

    def _gradient(self, h):
        _, ah, d, _ = _quadratic(self.shape_matrix, h)
        return ah / math.sqrt(d)

    def _level_gradient(self, h):
        # grad(H^2 / 2) = A h: linear, no square root.
        return self.shape_matrix @ h

    def _support_batch(self, hs):
        _, _, d, e = _quadratic_rows(self.shape_matrix, hs)
        return np.ldexp(np.sqrt(d), e)

    def _gradient_batch(self, hs):
        _, aw, d, _ = _quadratic_rows(self.shape_matrix, hs)
        return aw / np.sqrt(d)[:, None]

    def _level_gradient_batch(self, hs):
        return hs @ self.shape_matrix  # rows of A h, as A is symmetric


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
        if not (np.isfinite(self.radius) and self.radius > 0.0):
            out.append(f"radius must be positive, got {self.radius}")
        return out

    def to_config(self) -> dict:
        return {"type": self.kind, "p": self.p, "r": self.radius}

    def _support(self, h):
        # Scale by the max component so powers stay in [0, 1]; exact for the
        # dual-norm formula by homogeneity.
        a = np.abs(h)
        m = a.max()
        w = a / m
        return float(self.radius * m * (w**self.q).sum() ** (1.0 / self.q))

    def _gradient(self, h):
        # On Python floats: for the few components of a covector, NumPy's
        # per-call overhead would cost more than the arithmetic.  Components
        # at zero use the limit value 0^(q-1) = 0 for q > 1 and give +0.0.
        q = self.q
        e = q - 1.0
        vals = h.tolist()
        m = max(map(abs, vals))
        w = [abs(v) / m for v in vals]
        c = sum([wi**q for wi in w]) ** (e / q)
        r = self.radius
        return np.array([(r if v >= 0.0 else -r) * wi**e / c for wi, v in zip(w, vals)])

    def _level_gradient(self, h):
        # grad(H^q / q) = r sign(h_i) (r |h_i|)^(q-1): no norm.  As r |h_i| <= H,
        # the clamp at 2 acts only where H > 2, off the level set, where a
        # rejected trial stage at p near 1 would otherwise overflow.
        r = self.radius
        e = self.q - 1.0
        return np.array([(r if v >= 0.0 else -r) * min(r * abs(v), 2.0) ** e
                         for v in h.tolist()])

    def _support_batch(self, hs):
        a = np.abs(hs)
        m = a.max(axis=1)
        w = a / m[:, None]
        return self.radius * m * (w**self.q).sum(axis=1) ** (1.0 / self.q)

    def _gradient_batch(self, hs):
        q = self.q
        a = np.abs(hs)
        w = a / a.max(axis=1, keepdims=True)
        s = (w**q).sum(axis=1, keepdims=True)
        return self.radius * np.sign(hs) * w ** (q - 1.0) / s ** ((q - 1.0) / q)

    def _level_gradient_batch(self, hs):
        r = self.radius
        return np.where(hs >= 0.0, r, -r) * np.minimum(r * np.abs(hs), 2.0) ** (self.q - 1.0)


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

    def _support(self, h):
        w, _, d, e = _quadratic(self.shape_matrix, h)
        return math.ldexp(float(self.center @ w) + math.sqrt(d), e)

    def _gradient(self, h):
        _, ah, d, _ = _quadratic(self.shape_matrix, h)
        return self.center + ah / math.sqrt(d)

    def _support_batch(self, hs):
        w, _, d, e = _quadratic_rows(self.shape_matrix, hs)
        return np.ldexp(w @ self.center + np.sqrt(d), e)

    def _gradient_batch(self, hs):
        _, aw, d, _ = _quadratic_rows(self.shape_matrix, hs)
        return self.center + aw / np.sqrt(d)[:, None]


BODY_KINDS = {cls.kind: cls for cls in (Ellipsoid, LpBall, TranslatedEllipsoid)}
