"""Step-2 free-nilpotent Lie algebra structure and its linear Casimirs.

The algebra on k generators has basis X_1..X_k (first layer) and X_ij,
1 <= i < j <= k (second layer), with [X_i, X_j] = X_ij and the second layer
central; its dimension is k(k+1)/2.  On the dual space the induced Poisson
structure is encoded by the skew-symmetric matrix M = (h_ij).  Linear
functions I_a(h) = <a, h> Poisson-commute with every coordinate Hamiltonian
exactly when a lies in ker M, which makes ker M the source of all linear
first integrals of the extremal flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import InputError, UnsupportedRankError

KERNEL_REL_TOL = 1e-10
NEAR_SINGULAR_BAND = 1e-6


@dataclass(frozen=True)
class AlgebraSpec:
    """Index bookkeeping for the k-generator step-2 free-nilpotent algebra."""

    k: int

    def __post_init__(self):
        if not isinstance(self.k, (int, np.integer)) or isinstance(self.k, bool) or self.k < 2:
            raise InputError(f"number of generators k must be an integer >= 2, got {self.k!r}")

    @property
    def dim(self) -> int:
        """Total dimension k(k+1)/2 of the algebra."""
        return self.k * (self.k + 1) // 2

    @property
    def num_pairs(self) -> int:
        return self.k * (self.k - 1) // 2

    def pairs(self) -> list[tuple[int, int]]:
        """All (i, j), 1 <= i < j <= k, in lexicographic order."""
        return [(i, j) for i in range(1, self.k + 1) for j in range(i + 1, self.k + 1)]

    def pair_index(self, i: int, j: int) -> int:
        """Flat 0-based index of the pair (i, j) in lexicographic order."""
        if not (1 <= i < j <= self.k):
            raise InputError(f"pair indices must satisfy 1 <= i < j <= {self.k}, got ({i}, {j})")
        return (i - 1) * self.k - i * (i - 1) // 2 + (j - i - 1)

    def pair_rows_cols(self) -> tuple[np.ndarray, np.ndarray]:
        """0-based row/column index arrays aligned with pairs()."""
        pairs = self.pairs()
        rows = np.array([i - 1 for i, _ in pairs], dtype=int)
        cols = np.array([j - 1 for _, j in pairs], dtype=int)
        return rows, cols


@dataclass(frozen=True, eq=False)
class SkewMatrix:
    """Skew-symmetric matrix of second-layer momenta, M[i-1, j-1] = h_ij.

    Skew symmetry is exact by construction; the constructor rejects any
    matrix where M + M^T has a nonzero entry.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError(f"skew matrix must be square, got shape {m.shape}")
        if m.shape[0] < 2:
            raise InputError("skew matrix must have size k >= 2")
        if not np.all(np.isfinite(m)):
            raise InputError("skew matrix has non-finite entries")
        if not np.array_equal(m, -m.T):
            raise InputError("matrix is not exactly skew-symmetric")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def zero(cls, k: int) -> "SkewMatrix":
        return cls(np.zeros((k, k)))

    @classmethod
    def from_entries(cls, k: int, entries: Mapping[tuple[int, int], float]) -> "SkewMatrix":
        """Build from upper-triangle values {(i, j): h_ij}, 1 <= i < j <= k."""
        spec = AlgebraSpec(k)
        m = np.zeros((k, k))
        for (i, j), value in entries.items():
            spec.pair_index(i, j)  # bounds check
            value = float(value)
            if not np.isfinite(value):
                raise InputError(f"entry h_{i}{j} is not finite")
            m[i - 1, j - 1] = value
            m[j - 1, i - 1] = -value
        return cls(m)

    @classmethod
    def from_flat(cls, k: int, values) -> "SkewMatrix":
        """Build from upper-triangle values in AlgebraSpec pair order."""
        spec = AlgebraSpec(k)
        values = np.asarray(values, dtype=float)
        if values.shape != (spec.num_pairs,):
            raise InputError(f"expected {spec.num_pairs} upper-triangle values, got shape {values.shape}")
        m = np.zeros((k, k))
        rows, cols = spec.pair_rows_cols()
        m[rows, cols] = values
        m[cols, rows] = -values
        return cls(m)

    @property
    def k(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_zero(self) -> bool:
        return not self.matrix.any()

    def flat(self) -> np.ndarray:
        """Upper-triangle entries in AlgebraSpec pair order."""
        rows, cols = AlgebraSpec(self.k).pair_rows_cols()
        return self.matrix[rows, cols].copy()


@dataclass(frozen=True, eq=False)
class CasimirBasis:
    """Orthonormal basis of ker M; each vector a defines I_a(h) = <a, h>.

    ``sigma_max`` is the largest singular value of M (0 for M = 0), the
    frequency scale of the flow.  ``near_singular`` flags a smallest non-kernel
    singular value below NEAR_SINGULAR_BAND * sigma_max: an unstable kernel.
    """

    vectors: np.ndarray  # (n_casimirs, k), rows orthonormal
    sigma_max: float
    near_singular: bool

    def __len__(self) -> int:
        return self.vectors.shape[0]


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # Deterministic orientation: first component larger than 1e-12 in
    # magnitude is made positive.
    out = vectors.copy()
    for row in out:
        idx = np.nonzero(np.abs(row) > 1e-12)[0]
        if idx.size and row[idx[0]] < 0.0:
            row *= -1.0
    return out


def kernel_basis(skew: SkewMatrix) -> CasimirBasis:
    """Orthonormal basis of the numerical kernel of M via SVD.

    The SVD runs on M * 2**-e, 2**e the binade of the largest entry: an exact
    scaling, denormals included, so the decision is scale-free.  Singular
    vectors with sigma <= KERNEL_REL_TOL * sigma_max belong to the kernel.  A
    zero matrix yields the standard basis; for odd k the basis is never empty.
    """
    if skew.is_zero:
        vecs, sigma_max, near = np.eye(skew.k), 0.0, False
    else:
        _, e = math.frexp(float(np.abs(skew.matrix).max()))
        _, s, vt = np.linalg.svd(np.ldexp(skew.matrix, -e))
        mask = s <= KERNEL_REL_TOL * s[0]
        vecs, sigma_max = _fix_signs(vt[mask]), math.ldexp(float(s[0]), e)
        near = bool(not mask.all() and s[~mask][-1] < NEAR_SINGULAR_BAND * s[0])
    vecs.setflags(write=False)
    return CasimirBasis(vectors=vecs, sigma_max=sigma_max, near_singular=near)


@dataclass(frozen=True, eq=False)
class LeafClass:
    """Symplectic leaf through (h, M) for k = 3.

    kind "two_dim": M != 0, the leaf is the level surface of the single
    Casimir direction inside the slice of fixed h_ij.  kind "zero_dim":
    M = 0 and the leaf is the point h itself.  A nonzero 3 x 3 skew M has
    sigma_1 = sigma_2 and sigma_3 = 0: one kernel line, never near singular.
    """

    kind: str  # "two_dim" | "zero_dim"
    skew_levels: np.ndarray
    casimir: np.ndarray | None = None
    casimir_level: float | None = None
    point: np.ndarray | None = None


def leaf_classify(skew: SkewMatrix, h) -> LeafClass:
    """Classify the symplectic leaf through (h, M); proven only for k = 3."""
    if skew.k != 3:
        raise UnsupportedRankError(f"leaf classification is only supported for k = 3, got k = {skew.k}")
    h = np.asarray(h, dtype=float)
    if h.shape != (3,):
        raise InputError(f"expected a covector of length 3, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise InputError("covector has non-finite entries")
    basis = kernel_basis(skew)
    if skew.is_zero:
        return LeafClass(kind="zero_dim", skew_levels=skew.flat(), point=h.copy())
    a = basis.vectors[0]
    return LeafClass(
        kind="two_dim",
        skew_levels=skew.flat(),
        casimir=a,
        casimir_level=float(a @ h),
    )
