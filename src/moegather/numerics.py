"""Dense linear algebra kernels used everywhere else in the package.

Everything operates on float64 numpy arrays with row-major semantics.
All functions are pure; :class:`Rng` is the only stateful object and each
logical consumer (init, batch order, router noise, ...) should own its own
stream rather than share one. :func:`check_number` is the one range check
of every numeric setting in the package, :func:`as_array` the one
conversion of array input to float64, and :func:`top_k_indices` the one
top-k (the router's experts, Top-KG's units). Callers own the finiteness of
arrays; only :func:`svd`, whose LAPACK call would fail, refuses a non-finite one.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ShapeError",
    "NumericalError",
    "SvdFactors",
    "Rng",
    "as_array",
    "check_number",
    "svd",
    "truncate_svd",
    "top_k_indices",
]

class ShapeError(ValueError):
    """Operand dimensions do not compose."""


class NumericalError(RuntimeError):
    """Non-finite values encountered, or a decomposition failed to converge."""


def as_array(data, what: str) -> np.ndarray:
    """``data`` as a float64 array, itself when it already is one. A ragged
    nested list, or an entry that is no number, is a :class:`ShapeError`
    that names ``what``."""
    try:
        return np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"{what} must be a rectangular array of numbers: {exc}") from exc


def check_number(name: str, value, *, integer: bool = False, positive: bool = False,
                 at_most: float = math.inf) -> None:
    """Raise ValueError unless ``value`` is a finite number (an int when
    ``integer``; never a bool) that is >= 0, > 0 when ``positive``, and at
    most ``at_most``. Settings call this when built, so a bad value fails
    before any work starts."""
    if integer:
        ok = type(value) is int
    else:
        ok = (isinstance(value, numbers.Real) and not isinstance(value, bool)
              and (isinstance(value, int) or math.isfinite(value)))
    if not ok or value < 0 or (positive and value == 0) or value > at_most:
        sign = "positive" if positive else "non-negative"
        kind = "integer" if integer else "finite number"
        bound = f" at most {at_most:g}" if at_most < math.inf else ""
        raise ValueError(f"{name} must be a {sign} {kind}{bound}, got {value!r}")


def top_k_indices(scores, k: int) -> np.ndarray:
    """Indices of the k largest scores along the last axis, ascending, ties
    broken by lower index."""
    s = as_array(scores, "scores")
    if s.ndim == 0 or not 1 <= k <= s.shape[-1]:
        raise ValueError(f"k={k} out of range for scores of shape {s.shape}")
    # a stable sort of the negated scores puts the lower index first among ties
    return np.sort(np.argsort(-s, axis=-1, kind="stable")[..., :k], axis=-1)


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD ``A = U @ diag(S) @ V.T`` with S sorted descending."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray

    @property
    def rank(self) -> int:
        """Number of retained singular triplets."""
        return int(self.S.size)

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.S) @ self.V.T


def svd(a) -> SvdFactors:
    """Thin SVD from LAPACK (``np.linalg.svd``), singular values descending.

    Singular values at or below the numerical-rank tolerance of
    ``np.linalg.matrix_rank`` (largest value times max(m, n) times machine
    epsilon) are set to exact zero, so a rank-deficient matrix reports its
    rank and truncation never keeps rounding noise.

    No sign convention is imposed on the singular-vector pairs: every
    consumer (reconstructions, retained ranks, spectra) is invariant to
    flipping the sign of a matched column of U and V. Raises
    :class:`NumericalError` on a non-finite entry or when LAPACK fails to
    converge.
    """
    a = np.ascontiguousarray(as_array(a, "matrix"))
    if a.ndim != 2 or a.size == 0:
        raise ShapeError(f"expected a non-empty 2-D matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NumericalError("matrix contains non-finite entries")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD of a {a.shape[0]}x{a.shape[1]} matrix failed: {exc}") from exc
    s[s <= s[0] * max(a.shape) * np.finfo(np.float64).eps] = 0.0
    return SvdFactors(U=u, S=s, V=vt.T)


def truncate_svd(f: SvdFactors, ratio: float) -> SvdFactors:
    """Keep the smallest leading set of triplets whose singular mass reaches
    ``ratio`` of the total.

    An all-zero spectrum keeps a single zero triplet, so shapes stay meaningful.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must lie in (0, 1], got {ratio}")
    cum = np.cumsum(f.S)
    total = float(cum[-1])
    if total == 0.0:
        return SvdFactors(f.U[:, :1].copy(), f.S[:1].copy(), f.V[:, :1].copy())
    # First index whose cumulative mass reaches the target; total is taken from
    # the same cumulative sum so ratio=1.0 is exact in floating point.
    k = int(np.searchsorted(cum, ratio * total, side="left")) + 1
    k = min(k, f.rank)
    return SvdFactors(f.U[:, :k].copy(), f.S[:k].copy(), f.V[:, :k].copy())


class Rng:
    """Seeded random stream; identical seed yields an identical stream.

    ``derive`` builds an independent child stream from a string tag. Children
    depend only on (seed, tag), never on how much of the parent was consumed.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def derive(self, tag: str) -> "Rng":
        digest = hashlib.sha256(f"{self.seed}/{tag}".encode()).digest()
        return Rng(int.from_bytes(digest[:8], "little"))

    def normal(self, size=None, scale: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, scale, size=size)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
