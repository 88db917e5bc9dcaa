"""Dense linear algebra kernels used everywhere else in the package.

Everything operates on float64 numpy arrays with row-major semantics.
All functions are pure; :class:`Rng` is the only stateful object and each
logical consumer (init, batch order, router noise, ...) should own its own
stream rather than share one. :func:`svd` remembers the read-only factors
of the 16 most recently used distinct small matrices, keyed by shape and
exact bytes, so what it returns still depends on its input's content alone.
:func:`check_number` is the one range check of every numeric setting in
the package, :func:`as_array` the one conversion of array input to float64,
and :func:`top_k_indices` the one top-k (through ``model.dispatch``, the
router's experts and ``noise_scan``'s primary expert; Top-KG's units).
Callers own the finiteness of arrays; only :func:`svd`, whose LAPACK call
would fail, refuses a non-finite one.
"""

from __future__ import annotations

import functools
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
    "truncation_rank",
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
        """``S.size``: every triplet held, exact zeros included."""
        return int(self.S.size)

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.S) @ self.V.T


# The memo of svd holds at most 16 matrices, two default teachers' 8 expert
# matrices and the most that any benchmark workload factors in one process,
# and only those whose copy and factors take at most 1/16 of 2 MiB (128 KiB),
# so it never keeps more than 2 MiB of them. A default 32x128 expert matrix
# takes 72 KiB.
_SVD_MEMO_ENTRIES = 16
_SVD_MEMO_BYTES = 2 * 2**20


def svd(a) -> SvdFactors:
    """Thin SVD from LAPACK (``np.linalg.svd``), singular values descending.

    A wide matrix (fewer rows than columns) is factored as its transpose,
    with U and V swapped, because LAPACK is faster on the tall orientation:
    ``svd(a)`` of a wide ``a`` holds the bits of ``svd(a.T)`` with its U and
    V exchanged.

    Singular values at or below the numerical-rank tolerance of
    ``np.linalg.matrix_rank`` (largest value times max(m, n) times machine
    epsilon) are set to exact zero, so truncation never keeps rounding noise.
    The numerical rank is the count of nonzero values, which is also
    ``truncation_rank(S, 1.0)`` unless all are zero; ``rank`` counts all.

    The factors of the 16 (``_SVD_MEMO_ENTRIES``) most recently used
    distinct matrices are remembered, keyed by the matrix's shape and exact
    bytes: equal content returns the same factors without a LAPACK call, and
    a matrix changed in place, even by one bit, is factored afresh. A matrix
    whose copy and factors would take more than 1/16 of ``_SVD_MEMO_BYTES``
    (2 MiB) is factored without the memo. The factors may be shared, so U,
    S and V are read-only. A failed factorization is not remembered.

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
    m, n = a.shape
    k = min(m, n)
    # the bytes of the copy and of U (m x k), S (k) and V (n x k)
    if 8 * (m * n + k * (m + n + 1)) > _SVD_MEMO_BYTES // _SVD_MEMO_ENTRIES:
        return _factor(a)
    return _memo(_Content(a))


class _Content:
    """A private copy of a matrix as a key of :func:`svd`'s memo: keys are
    equal when shapes and bytes are. The hash is the XOR of the 64-bit words,
    which any one changed bit changes, at a fraction of the cost of hashing
    the bytes; keys that collide are still told apart by their bytes."""

    __slots__ = ("shape", "data", "_hash")

    def __init__(self, a: np.ndarray):
        self.shape, self.data = a.shape, a.tobytes()
        self._hash = hash((a.shape, int(np.bitwise_xor.reduce(a.view(np.uint64), axis=None))))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self.shape == other.shape and self.data == other.data


@functools.lru_cache(maxsize=_SVD_MEMO_ENTRIES)
def _memo(key: _Content) -> SvdFactors:
    return _factor(np.frombuffer(key.data).reshape(key.shape))


def _factor(a: np.ndarray) -> SvdFactors:
    """:func:`svd`'s LAPACK work on the finite float64 matrix ``a``."""
    m, n = a.shape
    wide = m < n
    try:
        u, s, vt = np.linalg.svd(a.T if wide else a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD of a {m}x{n} matrix failed: {exc}") from exc
    s[s <= s[0] * max(m, n) * np.finfo(np.float64).eps] = 0.0
    f = SvdFactors(U=vt.T, S=s, V=u) if wide else SvdFactors(U=u, S=s, V=vt.T)
    for t in (f.U, f.S, f.V):
        t.flags.writeable = False
    return f


def truncation_rank(s: np.ndarray, ratio: float) -> int:
    """Size of the smallest leading set of the descending singular values
    ``s`` whose mass reaches ``ratio`` of the total.

    An all-zero spectrum keeps one value, since its first cumulative mass
    already reaches the target 0.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must lie in (0, 1], got {ratio}")
    cum = np.cumsum(s)
    # First index whose cumulative mass reaches the target; the total is taken
    # from the same cumulative sum so ratio=1.0 is exact in floating point.
    return min(int(np.searchsorted(cum, ratio * float(cum[-1]), side="left")) + 1, s.size)


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
