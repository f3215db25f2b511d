"""Working precision and the repo-wide numerical rank policy.

Every SVD in the package is one primitive, :func:`_svd`, and every rank
decision, pseudoinverse truncations included, takes one policy: count the
singular values above ``max(rows, cols) * eps * sigma_max`` unless the caller
supplies an explicit tolerance; ``eps`` is the double-precision unit
roundoff :data:`EPS`.  A decision that only needs the rank,
:func:`numerical_rank`, takes the values-only SVD and forms no singular
vectors.  :func:`_svd` refuses non-finite input with :class:`ShapeError`
before LAPACK sees it: a full SVD of it may never return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

EPS = float(np.finfo(float).eps)
BORDERLINE_WINDOW = 32.0


def rank_tolerance(shape, sigma_max) -> float:
    """Default threshold: ``max(shape) * EPS * sigma_max``."""
    dim = max(int(shape[0]), int(shape[1]), 1)
    return dim * EPS * float(sigma_max)


@dataclass
class RankDecision:
    """Record of one numerical rank decision.

    ``is_borderline`` flags decisions where some singular value sits within a
    factor :data:`BORDERLINE_WINDOW` of the threshold, i.e. where a slightly
    different tolerance would have changed the outcome.
    """

    context: str
    shape: tuple[int, int]
    singular_values: np.ndarray
    rank: int
    tolerance: float

    def is_borderline(self) -> bool:
        s = np.asarray(self.singular_values, dtype=float)
        if s.size == 0 or self.tolerance == 0.0:
            return False
        lo = self.tolerance / BORDERLINE_WINDOW
        hi = self.tolerance * BORDERLINE_WINDOW
        return bool(np.any((s >= lo) & (s <= hi)))

    def to_json(self) -> dict:
        return {
            "context": self.context,
            "shape": [int(self.shape[0]), int(self.shape[1])],
            "singular_values": [float(x) for x in self.singular_values],
            "rank": int(self.rank),
            "tolerance": float(self.tolerance),
            "borderline": self.is_borderline(),
        }


def _decide_rank(s, shape, tol, context, log) -> int:
    """The rank policy: count the singular values ``s`` above ``tol``, or
    else above :func:`rank_tolerance` at ``s[0]``, and append the decision to
    ``log`` when one is given.  An explicit ``tol`` must be finite and >= 0:
    a NaN one would read every rank as 0."""
    if tol is not None:
        used_tol = _finite_nonnegative(tol, "tol")
    elif s.size == 0:
        used_tol = 0.0
    else:
        used_tol = rank_tolerance(shape, s[0])
    rank = int(np.sum(s > used_tol))
    if log is not None:
        log.append(RankDecision(context, shape, np.array(s, copy=True), rank, used_tol))
    return rank


def _finite_nonnegative(value, name) -> float:
    """``value`` as a float, or :class:`ShapeError` unless finite and >= 0."""
    value = float(value)
    if not 0.0 <= value < math.inf:
        raise ShapeError(f"{name} must be nonnegative and finite, got {value}")
    return value


def _require_finite(M: np.ndarray) -> None:
    # sum |m|^2 is finite only when every entry is; one BLAS dot costs a
    # quarter of an elementwise test, which runs only when the sum overflows
    if not math.isfinite(abs(np.vdot(M, M))) and not np.isfinite(M).all():
        raise ShapeError("input has a non-finite (inf or NaN) entry")


def _svd(M, vectors=True):
    """Full SVD ``(s, U, V)`` of ``M`` with ``M = U diag(s) V^H``, ``U`` and
    ``V`` unitary; an empty ``M`` has no singular values and identity
    factors.  With ``vectors=False`` only the descending singular values
    ``s`` are computed and returned.  A stack ``(..., rows, cols)`` gives
    the SVD of each matrix, stacked the same way.  A non-finite ``M``
    raises :class:`ShapeError`."""
    M = np.asarray(M)
    _require_finite(M)
    if M.size == 0:
        *batch, rows, cols = M.shape
        s = np.zeros((*batch, min(rows, cols)))
        if not vectors:
            return s
        U, V = (np.broadcast_to(np.eye(k, dtype=complex), (*batch, k, k)).copy()
                for k in (rows, cols))
        return s, U, V
    if not vectors:
        return np.linalg.svd(M, compute_uv=False)
    U, s, Vh = np.linalg.svd(M, full_matrices=True)
    return s, U, np.swapaxes(Vh, -1, -2).conj()


def _matrix(M, dtype=None) -> np.ndarray:
    """``M`` as an array, or :class:`ShapeError` unless it is 2-d."""
    M = np.asarray(M, dtype=dtype)
    if M.ndim != 2:
        raise ShapeError(f"expected a matrix, got an array of shape {M.shape}")
    return M


def svd_with_rank(M, tol=None, context="", log=None):
    """Full SVD of ``M`` plus a rank decision under the repo policy.

    Returns ``(rank, s, U, V)`` with ``U`` (m x m) and ``V`` (n x n) unitary.
    An explicit ``tol`` replaces the default tolerance.  The decision is
    appended to ``log`` when one is given.  An ``M`` that is not 2-d or not
    finite raises :class:`ShapeError`.
    """
    M = _matrix(M)
    s, U, V = _svd(M)
    rank = _decide_rank(s, M.shape, tol, context, log)
    return rank, s, U, V


def numerical_rank(M, tol=None, context="", log=None) -> int:
    """Rank of ``M`` under the policy of :func:`svd_with_rank`, from the
    singular values alone: no singular vectors are formed."""
    M = _matrix(M)
    return _decide_rank(_svd(M, vectors=False), M.shape, tol, context, log)


def pseudoinverse(M, tol=None, context="", log=None):
    """Pseudoinverse of ``M`` on its numerical rank under the policy, and
    with the refusals, of :func:`svd_with_rank`."""
    M = _matrix(M, dtype=complex)
    s, U, V = _svd(M)
    r = _decide_rank(s, M.shape, tol, context, log)
    return (V[:, :r] / s[:r]) @ U[:, :r].conj().T
