"""Complete eigenstructure of matrix pencils.

The staircase reduction alternates unitary column compressions of the
leading coefficient with row compressions of the trailing coefficient
restricted to the compressed columns.  One pass extracts the right minimal
indices together with the infinite elementary divisors; a second pass on the
conjugate transpose of the remainder extracts the left minimal indices; QZ on
the square regular core delivers the finite eigenvalues.

Rank decisions inside the staircase use one absolute threshold derived from
the input pencil, ``max(rows, cols)^3 * eps * scale`` with ``scale`` the
pencil's spectral norm: each deflation stage feeds its projection error into
the next, amplified by the inverse of the local singular-value gap, so the
allowance must cover the accumulated error of the whole reduction rather
than a single SVD (the cubic dimension factor was calibrated on the random
singular-product population used by the tests).  Stage-local thresholds
would misread that noise as structure.  Every decision is logged so
borderline outcomes are diagnosable; the problem is intrinsically ill-posed
and a tolerance-free answer does not exist.  Non-finite input raises
:class:`ShapeError` before any LAPACK call.
"""

from __future__ import annotations

import ctypes
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (ConvergenceError, EigenstructureShiftError,
                     InconclusiveError, ShapeError)
from .matpoly import (CACHE_SIZE, MatrixPolynomial, _json_count,
                      _json_fields, as_pencil, convolution)
from .tolerances import (EPS, RankDecision, _decide_rank, _require_finite,
                         _svd, numerical_rank, svd_with_rank)


@dataclass
class Eigenstructure:
    """Finite eigenvalues (with multiplicity, one list entry each), infinite
    elementary divisor degrees, and sorted left/right minimal indices."""

    finite: list[complex] = field(default_factory=list)
    infinite: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    rank_log: list[RankDecision] = field(default_factory=list)

    def index_sum(self) -> int:
        return len(self.finite) + sum(self.infinite) + sum(self.right) + sum(self.left)

    def has_borderline_decision(self) -> bool:
        return any(d.is_borderline() for d in self.rank_log)

    def to_json(self) -> dict:
        grouped: list[list[float]] = []
        for lam in self.finite:
            for entry in grouped:
                if entry[0] == lam.real and entry[1] == lam.imag:
                    entry[2] += 1
                    break
            else:
                grouped.append([float(lam.real), float(lam.imag), 1])
        return {
            "finite": [[re, im, int(mult)] for re, im, mult in grouped],
            "infinite": [int(k) for k in self.infinite],
            "right": [int(k) for k in self.right],
            "left": [int(k) for k in self.left],
            "rank_log": [d.to_json() for d in self.rank_log],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Eigenstructure":
        """The structure of :meth:`to_json` without its rank log; a missing
        list is empty, and any other value, a non-finite ``re`` or ``im``
        among them, raises :class:`ShapeError`."""
        _json_fields(obj, "an eigenstructure")
        parts = {key: obj.get(key, [])
                 for key in ("finite", "infinite", "right", "left")}
        for key, values in parts.items():
            if not isinstance(values, list):
                raise ShapeError(f"{key!r} must be a list, got "
                                 f"{type(values).__name__}")
            for v in values:
                name = f"an entry of {key!r}"
                if key == "finite":
                    if not (isinstance(v, list) and len(v) == 3 and all(
                            type(x) in (int, float) for x in v[:2])):
                        raise ShapeError("'finite' entries must be [re, im, "
                                         f"multiplicity], got {v!r:.40}")
                    # also refuses an integer beyond the float range
                    if not all(abs(x) <= sys.float_info.max for x in v[:2]):
                        raise ShapeError("a 'finite' entry has a non-finite "
                                         f"(inf or NaN) re or im: {v!r:.40}")
                    v, name = v[2], "a multiplicity in 'finite'"
                _json_count(v, name)
        return cls(
            finite=[complex(re, im) for re, im, mult in parts["finite"]
                    for _ in range(mult)],
            infinite=list(parts["infinite"]),
            right=list(parts["right"]),
            left=list(parts["left"]),
        )


def chordal_distance(a, b):
    """Distance on the Riemann sphere, elementwise over broadcast arrays.

    In the homogeneous coordinates ``(z, 1) / ||(z, 1)||``, and ``(1, 0)``
    for ``inf``, it is ``|a1 b2 - a2 b1|``: ``|a - b| a2 b2`` when finite."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    a_inf, b_inf = np.isinf(a), np.isinf(b)
    a, b = np.where(a_inf, 0.0, a), np.where(b_inf, 0.0, b)
    a2, b2 = 1.0 / np.hypot(np.abs(a), 1.0), 1.0 / np.hypot(np.abs(b), 1.0)
    return np.where(a_inf, np.where(b_inf, 0.0, b2),
                    np.where(b_inf, a2, np.abs(a - b) * a2 * b2))[()]


def match_eigenvalues(first, second) -> float:
    """Largest chordal distance in a minimal-cost pairing of two multisets,
    solved by ``scipy.optimize.linear_sum_assignment``.

    Raises :class:`ShapeError` when the multisets have different sizes or
    an entry is NaN.  ``scipy.optimize`` is imported on the first match of
    two non-empty multisets, so matching empty spectra loads no scipy.
    """
    first = np.asarray(list(first), dtype=complex)
    second = np.asarray(list(second), dtype=complex)
    if len(first) != len(second):
        raise ShapeError(
            f"cannot match multisets of sizes {len(first)} and {len(second)}"
        )
    if not first.size:
        return 0.0
    cost = chordal_distance(first[:, None], second[None, :])
    if not np.all(np.isfinite(cost)):
        raise ShapeError("cannot match eigenvalues with a NaN entry")
    from scipy.optimize import linear_sum_assignment
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def _normal_rank(Q: MatrixPolynomial, tol=None) -> int:
    """Largest numerical rank of ``Q`` over three seeded random points;
    stops early once the rank reaches ``min(rows, cols)``."""
    rng = np.random.default_rng(2718281828)
    best = 0
    for _ in range(3):
        lam = complex(rng.standard_normal(), rng.standard_normal())
        best = max(best, numerical_rank(Q.eval(lam), tol=tol))
        if best == min(Q.rows, Q.cols):
            break
    return best


# the ILP64 zggev of the OpenBLAS that numpy's wheels link: numpy >= 2
# (scipy-openblas64) and numpy 1.2x (openblas64_)
NUMPY_ZGGEV_NAMES = ("scipy_zggev_64_", "zggev_64_")


class _Ilp64Zggev:
    """An ILP64 Fortran ``zggev`` called in the convention of scipy's
    ``_flapack.zggev``: ``(a, b, compute_vl, compute_vr, lwork)`` returns
    ``(alpha, beta, vl, vr, work, info)``, and ``lwork = -1`` is a
    workspace query whose answer is ``work[0]``."""

    def __init__(self, function, library):
        pointer = ctypes.c_void_p
        # JOBVL, JOBVR, then the 15 array and integer arguments, then the
        # lengths of the two strings, which gfortran passes last
        function.argtypes = ([ctypes.c_char_p] * 2 + [pointer] * 15
                             + [ctypes.c_size_t] * 2)
        function.restype = None
        self.function, self.library = function, library

    def __repr__(self):
        return f"<{self.function.__name__} of {self.library}>"

    def __call__(self, a, b, compute_vl, compute_vr, lwork):
        a = np.array(a, dtype=complex, order="F")
        b = np.array(b, dtype=complex, order="F")
        n = len(a)
        # LAPACK reads n x n from each pointer
        if a.shape != (n, n) or b.shape != (n, n):
            raise ShapeError(f"zggev needs two square matrices of one order, "
                             f"got {a.shape} and {b.shape}")
        ldvl, ldvr = (n if compute_vl else 1), (n if compute_vr else 1)
        alpha, beta = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
        vl = np.zeros((ldvl, n), dtype=complex, order="F")
        vr = np.zeros((ldvr, n), dtype=complex, order="F")
        work = np.empty(max(lwork, 1), dtype=complex)
        rwork = np.empty(max(8 * n, 1))
        # N, LDA, LDB, LDVL, LDVR, LWORK, INFO
        ints = np.array([n, max(n, 1), max(n, 1), ldvl, ldvr, lwork, 0],
                        dtype=np.int64)
        n_, lda, ldb, ldvl_, ldvr_, lwork_, info = (
            ints.ctypes.data + 8 * k for k in range(7))
        self.function(b"V" if compute_vl else b"N",
                      b"V" if compute_vr else b"N", n_,
                      a.ctypes.data, lda, b.ctypes.data, ldb,
                      alpha.ctypes.data, beta.ctypes.data,
                      vl.ctypes.data, ldvl_, vr.ctypes.data, ldvr_,
                      work.ctypes.data, lwork_, rwork.ctypes.data, info, 1, 1)
        return alpha, beta, vl, vr, work, int(ints[6])


@lru_cache(maxsize=None)
def _zggev():
    """The ``zggev`` that :func:`_qz` calls, in the convention of
    ``scipy.linalg.lapack.zggev``: the one numpy's own LAPACK exports under a
    name of ``NUMPY_ZGGEV_NAMES``, so QZ maps no second BLAS and loads no
    scipy, or else ``scipy.linalg.lapack.zggev`` itself, imported here (MKL,
    Accelerate and Windows builds of numpy export neither name)."""
    path = _umath_linalg.__file__
    # dlsym on the extension searches the libraries it links
    library = ctypes.CDLL(path)
    for name in NUMPY_ZGGEV_NAMES:
        function = getattr(library, name, None)
        if function is not None:
            return _Ilp64Zggev(function, path)
    from scipy.linalg.lapack import zggev
    return zggev


@lru_cache(maxsize=CACHE_SIZE)
def _zggev_lwork(n: int) -> int:
    """The optimal ``zggev`` workspace for order ``n`` without eigenvectors,
    queried once per order: LAPACK sizes it from ``n`` alone."""
    z = np.zeros((n, n), dtype=complex)
    return int(_zggev()(z, z, 0, 0, -1)[-2][0].real)


def _qz(A, B):
    """QZ eigenvalues of ``A + lambda*B`` in homogeneous form, split by the
    rule ``|beta| <= 10 EPS hypot(|alpha|, |beta|)`` for an infinite one.

    Returns the finite eigenvalues in QZ order and, for each infinite one,
    the pair ``(|beta|, threshold)``; a QZ failure raises ConvergenceError.
    """
    # det(A + lam*B) = 0 is LAPACK's det(beta A - alpha (-B)) = 0 at (lam, 1),
    # solved without eigenvectors by one zggev call in the workspace
    # scipy.linalg.eig would query
    alpha, beta, _, _, _, info = _zggev()(A, -B, 0, 0, _zggev_lwork(len(A)))
    if info != 0:
        raise ConvergenceError(f"QZ failed: LAPACK zggev returned info {info}")
    threshold = 10.0 * EPS * np.hypot(np.abs(alpha), np.abs(beta))
    infinite = np.abs(beta) <= threshold
    finite = (alpha[~infinite] / beta[~infinite]).tolist()
    return finite, list(zip(np.abs(beta[infinite]), threshold[infinite]))


def generalized_eigenvalues(pencil):
    """Finite eigenvalue list and infinite eigenvalue count of a regular pencil.

    Implemented through the QZ factorization in homogeneous form; an
    eigenvalue is classified infinite when its ``beta`` is negligible
    against ``(alpha, beta)``.
    """
    pencil = as_pencil(pencil)
    _require_finite(pencil.coeff_stack)
    if pencil.rows != pencil.cols:
        raise ShapeError("generalized eigenvalues need a square pencil")
    if _normal_rank(pencil) < pencil.rows:
        raise ShapeError("singular pencil: use staircase_eigenstructure")
    if pencil.rows == 0:
        return [], 0
    finite, infinite = _qz(pencil.M0, pencil.M1)
    return finite, len(infinite)


def _staircase_pass(A, B, svd_B, threshold, log, label):
    """One staircase pass from ``svd_B``, an SVD ``(s, U, V)`` of ``B`` or
    ``(s, None, None)``; returns stage counts, the deflated remainder and the
    SVD of the remainder's ``B^H``, ``svd_B`` transposed when nothing deflates.

    Stage ``j`` compresses the columns onto ``null(B)`` (``s_j`` of them) and
    the rows onto the range of ``A`` restricted to those columns (``r_j``).
    ``s_j - r_j`` minimal indices of value ``j - 1`` and, after the pass,
    ``r_j - s_{j+1}`` divisors of degree ``j`` at infinity are read off.
    """
    ss, rr = [], []
    A_cur, B_cur = A, B  # only read: every stage forms new products
    stage = 0
    while A_cur.shape[1] > 0:
        stage += 1
        p, q = A_cur.shape
        context = f"{label}:stage{stage}:B"
        if stage == 1:
            s, Ub, Vb = svd_B
            rank_b = _decide_rank(s, (p, q), threshold, context, log)
        else:
            rank_b, s, Ub, Vb = svd_with_rank(
                B_cur, tol=threshold, context=context, log=log)
        s_j = q - rank_b
        if s_j == 0:
            # B_cur = U S V^H, so B_cur^H = V S U^H
            return ss, rr, A_cur, B_cur, (s, Vb, Ub)
        if Vb is None:  # a values-only start found a null space
            _, Ub, Vb = _svd(B_cur)
        V_null = Vb[:, rank_b:]
        V_keep = Vb[:, :rank_b]
        A_null = A_cur @ V_null
        rank_a, _, Ua, _ = svd_with_rank(
            A_null, tol=threshold, context=f"{label}:stage{stage}:A", log=log)
        ss.append(s_j)
        rr.append(rank_a)
        U_rest = Ua[:, rank_a:]
        A_cur = U_rest.conj().T @ A_cur @ V_keep
        B_cur = U_rest.conj().T @ B_cur @ V_keep
    return ss, rr, A_cur, B_cur, _svd(B_cur.conj().T)


def _counts_to_structure(ss, rr):
    minimal, divisors = [], []
    for j in range(1, len(ss) + 1):
        minimal.extend([j - 1] * (ss[j - 1] - rr[j - 1]))
        s_next = ss[j] if j < len(ss) else 0
        divisors.extend([j] * (rr[j - 1] - s_next))
    return minimal, divisors


def staircase_eigenstructure(pencil, tol=None) -> Eigenstructure:
    """Complete eigenstructure of an arbitrary (possibly singular,
    rectangular) pencil ``M0 + lambda*M1`` by unitary staircase reduction."""
    pencil = as_pencil(pencil)
    _require_finite(pencil.coeff_stack)
    A, B = pencil.M0, pencil.M1
    log: list[RankDecision] = []
    # a full-rank square B's vectors go unread; a wide or tall B's are read
    svd_B = ((_svd(B, vectors=False), None, None) if B.shape[0] == B.shape[1]
             else _svd(B))
    # the larger spectral norm of the two coefficients, zero when empty
    scale = float(max(_svd(A, vectors=False).max(initial=0.0),
                      svd_B[0].max(initial=0.0)))
    if tol is None:
        # max(dim)^3 * eps * scale: the cubic factor absorbs the error the
        # successive deflation stages accumulate and amplify.
        dim = max(A.shape[0], A.shape[1], 1)
        threshold = dim ** 3 * EPS * scale if scale > 0.0 else 0.0
    else:
        threshold = float(tol)

    ss, rr, A1, B1, svd_B1h = _staircase_pass(
        A, B, svd_B, threshold, log, "right")
    right, infinite = _counts_to_structure(ss, rr)

    ss2, rr2, A2h, B2h, _ = _staircase_pass(
        A1.conj().T, B1.conj().T, svd_B1h, threshold, log, "left")
    left, leftover = _counts_to_structure(ss2, rr2)
    # All infinite structure is consumed by the first pass; anything the
    # second pass reports came from a near-threshold decision.
    infinite.extend(leftover)

    finite: list[complex] = []
    if A2h.shape[0] != A2h.shape[1]:
        raise ShapeError(
            f"staircase core is not square ({A2h.shape}); inconsistent rank "
            "decisions, try an explicit tolerance")
    if A2h.shape[0] > 0:
        core_finite, negligible = _qz(A2h, B2h)
        # The core pass ran on the conjugate transpose, which conjugates the
        # spectrum.
        finite = [lam.conjugate() for lam in core_finite]
        for beta, threshold in negligible:
            # The staircase certified the core's leading coefficient as full
            # rank, so this is a borderline artifact; keep it as a degree-1
            # divisor at infinity and leave a log entry.
            log.append(RankDecision("core:qz-beta", (1, 1), np.array([beta]),
                                    0, float(threshold)))
            infinite.append(1)
    return Eigenstructure(
        finite=finite,
        infinite=sorted(infinite),
        right=sorted(right),
        left=sorted(left),
        rank_log=log,
    )


def right_minimal_indices_by_convolution(Q: MatrixPolynomial, j_max=None,
                                         tol=None) -> list[int]:
    """Right minimal indices of a matrix polynomial from the nullities of its
    convolution matrices.

    ``nullity(C_j) - nullity(C_{j-1})`` counts the indices that are at most
    ``j``; the scan stops once the count reaches ``cols - rank`` and raises
    :class:`InconclusiveError` if ``j_max`` is hit first.
    """
    _require_finite(Q.coeff_stack)
    total = Q.cols - _normal_rank(Q, tol)
    if total == 0:
        return []
    if j_max is None:
        j_max = Q.cols * max(Q.grade, 1) + 1
    indices: list[int] = []
    prev_nullity = 0
    prev_leq = 0
    for j in range(j_max + 1):
        C = convolution(Q, j)
        rank = numerical_rank(C, tol=tol, context=f"convolution:j={j}")
        nullity = C.shape[1] - rank
        leq = nullity - prev_nullity
        indices.extend([j] * (leq - prev_leq))
        if leq == total:
            return sorted(indices)
        prev_nullity, prev_leq = nullity, leq
    raise InconclusiveError(
        f"scan cap j_max={j_max} reached with {len(indices)} of {total} "
        "right minimal indices found")


def shift_recovery(structure: Eigenstructure, eps: int, eta: int) -> Eigenstructure:
    """Map a linearization's eigenstructure to the polynomial's: right
    minimal indices drop by ``eps``, left ones by ``eta``, eigenvalue content
    is shared.  A negative shift raises :class:`ShapeError`."""
    if eps < 0 or eta < 0:
        raise ShapeError(f"shifts must be nonnegative, got eps = {eps}, "
                         f"eta = {eta}")
    for side, indices, shift in (("right", structure.right, eps),
                                 ("left", structure.left, eta)):
        low = min(indices, default=shift)
        if low < shift:
            raise EigenstructureShiftError(
                f"{side} minimal index {low} is below the shift {shift}")
    return Eigenstructure(
        finite=list(structure.finite),
        infinite=list(structure.infinite),
        right=sorted(i - eps for i in structure.right),
        left=sorted(i - eta for i in structure.left),
        rank_log=list(structure.rank_log),
    )

