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

Every QZ is one :class:`_QZ`, an eigenvalues-only ``zggev`` built and read
on the caller's thread; :meth:`_QZ.start` may hand the call alone to the
daemon thread ``bklab-qz`` (:class:`_QZThread`) while the caller goes on.
"""

from __future__ import annotations

import ctypes
import os
import threading
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (ConvergenceError, EigenstructureShiftError,
                     InconclusiveError, ShapeError)
from .matpoly import (CACHE_SIZE, _TINY, MatrixPolynomial, _divide,
                      as_pencil, convolution)
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
        # equal keys (-0.0 and 0.0 among them) share the first one's entry
        grouped = Counter((float(lam.real), float(lam.imag)) for lam in self.finite)
        return {
            "finite": [[re, im, mult] for (re, im), mult in grouped.items()],
            "infinite": [int(k) for k in self.infinite],
            "right": [int(k) for k in self.right],
            "left": [int(k) for k in self.left],
            "rank_log": [d.to_json() for d in self.rank_log],
        }


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
    """Largest numerical rank of ``Q`` at three fixed points, drawn once from
    ``default_rng(2718281828)``; stops early at ``min(rows, cols)``."""
    best = 0
    for lam in (0.17219268427860204 + 0.753394448555786j,
                0.31218207640579637 + 0.17403464375530028j,
                -0.24363929005980123 + 2.3360229135138777j):
        best = max(best, numerical_rank(Q.eval(lam), tol=tol))
        if best == min(Q.rows, Q.cols):
            break
    return best


# the ILP64 zggev of the OpenBLAS that numpy's wheels link: numpy >= 2
# (scipy-openblas64) and numpy 1.2x (openblas64_)
NUMPY_ZGGEV_NAMES = ("scipy_zggev_64_", "zggev_64_")


class _Ilp64Zggev:
    """An ILP64 Fortran ``zggev`` asked for eigenvalues only: ``(a, b,
    lwork=...)`` returns ``(alpha, beta, work, info)``, the outputs of
    scipy's ``zggev`` without the eigenvectors, and ``lwork = -1`` is a
    workspace query whose answer is ``work[0]``.  LAPACK overwrites ``a``
    and ``b`` when they are writeable Fortran-ordered complex arrays, as
    scipy's does with ``overwrite_a = overwrite_b = 1``; any other operand
    is copied first."""

    def __init__(self, function, library):
        # JOBVL, JOBVR, then the 15 array and integer arguments, then the
        # lengths of the two strings, which gfortran passes last
        function.argtypes = ([ctypes.c_char_p] * 2 + [ctypes.c_void_p] * 15
                             + [ctypes.c_size_t] * 2)
        function.restype = None
        self.function, self.library = function, library

    def __repr__(self):
        return f"<{self.function.__name__} of {self.library}>"

    def __call__(self, a, b, lwork):
        a = np.require(a, complex, ["F", "W"])
        b = np.require(b, complex, ["F", "W"])
        n = len(a)
        # LAPACK reads n x n from each pointer
        if a.shape != (n, n) or b.shape != (n, n):
            raise ShapeError(f"zggev needs two square matrices of one order, "
                             f"got {a.shape} and {b.shape}")
        # ALPHA, BETA, one entry for the VL and VR that JOBVL = JOBVR = 'N'
        # never reference, WORK, then RWORK's 8n reals as 4n complex entries
        work, rwork = 2 * n + 1, 2 * n + 1 + max(lwork, 1)
        out = np.empty(rwork + 4 * n, dtype=complex)
        # N, LDA, LDB, LDVL = LDVR, LWORK, INFO
        ints = np.array([n, max(n, 1), max(n, 1), 1, lwork, 0], dtype=np.int64)
        o, i = out.ctypes.data, ints.ctypes.data
        n_, lda, ldb, ldv, lwork_, info = (i + 8 * k for k in range(6))
        self.function(b"N", b"N", n_, a.ctypes.data, lda, b.ctypes.data, ldb,
                      o, o + 16 * n, o + 32 * n, ldv, o + 32 * n, ldv,
                      o + 16 * work, lwork_, o + 16 * rwork, info, 1, 1)
        return out[:n], out[n:2 * n], out[work:rwork], int(ints[5])


@lru_cache(maxsize=None)
def _zggev():
    """The eigenvalues-only ``zggev(a, b, lwork=...)`` QZ calls: the one
    numpy's own LAPACK exports under a name of ``NUMPY_ZGGEV_NAMES``, so QZ
    maps no second BLAS and loads no scipy, or else scipy's ``zggev``
    without eigenvectors, imported here (MKL, Accelerate and Windows builds
    of numpy export neither name)."""
    path = _umath_linalg.__file__
    # dlsym on the extension searches the libraries it links
    library = ctypes.CDLL(path)
    for name in NUMPY_ZGGEV_NAMES:
        function = getattr(library, name, None)
        if function is not None:
            return _Ilp64Zggev(function, path)
    from scipy.linalg.lapack import zggev
    return partial(zggev, compute_vl=0, compute_vr=0)


@lru_cache(maxsize=CACHE_SIZE)
def _zggev_lwork(n: int) -> int:
    """The optimal ``zggev`` workspace for order ``n`` without eigenvectors,
    queried once per order: LAPACK sizes it from ``n`` alone, and any other
    ``lwork`` could change its blocking and so the eigenvalues' bits."""
    z = np.zeros((n, n), dtype=complex)
    return int(_zggev()(z, z, lwork=-1)[-2][0].real)


# _QZ.start hands a QZ to bklab-qz from this order on: at 21 the thread
# breaks even, below it the hand-off costs more than the overlap
# saves (the measurements are in README, "The eigen check")
QZ_THREAD_MIN_ORDER = 21


class _QZ:
    """bklab's one QZ: an eigenvalues-only ``zggev`` of a square pencil ``A
    + lambda*B`` handed in as ``(A^H, B^H)``, the staircase core's
    orientation.  QZ of ``A^H + lambda*B^H`` gives the conjugate spectrum,
    so :meth:`structure` conjugates each finite eigenvalue back; one whose
    ``beta`` is negligible, ``|beta| <= 10 EPS hypot(|alpha|, |beta|)``, is
    a degree-1 divisor at infinity with a ``core:qz-beta`` log entry.

    It is built on the caller's thread, which also resolves the binding and
    the workspace.  :meth:`start` may hand the call to the daemon thread
    ``bklab-qz``, which sets ``done`` once it is made; :meth:`structure`
    makes it inline if it was not handed over, and reads its outputs on the
    caller's thread either way.
    """

    def __init__(self, A_h, B_h):
        # det(A^H + lam*B^H) = 0 is LAPACK's det(beta A^H - alpha (-B^H)) = 0
        # at (lam, 1), solved in the workspace scipy.linalg.eig would query;
        # both operands are new arrays, which LAPACK overwrites
        self.a = np.array(A_h, dtype=complex, order="F")
        self.b = np.negative(B_h, dtype=complex, order="F")
        self.zggev, self.lwork = _zggev(), _zggev_lwork(len(self.a))
        # (outputs, exception) once made; done is an Event once handed over
        self.outcome = self.started = self.done = None

    def run(self):
        """Make the call, keeping what it returns or raises."""
        try:
            self.outcome = self.zggev(self.a, self.b, lwork=self.lwork), None
        except BaseException as error:
            self.outcome = None, error

    @classmethod
    def of(cls, pencil):
        """The QZ of a whole square pencil, as ``(M0^H, M1^H)``."""
        return cls(pencil.M0.conj().T, pencil.M1.conj().T)

    @classmethod
    def start(cls, pencil):
        """``_QZ.of(pencil)``, built first so that a failed build holds no
        thread, handed to ``bklab-qz`` once it is about to call (it then
        takes the GIL at once, not after ``sys.getswitchinterval()``);
        ``None`` for a pencil not square or below ``QZ_THREAD_MIN_ORDER``,
        on one usable CPU, or with a call in flight."""
        if (pencil.rows != pencil.cols or pencil.rows < QZ_THREAD_MIN_ORDER
                or _usable_cpus() < 2):
            return None
        qz = cls.of(pencil)
        thread = _running_qz_thread()
        if not thread.idle.acquire(blocking=False):
            return None
        qz.started, qz.done = threading.Event(), threading.Event()
        thread.job = qz
        thread.handed.release()
        qz.started.wait()
        return qz

    def structure(self) -> Eigenstructure:
        """The eigenstructure of ``A + lambda*B``.  What the binding raised
        is raised here, and QZ failure raises ConvergenceError."""
        if self.done is None:  # not handed over
            self.run()
        else:
            self.done.wait()
        outputs, error = self.outcome
        if error is not None:
            raise error
        alpha, beta, *_, info = outputs
        if info != 0:
            raise ConvergenceError(
                f"QZ failed: LAPACK zggev returned info {info}")
        size = np.abs(beta)
        threshold = 10.0 * EPS * np.hypot(np.abs(alpha), size)
        infinite = size <= threshold
        alpha, beta = alpha[~infinite], beta[~infinite]
        # 1 / beta overflows; alpha / beta elsewhere keeps scipy's bits
        if np.any(size[~infinite] < _TINY):
            peak = np.maximum(np.abs(alpha), size[~infinite])
            alpha, beta = _divide(alpha, peak), _divide(beta, peak)
        return Eigenstructure(
            finite=(alpha / beta).conj().tolist(),
            infinite=[1] * int(infinite.sum()),
            rank_log=[RankDecision("core:qz-beta", (1, 1), np.array([b]), 0,
                                   float(t))
                      for b, t in zip(size[infinite], threshold[infinite])],
        )


class _QZThread:
    """The daemon thread ``bklab-qz`` and its one-job slot.  ``idle`` is
    held from a :meth:`_QZ.start` that hands a call over until the call
    returns, so at most one is ever in flight; ``handed`` is released once
    for each call handed over, which waits in ``job``."""

    def __init__(self):
        self.idle, self.handed = threading.Lock(), threading.Lock()
        self.handed.acquire()
        self.job = None
        threading.Thread(target=self._serve, name="bklab-qz",
                         daemon=True).start()

    def _serve(self):
        while True:
            self.handed.acquire()
            qz, self.job = self.job, None
            qz.started.set()
            qz.run()
            self.idle.release()
            qz.done.set()


_qz_thread: _QZThread | None = None
_QZ_THREAD_START = threading.Lock()


def _running_qz_thread() -> _QZThread:
    """This process's ``bklab-qz``, started on first use."""
    global _qz_thread
    with _QZ_THREAD_START:
        if _qz_thread is None:
            _qz_thread = _QZThread()
        return _qz_thread


def _forget_qz_thread():
    """In a forked child, which has the parent's thread object but not its
    thread, and a copy of the start lock that another of the parent's
    threads may have held at the fork: a fresh start."""
    global _qz_thread, _QZ_THREAD_START
    _qz_thread, _QZ_THREAD_START = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # no fork on Windows
    os.register_at_fork(after_in_child=_forget_qz_thread)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity outside Linux
        return os.cpu_count() or 1


def generalized_eigenvalues(pencil):
    """Finite eigenvalue list and infinite eigenvalue count of a regular pencil.

    :meth:`_QZ.of` the pencil, so it agrees bit for bit with the staircase
    when that finds ``M1`` of full rank; an eigenvalue is infinite when its
    ``beta`` is negligible against ``(alpha, beta)``.
    """
    pencil = as_pencil(pencil)
    _require_finite(pencil.coeff_stack)
    if pencil.rows != pencil.cols:
        raise ShapeError("generalized eigenvalues need a square pencil")
    if _normal_rank(pencil) < pencil.rows:
        raise ShapeError("singular pencil: use staircase_eigenstructure")
    if pencil.rows == 0:
        return [], 0
    core = _QZ.of(pencil).structure()
    return core.finite, len(core.infinite)


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
    if tol is None:
        # max(dim)^3 * eps * scale: the cubic factor absorbs the error the
        # successive deflation stages accumulate and amplify.  The scale is
        # the larger spectral norm of the two coefficients, zero when empty.
        scale = float(max(_svd(A, vectors=False).max(initial=0.0),
                          svd_B[0].max(initial=0.0)))
        dim = max(A.shape[0], A.shape[1], 1)
        threshold = dim ** 3 * EPS * scale
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

    if A2h.shape[0] != A2h.shape[1]:
        raise ShapeError(
            f"staircase core is not square ({A2h.shape}); inconsistent rank "
            "decisions, try an explicit tolerance")
    # The staircase certified the core's leading coefficient as full rank,
    # so an infinite eigenvalue of its QZ is a borderline artifact.
    core = _QZ(A2h, B2h).structure() if A2h.shape[0] > 0 else Eigenstructure()
    return Eigenstructure(
        finite=core.finite,
        infinite=sorted(infinite + core.infinite),
        right=sorted(right),
        left=sorted(left),
        rank_log=log + core.rank_log,
    )


def _unit(v: np.ndarray) -> np.ndarray:
    """The columns of the stack ``v`` scaled to unit 2-norm, through their
    largest entry first so that no square overflows; a column with an inf
    entry becomes NaN."""
    v = _divide(v, np.abs(v).max(axis=1, keepdims=True))
    return v / np.linalg.norm(v, axis=1, keepdims=True)  # norms are >= 1


def _smallest_pairs(values: np.ndarray, scale: np.ndarray):
    """``(sigma, x, y)`` for each matrix ``A`` of the square stack
    ``values``, by one step of inverse iteration on ``A^H A`` from a fixed
    start vector ``b``: ``y = A^{-H} b / ||A^{-H} b||``, ``x = A^{-1} y /
    ||A^{-1} y||`` and ``sigma = ||A x||``, two batched LU solves and no
    singular vectors.  In exact arithmetic ``A x`` is parallel to ``y``.
    Whatever the roundoff in ``x``, ``sigma`` is the residual of a unit
    vector, so it bounds ``sigma_min(A)`` from above.

    A zero pivot (an ``A`` exactly singular in floating point) fails the
    whole batch; the solves are then taken again with every ``A`` shifted
    by ``EPS * scale`` times the identity, as inverse iteration perturbs a
    zero pivot, and ``sigma`` is still read from the unshifted ``A``.
    ``None`` when those solves meet a zero pivot too, or when a solve
    overflows.
    """
    count, n, _ = values.shape
    # unit entries in distinct phases: b is orthogonal to no coordinate
    # vector and to no difference of two, null vectors that structured
    # matrices tend to have
    b = np.broadcast_to(np.exp(1j * np.arange(n))[:, None], (count, n, 1))
    for shift in (0.0, EPS):
        M = values + shift * scale[:, None, None] * np.eye(n) if shift else values
        try:
            with np.errstate(all="ignore"):
                y = _unit(np.linalg.solve(M.conj().transpose(0, 2, 1), b))
                x = _unit(np.linalg.solve(M, y))
                sigma = np.linalg.norm(values @ x, axis=(1, 2))
        except np.linalg.LinAlgError:
            continue
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            return None
        return sigma, x[..., 0], y[..., 0]
    return None


def _certify_eigenvalues(Q: MatrixPolynomial, structure: Eigenstructure,
                         tol: float, rank: int):
    """Certify the eigenvalues of ``structure`` as eigenvalues of ``Q``.

    Each eigenvalue is the point ``(alpha, beta)``, ``|alpha|^2 + |beta|^2 =
    1``, with ``(1, 0)`` for the infinite ones, and ``Q`` is evaluated there
    in homogeneous form, ``Q(alpha, beta) = sum_k alpha^k beta^(d-k) Q_k``,
    in one product of the weights with the coefficient stack.  When
    ``structure`` has no minimal indices and ``Q`` is square of full normal
    rank, :func:`_smallest_pairs` takes one step of inverse iteration at
    every point: a unit vector ``x``, its residual ``sigma = ||Q(alpha,
    beta) x||`` and a unit left vector ``y``.  The backward error ``sigma /
    (||Q||_F ||(alpha^k beta^(d-k))_k||_2)`` is that of the computed
    eigenpair, which bounds the eigenvalue's backward error (Tisseur, LAA
    309 (2000)) from above.  The first-order chordal distance to an
    eigenvalue of ``Q`` is ``sigma / |y^H (conj(beta) dQ/dalpha -
    conj(alpha) dQ/dbeta) x|`` (Dedieu and Tisseur, LAA 358 (2003)).  In
    every other case (minimal indices, a singular or rectangular ``Q``, or
    solves that give no finite pair) ``sigma`` is the ``r``-th singular
    value of ``Q(alpha, beta)`` from one values-only batched SVD, with
    ``r = rank``, the normal rank of ``Q``, and the eigenvalues are not
    certified.

    Returns ``(eta, distance)``: the largest backward error, ``None`` when
    it is not finite, and the largest distance over the finite eigenvalues,
    ``None`` unless the eigenvalues are certified.  They are when the
    inverse iteration gave its pairs, every finite eigenvalue lies more
    than ``2 tol`` from every other eigenvalue and from infinity, and every
    distance is at most ``tol``.  Then the discs of radius ``tol`` around
    the finite eigenvalues are disjoint and each holds its own finite
    eigenvalue of ``Q``: the one-to-one pairing a chordal match of the two
    spectra looks for.  The infinite eigenvalues are covered by their
    backward error alone.
    """
    finite = np.array(structure.finite, dtype=complex)
    beta = 1.0 / np.hypot(np.abs(finite), 1.0)
    alpha = finite * beta
    if structure.infinite:
        alpha, beta = np.append(alpha, 1.0), np.append(beta, 0.0)
    points, d = alpha.size, Q.grade
    if points == 0 or rank == 0:
        return (0.0 if rank else None), None
    # alpha^k and beta^k for k = 0 .. d, by repeated products
    a_pow = np.ones((points, d + 1), dtype=complex)
    b_pow = np.ones((points, d + 1), dtype=complex)
    for j in range(1, d + 1):
        a_pow[:, j] = a_pow[:, j - 1] * alpha
        b_pow[:, j] = b_pow[:, j - 1] * beta
    k, zero = np.arange(d + 1), np.zeros((points, 1))
    weights = a_pow * b_pow[:, ::-1]
    # the derivatives of alpha^k beta^(d-k) in alpha and in beta
    d_alpha = k * np.hstack([zero, a_pow[:, :-1]]) * b_pow[:, ::-1]
    d_beta = (d - k) * a_pow * np.hstack([b_pow[:, -2::-1], zero])
    tangent = beta[:, None] * d_alpha - alpha.conj()[:, None] * d_beta
    values = (np.vstack([weights, tangent])
              @ Q.coeff_stack.reshape(d + 1, -1)).reshape(-1, Q.rows, Q.cols)
    scale = Q.frobenius_norm() * np.linalg.norm(weights, axis=1)
    pairs = None
    if not (structure.right or structure.left) and rank == Q.rows == Q.cols:
        pairs = _smallest_pairs(values[:points], scale)
    if pairs is not None:
        sigma, x, y = pairs
    else:
        try:
            sigma = _svd(values[:points], vectors=False)[:, rank - 1]
        except ShapeError:  # a non-finite evaluation
            return None, None
    eta = float(np.max(sigma / scale))
    eta = eta if np.isfinite(eta) else None
    if pairs is None:
        return eta, None
    count = finite.size
    if count:
        gaps = chordal_distance(finite[:, None], np.append(finite, np.inf))
        gaps[np.arange(count), np.arange(count)] = np.inf
        if not gaps.min() > 2.0 * tol:
            return eta, None
    slope = np.abs(np.einsum("ia,iab,ib->i", y[:count].conj(),
                             values[points:points + count], x[:count]))
    with np.errstate(divide="ignore", invalid="ignore"):
        distance = float(np.max(sigma[:count] / slope, initial=0.0))
    if not distance <= tol:  # also when a slope vanishes
        return eta, None
    return eta, distance


def _certified_structure(pencil, Q: MatrixPolynomial, tol: float, qz=None):
    """``(structure, eta, distance)``: the eigenstructure of ``pencil``, a
    linearization of ``Q``, and :func:`_certify_eigenvalues` of it against
    ``Q``.  When ``Q`` is square of full normal rank, QZ's answer, bit for
    bit the staircase's when it finds ``M1`` of full rank, stands if it
    reads no infinite eigenvalue (whose backward error alone would pass a
    singular ``pencil``) and is certified; otherwise the staircase's does,
    with ``distance`` ``None`` unless certified.  That QZ is ``qz``, what
    :meth:`_QZ.start` returned for ``pencil``, or else ``_QZ.of(pencil)``;
    a started one goes unread, failed or not, when ``Q`` is not."""
    rank = _normal_rank(Q)
    if rank == Q.rows == Q.cols:
        core = (qz or _QZ.of(pencil)).structure()
        if not core.infinite:
            eta, distance = _certify_eigenvalues(Q, core, tol, rank)
            if distance is not None:
                return core, eta, distance
    structure = staircase_eigenstructure(pencil)
    return (structure, *_certify_eigenvalues(Q, structure, tol, rank))


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

