"""Finite (not first-order) mapping of pencil perturbations back to
polynomial perturbations, in three steps.

Given a block Kronecker pencil ``L`` of a polynomial ``P`` and a perturbation
``dL`` of the full pencil:

1. **Restore the zero block.**  Solve the quadratic Sylvester-like system for
   constant matrices ``(C, D)`` so that the strict equivalence
   ``[I 0; C I] (L + dL) [I D; 0 I]`` has an exactly zero (2,2) block again.
   Existence and the bound ``||(C,D)|| <= 2 theta / delta`` hold whenever
   ``delta = sigma_min(T) - ||dT||_2 > 0`` and ``theta*omega/delta^2 < 1/4``;
   ``||dT||_2`` enters through a certified upper bound.  The solution is the
   limit of ``x <- T^+ (b + q(x) - dT x)`` from ``x = 0``, with ``T^+``
   applied blockwise through the scalar ``T(eps, eta, 1, 1)``; no operator
   whose size grows with ``m n`` is formed.
2. **Repair the dual bases.**  The perturbed antidiagonal blocks are still
   minimal bases below an explicit radius; their perturbed duals
   ``Lambda + dR`` are the limit of ``dR <- -S^+ C_0(dLtilde_21 (Lambda +
   dR))`` from ``dR = 0``, one per side, where ``C_eps(L_eps (x) I_n) = S (x)
   I_n`` on coefficient stacks and ``S = C_eps(L_eps)`` is scalar; then
   ``||dR|| <= sqrt(2)(eps+1) ||dLtilde_21||``.
3. **Assemble the polynomial perturbation.**
   ``P + dP = (Lambda_eta + dR_eta)^T (M + dL_11) (Lambda_eps + dR_eps)``.

The pipeline evaluates the finite backward-error bounds (the nondegenerate
``14 d^{5/2} (1 + ||M|| + ||M||^2)`` form, the degenerate ``2d (1 + ||M||)``
form for one-sided pencils, and the informal ``d^3 sqrt(m+n)`` form for
normalized data) and verifies that the achieved ratio sits below them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .block_kronecker import BlockKroneckerPencil, from_polynomial, recover_polynomial
from .eigenstructure import (Eigenstructure, _normal_rank, chordal_distance,
                             match_eigenvalues, shift_recovery,
                             staircase_eigenstructure)
from .errors import (ConvergenceError, EigenstructureShiftError,
                     PreconditionError, ShapeError)
from .matpoly import (CACHE_SIZE, MatrixPolynomial, Pencil, _frobenius,
                      _stack_product, build_L, build_Lambda, convolution,
                      pair_norm)
from .spectral_constants import build_T, sigma_min_T_closed
from .tolerances import EPS, _svd, pseudoinverse

SQRT2M1 = np.sqrt(2.0) - 1.0
MAX_ITER = 200


def _fixed_point(update, x, step: str):
    """Iterate ``x <- update(x)`` on a tuple of arrays, one norm per array,
    until a step moves it by at most ``100 EPS (1 + ||x||)``; return the
    limit, the iteration count and the iterate norms.  Raises
    :class:`ConvergenceError`, naming ``step``, on a non-finite iterate or
    after ``MAX_ITER`` iterations, then stating the last step size and the
    mean per-sweep step ratio over the last 10 sweeps (below 1 when slow,
    above 1 when diverging)."""
    norms: list[float] = []
    steps: list[float] = []
    for iterations in range(1, MAX_ITER + 1):
        x_next = update(x)
        steps.append(pair_norm(*(a - b for a, b in zip(x_next, x))))
        x = x_next
        norms.append(pair_norm(*x))
        if not np.isfinite(norms[-1]):
            # inf <= inf would otherwise pass the stopping rule below
            raise ConvergenceError(
                f"{step}: fixed point diverged: non-finite iterate at "
                f"iteration {iterations}")
        if steps[-1] <= 100.0 * EPS * (1.0 + norms[-1]):
            return x, iterations, norms
    ratio = (steps[-1] / steps[-11]) ** 0.1
    raise ConvergenceError(
        f"{step}: fixed point did not meet the stopping rule in "
        f"{MAX_ITER} iterations; last step {steps[-1]:.2e}, step ratio "
        f"{ratio:.3f} per sweep over the last 10 sweeps")


@dataclass
class SylvesterGauge:
    """The scalars governing Step-1 solvability."""

    sigma_min_T: float
    delta_T_bound: float      # certified upper bound on ||dT||_2
    delta: float
    theta: float
    omega: float

    @property
    def kappa1(self) -> float:
        return self.theta * self.omega / self.delta ** 2 if self.delta > 0 else np.inf

    @property
    def solvable(self) -> bool:
        return bool(self.delta > 0 and self.kappa1 < 0.25)

    def violated_condition(self):
        if self.delta <= 0:
            return "delta = sigma_min(T) - delta_T_bound > 0"
        if self.kappa1 >= 0.25:
            return "theta * omega / delta^2 < 1/4"
        return None

    def to_json(self) -> dict:
        return {
            "sigma_min_T": self.sigma_min_T,
            "delta_T_bound": self.delta_T_bound,
            "delta": self.delta,
            "theta": self.theta,
            "omega": self.omega,
            "kappa1": float(self.kappa1) if np.isfinite(self.kappa1) else None,
            "solvable": self.solvable,
        }


@dataclass
class Step1Result:
    C: np.ndarray
    D: np.ndarray
    gauge: SylvesterGauge | None
    iterations: int
    iterate_norms: list[float]
    kappa_sequence: list[float]
    residual: float
    dLt12: Pencil
    dLt21: Pencil
    dL11: Pencil              # the (1,1) block, which Step 1 leaves as it is

    @property
    def cd_norm(self) -> float:
        return pair_norm(self.C, self.D)


def step1_radius(d: int, one_one_norm: float) -> float:
    """Perturbation radius under which Step 1 is guaranteed to succeed."""
    return (SQRT2M1 / d) ** 2 / (1.0 + one_one_norm)


def _read_only(A: np.ndarray) -> np.ndarray:
    A.setflags(write=False)
    return A


# the signs (1, -1) of the two coefficients of Step 1's right-hand side
_SIGN = _read_only(np.array([1.0, -1.0])[:, None, None])


@lru_cache(maxsize=CACHE_SIZE)
def _T_scalar_pinv(eps: int, eta: int) -> np.ndarray:
    """Read-only ``pinv(build_T(eps, eta, 1, 1))``, computed once per pair."""
    return _read_only(pseudoinverse(build_T(eps, eta, 1, 1), context="step1:pinv(T)"))


def _T_pinv(R: np.ndarray, eps: int, eta: int, m: int, n: int):
    """``(C, D)``: ``pinv(build_T(eps, eta, m, n))`` applied to ``[vec R[0];
    vec R[1]]`` for a ``(2, eps n, eta m)`` stack ``R``.  Up to a perfect
    shuffle ``T`` is ``T(eps, eta, 1, 1) (x) I_mn``: entry ``(a, b)`` of
    every ``n x m`` block of ``(C, D)`` meets only entry ``(a, b)`` of the
    blocks of ``R``, through the scalar operator, whose one pseudoinverse
    serves them all."""
    split = eps * (eta + 1)

    def ungrid(X, rows, cols):
        return (X.reshape(cols, rows, n, m).transpose(1, 2, 0, 3)
                .reshape(rows * n, cols * m))

    # one row per n x m block, blocks of each half in column-major order
    grid = R.reshape(2, eps, n, eta, m).transpose(0, 3, 1, 2, 4)
    X = _T_scalar_pinv(eps, eta) @ grid.reshape(2 * eps * eta, n * m)
    return ungrid(X[:split], eps, eta + 1), ungrid(X[split:], eps + 1, eta)


def solve_step1(L: BlockKroneckerPencil, dL: Pencil,
                force: bool = False) -> Step1Result:
    """Solve the quadratic Sylvester-like system restoring the zero block.

    Returns the constants ``(C, D)``, the updated off-diagonal perturbations
    ``dLtilde_12 = (M + dL_11) D + dL_12`` and
    ``dLtilde_21 = C (M + dL_11) + dL_21``, the solvability gauge and the
    convergence trace.  For one-sided pencils (``eps == 0`` or ``eta == 0``)
    there is no zero block and the step passes the perturbation through.

    The iteration ``x <- T^+ (b + q(x) - dT x)`` starts at ``x = 0``.  As
    ``T`` has full row rank, its fixed points solve ``(T + dT) x = b + q(x)``.
    Each step obeys ``||x'|| <= (theta + omega ||x||^2 + ||dT|| ||x||) /
    sigma_min(T)``, so the ball of radius ``r``, the smaller root of
    ``omega r^2 - delta r + theta``, is invariant: ``||(C, D)|| <= r <=
    2 theta / delta``, and the map contracts there when
    ``4 theta omega < delta^2``.  Raises :class:`ConvergenceError` when the
    iteration diverges or hits ``MAX_ITER``; ``force`` only lifts the
    solvability precondition.
    """
    if dL.shape != L.shape:
        raise ShapeError(
            f"perturbation shape {dL.shape} does not match pencil {L.shape}")
    eps, eta, m, n = L.eps, L.eta, L.m, L.n
    # coefficient stacks (2, rows, cols) of the four blocks of dL, as views
    r1, c1 = (eta + 1) * m, (eps + 1) * n
    S = dL.coeff_stack
    d11, d12 = S[:, :r1, :c1], S[:, :r1, c1:]
    d21, d22 = S[:, r1:, :c1], S[:, r1:, c1:]
    dL11 = Pencil(d11)
    C = np.zeros((eps * n, (eta + 1) * m), dtype=complex)
    D = np.zeros(((eps + 1) * n, eta * m), dtype=complex)

    if eps == 0 or eta == 0:
        return Step1Result(C, D, None, 0, [], [], 0.0, Pencil(d12),
                           Pencil(d21), dL11)

    sigma = sigma_min_T_closed(eps, eta)
    # an upper bound on ||dT||_2, the norm of the map (C, D) -> (-C A12 -
    # A21 D, C B12 + B21 D) with d12 = A12 + lambda B12 and d21 = A21 +
    # lambda B21: by Cauchy-Schwarz it is at most the Frobenius norm of the
    # two off-diagonal blocks
    dT_bound = pair_norm(d12, d21)
    M = L.one_one_block().coeff_stack + d11
    gauge = SylvesterGauge(
        sigma_min_T=sigma,
        delta_T_bound=dT_bound,
        delta=sigma - dT_bound,
        theta=_frobenius(d22),
        omega=_frobenius(M),
    )
    if not gauge.solvable and not force:
        raise PreconditionError(
            f"step 1 refused: violated {gauge.violated_condition()}",
            inequality=gauge.violated_condition() or "")

    def update(x):
        C, D = x
        # b + q(x) - dT x with b = (A22, -B22), q = (C M0' D, -C M1' D) and
        # dT x = (-C A12 - A21 D, C B12 + B21 D), one stack entry per power
        return _T_pinv(_SIGN * (d22 + C @ (M @ D + d12) + d21 @ D),
                       eps, eta, m, n)

    iterations, iterate_norms = 0, []
    if gauge.theta > 0:
        (C, D), iterations, iterate_norms = _fixed_point(update, (C, D), "step 1")
    kappa_seq: list[float] = []
    if gauge.solvable:
        # the majorant kappa_{k+1} = kappa_1 (1 + kappa_k)^2, one per iteration
        kappa = gauge.kappa1
        for _ in range(iterations):
            kappa_seq.append(kappa)
            kappa = gauge.kappa1 * (1.0 + kappa) ** 2

    dLt12 = Pencil(M @ D + d12)
    dLt21 = Pencil(C @ M + d21)

    # the transformed (2,2) block [C I](L+dL)[D;I] must vanish: it is
    # d22 + C (M D + d12) + d21 D + C L12 + L21 D, where L12 = L_eta^T (x) I_m
    # and L21 = L_eps (x) I_n only pick and shift blocks of C and D
    R = d22 + C @ dLt12.coeff_stack + d21 @ D
    R[0] -= C[:, :eta * m] + D[:eps * n]
    R[1] += C[:, m:] + D[n:]
    residual = _frobenius(R)
    return Step1Result(C, D, gauge, iterations, iterate_norms, kappa_seq,
                       residual, dLt12, dLt21, dL11)


def step2_radius(eps: int) -> float:
    return 1.0 / (2.0 * (eps + 1) ** 1.5)


@lru_cache(maxsize=CACHE_SIZE)
def _S_scalar_pinv(eps: int) -> np.ndarray:
    """Read-only ``pinv(S)`` for the scalar ``S = C_eps(L_eps)``, computed
    once per ``eps``."""
    S = convolution(build_L(eps).reversal(), eps)
    return _read_only(pseudoinverse(S, context="step2:pinv(C_eps)"))


def _S_pinv(Y: np.ndarray, eps: int, n: int) -> np.ndarray:
    """``X``: ``pinv(C_eps(L_eps (x) I_n))`` applied to the ascending
    coefficient stacks ``Y`` (``eps+2`` of ``eps n x n``) and ``X``
    (``eps+1`` of ``(eps+1) n x n``).  Reshaped plainly to ``n^2`` columns
    the operator is ``S (x) I_{n^2}`` with ``S = C_eps(L_eps)`` scalar, whose
    one pseudoinverse serves every entry of the ``n x n`` blocks."""
    return (_S_scalar_pinv(eps) @ Y.reshape((eps + 2) * eps, n * n)).reshape(
        eps + 1, (eps + 1) * n, n)


def solve_step2(dLt21: Pencil, eps: int, n: int, force: bool = False):
    """Dual-basis correction for a perturbed ``L_eps (x) I_n``.

    Solves ``C_eps(L + dLt21) C_0(dR) = -C_0(dLt21 (Lambda_eps (x) I_n))``
    and returns ``(dR, duality_residual)`` where ``dR`` has grade ``eps`` and
    size ``(eps+1)n x n``, and the residual is the largest coefficient norm
    of ``(L + dLt21)(Lambda + dR)``, which vanishes in exact arithmetic.

    The iteration ``dR <- -S^+ C_0(dLt21 (Lambda + dR))`` from ``dR = 0``
    (see :func:`_S_pinv`) has fixed points that solve the system, as ``S``
    has full row rank.  Inside :func:`step2_radius` it contracts by
    ``||C_eps(dLt21)||_2 / sigma_min(S) < 1/3`` and ``||dR|| <= sqrt(2)
    (eps+1) ||dLt21||``.  ``dR`` lies in the row space of ``S (x) I``, so it
    is not the minimum-norm solution.  Raises :class:`ConvergenceError` when
    the iteration diverges or hits ``MAX_ITER``; ``force`` only lifts the
    radius precondition.

    The eta side reuses this routine on the transposed (1,2) block.
    """
    if dLt21.shape != (eps * n, (eps + 1) * n):
        raise ShapeError(
            f"expected shape {(eps * n, (eps + 1) * n)}, got {dLt21.shape}")
    norm = dLt21.frobenius_norm()
    if norm >= step2_radius(eps) and not force:
        raise PreconditionError(
            f"step 2 refused: ||dLtilde_21|| = {norm:.3e} is not below "
            f"1 / (2 (eps+1)^(3/2)) = {step2_radius(eps):.3e}",
            inequality="||dLtilde_21|| < 1/(2 (eps+1)^{3/2})")
    lam = build_Lambda(eps, n).coeff_stack
    A = dLt21.coeff_stack

    def update(x):
        return (-_S_pinv(_stack_product(A, lam + x[0]), eps, n),)

    (dR,), _, _ = _fixed_point(update, (np.zeros_like(lam),), "step 2")
    product = _stack_product(build_L(eps, n).coeff_stack + A, lam + dR)
    residual = float(np.linalg.norm(product, axis=(1, 2)).max())
    return MatrixPolynomial(dR, grade=eps), residual


def assemble_step3(L: BlockKroneckerPencil, dL11: Pencil,
                   dR_eps: MatrixPolynomial,
                   dR_eta: MatrixPolynomial) -> MatrixPolynomial:
    """``dP`` such that ``P + dP`` is the polynomial represented by the
    repaired strong block minimal bases pencil."""
    return (_perturbed_polynomial(L, dL11, dR_eps, dR_eta, force=False)
            - recover_polynomial(L))


def _perturbed_polynomial(L: BlockKroneckerPencil, dL11: Pencil,
                          dR_eps: MatrixPolynomial, dR_eta: MatrixPolynomial,
                          force: bool) -> MatrixPolynomial:
    """``P + dP`` of :func:`assemble_step3`, after its preconditions."""
    for name, dR in (("dR_eps", dR_eps), ("dR_eta", dR_eta)):
        if dR.frobenius_norm() >= 1.0 / np.sqrt(2.0) and not force:
            raise PreconditionError(
                f"step 3 refused: ||{name}|| >= 1/sqrt(2)",
                inequality=f"||{name}|| < 1/sqrt(2)")
    left = (build_Lambda(L.eta, L.m) + dR_eta).coeff_stack.transpose(0, 2, 1)
    mid = L.one_one_block().coeff_stack + dL11.coeff_stack
    right = (build_Lambda(L.eps, L.n) + dR_eps).coeff_stack
    return MatrixPolynomial(_stack_product(_stack_product(left, mid), right))


# -- eigenvalue certificate --------------------------------------------------

def _certify_eigenvalues(Q: MatrixPolynomial, structure: Eigenstructure,
                         tol: float):
    """Certify the eigenvalues of ``structure`` as eigenvalues of ``Q``.

    Each eigenvalue is the point ``(alpha, beta)``, ``|alpha|^2 + |beta|^2 =
    1``, with ``(1, 0)`` for the infinite ones, and ``Q`` is evaluated there
    in homogeneous form, ``Q(alpha, beta) = sum_k alpha^k beta^(d-k) Q_k``,
    in one product of the weights with the coefficient stack.  With ``r``
    the normal rank of ``Q`` and ``(sigma_r, x, y)`` the ``r``-th singular
    triplet of ``Q(alpha, beta)`` from one batched SVD, the backward error
    is ``sigma_r / (||Q||_F ||(alpha^k beta^(d-k))_k||_2)`` (Tisseur, LAA 309
    (2000)) and the first-order chordal distance to an eigenvalue of ``Q``
    is ``sigma_r / |y^H (conj(beta) dQ/dalpha - conj(alpha) dQ/dbeta) x|``
    (Dedieu and Tisseur, LAA 358 (2003)).

    Returns ``(eta, distance)``: the largest backward error, ``None`` when
    it is not finite, and the largest distance over the finite eigenvalues,
    ``None`` unless the eigenvalues are certified.  They are when
    ``structure`` has no minimal indices, ``Q`` is square of full normal
    rank, every finite eigenvalue lies more than ``2 tol`` from every other
    eigenvalue and from infinity, and every distance is at most ``tol``.
    Then the discs of radius ``tol`` around the finite eigenvalues are
    disjoint and each holds its own finite eigenvalue of ``Q``: the
    one-to-one pairing a chordal match of the two spectra looks for.  The
    infinite eigenvalues are covered by their backward error alone.
    """
    finite = np.array(structure.finite, dtype=complex)
    beta = 1.0 / np.hypot(np.abs(finite), 1.0)
    alpha = finite * beta
    if structure.infinite:
        alpha, beta = np.append(alpha, 1.0), np.append(beta, 0.0)
    points, d = alpha.size, Q.grade
    rank = _normal_rank(Q)
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
    try:
        s, U, V = _svd(values[:points])
    except ShapeError:  # a non-finite evaluation
        return None, None
    sigma = s[:, rank - 1]
    eta = float(np.max(sigma / (Q.frobenius_norm()
                                * np.linalg.norm(weights, axis=1))))
    eta = eta if np.isfinite(eta) else None
    if structure.right or structure.left or not rank == Q.rows == Q.cols:
        return eta, None
    count = finite.size
    if count:
        gaps = chordal_distance(finite[:, None], np.append(finite, np.inf))
        gaps[np.arange(count), np.arange(count)] = np.inf
        if not gaps.min() > 2.0 * tol:
            return eta, None
    x, y = V[:count, :, rank - 1], U[:count, :, rank - 1].conj()
    slope = np.abs(np.einsum("ia,iab,ib->i", y, values[points:points + count], x))
    with np.errstate(divide="ignore", invalid="ignore"):
        distance = float(np.max(sigma[:count] / slope, initial=0.0))
    if not distance <= tol:  # also when a slope vanishes
        return eta, None
    return eta, distance


# -- bounds ------------------------------------------------------------------

def bound_nondegenerate(d: int, norm_L: float, norm_P: float, norm_M: float,
                        norm_dL: float) -> float:
    """Ratio bound ``14 d^{5/2} (||L||/||P||) (1+||M||+||M||^2) (||dL||/||L||)``."""
    return (14.0 * d ** 2.5 * (norm_L / norm_P)
            * (1.0 + norm_M + norm_M ** 2) * (norm_dL / norm_L))


def bound_degenerate(d: int, norm_L: float, norm_P: float, norm_M: float,
                     norm_dL: float) -> float:
    """Ratio bound ``2 d (||L||/||P||) (1+||M||) (||dL||/||L||)`` for
    one-sided pencils."""
    return 2.0 * d * (norm_L / norm_P) * (1.0 + norm_M) * (norm_dL / norm_L)


def bound_informal(d: int, m: int, n: int, norm_L: float, norm_dL: float) -> float:
    """The ``d^3 sqrt(m+n) ||dL||/||L||`` rule of thumb for normalized data."""
    return d ** 3 * np.sqrt(m + n) * (norm_dL / norm_L)


def pipeline_radius(L: BlockKroneckerPencil) -> float:
    """Admissible ``||dL||_F`` for the full pipeline."""
    d = L.grade
    if L.eps == 0 or L.eta == 0:
        return 1.0 / (2.0 * d ** 1.5)
    return SQRT2M1 ** 2 / d ** 2.5 / (1.0 + L.one_one_norm())


@dataclass
class BackwardErrorReport:
    """Everything the pipeline produced, including the verification results."""

    eps: int
    eta: int
    m: int
    n: int
    grade: int
    degenerate: bool
    norm_P: float
    norm_L: float
    norm_M: float
    norm_dL: float
    radius: float
    admissible: bool
    step1: Step1Result
    dR_eps_norm: float
    dR_eta_norm: float
    step2_residual_eps: float
    step2_residual_eta: float
    dP: MatrixPolynomial
    ratio: float
    bound: float
    bound_label: str
    bound_informal: float
    bound_holds: bool
    eigen_checked: bool = False
    eigen_max_distance: float | None = None
    eigen_consistent: bool | None = None
    shift_consistent: bool | None = None
    eigen_backward_error: float | None = None
    forced: bool = False

    def record(self) -> dict:
        """The trial's scalar fields as one flat mapping: the body of
        :meth:`to_json` and of a batch row."""
        step1 = self.step1
        return {
            "epsilon": self.eps,
            "eta": self.eta,
            "m": self.m,
            "n": self.n,
            "grade": self.grade,
            "degenerate": self.degenerate,
            "norm_P": self.norm_P,
            "norm_L": self.norm_L,
            "norm_M": self.norm_M,
            "norm_dL": self.norm_dL,
            "radius": self.radius,
            "admissible": self.admissible,
            "forced": self.forced,
            "step1_residual": step1.residual,
            "step1_iterations": step1.iterations,
            "dR_eps_norm": self.dR_eps_norm,
            "dR_eta_norm": self.dR_eta_norm,
            "step2_residual_eps": self.step2_residual_eps,
            "step2_residual_eta": self.step2_residual_eta,
            "ratio": self.ratio,
            "bound": self.bound,
            "bound_label": self.bound_label,
            "bound_informal": self.bound_informal,
            "bound_holds": self.bound_holds,
            "eigen_checked": self.eigen_checked,
            "eigen_max_distance": self.eigen_max_distance,
            "eigen_consistent": self.eigen_consistent,
            "shift_consistent": self.shift_consistent,
            "eigen_backward_error": self.eigen_backward_error,
        }

    def to_json(self) -> dict:
        step1 = self.step1
        return {
            **self.record(),
            "step1": {
                "iterations": step1.iterations,
                "cd_norm": step1.cd_norm,
                "residual": step1.residual,
                "iterate_norms": step1.iterate_norms,
                "kappa_sequence": step1.kappa_sequence,
                "gauge": step1.gauge.to_json() if step1.gauge is not None else None,
            },
            "dP": self.dP.to_json(),
        }


def run_pipeline(L: BlockKroneckerPencil, dL: Pencil, force: bool = False,
                 check_eigen: bool = True,
                 eigen_tol: float = 1e-6) -> BackwardErrorReport:
    """Run Steps 1-3 and evaluate the applicable bound.

    The pipeline refuses a ``P`` of zero norm, and perturbations outside the
    guaranteed radius unless ``force`` is set, in which case the report is
    marked as unguaranteed.
    With ``check_eigen`` the staircase of ``L + dL`` is computed, and its
    eigenvalues are certified as eigenvalues of ``P + dP`` by
    :func:`_certify_eigenvalues`: one batched SVD of ``P + dP`` at every
    eigenvalue, with no second linearization, staircase or QZ.  A certified
    check reports the largest first-order chordal distance as
    ``eigen_max_distance`` and sets ``eigen_consistent`` and
    ``shift_consistent``.  Otherwise (minimal indices, a singular
    ``P + dP``, eigenvalues closer than ``2 eigen_tol``, a distance above
    ``eigen_tol`` or a non-finite evaluation) the complete eigenstructure of
    a fresh hook linearization of ``P + dP`` is compared with that of
    ``L + dL``: eigenvalues under the chordal metric, minimal indices
    through the shifts, and the infinite elementary divisors.  Either way
    ``eigen_backward_error`` is the largest backward error of ``L + dL``'s
    eigenvalues for ``P + dP``.  Disagreement is flagged in the report
    rather than fatal, since the problem is ill-posed.
    """
    d = L.grade
    P = recover_polynomial(L)
    norm_P = P.frobenius_norm()
    if norm_P == 0.0:
        raise PreconditionError(
            "pipeline refused: ||P|| is 0 (P is zero or its norm underflows), "
            "so ||dP|| / ||P|| is undefined",
            inequality="||P|| > 0")
    norm_L = L.frobenius_norm()
    norm_M = L.one_one_norm()
    norm_dL = dL.frobenius_norm()
    degenerate = L.eps == 0 or L.eta == 0
    radius = pipeline_radius(L)
    admissible = bool(norm_dL < radius)
    if not admissible and not force:
        label = ("||dL|| < 1/(2 d^{3/2})" if degenerate
                 else "||dL|| < (sqrt(2)-1)^2 / (d^{5/2} (1 + ||M||))")
        raise PreconditionError(
            f"pipeline refused: ||dL|| = {norm_dL:.3e} is not below the "
            f"radius {radius:.3e}", inequality=label)

    step1 = solve_step1(L, dL, force=force)
    dR_eps, res_eps = solve_step2(step1.dLt21, L.eps, L.n, force=force)
    dR_eta, res_eta = solve_step2(
        step1.dLt12.transpose(), L.eta, L.m, force=force)
    P_plus_dP = _perturbed_polynomial(L, step1.dL11, dR_eps, dR_eta, force)
    dP = P_plus_dP - P
    if not np.all(np.isfinite(dP.coeff_stack)):
        # with Step 1 bypassed (eps or eta 0) no iterate sees dL_11
        raise ConvergenceError("step 3: non-finite dP")
    ratio = dP.frobenius_norm() / norm_P

    if degenerate:
        bound = bound_degenerate(d, norm_L, norm_P, norm_M, norm_dL)
        label = "degenerate"
    else:
        bound = bound_nondegenerate(d, norm_L, norm_P, norm_M, norm_dL)
        label = "nondegenerate"

    report = BackwardErrorReport(
        eps=L.eps, eta=L.eta, m=L.m, n=L.n, grade=d, degenerate=degenerate,
        norm_P=norm_P, norm_L=norm_L, norm_M=norm_M, norm_dL=norm_dL,
        radius=radius, admissible=admissible, step1=step1,
        dR_eps_norm=dR_eps.frobenius_norm(), dR_eta_norm=dR_eta.frobenius_norm(),
        step2_residual_eps=res_eps, step2_residual_eta=res_eta, dP=dP,
        ratio=ratio, bound=bound, bound_label=label,
        bound_informal=bound_informal(d, L.m, L.n, norm_L, norm_dL),
        bound_holds=bool(ratio <= bound), forced=not admissible,
    )

    if check_eigen:
        L_plus_dL = Pencil(L.assemble().coeff_stack + dL.coeff_stack)
        es_pert = staircase_eigenstructure(L_plus_dL)
        report.eigen_checked = True
        report.eigen_backward_error, dist = _certify_eigenvalues(
            P_plus_dP, es_pert, eigen_tol)
        if dist is not None:
            report.eigen_max_distance = dist
            report.eigen_consistent = report.shift_consistent = True
            return report
        fresh = from_polynomial(P_plus_dP, L.eps, L.eta, "hook")
        es_fresh = staircase_eigenstructure(fresh.assemble())
        try:
            dist = match_eigenvalues(es_pert.finite, es_fresh.finite)
            report.eigen_max_distance = dist
            report.eigen_consistent = bool(dist <= eigen_tol)
        except ShapeError:
            report.eigen_max_distance = None
            report.eigen_consistent = False
        try:
            rec_pert = shift_recovery(es_pert, L.eps, L.eta)
            rec_fresh = shift_recovery(es_fresh, L.eps, L.eta)
            report.shift_consistent = bool(
                rec_pert.right == rec_fresh.right
                and rec_pert.left == rec_fresh.left
                and rec_pert.infinite == rec_fresh.infinite)
        except EigenstructureShiftError:
            report.shift_consistent = False
    return report
