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

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .block_kronecker import BlockKroneckerPencil, from_polynomial, recover_polynomial
from .eigenstructure import (_QZ, _certified_structure, match_eigenvalues,
                             staircase_eigenstructure)
from .errors import ConvergenceError, GradeError, PreconditionError, ShapeError
from .matpoly import (CACHE_SIZE, MatrixPolynomial, Pencil, _frobenius,
                      _pad, _stack_product, as_pencil, build_L,
                      build_Lambda, convolution, pair_norm)
from .spectral_constants import build_T, sigma_min_T_closed
from .tolerances import EPS, _finite_nonnegative, pseudoinverse

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
    # a diverging iterate overflows silently: the check below refuses it
    with np.errstate(over="ignore", invalid="ignore"):
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
    theta: float
    omega: float

    @property
    def delta(self) -> float:
        return self.sigma_min_T - self.delta_T_bound

    @property
    def kappa1(self) -> float:
        return self.theta * self.omega / self.delta ** 2 if self.delta > 0 else np.inf

    @property
    def solvable(self) -> bool:
        return self.violated_condition() is None

    def violated_condition(self):
        if not self.delta > 0:
            return "delta = sigma_min(T) - delta_T_bound > 0"
        if not self.kappa1 < 0.25:
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
    residual: float
    dLt12: Pencil
    dLt21: Pencil
    dL11: Pencil              # the (1,1) block, which Step 1 leaves as it is

    @property
    def cd_norm(self) -> float:
        return pair_norm(self.C, self.D)

    @property
    def kappa_sequence(self) -> list[float]:
        # the majorant kappa_{k+1} = kappa_1 (1 + kappa_k)^2, one per iteration
        seq: list[float] = []
        if self.gauge is not None and self.gauge.solvable:
            kappa1 = kappa = self.gauge.kappa1
            for _ in range(self.iterations):
                seq.append(kappa)
                kappa = kappa1 * (1.0 + kappa) ** 2
        return seq


def step1_radius(d: int, one_one_norm: float) -> float:
    """Perturbation radius under which Step 1 is guaranteed to succeed.
    Raises :class:`GradeError` when ``d < 1`` and :class:`ShapeError`
    unless ``one_one_norm`` is finite and nonnegative."""
    if d < 1:
        raise GradeError(f"d must be at least 1, got {d}")
    one_one_norm = _finite_nonnegative(one_one_norm, "one_one_norm")
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


def _require_pencil_shape(dL: Pencil, L: BlockKroneckerPencil) -> None:
    if dL.shape != L.shape:
        raise ShapeError(
            f"perturbation shape {dL.shape} does not match pencil {L.shape}")


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
    solvability precondition.  ``dL`` is read as a pencil
    (:func:`~bklab.matpoly.as_pencil`); one of another shape raises
    :class:`ShapeError`.
    """
    dL = as_pencil(dL)
    _require_pencil_shape(dL, L)
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
        return Step1Result(C, D, None, 0, [], 0.0, Pencil(d12),
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
        theta=_frobenius(d22),
        omega=_frobenius(M),
    )
    if not gauge.solvable and not force:
        raise PreconditionError(
            f"step 1 refused: violated {gauge.violated_condition()}")

    def update(x):
        C, D = x
        # b + q(x) - dT x with b = (A22, -B22), q = (C M0' D, -C M1' D) and
        # dT x = (-C A12 - A21 D, C B12 + B21 D), one stack entry per power
        return _T_pinv(_SIGN * (d22 + C @ (M @ D + d12) + d21 @ D),
                       eps, eta, m, n)

    iterations, iterate_norms = 0, []
    if gauge.theta > 0:
        (C, D), iterations, iterate_norms = _fixed_point(update, (C, D), "step 1")

    dLt12 = Pencil(M @ D + d12)
    dLt21 = Pencil(C @ M + d21)

    # the transformed (2,2) block [C I](L+dL)[D;I] must vanish: it is
    # d22 + C (M D + d12) + d21 D + C L12 + L21 D, where L12 = L_eta^T (x) I_m
    # and L21 = L_eps (x) I_n only pick and shift blocks of C and D
    R = d22 + C @ dLt12.coeff_stack + d21 @ D
    R[0] -= C[:, :eta * m] + D[:eps * n]
    R[1] += C[:, m:] + D[n:]
    residual = _frobenius(R)
    return Step1Result(C, D, gauge, iterations, iterate_norms, residual,
                       dLt12, dLt21, dL11)


def step2_radius(eps: int) -> float:
    """``1 / (2 (eps+1)^{3/2})``; a negative ``eps`` raises
    :class:`ShapeError`."""
    if eps < 0:
        raise ShapeError(f"eps must be nonnegative, got {eps}")
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
    ``dLt21`` is read as a pencil (:func:`~bklab.matpoly.as_pencil`).
    """
    dLt21 = as_pencil(dLt21)
    if dLt21.shape != (eps * n, (eps + 1) * n):
        raise ShapeError(
            f"expected shape {(eps * n, (eps + 1) * n)}, got {dLt21.shape}")
    norm = dLt21.frobenius_norm()
    if norm >= step2_radius(eps) and not force:
        raise PreconditionError(
            f"step 2 refused: ||dLtilde_21|| = {norm:.3e} is not below "
            f"1 / (2 (eps+1)^(3/2)) = {step2_radius(eps):.3e}")
    lam = build_Lambda(eps, n).coeff_stack
    A = dLt21.coeff_stack

    def update(x):
        return (-_S_pinv(_stack_product(A, lam + x[0]), eps, n),)

    (dR,), _, _ = _fixed_point(update, (np.zeros_like(lam),), "step 2")
    product = _stack_product(build_L(eps, n).coeff_stack + A, lam + dR)
    residual = float(np.linalg.norm(product, axis=(1, 2)).max())
    return MatrixPolynomial(dR, grade=eps), residual


def assemble_step3(L: BlockKroneckerPencil, dL11: Pencil,
                   dR_eps: MatrixPolynomial, dR_eta: MatrixPolynomial,
                   force: bool = False) -> MatrixPolynomial:
    """``P + dP``: the polynomial represented by the repaired strong block
    minimal bases pencil.  ``dL11`` is read as a pencil
    (:func:`~bklab.matpoly.as_pencil`).  Raises :class:`ShapeError` when
    ``dL11`` or a ``dR`` is not of its block's or ``Lambda``'s shape,
    :class:`GradeError` when a ``dR`` is of degree above ``Lambda``'s, and
    :class:`PreconditionError` when a ``||dR|| >= 1/sqrt(2)``; ``force``
    lifts that precondition."""
    M = L.one_one_block()
    dL11 = as_pencil(dL11)
    if dL11.shape != M.shape:
        raise ShapeError(f"dL11 is {dL11.shape}, the (1,1) block {M.shape}")
    stacks = []
    for name, dR, k, n in (("dR_eps", dR_eps, L.eps, L.n),
                           ("dR_eta", dR_eta, L.eta, L.m)):
        if dR.shape != ((k + 1) * n, n):
            raise ShapeError(f"{name} is {dR.shape}, not {((k + 1) * n, n)}")
        if np.any(dR.coeff_stack[k + 1:]):
            raise GradeError(f"{name} is of degree {dR.degree()}, above {k}")
        if dR.frobenius_norm() >= 1.0 / np.sqrt(2.0) and not force:
            raise PreconditionError(f"step 3 refused: ||{name}|| >= 1/sqrt(2)")
        stacks.append(build_Lambda(k, n).coeff_stack
                      + _pad(dR.coeff_stack[:k + 1], k))
    right, left = stacks
    return MatrixPolynomial(_stack_product(_stack_product(
        left.transpose(0, 2, 1), M.coeff_stack + dL11.coeff_stack), right))


# -- bounds ------------------------------------------------------------------

def bound_nondegenerate(d: int, norm_L: float, norm_P: float, norm_M: float,
                        norm_dL: float) -> float:
    """Ratio bound ``14 d^{5/2} (||L||/||P||) (1+||M||+||M||^2) (||dL||/||L||)``.

    Where that product leaves the float range, the same bound is evaluated
    as ``14 d^{5/2} ((||dL|| ||M|| / ||P||) (1 + ||M||) + ||dL|| / ||P||)``:
    inside the pipeline's radius ``||dL|| ||M|| < 1``, so it stays finite
    while ``||M|| / ||P||`` does."""
    try:
        bound = (14.0 * d ** 2.5 * (norm_L / norm_P)
                 * (1.0 + norm_M + norm_M ** 2) * (norm_dL / norm_L))
    except OverflowError:  # ||M||^2 beyond the float range
        bound = math.inf
    if math.isfinite(bound):
        return bound
    return 14.0 * d ** 2.5 * (norm_dL * norm_M / norm_P * (1.0 + norm_M)
                              + norm_dL / norm_P)


def bound_degenerate(d: int, norm_L: float, norm_P: float, norm_M: float,
                     norm_dL: float) -> float:
    """Ratio bound ``2 d (||L||/||P||) (1+||M||) (||dL||/||L||)`` for
    one-sided pencils.

    Where that product is not finite, as ``||L|| / ||P||`` beyond the float
    range times a zero ``||dL||`` is not, the same bound is evaluated as
    ``2 d (1 + ||M||) ||dL|| / ||P||``."""
    bound = 2.0 * d * (norm_L / norm_P) * (1.0 + norm_M) * (norm_dL / norm_L)
    if math.isfinite(bound):
        return bound
    return 2.0 * d * (1.0 + norm_M) * (norm_dL / norm_P)


def bound_informal(d: int, m: int, n: int, norm_L: float, norm_dL: float) -> float:
    """The ``d^3 sqrt(m+n) ||dL||/||L||`` rule of thumb for normalized data."""
    return d ** 3 * np.sqrt(m + n) * (norm_dL / norm_L)


def pipeline_radius(L: BlockKroneckerPencil) -> float:
    """Admissible ``||dL||_F`` for the full pipeline."""
    d = L.grade
    if L.eps == 0 or L.eta == 0:
        return 1.0 / (2.0 * d ** 1.5)
    return SQRT2M1 ** 2 / d ** 2.5 / (1.0 + L.one_one_norm())


# BackwardErrorReport.record()'s keys, each read from the attribute it names
_RECORD_KEYS = (
    "epsilon", "eta", "m", "n", "grade", "degenerate", "norm_P", "norm_L",
    "norm_M", "norm_dL", "radius", "admissible", "forced", "step1_residual",
    "step1_iterations", "dR_eps_norm", "dR_eta_norm", "step2_residual_eps",
    "step2_residual_eta", "ratio", "bound", "bound_label", "bound_informal",
    "bound_holds", "eigen_checked", "eigen_max_distance", "eigen_consistent",
    "shift_consistent", "eigen_backward_error",
)


@dataclass
class BackwardErrorReport:
    """What the pipeline measured; its flags, its flat record and its
    verdict are derived from those measurements."""

    eps: int
    eta: int
    m: int
    n: int
    norm_P: float
    norm_L: float
    norm_M: float
    norm_dL: float
    radius: float
    step1: Step1Result
    dR_eps_norm: float
    dR_eta_norm: float
    step2_residual_eps: float
    step2_residual_eta: float
    dP: MatrixPolynomial
    ratio: float
    bound: float
    bound_informal: float
    eigen_backward_error: float | None
    eigen_max_distance: float | None
    eigen_consistent: bool | None
    shift_consistent: bool | None

    @property
    def grade(self) -> int:
        return self.eps + self.eta + 1

    @property
    def degenerate(self) -> bool:
        return self.eps == 0 or self.eta == 0

    @property
    def bound_label(self) -> str:
        return "degenerate" if self.degenerate else "nondegenerate"

    @property
    def admissible(self) -> bool:
        return bool(self.norm_dL < self.radius)

    @property
    def forced(self) -> bool:
        """Run outside the guaranteed radius, which only ``force`` allows."""
        return not self.admissible

    @property
    def bound_holds(self) -> bool:
        return bool(self.ratio <= self.bound)

    @property
    def eigen_checked(self) -> bool:
        """The eigen check ran: it always sets ``eigen_consistent``."""
        return self.eigen_consistent is not None

    @property
    def verdict(self) -> tuple[str, str | None]:
        """``(status, reason)``: ``unguaranteed`` when forced, ``failed`` on
        an unsolvable Step 1 gauge or ``ratio > bound``, else ``passed``.  An
        eigen mismatch is flagged in the report, not failed."""
        if self.forced:
            return "unguaranteed", "forced outside the guaranteed radius"
        gauge = self.step1.gauge
        violated = gauge.violated_condition() if gauge is not None else None
        if violated is not None:
            return "failed", f"step 1 gauge violates {violated}"
        if not self.bound_holds:
            return "failed", f"ratio {self.ratio:.3e} > bound {self.bound:.3e}"
        return "passed", None

    def record(self) -> dict:
        """The trial's scalar fields as one flat mapping: the body of
        :meth:`to_json` and of a batch row."""
        spelled = {"epsilon": self.eps, "step1_residual": self.step1.residual,
                   "step1_iterations": self.step1.iterations}
        return {key: spelled[key] if key in spelled else getattr(self, key)
                for key in _RECORD_KEYS}

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


def _check_eigen(L: BlockKroneckerPencil, L_plus_dL: Pencil,
                 P_plus_dP: MatrixPolynomial, eigen_tol: float, qz):
    """``(eigen_backward_error, eigen_max_distance, eigen_consistent,
    shift_consistent)`` for the eigenvalues of ``L + dL`` against ``P + dP``.

    :func:`~bklab.eigenstructure._certified_structure` solves and
    certifies ``L + dL`` with ``qz``, its QZ if one was started; certified,
    it is consistent on both counts.  Otherwise a fresh hook linearization of
    ``P + dP`` at the same split is reduced too: the finite eigenvalues are
    matched under the chordal metric, and the sorted minimal indices and
    infinite partitions must be equal as they stand, with no right index
    below ``eps`` and no left one below ``eta``.
    """
    es_pert, backward, distance = _certified_structure(L_plus_dL, P_plus_dP,
                                                       eigen_tol, qz)
    if distance is not None:
        return backward, distance, True, True
    fresh = from_polynomial(P_plus_dP, L.eps, L.eta, "hook")
    es_fresh = staircase_eigenstructure(fresh.assemble())
    try:
        distance = match_eigenvalues(es_pert.finite, es_fresh.finite)
    except ShapeError:
        distance = None
    shifts = bool((es_pert.right, es_pert.left, es_pert.infinite)
                  == (es_fresh.right, es_fresh.left, es_fresh.infinite)
                  and min(es_pert.right, default=L.eps) >= L.eps
                  and min(es_pert.left, default=L.eta) >= L.eta)
    return (backward, distance,
            distance is not None and bool(distance <= eigen_tol), shifts)


def run_pipeline(L: BlockKroneckerPencil, dL: Pencil, force: bool = False,
                 check_eigen: bool = True,
                 eigen_tol: float = 1e-6) -> BackwardErrorReport:
    """Run Steps 1-3 and evaluate the applicable bound.

    The pipeline refuses, in this order, an ``eigen_tol`` that is not
    finite and nonnegative (:class:`ShapeError`), a ``P`` of zero norm,
    perturbations outside the guaranteed radius unless ``force`` is set, in
    which case the report is marked as unguaranteed, a bound that is not
    finite, and a ``dL`` that is not a pencil of ``L``'s shape: ``dL`` is
    read as a pencil (:func:`~bklab.matpoly.as_pencil`), so a constant
    perturbation moves ``M0`` only, one of degree above 1 raises
    :class:`GradeError` and one of another shape :class:`ShapeError`; with
    ``check_eigen``, last, an ``L + dL`` that overflows (:class:`ShapeError`,
    as does every polynomial formed with a non-finite coefficient).  Then
    the report's four eigen fields come from :func:`_check_eigen`, which
    certifies one QZ of ``L + dL`` when ``P + dP`` is square of full normal
    rank and runs the staircase only when that does not certify; a
    disagreement is flagged there rather than fatal, since the problem is
    ill-posed.
    """
    eigen_tol = _finite_nonnegative(eigen_tol, "eigen_tol")
    d = L.grade
    P = recover_polynomial(L)
    norm_P = P.frobenius_norm()
    if norm_P == 0.0:
        raise PreconditionError(
            "pipeline refused: ||P|| is 0, so ||dP|| / ||P|| is undefined")
    norm_L = L.frobenius_norm()
    norm_M = L.one_one_norm()
    norm_dL = dL.frobenius_norm()
    degenerate = L.eps == 0 or L.eta == 0
    radius = pipeline_radius(L)
    if not norm_dL < radius and not force:
        raise PreconditionError(
            f"pipeline refused: ||dL|| = {norm_dL:.3e} is not below the "
            f"radius {radius:.3e}")
    bound = (bound_degenerate if degenerate else bound_nondegenerate)(
        d, norm_L, norm_P, norm_M, norm_dL)
    if not math.isfinite(bound):
        raise PreconditionError(
            f"pipeline refused: the bound is not finite at ||P|| = "
            f"{norm_P:.3e}, ||M|| = {norm_M:.3e}")

    dL = as_pencil(dL)
    _require_pencil_shape(dL, L)
    # QZ reads only L + dL: started on bklab-qz when that pays, it overlaps
    # Steps 1-3, and it is waited for before the call returns, however it ends
    qz = None
    if check_eigen:
        L_plus_dL = Pencil(L.assemble().coeff_stack + dL.coeff_stack)
        qz = _QZ.start(L_plus_dL)
    try:
        step1 = solve_step1(L, dL, force=force)
        dR_eps, res_eps = solve_step2(step1.dLt21, L.eps, L.n, force=force)
        dR_eta, res_eta = solve_step2(
            step1.dLt12.transpose(), L.eta, L.m, force=force)
        P_plus_dP = assemble_step3(L, step1.dL11, dR_eps, dR_eta, force=force)
        dP = P_plus_dP - P
        ratio = dP.frobenius_norm() / norm_P
        if not math.isfinite(ratio):
            # dP is finite, as every polynomial is: only the quotient can
            # overflow, when ||P|| is tiny
            raise ConvergenceError("step 3: ||dP|| / ||P|| overflows")
        backward, distance, consistent, shifts = (
            _check_eigen(L, L_plus_dL, P_plus_dP, eigen_tol, qz)
            if check_eigen else (None,) * 4)
    finally:
        if qz is not None and qz.done is not None:  # handed over
            qz.done.wait()

    return BackwardErrorReport(
        eps=L.eps, eta=L.eta, m=L.m, n=L.n, norm_P=norm_P, norm_L=norm_L,
        norm_M=norm_M, norm_dL=norm_dL, radius=radius, step1=step1,
        dR_eps_norm=dR_eps.frobenius_norm(), dR_eta_norm=dR_eta.frobenius_norm(),
        step2_residual_eps=res_eps, step2_residual_eta=res_eta, dP=dP,
        ratio=ratio, bound=bound,
        bound_informal=bound_informal(d, L.m, L.n, norm_L, norm_dL),
        eigen_backward_error=backward, eigen_max_distance=distance,
        eigen_consistent=consistent, shift_consistent=shifts,
    )
