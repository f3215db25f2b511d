"""Minimal bases, dual minimal bases and their numerical certificates.

The "full row rank at every point" half of the minimal-basis test routes
through the complete eigenstructure of a companion pencil: a row-reduced
polynomial is a minimal basis exactly when that eigenstructure carries no
finite eigenvalues and no left minimal indices.  This keeps the toolchain
purely numerical; a symbolic minor-root oracle exists only in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateRowError, GradeError, PreconditionError,
                     ShapeError)
from .matpoly import (MatrixPolynomial, Pencil, build_L, build_Lambda,
                      convolution, multiply)
from .tolerances import numerical_rank


@dataclass
class RowDegreeProfile:
    degrees: tuple[int, ...]
    highest_coeff: np.ndarray
    is_row_reduced: bool

    @property
    def constant_degree(self):
        """The common row degree, or ``None`` when the rows differ."""
        return self.degrees[0] if len(set(self.degrees)) == 1 else None


def row_degree_profile(Q: MatrixPolynomial) -> RowDegreeProfile:
    """Per-row degrees and the highest-row-degree coefficient matrix."""
    degrees = []
    rows = []
    for i in range(Q.rows):
        deg = None
        for k in range(Q.grade, -1, -1):
            if np.linalg.norm(Q.coeff(k)[i, :]) > 0:
                deg = k
                break
        if deg is None:
            raise DegenerateRowError(f"row {i} is identically zero")
        degrees.append(deg)
        rows.append(Q.coeff(deg)[i, :])
    highest = np.array(rows) if rows else np.zeros((0, Q.cols), dtype=complex)
    reduced = numerical_rank(highest) == Q.rows
    return RowDegreeProfile(tuple(degrees), highest, reduced)


def is_minimal_basis(Q: MatrixPolynomial) -> bool:
    """Whether the rows of ``Q`` form a minimal basis of the space they span.

    Requires ``rows < cols``.  Checks row-reducedness, then full row rank at
    every point through the eigenstructure of a companion linearization of
    ``Q`` at its degree (no finite eigenvalues, no left minimal indices).
    """
    from .block_kronecker import from_polynomial
    from .eigenstructure import staircase_eigenstructure

    if Q.rows >= Q.cols:
        raise ShapeError(f"a minimal basis must be wide, got {Q.shape}")
    profile = row_degree_profile(Q)
    if not profile.is_row_reduced:
        return False
    deg = Q.degree()
    if deg is None:
        return False
    if deg == 0:
        return numerical_rank(Q.coeff(0)) == Q.rows
    companion = from_polynomial(Q.with_grade(deg), deg - 1, 0, "frobenius1")
    structure = staircase_eigenstructure(companion.assemble())
    return not structure.finite and not structure.left


@dataclass
class DualBasisCertificate:
    rows_first: int
    rows_second: int
    cols: int
    product_residual: float
    first_minimal: bool
    second_minimal: bool
    tolerance: float

    @property
    def accepted(self) -> bool:
        return (self.rows_first + self.rows_second == self.cols
                and self.product_residual <= self.tolerance
                and self.first_minimal and self.second_minimal)

    def to_json(self) -> dict:
        return {
            "rows_first": self.rows_first,
            "rows_second": self.rows_second,
            "cols": self.cols,
            "product_residual": self.product_residual,
            "first_minimal": self.first_minimal,
            "second_minimal": self.second_minimal,
            "tolerance": self.tolerance,
            "accepted": self.accepted,
        }


def are_dual_minimal_bases(L: MatrixPolynomial,
                           N: MatrixPolynomial) -> DualBasisCertificate:
    """Certificate for ``(L, N)`` being dual minimal bases: complementary row
    counts, ``||L N^T|| <= 1e-10 max(1, ||L|| ||N||)``, minimal factors."""
    if L.cols != N.cols:
        raise ShapeError(
            f"dual bases must share the column count, got {L.cols} and {N.cols}")
    residual = multiply(L, N.transpose()).frobenius_norm()
    scale = max(1.0, L.frobenius_norm() * N.frobenius_norm())
    return DualBasisCertificate(
        rows_first=L.rows,
        rows_second=N.rows,
        cols=L.cols,
        product_residual=float(residual),
        first_minimal=is_minimal_basis(L),
        second_minimal=is_minimal_basis(N),
        tolerance=1e-10 * scale,
    )


def check_reversal_duality(K: MatrixPolynomial, N: MatrixPolynomial) -> bool:
    """Dual minimal bases with constant row degrees stay dual after reversal
    at those degrees; returns the re-verification of the reversed pair."""
    if K.rows == 0 or N.rows == 0:
        return True  # empty-matrix convention: nothing to check
    prof_K = row_degree_profile(K)
    prof_N = row_degree_profile(N)
    if prof_K.constant_degree is None or prof_N.constant_degree is None:
        raise PreconditionError("reversal duality needs constant row degrees",
                                inequality="constant row degrees")
    cert = are_dual_minimal_bases(K, N)
    if not cert.accepted:
        raise PreconditionError("the input pair is not an accepted dual pair",
                                inequality="dual minimal bases certificate")
    K_rev = K.with_grade(prof_K.constant_degree).reversal()
    N_rev = N.with_grade(prof_N.constant_degree).reversal()
    return are_dual_minimal_bases(K_rev, N_rev).accepted


def build_V(k: int) -> MatrixPolynomial:
    """Unimodular completion of ``L_k`` by the last coordinate row."""
    if k < 0:
        raise GradeError("k must be nonnegative")
    L = build_L(k)
    last = np.zeros((1, k + 1), dtype=complex)
    last[0, k] = 1.0
    c0 = np.vstack([L.M0, last])
    c1 = np.vstack([L.M1, np.zeros((1, k + 1))])
    return MatrixPolynomial([c0, c1], grade=1)


def build_V_inverse(k: int) -> MatrixPolynomial:
    """Explicit polynomial inverse of :func:`build_V`; its last column is the
    ``Lambda_k`` column, so ``V_k * V_k^{-1} == I`` exactly as polynomials."""
    if k < 0:
        raise GradeError("k must be nonnegative")
    coeffs = [np.zeros((k + 1, k + 1), dtype=complex) for _ in range(max(k, 1))]
    if k == 0:
        coeffs[0][0, 0] = 1.0
        return MatrixPolynomial(coeffs, grade=0)
    for i in range(k):
        for j in range(i, k):
            coeffs[j - i][i, j] = -1.0
    lam = build_Lambda(k)
    out = []
    for power in range(k + 1):
        c = coeffs[power] if power < k else np.zeros((k + 1, k + 1), dtype=complex)
        c = np.array(c)
        c[:, k] = lam.coeff(power)[:, 0]
        out.append(c)
    return MatrixPolynomial(out, grade=k)


def pencil_is_kronecker_minimal(pencil: Pencil) -> bool:
    """Whether an ``eps*n x (eps+1)*n`` pencil is a minimal basis with row
    degrees one whose duals have row degrees ``eps``, via the nonsingularity
    of ``C_{eps-1}`` and the full row rank of ``C_eps``."""
    rows, cols = pencil.shape
    if rows == 0:
        return True  # empty block convention
    n = cols - rows
    if n <= 0 or rows % n != 0:
        raise ShapeError(f"shape {pencil.shape} is not eps*n x (eps+1)*n")
    eps = rows // n
    C_low = convolution(pencil, eps - 1)
    if numerical_rank(C_low) < C_low.shape[0]:
        return False
    C_up = convolution(pencil, eps)
    return numerical_rank(C_up) == C_up.shape[0]


def poly_is_kronecker_dual_minimal(Q: MatrixPolynomial) -> bool:
    """Dual-side test: ``C_0(Q)`` nonsingular and ``C_1(Q)`` of full row rank
    for an ``n x (eps+1)*n`` polynomial of declared grade ``eps``."""
    rows, cols = Q.shape
    if rows == 0:
        return True
    if cols % rows != 0:
        raise ShapeError(f"shape {Q.shape} is not n x (eps+1)*n")
    eps = cols // rows - 1
    if eps != Q.grade:
        raise ShapeError(
            f"declared grade {Q.grade} does not match the shape factor {eps}")
    C0 = convolution(Q, 0)
    if numerical_rank(C0) < C0.shape[0]:
        return False
    C1 = convolution(Q, 1)
    return numerical_rank(C1) == C1.shape[0]
