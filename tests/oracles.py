"""Structural oracles that only the tests call: coefficientwise closeness
of two polynomials, the unimodular completions
``V_k`` of ``L_k`` with their inverses and the coefficient-wise Kronecker
product, minimal-basis and dual-basis certificates, the convolution-rank
predicates for perturbed ``L`` / ``Lambda`` blocks, the unimodular
reduction of a block Kronecker pencil to block anti-triangular form, the
right-null-vector lift through the inverse completion, the determinant of a
small square polynomial with its roots, the five product-norm bounds, and
the eigenvalue certificate read from full singular triplets.

A row-reduced polynomial is a minimal basis exactly when the complete
eigenstructure of a companion pencil carries no finite eigenvalues and no
left minimal indices, so the minimality test stays purely numerical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bklab import (BkLabError, BlockKroneckerPencil, Eigenstructure,
                   GradeError, LayoutError, MatrixPolynomial, Pencil,
                   PreconditionError, ShapeError, build_L, build_Lambda,
                   convolution, from_polynomial, identity, multiply,
                   numerical_rank, recover_polynomial,
                   staircase_eigenstructure)
from bklab.eigenstructure import _normal_rank, chordal_distance
from bklab.matpoly import _frobenius
from bklab.tolerances import _require_finite, _svd


class DegenerateRowError(BkLabError):
    """An operation that needs nonzero rows met an identically zero row."""


def direct_sum(P: MatrixPolynomial, Q: MatrixPolynomial) -> MatrixPolynomial:
    S = np.zeros((max(P.grade, Q.grade) + 1, P.rows + Q.rows, P.cols + Q.cols),
                 dtype=complex)
    S[:P.grade + 1, :P.rows, :P.cols] = P.coeff_stack
    S[:Q.grade + 1, P.rows:, P.cols:] = Q.coeff_stack
    return MatrixPolynomial(S)


def allclose(P: MatrixPolynomial, Q: MatrixPolynomial,
             atol: float = 0.0) -> bool:
    """Whether ``P`` and ``Q`` have one shape and, at the larger grade, every
    coefficient of ``P - Q`` has Frobenius norm at most ``atol``."""
    if P.shape != Q.shape:
        return False
    d = max(P.grade, Q.grade)
    return all(_frobenius(a - b) <= atol for a, b in
               zip(P.with_grade(d).coeff_stack, Q.with_grade(d).coeff_stack))


def submatrix(P: MatrixPolynomial, rows, cols) -> MatrixPolynomial:
    """The rows ``rows`` and columns ``cols`` of every coefficient of ``P``."""
    return MatrixPolynomial([c[np.ix_(rows, cols)] for c in P.coeff_stack],
                            grade=P.grade)


def kron_constant(P: MatrixPolynomial, A) -> MatrixPolynomial:
    """Coefficient-wise Kronecker product ``P(lambda) (x) A``."""
    A = np.asarray(A, dtype=complex)
    return MatrixPolynomial([np.kron(c, A) for c in P.coeff_stack], grade=P.grade)


# -- unimodular completions --------------------------------------------------

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


def lift_by_completion(L: BlockKroneckerPencil,
                       h: MatrixPolynomial) -> MatrixPolynomial:
    """The reference for ``block_kronecker.lift_right_null_vector``:
    ``z = [top ; -N2hat M top]`` with ``top = (Lambda_eps (x) I_n) h`` and
    ``N2hat`` read off the leading block columns of ``V_eta^{-1} (x) I_m``,
    transposed, and applied as a polynomial product.  ``N2hat`` is declared
    at grade ``eta``, so ``z`` is declared at ``eps + eta + h.grade + 1``
    when ``eta > 0``, one above the library's lift; that top coefficient is
    zero.  It does not check that ``h`` is a null vector."""
    top = multiply(build_Lambda(L.eps, L.n), h)
    if L.eta == 0:
        return top
    v_inv = kron_constant(build_V_inverse(L.eta), np.eye(L.m))
    n2hat = submatrix(v_inv, range((L.eta + 1) * L.m),
                      range(L.eta * L.m)).transpose()
    bottom = -1.0 * multiply(n2hat, multiply(L.one_one_block(), top))
    return MatrixPolynomial(np.concatenate(
        [top.with_grade(bottom.grade).coeff_stack, bottom.coeff_stack], axis=1))


# -- minimal bases -----------------------------------------------------------

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
        raise PreconditionError("reversal duality needs constant row degrees")
    cert = are_dual_minimal_bases(K, N)
    if not cert.accepted:
        raise PreconditionError("the input pair is not an accepted dual pair")
    K_rev = K.with_grade(prof_K.constant_degree).reversal()
    N_rev = N.with_grade(prof_N.constant_degree).reversal()
    return are_dual_minimal_bases(K_rev, N_rev).accepted


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


# -- block anti-triangular form ----------------------------------------------

@dataclass
class AntiTriangularForm:
    form: MatrixPolynomial
    Z: MatrixPolynomial
    X: MatrixPolynomial
    Y: MatrixPolynomial
    middle: MatrixPolynomial
    left_factor: MatrixPolynomial
    right_factor: MatrixPolynomial


def anti_triangularize(L: BlockKroneckerPencil) -> AntiTriangularForm:
    """Unimodular reduction to the block anti-triangular form.

    Multiplies the assembled pencil by the explicit inverse completions of
    the L blocks and asserts the resulting layout: identity corner blocks,
    zero blocks below the anti-diagonal, and the represented polynomial in
    the middle, each to ``1e-12`` times the form's norm (at least 1).  A
    failed assertion means a construction bug, not bad input.
    """
    eps, eta, m, n = L.eps, L.eta, L.m, L.n
    v_eta_inv_T = kron_constant(build_V_inverse(eta).transpose(), np.eye(m))
    v_eps_inv = kron_constant(build_V_inverse(eps), np.eye(n))
    left = direct_sum(v_eta_inv_T, identity(eps * n))
    right = direct_sum(v_eps_inv, identity(eta * m))
    form = multiply(multiply(left, L.assemble()), right)

    rows = [eta * m, m, eps * n]
    cols = [eps * n, n, eta * m]
    r_ofs = np.cumsum([0] + rows)
    c_ofs = np.cumsum([0] + cols)

    def blk(i, j):
        return submatrix(form, range(r_ofs[i], r_ofs[i + 1]),
                         range(c_ofs[j], c_ofs[j + 1]))

    scale = max(1.0, form.frobenius_norm())
    middle = blk(1, 1)
    recovered = recover_polynomial(L)
    checks = {
        "(1,3) identity": _poly_minus_identity(blk(0, 2)),
        "(3,1) identity": _poly_minus_identity(blk(2, 0)),
        "(2,3) zero": blk(1, 2).frobenius_norm(),
        "(3,2) zero": blk(2, 1).frobenius_norm(),
        "(3,3) zero": blk(2, 2).frobenius_norm(),
        "middle equals recovered": (middle - recovered).frobenius_norm(),
    }
    for name, value in checks.items():
        if value > 1e-12 * scale:
            raise LayoutError(f"anti-triangular layout check failed: {name} "
                              f"residual {value:.3e}")
    return AntiTriangularForm(form=form, Z=blk(0, 0), X=blk(0, 1), Y=blk(1, 0),
                              middle=middle, left_factor=left, right_factor=right)


def _poly_minus_identity(P: MatrixPolynomial) -> float:
    if P.rows != P.cols:
        raise LayoutError(f"expected a square identity block, got {P.shape}")
    delta = np.array(P.coeff_stack, copy=True)
    if delta.shape[0] > 0 and P.rows > 0:
        delta[0] -= np.eye(P.rows)
    return float(np.linalg.norm(delta))


# -- determinant and product norms --------------------------------------

def determinant(P: MatrixPolynomial) -> np.ndarray:
    """Coefficients (ascending) of ``det P(lambda)`` by cofactor expansion.

    Exponential in the matrix size; intended for the small desk-scale
    oracles, not production sizes.
    """
    if P.rows != P.cols:
        raise ShapeError("determinant needs a square polynomial")
    n = P.rows
    if n == 0:
        return np.array([1.0 + 0.0j])
    if n == 1:
        return np.array([P.coeff(k)[0, 0] for k in range(P.grade + 1)])
    total = np.zeros(n * P.grade + 1, dtype=complex)
    rest_cols = list(range(1, n))
    for i in range(n):
        entry = np.array([P.coeff(k)[i, 0] for k in range(P.grade + 1)])
        if not np.any(entry):
            continue
        minor = submatrix(P, [r for r in range(n) if r != i], rest_cols)
        sub = determinant(minor)
        term = np.convolve(entry, sub)
        total[:term.size] += ((-1) ** i) * term
    return total


def det_roots(P: MatrixPolynomial) -> np.ndarray:
    """Finite roots of ``det P(lambda)`` via exact coefficient expansion.

    The reference oracle for regular-polynomial eigenvalues at tiny sizes.
    Trailing coefficients below ``1e-10`` times the largest one are dropped
    (they encode eigenvalues at infinity).  A non-finite entry of ``P``, or
    a determinant that overflows, raises :class:`ShapeError`.
    """
    _require_finite(P.coeff_stack)
    coeffs = determinant(P)
    _require_finite(coeffs)
    scale = np.max(np.abs(coeffs))
    if scale == 0:
        raise ShapeError("det is identically zero: the polynomial is singular")
    trimmed = np.trim_zeros(np.where(np.abs(coeffs) > 1e-10 * scale, coeffs, 0.0), "b")
    if len(trimmed) <= 1:
        return np.zeros(0, dtype=complex)
    return np.roots(trimmed[::-1])


def _as_lambda_kron(Q: MatrixPolynomial):
    """Return ``(k, p)`` when ``Q == Lambda_k (x) I_p`` exactly, else ``None``."""
    p = Q.cols
    if p == 0 or Q.rows % p != 0:
        return None
    k = Q.rows // p - 1
    if k < 0 or Q.degree() != k:
        return None
    if allclose(Q, build_Lambda(k, p)):
        return (k, p)
    return None


def verify_norm_inequalities(P: MatrixPolynomial, Q: MatrixPolynomial):
    """Check the five product-norm bounds on the pair ``(P, Q)``.

    Flags (a)-(c) compare ``||P Q||_F`` against the spectral-column and
    Frobenius mixed bounds with the ``sqrt(grade+1)`` factors.  Flag (d)
    applies only when ``Q`` is exactly a ``Lambda_k (x) I_p`` column and flag
    (e) only when ``P`` is such a row; both are vacuously true otherwise.
    A ``1e-12`` relative and absolute slack absorbs roundoff in the norms.
    """
    if P.cols != Q.rows:
        raise ShapeError(f"product undefined for {P.shape} and {Q.shape}")
    prod = multiply(P, Q)
    lhs = prod.frobenius_norm()
    nP, nQ = P.frobenius_norm(), Q.frobenius_norm()
    sd = np.sqrt(P.grade + 1.0)
    st = np.sqrt(Q.grade + 1.0)
    spec_P = np.sqrt(sum(_svd(c, vectors=False).max(initial=0.0) ** 2
                         for c in P.coeff_stack))
    spec_Q = np.sqrt(sum(_svd(c, vectors=False).max(initial=0.0) ** 2
                         for c in Q.coeff_stack))

    def ok(rhs):
        return bool(lhs <= rhs * (1.0 + 1e-12) + 1e-12)

    a = ok(sd * spec_P * nQ)
    b = ok(st * nP * spec_Q)
    c = ok(min(sd, st) * nP * nQ)

    lam_q = _as_lambda_kron(Q)
    if lam_q is None:
        d = True
    else:
        k, _ = lam_q
        d = ok(min(sd, np.sqrt(k + 1.0)) * nP)
    lam_p = _as_lambda_kron(P.transpose())
    if lam_p is None:
        e = True
    else:
        k, _ = lam_p
        e = ok(min(st, np.sqrt(k + 1.0)) * nQ)
    return (a, b, c, d, e)


# -- eigenvalue certificate ----------------------------------------------

def certify_eigenvalues_by_svd(Q: MatrixPolynomial, structure: Eigenstructure,
                               tol: float):
    """The reference for ``eigenstructure._certify_eigenvalues``: the same
    certificate read from the ``r``-th singular triplet of a full batched
    SVD, where the library takes one step of inverse iteration.

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
