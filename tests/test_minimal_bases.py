import numpy as np
import pytest
from numpy.testing import assert_allclose

from bklab import (GradeError, MatrixPolynomial, PreconditionError,
                   ShapeError, build_L, build_Lambda, identity, multiply,
                   right_minimal_indices_by_convolution)
from bklab.experiments import complex_gaussian, random_pencil_perturbation
from bklab.matpoly import Pencil
from oracles import (DegenerateRowError, are_dual_minimal_bases, build_V,
                     build_V_inverse, check_reversal_duality, determinant,
                     is_minimal_basis, pencil_is_kronecker_minimal,
                     poly_is_kronecker_dual_minimal, row_degree_profile,
                     submatrix)


# ------------------------------------------------------------ row profiles

def test_profile_of_L2():
    prof = row_degree_profile(build_L(2))
    assert prof.degrees == (1, 1)
    assert_allclose(prof.highest_coeff, [[0, 1, 0], [0, 0, 1]])
    assert prof.is_row_reduced


def test_profile_of_lambda_row():
    prof = row_degree_profile(build_Lambda(2).transpose())
    assert prof.degrees == (2,)
    assert_allclose(prof.highest_coeff, [[1, 0, 0]])
    assert prof.is_row_reduced


def test_profile_rank_one_not_row_reduced():
    Q = MatrixPolynomial([np.array([[0.0, 1.0], [1.0, 1.0]]),
                          np.array([[1.0, 1.0], [0.0, 0.0]])])
    # rows [lambda, lambda + 1] and [1, 1]: highest coefficients stack to
    # a rank-1 matrix
    Q = MatrixPolynomial([np.array([[0.0, 0.0], [1.0, 1.0]]),
                          np.array([[1.0, 1.0], [0.0, 0.0]])])
    prof = row_degree_profile(Q)
    assert prof.degrees == (1, 0)
    assert not prof.is_row_reduced


def test_profile_rejects_zero_row():
    Q = MatrixPolynomial([np.array([[1.0, 0.0], [0.0, 0.0]])])
    with pytest.raises(DegenerateRowError):
        row_degree_profile(Q)


# --------------------------------------------------------- minimality test

def test_L_kron_is_minimal():
    assert is_minimal_basis(build_L(3, 2))


def test_common_root_row_is_not_minimal():
    # [lambda - 1, lambda - 1] drops rank at lambda = 1
    Q = MatrixPolynomial([np.array([[-1.0, -1.0]]), np.array([[1.0, 1.0]])])
    assert not is_minimal_basis(Q)


def test_square_input_rejected():
    with pytest.raises(ShapeError):
        is_minimal_basis(identity(2))


def _minor_root_oracle(Q):
    """Full row rank for all lambda0, checked at the roots of one maximal
    minor (any rank-drop point is a common root of every maximal minor)."""
    from itertools import combinations
    m, n = Q.shape
    for cols in combinations(range(n), m):
        coeffs = determinant(submatrix(Q, range(m), list(cols)))
        if np.max(np.abs(coeffs)) > 1e-12:
            trimmed = np.trim_zeros(coeffs, "b")
            if len(trimmed) <= 1:
                return True  # constant nonzero minor: full rank everywhere
            roots = np.roots(trimmed[::-1])
            return all(
                np.linalg.svd(Q.eval(r), compute_uv=False)[-1] > 1e-8
                for r in roots)
    return False


def test_minimality_matches_minor_root_oracle():
    rng = np.random.default_rng(31)
    agree = 0
    for _ in range(40):
        d = int(rng.integers(1, 3))
        Q = MatrixPolynomial(
            [np.round(3 * complex_gaussian((2, 3), rng)) for _ in range(d + 1)])
        try:
            prof = row_degree_profile(Q)
        except DegenerateRowError:
            continue
        expected = prof.is_row_reduced and _minor_root_oracle(Q)
        assert is_minimal_basis(Q) == expected
        agree += 1
    assert agree >= 20  # the draw must exercise the oracle often enough


# ------------------------------------------------------------- dual bases

def test_L_Lambda_certificate_accepted():
    for k in range(1, 5):
        cert = are_dual_minimal_bases(build_L(k), build_Lambda(k).transpose())
        assert cert.accepted and cert.product_residual == 0.0


@pytest.mark.parametrize("k,p", [(1, 2), (2, 3), (4, 2), (8, 3)])
def test_L_Lambda_kronecker_certificate(k, p):
    cert = are_dual_minimal_bases(build_L(k, p), build_Lambda(k, p).transpose())
    assert cert.accepted


def test_perturbed_dual_pair_rejected():
    k = 2
    N = 2.0 * build_Lambda(k).transpose()
    bump = np.zeros((1, k + 1))
    bump[0, 0] = 1.0
    N = N + MatrixPolynomial([np.zeros((1, k + 1))] * (k + 1) + [bump], grade=k + 1)
    cert = are_dual_minimal_bases(build_L(k), N)
    assert cert.product_residual > 0.1
    assert not cert.accepted


def test_column_mismatch_rejected():
    with pytest.raises(ShapeError):
        are_dual_minimal_bases(build_L(2), build_Lambda(3).transpose())


# ------------------------------------------------------- reversal duality

def test_reversal_duality_L_Lambda():
    assert check_reversal_duality(build_L(3), build_Lambda(3).transpose())


def test_reversal_duality_empty_side():
    empty = MatrixPolynomial([np.zeros((0, 2))])
    assert check_reversal_duality(empty, identity(2))


def test_reversal_duality_random_constant_degree_pair():
    # constant row mixing and a shared orthogonal column rotation preserve
    # duality and the constant row degrees
    rng = np.random.default_rng(36)
    k, p = 2, 2
    A = rng.standard_normal((k * p, k * p)) + np.eye(k * p)
    B = rng.standard_normal((p, p)) + 2 * np.eye(p)
    Q, _ = np.linalg.qr(rng.standard_normal(((k + 1) * p, (k + 1) * p)))
    K = MatrixPolynomial([A @ c @ Q for c in build_L(k, p).coeff_stack])
    N = MatrixPolynomial([B @ c @ Q for c in
                          build_Lambda(k, p).transpose().coeff_stack], grade=k)
    assert check_reversal_duality(K, N)


def test_reversal_duality_needs_constant_degrees():
    K = MatrixPolynomial([np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                          np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])])
    with pytest.raises(PreconditionError):
        check_reversal_duality(K, build_Lambda(2).transpose())


# ------------------------------------------------------------ completions

def test_V1_explicit():
    V = build_V(1)
    assert_allclose(V.coeff(0), [[-1, 0], [0, 1]])
    assert_allclose(V.coeff(1), [[0, 1], [0, 0]])
    Vi = build_V_inverse(1)
    assert_allclose(Vi.coeff(0), [[-1, 0], [0, 1]])
    assert_allclose(Vi.coeff(1), [[0, 1], [0, 0]])


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
def test_V_times_inverse_is_identity(k):
    prod = multiply(build_V(k), build_V_inverse(k))
    expected = identity(k + 1).with_grade(prod.grade)
    assert np.all(prod.coeff_stack == expected.coeff_stack)


def test_last_column_of_V_inverse_is_lambda():
    Vi = build_V_inverse(3)
    lam = build_Lambda(3)
    for power in range(4):
        assert_allclose(Vi.coeff(power)[:, 3:], lam.coeff(power))


@pytest.mark.parametrize("builder", [build_V, build_V_inverse],
                         ids=["build_V", "build_V_inverse"])
def test_completion_refuses_a_negative_k(builder):
    with pytest.raises(GradeError, match="k must be nonnegative"):
        builder(-1)


def test_V_is_unimodular():
    rng = np.random.default_rng(33)
    V = build_V(4)
    for _ in range(5):
        lam = complex(rng.standard_normal(), rng.standard_normal())
        assert abs(np.linalg.det(V.eval(lam))) == pytest.approx(1.0, rel=1e-10)


# -------------------------------------------- convolution-rank predicates

def test_L_pencil_is_kronecker_minimal():
    for eps in (1, 2, 3):
        for n in (1, 2):
            assert pencil_is_kronecker_minimal(build_L(eps, n))


def test_degree_dropped_pencil_is_not():
    eps, n = 2, 2
    L = build_L(eps, n)
    flat = Pencil.from_parts(L.M0, np.zeros_like(L.M1))
    assert not pencil_is_kronecker_minimal(flat)


def test_perturbation_inside_radius_keeps_minimality():
    # inside the guaranteed radius both routes must say yes: the
    # convolution-rank predicate and the companion-based minimality test
    rng = np.random.default_rng(34)
    eps, n = 2, 2
    radius = 3.0 / (2.0 * (eps + 1) ** 1.5)
    for trial in range(200):
        mag = rng.uniform(0, radius) * 0.999
        dL = random_pencil_perturbation((eps * n, (eps + 1) * n), mag, rng)
        K = Pencil.from_parts(build_L(eps, n).M0 + dL.M0,
                              build_L(eps, n).M1 + dL.M1)
        assert pencil_is_kronecker_minimal(K)
        if trial % 10 == 0:  # the full cross-check is slower, sample it
            assert is_minimal_basis(K)
            assert right_minimal_indices_by_convolution(K) == [eps] * n


def test_lambda_side_predicate():
    for eps in (1, 2, 3):
        lam = build_Lambda(eps, 2).transpose()
        assert poly_is_kronecker_dual_minimal(lam)
        blocks = list(lam.coeff_stack)
        blocks[eps] = np.zeros_like(blocks[eps])  # kill the leading block
        broken = MatrixPolynomial(blocks, grade=eps)
        assert not poly_is_kronecker_dual_minimal(broken)


def test_lambda_side_inside_radius():
    rng = np.random.default_rng(35)
    eps, n = 2, 2
    lam = build_Lambda(eps, n).transpose()
    for _ in range(50):
        mag = rng.uniform(0, 1 / np.sqrt(2.0)) * 0.999
        coeffs = [complex_gaussian((n, (eps + 1) * n), rng) for _ in range(eps + 1)]
        dR = MatrixPolynomial(coeffs, grade=eps)
        dR = (mag / dR.frobenius_norm()) * dR
        assert poly_is_kronecker_dual_minimal(lam + dR)
