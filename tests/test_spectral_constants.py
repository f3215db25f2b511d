import numpy as np
import pytest
from numpy.testing import assert_allclose

from bklab import (G_matrix, G_singular_values, M_matrix, M_singular_values,
                   ShapeError, build_T, build_W, constants_sweep,
                   sigma_max_W_closed, sigma_min_T_closed,
                   sigma_min_T_lower_bound, sigma_min_convolution_L,
                   sigma_min_from_W, verify_W_direct_sum)


# ------------------------------------------------------------ closed forms

def test_sigma_min_T_reference_values():
    assert sigma_min_T_closed(1, 1) == pytest.approx(np.sqrt(2.0))
    assert sigma_min_T_closed(2, 1) == pytest.approx(1.0)
    assert sigma_min_T_closed(1, 2) == pytest.approx(1.0)


def test_sigma_min_T_rejects_degenerate():
    with pytest.raises(ShapeError):
        sigma_min_T_closed(0, 1)


def test_sigma_min_T_lower_bound_holds():
    for eps in range(1, 9):
        for eta in range(1, 9):
            d = eps + eta + 1
            assert sigma_min_T_closed(eps, eta) >= sigma_min_T_lower_bound(d)


def test_sigma_min_T_monotone_in_min():
    values = [sigma_min_T_closed(k, k + 1) for k in range(1, 8)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_sigma_max_W_reference_values():
    assert sigma_max_W_closed(1, 1) == pytest.approx(0.0)
    assert sigma_max_W_closed(3, 1) == pytest.approx(1.0)
    assert sigma_max_W_closed(2, 2) == pytest.approx(np.sqrt(2.0))


def test_T_equals_W_identity():
    for eps in range(1, 9):
        for eta in range(1, 9):
            assert abs(sigma_min_T_closed(eps, eta)
                       - sigma_min_from_W(eps, eta)) <= 1e-14
    assert sigma_min_from_W(2, 2) == pytest.approx(2.0 * np.sin(np.pi / 8.0))


# ------------------------------------------------------------- W assembly

def test_W_11_is_zero():
    assert_allclose(build_W(1, 1), [[0.0]])


def test_W_21_is_downshift():
    assert_allclose(build_W(2, 1), [[0.0, 0.0], [1.0, 0.0]])


def test_W_22_block_pattern():
    W = build_W(2, 2)
    J2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert_allclose(W[:2, :2], J2)
    assert_allclose(W[2:, 2:], J2)
    assert_allclose(W[2:, :2], np.eye(2))
    assert_allclose(W[:2, 2:], np.zeros((2, 2)))


@pytest.mark.parametrize("eps,eta", [(e, h) for e in range(1, 7) for h in range(1, 7)])
def test_sigma_max_W_matches_svd(eps, eta):
    smax = np.linalg.svd(build_W(eps, eta), compute_uv=False)[0]
    assert abs(smax - sigma_max_W_closed(eps, eta)) <= 1e-12


# ------------------------------------------------------------- direct sum

def test_direct_sum_square_case():
    assert verify_W_direct_sum(3, 3)


def test_direct_sum_3_2():
    # one M_2 copy, a G_1 pair (with its fill zero) and the trailing zero
    W = build_W(3, 2)
    numeric = np.sort(np.linalg.svd(W, compute_uv=False))
    predicted = np.sort(np.concatenate([
        M_singular_values(2), G_singular_values(1), G_singular_values(1),
        [0.0, 0.0]]))
    assert_allclose(numeric, predicted, atol=1e-12)
    assert verify_W_direct_sum(3, 2)


def test_direct_sum_sweep():
    for eps in range(1, 7):
        for eta in range(1, eps + 1):
            assert verify_W_direct_sum(eps, eta)


def test_direct_sum_argument_order():
    with pytest.raises(ShapeError):
        verify_W_direct_sum(2, 3)


# ------------------------------------------------------------- M/G spectra

def test_M1_spectrum():
    assert_allclose(M_singular_values(1), [1.0])


def test_M2_golden_ratio():
    assert M_singular_values(2)[-1] == pytest.approx((1 + np.sqrt(5.0)) / 2.0)


@pytest.mark.parametrize("k", range(1, 9))
def test_M_and_G_spectra_match_svd(k):
    # the shipped sign convention for the G spectrum was fixed against this
    # sweep before release
    assert_allclose(np.sort(np.linalg.svd(M_matrix(k), compute_uv=False)),
                    M_singular_values(k), atol=1e-13)
    assert_allclose(np.sort(np.linalg.svd(G_matrix(k), compute_uv=False)),
                    G_singular_values(k), atol=1e-13)


# ---------------------------------------------------- convolution constants

def test_convolution_constant_eps1():
    cc = sigma_min_convolution_L(1, 1)
    assert cc.closed_form == pytest.approx(1.0)
    assert cc.numeric_lower == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("eps", range(1, 6))
@pytest.mark.parametrize("n", (1, 2))
def test_convolution_constants_sweep(eps, n):
    cc = sigma_min_convolution_L(eps, n)
    assert abs(cc.numeric_lower - cc.closed_form) <= 1e-12
    assert abs(cc.numeric_upper_index - cc.closed_form) <= 1e-12
    assert cc.closed_form >= cc.lower_bound
    assert abs(cc.lambda_c0 - 1.0) <= 1e-12
    assert abs(cc.lambda_c1 - 1.0) <= 1e-12
    assert cc.multiset_ok


# -------------------------------------------------------------- full sweep

def test_constants_sweep_is_tight():
    rows = constants_sweep(3, 3, 2, 2)
    assert rows
    worst = max(row.gap for row in rows)
    assert worst <= 1e-12
    labels = {row.label for row in rows}
    assert any(label.startswith("sigma_min_T") for label in labels)
    assert any(label.startswith("W_direct_sum") for label in labels)


def test_kronecker_factor_preserves_extremes():
    # sigma_min of the full operator equals the (m, n) = (1, 1) value
    for eps, eta in ((1, 2), (2, 2)):
        base = np.linalg.svd(build_T(eps, eta, 1, 1), compute_uv=False)[-1]
        for m, n in ((2, 1), (1, 3), (2, 2), (3, 3)):
            full = np.linalg.svd(build_T(eps, eta, m, n), compute_uv=False)[-1]
            assert abs(full - base) <= 1e-12


@pytest.mark.parametrize("bounds", [(-1, 4, 2, 2), (4, -1, 2, 2),
                                    (1, 1, -1, 1), (1, 1, 1, -3)])
def test_constants_sweep_refuses_a_negative_bound(bounds):
    with pytest.raises(ShapeError, match="nonnegative"):
        constants_sweep(*bounds)


def test_constants_sweep_accepts_zero_bounds():
    assert [row.label for row in constants_sweep(0, 0, 0, 0)] == [
        "M_spectrum[k=1]", "G_spectrum[k=1]"]
