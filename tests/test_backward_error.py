import dataclasses
import json
import multiprocessing
import re
import sys
import threading
import time
import warnings
from functools import partial

import numpy as np
import pytest
import scipy.linalg

from bklab import (BkLabError, BlockKroneckerPencil, ConvergenceError,
                   Eigenstructure, MatrixPolynomial, Pencil, PreconditionError,
                   ShapeError, assemble_step3, backward_error, block_kronecker,
                   bound_degenerate, bound_nondegenerate, build_L,
                   build_Lambda, build_T, chordal_distance, convolution,
                   eigenstructure, from_polynomial,
                   generalized_eigenvalues, match_eigenvalues, matpoly,
                   multiply, pair_norm, pipeline_radius, pseudoinverse,
                   recover_polynomial, run_pipeline, sigma_min_T_closed,
                   solve_step1, solve_step2, staircase_eigenstructure,
                   step1_radius, step2_radius, zeros)
from bklab.backward_error import (SQRT2M1, BackwardErrorReport, _S_pinv,
                                  _S_scalar_pinv, _T_pinv, _T_scalar_pinv)
from bklab.eigenstructure import _certify_eigenvalues, _normal_rank
from bklab.experiments import (ExperimentConfig, complex_gaussian,
                               generate_trial, random_pencil_perturbation,
                               random_polynomial, random_singular_polynomial,
                               run_backward_error_batch, trial_rng)
from bklab.tolerances import EPS
from oracles import certify_eigenvalues_by_svd, det_roots


def _random_block_kronecker(rng, eps, eta, m, n, unit_norm=True):
    d = eps + eta + 1
    P = random_polynomial(m, n, d, rng, norm=1.0 if unit_norm else None)
    return from_polynomial(P, eps, eta, "hook")


def _admissible_step1_trial(rng, fraction):
    eps = int(rng.integers(1, 4))
    eta = int(rng.integers(1, 4))
    m = int(rng.integers(1, 3))
    n = int(rng.integers(1, 3))
    bk = _random_block_kronecker(rng, eps, eta, m, n)
    d = bk.grade
    radius = step1_radius(d, bk.one_one_norm())
    dL = random_pencil_perturbation(bk.shape, fraction * radius, rng)
    return bk, dL


# ------------------------------------------------------------------ build_T

def test_build_T_shape_and_sigma():
    T = build_T(1, 1, 1, 1)
    assert T.shape == (2, 4)
    smin = np.linalg.svd(T, compute_uv=False)[-1]
    assert smin == pytest.approx(np.sqrt(2.0), abs=1e-12)


@pytest.mark.parametrize("eps,eta", [(1, 2), (2, 2), (3, 1), (2, 3)])
def test_build_T_matches_closed_form(eps, eta):
    for m, n in ((1, 1), (2, 1), (1, 2)):
        T = build_T(eps, eta, m, n)
        smin = np.linalg.svd(T, compute_uv=False)[-1]
        assert smin == pytest.approx(sigma_min_T_closed(eps, eta), abs=1e-12)


def test_build_T_rejects_degenerate():
    with pytest.raises(ShapeError):
        build_T(0, 1, 1, 1)


def _kron_T(eps, eta, m, n):
    """Reference: ``T`` from its definition as four Kronecker products."""
    E_eta, F_eta = np.abs(build_L(eta, m).coeff_stack)
    E_eps, F_eps = np.abs(build_L(eps, n).coeff_stack)
    I_en, I_hm = np.eye(eps * n), np.eye(eta * m)
    return np.vstack([
        np.hstack([np.kron(E_eta, I_en), np.kron(I_hm, E_eps)]),
        np.hstack([np.kron(F_eta, I_en), np.kron(I_hm, F_eps)]),
    ])


@pytest.mark.parametrize("eps,eta,m,n",
                         [(1, 1, 1, 1), (2, 3, 2, 1), (3, 1, 1, 3), (3, 3, 4, 4)])
def test_build_T_equals_its_kron_definition(eps, eta, m, n):
    T, want = build_T(eps, eta, m, n), _kron_T(eps, eta, m, n)
    assert T.dtype == want.dtype and T.shape == want.shape
    assert T.tobytes() == want.tobytes()


def _blocks(dL, bk):
    """The coefficient stacks ``(2, rows, cols)`` of the four blocks of
    ``dL`` along the natural partition of ``bk``."""
    r1, c1 = (bk.eta + 1) * bk.m, (bk.eps + 1) * bk.n
    S = dL.coeff_stack
    return S[:, :r1, :c1], S[:, :r1, c1:], S[:, r1:, :c1], S[:, r1:, c1:]


def _dense_delta_T(dL, bk):
    """Oracle: the perturbation of ``build_T``'s operator induced by the
    off-diagonal blocks, acting on ``[vec(C); vec(D)]`` (column-major)."""
    _, d12, d21, _ = _blocks(dL, bk)
    I_en = np.eye(d21.shape[1])
    I_hm = np.eye(d12.shape[2])
    return np.vstack([
        np.hstack([np.kron(-d12[0].T, I_en), np.kron(I_hm, -d21[0])]),
        np.hstack([np.kron(d12[1].T, I_en), np.kron(I_hm, d21[1])]),
    ])


def _vec(M):
    return M.flatten(order="F")


def test_delta_T_zero_for_zero_perturbation():
    rng = trial_rng(70, 0)
    bk = _random_block_kronecker(rng, 1, 1, 1, 1)
    zero = random_pencil_perturbation(bk.shape, 0.0, rng)
    assert np.all(_dense_delta_T(zero, bk) == 0)
    assert solve_step1(bk, zero).gauge.delta_T_bound == 0.0


@pytest.mark.parametrize("eps,eta,m,n", [(1, 1, 1, 1), (2, 3, 2, 1),
                                         (3, 1, 1, 3), (3, 3, 4, 4)])
def test_block_T_pinv_matches_dense(eps, eta, m, n):
    rng = trial_rng(76, eps * 1000 + eta * 100 + m * 10 + n)
    R0 = complex_gaussian((eps * n, eta * m), rng)
    R1 = complex_gaussian((eps * n, eta * m), rng)
    C, D = _T_pinv(np.stack([R0, R1]), eps, eta, m, n)
    assert C.shape == (eps * n, (eta + 1) * m)
    assert D.shape == ((eps + 1) * n, eta * m)
    want = pseudoinverse(build_T(eps, eta, m, n)) @ np.concatenate(
        [_vec(R0), _vec(R1)])
    assert np.max(np.abs(np.concatenate([_vec(C), _vec(D)]) - want)) <= 1e-12


def test_delta_T_bound_is_certified(monkeypatch):
    # the gauge is read before any sweep; the iteration would not converge
    # at the larger magnitudes
    monkeypatch.setattr(backward_error, "_fixed_point",
                        lambda update, x, step: (x, 0, []))
    for trial in range(60):
        rng = trial_rng(77, trial)
        eps, eta = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        m, n = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        bk = _random_block_kronecker(rng, eps, eta, m, n)
        magnitude = (1e-8, 1e-3, 0.1, 1.0, 10.0)[trial % 5]
        dL = random_pencil_perturbation(bk.shape, magnitude, rng)
        exact = np.linalg.norm(_dense_delta_T(dL, bk), 2)
        bound = solve_step1(bk, dL, force=True).gauge.delta_T_bound
        assert exact <= bound * (1 + 1e-12)
        assert bound <= dL.frobenius_norm() * (1 + 1e-12)


# ------------------------------------------------------------------- step 1

def test_step1_zero_perturbation():
    rng = trial_rng(71, 0)
    bk = _random_block_kronecker(rng, 1, 1, 2, 2)
    zero = random_pencil_perturbation(bk.shape, 0.0, rng)
    result = solve_step1(bk, zero)
    assert result.iterations == 0
    assert np.all(result.C == 0) and np.all(result.D == 0)
    assert result.dLt12.frobenius_norm() == 0.0
    assert result.dLt21.frobenius_norm() == 0.0


def test_step1_contract_on_admissible_trials():
    for trial in range(40):
        rng = trial_rng(72, trial)
        bk, dL = _admissible_step1_trial(rng, rng.uniform(0.05, 0.95))
        result = solve_step1(bk, dL)
        d = bk.grade
        gauge = result.gauge
        assert gauge.solvable
        # residual of the restored zero block
        assert result.residual <= 1e-12 * (1.0 + bk.frobenius_norm())
        # both norm bounds on the solution pair
        assert result.cd_norm <= 2.0 * gauge.theta / gauge.delta + 1e-15
        assert result.cd_norm <= d * dL.frobenius_norm() / SQRT2M1 + 1e-15
        # the updated off-diagonal blocks obey their bound
        cap = dL.frobenius_norm() * (
            1.0 + d / SQRT2M1 * (bk.one_one_norm() + dL.frobenius_norm()))
        assert max(result.dLt12.frobenius_norm(),
                   result.dLt21.frobenius_norm()) <= cap * (1 + 1e-12)


def test_step1_transformed_blocks_definition():
    rng = trial_rng(73, 0)
    bk, dL = _admissible_step1_trial(rng, 0.5)
    result = solve_step1(bk, dL)
    d11, d12, d21, _ = _blocks(dL, bk)
    M_pert = Pencil.from_parts(bk.M0 + d11[0], bk.M1 + d11[1])
    want12 = Pencil.from_parts(M_pert.M0 @ result.D + d12[0],
                               M_pert.M1 @ result.D + d12[1])
    want21 = Pencil.from_parts(result.C @ M_pert.M0 + d21[0],
                               result.C @ M_pert.M1 + d21[1])
    assert np.all(result.dLt12.coeff_stack == want12.coeff_stack)
    assert np.all(result.dLt21.coeff_stack == want21.coeff_stack)


def test_step1_residual_from_blocks_without_assembly(monkeypatch):
    # the (2,2) block [C I](L+dL)[D;I] is read off the blocks, L_12 and L_21
    # only picking and shifting blocks of C and D; it must equal the
    # assembled product at the fixed point and at any other (C, D)
    def refuse(self):
        raise AssertionError("BlockKroneckerPencil.assemble called")

    def assembled_residual(bk, dL, C, D):
        CI = np.hstack([C, np.eye(C.shape[0])])
        DI = np.vstack([D, np.eye(D.shape[1])])
        return np.linalg.norm(CI @ (bk.assemble() + dL).coeff_stack @ DI)

    for trial in range(10):
        rng = trial_rng(95, trial)
        bk, dL = _admissible_step1_trial(rng, 0.5)
        scale = 1.0 + bk.frobenius_norm()
        with monkeypatch.context() as mp:
            mp.setattr(BlockKroneckerPencil, "assemble", refuse)
            result = solve_step1(bk, dL)
        assert result.residual <= 1e-12 * scale
        assert abs(result.residual - assembled_residual(
            bk, dL, result.C, result.D)) <= 1e-12 * scale

        C = complex_gaussian(result.C.shape, rng)
        D = complex_gaussian(result.D.shape, rng)
        with monkeypatch.context() as mp:
            mp.setattr(BlockKroneckerPencil, "assemble", refuse)
            mp.setattr(backward_error, "_fixed_point",
                       lambda update, x, step: ((C, D), 1, [pair_norm(C, D)]))
            away = solve_step1(bk, dL)
        want = assembled_residual(bk, dL, C, D)
        assert abs(away.residual - want) <= 1e-13 * want


def test_step1_kappa_sequence_monotone_and_bounded():
    rng = trial_rng(74, 5)
    bk, dL = _admissible_step1_trial(rng, 0.98)
    result = solve_step1(bk, dL)
    seq = result.kappa_sequence
    assert len(seq) >= 1
    kappa1 = seq[0]
    assert kappa1 < 0.25
    fixed_point = 2 * kappa1 / (1 - 2 * kappa1 + np.sqrt(1 - 4 * kappa1))
    for a, b in zip(seq, seq[1:]):
        assert a < b
    assert all(k <= fixed_point + 1e-15 for k in seq)


def test_step1_contract_at_scale():
    # m = n = 20, d = 9: the dense T would be 12800 x 16000
    rng = trial_rng(78, 0)
    bk = _random_block_kronecker(rng, 4, 4, 20, 20)
    d = bk.grade
    dL = random_pencil_perturbation(
        bk.shape, 0.5 * step1_radius(d, bk.one_one_norm()), rng)
    result = solve_step1(bk, dL)
    gauge = result.gauge
    assert gauge.solvable
    assert result.residual <= 1e-12 * (1.0 + bk.frobenius_norm())
    assert result.cd_norm <= 2.0 * gauge.theta / gauge.delta + 1e-15
    assert result.cd_norm <= d * dL.frobenius_norm() / SQRT2M1 + 1e-15


def test_step1_refuses_outside_radius():
    rng = trial_rng(75, 0)
    bk = _random_block_kronecker(rng, 1, 1, 1, 1)
    dL = random_pencil_perturbation(bk.shape, 5.0, rng)
    with pytest.raises(PreconditionError) as err:
        solve_step1(bk, dL)
    assert "delta" in str(err.value) or "theta" in str(err.value)


def test_step1_degenerate_pass_through():
    rng = trial_rng(76, 0)
    P = random_polynomial(2, 2, 3, rng)
    bk = from_polynomial(P, 2, 0, "frobenius1")
    dL = random_pencil_perturbation(bk.shape, 1e-3, rng)
    result = solve_step1(bk, dL)
    _, _, d21, _ = _blocks(dL, bk)
    assert result.gauge is None and result.iterations == 0
    assert result.C.shape == (4, 2) and result.C.size == 8
    assert result.D.shape == (6, 0)
    assert np.all(result.dLt21.coeff_stack == d21)


# ------------------------------------------------------------------- step 2

def test_step2_zero_input():
    eps, n = 2, 2
    zero = Pencil.from_parts(np.zeros((eps * n, (eps + 1) * n)),
                             np.zeros((eps * n, (eps + 1) * n)))
    dR, residual = solve_step2(zero, eps, n)
    assert dR.frobenius_norm() == 0.0 and residual == 0.0


def test_step2_contract_on_admissible_trials():
    for trial in range(40):
        rng = trial_rng(77, trial)
        eps = int(rng.integers(1, 4))
        n = int(rng.integers(1, 3))
        norm = rng.uniform(0.05, 0.95) * step2_radius(eps)
        dLt21 = random_pencil_perturbation((eps * n, (eps + 1) * n), norm, rng)
        dR, residual = solve_step2(dLt21, eps, n)
        assert residual <= 1e-12 * (1.0 + dLt21.frobenius_norm())
        assert dR.frobenius_norm() <= \
            np.sqrt(2.0) * (eps + 1) * dLt21.frobenius_norm() * (1 + 1e-12)
        assert dR.frobenius_norm() < 1.0 / np.sqrt(2.0)
        # duality: (L + dLt21)(Lambda + dR) = 0 as a polynomial
        K = Pencil.from_parts(build_L(eps, n).M0 + dLt21.M0,
                              build_L(eps, n).M1 + dLt21.M1)
        prod = multiply(K, build_Lambda(eps, n) + dR)
        coeff_norms = [np.linalg.norm(prod.coeff(k)) for k in range(prod.grade + 1)]
        assert max(coeff_norms) <= 1e-12 * (1.0 + dLt21.frobenius_norm())


def test_step2_refuses_outside_radius():
    rng = trial_rng(78, 0)
    eps, n = 1, 1
    dLt21 = random_pencil_perturbation((eps * n, (eps + 1) * n),
                                       2.0 * step2_radius(eps), rng)
    with pytest.raises(PreconditionError):
        solve_step2(dLt21, eps, n)


def test_step2_eta_side_through_transposition():
    rng = trial_rng(79, 0)
    bk, dL = _admissible_step1_trial(rng, 0.5)
    result = solve_step1(bk, dL)
    dR_eta, residual = solve_step2(result.dLt12.transpose(), bk.eta, bk.m)
    assert dR_eta.shape == ((bk.eta + 1) * bk.m, bk.m)
    assert dR_eta.grade == bk.eta
    assert residual <= 1e-12 * (1.0 + result.dLt12.frobenius_norm())


def test_step2_takes_one_norm_per_iterate_array(monkeypatch):
    # the iterate is one coefficient stack, so a sweep takes two norms (the
    # step and the iterate), not two per coefficient
    eps, n = 6, 2
    rng = trial_rng(96, 0)
    dLt21 = random_pencil_perturbation((eps * n, (eps + 1) * n),
                                       0.5 * step2_radius(eps), rng)
    calls, sweeps = [0], []
    norm, fixed_point = matpoly._frobenius, backward_error._fixed_point

    def counted_norm(*args, **kwargs):
        calls[0] += 1
        return norm(*args, **kwargs)

    def counted_fixed_point(update, x, step):
        before = calls[0]
        out = fixed_point(update, x, step)
        sweeps.append((out[1], calls[0] - before))
        return out

    monkeypatch.setattr(matpoly, "_frobenius", counted_norm)
    monkeypatch.setattr(backward_error, "_fixed_point", counted_fixed_point)
    solve_step2(dLt21, eps, n)
    (iterations, norms), = sweeps
    assert iterations > 1 and norms == 2 * iterations


@pytest.mark.parametrize("eps,n", [(1, 1), (2, 3), (4, 2), (6, 8)])
def test_scalar_S_pinv_matches_dense(eps, n):
    rng = trial_rng(92, eps * 10 + n)
    Y = complex_gaussian((eps + 2, eps * n, n), rng)
    X = _S_pinv(Y, eps, n)
    assert X.shape == (eps + 1, (eps + 1) * n, n)
    dense = pseudoinverse(convolution(build_L(eps, n), eps))
    want = dense @ convolution(MatrixPolynomial(Y), 0)
    got = convolution(MatrixPolynomial(X), 0)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_step2_contract_at_scale():
    # eps = 8, n = 20: the dense C_eps(L + dLt21) would be 1600 x 1620
    rng = trial_rng(93, 0)
    eps, n = 8, 20
    dLt21 = random_pencil_perturbation((eps * n, (eps + 1) * n),
                                       0.9 * step2_radius(eps), rng)
    dR, residual = solve_step2(dLt21, eps, n)
    assert residual <= 1e-11
    assert dR.frobenius_norm() <= \
        np.sqrt(2.0) * (eps + 1) * dLt21.frobenius_norm() * (1 + 1e-13)


def test_forced_step2_divergence_raises():
    # ||C_eps(dLt21)|| far above sigma_min(S): the iteration cannot settle,
    # and a forced run must raise rather than return a non-finite dR
    for trial in range(5):
        rng = trial_rng(94, trial)
        eps, n = 2, 2
        dLt21 = random_pencil_perturbation((eps * n, (eps + 1) * n), 100.0, rng)
        with np.errstate(all="ignore"), pytest.raises(ConvergenceError):
            solve_step2(dLt21, eps, n, force=True)


# ------------------------------------------------------------------- step 3

def test_step3_zero_perturbations_give_zero():
    rng = trial_rng(80, 0)
    bk = _random_block_kronecker(rng, 1, 1, 2, 2)
    dP = assemble_step3(
        bk, Pencil.from_parts(np.zeros(((bk.eta + 1) * bk.m, (bk.eps + 1) * bk.n)),
                              np.zeros(((bk.eta + 1) * bk.m, (bk.eps + 1) * bk.n))),
        zeros((bk.eps + 1) * bk.n, bk.n, grade=bk.eps),
        zeros((bk.eta + 1) * bk.m, bk.m, grade=bk.eta)) - recover_polynomial(bk)
    assert dP.frobenius_norm() == 0.0


def _random_dR(rows, cols, grade, norm, rng):
    coeffs = [complex_gaussian((rows, cols), rng) for _ in range(grade + 1)]
    dR = MatrixPolynomial(coeffs, grade=grade)
    return (norm / dR.frobenius_norm()) * dR


def test_step3_norm_bound_nondegenerate():
    for trial in range(30):
        rng = trial_rng(81, trial)
        eps, eta = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        m, n = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        bk = _random_block_kronecker(rng, eps, eta, m, n)
        d = bk.grade
        dL11 = random_pencil_perturbation(((eta + 1) * m, (eps + 1) * n),
                                          rng.uniform(0, 0.2), rng)
        s_eps = rng.uniform(1e-3, 0.999) / np.sqrt(2.0)
        s_eta = rng.uniform(1e-3, 0.999) / np.sqrt(2.0)
        dR_eps = _random_dR((eps + 1) * n, n, eps, s_eps, rng)
        dR_eta = _random_dR((eta + 1) * m, m, eta, s_eta, rng)
        dP = assemble_step3(bk, dL11, dR_eps, dR_eta) - recover_polynomial(bk)
        cap = np.sqrt(d) * (5.0 * dL11.frobenius_norm()
                            + 4.0 * bk.one_one_norm() * max(s_eps, s_eta))
        assert dP.frobenius_norm() <= cap * (1 + 1e-12)


def test_step3_norm_bound_degenerate():
    for trial in range(30):
        rng = trial_rng(82, trial)
        eps = int(rng.integers(1, 4))
        m, n = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        P = random_polynomial(m, n, eps + 1, rng)
        bk = from_polynomial(P, eps, 0, "frobenius1")
        dL11 = random_pencil_perturbation((m, (eps + 1) * n),
                                          rng.uniform(0, 0.2), rng)
        s_eps = rng.uniform(1e-3, 0.999) / np.sqrt(2.0)
        dR_eps = _random_dR((eps + 1) * n, n, eps, s_eps, rng)
        dR_eta = zeros(m, m, grade=0)
        dP = assemble_step3(bk, dL11, dR_eps, dR_eta) - recover_polynomial(bk)
        cap = 3.0 * dL11.frobenius_norm() \
            + np.sqrt(2.0) * bk.one_one_norm() * dR_eps.frobenius_norm()
        assert dP.frobenius_norm() <= cap * (1 + 1e-12)


def test_step3_refuses_large_dR():
    rng = trial_rng(83, 0)
    bk = _random_block_kronecker(rng, 1, 1, 1, 1)
    big = _random_dR((bk.eps + 1) * bk.n, bk.n, bk.eps, 1.0, rng)
    small = zeros((bk.eta + 1) * bk.m, bk.m, grade=bk.eta)
    dL11 = random_pencil_perturbation(((bk.eta + 1) * bk.m, (bk.eps + 1) * bk.n), 0.0, rng)
    with pytest.raises(PreconditionError):
        assemble_step3(bk, dL11, big, small)


def test_step3_force_lifts_the_dR_precondition():
    # forced, Step 3 still returns the product (Lambda_eta + dR_eta)^T
    # (M + dL_11) (Lambda_eps + dR_eps), which is P + dP
    rng = trial_rng(83, 1)
    bk = _random_block_kronecker(rng, 1, 2, 2, 1)
    dR_eps = _random_dR((bk.eps + 1) * bk.n, bk.n, bk.eps, 1.0, rng)
    dR_eta = _random_dR((bk.eta + 1) * bk.m, bk.m, bk.eta, 0.1, rng)
    dL11 = random_pencil_perturbation(bk.one_one_block().shape, 0.1, rng)
    with pytest.raises(PreconditionError, match="dR_eps"):
        assemble_step3(bk, dL11, dR_eps, dR_eta)
    forced = assemble_step3(bk, dL11, dR_eps, dR_eta, force=True)
    left = (build_Lambda(bk.eta, bk.m) + dR_eta).transpose()
    right = build_Lambda(bk.eps, bk.n) + dR_eps
    want = multiply(multiply(left, bk.one_one_block() + dL11), right)
    assert forced.grade == bk.grade
    np.testing.assert_allclose(forced.coeff_stack, want.coeff_stack,
                               rtol=0, atol=1e-12)


# ----------------------------------------------------------------- pipeline

def test_pipeline_zero_perturbation():
    rng = trial_rng(84, 0)
    bk = _random_block_kronecker(rng, 1, 1, 2, 2)
    report = run_pipeline(bk, random_pencil_perturbation(bk.shape, 0.0, rng))
    assert report.ratio == 0.0 and report.bound_holds
    assert report.eigen_consistent and report.shift_consistent


def test_pipeline_nondegenerate_bound():
    for trial in range(8):
        rng = trial_rng(85, trial)
        bk = _random_block_kronecker(rng, 1, 1, 2, 2)
        dL = random_pencil_perturbation(bk.shape, 1e-8, rng)
        report = run_pipeline(bk, dL)
        assert report.bound_label == "nondegenerate"
        want = bound_nondegenerate(bk.grade, report.norm_L, report.norm_P,
                                   report.norm_M, report.norm_dL)
        assert report.bound == pytest.approx(want)
        assert report.ratio <= report.bound
        assert report.eigen_consistent and report.shift_consistent


def test_pipeline_degenerate_bound():
    for placement, eps, eta in (("frobenius1", 2, 0), ("frobenius2", 0, 2)):
        rng = trial_rng(86, eps)
        P = random_polynomial(2, 2, 3, rng)
        bk = from_polynomial(P, eps, eta, placement)
        dL = random_pencil_perturbation(bk.shape, 1e-8, rng)
        report = run_pipeline(bk, dL)
        assert report.bound_label == "degenerate"
        want = bound_degenerate(bk.grade, report.norm_L, report.norm_P,
                                report.norm_M, report.norm_dL)
        assert report.bound == pytest.approx(want)
        assert report.ratio <= report.bound


def test_pipeline_dual_repair_bound():
    # both dual corrections stay below sqrt(2) * d * max off-diagonal update
    for trial in range(20):
        rng = trial_rng(91, trial)
        eps, eta = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        bk = _random_block_kronecker(rng, eps, eta, 2, 2)
        dL = random_pencil_perturbation(bk.shape,
                                        0.5 * pipeline_radius(bk), rng)
        report = run_pipeline(bk, dL, check_eigen=False)
        cap = np.sqrt(2.0) * bk.grade * max(
            report.step1.dLt21.frobenius_norm(),
            report.step1.dLt12.frobenius_norm())
        assert max(report.dR_eps_norm, report.dR_eta_norm) <= cap * (1 + 1e-12)
        assert max(report.dR_eps_norm, report.dR_eta_norm) < 1.0 / np.sqrt(2.0)


def test_pipeline_refuses_outside_radius():
    rng = trial_rng(87, 0)
    bk = _random_block_kronecker(rng, 1, 1, 1, 1)
    dL = random_pencil_perturbation(bk.shape, 10.0 * pipeline_radius(bk), rng)
    with pytest.raises(PreconditionError):
        run_pipeline(bk, dL)
    report = run_pipeline(bk, dL, force=True, check_eigen=False)
    assert report.forced


def test_forced_step1_divergence_raises():
    # Far outside the radius the iterates overflow; the stopping rule must
    # not read inf <= inf as convergence.
    config = ExperimentConfig(seed=0, m=(3, 3), n=(3, 3), d=(5, 5),
                              magnitude=10.0, force=True)
    L, dL = generate_trial(config, 0)
    with pytest.raises(ConvergenceError, match="non-finite"):
        solve_step1(L, dL, force=True)


@pytest.mark.parametrize("trial,slow", [(0, True), (3, False)])
def test_capped_fixed_point_states_step_and_ratio(trial, slow):
    # backward-error --force --placement frobenius1 --d 5 --m 3 --n 3 --mag 3:
    # Step 2 hits the sweep cap in every trial; trial 0 still converges at
    # about x0.90 per sweep, trial 3 grows, and the message tells them apart
    config = ExperimentConfig(seed=0, m=(3, 3), n=(3, 3), d=(5, 5),
                              magnitude=3.0, placement="frobenius1", force=True)
    L, dL = generate_trial(config, trial)
    with pytest.raises(ConvergenceError) as info:
        run_pipeline(L, dL, force=True)
    message = str(info.value)
    assert message.startswith("step 2: fixed point did not meet the stopping "
                              "rule in 200 iterations; ")
    found = re.search(r"last step (\S+), step ratio (\S+) per sweep over the "
                      r"last 10 sweeps$", message)
    last, ratio = float(found[1]), float(found[2])
    if slow:
        assert last < 1e-8 and 0.85 < ratio < 0.95
    else:
        assert last > 1.0 and ratio > 1.0


@pytest.mark.parametrize("placement,eps,eta",
                         [("hook", 2, 2), ("frobenius1", 4, 0)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_perturbation_raises_a_typed_error(placement, eps, eta, bad):
    # a forced run either reports finite numbers or raises a BkLabError; a
    # bad entry of dL_11 or of the last row and column (the (2,2) block of
    # the hook, whose NaN would read theta > 0 as false and skip Step 1) is
    # refused before any step, with the eigen check or without it
    L = from_polynomial(random_polynomial(3, 3, 5, trial_rng(0, 0)), eps, eta,
                        placement)
    dL = random_pencil_perturbation(L.shape, 1e-6, trial_rng(0, 1))
    for where in ((0, 0, 0), (1, -1, -1)):
        stack = dL.coeff_stack.copy()
        stack[where] = bad
        for check_eigen in (True, False):
            with pytest.raises(ShapeError, match="non-finite"):
                run_pipeline(L, Pencil(stack), force=True,
                             check_eigen=check_eigen)


def test_nan_eigenvalue_marks_the_eigen_check_inconsistent(monkeypatch):
    # a NaN among the computed eigenvalues is reported as a failed check
    # with no distance, not matched into a plausible number; it enters
    # through QZ, so the QZ run first, the staircase of L + dL and that of
    # the fresh linearization all read it
    def nan_first(out):
        alpha = out[0].copy()
        alpha[0] = np.nan
        return (alpha,) + tuple(out[1:])

    calls = _count_qz(monkeypatch, nan_first)
    rng = trial_rng(84, 0)
    bk = _random_block_kronecker(rng, 1, 1, 2, 2)
    dL = random_pencil_perturbation(bk.shape, 1e-8, rng)
    report = run_pipeline(bk, dL)
    assert len(calls) == 3
    assert report.eigen_checked
    assert report.eigen_consistent is False
    assert report.eigen_max_distance is None
    assert report.shift_consistent


def test_pipeline_recovers_and_splits_once(monkeypatch):
    # run_pipeline reuses its P for Step 3 and Step 1's (1,1) block of dL
    calls = []
    recover = backward_error.recover_polynomial

    def counted_recover(L):
        calls.append(L)
        return recover(L)

    monkeypatch.setattr(backward_error, "recover_polynomial", counted_recover)
    rng = trial_rng(92, 0)
    bk = _random_block_kronecker(rng, 2, 1, 2, 3)
    dL = random_pencil_perturbation(bk.shape, 1e-8, rng)
    report = run_pipeline(bk, dL)
    assert calls == [bk]
    assert report.bound_holds and report.eigen_consistent
    d11 = _blocks(dL, bk)[0]
    assert report.step1.dL11.coeff_stack.tobytes() == d11.tobytes()


def test_pipeline_runs_the_public_step3_once(monkeypatch):
    # Step 3 is assemble_step3, called once through its module name; dP is
    # its P + dP minus P, bit for bit, also when the steps run by hand
    returned = []
    step3 = backward_error.assemble_step3

    def counted(*args, **kwargs):
        returned.append(step3(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(backward_error, "assemble_step3", counted)
    for L, dL in _be_style_cases():
        returned.clear()
        report = run_pipeline(L, dL)
        assert len(returned) == 1
        P = recover_polynomial(L)
        assert report.dP.coeff_stack.tobytes() == (returned[0] - P).coeff_stack.tobytes()
        step1 = solve_step1(L, dL)
        dR_eps, _ = solve_step2(step1.dLt21, L.eps, L.n)
        dR_eta, _ = solve_step2(step1.dLt12.transpose(), L.eta, L.m)
        by_hand = step3(L, step1.dL11, dR_eps, dR_eta) - P
        assert report.dP.coeff_stack.tobytes() == by_hand.coeff_stack.tobytes()


def test_cached_scalar_pseudoinverses_are_read_only():
    for pinv in (_T_scalar_pinv(2, 3), _S_scalar_pinv(3)):
        with pytest.raises(ValueError):
            pinv[0, 0] = 1.0
    assert _T_scalar_pinv(2, 3) is _T_scalar_pinv(2, 3)
    assert _S_scalar_pinv(3) is _S_scalar_pinv(3)
    # so are the structural blocks
    assert build_L(3, 2) is build_L(3, 2)
    assert build_Lambda(3, 2) is build_Lambda(3, 2)
    for block in (build_L(3, 2), build_Lambda(3, 2)):
        with pytest.raises(ValueError):
            block.coeff_stack[0, 0, 0] = 1.0
    # a cached operand must not carry state from one call to the next
    rng = trial_rng(93, 0)
    bk = _random_block_kronecker(rng, 2, 2, 2, 2)
    dL = random_pencil_perturbation(bk.shape, 1e-7, rng)
    first, second = run_pipeline(bk, dL), run_pipeline(bk, dL)
    assert json.dumps(first.to_json()) == json.dumps(second.to_json())


def test_pipeline_builds_no_kron_operand(monkeypatch):
    # once the (eps, eta)-only constants are cached, every operand of the
    # pipeline and of its eigen check is applied or indexed, never np.kron'd
    rng = trial_rng(94, 0)
    hook = from_polynomial(random_polynomial(2, 2, 7, rng), 3, 3, "hook")
    frob = from_polynomial(random_polynomial(3, 3, 4, rng), 3, 0, "frobenius1")
    cases = [(L, random_pencil_perturbation(L.shape, 0.5 * pipeline_radius(L), rng))
             for L in (hook, frob)]
    for L, dL in cases:
        run_pipeline(L, dL)

    def refuse(*args, **kwargs):
        raise AssertionError("np.kron called")

    monkeypatch.setattr(np, "kron", refuse)
    for L, dL in cases:
        report = run_pipeline(L, dL, check_eigen=True)
        assert report.bound_holds
        assert report.eigen_consistent and report.shift_consistent
    # cold caches: Step 2's scalar C_eps(L_eps) comes from convolution and
    # Step 1's scalar T(eps, eta, 1, 1) from index placements
    for cached in (_S_scalar_pinv, _T_scalar_pinv, build_L, build_Lambda):
        cached.cache_clear()
    for L, dL in cases:
        report = run_pipeline(L, dL, check_eigen=True)
        assert report.bound_holds
        assert report.eigen_consistent and report.shift_consistent


def test_warm_pipeline_never_takes_coefficient_norms_for_degree(monkeypatch):
    # grades are checked with np.any on the stack, never through degree()'s
    # per-coefficient norms
    rng = trial_rng(97, 0)
    cases = []
    for placement, eps, eta in (("hook", 2, 1), ("frobenius1", 3, 0),
                                ("frobenius2", 0, 2)):
        L = from_polynomial(random_polynomial(2, 2, eps + eta + 1, rng), eps,
                            eta, placement)
        cases.append((L, random_pencil_perturbation(
            L.shape, 0.5 * pipeline_radius(L), rng)))
    for L, dL in cases:
        run_pipeline(L, dL)

    def refuse(self, tol=0.0):
        raise AssertionError("MatrixPolynomial.degree called")

    monkeypatch.setattr(MatrixPolynomial, "degree", refuse)
    for L, dL in cases:
        report = run_pipeline(L, dL, check_eigen=True)
        assert report.eigen_consistent and report.shift_consistent


def test_warm_pipeline_takes_the_one_one_norm_once(monkeypatch):
    # ||M|| feeds ||L||, the radius and the bounds; the read-only pencil
    # keeps it after the first time
    rng = trial_rng(98, 0)
    bk = from_polynomial(random_polynomial(2, 2, 7, rng), 3, 3, "hook")
    dL = random_pencil_perturbation(bk.shape, 0.5 * pipeline_radius(bk), rng)
    run_pipeline(bk, dL)
    calls = []

    def counted(*arrays):
        calls.append(len(arrays))
        return pair_norm(*arrays)

    monkeypatch.setattr(block_kronecker, "pair_norm", counted)
    L = BlockKroneckerPencil(bk.M0, bk.M1, bk.eps, bk.eta, bk.m, bk.n)
    report = run_pipeline(L, dL, check_eigen=True)
    assert calls == [2]
    assert report.norm_M == pair_norm(bk.M0, bk.M1)
    assert report.eigen_consistent and report.shift_consistent


def test_degenerate_path_equals_manual_steps():
    # for eta = 0 the pipeline must coincide exactly with running step 2 on
    # the raw (2,1) block and assembling with an empty eta side
    rng = trial_rng(88, 0)
    P = random_polynomial(2, 2, 3, rng)
    bk = from_polynomial(P, 2, 0, "frobenius1")
    dL = random_pencil_perturbation(bk.shape, 1e-6, rng)
    report = run_pipeline(bk, dL, check_eigen=False)
    d11, _, d21, _ = _blocks(dL, bk)
    dR_eps, _ = solve_step2(Pencil(d21), bk.eps, bk.n)
    dP = assemble_step3(bk, Pencil(d11), dR_eps,
                        zeros((bk.eta + 1) * bk.m, bk.m, grade=0)
                        ) - recover_polynomial(bk)
    assert np.all(report.dP.coeff_stack == dP.coeff_stack)


def test_report_serialization():
    rng = trial_rng(89, 0)
    bk = _random_block_kronecker(rng, 1, 1, 1, 2)
    dL = random_pencil_perturbation(bk.shape, 1e-8, rng)
    report = run_pipeline(bk, dL)
    blob = report.to_json()
    assert blob["bound_holds"] and blob["step1"]["gauge"]["solvable"]
    record = report.record()
    assert set(blob) == set(record) | {"step1", "dP"}
    assert {key: blob[key] for key in record} == record
    assert record["step1_residual"] == blob["step1"]["residual"]


def test_reports_are_strict_json():
    rng = trial_rng(91, 0)
    bk = from_polynomial(random_polynomial(2, 2, 3, rng), 1, 1, "hook")
    dL = random_pencil_perturbation(bk.shape, 1e-8, rng)
    admissible = run_pipeline(bk, dL).to_json()
    json.dumps(admissible, allow_nan=False)
    assert admissible["step1"]["gauge"]["solvable"] is True
    # forced far outside the radius: the gauge is unsolvable
    config = ExperimentConfig(seed=0, m=(3, 3), n=(3, 3), d=(5, 5),
                              magnitude=1.0, force=True)
    L, dL = generate_trial(config, 0)
    forced = run_pipeline(L, dL, force=True).to_json()
    json.dumps(forced, allow_nan=False)
    assert forced["step1"]["gauge"]["solvable"] is False
    assert forced["step1"]["kappa_sequence"] == []


# the report: what the pipeline measured, and what is derived from it

_DERIVED = ("grade", "degenerate", "bound_label", "admissible", "bound_holds")

_RECORD_KEYS = [
    "epsilon", "eta", "m", "n", "grade", "degenerate", "norm_P", "norm_L",
    "norm_M", "norm_dL", "radius", "admissible", "forced", "step1_residual",
    "step1_iterations", "dR_eps_norm", "dR_eta_norm", "step2_residual_eps",
    "step2_residual_eta", "ratio", "bound", "bound_label", "bound_informal",
    "bound_holds", "eigen_checked", "eigen_max_distance", "eigen_consistent",
    "shift_consistent", "eigen_backward_error",
]


def test_report_stores_measurements_and_derives_its_flags():
    names = [f.name for f in dataclasses.fields(BackwardErrorReport)]
    assert len(names) == 22 and not set(_DERIVED) & set(names)
    for name in _DERIVED + ("forced", "eigen_checked", "verdict"):
        attribute = getattr(BackwardErrorReport, name)
        assert isinstance(attribute, property) and attribute.fset is None


def _assert_derived_as_before(report, L):
    # each derived flag equals the expression run_pipeline used to store
    assert report.grade == L.grade
    assert report.degenerate == (L.eps == 0 or L.eta == 0)
    assert report.bound_label == ("degenerate" if L.eps == 0 or L.eta == 0
                                  else "nondegenerate")
    assert report.admissible is bool(report.norm_dL < report.radius)
    assert report.bound_holds is bool(report.ratio <= report.bound)
    assert list(report.record()) == _RECORD_KEYS


def test_derived_flags_on_the_benchmark_inputs():
    for L, dL in _be_style_cases(3, pool=16):
        report = run_pipeline(L, dL)
        _assert_derived_as_before(report, L)
        assert report.verdict == ("passed", None)


def test_forced_batch_rows_carry_the_verdict():
    config = ExperimentConfig(seed=0, trials=10, magnitude=3.0, force=True)
    rows = run_backward_error_batch(config)["trials"]
    reported = 0
    for index, row in enumerate(rows):
        if row["status"] == "error":
            continue
        reported += 1
        L, dL = generate_trial(config, index)
        report = run_pipeline(L, dL, force=True)
        _assert_derived_as_before(report, L)
        assert (row["status"], row["reason"]) == report.verdict == (
            "unguaranteed", "forced outside the guaranteed radius")
        assert list(row) == ["trial", "status", "reason", *_RECORD_KEYS,
                             "margin", "ratio_over_bound"]
    assert reported >= 1


def test_verdict_states_each_status_and_reason():
    rng = trial_rng(89, 0)
    bk = _random_block_kronecker(rng, 1, 1, 1, 2)
    report = run_pipeline(bk, random_pencil_perturbation(bk.shape, 1e-8, rng))
    assert report.verdict == ("passed", None)
    forced = run_pipeline(bk, random_pencil_perturbation(
        bk.shape, 2.0 * pipeline_radius(bk), rng), force=True)
    assert forced.verdict == ("unguaranteed",
                              "forced outside the guaranteed radius")
    # a report built directly: a ratio above its bound
    over = dataclasses.replace(report, ratio=2.0 * report.bound)
    assert over.verdict == (
        "failed", f"ratio {over.ratio:.3e} > bound {over.bound:.3e}")
    # and an unsolvable gauge, on either of its two conditions
    gauge = report.step1.gauge
    for changes, condition in (
            ({"delta_T_bound": gauge.sigma_min_T}, "delta = sigma_min(T) - "
             "delta_T_bound > 0"),
            ({"theta": gauge.delta ** 2 / gauge.omega},
             "theta * omega / delta^2 < 1/4")):
        bad = dataclasses.replace(gauge, **changes)
        assert not bad.solvable and bad.violated_condition() == condition
        unsolvable = dataclasses.replace(
            report, step1=dataclasses.replace(report.step1, gauge=bad))
        assert unsolvable.verdict == ("failed",
                                      f"step 1 gauge violates {condition}")


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
def test_pipeline_at_the_ends_of_the_float_range(scale):
    # every run ends in a report of finite numbers or a typed refusal; at
    # 1e160 and above ||M||^2 overflows, and the hook pencil's bound is
    # still finite inside the radius of about 1e-162 (or 1e-302), while a
    # run forced far beyond it diverges in Step 1
    P = scale * random_polynomial(2, 2, 3, trial_rng(0, 0))
    for eps, eta, placement in ((1, 1, "hook"), (2, 0, "frobenius1")):
        L = from_polynomial(P, eps, eta, placement)
        radius = pipeline_radius(L)
        for magnitude in (0.0, 0.5 * radius, 1e-8, 1.0):
            dL = random_pencil_perturbation(L.shape, magnitude, trial_rng(1, 0))
            inside = magnitude < radius
            for force in (False, True):
                if not inside and force and scale > 1 and placement == "hook":
                    with pytest.raises(ConvergenceError,
                                       match="step 1: fixed point diverged"):
                        run_pipeline(L, dL, force=force)
                    continue
                if not (inside or force):
                    with pytest.raises(PreconditionError, match="radius"):
                        run_pipeline(L, dL, force=force)
                    continue
                report = run_pipeline(L, dL, force=force)
                blob = json.dumps(report.to_json(), allow_nan=False)
                assert report.verdict[0] == ("passed" if inside
                                             else "unguaranteed"), blob


@pytest.mark.parametrize("half", [0.0, 0.5])
@pytest.mark.parametrize("scale", [1e-160, 1.0, 1e160])
def test_hook_bound_is_finite_where_the_norm_of_M_squared_overflows(scale,
                                                                    half):
    # at 1e160, 1 + ||M|| + ||M||^2 overflows, but the bound inside the
    # radius does not
    P = scale * random_polynomial(2, 2, 3, trial_rng(0, 0))
    L = from_polynomial(P, 1, 1, "hook")
    dL = random_pencil_perturbation(L.shape, half * pipeline_radius(L),
                                    trial_rng(0, 1))
    report = run_pipeline(L, dL, check_eigen=False)
    assert np.isfinite(report.ratio) and np.isfinite(report.bound)
    assert report.ratio <= report.bound
    assert report.verdict == ("passed", None)


def test_bound_nondegenerate_changes_its_order_only_beyond_the_float_range():
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = int(rng.integers(2, 10))
        norm_L, norm_P, norm_M, norm_dL = 10.0 ** rng.uniform(-5, 5, 4)
        want = (14.0 * d ** 2.5 * (norm_L / norm_P)
                * (1.0 + norm_M + norm_M ** 2) * (norm_dL / norm_L))
        assert bound_nondegenerate(d, norm_L, norm_P, norm_M, norm_dL) == want
    assert bound_nondegenerate(3, 2.0, 1e160, 1e160, 0.0) == 0.0
    # (1 + ||M|| + ||M||^2) ||dL|| / ||P|| is about ||dL|| ||M|| = 1e-3 here
    assert bound_nondegenerate(3, 2.0, 1e160, 1e160, 1e-163) == pytest.approx(
        14.0 * 3 ** 2.5 * 1e-3, rel=1e-12)
    assert bound_nondegenerate(3, 2.0, 1e-200, 1e160, 1e-163) == np.inf


def test_bound_degenerate_changes_its_order_only_beyond_the_float_range():
    rng = np.random.default_rng(1)
    for _ in range(200):
        d = int(rng.integers(2, 10))
        norm_L, norm_P, norm_M, norm_dL = 10.0 ** rng.uniform(-5, 5, 4)
        want = (2.0 * d * (norm_L / norm_P) * (1.0 + norm_M)
                * (norm_dL / norm_L))
        assert bound_degenerate(d, norm_L, norm_P, norm_M, norm_dL) == want
    # ||L|| / ||P|| overflows: inf * 0 was NaN, and is 0
    assert bound_degenerate(3, 2.0, 1e-310, 1e-310, 0.0) == 0.0
    assert bound_degenerate(3, 2.0, 1e-310, 1e-310, 1e-320) == pytest.approx(
        6.0 * 1e-320 / 1e-310, rel=1e-3)
    assert bound_degenerate(3, 2.0, 1e-310, 1e-310, 1.0) == np.inf


@pytest.mark.parametrize("scale", [1e-320, 1e-310])
def test_pipeline_at_a_subnormal_scale_passes_a_zero_perturbation(scale):
    # ||P|| once overflowed to inf at 1e-320 and made the hook radius NaN,
    # and the one-sided bound was inf * 0 at 1e-310; both runs pass.  A
    # nonzero dL of the radius's size puts ||dL|| / ||P|| and the bound
    # beyond the float range, which the pipeline refuses
    P = scale * random_polynomial(2, 2, 3, trial_rng(0, 0))
    assert P.frobenius_norm() == pytest.approx(scale, rel=1e-3)
    for eps, eta, placement in ((1, 1, "hook"), (2, 0, "frobenius1")):
        L = from_polynomial(P, eps, eta, placement)
        zero = Pencil(np.zeros((2,) + L.shape, dtype=complex))
        report = run_pipeline(L, zero)
        assert np.isfinite(report.radius)
        assert (report.ratio, report.bound) == (0.0, 0.0)
        assert report.verdict == ("passed", None)


def test_pipeline_perturbed_pencil_is_linearization_of_perturbed_poly():
    # the strict-equivalence consistency in full: eigenvalues of L + dL match
    # the det roots of P + dP
    rng = trial_rng(90, 0)
    bk = _random_block_kronecker(rng, 1, 1, 2, 2)
    dL = random_pencil_perturbation(bk.shape, 1e-9, rng)
    report = run_pipeline(bk, dL, check_eigen=False)
    P_pert = recover_polynomial(bk) + report.dP
    roots = det_roots(P_pert)
    finite, _ = generalized_eigenvalues(bk.assemble() + dL)
    assert match_eigenvalues(roots, finite) <= 1e-6


# ------------------------------------------------------- eigen certificate

def _be_style_cases(seed=3, pool=1):
    """Inputs built as the benchmark's ``be_sylvester`` (hook, 4x4, grade 7)
    and ``be_onesided`` (frobenius1, 8x8, grade 7) workloads build theirs:
    the first ``pool`` of each (the benchmark's pool holds 16)."""
    cases = []
    for m, eps, eta, placement in ((4, 3, 3, "hook"), (8, 6, 0, "frobenius1")):
        for index in range(pool):
            rng = trial_rng(seed, index)
            L = from_polynomial(random_polynomial(m, m, eps + eta + 1, rng),
                                eps, eta, placement)
            dL = random_pencil_perturbation(L.shape,
                                            0.5 * pipeline_radius(L), rng)
            cases.append((L, dL))
    return cases


def _double_eigenvalue_case():
    # diag(lambda - 1, lambda - 1) at grade 2: dL splits the double
    # eigenvalue 1 by about ||dL|| and moves the two infinite ones near
    # infinity, closer than 2 eigen_tol on both counts
    eye = np.eye(2)
    L = from_polynomial(MatrixPolynomial([-eye, eye, 0.0 * eye]), 1, 0, "hook")
    return L, random_pencil_perturbation(L.shape, 1e-8, trial_rng(5, 0))


def _perturbed_structure(L, dL):
    return staircase_eigenstructure(
        Pencil(L.assemble().coeff_stack + dL.coeff_stack))


def _chordal_match(L, dL, report):
    """The eigen check without the certificate: the chordal match of the
    finite eigenvalues of ``L + dL`` with those of a fresh hook
    linearization of ``P + dP``."""
    fresh = from_polynomial(recover_polynomial(L) + report.dP, L.eps, L.eta,
                            "hook")
    return match_eigenvalues(_perturbed_structure(L, dL).finite,
                             staircase_eigenstructure(fresh.assemble()).finite)


def _count_qz(monkeypatch, change=lambda out: out):
    """The orders of the QZ runs from now on, each one ``zggev`` call that
    is not a workspace query; ``change`` may alter what each returns."""
    calls = []
    zggev = eigenstructure._zggev()

    def counted(a, b, lwork):
        out = zggev(a, b, lwork=lwork)
        if lwork == -1:
            return out
        calls.append(a.shape)
        return change(out)

    monkeypatch.setattr(eigenstructure, "_zggev", lambda: counted)
    return calls


def _refuse(what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{what} called")
    return refuse


def test_certified_eigen_check_runs_one_qz_and_no_staircase(monkeypatch):
    calls = _count_qz(monkeypatch)
    for module in (eigenstructure, backward_error):
        monkeypatch.setattr(module, "staircase_eigenstructure",
                            _refuse("staircase_eigenstructure"))
    monkeypatch.setattr(backward_error, "from_polynomial",
                        _refuse("from_polynomial"))
    for L, dL in _be_style_cases():
        calls.clear()
        report = run_pipeline(L, dL)
        assert calls == [L.shape]
        assert report.eigen_consistent is True and report.shift_consistent is True
        assert 0.0 < report.eigen_max_distance <= 1e-6


def test_double_eigenvalue_falls_back_to_the_second_qz(monkeypatch):
    calls = _count_qz(monkeypatch)
    L, dL = _double_eigenvalue_case()
    report = run_pipeline(L, dL)
    # the QZ run first, whose certificate defers on the cluster, then the
    # staircase of L + dL and that of the fresh linearization
    assert len(calls) == 3
    assert report.eigen_consistent is True and report.shift_consistent is True
    # the fallback's distance is the chordal match, as it was before
    assert report.eigen_max_distance == _chordal_match(L, dL, report)
    assert 0.0 <= report.eigen_backward_error <= 100 * EPS


def _recorded(monkeypatch, name, module=eigenstructure):
    """Replace ``module.<name>`` by a wrapper that keeps what it returns;
    the list of those results.  In ``eigenstructure`` it is what the eigen
    check's head calls, in ``backward_error`` what its fallback calls."""
    results = []
    function = getattr(module, name)

    def recorded(*args, **kwargs):
        results.append(function(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, recorded)
    return results


class _ReadQZ(eigenstructure._QZ):
    """A ``_QZ`` that keeps what its ``structure()`` returns in ``read``."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = []

    def structure(self):
        self.read.append(super().structure())
        return self.read[-1]


def _qz_of(pencil):
    """The ``_ReadQZ`` of a square pencil, as ``run_pipeline`` builds it."""
    return _ReadQZ(pencil.M0.conj().T, pencil.M1.conj().T)


def _built_qz(monkeypatch):
    """The ``_ReadQZ`` objects ``run_pipeline`` builds from now on: the QZ
    of each square ``L + dL``, which only the eigen check's head reads."""
    built = []

    def build(*args):
        built.append(_ReadQZ(*args))
        return built[-1]

    monkeypatch.setattr(backward_error, "_QZ", build)
    return built


@pytest.mark.parametrize("seed", [1, 3, 7, 4242])
def test_deferred_qz_first_certificate_reports_as_before(monkeypatch, seed):
    # with the certificate of the QZ run first made to defer, the staircase
    # of L + dL and its own certificate decide, as they decide whenever the
    # QZ run defers; the report is the same, byte for byte
    want = [json.dumps(run_pipeline(L, dL).to_json())
            for L, dL in _be_style_cases(seed)]
    built = _built_qz(monkeypatch)
    stairs = _recorded(monkeypatch, "staircase_eigenstructure")
    fallback = _recorded(monkeypatch, "staircase_eigenstructure",
                         backward_error)
    certify = eigenstructure._certify_eigenvalues

    def defer_on_the_core(Q, structure, *args):
        eta, distance = certify(Q, structure, *args)
        return eta, (None if any(structure is core for qz in built
                                 for core in qz.read) else distance)

    monkeypatch.setattr(eigenstructure, "_certify_eigenvalues",
                        defer_on_the_core)
    got = [json.dumps(run_pipeline(L, dL).to_json())
           for L, dL in _be_style_cases(seed)]
    assert [len(qz.read) for qz in built] == [1, 1]
    assert len(stairs) == 2 and fallback == []
    assert got == want


def _singular_leading_coefficient_case(magnitude):
    """A 3 x 3 grade-3 polynomial whose leading coefficient has rank 1, and
    ``dL`` of norm ``magnitude`` times the radius."""
    rng = trial_rng(64, 0)
    stack = random_polynomial(3, 3, 3, rng).coeff_stack.copy()
    stack[-1] = 0.3 * rng.standard_normal((3, 1)) @ rng.standard_normal((1, 3))
    L = from_polynomial(MatrixPolynomial(stack), 1, 1, "hook")
    return L, random_pencil_perturbation(
        L.shape, magnitude * pipeline_radius(L), trial_rng(64, 1))


@pytest.mark.parametrize("magnitude", [0.0, 1e-12])
def test_singular_leading_coefficient_defers_to_the_staircase(monkeypatch,
                                                              magnitude):
    # L's leading coefficient has a null space: QZ reads an infinite
    # eigenvalue of L + dL, which the QZ run first never certifies; the
    # staircase reads the null space, and its infinite partition is what the
    # certificate covers
    L, dL = _singular_leading_coefficient_case(magnitude)
    built = _built_qz(monkeypatch)
    stairs = _recorded(monkeypatch, "staircase_eigenstructure")
    fallback = _recorded(monkeypatch, "staircase_eigenstructure",
                         backward_error)
    report = run_pipeline(L, dL)
    assert len(built) == 1 and len(built[0].read) == 1
    assert built[0].read[0].infinite
    assert len(stairs) == 1 and stairs[0].infinite == [1, 1]
    assert fallback == []
    assert any(d.context == "right:stage1:B" and d.rank < L.shape[1]
               for d in stairs[0].rank_log)
    assert report.eigen_consistent is True and report.shift_consistent is True
    assert 0.0 < report.eigen_max_distance <= 1e-6


def test_singular_square_polynomial_runs_no_qz_first(monkeypatch):
    # P + dP of normal rank 2 < 3: the gate reads the normal rank the
    # certificates share, and the staircase runs at once
    built = _built_qz(monkeypatch)
    stairs = _recorded(monkeypatch, "staircase_eigenstructure")
    fallback = _recorded(monkeypatch, "staircase_eigenstructure",
                         backward_error)
    L = from_polynomial(random_singular_polynomial(3, 3, 3, 2,
                                                   trial_rng(65, 0)),
                        1, 1, "hook")
    report = run_pipeline(L, Pencil(np.zeros((2,) + L.shape)))
    assert _normal_rank(recover_polynomial(L) + report.dP) == 2
    assert len(built) == 1 and built[0].read == []
    assert len(stairs) == len(fallback) == 1 and stairs[0].infinite
    assert report.eigen_consistent is True and report.shift_consistent is True


def test_backward_error_binds_no_eigen_solver_internals():
    # the solve of L + dL and its certificate live in eigenstructure
    for name in ("_normal_rank", "_zggev", "_svd", "chordal_distance",
                 "_certify_eigenvalues", "_smallest_pairs"):
        assert not hasattr(backward_error, name), name
    assert backward_error._certified_structure is \
        eigenstructure._certified_structure
    assert backward_error._QZ is eigenstructure._QZ


def _qz_on_the_worker(monkeypatch, on=True):
    """Hand the QZ of every ``L + dL`` to the worker thread, as on a host of
    two CPUs, or none (``on`` false): the crossover lowered to 1 or raised
    beyond every order."""
    monkeypatch.setattr(eigenstructure, "QZ_THREAD_MIN_ORDER",
                        1 if on else sys.maxsize)
    monkeypatch.setattr(eigenstructure, "_usable_cpus", lambda: 2)


def _qz_threads(monkeypatch, change=lambda out: out):
    """The names of the threads that make the QZ calls from now on, each
    one ``zggev`` call that is not a workspace query; ``change`` may alter
    what each returns."""
    threads = []

    def named(out):
        threads.append(threading.current_thread().name)
        return change(out)

    _count_qz(monkeypatch, named)
    return threads


def _reports(cases):
    return [json.dumps(run_pipeline(L, dL).to_json()) for L, dL in cases]


def _assert_worker_reports_equal_inline_ones(monkeypatch, cases):
    _qz_on_the_worker(monkeypatch, on=False)
    inline = _reports(cases)
    _qz_on_the_worker(monkeypatch)
    built = _built_qz(monkeypatch)
    assert _reports(cases) == inline
    assert len(built) == len(cases)
    # each handed to the worker, and made before run_pipeline returned
    assert all(qz.done is not None and qz.done.is_set() for qz in built)


@pytest.mark.parametrize("seed", [1, 3, 7, 4242])
def test_worker_qz_reports_equal_inline_ones_byte_for_byte(monkeypatch,
                                                           seed):
    # the same LAPACK call on the same operands, on another thread
    _assert_worker_reports_equal_inline_ones(
        monkeypatch, _be_style_cases(seed, pool=16))


def _acceptance_08_cases():
    """The 200 inputs of acceptance 08, drawn as it draws them."""
    cases = ([("hook", 1, 1)] * 50 + [("hook", 2, 1)] * 25
             + [("hook", 1, 2)] * 25 + [("frobenius1", None, None)] * 50
             + [("frobenius2", None, None)] * 50)
    inputs = []
    for trial, (tag, eps, eta) in enumerate(cases):
        rng = trial_rng(801, trial)
        if tag == "hook":
            d = eps + eta + 1
        else:
            d = int(rng.integers(2, 5))
            eps, eta = (d - 1, 0) if tag == "frobenius1" else (0, d - 1)
        n = int(rng.integers(1, 3))
        L = from_polynomial(random_polynomial(n, n, d, rng, norm=1.0), eps,
                            eta, tag)
        inputs.append((L, random_pencil_perturbation(L.shape, 1e-8, rng)))
    return inputs


def test_worker_qz_reports_equal_inline_ones_on_acceptance_08_inputs(
        monkeypatch):
    _assert_worker_reports_equal_inline_ones(monkeypatch,
                                             _acceptance_08_cases())


def test_scipys_zggev_gives_equal_reports_on_the_worker(monkeypatch):
    # scipy's f2py binding may keep the GIL through the call: nothing then
    # overlaps, and the answer is the same
    scipys = partial(scipy.linalg.lapack.zggev, compute_vl=0, compute_vr=0)
    monkeypatch.setattr(eigenstructure, "_zggev", lambda: scipys)
    eigenstructure._zggev_lwork.cache_clear()
    try:
        threads = _qz_threads(monkeypatch)
        _assert_worker_reports_equal_inline_ones(
            monkeypatch, _be_style_cases(3, pool=4))
        assert threads == ["MainThread"] * 8 + ["bklab-qz"] * 8
    finally:
        eigenstructure._zggev_lwork.cache_clear()


def test_worker_qz_failure_raises_the_inline_error(monkeypatch):
    L, dL = _be_style_cases()[1]
    threads = _qz_threads(monkeypatch, lambda out: out[:-1] + (1,))
    errors = []
    for on in (False, True):
        _qz_on_the_worker(monkeypatch, on)
        with pytest.raises(ConvergenceError) as raised:
            run_pipeline(L, dL)
        errors.append(str(raised.value))
    assert errors == ["QZ failed: LAPACK zggev returned info 1"] * 2
    assert threads == ["MainThread", "bklab-qz"]


def test_singular_square_polynomial_drops_the_workers_qz(monkeypatch):
    # P + dP of normal rank 2 < 3: the QZ the worker ran is never read, so
    # its failure raises nothing, and the staircase and the fallback decide
    L = from_polynomial(random_singular_polynomial(3, 3, 3, 2,
                                                   trial_rng(65, 0)),
                        1, 1, "hook")
    dL = Pencil(np.zeros((2,) + L.shape))
    want = json.dumps(run_pipeline(L, dL).to_json())
    _qz_on_the_worker(monkeypatch)
    threads = _qz_threads(monkeypatch, lambda out: (
        out[:-1] + (1,) if threading.current_thread().name == "bklab-qz"
        else out))
    stairs = _recorded(monkeypatch, "staircase_eigenstructure")
    fallback = _recorded(monkeypatch, "staircase_eigenstructure",
                         backward_error)
    built = _built_qz(monkeypatch)
    assert json.dumps(run_pipeline(L, dL).to_json()) == want
    assert len(built) == 1 and built[0].done.is_set()
    assert built[0].read == []
    # the worker's dropped QZ may end after the staircase's own QZ calls
    assert threads.count("bklab-qz") == 1 and len(threads) > 1
    assert len(stairs) == len(fallback) == 1


def _refused_runs():
    L = _be_style_cases()[1][0]
    one_sided = from_polynomial(random_polynomial(2, 2, 3, trial_rng(0, 0)),
                                2, 0, "frobenius1")
    zero = from_polynomial(MatrixPolynomial(np.zeros((4, 2, 2)), grade=3),
                           1, 1, "hook")
    return {
        "outside_radius": (L, random_pencil_perturbation(
            L.shape, 2.0 * pipeline_radius(L), trial_rng(3, 1)), False,
            "radius"),
        "zero_P": (zero, Pencil(np.zeros((2,) + zero.shape)), False,
                   r"\|\|P\|\| is 0"),
        "infinite_bound": (one_sided,
                           Pencil(np.full((2,) + one_sided.shape, 1e308)),
                           True, "bound is not finite"),
    }


@pytest.mark.parametrize("case", ["outside_radius", "zero_P",
                                  "infinite_bound"])
def test_refused_runs_start_no_qz(monkeypatch, case):
    _qz_on_the_worker(monkeypatch)
    monkeypatch.setattr(backward_error, "_QZ", _refuse("_QZ"))
    L, dL, force, message = _refused_runs()[case]
    with pytest.raises(PreconditionError, match=message):
        run_pipeline(L, dL, force=force)


def test_no_qz_job_outlives_run_pipeline(monkeypatch):
    # the worker's QZ takes 50 ms more; run_pipeline waits for it whether it
    # returns or raises, and leaves the worker free
    _qz_on_the_worker(monkeypatch)
    _qz_threads(monkeypatch, lambda out: time.sleep(0.05) or out)
    built = _built_qz(monkeypatch)
    L, dL = _be_style_cases()[1]
    run_pipeline(L, dL)
    assert built[-1].done.is_set()

    def failing(*args, **kwargs):
        raise ConvergenceError("step 2: made to fail")

    monkeypatch.setattr(backward_error, "solve_step2", failing)
    with pytest.raises(ConvergenceError, match="made to fail"):
        run_pipeline(L, dL)
    assert len(built) == 2 and built[-1].done.is_set()
    worker = eigenstructure._qz_thread
    assert worker.job is None and not worker.idle.locked()


def _pipeline_in_child(connection, L, dL):
    report = json.dumps(run_pipeline(L, dL).to_json())
    connection.send((report, [
        t.name for t in threading.enumerate() if t.name == "bklab-qz"]))


def _pipeline_in_forked_child(L, dL):
    """``(report, names)``: the JSON report of ``run_pipeline(L, dL)`` in a
    child of ``multiprocessing``'s ``fork`` context, and the names of its
    worker threads after the call; it must finish within 60 s."""
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_pipeline_in_child, args=(send, L, dL))
    with warnings.catch_warnings():
        # Python 3.12 on warns that a process with threads forks
        warnings.simplefilter("ignore", DeprecationWarning)
        child.start()
    try:
        assert receive.poll(60), "the forked child did not finish in 60 s"
        outcome = receive.recv()
    finally:
        child.join(60)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    return outcome


def test_forked_child_runs_the_pipeline_on_a_worker_of_its_own(monkeypatch):
    _qz_on_the_worker(monkeypatch)
    L, dL = _be_style_cases()[1]
    want = json.dumps(run_pipeline(L, dL).to_json())
    parent = eigenstructure._qz_thread
    assert parent is not None
    # the child has the parent's worker object but not its thread
    assert _pipeline_in_forked_child(L, dL) == (want, ["bklab-qz"])
    assert eigenstructure._qz_thread is parent


def _hold(lock, held, release):
    with lock:
        held.set()
        release.wait()


@pytest.mark.parametrize("started", [False, True])
def test_forked_child_starts_a_worker_while_a_parent_thread_holds_the_lock(
        monkeypatch, started):
    # another thread of the parent holds the start lock at the fork, as a
    # caller starting the worker would: the child's copy of the lock stays
    # locked for ever, so the child must start with a fresh one
    _qz_on_the_worker(monkeypatch)
    L, dL = _be_style_cases()[1]
    want = json.dumps(run_pipeline(L, dL).to_json())
    if not started:
        monkeypatch.setattr(eigenstructure, "_qz_thread", None)
    held, release = threading.Event(), threading.Event()
    holder = threading.Thread(target=_hold, args=(
        eigenstructure._QZ_THREAD_START, held, release))
    holder.start()
    try:
        held.wait()
        assert _pipeline_in_forked_child(L, dL) == (want, ["bklab-qz"])
    finally:
        release.set()
        holder.join()


def _head_inputs(L, dL):
    """``(L + dL, P + dP)``: what the eigen check hands its head."""
    report = run_pipeline(L, dL, check_eigen=False)
    return (Pencil(L.assemble().coeff_stack + dL.coeff_stack),
            recover_polynomial(L) + report.dP)


def test_certified_structure_stands_on_a_certified_qz(monkeypatch):
    L, dL = _be_style_cases()[0]
    pencil, Q = _head_inputs(L, dL)
    monkeypatch.setattr(eigenstructure, "staircase_eigenstructure",
                        _refuse("staircase_eigenstructure"))
    qz = _qz_of(pencil)
    structure, eta, distance = eigenstructure._certified_structure(
        pencil, Q, 1e-6, qz)
    assert len(qz.read) == 1 and structure is qz.read[0]
    assert 0.0 < eta <= 100 * EPS and 0.0 < distance <= 1e-6


def test_certified_structure_certifies_the_staircase(monkeypatch):
    pencil, Q = _head_inputs(*_singular_leading_coefficient_case(0.0))
    qz = _qz_of(pencil)
    stairs = _recorded(monkeypatch, "staircase_eigenstructure")
    structure, eta, distance = eigenstructure._certified_structure(
        pencil, Q, 1e-6, qz)
    assert len(qz.read) == 1 and qz.read[0].infinite
    assert len(stairs) == 1 and structure is stairs[0]
    assert structure.infinite == [1, 1]
    assert 0.0 < eta <= 100 * EPS and 0.0 < distance <= 1e-6


def test_certified_structure_reads_eta_of_a_rectangular_pencil_by_svd(
        monkeypatch):
    # diag(lambda - z, 1) R for a random 2 x 3 R of grade 2: a rectangular
    # P with the eigenvalue z, which dL = 0 keeps.  No QZ of the pencil is
    # read (run_pipeline builds none for a rectangular L) and no inverse
    # iteration runs; eta is sigma_2 from one values-only SVD of the stack
    # of evaluations, and the minimal indices leave it uncertified.
    z = 0.5 - 0.25j
    P = MatrixPolynomial([np.diag([-z, 1.0]), np.diag([1.0, 0.0])]) @ \
        random_polynomial(2, 3, 2, trial_rng(66, 0))
    L = from_polynomial(P, 1, 1, "hook")
    pencil, Q = _head_inputs(L, Pencil(np.zeros((2,) + L.shape)))
    monkeypatch.setattr(eigenstructure, "_smallest_pairs",
                        _refuse("_smallest_pairs"))
    svd, stacks = eigenstructure._svd, []

    def recorded_svd(M, vectors=True):
        if np.ndim(M) == 3:
            stacks.append((M.shape, vectors))
        return svd(M, vectors)

    monkeypatch.setattr(eigenstructure, "_svd", recorded_svd)
    stairs = _recorded(monkeypatch, "staircase_eigenstructure")
    structure, eta, distance = eigenstructure._certified_structure(
        pencil, Q, 1e-6, None)
    assert len(stairs) == 1 and structure is stairs[0]
    assert structure.right and len(structure.finite) == 1
    assert abs(structure.finite[0] - z) <= 1e-12
    points = len(structure.finite) + len(structure.infinite)
    assert stacks == [((points, 2, 3), False)]
    assert distance is None and 0.0 < eta <= 100 * EPS
    assert eta == pytest.approx(
        certify_eigenvalues_by_svd(Q, structure, 1e-6)[0], rel=1e-6)


def test_fallback_compares_the_infinite_partitions(monkeypatch):
    # two infinite partitions with the same minimal indices no longer pass
    staircase = eigenstructure.staircase_eigenstructure
    seen = []

    def fresh_reads_one_more_divisor(pencil):
        es = staircase(pencil)
        seen.append(es)
        if len(seen) == 2:
            es.infinite = sorted(es.infinite + [1])
        return es

    for module in (eigenstructure, backward_error):
        monkeypatch.setattr(module, "staircase_eigenstructure",
                            fresh_reads_one_more_divisor)
    L, dL = _double_eigenvalue_case()
    report = run_pipeline(L, dL)
    assert len(seen) == 2 and seen[0].right == seen[1].right
    assert seen[0].left == seen[1].left
    assert report.shift_consistent is False
    assert report.eigen_consistent is True


def test_fallback_reads_an_index_below_the_shift_as_inconsistent(monkeypatch):
    # a right minimal index below eps, or a left one below eta, cannot be
    # shifted back: the fallback reads it as inconsistent shifts, not as a
    # failure, both when the two staircases read it alike and when only the
    # fresh pencil's does.  The certificate is made to defer, as it does on
    # any minimal index of L + dL.
    staircase = eigenstructure.staircase_eigenstructure
    certify = eigenstructure._certify_eigenvalues
    monkeypatch.setattr(eigenstructure, "_certify_eigenvalues",
                        lambda *args: (certify(*args)[0], None))
    L, dL = _be_style_cases()[0]
    assert L.eps > 0 and L.eta > 0
    for side, readers in (("right", (0, 1)), ("left", (0, 1)),
                          ("right", (1,))):
        seen = []

        def index_below_the_shift(pencil):
            es = staircase(pencil)
            if len(seen) in readers:
                setattr(es, side, sorted(getattr(es, side) + [0]))
            seen.append(es)
            return es

        for module in (eigenstructure, backward_error):
            monkeypatch.setattr(module, "staircase_eigenstructure",
                                index_below_the_shift)
        report = run_pipeline(L, dL)
        assert len(seen) == 2, side
        assert report.eigen_checked and report.shift_consistent is False
        assert report.eigen_consistent is True


def test_certificate_refuses_a_wrong_polynomial():
    # the certificate is not vacuous: moved by h ||P|| in a random
    # direction, P + dP is read with backward errors and distances of the
    # order of h, and refused once they pass eigen_tol.  At h = 1e-6 these
    # well-conditioned spectra move by 0.5e-6 to 3e-6, so a wrong Q at the
    # tolerance itself may pass; at h = 1e-5 none does.
    for L, dL in _be_style_cases():
        report = run_pipeline(L, dL, check_eigen=False)
        Q = recover_polynomial(L) + report.dP
        structure = _perturbed_structure(L, dL)
        eta, distance = _certify_eigenvalues(Q, structure, 1e-6,
                                             _normal_rank(Q))
        assert distance is not None and distance <= 1e-13
        error = random_polynomial(L.m, L.n, L.grade, trial_rng(5, 1))
        for h in (1e-6, 1e-5):
            wrong = Q + (h * report.norm_P) * error
            # a tolerance of 1e-3 reads the distance without refusing it
            rank = _normal_rank(wrong)
            wrong_eta, wrong_distance = _certify_eigenvalues(wrong, structure,
                                                             1e-3, rank)
            assert 0.01 * h <= wrong_eta <= h
            assert 0.1 * h <= wrong_distance <= 10.0 * h
            if h == 1e-5:
                assert _certify_eigenvalues(wrong, structure, 1e-6,
                                            rank) == (wrong_eta, None)


@pytest.mark.parametrize("seed", [1, 3, 7, 4242])
def test_eigen_backward_error_is_of_the_order_of_the_unit_roundoff(seed):
    for L, dL in _be_style_cases(seed):
        report = run_pipeline(L, dL)
        assert report.eigen_max_distance is not None
        assert 0.0 < report.eigen_backward_error <= 100 * EPS


@pytest.mark.parametrize("seed", [1, 3, 7, 4242])
def test_certificate_agrees_with_the_full_svd_reference(seed):
    # one step of inverse iteration against the r-th singular triplet: at
    # roundoff both certify with eta <= 100 u; on P + dP moved by h ||P||
    # they read the same eta and distance to first order
    for L, dL in _be_style_cases(seed):
        report = run_pipeline(L, dL, check_eigen=False)
        Q = recover_polynomial(L) + report.dP
        structure = _perturbed_structure(L, dL)
        for certify in (partial(_certify_eigenvalues, rank=_normal_rank(Q)),
                        certify_eigenvalues_by_svd):
            eta, distance = certify(Q, structure, 1e-6)
            assert distance is not None and 0.0 < eta <= 100 * EPS
        error = random_polynomial(L.m, L.n, L.grade, trial_rng(5, 1))
        for h in (1e-8, 1e-6, 1e-5):
            moved = Q + (h * report.norm_P) * error
            eta, distance = _certify_eigenvalues(moved, structure, 1e-3,
                                                 _normal_rank(moved))
            want_eta, want_distance = certify_eigenvalues_by_svd(
                moved, structure, 1e-3)
            assert eta == pytest.approx(want_eta, rel=1e-4)
            assert distance == pytest.approx(want_distance, rel=1e-2)


def test_certificate_survives_a_zero_pivot_and_defers_on_an_overflow():
    # no LinAlgError and no RuntimeWarning leaks (pytest turns a warning
    # into an error).  Q(0) = Q_0 of this unrotated diagonal polynomial is
    # exactly singular, so the first LU meets a zero pivot: the solves are
    # taken again on Q shifted by u ||Q||_F ||w||, and the pair, read
    # from Q itself, certifies the exact spectrum as the full SVD does.
    rng = trial_rng(19, 0)
    roots = [[0.0, 1.5 + 0.5j], list(2.0 * complex_gaussian(2, rng))]
    Q = _diagonal_polynomial(roots, 2)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(Q.coeff(0), np.ones(2))
    exact = Eigenstructure(finite=roots[0] + roots[1])
    rank = _normal_rank(Q)
    eta, distance = _certify_eigenvalues(Q, exact, 1e-6, rank)
    assert eta <= 10 * EPS and distance <= 100 * EPS
    assert certify_eigenvalues_by_svd(Q, exact, 1e-6)[1] is not None
    # 1e-200 from the root 0 the solves are near 1e200, whose squares
    # overflow, yet their unit vectors are read; 1e-310 from it the second
    # point's solve overflows, and the check defers with eta from the
    # values-only SVD
    assert _certify_eigenvalues(
        Q, Eigenstructure(finite=[roots[1][0], 1e-200]), 1e-6,
        rank)[1] <= 100 * EPS
    near = Eigenstructure(finite=[roots[1][0], 1e-310])
    with np.errstate(all="ignore"):
        assert not np.all(np.isfinite(
            np.linalg.solve(Q.eval(1e-310).conj().T, np.ones(2))))
    eta, distance = _certify_eigenvalues(Q, near, 1e-6, rank)
    assert distance is None and eta <= 10 * EPS
    assert eta == pytest.approx(certify_eigenvalues_by_svd(Q, near, 1e-6)[0],
                                rel=1e-6)


@pytest.mark.parametrize("trial", [128, 144])
def test_certificate_certifies_acceptance_trials_with_a_singular_evaluation(
        trial):
    # acceptance 08's frobenius1 trials 128 (1x1) and 144 (2x2), drawn as
    # it draws them: with numpy's bundled OpenBLAS one evaluation of P + dP
    # at an eigenvalue of L + dL is exactly singular, so the unshifted LU
    # meets a zero pivot.  The full SVD certified both; the shifted solves
    # must too
    rng = trial_rng(801, trial)
    d = int(rng.integers(2, 5))
    n = int(rng.integers(1, 3))
    L = from_polynomial(random_polynomial(n, n, d, rng, norm=1.0), d - 1, 0,
                        "frobenius1")
    dL = random_pencil_perturbation(L.shape, 1e-8, rng)
    report = run_pipeline(L, dL, check_eigen=False)
    Q = recover_polynomial(L) + report.dP
    structure = _perturbed_structure(L, dL)
    assert certify_eigenvalues_by_svd(Q, structure, 1e-6)[1] is not None
    eta, distance = _certify_eigenvalues(Q, structure, 1e-6, _normal_rank(Q))
    assert eta <= 100 * EPS and distance <= 1e-13


def test_certificate_defers_when_every_solve_meets_a_singular_matrix(
        monkeypatch):
    # the shifted solves can meet a zero pivot too: then the check defers
    # with the values-only SVD's eta
    rng = trial_rng(17, 1)
    roots = [list(2.0 * complex_gaussian(2, rng)) for _ in range(2)]
    Q = _diagonal_polynomial(roots, 2, rng)
    exact = Eigenstructure(finite=roots[0] + roots[1])
    want_eta, want_distance = certify_eigenvalues_by_svd(Q, exact, 1e-6)
    assert want_distance is not None

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    rank = _normal_rank(Q)
    monkeypatch.setattr(np.linalg, "solve", singular)
    eta, distance = _certify_eigenvalues(Q, exact, 1e-6, rank)
    assert distance is None and eta == pytest.approx(want_eta, rel=1e-6)


def test_eigen_backward_error_is_none_without_the_check():
    L, dL = _be_style_cases()[0]
    report = run_pipeline(L, dL, check_eigen=False)
    assert report.eigen_backward_error is None
    assert report.record()["eigen_backward_error"] is None


@pytest.mark.parametrize("placement,eps,eta",
                         [("hook", 2, 2), ("frobenius1", 4, 0),
                          ("frobenius2", 0, 4)])
def test_certified_distance_is_near_the_chordal_match(placement, eps, eta):
    # both are roundoff-level: the certificate measures L + dL's eigenvalues
    # against P + dP, the match against a second computed spectrum
    for trial in range(4):
        rng = trial_rng(16, trial)
        L = from_polynomial(random_polynomial(3, 3, eps + eta + 1, rng), eps,
                            eta, placement)
        for fraction in (1e-6, 0.5):
            dL = random_pencil_perturbation(
                L.shape, fraction * pipeline_radius(L), rng)
            report = run_pipeline(L, dL)
            match = _chordal_match(L, dL, report)
            assert 0.25 * match <= report.eigen_max_distance <= 4.0 * match


def _diagonal_polynomial(roots, d, rng=None):
    """``U diag(p_i) V`` for monic ``p_i`` with the given roots, at grade
    ``d``, with unitary ``U``, ``V`` drawn from ``rng`` (the identity
    without one): a row with fewer than ``d`` roots adds infinite
    eigenvalues."""
    n = len(roots)
    coeffs = np.zeros((d + 1, n, n), dtype=complex)
    for i, row in enumerate(roots):
        coeffs[:len(row) + 1, i, i] = np.poly(row)[::-1]
    if rng is None:
        return MatrixPolynomial(coeffs)
    U = np.linalg.qr(complex_gaussian((n, n), rng))[0]
    V = np.linalg.qr(complex_gaussian((n, n), rng))[0]
    return MatrixPolynomial(U @ coeffs @ V)


def test_certificate_reads_known_eigenvalues():
    rng = trial_rng(17, 0)
    roots = [list(2.0 * complex_gaussian(3, rng)) for _ in range(2)]
    roots.append(list(2.0 * complex_gaussian(2, rng)))  # one infinite eigenvalue
    Q = _diagonal_polynomial(roots, 3, rng)
    exact, rank = np.concatenate(roots), _normal_rank(Q)
    eta, distance = _certify_eigenvalues(
        Q, Eigenstructure(finite=list(exact), infinite=[1]), 1e-6, rank)
    assert eta <= 10 * EPS and distance <= 100 * EPS
    # displaced by a known chordal distance h, each point reads h to first
    # order
    for h in (1e-4, 1e-7):
        moved = exact + h * np.exp(2j * np.pi * rng.uniform(size=exact.size))
        want = chordal_distance(moved, exact)
        for z, w in zip(moved, want):
            _, got = _certify_eigenvalues(Q, Eigenstructure(finite=[z]), 1e-3,
                                          rank)
            assert got == pytest.approx(w, rel=10 * h)


def test_certificate_defers_when_it_cannot_decide():
    rng = trial_rng(18, 0)
    roots = [list(2.0 * complex_gaussian(2, rng)) for _ in range(2)]
    Q = _diagonal_polynomial(roots, 2, rng)
    exact, rank = list(np.concatenate(roots)), _normal_rank(Q)
    assert _certify_eigenvalues(Q, Eigenstructure(finite=exact), 1e-6,
                                rank)[1] is not None
    # minimal indices, a double eigenvalue, an eigenvalue near infinity, a
    # distance above the tolerance and a non-finite evaluation
    for structure, tol in [
            (Eigenstructure(finite=exact, right=[0]), 1e-6),
            (Eigenstructure(finite=exact + [exact[0] + 1e-7]), 1e-6),
            (Eigenstructure(finite=exact[1:] + [1e7]), 1e-6),
            (Eigenstructure(finite=[exact[0] + 1e-3] + exact[1:]), 1e-6),
            (Eigenstructure(finite=[complex(np.nan, 0.0)] + exact[1:]), 1e-6)]:
        assert _certify_eigenvalues(Q, structure, tol, rank)[1] is None
    # a singular Q: its normal rank 1 is below its size, and sigma_1 gives
    # the backward errors of the roots of its one nonzero entry
    U, V = (np.linalg.qr(complex_gaussian((2, 2), rng))[0] for _ in range(2))
    coeffs = np.zeros((3, 2, 2), dtype=complex)
    coeffs[:, 0, 0] = np.poly(roots[0])[::-1]
    singular = MatrixPolynomial(U @ coeffs @ V)
    rank = _normal_rank(singular)
    assert rank == 1
    eta, distance = _certify_eigenvalues(
        singular, Eigenstructure(finite=roots[0]), 1e-6, rank)
    assert distance is None and eta <= 10 * EPS
    # off the roots sigma_1 stays away from 0, where sigma_2 vanishes
    off = [z + 0.1 for z in roots[0]]
    eta, _ = _certify_eigenvalues(singular, Eigenstructure(finite=off), 1e-6,
                                  rank)
    assert eta > 1e-3
