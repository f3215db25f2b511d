"""Typed refusals: each entry feeds one bad input to one public function and
names the error, and the words of the message, that it must raise.  The
edge returns: each entry feeds a degenerate but valid input and checks the
value it returns."""

import re

import numpy as np
import pytest

from bklab import (BlockKroneckerPencil, G_singular_values, GradeError,
                   M_singular_values, MatrixPolynomial, Pencil, PlacementError,
                   PreconditionError, ShapeError, as_pencil, assemble_step3,
                   build_L, build_Lambda, build_W, convolution,
                   from_polynomial, generalized_eigenvalues,
                   lift_right_null_vector, numerical_rank, pseudoinverse,
                   run_pipeline, sigma_max_W_closed, sigma_min_convolution_L,
                   sigma_min_T_lower_bound, solve_step1, solve_step2,
                   step1_radius, step2_radius, validate_placement)
from bklab.block_kronecker import split_for_placement
from bklab.experiments import (ExperimentConfig, complex_gaussian,
                               random_pencil_perturbation, random_polynomial,
                               random_singular_polynomial, trial_rng)
from bklab.tolerances import svd_with_rank


def _polynomial(d=3, m=2, n=2):
    return random_polynomial(m, n, d, trial_rng(97, 0), norm=1.0)


def _hook(eps=1, eta=1, m=2, n=2):
    return from_polynomial(_polynomial(eps + eta + 1, m, n), eps, eta, "hook")


def _column(value):
    # a 2 x 1 constant h for _hook() with value in its first entry
    return MatrixPolynomial([[[value], [0.0]]])


def _hook_with_entry(block, value):
    # the blocks of _hook() with value in the first entry of one of them
    L = _hook()
    blocks = {"M0": np.array(L.M0), "M1": np.array(L.M1)}
    blocks[block][0, 0] = value
    return BlockKroneckerPencil(blocks["M0"], blocks["M1"], L.eps, L.eta,
                                L.m, L.n)


def _pipeline_with_eigen_tol(eigen_tol):
    L = _hook()
    dL = random_pencil_perturbation(L.shape, 1e-8, trial_rng(97, 2))
    return run_pipeline(L, dL, eigen_tol=eigen_tol)


def _step3_with_a_1x1_dL11():
    # the (1,1) block of _hook() is 4 x 4, and a 1 x 1 dL11 would broadcast;
    # at eps = eta = 1 and m = n = 2 both dR are 4 x 2 of grade 1
    L = _hook()
    dR_eps = MatrixPolynomial(np.zeros((2, 4, 2)), grade=1)
    return assemble_step3(L, Pencil(np.ones((2, 1, 1))), dR_eps, dR_eps)


def _step1_kappa1():
    # only the (2,2) block moves: delta = sigma_min(T) = sqrt(2) > 0, but
    # theta omega / delta^2 = 10 ||M|| / 2 = 5 is not below 1/4
    L = _hook(1, 1, 1, 1)
    stack = np.zeros((2,) + L.shape)
    stack[0, -1, -1] = 10.0
    return solve_step1(L, Pencil(stack))


def _step1_delta():
    # the (1,2) block moves by 10, so its bound on ||dT||_2 passes
    # sigma_min(T) = sqrt(2)
    L = _hook(1, 1, 1, 1)
    stack = np.zeros((2,) + L.shape)
    stack[0, 0, -1] = 10.0
    return solve_step1(L, Pencil(stack))


def _step3_with_a_large_dR_eps():
    L = _hook()
    dR_eps = MatrixPolynomial(np.ones((2, 4, 2)), grade=1)
    return assemble_step3(L, Pencil(np.zeros((2, 4, 4))), dR_eps,
                          MatrixPolynomial(np.zeros((2, 4, 2)), grade=1))


def _step3_with(side, dR):
    # _hook()'s dR are 4 x 2 of grade 1 on both sides; dR on one, 0 on the
    # other
    L, zero = _hook(), MatrixPolynomial(np.zeros((2, 4, 2)), grade=1)
    dRs = {"eps": zero, "eta": zero, side: MatrixPolynomial(dR)}
    return assemble_step3(L, Pencil(np.zeros((2, 4, 4))), dRs["eps"],
                          dRs["eta"])


def _pipeline_of_a_zero_polynomial():
    L = from_polynomial(MatrixPolynomial(np.zeros((4, 2, 2)), grade=3), 1, 1,
                        "hook")
    return run_pipeline(L, Pencil(np.zeros((2,) + L.shape)))


def _pipeline_outside_the_radius():
    L = _hook()
    return run_pipeline(L, random_pencil_perturbation(L.shape, 1.0,
                                                      trial_rng(97, 2)))


def _forced_pipeline_with_an_infinite_bound():
    # ||dL|| overflows, so the one-sided bound does
    L = from_polynomial(_polynomial(), 2, 0, "frobenius1")
    return run_pipeline(L, Pencil(np.full((2,) + L.shape, 1e308)), force=True)


def _pipeline_with_a_grade_2_dL():
    # inside the radius, with a nonzero lambda^2 coefficient
    L = _hook()
    E = 1e-8 * complex_gaussian(L.shape, trial_rng(97, 4))
    return run_pipeline(L, MatrixPolynomial([E, E, E]))


REFUSALS = {
    "step1_shape": (ShapeError, "does not match pencil",
                    lambda: solve_step1(_hook(), Pencil(np.zeros((2, 4, 4))))),
    # with the eigen check L + dL is formed, and the shape is checked first
    "pipeline_dL_shape": (
        ShapeError, "perturbation shape (4, 4) does not match pencil (6, 6)",
        lambda: run_pipeline(_hook(), Pencil(np.zeros((2, 4, 4))),
                             check_eigen=True)),
    "pipeline_dL_grade_2": (
        GradeError, "grade 1 is smaller than the degree of the data",
        _pipeline_with_a_grade_2_dL),
    "step2_shape": (ShapeError, "expected shape (2, 4)",
                    lambda: solve_step2(Pencil(np.zeros((2, 3, 3))), 1, 2)),
    "step1_kappa1": (PreconditionError, "theta * omega / delta^2 < 1/4",
                     _step1_kappa1),
    "step1_delta": (
        PreconditionError,
        "step 1 refused: violated delta = sigma_min(T) - delta_T_bound > 0",
        _step1_delta),
    "step2_radius": (
        PreconditionError,
        "step 2 refused: ||dLtilde_21|| = 4.000e+00 is not below "
        "1 / (2 (eps+1)^(3/2)) = 1.768e-01",
        lambda: solve_step2(Pencil(np.ones((2, 2, 4))), 1, 2)),
    "step3_dR_eps": (PreconditionError,
                     "step 3 refused: ||dR_eps|| >= 1/sqrt(2)",
                     _step3_with_a_large_dR_eps),
    # a dR of another size or of grade above its side's used to be padded
    # into the sum, or to fail in it without a name
    "step3_dR_eps_shape": (ShapeError, "dR_eps is (5, 2), not (4, 2)",
                           lambda: _step3_with("eps", np.ones((2, 5, 2)))),
    "step3_dR_eta_shape": (ShapeError, "dR_eta is (4, 3), not (4, 2)",
                           lambda: _step3_with("eta", np.ones((2, 4, 3)))),
    "step3_dR_eps_grade_2": (
        GradeError, "dR_eps is of degree 2, above 1",
        lambda: _step3_with("eps", 1e-3 * np.ones((3, 4, 2)))),
    "step3_dR_eta_grade_2": (
        GradeError, "dR_eta is of degree 2, above 1",
        lambda: _step3_with("eta", 1e-3 * np.ones((3, 4, 2)))),
    "pipeline_zero_P": (
        PreconditionError,
        "pipeline refused: ||P|| is 0, so ||dP|| / ||P|| is undefined",
        _pipeline_of_a_zero_polynomial),
    "pipeline_radius": (
        PreconditionError,
        "pipeline refused: ||dL|| = 1.000e+00 is not below the radius "
        "5.503e-03",
        _pipeline_outside_the_radius),
    "pipeline_infinite_bound": (
        PreconditionError,
        "pipeline refused: the bound is not finite at ||P|| = 1.000e+00, "
        "||M|| = 1.000e+00",
        _forced_pipeline_with_an_infinite_bound),
    "frobenius1_hook_split": (
        PlacementError, "frobenius1 requires eta = 0",
        lambda: from_polynomial(_polynomial(), 1, 1, "frobenius1")),
    "frobenius1_frobenius2_split": (
        PlacementError, "frobenius1 requires eta = 0",
        lambda: from_polynomial(_polynomial(), 0, 2, "frobenius1")),
    "frobenius2_hook_split": (
        PlacementError, "frobenius2 requires eps = 0",
        lambda: from_polynomial(_polynomial(), 1, 1, "frobenius2")),
    "frobenius2_frobenius1_split": (
        PlacementError, "frobenius2 requires eps = 0",
        lambda: from_polynomial(_polynomial(), 2, 0, "frobenius2")),
    "validate_placement_grade": (
        GradeError, "pencil represents grade 3, polynomial has 4",
        lambda: validate_placement(_hook(), _polynomial(4))),
    "eigenvalues_of_a_singular_pencil": (
        ShapeError, "singular pencil",
        lambda: generalized_eigenvalues(
            MatrixPolynomial([np.zeros((2, 2)), np.diag([1.0, 0.0])]))),
    "step1_non_finite": (
        ShapeError, "non-finite",
        lambda: solve_step1(_hook(), Pencil(np.full((2, 6, 6), np.nan)))),
    "step2_non_finite": (
        ShapeError, "non-finite",
        lambda: solve_step2(Pencil(np.full((2, 2, 4), np.inf)), 1, 2)),
    "placement_tag": (PlacementError, "unknown placement tag 'nope'",
                      lambda: from_polynomial(_polynomial(), 1, 1, "nope")),
    # eta = d - 1 - eps = -3, refused before any trial is drawn
    "hook_negative_split": (
        ShapeError, "need eps, eta >= 0, got eps = 5, eta = -3",
        lambda: split_for_placement("hook", 3, 5)),
    "config_negative_split": (
        ShapeError, "need eps, eta >= 0, got eps = 5, eta = -3",
        lambda: ExperimentConfig(trials=0, epsilon=5, d=(3, 3))),
    "config_placement_tag": (
        PlacementError, "unknown placement tag 'nope'",
        lambda: ExperimentConfig(placement="nope", trials=0)),
    "config_frobenius2_eta": (
        PlacementError, "frobenius2 requires eps = 0",
        lambda: ExperimentConfig(placement="frobenius2", eta=1, trials=0)),
    # epsilon = 2 is frobenius1's split at d = 3 but not at d = 4
    "config_frobenius1_epsilon_over_a_range": (
        PlacementError, "frobenius1 requires eta = 0",
        lambda: ExperimentConfig(placement="frobenius1", epsilon=2,
                                 d=(3, 4), trials=0)),
    "pencil_m_0": (
        ShapeError, "m, n >= 1",
        lambda: BlockKroneckerPencil(np.zeros((0, 2)), np.zeros((0, 2)),
                                     1, 0, 0, 1)),
    "pencil_eps_negative": (
        ShapeError, "need eps, eta >= 0",
        lambda: BlockKroneckerPencil(np.zeros((1, 0)), np.zeros((1, 0)),
                                     -1, 0, 1, 1)),
    "pencil_nan_in_M0": (ShapeError, "non-finite",
                         lambda: _hook_with_entry("M0", np.nan)),
    "pencil_inf_in_M1": (ShapeError, "non-finite",
                         lambda: _hook_with_entry("M1", np.inf)),
    "lift_h_not_a_column": (
        ShapeError, "h must be 2 x 1, got (2, 2)",
        lambda: lift_right_null_vector(_hook(), _polynomial(1))),
    "lift_h_nan": (ShapeError, "non-finite",
                   lambda: lift_right_null_vector(_hook(), _column(np.nan))),
    "lift_h_inf": (ShapeError, "non-finite",
                   lambda: lift_right_null_vector(_hook(), _column(np.inf))),
    "random_polynomial_norm_nan": (
        ShapeError, "norm must be nonnegative and finite, got nan",
        lambda: random_polynomial(2, 2, 1, trial_rng(97, 3), norm=np.nan)),
    "random_polynomial_norm_inf": (
        ShapeError, "norm must be nonnegative and finite, got inf",
        lambda: random_polynomial(2, 2, 1, trial_rng(97, 3), norm=np.inf)),
    "random_polynomial_norm_negative": (
        ShapeError, "norm must be nonnegative and finite, got -1.0",
        lambda: random_polynomial(2, 2, 1, trial_rng(97, 3), norm=-1.0)),
    "degree_tol_nan": (ShapeError, "tol must be nonnegative and finite, got nan",
                       lambda: _polynomial().degree(tol=np.nan)),
    "degree_tol_negative": (
        ShapeError, "tol must be nonnegative and finite, got -1.0",
        lambda: _polynomial().degree(tol=-1.0)),
    "degree_tol_inf": (ShapeError, "tol must be nonnegative and finite, got inf",
                       lambda: _polynomial().degree(tol=np.inf)),
    "singular_polynomial_rank": (
        ShapeError, "rank must be below min(m, n)",
        lambda: random_singular_polynomial(2, 3, 3, 2, trial_rng(97, 1))),
    "M_singular_values_0": (ShapeError, "k must be at least 1",
                            lambda: M_singular_values(0)),
    "G_singular_values_0": (ShapeError, "k must be at least 1",
                            lambda: G_singular_values(0)),
    "build_W_0": (ShapeError, "eps and eta must be at least 1",
                  lambda: build_W(0, 1)),
    "sigma_max_W_0": (ShapeError, "eps and eta must be at least 1",
                      lambda: sigma_max_W_closed(0, 1)),
    "sigma_min_convolution_L_0": (ShapeError, "eps must be at least 1",
                                  lambda: sigma_min_convolution_L(0)),
    "sigma_min_convolution_L_n_0": (ShapeError, "n must be at least 1",
                                    lambda: sigma_min_convolution_L(1, 0)),
    "sigma_min_T_lower_bound_0": (GradeError, "d must be at least 1, got 0",
                                  lambda: sigma_min_T_lower_bound(0)),
    "step1_radius_d_0": (GradeError, "d must be at least 1, got 0",
                         lambda: step1_radius(0, 1.0)),
    "step1_radius_d_negative": (GradeError, "d must be at least 1, got -1",
                                lambda: step1_radius(-1, 1.0)),
    "step1_radius_norm_negative": (
        ShapeError, "one_one_norm must be nonnegative and finite, got -1.0",
        lambda: step1_radius(1, -1.0)),
    "step1_radius_norm_nan": (
        ShapeError, "one_one_norm must be nonnegative and finite, got nan",
        lambda: step1_radius(1, np.nan)),
    "step1_radius_norm_inf": (
        ShapeError, "one_one_norm must be nonnegative and finite, got inf",
        lambda: step1_radius(1, np.inf)),
    "step2_radius_minus_1": (ShapeError, "eps must be nonnegative, got -1",
                             lambda: step2_radius(-1)),
    "step2_radius_minus_2": (ShapeError, "eps must be nonnegative, got -2",
                             lambda: step2_radius(-2)),
    "singular_polynomial_grade": (
        GradeError, "needs grade at least 2",
        lambda: random_singular_polynomial(3, 3, 1, 1, trial_rng(97, 1))),
    "polynomial_grade_negative": (
        GradeError, "grade must be nonnegative",
        lambda: MatrixPolynomial([np.zeros((1, 1))], grade=-1)),
    "build_L_negative": (GradeError, "k must be nonnegative",
                         lambda: build_L(-1)),
    "build_Lambda_negative": (GradeError, "k must be nonnegative",
                              lambda: build_Lambda(-1)),
    "convolution_negative": (GradeError, "j must be nonnegative",
                             lambda: convolution(_polynomial(), -1)),
    "pipeline_eigen_tol_nan": (
        ShapeError, "eigen_tol must be nonnegative and finite, got nan",
        lambda: _pipeline_with_eigen_tol(np.nan)),
    "pipeline_eigen_tol_negative": (
        ShapeError, "eigen_tol must be nonnegative and finite, got -1.0",
        lambda: _pipeline_with_eigen_tol(-1.0)),
    "pipeline_eigen_tol_inf": (
        ShapeError, "eigen_tol must be nonnegative and finite, got inf",
        lambda: _pipeline_with_eigen_tol(np.inf)),
    "step3_dL11_shape": (ShapeError, "dL11 is (1, 1), the (1,1) block (4, 4)",
                         _step3_with_a_1x1_dL11),
    "validate_placement_shape": (
        ShapeError, "polynomial is (3, 2), the pencil's (2, 2)",
        lambda: validate_placement(_hook(), _polynomial(3, 3, 2))),
    "validate_placement_1x1": (
        ShapeError, "polynomial is (1, 1), the pencil's (2, 2)",
        lambda: validate_placement(_hook(), _polynomial(3, 1, 1))),
    "numerical_rank_1d": (ShapeError, "expected a matrix",
                          lambda: numerical_rank(np.ones(3))),
    "numerical_rank_stack": (ShapeError, "expected a matrix",
                             lambda: numerical_rank(np.ones((2, 3, 3)))),
    "svd_with_rank_1d": (ShapeError, "expected a matrix",
                         lambda: svd_with_rank(np.ones(3))),
    "svd_with_rank_stack": (ShapeError, "expected a matrix",
                            lambda: svd_with_rank(np.ones((2, 3, 3)))),
    "pseudoinverse_1d": (ShapeError, "expected a matrix",
                         lambda: pseudoinverse(np.ones(3))),
    "pseudoinverse_stack": (ShapeError, "expected a matrix",
                            lambda: pseudoinverse(np.ones((2, 3, 3)))),
}


def _coeff_above_the_grade():
    zero = _polynomial().coeff(4)
    return zero.shape == (2, 2) and not zero.any() and not zero.flags.writeable


def _constant_and_its_pencil(shape):
    E = 1e-4 * complex_gaussian(shape, trial_rng(97, 5))
    return MatrixPolynomial([E]), as_pencil(MatrixPolynomial([E]))


def _pipeline_reads_a_constant_dL_as_its_pencil():
    L = _hook()
    reports = [run_pipeline(L, dL).to_json()
               for dL in _constant_and_its_pencil(L.shape)]
    return reports[0] == reports[1]


def _step1_reads_a_constant_dL_as_its_pencil():
    L = _hook()
    results = [solve_step1(L, dL) for dL in _constant_and_its_pencil(L.shape)]
    return all(np.array_equal(getattr(results[0], name),
                              getattr(results[1], name))
               for name in ("C", "D", "residual"))


def _step2_reads_a_constant_dLt21_as_its_pencil():
    results = [solve_step2(dLt21, 1, 2)
               for dLt21 in _constant_and_its_pencil((2, 4))]
    return (np.array_equal(results[0][0].coeff_stack,
                           results[1][0].coeff_stack)
            and results[0][1] == results[1][1])


def _step3_reads_a_constant_dL11_as_its_pencil():
    L = _hook()
    dR = MatrixPolynomial(np.zeros((2, 4, 2)), grade=1)
    results = [assemble_step3(L, dL11, dR, dR)
               for dL11 in _constant_and_its_pencil((4, 4))]
    return np.array_equal(results[0].coeff_stack, results[1].coeff_stack)


def _step3_reads_a_dR_with_zeros_above_its_grade_as_its_own():
    # P + dP keeps the grade d = 3 of P
    dR = 1e-3 * np.ones((2, 4, 2))
    padded = np.concatenate([dR, np.zeros((1, 4, 2))])
    results = [_step3_with(side, stack) for side in ("eps", "eta")
               for stack in (dR, padded)]
    return (all(P.grade == 3 for P in results)
            and np.array_equal(results[0].coeff_stack, results[1].coeff_stack)
            and np.array_equal(results[2].coeff_stack, results[3].coeff_stack))


EDGE_RETURNS = {
    "eigenvalues_of_an_empty_pencil": lambda: generalized_eigenvalues(
        Pencil(np.zeros((2, 0, 0)))) == ([], 0),
    "coeff_above_the_grade": _coeff_above_the_grade,
    # a constant perturbation is the pencil that moves M0 only
    "pipeline_constant_dL": _pipeline_reads_a_constant_dL_as_its_pencil,
    "step1_constant_dL": _step1_reads_a_constant_dL_as_its_pencil,
    "step2_constant_dLt21": _step2_reads_a_constant_dLt21_as_its_pencil,
    "step3_constant_dL11": _step3_reads_a_constant_dL11_as_its_pencil,
    "step3_dR_zero_above_its_grade":
        _step3_reads_a_dR_with_zeros_above_its_grade_as_its_own,
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_each_bad_input_raises_its_typed_error(case):
    error, words, call = REFUSALS[case]
    with pytest.raises(error, match=re.escape(words)):
        call()


@pytest.mark.parametrize("case", sorted(EDGE_RETURNS))
def test_each_edge_input_returns_its_documented_value(case):
    assert EDGE_RETURNS[case]()
