import numpy as np
import pytest

from bklab import (GradeError, PlacementError, ShapeError, from_polynomial,
                   run_pipeline)
from bklab.block_kronecker import split_for_placement
from bklab.experiments import (ExperimentConfig, generate_trial,
                               random_pencil_perturbation, random_polynomial,
                               random_singular_polynomial,
                               run_backward_error_batch, trial_rng)


def test_trial_rng_is_order_independent():
    a = trial_rng(7, 3).standard_normal(4)
    _ = trial_rng(7, 0).standard_normal(10)
    b = trial_rng(7, 3).standard_normal(4)
    assert np.array_equal(a, b)


def test_random_polynomial_normalization():
    P = random_polynomial(3, 2, 4, trial_rng(0, 0), norm=1.0)
    assert P.frobenius_norm() == pytest.approx(1.0)
    assert P.shape == (3, 2) and P.grade == 4


def test_random_singular_polynomial_is_rank_deficient():
    rng = trial_rng(1, 0)
    P = random_singular_polynomial(3, 3, 4, 2, rng)
    lam = complex(rng.standard_normal(), rng.standard_normal())
    s = np.linalg.svd(P.eval(lam), compute_uv=False)
    assert s[-1] <= 1e-12 * s[0]


@pytest.mark.parametrize("rank", [0, -1])
def test_random_singular_polynomial_refuses_a_rank_below_one(rank):
    # a rank-0 product is the zero polynomial, which cannot be normalized
    with pytest.raises(ShapeError, match="rank must be at least 1"):
        random_singular_polynomial(3, 3, 4, rank, trial_rng(0, 0))


@pytest.mark.parametrize("magnitude", [-1.0, -1e-300, np.nan])
def test_perturbation_refuses_a_negative_magnitude(magnitude):
    with pytest.raises(ShapeError, match="magnitude must be nonnegative"):
        random_pencil_perturbation((2, 3), magnitude, trial_rng(2, 0))
    assert random_pencil_perturbation((2, 3), 0.0, trial_rng(2, 0)).frobenius_norm() == 0.0


def test_perturbation_refuses_an_infinite_magnitude():
    # inf / ||G|| scales every entry to inf, which JSON cannot hold
    with pytest.raises(ShapeError, match="finite"):
        random_pencil_perturbation((2, 3), np.inf, trial_rng(2, 0))


def test_perturbation_norm_is_exact():
    dL = random_pencil_perturbation((3, 4), 1e-7, trial_rng(2, 0))
    assert dL.frobenius_norm() == pytest.approx(1e-7)


def test_split_for_placement():
    assert split_for_placement("frobenius1", 4) == (3, 0)
    assert split_for_placement("frobenius2", 4) == (0, 3)
    assert split_for_placement("hook", 5) == (2, 2)
    assert split_for_placement("hook", 5, epsilon=3) == (3, 1)
    assert split_for_placement("hook", 5, eta=0) == (4, 0)
    # a Frobenius tag takes its own split, given or not, and no other
    assert split_for_placement("frobenius1", 4, epsilon=3) == (3, 0)
    assert split_for_placement("frobenius2", 4, 0, 3) == (0, 3)
    with pytest.raises(PlacementError, match="frobenius1 requires eta = 0"):
        split_for_placement("frobenius1", 4, eta=1)
    with pytest.raises(PlacementError, match="unknown placement tag"):
        split_for_placement("custom", 4)


def test_generated_trials_respect_grade_invariant():
    config = ExperimentConfig(seed=5, trials=4, d=(2, 5))
    for index in range(config.trials):
        L, dL = generate_trial(config, index)
        assert L.eps + L.eta + 1 == L.grade
        assert dL.shape == L.shape


def test_config_reconciles_explicit_split_with_d():
    config = ExperimentConfig(epsilon=2, eta=1, d=(4, 4))
    assert config.d == (4, 4)
    with pytest.raises(GradeError):
        ExperimentConfig(epsilon=2, eta=1, d=(5, 6))


@pytest.mark.parametrize("fields,error,names", [
    ({"m": (0, 0)}, ShapeError, "m"),
    ({"m": (-1, 2)}, ShapeError, "m"),
    ({"m": (3, 2)}, ShapeError, "m"),
    ({"n": (0, 3)}, ShapeError, "n"),
    ({"n": (2, 1)}, ShapeError, "n"),
    ({"d": (0, 0)}, GradeError, "d"),
    ({"d": (4, 3)}, GradeError, "d"),
    ({"d": (0, 3), "epsilon": 1, "eta": 1}, GradeError, "d"),
    ({"trials": -1}, ShapeError, "trials"),
])
def test_config_refuses_empty_and_nonpositive_ranges(fields, error, names):
    with pytest.raises(error, match=rf"^{names} "):
        ExperimentConfig(**fields)


def test_config_accepts_the_smallest_sizes_and_no_trials():
    config = ExperimentConfig(trials=0, m=(1, 1), n=(1, 3), d=(1, 1))
    assert run_backward_error_batch(config)["summary"]["trials"] == 0
    L, _ = generate_trial(ExperimentConfig(m=(1, 1), n=(1, 1), d=(1, 1)), 0)
    assert (L.m, L.n, L.grade) == (1, 1, 1)


@pytest.mark.parametrize("m,n", [(0, 2), (2, 0)])
def test_random_polynomial_refuses_to_scale_a_zero_norm_draw(m, n):
    with pytest.raises(ShapeError, match="norm 0"):
        random_polynomial(m, n, 3, trial_rng(0, 0))
    # without scaling an empty draw is a valid polynomial
    assert random_polynomial(m, n, 3, trial_rng(0, 0), norm=None).shape == (m, n)


def test_batch_summary_counts():
    config = ExperimentConfig(seed=11, trials=3, magnitude=1e-8,
                              check_eigen=False)
    result = run_backward_error_batch(config)
    summary = result["summary"]
    assert summary["passed"] == 3 and summary["failed"] == 0
    assert summary["max_ratio_over_bound"] <= 1.0


def test_grade_one_pipeline_maps_perturbation_through():
    # with eps = eta = 0 the pencil is the polynomial itself and dP == dL
    rng = trial_rng(12, 0)
    P = random_polynomial(2, 2, 1, rng)
    bk = from_polynomial(P, 0, 0, "hook")
    dL = random_pencil_perturbation(bk.shape, 1e-3, rng)
    report = run_pipeline(bk, dL, check_eigen=False)
    # dP == dL up to the (M + dL) - M cancellation roundoff
    assert (report.dP - dL).frobenius_norm() <= 1e-15 * bk.frobenius_norm()
    assert report.bound_label == "degenerate" and report.bound_holds

