"""Typed refusals: each entry feeds one bad input to one public function and
names the error, and the words of the message, that it must raise."""

import re

import numpy as np
import pytest

from bklab import (GradeError, MatrixPolynomial, Pencil, PlacementError,
                   PreconditionError, ShapeError, from_polynomial,
                   generalized_eigenvalues, solve_step1, solve_step2,
                   validate_placement)
from bklab.experiments import random_polynomial, trial_rng


def _polynomial(d=3, m=2, n=2):
    return random_polynomial(m, n, d, trial_rng(97, 0), norm=1.0)


def _hook(eps=1, eta=1, m=2, n=2):
    return from_polynomial(_polynomial(eps + eta + 1, m, n), eps, eta, "hook")


def _step1_kappa1():
    # only the (2,2) block moves: delta = sigma_min(T) = sqrt(2) > 0, but
    # theta omega / delta^2 = 10 ||M|| / 2 = 5 is not below 1/4
    L = _hook(1, 1, 1, 1)
    stack = np.zeros((2,) + L.shape)
    stack[0, -1, -1] = 10.0
    return solve_step1(L, Pencil(stack))


REFUSALS = {
    "step1_shape": (ShapeError, "does not match pencil",
                    lambda: solve_step1(_hook(), Pencil(np.zeros((2, 4, 4))))),
    "step2_shape": (ShapeError, "expected shape (2, 4)",
                    lambda: solve_step2(Pencil(np.zeros((2, 3, 3))), 1, 2)),
    "step1_kappa1": (PreconditionError, "theta * omega / delta^2 < 1/4",
                     _step1_kappa1),
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
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_each_bad_input_raises_its_typed_error(case):
    error, words, call = REFUSALS[case]
    with pytest.raises(error, match=re.escape(words)):
        call()
