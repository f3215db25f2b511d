"""Property tests at the edges of the backward-error pipeline and of the
staircase.

Every pipeline call either returns a report whose numbers are all finite and
whose ``forced`` flag says the perturbation lay outside the guaranteed
radius, or raises a typed :class:`BkLabError`.  The draws cover m, n = 1..3,
grades 1..4, every (eps, eta) split including the one-sided ones, zero,
rank-one and lower-degree polynomials, a zero perturbation and forced
magnitudes up to 1e3 times the radius, with ``P`` at unit scale, at 1e300
or down to the last subnormals.  Every square QZ is handed to the
``bklab-qz`` thread, no RuntimeWarning escapes, and the thread is free again
when the call returns.

The staircase refuses a pencil with an ``inf`` or NaN entry with
:class:`ShapeError`, and reads a pencil scaled to entries near 1e300 as it
reads the unscaled one.  The draws cover 1..5 x 1..5 pencils whose ``B`` has
every rank, so square ``B`` of full and of deficient rank both occur.

The searches are derandomized and bounded, so the tests are reproducible and
take a few seconds together.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bklab import eigenstructure
from bklab import (BkLabError, MatrixPolynomial, Pencil, ShapeError,
                   from_polynomial, match_eigenvalues, pipeline_radius,
                   run_pipeline, staircase_eigenstructure)
from bklab.experiments import (complex_gaussian, random_pencil_perturbation,
                               random_polynomial, trial_rng)


@st.composite
def pipeline_inputs(draw):
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    d = draw(st.integers(1, 4))
    eps = draw(st.integers(0, d - 1))
    eta = d - 1 - eps
    placement = draw(st.sampled_from(
        ["hook"] + ["frobenius1"] * (eta == 0) + ["frobenius2"] * (eps == 0)))
    # multiples of the radius: zero, inside, at its edge and far outside
    scale = draw(st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 1e3]),
                           st.floats(1e-3, 1e3)))
    # P at unit scale, or scaled to 1e300 or down to the last subnormals
    exponent = draw(st.one_of(st.just(0.0),
                              st.sampled_from([-320, -310, -300, 300]),
                              st.floats(-320, 300)))
    rng = trial_rng(draw(st.integers(0, 2 ** 16)), 0)
    P = random_polynomial(m, n, d, rng).coeff_stack.copy()
    # a zero polynomial, grade above degree, or rank one
    shape = draw(st.sampled_from(["generic", "zero", "lead0", "rank1"]))
    if shape == "zero":
        P[:] = 0.0
    elif shape == "lead0":
        P[-1] = 0.0
    elif shape == "rank1":
        P = P[:, :, :1] @ P[:, :1, :]
    P = MatrixPolynomial(10.0 ** exponent * P)
    L = from_polynomial(P, eps, eta, placement)
    dL = random_pencil_perturbation(L.shape, scale * pipeline_radius(L), rng)
    return L, dL, draw(st.booleans()), draw(st.booleans())


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(pipeline_inputs())
def test_pipeline_reports_finite_numbers_or_raises_a_typed_error(case):
    L, dL, force, check_eigen = case
    with pytest.MonkeyPatch.context() as patch:
        # every square QZ goes to bklab-qz, as on a host of two CPUs
        patch.setattr(eigenstructure, "QZ_THREAD_MIN_ORDER", 1)
        patch.setattr(eigenstructure, "_usable_cpus", lambda: 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                report = run_pipeline(L, dL, force=force,
                                      check_eigen=check_eigen)
            except BkLabError:
                report = None
    # the thread is free for the next call's QZ
    worker = eigenstructure._qz_thread
    assert worker is None or (worker.job is None
                              and not worker.idle.locked())
    if report is None:
        return
    json.dumps(report.to_json(), allow_nan=False)
    assert report.forced == (not report.admissible)
    assert force or report.admissible


@st.composite
def staircase_stacks(draw):
    """The ``(2, rows, cols)`` coefficient stack of ``A + lambda*B`` with ``B``
    of a drawn rank."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rank = draw(st.integers(0, min(rows, cols)))
    rng = trial_rng(draw(st.integers(0, 2 ** 16)), 1)
    B = complex_gaussian((rows, rank), rng) @ complex_gaussian((rank, cols), rng)
    return np.array([complex_gaussian((rows, cols), rng), B])


def _finite_numbers(es) -> bool:
    numbers = [abs(z) for z in es.finite]
    for d in es.rank_log:
        numbers.extend(d.singular_values)
        numbers.append(d.tolerance)
    return bool(np.all(np.isfinite(numbers)))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(staircase_stacks(), st.sampled_from([1e300, 2.0 ** 1000, 3e300]))
def test_staircase_reads_a_1e300_scaled_pencil_as_the_unscaled_one(stack, scale):
    base = staircase_eigenstructure(Pencil(stack))
    big = staircase_eigenstructure(Pencil(scale * stack))
    assert _finite_numbers(big)
    if base.has_borderline_decision():
        return  # a decision near the threshold may go either way
    assert (big.right, big.left, big.infinite) == (base.right, base.left,
                                                   base.infinite)
    assert [d.rank for d in big.rank_log] == [d.rank for d in base.rank_log]
    assert match_eigenvalues(base.finite, big.finite) <= 1e-8


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(staircase_stacks(), st.sampled_from([1.0, 1e300]),
       st.sampled_from([np.inf, -np.inf, np.nan, complex(0.0, np.inf),
                        complex(np.nan, 1.0)]),
       st.data())
def test_staircase_refuses_a_non_finite_entry(stack, scale, bad, data):
    stack = scale * stack
    _, rows, cols = stack.shape
    where = (data.draw(st.integers(0, 1)), data.draw(st.integers(0, rows - 1)),
             data.draw(st.integers(0, cols - 1)))
    stack[where] = bad
    with pytest.raises(ShapeError, match="non-finite"):
        staircase_eigenstructure(Pencil(stack))
