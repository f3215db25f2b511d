"""Property test at the edges of the backward-error pipeline.

Every call either returns a report whose numbers are all finite and whose
``forced`` flag says the perturbation lay outside the guaranteed radius, or
raises a typed :class:`BkLabError`.  The draws cover m, n = 1..3, grades 1..4,
every (eps, eta) split including the one-sided ones, zero, rank-one and
lower-degree polynomials, a zero perturbation and forced magnitudes up to 1e3
times the radius.  The search is derandomized and bounded, so the test is
reproducible and takes about a second.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bklab import (BkLabError, MatrixPolynomial, from_polynomial,
                   pipeline_radius, run_pipeline)
from bklab.experiments import (random_pencil_perturbation, random_polynomial,
                               trial_rng)


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
    L = from_polynomial(MatrixPolynomial(P), eps, eta, placement)
    dL = random_pencil_perturbation(L.shape, scale * pipeline_radius(L), rng)
    return L, dL, draw(st.booleans()), draw(st.booleans())


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(pipeline_inputs())
def test_pipeline_reports_finite_numbers_or_raises_a_typed_error(case):
    L, dL, force, check_eigen = case
    try:
        with np.errstate(all="ignore"):
            report = run_pipeline(L, dL, force=force, check_eigen=check_eigen)
    except BkLabError:
        return
    json.dumps(report.to_json(), allow_nan=False)
    assert report.forced == (not report.admissible)
    assert force or report.admissible
