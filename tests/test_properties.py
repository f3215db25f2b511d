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

Every way of making a polynomial gives one whose coefficients are all
finite or raises :class:`ShapeError`: the constructor, ``Pencil``,
``as_pencil``, the arithmetic, ``transpose``, ``reversal``,
``from_polynomial``, ``assemble()`` and ``recover_polynomial``, on entries
up to the float maximum, where sums, products and scalings overflow.

A pencil with an ``inf`` or NaN entry is refused with :class:`ShapeError`
before the staircase sees it, and the staircase reads a pencil scaled to
entries near 1e300 as it reads the unscaled one.  The draws cover 1..5 x 1..5 pencils whose ``B`` has
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
from bklab import (BkLabError, BlockKroneckerPencil, MatrixPolynomial,
                   Pencil, ShapeError, as_pencil, from_polynomial,
                   match_eigenvalues, pipeline_radius, recover_polynomial,
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


# entries of modulus up to 1, scaled by up to the float maximum, where a
# sum, a product or a scaling overflows; the constructors also meet inf and
# NaN themselves
NON_FINITE = st.sampled_from([np.inf, -np.inf, np.nan, complex(0.0, np.inf),
                              complex(np.nan, 1.0)])


def _stack(data, count, rows, cols, spoiled=False):
    """A drawn stack of finite entries; when ``spoiled``, one entry may be
    NON_FINITE."""
    size = count * rows * cols
    unit = data.draw(st.lists(st.complex_numbers(max_magnitude=1.0),
                              min_size=size, max_size=size))
    scale = data.draw(st.sampled_from([1.0, 1e154, 1e300, 1.7e308]))
    stack = scale * np.array(unit, dtype=complex)
    if spoiled and data.draw(st.booleans()):
        stack[data.draw(st.integers(0, size - 1))] = data.draw(NON_FINITE)
    return stack.reshape(count, rows, cols)


def _formed(how, data):
    """The polynomials ``how`` forms from drawn stacks of ``m x n``
    coefficients; the drawn operands of the operations are finite."""
    m, n, k = (data.draw(st.integers(1, 3)) for _ in range(3))
    if how == "constructor":
        S = _stack(data, k, m, n, spoiled=True)
        grade = data.draw(st.one_of(st.none(), st.integers(0, k + 1)))
        if grade is not None:
            S[grade + 1:] = 0.0  # a trim drops zeros only
        return [MatrixPolynomial(S, grade)]
    if how == "Pencil.from_parts":
        return [Pencil.from_parts(*_stack(data, 2, m, n, spoiled=True))]
    P = MatrixPolynomial(_stack(data, k, m, n))
    if how == "as_pencil":
        return [as_pencil(MatrixPolynomial(_stack(data, 2, m, n)))]
    if how in ("+", "-"):
        Q = MatrixPolynomial(_stack(data, data.draw(st.integers(1, 3)), m, n))
        Q = data.draw(st.sampled_from([Q, P, -1.0 * P]))  # P + P can overflow
        return [P + Q if how == "+" else P - Q]
    if how == "scalar *":
        scalar = data.draw(st.sampled_from([0.5, -2.0, 1e154j, 1e308, -1e300]))
        return [scalar * P, P * scalar]
    if how == "@":
        Q = MatrixPolynomial(_stack(data, data.draw(st.integers(1, 3)), n,
                                    data.draw(st.integers(1, 3))))
        return [P @ Q]
    if how == "transpose":
        return [P.transpose(), Pencil(_stack(data, 2, m, n)).transpose()]
    if how == "reversal":
        return [P.reversal(P.grade + data.draw(st.integers(0, 2)))]
    eps, eta = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    if how == "from_polynomial":
        L = from_polynomial(
            MatrixPolynomial(_stack(data, eps + eta + 2, m, n)), eps, eta)
        return [L.one_one_block(), L.assemble(), recover_polynomial(L)]
    # a pencil of entries up to the float maximum, whose antidiagonal sums
    # can overflow
    M0, M1 = _stack(data, 2, (eta + 1) * m, (eps + 1) * n)
    L = BlockKroneckerPencil(M0, M1, eps, eta, m, n)
    return [L.assemble(), recover_polynomial(L)]


FORMS = ["constructor", "Pencil.from_parts", "as_pencil", "+", "-",
         "scalar *", "@", "transpose", "reversal", "from_polynomial",
         "recover_polynomial"]


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(FORMS), st.data())
def test_every_polynomial_is_finite_or_refused_where_it_is_formed(how, data):
    # numpy warns where a stack operation overflows, before the polynomial
    # it was to form refuses the result; that ShapeError is the answer this
    # test reads, and the warning is numpy's own note of the same overflow
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            formed = _formed(how, data)
        except ShapeError as exc:
            assert "non-finite" in str(exc)
            return
    for P in formed:
        assert np.isfinite(P.coeff_stack).all()
