import numpy as np
import pytest
from numpy.testing import assert_allclose

from bklab import (GradeError, MatrixPolynomial, Pencil, ShapeError, build_L,
                   build_Lambda, constant, convolution, identity, matpoly,
                   multiply, pair_norm, zeros)
from bklab.experiments import complex_gaussian
from bklab.matpoly import _divide, _frobenius
from oracles import allclose, verify_norm_inequalities


def random_poly(m, n, d, rng):
    return MatrixPolynomial([complex_gaussian((m, n), rng) for _ in range(d + 1)])


# ---------------------------------------------------------------- structure

def test_grade_and_shape_invariants():
    P = MatrixPolynomial([np.eye(2), np.zeros((2, 2))])
    assert P.grade == 1 and P.shape == (2, 2)
    padded = P.with_grade(6)
    assert padded.grade == 6
    assert padded.frobenius_norm() == P.frobenius_norm()


def test_explicit_grade_pads_and_rejects_truncation():
    P = MatrixPolynomial([np.eye(2)], grade=3)
    assert P.grade == 3 and np.all(P.coeff(3) == 0)
    with pytest.raises(GradeError):
        MatrixPolynomial([np.zeros((1, 1)), np.ones((1, 1))], grade=0)


def test_degree_of_zero_polynomial_is_none():
    assert zeros(2, 3, grade=4).degree() is None
    assert constant(np.eye(2)).degree() == 0


def test_coefficients_are_immutable():
    P = MatrixPolynomial([np.eye(2)])
    with pytest.raises(ValueError):
        P.coeff(0)[0, 0] = 5.0


def test_mismatched_coefficient_shapes_rejected():
    with pytest.raises(ShapeError):
        MatrixPolynomial([np.eye(2), np.eye(3)])


def test_ragged_non_2d_and_empty_input_rejected():
    for coeffs in ([np.eye(2), np.ones((2, 3))], [np.eye(2), np.ones(2)],
                   [np.ones(3)], [np.ones((2, 2, 2))], [], np.zeros((0, 2, 2)),
                   5.0):
        with pytest.raises(ShapeError):
            MatrixPolynomial(coeffs)


def test_nonzero_truncated_coefficient_rejected():
    for bad in (1.0, 1j, -0.5, np.nan, np.inf):
        top = np.zeros((2, 2), dtype=complex)
        top[1, 0] = bad
        with pytest.raises(GradeError):
            MatrixPolynomial([np.eye(2), np.eye(2), top], grade=1)
    # zeros of either sign may be dropped
    P = MatrixPolynomial([np.eye(2), -np.zeros((2, 2)), np.zeros((2, 2))], grade=0)
    assert P.grade == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
def test_a_non_finite_coefficient_is_refused_where_it_is_formed(bad):
    # a polynomial is finite by construction, so with_grade never meets a
    # NaN coefficient, which is not zero although its norm is not above 0
    top = np.eye(2, dtype=complex)
    top[1, 0] = bad
    for grade in (None, 1, 3):
        with pytest.raises(ShapeError, match="non-finite"):
            MatrixPolynomial([np.eye(2), top], grade=grade)
    with pytest.raises(ShapeError, match="non-finite"):
        Pencil.from_parts(np.eye(2), top)


# -------------------------------------------------- stack arithmetic, pinned
# Each operation acts on the whole (grade+1, m, n) stack.  The references
# below work one coefficient at a time, with the missing coefficients of the
# shorter operand read as zeros, and must agree to the last bit, the sign of
# every zero included.

def _coeffs(P, d):
    """Coefficients 0..d of ``P``, zero beyond its grade."""
    zero = np.zeros(P.shape, dtype=complex)
    return [P.coeff_stack[k] if k <= P.grade else zero for k in range(d + 1)]


def _ref_add(P, Q):
    d = max(P.grade, Q.grade)
    return np.stack([a + b for a, b in zip(_coeffs(P, d), _coeffs(Q, d))])


def _ref_scale(s, P):
    return np.stack([s * c for c in P.coeff_stack])


def _ref_sub(P, Q):
    # P + (-1.0) Q, the negation a complex product
    return _ref_add(P, MatrixPolynomial(_ref_scale(-1.0, Q)))


def _ref_with_grade(P, d):
    assert all(not np.any(c) for c in P.coeff_stack[d + 1:])
    return np.stack(_coeffs(P, d))


def _signed_poly(m, n, d, rng):
    """Random coefficients with zeros of both signs mixed in."""
    S = complex_gaussian((d + 1, m, n), rng)
    mask = rng.random(S.shape)
    S.real[mask < 0.2] = 0.0
    S.imag[mask < 0.3] = -0.0
    S.real[mask > 0.95] = -0.0
    return MatrixPolynomial(S)


def _same_bits(P, ref):
    assert P.coeff_stack.shape == ref.shape
    assert P.coeff_stack.tobytes() == np.ascontiguousarray(ref).tobytes()


@pytest.mark.parametrize("p_grade,q_grade", [(0, 0), (3, 3), (1, 4), (4, 1)])
def test_stack_sum_and_difference_bit_for_bit(p_grade, q_grade):
    rng = np.random.default_rng(30 + 10 * p_grade + q_grade)
    P = _signed_poly(2, 3, p_grade, rng)
    Q = _signed_poly(2, 3, q_grade, rng)
    _same_bits(P + Q, _ref_add(P, Q))
    _same_bits(P - Q, _ref_sub(P, Q))
    _same_bits(Q - P, _ref_sub(Q, P))
    assert (P + Q).grade == (P - Q).grade == max(p_grade, q_grade)
    with pytest.raises(ShapeError):
        P + _signed_poly(3, 2, p_grade, rng)
    with pytest.raises(ShapeError):
        P - _signed_poly(2, 2, p_grade, rng)


@pytest.mark.parametrize("scalar", [-1.0, 0.5 + 0.25j, 0.0, 3])
def test_stack_scale_and_transpose_bit_for_bit(scalar):
    rng = np.random.default_rng(40)
    P = _signed_poly(2, 3, 3, rng)
    _same_bits(scalar * P, _ref_scale(scalar, P))
    _same_bits(P * scalar, _ref_scale(scalar, P))
    _same_bits(P.transpose(), np.stack([c.T for c in P.coeff_stack]))
    assert P.transpose().shape == (3, 2)


def test_with_grade_pads_and_trims_bit_for_bit():
    rng = np.random.default_rng(41)
    P = _signed_poly(3, 2, 2, rng)
    for d in (2, 3, 6):
        _same_bits(P.with_grade(d), _ref_with_grade(P, d))
    padded = P.with_grade(5)
    for d in (2, 4, 5):
        _same_bits(padded.with_grade(d), _ref_with_grade(padded, d))
    with pytest.raises(GradeError):
        P.with_grade(1)
    # the explicit grade of the constructor pads and trims the same way
    _same_bits(MatrixPolynomial(padded.coeff_stack, grade=3),
               _ref_with_grade(padded, 3))
    _same_bits(MatrixPolynomial(P.coeff_stack, grade=4), _ref_with_grade(P, 4))


def test_constructor_trims_and_pads_only_when_the_length_differs(monkeypatch):
    # an exact-length stack is copied once, neither scanned nor padded
    calls = {"any": 0, "_pad": 0}
    scan, pad = np.any, matpoly._pad

    def counted_any(*args, **kwargs):
        calls["any"] += 1
        return scan(*args, **kwargs)

    def counted_pad(*args, **kwargs):
        calls["_pad"] += 1
        return pad(*args, **kwargs)

    monkeypatch.setattr(np, "any", counted_any)
    monkeypatch.setattr(matpoly, "_pad", counted_pad)
    stack = _signed_poly(2, 3, 2, np.random.default_rng(42)).coeff_stack.copy()
    stack[2] = 0.0
    for grade, want in ((2, {"any": 0, "_pad": 0}), (4, {"any": 0, "_pad": 1}),
                        (1, {"any": 1, "_pad": 0})):
        calls.update(dict.fromkeys(calls, 0))
        P = MatrixPolynomial(stack, grade=grade)
        assert calls == want, grade
        assert not np.shares_memory(P.coeff_stack, stack)
        _same_bits(P, _ref_with_grade(MatrixPolynomial(stack), grade))


# --------------------------------------------------------------------- eval

def test_eval_identity_case():
    P = MatrixPolynomial([np.zeros((2, 2)), np.eye(2)])  # lambda * I_2
    assert_allclose(P.eval(3.0), 3.0 * np.eye(2))


def test_eval_L1_at_zero():
    assert_allclose(build_L(1).eval(0.0), np.array([[-1.0, 0.0]]))


def test_eval_matches_power_sum_oracle():
    rng = np.random.default_rng(11)
    P = random_poly(2, 2, 3, rng)
    lam = 0.7
    oracle = sum(P.coeff(k) * lam ** k for k in range(4))
    assert_allclose(P.eval(lam), oracle, rtol=1e-14)


# ----------------------------------------------------------------- reversal

def test_reversal_swaps_pencil_coefficients():
    M0, M1 = np.diag([1.0, 2.0]), np.diag([3.0, 4.0])
    rev = Pencil.from_parts(M0, M1).reversal(1)
    assert_allclose(rev.coeff(0), M1)
    assert_allclose(rev.coeff(1), M0)


def test_reversal_is_involution():
    rng = np.random.default_rng(12)
    P = random_poly(3, 2, 4, rng)
    assert allclose(P.reversal(6).reversal(6), P.with_grade(6))


def test_reversal_of_lambda_column():
    rev = build_Lambda(3).reversal(3)
    for power in range(4):
        expected = np.zeros((4, 1))
        expected[power, 0] = 1.0  # [1, lambda, lambda^2, lambda^3]^T
        assert_allclose(rev.coeff(power), expected)


def test_reversal_below_degree_rejected():
    P = MatrixPolynomial([np.eye(2), np.eye(2), np.eye(2)])
    with pytest.raises(GradeError):
        P.reversal(1)


# -------------------------------------------------------------------- norms

def test_frobenius_norm_examples():
    lam_eye = MatrixPolynomial([np.zeros((2, 2)), np.eye(2)])
    assert lam_eye.frobenius_norm() == pytest.approx(np.sqrt(2.0))
    assert zeros(3, 3, grade=2).frobenius_norm() == 0.0
    P = MatrixPolynomial([np.diag([3.0, 4.0]), np.zeros((2, 2))])
    assert P.frobenius_norm() == pytest.approx(5.0)


def test_norm_is_grade_padding_invariant():
    rng = np.random.default_rng(13)
    P = random_poly(2, 3, 2, rng)
    assert P.with_grade(P.grade + 5).frobenius_norm() == P.frobenius_norm()


def test_pair_norm():
    assert pair_norm(np.zeros((2, 2)), np.zeros((3, 1))) == 0.0
    assert pair_norm(np.eye(2), np.eye(3)) == pytest.approx(np.sqrt(5.0))
    rng = np.random.default_rng(14)
    C, D = complex_gaussian((2, 4), rng), complex_gaussian((3, 2), rng)
    flat = np.concatenate([C.ravel(), D.ravel()])
    assert pair_norm(C, D) == pytest.approx(np.linalg.norm(flat))


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _norm_cases():
    rng = np.random.default_rng(15)
    stack = complex_gaussian((3, 4, 5), rng)
    huge = np.full((2, 3), 1e200 + 1e200j)
    nan = stack.copy()
    nan[1, 2, 3] = np.nan
    return {
        "stack": stack,
        "empty": np.zeros((0, 3), dtype=complex),
        "empty_stack": np.zeros((2, 0, 3), dtype=complex),
        "fortran": np.asfortranarray(stack[1]),
        "transposed": stack.transpose(0, 2, 1),
        "strided": stack[:, ::2, 1:],
        "real": rng.standard_normal((4, 3)),
        "real_transposed": rng.standard_normal((3, 4)).T,
        "huge": huge,
        "huge_real": huge.real.copy(),
        "nan": nan,
        "tiny": 1e-170 * stack,
    }


def _numpy_in_range(a) -> bool:
    """numpy's norm of ``a`` is accurate: its sum of squares is a normal
    float or NaN, or ``a`` is zero."""
    with np.errstate(over="ignore", under="ignore"):
        total = np.sum(np.abs(a) ** 2)
    return bool(np.finfo(float).tiny <= total < np.inf or np.isnan(total)
                or not a.any())


def _scaled_norm(a) -> float:
    """``s ||a / s||_F`` with ``s = max |a_ij|``, numpy's norm taken where
    its squares stay in range."""
    s = np.abs(a).max(initial=0.0)
    return float(s * np.linalg.norm(a / s)) if 0 < s < np.inf else float(s)


def _within_ulps(got, want, ulps=4) -> bool:
    return bool(got == want or abs(got - want) <= ulps * np.spacing(want))


@pytest.mark.parametrize("case", sorted(_norm_cases()))
def test_frobenius_equals_numpy_norm_bit_for_bit(case):
    # bit for bit where numpy's squares stay in range; the scaled norm where
    # they overflow (1e200) or turn subnormal (1e-170), with no warning
    a = _norm_cases()[case]
    got = _frobenius(a)
    assert isinstance(got, float)
    assert _numpy_in_range(a) == (case not in ("huge", "huge_real", "tiny"))
    if _numpy_in_range(a):
        assert _bits(got) == _bits(np.linalg.norm(a))
    else:
        assert np.isfinite(got) and _within_ulps(got, _scaled_norm(a))


def test_pair_norm_equals_numpy_hypot_reduction_bit_for_bit():
    # bit for bit when every array is in range, and within 4 ulp of the
    # reduction of the scaled norms otherwise (a 1e200 case times 1e150 is
    # inf, and its norm too)
    cases = _norm_cases()
    rng = np.random.default_rng(16)
    names = sorted(cases)
    out_of_range = 0
    for count in (1, 2, 3, 4, 6):
        for _ in range(20):
            with np.errstate(over="ignore", invalid="ignore"):
                arrays = [cases[names[i]] * rng.choice([1.0, 1e-3, 1e150])
                          for i in rng.choice(len(names), count)]
            got = pair_norm(*arrays)
            assert isinstance(got, float)
            if all(_numpy_in_range(a) for a in arrays):
                with np.errstate(over="ignore", invalid="ignore"):
                    want = np.hypot.reduce([np.linalg.norm(a) for a in arrays])
                assert _bits(got) == _bits(want), [a.shape for a in arrays]
            else:
                out_of_range += 1
                want = np.hypot.reduce([_scaled_norm(a) for a in arrays])
                assert _within_ulps(got, want) or np.isnan([got, want]).all()
    assert 0 < out_of_range < 100
    assert pair_norm() == np.hypot.reduce([]) == 0.0


def significant_bits(scale) -> float:
    """The significant bits a float of modulus ``scale`` keeps: 53 when it
    is normal, ``log2(scale / smallest subnormal)`` below, so about 44 at
    1e-310 and 11 at 1e-320."""
    return min(53.0, np.log2(scale) + 1074.0)


@pytest.mark.parametrize("scale", [1e-320, 1e-310, 1e-300, 1e-160, 1e160,
                                   1e300])
def test_norms_scale_out_of_the_squares_range(scale):
    # the squares of these entries underflow or overflow; the norms are the
    # scaled ones, down to a subnormal largest entry, and no warning is
    # raised (the suite makes them errors).  The references divide the
    # float views, which forms no reciprocal of a subnormal scale.
    from bklab.experiments import random_polynomial, trial_rng
    unit = random_polynomial(2, 2, 3, trial_rng(0, 0))
    P = scale * unit
    assert P.degree() == 3
    assert _within_ulps(P.frobenius_norm(), scale * np.linalg.norm(
        P.coeff_stack.view(float) / scale))
    A, B = P.coeff_stack[0], P.coeff_stack[3]
    assert _within_ulps(pair_norm(A, B), scale * pair_norm(
        A.view(float) / scale, B.view(float) / scale))
    # a subnormal P keeps only the scale's significant bits of unit's
    bits = significant_bits(scale)
    assert pair_norm(A, B) == pytest.approx(scale * pair_norm(
        unit.coeff_stack[0], unit.coeff_stack[3]),
        rel=1e-15 if bits == 53 else 2.0 ** (4 - bits))


def test_divide_is_plain_division_unless_a_scale_is_subnormal():
    # numpy's complex division multiplies by 1 / s, which overflows at a
    # subnormal s; _divide is x / s bit for bit elsewhere, and exact there
    x = complex_gaussian((3, 4), np.random.default_rng(18))
    s = np.abs(x).max(axis=1, keepdims=True)
    assert _divide(x, s).tobytes() == (x / s).tobytes()
    assert _divide(x, 2.0).tobytes() == (x / 2.0).tobytes()
    real = 1e-320 * x.real  # float division forms no reciprocal
    assert _divide(real, 1e-320).tobytes() == (real / 1e-320).tobytes()
    tiny = np.full((2, 2), 1e-320 - 1e-320j)
    assert np.array_equal(_divide(tiny, 1e-320), np.full((2, 2), 1 - 1j))
    s = np.array([[1e-320], [4.0]])
    assert np.array_equal(_divide(tiny, s), [[1 - 1j] * 2, tiny[1] / 4.0])
    # the rescue of the norm, whose squares are all 0
    assert _frobenius(np.full((2, 2), 1e-320 + 0j)) == 2e-320


# ----------------------------------------------------------------- multiply

def test_L_times_Lambda_is_exactly_zero():
    for k in range(1, 6):
        prod = multiply(build_L(k), build_Lambda(k))
        assert np.all(prod.coeff_stack == 0)


def test_multiply_by_identity():
    rng = np.random.default_rng(15)
    P = random_poly(2, 3, 3, rng)
    assert allclose(multiply(P, identity(3)), P)


def test_multiply_dimension_mismatch():
    with pytest.raises(ShapeError):
        multiply(build_L(2), build_L(2))


def test_multiply_associative_and_bilinear():
    rng = np.random.default_rng(16)
    A = random_poly(2, 3, 2, rng)
    B = random_poly(3, 2, 1, rng)
    C = random_poly(2, 2, 2, rng)
    left = multiply(multiply(A, B), C)
    right = multiply(A, multiply(B, C))
    assert (left - right).frobenius_norm() <= 1e-12 * left.frobenius_norm()
    B2 = (0.5 + 0.25j) * random_poly(3, 2, 1, rng)
    lin = multiply(A, B + B2)
    split = multiply(A, B) + multiply(A, B2)
    assert (lin - split).frobenius_norm() <= 1e-12 * lin.frobenius_norm()


# ---------------------------------------------------------------- L, Lambda

def test_build_L_entries():
    L1 = build_L(1)
    assert_allclose(L1.M0, [[-1.0, 0.0]])
    assert_allclose(L1.M1, [[0.0, 1.0]])
    L2 = build_L(2)
    assert_allclose(L2.M0, [[-1, 0, 0], [0, -1, 0]])
    assert_allclose(L2.M1, [[0, 1, 0], [0, 0, 1]])


def test_build_Lambda_entries():
    lam = build_Lambda(2)
    assert lam.shape == (3, 1)
    assert_allclose(lam.coeff(2), [[1], [0], [0]])
    assert_allclose(lam.coeff(1), [[0], [1], [0]])
    assert_allclose(lam.coeff(0), [[0], [0], [1]])


def test_kronecker_lifts():
    L = build_L(2, blocks=3)
    assert L.shape == (6, 9)
    lam = build_Lambda(2, blocks=3)
    assert lam.shape == (9, 3)
    assert np.all(multiply(L, lam).coeff_stack == 0)


def _kron_L(k, p):
    """Reference: ``L_k (x) I_p`` through ``np.kron``."""
    A = np.hstack([-np.eye(k), np.zeros((k, 1))])
    B = np.hstack([np.zeros((k, 1)), np.eye(k)])
    return np.kron(A, np.eye(p)), np.kron(B, np.eye(p))


def _kron_Lambda(k, p):
    """Reference: the coefficients of ``Lambda_k (x) I_p`` through ``np.kron``."""
    return np.stack([np.kron(np.eye(k + 1)[:, [k - power]], np.eye(p))
                     for power in range(k + 1)])


@pytest.mark.parametrize("k", [0, 1, 4])
@pytest.mark.parametrize("p", [1, 3])
def test_L_and_Lambda_equal_their_kron_forms(k, p):
    L = build_L(k, p)
    A, B = _kron_L(k, p)
    assert np.array_equal(L.M0, A) and np.array_equal(L.M1, B)
    lam = build_Lambda(k, p)
    assert lam.grade == k
    assert np.array_equal(lam.coeff_stack, _kron_Lambda(k, p))


def _loop_multiply(P, Q):
    """Reference: the double loop over coefficient pairs."""
    out = np.zeros((P.grade + Q.grade + 1, P.rows, Q.cols), dtype=complex)
    for i in range(P.grade + 1):
        for j in range(Q.grade + 1):
            out[i + j] += P.coeff(i) @ Q.coeff(j)
    return out


@pytest.mark.parametrize("p_grade,q_grade", [(0, 0), (1, 3), (3, 1), (4, 2)])
def test_multiply_equals_double_loop(p_grade, q_grade):
    # same products summed in the same order: equal to the last bit
    rng = np.random.default_rng(10 * p_grade + q_grade)
    P = random_poly(2, 3, p_grade, rng)
    Q = random_poly(3, 4, q_grade, rng)
    prod = multiply(P, Q)
    assert prod.grade == p_grade + q_grade
    assert np.array_equal(prod.coeff_stack, _loop_multiply(P, Q))


# -------------------------------------------------------------- convolution

def test_convolution_c0_is_coefficient_stack():
    rng = np.random.default_rng(17)
    Q = random_poly(2, 3, 2, rng)
    C0 = convolution(Q, 0)
    assert C0.shape == (6, 3)
    assert_allclose(C0[:2], Q.coeff(2))
    assert_allclose(C0[2:4], Q.coeff(1))
    assert_allclose(C0[4:], Q.coeff(0))


def test_convolution_of_L_has_bidiagonal_blocks():
    eps, n = 3, 2
    C = convolution(build_L(eps, n), eps - 1)
    br, bc = eps * n, (eps + 1) * n  # block row/column sizes
    E = np.kron(np.hstack([np.eye(eps), np.zeros((eps, 1))]), np.eye(n))
    F = np.kron(np.hstack([np.zeros((eps, 1)), np.eye(eps)]), np.eye(n))
    for c in range(eps):
        assert_allclose(C[c * br:(c + 1) * br, c * bc:(c + 1) * bc], F)
        assert_allclose(C[(c + 1) * br:(c + 2) * br, c * bc:(c + 1) * bc], -E)


def test_convolution_fundamental_property():
    rng = np.random.default_rng(18)
    Q = random_poly(2, 3, 2, rng)
    Z = random_poly(3, 2, 3, rng)
    lhs = convolution(multiply(Q, Z), 0)
    rhs = convolution(Q, 3) @ convolution(Z, 0)
    assert np.linalg.norm(lhs - rhs) <= 1e-13 * np.linalg.norm(lhs)


def test_convolution_norm_identity():
    rng = np.random.default_rng(19)
    Q = random_poly(3, 2, 4, rng)
    for j in range(5):
        got = np.linalg.norm(convolution(Q, j))
        want = np.sqrt(j + 1.0) * Q.frobenius_norm()
        assert got == pytest.approx(want, rel=1e-13)


# --------------------------------------------------- norm inequality bundle

def test_norm_inequalities_identity_pair():
    flags = verify_norm_inequalities(identity(3), identity(3))
    assert flags == (True, True, True, True, True)


def test_norm_inequalities_random_pairs():
    rng = np.random.default_rng(20)
    for _ in range(100):
        dims = rng.integers(1, 5, size=3)
        dP, dQ = rng.integers(0, 6, size=2)
        P = random_poly(dims[0], dims[1], dP, rng)
        Q = random_poly(dims[1], dims[2], dQ, rng)
        assert all(verify_norm_inequalities(P, Q))


def test_norm_inequality_lambda_bound():
    rng = np.random.default_rng(21)
    k, p = 3, 2
    P = random_poly(2, (k + 1) * p, 1, rng)
    lam = build_Lambda(k, p)
    flags = verify_norm_inequalities(P, lam)
    assert all(flags)
    # the specific (d) bound with the sqrt(2) constant for a grade-1 factor
    prod = multiply(P, lam)
    assert prod.frobenius_norm() <= np.sqrt(2.0) * P.frobenius_norm() * (1 + 1e-12)


# --------------------------------------------------------------------- json

def test_json_round_trip():
    rng = np.random.default_rng(22)
    P = random_poly(2, 3, 2, rng)
    again = MatrixPolynomial.from_json(P.to_json())
    assert allclose(again, P)
    assert P.to_json()["coeffs"][0][0][0] == [P.coeff(0)[0, 0].real,
                                              P.coeff(0)[0, 0].imag]


def test_json_round_trip_is_bit_exact_at_every_size():
    rng = np.random.default_rng(23)
    for m, n, d in ((0, 2, 1), (2, 0, 0), (0, 0, 2), (1, 1, 0), (3, 2, 2)):
        P = random_poly(m, n, d, rng)
        classes = (MatrixPolynomial, Pencil) if d == 1 else (MatrixPolynomial,)
        for cls in classes:
            again = cls.from_json(P.to_json())
            assert type(again) is cls
            assert again.coeff_stack.tobytes() == P.coeff_stack.tobytes()
            assert again.coeff_stack.shape == (d + 1, m, n)


def _bad_polynomial_json():
    good = MatrixPolynomial([[[1.0, 2.0]], [[3.0, 4.0]]]).to_json()
    return {
        "missing_keys": {"rows": 2},
        "not_an_object": [good],
        "coeffs_string": dict(good, coeffs="abc"),
        "coeffs_object": dict(good, coeffs={"0": 1}),
        "entry_string": dict(good, coeffs=[[[["1", "2"], [3, 4]]]] * 2),
        "entry_null": dict(good, coeffs=[[[[1, None], [3, 4]]]] * 2),
        "entry_triple": dict(good, coeffs=[[[[1, 2, 3], [3, 4, 5]]]] * 2),
        "entry_inf": dict(good, coeffs=[[[[1, float("inf")], [3, 4]]]] * 2),
        "entry_nan": dict(good, coeffs=[[[[1, 2], [float("nan"), 4]]]] * 2),
        "ragged": dict(good, coeffs=[[[[1, 2], [3]]]] * 2),
        "too_few_rows": dict(good, m=2),
        "negative_size": dict(good, n=-2),
        "float_size": dict(good, m=1.0),
        "string_size": dict(good, grade="1"),
        "bool_size": dict(good, m=True),
        "empty_list_for_a_nonempty_matrix": dict(good, coeffs=[[], []]),
    }


@pytest.mark.parametrize("cls", [MatrixPolynomial, Pencil])
@pytest.mark.parametrize("kind", sorted(_bad_polynomial_json()))
def test_polynomial_reader_refuses_a_bad_schema_with_a_shape_error(cls, kind):
    with pytest.raises(ShapeError):
        cls.from_json(_bad_polynomial_json()[kind])


def test_polynomial_reader_refuses_a_coefficient_count_with_a_grade_error():
    blob = MatrixPolynomial([[[1.0]], [[2.0]]]).to_json()
    with pytest.raises(GradeError, match="expected 3 coefficients, found 2"):
        MatrixPolynomial.from_json(dict(blob, grade=2))
