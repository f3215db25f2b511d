import numpy as np
import pytest
from numpy.testing import assert_allclose

from bklab import block_kronecker
from bklab import (BlockKroneckerPencil, GradeError, LayoutError,
                   MatrixPolynomial, PlacementError, ShapeError, build_L,
                   build_Lambda, constant, from_polynomial,
                   lift_right_null_vector, multiply, recover_polynomial,
                   validate_placement)
from bklab.experiments import complex_gaussian, random_polynomial, trial_rng
from oracles import (allclose, anti_triangularize, lift_by_completion,
                     submatrix)


def _example_grade5(rng):
    """A grade-5 polynomial and the three reference (eps=eta=2) pencils whose
    antidiagonal sums reproduce it, the third carrying two free matrices that
    must cancel."""
    m = n = 2
    P = [complex_gaussian((m, n), rng) for _ in range(6)]
    poly = MatrixPolynomial(P, grade=5)
    Z = np.zeros((m, n))

    def blockmat(rows):
        return np.block(rows)

    M0_a = blockmat([[P[4], Z, Z], [Z, P[2], Z], [Z, Z, P[0]]])
    M1_a = blockmat([[P[5], Z, Z], [Z, P[3], Z], [Z, Z, P[1]]])

    M0_b = blockmat([[Z, Z, Z], [Z, Z, Z], [Z, Z, P[0]]])
    M1_b = blockmat([[P[5], P[4], P[3]], [Z, Z, P[2]], [Z, Z, P[1]]])

    A = complex_gaussian((m, n), rng)
    B = complex_gaussian((m, n), rng)
    M0_c = blockmat([[Z, A, P[2]], [Z, Z, P[1]], [Z, Z, P[0]]])
    M1_c = blockmat([[P[5], Z, Z], [P[4], -A, B], [P[3], -B, Z]])

    pencils = [BlockKroneckerPencil(M0, M1, 2, 2, m, n)
               for M0, M1 in ((M0_a, M1_a), (M0_b, M1_b), (M0_c, M1_c))]
    return poly, pencils


# ------------------------------------------------------------ construction

def test_make_pencil_trivial_is_the_polynomial_itself():
    rng = np.random.default_rng(41)
    M0, M1 = complex_gaussian((2, 2), rng), complex_gaussian((2, 2), rng)
    bk = BlockKroneckerPencil(M0, M1, 0, 0, 2, 2)
    pen = bk.assemble()
    assert pen.shape == (2, 2)
    assert_allclose(pen.M0, M0)
    assert_allclose(pen.M1, M1)
    assert allclose(recover_polynomial(bk), pen)


def test_make_pencil_assembles_blockwise():
    # eps=1, eta=0, m=n=1, M = [lambda*a + b, c]: rows (eta+1)m + eps*n = 2,
    # cols (eps+1)n + eta*m = 2, giving [lambda*a + b, c; -1, lambda]
    a, b, c = 2.0, 3.0, 5.0
    bk = BlockKroneckerPencil([[b, c]], [[a, 0.0]], 1, 0, 1, 1)
    pen = bk.assemble()
    assert pen.shape == (2, 2)
    assert_allclose(pen.M0, [[b, c], [-1.0, 0.0]])
    assert_allclose(pen.M1, [[a, 0.0], [0.0, 1.0]])


def test_make_pencil_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        BlockKroneckerPencil(np.eye(2), np.eye(2), 1, 0, 1, 1)


@pytest.mark.parametrize("placement", ["hook", "frobenius1", "frobenius2"])
@pytest.mark.parametrize("eps,eta,grade", [(-1, 2, 2), (2, -1, 2), (0, -1, 0),
                                           (-1, 0, 0)])
def test_negative_split_is_refused_before_any_block_is_filled(
        placement, eps, eta, grade):
    # eps + eta + 1 equals the grade, so only the sign check refuses it
    P = random_polynomial(2, 2, grade, trial_rng(56, grade))
    with pytest.raises(ShapeError, match="eps, eta >= 0"):
        from_polynomial(P, eps, eta, placement)


def test_reference_pencils_reproduce_their_polynomial():
    rng = np.random.default_rng(42)
    poly, pencils = _example_grade5(rng)
    for bk in pencils:
        assert np.max(validate_placement(bk, poly)) <= 1e-14
        rec = recover_polynomial(bk)
        assert (rec - poly).frobenius_norm() <= 1e-13 * poly.frobenius_norm()


def test_assembled_blocks_of_reference_pencil():
    rng = np.random.default_rng(43)
    poly, pencils = _example_grade5(rng)
    pen = pencils[0].assemble()
    m = n = 2
    r1, c1 = 3 * m, 3 * n
    # (2,1) block is L_2 (x) I_2, (1,2) is L_2^T (x) I_2, (2,2) is zero
    L = build_L(2, n)
    assert_allclose(pen.M0[r1:, :c1], L.M0)
    assert_allclose(pen.M1[r1:, :c1], L.M1)
    assert_allclose(pen.M0[:r1, c1:], L.M0.T)
    assert_allclose(pen.M1[:r1, c1:], L.M1.T)
    assert np.all(pen.M0[r1:, c1:] == 0) and np.all(pen.M1[r1:, c1:] == 0)


def _assembled_from_build_L(bk):
    """Reference: the four blocks placed from ``build_L`` pencils."""
    r1, c1 = (bk.eta + 1) * bk.m, (bk.eps + 1) * bk.n
    S = np.zeros((2,) + bk.shape, dtype=complex)
    S[0, :r1, :c1], S[1, :r1, :c1] = bk.M0, bk.M1
    if bk.eta:
        Lt = build_L(bk.eta, bk.m)
        S[0, :r1, c1:], S[1, :r1, c1:] = Lt.M0.T, Lt.M1.T
    if bk.eps:
        Le = build_L(bk.eps, bk.n)
        S[0, r1:, :c1], S[1, r1:, :c1] = Le.M0, Le.M1
    return S


@pytest.mark.parametrize("placement,eps,eta,m,n", [
    ("hook", 0, 0, 2, 3), ("hook", 2, 1, 2, 3), ("hook", 1, 2, 3, 1),
    ("hook", 3, 0, 1, 2), ("hook", 0, 3, 2, 1), ("frobenius1", 3, 0, 2, 3),
    ("frobenius2", 0, 3, 3, 2)])
def test_assemble_places_L_units_by_index(placement, eps, eta, m, n):
    rng = trial_rng(44, eps + 4 * eta)
    P = random_polynomial(m, n, eps + eta + 1, rng)
    bk = from_polynomial(P, eps, eta, placement)
    got = bk.assemble().coeff_stack
    # build_L's constant coefficient is -eye, whose zeros are -0.0; adding
    # 0.0 turns those into the +0.0 of the index placement and leaves every
    # other bit as it is
    assert got.tobytes() == (_assembled_from_build_L(bk) + 0.0).tobytes()


# -------------------------------------------------------------- placements

def test_frobenius1_on_quadratic():
    P = MatrixPolynomial([np.diag([2.0, 2.0]), np.diag([1.0, 1.0]), np.eye(2)])
    bk = from_polynomial(P, 1, 0, "frobenius1")
    assert_allclose(bk.M1, np.hstack([np.eye(2), np.zeros((2, 2))]))
    assert_allclose(bk.M0, np.hstack([np.diag([1.0, 1.0]), np.diag([2.0, 2.0])]))


def test_frobenius2_on_quadratic():
    P = MatrixPolynomial([np.diag([2.0, 2.0]), np.diag([1.0, 1.0]), np.eye(2)])
    bk = from_polynomial(P, 0, 1, "frobenius2")
    assert_allclose(bk.M1, np.vstack([np.eye(2), np.zeros((2, 2))]))
    assert_allclose(bk.M0, np.vstack([np.diag([1.0, 1.0]), np.diag([2.0, 2.0])]))


def test_frobenius_placements_are_the_hook_at_the_one_sided_splits():
    # frobenius1 is the hook at (d-1, 0) and frobenius2 at (0, d-1), bit for
    # bit, and both are the textbook block row and block column
    for trial in range(60):
        rng = trial_rng(96, trial)
        d, m, n = (int(rng.integers(1, hi)) for hi in (8, 4, 4))
        P = random_polynomial(m, n, d, rng)
        falling = [P.coeff(k) for k in range(d - 1, -1, -1)]
        for tag, eps, eta, stack in (("frobenius1", d - 1, 0, np.hstack),
                                     ("frobenius2", 0, d - 1, np.vstack)):
            frob = from_polynomial(P, eps, eta, tag)
            hook = from_polynomial(P, eps, eta, "hook")
            assert frob.M0.tobytes() == hook.M0.tobytes()
            assert frob.M1.tobytes() == hook.M1.tobytes()
            lead = [P.coeff(d)] + [np.zeros((m, n))] * (d - 1)
            assert np.array_equal(frob.M0, stack(falling))
            assert np.array_equal(frob.M1, stack(lead))


def test_placement_tolerance_is_finite_when_the_norm_of_P_overflows():
    # every split of the hook and both Frobenius tags reproduce P exactly
    # from ||P|| = 1e-300 to 1e300, where the squares of ||P||_F overflow,
    # and numpy does not warn
    d = 4
    unit = random_polynomial(2, 3, d, trial_rng(96, 60))
    splits = [("hook", eps, d - 1 - eps) for eps in range(d)]
    splits += [("frobenius1", d - 1, 0), ("frobenius2", 0, d - 1)]
    for norm in (1e-300, 1.0, 1e150, 1e300):
        P = norm * unit
        for tag, eps, eta in splits:
            L = from_polynomial(P, eps, eta, tag)
            assert np.max(validate_placement(L, P)) == 0.0
    # a residual of 1e150 under 1e160, and of 1e100 and 1e160 under 1e200,
    # is read as it is, though the squares of all but one overflow
    for top, offset in ((1e160, 1e150), (1e200, 1e100), (1e200, 1e160)):
        P = MatrixPolynomial([[[top]], [[1.0]], [[1.0]]])
        builtin = from_polynomial(P, 1, 0, "frobenius1")
        M0 = np.array(builtin.M0)
        M0[0, 0] += offset
        moved = BlockKroneckerPencil(M0, builtin.M1, 1, 0, 1, 1)
        assert np.max(validate_placement(moved, P)) == offset


def test_from_polynomial_builds_without_recovering_the_polynomial(monkeypatch):
    # each coefficient sits in one block, so the sums are exact by
    # construction: the pencil is built without validate_placement or
    # recover_polynomial, and checked against P afterwards
    def refused(*args, **kwargs):
        raise AssertionError("from_polynomial re-validated its pencil")

    P = random_polynomial(3, 2, 5, trial_rng(96, 61))
    with monkeypatch.context() as patch:
        for name in ("validate_placement", "recover_polynomial"):
            patch.setattr(block_kronecker, name, refused)
        pencils = [from_polynomial(P, eps, 4 - eps, "hook") for eps in range(5)]
        pencils += [from_polynomial(P, 4, 0, "frobenius1"),
                    from_polynomial(P, 0, 4, "frobenius2")]
    for L in pencils:
        assert np.max(validate_placement(L, P)) == 0.0


def test_hook_block_content_grade5():
    rng = np.random.default_rng(44)
    P = random_polynomial(2, 2, 5, rng, norm=None)
    bk = from_polynomial(P, 2, 2, "hook")
    # 2 x 2 block (i, j), one-based, is M[2i-2:2i, 2j-2:2j]
    assert_allclose(bk.M1[0:2, 0:2], P.coeff(5))
    for j, k in ((1, 4), (2, 3), (3, 2)):
        assert_allclose(bk.M0[0:2, 2 * j - 2:2 * j], P.coeff(k))
    assert_allclose(bk.M0[2:4, 4:6], P.coeff(1))
    assert_allclose(bk.M0[4:6, 4:6], P.coeff(0))
    assert np.max(validate_placement(bk, P)) == 0.0


def test_hook_grade1_is_the_polynomial():
    rng = np.random.default_rng(45)
    P = random_polynomial(2, 3, 1, rng, norm=None)
    bk = from_polynomial(P, 0, 0, "hook")
    assert_allclose(bk.M0, P.coeff(0))
    assert_allclose(bk.M1, P.coeff(1))


def test_grade_mismatch_rejected():
    rng = np.random.default_rng(46)
    P = random_polynomial(2, 2, 3, rng)
    with pytest.raises(GradeError):
        from_polynomial(P, 1, 0, "hook")


def test_frobenius_placement_constraints():
    rng = np.random.default_rng(47)
    P = random_polynomial(2, 2, 3, rng)
    with pytest.raises(PlacementError):
        from_polynomial(P, 1, 1, "frobenius1")


def test_custom_placement_validated():
    # a (1,1) block of one's own is a BlockKroneckerPencil that
    # validate_placement checks: the hook's P_1 halved over both blocks of
    # lambda^1 reproduces P exactly, and the entry of P_2 moved from the
    # block of lambda^2 to an empty one of lambda^1 shows at those two
    # coefficients only
    rng = np.random.default_rng(48)
    P = random_polynomial(1, 1, 3, rng)
    hook = from_polynomial(P, 1, 1, "hook")
    halved = np.array(hook.M0)
    halved[0, 1] = halved[1, 0] = hook.M0[0, 1] / 2
    good = BlockKroneckerPencil(halved, hook.M1, 1, 1, 1, 1)
    assert not np.array_equal(good.M0, hook.M0)
    assert np.max(validate_placement(good, P)) == 0.0
    moved = np.array(hook.M0)
    moved[1, 0], moved[0, 0] = moved[0, 0], 0.0
    res = validate_placement(BlockKroneckerPencil(moved, hook.M1, 1, 1, 1, 1),
                             P)
    lead = abs(P.coeff(2)[0, 0])
    assert res.tolist() == [0.0, lead, lead, 0.0]


def test_custom_placement_with_a_nan_entry_is_refused():
    # a custom block with a NaN entry is refused when the pencil is built,
    # and one whose antidiagonal sum overflows when it is validated
    rng = np.random.default_rng(48)
    P = random_polynomial(1, 1, 3, rng)
    good = from_polynomial(P, 1, 1, "hook")
    M0 = np.array(good.M0)
    M0[0, 0] = np.nan
    with pytest.raises(ShapeError, match="non-finite"):
        BlockKroneckerPencil(M0, good.M1, 1, 1, 1, 1)
    M0[0, 0] = M0[1, 1] = 1.5e308
    with pytest.raises(PlacementError, match="overflows"):
        validate_placement(BlockKroneckerPencil(M0, 1.5e308 * np.ones((2, 2)),
                                                1, 1, 1, 1), P)


def test_validate_placement_localizes_corruption():
    rng = np.random.default_rng(49)
    P = random_polynomial(2, 2, 5, rng)
    bk = from_polynomial(P, 2, 2, "hook")
    E = complex_gaussian((2, 2), rng)
    M0 = np.array(bk.M0)
    M0[:2, :2] += E
    corrupted = BlockKroneckerPencil(M0, bk.M1, 2, 2, 2, 2)
    res = validate_placement(corrupted, P)
    # block (1,1) of M0 contributes to coefficient d-1
    assert res[4] == pytest.approx(np.linalg.norm(E))
    assert np.max(np.delete(res, 4)) <= 1e-14


# ----------------------------------------------------------------- recover

@pytest.mark.parametrize("placement,eps,eta", [
    ("frobenius1", 3, 0), ("frobenius2", 0, 3), ("hook", 2, 1), ("hook", 1, 2)])
def test_recover_round_trip(placement, eps, eta):
    rng = trial_rng(50, eps * 10 + eta)
    for _ in range(25):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        P = random_polynomial(m, n, 4, rng)
        bk = from_polynomial(P, eps, eta, placement)
        rec = recover_polynomial(bk)
        assert (rec - P).frobenius_norm() <= 1e-13 * P.frobenius_norm()


def test_recover_round_trip_higher_grades():
    rng = trial_rng(50, 99)
    for _ in range(25):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        d = int(rng.integers(1, 7))
        eps = int(rng.integers(0, d))
        P = random_polynomial(m, n, d, rng)
        bk = from_polynomial(P, eps, d - 1 - eps, "hook")
        rec = recover_polynomial(bk)
        assert (rec - P).frobenius_norm() <= 1e-13 * P.frobenius_norm()


def _kron_Lambda(k, p):
    """Reference: ``Lambda_k (x) I_p`` through ``np.kron``."""
    return MatrixPolynomial([np.kron(np.eye(k + 1)[:, [k - power]], np.eye(p))
                             for power in range(k + 1)], grade=k)


def _product_recover(L):
    """Reference: the represented polynomial as the product
    ``(Lambda_eta^T (x) I_m) (M0 + lambda*M1) (Lambda_eps (x) I_n)``."""
    left = _kron_Lambda(L.eta, L.m).transpose()
    return multiply(multiply(left, L.one_one_block()), _kron_Lambda(L.eps, L.n))


@pytest.mark.parametrize("placement,eps,eta,m,n", [
    ("hook", 3, 3, 2, 3), ("hook", 0, 2, 3, 2), ("hook", 2, 0, 1, 2),
    ("frobenius1", 3, 0, 3, 2), ("frobenius2", 0, 3, 2, 3),
    ("dense", 2, 3, 3, 2), ("dense", 0, 0, 2, 1)])
def test_recover_polynomial_equals_product_form(monkeypatch, placement, eps,
                                                eta, m, n):
    rng = trial_rng(53, 10 * eps + eta)
    if placement == "dense":
        # every block nonzero: each coefficient sums several blocks
        shape = ((eta + 1) * m, (eps + 1) * n)
        bk = BlockKroneckerPencil(complex_gaussian(shape, rng),
                                  complex_gaussian(shape, rng), eps, eta, m, n)
    else:
        P = random_polynomial(m, n, eps + eta + 1, rng)
        bk = from_polynomial(P, eps, eta, placement)
    want = _product_recover(bk)

    def refuse(*args):
        raise AssertionError("recover_polynomial multiplied polynomials")

    monkeypatch.setattr(block_kronecker, "multiply", refuse)
    rec = recover_polynomial(bk)
    assert rec.grade == bk.grade
    # the same block sums in the same order: equal to the last bit
    assert np.array_equal(rec.coeff_stack, want.coeff_stack)


@pytest.mark.parametrize("eps,eta,m,n", [
    (0, 0, 2, 3), (3, 0, 2, 1), (0, 2, 1, 3), (2, 3, 3, 2), (1, 1, 1, 1)])
def test_frobenius_norm_without_assembly(eps, eta, m, n):
    rng = trial_rng(54, 10 * eps + eta)
    shape = ((eta + 1) * m, (eps + 1) * n)
    bk = BlockKroneckerPencil(complex_gaussian(shape, rng),
                              complex_gaussian(shape, rng), eps, eta, m, n)
    assert bk.frobenius_norm() == pytest.approx(
        bk.assemble().frobenius_norm(), rel=1e-14)


# ------------------------------------------------------------- norm facts

def test_norm_identity_and_lower_bound():
    rng = trial_rng(51, 0)
    for trial in range(30):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        d = int(rng.integers(1, 6))
        eps = int(rng.integers(0, d))
        eta = d - 1 - eps
        P = random_polynomial(m, n, d, rng)
        bk = from_polynomial(P, eps, eta, "hook")
        norm_L_sq = bk.assemble().frobenius_norm() ** 2
        expected = bk.one_one_norm() ** 2 + 2 * (n * eps + m * eta)
        assert norm_L_sq == pytest.approx(expected, rel=1e-13)
        assert bk.one_one_norm() >= P.frobenius_norm() / np.sqrt(2.0 * d) * (1 - 1e-12)


# --------------------------------------------------------- anti-triangular

def test_anti_triangularize_frobenius1_cubic():
    rng = trial_rng(52, 0)
    P = random_polynomial(2, 2, 3, rng)
    form = anti_triangularize(from_polynomial(P, 2, 0, "frobenius1"))
    assert (form.middle - P.with_grade(form.middle.grade)).frobenius_norm() \
        <= 1e-13 * P.frobenius_norm()


def test_anti_triangularize_trivial_case():
    rng = trial_rng(52, 1)
    P = random_polynomial(2, 2, 1, rng)
    form = anti_triangularize(from_polynomial(P, 0, 0, "hook"))
    assert allclose(form.form, P)


def test_anti_triangularize_hook_corners():
    rng = trial_rng(52, 2)
    P = random_polynomial(2, 2, 3, rng)
    form = anti_triangularize(from_polynomial(P, 1, 1, "hook"))
    # identity corners are exact by the layout assertions; spot-check the
    # (1,3) block (row split eta*m, m, eps*n; column split eps*n, n, eta*m)
    corner = submatrix(form.form, range(2), range(4, 6))
    assert_allclose(corner.coeff(0), np.eye(2))
    assert all(np.all(corner.coeff(k) == 0) for k in range(1, corner.grade + 1))


def test_anti_triangularize_detects_broken_pencil():
    rng = trial_rng(52, 3)
    P = random_polynomial(1, 1, 3, rng)
    bk = from_polynomial(P, 1, 1, "hook")
    # bypass constructor validation and damage an antidiagonal block
    broken = BlockKroneckerPencil.__new__(BlockKroneckerPencil)
    broken.M0, broken.M1 = bk.M0, bk.M1
    broken.eps, broken.eta, broken.m, broken.n = bk.eps, bk.eta, bk.m, bk.n

    class Damaged(BlockKroneckerPencil):
        def assemble(self):
            pen = super().assemble()
            A = np.array(pen.M0)
            A[-1, -1] += 0.5  # corrupt the zero block
            return type(pen).from_parts(A, pen.M1)

    damaged = Damaged(bk.M0, bk.M1, bk.eps, bk.eta, bk.m, bk.n)
    with pytest.raises(LayoutError):
        anti_triangularize(damaged)


# -------------------------------------------------------------- null lift

def test_lift_with_eta_zero_is_lambda_stack():
    # P = [lambda, lambda^2] with h = (lambda, -1)^T; frobenius1 so eta = 0
    P = MatrixPolynomial([np.zeros((1, 2)),
                          np.array([[1.0, 0.0]]),
                          np.array([[0.0, 1.0]])], grade=2)
    h = MatrixPolynomial([np.array([[0.0], [-1.0]]),
                          np.array([[1.0], [0.0]])], grade=1)
    bk = from_polynomial(P, 1, 0, "frobenius1")
    z = lift_right_null_vector(bk, h)
    assert z.degree() == 2 == bk.eps + h.degree()
    assert multiply(bk.assemble(), z).frobenius_norm() == 0.0
    expected = multiply(build_Lambda(1, 2), h)
    assert allclose(z, expected)


def _integer_singular_setup(rng, k=2, p=2, m=2, eps=1, eta=1):
    """P = A * (L_k (x) I_p) with integer coefficients: exact null vectors
    h = (Lambda_k (x) I_p) g of degree exactly k."""
    d = eps + eta + 1
    A = MatrixPolynomial(
        [rng.integers(-3, 4, (m, k * p)).astype(complex) for _ in range(d)],
        grade=d - 1)
    P = multiply(A, build_L(k, p))
    bk = from_polynomial(P, eps, eta, "hook")
    return bk, k, p


def test_lift_degree_shift_and_residual():
    rng = np.random.default_rng(53)
    for trial in range(10):
        bk, k, p = _integer_singular_setup(rng)
        g = rng.integers(-3, 4, (p, 1)).astype(complex)
        if not np.any(g):
            g[0, 0] = 1.0
        h = multiply(build_Lambda(k, p), constant(g))
        z = lift_right_null_vector(bk, h)
        assert z.degree() == bk.eps + h.degree()
        res = multiply(bk.assemble(), z).frobenius_norm()
        assert res <= 1e-10 * bk.assemble().frobenius_norm() * z.frobenius_norm()


def test_lift_rejects_non_null_vector():
    rng = np.random.default_rng(54)
    bk, k, p = _integer_singular_setup(rng)
    h = constant(np.ones((bk.n, 1)))
    with pytest.raises(ShapeError):
        lift_right_null_vector(bk, h)


@pytest.mark.parametrize("scale", [1e-320, 1e-310, 1e-300, 1.0, 1e160,
                                   1e300])
def test_lift_judges_h_at_unit_scale(scale):
    # the residual test runs on h / max|h_ij|: ones is refused at every
    # scale, where ||h||^2 overflowing (or a tiny h) once let it through,
    # as did a subnormal h, whose division made the residual NaN; and a
    # column of Lambda_1 (x) I_2, a true null vector, is lifted
    bk, k, p = _integer_singular_setup(np.random.default_rng(0), k=1)
    with pytest.raises(ShapeError, match="not in the right null space"):
        lift_right_null_vector(bk, constant(scale * np.ones((bk.n, 1))))
    null = multiply(build_Lambda(k, p), constant(np.array([[1.0], [0.0]])))
    z = lift_right_null_vector(bk, MatrixPolynomial(scale * null.coeff_stack))
    want = scale * lift_right_null_vector(bk, null).coeff_stack
    assert_allclose(z.coeff_stack, want, rtol=1e-15, atol=1e-14 * scale)


def test_lifted_basis_stays_independent():
    rng = np.random.default_rng(55)
    bk, k, p = _integer_singular_setup(rng, k=1, p=2)
    lifted = []
    for column in range(p):
        g = np.zeros((p, 1), dtype=complex)
        g[column, 0] = 1.0
        h = multiply(build_Lambda(k, p), constant(g))
        z = lift_right_null_vector(bk, h)
        lifted.append(z)
    grade = max(z.grade for z in lifted)
    stacked = np.hstack([
        np.vstack([z.with_grade(grade).coeff(grade - t) for t in range(grade + 1)])
        for z in lifted])
    assert np.linalg.matrix_rank(stacked) == p


def _lift_draw(rng, integer):
    """Acceptance 10's draw with eta up to 3: the hook pencil of
    P = A (L_k (x) I_p) and the null vector h = (Lambda_k (x) I_p) g, with
    integer or complex Gaussian A and g."""
    k, p, m = (int(rng.integers(1, 3)) for _ in range(3))
    eps, eta = int(rng.integers(0, 4)), int(rng.integers(0, 4))
    d = eps + eta + 1
    if integer:
        coeffs = [rng.integers(-3, 4, (m, k * p)).astype(complex)
                  for _ in range(d)]
        g = rng.integers(-3, 4, (p, 1)).astype(complex)
        if not np.any(g):
            g[0, 0] = 1.0
    else:
        coeffs = [complex_gaussian((m, k * p), rng) for _ in range(d)]
        g = complex_gaussian((p, 1), rng)
    P = multiply(MatrixPolynomial(coeffs, grade=d - 1), build_L(k, p))
    return (from_polynomial(P, eps, eta, "hook"),
            multiply(build_Lambda(k, p), constant(g)))


@pytest.mark.parametrize("integer", [True, False], ids=["integer", "gaussian"])
def test_lift_equals_the_completion_reference(integer):
    # the recurrence declares z one grade below the product with N2hat,
    # whose top coefficient is zero; on integer data every sum is exact, so
    # the values are equal (the reference's zeros may carry a minus sign)
    etas = set()
    for trial in range(200):
        bk, h = _lift_draw(trial_rng(1026, trial), integer)
        z, ref = lift_right_null_vector(bk, h), lift_by_completion(bk, h)
        etas.add(bk.eta)
        assert z.grade == bk.eps + bk.eta + h.grade
        assert ref.grade == z.grade + (bk.eta > 0)
        assert not ref.coeff_stack[z.grade + 1:].any()
        gap = np.linalg.norm(z.with_grade(ref.grade).coeff_stack - ref.coeff_stack)
        assert gap <= (0.0 if integer else 1e-15 * ref.frobenius_norm())
    assert etas == {0, 1, 2, 3}


def test_pencil_json_round_trip_is_bit_exact():
    P = random_polynomial(2, 3, 4, trial_rng(66, 0))
    bk = from_polynomial(P, 2, 1, "hook")
    again = BlockKroneckerPencil.from_json(bk.to_json())
    assert (again.eps, again.eta, again.m, again.n) == (2, 1, 2, 3)
    assert again.M0.tobytes() == bk.M0.tobytes()
    assert again.M1.tobytes() == bk.M1.tobytes()


def _bad_pencil_json():
    good = from_polynomial(random_polynomial(1, 1, 2, trial_rng(66, 1)),
                           1, 0, "frobenius1").to_json()
    return {
        "missing_M1": {k: v for k, v in good.items() if k != "M1"},
        "not_an_object": "pencil",
        "negative_eps": dict(good, epsilon=-1),
        "float_m": dict(good, m=1.5),
        "zero_m": dict(good, m=0),
        "M0_string": dict(good, M0="abc"),
        "M1_wrong_width": dict(good, M1=[[[0.0, 0.0]]]),
        "M0_entry_null": dict(good, M0=[[[None, 0.0], [1.0, 0.0]]]),
        "split_mismatch": dict(good, epsilon=2),
    }


@pytest.mark.parametrize("kind", sorted(_bad_pencil_json()))
def test_pencil_reader_refuses_a_bad_schema_with_a_shape_error(kind):
    with pytest.raises(ShapeError):
        BlockKroneckerPencil.from_json(_bad_pencil_json()[kind])

