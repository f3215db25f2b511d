import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

import bklab.eigenstructure
from bklab import (BkLabError, ConvergenceError, EigenstructureShiftError,
                   Eigenstructure, InconclusiveError, MatrixPolynomial, Pencil,
                   ShapeError, build_L, build_Lambda, chordal_distance,
                   from_polynomial, generalized_eigenvalues,
                   match_eigenvalues, right_minimal_indices_by_convolution,
                   shift_recovery, staircase_eigenstructure)
from bklab.experiments import (complex_gaussian, random_polynomial,
                               random_singular_polynomial, trial_rng)
from bklab.matpoly import as_pencil
from bklab.tolerances import EPS, numerical_rank, pseudoinverse, svd_with_rank
from oracles import det_roots, direct_sum

try:  # the module whose ``svd`` numpy.linalg's own functions call
    from numpy.linalg import _linalg
except ImportError:  # numpy < 2
    from numpy.linalg import linalg as _linalg


def _haar_unitary(k, rng):
    Z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    Q, R = np.linalg.qr(Z)
    return Q @ np.diag(np.diag(R) / np.abs(np.diag(R)))


# -------------------------------------------------------------- QZ wrapper

def test_generalized_eigenvalues_diagonal():
    pen = Pencil.from_parts(np.diag([-2.0, -3.0]), np.eye(2))
    finite, infinite = generalized_eigenvalues(pen)
    assert infinite == 0
    assert sorted(z.real for z in finite) == pytest.approx([2.0, 3.0])


def test_generalized_eigenvalues_factored_quadratic():
    # scalar lambda^2 - 3 lambda + 2 = (lambda - 1)(lambda - 2)
    P = MatrixPolynomial([[[2.0]], [[-3.0]], [[1.0]]])
    pen = from_polynomial(P, 1, 0, "frobenius1").assemble()
    finite, infinite = generalized_eigenvalues(pen)
    assert infinite == 0
    assert sorted(z.real for z in finite) == pytest.approx([1.0, 2.0])


def test_generalized_eigenvalues_infinite():
    pen = Pencil.from_parts(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))
    finite, infinite = generalized_eigenvalues(pen)
    assert infinite == 1
    assert len(finite) == 1 and abs(finite[0]) <= 1e-14


def test_generalized_eigenvalues_rejects_singular():
    with pytest.raises(ShapeError):
        generalized_eigenvalues(build_L(2))


# ---------------------------------------------------------------- staircase

def test_staircase_L2():
    es = staircase_eigenstructure(build_L(2))
    assert es.right == [2]
    assert es.left == [] and es.infinite == [] and es.finite == []


def test_staircase_regular_diag():
    es = staircase_eigenstructure(Pencil.from_parts(np.diag([-2.0, -3.0]), np.eye(2)))
    assert es.right == [] and es.left == [] and es.infinite == []
    assert sorted(z.real for z in es.finite) == pytest.approx([2.0, 3.0])


def test_staircase_direct_sum_of_L_and_transpose():
    pen = as_pencil(direct_sum(build_L(1), build_L(1).transpose()))
    es = staircase_eigenstructure(pen)
    assert es.right == [1] and es.left == [1]
    assert es.finite == [] and es.infinite == []


def test_staircase_nilpotent_infinite_block():
    B = np.zeros((2, 2)); B[0, 1] = 1.0
    es = staircase_eigenstructure(Pencil.from_parts(np.eye(2), B))
    assert es.infinite == [2] and not es.finite


def test_staircase_zero_pencil():
    es = staircase_eigenstructure(Pencil.from_parts(np.zeros((2, 3)), np.zeros((2, 3))))
    assert es.right == [0, 0, 0] and es.left == [0, 0]


def test_staircase_unitary_invariance():
    rng = trial_rng(60, 0)
    P = random_singular_polynomial(3, 3, 3, 2, rng)
    pen = from_polynomial(P, 1, 1, "hook").assemble()
    base = staircase_eigenstructure(pen)
    for k in range(3):
        U = _haar_unitary(pen.rows, rng)
        V = _haar_unitary(pen.cols, rng)
        rotated = Pencil.from_parts(U @ pen.M0 @ V, U @ pen.M1 @ V)
        es = staircase_eigenstructure(rotated)
        assert es.right == base.right and es.left == base.left
        assert es.infinite == base.infinite
        if base.finite:
            assert match_eigenvalues(base.finite, es.finite) <= 1e-10


def _lapack_svds(monkeypatch, fn):
    """``fn()``, the number of LAPACK SVDs it took, the value-only ones
    inside ``np.linalg.norm(., 2)`` included, and the inputs of those that
    formed singular vectors."""
    calls, vectors = [0], []
    svd = _linalg.svd

    def counted(a, *args, **kwargs):
        calls[0] += 1
        if kwargs.get("compute_uv", True):
            vectors.append(np.array(a))
        return svd(a, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(_linalg, "svd", counted)
        mp.setattr(np.linalg, "svd", counted)
        return fn(), calls[0], vectors


def _fresh_svd_staircase(monkeypatch, pencil):
    """Reference staircase that drops the SVD handed to each pass, so every
    stage, the first of each pass included, takes a fresh SVD."""
    from bklab import eigenstructure, tolerances

    stair = eigenstructure._staircase_pass
    with monkeypatch.context() as mp:
        mp.setattr(eigenstructure, "_staircase_pass",
                   lambda A, B, svd_B, *rest: stair(A, B, tolerances._svd(B), *rest))
        return staircase_eigenstructure(pencil)


def _staircase_cases():
    rng = trial_rng(61, 0)
    singular = from_polynomial(random_singular_polynomial(3, 4, 3, 2, rng),
                               1, 1, "hook").assemble()
    regular = from_polynomial(random_polynomial(2, 2, 3, rng), 1, 1, "hook").assemble()
    Lt = build_L(3).transpose()
    # the left pass's first stage compresses onto the reused null vectors
    rotated_Lt = Pencil.from_parts(*(_haar_unitary(4, rng) @ c @ _haar_unitary(3, rng)
                                     for c in Lt.coeff_stack))
    empty = Pencil.from_parts(np.zeros((0, 0)), np.zeros((0, 0)))
    # (pencil, LAPACK SVDs, SVDs saved against the fresh-SVD reference); the
    # counts are one fewer than the 16, 3, 8, 8 of a staircase that takes
    # norm(B, 2) apart from its SVD of B.  The bare L_3 runs out of columns
    # in the right pass, so its left pass starts from the SVD of an empty B,
    # and the empty pencil has no stage at all
    return {"singular": (singular, 15, 2), "regular": (regular, 2, 2),
            "rotated_L3T": (rotated_Lt, 7, 2), "L3": (build_L(3), 7, 1),
            "empty": (empty, 0, 0)}


@pytest.mark.parametrize("case", ["singular", "regular", "rotated_L3T", "L3", "empty"])
def test_left_pass_reuses_the_right_pass_svd(monkeypatch, case):
    pencil, lapack, saved = _staircase_cases()[case]
    es, calls, _ = _lapack_svds(monkeypatch,
                                lambda: staircase_eigenstructure(pencil))
    fresh, fresh_calls, _ = _lapack_svds(
        monkeypatch, lambda: _fresh_svd_staircase(monkeypatch, pencil))
    assert calls == lapack
    assert fresh_calls - calls == saved
    # the reused decisions are logged as fresh ones, under the same policy
    assert [d.context for d in es.rank_log] == [d.context for d in fresh.rank_log]
    for got, want in zip(es.rank_log, fresh.rank_log):
        assert got.shape == want.shape and got.rank == want.rank
        assert got.tolerance == want.tolerance
        scale = max(want.singular_values, default=0.0)
        assert np.allclose(got.singular_values, want.singular_values,
                           rtol=0.0, atol=1e-12 * scale)
    assert (es.right, es.left, es.infinite) == (fresh.right, fresh.left, fresh.infinite)
    assert match_eigenvalues(es.finite, fresh.finite) <= 1e-12


def _square_regular_pencils():
    rng = trial_rng(62, 0)
    # the eigen check of be_sylvester: a 28 x 28 hook pencil (eps = eta = 3)
    # of a 4 x 4 grade-7 polynomial, perturbed
    L = from_polynomial(random_polynomial(4, 4, 7, rng), 3, 3, "hook").assemble()
    perturbed = L + 1e-8 * Pencil(complex_gaussian((2,) + L.shape, rng))
    return {"hook": _staircase_cases()["regular"][0], "be_sylvester": perturbed}


@pytest.mark.parametrize("case", ["hook", "be_sylvester"])
def test_square_regular_pencil_forms_no_singular_vectors(monkeypatch, case):
    pencil = _square_regular_pencils()[case]
    es, calls, vectors = _lapack_svds(
        monkeypatch, lambda: staircase_eigenstructure(pencil))
    # the values of A and of B; both passes end at their first stage
    assert (calls, vectors) == (2, [])
    assert [d.context for d in es.rank_log] == ["right:stage1:B", "left:stage1:B"]
    assert len(es.finite) == pencil.rows
    fresh = _fresh_svd_staircase(monkeypatch, pencil)
    assert [d.rank for d in es.rank_log] == [d.rank for d in fresh.rank_log]
    assert es.finite == fresh.finite


def _square_singular_B_pencils():
    rng = trial_rng(63, 0)
    nilpotent = np.zeros((3, 3))
    nilpotent[0, 1] = nilpotent[1, 2] = 1.0
    lead0 = random_polynomial(3, 3, 3, rng).coeff_stack.copy()
    lead0[-1] = 0.0
    return {"nilpotent": Pencil.from_parts(np.eye(3), nilpotent),
            "lead0_hook": from_polynomial(MatrixPolynomial(lead0), 1, 1,
                                          "hook").assemble()}


@pytest.mark.parametrize("case", ["nilpotent", "lead0_hook"])
def test_square_pencil_with_singular_B_forms_its_vectors_once(monkeypatch, case):
    pencil = _square_singular_B_pencils()[case]
    B = np.asarray(pencil.M1)
    es, calls, vectors = _lapack_svds(
        monkeypatch, lambda: staircase_eigenstructure(pencil))
    assert sum(v.shape == B.shape and np.array_equal(v, B) for v in vectors) == 1
    # one values-only SVD of B more than the 7 and 4 of a staircase that
    # starts from B's full SVD
    assert calls == {"nilpotent": 8, "lead0_hook": 5}[case]
    fresh = _fresh_svd_staircase(monkeypatch, pencil)
    assert es.infinite
    assert (es.right, es.left, es.infinite) == (fresh.right, fresh.left,
                                                fresh.infinite)
    assert [(d.context, d.rank, d.tolerance) for d in es.rank_log] == [
        (d.context, d.rank, d.tolerance) for d in fresh.rank_log]
    assert match_eigenvalues(es.finite, fresh.finite) <= 1e-12


def _scipy_qz(A, B):
    """The QZ split of ``_qz`` on top of ``scipy.linalg.eig``."""
    alpha, beta = scipy.linalg.eig(A, -B, right=False, homogeneous_eigvals=True)
    threshold = 10.0 * EPS * np.hypot(np.abs(alpha), np.abs(beta))
    infinite = np.abs(beta) <= threshold
    return ((alpha[~infinite] / beta[~infinite]).tolist(),
            list(zip(np.abs(beta[infinite]), threshold[infinite])))


def _qz_cases():
    rng = trial_rng(64, 0)
    cases = {f"n{n}": tuple(complex_gaussian((n, n), rng) for _ in range(2))
             for n in (1, 28, 56)}
    A, B = (complex_gaussian((28, 28), rng) for _ in range(2))
    B[:, :5] = 0.0  # five eigenvalues at infinity
    cases["singular_B"] = (A, B)
    cases["negligible_beta"] = (np.array([[1.0 + 0j]]), np.array([[1e-15 + 0j]]))
    return cases


@pytest.mark.parametrize("case", ["n1", "n28", "n56", "singular_B",
                                  "negligible_beta"])
def test_qz_equals_scipy_eig_bit_for_bit(case):
    from bklab.eigenstructure import _qz

    A, B = _qz_cases()[case]
    finite, infinite = _qz(A, B)
    assert (finite, infinite) == _scipy_qz(A, B)
    assert len(infinite) == {"singular_B": 5, "negligible_beta": 1}.get(case, 0)


def _substitute_zggev(monkeypatch, zggev):
    """Let ``_qz`` call ``zggev`` in place of the one bklab's resolver
    binds."""
    monkeypatch.setattr(bklab.eigenstructure, "_zggev", lambda: zggev)


def _zggev_calls(monkeypatch):
    """The ``(n, lwork, alpha, beta)`` of every ``zggev`` call bklab makes
    from now on, recorded by a spy on the function its resolver binds."""
    zggev = bklab.eigenstructure._zggev()
    calls = []

    def spy(a, b, *args):
        out = zggev(a, b, *args)
        calls.append((len(a), args[-1], out[0], out[1]))
        return out

    _substitute_zggev(monkeypatch, spy)
    return calls


def test_qz_makes_one_zggev_call_with_the_queried_workspace(monkeypatch):
    zggev = bklab.eigenstructure._zggev()
    rng = trial_rng(97, 0)
    calls = _zggev_calls(monkeypatch)
    bklab.eigenstructure._zggev_lwork.cache_clear()
    # only the first QZ of an order queries its workspace
    for n, queries in ((1, 1), (5, 1), (28, 1), (5, 0), (28, 0), (1, 0)):
        A, B = complex_gaussian((n, n), rng), complex_gaussian((n, n), rng)
        calls.clear()
        bklab.eigenstructure._qz(A, B)
        assert [lwork == -1 for _, lwork, _, _ in calls] == [True] * queries + [False]
        size, lwork, alpha, beta = calls[-1]
        # the two-call form: query, then solve in the optimal workspace
        fresh = int(zggev(A, -B, 0, 0, -1)[-2][0].real)
        want_alpha, want_beta, *_ = zggev(A, -B, 0, 0, fresh)
        assert (size, lwork) == (n, fresh)
        assert alpha.tobytes() == want_alpha.tobytes()
        assert beta.tobytes() == want_beta.tobytes()
    assert bklab.eigenstructure._zggev_lwork.cache_info().misses == 3


def test_staircase_takes_one_zggev_call_per_qz(monkeypatch):
    pencil = _square_regular_pencils()["be_sylvester"]
    staircase_eigenstructure(pencil)  # the workspace of order 28 is cached
    calls = _zggev_calls(monkeypatch)
    for runs in (1, 2, 3):
        staircase_eigenstructure(pencil)
        assert [lwork != -1 for _, lwork, _, _ in calls] == [True] * runs


def test_cached_zggev_workspace_equals_a_fresh_query():
    zggev = bklab.eigenstructure._zggev()
    rng = trial_rng(97, 1)
    bklab.eigenstructure._zggev_lwork.cache_clear()
    for n in range(1, 65):
        A, B = complex_gaussian((n, n), rng), complex_gaussian((n, n), rng)
        fresh = int(zggev(A, -B, 0, 0, -1)[-2][0].real)
        assert bklab.eigenstructure._zggev_lwork(n) == fresh, n


@pytest.mark.parametrize("info", [-1, 1])
def test_qz_failure_raises_a_typed_error(monkeypatch, info):
    zggev = bklab.eigenstructure._zggev()

    def failing(*args, **kwargs):
        out = zggev(*args, **kwargs)
        return out if args[4] == -1 else out[:-1] + (info,)

    _substitute_zggev(monkeypatch, failing)
    pencil = _square_regular_pencils()["hook"]
    with pytest.raises(ConvergenceError, match=f"info {info}") as raised:
        staircase_eigenstructure(pencil)
    assert not isinstance(raised.value, np.linalg.LinAlgError)
    with pytest.raises(BkLabError):
        generalized_eigenvalues(pencil)


@pytest.mark.parametrize("shapes", [((2, 3), (2, 3)), ((2, 2), (3, 3)),
                                    ((3, 3), (3, 2)), ((2,), (2,))])
def test_ilp64_zggev_refuses_other_shapes_before_calling_lapack(shapes):
    def reached(*args):
        raise AssertionError("LAPACK reached")

    zggev = bklab.eigenstructure._Ilp64Zggev(reached, "no library")
    a, b = (np.zeros(shape, dtype=complex) for shape in shapes)
    with pytest.raises(ShapeError, match="square"):
        zggev(a, b, 0, 0, 8)


def test_ilp64_zggev_returns_lapacks_info(capfd):
    bound = bklab.eigenstructure._zggev()
    if not isinstance(bound, bklab.eigenstructure._Ilp64Zggev):
        pytest.skip("numpy's LAPACK exports no ILP64 zggev: QZ takes scipy's")
    A = complex_gaussian((5, 5), trial_rng(97, 3))
    # LWORK, argument 15, is below max(1, 2n)
    assert bound(A, A, 0, 0, 1)[-1] == -15
    assert bound(A, A, 0, 0, 10)[-1] == 0
    capfd.readouterr()  # LAPACK's own report of the illegal value


@pytest.mark.parametrize("vectors", [(0, 0), (1, 0), (0, 1), (1, 1)])
def test_bound_zggev_returns_what_scipys_returns(vectors):
    # the same LAPACK routine in two builds of OpenBLAS: equal to rounding,
    # and every output in scipy's shape and dtype
    scipys = scipy.linalg.lapack.zggev
    bound = bklab.eigenstructure._zggev()
    rng = trial_rng(97, 2)
    A, B = complex_gaussian((9, 9), rng), complex_gaussian((9, 9), rng)
    lwork = int(bound(A, B, *vectors, -1)[-2][0].real)
    assert lwork == int(scipys(A, B, *vectors, -1)[-2][0].real)
    ours, theirs = bound(A, B, *vectors, lwork), scipys(A, B, *vectors, lwork)
    assert ours[-1] == theirs[-1] == 0
    for mine, want in zip(ours[:4], theirs[:4]):
        assert (mine.shape, mine.dtype) == (want.shape, want.dtype)
    np.testing.assert_allclose(ours[0] / ours[1], theirs[0] / theirs[1],
                               rtol=1e-10)
    for k, wanted in zip((2, 3), vectors):
        if wanted:  # unit eigenvectors, equal up to a phase
            overlap = np.abs(np.sum(ours[k].conj() * theirs[k], axis=0))
            np.testing.assert_allclose(overlap, np.abs(np.sum(
                theirs[k].conj() * theirs[k], axis=0)), rtol=1e-8)


NON_FINITE = [np.inf, -np.inf, np.nan, complex(0.0, np.inf)]


def _non_finite_calls(bad):
    """The public calls that refuse a non-finite input, each on a square
    polynomial or pencil whose leading coefficient has ``bad`` at (0, 0)."""
    stack = random_polynomial(2, 2, 3, trial_rng(65, 0)).coeff_stack.copy()
    stack[-1, 0, 0] = bad
    P = MatrixPolynomial(stack)
    pencil = Pencil(stack[2:])
    return {
        "staircase_eigenstructure": lambda: staircase_eigenstructure(pencil),
        "generalized_eigenvalues": lambda: generalized_eigenvalues(pencil),
        "right_minimal_indices_by_convolution":
            lambda: right_minimal_indices_by_convolution(P),
        "pseudoinverse": lambda: pseudoinverse(pencil.M1),
        "from_polynomial": lambda: from_polynomial(P, 1, 1, "hook"),
        "numerical_rank": lambda: numerical_rank(pencil.M1),
        "svd_with_rank": lambda: svd_with_rank(pencil.M1),
    }


@pytest.mark.parametrize("call", ["staircase_eigenstructure",
                                  "generalized_eigenvalues",
                                  "right_minimal_indices_by_convolution",
                                  "pseudoinverse", "from_polynomial",
                                  "numerical_rank", "svd_with_rank"])
@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_input_raises_before_any_lapack_call(monkeypatch, call, bad):
    # a full SVD of a matrix with inf at (0, 0) does not return
    def reached(*args, **kwargs):
        raise AssertionError("LAPACK reached")

    for module, name in ((_linalg, "svd"), (np.linalg, "svd"),
                         (bklab.eigenstructure, "_zggev")):
        monkeypatch.setattr(module, name, reached)
    with pytest.raises(ShapeError, match="non-finite"):
        _non_finite_calls(bad)[call]()


def test_staircase_keeps_a_negligible_qz_beta_as_infinite():
    # B = 1e-15 is full rank at the threshold 1^3 eps, but QZ finds beta
    # below 10 eps hypot(alpha, beta)
    es = staircase_eigenstructure(Pencil.from_parts([[1.0]], [[1e-15]]))
    assert es.finite == [] and es.infinite == [1]
    assert es.rank_log[-1].context == "core:qz-beta"
    assert es.rank_log[-1].rank == 0


def test_staircase_logs_an_explicit_tolerance_on_every_decision():
    pencil = _staircase_cases()["singular"][0]
    es = staircase_eigenstructure(pencil, tol=1e-9)
    default = staircase_eigenstructure(pencil)
    assert [d.context for d in es.rank_log] == [d.context for d in default.rank_log]
    assert all(d.tolerance == 1e-9 for d in es.rank_log)
    assert (es.right, es.left, es.infinite) == (default.right, default.left,
                                                default.infinite)


def test_staircase_index_sum_consistency():
    rng = trial_rng(60, 1)
    for trial in range(10):
        P = random_singular_polynomial(3, 3, 3, int(rng.integers(1, 3)), rng)
        pen = from_polynomial(P, 1, 1, "hook").assemble()
        es = staircase_eigenstructure(pen)
        rank = pen.cols - len(es.right)
        assert rank == pen.rows - len(es.left)
        assert es.index_sum() == rank


def test_infinite_structure_matches_reversal_zero_eigenvalue():
    # infinite divisors of M0 + lambda*M1 are the zero eigenvalues of the
    # reversal M1 + lambda*M0
    B = np.zeros((3, 3)); B[0, 1] = 1.0; B[1, 2] = 1.0
    pen = Pencil.from_parts(np.eye(3), B)
    es = staircase_eigenstructure(pen)
    rev = staircase_eigenstructure(Pencil.from_parts(B, np.eye(3)))
    zeros = [z for z in rev.finite if abs(z) <= 1e-10]
    assert sum(es.infinite) == len(zeros)


# --------------------------------------------------------- rank decisions

def test_rank_log_is_populated_and_serializable():
    es = staircase_eigenstructure(build_L(3))
    assert len(es.rank_log) >= 2
    blob = es.to_json()
    assert "rank_log" in blob and blob["right"] == [3]
    assert {"context", "shape", "singular_values", "rank", "tolerance",
            "borderline"} <= set(blob["rank_log"][0])


def test_eigenstructure_json_round_trip():
    es = Eigenstructure(finite=[1 + 2j, 1 + 2j, 3 + 0j], infinite=[1],
                        right=[0, 2], left=[1])
    again = Eigenstructure.from_json(es.to_json())
    assert sorted(again.finite, key=abs) == sorted(es.finite, key=abs)
    assert (again.infinite, again.right, again.left) == ([1], [0, 2], [1])


@pytest.mark.parametrize("blob", [
    [], "finite", {"finite": "abc"}, {"finite": [[1.0, 2.0]]},
    {"finite": [[1.0, "2", 1]]}, {"finite": [[1.0, 2.0, -1]]},
    {"finite": [[1.0, 2.0, 1.5]]}, {"finite": [[1.0, 2.0, True]]},
    {"right": [-1]}, {"left": [0.5]}, {"infinite": 3}, {"right": ["1"]},
    {"finite": [[float("nan"), 0.0, 1]]}, {"finite": [[0.0, float("inf"), 1]]},
    {"finite": [[-float("inf"), 1.0, 1]]},
    pytest.param({"finite": [[10 ** 400, 0, 1]]}, id="finite-int-beyond-float"),
], ids=repr)
def test_eigenstructure_reader_refuses_a_bad_schema_with_a_shape_error(blob):
    with pytest.raises(ShapeError):
        Eigenstructure.from_json(blob)


def test_eigenstructure_reader_copies_its_lists():
    blob = {"right": [1, 2], "finite": [[0.5, -1.0, 2]]}
    es = Eigenstructure.from_json(blob)
    blob["right"].append(3)
    assert es.right == [1, 2] and es.finite == [0.5 - 1j, 0.5 - 1j]
    assert Eigenstructure.from_json({}) == Eigenstructure()


# -------------------------------------------------------- convolution scan

def test_convolution_indices_of_L():
    for eps in (1, 2, 3, 4):
        assert right_minimal_indices_by_convolution(build_L(eps)) == [eps]


def test_convolution_indices_of_lambda_row():
    for eps, n in ((1, 1), (2, 2), (3, 1)):
        lam = build_Lambda(eps, n).transpose()
        indices = right_minimal_indices_by_convolution(lam)
        assert indices == [1] * (eps * n)
        # staircase cross-check through a companion of the same polynomial
        bk = from_polynomial(lam.with_grade(eps), eps - 1, 0, "frobenius1")
        es = staircase_eigenstructure(bk.assemble())
        rec = shift_recovery(es, eps - 1, 0)
        assert rec.right == indices


def test_convolution_indices_regular_is_empty():
    rng = trial_rng(61, 0)
    P = random_polynomial(2, 2, 3, rng)
    assert right_minimal_indices_by_convolution(P) == []


def test_convolution_scan_cap_raises():
    with pytest.raises(InconclusiveError):
        right_minimal_indices_by_convolution(build_L(4), j_max=2)


# ------------------------------------------------------------------- shift

def test_shift_identity():
    es = Eigenstructure(finite=[2.0 + 0j], right=[1], left=[0])
    back = shift_recovery(es, 0, 0)
    assert back.right == [1] and back.left == [0]


def test_shift_on_rectangular_example():
    # P = [lambda, lambda^2] has the single right minimal index 1
    P = MatrixPolynomial([np.zeros((1, 2)), np.array([[1.0, 0.0]]),
                          np.array([[0.0, 1.0]])], grade=2)
    assert right_minimal_indices_by_convolution(P) == [1]
    bk = from_polynomial(P, 1, 0, "frobenius1")
    es = staircase_eigenstructure(bk.assemble())
    assert es.right == [2]
    rec = shift_recovery(es, 1, 0)
    assert rec.right == [1]


def test_shift_below_epsilon_rejected():
    es = Eigenstructure(right=[0], left=[])
    with pytest.raises(EigenstructureShiftError):
        shift_recovery(es, 1, 0)


@pytest.mark.parametrize("eps,eta", [(-2, 0), (0, -1), (-1, -1)])
def test_negative_shift_rejected(eps, eta):
    # a negative shift would raise the indices: right index 1 read as 3
    es = Eigenstructure(right=[1], left=[1])
    with pytest.raises(ShapeError, match="shifts must be nonnegative"):
        shift_recovery(es, eps, eta)


# ------------------------------------------------- cross-method agreement

def test_oracle_equivalence_on_singular_products():
    rng_master = 62
    failures = 0
    for trial in range(25):
        rng = trial_rng(rng_master, trial)
        m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        d = int(rng.integers(2, 5))
        rank = int(rng.integers(1, min(m, n)))
        P = random_singular_polynomial(m, n, d, rank, rng)
        eps = d // 2
        eta = d - 1 - eps
        es = staircase_eigenstructure(from_polynomial(P, eps, eta, "hook").assemble())
        rec = shift_recovery(es, eps, eta)
        failures += rec.right != right_minimal_indices_by_convolution(P)
    assert failures == 0


@pytest.mark.parametrize("seed", [3, 7, 101, 4242])
def test_oracle_equivalence_at_benchmark_size(seed):
    # the 10 x 14 grade-7 rank-6 product: n - r = 8 right and m - r = 4 left
    # minimal indices summing, with the eigenvalues, to d r = 42
    P = random_singular_polynomial(10, 14, 7, 6, trial_rng(seed, 0))
    es = staircase_eigenstructure(from_polynomial(P, 3, 3, "hook").assemble())
    rec = shift_recovery(es, 3, 3)
    assert (len(rec.right), len(rec.left), rec.index_sum()) == (8, 4, 42)
    assert rec.right == right_minimal_indices_by_convolution(P)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_det_roots_refuses_a_non_finite_polynomial(bad):
    with pytest.raises(ShapeError, match="non-finite"):
        det_roots(MatrixPolynomial(np.full((3, 2, 2), bad)))


def test_det_roots_refuses_an_overflowing_determinant():
    # finite entries whose 2x2 determinant overflows
    P = MatrixPolynomial([[[1e200, 1e200], [-1e200, 1e200]], np.eye(2)])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ShapeError, match="non-finite"):
        det_roots(P)


def test_placements_agree_with_det_roots():
    rng_master = 63
    worst = 0.0
    for trial in range(15):
        rng = trial_rng(rng_master, trial)
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 5))
        P = random_polynomial(n, n, d, rng)
        roots = list(det_roots(P))
        eps = d // 2
        pencils = [from_polynomial(P, eps, d - 1 - eps, "hook"),
                   from_polynomial(P, d - 1, 0, "frobenius1"),
                   from_polynomial(P, 0, d - 1, "frobenius2")]
        spectra = []
        for bk in pencils:
            finite, _ = generalized_eigenvalues(bk.assemble())
            spectra.append(finite)
        for fin in spectra:
            assert len(fin) == len(roots)
            worst = max(worst, match_eigenvalues(fin, roots))
        worst = max(worst, match_eigenvalues(spectra[0], spectra[1]))
    assert worst <= 1e-8


# ----------------------------------------------------------------- chordal

def test_chordal_distance_properties():
    assert chordal_distance(np.inf, np.inf) == 0.0
    assert chordal_distance(np.inf, 0.0) == 1.0
    assert chordal_distance(3.0, 3.0) == 0.0
    a, b = 1e8, 1e8 + 1.0
    assert chordal_distance(a, b) <= 1e-15  # huge eigenvalues compare safely


def _chordal_reference(a, b):
    if np.isinf(a) and np.isinf(b):
        return 0.0
    if np.isinf(a) or np.isinf(b):
        z = b if np.isinf(a) else a
        return 1.0 / np.sqrt(1.0 + abs(z) ** 2)
    return abs(a - b) / np.sqrt((1.0 + abs(a) ** 2) * (1.0 + abs(b) ** 2))


def test_chordal_distance_broadcasts_like_scalar_calls():
    rng = np.random.default_rng(95)
    sets = []
    for size in (7, 5):
        z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        z[1] = np.inf
        z[2:4] = 1e8 * (1.0 + 1e-9 * z[2:4])
        sets.append(z)
    first, second = sets
    matrix = chordal_distance(first[:, None], second[None, :])
    assert matrix.shape == (7, 5)
    for i, a in enumerate(first):
        for j, b in enumerate(second):
            assert matrix[i, j] == chordal_distance(a, b)
            assert matrix[i, j] == pytest.approx(_chordal_reference(a, b),
                                                 rel=1e-14, abs=1e-30)


def test_match_eigenvalues_requires_equal_sizes():
    with pytest.raises(ShapeError):
        match_eigenvalues([1.0], [1.0, 2.0])


def test_match_eigenvalues_rejects_nan():
    with pytest.raises(ShapeError):
        match_eigenvalues([np.nan], [1.0])
    with pytest.raises(ShapeError):
        match_eigenvalues([1.0, 2.0], [2.0, complex(1.0, np.nan)])


def _assignment_reference(first, second):
    cost = chordal_distance(np.asarray(first, dtype=complex)[:, None],
                            np.asarray(second, dtype=complex)[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


@pytest.fixture
def assignment_calls(monkeypatch):
    """Shapes of the cost matrices ``match_eigenvalues`` hands to the
    assignment solver."""
    calls = []

    def spy(cost):
        calls.append(cost.shape)
        return linear_sum_assignment(cost)

    monkeypatch.setattr("scipy.optimize.linear_sum_assignment", spy)
    return calls


def test_match_eigenvalues_certificate_equals_the_assignment(assignment_calls):
    # distinct row minima, where every optimal pairing takes each row's
    # minimum: each match solves the assignment once and returns its value
    rng = np.random.default_rng(8)
    sizes = (1, 28, 56)
    for size in sizes:
        for trial in range(6):
            first = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            if trial % 2:
                first[rng.integers(size)] = np.inf
            second = first + 1e-6 * (rng.standard_normal(size)
                                     + 1j * rng.standard_normal(size))
            second = rng.permutation(second)
            expected = _assignment_reference(first, second)
            assert match_eigenvalues(first, second) == expected
    assert assignment_calls == [(size, size) for size in sizes
                                for _ in range(6)]


@pytest.mark.parametrize("first, second", [
    ([0.0, 0.1], [0.05, 10.0]),
    ([1.0, 1.0, 2.0], [1.0 + 1e-9, 1.0 - 1e-9, 2.0]),
])
def test_match_eigenvalues_shared_minimum_solves_the_assignment(
        assignment_calls, first, second):
    expected = _assignment_reference(first, second)
    assert match_eigenvalues(first, second) == expected
    assert assignment_calls == [(len(first), len(first))]
