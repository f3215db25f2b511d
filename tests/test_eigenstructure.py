import json
import threading
import time
from functools import partial

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


@pytest.mark.parametrize("case", ["hook", "be_sylvester"])
def test_explicit_tolerance_takes_no_norm_of_A(monkeypatch, case):
    # ||A||_2 only scales the default threshold, so an explicit tol takes
    # the values of B alone; at the default's own threshold the answer is
    # the default's, bit for bit
    pencil = _square_regular_pencils()[case]
    default, calls, _ = _lapack_svds(
        monkeypatch, lambda: staircase_eigenstructure(pencil))
    tol = default.rank_log[0].tolerance
    es, tol_calls, vectors = _lapack_svds(
        monkeypatch, lambda: staircase_eigenstructure(pencil, tol=tol))
    assert (calls, tol_calls, vectors) == (2, 1, [])
    assert es.to_json() == default.to_json()


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


def _scipy_qz(A_h, B_h):
    """The QZ split of ``_QZ(A_h, B_h)`` on top of ``scipy.linalg.eig``:
    the finite eigenvalues and the ``(|beta|, threshold)`` of each
    infinite one."""
    alpha, beta = scipy.linalg.eig(A_h, -B_h, right=False,
                                   homogeneous_eigvals=True)
    threshold = 10.0 * EPS * np.hypot(np.abs(alpha), np.abs(beta))
    infinite = np.abs(beta) <= threshold
    return ((alpha[~infinite] / beta[~infinite]).conj().tolist(),
            list(zip(np.abs(beta[infinite]), threshold[infinite])))


def _qz_split(core):
    """The finite eigenvalues of a ``_QZ`` structure and the
    ``(|beta|, threshold)`` its log holds for each infinite one."""
    assert core.infinite == [1] * len(core.rank_log)
    assert all(d.context == "core:qz-beta" and d.rank == 0
               for d in core.rank_log)
    return core.finite, [(d.singular_values[0], d.tolerance)
                         for d in core.rank_log]


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
    from bklab.eigenstructure import _QZ

    A_h, B_h = _qz_cases()[case]
    finite, infinite = _qz_split(_QZ(A_h, B_h).structure())
    assert (finite, infinite) == _scipy_qz(A_h, B_h)
    assert len(infinite) == {"singular_B": 5, "negligible_beta": 1}.get(case, 0)


def test_generalized_eigenvalues_equal_the_staircases_bit_for_bit():
    # one QZ in one orientation: the hook pencils whose M1 the staircase
    # finds of full rank get the staircase's eigenvalues, not a
    # conjugate-orientation QZ's that differ in the last bits
    for i in range(20):
        L = from_polynomial(random_polynomial(4, 4, 7, trial_rng(5, i)), 3, 3,
                            "hook").assemble()
        finite, infinite = generalized_eigenvalues(L)
        es = staircase_eigenstructure(L)
        assert (finite, infinite) == (es.finite, 0), i
        assert len(es.finite) == L.rows and not es.infinite, i


@pytest.mark.parametrize("scale, bits", [(1e-310, 44), (1e-320, 11)])
def test_qz_reads_a_subnormal_pencil_as_the_unit_one(scale, bits):
    # numpy's alpha / beta forms 1 / beta, which overflows at a subnormal
    # beta, so QZ divides each pair by its largest modulus first; the
    # eigenvalues move with the bits the scale keeps of the entries
    P = random_polynomial(2, 2, 1, trial_rng(0, 0))
    unit = staircase_eigenstructure(P)
    small = staircase_eigenstructure(scale * P)
    assert (small.right, small.left, small.infinite) == ([], [], [])
    assert match_eigenvalues(unit.finite, small.finite) <= 2.0 ** (4 - bits)
    assert generalized_eigenvalues(scale * P) == (small.finite, 0)


def _substitute_zggev(monkeypatch, zggev):
    """Let QZ call ``zggev`` in place of the one bklab's resolver binds."""
    monkeypatch.setattr(bklab.eigenstructure, "_zggev", lambda: zggev)


def _zggev_calls(monkeypatch):
    """The ``(n, lwork, alpha, beta)`` of every ``zggev`` call bklab makes
    from now on, recorded by a spy on the function its resolver binds."""
    zggev = bklab.eigenstructure._zggev()
    calls = []

    def spy(a, b, lwork):
        out = zggev(a, b, lwork=lwork)
        calls.append((len(a), lwork, out[0], out[1]))
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
        bklab.eigenstructure._QZ(A, B).structure()
        assert [lwork == -1 for _, lwork, _, _ in calls] == [True] * queries + [False]
        size, lwork, alpha, beta = calls[-1]
        # the two-call form: query, then solve in the optimal workspace
        fresh = int(zggev(A, -B, lwork=-1)[-2][0].real)
        want_alpha, want_beta, *_ = zggev(A, -B, lwork=fresh)
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
        fresh = int(zggev(A, -B, lwork=-1)[-2][0].real)
        assert bklab.eigenstructure._zggev_lwork(n) == fresh, n


@pytest.mark.parametrize("info", [-1, 1])
def test_qz_failure_raises_a_typed_error(monkeypatch, info):
    zggev = bklab.eigenstructure._zggev()

    def failing(a, b, lwork):
        out = zggev(a, b, lwork=lwork)
        return out if lwork == -1 else out[:-1] + (info,)

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
        zggev(a, b, lwork=8)


def test_ilp64_zggev_returns_lapacks_info(capfd):
    bound = bklab.eigenstructure._zggev()
    if not isinstance(bound, bklab.eigenstructure._Ilp64Zggev):
        pytest.skip("numpy's LAPACK exports no ILP64 zggev: QZ takes scipy's")
    A = complex_gaussian((5, 5), trial_rng(97, 3))
    # LWORK, argument 15, is below max(1, 2n)
    assert bound(A, A, lwork=1)[-1] == -15
    assert bound(A, A, lwork=10)[-1] == 0
    capfd.readouterr()  # LAPACK's own report of the illegal value


def test_bound_zggev_returns_what_scipys_returns():
    # the same LAPACK routine in two builds of OpenBLAS, asked for
    # eigenvalues only: equal to rounding, and alpha, beta, work and info in
    # scipy's shape and dtype
    scipys = partial(scipy.linalg.lapack.zggev, compute_vl=0, compute_vr=0)
    bound = bklab.eigenstructure._zggev()
    rng = trial_rng(97, 2)
    A, B = complex_gaussian((9, 9), rng), complex_gaussian((9, 9), rng)
    lwork = int(bound(A, B, lwork=-1)[-2][0].real)
    assert lwork == int(scipys(A, B, lwork=-1)[-2][0].real)
    ours, theirs = bound(A, B, lwork=lwork), scipys(A, B, lwork=lwork)
    assert ours[-1] == theirs[-1] == 0
    for k in (0, 1, -2):  # alpha, beta and work
        assert (ours[k].shape, ours[k].dtype) == (theirs[k].shape,
                                                  theirs[k].dtype)
    np.testing.assert_allclose(ours[0] / ours[1], theirs[0] / theirs[1],
                               rtol=1e-10)
    if isinstance(bound, bklab.eigenstructure._Ilp64Zggev):
        with pytest.raises(TypeError):  # the binding has no eigenvector flag
            bound(A, B, 1, 1, lwork)


def test_ilp64_zggev_overwrites_only_writeable_fortran_operands():
    bound = bklab.eigenstructure._zggev()
    if not isinstance(bound, bklab.eigenstructure._Ilp64Zggev):
        pytest.skip("numpy's LAPACK exports no ILP64 zggev: QZ takes scipy's")
    rng = trial_rng(97, 4)
    A, B = complex_gaussian((6, 6), rng), complex_gaussian((6, 6), rng)
    lwork = bklab.eigenstructure._zggev_lwork(6)
    kept = [A.copy(), np.asfortranarray(B)]
    kept[1].setflags(write=False)
    want = bound(A.copy(), B.copy(), lwork=lwork)
    # a C-ordered and a read-only operand are copied first
    got = bound(*kept, lwork=lwork)
    assert np.array_equal(kept[0], A) and np.array_equal(kept[1], B)
    a, b = np.asfortranarray(A), np.asfortranarray(B)
    # writeable Fortran-ordered operands are LAPACK's own: QZ leaves its
    # Schur forms there
    again = bound(a, b, lwork=lwork)
    assert not np.array_equal(a, A) and not np.array_equal(b, B)
    for out in (got, again):
        assert out[0].tobytes() == want[0].tobytes()
        assert out[1].tobytes() == want[1].tobytes()


def _worker_cases():
    rng = trial_rng(97, 5)
    square = Pencil(complex_gaussian((2, 6, 6), rng))
    return {"square": square, "small": Pencil(square.coeff_stack[:, :5, :5]),
            "wide": Pencil(square.coeff_stack[:, :5, :])}


def _started(pencil):
    """What ``_QZ.start(pencil)`` returns."""
    return bklab.eigenstructure._QZ.start(pencil)


def _worker_from_order(monkeypatch, order, cpus=2):
    """QZ goes to the worker from ``order`` on, as on a host of ``cpus``."""
    monkeypatch.setattr(bklab.eigenstructure, "QZ_THREAD_MIN_ORDER", order)
    monkeypatch.setattr(bklab.eigenstructure, "_usable_cpus", lambda: cpus)


def _zggev_threads(monkeypatch, before=lambda: None):
    """The names of the threads that make the ``zggev`` calls from now on,
    workspace queries left out; ``before`` runs ahead of each call."""
    zggev = bklab.eigenstructure._zggev()
    threads = []

    def spy(a, b, lwork):
        if lwork != -1:
            threads.append(threading.current_thread().name)
            before()
        return zggev(a, b, lwork=lwork)

    _substitute_zggev(monkeypatch, spy)
    return threads


def _no_qz(*args):
    raise AssertionError("a QZ was built")


def _of(pencil):
    """The ``_QZ`` of a whole square pencil, not started."""
    return bklab.eigenstructure._QZ.of(pencil)


def test_qz_goes_to_the_worker_only_when_it_pays(monkeypatch):
    import bklab.backward_error as backward_error

    _worker_from_order(monkeypatch, 6)
    # a rectangular L + dL, whose P + dP never reads QZ, builds none
    L = from_polynomial(random_polynomial(2, 3, 3, trial_rng(97, 6)), 1, 1,
                        "hook")
    with monkeypatch.context() as patch:
        patch.setattr(bklab.eigenstructure._QZ, "__init__", _no_qz)
        report = backward_error.run_pipeline(
            L, Pencil(np.zeros((2,) + L.shape)))
        cases = _worker_cases()
        # a pencil that is too small or not square is not even built
        for name in ("small", "wide"):
            assert _started(cases[name]) is None
    assert report.eigen_checked
    threads = _zggev_threads(monkeypatch)
    _worker_from_order(monkeypatch, 6, cpus=1)
    assert _started(cases["square"]) is None
    assert threads == []
    _worker_from_order(monkeypatch, 6)
    on_worker, inline = _started(cases["square"]), _of(cases["square"])
    assert on_worker.started.is_set() and inline.done is None
    on_worker, inline = on_worker.structure(), inline.structure()
    assert threads == ["bklab-qz", "MainThread"]
    assert on_worker.finite == inline.finite and len(on_worker.finite) == 6


def test_only_the_zggev_call_runs_on_the_worker(monkeypatch):
    # the beta test, the conjugation and the log are read on the caller's
    # thread, so no numpy floating-point operation runs on the worker: the
    # worker makes the call in run(), and the reading builds the structure
    _worker_from_order(monkeypatch, 6)
    threads = _zggev_threads(monkeypatch)
    runners, readers = [], []
    run = bklab.eigenstructure._QZ.run
    structure = bklab.eigenstructure.Eigenstructure

    def recorded_run(qz):
        runners.append(threading.current_thread().name)
        run(qz)

    def recorded_structure(*args, **kwargs):
        readers.append(threading.current_thread().name)
        return structure(*args, **kwargs)

    monkeypatch.setattr(bklab.eigenstructure._QZ, "run", recorded_run)
    monkeypatch.setattr(bklab.eigenstructure, "Eigenstructure",
                        recorded_structure)
    _started(_worker_cases()["square"]).structure()
    assert threads == runners == ["bklab-qz"] and readers == ["MainThread"]


def test_worker_takes_one_job_at_a_time(monkeypatch):
    _worker_from_order(monkeypatch, 6)
    threads = _zggev_threads(monkeypatch, before=lambda: time.sleep(0.2))
    square = _worker_cases()["square"]
    first = _started(square)
    assert first.done is not None
    # the first call is under way: a second caller gets no QZ to read
    assert _started(square) is None
    first.done.wait()
    second = _started(square)
    assert second.done is not None
    second.done.wait()
    assert threads == ["bklab-qz"] * 2
    workers = [t for t in threading.enumerate() if t.name == "bklab-qz"]
    assert len(workers) == 1 and workers[0].daemon


def test_worker_raises_what_the_binding_raised_on_the_callers_thread(
        monkeypatch):
    _worker_from_order(monkeypatch, 6)

    def refuse(a, b, lwork):
        raise ShapeError(f"refused on {threading.current_thread().name}")

    _substitute_zggev(monkeypatch, refuse)
    monkeypatch.setattr(bklab.eigenstructure, "_zggev_lwork", lambda n: 8)
    square = _worker_cases()["square"]
    for _ in range(2):  # and the worker is free again
        qz = _started(square)
        with pytest.raises(ShapeError, match="refused on bklab-qz"):
            qz.structure()


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


def test_eigenstructure_json_groups_equal_eigenvalues_in_first_order():
    # one [re, im, multiplicity] entry per value, in order of first
    # occurrence; 0.0 compares equal to -0.0 and joins the first one's entry
    es = Eigenstructure(finite=[1 + 2j, 3, 1 + 2j, complex(-0.0, 0.0), 0j],
                        infinite=[1], right=[0, 2], left=[1])
    blob = es.to_json()
    assert json.dumps(blob["finite"]) == json.dumps(
        [[1.0, 2.0, 2], [3.0, 0.0, 1], [-0.0, 0.0, 2]])
    assert [type(x) for x in blob["finite"][1]] == [float, float, int]
    assert (blob["infinite"], blob["right"], blob["left"]) == ([1], [0, 2], [1])
    assert Eigenstructure().to_json()["finite"] == []


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


def test_normal_rank_probes_fixed_points_without_a_generator(monkeypatch):
    # the three points are the first complex draws of the generator seeded
    # 2718281828, bit for bit, and no generator is built per call
    rng = np.random.default_rng(2718281828)
    drawn = [complex(rng.standard_normal(), rng.standard_normal())
             for _ in range(3)]
    cases = [(random_polynomial(4, 4, 7, trial_rng(62, 0)), 4),
             (random_singular_polynomial(4, 6, 4, 3, trial_rng(62, 1)), 3),
             (MatrixPolynomial([np.zeros((2, 3))] * 3), 0)]
    # the (1,1) entry of diag(lambda, 0) is the point itself, and its rank
    # of 1 never stops the probe early
    probe = MatrixPolynomial([np.zeros((2, 2)), np.diag([1.0, 0.0])])
    points = []
    rank = bklab.eigenstructure.numerical_rank

    def recording_rank(M, tol=None):
        points.append(M[0, 0])
        return rank(M, tol=tol)

    def no_generator(*args, **kwargs):
        raise AssertionError("a random generator was built")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    assert [bklab.eigenstructure._normal_rank(Q) for Q, _ in cases] == [
        r for _, r in cases]
    monkeypatch.setattr(bklab.eigenstructure, "numerical_rank", recording_rank)
    assert bklab.eigenstructure._normal_rank(probe) == 1
    assert [(z.real.hex(), z.imag.hex()) for z in points] == [
        (z.real.hex(), z.imag.hex()) for z in drawn]


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
