import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bklab.errors import ShapeError
from bklab.experiments import complex_gaussian, trial_rng
from bklab.tolerances import (EPS, _require_finite, _svd, numerical_rank,
                              pseudoinverse, rank_tolerance, svd_with_rank)

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _rank_three(seed=0):
    rng = trial_rng(seed, 0)
    return complex_gaussian((6, 3), rng) @ complex_gaussian((3, 5), rng)


def _only(log):
    assert len(log) == 1
    return log[0]


def test_known_rank_uses_the_default_tolerance():
    M = _rank_three()
    log = []
    assert numerical_rank(M, context="probe", log=log) == 3
    decision = _only(log)
    s = np.linalg.svd(M, compute_uv=False)
    assert decision.context == "probe"
    assert decision.shape == (6, 5)
    assert decision.rank == 3
    assert decision.tolerance == rank_tolerance((6, 5), decision.singular_values[0])
    assert decision.tolerance == pytest.approx(6 * EPS * s[0], rel=1e-13)
    assert_allclose(decision.singular_values, s, rtol=1e-12)


def test_svd_with_rank_returns_unitary_factors():
    M = _rank_three(1)
    rank, s, U, V = svd_with_rank(M)
    assert rank == 3 and s.shape == (5,)
    assert U.shape == (6, 6) and V.shape == (5, 5)
    assert_allclose(U.conj().T @ U, np.eye(6), atol=1e-13)
    assert_allclose(V.conj().T @ V, np.eye(5), atol=1e-13)
    assert_allclose(U[:, :5] * s @ V.conj().T, M, atol=1e-12)


def test_explicit_tolerance_wins():
    M = np.diag([1.0, 1e-3, 1e-6])
    log = []
    assert numerical_rank(M, tol=1e-4, log=log) == 2
    assert _only(log).tolerance == 1e-4
    assert numerical_rank(M, tol=0.0) == 3


@pytest.mark.parametrize("tol", [np.nan, -1.0, -1e-300, np.inf])
def test_explicit_tolerance_must_be_finite_and_nonnegative(tol):
    # a NaN threshold would read every rank as 0, a negative one every
    # singular value as signal
    M = np.diag([1.0, 1e-3, 0.0])
    for decide in (numerical_rank, svd_with_rank, pseudoinverse):
        with pytest.raises(ShapeError, match="tol must be nonnegative and finite"):
            decide(M, tol=tol)


@pytest.mark.parametrize("shape", [(0, 3), (4, 0), (0, 0)])
def test_empty_matrix(shape):
    log = []
    rank, s, U, V = svd_with_rank(np.zeros(shape), context="empty", log=log)
    assert rank == 0 and s.size == 0
    assert U.shape == (shape[0], shape[0]) and V.shape == (shape[1], shape[1])
    decision = _only(log)
    assert (decision.rank, decision.tolerance, decision.shape) == (0, 0.0, shape)
    numerical_rank(np.zeros(shape), tol=0.5, log=log)
    assert log[-1].tolerance == 0.5
    assert pseudoinverse(np.zeros(shape)).shape == (shape[1], shape[0])


@pytest.mark.parametrize("shape", [(5, 3, 3), (4, 3, 5), (2, 3, 6, 2),
                                   (3, 0, 2), (0, 4, 4)])
def test_svd_of_a_stack_is_the_svd_of_each_matrix(shape):
    # U and V stay unitary per matrix: V^H is transposed on its last two
    # axes only, never across the stack
    M = complex_gaussian(shape, trial_rng(3, 0))
    s, U, V = _svd(M)
    values = _svd(M, vectors=False)
    assert s.shape == values.shape == (*shape[:-2], min(shape[-2:]))
    assert U.shape == (*shape[:-1], shape[-2])
    assert V.shape == (*shape[:-2], shape[-1], shape[-1])
    for index in np.ndindex(*shape[:-2]):
        s1, U1, V1 = _svd(M[index])
        assert np.array_equal(s[index], s1)
        assert np.array_equal(U[index], U1) and np.array_equal(V[index], V1)
        assert np.array_equal(values[index], _svd(M[index], vectors=False))
        k = s1.size
        assert_allclose((U1[:, :k] * s1) @ V1[:, :k].conj().T, M[index],
                        atol=1e-14)


def test_svd_of_a_stack_refuses_a_non_finite_matrix():
    M = complex_gaussian((3, 2, 2), trial_rng(3, 1))
    M[2, 1, 0] = np.nan
    for vectors in (True, False):
        with pytest.raises(ShapeError, match="non-finite"):
            _svd(M, vectors=vectors)


def test_pseudoinverse_is_moore_penrose_on_the_numerical_rank():
    M = _rank_three(2)
    X = pseudoinverse(M)
    assert X.shape == (5, 6)
    assert_allclose(M @ X @ M, M, atol=1e-12)
    assert_allclose(X @ M @ X, X, atol=1e-12)
    assert_allclose(X, np.linalg.pinv(M, rcond=1e-10), atol=1e-10)


@pytest.mark.parametrize("kwargs", [{}, {"tol": 1e-3}])
def test_pseudoinverse_and_svd_with_rank_decide_alike(kwargs):
    M = _rank_three(3) + 1e-6 * complex_gaussian((6, 5), trial_rng(3, 1))
    by_svd, by_pinv = [], []
    svd_with_rank(M, context="c", log=by_svd, **kwargs)
    pseudoinverse(M, context="c", log=by_pinv, **kwargs)
    a, b = _only(by_svd), _only(by_pinv)
    # one SVD primitive, so the same singular values and the same decision
    assert (a.context, a.shape, a.rank) == (b.context, b.shape, b.rank)
    assert a.tolerance == b.tolerance
    assert np.array_equal(a.singular_values, b.singular_values)


def test_numerical_rank_forms_no_singular_vectors(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    assert numerical_rank(_rank_three(4)) == 3
    assert numerical_rank(_rank_three(5), tol=1e-3) == 3
    assert calls == [False, False]


def _rank_population():
    """Seeded ``(M, tol)`` pairs: random low rank at the default and at an
    explicit tolerance, plus the empty shapes."""
    cases = []
    for trial in range(20):
        rng = trial_rng(17, trial)
        m, n = (int(k) for k in rng.integers(1, 40, size=2))
        r = int(rng.integers(0, min(m, n) + 1))
        M = complex_gaussian((m, r), rng) @ complex_gaussian((r, n), rng)
        M = M + 10.0 ** -rng.integers(6, 16) * complex_gaussian((m, n), rng)
        cases.append((M, None))
        cases.append((M, 1e-8 * max(np.abs(M).max(), 1.0)))
    cases.extend((np.zeros(shape), tol) for shape in [(0, 3), (3, 0), (0, 0)]
                 for tol in (None, 0.5))
    return cases


def test_numerical_rank_decides_like_svd_with_rank():
    for M, tol in _rank_population():
        by_values, by_svd = [], []
        rank = numerical_rank(M, tol=tol, context="c", log=by_values)
        svd_with_rank(M, tol=tol, context="c", log=by_svd)
        a, b = _only(by_values), _only(by_svd)
        assert rank == a.rank == b.rank
        assert (a.context, a.shape) == (b.context, b.shape)
        # LAPACK's values-only path may move sigma_max in its last bits
        if tol is None:
            assert a.tolerance == pytest.approx(b.tolerance, rel=1e-13, abs=0.0)
        else:
            assert a.tolerance == b.tolerance == tol
        assert a.singular_values.shape == b.singular_values.shape
        scale = b.singular_values[0] if b.singular_values.size else 0.0
        assert_allclose(a.singular_values, b.singular_values,
                        rtol=0.0, atol=1e-13 * scale)


def _literal(node):
    try:
        return ast.literal_eval(node)
    except ValueError:
        return None


def _svd_users(tree):
    """Names of the functions in ``tree`` that take an SVD: any ``.svd`` or
    ``svdvals``, and any ``norm(x, 2)`` or ``norm(x, ord=-2)``."""
    def takes_svd(node):
        if isinstance(node, ast.Attribute):
            return node.attr in ("svd", "svdvals")
        if isinstance(node, ast.Name):
            return node.id == "svdvals"
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        orders = node.args[1:2] + [k.value for k in node.keywords if k.arg == "ord"]
        return name == "norm" and any(_literal(o) in (2, -2) for o in orders)

    return {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            and any(takes_svd(node) for node in ast.walk(fn))}


def test_svd_users_sees_every_spelling():
    tree = ast.parse(
        "def a(M): return np.linalg.svd(M)\n"
        "def b(M): return scipy.linalg.svdvals(M)\n"
        "def c(M): return svdvals(M)\n"
        "def d(M): return np.linalg.norm(M, 2)\n"
        "def e(M): return norm(M, ord=-2)\n"
        "def f(M): return np.linalg.norm(M), np.linalg.norm(M, 'fro')\n"
        "def g(M): return np.linalg.norm(M, axis=(1, 2))\n")
    assert _svd_users(tree) == {"a", "b", "c", "d", "e"}


def test_one_svd_primitive():
    # every rank decision, pseudoinverse and spectral norm factors through
    # tolerances._svd; only the numeric cross-checks of spectral_constants
    # take SVDs of their own
    users = set()
    for path in sorted((ROOT / "src" / "bklab").glob("*.py")):
        users |= {f"{path.stem}.{name}"
                  for name in _svd_users(ast.parse(path.read_text()))}
    assert {u for u in users if not u.startswith("spectral_constants.")} == {
        "tolerances._svd"}


def _whole_array_norm_users(tree):
    """Names of the functions in ``tree`` that take a ``norm`` other than
    along an ``axis=`` keyword: a ``norm(...)`` call without it, whatever
    its module is called, and a bare ``linalg.norm`` passed on as a value."""
    def is_norm(func):
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        return name == "norm"

    def whole_array(node):
        if isinstance(node, ast.Call):
            return is_norm(node.func) and not any(k.arg == "axis" for k in node.keywords)
        return False

    def passed_on(fn):
        called = {id(node.func) for node in ast.walk(fn) if isinstance(node, ast.Call)}
        return any(isinstance(node, ast.Attribute) and node.attr == "norm"
                   and id(node) not in called for node in ast.walk(fn))

    return {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            and (passed_on(fn) or any(whole_array(node) for node in ast.walk(fn)))}


def test_whole_array_norm_users_sees_every_spelling():
    tree = ast.parse(
        "def a(M): return np.linalg.norm(M)\n"
        "def b(M): return numpy.linalg.norm(M, 'fro')\n"
        "def c(M): return linalg.norm(M, ord=2)\n"
        "def d(M): return norm(M)\n"
        "def e(M): return la.norm(M, None, (1, 2))\n"
        "def f(Ms): return list(map(np.linalg.norm, Ms))\n"
        "def g(M): return float(np.linalg.norm(M).max())\n"
        "def h(M): return np.linalg.norm(M, axis=(1, 2))\n"
        "def i(M): return norm(M, ord=2, axis=0)\n"
        "def j(P): norm = P.frobenius_norm(); return norm, pair_norm(P)\n"
        "def k(M): return _frobenius(M)\n")
    assert _whole_array_norm_users(tree) == {"a", "b", "c", "d", "e", "f", "g"}


def test_one_whole_array_norm_helper():
    # single-array Frobenius norms go through matpoly._frobenius, which
    # equals np.linalg.norm bit for bit without its wrapper; per-coefficient
    # norms along an axis stay on numpy, which sums them differently
    users = set()
    for path in sorted((ROOT / "src" / "bklab").glob("*.py")):
        users |= {f"{path.stem}.{name}"
                  for name in _whole_array_norm_users(ast.parse(path.read_text()))}
    assert users == set()


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("bad", [None, np.inf, -np.inf, np.nan])
def test_finiteness_check_is_exact_when_the_sum_of_squares_overflows(dtype, bad):
    # 1e200^2 overflows, so the cheap sum-of-squares test is inconclusive
    M = np.full((3, 4), 1e200, dtype=dtype)
    if bad is None:
        _require_finite(M)
        return
    M[1, 2] = bad
    with pytest.raises(ShapeError, match="non-finite"):
        _require_finite(M)


def test_truncated_pseudoinverse_drops_small_singular_values():
    M = np.diag([2.0, 1e-3, 1e-9])
    X = pseudoinverse(M, tol=1e-6)
    assert_allclose(X, np.diag([0.5, 1e3, 0.0]), rtol=1e-14)


def test_every_traced_function_resolves():
    # The benchmark's tracer wraps these bindings by name; a rename in the
    # package would silently drop a layer from the traced metrics.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module_name, attr in tracing.TRACED:
        assert callable(getattr(importlib.import_module(module_name), attr)), \
            (module_name, attr)
