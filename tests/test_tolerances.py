import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bklab.experiments import complex_gaussian, trial_rng
from bklab.tolerances import (EPS, numerical_rank, pseudoinverse,
                              rank_tolerance, svd_with_rank)

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


def test_one_svd_primitive():
    # every rank decision and pseudoinverse factors through tolerances._svd;
    # only the numeric cross-checks of spectral_constants take SVDs of their own
    users = set()
    for path in sorted((ROOT / "src" / "bklab").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Attribute) and node.attr == "svd"
                    for node in ast.walk(fn)):
                users.add(f"{path.stem}.{fn.name}")
    assert {u for u in users if not u.startswith("spectral_constants.")} == {
        "tolerances._svd"}


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
