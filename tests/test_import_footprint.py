"""Which scipy modules each entry point loads, checked in fresh interpreters
(this process may already hold scipy), that README's Python quickstart runs
there without a warning, that every module of the package imports its
siblings at the top, and that ``bklab.__all__`` is the package's public
names."""

import ast
import ctypes
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from numpy.linalg import _umath_linalg

import bklab
import bklab.eigenstructure
from bklab.experiments import random_polynomial, trial_rng

SRC = Path(bklab.__file__).resolve().parents[1]
README = Path(__file__).resolve().parents[1] / "README.md"


def _run_fresh(code, *flags):
    """Last line of what ``code`` prints in a fresh interpreter started with
    the options ``flags``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1]


def _scipy_modules_after(code):
    probe = (code + "\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules"
             " if m == 'scipy' or m.startswith('scipy.'))))\n")
    return set(json.loads(_run_fresh(probe)))


def test_readme_quickstart_runs_without_a_warning():
    # a public-API change that breaks the documented example fails here; the
    # example's last line prints the report's ratio, bound and bound_holds
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    assert _run_fresh(blocks[0], "-W", "error").endswith("True")


def test_import_loads_no_scipy():
    assert _scipy_modules_after("import bklab") == set()


def _numpy_zggev_names():
    """The names of ``NUMPY_ZGGEV_NAMES`` that numpy's LAPACK exports."""
    library = ctypes.CDLL(_umath_linalg.__file__)
    return [name for name in bklab.eigenstructure.NUMPY_ZGGEV_NAMES
            if hasattr(library, name)]


def _assert_qz_footprint(modules):
    """QZ through numpy's LAPACK loads no scipy; only where numpy exports
    no ``zggev`` does it load ``scipy.linalg``, and never ``scipy.optimize``."""
    if _numpy_zggev_names():
        assert modules == set()
    else:
        assert "scipy.linalg" in modules and "scipy.optimize" not in modules


def test_eigen_check_loads_neither_linalg_nor_optimize():
    modules = _scipy_modules_after(
        "from bklab import from_polynomial, pipeline_radius, run_pipeline\n"
        "from bklab.experiments import (random_pencil_perturbation,\n"
        "                               random_polynomial, trial_rng)\n"
        "rng = trial_rng(3, 0)\n"
        "L = from_polynomial(random_polynomial(4, 4, 7, rng), 3, 3, 'hook')\n"
        "dL = random_pencil_perturbation(L.shape, 0.5 * pipeline_radius(L), rng)\n"
        "report = run_pipeline(L, dL, check_eigen=True)\n"
        "assert report.eigen_consistent and report.shift_consistent\n")
    _assert_qz_footprint(modules)


def test_rectangular_batch_falls_back_to_an_empty_match_without_scipy():
    # a 2 x 3 P has minimal indices, so the eigen check falls back to the
    # second staircase, whose match of two empty spectra imports nothing
    modules = _scipy_modules_after(
        "import contextlib, io\n"
        "import bklab.backward_error as be\n"
        "from bklab.cli import main\n"
        "sizes, match = [], be.match_eigenvalues\n"
        "def spy(first, second):\n"
        "    sizes.append(len(first))\n"
        "    return match(first, second)\n"
        "be.match_eigenvalues = spy\n"
        "args = ['backward-error', '--trials', '2', '--m', '2', '--n', '3',\n"
        "        '--d', '3']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(args) == 0\n"
        "assert sizes == [0, 0]\n")
    assert modules == set()


def test_a_shared_minimum_match_leaves_lsap_an_attribute_of_its_package():
    # a compiled module loaded without its package's __init__ would be in
    # sys.modules but not an attribute of scipy.optimize
    assert _run_fresh(
        "from bklab import match_eigenvalues\n"
        "assert match_eigenvalues([1.0, 1.0, 2.0],\n"
        "                         [1.0 + 1e-9, 1.0 - 1e-9, 2.0]) > 0.0\n"
        "import scipy.optimize\n"
        "print(hasattr(scipy.optimize, '_lsap'))\n") == "True"


def test_cli_eig_on_a_regular_polynomial_loads_only_lapack(tmp_path):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(
        random_polynomial(3, 3, 4, trial_rng(5, 0)).to_json()))
    modules = _scipy_modules_after(
        "import contextlib, io\n"
        "from bklab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    assert main(['eig', {str(path)!r}]) == 0\n"
        "assert '\"finite\"' in out.getvalue()\n")
    _assert_qz_footprint(modules)


def test_qz_binds_numpys_own_zggev_where_its_library_exports_one():
    names = _numpy_zggev_names()
    if not names:
        pytest.skip("numpy's LAPACK exports no ILP64 zggev: QZ takes scipy's")
    bound = bklab.eigenstructure._zggev()
    assert isinstance(bound, bklab.eigenstructure._Ilp64Zggev)
    assert bound.function.__name__ == names[0]
    assert bound.library == _umath_linalg.__file__
    exported = getattr(ctypes.CDLL(_umath_linalg.__file__), names[0])
    assert (ctypes.cast(bound.function, ctypes.c_void_p).value
            == ctypes.cast(exported, ctypes.c_void_p).value)


_FALLBACK_QZ = """
import json, sys
import bklab.eigenstructure as e
from bklab.experiments import complex_gaussian, trial_rng
rng = trial_rng(64, 2)
A, B = (complex_gaussian((28, 28), rng) for _ in range(2))
B[:, :3] = 0.0  # three eigenvalues at infinity
bound = e._QZ(A, B).structure()
loaded_before = "scipy.linalg._flapack" in sys.modules
e.NUMPY_ZGGEV_NAMES = ("bklab_no_such_zggev_",)
e._zggev.cache_clear()
e._zggev_lwork.cache_clear()
fallback = e._QZ(A, B).structure()
zggev = e._zggev()
assert zggev.func is sys.modules["scipy.linalg._flapack"].zggev
assert zggev.args == () and zggev.keywords == {"compute_vl": 0,
                                               "compute_vr": 0}
assert len(fallback.infinite) == 3
print(json.dumps([loaded_before, fallback.to_json() == bound.to_json()]))
"""


def test_qz_falls_back_to_scipys_zggev_where_numpy_exports_none():
    # the resolver, made to find no symbol, loads _flapack and binds its
    # zggev without eigenvectors, and QZ gives the same answer through it
    loaded_before, equal = json.loads(_run_fresh(_FALLBACK_QZ))
    assert loaded_before == (not _numpy_zggev_names())
    assert equal


def test_cli_constants_loads_no_scipy():
    modules = _scipy_modules_after(
        "import contextlib, io\n"
        "from bklab.cli import main\n"
        "args = ['constants', '--max-epsilon', '1', '--max-eta', '1',\n"
        "        '--max-m', '1', '--max-n', '1']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(args) == 0\n")
    assert modules == set()


_BKLAB_ANSWERS = """
from bklab.eigenstructure import _QZ, match_eigenvalues
from bklab.experiments import complex_gaussian, trial_rng
rng = trial_rng(64, 1)
A, B = (complex_gaussian((28, 28), rng) for _ in range(2))
B[:, :3] = 0.0
first, second = [1.0, 1.0, 2.0], [1.0 + 1e-9, 1.0 - 1e-9, 2.0]
core, matched = _QZ(A, B).structure(), match_eigenvalues(first, second)
"""

_SCIPY_ANSWERS = """
import numpy as np
import scipy.linalg, scipy.optimize
from bklab.eigenstructure import chordal_distance
from bklab.tolerances import EPS
alpha, beta = scipy.linalg.eig(A, -B, right=False, homogeneous_eigvals=True)
threshold = 10.0 * EPS * np.hypot(np.abs(alpha), np.abs(beta))
inf = np.abs(beta) <= threshold
assert core.finite == (alpha[~inf] / beta[~inf]).conj().tolist()
assert [(d.singular_values[0], d.tolerance) for d in core.rank_log] == list(
    zip(np.abs(beta[inf]), threshold[inf]))
assert core.infinite == [1] * 3
cost = chordal_distance(np.asarray(first, dtype=complex)[:, None],
                        np.asarray(second, dtype=complex)[None, :])
rows, cols = scipy.optimize.linear_sum_assignment(cost)
assert matched == float(cost[rows, cols].max())
print("equal")
"""


@pytest.mark.parametrize("bklab_first", [True, False],
                         ids=["bklab_first", "scipy_first"])
def test_answers_equal_scipys_in_either_import_order(bklab_first):
    if bklab_first:
        code = _BKLAB_ANSWERS + _SCIPY_ANSWERS
    else:
        code = "import scipy.linalg, scipy.optimize\n" + _BKLAB_ANSWERS \
            + _SCIPY_ANSWERS
    assert _run_fresh(code) == "equal"


_THREADS = """
import json, threading
import bklab
after_import = [t.name for t in threading.enumerate()]
from bklab import from_polynomial, pipeline_radius, run_pipeline
from bklab.eigenstructure import _usable_cpus
from bklab.experiments import (random_pencil_perturbation,
                               random_polynomial, trial_rng)
def workers(m, eps, eta, placement, runs):
    for index in range(runs):
        rng = trial_rng(3, index)
        L = from_polynomial(random_polynomial(m, m, 7, rng), eps, eta,
                            placement)
        run_pipeline(L, random_pencil_perturbation(
            L.shape, 0.5 * pipeline_radius(L), rng))
    return [t.daemon for t in threading.enumerate() if t.name == "bklab-qz"]
print(json.dumps([after_import, workers(2, 3, 3, "hook", 2),
                  workers(8, 6, 0, "frobenius1", 3), _usable_cpus()]))
"""


def test_import_starts_no_thread_and_the_eigen_check_at_most_one():
    # the worker thread starts on the first QZ at or above the crossover,
    # where the process may run on two CPUs: be_onesided's order 56, not
    # order 14
    after_import, order_14, order_56, cpus = json.loads(_run_fresh(_THREADS))
    assert after_import == ["MainThread"]
    assert order_14 == []
    assert order_56 == ([True] if cpus >= 2 else [])


def _deferred_package_imports(tree, stem):
    """``stem.function`` for every function in ``tree`` whose body imports a
    ``bklab`` module, by relative or absolute name."""
    def imports_package(node):
        if isinstance(node, ast.ImportFrom):
            return node.level > 0 or node.module.split(".")[0] == "bklab"
        return isinstance(node, ast.Import) and any(
            alias.name.split(".")[0] == "bklab" for alias in node.names)

    return {f"{stem}.{fn.name}" for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(imports_package(node) for node in ast.walk(fn))}


def test_deferred_package_imports_sees_every_spelling():
    tree = ast.parse(
        "from .matpoly import zeros\nimport scipy\n"
        "def a(): from .matpoly import zeros\n"
        "def b(): from . import matpoly\n"
        "def c(): import bklab.matpoly\n"
        "async def d(): from bklab.matpoly import zeros\n"
        "def e(): import scipy; from scipy import linalg\n")
    assert _deferred_package_imports(tree, "m") == {"m.a", "m.b", "m.c", "m.d"}


def test_no_module_defers_an_import_of_another():
    # a deferred import hides a dependency (or a cycle) until the first call;
    # a lazy third-party import such as scipy's stays allowed
    hits = set()
    for path in sorted(Path(bklab.__file__).parent.glob("*.py")):
        hits |= _deferred_package_imports(ast.parse(path.read_text()), path.stem)
    assert hits == set()


def test_star_import_binds_exactly_the_names_the_package_imports():
    # __all__ lists the names __init__ imports from its modules, in order:
    # no submodule, none left out, and each one bound
    tree = ast.parse(Path(bklab.__file__).read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert bklab.__all__ == imported
    namespace = {}
    exec("from bklab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(imported)
    assert all(namespace[name] is getattr(bklab, name) for name in imported)
