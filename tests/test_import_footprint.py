"""Which scipy modules each entry point loads, checked in fresh interpreters
(this process may already hold scipy)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import bklab

SRC = Path(bklab.__file__).resolve().parents[1]


def _scipy_modules_after(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    probe = (code + "\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules"
             " if m == 'scipy' or m.startswith('scipy.'))))\n")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return set(json.loads(out.splitlines()[-1]))


def test_import_loads_no_scipy():
    assert _scipy_modules_after("import bklab") == set()


def test_eigen_check_loads_linalg_but_not_optimize():
    modules = _scipy_modules_after(
        "from bklab import from_polynomial, pipeline_radius, run_pipeline\n"
        "from bklab.experiments import (random_pencil_perturbation,\n"
        "                               random_polynomial, trial_rng)\n"
        "rng = trial_rng(3, 0)\n"
        "L = from_polynomial(random_polynomial(4, 4, 7, rng), 3, 3, 'hook')\n"
        "dL = random_pencil_perturbation(L.shape, 0.5 * pipeline_radius(L), rng)\n"
        "report = run_pipeline(L, dL, check_eigen=True)\n"
        "assert report.eigen_consistent and report.shift_consistent\n")
    assert "scipy.linalg" in modules
    assert not any(m.startswith("scipy.optimize") for m in modules)


def test_cli_constants_loads_no_scipy():
    modules = _scipy_modules_after(
        "import contextlib, io\n"
        "from bklab.cli import main\n"
        "args = ['constants', '--max-epsilon', '1', '--max-eta', '1',\n"
        "        '--max-m', '1', '--max-n', '1']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(args) == 0\n")
    assert modules == set()
