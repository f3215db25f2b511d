"""The benchmark's workloads: seeded inputs, the timed operation, and the
check of its output.

Inputs come from ``bklab.experiments`` and are built before timing starts.
Every call into the package goes through a module attribute
(``backward_error.run_pipeline``, not a name imported here), so the tracer's
replacements are seen.

``minimal_bases``, ``spectral_constants`` and ``cli`` have no workload: the
timed paths below never enter the first and last, and ``spectral_constants``
is entered only for the closed-form scalar ``sigma_min_T_closed`` inside
Step 1, whose time is part of ``backward_error.step1_self_ms``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

# Distinct inputs per run; an op cycles through them.
POOL = 16


@dataclass
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and README.md."""

    name: str
    make_inputs: Callable[[int], list]
    op: Callable
    check: Callable  # (inputs, output) -> failure reason or None


def _bk():
    from bklab import backward_error, block_kronecker, eigenstructure, experiments
    return backward_error, block_kronecker, eigenstructure, experiments


# -- backward-error workloads ------------------------------------------------

def _pipeline_inputs(m, d, eps, eta, placement):
    def make(seed):
        backward_error, block_kronecker, _, experiments = _bk()
        inputs = []
        for index in range(POOL):
            rng = experiments.trial_rng(seed, index)
            P = experiments.random_polynomial(m, m, d, rng)
            L = block_kronecker.from_polynomial(P, eps, eta, placement)
            # Half the guaranteed radius: the pipeline never refuses, so a
            # PreconditionError is a failure.
            magnitude = 0.5 * backward_error.pipeline_radius(L)
            dL = experiments.random_pencil_perturbation(L.shape, magnitude, rng)
            inputs.append((L, dL))
        return inputs
    return make


def _run_pipeline(inputs):
    backward_error = _bk()[0]
    L, dL = inputs
    return backward_error.run_pipeline(L, dL, check_eigen=True)


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def _check_pipeline(inputs, report):
    import numpy as np

    numbers = [report.norm_P, report.norm_L, report.norm_M, report.norm_dL,
               report.ratio, report.bound, report.bound_informal,
               report.dR_eps_norm, report.dR_eta_norm,
               report.step2_residual_eps, report.step2_residual_eta]
    if report.step1 is not None:
        numbers.append(report.step1.residual)
        numbers.extend(report.step1.iterate_norms)
    if report.eigen_max_distance is not None:
        numbers.append(report.eigen_max_distance)
    if not _finite(*numbers) or not np.all(np.isfinite(report.dP.coeff_stack)):
        return "non-finite number in report"
    if report.ratio > report.bound:
        return f"ratio {report.ratio:.3e} > bound {report.bound:.3e}"
    if report.eigen_consistent is not True:
        return "eigen_consistent is not true"
    if report.shift_consistent is not True:
        return "shift_consistent is not true"
    return None


# -- eigenstructure workload -------------------------------------------------

SING_M, SING_N, SING_D, SING_RANK, SING_EPS, SING_ETA = 10, 14, 7, 6, 3, 3


def _singular_inputs(seed):
    experiments = _bk()[3]
    return [experiments.random_singular_polynomial(
                SING_M, SING_N, SING_D, SING_RANK, experiments.trial_rng(seed, index))
            for index in range(POOL)]


def _eig_oracle(P):
    """The ``bklab eig --oracle`` path for a polynomial input."""
    _, block_kronecker, eigenstructure, _ = _bk()
    pencil = block_kronecker.from_polynomial(P, SING_EPS, SING_ETA, "hook")
    structure = eigenstructure.staircase_eigenstructure(pencil.assemble())
    recovered = eigenstructure.shift_recovery(structure, SING_EPS, SING_ETA)
    oracle = eigenstructure.right_minimal_indices_by_convolution(P)
    return recovered, oracle


def _check_singular(P, output):
    """Compare with what the product construction fixes: ``n - r`` right and
    ``m - r`` left minimal indices and an index sum of ``d * r``."""
    recovered, oracle = output
    if not _finite(*(abs(z) for z in recovered.finite)):
        return "non-finite eigenvalue"
    if len(recovered.right) != SING_N - SING_RANK:
        return f"{len(recovered.right)} right minimal indices, want {SING_N - SING_RANK}"
    if len(recovered.left) != SING_M - SING_RANK:
        return f"{len(recovered.left)} left minimal indices, want {SING_M - SING_RANK}"
    if recovered.index_sum() != SING_D * SING_RANK:
        return f"index sum {recovered.index_sum()}, want {SING_D * SING_RANK}"
    if oracle != recovered.right:
        return f"oracle {oracle} disagrees with staircase {recovered.right}"
    return None


WORKLOADS = {
    w.name: w for w in [
        Workload("be_sylvester", _pipeline_inputs(4, 7, 3, 3, "hook"),
                 _run_pipeline, _check_pipeline),
        Workload("be_onesided", _pipeline_inputs(8, 7, 6, 0, "frobenius1"),
                 _run_pipeline, _check_pipeline),
        Workload("eig_singular", _singular_inputs, _eig_oracle, _check_singular),
    ]
}
