"""Seeded random experiment generation and batch backward-error studies.

Per-trial randomness is derived deterministically from ``(master seed,
trial index)`` through :class:`numpy.random.SeedSequence`, so serial and
parallel execution orders produce the same trials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backward_error import pipeline_radius, run_pipeline
from .block_kronecker import from_polynomial
from .errors import BkLabError, GradeError, ShapeError
from .matpoly import MatrixPolynomial, Pencil, pair_norm
from .tolerances import _finite_nonnegative


def trial_rng(master_seed: int, index: int) -> np.random.Generator:
    """Deterministic per-trial generator (stable across execution order)."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(index,)))


def complex_gaussian(shape, rng) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_polynomial(m: int, n: int, d: int, rng,
                      norm: float | None = 1.0) -> MatrixPolynomial:
    """I.i.d. standard complex Gaussian coefficients, optionally scaled to a
    prescribed Frobenius norm."""
    coeffs = [complex_gaussian((m, n), rng) for _ in range(d + 1)]
    P = MatrixPolynomial(coeffs, grade=d)
    if norm is not None:
        scale = P.frobenius_norm()
        if scale == 0.0:
            raise ShapeError(
                f"a {m}x{n} draw of grade {d} has norm 0 and cannot be scaled "
                f"to norm {norm}")
        P = (norm / scale) * P
    return P


def random_singular_polynomial(m: int, n: int, d: int, rank: int,
                               rng) -> MatrixPolynomial:
    """Singular by construction: a product of an ``m x rank`` and a
    ``rank x n`` random polynomial whose grades add up to ``d``, scaled to
    unit Frobenius norm."""
    if rank >= min(m, n):
        raise ShapeError("rank must be below min(m, n) to force singularity")
    if rank < 1:
        raise ShapeError(f"rank must be at least 1, got {rank}: a rank-0 "
                         "product is the zero polynomial")
    if d < 2:
        raise GradeError("the product construction needs grade at least 2")
    d_left = d // 2
    left = random_polynomial(m, rank, d_left, rng, norm=None)
    right = random_polynomial(rank, n, d - d_left, rng, norm=None)
    P = left @ right
    return (1.0 / P.frobenius_norm()) * P


def random_pencil_perturbation(shape, magnitude: float, rng) -> Pencil:
    """Dense Gaussian pencil scaled to the requested Frobenius norm; a
    negative, infinite or NaN ``magnitude`` raises :class:`ShapeError`."""
    _finite_nonnegative(magnitude, "magnitude")
    A = complex_gaussian(shape, rng)
    B = complex_gaussian(shape, rng)
    total = pair_norm(A, B)
    if total == 0 or magnitude == 0:
        return Pencil.from_parts(np.zeros(shape, dtype=complex),
                                 np.zeros(shape, dtype=complex))
    scale = magnitude / total
    return Pencil.from_parts(scale * A, scale * B)


def split_for_placement(placement: str, d: int, epsilon=None, eta=None):
    """The ``(eps, eta)`` pair a placement uses at grade ``d``."""
    if epsilon is not None or eta is not None:
        eps = int(epsilon) if epsilon is not None else d - 1 - int(eta)
        et = int(eta) if eta is not None else d - 1 - eps
        return eps, et
    if placement == "frobenius1":
        return d - 1, 0
    if placement == "frobenius2":
        return 0, d - 1
    # balanced hook split
    eps = d // 2
    return eps, d - 1 - eps


@dataclass
class ExperimentConfig:
    """Batch study parameters.  Size fields are inclusive ``(lo, hi)``
    ranges with ``1 <= lo <= hi``; every generated trial satisfies
    ``eps + eta + 1 == d``.  An empty or nonpositive range of ``m`` or ``n``
    and a negative ``trials`` raise :class:`ShapeError`, one of ``d``
    :class:`GradeError`."""

    seed: int = 0
    trials: int = 10
    m: tuple[int, int] = (2, 2)
    n: tuple[int, int] = (2, 2)
    d: tuple[int, int] = (3, 3)
    epsilon: int | None = None
    eta: int | None = None
    magnitude: float = 1e-8
    placement: str = "hook"
    force: bool = False
    check_eigen: bool = True

    def __post_init__(self):
        if self.trials < 0:
            raise ShapeError(f"trials must be nonnegative, got {self.trials}")
        for name, (lo, hi), error in (("m", self.m, ShapeError),
                                      ("n", self.n, ShapeError),
                                      ("d", self.d, GradeError)):
            if lo > hi:
                raise error(f"{name} range {lo}:{hi} is empty")
            if lo < 1:
                raise error(f"{name} must be at least 1, got {lo}")
        if self.epsilon is not None and self.eta is not None:
            want = self.epsilon + self.eta + 1
            if not (self.d[0] <= want <= self.d[1]) and self.d != (want, want):
                raise GradeError(
                    f"epsilon + eta + 1 = {want} conflicts with d range {self.d}")
            self.d = (want, want)

    def to_json(self) -> dict:
        return {
            "seed": self.seed, "trials": self.trials,
            "m": list(self.m), "n": list(self.n), "d": list(self.d),
            "epsilon": self.epsilon, "eta": self.eta,
            "magnitude": self.magnitude, "placement": self.placement,
            "force": self.force, "check_eigen": self.check_eigen,
        }


def _draw(rng, lohi) -> int:
    lo, hi = lohi
    return int(rng.integers(lo, hi + 1))


def generate_trial(config: ExperimentConfig, index: int):
    """Deterministic trial data: ``(pencil, perturbation, rng)``."""
    rng = trial_rng(config.seed, index)
    m = _draw(rng, config.m)
    n = _draw(rng, config.n)
    d = _draw(rng, config.d)
    eps, eta = split_for_placement(config.placement, d, config.epsilon, config.eta)
    if eps + eta + 1 != d or eps < 0 or eta < 0:
        raise GradeError(f"invalid split eps={eps}, eta={eta} for d={d}")
    P = random_polynomial(m, n, d, rng, norm=1.0)
    L = from_polynomial(P, eps, eta, config.placement)
    dL = random_pencil_perturbation(L.shape, config.magnitude, rng)
    return L, dL, rng


STATUSES = ("passed", "failed", "unguaranteed", "error", "skipped")


def _judge(report) -> tuple[str, str | None]:
    """Status and reason of a trial whose pipeline run completed."""
    if not report.admissible:
        return "unguaranteed", "forced outside the guaranteed radius"
    gauge = report.step1.gauge
    if gauge is not None and not gauge.solvable:
        return "failed", f"step 1 gauge violates {gauge.violated_condition()}"
    if not report.bound_holds:
        return "failed", f"ratio {report.ratio:.3e} > bound {report.bound:.3e}"
    return "passed", None


def run_backward_error_batch(config: ExperimentConfig) -> dict:
    """Run the batch and return per-trial rows plus a summary.

    A trial inside the guaranteed radius is ``passed`` or ``failed``; it
    fails on ``ratio > bound``, an unsolvable Step 1 gauge or any package
    error.  Outside the radius it is ``skipped`` unless ``config.force`` is
    set, and then ``unguaranteed`` when it completes and ``error`` when it
    raises.  A row is ``trial``, ``status`` and ``reason`` followed by the
    report's :meth:`~bklab.backward_error.BackwardErrorReport.record` and
    the bound ``margin`` and ``ratio_over_bound``; a trial without a report
    carries only its sizes.
    """
    rows = []
    counts = dict.fromkeys(STATUSES, 0)
    worst_quotient = 0.0
    for index in range(config.trials):
        L, dL, _ = generate_trial(config, index)
        try:
            report = run_pipeline(L, dL, force=config.force,
                                  check_eigen=config.check_eigen)
        except BkLabError as exc:
            if dL.frobenius_norm() < pipeline_radius(L):
                status = "failed"
            else:
                status = "error" if config.force else "skipped"
            row = {"trial": index, "status": status, "reason": str(exc),
                   "epsilon": L.eps, "eta": L.eta, "m": L.m, "n": L.n,
                   "grade": L.grade}
        else:
            status, reason = _judge(report)
            quotient = report.ratio / report.bound if report.bound > 0 else 0.0
            worst_quotient = max(worst_quotient, quotient)
            row = {"trial": index, "status": status, "reason": reason,
                   **report.record(),
                   "margin": report.bound - report.ratio,
                   "ratio_over_bound": quotient}
        counts[status] += 1
        rows.append(row)
    return {
        "config": config.to_json(),
        "trials": rows,
        "summary": {"trials": config.trials, **counts,
                    "max_ratio_over_bound": worst_quotient},
    }
