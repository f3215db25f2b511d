"""Acceptance suite: one test per shipped guarantee, each printing a single
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them
inline).  Tolerances are pinned here and nowhere else."""

import time

import numpy as np

from bklab import (MatrixPolynomial, build_L, build_Lambda, build_T, constant,
                   from_polynomial, generalized_eigenvalues,
                   lift_right_null_vector, match_eigenvalues, multiply,
                   right_minimal_indices_by_convolution,
                   run_pipeline, shift_recovery, sigma_max_W_closed,
                   sigma_min_T_closed, sigma_min_convolution_L,
                   solve_step1, solve_step2, staircase_eigenstructure,
                   step1_radius, step2_radius, verify_W_direct_sum, build_W)
from oracles import det_roots, verify_norm_inequalities
from bklab.backward_error import SQRT2M1
from bklab.experiments import (complex_gaussian, random_pencil_perturbation,
                               random_polynomial, random_singular_polynomial,
                               trial_rng)


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_acceptance_01_sigma_min_T_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for eps in range(1, 5):
        for eta in range(1, 5):
            for m in (1, 2):
                for n in (1, 2):
                    T = build_T(eps, eta, m, n)
                    smin = np.linalg.svd(T, compute_uv=False)[-1]
                    worst = max(worst, abs(smin - sigma_min_T_closed(eps, eta)))
    special = (abs(sigma_min_T_closed(1, 1) - np.sqrt(2.0)),
               abs(sigma_min_T_closed(2, 1) - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and max(special) <= 1e-14 and elapsed < 10.0
    _report(1, ok, f"sigma_min(T) sweep eps,eta<=4, m,n<=2: max gap "
                   f"{worst:.2e} (tol 1e-10), {elapsed:.2f}s (< 10s)")


def test_acceptance_02_sigma_max_W_and_direct_sum():
    start = time.perf_counter()
    worst = 0.0
    sums_ok = True
    for eps in range(1, 7):
        for eta in range(1, 7):
            smax = np.linalg.svd(build_W(eps, eta), compute_uv=False)[0]
            worst = max(worst, abs(smax - sigma_max_W_closed(eps, eta)))
            sums_ok &= verify_W_direct_sum(max(eps, eta), min(eps, eta),
                                           tol=1e-12)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and sums_ok and elapsed < 5.0
    _report(2, ok, f"sigma_max(W) and direct-sum multisets eps,eta<=6: max "
                   f"gap {worst:.2e} (tol 1e-12), {elapsed:.2f}s (< 5s)")


def test_acceptance_03_convolution_constants():
    worst_L = 0.0
    worst_lambda = 0.0
    for eps in range(1, 6):
        for n in (1, 2):
            cc = sigma_min_convolution_L(eps, n)
            worst_L = max(worst_L,
                          abs(cc.numeric_lower - cc.closed_form),
                          abs(cc.numeric_upper_index - cc.closed_form))
            worst_lambda = max(worst_lambda, abs(cc.lambda_c0 - 1.0),
                               abs(cc.lambda_c1 - 1.0))
    ok = worst_L <= 1e-10 and worst_lambda <= 1e-12
    _report(3, ok, f"convolution singular values eps<=5, n<=2: L-side gap "
                   f"{worst_L:.2e} (tol 1e-10), Lambda-side gap "
                   f"{worst_lambda:.2e} (tol 1e-12)")


def test_acceptance_04_strong_linearization_eigenvalue_agreement():
    start = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        rng = trial_rng(401, trial)
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 6))
        P = random_polynomial(n, n, d, rng, norm=1.0)
        roots = list(det_roots(P))
        eps = d // 2
        spectra = [roots]
        for eps_i, eta_i, tag in ((eps, d - 1 - eps, "hook"),
                                  (d - 1, 0, "frobenius1"),
                                  (0, d - 1, "frobenius2")):
            finite, _ = generalized_eigenvalues(
                from_polynomial(P, eps_i, eta_i, tag).assemble())
            spectra.append(finite)
        for other in spectra[1:]:
            worst = max(worst, match_eigenvalues(spectra[0], other))
        worst = max(worst, match_eigenvalues(spectra[1], spectra[2]),
                    match_eigenvalues(spectra[1], spectra[3]))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-7 and elapsed < 60.0
    _report(4, ok, f"100 regular trials, hook/frobenius1/frobenius2/det-roots "
                   f"chordal agreement: worst {worst:.2e} (tol 1e-7), "
                   f"{elapsed:.1f}s (< 60s)")


def test_acceptance_05_minimal_index_shift_vs_oracle():
    matches = 0
    unexplained = []
    for trial in range(100):
        rng = trial_rng(501, trial)
        m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        d = int(rng.integers(2, 5))
        rank = int(rng.integers(1, min(m, n)))
        P = random_singular_polynomial(m, n, d, rank, rng)
        eps = d // 2
        eta = d - 1 - eps
        pencil = from_polynomial(P, eps, eta, "hook").assemble()
        structure = staircase_eigenstructure(pencil)
        try:
            recovered = shift_recovery(structure, eps, eta)
            agree = (recovered.right == right_minimal_indices_by_convolution(P)
                     and recovered.left ==
                     right_minimal_indices_by_convolution(P.transpose()))
        except Exception:
            agree = False
        if agree:
            matches += 1
        elif not structure.has_borderline_decision():
            unexplained.append(trial)
    ok = matches >= 98 and not unexplained
    _report(5, ok, f"staircase-minus-shift vs convolution oracle: {matches}/100 "
                   f"exact (need >= 98), unexplained failures: {unexplained}")


def test_acceptance_06_step1_contract():
    violations = 0
    for trial in range(200):
        rng = trial_rng(601, trial)
        eps, eta = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        m, n = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        d = eps + eta + 1
        P = random_polynomial(m, n, d, rng, norm=1.0)
        bk = from_polynomial(P, eps, eta, "hook")
        radius = step1_radius(d, bk.one_one_norm())
        dL = random_pencil_perturbation(bk.shape, rng.uniform(0.02, 0.98) * radius, rng)
        result = solve_step1(bk, dL)
        gauge = result.gauge
        if result.residual > 1e-12 * (1.0 + bk.frobenius_norm()):
            violations += 1
        elif result.cd_norm > 2.0 * gauge.theta / gauge.delta + 1e-15:
            violations += 1
        elif result.cd_norm > d * dL.frobenius_norm() / SQRT2M1 + 1e-15:
            violations += 1
    ok = violations == 0
    _report(6, ok, f"step 1 on 200 admissible trials: residual <= "
                   f"1e-12(1+||L||), ||(C,D)|| <= 2*theta/delta and <= "
                   f"d||dL||/(sqrt(2)-1); violations: {violations}")


def test_acceptance_07_step2_contract():
    violations = 0
    for trial in range(200):
        rng = trial_rng(701, trial)
        eps = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        norm = rng.uniform(0.02, 0.98) * step2_radius(eps)
        dLt21 = random_pencil_perturbation((eps * n, (eps + 1) * n), norm, rng)
        dR, residual = solve_step2(dLt21, eps, n)
        if residual > 1e-11:
            violations += 1
        elif dR.frobenius_norm() > np.sqrt(2.0) * (eps + 1) \
                * dLt21.frobenius_norm() * (1 + 1e-13):
            violations += 1
    ok = violations == 0
    _report(7, ok, f"step 2 on 200 admissible trials: coefficientwise duality "
                   f"residual <= 1e-11 and ||dR|| <= sqrt(2)(eps+1)||dLt21||; "
                   f"violations: {violations}")


def test_acceptance_08_end_to_end_bounds():
    start = time.perf_counter()
    bound_violations = 0
    eigen_violations = 0
    eigen_checked = 0
    cases = ([("hook", 1, 1)] * 50 + [("hook", 2, 1)] * 25
             + [("hook", 1, 2)] * 25 + [("frobenius1", None, None)] * 50
             + [("frobenius2", None, None)] * 50)
    for trial, (tag, eps, eta) in enumerate(cases):
        rng = trial_rng(801, trial)
        if tag == "hook":
            d = eps + eta + 1
        else:
            d = int(rng.integers(2, 5))
            eps, eta = (d - 1, 0) if tag == "frobenius1" else (0, d - 1)
        n = int(rng.integers(1, 3))
        P = random_polynomial(n, n, d, rng, norm=1.0)
        bk = from_polynomial(P, eps, eta, tag)
        dL = random_pencil_perturbation(bk.shape, 1e-8, rng)
        report = run_pipeline(bk, dL, check_eigen=True, eigen_tol=1e-6)
        if not report.bound_holds:
            bound_violations += 1
        finite, _ = generalized_eigenvalues(bk.assemble() + dL)
        gap = min((abs(a - b) / np.sqrt((1 + abs(a) ** 2) * (1 + abs(b) ** 2))
                   for i, a in enumerate(finite) for b in finite[i + 1:]),
                  default=np.inf)
        if gap > 1e-4:
            eigen_checked += 1
            if not report.eigen_consistent:
                eigen_violations += 1
    elapsed = time.perf_counter() - start
    ok = (bound_violations == 0 and eigen_violations == 0
          and eigen_checked > 150 and elapsed < 300.0)
    _report(8, ok, f"200 end-to-end trials at ||dL||=1e-8: bound violations "
                   f"{bound_violations}, eigen mismatches {eigen_violations} "
                   f"of {eigen_checked} gap-filtered checks, {elapsed:.0f}s "
                   f"(< 300s)")


def test_acceptance_09_norm_identities():
    worst_rel = 0.0
    for trial in range(60):
        rng = trial_rng(901, trial)
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        d = int(rng.integers(1, 7))
        eps = int(rng.integers(0, d))
        eta = d - 1 - eps
        tag = "hook"
        if eta == 0 and rng.uniform() < 0.5:
            tag = "frobenius1"
        if eps == 0 and rng.uniform() < 0.5:
            tag = "frobenius2"
        bk = from_polynomial(random_polynomial(m, n, d, rng), eps, eta, tag)
        lhs = bk.frobenius_norm() ** 2
        rhs = bk.one_one_norm() ** 2 + 2.0 * (n * eps + m * eta)
        worst_rel = max(worst_rel, abs(lhs - rhs) / rhs)
    inequality_violations = 0
    for trial in range(1000):
        rng = trial_rng(902, trial)
        a, b, c = (int(v) for v in rng.integers(1, 5, size=3))
        dP, dQ = (int(v) for v in rng.integers(0, 6, size=2))
        P = MatrixPolynomial([complex_gaussian((a, b), rng) for _ in range(dP + 1)])
        Q = MatrixPolynomial([complex_gaussian((b, c), rng) for _ in range(dQ + 1)])
        if not all(verify_norm_inequalities(P, Q)):
            inequality_violations += 1
    ok = worst_rel <= 1e-13 and inequality_violations == 0
    _report(9, ok, f"pencil norm identity worst relative error {worst_rel:.2e} "
                   f"(tol 1e-13); product-norm inequality violations on 1000 "
                   f"pairs: {inequality_violations}")


def test_acceptance_10_null_vector_lift():
    residual_violations = 0
    degree_violations = 0
    for trial in range(50):
        rng = trial_rng(1001, trial)
        k = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        eps = int(rng.integers(0, 3))
        eta = int(rng.integers(0, 3))
        d = eps + eta + 1
        integer_trial = trial % 2 == 0
        if integer_trial:
            coeffs = [rng.integers(-3, 4, (m, k * p)).astype(complex)
                      for _ in range(d)]
            g = rng.integers(-3, 4, (p, 1)).astype(complex)
            if not np.any(g):
                g[0, 0] = 1.0
        else:
            coeffs = [complex_gaussian((m, k * p), rng) for _ in range(d)]
            g = complex_gaussian((p, 1), rng)
        A = MatrixPolynomial(coeffs, grade=d - 1)
        P = multiply(A, build_L(k, p))
        bk = from_polynomial(P, eps, eta, "hook")
        h = multiply(build_Lambda(k, p), constant(g))
        z = lift_right_null_vector(bk, h)
        residual = multiply(bk.assemble(), z).frobenius_norm()
        if residual > 1e-9:
            residual_violations += 1
        tol = 0.0 if integer_trial else 1e-10 * max(z.frobenius_norm(), 1.0)
        if z.degree(tol) != eps + h.degree():
            degree_violations += 1
    ok = residual_violations == 0 and degree_violations == 0
    _report(10, ok, f"50 lifted null vectors: residual violations "
                    f"{residual_violations} (tol 1e-9), degree-shift "
                    f"violations {degree_violations}")
