import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bklab import (BlockKroneckerPencil, MatrixPolynomial, build_L,
                   from_polynomial, generalized_eigenvalues)
from bklab.cli import main
from bklab.experiments import (random_polynomial, random_singular_polynomial,
                               trial_rng)


def write_json(path, payload):
    path.write_text(json.dumps(payload))


@pytest.fixture
def scalar_quadratic(tmp_path):
    # lambda^2 - 3 lambda + 2
    P = MatrixPolynomial([[[2.0]], [[-3.0]], [[1.0]]])
    path = tmp_path / "poly.json"
    write_json(path, P.to_json())
    return path


def test_linearize_scalar_quadratic(scalar_quadratic, tmp_path, capsys):
    out = tmp_path / "pencil.json"
    code = main(["linearize", str(scalar_quadratic), "--epsilon", "1",
                 "--eta", "0", "--placement", "frobenius1", "--out", str(out)])
    assert code == 0
    blob = json.loads(out.read_text())
    assert (blob["epsilon"], blob["eta"], blob["m"], blob["n"]) == (1, 0, 1, 1)
    # M = [lambda - 3, 2]
    assert blob["M0"] == [[[-3.0, 0.0], [2.0, 0.0]]]
    assert blob["M1"] == [[[1.0, 0.0], [0.0, 0.0]]]
    assert capsys.readouterr().err == ""


def test_check_accepts_the_hook_pencil_and_refuses_a_moved_entry(
        tmp_path, capsys):
    # a pencil file with a (1,1) block of one's own is checked by `check`
    poly, hook = tmp_path / "p.json", tmp_path / "hook.json"
    moved = tmp_path / "moved.json"
    write_json(poly, random_polynomial(2, 2, 3, trial_rng(95, 0)).to_json())
    assert main(["linearize", str(poly), "--epsilon", "1", "--eta", "1",
                 "--out", str(hook)]) == 0
    assert main(["check", str(poly), str(hook)]) == 0
    assert json.loads(capsys.readouterr().out)["max_residual"] == 0.0
    # M0's (0, 0) entry moved to (0, 1), inside the block of P_2
    blob = json.loads(hook.read_text())
    blob["M0"][0][1], blob["M0"][0][0] = blob["M0"][0][0], [0.0, 0.0]
    write_json(moved, blob)
    assert main(["check", str(poly), str(moved)]) == 3
    out = capsys.readouterr()
    residuals = json.loads(out.out)["residuals"]
    assert residuals[0] == residuals[1] == residuals[3] == 0.0
    assert residuals[2] > 0.0 and "exceeds" in out.err


def test_linearize_a_polynomial_whose_norm_overflows(tmp_path, capsys):
    # ||P||_F overflows while its entries do not: the placement is checked
    # against a finite tolerance and numpy does not warn
    poly = tmp_path / "p.json"
    write_json(poly, MatrixPolynomial([[[1e200]], [[1.0]], [[1.0]]]).to_json())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["linearize", str(poly), "--epsilon", "1", "--eta", "0",
                     "--placement", "frobenius1"]) == 0
    assert [str(w.message) for w in caught] == []
    assert json.loads(capsys.readouterr().out)["M0"] == [
        [[1.0, 0.0], [1e200, 0.0]]]


def test_linearize_grade_mismatch_exits_2(scalar_quadratic):
    assert main(["linearize", str(scalar_quadratic), "--epsilon", "2",
                 "--eta", "0"]) == 2


def test_linearize_parse_error_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["linearize", str(bad), "--epsilon", "1", "--eta", "0"]) == 2


def test_eig_on_L2_pencil_file(tmp_path, capsys):
    bk_path = tmp_path / "l2.json"
    L2 = build_L(2)
    # a (2, 1, 0, ...)-style singular pencil goes in as a grade-1 polynomial
    write_json(bk_path, L2.to_json())
    code = main(["eig", str(bk_path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["polynomial_eigenstructure"]["right"] == [2]


def test_eig_on_a_subnormal_polynomial_reads_its_unit_eigenvalues(tmp_path,
                                                                    capsys):
    # QZ's betas are subnormal here, and numpy's alpha / beta would form
    # 1 / beta, overflow, warn and write Infinity for each eigenvalue
    P = random_polynomial(2, 2, 1, trial_rng(0, 0))
    finite = {}
    for scale in (1.0, 1e-310):
        path = tmp_path / f"p{scale}.json"
        write_json(path, (scale * P).to_json())
        assert main(["eig", str(path)]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        payload = json.loads(out.out, parse_constant=int)
        finite[scale] = payload["polynomial_eigenstructure"]["finite"]
    assert np.array(finite[1e-310]) == pytest.approx(np.array(finite[1.0]),
                                                    abs=1e-10)


def test_eig_on_regular_polynomial(scalar_quadratic, capsys):
    code = main(["eig", str(scalar_quadratic)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    finite = payload["polynomial_eigenstructure"]["finite"]
    roots = sorted(entry[0] for entry in finite)
    assert roots == pytest.approx([1.0, 2.0], abs=1e-8)
    assert payload["linearization"]["placement"] == "hook"


def test_eig_oracle_flag_on_singular_polynomial(tmp_path, capsys):
    # P = [lambda, lambda^2]: right minimal index 1
    P = MatrixPolynomial([np.zeros((1, 2)), np.array([[1.0, 0.0]]),
                          np.array([[0.0, 1.0]])], grade=2)
    path = tmp_path / "singular.json"
    write_json(path, P.to_json())
    code = main(["eig", str(path), "--oracle"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["polynomial_eigenstructure"]["right"] == [1]
    assert payload["oracle_right"] == [1]
    assert payload["oracle_agrees"]


def test_eig_oracle_on_random_product_polynomial(tmp_path, capsys):
    rng = trial_rng(93, 0)
    P = random_singular_polynomial(2, 3, 2, 1, rng)
    path = tmp_path / "prod.json"
    write_json(path, P.to_json())
    assert main(["eig", str(path), "--oracle"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["oracle_agrees"]
    assert payload["polynomial_eigenstructure"]["right"] == payload["oracle_right"]


def test_a_singular_polynomial_through_linearize_check_and_eig(tmp_path,
                                                              capsys):
    # a 4x6 grade-4 polynomial of normal rank 3: check accepts its hook
    # pencil and exits 3 on one M0 entry moved, and the oracle agrees with
    # the staircase on the polynomial and on the pencil file
    poly, bk = tmp_path / "p.json", tmp_path / "bk.json"
    moved = tmp_path / "moved.json"
    write_json(poly, random_singular_polynomial(4, 6, 4, 3,
                                                trial_rng(0, 0)).to_json())
    assert main(["linearize", str(poly), "--epsilon", "2", "--eta", "1",
                 "--out", str(bk)]) == 0
    assert main(["check", str(poly), str(bk)]) == 0
    blob = json.loads(bk.read_text())
    blob["M0"][0][1], blob["M0"][0][0] = blob["M0"][0][0], [0.0, 0.0]
    write_json(moved, blob)
    assert main(["check", str(poly), str(moved)]) == 3
    capsys.readouterr()
    for path in (poly, bk):
        assert main(["eig", str(path), "--oracle"]) == 0
        assert json.loads(capsys.readouterr().out)["oracle_agrees"]


def test_eig_of_a_linearized_polynomial_is_generalized_eigenvalues_bit_for_bit(
        tmp_path, capsys):
    # eig and generalized_eigenvalues run the one QZ in one orientation on
    # the pencil linearize writes
    poly, bk = tmp_path / "q.json", tmp_path / "qbk.json"
    write_json(poly, random_polynomial(3, 3, 4, trial_rng(0, 1)).to_json())
    assert main(["linearize", str(poly), "--epsilon", "2", "--eta", "1",
                 "--out", str(bk)]) == 0
    assert main(["eig", str(bk)]) == 0
    structure = json.loads(capsys.readouterr().out)["pencil_eigenstructure"]
    finite, infinite = generalized_eigenvalues(
        BlockKroneckerPencil.from_json(json.loads(bk.read_text())).assemble())
    assert infinite == 0 and not structure["infinite"]
    assert json.dumps(structure["finite"]) == json.dumps(
        [[z.real, z.imag, 1] for z in finite])


def test_eig_block_kronecker_file(tmp_path, capsys):
    rng = trial_rng(91, 0)
    P = random_polynomial(2, 2, 3, rng)
    bk = from_polynomial(P, 1, 1, "hook")
    path = tmp_path / "bk.json"
    write_json(path, bk.to_json())
    assert main(["eig", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "block-kronecker-pencil"
    assert len(payload["polynomial_eigenstructure"]["finite"]) == 6


def _non_finite_inputs():
    """Input files whose leading coefficient has ``inf`` at (0, 0), where a
    full SVD does not return: a grade-3 polynomial, its block Kronecker
    pencil and a grade-1 polynomial."""
    P = random_polynomial(2, 2, 3, trial_rng(94, 0))
    blobs = {"polynomial": P.to_json(),
             "block_kronecker": from_polynomial(P, 1, 1, "hook").to_json(),
             "pencil": MatrixPolynomial(P.coeff_stack[2:]).to_json()}
    for blob in blobs.values():
        lead = blob["coeffs"][-1] if "coeffs" in blob else blob["M1"]
        lead[0][0] = [float("inf"), 0.0]
    return blobs


@pytest.mark.parametrize("kind", ["polynomial", "block_kronecker", "pencil"])
def test_eig_refuses_a_non_finite_input_with_exit_2(tmp_path, capsys, kind):
    path = tmp_path / "bad.json"
    write_json(path, _non_finite_inputs()[kind])
    assert "Infinity" in path.read_text()
    assert main(["eig", str(path), "--oracle"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "non-finite" in out.err


def test_eig_on_a_constant_polynomial_refuses_the_split_with_exit_2(tmp_path, capsys):
    # the hook split of grade 0 is (0, -1)
    path = tmp_path / "constant.json"
    write_json(path, MatrixPolynomial([[[1.0, 2.0], [3.0, 4.0]]]).to_json())
    assert main(["eig", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "eps" in out.err and "eta" in out.err
    assert "broadcast" not in out.err and "Traceback" not in out.err


@pytest.mark.parametrize("kind, flags", [
    ("block_kronecker", ["--epsilon", "2"]),
    ("block_kronecker", ["--eta", "1"]),
    ("pencil", ["--epsilon", "3", "--eta", "5"]),
    ("pencil", ["--eta", "0"]),
])
def test_eig_refuses_a_split_for_a_file_it_does_not_linearize_with_exit_2(
        tmp_path, capsys, kind, flags):
    # a block Kronecker pencil has its own split, and a grade-1 polynomial
    # is reduced as it is: a split given for either would go unread
    P = random_polynomial(2, 2, 3, trial_rng(0, 0))
    blob = (from_polynomial(P, 1, 1, "hook") if kind == "block_kronecker"
            else MatrixPolynomial(P.coeff_stack[:2])).to_json()
    path = tmp_path / "in.json"
    write_json(path, blob)
    assert main(["eig", str(path), *flags]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")
    assert all(flag in out.err for flag in flags[::2])


def test_eig_exits_3_on_a_structure_below_the_shift(tmp_path, capsys):
    # at --tol 10 the staircase reads every right index of L as 0, below the
    # hook split's eps = 1: an EigenstructureShiftError, the generic
    # BkLabError exit
    path = tmp_path / "q.json"
    write_json(path, random_polynomial(2, 2, 3, trial_rng(0, 0)).to_json())
    assert main(["eig", str(path), "--tol", "10"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: right minimal index 0 is below the shift 1\n"


@pytest.mark.parametrize("flags,names", [
    (["--m", "0"], ["m", "at least 1"]),
    (["--m", "-1"], ["m", "at least 1"]),
    (["--m", "3:2"], ["m", "empty"]),
    (["--n", "2:1"], ["n", "empty"]),
    (["--d", "0"], ["d", "at least 1"]),
    (["--d", "4:3"], ["d", "empty"]),
    (["--trials", "-1"], ["trials", "nonnegative"]),
    (["--mag=-1e-8"], ["magnitude", "nonnegative"]),
    # eta = d - 1 - eps = -3: the config refuses the split, so a batch of
    # no trials does too
    (["--epsilon", "5", "--d", "3"], ["eps = 5", "eta = -3"]),
    (["--trials", "0", "--epsilon", "5", "--d", "3"], ["eps = 5", "eta = -3"]),
])
def test_backward_error_refuses_a_bad_range_with_exit_2(tmp_path, capsys,
                                                        flags, names):
    out = tmp_path / "r.json"
    assert main(["backward-error", *flags, "--no-eigen-check",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and all(name in err for name in names)
    assert "Traceback" not in err and not out.exists()


def test_perturb_is_deterministic(tmp_path):
    rng = trial_rng(92, 0)
    P = random_polynomial(2, 2, 3, rng)
    bk = from_polynomial(P, 1, 1, "hook")
    path = tmp_path / "bk.json"
    write_json(path, bk.to_json())
    out1, out2 = tmp_path / "d1.json", tmp_path / "d2.json"
    assert main(["perturb", str(path), "--mag", "1e-8", "--seed", "5",
                 "--out", str(out1)]) == 0
    assert main(["perturb", str(path), "--mag", "1e-8", "--seed", "5",
                 "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    dL = MatrixPolynomial.from_json(json.loads(out1.read_text()))
    assert dL.frobenius_norm() == pytest.approx(1e-8)


def test_backward_error_batch_json_deterministic(tmp_path):
    args = ["backward-error", "--trials", "3", "--seed", "9", "--mag", "1e-8",
            "--d", "3", "--placement", "hook", "--no-eigen-check"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    b1 = json.loads(out1.read_text())
    b2 = json.loads(out2.read_text())
    b1.pop("timestamp"), b2.pop("timestamp")
    assert b1 == b2
    assert b1["summary"]["passed"] == 3
    assert all(row["ratio"] <= row["bound"] for row in b1["trials"])


def test_backward_error_zero_magnitude(tmp_path):
    out = tmp_path / "r.json"
    assert main(["backward-error", "--trials", "2", "--mag", "0",
                 "--no-eigen-check", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert all(row["ratio"] == 0.0 for row in blob["trials"])


def test_backward_error_csv(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["backward-error", "--trials", "2", "--seed", "3",
                 "--format", "csv", "--placement", "frobenius1",
                 "--no-eigen-check", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("trial,status")
    assert len(lines) == 4  # header + 2 trials + summary
    assert lines[-1].startswith("summary,")


def test_backward_error_skips_outside_radius(tmp_path):
    out = tmp_path / "r.json"
    assert main(["backward-error", "--trials", "2", "--mag", "10.0",
                 "--no-eigen-check", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["summary"]["skipped"] == 2
    assert blob["summary"]["failed"] == 0


def _forced_batch(tmp_path, mag):
    out = tmp_path / "r.json"
    code = main(["backward-error", "--force", "--mag", mag, "--d", "5",
                 "--m", "3", "--n", "3", "--trials", "5", "--out", str(out)])
    return code, json.loads(out.read_text())


def test_backward_error_forced_outside_radius_is_unguaranteed(tmp_path):
    with np.errstate(all="ignore"):
        code, blob = _forced_batch(tmp_path, "1")
    assert code == 0
    summary = blob["summary"]
    assert summary["unguaranteed"] == 5 and summary["failed"] == 0
    assert summary["max_ratio_over_bound"] < 1e-3
    for row in blob["trials"]:
        assert row["status"] == "unguaranteed"
        assert row["forced"] and not row["admissible"]
        assert np.isfinite(row["ratio"]) and np.isfinite(row["step1_residual"])


def test_backward_error_forced_divergence_is_an_error(tmp_path):
    with np.errstate(all="ignore"):
        code, blob = _forced_batch(tmp_path, "10")
    assert code == 0
    assert blob["summary"]["error"] == 5 and blob["summary"]["failed"] == 0
    for row in blob["trials"]:
        assert row["status"] == "error" and "diverged" in row["reason"]
        assert "ratio" not in row


def _batch_rows(capsys, *flags):
    """The trial rows of a ``backward-error`` batch that exits 0 with an
    empty stderr, read as strict JSON: ``parse_constant=int`` raises on NaN
    and Infinity."""
    assert main(["backward-error", *flags]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    return json.loads(out.out, parse_constant=int)["trials"]


def test_backward_error_diverging_step1_warns_nothing(capsys):
    # Step 1's iterates overflow in every trial: the typed refusal is the
    # row's reason, and no RuntimeWarning reaches stderr (the suite's filter
    # would raise it)
    rows = _batch_rows(capsys, "--trials", "3", "--mag", "10", "--force",
                       "--m", "3", "--n", "3", "--d", "5")
    assert [row["status"] for row in rows] == ["error"] * 3
    assert all(row["reason"].startswith("step 1: fixed point diverged")
               for row in rows)


def test_a_forced_batch_far_outside_the_radius_reads_as_strict_json(capsys):
    # every trial unguaranteed, or an error where a step hits its sweep cap
    rows = _batch_rows(capsys, "--trials", "4", "--mag", "3", "--force")
    assert len(rows) == 4
    assert all(row["status"] in ("unguaranteed", "error") for row in rows)


@pytest.mark.parametrize("flags, certified", [
    # one QZ of L + dL and no staircase
    (["--m", "3", "--n", "3", "--d", "4"], True),
    # the fallback's second staircase, whose verdicts the batch status does
    # not read
    (["--m", "2", "--n", "3", "--d", "3"], False),
    # be_onesided's 8x8 grade-7 pencils, whose QZ may run on bklab-qz
    (["--m", "8", "--n", "8", "--d", "7", "--placement", "frobenius1"], True),
], ids=["square", "rectangular", "frobenius1_order_56"])
def test_a_batch_sets_both_eigen_verdicts(capsys, flags, certified):
    rows = _batch_rows(capsys, "--trials", "2", *flags)
    assert len(rows) == 2
    for row in rows:
        assert (row["eigen_checked"] and row["eigen_consistent"]
                and row["shift_consistent"])
        if certified:
            assert row["eigen_max_distance"] is not None
            assert row["eigen_backward_error"] < 1e-12


def test_backward_error_admissible_error_fails_and_exits_3(tmp_path, monkeypatch):
    from bklab import ConvergenceError, experiments

    def stall(*args, **kwargs):
        raise ConvergenceError("stalled")

    monkeypatch.setattr(experiments, "run_pipeline", stall)
    out = tmp_path / "r.json"
    assert main(["backward-error", "--trials", "2", "--out", str(out)]) == 3
    blob = json.loads(out.read_text())
    assert blob["summary"]["failed"] == 2
    assert [row["reason"] for row in blob["trials"]] == ["stalled", "stalled"]


def test_backward_error_ratio_over_bound_fails_and_exits_3(tmp_path,
                                                         monkeypatch):
    from bklab import backward_error

    monkeypatch.setattr(backward_error, "bound_nondegenerate",
                        lambda *args: 0.0)
    out = tmp_path / "r.json"
    assert main(["backward-error", "--trials", "2", "--no-eigen-check",
                 "--out", str(out)]) == 3
    blob = json.loads(out.read_text())
    assert blob["summary"]["failed"] == 2
    for row in blob["trials"]:
        assert row["status"] == "failed" and row["admissible"]
        assert row["bound_label"] == "nondegenerate" and row["ratio"] > 0
        assert row["reason"] == f"ratio {row['ratio']:.3e} > bound 0.000e+00"


def test_constants_ok(tmp_path):
    out = tmp_path / "c.json"
    assert main(["constants", "--max-epsilon", "2", "--max-eta", "2",
                 "--max-m", "1", "--max-n", "1", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["max_gap"] <= 1e-10


def test_constants_gap_exit_code(tmp_path):
    out = tmp_path / "c.json"
    code = main(["constants", "--max-epsilon", "2", "--max-eta", "2",
                 "--tol", "1e-30", "--out", str(out)])
    assert code == 4


def test_check_accepts_and_rejects(tmp_path, scalar_quadratic):
    pencil_out = tmp_path / "pencil.json"
    main(["linearize", str(scalar_quadratic), "--epsilon", "1", "--eta", "0",
          "--placement", "frobenius1", "--out", str(pencil_out)])
    assert main(["check", str(scalar_quadratic), str(pencil_out)]) == 0
    blob = json.loads(pencil_out.read_text())
    blob["M0"][0][0] = [999.0, 0.0]
    bad = tmp_path / "bad_pencil.json"
    write_json(bad, blob)
    assert main(["check", str(scalar_quadratic), str(bad)]) == 3


def _bad_files():
    """Malformed polynomial and block Kronecker pencil files, by name."""
    poly = MatrixPolynomial([[[2.0]], [[-3.0]], [[1.0]]]).to_json()
    bk = from_polynomial(MatrixPolynomial.from_json(poly), 1, 0,
                         "frobenius1").to_json()
    nan_poly = json.loads(json.dumps(poly))
    nan_poly["coeffs"][0][0][0] = [float("nan"), 0.0]
    inf_bk = json.loads(json.dumps(bk))
    inf_bk["M1"][0][0] = [float("inf"), 0.0]
    return {
        "poly_missing_keys": {"rows": 2},
        "poly_coeffs_string": dict(poly, coeffs="abc"),
        "poly_entry_string": dict(poly, coeffs=[[[["1", "a"]]]] * 3),
        "poly_entry_null": dict(poly, coeffs=[[[[1.0, None]]]] * 3),
        "poly_ragged": dict(poly, coeffs=[[[1.0, 0.0]], [[[1.0]]], []]),
        "poly_wrong_shape": dict(poly, m=2),
        "poly_negative_size": dict(poly, n=-1),
        "poly_float_size": dict(poly, grade=2.0),
        "poly_nan": nan_poly,
        "bk_missing_m1": {k: v for k, v in bk.items() if k != "M1"},
        "bk_m0_number": dict(bk, M0=5),
        "bk_bool_size": dict(bk, epsilon=True),
        "bk_inf": inf_bk,
        "not_an_object": [1, 2, 3],
        "a_number": 5,
        "a_string": "M0 epsilon coeffs",
    }


def _bad_file_commands(bad, good_poly, good_bk):
    """Every CLI command that reads a file, with ``bad`` in one place."""
    return {
        "linearize": ["linearize", bad, "--epsilon", "1", "--eta", "0"],
        "eig": ["eig", bad],
        "perturb": ["perturb", bad, "--mag", "1e-8"],
        "check_poly": ["check", bad, good_bk],
        "check_pencil": ["check", good_poly, bad],
    }


@pytest.mark.parametrize("command", ["linearize", "eig", "perturb",
                                     "check_poly", "check_pencil"])
@pytest.mark.parametrize("kind", sorted(_bad_files()))
def test_every_command_refuses_a_bad_file_with_exit_2(tmp_path, capsys,
                                                      scalar_quadratic,
                                                      command, kind):
    good_bk = tmp_path / "bk.json"
    assert main(["linearize", str(scalar_quadratic), "--epsilon", "1",
                 "--eta", "0", "--placement", "frobenius1",
                 "--out", str(good_bk)]) == 0
    bad = tmp_path / "bad.json"
    write_json(bad, _bad_files()[kind])
    capsys.readouterr()
    argv = _bad_file_commands(str(bad), str(scalar_quadratic), str(good_bk))
    assert main(argv[command]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "error" in out.err and "Traceback" not in out.err


def test_a_directory_in_place_of_a_file_exits_2(tmp_path, capsys):
    assert main(["eig", str(tmp_path)]) == 2
    assert capsys.readouterr().out == ""


def test_constants_refuses_a_negative_size_with_exit_2(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert main(["constants", "--max-m", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "max_m = -1" in err and not out.exists()


@pytest.mark.parametrize("where", ["poly", "pencil"])
def test_check_refuses_a_non_finite_file_with_exit_2(tmp_path, capsys,
                                                     scalar_quadratic, where):
    # a NaN residual is neither accepted nor over the tolerance
    pencil = tmp_path / "bk.json"
    assert main(["linearize", str(scalar_quadratic), "--epsilon", "1",
                 "--eta", "0", "--placement", "frobenius1",
                 "--out", str(pencil)]) == 0
    path = scalar_quadratic if where == "poly" else pencil
    blob = json.loads(path.read_text())
    if where == "poly":
        blob["coeffs"][1][0][0] = [float("nan"), 0.0]
    else:
        blob["M1"][0][0] = [float("inf"), 0.0]
    write_json(path, blob)
    capsys.readouterr()
    assert main(["check", str(scalar_quadratic), str(pencil)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "non-finite" in out.err


def test_check_refuses_an_overflowing_residual_with_exit_3(tmp_path, capsys):
    # finite files whose antidiagonal sums differ by more than the float
    # range: an inf residual is not JSON, and numpy must not warn about it
    poly, pencil = tmp_path / "p.json", tmp_path / "bk.json"
    write_json(poly, MatrixPolynomial([[[1e308]], [[-1e308]], [[1e308]]]).to_json())
    write_json(pencil, {"epsilon": 1, "eta": 0, "m": 1, "n": 1,
                        "M0": [[[1e308, 0.0], [-1e308, 0.0]]],
                        "M1": [[[1e308, 0.0], [0.0, 0.0]]]})
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["check", str(poly), str(pencil)]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "residual overflows" in out.err
    assert [str(w.message) for w in caught] == []


def test_check_reports_a_finite_residual_whose_squares_overflow(tmp_path,
                                                               capsys):
    # the residual 1e160 squares past the float range, yet it is finite:
    # check prints it as JSON, exits 3 only because it exceeds --tol, and
    # numpy does not warn
    P = MatrixPolynomial([[[1e200]], [[1.0]], [[1.0]]])
    blob = from_polynomial(P, 1, 0, "frobenius1").to_json()
    blob["M0"][0][0][0] += 1e160
    poly, pencil = tmp_path / "p.json", tmp_path / "bk.json"
    write_json(poly, P.to_json())
    write_json(pencil, blob)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["check", str(poly), str(pencil)]) == 3
    out = capsys.readouterr()
    assert json.loads(out.out)["max_residual"] == 1e160
    assert "exceeds" in out.err and "overflows" not in out.err
    assert [str(w.message) for w in caught] == []


def test_perturb_refuses_an_infinite_magnitude_with_exit_2(tmp_path, capsys,
                                                           scalar_quadratic):
    # inf / ||G|| would write Infinity entries, which are not JSON
    pencil, out = tmp_path / "bk.json", tmp_path / "dL.json"
    assert main(["linearize", str(scalar_quadratic), "--epsilon", "1",
                 "--eta", "0", "--out", str(pencil)]) == 0
    capsys.readouterr()
    assert main(["perturb", str(pencil), "--mag", "inf",
                 "--out", str(out)]) == 2
    assert "magnitude" in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
@pytest.mark.parametrize("command", ["check", "constants", "eig"])
def test_every_tol_option_refuses_a_non_finite_or_negative_value_with_exit_2(
        tmp_path, capsys, scalar_quadratic, command, tol):
    # a NaN tolerance accepts nothing and fails nothing; in eig it reads
    # every rank as 0, and a negative one every singular value as signal
    pencil = tmp_path / "bk.json"
    assert main(["linearize", str(scalar_quadratic), "--epsilon", "1",
                 "--eta", "0", "--out", str(pencil)]) == 0
    argv = {"check": ["check", str(scalar_quadratic), str(pencil)],
            "constants": ["constants", "--max-epsilon", "1", "--max-eta",
                          "1", "--max-m", "1", "--max-n", "1"],
            "eig": ["eig", str(pencil)]}[command]
    capsys.readouterr()
    assert main(argv + [f"--tol={tol}"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: --tol must be nonnegative and finite")


# ------------------------------------------------- malformed-file property

# what a mutation puts in place of a value: wrong types, booleans, huge
# integers (beyond any array dimension, so a size never allocates), NaN,
# inf and overflowing numbers, and empty, ragged and mis-nested lists
_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.sampled_from([-1, 0, 1, 2, 2 ** 63, 10 ** 30, 10 ** 400]),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, 0.5]),
    st.sampled_from([[], [[]], [[[]]], [1.0], [[1.0, 0.0]], [[1.0, 0.0, 0.0]],
                     [[[1.0, 0.0]], [[1.0]]], [[[1.0, 0.0], [1.0]]], {}]))


def _paths(node, path=()):
    """Every position below ``node``: a key of an object or an index of a
    list, at any depth."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def _input_files(draw, command):
    """``(blob, partner, split)``: ``blob`` is the file of a polynomial
    (sizes 0..2, grade 0..3, integer entries) or of its hook pencil at
    ``split`` (always the pencil for ``perturb``, when ``P`` has one),
    valid or with one value replaced by junk or one key or list item
    dropped; ``partner`` is the valid other file of the pair, which
    ``check`` reads beside it (the scalar quadratic's pencil where ``P``
    has none: a zero size or grade 0)."""
    m, n = (draw(st.sampled_from([1, 2, 0])) for _ in range(2))
    grade = draw(st.sampled_from([1, 2, 3, 0]))
    size = (grade + 1) * m * n
    entries = draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
    P = MatrixPolynomial(np.reshape(np.array(entries, dtype=complex),
                                    (grade + 1, m, n)))
    eps = draw(st.integers(0, max(grade - 1, 0)))
    eta = max(grade - 1 - eps, 0)
    if m and n and grade:
        files = [P.to_json(), from_polynomial(P, eps, eta, "hook").to_json()]
        pencil = command == "perturb" or draw(st.booleans())
        blob, partner = files[::-1] if pencil else files
    else:
        Q = MatrixPolynomial([[[2.0]], [[-3.0]], [[1.0]]])
        blob, partner = P.to_json(), from_polynomial(Q, 1, 0, "hook").to_json()
    how = draw(st.sampled_from(["valid", "replace", "drop"]))
    if how != "valid":
        *parent, key = draw(st.sampled_from(list(_paths(blob))))
        node = blob
        for step in parent:
            node = node[step]
        if how == "replace":
            node[key] = draw(_JUNK)
        else:
            del node[key]
    return blob, partner, (eps, eta)


def _refuse_constant(name):
    raise AssertionError(f"stdout holds {name}, which is not JSON")


@pytest.mark.parametrize("command", ["eig", "eig --oracle", "linearize",
                                     "check", "perturb"])
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_a_malformed_file_exits_0_2_or_3_and_never_raises(command, data):
    # the CLI's contract at its boundary: exit 0 with strict JSON on stdout,
    # or exit 2 or 3 with a message on stderr, whatever a file holds
    blob, partner, (eps, eta) = data.draw(_input_files(command))
    with tempfile.TemporaryDirectory() as tmp:
        path, other = (os.path.join(tmp, name) for name in ("in.json",
                                                            "other.json"))
        for name, content in ((path, blob), (other, partner)):
            with open(name, "w") as fh:
                json.dump(content, fh)
        argv = {"eig": ["eig", path], "eig --oracle": ["eig", path, "--oracle"],
                "linearize": ["linearize", path, "--epsilon", str(eps),
                              "--eta", str(eta)],
                "check": (["check", path, other] if "epsilon" in partner
                          else ["check", other, path]),
                "perturb": ["perturb", path, "--mag", "1e-8"]}[command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3), err.getvalue()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_refuse_constant)
    else:
        assert "error" in err.getvalue() or "exceeds" in err.getvalue()
