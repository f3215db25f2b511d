import json
import warnings

import numpy as np
import pytest

from bklab import MatrixPolynomial, build_L, from_polynomial
from bklab.cli import main
from bklab.experiments import random_polynomial, trial_rng


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
    assert "max residual" in capsys.readouterr().err


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
    from bklab.experiments import random_singular_polynomial
    rng = trial_rng(93, 0)
    P = random_singular_polynomial(2, 3, 2, 1, rng)
    path = tmp_path / "prod.json"
    write_json(path, P.to_json())
    assert main(["eig", str(path), "--oracle"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["oracle_agrees"]
    assert payload["polynomial_eigenstructure"]["right"] == payload["oracle_right"]


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
    stack = P.coeff_stack.copy()
    stack[-1, 0, 0] = np.inf
    bk = from_polynomial(P, 1, 1, "hook").to_json()
    bk["M1"][0][0] = [float("inf"), 0.0]
    return {"polynomial": MatrixPolynomial(stack).to_json(),
            "block_kronecker": bk,
            "pencil": MatrixPolynomial(stack[2:]).to_json()}


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


@pytest.mark.parametrize("flags,names", [
    (["--m", "0"], ["m", "at least 1"]),
    (["--m", "-1"], ["m", "at least 1"]),
    (["--m", "3:2"], ["m", "empty"]),
    (["--n", "2:1"], ["n", "empty"]),
    (["--d", "0"], ["d", "at least 1"]),
    (["--d", "4:3"], ["d", "empty"]),
    (["--trials", "-1"], ["trials", "nonnegative"]),
    (["--mag=-1e-8"], ["magnitude", "nonnegative"]),
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
        "linearize_custom": ["linearize", good_poly, "--epsilon", "1",
                             "--eta", "0", "--placement", "custom",
                             "--custom", bad],
        "eig": ["eig", bad],
        "perturb": ["perturb", bad, "--mag", "1e-8"],
        "check_poly": ["check", bad, good_bk],
        "check_pencil": ["check", good_poly, bad],
    }


@pytest.mark.parametrize("command", ["linearize", "linearize_custom", "eig",
                                     "perturb", "check_poly", "check_pencil"])
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
