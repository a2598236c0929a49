"""End-to-end tests for the command-line driver."""

import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from laros.cli import main
from laros.generate import plant_biclique, two_block_matrix
from laros.mmio import parse_matrix, write_matrix
from laros.solver import SolverConfig


def run(args):
    return main(args)


def load(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture()
def demo_matrix(tmp_path):
    path = tmp_path / "demo.mtx"
    write_matrix(path, two_block_matrix())
    return str(path)


class TestSolveCommand:
    def test_two_block_fixture(self, demo_matrix, tmp_path):
        out = tmp_path / "result.json"
        code = run(["solve", "--input", demo_matrix, "--theta", "0.5",
                    "--output", str(out)])
        assert code == 0
        record = load(out)
        assert record["result"]["support_rows"] == [4, 5, 6]
        assert record["result"]["support_cols"] == [4, 5, 6]
        assert record["result"]["converged"]
        assert record["manifest"]["command"] == "solve"
        assert record["manifest"]["version"]

    def test_solution_and_certificate_files(self, demo_matrix, tmp_path):
        out = tmp_path / "r.json"
        xout = tmp_path / "x.mtx"
        cout = tmp_path / "cert.json"
        code = run(["solve", "--input", demo_matrix, "--theta", "0.5",
                    "--output", str(out), "--solution-output", str(xout),
                    "--certificate-output", str(cout)])
        assert code == 0
        x = parse_matrix(xout)
        assert x.shape == (6, 6)
        cert = load(cout)
        y = np.array(cert["y"])
        z = np.array(cert["z"])
        np.testing.assert_allclose(y + z, two_block_matrix(), atol=1e-9)

    def test_certificate_of_unconverged_solve_fails(self, demo_matrix,
                                                    tmp_path, capsys):
        out, cout = tmp_path / "r.json", tmp_path / "cert.json"
        xout = tmp_path / "x.mtx"
        code = run(["solve", "--input", demo_matrix, "--theta", "0.5",
                    "--max-iters", "3", "--output", str(out),
                    "--solution-output", str(xout),
                    "--certificate-output", str(cout)])
        assert code == 1
        assert capsys.readouterr().err == (
            "laros solve: certificate requires a converged solve "
            "(stopped after 3 iterations)\n")
        assert not out.exists() and not cout.exists() and not xout.exists()

    def test_theta_required(self, demo_matrix, capsys):
        with pytest.raises(SystemExit):
            run(["solve", "--input", demo_matrix])

    def test_missing_file_fails(self, tmp_path):
        code = run(["solve", "--input", str(tmp_path / "nope.mtx"),
                    "--theta", "0.5"])
        assert code == 1

    @pytest.mark.parametrize("flag, want_code, message", [
        pytest.param("--tol", 1, "tol_primal must lie in (0, 1)", id="--tol"),
        *(pytest.param(flag, 2, f"unrecognized arguments: {flag} 0", id=flag)
          for flag in ("--tol-primal", "--tol-dual", "--tol-gap",
                       "--support-tol", "--penalty")),
    ])
    def test_zero_tolerance_rejected(self, demo_matrix, capsys, flag,
                                     want_code, message):
        """``--tol 0`` fails the config check; the solver flags of earlier
        releases (one per tolerance, --support-tol and --penalty) are
        refused by the parser, never silently ignored."""
        try:
            code = run(["solve", "--input", demo_matrix, "--theta", "0.5",
                        flag, "0"])
        except SystemExit as exc:
            code = exc.code
        assert code == want_code
        assert message in capsys.readouterr().err

    def test_malformed_matrix_names_line(self, tmp_path, capsys):
        path = tmp_path / "c.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 2\n1 1 5\n2 2\n")
        out = tmp_path / "r.json"
        assert run(["solve", "--input", str(path), "--theta", "0.5",
                    "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"laros solve: {path}:4: entry must be 'i j value', got '2 2'\n")
        assert not out.exists()

    def test_reproducible_records(self, demo_matrix, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["solve", "--input", demo_matrix, "--theta", "0.5"]
        assert run(args + ["--output", str(out1)]) == 0
        assert run(args + ["--output", str(out2)]) == 0
        strip = re.compile(rb'\s*"duration_seconds": [^,\n]*,?\n')
        b1 = strip.sub(b"", out1.read_bytes())
        b2 = strip.sub(b"", out2.read_bytes())
        assert b1 == b2


class TestThresholdsCommand:
    def test_diag(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("2.0,0.0\n0.0,1.0\n")
        out = tmp_path / "t.json"
        assert run(["thresholds", "--input", str(path),
                    "--output", str(out)]) == 0
        record = load(out)
        assert record["result"]["theta_A"] == pytest.approx(0.1)

    def test_block_thresholds(self, tmp_path):
        a = np.ones((4, 4))
        a[0, :] = 3.0
        path = tmp_path / "a.mtx"
        write_matrix(path, a)
        out = tmp_path / "t.json"
        assert run(["thresholds", "--input", str(path), "--rows", "1",
                    "--cols", "1,2,3,4", "--output", str(out)]) == 0
        record = load(out)
        assert record["result"]["theta_B"] == pytest.approx(1.75)
        assert record["result"]["theta_B_applicable"]
        table = record["result"]["row_zero_thresholds"]
        assert table[0][2] == pytest.approx(0.5)  # row 1 dominates row 3
        assert table[2][0] is None
        assert table[1][1] is None  # diagonal undefined

    def test_lone_rows_rejected_before_reading(self, tmp_path, capsys):
        assert run(["thresholds", "--input", str(tmp_path / "nope.mtx"),
                    "--rows", "1"]) == 1
        assert capsys.readouterr().err == (
            "laros thresholds: --rows and --cols must be given together\n")

    @pytest.mark.parametrize("rows, cols, message", [
        ("0", "1", "--rows indices are 1-based, got 0"),
        ("1,2", "3,-1", "--cols indices are 1-based, got -1"),
        ("1,,2", "1", "--rows takes comma-separated 1-based integers, got "
                      "an empty item in '1,,2'"),
        ("1,2,", "1", "--rows takes comma-separated 1-based integers, got "
                      "an empty item in '1,2,'"),
        ("1", "2, x", "--cols takes comma-separated 1-based integers, got "
                      "'x' in '2, x'"),
        ("1.5", "1", "--rows takes comma-separated 1-based integers, got "
                     "'1.5' in '1.5'")],
        ids=["zero", "negative", "empty", "trailing", "word", "decimal"])
    def test_bad_indices_rejected_before_reading(self, tmp_path, capsys,
                                                 rows, cols, message):
        assert run(["thresholds", "--input", str(tmp_path / "nope.mtx"),
                    "--rows", rows, "--cols", cols]) == 1
        assert capsys.readouterr().err == f"laros thresholds: {message}\n"


class TestPlantCommand:
    def test_planted_instance(self, tmp_path):
        mtx = tmp_path / "inst.mtx"
        out = tmp_path / "p.json"
        assert run(["plant", "--m", "20", "--n", "18", "--M", "5", "--N", "4",
                    "--c3", "0.1", "--seed", "7",
                    "--matrix-output", str(mtx), "--output", str(out)]) == 0
        record = load(out)
        assert record["result"]["truth_rows"] == [1, 2, 3, 4, 5]
        a = parse_matrix(mtx)
        assert a.shape == (20, 18)
        assert a[:5, :4].min() > 0.9

    def test_two_block_kind(self, tmp_path):
        mtx = tmp_path / "demo.mtx"
        assert run(["plant", "--kind", "two-block",
                    "--matrix-output", str(mtx)]) == 0
        np.testing.assert_array_equal(parse_matrix(mtx), two_block_matrix())

    def test_reproducible_matrix_files(self, tmp_path):
        m1, m2 = tmp_path / "i1.mtx", tmp_path / "i2.mtx"
        base = ["plant", "--m", "12", "--n", "12", "--M", "3", "--N", "3",
                "--c3", "0.2", "--seed", "9"]
        assert run(base + ["--matrix-output", str(m1)]) == 0
        assert run(base + ["--matrix-output", str(m2)]) == 0
        assert m1.read_bytes() == m2.read_bytes()


    @pytest.mark.parametrize("flag, message", [
        ("--c3=nan", "c3 must be finite and nonnegative, got nan"),
        ("--c3=inf", "c3 must be finite and nonnegative, got inf"),
        ("--c3=1e308", "noise bound 2*c3*sigma0 overflows at c3=1e+308, "
                       "sigma0=1.0"),
        ("--sigma0=nan", "sigma0 must be finite and positive, got nan"),
        ("--sigma0=inf", "sigma0 must be finite and positive, got inf"),
        ("--c1=nan", "c1 must be finite and nonnegative, got nan"),
        ("--c2=1e308", "entries can overflow at sigma0=1.0, c1=0.0, "
                       "c2=1e+308, c3=0.1")],
        ids=["c3-nan", "c3-inf", "c3-1e308", "sigma0-nan", "sigma0-inf",
             "c1-nan", "c2-1e308"])
    def test_bad_model_parameter_named(self, tmp_path, capsys, flag,
                                       message):
        mtx = tmp_path / "inst.mtx"
        assert run(["plant", "--m", "12", "--n", "12", "--M", "4", "--N",
                    "4", flag, "--matrix-output", str(mtx)]) == 1
        assert capsys.readouterr().err == f"laros plant: {message}\n"
        assert not mtx.exists()

    def test_none_noise_family_refused(self, tmp_path, capsys):
        # c3 = 0 gives the noise-free matrix under either family
        with pytest.raises(SystemExit) as exc:
            run(["plant", "--noise-family", "none",
                 "--matrix-output", str(tmp_path / "inst.mtx")])
        assert exc.value.code == 2
        assert "invalid choice: 'none'" in capsys.readouterr().err


class TestCertifyCommand:
    def test_certify_solve_output(self, demo_matrix, tmp_path):
        xout = tmp_path / "x.mtx"
        cout = tmp_path / "cert.json"
        assert run(["solve", "--input", demo_matrix, "--theta", "0.5",
                    "--output", str(tmp_path / "s.json"),
                    "--solution-output", str(xout),
                    "--certificate-output", str(cout)]) == 0
        out = tmp_path / "certify.json"
        assert run(["certify", "--input", demo_matrix, "--solution",
                    str(xout), "--certificate", str(cout), "--theta", "0.5",
                    "--output", str(out)]) == 0
        record = load(out)
        assert record["result"]["passed"]
        assert record["result"]["max_residual"] <= 1e-6

    def test_wrong_certificate_flagged(self, demo_matrix, tmp_path):
        xout = tmp_path / "x.mtx"
        cout = tmp_path / "cert.json"
        run(["solve", "--input", demo_matrix, "--theta", "0.5",
             "--output", str(tmp_path / "s.json"),
             "--solution-output", str(xout),
             "--certificate-output", str(cout)])
        cert = load(cout)
        cert["y"] = (np.array(cert["y"]) + 0.2).tolist()
        with open(cout, "w", encoding="utf-8") as handle:
            json.dump(cert, handle)
        out = tmp_path / "certify.json"
        assert run(["certify", "--input", demo_matrix, "--solution",
                    str(xout), "--certificate", str(cout), "--theta", "0.5",
                    "--output", str(out)]) == 0
        assert not load(out)["result"]["passed"]


    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "1",
                                       "-1"])
    def test_residual_tol_rejected_before_reading(self, tmp_path, capsys,
                                                  value):
        # at inf every certificate passed, and NaN and inf were written
        # into the record, which is then not JSON
        missing = str(tmp_path / "nope.mtx")
        assert run(["certify", "--input", missing, "--solution", missing,
                    "--certificate", missing, "--theta", "0.5",
                    f"--residual-tol={value}"]) == 1
        assert capsys.readouterr().err == (
            f"laros certify: --residual-tol must lie in (0, 1), got "
            f"{float(value)}\n")


class TestCertifyChecksFiles:
    """certify exits 1, naming the file and field, on malformed inputs."""

    @pytest.fixture()
    def solved(self, demo_matrix, tmp_path):
        xout, cout = tmp_path / "x.mtx", tmp_path / "cert.json"
        assert run(["solve", "--input", demo_matrix, "--theta", "0.5",
                    "--output", str(tmp_path / "s.json"),
                    "--solution-output", str(xout),
                    "--certificate-output", str(cout)]) == 0
        return xout, cout

    def _certify(self, demo_matrix, xout, cout, tmp_path):
        out = tmp_path / "certify.json"
        code = run(["certify", "--input", demo_matrix, "--solution",
                    str(xout), "--certificate", str(cout), "--theta", "0.5",
                    "--output", str(out)])
        assert not out.exists()
        return code

    def test_missing_key(self, demo_matrix, solved, tmp_path, capsys):
        xout, cout = solved
        cert = load(cout)
        del cert["alpha"]
        cout.write_text(json.dumps(cert))
        assert self._certify(demo_matrix, xout, cout, tmp_path) == 1
        assert capsys.readouterr().err == (
            f"laros certify: {cout}: certificate field 'alpha' is missing\n")

    @pytest.mark.parametrize("key", ["alpha", "z"])
    def test_non_finite_field(self, demo_matrix, solved, tmp_path, capsys,
                              key):
        # json writes and reads NaN and Infinity; before this check a NaN
        # alpha passed certify with "scalar_sum": NaN in the record
        xout, cout = solved
        cert = load(cout)
        if key == "alpha":
            cert["alpha"] = float("nan")
        else:
            cert["z"][2][3] = float("inf")
        cout.write_text(json.dumps(cert))
        assert self._certify(demo_matrix, xout, cout, tmp_path) == 1
        assert capsys.readouterr().err == (
            f"laros certify: {cout}: certificate field {key!r} is not "
            "finite\n")

    @pytest.mark.parametrize("key", ["y", "z"])
    def test_certificate_shape(self, demo_matrix, solved, tmp_path, capsys,
                               key):
        xout, cout = solved
        cert = load(cout)
        cert[key] = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        cout.write_text(json.dumps(cert))
        assert self._certify(demo_matrix, xout, cout, tmp_path) == 1
        assert capsys.readouterr().err == (
            f"laros certify: {cout}: certificate field {key!r} has shape "
            "(2, 3), expected (6, 6)\n")

    def test_solution_shape(self, demo_matrix, solved, tmp_path, capsys):
        xout, cout = solved
        write_matrix(xout, np.ones((2, 3)))
        assert self._certify(demo_matrix, xout, cout, tmp_path) == 1
        assert capsys.readouterr().err == (
            f"laros certify: {xout}: solution has shape (2, 3), expected "
            f"(6, 6) (the shape of {demo_matrix})\n")

    def test_zero_solution(self, demo_matrix, solved, tmp_path, capsys):
        # before this check, x / 0 failed as "matrix entries must be
        # finite", naming neither the file nor the cause
        xout, cout = solved
        write_matrix(xout, np.zeros((6, 6)))
        assert self._certify(demo_matrix, xout, cout, tmp_path) == 1
        assert capsys.readouterr().err == (
            f"laros certify: {xout}: solution has theta-norm 0 (it is all "
            "zeros), so it cannot be scaled to norm 1\n")


class TestNmfCommand:
    def test_two_rounds(self, demo_matrix, tmp_path):
        out = tmp_path / "nmf.json"
        wout, hout = tmp_path / "w.mtx", tmp_path / "h.mtx"
        assert run(["nmf", "--input", demo_matrix, "--theta", "0.5",
                    "--features", "2", "--w-output", str(wout),
                    "--h-output", str(hout), "--output", str(out)]) == 0
        record = load(out)
        norms = record["result"]["residual_norms"]
        assert len(norms) == 3
        assert norms[2] <= norms[1] <= norms[0]
        w = parse_matrix(wout)
        h = parse_matrix(hout)
        assert w.shape == (6, 2) and h.shape == (6, 2)
        assert w.min() >= 0 and h.min() >= 0

    @pytest.mark.parametrize("theta, message", [
        ("0.1,,0.2", "an empty item in '0.1,,0.2'"),
        ("0.1,", "an empty item in '0.1,'"),
        ("0.5, x", "'x' in '0.5, x'")],
        ids=["empty", "trailing", "word"])
    def test_bad_schedule_rejected_before_reading(self, tmp_path, capsys,
                                                  theta, message):
        assert run(["nmf", "--input", str(tmp_path / "nope.mtx"),
                    "--theta", theta, "--features", "2",
                    "--w-output", str(tmp_path / "w.mtx"),
                    "--h-output", str(tmp_path / "h.mtx")]) == 1
        assert capsys.readouterr().err == (
            f"laros nmf: --theta takes comma-separated numbers, got "
            f"{message}\n")


class TestBicliqueCommand:
    def test_recovery_run(self, tmp_path):
        out, mtx = tmp_path / "b.json", tmp_path / "b.mtx"
        assert run(["biclique", "--m", "40", "--n", "40", "--M", "10",
                    "--N", "10", "--p-edge", "0.3", "--seed", "7",
                    "--tol", "1e-7", "--matrix-output", str(mtx),
                    "--output", str(out)]) == 0
        record = load(out)
        result = record["result"]
        assert result["matrix_path"] == str(mtx)
        assert np.array_equal(parse_matrix(mtx),
                              plant_biclique(40, 40, 10, 10, 0.3, 7).a)
        assert result["theta"] == pytest.approx(0.1)
        assert result["truth_rows"] == list(range(1, 11))
        assert result["recovered"] == (
            result["recovered_rows"] == result["truth_rows"]
            and result["recovered_cols"] == result["truth_cols"]
            and result["biclique_complete"])

    def test_zero_edge_probability_recovers(self, tmp_path):
        out = tmp_path / "b.json"
        assert run(["biclique", "--m", "20", "--n", "20", "--M", "6",
                    "--N", "6", "--p-edge", "0.0", "--seed", "3",
                    "--tol", "1e-7", "--output", str(out)]) == 0
        record = load(out)
        assert record["result"]["recovered"]
        assert record["result"]["support_matches_truth"]

    def test_reference_parameters_seed_seven(self, tmp_path):
        out = tmp_path / "b7.json"
        assert run(["biclique", "--m", "60", "--n", "60", "--M", "15",
                    "--N", "15", "--p-edge", "0.5", "--seed", "7",
                    "--tol", "1e-7", "--output", str(out)]) == 0
        result = load(out)["result"]
        truth_match = (result["recovered_rows"] == result["truth_rows"]
                       and result["recovered_cols"] == result["truth_cols"])
        assert result["recovered"] == (truth_match
                                       and result["biclique_complete"])
        assert result["recovered"]

    @pytest.mark.parametrize("sizes", [["--M", "0"], ["--M", "-1", "--N", "2"]],
                             ids=["zero", "negative"])
    def test_block_outside_matrix_rejected(self, capsys, sizes):
        assert run(["biclique", *sizes]) == 1
        assert capsys.readouterr().err == (
            "laros biclique: block must fit inside the matrix\n")


class TestManifest:
    def test_flagless_runs_record_the_config_defaults(self, demo_matrix,
                                                      tmp_path):
        runs = {
            "solve": ["--input", demo_matrix, "--theta", "0.5"],
            "nmf": ["--input", demo_matrix, "--theta", "0.5",
                    "--features", "1", "--w-output", str(tmp_path / "w.mtx"),
                    "--h-output", str(tmp_path / "h.mtx")],
            "biclique": ["--m", "20", "--n", "20", "--M", "6", "--N", "6"],
        }
        for command, args in runs.items():
            out = tmp_path / f"{command}.json"
            assert run([command] + args + ["--output", str(out)]) == 0
            params = load(out)["manifest"]["parameters"]
            # the settings with a flag (nmf records --theta as given)
            want = asdict(SolverConfig(theta=float(params["theta"])))
            del want["theta"]
            assert {k: params[k] for k in want} == want, command

    def test_records_the_solver_settings_that_ran(self, demo_matrix,
                                                  tmp_path):
        flags = ["--max-iters", "3000", "--tol", "1e-6"]
        runs = {
            "solve": ["--input", demo_matrix, "--theta", "0.5"],
            "nmf": ["--input", demo_matrix, "--theta", "0.5",
                    "--features", "1", "--w-output", str(tmp_path / "w.mtx"),
                    "--h-output", str(tmp_path / "h.mtx")],
            "biclique": ["--m", "20", "--n", "20", "--M", "6", "--N", "6"],
        }
        want = {"max_iters": 3000, "tol_primal": 1e-6, "tol_dual": 1e-6,
                "tol_gap": 1e-6}
        for command, args in runs.items():
            out = tmp_path / f"{command}.json"
            assert run([command] + args + flags + ["--output", str(out)]) == 0
            params = load(out)["manifest"]["parameters"]
            assert {k: params[k] for k in want} == want, command


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


# the float flags of each command, and arguments that run it small
_FLOAT_FLAGS = {
    "solve": ("--theta", "--tol"),
    "plant": ("--sigma0", "--c1", "--c2", "--c3"),
    "certify": ("--theta", "--residual-tol"),
    "nmf": ("--theta", "--tol"),
    "biclique": ("--p-edge", "--theta", "--tol"),
}


@pytest.fixture(scope="module")
def solved_demo(tmp_path_factory):
    """The demo matrix, its solution and its certificate (files)."""
    d = tmp_path_factory.mktemp("demo")
    demo, x, cert = d / "demo.mtx", d / "x.mtx", d / "cert.json"
    write_matrix(demo, two_block_matrix())
    assert run(["solve", "--input", str(demo), "--theta", "0.5",
                "--output", str(d / "s.json"), "--solution-output", str(x),
                "--certificate-output", str(cert)]) == 0
    return demo, x, cert


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e308", "-1", "0"])
@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in _FLOAT_FLAGS.items()
    for flag in flags])
def test_float_flag_extremes(solved_demo, tmp_path, capsys, command, flag,
                             value):
    """A float flag at any value either runs to a record of strict JSON or
    fails with one line naming the command, never with a traceback."""
    demo, x, cert = solved_demo
    small = ["--max-iters", "200"]
    base = {
        "solve": ["--input", str(demo), "--theta", "0.5", *small],
        "plant": ["--m", "12", "--n", "12", "--M", "4", "--N", "4",
                  "--matrix-output", str(tmp_path / "p.mtx")],
        "certify": ["--input", str(demo), "--solution", str(x),
                    "--certificate", str(cert), "--theta", "0.5"],
        "nmf": ["--input", str(demo), "--theta", "0.5", "--features", "1",
                "--w-output", str(tmp_path / "w.mtx"),
                "--h-output", str(tmp_path / "h.mtx"), *small],
        "biclique": ["--m", "12", "--n", "12", "--M", "4", "--N", "4",
                     *small],
    }[command]
    out = tmp_path / "record.json"
    # the flag comes last, so that it overrides a value in base
    code = run([command, *base, f"{flag}={value}", "--output", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 1)
    if code:
        assert err.startswith(f"laros {command}: ")
        assert err.count("\n") == 1 and err.endswith("\n")
    else:
        json.loads(out.read_text(), parse_constant=_reject_constant)
