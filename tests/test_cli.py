import numpy as np
import pytest

from oscint.cli import main

TABLE_1_OMEGA_10 = -0.07854759997855625023 - 0.04871911238563061052j


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIntegrate:
    def test_reference_value(self, capsys):
        code, out, _ = run(
            capsys,
            "integrate", "--amplitude", "1/(x+2)", "--omega", "10", "--n", "30",
        )
        assert code == 0
        fields = out.split()
        value = complex(float(fields[0]), float(fields[1]))
        assert abs(value - TABLE_1_OMEGA_10) < 1e-12
        assert fields[2] == "quadrature"
        assert np.isnan(float(fields[3]))
        assert fields[4] == "30"

    def test_direct_path_reported(self, capsys):
        code, out, _ = run(
            capsys,
            "integrate", "--amplitude", "1/(x+2)", "--omega", "100", "--n", "30",
        )
        assert code == 0
        assert out.split()[2] == "direct_triangular"

    def test_custom_interval(self, capsys):
        # int_0^pi e^{ix} dx = 2i
        code, out, _ = run(
            capsys,
            "integrate", "--amplitude", "1", "--omega", "1",
            "--a", "0", "--b", "3.141592653589793", "--n", "16",
        )
        assert code == 0
        fields = out.split()
        assert abs(float(fields[0])) < 1e-12
        assert float(fields[1]) == pytest.approx(2.0, abs=1e-12)

    def test_nonlinear_phase(self, capsys):
        code, out, _ = run(
            capsys,
            "integrate", "--amplitude", "x^2", "--omega", "9",
            "--a", "0.5", "--b", "2",
            "--phase", "x^3", "--phase-derivative", "3*x^2", "--n", "60",
        )
        assert code == 0
        got = complex(*map(float, out.split()[:2]))
        from oscint import oscillatory_reference_quadrature

        exact = oscillatory_reference_quadrature(
            lambda x: x**2 * np.exp(9j * x**3), 0.0, 0.5, 2.0, tol=1e-13
        )
        assert abs(got - exact) < 1e-10

    def test_quadrature_fallback_reports_its_path(self, capsys):
        code, out, _ = run(
            capsys,
            "integrate", "--amplitude", "exp(x)", "--omega", "1e-20",
            "--a", "0", "--b", "1", "--n", "8",
        )
        assert code == 0
        fields = out.split()
        assert float(fields[0]) == pytest.approx(np.e - 1, abs=1e-12)
        assert fields[2] == "quadrature"
        assert fields[3] == "nan"

    def test_zero_frequency_integrates_by_quadrature(self, capsys):
        code, out, _ = run(
            capsys, "integrate", "--amplitude", "exp(x)", "--omega", "0", "--n", "16"
        )
        assert code == 0
        fields = out.split()
        # int_{-1}^{1} e^x dx
        assert float(fields[0]) == pytest.approx(np.e - 1 / np.e, rel=1e-15)
        assert abs(float(fields[1])) < 1e-15
        assert fields[2] == "quadrature"

    def test_non_monotone_phase_is_solver_error(self, capsys):
        code, _, err = run(
            capsys,
            "integrate", "--amplitude", "1", "--omega", "5", "--n", "16",
            "--phase", "x^2", "--phase-derivative", "2*x",
        )
        assert code == 3
        assert "one sign" in err

    def test_phase_with_a_pole_is_solver_error(self, capsys):
        # g' < 0 on both sides of x = 1, but g is not monotone across it
        code, out, err = run(
            capsys,
            "integrate", "--amplitude", "1", "--omega", "10", "--n", "20",
            "--a", "0.5", "--b", "2",
            "--phase", "1/(x-1)", "--phase-derivative=-1/(x-1)^2",
        )
        assert code == 3
        assert out == ""
        assert "not of one sign" in err

    @pytest.mark.parametrize(
        "phase, derivative, flag",
        [("x+i*x^2", "1", "--phase"), ("x", "1+i*x", "--phase-derivative")],
    )
    def test_complex_phase_is_solver_error(self, capsys, phase, derivative, flag):
        code, out, err = run(
            capsys,
            "integrate", "--amplitude", "1", "--omega", "5", "--n", "16",
            "--phase", phase, "--phase-derivative", derivative,
        )
        assert code == 3
        assert out == ""
        assert f"{flag} " in err and "complex" in err
        assert len(err.strip().splitlines()) == 1

    def test_overflowing_phase_shift_is_solver_error(self, capsys):
        # omega*(a+b)/2 = 1e310 overflows: no nan+nanj with exit code 0
        code, out, err = run(
            capsys,
            "integrate", "--amplitude", "1", "--omega", "1e300",
            "--a", "9999999999", "--b", "10000000001", "--n", "8",
        )
        assert code == 3
        assert out == ""
        assert "overflows" in err

    def test_phase_without_derivative_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["integrate", "--amplitude", "1", "--omega", "5", "--n", "8",
                  "--phase", "x^3"])
        assert exc.value.code == 2

    def test_bad_expression_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["integrate", "--amplitude", "1+", "--omega", "5", "--n", "8"])
        assert exc.value.code == 2

    def test_missing_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["integrate", "--omega", "5", "--n", "8"])
        assert exc.value.code == 2


class TestConverge:
    def test_csv_shape_and_convergence(self, capsys):
        code, out, _ = run(
            capsys,
            "converge", "--example", "1", "--omega", "10",
            "--n-min", "8", "--n-max", "32", "--n-step", "8",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,abs_error,real,imag,path"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["8", "16", "24", "32"]
        errors = [float(r[1]) for r in rows]
        assert errors[-1] < 1e-12
        assert all(r[4] in ("direct_triangular", "quadrature") for r in rows)

    def test_explicit_exact_value(self, capsys):
        exact = TABLE_1_OMEGA_10
        code, out, _ = run(
            capsys,
            "converge", "--amplitude", "1/(x+2)", "--omega", "10",
            "--n-min", "30", "--n-max", "30",
            f"--exact={exact.real!r},{exact.imag!r}",
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[1]) < 1e-12

    def test_quadrature_fallback_for_unknown_exact(self, capsys):
        code, out, _ = run(
            capsys,
            "converge", "--amplitude", "exp(x)", "--omega", "12",
            "--n-min", "24", "--n-max", "24",
        )
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[1]) < 1e-12

    def test_amplitude_and_example_mutually_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            main(["converge", "--amplitude", "x", "--example", "1",
                  "--omega", "1", "--n-min", "4", "--n-max", "8"])
        assert exc.value.code == 2

    def test_invalid_range_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["converge", "--example", "1", "--omega", "1",
                  "--n-min", "16", "--n-max", "8"])
        assert exc.value.code == 2


class TestExample:
    def test_tabulated_entry_reports_error(self, capsys):
        code, out, _ = run(
            capsys, "example", "1", "--omega", "10", "--n", "30"
        )
        assert code == 0
        assert "abs_error" in out
        err_line = [l for l in out.splitlines() if l.startswith("abs_error")][0]
        assert float(err_line.split("=")[1]) < 1e-12

    def test_alpha_override(self, capsys):
        code, out, _ = run(
            capsys, "example", "3", "--omega", "20", "--alpha", "64", "--n", "150"
        )
        assert code == 0
        err_line = [l for l in out.splitlines() if l.startswith("abs_error")][0]
        assert float(err_line.split("=")[1]) < 1e-12

    def test_untabulated_entry(self, capsys):
        code, out, _ = run(capsys, "example", "5", "--omega", "17", "--n", "64")
        assert code == 0
        assert "not tabulated" in out

    def test_unknown_id_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["example", "9", "--omega", "1", "--n", "8"])
        assert exc.value.code == 2


def usage_error(capsys, *argv):
    """Run main; assert it exits 2 with the subcommand's usage line; return stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: oscint {argv[0]} ")
    return captured.err


class TestUsageErrors:
    """Each flag is checked where it enters, by argparse: exit 2, never 3."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["integrate", "--amplitude", "1", "--omega", "5", "--n", "1"], "--n"),
            (["integrate", "--amplitude", "1", "--omega", "5", "--n", "x"], "--n"),
            (["example", "1", "--omega", "10", "--n", "1"], "--n"),
            (["converge", "--amplitude", "x", "--omega", "5",
              "--n-min", "1", "--n-max", "8"], "--n-min"),
            (["converge", "--amplitude", "x", "--omega", "5",
              "--n-min", "4", "--n-max", "0"], "--n-max"),
        ],
    )
    def test_degree_below_two(self, capsys, argv, flag):
        err = usage_error(capsys, *argv)
        assert f"argument {flag}: must be an integer >= 2" in err

    @pytest.mark.parametrize("exact", ["1", "a,b", "1,2,3", "", "nan,0", "0,-inf"])
    def test_malformed_exact(self, capsys, exact):
        err = usage_error(
            capsys, "converge", "--amplitude", "x", "--omega", "5",
            "--n-min", "4", "--n-max", "8", f"--exact={exact}",
        )
        assert "argument --exact: must be 're,im'" in err

    def test_unknown_example_in_converge(self, capsys):
        err = usage_error(
            capsys, "converge", "--example", "9", "--omega", "5",
            "--n-min", "4", "--n-max", "8",
        )
        assert "argument --example: invalid choice: 9" in err

    def test_unknown_example_id(self, capsys):
        err = usage_error(capsys, "example", "9", "--omega", "5", "--n", "8")
        assert "argument id: invalid choice: 9" in err

    @pytest.mark.parametrize("flag", ["--amplitude", "--phase", "--phase-derivative"])
    def test_bad_expression_keeps_the_offset(self, capsys, flag):
        argv = {"--amplitude": "1", "--phase": "x", "--phase-derivative": "1"}
        argv[flag] = "1+"
        err = usage_error(
            capsys, "integrate", "--omega", "5", "--n", "8",
            *(part for item in argv.items() for part in item),
        )
        assert f"argument {flag}: bad expression '1+': at offset 2" in err

    @pytest.mark.parametrize("key", [1, 2, 7])
    def test_alpha_on_parameterless_entry(self, capsys, key):
        err = usage_error(
            capsys, "example", str(key), "--omega", "10", "--alpha", "5", "--n", "30"
        )
        assert f"--alpha: example {key} has no parameter" in err
        err = usage_error(
            capsys, "converge", "--example", str(key), "--omega", "10",
            "--alpha", "5", "--n-min", "8", "--n-max", "9",
        )
        assert f"--alpha: example {key} has no parameter" in err

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "a"])
    def test_non_finite_alpha(self, capsys, alpha):
        # caught before the catalog sees it: no output, no RuntimeWarning
        for argv in (
            ["example", "3", "--omega", "5", "--n", "8"],
            ["converge", "--example", "3", "--omega", "5",
             "--n-min", "4", "--n-max", "5"],
        ):
            err = usage_error(capsys, *argv, f"--alpha={alpha}")
            assert f"argument --alpha: must be a finite number, got '{alpha}'" in err

    @pytest.mark.parametrize(
        "argv, omega",
        [
            (["integrate", "--amplitude", "1", "--n", "8"], "inf"),
            (["converge", "--example", "3", "--n-min", "4", "--n-max", "5"], "nan"),
            (["example", "3", "--n", "8"], "-inf"),
        ],
    )
    def test_non_finite_omega(self, capsys, argv, omega):
        # caught before the solver or the catalog sees it: no CSV header, no
        # RuntimeWarning
        err = usage_error(capsys, *argv, f"--omega={omega}")
        assert f"argument --omega: must be a finite number, got '{omega}'" in err

    @pytest.mark.parametrize("flag, value", [("--a", "inf"), ("--b", "nan")])
    def test_non_finite_endpoint(self, capsys, flag, value):
        # caught before the solver sees it: exit 2, not the solver's exit 3
        err = usage_error(
            capsys, "integrate", "--amplitude", "1", "--omega", "5", "--n", "8",
            f"{flag}={value}",
        )
        assert f"argument {flag}: must be a finite number, got '{value}'" in err

    def test_invalid_step(self, capsys):
        err = usage_error(
            capsys, "converge", "--example", "1", "--omega", "10",
            "--n-min", "8", "--n-max", "9", "--n-step", "0",
        )
        assert "invalid n range" in err


class TestNonFiniteAmplitude:
    def test_reference_quadrature_is_solver_error(self, capsys, monkeypatch):
        # the cap keeps a regression (panels doubling on NaN) small and fast
        import oscint.oracle as oracle_mod

        monkeypatch.setattr(oracle_mod, "_MAX_PANELS", 2**10)
        code, out, err = run(
            capsys,
            "converge", "--amplitude", "1/(x-x)", "--omega", "5",
            "--n-min", "4", "--n-max", "4",
        )
        assert code == 3
        assert out == ""
        assert "amplitude is not finite at node" in err

    def test_solver_samples_are_solver_error(self, capsys):
        code, out, err = run(
            capsys, "integrate", "--amplitude", "1/x", "--omega", "5", "--n", "8"
        )
        assert code == 3
        assert out == ""
        assert "not finite at node x = 0.0" in err
