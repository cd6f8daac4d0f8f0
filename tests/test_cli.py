import cmath
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import oscint
from oscint import integrate_on_interval
from oscint.cli import main
from oscint.errors import InvalidInputError

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

    def test_long_flat_sum(self, capsys):
        # 5,000 operators fold in one loop, not one nested call each
        code, out, _ = run(
            capsys,
            "integrate", "--amplitude", "+".join(["x"] * 5001), "--omega", "10",
            "--n", "30",
        )
        assert code == 0
        fields = out.split()
        value = complex(float(fields[0]), float(fields[1]))
        expected = integrate_on_interval(lambda x: 5001 * x, 10.0, -1.0, 1.0, 30)
        assert abs(value - expected.value) <= 1e-13 * abs(expected.value)

    def test_direct_path_reported(self, capsys):
        code, out, _ = run(
            capsys,
            "integrate", "--amplitude", "1/(x+2)", "--omega", "100", "--n", "30",
        )
        assert code == 0
        fields = out.split()
        assert fields[2] == "direct_triangular"
        assert fields[3] == "nan"

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

    def test_sin_phase_table_value(self, capsys):
        # criterion 2's table at omega = 10, through the parsed expressions
        code, out, _ = run(
            capsys,
            "integrate", "--amplitude", "1/(x^2+1)", "--omega", "10", "--n", "90",
            "--phase", "sin(x+0.25)", "--phase-derivative", "cos(x+0.25)",
        )
        assert code == 0
        got = complex(*map(float, out.split()[:2]))
        expected = 0.00266714972608754 + 0.180595659138141j
        assert abs(got - expected) <= 1e-12 * abs(expected)

    def test_every_function_against_its_numpy_twin(self, capsys):
        # both constants, a "--" chain and a right-associative "^" (2^0.5 is
        # the exponent)
        code, out, _ = run(
            capsys,
            "integrate", "--omega", "7", "--n", "64", "--amplitude",
            "sin(x)+cos(pi*x)*exp(--x/2)+sqrt(x+2)*abs(x-3)+asin(x/2)"
            "+atan(i*x/2)-log(x+3)*(x+2)^2^0.5",
        )
        assert code == 0
        twin = lambda x: (
            np.sin(x) + np.cos(np.pi * x) * np.exp(-(-x) / 2)
            + np.sqrt(x + 2) * np.abs(x - 3) + np.arcsin(x / 2)
            + np.arctan(1j * x / 2) - np.log(x + 3) * (x + 2) ** (2**0.5)
        )
        expected = integrate_on_interval(twin, 7.0, -1.0, 1.0, 64).value
        got = complex(*map(float, out.split()[:2]))
        assert abs(got - expected) <= 1e-14 * abs(expected)

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

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
    def test_interior_stationary_point_is_solver_error(self, capsys):
        # g' = 3x^2 vanishes at x = 0, between the probes: prints 1.1e30
        code, _, _ = run(
            capsys,
            "integrate", "--amplitude", "1", "--omega", "50", "--n", "64",
            "--phase", "x^3", "--phase-derivative", "3*x^2",
        )
        assert code == 3

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

    def test_linear_complex_phase_is_solver_error(self, capsys):
        # g = x + i*x is complex everywhere but at 0; the first probe is x = -1
        code, out, err = run(
            capsys,
            "integrate", "--amplitude", "1", "--omega", "5", "--n", "16",
            "--phase", "x+i*x", "--phase-derivative", "1",
        )
        assert code == 3
        assert out == ""
        assert err == (
            "oscint: error: --phase is complex at x = -1.0; phases must be real\n"
        )

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

    def test_derivative_without_phase_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["integrate", "--amplitude", "1", "--omega", "5", "--n", "8",
                  "--phase-derivative", "2*x"])
        assert exc.value.code == 2
        assert "--phase-derivative requires --phase" in capsys.readouterr().err

    def test_phase_that_overflows_at_a_probe_is_solver_error(self, capsys):
        # exp(x) is inf from x = 709.78 on: a non-finite g, not a non-monotone one
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys,
                "integrate", "--amplitude", "1", "--omega", "5", "--n", "16",
                "--a", "700", "--b", "720",
                "--phase", "exp(x)", "--phase-derivative", "exp(x)",
            )
        assert (code, out) == (3, "")
        assert err.startswith(
            "oscint: error: phase function g is not finite at x = 710.249"
        )

    def test_nan_phase_derivative_is_not_finite_not_complex(self, capsys):
        # complex arithmetic gives 0*log(0)^2 = nan+nanj at the preimage x = 0.5;
        # below 0.5 the log is complex but the product is 0+0j
        code, out, err = run(
            capsys,
            "integrate", "--amplitude", "1", "--omega", "5", "--n", "16",
            "--a", "0", "--b", "1",
            "--phase", "x", "--phase-derivative", "1+0*log(x-0.5)^2",
        )
        assert (code, out) == (3, "")
        assert err == "oscint: error: phase function g' is not finite at x = 0.5\n"

    def test_reversed_phase_bracket_is_solver_error(self, capsys):
        code, out, err = run(
            capsys,
            "integrate", "--amplitude", "1", "--omega", "5", "--n", "8",
            "--a", "1", "--b", "-1", "--phase", "x", "--phase-derivative", "1",
        )
        assert (code, out) == (3, "")
        assert "invalid interval: need a < b, got [1.0, -1.0]" in err

    def test_module_run_exits_with_the_solver_error_code(self):
        # python -m oscint.cli passes main's return code to sys.exit; x^2 is
        # not monotone on the default [-1, 1]
        src = str(Path(oscint.__file__).parents[1])
        argv = ["integrate", "--amplitude", "1", "--omega", "5", "--n", "16",
                "--phase", "x^2", "--phase-derivative", "2*x"]
        done = subprocess.run(
            [sys.executable, "-m", "oscint.cli", *argv],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
        )
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr.startswith("oscint: error: ")

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

    def test_one_process_across_routes_and_degrees(self, capsys):
        # omega = 500: the forward route at n = 100, then the boundary-value
        # route on both sides of the node-weight degree 1024, the moment
        # table growing with the truncation
        z = complex(0.9, 500 - 0.6)
        exact = 2 * cmath.sinh(z) / z
        code, out, _ = run(
            capsys,
            "converge", "--amplitude", "exp((0.9-0.6*i)*x)", "--omega", "500",
            "--n-min", "100", "--n-max", "2100", "--n-step", "400",
            f"--exact={exact.real!r},{exact.imag!r}",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [r[0] for r in rows] == ["100", "500", "900", "1300", "1700", "2100"]
        assert [r[4] for r in rows] == ["direct_triangular"] + ["quadrature"] * 5
        assert all(float(r[1]) <= 1e-11 * abs(exact) for r in rows)

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

    def test_closed_form_at_zero_frequency_and_alpha(self, capsys):
        code, out, _ = run(
            capsys, "example", "3", "--omega", "0", "--alpha", "0", "--n", "8"
        )
        assert code == 0
        exact_line = [l for l in out.splitlines() if l.startswith("exact")][0]
        assert [float(v) for v in exact_line.split("=")[1].split()] == [2.0, 0.0]
        err_line = [l for l in out.splitlines() if l.startswith("abs_error")][0]
        assert float(err_line.split("=")[1]) < 1e-14
        code, out, _ = run(
            capsys, "converge", "--example", "3", "--omega", "0", "--alpha", "0",
            "--n-min", "4", "--n-max", "8", "--n-step", "4",
        )
        assert code == 0
        assert all(float(row.split(",")[1]) < 1e-14 for row in out.splitlines()[1:])

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

    @pytest.mark.parametrize(
        "src", ["(" * 300 + "x" + ")" * 300, "-" * 2000], ids=["parentheses", "minuses"]
    )
    def test_expression_too_deep_to_parse(self, capsys, src):
        # past Python's recursion limit: a usage error, not a traceback
        err = usage_error(
            capsys, "integrate", f"--amplitude={src}", "--omega", "5", "--n", "8"
        )
        assert "argument --amplitude: bad expression" in err
        assert "expected less nesting" in err

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

    def test_alpha_with_amplitude_in_converge(self, capsys):
        err = usage_error(
            capsys, "converge", "--amplitude", "exp(x)", "--alpha", "3",
            "--omega", "10", "--n-min", "8", "--n-max", "9",
        )
        assert "--alpha: --amplitude has no parameter" in err

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

    def test_reference_quadrature_over_budget_is_solver_error(self, capsys):
        # 4|omega|(b - a)/pi = 2.5e6 first-pass panels, over the 2^20 budget
        code, out, err = run(
            capsys,
            "converge", "--amplitude", "1", "--omega", "1e6",
            "--n-min", "4", "--n-max", "4",
        )
        assert code == 3
        assert out == ""
        assert "needs 2.55e+06 panels" in err

    def test_reference_quadrature_without_a_second_pass_is_solver_error(
        self, capsys, monkeypatch
    ):
        # 255 first-pass panels fit a budget of 256; their refinement does not
        import oscint.oracle as oracle_mod

        monkeypatch.setattr(oracle_mod, "_MAX_PANELS", 256)
        code, out, err = run(
            capsys,
            "converge", "--amplitude", "1", "--omega", "100",
            "--n-min", "4", "--n-max", "4",
        )
        assert code == 3
        assert out == ""
        assert "needs 255 panels" in err

    def test_overflowing_expression_is_solver_error_without_a_warning(self, capsys):
        # exp(800x) overflows to inf near x = 1: the non-finite check reports
        # it, and numpy's overflow warning is not shown
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "integrate", "--amplitude", "exp(800*x)", "--omega", "5",
                "--n", "8",
            )
        assert (code, out) == (3, "")
        assert err == "oscint: error: amplitude is not finite at node x = 1.0\n"

    def test_solver_samples_are_solver_error(self, capsys):
        code, out, err = run(
            capsys, "integrate", "--amplitude", "1/x", "--omega", "5", "--n", "8"
        )
        assert code == 3
        assert out == ""
        assert "not finite at node x = 0.0" in err


class TestErrorFamily:
    """Exit 3 means an OscintError; any other exception is a defect and keeps
    its traceback."""

    ARGV = ("integrate", "--amplitude", "exp(x)", "--omega", "5", "--n", "16")

    def patch_moments(self, monkeypatch, error):
        def raise_error(omega, n):
            raise error

        monkeypatch.setattr(oscint.moments, "_real_moments", raise_error)

    def test_plain_value_error_is_a_defect(self, capsys, monkeypatch):
        self.patch_moments(monkeypatch, ValueError("a defect"))
        with pytest.raises(ValueError, match="^a defect$") as err:
            main(list(self.ARGV))
        assert type(err.value) is ValueError
        assert capsys.readouterr().err == ""

    def test_invalid_input_error_is_exit_3(self, capsys, monkeypatch):
        self.patch_moments(monkeypatch, InvalidInputError("cannot be done"))
        code, out, err = run(capsys, *self.ARGV)
        assert (code, out, err) == (3, "", "oscint: error: cannot be done\n")
