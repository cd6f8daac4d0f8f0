"""Closed-form references for catalog examples 1, 4, 5 and 7 (``tests/helpers.py``).

Examples 1 and 7 are held to the catalog's tabulated values, and example 1 to
the kernel at n = 256 over the frequencies the benchmark and the catalog use.
Example 7's amplitude (1 - x^2)^{3/2} is not resolved at n = 256, so it has
no kernel bound here. Examples 4 and 5 have no table: each is held, relative
to its size, to the kernel at n = 256 and to the reference quadrature.
"""

import pytest
from helpers import example_1_exact, example_4_exact, example_5_exact, example_7_exact

from oscint import (
    get_example,
    integrate_on_interval,
    oscillatory_reference_quadrature,
)

REFERENCES = {4: example_4_exact, 5: example_5_exact}


@pytest.mark.parametrize("omega", [1.0, 10.0, 50.0, 100.0])
def test_example_1_matches_its_table(omega):
    assert abs(example_1_exact(omega) - get_example(1).exact_value(omega)) <= 1e-15


@pytest.mark.parametrize("omega", [20.0, 1000.0])
def test_example_7_matches_its_table(omega):
    assert abs(example_7_exact(omega) - get_example(7).exact_value(omega)) <= 1e-15


@pytest.mark.parametrize(
    "omega", [0.5, 1.0, 1.4, 3.0, 10.0, 50.0, 300.0, 1e3, 1e4, 1e5, -3.0, -1e3]
)
def test_kernel_matches_example_1(omega):
    amplitude = get_example(1).amplitude()
    value = integrate_on_interval(amplitude, omega, -1.0, 1.0, 256).value
    assert abs(value - example_1_exact(omega)) <= 1e-13


@pytest.mark.parametrize(
    "key,omega,bound",
    # example 5's E1 difference is itself 8.9e-14 off at 1e3, relative
    [(4, w, 1e-13) for w in (0.5, 20.0, 1e3, 1e5)]
    + [(5, w, 1e-12) for w in (0.5, 20.0, 1e3)],
)
def test_kernel_matches_examples_4_and_5(key, omega, bound):
    exact = REFERENCES[key](omega)
    value = integrate_on_interval(get_example(key).amplitude(), omega, -1.0, 1.0, 256).value
    assert abs(value - exact) <= bound * abs(exact)


@pytest.mark.parametrize("key", [4, 5])
@pytest.mark.parametrize("omega", [0.5, 20.0])
def test_examples_4_and_5_match_the_reference_quadrature(key, omega):
    exact = REFERENCES[key](omega)
    value = oscillatory_reference_quadrature(
        get_example(key).amplitude(), omega, -1.0, 1.0, tol=1e-14
    )
    assert abs(value - exact) <= 1e-12 * abs(exact)
