"""Closed-form references for catalog examples 1 and 7 (``tests/helpers.py``).

Each is held to the catalog's tabulated values, and example 1 to the kernel
at n = 256 over the frequencies the benchmark and the catalog use. Example 7's
amplitude (1 - x^2)^{3/2} is not resolved at n = 256, so it has no kernel
bound here.
"""

import pytest
from helpers import example_1_exact, example_7_exact

from oscint import get_example, integrate_on_interval


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
