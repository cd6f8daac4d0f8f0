"""Nonlinear phases via monotone substitution.

The solver works on integrals with a linear phase exp(i*omega*x). A
strictly monotone nonlinear phase g reduces to that form through the
substitution y = g(x), which maps the amplitude to f(g^{-1}(y)) / g'
on [g(a), g(b)]; ``integrate_on_interval(..., phase=(g, g_prime))`` makes
that substitution and then integrates. This demo runs the classic sin-phase
integral

    int_{-1}^{1} 1/(x^2+1) * exp(i*omega*sin(x + 1/4)) dx

and compares against the adaptive quadrature of the untransformed
integrand.
"""

import numpy as np

from oscint import integrate_on_interval, oscillatory_reference_quadrature

g = lambda x: np.sin(x + 0.25)
g_prime = lambda x: np.cos(x + 0.25)
phase = (g, g_prime)
amplitude = lambda x: 1.0 / (x**2 + 1.0)

print("omega     computed integral                        vs quadrature")
for omega in (0.1, 1.0, 10.0, 100.0):
    value = integrate_on_interval(amplitude, omega, -1.0, 1.0, 90, phase=phase).value
    # reference: fold the full oscillation into the amplitude (frequency 0)
    check = oscillatory_reference_quadrature(
        lambda x: amplitude(x) * np.exp(1j * omega * g(x)),
        0.0, -1.0, 1.0, tol=1e-13,
    )
    print(
        f"{omega:6g}   {value.real:+.15f} {value.imag:+.15f}i   {abs(value - check):.1e}"
    )

print()
print(f"transformed interval: [{-np.sin(0.75):.6f}, {np.sin(1.25):.6f}]")
print("the 1/sqrt(1-y^2) factor from dy = cos(x+1/4) dx is handled by the")
print("substitution automatically; no stationary point exists because")
print("cos(x+1/4) keeps one sign on [-1, 1].")
