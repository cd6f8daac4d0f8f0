"""The two solve paths and why both exist.

The collocation system is upper triangular with bandwidth 2, so a
direct back-substitution solves it in O(n). But its diagonal is
i*omega while the superdiagonal grows like 2n, so for n > |omega| the
backward recurrence amplifies rounding error step by step. The cure is
to minimize the residual instead: form the Hermitian normal equations
(pentadiagonal) and solve them with a pivoted band LU.

This demo forces both paths on the same problem and prints the
residual of the bandwidth-2 system for each, across the n/omega ratio.
These are the paths of ``integrate_standard``, the paper's Levin solver.
``integrate_on_interval`` solves no Levin system at any frequency: the
collocation polynomial solves p' + i*omega*p = f_n exactly, so it
integrates the amplitude's interpolant against the Chebyshev moments of
exp(i*omega*x), c . M, shown in the last table. Its path label says how
the moments were computed: forwards where |omega| > n
(``direct_triangular``), by a boundary-value solve elsewhere
(``quadrature``). Its residual is NaN on both.
"""

import numpy as np

from oscint import IntegralProblem, SolvePath, integrate_on_interval, integrate_standard
from oscint.levin import solve_coefficients

amplitude = lambda x: 1.0 / (x + 2.0)

print("            residual (direct)   residual (normal)   |I_direct - I_normal|")
for omega, n in ((100.0, 16), (20.0, 16), (20.0, 32), (5.0, 32), (5.0, 64)):
    problem = IntegralProblem(amplitude, omega, n)
    _, _, res_direct = solve_coefficients(problem, SolvePath.DIRECT_TRIANGULAR)
    _, _, res_normal = solve_coefficients(problem, SolvePath.NORMAL_EQUATIONS)
    v_direct = integrate_standard(problem, SolvePath.DIRECT_TRIANGULAR).value
    v_normal = integrate_standard(problem, SolvePath.NORMAL_EQUATIONS).value
    regime = "|w| > n" if abs(omega) > n else "n >= |w|"
    print(
        f"w={omega:5g} n={n:3d}   {res_direct:12.3e}       {res_normal:12.3e}"
        f"        {abs(v_direct - v_normal):9.2e}   ({regime})"
    )

print()
print("In the |omega| > n regime both paths are equivalent. Once n grows")
print("past |omega| the direct residual explodes while the normal path")
print("stays at rounding level, which is why the solver switches")
print("automatically at |omega| = n.")

print()
print("integrate_on_interval (c . M) on the same problems, against the closed")
print("form (amplitude exp(x), exact integral 2*sinh(1 + i*w)/(1 + i*w)):")
for omega, n in ((100.0, 16), (20.0, 16), (20.0, 32), (5.0, 32), (5.0, 64)):
    result = integrate_on_interval(np.exp, omega, -1.0, 1.0, n)
    z = 1 + 1j * omega
    exact = 2 * np.sinh(z) / z
    error = abs(result.value - exact) / abs(exact)
    print(f"w={omega:5g} n={n:3d}   {result.path.value:17s}  rel. error {error:8.1e}")
