"""Linear-time scaling.

Everything in the pipeline is O(n) except the forward coefficient
transform (O(n log n): one real type-I DCT for a real amplitude, one
complex FFT of the even extension for a complex one): assembling the
bandwidth-2 system, the direct path's back-substitution (LAPACK
``ztbtrs``) and the normal path's pentadiagonal equations with their
pivoted band LU (LAPACK ``zgbtrf``/``zgbtrs``). This demo times full
integrals on both paths, min of 3 runs each, and prints the time per
unknown, which does not grow as n grows a hundredfold.

The last row of each path, n = 99991, is a prime. The transform's
length 2n then has a large prime factor, and pocketfft runs it as a
Bluestein convolution of a longer, smooth length, so that row costs
more per unknown than n = 100000 = 2^5 * 5^5 does; it is still
O(n log n).
"""

import time

from oscint import IntegralProblem, integrate_standard


def best_of_3(problem):
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        result = integrate_standard(problem)
        times.append(time.perf_counter() - t0)
    return min(times), result


print("full integration wall time, amplitude 1/(x+2), min of 3 runs:")
for label, omega_of in (("omega = 5", lambda n: 5.0), ("omega = 10 n", lambda n: 10.0 * n)):
    print(f"  {label}:")
    for n in (1000, 10000, 100000, 99991):
        problem = IntegralProblem(lambda x: 1.0 / (x + 2.0), omega_of(n), n)
        dt, result = best_of_3(problem)
        print(
            f"    n={n:6d}  {result.path.value:17s}  {dt * 1e3:7.2f} ms  "
            f"{dt / n * 1e9:6.1f} ns/unknown   "
            f"I = {result.value.real:+.12e} {result.value.imag:+.12e}i"
        )

print()
print("The time per unknown does not grow with n on either path (fixed")
print("per-call costs weigh most at small n), so the wall time scales")
print("linearly; a hundred thousand unknowns solve in well under a second.")
print("The prime n = 99991 pays for a Bluestein transform of its 2n-long")
print("extension, one per integral, and still stays well under a second.")
