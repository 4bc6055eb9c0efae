"""The complex rotation number tau(omega) and its +i inf asymptote.

Gluing the annulus between R/Z and R/Z + omega with f + omega gives a
torus C/(Z + tau Z); tau is computed by spectral least squares on the
gluing equation Phi(f(x) + omega) = Phi(x) + tau.  High above the real
axis tau(omega) - omega approaches the welding constant C_f, computed
here by the second, independent solver.
"""

import math

from circletau import complex_rotation_number, CircleMap, welding_constant

b = 1.0 / (4.0 * math.pi)
f = CircleMap(sin_coeffs=(b,))

# rigid rotations glue to straight tori: tau = theta + omega exactly
rot = CircleMap(mean_shift=0.3)
sol = complex_rotation_number(rot, 0.1 + 0.2j, n_modes=8)
print(f"rotation 0.3 at omega = 0.1+0.2i:  tau = {sol.tau_raw:.12f}",
      f" residual {sol.residual:.1e}")

w = welding_constant(f, n_modes=48)
print(f"\nwelding constant C_f = {w.c_f:.12f}   residual {w.residual:.1e}")

print("\ntau(iy) - iy against C_f:")
for y in (0.5, 1.0, 2.0, 3.0, 4.0):
    sol = complex_rotation_number(f, 1j * y, n_modes=48)
    gap = sol.tau_raw - 1j * y - w.c_f
    print(f"  y = {y}:  tau = {sol.tau_raw:.10f}   |gap| = {abs(gap):.3e}")

print("\nsolver diagnostics at a generic interior point:")
sol = complex_rotation_number(f, 0.07 + 0.15j, n_modes=64)
print(f"  tau = {sol.tau_raw:.10f}")
print(f"  residual {sol.residual:.2e},  cond ~ {sol.cond:.1f} (an estimate, not a bound),",
      f"min |Phi'| on the boundary circles = {sol.min_phi_prime:.4f}")
