"""Linearizing charts, the sigma sum, and the quasiconformal cross-checks.

An independent route to the boundary torus: glue the cycle annuli by
plain translations in logarithmic linearizing coordinates.  The modulus
of that comparison torus is sigma = sum (s_j - r_j); its negative
reciprocal must land within hyperbolic distance 5 D_f of tau_bar, the
gluing maps xi_j must have distortion at most 4 D_f, and the annuli
moduli obey the length-area inequality.
"""

import math

from circletau import (
    CircleMap,
    annuli_inequality_check,
    boundary_tau,
    qc_estimate_check,
    sigma,
    total_distortion,
    xi_distortion,
)

b = 1.0 / (4.0 * math.pi)
f = CircleMap(sin_coeffs=(b,))
d_f = total_distortion(f)

sd = sigma(f, 0, 1)
print(f"sigma = {sd.sigma:.10f}")
print(f"Im sigma = sum of moduli pi/|log rho| = {sum(sd.moduli):.10f}")
print(f"markers: {sd.marker_points}, alphas: {sd.alphas}")
print(f"-1/sigma = {-1/sd.sigma:.10f}")

bv = boundary_tau(f, 0.0)
print(f"\ntau_bar(0) = {bv.tau_raw:.10f}  (est. error {bv.error_estimate:.1e})")

chk = qc_estimate_check(f, 0, 1, bv.tau)
print(f"d_H(tau_bar, -1/sigma) = {chk.distance:.6f}",
      f"<= 5 D_f = {chk.bound_base:.4f}")

for j in (0, 1):
    print(f"distortion of the gluing xi_{j}: {xi_distortion(f, 0, 1, j):.3e}",
          f" (<= 4 D_f = {4*d_f:.4f})")

ann = annuli_inequality_check(bv.tau, sd.moduli, (0, 1))
print(f"\nlength-area: Im tau/|tau|^2 = {ann.lhs:.8f} vs sum mod = {ann.rhs:.8f}")
print("the two sides agree to",
      f"{abs(ann.slack)/ann.rhs:.2e} relative -- the basin annuli fill the",
      "torus up to measure zero, so the inequality is nearly an equality here")
