"""Circle maps, distortion, rotation numbers and plateaus.

The walk-through uses the standard one-harmonic map

    f(x) = x + (1/4 pi) sin(2 pi x)

whose fixed points sit at 0 (multiplier 3/2, repelling) and 1/2
(multiplier 1/2, attracting), and whose total distortion has the closed
form 2 ln 3.
"""

import math

import numpy as np

from circletau import (
    CircleMap,
    find_cycles,
    plateau,
    rotation_number,
    total_distortion,
)

b = 1.0 / (4.0 * math.pi)
f = CircleMap(mean_shift=0.0, sin_coeffs=(b,))

print("lift at 1/4:", f.lift(0.25), " (= 1/4 + 1/4pi)")
print("F'(0) =", f.deriv(0.0), "  F'(1/2) =", f.deriv(0.5))

d = total_distortion(f)
print(f"total distortion D_f = {d:.12f}  (2 ln 3 = {2*math.log(3):.12f})")

print("\nfixed points of f:")
for c in find_cycles(f, 0, 1):
    print(f"  x = {c.points[0]:.6f}  multiplier {c.multiplier:.6f}  {c.kind}")

# The family f + omega has rational plateaus; the 0/1 one is exactly
# [-1/(4 pi), +1/(4 pi)] because fixed points need sin(2 pi x) = -omega/b.
pl = plateau(f, 0, 1)
print(f"\n0/1 plateau: [{pl.omega_lo:+.9f}, {pl.omega_hi:+.9f}]  (b = {b:.9f})")

print("\na slice of the devil staircase, rot(f + omega):")
for omega in np.linspace(0.0, 0.55, 12):
    r = rotation_number(f.shifted(float(omega)), tol=1e-7)
    print(f"  omega = {omega:.4f}   rot = {r:.7f}")
