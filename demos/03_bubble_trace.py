"""Tracing a bubble: boundary values of tau over a rational plateau.

Over the 0/1 plateau of f + omega the boundary value tau_bar(omega)
leaves the real axis (the maps are hyperbolic there) and draws a loop --
a bubble -- pinned to 0 at both plateau edges.  Every point stays inside
the disk of radius R_omega = 1/(2 pi q sum 1/|log rho|) tangent at p/q,
and the horocycle height h collapses at the (real) endpoints.

Writes bubble.svg next to this script.
"""

import math
import os

from circletau import (
    CircleMap,
    bubble_disk_radius,
    find_cycles,
    trace_bubble,
    total_distortion,
)
from circletau.svgplot import render_bubble_svg

b = 1.0 / (4.0 * math.pi)
f = CircleMap(sin_coeffs=(b,))

trace = trace_bubble(f, 0, 1, samples=10)
print(f"bubble over [{trace.bubble_lo:+.6f}, {trace.bubble_hi:+.6f}]")
print(f"left endpoint: {trace.left.kind},  right endpoint: {trace.right.kind}\n")

print("  omega        tau_bar                    h         2 R_omega")
for s in trace.samples:
    cycles = find_cycles(f.shifted(s.omega), 0, 1)
    R = bubble_disk_radius(cycles, 1).value
    print(f"  {s.omega:+.6f}   {s.tau_re:.6f} + {s.tau_im:.6f}i"
          f"   {s.horocycle_height:.6f}  {2*R:.6f}")

out = os.path.join(os.path.dirname(__file__) or ".", "bubble.svg")
with open(out, "w") as fh:
    fh.write(render_bubble_svg([trace], distortion=total_distortion(f)))
print(f"\nwrote {out}")
