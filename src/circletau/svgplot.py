"""Hand-rolled SVG emission for bubble pictures (no plotting dependency).

Bubbles are shallow (height at most D_f/(4 pi q^2)), so the vertical
axis is exaggerated; the factor is printed in the legend.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .uniformize import wrap_half

_W, _H = 960, 360
_PAD = 40
_X0, _X1 = -0.15, 1.05  # horizontal range in Re tau
_V_EXAGGERATION = 10.0
_DISK_Q_MAX = 5


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def render_bubble_svg(traces: Sequence, distortion: float | None = None) -> str:
    """SVG of bubble traces over [0, 1) with tangent disks at each p/q.

    traces: BubbleTrace objects, drawn over Re tau in [-0.15, 1.05] with
    the vertical axis exaggerated 10 times; disks of radius
    D_f/(4 pi q^2) are drawn tangent to the axis at every p/q with
    q <= 5 when the distortion constant is given.
    """
    max_im = 0.02
    for tr in traces:
        for s in tr.samples:
            max_im = max(max_im, s.tau_im)
    if distortion is not None:
        max_im = max(max_im, distortion / (4.0 * math.pi))
    sx = (_W - 2 * _PAD) / (_X1 - _X0)
    sy = (_H - 2 * _PAD) / (max_im * _V_EXAGGERATION * 1.1)

    def X(x):
        return _PAD + (x - _X0) * sx

    def Y(im):
        return _H - _PAD - im * _V_EXAGGERATION * sy

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_fmt(X(_X0))}" y1="{_fmt(Y(0))}" x2="{_fmt(X(_X1))}" '
        f'y2="{_fmt(Y(0))}" stroke="black" stroke-width="1"/>',
    ]

    if distortion is not None:
        seen = set()
        for q in range(1, _DISK_Q_MAX + 1):
            for p in range(0, q + 1):
                fr = Fraction(p, q)
                if fr in seen or not (0 <= float(fr) <= 1):
                    continue
                seen.add(fr)
                R = distortion / (4.0 * math.pi * fr.denominator**2)
                cx, cy = X(float(fr)), Y(R)
                parts.append(
                    f'<ellipse cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                    f'rx="{_fmt(R * sx)}" ry="{_fmt(R * _V_EXAGGERATION * sy)}" '
                    f'fill="none" stroke="#bbbbbb" stroke-width="0.8"/>'
                )

    for tr in traces:
        anchor = tr.p / tr.q
        pts = []
        for s in tr.samples:
            xr = anchor + wrap_half(s.tau_re - anchor)
            pts.append(f"{_fmt(X(xr))},{_fmt(Y(s.tau_im))}")
        parts.append(
            f'<polyline points="{" ".join(pts)}" fill="none" '
            f'stroke="#c22" stroke-width="1.4"/>'
        )

    parts.append(
        f'<text x="{_PAD}" y="{_PAD - 14}" font-size="13" font-family="monospace">'
        f"bubbles of tau_bar; vertical axis x{_V_EXAGGERATION:g} exaggerated</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
