"""Conformal welding of the two half-cylinders glued by a circle map.

Solves phi-(f(x)) = phi+(x) on R/Z with

    phi+(z) = z + C+ + sum_{k>0} a_k e^{2 pi i k z}   (holomorphic on H+/Z)
    phi-(z) = z + C- + sum_{k>0} b_k e^{-2 pi i k z}  (holomorphic on H-/Z)

The one-sided frequency supports are the discrete form of holomorphy at
the two punctures +-i inf, where phi+-(z) = z + C+- + o(1).  The welding
constant C_f = C+ - C- is gauge-invariant and equals the +i inf
asymptote of tau_f(omega) - omega.

The collocation system is the gluing system of the uniformize module at
omega = +i inf: with D = diag(e^{2 pi i k omega}) = 0 its columns are
[-E_x, conj(E_f), -1], the unknowns (a, b, -C-), and with the shift -C+
its right side is x - F(x) + C+.  It is built and solved by the same
code, Gram matrix and QR fallback included.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .uniformize import (
    _collocation_points,
    _gluing_system,
    _solve_collocation,
    complex_rotation_number,
    wrap_half,
)


@dataclass(frozen=True)
class WeldingSolution:
    c_plus: complex
    c_minus: complex
    c_f: complex
    coeff_plus: tuple  # a_k, k = 1..N
    coeff_minus: tuple  # b_k against e^{-2 pi i k z}
    residual: float
    cond: float  # as ConjugacySolution.cond: an estimate on the fast path, a bound on QR
    n_modes: int
    m_points: int
    refine_steps: int  # double-precision refinement steps; 0 when the QR path solved


def welding_constant(
    map,
    n_modes: int = 48,
    m_points: int | None = None,
    gauge_c_plus: complex = 0.0,
) -> WeldingSolution:
    """Solve the welding equation in least squares; C_f = C+ - C-.

    N and M default as in complex_rotation_number (M the smallest 7-smooth
    integer >= 4 N + 8, 200 at the default N = 48).  The gauge C+ is free
    ("unique up to addition of a constant"); C_f is invariant under it.
    A gauge that is not finite raises ConfigError.
    """
    gauge = complex(gauge_c_plus)
    if not cmath.isfinite(gauge):
        raise ConfigError(f"gauge_c_plus must be finite, got {gauge_c_plus}")
    N, M, fx = _collocation_points(map, n_modes, m_points)
    sol, cond, residual, steps = _solve_collocation(
        _gluing_system(fx, np.zeros(N, dtype=complex), -gauge), " in the welding system"
    )
    c_minus = -complex(sol[-1])
    return WeldingSolution(
        c_plus=gauge,
        c_minus=c_minus,
        c_f=gauge - c_minus,
        coeff_plus=tuple(sol[:N]),
        coeff_minus=tuple(sol[N : 2 * N]),
        residual=residual,
        cond=cond,
        n_modes=N,
        m_points=M,
        refine_steps=steps,
    )


@dataclass(frozen=True)
class AsymptoteReport:
    heights: tuple
    gaps: tuple  # |tau(iy) - iy - C_f| per height, mod 1 in the real part
    c_f: complex

    @property
    def decreasing(self) -> bool:
        return all(b < a for a, b in zip(self.gaps, self.gaps[1:]))


def asymptote_check(
    map,
    heights: Sequence[float],
    welding: WeldingSolution | None = None,
    n_modes: int = 48,
) -> AsymptoteReport:
    """Gaps |tau_f(iy) - iy - C_f| for increasing heights y.

    For an analytic diffeomorphism the gap decays (exponentially) as
    y grows; solver errors at heights below the resolution floor are
    surfaced, not silenced.
    """
    hs = [float(y) for y in heights]
    if not hs or any(b <= a for a, b in zip(hs, hs[1:])):
        raise ConfigError("heights must be strictly increasing")
    weld = welding if welding is not None else welding_constant(map, n_modes)
    gaps = []
    for y in hs:
        sol = complex_rotation_number(map, 1j * y, n_modes)
        diff = sol.tau_raw - 1j * y - weld.c_f
        gaps.append(abs(complex(wrap_half(diff.real), diff.imag)))
    return AsymptoteReport(tuple(hs), tuple(gaps), weld.c_f)
