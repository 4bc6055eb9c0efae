"""Analytic circle diffeomorphisms as trigonometric-polynomial lifts.

A map is stored through its lift F(x) = x + d(x) where the displacement

    d(x) = a0 + sum_k ( a_k cos(2 pi k x) + b_k sin(2 pi k x) )

is a real trigonometric polynomial.  This keeps derivatives exact, makes
F(x+1) = F(x) + 1 automatic, and yields a cheaply certified strip of
analyticity/injectivity around the real axis.

The package's one bisection, ``_bisect``, lives here: it bisects the
strip widths, and ``circletau.dynamics`` builds its rotation-number
crossings on it.

Scalar orbits use ``CircleMap.lift_float``, which evaluates F on one
Python float with ``math.cos``/``math.sin`` and no array overhead.  It
follows the op order of ``displacement`` + ``lift``: d = a0, then
d = d + c*fn(w*x) for each nonzero coefficient with w = 2 pi k (cos terms
before sin terms, ascending k), then F = x + d.  Where ``math`` and numpy
round sin/cos alike, it returns the same bits as ``lift`` on a 0-d array
(with numpy 2.4 on x86-64 Linux they differed at none of 200k random
angles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import ConfigError, NotADiffeomorphism, StripExceeded

TWO_PI = 2.0 * math.pi

# Orientation is validated on this many grid points; together with the
# coefficient certificate 2*pi*sum k(|a_k|+|b_k|) < 1 the sampled check
# becomes rigorous.
_VALIDATION_GRID = 8192
_STRIP_GRID = 4096
_STRIP_CAP = 4.0
_STRIP_MARGIN = 0.1


def _frac(x):
    return x - np.floor(x)


def _bisect(right, lo: float, hi: float, tol: float):
    """Shrink [lo, hi] around the switch of a monotone predicate (False at
    lo, True at hi) while hi - lo > tol and the midpoint lies strictly
    inside, so tol = 0 stops at adjacent floats.  Returns (lo, hi)."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if right(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


@dataclass(frozen=True)
class DistortionConstant:
    """Total distortion D_f = integral of |F''/F'| over one period."""

    value: float
    quadrature_error: float


@dataclass(frozen=True)
class CircleMap:
    """Orientation-preserving analytic circle diffeomorphism.

    Parameters
    ----------
    mean_shift:
        Constant term a0 of the displacement.
    cos_coeffs, sin_coeffs:
        Coefficients a_k, b_k for k = 1..K (may have different lengths).
    validate:
        Check min F' > 0 on the validation grid at construction.  Disable
        only to probe degenerate inputs in tests.
    """

    mean_shift: float = 0.0
    cos_coeffs: tuple = ()
    sin_coeffs: tuple = ()
    validate: bool = True

    def __post_init__(self):
        object.__setattr__(self, "cos_coeffs", tuple(float(c) for c in self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", tuple(float(c) for c in self.sin_coeffs))
        object.__setattr__(self, "mean_shift", float(self.mean_shift))
        # (fn, 2 pi k, coeff) in the order displacement() adds the terms
        object.__setattr__(self, "_terms", tuple(
            [(math.cos, TWO_PI * k, a) for k, a in enumerate(self.cos_coeffs, start=1) if a]
            + [(math.sin, TWO_PI * k, b) for k, b in enumerate(self.sin_coeffs, start=1) if b]
        ))
        if self.validate:
            grid = np.linspace(0.0, 1.0, _VALIDATION_GRID, endpoint=False)
            fp = self.deriv(grid)
            if np.min(fp) <= 0.0:
                raise NotADiffeomorphism(
                    f"min F' = {np.min(fp):.6g} <= 0 on the validation grid"
                )

    # -- basic queries ---------------------------------------------------

    @property
    def degree(self) -> int:
        return max(len(self.cos_coeffs), len(self.sin_coeffs))

    @property
    def is_rotation(self) -> bool:
        return not any(self.cos_coeffs) and not any(self.sin_coeffs)

    @property
    def derivative_certificate(self) -> bool:
        """True when 2*pi*sum k(|a_k|+|b_k|) < 1 certifies min F' > 0 rigorously."""
        s = sum((k + 1) * abs(a) for k, a in enumerate(self.cos_coeffs))
        s += sum((k + 1) * abs(b) for k, b in enumerate(self.sin_coeffs))
        return TWO_PI * s < 1.0

    # -- evaluation ------------------------------------------------------

    def _check_strip(self, z):
        im = np.max(np.abs(np.imag(z)))
        if im > 0.0 and im >= self.strip_halfwidth:
            raise StripExceeded(
                f"|Im z| = {im:.6g} >= strip half-width {self.strip_halfwidth:.6g}"
            )

    def displacement(self, z, _check=True):
        """d(z) = F(z) - z, for real or complex z (scalars or arrays)."""
        z = np.asarray(z)
        if np.iscomplexobj(z) and _check:
            self._check_strip(z)
        out = np.full(z.shape, self.mean_shift, dtype=z.dtype if np.iscomplexobj(z) else float)
        for k, a in enumerate(self.cos_coeffs, start=1):
            if a:
                out = out + a * np.cos(TWO_PI * k * z)
        for k, b in enumerate(self.sin_coeffs, start=1):
            if b:
                out = out + b * np.sin(TWO_PI * k * z)
        return out if out.shape else out[()]

    def lift(self, z, _check=True):
        """F(z); satisfies F(z+1) = F(z) + 1 up to rounding."""
        return z + self.displacement(z, _check=_check)

    def lift_float(self, x: float) -> float:
        """F(x) for one real Python float, with the op order of ``lift``."""
        d = self.mean_shift
        for fn, w, c in self._terms:
            d = d + c * fn(w * x)
        return x + d

    def deriv(self, z, order: int = 1, _check=True):
        """F'(z) or F''(z) by term-wise differentiation."""
        if order not in (1, 2):
            raise ConfigError(f"derivative order must be 1 or 2, got {order}")
        z = np.asarray(z)
        if np.iscomplexobj(z) and _check:
            self._check_strip(z)
        dtype = z.dtype if np.iscomplexobj(z) else float
        out = np.full(z.shape, 1.0 if order == 1 else 0.0, dtype=dtype)
        for k, a in enumerate(self.cos_coeffs, start=1):
            if a:
                w = TWO_PI * k
                term = -a * w * np.sin(w * z) if order == 1 else -a * w * w * np.cos(w * z)
                out = out + term
        for k, b in enumerate(self.sin_coeffs, start=1):
            if b:
                w = TWO_PI * k
                term = b * w * np.cos(w * z) if order == 1 else -b * w * w * np.sin(w * z)
                out = out + term
        return out if out.shape else out[()]

    # -- derived maps ----------------------------------------------------

    def shifted(self, omega):
        """The map f_omega = f + omega.

        Real omega gives another CircleMap; complex omega gives a
        ShiftedMap sending R/Z to R/Z + omega (used by the uniformizer).
        """
        if np.iscomplexobj(omega) and np.imag(omega) != 0.0:
            return ShiftedMap(self, complex(omega))
        # F' is unchanged, so the diffeomorphism check need not rerun.
        return CircleMap(
            self.mean_shift + float(np.real(omega)),
            self.cos_coeffs,
            self.sin_coeffs,
            validate=False,
        )

    def iterate(self, q: int) -> "IteratedMap":
        """Evaluation-only handle for F composed q times."""
        if q < 1 or q != int(q):
            raise ConfigError(f"iteration count must be a positive integer, got {q}")
        return IteratedMap(self, int(q))

    def mirrored(self) -> "CircleMap":
        """The conjugate map x -> -f(-x)."""
        return CircleMap(
            -self.mean_shift,
            tuple(-a for a in self.cos_coeffs),
            self.sin_coeffs,
            validate=False,
        )

    # -- certified strip -------------------------------------------------

    @cached_property
    def strip_halfwidth(self) -> float:
        """Largest delta with min Re F' > 0.1 on both lines Im z = +-delta.

        A cheap sufficient condition for univalence of the lift on the
        strip, bisected between 2^-40 and the cap until the ends are
        adjacent floats; rigid rotations are capped at delta = 4.  Returns
        0 when even the real line fails the margin (no complex evaluation
        then).
        """
        x = np.linspace(0.0, 1.0, _STRIP_GRID, endpoint=False)

        def ok(delta):
            for sign in (1.0, -1.0):
                fp = self.deriv(x + 1j * sign * delta, _check=False)
                if np.min(np.real(fp)) <= _STRIP_MARGIN:
                    return False
            return True

        if self.is_rotation or ok(_STRIP_CAP):
            return _STRIP_CAP
        if not ok(2.0 ** -40):
            return 0.0
        return _bisect(lambda d: not ok(d), 2.0 ** -40, _STRIP_CAP, 0.0)[0]

    # -- serialization ---------------------------------------------------

    def to_descriptor(self) -> dict:
        return {
            "mean_shift": self.mean_shift,
            "cos": list(self.cos_coeffs),
            "sin": list(self.sin_coeffs),
        }

    @staticmethod
    def from_descriptor(desc: dict) -> "CircleMap":
        try:
            return CircleMap(
                float(desc.get("mean_shift", 0.0)),
                tuple(desc.get("cos", ())),
                tuple(desc.get("sin", ())),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad map descriptor: {exc}") from exc


class ShiftedMap:
    """f + omega with complex omega: sends R/Z to R/Z + omega."""

    def __init__(self, base: CircleMap, omega: complex):
        self.base = base
        self.omega = omega

    @property
    def strip_halfwidth(self):
        return self.base.strip_halfwidth

    @property
    def is_rotation(self):
        return self.base.is_rotation

    def lift(self, z, _check=True):
        return self.base.lift(z, _check=_check) + self.omega

    def displacement(self, z, _check=True):
        return self.base.displacement(z, _check=_check) + self.omega

    def deriv(self, z, order: int = 1, _check=True):
        return self.base.deriv(z, order, _check=_check)


class IteratedMap:
    """Lazily composed evaluator for F^q and its derivatives.

    Composition of trigonometric polynomials is never re-expanded; values
    and chain-rule derivatives are produced by stepping through the orbit.
    """

    def __init__(self, base: CircleMap, q: int):
        self.base = base
        self.q = q

    @property
    def is_rotation(self):
        return self.base.is_rotation

    def lift(self, z, _check=True):
        z = np.asarray(z)
        complex_input = np.iscomplexobj(z)
        out = z
        for _ in range(self.q):
            if complex_input and _check:
                self.base._check_strip(out)
            out = self.base.lift(out, _check=False)
        return out if out.shape else out[()]

    def displacement(self, z, _check=True):
        return self.lift(z, _check=_check) - np.asarray(z)

    def deriv(self, z, order: int = 1, _check=True):
        if order not in (1, 2):
            raise ConfigError(f"derivative order must be 1 or 2, got {order}")
        z = np.asarray(z)
        complex_input = np.iscomplexobj(z)
        val = z
        d1 = np.ones(z.shape, dtype=complex if complex_input else float)
        d2 = np.zeros_like(d1)
        for _ in range(self.q):
            if complex_input and _check:
                self.base._check_strip(val)
            fp = self.base.deriv(val, 1, _check=False)
            if order == 2:
                fpp = self.base.deriv(val, 2, _check=False)
                d2 = fpp * d1 * d1 + fp * d2
            d1 = fp * d1
            val = self.base.lift(val, _check=False)
        out = d1 if order == 1 else d2
        return out if out.shape else out[()]


    @cached_property
    def strip_halfwidth(self) -> float:
        """Largest delta whose boundary-line orbits stay in the base strip,
        bisected until the ends are adjacent floats."""
        delta0 = self.base.strip_halfwidth
        if self.base.is_rotation or self.q == 1:
            return delta0
        x = np.linspace(0.0, 1.0, 512, endpoint=False)

        def ok(delta):
            for sign in (1.0, -1.0):
                z = x + 1j * sign * delta
                for _ in range(self.q - 1):
                    z = self.base.lift(z, _check=False)
                    if np.max(np.abs(np.imag(z))) >= delta0:
                        return False
            return True

        if ok(delta0):
            return delta0
        return _bisect(lambda d: not ok(d), 0.0, delta0, 0.0)[0]


def _fpp_kinks(map: CircleMap) -> list:
    """Zeros of F'' on [0, 1): grid points where it vanishes, else brentq
    roots of the cells where it changes sign, in ascending order."""
    xs = np.linspace(0.0, 1.0, _STRIP_GRID + 1)
    fpp = map.deriv(xs, 2)
    lo, hi = fpp[:-1], fpp[1:]
    zero = lo == 0.0
    cells = np.flatnonzero(zero | (lo * hi < 0.0))
    return [
        xs[i] if zero[i]
        else brentq(lambda t: map.deriv(t, 2), xs[i], xs[i + 1], xtol=1e-15)
        for i in cells
    ]


def total_distortion(map: CircleMap, subdivisions: int = 8) -> DistortionConstant:
    """D_f = integral over one period of |F''/F'|.

    The integrand has kinks exactly at the zeros of F'', so the period is
    split there (and into `subdivisions` panels per smooth piece) before
    adaptive Gauss-Kronrod quadrature.
    """
    grid = np.linspace(0.0, 1.0, _VALIDATION_GRID, endpoint=False)
    fp = map.deriv(grid)
    if np.min(fp) <= 0.0:
        raise NotADiffeomorphism(
            f"min F' = {np.min(fp):.6g} <= 0 on the sampling grid"
        )
    if map.is_rotation:
        return DistortionConstant(0.0, 0.0)

    kinks = _fpp_kinks(map)
    breakpoints = sorted(set([0.0, 1.0] + [float(k) for k in kinks if 0.0 < k < 1.0]))

    def integrand(t):
        return abs(map.deriv(t, 2) / map.deriv(t, 1))

    value = 0.0
    err = 0.0
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        edges = np.linspace(a, b, subdivisions + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            v, e = quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)
            value += v
            err += e
    return DistortionConstant(value, err)
