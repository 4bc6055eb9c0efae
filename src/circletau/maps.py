"""Analytic circle diffeomorphisms as trigonometric-polynomial lifts.

A map is stored through its lift F(x) = x + d(x) where the displacement

    d(x) = a0 + sum_k ( a_k cos(2 pi k x) + b_k sin(2 pi k x) )

is a real trigonometric polynomial.  This keeps derivatives exact, makes
F(x+1) = F(x) + 1 automatic, and gives a cheap estimate of a strip of
injectivity around the real axis (``CircleMap.strip_halfwidth``), sampled
on a grid rather than proven.

The package's one bisection, ``_bisect``, lives here.  It is also its
one root finder: it bisects the strip widths and the sign changes of F''
(``_fpp_kinks``) here, and ``circletau.dynamics`` the sign changes of G
in a grid cell and the sign of a rotation-number crossing whose Newton
root fails its certificate.

Scalar orbits use ``CircleMap.lift_float``, which evaluates F on one
Python float with ``math.cos``/``math.sin`` and no array overhead.  It
follows the op order of ``displacement`` + ``lift``: d = a0, then
d = d + c*fn(w*x) for each nonzero coefficient with w = 2 pi k (cos terms
before sin terms, ascending k), then F = x + d.  ``displacement`` and
``deriv`` loop over the same nonzero harmonics.  Where ``math`` and numpy
round sin/cos alike, it returns the same bits as ``lift`` on a 0-d array
(with numpy 2.4 on x86-64 Linux they differed at none of 200k random
angles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, NotADiffeomorphism, StripExceeded

TWO_PI = 2.0 * math.pi

# min F' is sampled on this many grid points.  Every x lies within h/2 of
# one (h = 1/_VALIDATION_GRID) and |F''| <= sum (2 pi k)^2 (|a_k| + |b_k|),
# so a grid minimum above (h/2) times that sum proves min F' > 0.
_VALIDATION_GRID = 8192
_STRIP_GRID = 4096
_STRIP_CAP = 4.0
_STRIP_MARGIN = 0.1


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
class CircleMap:
    """Orientation-preserving analytic circle diffeomorphism.

    Parameters
    ----------
    mean_shift:
        Constant term a0 of the displacement.
    cos_coeffs, sin_coeffs:
        Coefficients a_k, b_k for k = 1..K (may have different lengths).
        A coefficient or mean_shift that is not finite raises
        ConfigError, before validate runs.
    validate:
        Prove min F' > 0 at construction: the minimum of F' on the
        validation grid must exceed (h/2) sum (2 pi k)^2 (|a_k| + |b_k|),
        the most F' can fall between grid points h apart (up to the
        rounding of the sampled values).  Disable only to probe
        degenerate inputs in tests.
    """

    mean_shift: float = 0.0
    cos_coeffs: tuple = ()
    sin_coeffs: tuple = ()
    validate: bool = True

    def __post_init__(self):
        object.__setattr__(self, "cos_coeffs", tuple(float(c) for c in self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", tuple(float(c) for c in self.sin_coeffs))
        object.__setattr__(self, "mean_shift", float(self.mean_shift))
        if not all(math.isfinite(c) for c in (self.mean_shift, *self.cos_coeffs, *self.sin_coeffs)):
            raise ConfigError(f"map coefficients must be finite, got {self!r}")
        # the nonzero harmonics as (2 pi k, coeff), ascending k
        object.__setattr__(self, "_cos_terms", tuple(
            (TWO_PI * k, a) for k, a in enumerate(self.cos_coeffs, start=1) if a))
        object.__setattr__(self, "_sin_terms", tuple(
            (TWO_PI * k, b) for k, b in enumerate(self.sin_coeffs, start=1) if b))
        if self.validate:
            grid = np.linspace(0.0, 1.0, _VALIDATION_GRID, endpoint=False)
            fp_min = float(np.min(self.deriv(grid)))
            curvature = sum(
                (TWO_PI * k) ** 2 * abs(c)
                for coeffs in (self.cos_coeffs, self.sin_coeffs)
                for k, c in enumerate(coeffs, start=1)
            )
            margin = 0.5 / _VALIDATION_GRID * curvature
            if not fp_min > margin:
                raise NotADiffeomorphism(
                    f"min F' = {fp_min:.6g} on the validation grid does not exceed "
                    f"{margin:.3g}, the most F' can fall between its points"
                )

    # -- basic queries ---------------------------------------------------

    @property
    def is_rotation(self) -> bool:
        return not any(self.cos_coeffs) and not any(self.sin_coeffs)

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
        out = self.mean_shift
        for w, a in self._cos_terms:
            out = out + a * np.cos(w * z)
        for w, b in self._sin_terms:
            out = out + b * np.sin(w * z)
        return self._shaped(out, z)

    def lift(self, z, _check=True):
        """F(z); satisfies F(z+1) = F(z) + 1 up to rounding."""
        return z + self.displacement(z, _check=_check)

    def lift_float(self, x: float) -> float:
        """F(x) for one real Python float, with the op order of ``lift``."""
        d = self.mean_shift
        for w, a in self._cos_terms:
            d = d + a * math.cos(w * x)
        for w, b in self._sin_terms:
            d = d + b * math.sin(w * x)
        return x + d

    def deriv(self, z, order: int = 1, _check=True):
        """F'(z) or F''(z) by term-wise differentiation."""
        if order not in (1, 2):
            raise ConfigError(f"derivative order must be 1 or 2, got {order}")
        z = np.asarray(z)
        if np.iscomplexobj(z) and _check:
            self._check_strip(z)
        out = 1.0 if order == 1 else 0.0
        for w, a in self._cos_terms:
            out = out + (-a * w * np.sin(w * z) if order == 1 else -a * w * w * np.cos(w * z))
        for w, b in self._sin_terms:
            out = out + (b * w * np.cos(w * z) if order == 1 else -b * w * w * np.sin(w * z))
        return self._shaped(out, z)

    def _shaped(self, out, z):
        """out, a sum over the harmonics, shaped like z: an array, or a
        scalar for 0-d z.  Without harmonics out is the bare constant."""
        if not (self._cos_terms or self._sin_terms):
            out = np.full(z.shape, out, dtype=z.dtype if np.iscomplexobj(z) else float)
        return out if out.shape else out[()]

    # -- derived maps ----------------------------------------------------

    def shifted(self, omega) -> "CircleMap":
        """The map f_omega = f + omega for real omega.

        A nonzero imaginary part raises ConfigError: the uniformizer applies
        Im omega through the gluing, never through f.
        """
        if np.imag(omega) != 0.0:
            raise ConfigError(f"shift must be real, got {omega!r}")
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
        strip.  Re F' is sampled on _STRIP_GRID points of the line
        Im z = +delta and not bounded between them, so the width is a
        sampled estimate, not a proven one; the coefficients are real, so
        Re F'(x - i delta) = Re F'(x + i delta) and the lower line needs no
        samples of its own.  It is bisected between 2^-40 and the cap until
        the ends are adjacent floats; rigid rotations are capped at
        delta = 4.  Returns 0 when the line Im z = 2^-40 already fails the
        margin.
        """
        x = np.linspace(0.0, 1.0, _STRIP_GRID, endpoint=False)

        def ok(delta):
            fp = self.deriv(x + 1j * delta, _check=False)
            return np.min(np.real(fp)) > _STRIP_MARGIN

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


class IteratedMap:
    """Lazily composed evaluator for F^q and its derivatives.

    Composition of trigonometric polynomials is never re-expanded; values
    and chain-rule derivatives are produced by stepping through the orbit.
    Each step is a ``CircleMap.lift``/``deriv`` call with its strip check,
    so a complex orbit raises StripExceeded at its first point outside the
    base strip.
    """

    def __init__(self, base: CircleMap, q: int):
        self.base = base
        self.q = q

    @property
    def is_rotation(self):
        return self.base.is_rotation

    def lift(self, z):
        if isinstance(z, float):
            # one real float: the bits of the 0-d array path, without numpy
            lift = self.base.lift_float
            for _ in range(self.q):
                z = lift(z)
            return z
        out = np.asarray(z)
        for _ in range(self.q):
            out = self.base.lift(out)
        return out if out.shape else out[()]

    def deriv(self, z, order: int = 1):
        if order not in (1, 2):
            raise ConfigError(f"derivative order must be 1 or 2, got {order}")
        val = np.asarray(z)
        d1 = np.ones(val.shape)
        d2 = np.zeros_like(d1) if order == 2 else None
        for _ in range(self.q):
            fp = self.base.deriv(val, 1)
            if order == 2:
                d2 = self.base.deriv(val, 2) * d1 * d1 + fp * d2
            d1 = fp * d1
            val = self.base.lift(val)
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
    """Zeros of F'' on [0, 1), in ascending order: grid points where it
    vanishes, and in each cell where it changes sign the midpoint of the
    switch, bisected (_bisect) to 1e-15.

    A trigonometric polynomial of degree K has at most 2K zeros, so the
    scan has max(4096, 8K) cells, at least four per zero on average, with
    K the highest harmonic of f.  For F^q it takes q K, a heuristic: the
    harmonics of F^q go on past q K, decaying."""
    base, q = (map.base, map.q) if isinstance(map, IteratedMap) else (map, 1)
    cells = max(_STRIP_GRID, 8 * q * max(len(base.cos_coeffs), len(base.sin_coeffs)))
    xs = np.linspace(0.0, 1.0, cells + 1)
    fpp = map.deriv(xs, 2)
    lo, hi = fpp[:-1], fpp[1:]
    zero = lo == 0.0
    kinks = []
    for i in np.flatnonzero(zero | (lo * hi < 0.0)):
        if zero[i]:
            kinks.append(xs[i])
        else:
            up = lo[i] < 0.0  # F'' rises through the cell
            a, b = _bisect(lambda t: (map.deriv(t, 2) >= 0.0) == up, float(xs[i]),
                           float(xs[i + 1]), 1e-15)
            kinks.append(0.5 * (a + b))
    return kinks


def total_distortion(map: CircleMap) -> float:
    """D_f = integral over one period of |F''/F'|, the total variation of
    log F'.

    log F' is monotone between consecutive zeros of F'' (``_fpp_kinks``),
    so D_f is the sum of |log F'(k_{i+1}) - log F'(k_i)| over the zeros
    taken in cyclic order.  A cell of the kink scan that holds two zeros
    shows no sign change and hides both.
    """
    grid = np.linspace(0.0, 1.0, _VALIDATION_GRID, endpoint=False)
    fp = map.deriv(grid)
    if np.min(fp) <= 0.0:
        raise NotADiffeomorphism(
            f"min F' = {np.min(fp):.6g} <= 0 on the sampling grid"
        )
    if map.is_rotation:
        return 0.0
    logs = np.log(map.deriv(np.array(_fpp_kinks(map))))
    return float(np.abs(np.diff(logs, append=logs[0])).sum())
