"""Exception taxonomy shared by all modules.

Numerical failures derive from NumericalError so callers (and the CLI)
can distinguish them from plain configuration mistakes, which raise
ConfigError.
"""


class CircleTauError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(CircleTauError, ValueError):
    """Invalid configuration or precondition on user-supplied parameters."""


class NumericalError(CircleTauError):
    """A computation failed or refused to certify its result."""


class StripExceeded(NumericalError):
    """Evaluation point left the certified strip of analyticity."""


class NotADiffeomorphism(NumericalError):
    """min F' <= 0 on the validation grid: not an orientation-preserving diffeo."""


class NoConvergence(NumericalError):
    """Rotation-number average still moved at the iteration cap.

    Carries the closest-return bracket (lo, hi) of the float orbit that
    was run; see ``rotation_estimate``.
    """

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


class WrongRotationNumber(NumericalError):
    """The map's rotation number differs from the requested p/q."""


class RootFindingIncomplete(NumericalError):
    """Periodic points could not be separated at resolution.

    Carries the suspect intervals.
    """

    def __init__(self, message, suspect_intervals=()):
        super().__init__(message)
        self.suspect_intervals = tuple(suspect_intervals)


class EmptyPlateau(NumericalError):
    """Plateau degenerated below resolution; carries the pinch point."""

    def __init__(self, message, pinch=None):
        super().__init__(message)
        self.pinch = pinch


class ImagesOverlap(NumericalError):
    """Forward images of the interval are not pairwise disjoint."""


class IllConditioned(NumericalError):
    """Least-squares system condition estimate exceeded the safe threshold."""


class NotInUpperHalfPlane(NumericalError):
    """Argument must have positive imaginary part."""


class ExtrapolationDiverged(NumericalError):
    """Richardson extrapolants stopped contracting."""


class NotConverged(NumericalError):
    """Linearizing-chart iteration hit its cap before stabilizing."""


class OutsideBasin(NumericalError):
    """Chart evaluation point is outside the basin of the periodic point."""


class NotHyperbolic(NumericalError):
    """A parabolic or unclassifiable cycle where hyperbolicity is required."""


class ParabolicPresent(NumericalError):
    """A parabolic cycle makes the requested quantity undefined."""


class NonCoprimeHomology(NumericalError):
    """Homology class (a, b) must have gcd(a, b) = 1."""


class WrongProfile(NumericalError):
    """x - f(x) does not have the two-local-maxima profile."""
