"""Complex rotation numbers of analytic circle diffeomorphisms.

Numerics for the torus obtained by gluing the annulus between R/Z and
R/Z + omega via f + omega: the complex rotation number tau_f(omega),
its boundary values ("bubbles"), linearizing charts and the sigma sum,
conformal welding, and the quantitative bounds tying them together.
"""

__version__ = "0.1.0"

from .dynamics import (
    Cycle,
    Plateau,
    RotationEstimate,
    compare_to_rational,
    denjoy_distortion,
    find_cycles,
    plateau,
    plateau_bracket,
    rotation_estimate,
    rotation_number,
)
from .errors import (
    CircleTauError,
    ConfigError,
    EmptyPlateau,
    ExtrapolationDiverged,
    IllConditioned,
    ImagesOverlap,
    NoConvergence,
    NotADiffeomorphism,
    NotConverged,
    NotHyperbolic,
    NotInUpperHalfPlane,
    NonCoprimeHomology,
    NumericalError,
    OutsideBasin,
    ParabolicPresent,
    RootFindingIncomplete,
    StripExceeded,
    WrongProfile,
    WrongRotationNumber,
)
from .experiments import (
    BubbleSample,
    BubbleTrace,
    EndpointReport,
    LiouvilleReport,
    NoninjectivityReport,
    TsujiiRow,
    liouville_measure_estimate,
    noninjectivity_probe,
    trace_atlas,
    trace_bubble,
    tsujii_gap,
)
from .linearize import (
    AnnuliCheck,
    DiskRadius,
    IterationChart,
    QcTwistCheck,
    SigmaData,
    annuli_inequality_check,
    bubble_disk_radius,
    linearizing_inverse,
    ordered_charts,
    qc_estimate_check,
    sigma,
    sigma_from_charts,
    xi_distortion,
)
from .maps import CircleMap, IteratedMap, total_distortion
from .uniformize import (
    BoundaryValue,
    ConjugacySolution,
    UpperHalfPoint,
    boundary_tau,
    complex_rotation_number,
    hyperbolic_distance,
    hyperbolic_distance_mod1,
    y_min,
)
from .welding import AsymptoteReport, WeldingSolution, asymptote_check, welding_constant

__all__ = [
    # dynamics
    "Cycle", "Plateau", "RotationEstimate", "compare_to_rational", "denjoy_distortion",
    "find_cycles", "plateau", "plateau_bracket", "rotation_estimate", "rotation_number",
    # errors
    "CircleTauError", "ConfigError", "EmptyPlateau", "ExtrapolationDiverged",
    "IllConditioned", "ImagesOverlap", "NoConvergence", "NotADiffeomorphism",
    "NotConverged", "NotHyperbolic", "NotInUpperHalfPlane", "NonCoprimeHomology",
    "NumericalError", "OutsideBasin", "ParabolicPresent", "RootFindingIncomplete",
    "StripExceeded", "WrongProfile", "WrongRotationNumber",
    # experiments
    "BubbleSample", "BubbleTrace", "EndpointReport", "LiouvilleReport",
    "NoninjectivityReport", "TsujiiRow", "liouville_measure_estimate",
    "noninjectivity_probe", "trace_atlas", "trace_bubble", "tsujii_gap",
    # linearize
    "AnnuliCheck", "DiskRadius", "IterationChart", "QcTwistCheck", "SigmaData",
    "annuli_inequality_check", "bubble_disk_radius", "linearizing_inverse",
    "ordered_charts", "qc_estimate_check", "sigma", "sigma_from_charts",
    "xi_distortion",
    # maps
    "CircleMap", "IteratedMap", "total_distortion",
    # uniformize
    "BoundaryValue", "ConjugacySolution", "UpperHalfPoint", "boundary_tau",
    "complex_rotation_number", "hyperbolic_distance", "hyperbolic_distance_mod1",
    "y_min",
    # welding
    "AsymptoteReport", "WeldingSolution", "asymptote_check", "welding_constant",
]
