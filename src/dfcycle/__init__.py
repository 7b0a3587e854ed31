"""Limit cycle analysis of odd piecewise-linear feedback nonlinearities.

The package estimates self-sustained oscillations of the autonomous loop

    x --> y(x) --> -G(s) --> x

by computing the describing function F(X) of the nonlinearity (exactly, by
quadrature, or qualitatively), intersecting -1/F(X) with the Nyquist plot of
the rational plant G(s), classifying each intersection's stability, and
cross-checking the predictions with time-domain simulation.
"""

from .piecewise import (
    NonlinearityError,
    PiecewiseNonlinearity,
    PrimitiveComponent,
    PrimitiveKind,
)
from .descfun import (
    DescribingFunctionCurve,
    QuadratureError,
    df_derivative,
    df_exact,
    df_oracle,
    df_value,
    phi,
    psi,
)
from .qualdf import df_qualitative, phi_tilde
from .linsys import (
    LinearPlant,
    PlantError,
    PoleOnAxisError,
    SingularFrequencyError,
    freq_response,
    h_of_jw,
    nyquist_contour,
    phase_crossovers,
)
from .cycles import (
    AmbiguousStabilityError,
    CrossoverAnalysis,
    IntersectionError,
    LimitCycleEstimate,
    analyze,
    classify,
    ellipse_estimate,
    find_intersections,
    winding_number,
)
from .sim import (
    AlgebraicLoopError,
    SimResult,
    loop_matrices,
    measure_oscillation,
    simulate,
)

__all__ = [
    "AlgebraicLoopError",
    "AmbiguousStabilityError",
    "CrossoverAnalysis",
    "DescribingFunctionCurve",
    "IntersectionError",
    "LimitCycleEstimate",
    "LinearPlant",
    "NonlinearityError",
    "PiecewiseNonlinearity",
    "PlantError",
    "PoleOnAxisError",
    "PrimitiveComponent",
    "PrimitiveKind",
    "QuadratureError",
    "SimResult",
    "SingularFrequencyError",
    "analyze",
    "classify",
    "df_derivative",
    "df_exact",
    "df_oracle",
    "df_qualitative",
    "df_value",
    "ellipse_estimate",
    "find_intersections",
    "freq_response",
    "h_of_jw",
    "loop_matrices",
    "measure_oscillation",
    "nyquist_contour",
    "phase_crossovers",
    "phi",
    "phi_tilde",
    "psi",
    "simulate",
    "winding_number",
]
