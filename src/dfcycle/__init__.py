"""Limit cycle analysis of odd piecewise-linear feedback nonlinearities.

The package estimates self-sustained oscillations of the autonomous loop

    x --> y(x) --> -G(s) --> x

by computing the describing function F(X) of the nonlinearity (exactly, by
quadrature, or qualitatively), intersecting -1/F(X) with the Nyquist plot of
the rational plant G(s), classifying each intersection's stability, and
cross-checking the predictions with time-domain simulation.
"""

from .piecewise import NonlinearityError, PiecewiseNonlinearity
from .descfun import (
    DescribingFunctionCurve,
    QuadratureError,
    df_exact,
    df_oracle,
    df_value,
)
from .qualdf import df_qualitative
from .linsys import (
    LinearPlant,
    PlantError,
    PoleOnAxisError,
    freq_response,
    phase_crossovers,
)
from .cycles import (
    AmbiguousStabilityError,
    CrossoverAnalysis,
    IntersectionError,
    LimitCycleEstimate,
    NonFiniteCycleError,
    analyze,
)
from .sim import (
    AlgebraicLoopError,
    SimResult,
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
    "NonFiniteCycleError",
    "NonlinearityError",
    "PiecewiseNonlinearity",
    "PlantError",
    "PoleOnAxisError",
    "QuadratureError",
    "SimResult",
    "analyze",
    "df_exact",
    "df_oracle",
    "df_qualitative",
    "df_value",
    "freq_response",
    "phase_crossovers",
    "simulate",
]
