"""Desk-scale verification of the oscillatory-integral machinery behind a
GL(3) t-aspect subconvexity argument: bump cutoffs and Mellin transforms,
phase-resolved quadrature oracles, diagonal Whittaker zeta integrals, the
degree-3 gamma factor and its contour kernel, the windowed-sum key identity
with prime-pair amplification, coefficient hygiene, and three independent
routes to the same weighted coefficient sum.

The top-level names are the ones the demos use, plus the error classes;
everything else is imported from its module (`gl3osc.criteria`, ...).
"""

from .coeffs import synth_eisenstein
from .errors import (CoefficientError, ConfigError, GL3OscError,
                     GammaPoleError, InsufficientGridError,
                     MellinDivergenceError, TableTooSmallError,
                     TailNotConvergedError, ToleranceUnreachableError)
from .gammafactor import LanglandsParams
from .keyident import (AmplifierSpec, KeyIdentityInstance, amplified_average,
                       verify_key_identity)
from .oscquad import stationary_phase_main
from .sums import SumSpec, compare_routes

__all__ = [
    "AmplifierSpec",
    "CoefficientError",
    "ConfigError",
    "GL3OscError",
    "GammaPoleError",
    "InsufficientGridError",
    "KeyIdentityInstance",
    "LanglandsParams",
    "MellinDivergenceError",
    "SumSpec",
    "TableTooSmallError",
    "TailNotConvergedError",
    "ToleranceUnreachableError",
    "amplified_average",
    "compare_routes",
    "stationary_phase_main",
    "synth_eisenstein",
    "verify_key_identity",
]

__version__ = "0.1.0"
