"""Desk-scale verification of the oscillatory-integral machinery behind a
GL(3) t-aspect subconvexity argument: bump cutoffs and Mellin transforms,
phase-resolved quadrature oracles, diagonal Whittaker zeta integrals, the
degree-3 gamma factor and its contour kernel, the windowed-sum key identity
with prime-pair amplification, coefficient hygiene, and three independent
routes to the same weighted coefficient sum.
"""

from .coeffs import (CoefficientTable, hecke_mult_check, load_coefficients,
                     rankin_selberg_check, save_coefficients, synth_eisenstein)
from .cutoffs import (Cutoff, g_cutoff, h0_cutoff, h1_cutoff, mellin,
                      mellin_invert, v0_cutoff, weight_w0_w)
from .errors import (CoefficientError, ConfigError, GL3OscError,
                     GammaPoleError, InsufficientGridError,
                     MellinDivergenceError, TableTooSmallError,
                     TailNotConvergedError, ToleranceUnreachableError)
from .gammafactor import (ContourSpec, GKernelTable, LanglandsParams,
                          f_line_mass, g_kernel, gamma_decay_fit, gamma_pi)
from .keyident import (AmplifierSpec, KeyIdentityInstance, KeyIdentityReport,
                       amplified_average, verify_key_identity)
from .oscquad import (OscInstance, QuadResult, integrate_main,
                      integrate_phase, stationary_phase_main)
from .reports import Check, Report, load_report, write_table_csv
from .sums import RouteReport, SumSpec, compare_routes, s_sum_form
from .whittaker import (LocalZetaParams, c_constant, local_zeta,
                        weighted_zeta_first, weighted_zeta_second,
                        whittaker_diag, zeta_scaling_study)

__all__ = [
    "AmplifierSpec",
    "Check",
    "CoefficientError",
    "CoefficientTable",
    "ConfigError",
    "ContourSpec",
    "Cutoff",
    "GKernelTable",
    "GL3OscError",
    "GammaPoleError",
    "InsufficientGridError",
    "KeyIdentityInstance",
    "KeyIdentityReport",
    "LanglandsParams",
    "LocalZetaParams",
    "MellinDivergenceError",
    "OscInstance",
    "QuadResult",
    "Report",
    "RouteReport",
    "SumSpec",
    "TableTooSmallError",
    "TailNotConvergedError",
    "ToleranceUnreachableError",
    "amplified_average",
    "c_constant",
    "compare_routes",
    "f_line_mass",
    "g_cutoff",
    "g_kernel",
    "gamma_decay_fit",
    "gamma_pi",
    "h0_cutoff",
    "h1_cutoff",
    "hecke_mult_check",
    "integrate_main",
    "integrate_phase",
    "load_coefficients",
    "load_report",
    "local_zeta",
    "mellin",
    "mellin_invert",
    "rankin_selberg_check",
    "s_sum_form",
    "save_coefficients",
    "stationary_phase_main",
    "synth_eisenstein",
    "v0_cutoff",
    "verify_key_identity",
    "weight_w0_w",
    "weighted_zeta_first",
    "weighted_zeta_second",
    "whittaker_diag",
    "write_table_csv",
    "zeta_scaling_study",
]

__version__ = "0.1.0"
