"""ellint: verified elliptic integrals, ellipsoid surface areas, and the
identity catalog connecting them.

Everything here is plain-float numerics with an independent quadrature
oracle one call away; see the verify module for the sweep that checks the
whole library against it.
"""

from ._version import __version__
from .elliptic import (carlson_rd, carlson_rf, complementary_amplitude,
                       complete_d, complete_e, complete_k,
                       imaginary_argument_reduce, imaginary_modulus_reduce,
                       incomplete_d, incomplete_e, incomplete_f)
from .errors import (DivergenceError, DomainError, EllintError,
                     KernelSingularityError, NonConvergenceError,
                     NonFiniteIntegrandError)
from .geometry import (BarredPair, EccentricityPair, barred_params,
                       eccentricities, oblate_area, prolate_area, surface_area,
                       triaxial_area)
from .identities import (IdentityId, VerificationRecord, check, closed_value,
                         grid_params, oracle_value)
from .quadrature import (QuadratureResult, integrate, integrate_singular_pair,
                         surface_area_quadrature)
from .series import (SeriesCoefficients, SeriesSum, a_coefficients,
                     f_maclaurin_derivative, omega_coefficients, psi_terms,
                     sigma1_sum, sigma2_sum, theta_terms)
from .verify import Report, run_suite, write_report

__all__ = [
    "__version__",
    "carlson_rf", "carlson_rd",
    "incomplete_f", "incomplete_e", "incomplete_d",
    "complete_k", "complete_e", "complete_d",
    "complementary_amplitude",
    "imaginary_modulus_reduce", "imaginary_argument_reduce",
    "EllintError", "DomainError", "DivergenceError",
    "KernelSingularityError", "NonConvergenceError",
    "NonFiniteIntegrandError",
    "EccentricityPair", "BarredPair",
    "eccentricities", "barred_params",
    "oblate_area", "prolate_area", "triaxial_area", "surface_area",
    "IdentityId", "VerificationRecord",
    "closed_value", "oracle_value", "grid_params", "check",
    "QuadratureResult", "integrate", "integrate_singular_pair",
    "surface_area_quadrature",
    "SeriesCoefficients", "SeriesSum",
    "a_coefficients", "omega_coefficients", "theta_terms", "psi_terms",
    "sigma1_sum", "sigma2_sum", "f_maclaurin_derivative",
    "Report", "run_suite", "write_report",
]
