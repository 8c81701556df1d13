"""ellint: verified elliptic integrals, ellipsoid surface areas, and the
identity catalog connecting them.

Everything here is plain-float numerics with an independent quadrature
oracle one call away; see the verify module for the sweep that checks the
whole library against it.

Each submodule below is in sys.modules and an attribute of the package from
the start, but its body runs on the first attribute read, so that a caller of
the closed forms never compiles the oracles, the quadrature or the verify sweep.
Each public name is read from its submodule on first use and then kept here.
"""

import importlib.util
import sys

from . import _version, errors

_PUBLIC = {
    "_version": ("__version__",),
    "elliptic": ("carlson_rf", "carlson_rd",
                 "incomplete_f", "incomplete_e", "incomplete_d",
                 "complete_k", "complete_e", "complete_d",
                 "complementary_amplitude",
                 "imaginary_modulus_reduce", "imaginary_argument_reduce"),
    "errors": ("EllintError", "DomainError", "DivergenceError",
               "NonConvergenceError", "NonFiniteIntegrandError"),
    "geometry": ("EccentricityPair", "BarredPair",
                 "eccentricities", "barred_params",
                 "oblate_area", "prolate_area", "triaxial_area", "surface_area"),
    "identities": ("IdentityId", "VerificationRecord",
                   "closed_value", "oracle_value", "grid_params", "check"),
    "quadrature": ("QuadratureResult", "integrate", "integrate_singular_pair",
                   "surface_area_quadrature"),
    "series": ("SeriesCoefficients", "SeriesSum",
               "a_coefficients", "omega_coefficients", "theta_terms", "psi_terms",
               "sigma1_sum", "sigma2_sum", "f_maclaurin_derivative"),
    "verify": ("Report", "run_suite", "write_report"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = list(_HOME)


def _lazy(module: str):
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = lazy
    spec.loader.exec_module(lazy)
    return lazy


elliptic, geometry, quadrature, identities, _oracles, series, verify = (_lazy(m) for m in (
    "elliptic", "geometry", "quadrature", "identities", "_oracles", "series", "verify"))


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_HOME[name]], name)
    return value


def __dir__() -> list:
    return sorted(globals().keys() | _HOME.keys())
