"""What the command-line parser offers, in a module light enough for every
cold start: the identity ids, the --<param> flags, the suite names, the
default tolerances and TOLERANCES, the fixed pass tolerance of each verify
family under the key the report's meta lists it by.  The modules that use
these names import them from here, so each keeps one definition; the flag
tuple is the union of the registry's parameter fields, which a test pins.
"""

from enum import Enum


class IdentityId(Enum):
    I1 = "I1"
    I1_BARRED = "I1_BARRED"
    PR3_D = "PR3_D"
    PR3_D_BARRED = "PR3_D_BARRED"
    LOG_F = "LOG_F"
    LOG_Q2 = "LOG_Q2"
    PSEUDO = "PSEUDO"
    I3 = "I3"
    I4 = "I4"
    I5 = "I5"
    I6 = "I6"
    I2_BARRED = "I2_BARRED"
    I3_BARRED = "I3_BARRED"
    GR_E_SIN = "GR_E_SIN"
    GR_F_SIN = "GR_F_SIN"
    ATAN_F = "ATAN_F"
    ATAN_E = "ATAN_E"


PARAM_FLAGS = ("alpha", "beta", "e1", "e2", "eps", "f1", "f2", "k", "kbar", "mu",
               "nu", "psi", "xi", "z")
SUITES = ("geometry", "integrals", "series", "extensions")

IDENTITY_TOL = 1e-8         # closed form vs oracle, relative
AREA_ORACLE_TOL = 1e-9      # relative tolerance handed to the area oracle
SERIES_TERM_TOL = 1e-15     # relative size of the next term that stops a sum
MAX_TERMS_DEFAULT = 100_000

# each verify family's fixed relative pass tolerance, in report order after identity_rel
TOLERANCES = {
    "area_vs_quadrature_rel": 1e-7,   # closed area vs the area oracle
    "spheroid_limit_rel": 1e-13,      # triaxial form vs spheroid form at an exact spheroid
    "route_rel": 1e-10,
    "series_sum_rel": 1e-12,          # sigma sum vs its closed reference
    "series_coeff_rel": 1e-14,
    "maclaurin_rel": 1e-13,
    "imag_reduction_rel": 1e-10,
}
