"""What the command-line parser offers, in a module light enough for every
cold start: the identity ids, the --<param> flags, the suite names and the
default tolerances.  The modules that use these names import them from here,
so each keeps one definition; the flag tuple is the union of the registry's
parameter fields, which a test pins.
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
SERIES_SUM_TOL = 1e-12      # sigma sum vs its closed reference, relative
MAX_TERMS_DEFAULT = 100_000
