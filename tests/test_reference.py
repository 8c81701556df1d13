"""Regression tests against mpmath, an independent high-precision reference.

Each input here either failed at some point or sits at an edge of the
documented domain: the (pi/2, 1) corner of F and D, moduli within 1e-15 of
one, a thin disc whose amplitude rounds to pi/2, flat oblate and long prolate
spheroids, axis triples over the whole float range, conjugate amplitudes near
zero, non-finite or overflowing Carlson arguments, R_D above the float
range, R_F in every argument order, both imaginary-parameter extensions of
(F, E) out to the overflow of k^2 and of sinh, the odd Maclaurin derivatives
of F(arcsin x, k) where their series coefficients underflow, and the PR3_D,
LOG_F, LOG_Q2, PSEUDO, I3, I4, I5, I6, I2_BARRED, I3_BARRED, GR_E_SIN, ATAN_F
and ATAN_E closed forms at edges of their parameter classes, the weighted-E oracle of
I1, I1_BARRED, PR3_D and PR3_D_BARRED at k -> 1, at alpha -> kbar and at
z/alpha from 1e-200 to 3e4, PR3_D out to alpha/z = inf, I4 and I5 out to
mu = 1e300 and down to mu = 5e-324, I3_BARRED at kbar = 1 - 1e-15, and the
oracle of the eight kernel identities, whose F and E legs share one
quadrature, against their defining integrals out to mu = 19 and k = 1e-6,
the psi and xi oracles as kbar -> 1, the PR3_D oracle where its scaling
leaves the normal range, the LOG oracle at u << eps, the PSEUDO and LOG
oracles on thin intervals and at beta -> eps, the oracles that take quadrature's sinh
map at the grid nodes and where GK15 in t failed, every identity oracle at
every grid-5 node, both sides of I3 and I6 at the tanh(nu) = k edge, and
both sides of LOG, ATAN and I1_BARRED where their parameters are tiny.
Skipped when mpmath is not installed.
"""

import itertools
import math
import random
import re
import sys

import pytest

from ellint import (
    DomainError,
    IdentityId,
    carlson_rd,
    carlson_rf,
    closed_value,
    complementary_amplitude,
    complete_e,
    complete_k,
    f_maclaurin_derivative,
    grid_params,
    imaginary_argument_reduce,
    imaginary_modulus_reduce,
    incomplete_d,
    incomplete_e,
    incomplete_f,
    oblate_area,
    oracle_value,
    prolate_area,
    surface_area,
    surface_area_quadrature,
    triaxial_area,
)
from ellint import identities, quadrature, verify
from ellint.elliptic import HALF_PI, _agm, _rf_rd
from ellint.identities import (ORACLE_TOL, REGISTRY, AlphaK, AlphaKBar, AlphaZ, E1E2, EpsAB,
                               FBar, MuK, NuK, PsiKBar, XiKBar)

mp = pytest.importorskip("mpmath")
mp.mp.dps = 40


def _rel(got: float, ref) -> float:
    return float(abs(got - ref) / abs(ref))


def _area_ref(a: float, b: float, c: float):
    # 4 pi abc R_G(a^-2, b^-2, c^-2), DLMF 19.33.1
    inv2 = [mp.mpf(v) ** -2 for v in (a, b, c)]
    return 4 * mp.pi * mp.mpf(a) * b * c * mp.elliprg(*inv2)


def _carlson_grid() -> list:
    rng = random.Random(20060605)
    out = []
    for i in range(60):
        x, y, z = (10.0 ** rng.uniform(-8.0, 8.0) for _ in range(3))
        if i % 5 == 0:
            x = 0.0
        out.append((x, y, z))
    return out


@pytest.mark.parametrize("x,y,z", _carlson_grid())
def test_carlson_against_mpmath(x, y, z):
    rf, rd = mp.elliprf(x, y, z), mp.elliprd(x, y, z)
    assert _rel(carlson_rf(x, y, z), rf) <= 2e-15
    assert _rel(carlson_rd(x, y, z), rd) <= 2e-15
    assert _rel(_rf_rd(x, y, z)[0], rf) <= 2e-15


@pytest.mark.parametrize("k", [1e-9, 0.5, 1.0 - 1e-9, 1.0 - 1e-15])
def test_complete_against_mpmath(k):
    m = mp.mpf(k) ** 2
    assert _rel(complete_k(k), mp.ellipk(m)) <= 5e-15
    assert _rel(complete_e(k), mp.ellipe(m)) <= 5e-15


def test_agm_e_as_the_modulus_tends_to_one():
    # E = K (1 - sum) cancels as k -> 1, and was 9.3e-14 off at k' = 1e-240;
    # above k = 0.9 it comes from Legendre's relation.  The reference needs
    # about 2 log10(1/k') + 40 digits, or 1 - k'^2 rounds to 1 below k' ~ 1e-20
    for x in range(1, 1200, 7):
        kc = 10.0 ** (-x / 4)
        with mp.workdps(int(2 * math.log10(1.0 / kc)) + 40):
            ref = mp.ellipe(1 - mp.mpf(kc) ** 2)
        assert _rel(_agm(math.sqrt((1.0 - kc) * (1.0 + kc)), kc)[1], ref) <= 1e-15, kc
    for j in range(400):
        k = 1.0 - j / 400
        assert _rel(complete_e(k), mp.ellipe(mp.mpf(k) ** 2)) <= 1e-15, k


def test_near_corner_first_and_third_kind():
    # 1 - (k sin phi)^2 cancelled here: F was off by 1.7e-8 and D by 1.8e-8
    phi, k = HALF_PI - 1e-9, 1.0 - 1e-12
    m = mp.mpf(k) ** 2
    f, e = mp.ellipf(phi, m), mp.ellipe(phi, m)
    assert _rel(incomplete_f(phi, k), f) <= 2e-15
    assert _rel(incomplete_d(phi, k), (f - e) / m) <= 2e-15
    # E = F - k^2 D cancels here, by about F/E = 15, so E keeps fewer bits
    assert _rel(incomplete_e(phi, k), e) <= 1e-14


def test_thin_disc_area():
    # asin(e1) rounded to pi/2 with k = 1 and raised DivergenceError
    assert _rel(surface_area(5.0, 4.0, 1e-9), _area_ref(5.0, 4.0, 1e-9)) <= 1e-13


def test_weighted_e_route_at_close_major_axes():
    # the route's prefactor formed k'^2 as 1 - k^2, which i1_closed forms as
    # (1 - k)(1 + k): the two roundings differ, and the route was 2.8e-12 off here
    axes = (7.413549389773041, 7.286121250249952, 0.12243267460121497)
    assert _rel(verify.area_via_weighted_e_integral(*axes), _area_ref(*axes)) <= 1e-14


def test_triaxial_form_accuracy_on_a_thin_disc():
    # the paper's form takes F and E near the (pi/2, 1) corner as c/a -> 0,
    # 7.4e-15 here; surface_area is the accurate path at 2.2e-16
    axes = (679.690952892524, 401.29526756616235, 0.001581839135349826)
    ref = _area_ref(*axes)
    assert _rel(triaxial_area(*axes), ref) <= 1e-14
    assert _rel(surface_area(*axes), ref) <= 1e-15


@pytest.mark.parametrize("r,c", [(1.0, 1e-9), (1.0, 1e-5), (1e150, 1.0), (1.0, 1e-300)])
def test_flat_oblate_area(r, c):
    # r - sqrt(r^2 - c^2) rounded to zero and raised ZeroDivisionError
    ref = _area_ref(r, r, c)
    assert _rel(oblate_area(r, c), ref) <= 5e-16
    assert _rel(surface_area(r, r, c), ref) <= 5e-16


def _long_prolates() -> list:
    # log-uniform centres and aspect ratios c/r up to 1e12
    rng = random.Random(889051)
    out = [(889051.28, 0.01053)]
    for _ in range(40):
        c = 10.0 ** rng.uniform(-6.0, 6.0)
        out.append((c, c * 10.0 ** -rng.uniform(0.01, 12.0)))
    return out


@pytest.mark.parametrize("c,r", _long_prolates())
def test_long_prolate_area(c, r):
    # asin(root / c) was ill-conditioned as root / c -> 1: (889051.28,
    # 0.01053, 0.01053) was off by 1.9e-9 and the sweep by up to 1.1e-8
    ref = _area_ref(c, r, r)
    assert _rel(prolate_area(c, r), ref) <= 1e-15
    assert _rel(surface_area(c, r, r), ref) <= 1e-15


@pytest.mark.parametrize("fn", [carlson_rf, carlson_rd, _rf_rd])
@pytest.mark.parametrize("args", [(math.nan, 1.0, 1.0), (1.0, math.nan, 1.0),
                                  (1.0, 1.0, math.inf), (math.inf, 1.0, 1.0),
                                  (1.0, -math.inf, 1.0), (math.inf, -math.inf, 1.0)])
def test_non_finite_arguments_raise(fn, args):
    with pytest.raises(DomainError):
        fn(*args)


@pytest.mark.parametrize("x,y,z", [(1e308, 1e308, 1e308), (1e308, 1e308, 1e-4),
                                   (0.0, 1.7e308, 1.0)])
def test_overflowing_sum_is_rescaled(x, y, z):
    assert _rel(carlson_rf(x, y, z), mp.elliprf(x, y, z)) <= 2e-15
    # R_D of the first triple underflows to 0.0, as its reference does
    rd = carlson_rd(x, y, z)
    assert rd == pytest.approx(float(mp.elliprd(x, y, z)), rel=2e-15, abs=0.0)
    assert _rel(_rf_rd(x, y, z)[0], mp.elliprf(x, y, z)) <= 2e-15


@pytest.mark.parametrize("x,y,z", [(1e-180, 0.0, 1e-320), (1e-200, 1e-200, 1e-320)])
def test_rd_above_the_float_range_is_inf(x, y, z):
    # sqrt(z) (z + lambda) underflowed to 0.0 and raised ZeroDivisionError;
    # R_D is 3.0e410 and 3.0e360 here, and R_F stays finite
    assert mp.elliprd(x, y, z) > sys.float_info.max
    assert carlson_rd(x, y, z) == math.inf
    rf, rd = _rf_rd(x, y, z)
    assert rd == math.inf
    assert _rel(rf, mp.elliprf(x, y, z)) <= 2e-15


# a zero in each slot, the six orders of one triple, a zero z with an
# overflowing sum (carlson_rf reads _rf_rd, which needs z > 0), and sums so
# small that R_D's terms in z^1.5 would underflow to 0.0 unless _rf_rd
# rescales them and, in the last, carlson_rf puts the largest argument in z
@pytest.mark.parametrize("x,y,z", [(0.0, 2.5e-3, 7e5), (2.5e-3, 0.0, 7e5), (2.5e-3, 7e5, 0.0)]
                         + list(itertools.permutations((0.3, 4.0, 9e3)))
                         + [(1.7e308, 1e308, 0.0), (1e-300, 2e-300, 3e-300),
                            (2e-300, 1e-300, 0.0), (1e-320, 3e-320, 2e-320),
                            (1e-180, 0.0, 1e-320)])
def test_carlson_rf_in_every_argument_order(x, y, z):
    assert _rel(carlson_rf(x, y, z), mp.elliprf(x, y, z)) <= 2e-15


@pytest.mark.parametrize("a,b,c", [(1e-150, 1e-150, 3e-151), (1e-150, 3e-151, 3e-151),
                                   (1e154, 1e153, 1e153), (1e150, 1e149, 1e148),
                                   (3e-150, 2e-150, 1e-150),
                                   (1.0, 0.5, 1e-170), (1.0, 1e-160, 1e-161),
                                   (1.0, 1.0, 1e-300), (1e200, 1e-200, 1e-200)])
def test_extreme_scale_area(a, b, c):
    # squares of the axes overflowed or underflowed: the first three returned
    # 6.28e-300, 5.65e-301 and inf, the next two raised DomainError and
    # ZeroDivisionError; in the last four squared axis ratios underflow, and
    # (1, 0.5, 1e-170) raised DomainError and (1, 1e-160, 1e-161) was off by
    # 1.6e-4
    assert _rel(surface_area(a, b, c), _area_ref(a, b, c)) <= 1e-15


@pytest.mark.parametrize("a,b,c", [(2.0, 1.5, 1.0), (10.0, 0.1, 0.1), (1e-3, 1.0, 1e3),
                                   (1.0, 0.5, 1e-200), (1.0, 1e-200, 1e-200)])
def test_area_oracle_against_mpmath(a, b, c):
    # the nested 2D oracle returned 0.0 for the needle (1, 1e-200, 1e-200),
    # whose area is 9.87e-200
    assert _rel(surface_area_quadrature(a, b, c, 1e-12).value, _area_ref(a, b, c)) <= 1e-12


def test_area_beyond_float_range_is_inf():
    a, b, c = 1e154, 1e154, 1e153
    assert _area_ref(a, b, c) > sys.float_info.max
    assert surface_area(a, b, c) == math.inf
    # the area of subnormal axes underflows to zero
    assert surface_area(5e-324, 5e-324, 5e-324) == 0.0


def _area_close(got: float, ref) -> bool:
    # a normal area within 1e-15, an area above the float range inf, and a
    # subnormal one within two units of the smallest subnormal, 2^-1074
    if ref > sys.float_info.max:
        return got == math.inf
    if ref < sys.float_info.min:
        return abs(got - ref) <= 2.0 ** -1073
    return _rel(got, ref) <= 1e-15


def test_area_over_the_float_range():
    rng = random.Random(19331)
    for _ in range(300):
        axes = [10.0 ** rng.uniform(-300.0, 300.0) for _ in range(3)]
        assert _area_close(surface_area(*axes), _area_ref(*axes)), axes


@pytest.mark.parametrize("fn,args,axes", [
    (oblate_area, (1e-170, 3e-171), (1e-170, 1e-170, 3e-171)),
    (prolate_area, (1e-170, 3e-171), (1e-170, 3e-171, 3e-171)),
    (triaxial_area, (1e150, 1e149, 1e148), (1e150, 1e149, 1e148)),
    (triaxial_area, (3e-150, 2e-150, 1e-150), (3e-150, 2e-150, 1e-150))])
def test_spheroid_and_triaxial_forms_at_extreme_scales(fn, args, axes):
    # squares of the axes overflowed or underflowed: the spheroids and the
    # last triple raised ZeroDivisionError, the third DomainError; the
    # spheroid areas lie below the subnormal range
    assert _area_close(fn(*args), _area_ref(*axes))


@pytest.mark.parametrize("fn,args,axes", [
    (oblate_area, (2.0, 5e-324), (2.0, 2.0, 5e-324)),
    (oblate_area, (1.0, 1e-310), (1.0, 1.0, 1e-310)),
    (prolate_area, (1e10, 1e-315), (1e10, 1e-315, 1e-315)),
    (prolate_area, (1e10, 1e-310), (1e10, 1e-310, 1e-310)),
    (prolate_area, (1e10, 1e-305), (1e10, 1e-305, 1e-305))])
def test_spheroid_forms_at_axis_ratios_below_the_float_range(fn, args, axes):
    # the axis ratio t rounded to 0.0 or to a subnormal: oblate_area raised a
    # bare ValueError from log(t); prolate_area returned 0.0 at 1e-315 and was
    # 1.0e-4 off at 1e-310 and 9.5e-11 at 1e-305.  surface_area scaled the
    # subnormal axis before the largest and was 1.4e-9 off at 1e-315
    ref = _area_ref(*axes)
    assert _area_close(fn(*args), ref)
    assert _area_close(surface_area(*axes), ref)
    assert fn(*args) == pytest.approx(surface_area(*axes), rel=1e-15)


def test_triaxial_form_domain_ends_at_the_corner():
    # at c/b = 1e-170 cos^2 phi and k'^2 both underflow: F's (pi/2, 1) corner
    with pytest.raises(DomainError):
        triaxial_area(1.0, 0.5, 1e-170)


_EXTREME_SCALES = [
    (1e150, 1e149, 1e148, 1e-15), (1e100, 1e99, 1e98, 1e-15),
    (3e-150, 2e-150, 1e-150, 1e-15), (3e-110, 2e-110, 1e-110, 1e-15),
    (1e300, 1e-100, 1e-120, 1e-16), (1e300, 1e-165, 1e-215, 1e-16),
    (7.24e307, 3.47e-165, 1.43e-215, 5e-14), (1.5e308, 1e-10, 1e-20, 1e-14)]


@pytest.mark.parametrize("a,b,c,tol", _EXTREME_SCALES,
                         ids=["-".join(map(str, row[:3])) for row in _EXTREME_SCALES])
def test_paper_forms_at_extreme_scales(a, b, c, tol):
    # Legendre's form and the ascending form squared the axes: the first two
    # triples raised DomainError (nan), the next two ZeroDivisionError.  Both
    # are triaxial_area, the ascending one on (c, b, a) of ascending axes.
    # Written as 2 pi a (a (...)) it then gave 0.0, 0.0, nan and inf at the
    # last four, where a (a y) with y = b/a underflowed and 2 pi a overflowed;
    # the last two take E near the (pi/2, 1) corner, F - (F - E) there
    assert _rel(triaxial_area(a, b, c), _area_ref(a, b, c)) <= tol


def test_complementary_amplitude_against_mpmath():
    # tan phi1 tan phi2 = 1/sqrt(1 - k^2); through acos the principal branch
    # lost accuracy as phi2 -> 0, i.e. phi1 -> pi/2
    rng = random.Random(4243)
    for i in range(400):
        phi1 = HALF_PI - 10.0 ** rng.uniform(-9.0, 0.0) if i % 2 else rng.uniform(0.0, HALF_PI)
        k = 1.0 - 10.0 ** rng.uniform(-8.0, -1.0) if i % 3 == 0 else rng.uniform(1e-3, 0.999)
        p, kk = mp.mpf(phi1), mp.mpf(k)
        ref = mp.atan2(mp.cos(p), mp.sqrt(1 - kk * kk) * mp.sin(p))
        assert _rel(complementary_amplitude(phi1, k), ref) <= 1e-14, (phi1, k)


def _imag_modulus_check(phi: float, k: float) -> None:
    f, e = imaginary_modulus_reduce(phi, k)
    m = -mp.mpf(k) ** 2
    assert _rel(f, mp.ellipf(phi, m)) <= 2e-15, (phi, k)
    assert _rel(e, mp.ellipe(phi, m)) <= 2e-15, (phi, k)


def _imag_argument_ref(phi_h: float, k: float) -> tuple:
    # F and E at modulus k' and the gudermannian amplitude atan(sinh phi_h)
    kp2 = 1 - mp.mpf(k) ** 2
    sh = mp.sinh(phi_h)
    delta = mp.atan(sh)
    f = mp.ellipf(delta, kp2)
    return (f, f - mp.ellipe(delta, kp2) + sh * mp.sqrt(1 - kp2 * mp.sin(delta) ** 2))


def _imag_argument_check(phi_h: float, k: float) -> None:
    f, e = imaginary_argument_reduce(phi_h, k)
    f_ref, e_ref = _imag_argument_ref(phi_h, k)
    assert _rel(f, f_ref) <= 2e-15, (phi_h, k)
    assert _rel(e, e_ref) <= 2e-15, (phi_h, k)


def test_imaginary_modulus_against_mpmath():
    rng = random.Random(5110)
    for _ in range(200):
        _imag_modulus_check(HALF_PI * (1.0 - rng.random()), 10.0 ** rng.uniform(-8.0, 150.0))


@pytest.mark.parametrize("k", [1e4, 1e8, 1e12, 1e100])
def test_imaginary_modulus_at_large_k(k):
    # the Jacobi imaginary-modulus map lost 3.8e-8 at 1e4 and raised DivergenceError above
    for phi in (0.3, 1.0, HALF_PI):
        _imag_modulus_check(phi, k)


def test_imaginary_argument_reference_is_the_integral():
    for phi_h, k in [(0.7, 0.3), (3.0, 0.5), (6.0, 0.999)]:
        m = mp.mpf(k) ** 2
        f_ref, e_ref = _imag_argument_ref(phi_h, k)
        assert _rel(f_ref, mp.quad(lambda t: 1 / mp.sqrt(1 + m * mp.sinh(t) ** 2),
                                   [0, phi_h])) <= 1e-30
        assert _rel(e_ref, mp.quad(lambda t: mp.sqrt(1 + m * mp.sinh(t) ** 2),
                                   [0, phi_h])) <= 1e-30


def test_imaginary_argument_against_mpmath():
    rng = random.Random(5111)
    for i in range(200):
        gap = 10.0 ** rng.uniform(-8.0, -0.3)
        _imag_argument_check(10.0 ** rng.uniform(-8.0, math.log10(700.0)),
                             gap if i % 2 else 1.0 - gap)


@pytest.mark.parametrize("phi_h", [20.0, 30.0, 37.0, 300.0])
def test_imaginary_argument_at_large_phi_hyp(phi_h):
    # the atan/tan round trip of the amplitude lost e: 5.2e-9 at 20, 1.8 at 37, all of it above 40
    _imag_argument_check(phi_h, 0.5)


@pytest.mark.parametrize("e1,e2", [(0.6, 0.3), (0.8, 0.5), (0.45, 0.4), (0.9, 0.05),
                                   (0.99, 0.98)])
def test_maclaurin_derivative_against_mpmath(e1, e2):
    # the odd derivatives of F(arcsin x, k) are the even ones of its derivative
    k = mp.mpf(e2) / e1
    coeffs = mp.taylor(lambda x: 1 / mp.sqrt((1 - x * x) * (1 - k * k * x * x)), 0, 22)
    for m in range(12):
        assert _rel(f_maclaurin_derivative(m, e1, e2),
                    coeffs[2 * m] * mp.factorial(2 * m)) <= 1e-14, m


@pytest.mark.parametrize("m,e1,e2", [(2, 1e-200, 5e-201), (10, 1e-20, 5e-21),
                                     (80, 0.01, 0.005)])
def test_maclaurin_derivative_where_the_coefficient_underflows(m, e1, e2):
    # A_{2m+1} ~ e1^(2m) underflowed: the first two returned 0.0, the last was 9.3% off.
    # The reference is (2m)! times the Cauchy product of the two series
    # (1 - t)^(-1/2) = sum binomial(2i, i) (t/4)^i at t = x^2 and t = k^2 x^2.
    k2 = (mp.mpf(e2) / e1) ** 2
    ref = mp.factorial(2 * m) / mp.mpf(4) ** m * mp.fsum(
        mp.binomial(2 * i, i) * mp.binomial(2 * (m - i), m - i) * k2 ** i for i in range(m + 1))
    assert _rel(f_maclaurin_derivative(m, e1, e2), ref) <= 1e-14


# Closed formulas of the identities, evaluated in mpmath; m is the parameter k^2.


def _i1_ref(alpha, k):
    m, kp2, ca2 = k * k, 1 - k * k, 1 - alpha * alpha
    s2 = kp2 + m * alpha * alpha
    lam = mp.asin(alpha / mp.sqrt(s2))
    return mp.pi / 4 * (alpha * mp.sqrt(ca2) / (s2 * s2)
                        + alpha * alpha * mp.ellipe(lam, m) / (kp2 * s2 ** 1.5)
                        + ca2 * mp.ellipf(lam, m) / s2 ** 1.5)


def _i1_barred_ref(alpha, kbar):
    m, diff = kbar * kbar, kbar * kbar - alpha * alpha
    lam = mp.asin(alpha / kbar)
    return mp.pi / 4 * (alpha * mp.sqrt(1 - alpha * alpha) / (m * diff)
                        + mp.ellipf(lam, m) / (m * mp.sqrt(diff))
                        + alpha * alpha * mp.ellipe(lam, m) / (m * diff ** 1.5))


def _pr3_d_barred_ref(alpha, kbar):
    # K - D at modulus alpha/kbar, with D = (K - E)/m
    m = (alpha / kbar) ** 2
    k, e = mp.ellipk(m), mp.ellipe(m)
    return mp.pi * alpha / (2 * kbar * mp.sqrt(kbar * kbar - alpha * alpha)) * (k - (k - e) / m)


def _pr3_d_ref(alpha, z):
    # (K - E)/m = D(k) = R_D(0, k'^2, 1)/3 (DLMF 19.25.1), in k'^2 = z^2/hyp,
    # which stays distinct from 0 where m rounds to 1 at 50 digits
    hyp = z * z + alpha * alpha
    return mp.pi * alpha / (2 * hyp) * mp.elliprd(0, z * z / hyp, 1) / 3


def _log_f_ref(eps, alpha, beta):
    return mp.pi / beta * mp.ellipf(mp.asin(beta / eps), (alpha / beta) ** 2)


def _log_q2_ref(eps, alpha, beta):
    phi, m = mp.asin(beta / eps), (alpha / beta) ** 2
    root = mp.sqrt((eps * eps - alpha * alpha) * (eps * eps - beta * beta))
    return mp.pi * (eps - root / eps) + mp.pi * beta * (mp.ellipf(phi, m) - mp.ellipe(phi, m))


def _pseudo_ref(e1, e2):
    return mp.pi / 2 * (1 - e1 * e2 - mp.sqrt((1 - e1 * e1) * (1 - e2 * e2)))


def _i3_ref(nu, k):
    th, kp2 = mp.tanh(nu), 1 - k * k
    phi = mp.asin(th / k)
    fme = mp.ellipf(phi, k * k) - mp.ellipe(phi, k * k)
    return ((mp.ellipe(kp2) * mp.atanh(th / k) - mp.pi / 2 * (th + fme))
            / (kp2 * mp.sinh(nu) * mp.cosh(nu)))


def _i6_ref(nu, k):
    th, kp2 = mp.tanh(nu), 1 - k * k
    return ((mp.ellipk(kp2) * mp.atanh(th / k) - mp.pi / 2 * mp.ellipf(mp.asin(th / k), k * k))
            / (kp2 * mp.sinh(nu) * mp.cosh(nu)))


def _i4_ref(mu, k):
    # the formula cancels e^mu-sized terms, so it takes mu more digits
    with mp.workdps(mp.mp.dps + int(mu)):
        sh, ch, kp2 = mp.sinh(mu), mp.cosh(mu), 1 - k * k
        th = sh / ch
        phi, root = mp.asin(th), mp.sqrt(1 + kp2 * sh * sh)
        fme = mp.ellipf(phi, k * k) - mp.ellipe(phi, k * k)
        return -(mp.ellipe(kp2) * mp.atanh(k * th) - mp.pi / 2 * (fme + th * root)
                 - mp.pi / 2 * (ch / sh) * (1 - root)) / (kp2 * sh * ch)


def _i5_ref(mu, k):
    th, kp2 = mp.tanh(mu), 1 - k * k
    return -(mp.ellipk(kp2) * mp.atanh(k * th) - mp.pi / 2 * mp.ellipf(mp.asin(th), k * k)
             ) / (kp2 * mp.sinh(mu) * mp.cosh(mu))


def _atan_f_ref(f1, f2):
    return mp.pi / 2 * mp.ellipf(mp.atan(f1), 1 - (f2 / f1) ** 2) / f1


def _atan_e_ref(f1, f2):
    kb2, phib = 1 - (f2 / f1) ** 2, mp.atan(f1)
    return mp.pi / 2 * (mp.ellipe(phib, kb2) * f1 - (1 - mp.sqrt(1 - kb2 * mp.sin(phib) ** 2)))


def _i3_barred_ref(psi, kbar):
    m, beta = kbar * kbar, mp.atan(mp.tan(psi) / mp.sqrt(1 - kbar * kbar))
    return ((mp.ellipk(m) * beta - mp.pi / 2 * mp.ellipf(beta, m))
            / (m * mp.sin(psi) * mp.cos(psi)))


def _i2_barred_ref(psi, kbar):
    m, sp, cp = kbar * kbar, mp.sin(psi), mp.cos(psi)
    beta, root = mp.atan(mp.tan(psi) / mp.sqrt(1 - m)), mp.sqrt(1 - m * cp * cp)
    return ((mp.ellipe(m) * beta - mp.pi / 2 * mp.ellipe(beta, m)
             + mp.pi / 2 * (sp / cp / root) * (1 - root)) / (m * sp * cp))


def _gr_e_sin_ref(xi, kbar):
    # 1 - root cancels the decades of m sin^2 xi, of kbar and xi together, so it
    # takes them as digits more: from the one farthest from 1 alone this was
    # 3 pi/8 at XiKBar(1e-100, 1e-100) and XiKBar(1e-300, 1e-200), not pi/8
    m, sx, cx = kbar * kbar, mp.sin(xi), mp.cos(xi)
    with mp.workdps(mp.mp.dps + max(0, int(-mp.log10(m * sx * sx)))):
        root = mp.sqrt(1 - m * sx * sx)
        return -(mp.ellipe(m) * mp.atan(mp.sqrt(1 - m) * mp.tan(xi)) - mp.pi / 2 * mp.ellipe(xi, m)
                 + mp.pi / 2 * (cx / sx) * (1 - root)) / (m * sx * cx)


def _gr_f_sin_ref(xi, kbar):
    m = kbar * kbar
    return -(mp.ellipk(m) * mp.atan(mp.sqrt(1 - m) * mp.tan(xi)) - mp.pi / 2 * mp.ellipf(xi, m)
             ) / (m * mp.sin(xi) * mp.cos(xi))


_IDENTITY_REFS = {IdentityId.I1: _i1_ref, IdentityId.I1_BARRED: _i1_barred_ref,
                  IdentityId.PR3_D_BARRED: _pr3_d_barred_ref,
                  IdentityId.PR3_D: _pr3_d_ref, IdentityId.LOG_F: _log_f_ref,
                  IdentityId.LOG_Q2: _log_q2_ref, IdentityId.PSEUDO: _pseudo_ref,
                  IdentityId.I3: _i3_ref, IdentityId.I4: _i4_ref, IdentityId.I5: _i5_ref,
                  IdentityId.I6: _i6_ref, IdentityId.ATAN_F: _atan_f_ref,
                  IdentityId.ATAN_E: _atan_e_ref, IdentityId.I3_BARRED: _i3_barred_ref,
                  IdentityId.I2_BARRED: _i2_barred_ref, IdentityId.GR_E_SIN: _gr_e_sin_ref,
                  IdentityId.GR_F_SIN: _gr_f_sin_ref}


def _identity_ref(ident, params):
    # two more digits for each decade of the parameter farthest from 1: at a
    # fixed precision 1 - k^2 rounds to 1 once k is small enough (from k = 1e-20
    # at 40 digits, where I6 read 3.5e-4 "off"), and 1 - (f2/f1)^2 once f2/f1 is
    # (at FBar(1e30, 1.0) and 50 digits, from the smallest parameter alone, the
    # ATAN_F reference was 1.3% off)
    digits = 50 + 2 * round(max(abs(math.log10(v)) for v in params))
    with mp.workdps(digits):
        return _IDENTITY_REFS[ident](*(mp.mpf(v) for v in params))


def _kernel_integral(leg, coef, m):
    # the defining integral of the eight kernel identities, with leg = E or F at
    # parameter m and the kernel coefficient coef of _KERNELS; for a large coef
    # the weight's peak of width 1/sqrt(coef) at u = 0 gets its own panels
    # (on [0, pi/2] alone mpmath was 2.2e-9 off at MuK(19, 0.95))
    cuts = [u for u in (x / mp.sqrt(coef) for x in (0.01, 1, 100)) if u < 0.5] if coef > 1 else []
    return mp.quad(lambda u: leg(u, m) * mp.sin(u) * mp.cos(u)
                   / ((1 + coef * mp.sin(u) ** 2) * mp.sqrt(1 - m * mp.sin(u) ** 2)),
                   [0, *cuts, mp.pi / 2])


# (m, coef) of each kernel class: m = k'^2 for I3/I6 and I4/I5 (modulus k'),
# kbar^2 for I2_BARRED/I3_BARRED (cos psi) and GR_E_SIN/GR_F_SIN (sin xi)
_KERNELS = {
    NuK: lambda nu, k: (1 - k * k, -(1 - k * k) * mp.cosh(nu) ** 2),
    MuK: lambda mu, k: (1 - k * k, (1 - k * k) * mp.sinh(mu) ** 2),
    PsiKBar: lambda psi, kbar: (kbar * kbar, -(kbar * kbar) * mp.cos(psi) ** 2),
    XiKBar: lambda xi, kbar: (kbar * kbar, -(kbar * kbar) * mp.sin(xi) ** 2),
}
_E_LEGS = (IdentityId.I3, IdentityId.I4, IdentityId.I2_BARRED, IdentityId.GR_E_SIN)


def _kernel_ref(ident, params):
    # the defining integral of a kernel identity at params, to 25 digits
    with mp.workdps(25):
        m, coef = _KERNELS[type(params)](*(mp.mpf(v) for v in params))
        return _kernel_integral(mp.ellipe if ident in _E_LEGS else mp.ellipf, coef, m)


def _pair_integral(g, lo, hi):
    # integral of g(q) / sqrt((hi^2 - q^2)(q^2 - lo^2)) over (lo, hi)
    return mp.quad(lambda q: g(q) / mp.sqrt((hi * hi - q * q) * (q * q - lo * lo)), [lo, hi])


def test_identity_references_are_the_integrals():
    alpha, z, mu, k, f1, f2 = (mp.mpf(v) for v in (0.7, 0.3, 0.8, 0.4, 2.0, 0.7))
    eps, nu, kn, psi = (mp.mpf(v) for v in (3.0, 0.3, 0.6, 1.1))
    (sinh_m, sinh_coef), (cosh_m, cosh_coef) = _KERNELS[MuK](mu, k), _KERNELS[NuK](nu, kn)
    psi_m, psi_coef = _KERNELS[PsiKBar](psi, kn)
    xi_m, xi_coef = _KERNELS[XiKBar](psi, kn)
    cases = [
        (IdentityId.I1, (alpha, k), _pair_integral(
            lambda u: u * u * mp.ellipe(u * u) / (1 - k * k + k * k * u * u) ** 2, 0, alpha)),
        (IdentityId.I1_BARRED, (z, kn), _pair_integral(
            lambda u: u * u * mp.ellipe(u * u) / (kn * kn - u * u) ** 2, 0, z)),
        (IdentityId.PR3_D_BARRED, (z, kn), _pair_integral(
            lambda u: u * u * mp.ellipe((u / z) ** 2) / (kn * kn - u * u), 0, z)),
        (IdentityId.PR3_D, (alpha, z), _pair_integral(
            lambda u: u * u * mp.ellipe((u / alpha) ** 2) / (z * z + u * u), 0, alpha)),
        (IdentityId.LOG_Q2, (eps, alpha, z + alpha), _pair_integral(
            lambda q: q * q * mp.log((eps + q) / (eps - q)), alpha, z + alpha)),
        (IdentityId.I3, (nu, kn), _kernel_integral(mp.ellipe, cosh_coef, cosh_m)),
        (IdentityId.I4, (mu, k), _kernel_integral(mp.ellipe, sinh_coef, sinh_m)),
        (IdentityId.I5, (mu, k), _kernel_integral(mp.ellipf, sinh_coef, sinh_m)),
        (IdentityId.I6, (nu, kn), _kernel_integral(mp.ellipf, cosh_coef, cosh_m)),
        (IdentityId.I3_BARRED, (psi, kn), _kernel_integral(mp.ellipf, psi_coef, psi_m)),
        (IdentityId.I2_BARRED, (psi, kn), _kernel_integral(mp.ellipe, psi_coef, psi_m)),
        (IdentityId.GR_E_SIN, (psi, kn), _kernel_integral(mp.ellipe, xi_coef, xi_m)),
        (IdentityId.GR_F_SIN, (psi, kn), _kernel_integral(mp.ellipf, xi_coef, xi_m)),
        (IdentityId.PSEUDO, (f2, z), _pair_integral(
            lambda q: (f2 * f2 - q * q) * (q * q - z * z) / (q * (1 - q * q)), z, f2)),
        (IdentityId.ATAN_F, (f1, f2), _pair_integral(mp.atan, f2, f1)),
        (IdentityId.ATAN_E, (f1, f2), _pair_integral(lambda q: q * q * mp.atan(q), f2, f1)),
    ]
    for ident, params, integral in cases:
        assert _rel(integral, _IDENTITY_REFS[ident](*params)) <= 1e-20, ident


# the costliest grid-5 node of the cosh and sinh kernels, the five mu = 19
# nodes of the sinh kernel (where the Landen oracle stopped after one panel
# on the absolute floor, up to 9.0e-5 off) and the kbar = 0.95 nodes of the
# cos psi and sin xi kernels, where the oracle bisects most
_PAIRED_LEG_NODES = (
    ((IdentityId.I3, IdentityId.I6), [NuK(0.04753577239771839, 0.05)]),
    ((IdentityId.I4, IdentityId.I5), [MuK(2.6363636363636376, 0.05)]
     + [p for p in grid_params(IdentityId.I4, 5) if p.mu > 18.0]),
    ((IdentityId.I2_BARRED, IdentityId.I3_BARRED),
     [p for p in grid_params(IdentityId.I2_BARRED, 5) if p.kbar > 0.9]),
    ((IdentityId.GR_E_SIN, IdentityId.GR_F_SIN),
     [p for p in grid_params(IdentityId.GR_E_SIN, 5) if p.kbar > 0.9]),
)


@pytest.mark.parametrize("ident,params", [
    (ident, params) for pair, nodes in _PAIRED_LEG_NODES for params in nodes for ident in pair],
    ids=lambda v: v.value if isinstance(v, IdentityId) else repr(tuple(v)))
def test_paired_kernel_legs_against_the_integral(ident, params):
    # both legs of a kernel pair come from one shared quadrature; each must
    # match the defining integral on its own
    assert params in grid_params(ident, 5)
    assert _rel(oracle_value(ident, params).value, _kernel_ref(ident, params)) <= 1e-12


@pytest.mark.parametrize("ident,params", [
    # the Landen oracle's budget ran out here: NonConvergenceError
    (IdentityId.I3, NuK(math.atanh(0.5e-6), 1e-6)),
    (IdentityId.I6, NuK(math.atanh(0.5e-6), 1e-6)),
], ids=lambda v: v.value if isinstance(v, IdentityId) else repr(tuple(v)))
def test_kernel_oracle_off_the_grid_against_the_integral(ident, params):
    assert _rel(oracle_value(ident, params).value, _kernel_ref(ident, params)) <= 1e-12


@pytest.mark.parametrize("params", [
    # log((eps+u)/(eps-u)) rounded its quotient near 1: 2.5e-2 off, then
    # NonConvergenceError, then 5.7e-12 off
    EpsAB(0.7, 1.907e-15, 1.918e-15), EpsAB(1.0, 1e-9, 2e-9), EpsAB(1.0, 1e-6, 2e-6),
], ids=repr)
def test_log_oracle_at_small_u_over_eps(params):
    for ident in (IdentityId.LOG_F, IdentityId.LOG_Q2):
        assert _rel(oracle_value(ident, params).value, _identity_ref(ident, params)) <= 1e-15


_THIN_BISECTED = EpsAB(1.0, 0.9999999739198002, 0.9999999999999989)


@pytest.mark.parametrize("ident,params", [
    # e1^2 - q^2 and q^2 - e2^2 rebuilt from the rounded q: 14.8%, 4.6e-8 and 4.8% off
    (IdentityId.PSEUDO, E1E2(1.3044041976686021e-12, 1.3044041976686003e-12)),
    (IdentityId.PSEUDO, E1E2(0.5, 0.4999999995)),
    (IdentityId.PSEUDO, E1E2(1.2166e-13, 1.2166e-13 * (1 - 5.7e-15))),
] + [(ident, params) for params in (
    # eps - q rebuilt from the rounded q: 6.8e-8 off after 174,945 evaluations and
    # 7.4e-6 after 28,125, then NonConvergenceError at the last two
    EpsAB(3.7, 3.6999999999630777, 3.6999999999633792),
    EpsAB(0.7, 0.6999999999999585, 0.6999999999999643),
    EpsAB(1.0, 0.9999999991809817, 0.99999999953183),
    _THIN_BISECTED,
) for ident in (IdentityId.LOG_F, IdentityId.LOG_Q2)],
    ids=lambda v: v.value if isinstance(v, IdentityId) else repr(v))
def test_singular_pair_oracles_on_thin_intervals(ident, params):
    # each meets in its 21-point first panel but the LOG rows at eps = 1.0,
    # alpha = 0.9999999739198002, which bisect into GK15's 375 and the root's 6
    res = oracle_value(ident, params)
    assert _rel(res.value, _identity_ref(ident, params)) <= 1e-13
    assert res.evaluations == (381 if params == _THIN_BISECTED else 21)


@pytest.mark.parametrize("ident,params,tol", [
    # c0 = 1 - k^2 rounded in the I1 weight: 5.0e-10, 1.1e-11 and 5.0e-13 off
    (IdentityId.I1, AlphaK(1 - 1e-9, 1 - 1e-9), 1e-13),
    (IdentityId.I1, AlphaK(0.5, 1 - 1e-6), 1e-13),
    (IdentityId.I1, AlphaK(0.5, 1 - 1e-12), 1e-13),
    # alpha -> kbar: 4.4e-12 and 6.6e-12 off at 1 - 1e-6, NonConvergenceError at 1 - 1e-9
    (IdentityId.I1_BARRED, AlphaKBar(0.5 * (1 - 1e-6), 0.5), 1e-12),
    (IdentityId.I1_BARRED, AlphaKBar(0.5 * (1 - 1e-9), 0.5), 1e-12),
    (IdentityId.PR3_D_BARRED, AlphaKBar(0.5 * (1 - 1e-6), 0.5), 1e-12),
    (IdentityId.PR3_D_BARRED, AlphaKBar(0.5 * (1 - 1e-9), 0.5), 1e-12),
    # h(a^2) - h(M) cancels as |R|/Q -> 0; taken as the plain difference it
    # was 1.8e-11 off at z = 300 and ran out of budget at 3e4
    (IdentityId.PR3_D, AlphaZ(1.0, 300.0), 1e-13),
    (IdentityId.PR3_D, AlphaZ(1.0, 3e4), 1e-13),
    (IdentityId.PR3_D_BARRED, AlphaKBar(1e-4, 0.5), 1e-13),
    # sqrt(cos^2 theta + kbar'^2 sin^2 theta) kinks at theta = pi/2 as kbar -> 1, which
    # one ungraded panel did not see: 2.2e-11 off with an estimate of 5.7e-14; then
    # 1.7e-12 off with an estimate of 3.1e-13 under theta = (pi/2) sin tau
    (IdentityId.I1_BARRED, AlphaKBar(0.999999999998, 0.999999999999), 1e-15),
], ids=lambda v: v.value if isinstance(v, IdentityId) else repr(v))
def test_weighted_e_oracle_at_class_edges(ident, params, tol):
    res = oracle_value(ident, params)
    err = abs(res.value - _identity_ref(ident, params))
    assert err <= tol * abs(res.value)
    assert err <= res.error_estimate


_GRADED = (IdentityId.I1, IdentityId.I1_BARRED, IdentityId.I3, IdentityId.I6,
           IdentityId.I4, IdentityId.I5, IdentityId.PSEUDO)


@pytest.mark.parametrize("grid", [5, 10])
@pytest.mark.parametrize("ident", _GRADED, ids=lambda v: v.value)
def test_sinh_mapped_oracles_at_the_grid_nodes(ident, grid):
    # the rows that take quadrature._graded's sinh map; before it I4/I5 were up
    # to 1.1e-13 off at grid 5
    for params in grid_params(ident, grid):
        assert _rel(oracle_value(ident, params).value, _identity_ref(ident, params)) <= 2e-15


@pytest.mark.parametrize("ident", list(IdentityId), ids=lambda v: v.value)
def test_every_oracle_at_the_grid_5_nodes(ident):
    # the oracle's error_estimate bounds its true error at every node the
    # benchmark's verify sweep integrates, and the value is within 1e-12
    for params in grid_params(ident, 5):
        res = oracle_value(ident, params)
        err = abs(res.value - _identity_ref(ident, params))
        assert err <= res.error_estimate
        assert err <= 1e-12 * abs(res.value)


# each with the evaluations it takes, kept out of the test ids
_SINH_MAP_EVALS = {
    # the sinh kernel's peak at t = 0, width 2e^-mu/k': left in t it takes 741 and
    # 1,071 evaluations, and is 1.2e-13 off
    (IdentityId.I4, MuK(19.0, 0.5)): 162, (IdentityId.I5, MuK(19.0, 0.5)): 162,
    (IdentityId.I4, MuK(40.0, 0.5)): 222, (IdentityId.I5, MuK(40.0, 0.5)): 222,
    # PSEUDO's fall at t = pi/2, width sqrt((1 - e1^2)/span), escaped GK15: 5.8e-6 off
    # in 15 evaluations
    (IdentityId.PSEUDO, E1E2(0.9999999999993765, 0.9277479406643732)): 192,
    # PSEUDO's integrand was of the order of its value, about 4e-16 here, so it
    # stopped on integrate's absolute floor after one panel: 6.7e-5 and 3.2e-6 off
    (IdentityId.PSEUDO, E1E2(2.3121601631636408e-08, 1.5558801451695426e-09)): 111,
    (IdentityId.PSEUDO, E1E2(1e-8, 1e-9)): 81,
    # and returned 0.0 where the squares of q underflowed
    (IdentityId.PSEUDO, E1E2(1e-150, 1e-151)): 81,
}


@pytest.mark.parametrize("ident,params", list(_SINH_MAP_EVALS),
                         ids=lambda v: v.value if isinstance(v, IdentityId) else repr(v))
def test_sinh_mapped_oracles_where_gk15_in_t_failed(ident, params):
    res = oracle_value(ident, params)
    ref = _identity_ref(ident, params)
    assert _rel(res.value, ref) <= 1e-15
    assert abs(res.value - ref) <= res.error_estimate
    assert res.evaluations == _SINH_MAP_EVALS[ident, params]


# PSEUDO's rise at t = 0 and its fall at pi/2 are both narrow here, so each half
# of (0, pi/2) takes the map toward its own end; GK15 in t was 1.5e-7 off in 15
# evaluations and 1.0e-10 off in 585
_BOTH_ENDS_EVALS = {E1E2(0.99999999999999, 1e-08): 162, E1E2(0.999999999999, 1e-10): 252}


@pytest.mark.parametrize("params", list(_BOTH_ENDS_EVALS), ids=repr)
def test_pseudo_oracle_with_both_ends_narrow(params):
    res = oracle_value(IdentityId.PSEUDO, params)
    assert _rel(res.value, _identity_ref(IdentityId.PSEUDO, params)) <= 5e-15
    assert res.evaluations == _BOTH_ENDS_EVALS[params]


def test_pseudo_oracle_below_the_float_range():
    # e1^2 - e2^2 underflowed to 0.0: a bare ZeroDivisionError.  The value is 6.4e-601
    params = E1E2(1e-300, 1e-301)
    oracle = oracle_value(IdentityId.PSEUDO, params).value
    assert oracle == closed_value(IdentityId.PSEUDO, params) == 0.0


@pytest.mark.parametrize("params", [
    # the F member atan(q)/q integrates to about log(f1)/f1, so integrate's
    # absolute floor stopped it: 6.9e-7 off with a relative estimate of 6.8e-4,
    # then 7.9e-11 and 3.9e-9 off, and 90% off after one panel at f1 = 1e30
    FBar(200159983438687.72, 1578401653.9949102), FBar(3e12, 1e3), FBar(1e14, 0.5),
    FBar(1e30, 1.0),
    # q over 2^e has (f2/f1)^2 below the normal range in the singular pair: a
    # bare ZeroDivisionError, then NonFiniteIntegrandError at the first two and
    # the budget spent at the third, where (f2/f1)^2 is a subnormal
    FBar(1e200, 1.0), FBar(1e300, 1e100), FBar(1e160, 1.0), FBar(1e155, 1e-10),
], ids=repr)
def test_atan_oracle_at_large_f1(params):
    for ident in (IdentityId.ATAN_F, IdentityId.ATAN_E):
        res = oracle_value(ident, params)
        ref = _identity_ref(ident, params)
        assert _rel(res.value, ref) <= 1e-14
        assert abs(res.value - ref) <= res.error_estimate


@pytest.mark.parametrize("z", [1e-150, 1e-160, 1e-200])
def test_pr3_d_oracle_at_small_z(z):
    # alpha sin t underflowed in the substitution: 15,015 evaluations at
    # 1e-150, then a bare ZeroDivisionError.  log(1 - a^2) takes log z, not
    # the subnormal or zero z^2
    params = AlphaZ(1.0, z)
    res = oracle_value(IdentityId.PR3_D, params)
    assert _rel(res.value, closed_value(IdentityId.PR3_D, params)) <= 1e-12
    assert res.evaluations <= 45


@pytest.mark.parametrize("k", [1e-4, 1e-6, 1e-8, 1e-50, 1e-292])
def test_i3_at_small_k(k):
    # E(k') as k' -> 1 was K(k') (1 - sum), which cancels: 7.0e-15 off at
    # k = 1e-50 and 6.6e-14 at 1e-292, where I3 is now within 2e-16
    params = NuK(math.atanh(0.5 * k), k)
    assert _rel(closed_value(IdentityId.I3, params), _identity_ref(IdentityId.I3, params)) <= 1e-14


# NuK's edge tanh(nu) = k: the two rows where the rounded gap k - tanh(nu) made
# I6's closed form 3.0e-6 off and raised DomainError (and its oracle 3.9e-6 and
# 3.9e-3 off), a gap of one ulp, and relative gaps 1e-4 to 1e-14 at four k
_TANH_EDGE = [NuK(0.5264602842017002, 0.482670667967035), NuK(1.4722194895832188, 0.9),
              NuK(0.5493061443340548, 0.5)] + [
    NuK(math.atanh(k * (1.0 - gap)), k) for k in (0.1, 0.5, 0.9, 0.99)
    for gap in (1e-4, 1e-6, 1e-9, 1e-12, 1e-14)]


@pytest.mark.parametrize("params", _TANH_EDGE, ids=repr)
def test_tanh_gap_against_mpmath(params):
    # below 1e-3 k the gap is formed in decimal, and rounded once
    nu, k = params
    gap = identities._tanh_gap(nu, k)
    assert gap < 1e-3 * k
    with mp.workdps(60):
        assert _rel(gap, mp.mpf(k) - mp.tanh(mp.mpf(nu))) <= 2.0 ** -53


def _newly_admitted() -> list:
    # the points within 6 ulps of atanh k that NuK admits and the rounded
    # tanh(nu) < k refused
    out = []
    for k in (0.1, 0.3, 0.454546663076062, 0.7, 0.9, 0.99):
        nu = math.atanh(k)
        for _ in range(6):
            nu = math.nextafter(nu, 0.0)
        for _ in range(13):
            try:
                out += [NuK(nu, k)] if math.tanh(nu) >= k else []
            except DomainError:
                pass
            nu = math.nextafter(nu, math.inf)
    return out


def test_cosh_kernel_where_only_the_rounded_tanh_was_outside_the_class():
    points = _newly_admitted()
    assert len(points) == 12
    for params in points:
        for ident in (IdentityId.I3, IdentityId.I6):
            ref = _identity_ref(ident, params)
            assert _rel(closed_value(ident, params), ref) <= 1e-15, (ident, params)
            assert _rel(oracle_value(ident, params).value, ref) <= 2e-14, (ident, params)


@pytest.mark.parametrize("x", [4.07e-103, 1e-50, 1e-20, 1e-9])
def test_cosh_closed_forms_at_nu_equal_to_k(x):
    # tanh(nu) rounds to nu = k, but the exact gap nu^3/3 is positive and normal:
    # inside NuK, and both closed forms read it from _tanh_gap
    params = NuK(x, x)
    for ident in (IdentityId.I3, IdentityId.I6):
        assert _rel(closed_value(ident, params), _identity_ref(ident, params)) <= 1e-15


@pytest.mark.parametrize("kbar", [0.5, 0.9, 1.0 - 2.0 ** -53])
def test_psi_xi_rows_at_half_pi(kbar):
    # HALF_PI, the float nearest pi/2, lies below it and is inside both classes
    for cls in (PsiKBar, XiKBar):
        params = cls(HALF_PI, kbar)
        for ident in (i for i, e in REGISTRY.items() if e.params_cls is cls):
            ref = _identity_ref(ident, params)
            assert _rel(closed_value(ident, params), ref) <= 2e-15, ident
            assert _rel(oracle_value(ident, params).value, ref) <= 1e-15, ident


@pytest.mark.parametrize("params", _TANH_EDGE, ids=repr)
def test_cosh_kernel_at_the_tanh_edge(params):
    for ident in (IdentityId.I3, IdentityId.I6):
        ref = _identity_ref(ident, params)
        res = oracle_value(ident, params)
        assert _rel(closed_value(ident, params), ref) <= 1e-14
        assert _rel(res.value, ref) <= 1e-14
        assert abs(res.value - ref) <= res.error_estimate


@pytest.mark.parametrize("ident", [IdentityId.I3, IdentityId.I6])
@pytest.mark.parametrize("k", [2e-8, 5e-9, 1e-9, 1e-12, 1e-40, 1e-100])
@pytest.mark.parametrize("f", [0.01, 0.5, 0.99])
def test_cosh_kernel_closed_forms_at_small_k(ident, k, f):
    # k' cosh(nu) >= 1, NuK's own condition squared, was tested again after
    # rounding and raised for every one of these from k = 5e-9 down
    params = NuK(math.atanh(f * k), k)
    assert _rel(closed_value(ident, params), _identity_ref(ident, params)) <= 1e-13


@pytest.mark.parametrize("params", [
    NuK(nu, k) for k in (0.05, 0.5, 0.9) for nu in (1e-320, 7e-9, math.atanh(0.99 * 2.0 ** -27 * k))
] + [NuK(7e-9, 1e-4)], ids=repr)
def test_cosh_kernel_closed_forms_at_small_nu(params):
    # sinh(nu) cosh(nu) is a subnormal at nu = 1e-320, and the general forms were
    # 3.7e-5 (I3) and 3.5e-6 (I6) off at k = 0.5, 8.7e-4 and 3.8e-3 at 0.9.  Below
    # tanh(nu)/k = 2^-27 (the third nu, just below) both are their nu -> 0
    # limits, within a relative (tanh(nu)/k)^2/3: at nu = 7e-9 the limit would be
    # 8e-15 off at k = 0.05 and 1.8e-9 at k = 1e-4, so there the general form stays
    for ident in (IdentityId.I3, IdentityId.I6):
        assert _rel(closed_value(ident, params), _identity_ref(ident, params)) <= 5e-15


def test_cosh_kernel_closed_forms_at_the_least_nu():
    # 1/(k'^2 sinh(nu) cosh(nu)) divided by 0.0: a bare ZeroDivisionError.  The
    # limit holds no more digits than K(k') - pi/2 keeps as k -> 1: 3.0e-7 off here
    params = NuK(1e-323, 0.9999999997882961)
    for ident in (IdentityId.I3, IdentityId.I6):
        assert math.isfinite(closed_value(ident, params))


@pytest.mark.parametrize("params", [PsiKBar(0.6799, 3.3e-253), XiKBar(1.45e-292, 5.76e-132)],
                         ids=repr)
def test_atan_kernel_pairs_below_the_normal_range(params):
    # kbar^2 sin cos underflowed to 0: a bare ZeroDivisionError from both sides
    # of all four rows.  The closed forms divide by it and raise DomainError
    # below its normal range; the oracle's weight is its limit there.  As
    # kbar -> 0, F and E at amplitude u are u, and every row is the integral of
    # u sin u cos u over (0, pi/2), pi/8, whatever psi or xi
    for ident in IdentityId:
        if REGISTRY[ident].params_cls is type(params):
            with pytest.raises(DomainError):
                closed_value(ident, params)
            assert abs(oracle_value(ident, params).value - math.pi / 8.0) <= 1e-15


@pytest.mark.parametrize("params", [XiKBar(1e-100, 1e-100), XiKBar(1e-300, 1e-200)], ids=repr)
def test_gr_e_sin_reference_where_kbar_and_xi_are_both_tiny(params):
    # as kbar -> 0 every psi/xi row is pi/8; GR_E_SIN's reference read 3 pi/8 here
    assert abs(_identity_ref(IdentityId.GR_E_SIN, params) - math.pi / 8.0) <= 1e-16


# kbar -> 1 at angles from 1e-8 to the last float below pi/2, where the F leg's
# 1/D peak at u = pi/2 narrows to kbar' = 1.5e-8: with that end left in t the
# estimate did not bound the error (I3_BARRED at PsiKBar(1e-08, 1 - 2^-53) was
# 3.1e-11 off with an estimate of 1.5e-12, GR_F_SIN at XiKBar(1.5707963267948963,
# 1 - 2^-53) 2.6e-11 off with 1.6e-12), in 25,080 evaluations over these 80 rows
_ATAN_KERNEL_ROWS = [
    (ident, cls(angle, kbar))
    for cls, idents in ((PsiKBar, (IdentityId.I2_BARRED, IdentityId.I3_BARRED)),
                        (XiKBar, (IdentityId.GR_E_SIN, IdentityId.GR_F_SIN)))
    for kbar in (1.0 - 2.0 ** -53, 1.0 - 1e-12, 0.999, 0.5, 1e-4)
    for angle in (1e-8, 0.3, 1.2, 1.5707963267948963) for ident in idents]


def test_atan_kernel_oracles_as_kbar_tends_to_one():
    evals = 0
    for ident, params in _ATAN_KERNEL_ROWS:
        res = oracle_value(ident, params)
        ref = _identity_ref(ident, params)
        err = abs(res.value - ref)
        assert err <= res.error_estimate, (ident, params)
        assert err <= 1e-12 * abs(ref), (ident, params)
        evals += res.evaluations
    assert evals == 8_520


def _no_quadrature(*args):
    raise AssertionError("the oracle integrated past its stated limit")


_SMALL_K_PAIRS = {NuK: (IdentityId.I3, IdentityId.I6), MuK: (IdentityId.I4, IdentityId.I5)}


@pytest.mark.parametrize("params", [
    # the F leg peaks with width k at u = pi/2: without a limit the cosh
    # oracle was 1.2e-10 off at the first point, 1.8e-10 at k = 1e-8 and 83%
    # at 1e-100, after 381,195 evaluations; the sinh oracle was 5.4e-9 off at
    # MuK(0.73, 6e-10), and at MuK(0.5, 1e-10) one panel that never sampled
    # the peak estimated 4.9e-11
    NuK(math.atanh(0.94 * 2.5e-8), 2.5e-8),
    NuK(math.atanh(0.5e-8), 1e-8), NuK(math.atanh(0.5e-10), 1e-10),
    NuK(math.atanh(0.5e-14), 1e-14), NuK(math.atanh(0.5e-100), 1e-100),
    MuK(0.73, 6e-10), MuK(3.0, 3e-10), MuK(0.5, 1e-10),
], ids=repr)
def test_kernel_oracles_raise_below_their_small_k_limit(params, monkeypatch):
    monkeypatch.setattr(quadrature, "integrate", _no_quadrature)
    for ident in _SMALL_K_PAIRS[type(params)]:
        with pytest.raises(DomainError):
            oracle_value(ident, params)


@pytest.mark.parametrize("ident", [IdentityId.I3, IdentityId.I6])
@pytest.mark.parametrize("k", [5e-8, 1e-7])  # the limit, and above it
@pytest.mark.parametrize("f", [0.01, 0.5, 0.99])
def test_cosh_kernel_oracle_down_to_its_limit(ident, k, f):
    params = NuK(math.atanh(f * k), k)
    assert _rel(oracle_value(ident, params).value, _identity_ref(ident, params)) <= ORACLE_TOL


@pytest.mark.parametrize("params", [
    # z over 2^e, e from alpha, went subnormal or 0: 7.7e-8, 7.1e-13 and 2.1e-14 off
    # with estimates of 1.1e-14, and a DomainError quoting an AlphaZ with z = 0.0
    AlphaZ(1e300, 1e-50), AlphaZ(1e300, 1e-45), AlphaZ(1e40, 1e-275),
    AlphaZ(1e300, 1e-60), AlphaZ(1e39, 1e-290),
], ids=repr)
def test_pr3_d_oracle_raises_where_its_scaling_leaves_the_normal_range(params, monkeypatch):
    assert _rel(closed_value(IdentityId.PR3_D, params),
                _identity_ref(IdentityId.PR3_D, params)) <= 1e-15
    monkeypatch.setattr(quadrature, "integrate", _no_quadrature)
    with pytest.raises(DomainError, match=re.escape(repr(params))):
        oracle_value(IdentityId.PR3_D, params)


@pytest.mark.parametrize("ident,params", [
    # alpha^2 underflowed to 0.0 in the oracle's shape, and the gap
    # (kbar - alpha)(kbar + alpha) in both sides: bare ZeroDivisionError
    (IdentityId.PR3_D, AlphaZ(1e-200, 1e-200)),
    (IdentityId.PR3_D_BARRED, AlphaKBar(5e-201, 1e-200)),
    # R = alpha^2 underflowed alone, and J at theta = 0 divided a + m = 0 by it.
    # The oracle is 3.6e-14 off here, as at any small |R|/Q: its P log P end
    (IdentityId.PR3_D, AlphaZ(1e-200, 1.0)),
    (IdentityId.PR3_D_BARRED, AlphaKBar(1e-200, 0.9)),
    # z over 2^e, e from alpha, stays just inside the normal range
    (IdentityId.PR3_D, AlphaZ(1e300, 1e-37)),
    (IdentityId.PR3_D, AlphaZ(1e40, 1e-268)),
], ids=lambda v: v.value if isinstance(v, IdentityId) else repr(v))
def test_homogeneous_weighted_e_rows_at_tiny_scale(ident, params):
    ref = _identity_ref(ident, params)
    assert _rel(closed_value(ident, params), ref) <= 1e-12
    assert _rel(oracle_value(ident, params).value, ref) <= 1e-12


@pytest.mark.parametrize("ident,params,tol", [
    # D(k) took k = alpha/sqrt(z^2 + alpha^2): DivergenceError, then 3.1e-6 off
    (IdentityId.PR3_D, AlphaZ(1.0, 1e-9), 1e-15),
    (IdentityId.PR3_D, AlphaZ(1.0, 1e-6), 1e-15),
    # K(k') took k' = sqrt(1 - k^2): DivergenceError, then 2.3e-13 off
    (IdentityId.I5, MuK(1.0, 1e-9), 1e-15),
    (IdentityId.I5, MuK(1.0, 1e-5), 1e-15),
    # asin(sinh mu / cosh mu) raised ValueError, as the quotient rounded above 1;
    # then I4's e^mu-sized terms cancelled: 2.2e-8 off
    (IdentityId.I5, MuK(19.0, 0.5), 1e-15),
    (IdentityId.I4, MuK(19.0, 0.5), 1e-15),
    # (cosh mu / sinh mu)(1 - root) cancelled: 5.8e-8 off; then arctanh as
    # 0.5 log((1 + x)/(1 - x)) lost 1e-16/x: 7.4e-13 off
    (IdentityId.I4, MuK(1e-4, 0.5), 1e-15),
    # kbar = sqrt(1 - (f2/f1)^2) near the (pi/2, 1) corner: 2.1e-10 off
    (IdentityId.ATAN_F, FBar(1e4, 1.0), 1e-15),
    # 1 - sqrt(1 - x) cancelled: 1.2e-9 off
    (IdentityId.ATAN_E, FBar(1e-4, 5e-5), 1e-15),
    # the same arctanh: 1.0e-12 off
    (IdentityId.I5, MuK(1e-4, 0.5), 1e-15),
    # K(k') took k = sqrt(1 - k'^2): 7.5e-10, 3.2e-6 and 2.2e-2 off
    (IdentityId.I6, NuK(math.atanh(0.5e-4), 1e-4), 1e-15),
    (IdentityId.I6, NuK(math.atanh(0.5e-6), 1e-6), 1e-15),
    (IdentityId.I6, NuK(math.atanh(0.5e-8), 1e-8), 1e-15),
    # z^2 + alpha^2 overflowed (0.0 returned) or underflowed (ZeroDivisionError)
    (IdentityId.PR3_D, AlphaZ(1e200, 1e200), 1e-15),
    (IdentityId.PR3_D, AlphaZ(1e-200, 1e-200), 1e-15),
    (IdentityId.PR3_D, AlphaZ(1e155, 1e150), 1e-15),
    (IdentityId.PR3_D, AlphaZ(3e-160, 1e-160), 1e-15),
    # squares of eps, alpha and beta overflowed (nan) or underflowed (94% off)
    (IdentityId.LOG_Q2, EpsAB(3e80, 1e80, 2e80), 1e-15),
    (IdentityId.LOG_Q2, EpsAB(3e110, 1e110, 2e110), 1e-15),
    (IdentityId.LOG_Q2, EpsAB(3e160, 1e160, 2e160), 1e-15),
    (IdentityId.LOG_Q2, EpsAB(3e-80, 1e-80, 2e-80), 1e-15),
    (IdentityId.LOG_Q2, EpsAB(3e-110, 1e-110, 2e-110), 1e-15),
    (IdentityId.LOG_Q2, EpsAB(3e-160, 1e-160, 2e-160), 1e-15),
    # 1/(sinh mu cosh mu) underflowed to 0.0 for the subnormal 4.73e-309
    (IdentityId.I5, MuK(356.0, 0.5), 2e-15),
    # (alpha/z)^2 overflowed, k'^2 = 1/(1 + r^2) became 0: DomainError
    (IdentityId.PR3_D, AlphaZ(1.0, 1e-160), 1e-15),
    (IdentityId.PR3_D, AlphaZ(1.0, 1e-300), 1e-15),
    (IdentityId.PR3_D, AlphaZ(1e300, 1e-10), 1e-15),
    (IdentityId.PR3_D, AlphaZ(1e-100, 1e-260), 1e-15),
    # kbar' = sqrt(1 - kbar^2) and F(beta) from sin and cos of the rounded
    # beta: 2.4e-10 and 1.1e-9 off
    (IdentityId.I3_BARRED, PsiKBar(1.3, 0.999999999), 1e-13),
    (IdentityId.I3_BARRED, PsiKBar(0.7, 0.999999999999999), 1e-13),
    # (cx/sx)(1 - root) cancelled: 1.7e-4, 6.4e-9 and 1.5e-10 off
    (IdentityId.GR_E_SIN, XiKBar(1e-6, 0.5), 1e-14),
    (IdentityId.GR_E_SIN, XiKBar(1e-4, 0.5), 1e-14),
    (IdentityId.GR_E_SIN, XiKBar(1e-3, 0.5), 1e-14),
    # (sp/cp/root)(1 - root) cancelled: 1.5e-8 off; then 6.0e-11 from E beta -
    # (pi/2) E(beta), which cancels toward psi = pi/2, where the body now takes
    # the conjugate amplitude instead
    (IdentityId.I2_BARRED, PsiKBar(1.5707, 0.5), 1e-14),
    # the same e^mu-sized terms of I4: 6.8e-8, 1.3e-5 and 1.2e-3 off, and -0.0
    (IdentityId.I4, MuK(20.0, 0.5), 1e-15),
    (IdentityId.I4, MuK(25.0, 0.5), 1e-15),
    (IdentityId.I4, MuK(30.0, 0.5), 1e-15),
    (IdentityId.I4, MuK(40.0, 0.5), 1e-15),
    # sinh mu cosh mu overflowed to NaN; the value is a subnormal
    (IdentityId.I4, MuK(356.0, 0.5), 2e-15),
    # atanh(k tanh mu) of the rounded product raised DomainError within 1e-15 of 1
    (IdentityId.I5, MuK(20.0, 1.0 - 2.0 ** -52), 1e-15),
    (IdentityId.I4, MuK(20.0, 1.0 - 2.0 ** -52), 1e-15),
    (IdentityId.I5, MuK(40.0, 1.0 - 2.0 ** -53), 2e-15),
    (IdentityId.I4, MuK(40.0, 1.0 - 2.0 ** -53), 1e-14),
    (IdentityId.I5, MuK(20.0, 0.999999999999999), 2e-14),
    (IdentityId.I4, MuK(20.0, 0.999999999999999), 1e-15),
    # cos^2 of the amplitude as cos(asin(beta/eps))^2 of the rounded quotient:
    # 4.0e-11, 5.7e-11 and 7.8e-15 off
    (IdentityId.LOG_F, EpsAB(0.7, 0.3, 0.6999999999999), 1e-15),
    (IdentityId.LOG_Q2, EpsAB(0.7, 0.3, 0.6999999999999), 1e-15),
    (IdentityId.LOG_Q2, EpsAB(1.0, 0.5, 0.999999999), 1e-15),
    # K(x) - D(x) at x = alpha/kbar cancelled as x -> 1: 8.8e-15 and 8.9e-15 off
    (IdentityId.PR3_D_BARRED, AlphaKBar(0.5 * (1 - 1e-12), 0.5), 1e-15),
    (IdentityId.PR3_D_BARRED, AlphaKBar(0.9 * (1 - 1e-12), 0.9), 1e-15),
    # k'^2 = (1 - k)(1 + k) of the rounded k = alpha/beta: 8.9e-6 and 1.2e-8 off
    (IdentityId.LOG_F, EpsAB(0.7, 0.6999999999999585, 0.6999999999999643), 1e-15),
    (IdentityId.LOG_Q2, EpsAB(0.7, 0.6999999999999585, 0.6999999999999643), 1e-15),
    (IdentityId.LOG_F, EpsAB(3.7, 3.6999999999630777, 3.6999999999633792), 1e-15),
    (IdentityId.LOG_Q2, EpsAB(3.7, 3.6999999999630777, 3.6999999999633792), 1e-15),
    # 1 - e1 e2 and 1 - e^2 of the rounded products: 2.2e-9 off
    (IdentityId.PSEUDO, E1E2(0.9999999915304821, 0.9999999912800239), 1e-15),
    # the E term's root formed again as sqrt(1 - kbar^2 cos^2 psi), not read from
    # the hypot r: 3.5e-7, 3.1e-11 and 1.8e-11 off
    (IdentityId.I2_BARRED, PsiKBar(1e-6, 1.0 - 1e-10), 1e-14),
    (IdentityId.I2_BARRED, PsiKBar(1e-8, 0.999999), 1e-14),
    (IdentityId.I2_BARRED, PsiKBar(1e-3, 1.0 - 1e-12), 1e-14),
    # at the far face of the angle, K beta - (pi/2) F(beta) and its E form cancelled
    # all their digits: 0.0 against 0.44357, -7.11 against 0.49473, -0.0 against
    # 2.0102, and 1.9e-7 off at kbar = 1 - 2^-53
    (IdentityId.I3_BARRED, PsiKBar(1.5707963267948963, 0.5), 1e-14),
    (IdentityId.GR_E_SIN, XiKBar(1.5707963267948963, 0.5), 1e-14),
    (IdentityId.GR_F_SIN, XiKBar(1.5707963267948963, 0.9), 1e-14),
    (IdentityId.GR_E_SIN, XiKBar(1.5707963267948963, 0.9999999999999999), 1e-14),
    (IdentityId.GR_F_SIN, XiKBar(1.5707963267948963, 0.9999999999999999), 1e-14),
    # -312.75 against 0.39344; what is left is the numerator's own cancellation of
    # about kbar^2/4 of its size, some kbar^-2 ulps, so 1e-12 at kbar = 0.1
    (IdentityId.I2_BARRED, PsiKBar(1.5707963267948963, 0.1), 1e-12),
])
def test_identity_closed_form_at_class_edges(ident, params, tol):
    assert _rel(closed_value(ident, params), _identity_ref(ident, params)) <= tol


def test_psi_xi_closed_values_are_positive_at_the_angle_faces():
    # the integrands are positive; at the far face the two bodies returned 0.0,
    # -0.0, -7.11 and -312.75.  The nodes of the verify suite's angle-face
    # records, one ulp below pi/2 too, at kbar down to 1e-4
    us = [u for x in identities._lin(10, 3.0, 12.0) for u in (10.0 ** -x, 1.0 - 10.0 ** -x)]
    angles = [HALF_PI * u for u in us] + [1.5707963267948963]
    for kbar, angle, ident in itertools.product((1e-4, 0.05, 0.5, 1.0 - 2.0 ** -53), angles, [
            IdentityId.I2_BARRED, IdentityId.I3_BARRED, IdentityId.GR_E_SIN, IdentityId.GR_F_SIN]):
        params = REGISTRY[ident].params_cls(angle, kbar)
        assert closed_value(ident, params) > 0.0, (ident, params)


@pytest.mark.parametrize("ident,params", [
    # lo^2 and hi^2 - lo^2 of the singular pair underflowed, q = 0: ZeroDivisionError
    (IdentityId.LOG_F, EpsAB(1e-200, 3e-201, 6e-201)),
    (IdentityId.LOG_Q2, EpsAB(1e-200, 3e-201, 6e-201)),
    (IdentityId.LOG_F, EpsAB(1e-300, 3e-301, 6e-301)),
    (IdentityId.LOG_Q2, EpsAB(1e-300, 3e-301, 6e-301)),
    (IdentityId.ATAN_F, FBar(1e-200, 1e-201)),
    (IdentityId.ATAN_E, FBar(1e-200, 1e-201)),
    (IdentityId.ATAN_F, FBar(1e-300, 1e-301)),
    (IdentityId.ATAN_E, FBar(1e-300, 1e-301)),
    # q^2 atan q underflowed: the oracle returned 0.0 for 8.56e-301
    (IdentityId.ATAN_E, FBar(1e-150, 3e-151)),
    # kbar^2 (kbar^2 - alpha^2) underflowed: ZeroDivisionError from the closed
    # form, then from the oracle too, or NonFiniteIntegrandError at 2^-256
    (IdentityId.I1_BARRED, AlphaKBar(5e-78, 1e-77)),
    (IdentityId.I1_BARRED, AlphaKBar(5e-101, 1e-100)),
    (IdentityId.I1_BARRED, AlphaKBar(0.375 * 2.0 ** -256, 0.75 * 2.0 ** -256)),
    # above the float range: inf, not OverflowError
    (IdentityId.I1_BARRED, AlphaKBar(3e-301, 6e-301)),
], ids=repr)
def test_identity_at_tiny_scale(ident, params):
    # each side is within 1e-14 of the reference, or equals its float (0.0 or inf)
    ref = _identity_ref(ident, params)
    for value in (closed_value(ident, params), oracle_value(ident, params).value):
        if float(ref) in (0.0, math.inf):
            assert value == float(ref)
        else:
            assert _rel(value, ref) <= 1e-14


@pytest.mark.parametrize("mu", [710.5, 800.0, 1e300])
def test_i5_below_the_subnormals_is_zero(mu):
    # cosh mu raised OverflowError from mu = 710.48; the true values, such as
    # 5.75e-617 at mu = 710.5, lie below half the smallest subnormal
    params = MuK(mu, 0.5)
    ref = _identity_ref(IdentityId.I5, params)
    assert ref > 0 and float(ref) == 0.0
    assert closed_value(IdentityId.I5, params) == 0.0
    # the oracle's constant sech^2 mu underflows, so it skips the quadrature
    oracle = oracle_value(IdentityId.I5, params)
    assert (oracle.value, oracle.evaluations) == (0.0, 0)


@pytest.mark.parametrize("mu", [400.0, 711.0, 1e300])
def test_i4_below_the_subnormals_is_zero(mu):
    # sinh mu cosh mu gave NaN at mu = 400, then a bare OverflowError from
    # mu = 710.48; the true values lie below half the smallest subnormal
    assert closed_value(IdentityId.I4, MuK(mu, 0.5)) == 0.0


_SINH_AT_ZERO = {  # the mu -> 0 limits of I5 and I4 (mpmath, 50 digits)
    (IdentityId.I5, 0.5): 0.65671800406009995, (IdentityId.I5, 0.95): 0.41051457577339151,
    (IdentityId.I4, 0.5): 0.50162625395010751, (IdentityId.I4, 0.95): 0.40031543251245444}


@pytest.mark.parametrize("ident,k", list(_SINH_AT_ZERO), ids=lambda x: str(getattr(x, "value", x)))
@pytest.mark.parametrize("mu", [5e-324, 1e-310, 1e-308, 1e-20, 7e-9])
def test_sinh_kernel_closed_forms_at_small_mu(ident, k, mu):
    # 1/(sinh mu cosh mu) divided subnormals: I5 was inf at MuK(1e-310, 0.5)
    # and MuK(1e-308, 0.95), I4 2.0 at MuK(5e-324, 0.5).  Both are even in mu,
    # so below 2^-27 the limit is within 5e-17.  I5 at k = 0.95 is 1.2e-15 off:
    # pi/2 - k K(k') cancels by a factor of about 40 after k K(k') is rounded
    tol = 1.5e-15 if (ident, k) == (IdentityId.I5, 0.95) else 1e-15
    assert abs(closed_value(ident, MuK(mu, k)) - _SINH_AT_ZERO[ident, k]) <= tol
    if mu in (5e-324, 1e-310, 1e-20):
        # the oracle's weight stays exact down to the subnormal mu
        assert abs(oracle_value(ident, MuK(mu, k)).value - _SINH_AT_ZERO[ident, k]) <= 1e-15


@pytest.mark.parametrize("ident", [IdentityId.I4, IdentityId.I5])
@pytest.mark.parametrize("k", [1e-9, 1e-6])
def test_sinh_kernel_oracle_at_small_k(ident, k):
    # 1 - (1 - k^2) sin^2 u rounded to 0.0 at k = 1e-9 (ZeroDivisionError), and
    # at 1e-6 the budget ran out; with k' = k exact both converge
    params = MuK(1.0, k)
    assert _rel(oracle_value(ident, params).value, _identity_ref(ident, params)) <= 1e-13


@pytest.mark.parametrize("ident", [IdentityId.I4, IdentityId.I5])
@pytest.mark.parametrize("mu", [356.0, 400.0, 800.0])
def test_sinh_kernel_oracle_at_large_mu(ident, mu):
    # k'^2 sinh(mu)^2 raised OverflowError from mu = 355.  At 356 the value is
    # a subnormal, carried by the oracle's scale sech^2 mu, and the peak at t = 0
    # is narrower than the sinh map's least width 2^-500, so that end stays in
    # t: 1,071 evaluations, with I4 1.1e-13 and I5 9.8e-14 off.  From 400 the
    # value lies below the subnormals and the oracle returns 0.0
    params = MuK(mu, 0.5)
    ref = _identity_ref(ident, params)
    got = oracle_value(ident, params).value
    if float(ref) == 0.0:
        assert got == 0.0
    else:
        assert _rel(got, ref) <= 1e-12
