"""Adaptive Gauss-Kronrod quadrature, independent of every closed form here.

An integrand returns a float or a tuple of floats, and a float is the
one-component case, as in the vector form of adaptive quadrature (Genz and
Malik 1980; DCUHRE, Berntsen, Espelid and Genz 1991).  The first panel of
every integral takes the 10-point Gauss / 21-point Kronrod pair (QUADPACK's
qk21, the rule of QAGS), and is the result if it meets every target; every
panel a bisection makes takes the 7-point Gauss / 15-point Kronrod pair.  One
pass of a rule covers every member of a float or pair panel.  The panel whose
largest component error is the largest multiple of that component's target
is bisected until every component meets its tolerance or the evaluation
budget MAX_EVALS runs out, so an integral takes 21 + 30 n evaluations for n
bisections.  The estimator is the classic scaled (200|K-G|)^{3/2} rule,
floored at 50 ulp of the absolute integral (Piessens et al. 1983).

integrate_singular_pair handles kernels 1/sqrt((hi^2-q^2)(q^2-lo^2)) through
the exact substitution q^2 = lo^2 + (hi^2-lo^2) sin^2 t, which maps the
integral of g(q)/sqrt(...) over (lo, hi) to the bounded integral of g(q)/q
over (0, pi/2).  lo = 0 is allowed: the substitution degenerates to
q = hi * sin t and removes a plain 1/sqrt(hi^2-q^2) endpoint singularity.

_graded is the one scaled integral: scale times the integral over (0, pi/2)
of an order-1 f(sin t, cos t, dt), a zero scale being 0 unevaluated, with the
sinh transformation t = w sinh x or pi/2 - w sinh x (Johnston and Elliott
2005, IJNME 62:564-578) toward an end with a peak of known width w, so that
integrate does not bisect toward it.  Every identity oracle is one _graded
call, with widths from its own parameters, or 1.0 for an end that is cheaper
in t; _pair_integrand gives it the singular-pair substitution.  So is the
area oracle, whose polar integral is done in closed form first.  The (value,
error_estimate, evaluations) result follows the (result, abserr, neval)
contract of QUADPACK (Piessens et al. 1983).
"""

import heapq
import math
import operator
from typing import NamedTuple

from .errors import DomainError, NonConvergenceError, NonFiniteIntegrandError, require_positive_tol

HALF_PI = math.pi / 2.0

MAX_EVALS = 1_000_000  # evaluations per integral, read when integrate runs
_ABS_FLOOR = 1e-15  # absolute target is _ABS_FLOOR * (hi - lo)
_EPS = 2.220446049250313e-16
_MIN_WIDTH = 2.0 ** -500  # the least width _graded maps
_TINY = 2.2250738585072014e-308  # the least normal float

# 15-point Kronrod abscissae on [-1, 1] and weights, then the weights of the
# 7-point Gauss rule on every second node: the rule of every bisected panel
_XK = (
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993944, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0, 0.2077849550078985, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993944, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126,
)
_WK = (
    0.022935322010529224, 0.06309209262997855, 0.10479001032225018,
    0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
    0.20443294007529889, 0.20948214108472782, 0.20443294007529889,
    0.19035057806478542, 0.1690047266392679, 0.14065325971552592,
    0.10479001032225018, 0.06309209262997855, 0.022935322010529224,
)
_WG = (
    0.12948496616886969, 0.2797053914892767, 0.3818300505051189,
    0.41795918367346935, 0.3818300505051189, 0.2797053914892767,
    0.12948496616886969,
)
_GK15 = (_XK, _WK, _WG)
# the same for 21 Kronrod and 10 Gauss points, QUADPACK's qk21, rounded from
# 60-digit values: the rule of every first panel
_GK21 = (
    (
        -0.9956571630258081, -0.9739065285171717, -0.9301574913557082,
        -0.8650633666889845, -0.7808177265864169, -0.6794095682990244,
        -0.5627571346686047, -0.4333953941292472, -0.2943928627014602,
        -0.14887433898163122, 0.0, 0.14887433898163122, 0.2943928627014602,
        0.4333953941292472, 0.5627571346686047, 0.6794095682990244,
        0.7808177265864169, 0.8650633666889845, 0.9301574913557082,
        0.9739065285171717, 0.9956571630258081,
    ),
    (
        0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
        0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
        0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
        0.14773910490133849, 0.1494455540029169, 0.14773910490133849,
        0.14277593857706009, 0.13470921731147334, 0.12349197626206584,
        0.10938715880229764, 0.0931254545836976, 0.07503967481091996,
        0.054755896574351995, 0.032558162307964725, 0.011694638867371874,
    ),
    (
        0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
        0.26926671930999635, 0.29552422471475287, 0.29552422471475287,
        0.26926671930999635, 0.21908636251598204, 0.1494513491505806,
        0.06667134430868814,
    ),
)


class QuadratureResult(NamedTuple):
    value: float
    error_estimate: float
    evaluations: int


def _finish(resk, resg, resabs, resasc, h: float, a: float, b: float) -> tuple:
    """The estimator: (value, error estimate) of one component over [a, b], h =
    (b - a)/2, from its Kronrod and Gauss sums and Kronrod sums of |f| and |f - K/2|."""
    value = resk * h
    resabs *= h
    resasc *= h
    err = abs((resk - resg) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > 2.2250738585072014e-305:
        err = max(_EPS * 50.0 * resabs, err)
    if not (math.isfinite(value) and math.isfinite(err)):
        raise NonFiniteIntegrandError(
            f"integrand returned a non-finite value on [{a!r}, {b!r}]")
    return value, err


def _rule(fv, h: float, a: float, b: float, rule: tuple = _GK15) -> tuple:
    """A Kronrod rule and its Gauss rule over [a, b], with h = (b - a)/2, from
    the node samples fv: (values, error estimates), one-element lists for a
    float integrand, tuples for a tuple one.  A pair takes one pass over the
    nodes, another tuple one pass per member; each member sums as a float."""
    _, wk, wg = rule
    if isinstance(fv[0], tuple):
        if len(fv[0]) != 2:
            parts = [_rule(col, h, a, b, rule) for col in zip(*fv)]
            return tuple(v for (v,), _ in parts), tuple(e for _, (e,) in parts)
        k0 = k1 = abs0 = abs1 = g0 = g1 = asc0 = asc1 = 0.0
        for w, (u, v) in zip(wk, fv):
            u, v = w * u, w * v
            k0, k1 = k0 + u, k1 + v
            abs0, abs1 = abs0 + abs(u), abs1 + abs(v)  # w > 0: |w u| is w |u| to the bit
        for w, (u, v) in zip(wg, fv[1::2]):  # the Gauss nodes are the odd ones
            g0, g1 = g0 + w * u, g1 + w * v
        h0, h1 = 0.5 * k0, 0.5 * k1
        for w, (u, v) in zip(wk, fv):
            asc0, asc1 = asc0 + w * abs(u - h0), asc1 + w * abs(v - h1)
        return tuple(zip(_finish(k0, g0, abs0, asc0, h, a, b),
                         _finish(k1, g1, abs1, asc1, h, a, b)))
    resk = resabs = resg = resasc = 0.0
    for w, v in zip(wk, fv):
        v *= w
        resk, resabs = resk + v, resabs + abs(v)
    for w, v in zip(wg, fv[1::2]):
        resg += w * v
    reskh = 0.5 * resk
    for w, v in zip(wk, fv):
        resasc += w * abs(v - reskh)
    value, err = _finish(resk, resg, resabs, resasc, h, a, b)
    return [value], [err]


def _panel(f, a: float, b: float, rule: tuple = _GK15) -> tuple:
    """One pass of a rule over [a, b]: _rule of f's samples at its nodes."""
    center = 0.5 * (a + b)
    h = 0.5 * (b - a)
    return _rule([f(center + h * x) for x in rule[0]], h, a, b, rule)


def integrate(f, lo: float, hi: float, tol: float = 1e-10) -> QuadratureResult:
    """Adaptive integral of f over (lo, hi).

    f returns a float or a tuple of floats; a float is the one-component
    case.  The components share one subdivision and one budget, and each
    runs until its error estimate drops below max(tol * |value|,
    1e-15 * (hi - lo)).  A panel is keyed on its largest component error as
    a multiple of that component's target, so a component 1e12 times
    smaller than another is refined as far as it needs.  The first panel is
    the 21-point Kronrod rule, and the result if it meets every target; a
    panel that misses is bisected into GK15 panels, so evaluations, which
    counts each call of f once, is 21 + 30 n after n bisections, and a result
    that bisects is the sum of GK15 panels alone.  value and error_estimate
    are floats for a float integrand and tuples for a tuple one.
    Deterministic: identical inputs always produce bit-identical results.
    Raises NonConvergenceError, unevaluated if MAX_EVALS is below 21, once
    the next panel or bisection would exceed MAX_EVALS evaluations.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
        raise DomainError(f"need finite lo < hi, got [{lo!r}, {hi!r}]")
    require_positive_tol(tol)
    evals = len(_GK21[0])
    if evals > MAX_EVALS:
        raise NonConvergenceError(
            f"quadrature budget MAX_EVALS = {MAX_EVALS} evaluations exhausted on "
            f"[{lo!r}, {hi!r}] before the first {evals}-point panel")
    abs_target = max(_ABS_FLOOR * (hi - lo), _TINY)  # in case it underflows

    values, errs = total_val, total_err = _panel(f, lo, hi, _GK21)
    targets = [max(tol * abs(v), abs_target) for v in values]
    # GK15 panels by largest error over target, ties by evals; the first panel is never in it
    heap = []
    while not all(map(operator.le, total_err, targets)):
        if evals + 30 > MAX_EVALS:
            raise NonConvergenceError(
                f"quadrature budget MAX_EVALS = {MAX_EVALS} evaluations exhausted on "
                f"[{lo!r}, {hi!r}] with error estimate {max(total_err):.3e}")
        _, _, a, b, v, e = heapq.heappop(heap) if heap else (0.0, 0, lo, hi, values, errs)
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            raise NonConvergenceError(
                f"interval [{a!r}, {b!r}] below float resolution with "
                f"tolerance unmet (error estimate {max(total_err):.3e})")
        v1, e1 = _panel(f, a, mid)
        v2, e2 = _panel(f, mid, b)
        total_val = [t + ((x + y) - z) for t, x, y, z in zip(total_val, v1, v2, v)]
        total_err = [t + ((x + y) - z) for t, x, y, z in zip(total_err, e1, e2, e)]
        heapq.heappush(heap, (-max(map(operator.truediv, e1, targets)), evals, a, mid, v1, e1))
        heapq.heappush(heap, (-max(map(operator.truediv, e2, targets)), evals + 1, mid, b, v2, e2))
        evals += 30
        targets = [max(tol * abs(v), abs_target) for v in total_val]
    if heap:  # the sum of the GK15 panels, in the first panel's type
        values = type(values)(map(math.fsum, zip(*[entry[4] for entry in heap])))
        errs = type(errs)(map(math.fsum, zip(*[entry[5] for entry in heap])))
    if isinstance(values, tuple):  # + 0.0: a panel's underflowed -0.0 is fsum's 0.0
        return QuadratureResult(tuple([v + 0.0 for v in values]), errs, evals)
    return QuadratureResult(values[0] + 0.0, errs[0], evals)


def _graded(f, tol: float, w0: float = 1.0, w1: float = 1.0, scale=1.0) -> QuadratureResult:
    """scale times the integral over (0, pi/2) of the integrand that f(sin t,
    cos t, dt) gives times dt, the derivative of t along the map.

    The one oracle contract: f is of order 1, so that integrate's absolute
    floor decides only for an integral of 0, scale carries the integral's size,
    and a zero scale (every entry 0) is the integral, 0, with no evaluation.
    f gives a float or a tuple of floats; scale is a float, or one entry per
    component of a tuple.  w0 and w1 are the widths of peaks at t = 0 and at
    t = pi/2.  A width w in [2^-500, 1) maps its end through t = w sinh x, or
    t = pi/2 - w sinh x: the sinh transformation of Johnston and Elliott (2005,
    IJNME 62:564-578).  A peak like 1/sqrt(y^2 + w^2), y the distance from its
    end, is flat in x, so integrate does not bisect toward it.  f gets sin t and
    cos t from y, so the one that vanishes at the end keeps its digits there.
    With both ends mapped, each half of (0, pi/2) is one integral toward its
    own end, and the two results add.  Any other width leaves its end in t: at
    1 or more there is no peak to map, and below 2^-500 y^2 would underflow
    before the peak is resolved.
    """
    if not any(scale if isinstance(scale, tuple) else (scale,)):
        return QuadratureResult(scale, scale, 0)

    def toward(w: float, sin, cos):  # t = w sinh x; with sin and cos swapped, pi/2 - t
        def mapped(x: float):
            y = w * math.sinh(x)
            return f(sin(y), cos(y), w * math.cosh(x))
        return mapped

    ends = [(w, toward(w, *sc)) for w, sc in ((w0, (math.sin, math.cos)),
                                              (w1, (math.cos, math.sin))) if _MIN_WIDTH <= w < 1.0]
    parts = [integrate(g, 0.0, math.asinh(HALF_PI / len(ends) / w), tol) for w, g in ends] or [
        integrate(lambda t: f(math.sin(t), math.cos(t), 1.0), 0.0, HALF_PI, tol)]
    value, err, evals = parts[0]
    if len(parts) == 2:  # both ends mapped: the halves add, per component of a tuple f
        values, errs, counts = zip(*parts)
        add = math.fsum if not isinstance(value, tuple) else (
            lambda halves: tuple(map(math.fsum, zip(*halves))))
        value, err, evals = add(values), add(errs), sum(counts)
    if not isinstance(value, tuple):
        return QuadratureResult(scale * value, scale * err, evals)
    scales = scale if isinstance(scale, tuple) else (scale,) * len(value)
    return QuadratureResult(tuple(map(operator.mul, scales, value)),
                            tuple(map(operator.mul, scales, err)), evals)


def _pair_integrand(g, lo: float, hi: float):
    """f(sin t, cos t, dt) of integrate_singular_pair's substitution, for _graded."""
    if not (0.0 <= lo < hi) or not math.isfinite(hi):
        raise DomainError(f"need 0 <= lo < hi, got lo={lo!r}, hi={hi!r}")
    lo2 = lo * lo
    span = (hi - lo) * (hi + lo)
    root = math.sqrt(span)
    tiny = 0.0 < lo and lo2 < _TINY  # lo^2 below the normal range: q from hypot

    def transformed(s: float, c: float, dt: float):
        below = span * (s * s)  # q is 0 once both squares underflow: no point
        q = (math.hypot(lo, root * s) if tiny else math.sqrt(lo2 + below)) or math.nan
        y = g(q, below, span * (c * c))
        if isinstance(y, tuple):
            return (y[0] / q * dt, y[1] / q * dt) if len(y) == 2 else tuple([v / q * dt for v in y])
        return y / q * dt

    return transformed


def integrate_singular_pair(g, lo: float, hi: float,
                            tol: float = 1e-10) -> QuadratureResult:
    """Integral of g(q)/sqrt((hi^2 - q^2)(q^2 - lo^2)) over (lo, hi).

    Requires 0 <= lo < hi.  The substitution q^2 = lo^2 + span sin^2 t,
    span = hi^2 - lo^2, turns this into the bounded integral of g/q over
    (0, pi/2); the endpoints are never evaluated.  Where lo^2 is below the
    normal range, q is hypot(lo, sqrt(span) sin t), so lo keeps its digits
    down to the least normal lo; below it an order-1 g/q overflows near t = 0,
    and the panel raises NonFiniteIntegrandError.  g is called as
    g(q, q^2 - lo^2, hi^2 - q^2), the kernel's factors formed exactly as
    span sin^2 t and span cos^2 t, not from the rounded q, so a g built on
    them keeps its digits on a thin interval.  g may return a tuple of
    floats, integrated as integrate integrates a tuple integrand.
    """
    return _graded(_pair_integrand(g, lo, hi), tol)


def surface_area_quadrature(a: float, b: float, c: float,
                            tol: float = 1e-7) -> QuadratureResult:
    """Ellipsoid surface area as one quadrature over the azimuth phi.

    With the axes sorted s0 >= s1 >= s2 and s2 on the polar axis, the polar
    integral is elementary: the area is 4 s0 s1 times the integral over
    (0, pi/2) of 1 + r atanh(q)/q, r = u^2 cos^2 phi + w^2 sin^2 phi with
    u = s2/s0, w = s2/s1, and q^2 = 1 - r = e1^2 cos^2 phi + e2^2 sin^2 phi.
    e1^2 = 1 - u^2 and e2^2 = 1 - w^2 come from axis differences, and
    atanh(q) = log1p(q) - log(r)/2 adds two nonnegative terms, so nothing
    cancels.  Sorting makes the result bit-identical under any permutation
    of (a, b, c).  tol is relative; the budget is that of integrate.
    """
    for name, v in (("a", a), ("b", b), ("c", c)):
        if not (v > 0.0) or not math.isfinite(v):
            raise DomainError(f"semi-axis {name}={v!r} must be positive and finite")
    s0, s1, s2 = sorted((a, b, c), reverse=True)
    u, w = s2 / s0, s2 / s1
    e12, e22 = (s0 - s2) / s0 * (1.0 + u), (s1 - s2) / s1 * (1.0 + w)

    def f(sp: float, cp: float, dt: float) -> float:
        cp2, sp2 = cp ** 2, sp ** 2
        r = u * u * cp2 + w * w * sp2
        q2 = e12 * cp2 + e22 * sp2
        if r == 0.0 or q2 == 0.0:  # the limits q -> 1 and q -> 0
            return (2.0 if r else 1.0) * dt
        q = math.sqrt(q2)
        log_r = math.log1p(-q2) if q2 < 0.5 else math.log(r)
        return (1.0 + r * (math.log1p(q) - 0.5 * log_r) / q) * dt

    return _graded(f, tol, scale=4.0 * (s0 * s1))
