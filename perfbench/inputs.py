"""Seeded inputs for the benchmark workloads.

Pure standard library: neither ellint nor mpmath is imported here, so the
benchmark process and the mpmath reference process build the very same
inputs from a seed without sharing any numerical code with the library.
"""

import math
import random

HALF_PI = math.pi / 2.0

# closed_forms mix, in ops per run.  ellint serves no traffic, so these
# counts are assumptions, not measurements (see README.md): most ops are
# areas, the paper's headline result; every Legendre function and every
# identity gets the same number of ops; 16 of each Legendre function's 60
# sit near the (pi/2, 1) corner, the rest spread over the whole domain.
IDENTITY_OPS_EACH = 14           # x 17 identities
LEGENDRE_OPS_EACH = 60           # x 6 functions
CORNER_GRID = 4                  # CORNER_GRID**2 of them near the corner
# shape shares among area ops; the rest have three independent axes
SPHERE_SHARE = 0.04
SPHEROID_SHARE = 0.16
AXIS_LOG10_RANGE = (-6.0, 6.0)

LEGENDRE_INCOMPLETE = ("incomplete_f", "incomplete_e", "incomplete_d")
LEGENDRE_COMPLETE = ("complete_k", "complete_e", "complete_d")

# identity id -> (parameter class in ellint.identities, field names)
IDENTITY_PARAMS = {
    "I1": ("AlphaK", ("alpha", "k")),
    "I1_BARRED": ("AlphaKBar", ("alpha", "kbar")),
    "PR3_D": ("AlphaZ", ("alpha", "z")),
    "PR3_D_BARRED": ("AlphaKBar", ("alpha", "kbar")),
    "LOG_F": ("EpsAB", ("eps", "alpha", "beta")),
    "LOG_Q2": ("EpsAB", ("eps", "alpha", "beta")),
    "PSEUDO": ("E1E2", ("e1", "e2")),
    "I3": ("NuK", ("nu", "k")),
    "I4": ("MuK", ("mu", "k")),
    "I5": ("MuK", ("mu", "k")),
    "I6": ("NuK", ("nu", "k")),
    "I2_BARRED": ("PsiKBar", ("psi", "kbar")),
    "I3_BARRED": ("PsiKBar", ("psi", "kbar")),
    "GR_E_SIN": ("XiKBar", ("xi", "kbar")),
    "GR_F_SIN": ("XiKBar", ("xi", "kbar")),
    "ATAN_F": ("FBar", ("f1", "f2")),
    "ATAN_E": ("FBar", ("f1", "f2")),
}


def _unit(rng: random.Random) -> float:
    # the 0.05 margin the library's own grids keep from each domain edge
    return rng.uniform(0.05, 0.95)


def _half_line(u: float) -> float:
    return u / (1.0 - u)


def identity_params(name: str, rng: random.Random) -> dict:
    """One in-domain parameter point for identity `name`."""
    if name == "I1":
        return {"alpha": _unit(rng), "k": _unit(rng)}
    if name in ("I1_BARRED", "PR3_D_BARRED"):
        kbar = _unit(rng)
        return {"alpha": kbar * _unit(rng), "kbar": kbar}
    if name == "PR3_D":
        return {"alpha": _half_line(_unit(rng)), "z": _half_line(_unit(rng))}
    if name in ("LOG_F", "LOG_Q2"):
        eps = rng.uniform(0.5, 4.0)
        beta = eps * _unit(rng)
        return {"eps": eps, "alpha": beta * _unit(rng), "beta": beta}
    if name == "PSEUDO":
        e1 = _unit(rng)
        return {"e1": e1, "e2": e1 * _unit(rng)}
    if name in ("I3", "I6"):
        k = _unit(rng)
        return {"nu": math.atanh(k * _unit(rng)), "k": k}
    if name in ("I4", "I5"):
        return {"mu": _half_line(_unit(rng)), "k": _unit(rng)}
    if name in ("I2_BARRED", "I3_BARRED"):
        return {"psi": HALF_PI * _unit(rng), "kbar": _unit(rng)}
    if name in ("GR_E_SIN", "GR_F_SIN"):
        return {"xi": HALF_PI * _unit(rng), "kbar": _unit(rng)}
    if name in ("ATAN_F", "ATAN_E"):
        f1 = _half_line(_unit(rng))
        return {"f1": f1, "f2": f1 * _unit(rng)}
    raise KeyError(name)


def _log_axis(u: float) -> float:
    """u in [0, 1) mapped log-uniformly onto the axis range."""
    lo, hi = AXIS_LOG10_RANGE
    return 10.0 ** (lo + (hi - lo) * u)


def _strata(n: int, rng: random.Random) -> list:
    """n uniform draws, one in each of n equal slices of [0, 1), shuffled.

    Stratified sampling: the draws have the same distribution as plain
    ones, but the share falling in any interval no longer varies by seed.
    """
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    return u


def triaxial_axes(n: int, rng: random.Random) -> list:
    """n triples of independent log-uniform axes, in shuffled order.

    Drawn through the spacings of the sorted log-axes, with the gap between
    the two smallest stratified: that gap decides whether the triple is a
    thin disc (the closed form reaches F(pi/2, 1)), so every seed holds the
    same share of thin discs.
    """
    triples = []
    for u1 in _strata(n, rng):
        # the spacings of three sorted uniforms are Dirichlet(1, 1, 1, 1)
        gap = 1.0 - (1.0 - u1) ** (1.0 / 3.0)
        t1 = 1.0 - math.sqrt(1.0 - rng.random())
        low = (1.0 - gap) * t1
        high = low + gap + (1.0 - gap) * (1.0 - t1) * rng.random()
        axes = [_log_axis(low), _log_axis(low + gap), _log_axis(high)]
        rng.shuffle(axes)
        triples.append(tuple(axes))
    return triples


def spheroid_axes(n: int, rng: random.Random) -> list:
    """n exact spheroids (v, v, w), v and w independent log-uniform: half
    oblate, half prolate, each with its axis gap stratified."""
    triples = []
    for oblate, count in ((True, n // 2), (False, n - n // 2)):
        for u in _strata(count, rng):
            gap = 1.0 - math.sqrt(1.0 - u)   # |v - w| has density 2(1 - x)
            low = (1.0 - gap) * rng.random()
            v, w = _log_axis(low + gap), _log_axis(low)
            if not oblate:
                v, w = w, v
            axes = [v, v, w]
            rng.shuffle(axes)
            triples.append(tuple(axes))
    return triples


def area_ops(n: int, rng: random.Random) -> list:
    """n axis triples, each axis log-uniform over [1e-6, 1e6]; a share of
    them are exact spheres or exact spheroids (two equal axes)."""
    n_sphere = round(n * SPHERE_SHARE)
    n_spheroid = round(n * SPHEROID_SHARE)
    spheres = [(v, v, v) for v in (_log_axis(u) for u in _strata(n_sphere, rng))]
    return (spheres + spheroid_axes(n_spheroid, rng)
            + triaxial_axes(n - n_sphere - n_spheroid, rng))


def legendre_ops(name: str, rng: random.Random) -> list:
    """LEGENDRE_OPS_EACH argument tuples for one Legendre function.

    CORNER_GRID**2 of them lie near the (pi/2, 1) corner, 1 - k in
    [1e-15, 1e-1] and pi/2 - phi in [1e-10, 1e-1] (never at it), on a
    jittered grid of the two log-distances; the rest are uniform over
    k in [0, 1), phi in [0, pi/2).
    """
    cells = [(i, j) for i in range(CORNER_GRID) for j in range(CORNER_GRID)]
    points = []
    for i, j in cells:
        k = 1.0 - 10.0 ** (-15.0 + 14.0 * (i + rng.random()) / CORNER_GRID)
        phi = HALF_PI - 10.0 ** (-10.0 + 9.0 * (j + rng.random()) / CORNER_GRID)
        points.append((phi, k))
    points += [(HALF_PI * rng.random(), rng.random())
               for _ in range(LEGENDRE_OPS_EACH - len(cells))]
    if name in LEGENDRE_COMPLETE:
        return [(k,) for _, k in points]
    return points


def closed_forms_ops(seed: int, n_ops: int, pool: dict) -> list:
    """n_ops unique closed-form ops as (kind, name, args, pool_ref).

    kind is "area", "legendre" or "identity".  Identity points are drawn
    without replacement from the mpmath reference pool (pool_ref is the
    pooled reference); the other ops get pool_ref None and are referenced
    at run time.
    """
    rng = random.Random(seed)
    ops = []
    for name in LEGENDRE_INCOMPLETE + LEGENDRE_COMPLETE:
        ops += [("legendre", name, args, None) for args in legendre_ops(name, rng)]
    for name in sorted(pool):
        for p in rng.sample(pool[name], IDENTITY_OPS_EACH):
            ops.append(("identity", name, p["params"], p["ref"]))
    ops += [("area", "surface_area", axes, None)
            for axes in area_ops(n_ops - len(ops), rng)]
    rng.shuffle(ops)
    return ops


def cli_command(rng: random.Random) -> tuple:
    """(argv for `python -m ellint.cli`, library call) for one cold start.

    The library call is (kind, name, args) as for closed_forms.  Inputs stay
    in the ranges the library's own verify sweep samples, because this
    workload measures process start, not accuracy.
    """
    r = rng.random()
    if r < 1.0 / 3.0:
        axes = tuple(rng.uniform(0.1, 10.0) for _ in range(3))
        argv = ["area", "--axes", ",".join(repr(v) for v in axes)]
        return argv, ("area", "surface_area", axes)
    if r < 2.0 / 3.0:
        name = rng.choice(sorted(IDENTITY_PARAMS))
        params = identity_params(name, rng)
        argv = ["integral", "--id", name, "--mode", "closed"]
        for field in IDENTITY_PARAMS[name][1]:
            argv += ["--" + field, repr(params[field])]
        return argv, ("identity", name, params)
    name = rng.choice(("SIGMA1", "SIGMA2"))
    e1 = rng.uniform(0.1, 0.9)
    e2 = e1 * _unit(rng)
    argv = ["series", "--id", name, "--e1", repr(e1), "--e2", repr(e2)]
    return argv, ("series", name, (e1, e2))
