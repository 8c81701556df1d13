"""Independent mpmath references for the closed_forms workload.

Uses the installed mpmath 1.3.0 and no ellint code:
  areas      4 pi abc R_G(a^-2, b^-2, c^-2)        (mpmath.elliprg)
  F, E, K    mpmath.ellipf / ellipe / ellipk, at the float inputs exactly
  D          (F - E)/k^2 at doubled working precision
  identities the defining integral, by mpmath.quad

Two modes:

  python3 perfbench/reference.py ops < ops.json > refs.json
      reads a JSON list of [name, *args] (name "surface_area" or one of the
      six Legendre functions) and writes one float per op.  The benchmark
      runs this in a child process, so mpmath never enters the measured one.

  python3 perfbench/reference.py pool --per-identity 40 --seed 20060605
      regenerates identity_refs.json: seeded in-domain points for all 17
      identities with the value of their defining integral.  Takes minutes.
"""

import argparse
import json
import random
import sys
from pathlib import Path

import mpmath
from mpmath import mp, mpf

import inputs

AREA_DPS = 30
LEGENDRE_DPS = 40     # the corner points lose up to ~25 digits to cancellation
QUAD_DPS = 25
AGREE_REL = mpf("1e-17")  # two working precisions agree below double rounding
POOL_FILE = Path(__file__).resolve().parent / "identity_refs.json"


def _area(a, b, c):
    a, b, c = mpf(a), mpf(b), mpf(c)
    return 4 * mp.pi * a * b * c * mpmath.elliprg(1 / a**2, 1 / b**2, 1 / c**2)


def _legendre(name, args):
    if name.startswith("complete"):
        (k,) = args
        m = mpf(k) ** 2
        if name == "complete_k":
            return mpmath.ellipk(m)
        if name == "complete_e":
            return mpmath.ellipe(m)
        return (mpmath.ellipk(m) - mpmath.ellipe(m)) / m
    phi, k = mpf(args[0]), mpf(args[1])
    m = k**2
    if name == "incomplete_f":
        return mpmath.ellipf(phi, m)
    if name == "incomplete_e":
        return mpmath.ellipe(phi, m)
    with mp.extradps(mp.dps):
        return (mpmath.ellipf(phi, m) - mpmath.ellipe(phi, m)) / m


def _checked(fn, dps):
    """fn() at dps and at 2*dps; the two must agree to AGREE_REL."""
    with mp.workdps(dps):
        lo = fn()
    with mp.workdps(2 * dps):
        hi = fn()
    if abs(lo - hi) > AGREE_REL * abs(hi):
        raise ArithmeticError(f"reference unstable: {lo} vs {hi}")
    return float(hi)


def op_reference(name, args):
    if name == "surface_area":
        with mp.workdps(AREA_DPS):
            return float(_area(*args))
    return _checked(lambda: _legendre(name, args), LEGENDRE_DPS)


# ---------------------------------------------------------------------------
# identities: each defining integral, written from the identity catalog


def _singular(g, lo, hi):
    """Integral of g(q)/sqrt((hi^2 - q^2)(q^2 - lo^2)) over (lo, hi).

    A change of variable cancels the endpoint singularities exactly:
    q = (lo + hi)/2 - (hi - lo)/2 cos t over (0, pi) removes
    sqrt((hi - q)(q - lo)); for lo = 0, q = hi sin t over (0, pi/2) removes
    sqrt(hi^2 - q^2) and leaves g(q)/q.
    """
    lo, hi = mpf(lo), mpf(hi)
    if lo == 0:
        return mpmath.quad(lambda t: g(hi * mpmath.sin(t)) / (hi * mpmath.sin(t)),
                           [0, mp.pi / 2])
    mid, half = (lo + hi) / 2, (hi - lo) / 2

    def fn(t):
        q = mid - half * mpmath.cos(t)
        return g(q) / mpmath.sqrt((hi + q) * (q + lo))

    return mpmath.quad(fn, [0, mp.pi])


def _kernel(leg, kp, coef_sign, coef):
    """Integral over (0, pi/2) of leg(u, kp) sin u cos u /
    ((1 + coef_sign*coef*sin^2 u) sqrt(1 - kp^2 sin^2 u))."""
    m = kp**2

    def fn(u):
        s, c = mpmath.sin(u), mpmath.cos(u)
        return (leg(u, m) * s * c
                / ((1 + coef_sign * coef * s**2) * mpmath.sqrt(1 - m * s**2)))

    return mpmath.quad(fn, [0, mp.pi / 2])


def identity_reference(name, p):
    p = {key: mpf(v) for key, v in p.items()}
    E = mpmath.ellipe
    if name == "I1":
        kp2, k2 = 1 - p["k"]**2, p["k"]**2
        return _singular(lambda u: u**2 * E(u**2) / (kp2 + k2 * u**2)**2, 0, p["alpha"])
    if name == "I1_BARRED":
        kb2 = p["kbar"]**2
        return _singular(lambda u: u**2 * E(u**2) / (kb2 - u**2)**2, 0, p["alpha"])
    if name == "PR3_D":
        z2, al = p["z"]**2, p["alpha"]
        return _singular(lambda u: u**2 * E((u / al)**2) / (z2 + u**2), 0, al)
    if name == "PR3_D_BARRED":
        kb2, al = p["kbar"]**2, p["alpha"]
        return _singular(lambda u: u**2 * E((u / al)**2) / (kb2 - u**2), 0, al)
    if name in ("LOG_F", "LOG_Q2"):
        eps = p["eps"]
        power = 0 if name == "LOG_F" else 2
        return _singular(lambda u: u**power * mpmath.log((eps + u) / (eps - u)),
                         p["alpha"], p["beta"])
    if name in ("ATAN_F", "ATAN_E"):
        power = 0 if name == "ATAN_F" else 2
        return _singular(lambda q: q**power * mpmath.atan(q), p["f2"], p["f1"])
    if name == "PSEUDO":
        e1, e2 = p["e1"], p["e2"]
        return mpmath.quad(
            lambda q: mpmath.sqrt((e1**2 - q**2) * (q**2 - e2**2)) / (q * (1 - q**2)),
            [e2, e1])
    leg = mpmath.ellipf if name in ("I5", "I6", "I3_BARRED", "GR_F_SIN") else E
    if name in ("I3", "I6"):
        kp = mpmath.sqrt(1 - p["k"]**2)
        return _kernel(leg, kp, -1, kp**2 * mpmath.cosh(p["nu"])**2)
    if name in ("I4", "I5"):
        kp = mpmath.sqrt(1 - p["k"]**2)
        return _kernel(leg, kp, 1, kp**2 * mpmath.sinh(p["mu"])**2)
    if name in ("I2_BARRED", "I3_BARRED"):
        return _kernel(leg, p["kbar"], -1, p["kbar"]**2 * mpmath.cos(p["psi"])**2)
    if name in ("GR_E_SIN", "GR_F_SIN"):
        return _kernel(leg, p["kbar"], -1, p["kbar"]**2 * mpmath.sin(p["xi"])**2)
    raise KeyError(name)


def build_pool(per_identity: int, seed: int) -> dict:
    pool = {}
    for name in sorted(inputs.IDENTITY_PARAMS):
        rng = random.Random(f"{seed}:{name}")
        points = []
        for _ in range(per_identity):
            params = inputs.identity_params(name, rng)
            ref = _checked(lambda: identity_reference(name, params), QUAD_DPS)
            points.append({"params": params, "ref": ref})
        pool[name] = points
        print(f"{name}: {len(points)} points", file=sys.stderr, flush=True)
    return pool


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("ops", help="references for the ops read from stdin")
    p = sub.add_parser("pool", help="regenerate identity_refs.json")
    p.add_argument("--per-identity", type=int, default=40)
    p.add_argument("--seed", type=int, default=20060605)
    args = parser.parse_args()
    if args.mode == "ops":
        ops = json.load(sys.stdin)
        json.dump([op_reference(op[0], op[1:]) for op in ops], sys.stdout)
        return 0
    pool = build_pool(args.per_identity, args.seed)
    meta = {"generator": "perfbench/reference.py pool", "mpmath": mpmath.__version__,
            "per_identity": args.per_identity, "seed": args.seed,
            "quad_dps": QUAD_DPS}
    POOL_FILE.write_text(json.dumps({"meta": meta, "points": pool}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
