"""Sweep the whole closed-form identity catalog against quadrature.

Every identity in the registry has a closed form built from elliptic
kernels and a defining integral. For each one we evaluate both sides on
an in-domain parameter grid and report the worst relative disagreement,
which is bounded by the quadrature tolerance rather than by the closed
form.

Run:  python3 demos/identity_catalog.py [--grid 6] [--tol 1e-8]
"""

import argparse

from ellint import IdentityId, check, grid_params


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid", type=int, default=6,
                    help="points per parameter axis")
    ap.add_argument("--tol", type=float, default=1e-8,
                    help="pass tolerance for closed vs quadrature")
    args = ap.parse_args()

    # a record passes iff rel_err <= tol, at every size of the value; abs_err
    # is shown beside it for scale.
    print(f"{'identity':<12} {'points':>6} {'worst rel':>11} {'worst abs':>11} "
          f"{'median closed':>15}  status")
    total = failures = 0
    for ident in IdentityId:
        worst_rel = worst_abs = 0.0
        values = []
        bad = 0
        for params in grid_params(ident, args.grid):
            rec = check(ident, params, tol=args.tol)
            worst_rel = max(worst_rel, rec.rel_err)
            worst_abs = max(worst_abs, rec.abs_err)
            values.append(rec.closed)
            bad += not rec.passed
        total += len(values)
        failures += bad
        values.sort()
        median = values[len(values) // 2]
        status = "ok" if bad == 0 else f"{bad} FAILED"
        print(f"{ident.name:<12} {len(values):>6} {worst_rel:>11.2e} "
              f"{worst_abs:>11.2e} {median:>15.6g}  {status}")
    print(f"\n{total} checks, {failures} failures "
          f"(tol {args.tol:g}, each side independently computed)")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
