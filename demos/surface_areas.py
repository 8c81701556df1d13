"""Walk through the surface-area routines on a few representative shapes.

Shows the R_G surface area against quadrature over the azimuth, its exact
invariance under axis reordering, and how the paper's triaxial expression
degenerates smoothly into the oblate/prolate/sphere closed forms.

Run:  python3 demos/surface_areas.py [--quad-tol 1e-9]
"""

import argparse
import itertools
import math

from ellint import (
    oblate_area,
    prolate_area,
    surface_area,
    surface_area_quadrature,
    triaxial_area,
)

SHAPES = [
    (2.0, 1.5, 1.0),
    (0.5, 1.0, 3.0),
    (7.5, 0.2, 1.1),
    (2.0, 2.0, 1.0),   # oblate
    (2.0, 1.0, 1.0),   # prolate
    (1.0, 1.0, 1.0),   # sphere
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quad-tol", type=float, default=1e-9,
                    help="relative tolerance for the quadrature reference")
    args = ap.parse_args()

    print("closed form vs azimuthal quadrature")
    print(f"{'axes':>18}  {'area':>22}  {'rel err vs quad':>16}")
    for axes in SHAPES:
        area = surface_area(*axes)
        ref = surface_area_quadrature(*axes, tol=args.quad_tol).value
        rel = abs(area - ref) / ref
        print(f"{str(axes):>18}  {area:22.15g}  {rel:16.2e}")

    print()
    print("axis-order invariance (surface_area sorts every ordering to one case)")
    axes = (2.0, 1.5, 1.0)
    values = {surface_area(*perm) for perm in itertools.permutations(axes)}
    print(f"  {len(list(itertools.permutations(axes)))} orderings of {axes} "
          f"-> {len(values)} distinct float value(s): {values.pop():.17g}")

    print()
    print("degeneration into the spheroid closed forms (axis gap 1e-6)")
    eps = 1e-6
    pairs = [
        ("oblate ", triaxial_area(1.0 + eps, 1.0, 0.6),
         oblate_area((2.0 + eps) / 2.0, 0.6)),
        ("prolate", triaxial_area(1.0, 0.6 + 0.6 * eps, 0.6),
         prolate_area(1.0, 0.6 + 0.3 * eps)),
        ("sphere ", triaxial_area(1.0 + 2 * eps, 1.0 + eps, 1.0),
         4.0 * math.pi * (1.0 + eps) ** 2),
    ]
    for name, tri, limit in pairs:
        print(f"  {name}  triaxial {tri:.12g}   limit {limit:.12g}"
              f"   rel gap {abs(tri - limit) / limit:.2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
