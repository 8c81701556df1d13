"""Demonstrate the argument/modulus extensions of the Legendre kernels.

The library keeps F and E on the principal domain (amplitude in
[0, pi/2], modulus in [0, 1]) and reaches everything else through exact
reductions: complementary (conjugate) amplitudes that complete a
half-period, and the two "imaginary" extensions (purely imaginary
modulus, purely imaginary argument) that come back as real pairs, each
from one Carlson evaluation. Each reduction is checked here against K and
E or against a direct numerical integral of the defining integrand.

Run:  python3 demos/extension_pairs.py
"""

import cmath
import math

from ellint import (
    complementary_amplitude,
    complete_e,
    complete_k,
    imaginary_argument_reduce,
    imaginary_modulus_reduce,
    incomplete_e,
    incomplete_f,
    integrate,
)


def show_complementary(phi1: float, k: float) -> None:
    phi2 = complementary_amplitude(phi1, k)
    kp = math.sqrt(1.0 - k * k)
    f_sum = incomplete_f(phi1, k) + incomplete_f(phi2, k)
    e_sum = incomplete_e(phi1, k) + incomplete_e(phi2, k)
    e_ref = complete_e(k) + k * k * math.sin(phi1) * math.sin(phi2)
    print(f"  phi1 = {phi1:.6f}  ->  phi2 = {phi2:.6f}  (modulus {k}, "
          f"k' tan(phi1) tan(phi2) = {kp * math.tan(phi1) * math.tan(phi2):.12f})")
    print(f"    F(phi1) + F(phi2) - K               = {f_sum - complete_k(k):+.2e}")
    print(f"    E(phi1) + E(phi2) - (E + k^2 s1 s2) = {e_sum - e_ref:+.2e}")


def show_imaginary_modulus(phi: float, k: float) -> None:
    f_val, e_val = imaginary_modulus_reduce(phi, k)
    # defining integrands with modulus ik: 1 -+ (ik sin t)^2 = 1 +- k^2 sin^2 t
    f_ref = integrate(
        lambda t: (1.0 + (k * math.sin(t)) ** 2) ** -0.5, 0.0, phi, 1e-13).value
    e_ref = integrate(
        lambda t: (1.0 + (k * math.sin(t)) ** 2) ** 0.5, 0.0, phi, 1e-13).value
    print(f"  phi = {phi:.4f}, k = {k:g}:")
    print(f"    F(phi, ik) = {f_val:.15g}   vs integral {f_ref:.15g}")
    print(f"    E(phi, ik) = {e_val:.15g}   vs integral {e_ref:.15g}")


def show_imaginary_argument(phi_h: float, k: float) -> None:
    f_val, e_val = imaginary_argument_reduce(phi_h, k)
    # Im F(i phi_h, k) and Im E(i phi_h, k) via complex quadrature along
    # the imaginary axis: dt = i ds, sin(i s) = i sinh s.
    n = 4000
    h = phi_h / n
    fs = es = 0.0 + 0.0j
    for j in range(n):
        s = (j + 0.5) * h
        w = 1.0 - (k * cmath.sin(1j * s)) ** 2
        fs += 1j * h / cmath.sqrt(w)
        es += 1j * h * cmath.sqrt(w)
    print(f"  phi_h = {phi_h:.4f}, k = {k:.4f}:")
    print(f"    Im F(i phi_h, k) = {f_val:.12g}   midpoint rule {fs.imag:.12g}")
    print(f"    Im E(i phi_h, k) = {e_val:.12g}   midpoint rule {es.imag:.12g}")


def main() -> int:
    print("complementary (conjugate) amplitude: cot(phi2) = k' tan(phi1), "
          "completing a half-period")
    for phi1, k in [(0.4, 0.6), (1.1, 0.8), (0.5, 0.7), (1.2, 0.3)]:
        show_complementary(phi1, k)

    print()
    print("purely imaginary modulus: F and E at parameter -k^2")
    show_imaginary_modulus(1.0, 0.75)
    show_imaginary_modulus(0.6, 2.0)
    show_imaginary_modulus(1.2, 1e8)

    print()
    print("purely imaginary argument: F and E at modulus k' and amplitude gd(phi_h)")
    show_imaginary_argument(0.8, 0.5)
    show_imaginary_argument(1.5, 0.9)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
