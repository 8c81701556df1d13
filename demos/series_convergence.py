"""Show the eccentricity-series machinery: coefficients, sums, tails.

Prints the first few odd-order coefficients of A and Omega, which come from
recurrences, and of Theta and Psi, which come from binomial products, with
the residual of Omega = Theta + Psi, then sums
both series at a moderately eccentric shape and watches the truncation
bound track the true tail. Finishes with the Maclaurin derivative values
that the leading coefficients encode.

Run:  python3 demos/series_convergence.py [--e1 0.8] [--e2 0.5]
"""

import argparse

from ellint import (
    a_coefficients,
    f_maclaurin_derivative,
    omega_coefficients,
    psi_terms,
    sigma1_sum,
    sigma2_sum,
    theta_terms,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--e1", type=float, default=0.8)
    ap.add_argument("--e2", type=float, default=0.5)
    ap.add_argument("--orders", type=int, default=6,
                    help="number of odd orders to tabulate")
    args = ap.parse_args()
    e1, e2 = args.e1, args.e2

    m_max = args.orders - 1
    a = a_coefficients(e1, e2, m_max).terms
    om = omega_coefficients(e1, e2, m_max).terms
    th = theta_terms(e1, e2, m_max).terms
    ps = psi_terms(e1, e2, m_max).terms

    print(f"coefficient families at (e1, e2) = ({e1}, {e2})")
    print(f"{'order':>5} {'A':>13} {'Omega':>13} {'Theta':>13} {'Psi':>13} "
          f"{'Theta+Psi-Omega':>16}")
    for m in range(args.orders):
        order = 2 * m + 1
        print(f"{order:>5} {a[m]:>13.6e} {om[m]:>13.6e} {th[m]:>13.6e} "
              f"{ps[m]:>13.6e} {th[m] + ps[m] - om[m]:>16.2e}")
    print("(the split holds from order 3 on; the order-1 terms differ by construction)")

    print()
    s1 = sigma1_sum(e1, e2)
    s2 = sigma2_sum(e1, e2)
    print("series sums (value, terms needed, a posteriori truncation bound)")
    print(f"  sigma1 = {s1.value:.15g}   terms {s1.terms_used}   "
          f"trunc {s1.truncation_estimate:.2e}")
    print(f"  sigma2 = {s2.value:.15g}   terms {s2.terms_used}   "
          f"trunc {s2.truncation_estimate:.2e}")

    print()
    print("terms needed as the shape flattens (e2 = e1/2)")
    for e in (0.1, 0.3, 0.5, 0.7, 0.9):
        s = sigma1_sum(e, e / 2.0)
        print(f"  e1 = {e:.1f}   sigma1 terms {s.terms_used:>3}   "
              f"value {s.value:.12g}")

    print()
    print("Maclaurin derivatives encoded by the leading coefficients")
    for m in range(3):
        d = f_maclaurin_derivative(m, e1, e2)
        print(f"  order {2 * m + 1}: {d:.15g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
