#!/usr/bin/env python3
"""Record the prime-by-prime behaviour of the elliptic point counts, the
twist-isoclass counts and the ideal counts of the rank-9 catalog ring.

The weighted Euler factor W_1 + b(p) W_2 is genuinely non-uniform: b(p) is not
a polynomial in p (it is p + 1 exactly when p = 3 mod 4).  This script prints
the counts and, for each orbit prime, re-derives the representation and ideal
truncations from first principles next to the weighted-formula expansions.
Values are recorded, not asserted; the assertions live in the test suite.
"""

import argparse

from ringzeta import algebra, igusa, latticezeta, ratfun, repzeta

IDEAL_DEPTH = 6


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-prime", type=int, default=23)
    parser.add_argument("--orbit-primes", type=int, nargs="*", default=[3, 5, 7, 11, 13])
    args = parser.parse_args()

    affine = igusa.parse_polynomial("y^2 - x^3 + x")
    curve = repzeta.ProjectivePlaneCurve(igusa.parse_polynomial("y^2*z - x^3 + x*z^2"))

    print(f"{'p':>4} {'p mod 4':>8} {'c(p)':>6} {'b(p)':>6} {'p+1':>6}")
    for p in range(3, args.max_prime + 1):
        if any(p % d == 0 for d in range(2, p)):
            continue
        c = repzeta.point_count_affine(affine, p)
        b = repzeta.point_count_projective(curve, p)
        print(f"{p:>4} {p % 4:>8} {c:>6} {b:>6} {p + 1:>6}")

    print()
    pres = algebra.resolve_presentation_spec("catalog:dusautoy_ec")
    hybrid = ratfun.formula_catalog("dusautoy_rep")
    print("twist-isoclass counts c[p^0..p^2] of the rank-9 ring:")
    for p in args.orbit_primes:
        weights = repzeta.weight_values(hybrid, p)
        formula = hybrid.expand(p, 2, weights).coefficients
        orbit = repzeta.rep_zeta_class2(pres, p, 2).coefficients
        marker = "==" if orbit == formula else "!="
        print(f"  p={p}: orbit {list(orbit)} {marker} weighted formula {list(formula)}"
              f"  (b({p}) = {weights['b']})")

    print()
    ring = algebra.catalog("dusautoy_ec")
    normal = ratfun.formula_catalog("dusautoy_normal")
    print(f"ideal counts a[p^0..p^{IDEAL_DEPTH}] of the rank-9 ring:")
    for p in args.orbit_primes:
        weights = repzeta.weight_values(normal, p)
        formula = normal.expand(p, IDEAL_DEPTH, weights).coefficients
        ideals = latticezeta.count(ring, p, IDEAL_DEPTH, "ideals").coefficients
        marker = "==" if ideals == formula else "!="
        print(f"  p={p}: ideals {list(ideals)} {marker} weighted formula {list(formula)}"
              f"  (b({p}) = {weights['b']})")


if __name__ == "__main__":
    main()
