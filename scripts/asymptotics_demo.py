#!/usr/bin/env python3
"""Partial-sum growth of global Dirichlet coefficients assembled from the
local catalog factors.

For the rank-2 free abelian group the partial sums s_m approach
(pi^2/12) m^2, so the printed ratios drift towards 1.  For the Heisenberg
subring series the expected growth is m^2 log m (double pole); the limiting
constant is recorded here, not asserted anywhere.  The partial sums are taken
without the coefficient array (`ratfun.partial_sums`), so the default bound
of 10^8 takes about a second.
"""

import argparse
import math

from ringzeta import ratfun


def show(label, name, alpha, b, c, bound):
    sums = ratfun.partial_sums(ratfun.formula_catalog(name), bound,
                               ratfun.asymptotic_samples(bound))
    print(f"{label}: s_m / ({c:.6g} * m^{alpha}" + (f" * (log m)^{b}" if b else "") + ")")
    for m, ratio in ratfun.asymptotic_ratio(sums, alpha, b, c):
        print(f"  m = {m:>9}: {ratio:.4f}")
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bound", type=int, default=10**8)
    args = parser.parse_args()
    show("rank-2 abelian", "zeta_Zn(2)", 2, 0, math.pi**2 / 12, args.bound)
    show("Heisenberg subrings", "heisenberg_subring", 2, 1, 1.0, args.bound)


if __name__ == "__main__":
    main()
