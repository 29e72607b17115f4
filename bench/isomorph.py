"""Seeded isomorphisms of structure-constant rings and class-2 presentations.

A base change is an integer matrix whose rows are the new basis vectors in old
coordinates.  Subring, ideal and sublattice counts and twist-isoclass counts
are invariant under base changes in GL_n(Z), so every reference the benchmark
checks stays exact while the constants the program reads depend on the seed.

The two families below keep the number of structure constants, and the
enumerators do the same number of closure tests for every seed and the same
number of products and membership tests to within 0.1%.  A general
unitriangular or unimodular change does not:
on `dusautoy_ec` ideals at p = 2 it moved the number of products by up to 20%
between seeds and the number of constants from 14 to 60, which would turn the
seed into timing noise.
"""

from __future__ import annotations

from fractions import Fraction


def integer_inverse(M):
    """Inverse of a square integer matrix; ValueError unless it is unimodular."""
    n = len(M)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(M)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    inverse = [row[n:] for row in rows]
    if any(x.denominator != 1 for row in inverse for x in row):
        raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in inverse]


def change_basis(constants, A, B=None):
    """Structure constants {(i, j, k): c} (1-based) in the basis whose inputs
    are the rows of A and whose outputs are the rows of B (B = A for a ring)."""
    B = A if B is None else B
    B_inv = integer_inverse(B)
    d, dp = len(A), len(B)
    out = {}
    for i in range(d):
        for j in range(d):
            w = [0] * dp
            for (a, b, k), c in constants.items():
                w[k - 1] += A[i][a - 1] * A[j][b - 1] * c
            if not any(w):
                continue
            for l in range(dp):
                v = sum(w[k] * B_inv[k][l] for k in range(dp))
                if v:
                    out[(i + 1, j + 1, l + 1)] = v
    return out


def annihilator(rank, constants):
    """1-based coordinates e_k with e_k * x = x * e_k = 0 for every x."""
    used = {i for i, _, _ in constants} | {j for _, j, _ in constants}
    return {k for k in range(1, rank + 1) if k not in used}


def filtered_change(rank, constants, rng):
    """Signed base change that permutes the annihilating coordinates among
    themselves and keeps every other coordinate, up to sign.

    A constant (i, j, k) moves only in k, and only within the annihilator, so
    a basis whose products land above both factors (k > max(i, j)) keeps that
    property when the annihilator is its last block."""
    central = sorted(annihilator(rank, constants))
    target = dict(zip(central, rng.sample(central, len(central))))
    return [[rng.choice((-1, 1)) if j + 1 == target.get(i + 1, i + 1) else 0
             for j in range(rank)] for i in range(rank)]


def signed_permutation(n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n)] for i in range(n)]
