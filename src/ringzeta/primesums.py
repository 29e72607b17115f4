"""Sums of a multiplicative function up to n in about n^(3/4) / log n steps:
the Lucy-Hedgehog sieve for the sums over the primes and the Min_25
recursion for the rest (`ratfun.partial_sums`).

The tables hold one value for each of the distinct v = n // i: lo[v] for
v <= r = isqrt(n), and hi[i] for v = n // i, i = 1..r (hi[0] is unused).
Every sieve step computes the new values of a table off the old ones, one
list pass per step.  A separate module, so that only `euler` compiles it.
"""

from __future__ import annotations

import math
from itertools import accumulate


def in_table(n, x):
    """Whether x is one of the n // i, which the tables at n hold."""
    return x <= math.isqrt(n) or n // (n // x) == x


def predicted_updates(n):
    """The entries of one table at n, 2 isqrt(n), plus the entries v >= k^2
    a sieve step by each integer 2 <= k <= r = isqrt(n) would update: at
    most min(r, n // k^2) of the n // i and max(0, r + 1 - k^2) of the
    v <= r.  The first is r for k <= k0 = isqrt(n // r), and its sum over k
    > k0 is below n / k0; the second sums in closed form over k <= isqrt(r).
    A bound on the sieve steps by primes, which are fewer."""
    r = math.isqrt(n)
    k0, s = math.isqrt(n // r), math.isqrt(r)
    return (2 * r + (k0 - 1) * r + n // k0
            + (s - 1) * (r + 1) - (s * (s + 1) * (2 * s + 1) // 6 - 1))


def _gather(lo, hi, n, q, count):
    """[T(n // (i q)) for i = 1..count] from a table T at n: hi[i q] while
    i q <= isqrt(n), then lo[n // q // i]."""
    near = min(count, (len(lo) - 1) // q)
    nq = n // q
    return hi[q : near * q + 1 : q] + [lo[nq // i] for i in range(near + 1, count + 1)]


def prime_sums(f, n, primes):
    """The table (lo, hi) at n of G(v), the sum of f(p) = sum c p^k over the
    primes p <= v, f given as {k: c}; primes are the primes up to isqrt(n).

    One Lucy-Hedgehog table per monomial c X^k of f starts from the power
    sums of 2..v (`_power_sums`) and, for each prime p in increasing order,
    removes the m whose least prime factor is p:
    T(v) -= p^k (T(v // p) - T(p - 1)) for every v >= p^2."""
    r = math.isqrt(n)
    large = _power_sums([n // i for i in range(1, r + 1)], f)
    tables = [(k, c, list(accumulate(m**k if m > 1 else 0 for m in range(r + 1))), [0, *large[k]])
              for k, c in f.items()]
    for p in primes:
        count = min(r, n // (p * p))
        near = [v // p for v in range(p * p, r + 1)]
        for k, _, lo, hi in tables:
            pk = p**k
            base = pk * lo[p - 1]
            hi[1 : count + 1] = [h - pk * t + base
                                 for h, t in zip(hi[1 : count + 1], _gather(lo, hi, n, p, count))]
            lo[p * p :] = [x - pk * lo[j] + base for x, j in zip(lo[p * p :], near)]
    lo, hi = [0] * (r + 1), [0] * (r + 1)
    for _, c, tlo, thi in tables:
        lo = [x + c * t for x, t in zip(lo, tlo)]
        hi = [x + c * t for x, t in zip(hi, thi)]
    return lo, hi


def _power_sums(values, degrees):
    """{k: [sum of m^k over 2 <= m <= v, for v in values]} for each k in
    degrees, every v >= 1: m^k is the sum over j of j! S(k, j) C(m, j), with
    S the Stirling numbers of the second kind, and C(m, j) summed over
    0 <= m <= v is C(v + 1, j + 1)."""
    top = max(degrees, default=0)
    combs = [[math.comb(v + 1, j + 1) for j in range(top + 1)] for v in values]
    sums, surjections = {}, [1]  # j! S(k, j) for j = 0..k
    for k in range(top + 1):
        if k:
            prev = [0, *surjections, 0]
            surjections = [j * (prev[j] + prev[j + 1]) for j in range(k + 1)]
        if k in degrees:
            less = 2 if k == 0 else 1  # the terms m = 0 (0^0 = 1) and m = 1
            sums[k] = [sum(s * c for s, c in zip(surjections, row)) - less for row in combs]
    return sums


def multiplicative_sums(lo, hi, n, primes, rows):
    """The Min_25 recursion: from the table (lo, hi) at n of the prime sums
    G(v), the table of a_2 + ... + a_v, for the multiplicative a with
    a_{p^e} = rows[p][e] at the primes up to isqrt(n) and a_p in G above.

    T(v) starts at G(v): an m <= n with no prime factor up to isqrt(n) is
    prime.  The primes p <= isqrt(n) go in decreasing order, and after the
    step at p, T(v) - G(p - 1) sums a_m over the 2 <= m <= v whose least
    prime factor is at least p.  The step adds to every v >= p^2 the
    m = p^e m' with every prime factor of m' > 1 above p (a_{p^(e+1)} counts
    m' = 1; m = p is in G already):
    T(v) += sum over e >= 1 with p^(e+1) <= v of
    a_{p^e} (T(v // p^e) - G(p)) + a_{p^(e+1)}, all read off the table
    before the step; G(p) = T(p), which no larger prime changes."""
    r = math.isqrt(n)
    for p in reversed(primes):
        row, gp, square = rows[p], lo[p], p * p
        new_hi, new_lo = hi[1 : min(r, n // square) + 1], lo[square:]
        q, e = p, 1
        while q * p <= n:
            a, const = row[e], row[e + 1] - row[e] * gp
            count = min(r, n // (q * p))
            new_hi[:count] = [x + a * t + const
                              for x, t in zip(new_hi, _gather(lo, hi, n, q, count))]
            start = q * p - square
            new_lo[start:] = [x + a * lo[v // q] + const
                              for x, v in zip(new_lo[start:], range(q * p, r + 1))]
            q, e = q * p, e + 1
        hi[1 : len(new_hi) + 1] = new_hi
        lo[square:] = new_lo
    return lo, hi
