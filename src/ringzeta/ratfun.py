"""Exact bivariate rational functions W(X, Y).

X stands in for the prime p and Y for p^{-s}.  A function is stored as

    numerator * prod_{(a,b)} (1 - X^a Y^b)^{-mult} / extra_denominator

where the numerator and the extra denominator are exact Laurent polynomials
over XY = ("X", "Y") (`poly.Polynomial`).  Equality is decided by
cross-multiplication, never by floating evaluation.  Laurent exponents exist so
that inversion of the prime (X -> 1/X, Y -> 1/Y) is closed; catalog formulas
themselves have non-negative exponents.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import accumulate, compress

from .errors import (
    DEFAULT_CEILING,
    Budget,
    CoverageError,
    LookupError_,
    MalformedInputError,
    NonExpandableError,
)
from .poly import Polynomial

XY = ("X", "Y")

# ---------------------------------------------------------------------------
# rational functions


def _poly_from_factor(a, b):
    return Polynomial(XY, {(0, 0): 1, (a, b): -1})


class BivariateRationalFunction:
    __slots__ = ("num", "den_factors", "extra_den")

    def __init__(self, num, den_factors=None, extra_den=None):
        if isinstance(num, (int, Fraction)):
            num = Polynomial(XY, {(0, 0): num})
        self.den_factors = Counter()
        for key, mult in (den_factors or {}).items():
            a, b = int(key[0]), int(key[1])
            if a < 0 or b < 1:
                raise MalformedInputError(f"denominator factor (1 - X^{a} Y^{b}) out of contract")
            if mult:
                self.den_factors[(a, b)] += mult
        if extra_den is None:
            extra_den = Polynomial(XY, {(0, 0): 1})
        elif not extra_den.terms:
            raise MalformedInputError("zero denominator")
        else:
            my = extra_den.min_exponents()[1]
            if my:  # move Y^my to the numerator: expansion reads the Y^0 part of extra_den
                num, extra_den = num.shift(0, -my), extra_den.shift(0, -my)
        self.num = num
        self.extra_den = extra_den

    @classmethod
    def constant(cls, c):
        return cls(Polynomial(XY, {(0, 0): c}))

    def is_zero(self):
        return not self.num.terms

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return BivariateRationalFunction(
                self.num.scale(other), self.den_factors, self.extra_den
            )
        return BivariateRationalFunction(
            self.num * other.num,
            self.den_factors + other.den_factors,
            self.extra_den * other.extra_den,
        )

    __rmul__ = __mul__

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BivariateRationalFunction.constant(other)
        left, right = _cross_multiplied(self, other)
        return BivariateRationalFunction(
            left + right, self.den_factors | other.den_factors, self.extra_den * other.extra_den
        )

    __radd__ = __add__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BivariateRationalFunction.constant(other)
        if not isinstance(other, BivariateRationalFunction):
            return NotImplemented
        lhs, rhs = _cross_multiplied(self, other)
        return lhs == rhs

    def __hash__(self):
        raise TypeError("unhashable (equality is by cross-multiplication)")

    def __repr__(self):
        den = "".join(
            f"(1-X^{a}Y^{b})" + (f"^{m}" if m > 1 else "")
            for (a, b), m in sorted(self.den_factors.items())
        )
        extra = "" if self.extra_den == Polynomial(XY, {(0, 0): 1}) else f"({self.extra_den!r})"
        return f"({self.num!r})" + (f" / {den}{extra}" if den or extra else "")


def _cross_multiplied(f, g):
    """Numerators of f and g over the common denominator (shared factors cancelled)."""
    shared = f.den_factors & g.den_factors
    lhs = f.num * g.extra_den
    for fac, m in (g.den_factors - shared).items():
        for _ in range(m):
            lhs = lhs * _poly_from_factor(*fac)
    rhs = g.num * f.extra_den
    for fac, m in (f.den_factors - shared).items():
        for _ in range(m):
            rhs = rhs * _poly_from_factor(*fac)
    return lhs, rhs


def zp_factor(a: int, b: int) -> BivariateRationalFunction:
    """1 / (1 - X^a Y^b); at X = p this is the local factor zeta_p(b*s - a)."""
    if b < 1:
        raise MalformedInputError("zp_factor needs b >= 1")
    return BivariateRationalFunction(1, {(a, b): 1})


def invert_prime(f: BivariateRationalFunction) -> BivariateRationalFunction:
    """Substitute X -> 1/X, Y -> 1/Y and renormalize to the factored shape.

    Each factor 1/(1 - X^{-a}Y^{-b}) equals -X^aY^b/(1 - X^aY^b), so the factor
    multiset is preserved and a signed monomial moves into the numerator.
    """
    num = f.num.invert()
    for (a, b), mult in f.den_factors.items():
        num = num.shift(a * mult, b * mult).scale((-1) ** mult)
    extra = f.extra_den.invert()
    mx = extra.min_exponents()[0]  # the constructor clears the Y-powers
    return BivariateRationalFunction(num.shift(-mx, 0), f.den_factors, extra.shift(-mx, 0))


# ---------------------------------------------------------------------------
# series expansion


_UNIT_LEADING = "a[p^0] must be 1 for zeta-type counting"


@dataclass(frozen=True)
class LocalDirichletTruncation:
    """Coefficients a[k] of p^{-ks}, k = 0..K, as exact integers."""

    p: int
    coefficients: tuple

    def __post_init__(self):
        if self.coefficients and self.coefficients[0] != 1:
            raise MalformedInputError(_UNIT_LEADING)

    @property
    def depth(self):
        return len(self.coefficients) - 1


def expand_series(f: BivariateRationalFunction, p: int, K: int) -> list[Fraction]:
    """Coefficients of Y^0..Y^K of f at X = p, as exact Fractions (`_series`
    at the one prime)."""
    cols, _, error = _series(f, [p], K)
    if error:
        raise error
    return [Fraction(col[0]) for col in cols]


def expand(f: BivariateRationalFunction, p: int, K: int) -> LocalDirichletTruncation:
    """Integer Dirichlet truncation of a catalog-style Euler factor."""
    return _integral_truncation(p, expand_series(f, p, K))


def _integral_truncation(p, coeffs):
    return LocalDirichletTruncation(p, _rows([[c] for c in coeffs], 1, None)[0])


def _series(f, primes, K, den=None):
    """The Y^0..Y^K coefficients of f at X = p for every p in primes, as
    columns (one list over the primes per power of Y), and the index of the
    least prime that fails with its NonExpandableError (len(primes) and None
    when none does).

    With the numerator sum_k n_k(X) Y^k, whose least Y-power is ymin <= 0,
    and the denominator sum_j d_j(X) Y^j capped at Y^(K - ymin), the division
    a_k = (n_k - sum_{j>=1} d_j a_{k-j}) / d_0 runs for k = ymin..K over the
    whole list at once, each slice evaluated by `_band_values`; it stays in
    int arithmetic when d_0 is 1 at every prime.  A prime fails where d_0
    vanishes under a nonzero numerator (checked first), or where a_k != 0 for
    some k < 0.  A prime where the whole numerator vanishes gets zeros.
    `den`, when given, is the Y-slices of `_denominator` at an order of at
    least K - ymin, built once for every band of a product.
    """
    num = f.num.slices(1)
    ymin = min(0, min(num, default=0))
    order = K - ymin
    den = _denominator(f, order).slices(1) if den is None else den
    d = {j: _band_values(s, primes) for j, s in den.items() if j <= order}
    zeros = [0] * len(primes)
    d0 = d.pop(0, zeros)
    stop, error = len(primes), None
    if 0 in d0:
        values = zip(d0, *(_band_values(s, primes) for s in num.values()))
        i = next((i for i, (c, *ns) in enumerate(values) if not c and any(ns)), stop)
        if i < stop:
            stop, error = i, NonExpandableError("denominator vanishes at Y = 0")
    inv = None if d0.count(1) == len(d0) else [1 / Fraction(c or 1) for c in d0]
    a = []  # a[i] is the column of Y^(i + ymin)
    for i in range(K - ymin + 1):
        col = _band_values(num[i + ymin], primes) if i + ymin in num else zeros
        for j, dj in d.items():
            if j <= i:
                col = [c - x * y for c, x, y in zip(col, dj, a[i - j])]
        a.append(col if inv is None else [c * v for c, v in zip(col, inv)])
    for col in a[:-ymin]:
        i = next((i for i, c in enumerate(col[:stop]) if c), stop)
        if i < stop:
            stop, error = i, NonExpandableError("negative Y-powers survive expansion")
    return a[-ymin:], stop, error


def _rows(cols, stop, error):
    """expand's coefficient tuples, one per prime, from `_series`'s columns:
    raises what expand raises at the least prime that fails, the error of
    `_series` there, a coefficient that is not an integer, or a[p^0] != 1."""
    for k, col in enumerate(cols):
        if set(map(type, col)) <= {int}:
            continue
        i = next((i for i, c in enumerate(col[:stop]) if c.denominator != 1), stop)
        if i < stop:
            stop, error = i, NonExpandableError(f"coefficient of Y^{k} is not an integer: {col[i]}")
        cols[k] = list(map(int, col))
    if cols[0][:stop].count(1) < stop:
        raise MalformedInputError(_UNIT_LEADING)
    if error:
        raise error
    return list(zip(*cols))


def _denominator(f, order):
    """The full denominator of f with every Y-power above `order` dropped.

    extra_den comes first: the factors only raise Y-powers, so capping the
    product at each step drops nothing that could reach Y^0..Y^order.  Each
    factor 1 - X^a Y^b subtracts the product so far, shifted by (a, b)."""
    den = {e: c for e, c in f.extra_den.terms.items() if e[1] <= order}
    for (a, b), mult in f.den_factors.items():
        for _ in range(mult):
            shifted = [((ex + a, ey + b), c) for (ex, ey), c in den.items() if ey + b <= order]
            for e, c in shifted:
                den[e] = den.get(e, 0) - c
    return Polynomial(XY, den)


def _band_values(poly, primes):
    """[poly at X = p for p in primes], for a polynomial free of Y, one pass
    over the list per term; a negative X-power goes through Fraction.  It does
    not call Polynomial.evaluate, whose calls count the Igusa points."""
    values = [0] * len(primes)
    for (ex, _), c in poly.terms.items():
        xs = primes if ex >= 0 else [Fraction(p) for p in primes]
        values = [v + c * x**ex for v, x in zip(values, xs)]
    return values


# ---------------------------------------------------------------------------
# functional equations


@dataclass(frozen=True)
class FuneqVerdict:
    has_monomial_equation: bool
    sign: int | None = None
    a: int | None = None
    b: int | None = None
    matches_expected: bool | None = None

    def triple(self):
        return (self.sign, self.a, self.b)


def funeq_verdict(f: BivariateRationalFunction, expected=None) -> FuneqVerdict:
    """Solve invert_prime(f) = sign * X^a Y^b * f, when such a monomial exists."""
    if f.is_zero():
        raise MalformedInputError("funeq_verdict needs a nonzero function")
    g = invert_prime(f)
    lhs, rhs = _cross_multiplied(g, f)
    (el, cl) = lhs.leading()
    (er, cr) = rhs.leading()
    ratio = Fraction(cl) / cr
    a, b = el[0] - er[0], el[1] - er[1]
    if ratio in (1, -1) and lhs == rhs.shift(a, b).scale(ratio):
        sign = int(ratio)
        verdict = FuneqVerdict(True, sign, a, b)
        if expected is not None:
            verdict = FuneqVerdict(True, sign, a, b, tuple(expected) == (sign, a, b))
        return verdict
    return FuneqVerdict(False, matches_expected=False if expected is not None else None)


# ---------------------------------------------------------------------------
# point-count hybrids


class PointCountHybrid:
    """Sum of weight(p) * W_t(p, p^{-s}) with formal point-count weights.

    Weight symbol "1" is the constant part.  Every non-constant symbol carries a
    declared variety dimension; under prime inversion it transforms as
    symbol -> X^{-dim} * symbol.  Actual values are injected at evaluation time.
    """

    def __init__(self, parts, weight_curves=None):
        self.parts = []
        for symbol, dim, value in parts:
            if symbol != "1" and dim is None:
                raise MalformedInputError(f"weight {symbol!r} needs a declared dimension")
            self.parts.append((symbol, 0 if symbol == "1" else int(dim), value))
        self.weight_curves = dict(weight_curves or {})

    def symbols(self):
        return sorted({s for s, _, _ in self.parts if s != "1"})

    def expand(self, p, K, weights=None) -> LocalDirichletTruncation:
        weights = weights or {}
        missing = [s for s in self.symbols() if s not in weights]
        if missing:
            raise MalformedInputError(f"no point-count value supplied for {missing}")
        total = [Fraction(0)] * (K + 1)
        for symbol, _dim, value in self.parts:
            w = 1 if symbol == "1" else weights[symbol]
            for k, c in enumerate(expand_series(value, p, K)):
                total[k] += w * c
        return _integral_truncation(p, total)


def hybrid_funeq_verdict(h: PointCountHybrid, expected) -> FuneqVerdict:
    """Check invert_prime(h) = sign X^a Y^b h treating each weight formally.

    Grouping by symbol, the requirement is funeq(W_sym) = (sign, a + dim, b)."""
    sign, a, b = expected
    grouped = {}
    for symbol, dim, value in h.parts:
        if symbol in grouped:
            grouped[symbol] = (dim, grouped[symbol][1] + value)
        else:
            grouped[symbol] = (dim, value)
    for symbol, (dim, value) in grouped.items():
        v = funeq_verdict(value, (sign, a + dim, b))
        if not v.matches_expected:
            return FuneqVerdict(v.has_monomial_equation, v.sign, v.a, v.b, False)
    return FuneqVerdict(True, sign, a, b, True)


# ---------------------------------------------------------------------------
# Euler products


@dataclass(frozen=True)
class GlobalDirichletTruncation:
    bound: int
    coefficients: tuple  # a_1..a_M at indices 1..M of a length-(M+1) tuple

    def __post_init__(self):
        if self.bound >= 1 and self.coefficients[1] != 1:
            raise MalformedInputError("a_1 must be 1 for zeta-type series")


def _primes_up_to(n):
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray((n - i * i) // i + 1)
    return list(compress(range(n + 1), sieve))


def _bands(primes, bound):
    """[(d, the primes p with p^d <= bound < p^(d+1))] over the ascending
    primes, deepest band (least primes) first, empty bands left out."""
    D = max(bound, 1).bit_length() - 1
    # cuts[d] counts the primes with p^d <= bound: band d is primes[cuts[d + 1]:cuts[d]]
    cuts = [len(primes)] + [bisect_right(primes, bound, key=lambda p: p**d)
                            for d in range(1, D + 2)]
    bands = [(d, primes[cuts[d + 1] : cuts[d]]) for d in range(D, -1, -1)]
    return [(d, ps) for d, ps in bands if ps]


def _local_rows(f, primes, bound):
    """{p: expand(f, p, d).coefficients} for the ascending primes, d the depth
    of p under bound: one series division (`_series`) per band over one
    denominator capped at the deepest order, raising what expand raises at
    the least prime that fails."""
    bands = _bands(primes, bound)
    if not bands:
        return {}
    ymin = min(0, min((ey for _, ey in f.num.terms), default=0))
    den = _denominator(f, bands[0][0] - ymin).slices(1)
    rows = {}
    for depth, ps in bands:
        rows.update(zip(ps, _rows(*_series(f, ps, depth, den))))
    return rows


def euler_product(factor, primes_up_to: int, bound: int,
                  ceiling: int = DEFAULT_CEILING) -> GlobalDirichletTruncation:
    """Assemble a_m for m <= bound from local factors at all primes <= primes_up_to.

    factor is either a BivariateRationalFunction W, the same at every prime
    (zeta_p(s) = W(p, p^{-s})), expanded over each band of primes of one
    depth (`_local_rows`), which raises what expand(W, p, depth) raises at
    the least prime that fails; or a callable p -> LocalDirichletTruncation
    of sufficient depth.  A prime p has depth d when p^d <= bound < p^(d+1).
    Raises CoverageError, naming the least prime in (primes_up_to, bound],
    when there is one.  `ceiling` bounds the integers sieved plus the
    `bound` coefficients, charged before the sieve.
    """
    Budget(ceiling, "the Euler product", "integers").predict(max(primes_up_to, bound) + bound)
    everything = _primes_up_to(max(primes_up_to, bound))
    covered = bisect_right(everything, primes_up_to)
    primes = everything[:covered]
    if isinstance(factor, BivariateRationalFunction):
        local = _local_rows(factor, primes, bound)
    else:
        local = {}
        for depth, ps in _bands(primes, bound):
            for p in ps:
                trunc = factor(p)
                if trunc.depth < depth:
                    raise CoverageError(
                        f"local factor at p={p} too shallow ({trunc.depth} < {depth})")
                local[p] = trunc.coefficients
    if covered < len(everything):  # a prime in (primes_up_to, bound]
        q = everything[covered]
        raise CoverageError(f"index {q} has prime factor {q} > {primes_up_to}")
    # prime-power sieve: qp[m] = p^v exactly dividing m for the least prime p
    # of m, and coeffs[m] = a_p[v] (each prime's powers in increasing order,
    # so the highest is written last); then a_m = a_{m / p^v} a_p[v]
    qp = [1] * (bound + 1)
    coeffs = [1] * (bound + 1)
    coeffs[0] = 0
    for p in reversed(primes):
        row = local[p]
        q, v = p, 1
        while q <= bound:
            count = bound // q
            qp[q::q] = [q] * count
            coeffs[q::q] = [row[v]] * count
            q, v = q * p, v + 1
    for m in range(2, bound + 1):
        coeffs[m] *= coeffs[m // qp[m]]
    del qp
    return GlobalDirichletTruncation(bound, tuple(coeffs))


def partial_sums(factor, primes_up_to: int, samples, ceiling: int = DEFAULT_CEILING) -> dict:
    """{x: a_1 + ... + a_x} for every x in samples (0 for x <= 0), where a_m
    are the coefficients euler_product(factor, primes_up_to, N) assembles,
    N = max(samples): the same sums, raising what that call raises, in the
    same order, without building the coefficients.

    When the series of factor in Y is 1 + f(X) Y + ... with f an integer
    polynomial (`_prime_polynomial`), a_p = f(p) at every prime, and a
    prime above sqrt(N) contributes through f alone.  The sums of f(p) over
    the primes p <= v, for each v = x // i, come from the Lucy-Hedgehog sieve
    (`primesums.prime_sums`), and the Min_25 recursion
    (`primesums.multiplicative_sums`) adds the m with a prime factor
    p <= sqrt(x), whose rows come from `_local_rows`.  Only those primes
    are sieved, and the least prime in (primes_up_to, N] is found by trial
    division by them.  Any other factor is summed from euler_product.

    `ceiling` bounds the table updates, predicted before the sieve: for
    each x whose table no larger sample's holds, `predicted_updates` for
    each prime-sum table (one per monomial of f) and for the recursion.
    """
    samples = set(samples)
    bound = max(0, max(samples, default=0))
    f = _prime_polynomial(factor)
    if f is None:
        coeffs = euler_product(factor, primes_up_to, bound, ceiling).coefficients
        sums = list(accumulate(coeffs))
        return {x: sums[max(x, 0)] for x in samples}
    from . import primesums

    runs = []  # the samples whose tables hold every sample, largest first
    for x in sorted(samples, reverse=True):
        if x > 0 and not any(primesums.in_table(n, x) for n in runs):
            runs.append(x)
    Budget(ceiling, "the Euler product", "table updates").predict(
        (len(f) + 1) * sum(map(primesums.predicted_updates, runs)))
    primes = _primes_up_to(math.isqrt(bound))
    rows = _local_rows(factor, primes[: bisect_right(primes, primes_up_to)], bound)
    for q in range(primes_up_to + 1, bound + 1):  # the least prime in (primes_up_to, bound]
        if q > 1 and all(q % p for p in primes[: bisect_right(primes, math.isqrt(q))]):
            raise CoverageError(f"index {q} has prime factor {q} > {primes_up_to}")
    sums = {x: 0 for x in samples if x <= 0}
    for n in runs:
        r = math.isqrt(n)
        ps = primes[: bisect_right(primes, r)]
        lo, hi = primesums.multiplicative_sums(*primesums.prime_sums(f, n, ps), n, ps, rows)
        for x in samples - sums.keys():
            if primesums.in_table(n, x):
                sums[x] = 1 + (lo[x] if x <= r else hi[n // x])
    return sums


def _prime_polynomial(f):
    """{k: c} with a_p = sum c p^k at every prime p: the Y^1 coefficient of
    the series of f, when its Y^0 coefficient is 1; None when f is not a
    BivariateRationalFunction, has a negative Y-power, a denominator whose
    Y^0 part is not 1, or a Y^1 coefficient with a non-integer coefficient
    or a negative X-power."""
    if not isinstance(f, BivariateRationalFunction):
        return None
    one = Polynomial(XY, {(0, 0): 1})
    num, den = f.num.slices(1), _denominator(f, 1).slices(1)
    if min(num, default=0) < 0 or num.get(0) != one or den.get(0) != one:
        return None
    a1 = num.get(1, Polynomial(XY)) - den.get(1, Polynomial(XY))
    if any(ex < 0 or not isinstance(c, int) for (ex, _), c in a1.terms.items()):
        return None
    return {ex: c for (ex, _), c in a1.terms.items()}


def _ratio(s, m, alpha, b, c):
    """s / (c m^alpha (log m)^b): the float quotient wherever every step
    stays finite; past the float range the quotient in Decimal, returned as
    a float where it fits and as the Decimal where it does not.  A zero
    denominator gives inf; (log 1)^b for b < 0, infinite, gives 0."""
    log_m = math.log(m)
    if not c or (not log_m and b > 0):
        return math.inf
    if not log_m and b < 0:
        return 0.0
    try:
        denom = c * m**alpha * (log_m**b if b else 1.0)
        if denom and math.isfinite(denom) and math.isfinite(ratio := s / denom):
            return ratio
    except OverflowError:  # an int or a power past the float range
        pass
    from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext

    with localcontext(Context(Emax=MAX_EMAX, Emin=MIN_EMIN)):
        denom = Decimal(c) * Decimal(m) ** Decimal(alpha)
        if b:
            denom *= Decimal(m).ln() ** Decimal(b)
        ratio = Decimal(s) / denom
    as_float = float(ratio)
    return as_float if math.isfinite(as_float) else ratio


def asymptotic_samples(bound):
    """10, 100, ... below bound, then bound: the default samples of
    asymptotic_ratio."""
    samples, m = [], 10
    while m < bound:
        samples.append(m)
        m *= 10
    return samples + [bound]


def asymptotic_ratio(sums, alpha, b, c, samples=None):
    """Partial-sum ratios s_m / (c m^alpha (log m)^b) for convergence
    inspection, at each sample in 1..N once, N the bound.

    sums is {m: s_m}, as partial_sums returns it, with N its largest m, or a
    GlobalDirichletTruncation; the samples default to asymptotic_samples(N).
    Display-only (`_ratio`), no pass/fail; alpha, b and c must be finite."""
    if not all(map(math.isfinite, (alpha, b, c))):
        raise MalformedInputError("asymptotics need finite alpha, b and c")
    if isinstance(sums, GlobalDirichletTruncation):
        sums = dict(enumerate(accumulate(sums.coefficients)))
    bound = max(sums, default=0)
    wanted = sorted(set(asymptotic_samples(bound) if samples is None else samples))
    return [(m, _ratio(sums[m], m, alpha, b, c)) for m in wanted if 1 <= m <= bound]


# ---------------------------------------------------------------------------
# the formula catalog


def _poly_from_json(termlist):
    return Polynomial(XY, {(ex, ey): c for ex, ey, c in termlist})


def _rational_from_json(data) -> BivariateRationalFunction:
    num = Polynomial(XY, {(0, 0): 1})
    for factor in data.get("numerator_factors", []):
        num = num * _poly_from_json(factor)
    den = Counter()
    n = data.get("abelian_prefactor")
    if n:
        for i in range(n):
            den[(i, 1)] += 1
    for a, b in data.get("denominator_factors", []):
        den[(a, b)] += 1
    extra = None
    if "extra_denominator" in data:
        extra = _poly_from_json(data["extra_denominator"])
    return BivariateRationalFunction(num, den, extra)


def _load_formula_file():
    with resources.files(__package__).joinpath("formulas.json").open() as fh:
        return json.load(fh)


_FORMULAS = None


def _formulas():
    """Name -> formula data; keys starting with '_' document the file."""
    global _FORMULAS
    if _FORMULAS is None:
        _FORMULAS = {k: v for k, v in _load_formula_file().items() if not k.startswith("_")}
    return _FORMULAS


def zeta_zn(n: int) -> BivariateRationalFunction:
    """Local factor of the subgroup zeta function of Z^n."""
    if n < 1:
        raise MalformedInputError("need n >= 1")
    f = BivariateRationalFunction(1)
    for i in range(n):
        f = f * zp_factor(i, 1)
    return f


def sublattice_count_prediction(n: int, p: int, k: int) -> int:
    """Number of index-p^k sublattices: coefficient of t^k in prod_i 1/(1 - p^i t)."""
    coeffs = [1] + [0] * k
    for i in range(n):
        q = p**i
        for d in range(1, k + 1):
            coeffs[d] += coeffs[d - 1] * q
    return coeffs[k]


def abelian_pgroups(d: int) -> BivariateRationalFunction:
    """Generating function counting abelian p-groups on at most d generators."""
    if d < 1:
        raise MalformedInputError("need d >= 1")
    f = BivariateRationalFunction(1)
    for j in range(1, d + 1):
        f = f * zp_factor(0, j)
    return f


def componentwise_ideal(n: int) -> BivariateRationalFunction:
    """Local ideal zeta factor of Z^n with componentwise product: zeta_p(s)^n."""
    if n < 1:
        raise MalformedInputError("need n >= 1")
    f = BivariateRationalFunction(1)
    for _ in range(n):
        f = f * zp_factor(0, 1)
    return f


_PARAMETRIC = {
    "zeta_Zn": zeta_zn,
    "abelian_pgroups": abelian_pgroups,
    "componentwise_ideal": componentwise_ideal,
}

_NAME_RE = re.compile(r"^([a-zA-Z_][a-zA-Z0-9_]*)(?:\((\d+)\))?$")


def formula_catalog(name: str, param: int | None = None):
    """Named Euler factors, transcribed exactly; see formulas.json for the data."""
    m = _NAME_RE.match(name)
    if not m:
        raise LookupError_(f"cannot parse formula name {name!r}")
    base = m.group(1)
    if m.group(2) is not None:
        param = int(m.group(2))
    if base in _PARAMETRIC:
        if param is None:
            raise MalformedInputError(f"formula {base!r} needs a parameter")
        return _PARAMETRIC[base](param)
    data = _formulas().get(base)
    if data is None:
        raise LookupError_(f"unknown formula {name!r}")
    if param is not None:
        raise MalformedInputError(f"formula {base!r} takes no parameter")
    if data["kind"] == "rational":
        return _rational_from_json(data)
    if data["kind"] == "hybrid":
        parts = []
        curves = {}
        for part in data["parts"]:
            parts.append(
                (part["weight"], part.get("dim"), _rational_from_json(part["value"]))
            )
            if "weight_curve" in part:
                curves[part["weight"]] = part["weight_curve"]
        return PointCountHybrid(parts, curves)
    raise LookupError_(f"formula {name!r} has unknown kind {data['kind']!r}")


def formula_names():
    return sorted(_formulas()) + sorted(f"{k}(n)" for k in _PARAMETRIC)
