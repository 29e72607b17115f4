"""Symmetric-group combinatorics and the inversion-property assembly.

Lengths are inversion counts, descents are one-line descents; the word-based
definitions are validated once, exhaustively, in the test suite.  Gaussian
binomials come from the q-Pascal rule and double as flag counts over prime
fields, which the exhaustive flag enumerator cross-checks.  They and the
descent sums are polynomials in X with no Y, in the ring of the Euler factors
W(X, Y) they are assembled into.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product

from .errors import MalformedInputError, ResourceGuardError, UnsupportedError
from .poly import Polynomial
from .ratfun import XY, BivariateRationalFunction, funeq_verdict, invert_prime

MAX_SYMMETRIC = 8


@dataclass(frozen=True)
class PermutationData:
    images: tuple  # w(1..n), a bijection of [n]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise MalformedInputError(f"{self.images} is not a permutation of [{n}]")

    @property
    def n(self):
        return len(self.images)


def length(w: PermutationData) -> int:
    """Coxeter length = inversion count."""
    img = w.images
    n = w.n
    return sum(1 for i in range(n) for j in range(i + 1, n) if img[i] > img[j])


def descent_set(w: PermutationData) -> frozenset:
    img = w.images
    return frozenset(i + 1 for i in range(w.n - 1) if img[i + 1] < img[i])


def complement_by_longest(w: PermutationData) -> PermutationData:
    """Composition with the longest element: i -> n + 1 - w(i)."""
    n = w.n
    return PermutationData(tuple(n + 1 - x for x in w.images))


@dataclass(frozen=True)
class LongestElementVerdict:
    n: int
    holds: bool
    witness: tuple | None = None


def longest_element_identities(n: int) -> LongestElementVerdict:
    """Check l(w) + l(w w0) = C(n,2) and D(w w0) = D(w)^c over all of S_n."""
    if n > MAX_SYMMETRIC:
        raise ResourceGuardError(f"guard: n <= {MAX_SYMMETRIC}")
    full = n * (n - 1) // 2
    everything = frozenset(range(1, n))
    for img in permutations(range(1, n + 1)):
        w = PermutationData(img)
        ww0 = complement_by_longest(w)
        if length(w) + length(ww0) != full:
            return LongestElementVerdict(n, False, img)
        if descent_set(ww0) != everything - descent_set(w):
            return LongestElementVerdict(n, False, img)
    return LongestElementVerdict(n, True)


# ---------------------------------------------------------------------------
# Gaussian binomials and descent sums, polynomials in X


def gaussian_binomial_single(n: int, i: int) -> Polynomial:
    """[n, i] by the q-Pascal rule [m, j] = [m-1, j-1] + X^j [m-1, j]."""
    if not 0 <= i <= n:
        raise MalformedInputError("need 0 <= i <= n")
    one = Polynomial(XY, {(0, 0): 1})
    row = [one]  # [m, 0..m] for m = 0, 1, ..., n
    for m in range(1, n + 1):
        row = [one] + [row[j - 1] + row[j].shift(j, 0) for j in range(1, m)] + [one]
    return row[i]


def gaussian_binomial(n: int, I) -> Polynomial:
    """Flag polynomial binom(n, i_l) binom(i_l, i_{l-1}) ... binom(i_2, i_1)."""
    chain = sorted(I)
    if any(not 1 <= i <= n - 1 for i in chain) or len(set(chain)) != len(chain):
        raise MalformedInputError("I must be a subset of [n-1]")
    out = Polynomial(XY, {(0, 0): 1})
    upper = n
    for i in reversed(chain):
        out = out * gaussian_binomial_single(upper, i)
        upper = i
    return out


def descent_sum(n: int, I) -> Polynomial:
    """Sum of X^{l(w)} over w in S_n with descent set contained in I."""
    if n > MAX_SYMMETRIC:
        raise ResourceGuardError(f"guard: n <= {MAX_SYMMETRIC}")
    I = frozenset(I)
    total = {}
    for img in permutations(range(1, n + 1)):
        w = PermutationData(img)
        if descent_set(w) <= I:
            l = length(w)
            total[(l, 0)] = total.get((l, 0), 0) + 1
    return Polynomial(XY, total)


# ---------------------------------------------------------------------------
# flags over prime fields (independent geometric oracle)

MAX_FLAG_N = 4
FLAG_PRIMES = (2, 3)


def _rref_subspaces(n, dim, q):
    """Canonical RREF bases of the dim-dimensional subspaces of F_q^n."""
    subspaces = []
    for pivots in combinations(range(n), dim):
        free_positions = [
            (r, c)
            for r in range(dim)
            for c in range(n)
            if c > pivots[r] and c not in pivots
        ]
        for values in product(range(q), repeat=len(free_positions)):
            rows = [[0] * n for _ in range(dim)]
            for r, p in enumerate(pivots):
                rows[r][p] = 1
            for (r, c), v in zip(free_positions, values):
                rows[r][c] = v
            subspaces.append(tuple(tuple(r) for r in rows))
    return subspaces


def _in_rowspace_modp(vec, rows, q):
    v = list(vec)
    for row in rows:
        piv = next(c for c in range(len(row)) if row[c])
        if v[piv]:
            f = v[piv]  # pivot entry is 1 in RREF
            v = [(a - f * b) % q for a, b in zip(v, row)]
    return not any(v)


def _contained(sub, sup, q):
    return all(_in_rowspace_modp(row, sup, q) for row in sub)


def flag_count(n: int, I, q: int) -> int:
    """Number of flags of type I in F_q^n, by exhaustive chain enumeration."""
    if n > MAX_FLAG_N:
        raise ResourceGuardError(f"guard: n <= {MAX_FLAG_N}")
    if q not in FLAG_PRIMES:
        raise UnsupportedError("prime fields q in {2, 3} only")
    chain = sorted(I)
    if any(not 1 <= i <= n - 1 for i in chain):
        raise MalformedInputError("I must be a subset of [n-1]")
    levels = [_rref_subspaces(n, d, q) for d in chain]
    count = 0

    def rec(level, prev):
        nonlocal count
        if level == len(levels):
            count += 1
            return
        for sub in levels[level]:
            if prev is None or _contained(prev, sub, q):
                rec(level + 1, sub)

    rec(0, None)
    return count


# ---------------------------------------------------------------------------
# Proposition-IP assembly


def ip_assemble(family, n: int) -> BivariateRationalFunction:
    """W = sum over I of binom(n, I) at X^{-1} times W_I."""
    total = BivariateRationalFunction(0)
    for size in range(0, n):
        for I in combinations(range(1, n), size):
            key = frozenset(I)
            if key not in family:
                raise MalformedInputError(f"family is missing I = {sorted(key)}")
            binom = gaussian_binomial(n, key).invert()
            total = total + BivariateRationalFunction(binom) * family[key]
    return total


@dataclass(frozen=True)
class IpVerdict:
    holds: bool
    witness: frozenset | None = None
    conclusion_checked: bool = False


def ip_hypothesis_check(family, n: int) -> IpVerdict:
    """Verify invert_prime(W_I) = (-1)^{|I|} sum_{J <= I} W_J for every I; on
    success also verify the implied functional equation of the assembly."""
    subsets = [frozenset(c) for size in range(0, n) for c in combinations(range(1, n), size)]
    for I in subsets:
        lhs = invert_prime(family[I])
        rhs = BivariateRationalFunction(0)
        for J in subsets:
            if J <= I:
                rhs = rhs + family[J]
        rhs = rhs * ((-1) ** len(I))
        if not lhs == rhs:
            return IpVerdict(False, witness=I)
    W = ip_assemble(family, n)
    verdict = funeq_verdict(W, ((-1) ** (n - 1), n * (n - 1) // 2, 0))
    return IpVerdict(bool(verdict.matches_expected), conclusion_checked=True)


def abelian_w_family(n: int):
    """W_I = prod over i in I of X_i/(1 - X_i) with X_i = X^{i(n-i)} Y^i."""
    family = {}
    for size in range(0, n):
        for I in combinations(range(1, n), size):
            num = Polynomial(XY, {(0, 0): 1})
            den = {}
            for i in I:
                num = num.shift(i * (n - i), i)
                key = (i * (n - i), i)
                den[key] = den.get(key, 0) + 1
            family[frozenset(I)] = BivariateRationalFunction(num, den)
    return family
