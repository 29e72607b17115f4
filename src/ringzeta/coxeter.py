"""Symmetric-group combinatorics: lengths, descents, Gaussian binomials.

Lengths are inversion counts, descents are one-line descents; the word-based
definitions are validated once, exhaustively, in the test suite.  Gaussian
binomials come from the q-Pascal rule and double as flag counts over prime
fields, which the exhaustive flag enumerator cross-checks.  They and the
descent sums are polynomials in X with no Y, in the ring XY of the Euler
factors W(X, Y).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, permutations, product

from .errors import DEFAULT_CEILING, Budget, MalformedInputError, UnsupportedError
from .exactlinalg import local_elimination
from .poly import Polynomial
from .ratfun import XY


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


def _charge_permutations(n, ceiling):
    """Charge the n! permutations of S_n up front.  The product stops at the
    first k! past the ceiling: S_n contains S_k, so that refuses it already."""
    k, order = 0, 1
    while k < n and order <= ceiling:
        k += 1
        order *= k
    what = f"S_{n}" if k == n else f"S_{n} contains S_{k}, which"
    Budget(ceiling, what, "permutations").predict(order)


def longest_element_identities(n: int, ceiling: int = DEFAULT_CEILING) -> LongestElementVerdict:
    """Check l(w) + l(w w0) = C(n,2) and D(w w0) = D(w)^c over all of S_n;
    `ceiling` bounds the n! permutations."""
    _charge_permutations(n, ceiling)
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
    return descent_sums(n)[frozenset(I) & frozenset(range(1, n))]


def descent_sums(n: int, ceiling: int = DEFAULT_CEILING) -> dict:
    """I -> descent_sum(n, I) for every subset I of [n-1], from one walk of S_n
    that counts the lengths of each descent set; `ceiling` bounds the n!
    permutations."""
    _charge_permutations(n, ceiling)
    table = {}  # descent set -> Counter of lengths
    for img in permutations(range(1, n + 1)):
        w = PermutationData(img)
        table.setdefault(descent_set(w), Counter())[length(w)] += 1
    sums = {}
    for size in range(max(n, 1)):  # the subsets of [n-1]; only the empty one for n <= 1
        for I in map(frozenset, combinations(range(1, n), size)):
            total = sum((lengths for D, lengths in table.items() if D <= I), Counter())
            sums[I] = Polynomial(XY, {(l, 0): c for l, c in total.items()})
    return sums


# ---------------------------------------------------------------------------
# flags over prime fields (independent geometric oracle)

FLAG_PRIMES = (2, 3)


def _rref_subspaces(n, dim, q, charge):
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
            charge()
            subspaces.append(tuple(tuple(r) for r in rows))
    return subspaces


def _contained(sub, sup, q):
    """Whether the row space of sub lies in that of sup (independent rows):
    appending sub's rows to sup's adds no pivot mod q."""
    rows = sup + sub
    valuations, _ = local_elimination(rows, [0] * len(rows), len(rows[0]), q, 1)
    return len(valuations) == len(sup)


def flag_count(n: int, I, q: int, ceiling: int = DEFAULT_CEILING) -> int:
    """Number of flags of type I in F_q^n, by exhaustive chain enumeration;
    `ceiling` bounds the subspaces listed plus the chain nodes."""
    if q not in FLAG_PRIMES:
        raise UnsupportedError("prime fields q in {2, 3} only")
    chain = sorted(I)
    if any(not 1 <= i <= n - 1 for i in chain):
        raise MalformedInputError("I must be a subset of [n-1]")
    charge = Budget(ceiling, "the flag walk", "subspaces and nodes").charge
    levels = [_rref_subspaces(n, d, q, charge) for d in chain]
    count = 0

    def rec(level, prev):
        nonlocal count
        charge()
        if level == len(levels):
            count += 1
            return
        for sub in levels[level]:
            if prev is None or _contained(prev, sub, q):
                rec(level + 1, sub)

    rec(0, None)
    return count
