"""Symmetric-group combinatorics: lengths, descents, Gaussian binomials.

`walk_symmetric_group` passes over S_n once.  For each permutation w it
reads the length (inversion count) and the descent set (one-line descents,
a bit mask) of w and, from their own one-line images, of w w0.  It tallies
the lengths of each descent set and checks the longest-element identities
on every w.  The word-based definitions of length and descent are validated
once, exhaustively, in the test suite.  The descent sums over D <= I come
from one subset-sum transform over the masks.  Gaussian binomials come from
the q-Pascal rule and double as flag counts over prime fields, which the
exhaustive flag enumerator cross-checks.  They and the descent sums are
polynomials in X with no Y, in the ring XY of the Euler factors W(X, Y).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress, permutations, product, starmap
from operator import gt

from .errors import DEFAULT_CEILING, Budget, MalformedInputError, UnsupportedError, depth_first
from .exactlinalg import local_elimination
from .poly import Polynomial
from .ratfun import XY


@dataclass(frozen=True)
class LongestElementVerdict:
    n: int
    holds: bool
    witness: tuple | None = None


@dataclass(frozen=True)
class SymmetricGroupWalk:
    n: int
    lengths: list  # lengths[D][l]: the w with descent mask D and length l
    longest: LongestElementVerdict


def _charge_permutations(n, ceiling):
    """Charge the n! permutations of S_n up front.  The product stops at the
    first k! past the ceiling: S_n contains S_k, so that refuses it already."""
    k, order = 0, 1
    while k < n and order <= ceiling:
        k += 1
        order *= k
    what = f"S_{n}" if k == n else f"S_{n} contains S_{k}, which"
    Budget(ceiling, what, "permutations").predict(order)


def _permutation_statistics(n):
    """(w, D(w), l(w), D(w w0), l(w w0)) for each w in S_n, in one-line
    order.  w w0 is i -> n + 1 - w(i); a descent set is a mask with bit i - 1
    for the descent i, and a length is an inversion count."""
    bits = [1 << i for i in range(n - 1)]
    flip = (n + 1).__sub__
    for w in permutations(range(1, n + 1)):
        v = tuple(map(flip, w))
        yield (w, sum(compress(bits, map(gt, w, w[1:]))), sum(starmap(gt, combinations(w, 2))),
               sum(compress(bits, map(gt, v, v[1:]))), sum(starmap(gt, combinations(v, 2))))


def walk_symmetric_group(n: int, ceiling: int = DEFAULT_CEILING) -> SymmetricGroupWalk:
    """One pass over S_n: the lengths of each descent set, and the check of
    l(w) + l(w w0) = C(n,2) and D(w w0) = D(w)^c on every w, with the first
    w that breaks one as the witness; `ceiling` bounds the n! permutations."""
    _charge_permutations(n, ceiling)
    full = n * (n - 1) // 2
    everything = (1 << max(n - 1, 0)) - 1
    lengths = [[0] * (full + 1) for _ in range(everything + 1)]
    witness = None
    for w, dw, lw, dv, lv in _permutation_statistics(n):
        lengths[dw][lw] += 1
        if witness is None and (lw + lv != full or dv != everything ^ dw):
            witness = w
    return SymmetricGroupWalk(n, lengths, LongestElementVerdict(n, witness is None, witness))


def longest_element_identities(n: int, ceiling: int = DEFAULT_CEILING) -> LongestElementVerdict:
    """Check l(w) + l(w w0) = C(n,2) and D(w w0) = D(w)^c over all of S_n;
    `ceiling` bounds the n! permutations."""
    return walk_symmetric_group(n, ceiling).longest


# ---------------------------------------------------------------------------
# Gaussian binomials and descent sums, polynomials in X


@lru_cache(maxsize=4)
def _q_pascal(n):
    """The rows [m, 0..m] for m = 0..n, by the q-Pascal rule
    [m, j] = [m-1, j-1] + X^j [m-1, j]."""
    one = Polynomial(XY, {(0, 0): 1})
    rows = [(one,)]
    for m in range(1, n + 1):
        row = rows[-1]
        rows.append((one, *(row[j - 1] + row[j].shift(j, 0) for j in range(1, m)), one))
    return tuple(rows)


def gaussian_binomial(n: int, I) -> Polynomial:
    """Flag polynomial binom(n, i_l) binom(i_l, i_{l-1}) ... binom(i_2, i_1)."""
    chain = sorted(I)
    if any(not 1 <= i <= n - 1 for i in chain) or len(set(chain)) != len(chain):
        raise MalformedInputError("I must be a subset of [n-1]")
    rows = _q_pascal(n)
    out = Polynomial(XY, {(0, 0): 1})
    upper = n
    for i in reversed(chain):
        out = out * rows[upper][i]
        upper = i
    return out


def descent_sum(n: int, I) -> Polynomial:
    """Sum of X^{l(w)} over w in S_n with descent set contained in I."""
    return descent_sums(walk_symmetric_group(n))[frozenset(I) & frozenset(range(1, n))]


def descent_sums(walk: SymmetricGroupWalk) -> dict:
    """I -> descent_sum(n, I) for every subset I of [n-1], from the walk's
    lengths by one subset-sum transform over the descent masks."""
    n, sums = walk.n, list(walk.lengths)
    for i in range(n - 1):
        bit = 1 << i
        for mask in range(len(sums)):
            if mask & bit:
                sums[mask] = [a + b for a, b in zip(sums[mask], sums[mask ^ bit])]
    out = {}
    for size in range(max(n, 1)):  # the subsets of [n-1]; only the empty one for n <= 1
        for I in combinations(range(1, n), size):
            counts = sums[sum(1 << (i - 1) for i in I)]
            out[frozenset(I)] = Polynomial(XY, {(l, 0): c for l, c in enumerate(counts)})
    return out


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
    """Number of flags of type I in F_q^n, by exhaustive chain enumeration
    on `errors.depth_first`; `ceiling` bounds the subspaces listed plus the
    chain nodes."""
    if q not in FLAG_PRIMES:
        raise UnsupportedError("prime fields q in {2, 3} only")
    chain = sorted(I)
    if any(not 1 <= i <= n - 1 for i in chain):
        raise MalformedInputError("I must be a subset of [n-1]")
    charge = Budget(ceiling, "the flag walk", "subspaces and nodes").charge
    levels = [_rref_subspaces(n, d, q, charge) for d in chain]
    count = 0

    def place(level, prev):
        nonlocal count
        charge()
        if level == len(levels):
            count += 1
            return
        for sub in levels[level]:
            if prev is None or _contained(prev, sub, q):
                yield level + 1, sub

    depth_first(place, 0, None)
    return count
