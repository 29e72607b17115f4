"""Counting of finite-index sublattices, subrings and ideals by enumeration.

Sublattices of Z_p^n of index p^k are enumerated in a canonical Hermite form:
rows are generators, the matrix is upper triangular, the diagonal entry of row
i is p^{m_i}, and entries above a diagonal entry are reduced modulo it.  Every
sublattice appears exactly once.  This module is the independent oracle the
closed-form Euler factors are checked against.

`count` has one rule.  If some basis order makes the ring triangular for the
mode (see `_search_order`; nilpotent rings in a basis adapted to a central
series are the strict case), the objects come from a depth-first search that
fixes Hermite rows from the last one up and cuts a subtree as soon as a row
fails closure.  A ring with no such order (the cross product on Z^3, for one)
goes through `enumerate_sublattices` and tests each lattice with
`is_subring`/`is_ideal`; that path is also the brute oracle the search is
tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product

from .algebra import StructureConstantAlgebra, catalog, multiply
from .errors import MalformedInputError, ResourceGuardError
from .ratfun import LocalDirichletTruncation

DEFAULT_CEILING = 10**8


@dataclass(frozen=True)
class HermiteSublattice:
    p: int
    n: int
    rows: tuple  # tuple of n row tuples, generators of the lattice

    def __post_init__(self):
        for i, row in enumerate(self.rows):
            if len(row) != self.n:
                raise MalformedInputError("matrix must be square of size rank")
            if any(row[j] for j in range(i)):
                raise MalformedInputError("matrix must be upper triangular")
            if not _is_p_power(row[i], self.p):
                raise MalformedInputError("diagonal entries must be powers of p")
        for j in range(self.n):
            for i in range(j):
                if not (0 <= self.rows[i][j] < self.rows[j][j]):
                    raise MalformedInputError(
                        "entries must be reduced modulo the diagonal of their column"
                    )

    @classmethod
    def _trusted(cls, p, n, rows):
        """Construct without validation, for rows already in canonical form."""
        lat = object.__new__(cls)
        object.__setattr__(lat, "p", p)
        object.__setattr__(lat, "n", n)
        object.__setattr__(lat, "rows", rows)
        return lat

    def index(self):
        out = 1
        for i in range(self.n):
            out *= self.rows[i][i]
        return out


def _is_p_power(x, p):
    if x < 1:
        return False
    while x % p == 0:
        x //= p
    return x == 1


def contains(lat: HermiteSublattice, v) -> bool:
    """Is v a Z_p-combination of the rows?  Exact triangular substitution;
    the coefficients are p-integral iff each pivot division is exact."""
    if len(v) != lat.n:
        raise MalformedInputError("vector length must equal the rank")
    return _in_span(lat.rows, 0, v)


def _in_span(rows, start, v):
    """Is v, zero in coordinates before start, a Z_p-combination of
    rows[start:]?  Only those rows are read."""
    n = len(v)
    residual = list(v)
    for i in range(start, n):
        t = residual[i]
        if t:
            d = rows[i][i]
            if t % d:
                return False
            c = t // d
            row = rows[i]
            for j in range(i + 1, n):
                if row[j]:
                    residual[j] -= c * row[j]
    return True


def sublattice_count_prediction(n: int, p: int, k: int) -> int:
    """Number of index-p^k sublattices: coefficient of t^k in prod_i 1/(1 - p^i t)."""
    coeffs = [1] + [0] * k
    for i in range(n):
        q = p**i
        for d in range(1, k + 1):
            coeffs[d] += coeffs[d - 1] * q
    return coeffs[k]


def _compositions(k, n):
    if n == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in _compositions(k - first, n - 1):
            yield (first,) + rest


def enumerate_sublattices(n, p, k, ceiling=DEFAULT_CEILING, shard=None):
    """Yield each index-p^k sublattice of Z_p^n exactly once, in canonical form.

    shard=(index, count) keeps only the diagonal compositions with
    position % count == index; the shards partition the enumeration.
    """
    if n < 1 or k < 0:
        raise MalformedInputError("need n >= 1 and k >= 0")
    predicted = sublattice_count_prediction(n, p, k)
    if predicted > ceiling:
        raise ResourceGuardError(
            f"predicted {predicted} lattices exceeds ceiling {ceiling}",
            predicted=predicted,
            ceiling=ceiling,
        )
    for pos, m in enumerate(_compositions(k, n)):
        if shard is not None and pos % shard[1] != shard[0]:
            continue
        yield from _lattices_for_composition(n, p, m)


def _lattices_for_composition(n, p, m):
    diag = [p**e for e in m]
    cells = [(i, j) for j in range(n) for i in range(j) if diag[j] > 1]
    base = [[0] * n for _ in range(n)]
    for i in range(n):
        base[i][i] = diag[i]
    if not cells:
        yield HermiteSublattice._trusted(p, n, tuple(tuple(r) for r in base))
        return
    radices = [diag[j] for (_, j) in cells]
    counter = [0] * len(cells)
    while True:
        rows = [row[:] for row in base]
        for (i, j), v in zip(cells, counter):
            rows[i][j] = v
        yield HermiteSublattice._trusted(p, n, tuple(tuple(r) for r in rows))
        pos = 0
        while pos < len(cells):
            counter[pos] += 1
            if counter[pos] < radices[pos]:
                break
            counter[pos] = 0
            pos += 1
        if pos == len(cells):
            return


def is_subring(alg: StructureConstantAlgebra, lat: HermiteSublattice) -> bool:
    """Closed under products of generators.  For antisymmetric algebras only
    pairs i < j need testing (r*r = 0 and the mirror product is the negation,
    and lattices are closed under negation)."""
    if alg.rank != lat.n:
        raise MalformedInputError("algebra rank must equal lattice rank")
    rows = lat.rows
    antisym = "antisymmetric" in alg.flags
    n = lat.n
    for i in range(n):
        start = i + 1 if antisym else 0
        for j in range(start, n):
            prod = multiply(alg, rows[i], rows[j])
            if any(prod) and not contains(lat, prod):
                return False
    return True


def is_ideal(alg: StructureConstantAlgebra, lat: HermiteSublattice) -> bool:
    """Closed under products with arbitrary basis elements, on both sides."""
    if alg.rank != lat.n:
        raise MalformedInputError("algebra rank must equal lattice rank")
    antisym = "antisymmetric" in alg.flags
    for row in lat.rows:
        for e in _unit_vectors(lat.n):
            prod = multiply(alg, row, e)
            if any(prod) and not contains(lat, prod):
                return False
            if not antisym:
                prod = multiply(alg, e, row)
                if any(prod) and not contains(lat, prod):
                    return False
    return True


@lru_cache(maxsize=None)
def _unit_vectors(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _search_order(alg: StructureConstantAlgebra, mode: str):
    """A basis order (list of 0-based coordinates) in which alg is triangular
    for mode, or None if there is none.

    Triangular: every constant (a, b, k) has pos(k) >= min(pos(a), pos(b))
    (subrings) or pos(k) >= max(pos(a), pos(b)) (ideals), so each
    span(e_i..e_n) in that order is a subring, or an ideal; any order serves
    sublattices.  Coordinates are placed greedily, the lowest-indexed one that
    may come next first: for ideals, k once every factor a, b != k of a
    product landing in k is placed (a topological sort); for subrings, k once
    each such product with k not in {a, b} has a factor placed.  Placing a
    coordinate never makes another one unplaceable, so the walk gets stuck
    only when no order exists, and it returns the identity whenever the given
    basis works.
    """
    n = alg.rank
    if mode == "sublattices":
        return list(range(n))
    inputs = [[] for _ in range(n)]
    for a, b, k in alg.constants:
        inputs[k - 1].append((a - 1, b - 1))
    placed = [False] * n

    def free(k, a, b):
        if mode == "ideals":
            return (a == k or placed[a]) and (b == k or placed[b])
        return k in (a, b) or placed[a] or placed[b]

    order = []
    while len(order) < n:
        k = next(
            (k for k in range(n)
             if not placed[k] and all(free(k, a, b) for a, b in inputs[k])),
            None,
        )
        if k is None:
            return None
        placed[k] = True
        order.append(k)
    return order


MODES = ("subrings", "ideals", "sublattices")


def count(
    alg: StructureConstantAlgebra,
    p: int,
    K: int,
    mode: str = "subrings",
    ceiling: int = DEFAULT_CEILING,
    shard_count: int = 1,
) -> LocalDirichletTruncation:
    """a[k] = number of index-p^k objects of the requested kind, k = 0..K.

    When the ring has a triangular order for the mode (see `_search_order`),
    the constants are relabelled into it and the objects are counted by the
    pruned search (sublattices as the ideals of the zero ring); the counts do
    not depend on the basis.  There `ceiling` bounds the number of search
    nodes, one per candidate row tested, and ResourceGuardError is raised as
    soon as the search visits more.  A ring with no such order is enumerated
    and tested lattice by lattice; there `ceiling` bounds the predicted number
    of index-p^k sublattices, checked for each k before it is enumerated.

    Shards are disjoint parts of the work combined by exact addition, so the
    result is identical for every shard_count.
    """
    if mode not in MODES:
        raise MalformedInputError(f"mode must be one of {MODES}")
    if shard_count < 1:
        raise MalformedInputError("shard_count must be >= 1")
    order = _search_order(alg, mode)
    if order is None:
        coeffs = _brute_counts(alg, p, K, mode, ceiling, shard_count)
    else:
        if mode == "sublattices":
            alg, mode = catalog("abelian", alg.rank), "ideals"
        elif order != list(range(alg.rank)):
            pos = {c + 1: t + 1 for t, c in enumerate(order)}
            constants = {
                (pos[a], pos[b], pos[k]): c for (a, b, k), c in alg.constants.items()
            }
            alg = StructureConstantAlgebra(alg.name, alg.rank, constants, alg.flags)
        coeffs = _search_counts(alg, p, K, mode, ceiling, shard_count)
    return LocalDirichletTruncation(p, tuple(coeffs))


def _brute_counts(alg, p, K, mode, ceiling, shard_count):
    """Enumerate every index-p^k sublattice and test it, k = 0..K."""
    test = {
        "subrings": lambda lat: is_subring(alg, lat),
        "ideals": lambda lat: is_ideal(alg, lat),
        "sublattices": lambda lat: True,
    }[mode]
    coeffs = []
    for k in range(K + 1):
        total = 0
        for s in range(shard_count):
            total += sum(
                1
                for lat in enumerate_sublattices(
                    alg.rank, p, k, ceiling=ceiling, shard=(s, shard_count)
                )
                if test(lat)
            )
        coeffs.append(total)
    return coeffs


def _search_counts(alg, p, K, mode, ceiling, shard_count):
    """Subrings or ideals of index p^k, k = 0..K, of a ring triangular for
    mode in its given basis (see `_search_order`), by a depth-first search over
    Hermite rows from the last row up.

    Row i is chosen after rows i+1..n-1: first its diagonal exponent from the
    remaining budget, then its entries above the diagonal, reduced modulo the
    column diagonals already fixed.  Every product of row i with itself, a
    later row or (for ideals) a basis vector has support in coordinates
    i..n-1, and the lattice meets their span in the span of rows i..n-1.  So
    whether it lies in the lattice is decided as soon as row i is chosen; a
    row that fails cuts its subtree.  Shard s takes the subtrees whose
    last-row exponent is s mod shard_count.
    """
    n = alg.rank
    antisym = "antisymmetric" in alg.flags
    rows = [None] * n
    coeffs = [0] * (K + 1)
    nodes = 0
    if mode == "ideals":
        # basis vectors whose products on that side can be nonzero
        units = _unit_vectors(n)
        right = [units[b - 1] for b in sorted({b for _, b, _ in alg.constants})]
        left = [] if antisym else [units[a - 1] for a in sorted({a for a, _, _ in alg.constants})]

    def closed(i):
        row = rows[i]
        if mode == "ideals":
            pairs = chain(((row, e) for e in right), ((e, row) for e in left))
        elif antisym:
            pairs = ((row, r) for r in rows[i + 1:])
        else:
            pairs = chain(((row, r) for r in rows[i:]), ((r, row) for r in rows[i + 1:]))
        for u, v in pairs:
            prod = multiply(alg, u, v)
            if any(prod) and not _in_span(rows, i, prod):
                return False
        return True

    # Columns that are no factor of any structure constant are inert: no
    # product reads them.  When no constant (a, b, k) has k in {a, b}, every
    # product tested at row i has support beyond i, so the test never
    # subtracts row i itself and does not depend on its inert entries: it runs
    # once for all of them.  They matter only to the membership tests of rows
    # < i, and row 0 enters none, so there they just multiply the count.
    # Otherwise row i's test reads its own inert entries, and no column is
    # inert.
    if all(k not in (a, b) for a, b, k in alg.constants):
        active = {c - 1 for key in alg.constants for c in key[:2]}
    else:
        active = set(range(n))

    def place(i, used, exponents):
        nonlocal nodes
        cols = range(i + 1, n)
        choices = [range(rows[j][j]) if j in active else (0,) for j in cols]
        fills = [(0,) if j in active else range(rows[j][j]) for j in cols]
        weight = math.prod(len(f) for f in fills)
        for m in exponents:
            head = (0,) * i + (p**m,)
            for tail in product(*choices):
                nodes += 1
                if nodes > ceiling:
                    raise ResourceGuardError(
                        f"search visited more than {ceiling} nodes", ceiling=ceiling
                    )
                rows[i] = head + tail
                if not closed(i):
                    continue
                if not i:
                    coeffs[m + used] += weight
                    continue
                for fill in product(*fills):
                    rows[i] = head + tuple(a + b for a, b in zip(tail, fill))
                    place(i - 1, used + m, range(K - used - m + 1))

    for s in range(shard_count):
        place(n - 1, 0, range(s, K + 1, shard_count))
    return coeffs
