"""Counting of finite-index sublattices, subrings and ideals by enumeration.

Sublattices of Z_p^n of index p^k are enumerated in a canonical Hermite form:
rows are generators, the matrix is upper triangular, the diagonal entry of row
i is p^{m_i}, and entries above a diagonal entry are reduced modulo it.  Every
sublattice appears exactly once.  This module is the independent oracle the
closed-form Euler factors are checked against.

`count` takes one of three paths.  The subrings and ideals of a ring that is
class 2 in its given basis (every product lands in coordinates that are no
factor of any product) come from a central sum.  Subrings sum over the
lattices M of the abelian quotient: the subrings over M are counted by the
lattices of the centre that contain the products of M, the subgroups of a
finite abelian p-group, whose number by type is Birkhoff's formula.  On a free
class-2 ring the type of that group depends only on the cotype of M, so the
sum runs over cotypes, counted by the same formula, and no M is walked (see
`_central_subring_counts`).  Ideals sum
over the lattices of the centre, one linear solve each, over only the ones
that the least rank of the commutator forms mod p leaves (see
`_central_counts`).  Otherwise, if some basis order makes the ring triangular
for the mode (see `_search_order`; nilpotent rings in a basis adapted to a
central series are the strict case), the objects come from a depth-first
search that fixes Hermite rows from the last one up, cuts a subtree as soon
as a row fails closure, and counts a subtree in one step once its fixed rows
contain every product (so sublattices, the ideals of the zero ring, take one
step).  The search reads products from sparse maps built once per search: for
each basis vector e_g and side, the (a, k, v) that send coordinate a of a row
to coordinate k of row e_g (e_g row).  A ring that is commutative or
antisymmetric has e_g x = +-x e_g, so its products are tested, and its central
ideal sum solved, on one side only; the ring and its presentation measure both
properties from the constants when they are built, whatever the ring
declares.  Where closure is linear in the row
(ideals, antisymmetric subrings), the first row's entries above the diagonal
need not be tried one by one: the ones that pass form a coset in Z_p^{n-1}
modulo the span of the later rows, counted for every diagonal exponent at
once by one linear solve over Z/p^E, used wherever the later rows leave more
candidates than a solve costs.  The
search also quotients by a symmetry: for a grading w of the ring (w_a + w_b =
w_k for every constant (a, b, k)) and a unit u, e_j -> u^(w_j) e_j is an
automorphism that keeps every coordinate flag, index and closure.  One that
maps the rows already fixed onto themselves maps the subtree under each
sibling row one-to-one onto the subtree under another, so the search tests
and descends into one row per orbit and multiplies its counts by the orbit
size.  The orbits are read off the maps as permutations of integer codes of
the sibling rows, built by list operations over all codes at once (see
`_search_counts`).  Rings with no nonzero grading, such as `componentwise(n)`,
have no such maps.  A ring with no triangular order (the cross product on
Z^3, for one) goes through `enumerate_sublattices` and tests each lattice
with `is_subring`/`is_ideal`.
That path and the search are the oracles the central sums are tested against,
and that path is the oracle of the search.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import chain, combinations, compress, product
from operator import add

from .algebra import (
    StructureConstantAlgebra,
    catalog,
    class2_presentation,
    multiply,
    projective_points,
)
from .errors import DEFAULT_CEILING, MODES, Budget, MalformedInputError, depth_first
from .exactlinalg import local_elimination, rref
from .ratfun import LocalDirichletTruncation, sublattice_count_prediction


def contains(rows, v) -> bool:
    """Is v a Z_p-combination of the Hermite rows?  Exact triangular
    substitution; the coefficients are p-integral iff each pivot division is
    exact.  The rows are a lattice as `enumerate_sublattices` yields it and v
    has their length; neither is checked."""
    return _in_span(rows, 0, v)


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


def _compositions(k, n):
    """The n-tuples of non-negative integers with sum k, in lexicographic
    order: stars and bars, n - 1 bars among k + n - 1 slots."""
    for bars in combinations(range(k + n - 1), n - 1):
        ends = (-1,) + bars + (k + n - 1,)
        yield tuple(b - a - 1 for a, b in zip(ends, ends[1:]))


def enumerate_sublattices(n, p, k, ceiling=DEFAULT_CEILING):
    """Yield each index-p^k sublattice of Z_p^n exactly once, as its n Hermite
    rows: upper triangular, row i with p^(m_i) on the diagonal and entries
    reduced modulo the diagonal entry of their column."""
    if n < 1 or k < 0:
        raise MalformedInputError("need n >= 1 and k >= 0")
    Budget(ceiling, f"index {p}^{k}", "lattices").predict(sublattice_count_prediction(n, p, k))
    for m in _compositions(k, n):
        diag = [p**e for e in m]
        yield from product(*(
            [(0,) * i + (diag[i],) + tail for tail in product(*map(range, diag[i + 1:]))]
            for i in range(n)
        ))


def is_subring(alg: StructureConstantAlgebra, rows) -> bool:
    """Are the Hermite rows, alg.rank of them, closed under products of
    generators?  For antisymmetric algebras only pairs i < j need testing
    (r*r = 0 and the mirror product is the negation, and lattices are closed
    under negation)."""
    antisym = alg.antisymmetric.holds
    n = len(rows)
    for i in range(n):
        start = i + 1 if antisym else 0
        for j in range(start, n):
            prod = multiply(alg, rows[i], rows[j])
            if any(prod) and not contains(rows, prod):
                return False
    return True


def is_ideal(alg: StructureConstantAlgebra, rows) -> bool:
    """Are the Hermite rows, alg.rank of them, closed under products with
    arbitrary basis elements, on both sides?"""
    antisym = alg.antisymmetric.holds
    for row in rows:
        for e in _unit_vectors(len(rows)):
            prod = multiply(alg, row, e)
            if any(prod) and not contains(rows, prod):
                return False
            if not antisym:
                prod = multiply(alg, e, row)
                if any(prod) and not contains(rows, prod):
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


def count(
    alg: StructureConstantAlgebra,
    p: int,
    K: int,
    mode: str = "subrings",
    ceiling: int = DEFAULT_CEILING,
) -> LocalDirichletTruncation:
    """a[k] = number of index-p^k objects of the requested kind, k = 0..K.

    Three paths, the first that applies (`count_path` names it):
    - subrings or ideals of a ring that is class 2 in its given basis (see
      `algebra.class2_presentation`): the central sums
      `_central_subring_counts` and `_central_counts`, which read its
      presentation.  `ceiling` bounds their nodes: for subrings one per
      cotype of the abelian quotient on a free class-2 ring, else one per
      lattice of it of index below p^K, predicted, and one per subgroup type
      of the centre counted; for ideals one per point of P^(d'-1)(F_p) in the
      rank walk and one per lattice of the centre, predicted before any is
      walked.
    - a ring with a triangular order for the mode (see `_search_order`): the
      constants are relabelled into it and the objects are counted by the
      pruned search (sublattices as the ideals of the zero ring); the counts
      do not depend on the basis.  `ceiling` bounds the search nodes: one per
      candidate row or orbit representative tested, row-0 solve or subtree
      credited, and one per sibling code of a group split into orbits (see
      `_search_counts`).
    - any other ring is enumerated and tested lattice by lattice; `ceiling`
      bounds the predicted number of sublattices of index up to p^K, checked
      before any is enumerated.
    On the first two paths ResourceGuardError is raised as soon as the walk
    visits, or predicts, more than `ceiling` nodes.
    """
    if mode not in MODES:
        raise MalformedInputError(f"mode must be one of {MODES}")
    path, how = count_path(alg, mode)
    if path == "central sum":
        central = _central_counts if mode == "ideals" else _central_subring_counts
        coeffs = central(how, p, K, ceiling)
    elif path == "enumeration":
        coeffs = _brute_counts(alg, p, K, mode, ceiling)
    else:
        if mode == "sublattices":
            alg, mode = catalog("abelian", alg.rank), "ideals"
        elif how != list(range(alg.rank)):
            pos = {c + 1: t + 1 for t, c in enumerate(how)}
            constants = {
                (pos[a], pos[b], pos[k]): c for (a, b, k), c in alg.constants.items()
            }
            alg = StructureConstantAlgebra(alg.name, alg.rank, constants)
        coeffs = _search_counts(alg, p, K, mode, ceiling)
    return LocalDirichletTruncation(p, tuple(coeffs))


def count_path(alg: StructureConstantAlgebra, mode: str):
    """The path `count` takes, as (name, what it needs): ("central sum", the
    presentation of `algebra.class2_presentation`, for subrings and ideals),
    ("row search", the order of `_search_order`) or ("enumeration", None),
    the first that applies."""
    pres = class2_presentation(alg) if mode != "sublattices" else None
    if pres:
        return "central sum", pres
    order = _search_order(alg, mode)
    return ("enumeration", None) if order is None else ("row search", order)


def _brute_counts(alg, p, K, mode, ceiling):
    """Enumerate every index-p^k sublattice and test it, k = 0..K.  Refused up
    front when the sublattices of index up to p^K outnumber `ceiling`."""
    predicted = sum(sublattice_count_prediction(alg.rank, p, k) for k in range(K + 1))
    Budget(ceiling, "the enumeration", "lattices").predict(predicted)
    test = {
        "subrings": lambda rows: is_subring(alg, rows),
        "ideals": lambda rows: is_ideal(alg, rows),
        "sublattices": lambda rows: True,
    }[mode]
    return [
        sum(1 for rows in enumerate_sublattices(alg.rank, p, k, ceiling=ceiling) if test(rows))
        for k in range(K + 1)
    ]


def _search_counts(alg, p, K, mode, ceiling):
    """Subrings or ideals of index p^k, k = 0..K, of a ring triangular for
    mode in its given basis (see `_search_order`), by a depth-first search over
    Hermite rows from the last row up.

    Row i is chosen after rows i+1..n-1: first its diagonal exponent from the
    remaining budget, then its entries above the diagonal, reduced modulo the
    column diagonals already fixed.  Every product of row i with itself, a
    later row or (for ideals) a basis vector has support in coordinates
    i..n-1, and the lattice meets their span in the span of rows i..n-1.  So
    whether it lies in the lattice is decided as soon as row i is chosen; a
    row that fails cuts its subtree.  Before row i is chosen, a subtree whose
    rows i+1..n-1 (of index p^e) contain every product e_a e_b is credited
    at once: L L lies in every completion, so each is a subring and an ideal,
    and those of index p^(e+r) are a lattice of Z_p^(i+1) of index p^r
    (`sublattice_count_prediction`) with one of p^e fills of the later
    columns in each of rows 0..i.

    Products are read from the product maps, built once per search from the
    constants: right[g] (left[g]), for each g that is a factor on that side,
    lists the (a, k, v) with which coordinate a of a row adds v times itself
    to coordinate k of row e_g (e_g row).  An ideal is tested with the maps
    of the basis vectors; a subring with row -> row r = sum_g r_g (row e_g),
    and r row, for each later row r, built once when r is fixed, and with
    the square of the row.  A ring measured commutative or antisymmetric
    (`StructureConstantAlgebra.antisymmetric`, `.commutative`) has
    e_g x = +-x e_g, so left = {} and the mirror products are not tested.

    When closure is linear in the row (ideals, antisymmetric subrings), and
    rows 1..n-1 leave row 0 more than 8 candidates (`_solve_pays`), they are
    not tried: `_row0_counts` counts the passing tails for every exponent
    left with one linear solve over the same maps.

    Sibling rows are split into orbits of the ring's diagonal automorphisms
    (`_scalings`): e_j -> u^(w_j) e_j, u a unit, w a grading.  Such a map keeps
    every coordinate flag, index and closure, so if it maps the span L' of
    rows i+1..n-1 onto itself it maps the subtree under row i one-to-one onto
    the subtree under the image row: the image scaled by u^(-w_i) and reduced
    modulo rows i+1..n-1 (`_reduced`), another sibling.  Only the maps that
    keep L' are used (a smaller group gives finer orbits and the same counts),
    and only their residues mod |V : L'|, V the span of e_{i+1}..e_{n-1}:
    |V : L'| V lies in L', so any two lifts of a residue give the same image.
    Where row i >= 1 has more siblings than finding the maps costs membership
    tests (`_orbits_pay`), `_orbits` codes their tails as integers and each
    map as a permutation of the codes, once for every exponent of row i, and
    walks forward images from each code not yet reached.  A permutation g of
    a finite set has finite order k, so g^-1 = g^(k-1): forward images alone
    reach the orbit under the group the maps generate.  Closure is invariant
    under the maps, so one representative per orbit (per active part, as
    closure reads no inert entry) is tested, and a passing one is descended
    into, its orbit size a multiplier on every count below it.  Rings with no
    nonzero grading, such as `componentwise(n)`, have no maps.

    A search node is one candidate row or orbit representative tested, one
    row-0 solve or one subtree credited, and a group split into orbits is
    first charged its sibling codes, before they are built; `ceiling` bounds
    their number.  The rows are walked by `errors.depth_first`, one pending
    node per row, so any rank is searched without recursion.
    """
    n = alg.rank
    antisym = alg.antisymmetric.holds
    one_side = antisym or alg.commutative.holds  # e_g x = +-x e_g
    linear = mode == "ideals" or antisym
    rows = [None] * n
    coeffs = [0] * (K + 1)
    visit = Budget(ceiling, "search", "nodes").charge
    M = p**K
    scalings = _scalings(alg, p, M)
    right, left = {}, {}  # the product maps, one (a, k, v) per constant
    for (a, b, k), v in alg.constants.items():
        right.setdefault(b - 1, []).append((a - 1, k - 1, v))
        left.setdefault(a - 1, []).append((b - 1, k - 1, v))
    if one_side:
        left = {}

    def joined(tested, maps, r):
        """tested and, unless it is empty, the map sum_g r_g maps[g]: row ->
        row r for the right maps, r row for the left ones."""
        m = [(a, k, r[g] * v) for g, side in maps.items() if r[g] for a, k, v in side]
        return tested + [m] if m else tested

    def closed(i, tested):
        """One node: does row i pass closure under `tested`, the product maps
        of its sibling group, and where closure is not linear row -> row row?"""
        visit()
        row = rows[i]
        for m in tested if linear else joined(tested, right, row):
            prod = [0] * n
            for a, k, v in m:
                if row[a]:
                    prod[k] += v * row[a]
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

    # the distinct nonzero products e_a e_b, which span L L
    products = {}
    for (a, b, k), v in alg.constants.items():
        products.setdefault((a, b), [0] * n)[k - 1] += v
    square = {tuple(w) for w in products.values() if any(w)}
    low = min((next(j for j, x in enumerate(w) if x) for w in square), default=n)

    def stabilisers(i, index):
        """The scalings that keep the span of rows i+1..n-1, of index `index`
        in that of e_{i+1}..e_{n-1}, as distinct multipliers of columns
        i+1..n-1 over that of column i, mod index, not all 1."""
        maps = []
        for s in scalings:
            if all(_in_span(rows, i + 1, [c * x for c, x in zip(s, r)]) for r in rows[i + 1:]):
                inverse = pow(s[i], -1, M)
                ratios = [c * inverse % index for c in s[i + 1:]]
                if any(c != 1 for c in ratios) and ratios not in maps:
                    maps.append(ratios)
        return maps

    def place(i, used, mult, rights, lefts):
        """Choose row i under rows i+1..n-1 (of index p^used), each of whose
        completions stands for mult objects.  `rights` and `lefts` are the
        product maps a row is tested with: for ideals those of the basis
        vectors, for subrings those of rows i+2..n-1, to which row i+1's
        join here.  Credits what it can count at once, and yields (i - 1,
        index exponent, multiplicity, rights, lefts) for each row to descend
        into, with rows[i] set to it."""
        exponents = range(K - used + 1)
        if i < low and all(_in_span(rows, i + 1, w) for w in square):
            visit()
            credit = mult * p ** ((i + 1) * used)
            for r in exponents:
                coeffs[used + r] += credit * sublattice_count_prediction(i + 1, p, r)
            return
        cols = range(i + 1, n)
        choices = [range(rows[j][j]) if j in active else (0,) for j in cols]
        if mode == "subrings" and i + 1 < n:
            rights, lefts = joined(rights, right, rows[i + 1]), joined(lefts, left, rows[i + 1])
        if not i and linear:
            tests = math.prod(map(len, choices)) * len(exponents)
            if _solve_pays(tests):
                visit()
                passing, least = _row0_counts(rows, p, used, rights, lefts)
                for m in exponents:
                    if m >= least:
                        coeffs[m + used] += mult * passing
                return
        fills = [(0,) if j in active else range(rows[j][j]) for j in cols]
        weight = math.prod(map(len, fills))
        siblings = math.prod(map(len, choices)) * weight
        maps = stabilisers(i, siblings) if i and _orbits_pay(siblings, len(scalings), n - 1 - i) else ()
        if maps:  # one (tail, size) per orbit, the same for every exponent
            visit(siblings)
            orbits, keep = _orbits(rows, i, maps), [j in active for j in cols]
        tested = rights + lefts
        for m in exponents:
            head = (0,) * i + (p**m,)
            kids, verdicts = [], {}  # closure reads no inert entry: one test per active part
            if maps:
                for tail, size in orbits:
                    row = rows[i] = head + tail
                    if (key := tuple(compress(tail, keep))) not in verdicts:
                        verdicts[key] = closed(i, tested)
                    if verdicts[key]:
                        kids.append((row, size))
            else:
                for tail in product(*choices):
                    row = rows[i] = head + tail
                    if not closed(i, tested):
                        continue
                    if not i:
                        coeffs[m + used] += mult * weight
                        continue
                    for fill in product(*fills):
                        kids.append((head + tuple(map(add, tail, fill)) if weight > 1 else row, 1))
            for full, size in kids:
                rows[i] = full
                yield i - 1, used + m, mult * size, rights, lefts

    sides = (list(right.values()), list(left.values())) if mode == "ideals" else ([], [])
    depth_first(place, n - 1, 0, 1, *sides)
    return coeffs


def _scalings(alg, p, M):
    """The diagonal automorphisms e_j -> u^(w_j) e_j of alg, as lists of the
    multipliers u^(w_j) mod M, M a power of p, that are not all 1.

    w runs over a basis of the integer gradings (w_a + w_b = w_k for every
    nonzero constant (a, b, k)): a rational nullspace basis, each vector
    scaled to integers.  u runs over -1 and 5 for p = 2, which generate
    (Z/2^K)^x, and for odd p over one unit that is a primitive root mod p^2,
    and so generates every (Z/p^K)^x, whenever p - 1 has at most one prime
    factor above 2^16 (see `_unit`).  Any units would give the same counts."""
    n = alg.rank
    eqs = []
    for (a, b, k), v in alg.constants.items():
        if v:
            eq = [0] * n
            eq[a - 1] += 1
            eq[b - 1] += 1
            eq[k - 1] -= 1
            eqs.append(eq)
    red, pivots = rref(eqs, n) if eqs else ([], [])
    units = (-1, 5) if p == 2 else (_unit(p),)
    trivial = [1 % M] * n
    out = []
    for free in sorted(set(range(n)) - set(pivots)):
        entries = {pc: -red[r][free] for r, pc in enumerate(pivots) if red[r][free]}
        scale = math.lcm(*(f.denominator for f in entries.values()))
        entries = {j: int(f * scale) for j, f in entries.items()}
        entries[free] = scale
        for u in units:
            s = list(trivial)
            for j, w in entries.items():
                s[j] = pow(u, w, M)
            if s != trivial:
                out.append(s)
    return out


def _unit(p):
    """A unit mod p^2 that generates (Z/p^K)^x for every K, p an odd prime:
    the least primitive root g mod p, or g + p if g^(p-1) = 1 mod p^2.  The
    prime factors of p - 1 are found by trial division up to 2^16; a cofactor
    left over is taken as prime, so for the rare p - 1 with two prime factors
    above 2^16 the unit may generate a smaller group."""
    primes, rest, q = [], p - 1, 2
    while q * q <= rest and q < 1 << 16:
        if rest % q == 0:
            primes.append(q)
            while rest % q == 0:
                rest //= q
        q += 1
    if rest > 1:
        primes.append(rest)
    g = next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in primes))
    return g + p if pow(g, p - 1, p * p) == 1 else g


def _orbits(rows, i, maps):
    """One (tail, size) per orbit, under the multipliers maps (see
    `_search_counts`), of the tails of row i under rows i+1..n-1: entries of
    columns i+1..n-1, each below its column's diagonal.  A tail's code is the
    mixed-radix number of its entries, column i+1 the most significant, each
    diagonal its radix.  Each map becomes the permutation of the codes that
    `_reduced` gives member by member: scale the columns, then reduce from
    left to right, in list operations over every code at once.  One walk per
    orbit, over forward images, marks the codes reached in one bytearray."""
    diagonals = [rows[j][j] for j in range(i + 1, len(rows))]
    total = math.prod(diagonals)
    digits, block = [], total  # digits[a][x]: entry a of the tail coded x
    for d in diagonals:
        block //= d
        digits.append([x // block % d for x in range(total)])
    perms = []
    for ratios in maps:
        scaled = [[c * t for t in column] for c, column in zip(ratios, digits)]
        code = [0] * total
        for a, d in enumerate(diagonals):
            row = rows[i + 1 + a]
            for b in range(a + 1, len(diagonals)):
                if h := row[i + 1 + b]:
                    scaled[b] = [y - x // d * h for y, x in zip(scaled[b], scaled[a])]
            code = [z * d + x % d for z, x in zip(code, scaled[a])]
        perms.append(code)
    seen, out, x = bytearray(total), [], 0
    while x >= 0:
        seen[x], todo, size = 1, [x], 0
        while todo:
            y = todo.pop()
            size += 1
            for perm in perms:
                if not seen[z := perm[y]]:
                    seen[z] = 1
                    todo.append(z)
        out.append((tuple(column[x] for column in digits), size))
        x = seen.find(0, x + 1)
    return out


def _orbit(rows, i, row, maps, seen):
    """The size of the orbit of row, a candidate for row i, under the maps of
    `_orbits`, found member by member into seen: the oracle of `_orbits`."""
    todo, size = [row], 0
    seen.add(row)
    while todo:
        x = todo.pop()
        size += 1
        for ratios in maps:
            y = _reduced(rows, i + 1, list(x[:i + 1]) + [c * t for c, t in zip(ratios, x[i + 1:])])
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return size


def _reduced(rows, start, v):
    """v with its coordinates from start on reduced modulo the diagonals of
    rows[start:], from left to right, by subtracting multiples of those rows:
    the Hermite row of v modulo their span."""
    n = len(v)
    for j in range(start, n):
        q = v[j] // rows[j][j]
        if q:
            row = rows[j]
            for k in range(j, n):
                v[k] -= q * row[k]
    return tuple(v)


def _orbits_pay(siblings, generators, later):
    """Split a sibling group into orbits only when its rows outnumber the
    membership tests that finding its maps costs, one per generator and later
    row.  Against a cut at `generators` alone (CPython 3.11, 2 cores, searches
    run directly, median ratios of 7 interleaved rounds), the same at rank 3,
    it took `dusautoy_ec` ideals at p=2, K=2 and `free_nilpotent_2_d(3)`
    subrings at p=2, K=3 to 0.47 and 0.39 of the time.  Splitting no group
    is 3 to 36 times slower on `sl2` subrings."""
    return siblings > generators * later


def _solve_pays(tests):
    """Count row 0 by `_row0_counts` rather than test its candidate rows one
    by one when there are more than 8.  Timed with the copy-free solve on the
    seven searches of the lattice benchmark's rings run directly (CPython
    3.11, 2 cores, median ratios of 9 interleaved rounds): every cut from 4
    to 10 came within 5% of 8 on each, gaining 3% at most, and 12 and 16 were
    up to 10% and 8% slower."""
    return tests > 8


def _row0_counts(rows, p, E, rights, lefts):
    """(passing, least): for every m >= least, `passing` tails t (coordinates
    1..n-1, each reduced modulo its column diagonal) make row 0 = (p^m, t)
    pass closure, and for m < least none do.  Closure: every product map
    (a, k, v) of rights (row -> row x) and lefts (row -> x row), see
    `_search_counts`, sends the row into the lattice.  Rows 1..n-1 are
    fixed, their span L_1 has passed closure, and their diagonal exponents sum
    to E, so the tails are the points of Q = Z_p^{n-1} / L_1 and p^E = |Q|
    kills Q.

    In a triangular order coordinate 0 of a tested product is p^m * c, with c
    coordinate 0 of the product taken with e_0 in place of the row, so c is an
    integer that does not depend on t.  The product lies in the lattice iff
    prod - c * row_0, which is (F - c) t + p^m b on coordinates 1..n-1, lies in
    L_1; F maps L_1 into itself because L_1 is closed.  F, b and c are read
    off the map's entries: a >= 1 adds to F, a = 0 to b or c.  With
    Y = p^E H^-1 for the Hermite matrix H of L_1, w lies in L_1 iff
    w Y = 0 mod p^E, so the passing tails are the solutions mod p^E of one
    linear system; its rows that are zero with a zero right side are dropped.
    Its right side is p^m times a fixed vector, so one `local_elimination`
    serves every m.  Each point of Q has p^(E(n-2)) lifts mod p^E, so with
    pivot valuations v the count is p^(sum(v) + E (1 - len(v))).  E = max m_j
    would not do: rows (2, 1), (0, 2) give Q = Z/4.
    """
    s, q = len(rows) - 1, p**E
    Y = _scaled_inverse(rows, q, 1)
    system = []
    for m in chain(rights, lefts):
        # row j: column j of Y^T (F - c), then of the right side -Y^T b; an
        # entry (a, k, v), k >= 1, adds v Y[k - 1] to column a - 1, the right
        # side last (a = 0, v negated); one with a = k = 0 adds v to c
        block = [[0] * (s + 1) for _ in Y]
        for a, k, v in m:
            if k:
                y, x, v = Y[k - 1], a - 1, v if a else -v
                for j in range(k - 1, s):
                    block[j][x] += v * y[j]
            elif not a:
                for x, y in enumerate(Y):
                    for j in range(x, s):
                        block[j][x] -= v * y[j]
        for row in block:
            row = [x % q for x in row]
            if any(row):
                system.append(row)
    valuations, least = local_elimination(system, s, p, E)
    return p ** (sum(valuations) + E * (1 - len(valuations))), least


def _central_counts(pres, p, K, ceiling):
    """Ideals of index p^k, k = 0..K, of a ring that is class 2 in its given
    basis, by the sum over the lattices Lambda' of Z.  `pres` is its
    presentation (`algebra.class2_presentation`).

    Identify L/Z with Z_p^d, spanned by e_1..e_d, and Z with Z_p^d',
    spanned by f_1..f_d'.  An ideal meets Z in some Lambda' and maps onto a
    lattice of Z_p^d inside X(Lambda') = {x : x L and L x lie in Lambda'};
    each such pair comes from |Z:Lambda'|^d ideals, one per homomorphism from
    the image to Z/Lambda' (Grunewald, Segal and Smith, Invent. Math. 93
    (1988), Lemma 6.1).  So

        zeta(s) = zeta_{Z_p^d}(s) sum |Z:Lambda'|^(d-s) |Z_p^d : X(Lambda')|^-s.

    With |Z:Lambda'| = p^E, x lies in X(Lambda') iff x C Y = 0 mod p^E for
    Y = p^E H^-1 (`_scaled_inverse`, H the Hermite matrix of Lambda') and the
    matrix C of each product map x -> x e_j, and x -> e_j x unless the ring is
    antisymmetric or commutative (then e_j x = +-x e_j; `pres` measures
    both), read in Z.
    X(Lambda') contains p^E Z_p^d, so the pivot valuations v of one
    `local_elimination` mod p^E give its index: the solutions number
    p^(sum(v) + E (d - len(v))).

    Only the Lambda' that contain p^L Z, L = floor(K / (1 + r)), are walked.
    Here r is the least rank mod p of R(ell) = (ell C), the same system with
    Y the column ell, over ell in P^(d'-1)(F_p).  If p^l is the largest
    elementary divisor of Z/Lambda', some ell primitive mod p kills Lambda'
    mod p^l, so x R(ell) = 0 mod p^l on X(Lambda'): its index is at least
    p^(l r), and the ideals over Lambda' have index at least p^(l (1 + r)).
    Any larger L is safe, so the rank walk stops as soon as L reaches
    K // (1 + f), with f a floor on r: 0 when ell -> R(ell) has a kernel mod
    p, else 1, and 2 on an antisymmetric ring, whose R(ell) is alternating
    and so of even rank.  One `local_elimination` mod p of that map gives f,
    and the walk is not entered at all when r = d already gives that L.
    A search node is one point ell of the rank walk, charged as it goes, or
    one Lambda'; `ceiling` bounds their number.  The Lambda' are predicted
    before any is walked: they match the subgroups of (Z/p^L)^d' of index at
    most p^K, which `_subgroups` counts.
    """
    d, dc = pres.d, pres.dprime
    antisym = pres.antisymmetric.holds
    sides = ((0, 1),) if antisym or pres.commutative.holds else ((0, 1), (1, 0))
    # (r, o): x is factor r of each constant (a, b, k), e_j factor o; block
    # (r, j) is the d x d' matrix of x -> x e_j (r = 0) or e_j x (r = 1)
    blocks = {}
    for key, v in pres.constants.items():
        for r, o in sides:
            block = blocks.setdefault((r, key[o]), [[0] * dc for _ in range(d)])
            block[key[r] - 1][key[2] - 1] += v
    blocks = list(blocks.values())
    budget = Budget(ceiling, "central sum", "nodes")

    def kernel_log(Y, E):
        """log_p of the number of x mod p^E with x C Y = 0 for every C."""
        system = [
            [sum(c * y[col] for c, y in zip(row, Y)) for row in C]
            for C in blocks
            for col in range(len(Y[0]))
        ]
        valuations, _ = local_elimination(system, d, p, E)
        return sum(valuations) + E * (d - len(valuations))

    # the largest L the rank walk can reach, from the floor on r: R(ell) = 0
    # mod p iff ell is in the kernel mod p of ell -> R(ell)
    valuations, _ = local_elimination([row for C in blocks for row in C], dc, p, 1)
    most = K // (1 + (0 if len(valuations) < dc else 2 if antisym else 1))
    r = d
    if K // (1 + r) < most:
        for ell in projective_points(p, dc):
            budget.charge()
            r = min(r, d - kernel_log([[x] for x in ell], 1))
            if K // (1 + r) == most:  # L can grow no further
                break
    L = K // (1 + r)
    budget.predict(sum(n for _, n, _ in _subgroups(p, [dc] * L, K)))
    # the images of the ideals over Lambda': sublattices of X(Lambda'), a copy of Z_p^d
    abelian = [sublattice_count_prediction(d, p, k) for k in range(K + 1)]
    coeffs = [0] * (K + 1)

    def tally(rows, E):
        least = E + E * d - kernel_log(_scaled_inverse(rows, p**E), E)
        for k in range(K - least + 1):
            coeffs[least + k] += p ** (E * d) * abelian[k]

    _lattices_containing(p, [L] * dc, K, tally)
    return coeffs


def _lattices_containing(p, bounds, most, leaf):
    """Call leaf(rows, e) for each lattice of Z_p^n, n = len(bounds), of index
    p^e <= p^most that contains p^bounds[i] e_i for every i, in Hermite form.
    The rows list is reused from one lattice to the next.

    Rows are fixed from the last one up.  p^b e_i, zero before coordinate i,
    lies in the lattice iff it lies in the span of rows i..n-1, that is iff
    row i has exponent m <= b and p^(b-m) row_i - p^b e_i lies in the span of
    the later rows; a row that fails cuts its subtree."""
    n = len(bounds)
    rows = [None] * n

    def place(i, used):
        for m in range(min(bounds[i], most - used) + 1):
            for tail in product(*(range(rows[j][j]) for j in range(i + 1, n))):
                scaled = (0,) * (i + 1) + tuple(p ** (bounds[i] - m) * t for t in tail)
                if _in_span(rows, i + 1, scaled):
                    rows[i] = (0,) * i + (p**m,) + tail
                    if i:
                        yield i - 1, used + m
                    else:
                        leaf(rows, used + m)

    depth_first(place, n - 1, 0)


def _central_subring_counts(pres, p, K, ceiling):
    """Subrings of index p^k, k = 0..K, of a ring that is class 2 in its given
    basis, by a sum over the lattices M of the abelian quotient.  `pres` is
    its presentation (`algebra.class2_presentation`), which measures whether
    the ring is commutative or antisymmetric.

    Write L = Z_p^d + Z with d' = rank Z.  Every product lands in Z and reads
    only the Z_p^d parts of its factors; call it beta(x, y).  A lattice H of L
    maps onto a lattice M of Z_p^d and meets Z in a lattice Lambda', and
    H = {(x, z) : x in M, z in phi(x) + Lambda'} for a homomorphism
    phi: M -> Z/Lambda'.  Conversely every such triple (M, Lambda', phi) gives
    a lattice H, of index |Z_p^d : M| |Z : Lambda'|, and M is free of rank d,
    so there are |Z : Lambda'|^d maps phi.  A product of two elements of H is
    beta of their images, an element of Z, so it lies in H iff it lies in
    Lambda': H is a subring iff Lambda' contains beta(M, M), the span of the
    beta(m_i, m_j) over the rows of M (i <= j when the ring is commutative,
    for then beta(m_j, m_i) = beta(m_i, m_j); i < j when it is antisymmetric,
    for then also beta(m, m) = 0).  So

        zeta(s) = sum_M |Z_p^d : M|^-s sum_{Lambda' >= beta(M, M)} |Z : Lambda'|^(d-s),

    the subring form of the decomposition behind Lemma 6.1 of Grunewald,
    Segal and Smith, Invent. Math. 93 (1988).

    For M of index p^k, the Lambda' that count have index p^e <= p^c,
    c = K - k, so they contain p^c Z, and they contain beta(M, M) iff they
    contain beta(M, M) + p^c Z.  They are the subgroups of index p^e of the
    finite abelian p-group Z / (beta(M, M) + p^c Z), so their number depends
    only on its type mu, and Birkhoff's formula gives it (`_subgroups`).  The
    M of index p^K have c = 0, only Lambda' = Z, and are credited at once.

    The others are tallied by (k, mu).  On a free class-2 ring
    (`is_free_class2`) beta(M, M) is the exterior square of M, and
    GL_d(Z_p), which acts on the ring through it, sends M to a diagonal
    lattice: if Z_p^d / M has type nu, Z / beta(M, M) has type
    {nu_i + nu_j : i < j}, so mu is {min(nu_i + nu_j, c) : i < j}.  The M of
    index below p^K contain p^(K-1) Z_p^d, and those with quotient of type nu
    are the subgroups of type (K-1-nu_i) of (Z/p^(K-1))^d, again counted by
    Birkhoff's formula.  On any other ring the M are walked by Hermite rows
    from the last one up (`errors.depth_first`), each row's products with
    itself and the later rows computed once for its subtree, reading only the
    constants whose first factor is in the row's support, and mu read off
    the pivot valuations of one `local_elimination` mod p^c, padded with c.

    A node is one (k, nu) term or one M walked, and one (k, mu) subgroup term
    of Z; the walked M are predicted before any work, and `ceiling` bounds
    the total.
    """
    d, dc = pres.d, pres.dprime
    antisym = pres.antisymmetric.holds
    one_side = antisym or pres.commutative.holds
    budget = Budget(ceiling, "central sum", "nodes")
    types = Counter()
    if K and is_free_class2(pres):
        for conj, ms, k in _subgroups(p, (d,) * (K - 1), K - 1):
            budget.charge()
            nu = [K - 1 - sum(n > j for n in conj) for j in range(d)]
            types[k, tuple(sorted(min(a + b, K - k) for a, b in combinations(nu, 2)))] += ms
    else:
        budget.predict(sum(sublattice_count_prediction(d, p, k) for k in range(K)))
        by_first = [[] for _ in range(d)]  # a -> (b, k, v) for each constant (a, b, k)
        for (a, b, k), v in pres.constants.items():
            by_first[a - 1].append((b - 1, k - 1, v))
        rows, support = [None] * d, [None] * d  # support[i]: the nonzero (a, x_a) of row i

        def beta(i, y):
            """The product of row i, read through its support, with y."""
            w = [0] * dc
            for a, x in support[i]:
                for b, k, v in by_first[a]:
                    if y[b]:
                        w[k] += v * x * y[b]
            return w

        def place(i, used, products):
            for m in range(K - used):
                for tail in product(*(range(rows[j][j]) for j in range(i + 1, d))):
                    row = rows[i] = (0,) * i + (p**m,) + tail
                    support[i] = [(i, p**m)] + [(j, t) for j, t in enumerate(tail, i + 1) if t]
                    new = [beta(i, rows[j]) for j in range(i + 1 if antisym else i, d)]
                    if not one_side:
                        new += [beta(j, row) for j in range(i + 1, d)]
                    new = products + [w for w in new if any(w)]
                    if i:
                        yield i - 1, used + m, new
                        continue
                    c = K - used - m
                    valuations, _ = local_elimination(new, dc, p, c)
                    types[used + m, tuple(sorted(valuations)) + (c,) * (dc - len(valuations))] += 1

        depth_first(place, d - 1, 0, [])
    coeffs = [0] * (K + 1)
    coeffs[K] = sublattice_count_prediction(d, p, K)
    for (k, mu), ms in types.items():
        conj = [sum(m > i for m in mu) for i in range(max(mu))]
        for _, n, e in _subgroups(p, conj, K - k):
            budget.charge()
            coeffs[k + e] += ms * n * p ** (e * d)
    return coeffs


def is_free_class2(pres) -> bool:
    """Is the ring of the class-2 presentation pres free class 2: antisymmetric,
    with d' = d(d-1)/2 and each pair e_a, e_b, a < b, sent to +-f_k for a k of
    its own?  Then f_k -> +-e_a ^ e_b identifies Z with the exterior square of
    Z_p^d and beta(x, y) with x ^ y.  `free_nilpotent_2_d(d)` and `heisenberg`
    are, in any signed or permuted basis; the test reads only the constants
    and the antisymmetry measured from them."""
    upper = [key for key in pres.constants if key[0] < key[1]]
    return (
        pres.antisymmetric.holds
        and pres.dprime == pres.d * (pres.d - 1) // 2 == len(upper)
        == len({key[:2] for key in upper}) == len({key[2] for key in upper})
        and all(abs(v) == 1 for v in pres.constants.values())
    )


def _subgroups(p, lam, most):
    """Yield (nu, n, e) for each type nu of the subgroups of index p^e <= p^most
    in a finite abelian p-group of type lam, with n the number of them.  Both
    types are given by their conjugate partitions (entry i is the number of
    parts above i), nu as long as lam, padded with zeros.

    By Birkhoff's formula (Birkhoff, Proc. London Math. Soc. 38 (1935); see
    Butler, Mem. AMS 539 (1994))

        n = prod_i p^(nu_{i+1} (lam_i - nu_i)) [lam_i - nu_{i+1} choose nu_i - nu_{i+1}]_p,

    with nu_i <= lam_i, nu non-increasing and e = sum_i (lam_i - nu_i).  The
    entries are fixed from the last one up on an explicit stack, so a group of
    any rank takes len(lam) levels, its largest part."""
    stack = [((), 1, 0)]
    while stack:
        nu, n, e = stack.pop()
        i = len(lam) - len(nu) - 1
        if i < 0:
            yield nu, n, e
            continue
        top, after = lam[i], (nu[0] if nu else 0)
        for x in range(max(after, top - most + e), top + 1):
            term = p ** (after * (top - x)) * _gaussian(top - after, x - after, p)
            stack.append(((x,) + nu, n * term, e + top - x))


def _gaussian(n, k, p):
    """The Gaussian binomial [n choose k]_p, 0 <= k <= n: the number of
    k-dimensional subspaces of F_p^n."""
    out = 1
    for i in range(min(k, n - k)):
        out = out * (p ** (n - i) - 1) // (p ** (i + 1) - 1)
    return out


def _scaled_inverse(H, D, start=0):
    """Y = D H'^-1 for H' the rows and columns of H from `start` on, an upper
    triangular integer matrix with det H' | D.

    Row i of Y follows from the rows below it, and each division is exact
    because D H'^-1 = (D / det H') adj(H') is integral.  A vector w lies in
    the row span of H' over Z_p iff w Y = 0 mod D."""
    s = len(H) - start
    Y = [None] * s
    for i in reversed(range(s)):
        row = H[start + i]
        acc = [D * (j == i) for j in range(s)]
        for k in range(i + 1, s):
            if h := row[start + k]:
                acc = [a - h * y for a, y in zip(acc, Y[k])]
        Y[i] = [a // row[start + i] for a in acc]
    return Y
