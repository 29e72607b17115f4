"""Twist-isoclass representation counting for class-2 presentations.

Characters of level p^N on the centre correspond to primitive vectors ell in
(Z/p^N)^{d'}; the elementary divisor type m of the evaluated commutator matrix
R(ell) mod p^N yields one twist-isoclass of dimension p^{sum_i (N - m_i)/2}.
Divisors are capped at N, which is exactly what makes the exponent the right
one.  Unit multiples u*ell share that type, so each level walks one ell per unit
class (the points of P^{d'-1}(Z/p^N)) with weight phi(p^N); the walk over every
primitive ell stays as the oracle.  Also: brute-force point counts on affine and
projective plane curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .algebra import Class2Presentation, commutator_matrix
from .errors import (
    InternalConsistencyError,
    MalformedInputError,
    ResourceGuardError,
    StabilizationError,
    UnsupportedError,
)
from .poly import Polynomial
from .ratfun import LocalDirichletTruncation, funeq_verdict, hybrid_funeq_verdict

DEFAULT_GUARD = 10**8
STABILIZATION_MARGIN = 2
POINT_COUNT_MAX_PRIME = 10**4


@dataclass(frozen=True)
class ElementaryDivisorType:
    level: int
    type: tuple  # weakly increasing, entries in [0, level]

    def __post_init__(self):
        t = self.type
        if any(t[i] > t[i + 1] for i in range(len(t) - 1)):
            raise MalformedInputError("type must be weakly increasing")
        if t and (t[0] < 0 or t[-1] > self.level):
            raise MalformedInputError("divisor valuations must lie in [0, level]")


def smith_type(A, p: int, N: int) -> ElementaryDivisorType:
    """Diagonalize A over Z/p^N by unit-pivot elimination; valuations capped at N."""
    if N < 1:
        raise MalformedInputError("need N >= 1")
    q = p**N
    work = [[x % q for x in row] for row in A]
    d = len(work)
    if any(len(row) != d for row in work):
        raise MalformedInputError("matrix must be square")

    def val(x):
        if x == 0:
            return N
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        return v

    divisors = []
    top = 0
    while top < d:
        best_v = N
        best = None
        for r in range(top, d):
            row = work[r]
            for c in range(top, d):
                if row[c]:
                    v = val(row[c])
                    if v < best_v:
                        best_v = v
                        best = (r, c)
                        if v == 0:
                            break
            if best_v == 0:
                break
        if best is None:
            divisors.extend([N] * (d - top))
            break
        r0, c0 = best
        work[top], work[r0] = work[r0], work[top]
        if c0 != top:
            for row in work:
                row[top], row[c0] = row[c0], row[top]
        pivot = work[top][top]
        unit = pivot // p**best_v
        unit_inv = pow(unit, -1, p ** (N - best_v)) if best_v < N else 1
        for r in range(top + 1, d):
            x = work[r][top]
            if x:
                f = (x // p**best_v) * unit_inv
                work[r] = [(a - f * b) % q for a, b in zip(work[r], work[top])]
        for c in range(top + 1, d):
            x = work[top][c]
            if x:
                f = (x // p**best_v) * unit_inv
                for r in range(top, d):
                    work[r][c] = (work[r][c] - f * work[r][top]) % q
        divisors.append(best_v)
        top += 1
    return ElementaryDivisorType(N, tuple(sorted(divisors)))


def _primitive_vectors(p, N, d):
    q = p**N
    for ell in product(range(q), repeat=d):
        if any(x % p for x in ell):
            yield ell


def _unit_classes(p, N, d):
    """(size, walk, weight) of the quotient: one primitive vector per unit class,
    i.e. the points of P^{d-1}(Z/p^N) (first unit coordinate 1, earlier ones in
    pZ/p^N), each standing for the phi(p^N) characters of its class."""
    q = p**N

    def walk():
        for i in range(d):
            for head in product(range(0, q, p), repeat=i):
                for tail in product(range(q), repeat=d - 1 - i):
                    yield head + (1,) + tail

    return p ** ((N - 1) * (d - 1)) * (p**d - 1) // (p - 1), walk, q - q // p


def _all_characters(p, N, d):
    """(size, walk, weight) of the oracle: every primitive vector, once."""
    return p ** (N * d), lambda: _primitive_vectors(p, N, d), 1


def _unit_floor(R, p, ells):
    """The certificate: does R(ell) keep a unit entry mod p for every ell given?"""
    return all(any(x % p for row in R.evaluate(ell) for x in row) for ell in ells)


def rep_zeta_class2(
    pres: Class2Presentation,
    p: int,
    J: int,
    guard: int = DEFAULT_GUARD,
    margin: int = STABILIZATION_MARGIN,
) -> LocalDirichletTruncation:
    """Twist-isoclass counts c[p^0..p^J] from the coadjoint-orbit recipe.

    R(u ell) = u R(ell) for a unit u, so a unit class of characters shares one
    type: each level walks one representative per class (`_unit_classes`)
    with weight phi(p^N), and `guard` bounds the representatives per level.
    `_orbit_counts` with `_all_characters` walks every primitive ell instead;
    it is the oracle the tests hold this to.

    Level iteration continues while a level can still contribute dimensions
    <= J.  When every primitive ell has R(ell) nonzero mod p, the evaluated
    matrix keeps two unit divisors at every level, so the dimension exponent is
    at least N and levels beyond J are certified without enumeration; otherwise
    levels up to J + margin are enumerated, and contributions at the margin
    raise a StabilizationError instead of silently truncating.
    """
    return _orbit_counts(pres, p, J, guard, margin, _unit_classes)


def _orbit_counts(pres, p, J, guard, margin, chart):
    """The level loop of `rep_zeta_class2`; `chart(p, N, d')` gives the walk."""
    if p == 2:
        raise UnsupportedError("p = 2 is excluded (orbit parametrization needs odd period)")
    R = commutator_matrix(pres)
    if R.is_zero():
        raise UnsupportedError(
            "identically-zero commutator matrix: the orbit recipe degenerates"
        )
    dprime = pres.dprime
    counts = [0] * (J + 1)
    counts[0] = 1  # the trivial level
    size, walk, _ = chart(p, 1, dprime)
    if size > guard:
        raise ResourceGuardError(
            f"certificate pass needs {size} characters, over guard {guard}",
            predicted=size,
            ceiling=guard,
        )
    unit_floor = _unit_floor(R, p, walk())
    N = 0
    while True:
        N += 1
        if unit_floor and N > J:
            break
        if N > J + margin:
            raise StabilizationError(
                f"level {N - 1} still produced dimensions <= {J}; cannot truncate safely"
            )
        size, walk, weight = chart(p, N, dprime)
        if size > guard:
            raise ResourceGuardError(
                f"level {N} needs {size} characters, over guard {guard}",
                predicted=size,
                ceiling=guard,
            )
        min_exponent = None
        for ell in walk():
            t = smith_type(R.evaluate(ell), p, N)
            defect = sum(N - m for m in t.type)
            if defect % 2:
                raise InternalConsistencyError(
                    f"odd rank defect {defect} for antisymmetric R({ell}) at level {N}"
                )
            e = defect // 2
            if e == 0:
                # a level-N character collapsing to dimension 1 re-counts
                # the trivial twist-isoclass: p is outside the recipe's
                # validity for this presentation
                raise InternalConsistencyError(
                    f"level-{N} character {ell} gives a one-dimensional class; "
                    f"p = {p} is a bad prime for this presentation"
                )
            if min_exponent is None or e < min_exponent:
                min_exponent = e
            if e <= J:
                counts[e] += weight
        if N >= J and (min_exponent is None or min_exponent > J):
            break
    return LocalDirichletTruncation(p, tuple(counts))


# ---------------------------------------------------------------------------
# point counting


def point_count_affine(f: Polynomial, p: int) -> int:
    """|{(x, y) in F_p^2 : f = 0}| by exhaustion."""
    if p > POINT_COUNT_MAX_PRIME:
        raise ResourceGuardError(f"guard: p <= {POINT_COUNT_MAX_PRIME}")
    if len(f.variables) != 2:
        raise MalformedInputError("affine plane counting needs a 2-variable polynomial")
    return sum(
        1 for x in range(p) for y in range(p) if f.evaluate((x, y)) % p == 0
    )


@dataclass(frozen=True)
class ProjectivePlaneCurve:
    polynomial: Polynomial

    def __post_init__(self):
        if len(self.polynomial.variables) != 3:
            raise MalformedInputError("projective plane curve needs 3 variables")
        if not self.polynomial.is_homogeneous():
            raise MalformedInputError("curve polynomial must be homogeneous")


def point_count_projective(curve: ProjectivePlaneCurve, p: int) -> int:
    """Projective points, via normalized representatives: (x : y : 1),
    then (x : 1 : 0), then (1 : 0 : 0)."""
    if p > POINT_COUNT_MAX_PRIME:
        raise ResourceGuardError(f"guard: p <= {POINT_COUNT_MAX_PRIME}")
    f = curve.polynomial
    count = sum(
        1 for x in range(p) for y in range(p) if f.evaluate((x, y, 1)) % p == 0
    )
    count += sum(1 for x in range(p) if f.evaluate((x, 1, 0)) % p == 0)
    if f.evaluate((1, 0, 0)) % p == 0:
        count += 1
    return count


def weight_values(hybrid, p: int) -> dict:
    """Point-count values for every weight symbol of a hybrid, from the curves
    it declares (parsed with the igusa expression grammar)."""
    from .igusa import parse_polynomial

    values = {}
    for symbol in hybrid.symbols():
        expr = hybrid.weight_curves.get(symbol)
        if expr is None:
            raise MalformedInputError(f"hybrid declares no curve for weight {symbol!r}")
        curve = ProjectivePlaneCurve(parse_polynomial(expr))
        values[symbol] = point_count_projective(curve, p)
    return values


def theoremD_check(f, dprime: int):
    """Functional-equation verdict with the expected monomial (+1, dprime, 0)."""
    expected = (1, dprime, 0)
    from .ratfun import PointCountHybrid

    if isinstance(f, PointCountHybrid):
        return hybrid_funeq_verdict(f, expected)
    return funeq_verdict(f, expected)
