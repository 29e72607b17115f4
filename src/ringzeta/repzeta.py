"""Twist-isoclass representation counting for class-2 presentations.

Characters of level p^N on the centre correspond to primitive vectors ell in
(Z/p^N)^{d'}; the elementary divisor type m of the evaluated commutator matrix
R(ell) mod p^N yields one twist-isoclass of dimension p^{sum_i (N - m_i)/2}.
Divisors are capped at N, which is exactly what makes the exponent the right
one.  `smith_type` reads the type off `exactlinalg.local_elimination`, the one
elimination over Z/p^E that the lattice counts use too.  Unit multiples u*ell
share that type, so level 1 walks one ell per point of P^{d'-1}(F_p) with
weight p - 1, and level N the lifts of those points, one ell per unit class
of level N, with weight phi(p^N).  Beyond level 1 the walk is bounded by the
rank r of R(ell) mod p: every lift of a level-1 class keeps those r unit
divisors, so its exponent is at least r N / 2, and the lifts of a class with
r N > 2 J are skipped, as none can reach p^J.  A class at the generic rank
rho of R(y) keeps type (0^rho, N^(d-rho)) at every lift and is credited
whole.  The principal rho-Pfaffians of R(y), built once per presentation
when they pay, find those classes with no Smith form, so only the classes on
their common zero locus mod p take one.  `_brute_orbit_counts`, its own loop
over every primitive ell, stays as the oracle.  Also: brute-force point
counts on affine and projective plane curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .algebra import Class2Presentation, commutator_matrix, projective_points
from .errors import (
    DEFAULT_CEILING,
    Budget,
    InternalConsistencyError,
    MalformedInputError,
    UnsupportedError,
)
from .exactlinalg import local_elimination, rank
from .poly import Polynomial
from .ratfun import LocalDirichletTruncation


@dataclass(frozen=True)
class ElementaryDivisorType:
    level: int
    type: tuple  # weakly increasing, entries in [0, level]


def smith_type(A, p: int, N: int) -> ElementaryDivisorType:
    """Elementary divisor type of the square matrix A over Z/p^N: the pivot
    valuations of `exactlinalg.local_elimination`, and N for each row left
    without a pivot, so the divisors are capped at N.  A is square and
    N >= 1, as `R.evaluate` and the level walk give them; neither is checked."""
    d = len(A)
    valuations, _ = local_elimination(list(A), d, p, N)
    return ElementaryDivisorType(N, tuple(sorted(valuations + [N] * (d - len(valuations)))))


def _primitive_vectors(p, N, d):
    q = p**N
    for ell in product(range(q), repeat=d):
        if any(x % p for x in ell):
            yield ell


def _lifts(classes, p, N):
    """The level-N unit classes over the given level-1 ones: the normal form
    (0..0, 1, t) lifts to head in (pZ/p^N)^i, then 1, then t_j + pZ/p^N."""
    q = p**N
    for ell in classes:
        i = ell.index(1)
        yield from product(*[range(0, q, p)] * i, (1,), *(range(t, q, p) for t in ell[i + 1:]))


def rep_zeta_class2(
    pres: Class2Presentation,
    p: int,
    J: int,
    ceiling: int = DEFAULT_CEILING,
) -> LocalDirichletTruncation:
    """Twist-isoclass counts c[p^0..p^J] from the coadjoint-orbit recipe.

    R(u ell) = u R(ell) for a unit u, so a unit class of characters shares one
    type: level 1 walks one representative per point of P^(d'-1)(F_p)
    (`projective_points`) with weight p - 1.  Each later level N walks the
    lifts (`_lifts`) of the level-1 classes with weight phi(p^N), and only
    those that can reach p^J.  If R(ell) has rank r mod p, every lift of ell
    keeps r unit divisors, so its exponent is at least r N / 2: the lifts of
    a class with r N > 2 J are skipped.

    Classes at the generic rank rho, the rank of R(y) over Q(y_1..y_d'), are
    credited whole.  Every (rho+1)-minor of R(y) vanishes identically, so
    R(ell) has rank at most rho over Q_p at every ell.  A class of rank rho
    mod p therefore has rho unit divisors and d - rho zero ones at every
    lift: type (0^rho, N^(d-rho)) and exponent rho N / 2 at every level N,
    and its p^((N-1)(d'-1)) lifts are credited in one step when
    rho N <= 2 J.  Over a field an alternating matrix has rank equal to the
    largest principal submatrix with a nonzero Pfaffian, so a class has rank
    rho mod p iff one of the principal rho-Pfaffians (`_pfaffians`) is a unit
    there; those classes take no Smith form even at level 1, and only the
    classes where all of them vanish mod p do.  When the Pfaffians do not pay
    (`_pfaffians_pay`), rho is taken to be d, and the certificate is the
    Smith form: a class of rank d mod p is nonsingular, type (0, ..., 0).

    `ceiling` bounds the walk, predicted twice: one node per level-1 class,
    whether a Pfaffian or a Smith form settles it, before level 1, then the
    lifts the bound leaves at every later level, which the level-1 ranks fix,
    before level 2.  `_brute_orbit_counts`, which walks every primitive ell
    at every level, is the oracle the tests hold this to.

    Levels 1..J are walked (level 1 also when J = 0).  A class with R(ell) = 0
    mod p has exponent 0 at level 1 and makes p a bad prime; any other class
    has r >= 2, so its exponent is at least N and levels beyond J contribute
    nothing.  The bound skips no check: a skipped or credited lift has
    e >= r N / 2 >= N, never the e = 0 of a bad prime, and an antisymmetric
    R(ell) has an even defect at every level.
    """
    R = _orbit_matrix(pres, p)
    dprime = pres.dprime
    counts = [1] + [0] * J  # c[p^0]: the trivial level
    top = max(J, 1)
    classes = (p**dprime - 1) // (p - 1)
    budget = Budget(ceiling, f"the walk to level {top}", "characters")
    budget.predict(classes)
    rho, pfaffians = _pfaffians(R) if _pfaffians_pay(R.d, classes) else (R.d, {})
    ranks = {}  # level-1 classes by the rank r of R(ell) mod p
    for ell in projective_points(p, dprime):
        if any(f.evaluate(ell) % p for f in pfaffians.values()):
            r = rho  # type (0^rho, 1^(d-rho)): exponent rho / 2
            if rho // 2 <= J:
                counts[rho // 2] += p - 1
        else:
            r = _tally(R, ell, p, 1, p - 1, counts).count(0)
        ranks.setdefault(r, []).append(ell)
    generic = len(ranks.pop(rho, []))  # type (0^rho, N^(d-rho)) at every lift
    walks = []  # (N, the level-1 classes whose lifts level N walks, their lifts each)
    for N in range(2, top + 1):
        lifts = p ** ((N - 1) * (dprime - 1))  # level-N classes over each level-1 one
        if rho * N <= 2 * J:  # the generic exponent rho N / 2
            counts[rho * N // 2] += generic * lifts * (p**N - p ** (N - 1))
        # each lift keeps r unit divisors, so e >= r N / 2
        walks.append((N, [ell for r, group in ranks.items() if r * N <= 2 * J for ell in group], lifts))
    # the level-1 ranks fix every later walk: refuse it whole, before level 2
    budget.predict(sum(len(walked) * lifts for _, walked, lifts in walks))
    for N, walked, _ in walks:
        for ell in _lifts(walked, p, N):
            _tally(R, ell, p, N, p**N - p ** (N - 1), counts)
    return LocalDirichletTruncation(p, tuple(counts))


def _pfaffians_pay(d, classes):
    """Build the principal Pfaffians only when their 2^(d-1) - 1 subsets are
    at most 4 per level-1 class.  Timed on random dense presentations
    (CPython 3.11), one subset cost 1/60 to 1/2.5 of one class's
    `R.evaluate` and `smith_type` at d = 4..14 and d' <= 3, and 0.6 to 3.2
    of them at d' = 6, where the Pfaffians have the most terms.  So the build
    costs at most 1.6 level-1 walks at d' <= 3 and 13 at d' = 6, and a
    d = 40, d' = 1 presentation never builds its 2^39 subsets."""
    return 2 ** (d - 1) <= 4 * classes


def _pfaffians(R):
    """(rho, {S: Pf(S)}) for the principal rho-Pfaffians of R(y) that are not
    identically zero, each a Polynomial in y_1..y_d' keyed by its rows S,
    rho the rank of R(y) over Q(y).

    The Pfaffian of the principal submatrix on the rows S = (i, j_1, .., j_s),
    in order, expands along its first row: Pf(S) is the sum over t of
    (-1)^(t-1) R[i][j_t] Pf(S without i and j_t).  So each even size is built
    from the one below it, over every subset of that size.  Over a field an
    alternating matrix of rank r has a nonsingular principal r x r submatrix
    and no nonsingular larger one, so the build stops at the first size whose
    Pfaffians all vanish identically, and the last size kept is rho."""
    # R[i][j] as its nonzero (k, c), and each level's nonzero Pfaffians as
    # exponent tuple -> coefficient: a missing subset has Pfaffian 0
    forms = [[[(k, c) for k, c in enumerate(form) if c] for form in row] for row in R.entries]
    rho, level = 0, {(): {(0,) * R.dprime: 1}}
    for size in range(2, R.d + 1, 2):
        above = {}
        for S in combinations(range(R.d), size):
            terms = {}
            for t in range(1, size):
                minor = level.get(S[1:t] + S[t + 1:])
                if not minor:
                    continue
                for k, a in forms[S[0]][S[t]]:
                    a = a if t % 2 else -a
                    for e, c in minor.items():
                        e = e[:k] + (e[k] + 1,) + e[k + 1:]
                        terms[e] = terms.get(e, 0) + a * c
            if terms := {e: c for e, c in terms.items() if c}:
                above[S] = terms
        if not above:
            break
        rho, level = size, above
    variables = tuple(f"y{k}" for k in range(1, R.dprime + 1))
    return rho, {S: Polynomial(variables, terms) for S, terms in level.items()}


def _brute_orbit_counts(pres, p, J, ceiling):
    """The oracle of `rep_zeta_class2`: every primitive ell of levels
    1..max(J, 1), each counted once.  `ceiling` bounds the p^(N d') vectors
    of each level N, predicted before it."""
    R = _orbit_matrix(pres, p)
    counts = [1] + [0] * J
    top = max(J, 1)
    budget = Budget(ceiling, f"the walk to level {top}", "characters")
    for N in range(1, top + 1):
        budget.predict(p ** (N * pres.dprime))
        for ell in _primitive_vectors(p, N, pres.dprime):
            _tally(R, ell, p, N, 1, counts)
    return LocalDirichletTruncation(p, tuple(counts))


def _orbit_matrix(pres, p):
    """The commutator matrix of pres, after the refusals both walks share."""
    R = commutator_matrix(pres)
    if p == 2:
        raise UnsupportedError("p = 2 is excluded (orbit parametrization needs odd period)")
    if R.is_zero():
        raise UnsupportedError(
            "identically-zero commutator matrix: the orbit recipe degenerates"
        )
    return R


def _tally(R, ell, p, N, weight, counts):
    """Add `weight` to counts[e] for the level-N character ell, e the half
    rank defect of R(ell) mod p^N, when e < len(counts); returns its type."""
    t = smith_type(R.evaluate(ell), p, N).type
    defect = sum(N - m for m in t)
    if defect % 2:
        raise InternalConsistencyError(
            f"odd rank defect {defect} for antisymmetric R({ell}) at level {N}"
        )
    e = defect // 2
    if e == 0:
        # a level-N character collapsing to dimension 1 re-counts the trivial
        # twist-isoclass.  When the relations span the centre over Q, p is
        # outside the recipe's validity for this presentation; when they do
        # not, some integral ell has R(ell) = 0 and every prime is.
        if rank([form for row in R.entries for form in row], R.dprime) < R.dprime:
            raise UnsupportedError(
                "the relations do not span the centre: R(ell) = 0 for an integral "
                "ell != 0, so the orbit recipe degenerates at every prime"
            )
        raise InternalConsistencyError(
            f"level-{N} character {ell} gives a one-dimensional class; "
            f"p = {p} is a bad prime for this presentation"
        )
    if e < len(counts):
        counts[e] += weight
    return t


# ---------------------------------------------------------------------------
# point counting


def point_count_affine(f: Polynomial, p: int) -> int:
    """|{(x, y) in F_p^2 : f = 0}| by exhaustion; the default ceiling bounds
    the p^2 points."""
    if len(f.variables) != 2:
        raise MalformedInputError("affine plane counting needs a 2-variable polynomial")
    Budget(DEFAULT_CEILING, f"the plane over F_{p}", "points").predict(p * p)
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


def point_count_projective(curve: ProjectivePlaneCurve, p: int,
                           ceiling: int = DEFAULT_CEILING) -> int:
    """Projective points, one per normalized representative of
    `projective_points(p, 3)`; `ceiling` bounds the p^2 + p + 1 points."""
    Budget(ceiling, f"the projective plane over F_{p}", "points").predict(p * p + p + 1)
    f = curve.polynomial
    return sum(1 for point in projective_points(p, 3) if f.evaluate(point) % p == 0)


def weight_values(hybrid, p: int, ceiling: int = DEFAULT_CEILING) -> dict:
    """Point-count values for every weight symbol of a hybrid, from the curves
    it declares (parsed with the igusa expression grammar); `ceiling` bounds
    each curve's count."""
    from .igusa import parse_polynomial

    values = {}
    for symbol in hybrid.symbols():
        expr = hybrid.weight_curves.get(symbol)
        if expr is None:
            raise MalformedInputError(f"hybrid declares no curve for weight {symbol!r}")
        curve = ProjectivePlaneCurve(parse_polynomial(expr))
        values[symbol] = point_count_projective(curve, p, ceiling)
    return values
