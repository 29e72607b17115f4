import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from ringzeta import algebra, igusa, ratfun, repzeta
from ringzeta.algebra import commutator_matrix
from ringzeta.errors import (
    DEFAULT_CEILING,
    InternalConsistencyError,
    MalformedInputError,
    ResourceGuardError,
    UnsupportedError,
)
from ringzeta.exactlinalg import rank
from ringzeta.repzeta import (
    ProjectivePlaneCurve,
    point_count_affine,
    point_count_projective,
    rep_zeta_class2,
    smith_type,
)


def _catalog(name):
    return algebra.resolve_presentation_spec("catalog:" + name)


EC_AFFINE = igusa.parse_polynomial("y^2 - x^3 + x")
EC_PROJECTIVE = ProjectivePlaneCurve(igusa.parse_polynomial("y^2*z - x^3 + x*z^2"))


def test_smith_type_examples():
    assert smith_type([[0, 1], [-1, 0]], 3, 2).type == (0, 0)
    assert smith_type([[0, 3], [-3, 0]], 3, 3).type == (1, 1)
    assert smith_type([[0, 0], [0, 0]], 5, 2).type == (2, 2)
    assert smith_type([[2, 0], [0, 8]], 2, 2).type == (1, 2)  # capped at N


def test_smith_type_gives_the_kernel_at_every_level():
    """|{x in (Z/p^k)^d : A x = 0}| = p^(sum min(m_i, k)) for k = 1..N, by enumeration."""
    rng = random.Random(5309)
    kinds = set()
    for _ in range(300):
        p, d = rng.choice((2, 3, 5)), rng.randrange(1, 4)
        N = rng.randrange(1, 4)
        while p ** (N * d) > 4096:  # stops at N = 1, since 5^3 <= 4096
            N -= 1
        q = p**N
        draw = lambda: rng.choice((0, 1, p, p * p, rng.randrange(-q - 3, q + 4)))
        A = [[draw() for _ in range(d)] for _ in range(d)]
        if d > 1 and rng.random() < 0.3:  # a row dependent on the others
            A[-1] = [sum(rng.randrange(-3, 4) * row[j] for row in A[:-1]) for j in range(d)]
        t = smith_type(A, p, N).type
        for k in range(1, N + 1):
            kernel = sum(
                all(sum(a * v for a, v in zip(row, x)) % p**k == 0 for row in A)
                for x in product(range(p**k), repeat=d)
            )
            assert kernel == p ** sum(min(m, k) for m in t), (A, p, N, k, t)
        kinds.add(("unit", 0 in t))
        kinds.add(("between", any(0 < m < N for m in t)))
        kinds.add(("capped", N in t))
    assert kinds == {(kind, seen) for kind in ("unit", "between", "capped") for seen in (True, False)}


def _random_unimodular(rng, d, p, N):
    """Product of random elementary matrices over Z/p^N."""
    q = p**N
    M = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for _ in range(8):
        kind = rng.randrange(3)
        i, j = rng.sample(range(d), 2)
        if kind == 0:  # row add
            c = rng.randrange(q)
            M[i] = [(a + c * b) % q for a, b in zip(M[i], M[j])]
        elif kind == 1:  # swap
            M[i], M[j] = M[j], M[i]
        else:  # unit scaling
            u = rng.choice([x for x in range(1, p)])
            M[i] = [(u * a) % q for a in M[i]]
    return M


def _matmul(A, B, q):
    d = len(A)
    return [
        [sum(A[i][k] * B[k][j] for k in range(d)) % q for j in range(d)]
        for i in range(d)
    ]


def test_smith_type_unimodular_invariance():
    rng = random.Random(77011)
    for _ in range(500):
        d = rng.choice((2, 3))
        p = rng.choice((3, 5))
        N = rng.randrange(1, 4)
        q = p**N
        A = [[rng.randrange(q) for _ in range(d)] for _ in range(d)]
        t = smith_type(A, p, N).type
        U = _random_unimodular(rng, d, p, N)
        V = _random_unimodular(rng, d, p, N)
        assert smith_type(_matmul(_matmul(U, A, q), V, q), p, N).type == t


def test_rep_zeta_heisenberg_totients():
    pres = _catalog("heisenberg")
    for p in (3, 5, 7):
        got = rep_zeta_class2(pres, p, 3)
        phi = [1] + [p**j - p ** (j - 1) for j in range(1, 4)]
        assert got.coefficients == tuple(phi)


def test_rep_zeta_dimension_parity():
    # every primitive character level must produce an even rank defect;
    # sample levels of the rank-9 presentation directly
    pres = _catalog("dusautoy_ec")
    R = algebra.commutator_matrix(pres)
    p = 3
    for N in (1, 2):
        for ell in repzeta._primitive_vectors(p, N, 3):
            t = smith_type(R.evaluate(ell), p, N)
            assert sum(N - m for m in t.type) % 2 == 0


def test_rep_zeta_dusautoy_matches_hybrid():
    pres = _catalog("dusautoy_ec")
    hybrid = ratfun.formula_catalog("dusautoy_rep")
    for p in (3, 5, 11):
        weights = repzeta.weight_values(hybrid, p)
        assert weights["b"] == point_count_projective(EC_PROJECTIVE, p)
        got = rep_zeta_class2(pres, p, 2)
        want = hybrid.expand(p, 2, weights)
        assert got.coefficients == want.coefficients


def test_unit_class_chart_predicts_its_walk():
    # the guard's size is the walk's length, and the classes cover every
    # primitive character exactly weight times: level 1 walks P^(d-1)(F_p),
    # each later level the lifts of those points
    for p, N, d in ((3, 1, 3), (3, 2, 2), (5, 2, 1), (3, 3, 2), (5, 1, 3)):
        size = (p**d - 1) // (p - 1) * p ** ((N - 1) * (d - 1))
        weight = p**N - p ** (N - 1)
        points = list(algebra.projective_points(p, d))
        if N > 1:
            points = list(repzeta._lifts(points, p, N))
        assert len(points) == len(set(points)) == size
        assert size * weight == sum(1 for _ in repzeta._primitive_vectors(p, N, d))


def _outcome(run):
    try:
        return run().coefficients
    except (InternalConsistencyError, UnsupportedError) as exc:
        return type(exc)


def _random_constants(rng, d, dprime, p):
    """Antisymmetric class-2 constants with entries in {0, 1, -1, 2, p}."""
    constants = {}
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            for k in range(1, dprime + 1):
                c = rng.choice((0, 0, 0, 1, -1, 2, p))
                if c:
                    constants[(i, j, k)], constants[(j, i, k)] = c, -c
    return constants


def test_rep_quotient_matches_full_walk_on_random_presentations():
    # one representative per unit class, weighted by phi(p^N), against every
    # primitive character counted once; a cap on the characters of levels
    # 1..J+2 keeps each full walk small
    rng = random.Random(90313)
    outcomes = []
    while len(outcomes) < 100:
        d, dprime = rng.randint(2, 5), rng.choice((1, 2, 2, 3, 3))
        p, J = rng.choice((3, 5)), rng.randint(1, 3)
        if sum(p ** (N * dprime) for N in range(1, J + 3)) > 30000:
            continue
        constants = _random_constants(rng, d, dprime, p)
        pres = algebra.Class2Presentation("random", d, dprime, constants)
        rng.randint(1, 3)  # keeps the seeded sequence of presentations unchanged
        fast = _outcome(lambda: rep_zeta_class2(pres, p, J))
        full = _outcome(lambda: repzeta._brute_orbit_counts(pres, p, J, DEFAULT_CEILING))
        assert fast == full, (constants, d, dprime, p, J)
        outcomes.append(full)
    assert sum(isinstance(o, tuple) for o in outcomes) >= 40
    assert InternalConsistencyError in outcomes


def test_lifts_list_each_unit_class_once():
    # reference: every primitive vector of level N, scaled so that its first
    # unit coordinate is 1.  Each class has phi(p^N) members, and the lifts of
    # the points of P^(d-1)(F_p), p^((N-1)(d-1)) over each point and reducing
    # to it mod p, list each class exactly once
    for p, N, d in ((3, 1, 3), (5, 1, 3), (3, 2, 2), (5, 2, 1), (3, 3, 2), (5, 2, 3),
                    (3, 2, 4), (7, 2, 1)):
        q = p**N
        classes = Counter()
        for ell in repzeta._primitive_vectors(p, N, d):
            inverse = pow(next(x for x in ell if x % p), -1, q)
            classes[tuple(x * inverse % q for x in ell)] += 1
        assert set(classes.values()) == {q - q // p}
        lifts = []
        for ell in algebra.projective_points(p, d):
            over = list(repzeta._lifts([ell], p, N))
            assert len(over) == p ** ((N - 1) * (d - 1))
            assert all(tuple(x % p for x in lift) == ell for lift in over)
            lifts += over
        assert len(lifts) == len(set(lifts)) and set(lifts) == set(classes)


def test_rep_lift_cut_matches_full_walk_on_random_presentations():
    # levels N >= 2 walk only the lifts of the level-1 classes where R(ell) is
    # singular mod p and credit the rest as type (0, ..., 0).  A level-1 class
    # with R(ell) = 0 mod p is a bad prime, so a walk that goes on stops at
    # level J: d^2 times the characters up to J caps the full walk's cost.
    rng = random.Random(77)
    outcomes, mixed, credited = [], 0, 0
    while len(outcomes) < 60:
        d, dprime = rng.choice((2, 4, 6)), rng.choice((2, 3))
        p, J = rng.choice((3, 5, 7)), rng.randint(2, 4)
        if d * d * sum(p ** (N * dprime) for N in range(1, J + 1)) > 120000:
            continue
        pres = algebra.Class2Presentation(
            "random", d, dprime, _random_constants(rng, d, dprime, p))
        fast = _outcome(lambda: rep_zeta_class2(pres, p, J))
        full = _outcome(lambda: repzeta._brute_orbit_counts(pres, p, J, DEFAULT_CEILING))
        assert fast == full, (pres.constants, d, dprime, p, J)
        R = commutator_matrix(pres)
        singular = {any(smith_type(R.evaluate(ell), p, 1).type)
                    for ell in algebra.projective_points(p, dprime)}
        mixed += singular == {True, False}
        # a credited class reaches the counts: exponent d N / 2 <= J at N = 2
        credited += singular == {True, False} and isinstance(full, tuple) and d <= J
        outcomes.append(full)
    assert mixed >= len(outcomes) // 3, mixed
    assert credited >= 2, credited
    assert InternalConsistencyError in outcomes


def test_rep_rank_bound_matches_full_walk_on_random_presentations():
    # level N >= 2 walks the lifts of a level-1 class of rank r mod p only if
    # r N <= 2J: each lift keeps r unit divisors, so e >= r N / 2.  Both sides
    # of the bound must occur for a singular class (0 < r < d): skipped at
    # N = J when r > 2, walked at N = 2 when r <= J.
    rng = random.Random(191)
    outcomes, skipped, walked = [], 0, 0
    while len(outcomes) < 40:
        d, dprime = rng.choice((4, 6)), rng.choice((2, 3))
        p, J = rng.choice((3, 5, 7)), rng.randint(2, 4)
        if d * d * sum(p ** (N * dprime) for N in range(1, J + 1)) > 120000:
            continue
        pres = algebra.Class2Presentation(
            "random", d, dprime, _random_constants(rng, d, dprime, p))
        fast = _outcome(lambda: rep_zeta_class2(pres, p, J))
        full = _outcome(lambda: repzeta._brute_orbit_counts(pres, p, J, DEFAULT_CEILING))
        assert fast == full, (pres.constants, d, dprime, p, J)
        outcomes.append(full)
        if isinstance(full, tuple):
            R = commutator_matrix(pres)
            ranks = {smith_type(R.evaluate(ell), p, 1).type.count(0)
                     for ell in algebra.projective_points(p, dprime)}
            skipped += any(2 < r < d for r in ranks)
            walked += any(r < d and r <= J for r in ranks)
    assert skipped >= 5 and walked >= 5, (skipped, walked)
    assert InternalConsistencyError in outcomes


def _without(constants, gone):
    """The constants that involve none of the generators in `gone`."""
    return {key: c for key, c in constants.items() if not gone & set(key[:2])}


def _det(A):
    """The determinant over Q, by elimination."""
    A = [[Fraction(x) for x in row] for row in A]
    det = Fraction(1)
    for c in range(len(A)):
        pivot = next((i for i in range(c, len(A)) if A[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            A[c], A[pivot], det = A[pivot], A[c], -det
        det *= A[c][c]
        for i in range(c + 1, len(A)):
            f = A[i][c] / A[c][c]
            A[i] = [a - f * b for a, b in zip(A[i], A[c])]
    return det


def test_pfaffians_give_the_generic_rank_and_square_to_their_minors():
    # rho is the largest rank over Q of R(ell) on the grid {0..d//2}^d': a
    # nonzero rho-Pfaffian has degree rho / 2 <= d // 2, so it cannot vanish
    # on the whole grid, and every larger minor vanishes identically.  Each
    # Pfaffian squares to its principal minor at every integer point.
    rng = random.Random(31337)
    degenerate = 0
    for trial in range(60):
        d, dprime = rng.randint(2, 6), rng.randint(1, 3)
        gone = set(rng.sample(range(1, d + 1), rng.choice((0, 0, 1, 2))))
        constants = _without(_random_constants(rng, d, dprime, 3), gone)
        R = commutator_matrix(algebra.Class2Presentation("random", d, dprime, constants))
        rho, pfaffians = repzeta._pfaffians(R)
        grid = product(range(d // 2 + 1), repeat=dprime)
        assert rho == max(rank(R.evaluate(ell), d) for ell in grid), (trial, constants)
        assert pfaffians or not rho
        for _ in range(3):
            ell = [rng.randint(-5, 5) for _ in range(dprime)]
            M = R.evaluate(ell)
            for S, f in pfaffians.items():
                assert len(S) == rho
                assert f.evaluate(ell) ** 2 == _det([[M[i][j] for j in S] for i in S]), (trial, S)
        degenerate += rho < 2 * (d // 2)
    assert degenerate >= 15, degenerate


def test_generic_rank_credit_matches_full_walk_below_full_rank(monkeypatch):
    # every relation of one generator dropped (two when d is odd) leaves a
    # generic rank rho < 2 (d // 2).  A class where some rho-Pfaffian is a
    # unit mod p takes no Smith form: it is credited at level 1, and its lifts
    # at every level N with rho N <= 2 J.  Both credits must fire, the Smith
    # forms of level 1 must be exactly the other classes, and the counts must
    # equal the oracle's, errors included.
    calls = []
    real = repzeta.smith_type
    monkeypatch.setattr(repzeta, "smith_type", lambda A, p, N: calls.append(N) or real(A, p, N))
    rng = random.Random(2010)
    outcomes, at_level_1, at_lifts = [], 0, 0
    while len(outcomes) < 40:
        d, dprime = rng.choice((4, 5, 6)), rng.choice((2, 3))
        p, J = rng.choice((3, 5, 7)), rng.randint(1, 4)
        classes = (p**dprime - 1) // (p - 1)
        if (not repzeta._pfaffians_pay(d, classes)
                or d * d * sum(p ** (N * dprime) for N in range(1, J + 1)) > 60000):
            continue
        gone = set(rng.sample(range(1, d + 1), 1 + d % 2))
        pres = algebra.Class2Presentation(
            "random", d, dprime, _without(_random_constants(rng, d, dprime, p), gone))
        rho, pfaffians = repzeta._pfaffians(commutator_matrix(pres))
        assert rho < 2 * (d // 2)
        calls.clear()
        fast = _outcome(lambda: rep_zeta_class2(pres, p, J))
        smith_forms = calls.count(1)
        full = _outcome(lambda: repzeta._brute_orbit_counts(pres, p, J, DEFAULT_CEILING))
        assert fast == full, (pres.constants, d, dprime, p, J)
        outcomes.append(full)
        if isinstance(full, tuple):
            credited = sum(any(f.evaluate(ell) % p for f in pfaffians.values())
                           for ell in algebra.projective_points(p, dprime))
            assert smith_forms == classes - credited
            at_level_1 += credited > 0
            at_lifts += credited > 0 and rho <= J  # level 2 reaches p^J
    assert at_level_1 >= 10 and at_lifts >= 5, (at_level_1, at_lifts)
    assert InternalConsistencyError in outcomes


def test_smith_forms_walked_by_the_quotient_and_the_oracle(monkeypatch):
    # dusautoy_ec at p = 3: R(ell) has rank 4 mod 3 on the b(3) = 4 points of
    # the elliptic curve among the 13 level-1 classes and is nonsingular on the
    # rest, where the Pfaffian is a unit and no Smith form is taken.  A level-N
    # lift of a rank-4 class has e >= 4 N / 2, so at J = 2 no level-2 lift is
    # walked; at J = 4 level 2 walks the 4 * 3^2 lifts and levels 3 and 4
    # none.  The oracle walks all 3^6 - 3^3 primitive characters.
    calls = []
    real = repzeta.smith_type
    monkeypatch.setattr(repzeta, "smith_type", lambda A, p, N: calls.append(N) or real(A, p, N))
    pres = _catalog("dusautoy_ec")
    rep_zeta_class2(pres, 3, 2)
    assert (calls.count(1), calls.count(2)) == (4, 0)
    calls.clear()
    rep_zeta_class2(pres, 3, 4)
    assert [calls.count(N) for N in range(1, 5)] == [4, 4 * 9, 0, 0]
    calls.clear()
    repzeta._brute_orbit_counts(pres, 3, 2, DEFAULT_CEILING)
    assert (calls.count(1), calls.count(2)) == (26, 3**6 - 3**3)


def test_point_count_examples():
    assert point_count_affine(EC_AFFINE, 7) == 7
    assert point_count_affine(EC_AFFINE, 11) == 11
    assert point_count_affine(EC_AFFINE, 5) == 7
    assert point_count_projective(EC_PROJECTIVE, 5) == 8
    # projective = affine + the single point at infinity, for several primes
    for p in (3, 5, 7, 11, 13):
        assert point_count_projective(EC_PROJECTIVE, p) == point_count_affine(EC_AFFINE, p) + 1


def test_point_count_projective_matches_its_definition():
    # the nonzero zeros in F_p^3, one line through the origin per point; both
    # curves vanish at (1 : 0 : 0), and x*y*z at every (x : 1 : 0)
    for expr in ("x*y*z", "x^2*y - z^3", "y^2*z - x^3 + x*z^2"):
        curve = ProjectivePlaneCurve(igusa.parse_polynomial(expr))
        f = curve.polynomial
        for p in (2, 3, 5, 7):
            zeros = sum(1 for v in product(range(p), repeat=3) if any(v) and f.evaluate(v) % p == 0)
            assert point_count_projective(curve, p) == zeros // (p - 1)


def test_point_count_congruence_rule():
    # p = 3 mod 4 forces the affine count to be exactly p
    for p in (3, 7, 11, 19, 23):
        assert point_count_affine(EC_AFFINE, p) == p


def test_point_count_guard_and_validation():
    with pytest.raises(ResourceGuardError):
        point_count_affine(EC_AFFINE, 10007)
    with pytest.raises(MalformedInputError):
        ProjectivePlaneCurve(igusa.parse_polynomial("y^2*z - x^3 + x"))
    with pytest.raises(MalformedInputError):
        point_count_affine(igusa.parse_polynomial("x + y + z"), 5)


def test_rep_zeta_rejects_even_prime_and_degenerate_matrix():
    pres = _catalog("heisenberg")
    with pytest.raises(UnsupportedError):
        rep_zeta_class2(pres, 2, 2)
    zero = algebra.Class2Presentation("zero", 2, 1, {})
    with pytest.raises(UnsupportedError):
        rep_zeta_class2(zero, 3, 2)


def test_rep_zeta_bad_prime_is_rejected():
    # [e1, e2] = 3 f1: every level-1 character at p = 3 collapses to dimension
    # one, silently re-counting the trivial twist-isoclass; must error out
    pres = algebra.Class2Presentation("thick", 2, 1, {(1, 2, 1): 3, (2, 1, 1): -3})
    with pytest.raises(InternalConsistencyError):
        rep_zeta_class2(pres, 3, 2)
    with pytest.raises(InternalConsistencyError):
        repzeta._brute_orbit_counts(pres, 3, 2, DEFAULT_CEILING)
    # at any prime not dividing the constants the same presentation is fine
    assert rep_zeta_class2(pres, 5, 2).coefficients == (1, 4, 20)


def test_relations_that_miss_the_centre_are_refused_by_both_walks():
    # f2 in no relation, or [e1, e2] = f1 + f2: R(ell) = 0 for ell = (0, 1)
    # or (1, -1), at every prime.  That is outside the recipe, not a bad prime
    for constants in ({(1, 2, 1): 1, (2, 1, 1): -1},
                      {(1, 2, 1): 1, (1, 2, 2): 1, (2, 1, 1): -1, (2, 1, 2): -1}):
        pres = algebra.Class2Presentation("short", 2, 2, constants)
        for p in (3, 5):
            with pytest.raises(UnsupportedError, match="do not span the centre"):
                rep_zeta_class2(pres, p, 2)
            with pytest.raises(UnsupportedError, match="do not span the centre"):
                repzeta._brute_orbit_counts(pres, p, 2, DEFAULT_CEILING)


def test_rep_zeta_guard(monkeypatch):
    # the guard predicts level 1's walk before it, then every later level's
    # together: at p = 101, J = 2 the 10,303 level-1 classes and no level-2
    # lift (e >= 4 > 2 on the curve points), so a lower ceiling is refused
    # before any Smith form
    calls = []
    real = repzeta.smith_type
    monkeypatch.setattr(repzeta, "smith_type", lambda A, p, N: calls.append(N) or real(A, p, N))
    pres = _catalog("dusautoy_ec")
    with pytest.raises(ResourceGuardError) as info:
        rep_zeta_class2(pres, 101, 2, ceiling=10302)
    assert info.value.predicted == 10303 and not calls
    # at p = 3, J = 4: 13 level-1 classes, a Smith form for the 4 curve
    # points, then the 4 * 9 level-2 lifts of those; level 3 walks none (4 * 3 > 8)
    with pytest.raises(ResourceGuardError) as info:
        rep_zeta_class2(pres, 3, 4, ceiling=48)
    assert info.value.predicted == 13 + 36 and calls == [1] * 4
    calls.clear()
    assert rep_zeta_class2(pres, 3, 4, ceiling=49).coefficients == (1, 0, 8, 18, 72)
    calls.clear()
    # the oracle predicts each level's full chart: 3^3, then 3^6
    with pytest.raises(ResourceGuardError) as info:
        repzeta._brute_orbit_counts(pres, 3, 2, 27 + 728)
    assert info.value.predicted == 27 + 729 and calls.count(2) == 0


def test_rep_zeta_refuses_the_whole_walk_after_level_1(monkeypatch):
    # free_nilpotent_2_d(4) at p = 5, J = 3: 806 of the 3,906 level-1 classes
    # have rank r = 2, where the Pfaffian vanishes mod 5 and a Smith form is
    # taken, so levels 2 and 3 both walk their lifts.  Level 2 alone
    # (806 * 5^5) fits the default ceiling, level 3 (806 * 5^10) does not, and
    # the refusal comes before any Smith form of level 2
    calls = []
    real = repzeta.smith_type
    monkeypatch.setattr(repzeta, "smith_type", lambda A, p, N: calls.append(N) or real(A, p, N))
    pres = _catalog("free_nilpotent_2_d(4)")
    with pytest.raises(ResourceGuardError) as info:
        rep_zeta_class2(pres, 5, 3)
    assert info.value.predicted == 3906 + 806 * 5**5 + 806 * 5**10
    assert calls == [1] * 806


def test_weight_values_requires_curve():
    hybrid = ratfun.PointCountHybrid(
        [("1", None, ratfun.zeta_zn(1)), ("c", 2, ratfun.zeta_zn(1))]
    )
    with pytest.raises(MalformedInputError):
        repzeta.weight_values(hybrid, 5)
    with pytest.raises(MalformedInputError):
        hybrid.expand(5, 2, {})


def test_rep_zeta_dusautoy_deeper_truncation():
    # deeper levels at small primes, against dusautoy_rep expanded with its
    # b(p) weights; at J = 4 the level-2 lifts of the curve points are walked
    pres = _catalog("dusautoy_ec")
    hybrid = ratfun.formula_catalog("dusautoy_rep")
    for p, J, expected in ((3, 3, None), (3, 4, (1, 0, 8, 18, 72)), (5, 4, (1, 0, 32, 92, 800))):
        weights = repzeta.weight_values(hybrid, p)
        got = rep_zeta_class2(pres, p, J).coefficients
        assert got == hybrid.expand(p, J, weights).coefficients, p
        assert expected is None or got == expected
        # c_{p^3} = (p^3 - 1) - b(p)(p - 1)
        assert got[3] == (p**3 - 1) - weights["b"] * (p - 1)
