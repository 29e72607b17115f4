import random
from itertools import product

import pytest

from ringzeta import algebra, igusa, ratfun, repzeta
from ringzeta.algebra import commutator_matrix
from ringzeta.errors import (
    InternalConsistencyError,
    MalformedInputError,
    ResourceGuardError,
    StabilizationError,
    UnsupportedError,
)
from ringzeta.repzeta import (
    ProjectivePlaneCurve,
    point_count_affine,
    point_count_projective,
    rep_zeta_class2,
    smith_type,
)

EC_AFFINE = igusa.parse_polynomial("y^2 - x^3 + x")
EC_PROJECTIVE = ProjectivePlaneCurve(igusa.parse_polynomial("y^2*z - x^3 + x*z^2"))


def test_smith_type_examples():
    assert smith_type([[0, 1], [-1, 0]], 3, 2).type == (0, 0)
    assert smith_type([[0, 3], [-3, 0]], 3, 3).type == (1, 1)
    assert smith_type([[0, 0], [0, 0]], 5, 2).type == (2, 2)
    assert smith_type([[2, 0], [0, 8]], 2, 2).type == (1, 2)  # capped at N


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
    pres = algebra.catalog_presentation("heisenberg")
    for p in (3, 5, 7):
        got = rep_zeta_class2(pres, p, 3)
        phi = [1] + [p**j - p ** (j - 1) for j in range(1, 4)]
        assert got.coefficients == tuple(phi)


def test_rep_zeta_dimension_parity():
    # every primitive character level must produce an even rank defect;
    # sample levels of the rank-9 presentation directly
    pres = algebra.catalog_presentation("dusautoy_ec")
    R = algebra.commutator_matrix(pres)
    p = 3
    for N in (1, 2):
        for ell in repzeta._primitive_vectors(p, N, 3):
            t = smith_type(R.evaluate(ell), p, N)
            assert sum(N - m for m in t.type) % 2 == 0


def test_rep_zeta_dusautoy_matches_hybrid():
    pres = algebra.catalog_presentation("dusautoy_ec")
    hybrid = ratfun.formula_catalog("dusautoy_rep")
    for p in (3, 5, 11):
        weights = repzeta.weight_values(hybrid, p)
        assert weights["b"] == point_count_projective(EC_PROJECTIVE, p)
        got = rep_zeta_class2(pres, p, 2)
        want = hybrid.expand(p, 2, weights)
        assert got.coefficients == want.coefficients


def test_unit_class_chart_predicts_its_walk():
    # the guard's size is the walk's length, and the classes cover every
    # primitive character exactly weight times
    for p, N, d in ((3, 1, 3), (3, 2, 2), (5, 2, 1), (3, 3, 2), (5, 1, 3)):
        size, walk, weight = repzeta._unit_classes(p, N, d)
        points = list(walk())
        assert len(points) == len(set(points)) == size
        assert size * weight == sum(1 for _ in repzeta._primitive_vectors(p, N, d))


def _outcome(run):
    try:
        return run().coefficients
    except (InternalConsistencyError, StabilizationError, UnsupportedError) as exc:
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
    # primitive character counted once; the full walk's cost caps each case
    rng = random.Random(90313)
    margin = repzeta.STABILIZATION_MARGIN
    outcomes = []
    while len(outcomes) < 100:
        d, dprime = rng.randint(2, 5), rng.choice((1, 2, 2, 3, 3))
        p, J = rng.choice((3, 5)), rng.randint(1, 3)
        if sum(p ** (N * dprime) for N in range(1, J + margin + 1)) > 30000:
            continue
        constants = _random_constants(rng, d, dprime, p)
        pres = algebra.Class2Presentation("random", d, dprime, constants)
        rng.randint(1, 3)  # keeps the seeded sequence of presentations unchanged
        fast = _outcome(lambda: rep_zeta_class2(pres, p, J))
        full = _outcome(lambda: repzeta._orbit_counts(
            pres, p, J, repzeta.DEFAULT_GUARD, margin, repzeta._all_characters))
        assert fast == full, (constants, d, dprime, p, J)
        outcomes.append(full)
    assert sum(isinstance(o, tuple) for o in outcomes) >= 40
    assert InternalConsistencyError in outcomes


def test_unit_floor_certificate_matches_every_nonzero_vector():
    # the certificate walks P^{d'-1}(F_p); a direct check looks at every
    # nonzero vector of F_p^{d'}
    rng = random.Random(40127)
    verdicts = []
    while len(verdicts) < 150:
        d, dprime, p = rng.randint(2, 5), rng.randint(1, 3), rng.choice((3, 5, 7))
        constants = _random_constants(rng, d, dprime, p)
        if not constants:
            continue
        R = commutator_matrix(algebra.Class2Presentation("random", d, dprime, constants))
        direct = all(
            any(x % p for row in R.evaluate(ell) for x in row)
            for ell in product(range(p), repeat=dprime)
            if any(ell)
        )
        _, walk, _ = repzeta._unit_classes(p, 1, dprime)
        assert repzeta._unit_floor(R, p, walk()) == direct, (constants, d, dprime, p)
        verdicts.append(direct)
    assert 30 <= sum(verdicts) <= 120, sum(verdicts)


def test_point_count_examples():
    assert point_count_affine(EC_AFFINE, 7) == 7
    assert point_count_affine(EC_AFFINE, 11) == 11
    assert point_count_affine(EC_AFFINE, 5) == 7
    assert point_count_projective(EC_PROJECTIVE, 5) == 8
    # projective = affine + the single point at infinity, for several primes
    for p in (3, 5, 7, 11, 13):
        assert point_count_projective(EC_PROJECTIVE, p) == point_count_affine(EC_AFFINE, p) + 1


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


def test_theoremD_checks():
    assert repzeta.theoremD_check(ratfun.formula_catalog("heisenberg_rep"), 1).matches_expected
    assert repzeta.theoremD_check(ratfun.formula_catalog("dusautoy_rep"), 3).matches_expected
    assert not repzeta.theoremD_check(ratfun.zeta_zn(2), 1).matches_expected


def test_rep_zeta_rejects_even_prime_and_degenerate_matrix():
    pres = algebra.catalog_presentation("heisenberg")
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
    # at any prime not dividing the constants the same presentation is fine
    assert rep_zeta_class2(pres, 5, 2).coefficients == (1, 4, 20)


def test_rep_zeta_guard():
    pres = algebra.catalog_presentation("dusautoy_ec")
    with pytest.raises(ResourceGuardError):
        rep_zeta_class2(pres, 101, 2, guard=10**6)


def test_weight_values_requires_curve():
    hybrid = ratfun.PointCountHybrid(
        [("1", None, ratfun.zeta_zn(1)), ("c", 2, ratfun.zeta_zn(1))]
    )
    with pytest.raises(MalformedInputError):
        repzeta.weight_values(hybrid, 5)
    with pytest.raises(MalformedInputError):
        hybrid.expand(5, 2, {})


def test_rep_zeta_dusautoy_deeper_truncation():
    # one level deeper at the smallest prime: c_{p^3} = (p^3 - 1) - b(p)(p - 1)
    pres = algebra.catalog_presentation("dusautoy_ec")
    hybrid = ratfun.formula_catalog("dusautoy_rep")
    weights = repzeta.weight_values(hybrid, 3)
    got = rep_zeta_class2(pres, 3, 3)
    assert got.coefficients == hybrid.expand(3, 3, weights).coefficients
    assert got.coefficients[3] == (27 - 1) - weights["b"] * 2
