import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from ringzeta import cones, ratfun
from ringzeta.cones import DiophantineConeSystem, brute_series, expand_form, extreme_rays
from ringzeta.errors import (
    InternalConsistencyError,
    MalformedInputError,
    PoleError,
    ResourceGuardError,
)


STANLEY = DiophantineConeSystem([[1, 1, -1, -1]])
EMPTY2 = DiophantineConeSystem.empty(2)
DIAGONAL = DiophantineConeSystem([[1, -1]])
HEISENBERG = DiophantineConeSystem([[-1, -1, 1]], kinds=["le"])
ONLY_ZERO = DiophantineConeSystem([[1, 1]])
DOUBLING = DiophantineConeSystem([[2, -1]])
TWO_ROWS = DiophantineConeSystem([[1, 1, -1, -1], [1, -1, 0, 0]])

FIXTURES = [STANLEY, EMPTY2, DIAGONAL, HEISENBERG, DOUBLING, TWO_ROWS,
            DiophantineConeSystem.empty(3), DiophantineConeSystem.empty(4)]


def test_brute_series_examples():
    s = brute_series(STANLEY, 2)
    assert s.terms[(1, 0, 1, 0)] == 1
    assert s.terms[(1, 1, 1, 1)] == 1
    assert (1, 0, 0, 0) not in s.terms
    s = brute_series(EMPTY2, 1)
    assert set(s.terms) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert brute_series(STANLEY, 0, strict=True).terms == {}


def test_brute_series_guard():
    with pytest.raises(ResourceGuardError):
        brute_series(DiophantineConeSystem.empty(13), 2, ceiling=10**4)


def test_extreme_rays_examples():
    ex = extreme_rays(STANLEY)
    assert ex.rays == ((0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0))
    assert ex.dim == 3
    ex = extreme_rays(DiophantineConeSystem.empty(3))
    assert ex.rays == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert ex.dim == 3
    ex = extreme_rays(ONLY_ZERO)
    assert ex.rays == () and ex.dim == 0


def test_extreme_ray_properties():
    for sys_ in FIXTURES:
        ex = extreme_rays(sys_)
        for ray in ex.rays:
            assert all(x >= 0 for x in ray) and any(ray)
            from math import gcd
            g = 0
            for x in ray:
                g = gcd(g, x)
            assert g == 1
            for row in sys_.rows:
                assert sum(c * x for c, x in zip(row, ray)) == 0
            # support condition: the restricted system has a 1-dim kernel
            support = [j for j, x in enumerate(ray) if x]
            sub = [[row[j] for j in support] for row in sys_.rows] or [[0] * len(support)]
            from ringzeta.exactlinalg import nullspace
            assert len(nullspace(sub, len(support))) == 1


def test_rational_form_stanley_identity():
    form = cones.rational_form(STANLEY)
    assert form.numerator == {(0, 0, 0, 0): 1, (1, 1, 1, 1): -1}
    assert set(form.denominator_rays) == set(extreme_rays(STANLEY).rays)


def test_rational_form_simple_cases():
    form = cones.rational_form(EMPTY2)
    assert form.numerator == {(0, 0): 1}
    assert set(form.denominator_rays) == {(1, 0), (0, 1)}
    form = cones.rational_form(DIAGONAL)
    assert form.numerator == {(0, 0): 1}
    assert form.denominator_rays == ((1, 1),)
    form = cones.rational_form(ONLY_ZERO)
    assert form.numerator == {(0, 0): 1} and form.denominator_rays == ()


def test_master_property_expansion_equals_enumeration():
    for sys_ in FIXTURES:
        form = cones.rational_form(sys_)
        for B in (3, 6):
            got = expand_form(form, B)
            if sys_.slack_columns:
                got = got.marginalize(sys_.slack_columns)
            assert got == brute_series(sys_, B), sys_
    # half-open orientation must not depend on the generic-point draw
    for seed in (1, 2, 3):
        form = cones.rational_form(STANLEY, _seed=seed)
        assert expand_form(form, 4) == brute_series(STANLEY, 4)


def test_reciprocity_examples():
    assert cones.reciprocity_check(STANLEY, 6).status == "pass"
    for m in range(1, 5):
        assert cones.reciprocity_check(DiophantineConeSystem.empty(m), 5).status == "pass"
    assert cones.reciprocity_check(ONLY_ZERO, 4).status == "inconclusive"
    assert cones.reciprocity_check(HEISENBERG, 6).status == "pass"
    assert cones.reciprocity_check(DOUBLING, 8).status == "pass"


def test_substitution_heisenberg_factor():
    form = cones.rational_form(HEISENBERG)
    got = cones.substitute(form, [(0, 1), (1, 1), (2, 1), None])
    assert got == ratfun.formula_catalog("heisenberg_subring")


def test_substitution_identity_and_zeta_p():
    form = cones.rational_form(DIAGONAL)
    assert cones.substitute(form, [(1, 0), (0, 1)]) == ratfun.zp_factor(1, 1)
    form1 = cones.rational_form(DiophantineConeSystem.empty(1))
    assert cones.substitute(form1, [(0, 1)]) == ratfun.zp_factor(0, 1)


def test_substitution_pole_error():
    form = cones.rational_form(EMPTY2)
    with pytest.raises(PoleError) as err:
        cones.substitute(form, [None, (0, 1)])
    assert err.value.ray in ((1, 0), (0, 1))


def test_substitution_commutes_with_expansion():
    # expand(substitute(form)) at X=p equals collecting the brute series
    p, K = 3, 6
    assignment = [(0, 1), (1, 1), (2, 1), None]
    form = cones.rational_form(HEISENBERG)
    f = cones.substitute(form, assignment)
    series = cones.brute_series(HEISENBERG, K)
    want = [Fraction(0)] * (K + 1)
    for e, c in series.terms.items():
        ypow = e[0] + e[1] + e[2]
        xpow = e[1] + 2 * e[2]
        if ypow <= K:
            want[ypow] += c * p**xpow
    assert ratfun.expand_series(f, p, K) == want


def test_substitution_of_series():
    series = cones.brute_series(DIAGONAL, 3)
    f = cones.substitute(series, [(1, 0), (0, 1)])
    # sum of (XY)^k, k <= 3
    assert ratfun.expand_series(f, 2, 3) == [Fraction(x) for x in (1, 2, 4, 8)]


def test_minform_examples():
    s = cones.minform_series([[(1,)]], r=1, s=1, t=1, B=4)
    assert s.terms == {(n, n): 1 for n in range(5)}
    s = cones.minform_series([[(1, 0), (0, 1)]], r=2, s=1, t=2, B=4)
    assert s.terms[(2, 3, 2)] == 1
    assert s.terms[(3, 1, 1)] == 1


def test_minform_reciprocity_via_slack_encoding():
    # Y-exponent k = 2n encoded as the equality 2n - k = 0
    B = 4
    nonstrict = cones.minform_series([[(2,)]], r=1, s=1, t=1, B=B)
    strict = cones.minform_series([[(2,)]], r=1, s=1, t=1, B=B, strict=True)
    cone_like = {e: c for e, c in brute_series(DOUBLING, 2 * B).terms.items() if e[0] <= B}
    assert cone_like == {e: c for e, c in nonstrict.terms.items()}
    # Z^o(1/X, 1/Y) = (-1)^1 Z(X, Y): check via the validated cone reciprocity
    assert cones.reciprocity_check(DOUBLING, 2 * B).status == "pass"
    assert {(-e[0], -e[1]) for e in strict.terms} == {
        (-e[0], -e[1]) for e in brute_series(DOUBLING, 2 * B, strict=True).terms
        if e[0] <= B
    }


def test_system_parsing_and_json(tmp_path):
    import json

    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"phi": [[-1, -1, 1]], "kinds": ["le"], "name": "t"}))
    sys_ = DiophantineConeSystem.from_json(path)
    assert sys_.m == 4 and sys_.slack_columns == [3]
    assert sys_.rows == [[-1, -1, 1, 1]]
    with pytest.raises(MalformedInputError):
        DiophantineConeSystem([[1, 2], [1, 2, 3]])
    with pytest.raises(MalformedInputError):
        DiophantineConeSystem([[1, 2]], kinds=["ge"])


def test_master_property_on_harder_cones():
    # 9 extreme rays in a 5-dimensional cone (products of index pairs), and a
    # skew system whose simplicial pieces have non-unimodular parallelepipeds
    hard = DiophantineConeSystem([[1, 1, 1, -1, -1, -1]])
    ex = extreme_rays(hard)
    assert len(ex.rays) == 9 and ex.dim == 5
    form = cones.rational_form(hard)
    for B in (2, 3):
        assert expand_form(form, B) == brute_series(hard, B)
    assert cones.reciprocity_check(hard, 4).status == "pass"

    skew = DiophantineConeSystem([[1, 2, -2, -1]])
    form = cones.rational_form(skew)
    assert form.numerator == {(0, 0, 0, 0): 1, (2, 1, 1, 2): -1}
    for B in (4, 7):
        assert expand_form(form, B) == brute_series(skew, B)
    assert cones.reciprocity_check(skew, 8).status == "pass"


def test_coordinate_face_that_is_not_a_facet():
    # Stanley's cone times the cone of x5 + x6 = x7: 5-dimensional, and its
    # coordinate face x7 = 0 (Stanley's cone alone) has dimension 3
    face = DiophantineConeSystem([[1, 1, -1, -1, 0, 0, 0], [0, 0, 0, 0, 1, 1, -1]])
    ex = extreme_rays(face)
    assert len(ex.rays) == 6 and ex.dim == 5
    form = cones.rational_form(face)
    assert form.numerator == {(0,) * 7: 1, (1, 1, 1, 1, 0, 0, 0): -1}
    assert form.denominator_rays == ex.rays
    assert expand_form(form, 3) == brute_series(face, 3)
    assert cones.reciprocity_check(face, 3).status == "pass"


def test_rational_form_matches_enumeration_on_random_cones():
    """Seeded oracle: on random systems the rational form expands to the
    enumeration, and reciprocity never fails."""
    rng = random.Random(20261018)
    statuses = Counter()
    for _ in range(200):
        m = rng.randint(1, 6)
        phi = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(rng.randint(1, 2))]
        sys_ = DiophantineConeSystem(phi, [rng.choice(("eq", "le")) for _ in phi])
        got = expand_form(cones.rational_form(sys_), 3)
        if sys_.slack_columns:
            got = got.marginalize(sys_.slack_columns)
        assert got == brute_series(sys_, 3), (phi, sys_.kinds)
        statuses[cones.reciprocity_check(sys_, 3).status] += 1
    assert statuses["fail"] == 0 and statuses["pass"] >= 50, statuses


def test_broken_invariants_are_internal_errors():
    den, solve = cones._ray_solver([(1, 0)])
    assert solve([3, 0]) == [3 * den]
    with pytest.raises(InternalConsistencyError):
        solve([0, 1])
    with pytest.raises(InternalConsistencyError):
        cones._ray_solver([(1, 2), (2, 4)])
    with pytest.raises(InternalConsistencyError):
        expand_form(cones.MultivariateRationalForm(1, {(-1,): 1}, (), 0), 2)


def test_ceiling_bounds_each_walk():
    with pytest.raises(ResourceGuardError):
        brute_series(STANLEY, 6, ceiling=5)
    with pytest.raises(ResourceGuardError):
        expand_form(cones.rational_form(STANLEY), 6, ceiling=5)
    # [[1, 2, -2, -1]]: the ray search tries 10 supports, the largest walk
    skew = DiophantineConeSystem([[1, 2, -2, -1]])
    with pytest.raises(ResourceGuardError):
        cones.rational_form(skew, ceiling=1)
    assert cones.rational_form(skew, ceiling=10)
    with pytest.raises(ResourceGuardError) as err:
        cones.rational_form(skew, ceiling=9)
    assert err.value.predicted == 10
    # 16 rays: 36 supports, then 39 faces recursed into, then 10,240 terms
    with pytest.raises(ResourceGuardError, match="^the triangulation visited more than 38"):
        cones.rational_form(DiophantineConeSystem([[1, 1, 1, 1, -1, -1, -1, -1]]), ceiling=38)


def test_a_charge_as_the_walk_goes_is_not_a_prediction():
    # the first node's 61 values are not the walk's total
    with pytest.raises(ResourceGuardError, match="^the enumeration visited more than 1 values"
                       ) as err:
        brute_series(DiophantineConeSystem.empty(12), 60, ceiling=1)
    assert err.value.predicted is None


def test_the_walk_prunes_one_signed_and_partition_rows():
    # only the origin: each of the 7 free columns takes the one value 0, and
    # the kept origin is charged its 11 values
    ones = DiophantineConeSystem([[1] * 8])
    assert brute_series(ones, 10, ceiling=18).terms == {(0,) * 8: 1}
    with pytest.raises(ResourceGuardError):
        brute_series(ones, 10, ceiling=17)
    # x7 = x1 + ... + x6: the points of [0, 12]^6 with sum at most 12
    partition = brute_series(DiophantineConeSystem([[1] * 6 + [-1]]), 12)
    assert len(partition.terms) == comb(18, 6)
    assert all(sum(e[:6]) == e[6] for e in partition.terms)


def test_the_expansion_predicts_a_huge_box_before_any_bucket():
    # one pass per ray and one to read out, over every total degree
    stanley = cones.rational_form(STANLEY)
    with pytest.raises(ResourceGuardError, match="^the expansion needs") as err:
        expand_form(stanley, 10**12, ceiling=10)
    assert err.value.predicted == (len(stanley.denominator_rays) + 1) * (4 * 10**12 + 1)
    # no rays: the one pass that reads the 2 * 10^12 + 1 degree buckets out
    with pytest.raises(ResourceGuardError, match="^the expansion needs") as err:
        expand_form(cones.rational_form(ONLY_ZERO), 10**12, ceiling=10)
    assert err.value.predicted == 2 * 10**12 + 1


def test_minform_box_is_refused_at_the_default_ceiling():
    with pytest.raises(ResourceGuardError, match="^the box needs 100000001 points") as err:
        cones.minform_series([[(1,)]], r=1, s=1, t=1, B=10**8)
    assert err.value.predicted == 10**8 + 1


def test_numerator_terms_are_charged_before_any_piece(monkeypatch):
    # with the ray search unbounded, [[1, 2, -2, -1]] has 6 numerator terms:
    # pieces of 1 and 2 points, times 2 for the one ray each misses
    rays, walked = cones.extreme_rays, []
    monkeypatch.setattr(cones, "extreme_rays", lambda sys, ceiling: rays(sys))
    monkeypatch.setattr(cones, "_parallelepiped_points",
                        lambda *args: walked.append(args) or {})
    skew = DiophantineConeSystem([[1, 2, -2, -1]])
    with pytest.raises(ResourceGuardError) as err:
        cones.rational_form(skew, ceiling=5)
    assert err.value.predicted == 6 and not walked
    cones.rational_form(skew, ceiling=6)
    assert len(walked) == 2


def test_free_column_walk_matches_a_naive_filter_on_random_systems():
    """Seeded oracle: on random eq/le systems the walk over the free columns
    finds exactly the points of [lo, B]^m that solve every row, and the
    rational form expands to the same series."""
    rng = random.Random(20261019)
    nonzero = 0
    for _ in range(150):
        m0 = rng.randint(1, 5)
        kinds = [rng.choice(("eq", "le")) for _ in range(rng.choice((1, 1, 2, 3)))]
        while m0 + kinds.count("le") > 5:
            kinds[kinds.index("le")] = "eq"
        shape = rng.choice(("mixed", "one-signed", "partition"))
        phi = [[rng.randint(-3, 3) for _ in range(m0)] for _ in kinds]
        if shape == "one-signed":
            phi = [[abs(x) for x in row] for row in phi]
        elif shape == "partition":
            phi = [[1] * (m0 - 1) + [-1] for _ in kinds]
        sys_ = DiophantineConeSystem(phi, kinds)
        B = rng.randint(0, 4)
        for strict in (False, True):
            lo = int(strict)
            naive = Counter(
                alpha[:m0] + (0,) * (sys_.m - m0)
                for alpha in product(range(lo, B + 1), repeat=sys_.m)
                if all(sum(c * x for c, x in zip(row, alpha)) == 0 for row in sys_.rows))
            assert brute_series(sys_, B, strict=strict).terms == dict(naive), (phi, kinds, B)
            nonzero += len(naive) > 1 - lo  # more than the origin
        got = expand_form(cones.rational_form(sys_), B)
        if sys_.slack_columns:
            got = got.marginalize(sys_.slack_columns)
        assert got == brute_series(sys_, B), (phi, kinds, B)
    assert nonzero >= 80, nonzero
