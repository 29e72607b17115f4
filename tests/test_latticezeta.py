import math
import random
import sys
from collections import Counter
from itertools import permutations, product

import pytest

from ringzeta import algebra, latticezeta
from ringzeta.errors import ResourceGuardError
from ringzeta.latticezeta import contains


def lat(rows):
    return tuple(tuple(r) for r in rows)


def index(rows):
    return math.prod(row[i] for i, row in enumerate(rows))


def test_enumeration_count_matches_generating_function():
    for n in range(1, 6):
        for p in (2, 3):
            for k in range(4):
                lattices = list(latticezeta.enumerate_sublattices(n, p, k))
                assert len(lattices) == latticezeta.sublattice_count_prediction(n, p, k)
                assert len(set(lattices)) == len(lattices)


def test_enumeration_small_examples():
    got = set(latticezeta.enumerate_sublattices(2, 2, 1))
    assert got == {((2, 0), (0, 1)), ((1, 0), (0, 2)), ((1, 1), (0, 2))}
    assert len(list(latticezeta.enumerate_sublattices(2, 2, 2))) == 7
    only = list(latticezeta.enumerate_sublattices(4, 3, 0))
    assert len(only) == 1 and index(only[0]) == 1


def test_enumeration_places_1200_rows_without_recursion():
    only = list(latticezeta.enumerate_sublattices(1200, 2, 0))
    assert len(only) == 1 and index(only[0]) == 1


def _frames():
    """The number of frames on the caller's stack."""
    frame, depth = sys._getframe(1), 0
    while frame:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_lattice_walks_run_deeper_than_the_recursion_limit():
    # the limit is lowered to 50 frames above this one, and each walk places
    # more rows than that: a walk that recursed once per row would end in a
    # RecursionError.  The ring is e_(2i-1) e_(2i) = f = -e_(2i) e_(2i-1),
    # d = 100, d' = 1: class 2 but not free, so its lattices M are walked.
    d = 100
    constants = {}
    for i in range(1, d, 2):
        constants[i, i + 1, d + 1], constants[i + 1, i, d + 1] = 1, -1
    alg = algebra.StructureConstantAlgebra("wide", d + 1, constants, frozenset({"antisymmetric"}))
    assert not latticezeta.is_free_class2(algebra.class2_presentation(alg))
    walked = []
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + 50)
    try:
        latticezeta._lattices_containing(2, [1] * 300, 0, lambda rows, e: walked.append(e))
        subrings = latticezeta.count(alg, 2, 1).coefficients
    finally:
        sys.setrecursionlimit(limit)
    assert walked == [0]
    # an index-2 subring contains Z, since beta(M, M) = Z when M = Z_2^d
    assert subrings == (1, 2**d - 1)


def test_contains_examples():
    l1 = lat([[2, 0], [0, 1]])
    assert contains(l1, (2, 5))
    assert not contains(l1, (1, 0))
    l2 = lat([[2, 1], [0, 4]])
    assert contains(l2, (4, 2))  # coefficients (2, 0)
    assert not contains(l2, (2, 0))


def test_is_subring_heisenberg_divisibility():
    heis = algebra.catalog("heisenberg")
    assert latticezeta.is_subring(heis, lat([[2, 0, 0], [0, 2, 0], [0, 0, 4]]))
    assert not latticezeta.is_subring(heis, lat([[2, 0, 0], [0, 2, 0], [0, 0, 8]]))
    # the closure condition is exactly M33 | M11*M22, on every index p^k lattice
    for k in range(4):
        for l in latticezeta.enumerate_sublattices(3, 2, k):
            expected = (l[0][0] * l[1][1]) % l[2][2] == 0
            assert latticezeta.is_subring(heis, l) == expected


def test_is_subring_trivial_cases():
    ab = algebra.catalog("abelian", 3)
    for l in latticezeta.enumerate_sublattices(3, 2, 2):
        assert latticezeta.is_subring(ab, l)
    heis = algebra.catalog("heisenberg")
    assert latticezeta.is_subring(heis, lat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_is_ideal_heisenberg_divisibility():
    heis = algebra.catalog("heisenberg")
    assert latticezeta.is_ideal(heis, lat([[4, 0, 0], [0, 2, 0], [0, 0, 2]]))
    assert not latticezeta.is_ideal(heis, lat([[2, 0, 0], [0, 2, 0], [0, 0, 4]]))
    # bracketing the generators with x and y shows the closure condition is
    # M33 | M11, M33 | M22 and also M33 | M12 (the last is vacuous only for
    # diagonal matrices)
    for k in range(4):
        for l in latticezeta.enumerate_sublattices(3, 2, k):
            m33 = l[2][2]
            expected = (
                l[0][0] % m33 == 0
                and l[1][1] % m33 == 0
                and l[0][1] % m33 == 0
            )
            assert latticezeta.is_ideal(heis, l) == expected


def test_every_ideal_is_a_subring():
    rng = random.Random(20240901)
    for alg in (algebra.catalog("heisenberg"), algebra.catalog("sl2"),
                algebra.catalog("componentwise", 2)):
        n, p = alg.rank, 3
        for _ in range(200):
            k = rng.randrange(0, 4)
            pool = list(latticezeta.enumerate_sublattices(n, p, k))
            l = pool[rng.randrange(len(pool))]
            if latticezeta.is_ideal(alg, l):
                assert latticezeta.is_subring(alg, l)


def test_count_examples():
    heis = algebra.catalog("heisenberg")
    assert latticezeta.count(heis, 2, 2, "subrings").coefficients == (1, 3, 19)
    assert latticezeta.count(heis, 2, 2, "ideals").coefficients == (1, 3, 7)
    ab3 = algebra.catalog("abelian", 3)
    assert latticezeta.count(ab3, 2, 1, "sublattices").coefficients == (1, 7)


def test_mode_ordering():
    for name in ("heisenberg", "sl2"):
        alg = algebra.catalog(name)
        ideals = latticezeta.count(alg, 2, 2, "ideals").coefficients
        subrings = latticezeta.count(alg, 2, 2, "subrings").coefficients
        lattices = latticezeta.count(alg, 2, 2, "sublattices").coefficients
        assert all(i <= s <= l for i, s, l in zip(ideals, subrings, lattices))


def _sl2_valuation_conditions(l, p):
    """Independent closure test for the traceless-matrix ring at odd p, straight
    from the three valuation inequalities (v_p(0) = +infinity)."""
    M11, M12, M13 = l[0]
    M22, M23 = l[1][1], l[1][2]
    M33 = l[2][2]

    def v_le(a, b):
        # v_p(a) <= v_p(b), exact integer version
        if b == 0:
            return True
        if a == 0:
            return False
        va = 0
        x = a
        while x % p == 0:
            x //= p
            va += 1
        return b % p**va == 0

    return (
        v_le(M22, 4 * M12 * M23)
        and v_le(M22, 4 * M12 * M33)
        and v_le(M22 * M33, M11 * M22**2 + 4 * M22 * M13 * M23 - 4 * M12 * M23**2)
    )


def test_sl2_subring_agrees_with_valuation_conditions():
    sl2 = algebra.catalog("sl2")
    rng = random.Random(424242)
    trials = 0
    for p in (3, 5):
        while trials < 500 * (1 if p == 3 else 2):
            m = [rng.randrange(0, 3) for _ in range(3)]
            rows = [[0, 0, 0] for _ in range(3)]
            for i in range(3):
                rows[i][i] = p ** m[i]
            for j in range(1, 3):
                for i in range(j):
                    rows[i][j] = rng.randrange(0, rows[j][j])
            l = lat(rows)
            assert latticezeta.is_subring(sl2, l) == _sl2_valuation_conditions(l, p)
            trials += 1


def test_count_invariant_under_basis_automorphism():
    heis = algebra.catalog("heisenberg")
    # x -> -y, y -> x fixes z and the bracket; realized as a relabelled ring
    swapped = algebra.StructureConstantAlgebra(
        "heis-swapped", 3, {(1, 2, 3): -1, (2, 1, 3): 1}, ("antisymmetric", "lie")
    )
    permuted = algebra.StructureConstantAlgebra(
        "heis-permuted", 3, {(2, 3, 1): 1, (3, 2, 1): -1}, ("antisymmetric", "lie")
    )
    for p, K in ((2, 2), (3, 2)):
        base = latticezeta.count(heis, p, K, "subrings").coefficients
        assert latticezeta.count(swapped, p, K, "subrings").coefficients == base
        assert latticezeta.count(permuted, p, K, "subrings").coefficients == base


# the cross product on Z^3: no basis order is triangular for either mode
SO3 = algebra.StructureConstantAlgebra(
    "so3", 3,
    {(1, 2, 3): 1, (2, 1, 3): -1, (2, 3, 1): 1, (3, 2, 1): -1, (3, 1, 2): 1, (1, 3, 2): -1},
    ("antisymmetric", "lie"),
)


def test_resource_guard():
    with pytest.raises(ResourceGuardError) as err:
        list(latticezeta.enumerate_sublattices(6, 2, 9, ceiling=1000))
    assert err.value.predicted > 1000
    # heisenberg is free class 2: the central subring sum takes one node per
    # cotype of the lattices M of Z_2^2 of index below 8, (), (1), (2) and
    # (1, 1), and one per subgroup type of the centre for each index of M
    # (the type of Z / beta(M, M) is fixed by it), 1 + 2 + 2: 9 nodes (16 when
    # the 11 M were predicted and the central lattices walked)
    heis = algebra.catalog("heisenberg")
    assert latticezeta.count(heis, 2, 3, "subrings", ceiling=9).coefficients == (1, 3, 19, 43)
    with pytest.raises(ResourceGuardError) as err:
        latticezeta.count(heis, 2, 3, "subrings", ceiling=8)
    assert (err.value.predicted, err.value.ceiling) == (None, 8)
    # sl2 at p=3, K=5 takes 486 nodes.  A node is one candidate row or orbit
    # representative tested, one row-0 solve or one subtree credited, and a
    # sibling group split into orbits is charged its sibling codes too: 363
    # codes in 5 groups, 68 rows tested and 55 solves (1,097 nodes without
    # the orbits, 9,035 with a loop over row 0's tails)
    sl2 = algebra.catalog("sl2")
    latticezeta.count(sl2, 3, 5, "subrings", ceiling=486)
    with pytest.raises(ResourceGuardError):
        latticezeta.count(sl2, 3, 5, "subrings", ceiling=485)
    # the zero ring's whole search tree is one credited subtree: abelian(5)
    # sublattices at p=2, K=4 take one node (16,349 when walked row by row)
    abelian = algebra.catalog("abelian", 5)
    got = latticezeta.count(abelian, 2, 4, "sublattices", ceiling=1).coefficients
    assert got == tuple(latticezeta.sublattice_count_prediction(5, 2, k) for k in range(5))


@pytest.mark.parametrize("flags", [("antisymmetric", "lie"), ("lie",), ()])
def test_the_search_reads_measured_symmetry_not_declared_flags(flags):
    # sl2 declared fully, as a Lie ring only or not at all is measured
    # antisymmetric when it is built, so all three take the one-sided search:
    # the same counts and the same 486 nodes at p=3, K=5
    sl2 = algebra.catalog("sl2")
    alg = algebra.StructureConstantAlgebra("sl2", 3, sl2.constants, flags)
    assert alg.antisymmetric.holds and not alg.commutative.holds
    for p, K in ((3, 5), (2, 7)):
        assert latticezeta.count(alg, p, K, "subrings") == latticezeta.count(sl2, p, K, "subrings")
    latticezeta.count(alg, 3, 5, "subrings", ceiling=486)
    with pytest.raises(ResourceGuardError):
        latticezeta.count(alg, 3, 5, "subrings", ceiling=485)


def test_a_sibling_group_is_charged_its_codes_before_its_orbits_are_found(monkeypatch):
    # sl2 subrings at p=101, K=1: 7 rows are tested first (row 2 at both
    # exponents, and under its unit diagonal row 1 twice and row 0 three
    # times).  Then row 1's group under the diagonal 101 is charged its 101
    # codes before its orbits are found, and 2 representatives tested and 2
    # row-0 solves follow: 112 nodes in all
    sl2 = algebra.catalog("sl2")
    assert latticezeta.count(sl2, 101, 1, "subrings", ceiling=112).coefficients == (1, 102)
    with pytest.raises(ResourceGuardError):
        latticezeta.count(sl2, 101, 1, "subrings", ceiling=111)

    def refuse(*args):
        raise AssertionError("orbits found past the ceiling")

    # a ceiling below the group's codes stops the search before the codes
    # are built, and so before any representative is tested
    monkeypatch.setattr(latticezeta, "_orbits", refuse)
    with pytest.raises(ResourceGuardError):
        latticezeta.count(sl2, 101, 1, "subrings", ceiling=7 + 100)


def test_central_sums_read_measured_symmetry_not_declared_flags():
    dus = algebra.catalog("dusautoy_ec")
    lie = algebra.StructureConstantAlgebra("dusautoy_ec", 9, dus.constants, ("lie",))
    pres = algebra.class2_presentation(lie)
    assert pres.antisymmetric.holds and not pres.commutative.holds
    for mode in ("subrings", "ideals"):
        assert latticezeta.count_path(lie, mode)[0] == "central sum"
        assert latticezeta.count(lie, 3, 3, mode) == latticezeta.count(dus, 3, 3, mode), mode


def test_count_searches_filtered_rings_only(monkeypatch):
    # every ring with a triangular order for the mode is searched, whatever
    # its basis; only a ring without one is enumerated
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated")

    monkeypatch.setattr(latticezeta, "enumerate_sublattices", refuse)
    heis = algebra.catalog("heisenberg")
    assert latticezeta.count(heis, 2, 2, "ideals").coefficients == (1, 3, 7)
    assert latticezeta.count(heis, 2, 1, "sublattices").coefficients == (1, 7)
    latticezeta.count(algebra.catalog("sl2"), 2, 2, "subrings")
    for mode in latticezeta.MODES:
        latticezeta.count(algebra.catalog("componentwise", 4), 2, 2, mode)
    latticezeta.count(SO3, 2, 2, "sublattices")
    for alg, mode in ((SO3, "subrings"), (SO3, "ideals"), (algebra.catalog("sl2"), "ideals")):
        assert latticezeta._search_order(alg, mode) is None
        with pytest.raises(AssertionError):
            latticezeta.count(alg, 2, 1, mode)


def test_componentwise_modes_match_their_formulas():
    # the two closed forms for componentwise rings belong to different modes:
    # the squared-numerator factor counts subrings, the pure zeta power ideals
    from ringzeta import ratfun

    cw2 = algebra.catalog("componentwise", 2)
    for p, K in ((2, 4), (3, 3)):
        sub = latticezeta.count(cw2, p, K, "subrings").coefficients
        assert sub == ratfun.expand(ratfun.formula_catalog("componentwise2_subring"), p, K).coefficients
        ide = latticezeta.count(cw2, p, K, "ideals").coefficients
        assert ide == ratfun.expand(ratfun.formula_catalog("componentwise_ideal", 2), p, K).coefficients
    cw3 = algebra.catalog("componentwise", 3)
    ide = latticezeta.count(cw3, 2, 3, "ideals").coefficients
    assert ide == ratfun.expand(ratfun.formula_catalog("componentwise_ideal", 3), 2, 3).coefficients


def _random_filtered_ring(rng, n):
    """A random ring with every e_i * e_j in the span of the e_k, k > max(i, j).

    From rank 3 on, half are class-2 commutator rings declared Lie (generators
    e_1..e_d, central e_{d+1}..e_n); the rest are sparse and carry no flags,
    so closure is tested on both sides.  Coefficients include multiples of 2
    and 3."""
    values = (-2, -1, 1, 2, 3, 4, 6)
    constants = {}
    if n >= 3 and rng.random() < 0.5:
        d = rng.randrange(2, n)
        for i in range(1, d + 1):
            for j in range(i + 1, d + 1):
                for k in range(d + 1, n + 1):
                    if rng.random() < 0.6:
                        c = rng.choice(values)
                        constants[(i, j, k)] = c
                        constants[(j, i, k)] = -c
        return algebra.StructureConstantAlgebra("class2", n, constants, ("antisymmetric", "lie"))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(max(i, j) + 1, n + 1):
                if rng.random() < 0.4:
                    constants[(i, j, k)] = rng.choice(values)
    return algebra.StructureConstantAlgebra("filtered", n, constants)


def _brute_depth(n, p):
    """The deepest K <= 3 that keeps the brute oracle under 1500 lattices."""
    K = 0
    while K < 3 and sum(
        latticezeta.sublattice_count_prediction(n, p, k) for k in range(K + 2)
    ) <= 1500:
        K += 1
    return K


def test_search_matches_brute_enumeration_on_random_filtered_rings():
    rng = random.Random(8128)
    for trial in range(60):
        n, p = rng.randrange(2, 6), rng.choice((2, 3))
        K = _brute_depth(n, p)
        alg = _random_filtered_ring(rng, n)
        for mode in ("subrings", "ideals"):
            assert latticezeta._search_order(alg, mode) == list(range(n))
            brute = latticezeta._brute_counts(alg, p, K, mode, latticezeta.DEFAULT_CEILING)
            rng.randrange(1, 4)  # keeps the seeded sequence of rings unchanged
            search = latticezeta._search_counts(alg, p, K, mode, latticezeta.DEFAULT_CEILING)
            assert search == brute, (trial, n, p, K, mode, alg.flags, alg.constants)


def _random_triangular_ring(rng, n, mode):
    """A random ring with a basis order in which every constant (a, b, k) has
    k >= min(a, b) (mode "subrings") or k >= max(a, b) (mode "ideals"),
    written in a randomly permuted basis.

    Products often land on one of their factors (k = a or k = b), some
    columns are inert (never a factor), a third of the rings are
    antisymmetric and the rest carry no flags.  One ring in four gets one
    more constant with k anywhere, which may leave it with no such order."""
    values = (-2, -1, 1, 2, 3, 4, 6)
    factors = [c for c in range(1, n + 1) if rng.random() < 0.75]
    antisym = rng.random() < 1 / 3
    low = min if mode == "subrings" else max
    density = rng.choice((0.1, 0.25, 0.5))
    constants = {}
    for a in factors:
        for b in factors:
            if antisym and a >= b:
                continue
            for k in range(low(a, b), n + 1):
                if rng.random() < (2 * density if k in (a, b) else density):
                    c = rng.choice(values)
                    constants[(a, b, k)] = c
                    if antisym:
                        constants[(b, a, k)] = -c
    if factors and rng.random() < 0.25:
        a, b, k = rng.choice(factors), rng.choice(factors), rng.randrange(1, n + 1)
        if not (antisym and a == b):
            c = rng.choice(values)
            constants[(a, b, k)] = c
            if antisym:
                constants[(b, a, k)] = -c
    perm = rng.sample(range(1, n + 1), n)
    permuted = {(perm[a - 1], perm[b - 1], perm[k - 1]): c for (a, b, k), c in constants.items()}
    flags = ("antisymmetric",) if antisym else ()
    return algebra.StructureConstantAlgebra("triangular", n, permuted, flags)


def _in_order(alg, order):
    """alg with its basis relabelled so that coordinate order[t] comes t-th."""
    pos = {c + 1: t + 1 for t, c in enumerate(order)}
    constants = {(pos[a], pos[b], pos[k]): c for (a, b, k), c in alg.constants.items()}
    return algebra.StructureConstantAlgebra(alg.name, alg.rank, constants, alg.flags)


def _is_triangular(alg, mode, order):
    pos = {c + 1: t for t, c in enumerate(order)}
    low = {"subrings": min, "ideals": max}.get(mode)
    return sorted(order) == list(range(alg.rank)) and (
        low is None or all(pos[k] >= low(pos[a], pos[b]) for a, b, k in alg.constants)
    )


def test_count_matches_brute_enumeration_on_random_triangular_rings(monkeypatch):
    rng = random.Random(496)
    searched = {mode: 0 for mode in latticezeta.MODES}
    # on the row search, sublattice_count_prediction is called only to credit
    # a subtree whose fixed rows contain every product
    prediction, credits, credited = latticezeta.sublattice_count_prediction, [], 0
    monkeypatch.setattr(latticezeta, "sublattice_count_prediction",
                        lambda *args: credits.append(args) or prediction(*args))
    for trial in range(120):
        n, p = rng.randrange(2, 6), rng.choice((2, 3))
        K = _brute_depth(n, p)
        alg = _random_triangular_ring(rng, n, rng.choice(("subrings", "ideals")))
        for mode in latticezeta.MODES:
            order = latticezeta._search_order(alg, mode)
            if order is None:
                # no basis order at all is triangular: count enumerates
                assert not any(_is_triangular(alg, mode, o) for o in permutations(range(n)))
                continue
            assert _is_triangular(alg, mode, order), (order, alg.constants)
            searched[mode] += 1
            brute = latticezeta._brute_counts(alg, p, K, mode, latticezeta.DEFAULT_CEILING)
            rng.randrange(1, 4)  # keeps the seeded sequence of rings unchanged
            credits.clear()
            got = latticezeta.count(alg, p, K, mode)
            assert got.coefficients == tuple(brute), (trial, n, p, K, mode, alg.flags, alg.constants)
            if mode != "sublattices" and alg.constants:
                credited += bool(credits) and latticezeta.count_path(alg, mode)[0] == "row search"
    assert min(searched.values()) >= 40, searched
    assert credited >= 50, credited


def _random_graded_ring(rng, n, mode):
    """A random ring with a grading: weights w are drawn first, and only
    constants (a, b, k) with w_a + w_b = w_k are kept, each with k >= min(a, b)
    (mode "subrings") or k >= max(a, b) (mode "ideals").  Weight 0 is common,
    so products often land on a factor (k = a when w_b = 0), as in sl2.  From
    rank 3 on, one ring in three keeps no product on a factor, so the columns
    that are no factor are inert.  Half are antisymmetric; the rest carry no
    flags."""
    values = (-2, -1, 1, 2, 3, 4, 6)
    antisym = rng.random() < 0.5
    off = n >= 3 and rng.random() < 1 / 3
    low = min if mode == "subrings" else max
    constants = {}
    while not constants:
        w = [rng.choice((-1, 0, 0, 1, 2)) for _ in range(n)]
        for a in range(1, n + 1):
            for b in range(a + 1 if antisym else 1, n + 1):
                for k in range(low(a, b), n + 1):
                    if off and k in (a, b):
                        continue
                    if w[a - 1] + w[b - 1] == w[k - 1] and rng.random() < 0.5:
                        c = rng.choice(values)
                        constants[(a, b, k)] = c
                        if antisym:
                            constants[(b, a, k)] = -c
    flags = ("antisymmetric",) if antisym else ()
    return algebra.StructureConstantAlgebra("graded", n, constants, flags)


def _signed_permutation(alg, rng):
    """alg in the basis f_sigma(j) = s_j e_j, for a random permutation sigma
    and random signs s_j."""
    n = alg.rank
    perm = rng.sample(range(1, n + 1), n)
    sign = [rng.choice((1, -1)) for _ in range(n)]
    constants = {
        (perm[a - 1], perm[b - 1], perm[k - 1]): c * sign[a - 1] * sign[b - 1] * sign[k - 1]
        for (a, b, k), c in alg.constants.items()
    }
    return algebra.StructureConstantAlgebra("signed", n, constants, alg.flags)


def _inert_columns(alg, mode):
    """The columns of alg, relabelled into its search order, that no product
    reads and that the row search therefore fills in every way at once."""
    searched = _in_order(alg, latticezeta._search_order(alg, mode))
    if any(k in (a, b) for a, b, k in searched.constants):
        return set()
    return set(range(alg.rank)) - {c - 1 for key in searched.constants for c in key[:2]}


def test_orbits_match_brute_enumeration_on_random_graded_rings(monkeypatch):
    """The row search with its orbit step must equal the brute enumeration
    and the search with the step turned off, on random graded rings in a
    signed permuted basis.  In every sibling group the (tail, size) list of
    `_orbits` must partition the sibling rows exactly as the member walk
    `_orbit` does: each representative opens an orbit of its own, of the
    size given, and together they cover every sibling.  Every group with a
    stabilising map is split, however small, so the oracle sees them all.
    Orbits of more than one row, orbits larger than p, and groups of several
    tail columns with an inert one must all occur."""
    rng = random.Random(1123)
    orbits, sizes = latticezeta._orbits, []

    def checked(rows, i, maps):
        got = orbits(rows, i, maps)
        members = set()
        for tail, size in got:
            row = (0,) * i + (1,) + tail
            assert row not in members, (rows, i, maps, got)
            assert latticezeta._orbit(rows, i, row, maps, members) == size, (rows, i, maps, got)
        cols = range(i + 1, len(rows))
        assert len(members) == math.prod(rows[j][j] for j in cols), (rows, i, maps, got)
        sizes.extend(size for _, size in got)
        if len(cols) > 1 and any(rows[j][j] > 1 for j in inert & set(cols)):
            seen["several columns, one inert"] = seen.get("several columns, one inert", 0) + 1
        return got

    monkeypatch.setattr(latticezeta, "_orbits", checked)
    monkeypatch.setattr(latticezeta, "_orbits_pay", lambda *args: True)
    seen = {}
    for trial in range(200):
        mode = rng.choice(("subrings", "ideals"))
        n, p = rng.randrange(2, 6), rng.choice((2, 3, 5))
        K = _brute_depth(n, p)
        alg = _signed_permutation(_random_graded_ring(rng, n, mode), rng)
        if latticezeta.count_path(alg, mode)[0] != "row search":
            continue
        sizes.clear()
        inert = _inert_columns(alg, mode)
        got = latticezeta.count(alg, p, K, mode).coefficients
        brute = latticezeta._brute_counts(alg, p, K, mode, latticezeta.DEFAULT_CEILING)
        with monkeypatch.context() as m:
            m.setattr(latticezeta, "_orbits_pay", lambda *args: False)
            plain = latticezeta.count(alg, p, K, mode).coefficients
        assert got == tuple(brute) == plain, (trial, p, K, mode, alg.flags, alg.constants)
        kind = f"{mode}, {'antisymmetric' if alg.antisymmetric.holds else 'not antisymmetric'}"
        for key in (kind, f"p = {p}", f"orbit > 1 in {kind}", "orbit > p"):
            bound = p if key == "orbit > p" else 1
            seen[key] = seen.get(key, 0) + (max(sizes, default=1) > bound if "orbit" in key else 1)
    assert len(seen) == 13 and min(seen.values()) >= 4, seen


def test_reduced_is_the_hermite_row_modulo_the_later_rows():
    # the member walk `_orbit`, the oracle of the orbit step, names each image
    # row by its reduction: entries from coordinate 1 on in [0, p^m_j), and
    # the difference in the span of rows 1..
    rng = random.Random(5051)
    for _ in range(300):
        n, p = rng.randrange(2, 6), rng.choice((2, 3))
        m = [rng.randrange(0, 3) for _ in range(n)]
        rows = [[0] * j + [p ** m[j]] + [rng.randrange(p ** m[k]) for k in range(j + 1, n)]
                for j in range(n)]
        v = [0] + [rng.randrange(-50, 50) for _ in range(n - 1)]
        got = latticezeta._reduced(rows, 1, list(v))
        assert all(0 <= got[j] < rows[j][j] for j in range(1, n)), (rows, v, got)
        assert latticezeta._in_span(rows, 1, [a - b for a, b in zip(v, got)]), (rows, v, got)


def _kernel_size(rows, ncols, modulus):
    """|{x in (Z/modulus)^ncols : rows . x = 0 mod modulus}| by enumeration."""
    return sum(
        all(sum(a * v for a, v in zip(row, x)) % modulus == 0 for row in rows)
        for x in product(range(modulus), repeat=ncols)
    )


def test_local_elimination_matches_brute_force():
    from ringzeta.exactlinalg import local_elimination

    rng = random.Random(3511)
    kinds = set()
    for _ in range(400):
        p, E = rng.choice(((2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)))
        q = p**E
        ncols = rng.randrange(0, 4)
        while q**ncols > 4096:
            ncols -= 1
        # entries often divisible by p, so pivots of every valuation occur;
        # some negative, some far above p^E
        big = lambda: rng.choice((-1, 1)) * (p ** (E + 2) * rng.randrange(10**6) + rng.randrange(q))
        draw = lambda: rng.choice((0, 1, p, p * p, rng.randrange(-q - 3, q + 4), big()))
        rows = [[draw() for _ in range(ncols)] for _ in range(rng.randrange(0, 5))]
        # the right side is the last entry of each row, or left out and 0
        sided = rng.random() < 0.75
        rhs = [draw() if sided else 0 for _ in rows]
        given = [row + [b] if sided else list(row) for row, b in zip(rows, rhs)]
        kept = [list(row) for row in given]
        system = list(given)
        valuations, least = local_elimination(system, ncols, p, E)
        # the rows given are left as they were; only the list is eliminated
        assert given == kept and len(system) == len(given) - len(valuations)
        assert all(0 <= v < E for v in valuations) and len(valuations) <= min(len(rows), ncols)
        assert sided or not least
        kinds.add(("right side", sided))
        kinds.add(("unreduced", any(not 0 <= x < q for row in given for x in row)))
        solutions = p ** (sum(valuations) + E * (ncols - len(valuations)))
        for s in range(E + 2):
            expected = sum(
                all((sum(a * v for a, v in zip(row, x)) - p**s * b) % q == 0
                    for row, b in zip(rows, rhs))
                for x in product(range(q), repeat=ncols)
            )
            assert (solutions if s >= least else 0) == expected, (rows, rhs, ncols, p, E, s)
            kinds.add((expected == 0, 1 < expected < q**ncols))
        kinds.add(("unsolvable unscaled", least > 0))
        # the valuations are the elementary divisors: they give the kernel mod every p^k
        for k in range(1, E + 1):
            exponent = sum(min(v, k) for v in valuations) + k * (ncols - len(valuations))
            assert _kernel_size(rows, ncols, p**k) == p**exponent, (rows, ncols, p, E, k)
    assert kinds == {(True, False), (False, True), (False, False),
                     ("unsolvable unscaled", True), ("unsolvable unscaled", False),
                     ("right side", True), ("right side", False),
                     ("unreduced", True), ("unreduced", False)}


def _exponent_of_quotient(rows, p):
    """Least e with p^e Z_p^{n-1} inside the span of rows 1..n-1."""
    n = len(rows)
    e = 0
    while not all(
        latticezeta._in_span(rows, 1, (0,) * j + (p**e,) + (0,) * (n - 1 - j))
        for j in range(1, n)
    ):
        e += 1
    return e


def test_row0_solve_matches_the_tail_loop_at_every_leaf(monkeypatch):
    """Force the row-0 solve at every leaf of the search and hold its count
    for each exponent left to a loop over all of that leaf's tails, each
    lattice tested in full by is_ideal or is_subring."""
    rng = random.Random(1729)
    solve = latticezeta._row0_counts
    seen = {"leaves": 0, "Q above max m_j": 0, "c != 0": 0, "left products": 0,
            "none pass": 0, "some pass": 0}

    def checked(rows, p, E, rights, lefts):
        # a ring with no products is credited before any row is placed
        assert rights or lefts
        passing, least = solve(rows, p, E, rights, lefts)
        n = len(rows)
        test = latticezeta.is_subring if mode == "subrings" else latticezeta.is_ideal
        tails = list(product(*(range(rows[j][j]) for j in range(1, n))))
        # images[a]: the tested products of e_a, read off the product maps
        images = [[[0] * n for _ in rights + lefts] for _ in range(n)]
        for prod, m in enumerate(rights + lefts):
            for a, k, v in m:
                images[a][prod][k] += v
        # coordinate 0 of a tested product never reads the tail, so c is
        # coordinate 0 of the product with e_0 and always an integer
        assert not any(prod[0] for image in images[1:] for prod in image)
        top = max((rows[j][j] for j in range(1, n)), default=1)
        for m in range(K - E + 1):
            expected = sum(
                test(searched, ((p**m,) + t,) + tuple(rows[1:]))
                for t in tails
            )
            assert (passing if m >= least else 0) == expected, (alg.constants, mode, rows, m)
            seen["leaves"] += 1
            seen["Q above max m_j"] += p == 2 and top < p ** _exponent_of_quotient(rows, p)
            seen["c != 0"] += any(prod[0] for prod in images[0])
            seen["left products"] += bool(lefts)
            seen["none pass"] += expected == 0
            seen["some pass"] += 0 < expected < len(tails)
        return passing, least

    monkeypatch.setattr(latticezeta, "_solve_pays", lambda *args: True)
    monkeypatch.setattr(latticezeta, "_row0_counts", checked)
    cases = [(algebra.catalog("sl2"), "subrings", 2)]
    for trial in range(70):
        mode = rng.choice(("subrings", "ideals"))
        n = rng.randrange(2, 5)
        alg = _random_triangular_ring(rng, n, mode)
        if mode == "subrings" and not alg.antisymmetric.holds:
            continue
        cases.append((alg, mode, rng.choice((2, 2, 3))))
    for alg, mode, p in cases:
        order = latticezeta._search_order(alg, mode)
        if order is None:
            continue
        searched = _in_order(alg, order)  # the ring as the search sees it
        K = _brute_depth(alg.rank, p)
        got = latticezeta.count(alg, p, K, mode).coefficients
        brute = latticezeta._brute_counts(alg, p, K, mode, latticezeta.DEFAULT_CEILING)
        assert got == tuple(brute), (alg.constants, mode, p, K)
    assert all(seen.values()) and seen["leaves"] >= 500, seen


def test_a_row0_solve_is_one_search_node(monkeypatch):
    # componentwise(2) ideals at p=5, K=3: the last row tries 4 exponents m_1
    # and passes each.  Row 0 then has 5^m_1 tails for each of its 4 - m_1
    # exponents, so it tests its 4 rows at m_1 = 0 and is solved, one node for
    # all exponents, at m_1 = 1, 2, 3 (15, 50 and 125 rows): 4 + 4 + 3 = 11.
    cw2 = algebra.catalog("componentwise", 2)
    expected = latticezeta.count(cw2, 5, 3, "ideals").coefficients
    assert latticezeta.count(cw2, 5, 3, "ideals", ceiling=11).coefficients == expected
    with pytest.raises(ResourceGuardError):
        latticezeta.count(cw2, 5, 3, "ideals", ceiling=10)
    # the same ring built with no flags is measured commutative and tested on
    # one side just the same
    bare = algebra.StructureConstantAlgebra("bare", 2, cw2.constants)
    assert bare.commutative.holds
    assert latticezeta.count(bare, 5, 3, "ideals", ceiling=11).coefficients == expected
    with pytest.raises(ResourceGuardError):
        latticezeta.count(bare, 5, 3, "ideals", ceiling=10)
    # testing every row instead: 4 + 4*1 + 3*5 + 2*25 + 1*125 = 198 nodes
    monkeypatch.setattr(latticezeta, "_solve_pays", lambda *args: False)
    assert latticezeta.count(cw2, 5, 3, "ideals", ceiling=198).coefficients == expected
    with pytest.raises(ResourceGuardError):
        latticezeta.count(cw2, 5, 3, "ideals", ceiling=197)


def _random_commutative_ring(rng, n, mode):
    """A random commutative ring, flagged so, with a basis order in which
    every constant (a, b, k) has k >= min(a, b) (mode "subrings") or
    k >= max(a, b) (mode "ideals"), written in a randomly permuted basis.
    Each e_a * e_b, a <= b, is drawn once and e_b * e_a set equal to it;
    products often land on a factor, as in `componentwise(n)`."""
    values = (-2, -1, 1, 2, 3, 4, 6)
    low = min if mode == "subrings" else max
    density = rng.choice((0.15, 0.3, 0.5))
    constants = {}
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            for k in range(low(a, b), n + 1):
                if rng.random() < (2 * density if k in (a, b) else density):
                    constants[(a, b, k)] = constants[(b, a, k)] = rng.choice(values)
    return _shuffled(algebra.StructureConstantAlgebra("commutative", n, constants,
                                                      ("commutative",)), rng)


def test_commutative_rings_test_one_side_and_match_brute_enumeration(monkeypatch):
    """A ring flagged commutative has its products tested on one side only,
    in the row search and in the central sum; its counts must still equal
    the brute enumeration, and row-0 solves must run with no left products."""
    rng = random.Random(2310)
    solve, lefts_seen = latticezeta._row0_counts, []

    def recorded(rows, p, E, rights, lefts):
        lefts_seen.append(len(lefts))
        return solve(rows, p, E, rights, lefts)

    monkeypatch.setattr(latticezeta, "_row0_counts", recorded)
    paths = Counter()
    for trial in range(60):
        n, p = rng.randrange(2, 6), rng.choice((2, 3))
        K = _brute_depth(n, p)
        alg = _random_commutative_ring(rng, n, rng.choice(("subrings", "ideals")))
        for mode in ("subrings", "ideals"):
            got = latticezeta.count(alg, p, K, mode).coefficients
            brute = latticezeta._brute_counts(alg, p, K, mode, latticezeta.DEFAULT_CEILING)
            assert got == tuple(brute), (trial, p, K, mode, alg.constants)
            paths[mode, latticezeta.count_path(alg, mode)[0]] += 1
    assert paths["subrings", "row search"] >= 20 and paths["ideals", "row search"] >= 20, paths
    assert paths["subrings", "central sum"] and paths["ideals", "central sum"], paths
    assert lefts_seen and not any(lefts_seen), lefts_seen


def test_commutative_class2_ideals_take_one_side_of_the_central_sum(monkeypatch):
    # e1 e1 = e3, e1 e2 = e2 e1 = e4, e2 e2 = 2 e3: class 2 and commutative,
    # so the central ideal sum reads only the products x e_j
    alg = algebra.StructureConstantAlgebra(
        "commutative class 2", 4, {(1, 1, 3): 1, (1, 2, 4): 1, (2, 1, 4): 1, (2, 2, 3): 2},
        ("commutative",))
    assert latticezeta.count_path(alg, "ideals")[0] == "central sum"
    elimination, sizes = latticezeta.local_elimination, []
    monkeypatch.setattr(latticezeta, "local_elimination",
                        lambda rows, *args: sizes.append(len(rows)) or elimination(rows, *args))
    got = latticezeta.count(alg, 3, 3, "ideals").coefficients
    assert got == (1, 4, 13, 76)
    # the first elimination stacks the 2 x 2 blocks of x -> x e_1 and x e_2
    # only, not those of x -> e_j x as well
    assert sizes[0] == 4
    assert got == tuple(latticezeta._brute_counts(alg, 3, 3, "ideals", latticezeta.DEFAULT_CEILING))
    subrings = latticezeta.count(alg, 3, 3, "subrings").coefficients
    assert subrings == tuple(
        latticezeta._brute_counts(alg, 3, 3, "subrings", latticezeta.DEFAULT_CEILING))


def test_the_row_search_never_calls_multiply(monkeypatch):
    # the row search reads its product maps, so the benchmark's traced
    # algebra.multiply_calls count only the oracles is_subring and is_ideal
    def refuse(*args):
        raise AssertionError("multiply called")

    monkeypatch.setattr(latticezeta, "multiply", refuse)
    rng = random.Random(77)
    alg = _random_triangular_ring(rng, 4, "ideals")
    while not alg.antisymmetric.holds or latticezeta.count_path(alg, "ideals")[0] != "row search":
        alg = _random_triangular_ring(rng, 4, "ideals")
    cases = ((algebra.catalog("componentwise", 4), 2, 4, "ideals"),
             (algebra.catalog("sl2"), 3, 5, "subrings"),
             (alg, 3, 3, "ideals"))
    for ring, p, K, mode in cases:
        assert latticezeta.count_path(ring, mode)[0] == "row search"
        latticezeta.count(ring, p, K, mode)
    with pytest.raises(AssertionError):
        latticezeta.is_ideal(alg, latticezeta._unit_vectors(4))


def _random_class2_ring(rng):
    """A random ring that is class 2 in its given basis: generators e_1..e_d,
    d <= 4, and central e_{d+1}..e_{d+d'}, d' <= 3, that receive every product.

    Half are antisymmetric; the rest carry no flags and draw each e_a * e_b
    on its own, so the products x * e_j and e_j * x differ.  Now and then the
    last central coordinate receives no product, which puts a zero R(ell) in
    the rank walk (r = 0, no pruning).  Coefficients include multiples of 2
    and 3."""
    values = (-2, -1, 1, 2, 3, 4, 6)
    d, dc = rng.randrange(1, 5), rng.randrange(1, 4)
    antisym = d > 1 and rng.random() < 0.5
    targets = range(d + 1, d + dc + (0 if dc > 1 and rng.random() < 0.3 else 1))
    density = rng.choice((0.3, 0.6))
    constants = {}
    while not constants:
        for a in range(1, d + 1):
            for b in range(a + 1 if antisym else 1, d + 1):
                for k in targets:
                    if rng.random() < density:
                        c = rng.choice(values)
                        constants[(a, b, k)] = c
                        if antisym:
                            constants[(b, a, k)] = -c
    flags = ("antisymmetric",) if antisym else ()
    return algebra.StructureConstantAlgebra("class2", d + dc, constants, flags)


def _shuffled(alg, rng):
    """alg with its basis vectors in a random order."""
    n = alg.rank
    perm = rng.sample(range(1, n + 1), n)
    return algebra.StructureConstantAlgebra(
        "shuffled", n,
        {(perm[a - 1], perm[b - 1], perm[k - 1]): c for (a, b, k), c in alg.constants.items()},
        alg.flags,
    )


def _central(alg):
    """The 0-based coordinates that are no factor of any product: the centre
    of a ring that is class 2 in its given basis."""
    factors = {c - 1 for key in alg.constants for c in key[:2]}
    return [c for c in range(alg.rank) if c not in factors]


def _some_R_vanishes(alg, p):
    """Is there a nonzero ell in F_p^{d'} with ell(e_a * e_b) = 0 mod p for
    every a, b?  Then R(ell) = 0 mod p, and the least rank r is 0."""
    central = _central(alg)
    products = {}
    for (a, b, k), c in alg.constants.items():
        products.setdefault((a, b), {})[k - 1] = c
    return any(
        any(ell) and all(
            sum(l * prod.get(c, 0) for l, c in zip(ell, central)) % p == 0
            for prod in products.values()
        )
        for ell in product(range(p), repeat=len(central))
    )


def test_central_sum_matches_the_search_and_brute_enumeration(monkeypatch):
    """count takes the central sum on every ring that is class 2 in its
    basis, here written in a shuffled basis.  It must equal the row search
    (in the unshuffled, triangular basis) and the brute enumeration, and the
    pruned walk must equal the walk over every Lambda' of index up to p^K."""
    rng = random.Random(6174)
    seen = {"r = 0": 0, "r > 0": 0, "left products": 0, "d' = 3": 0}
    for trial in range(45):
        alg = _random_class2_ring(rng)
        p = rng.choice((2, 3))
        n = alg.rank
        K = 3 if p == 2 or n <= 5 else 2
        shuffled = _shuffled(alg, rng)
        assert algebra.class2_presentation(shuffled) is not None
        got = latticezeta.count(shuffled, p, K, "ideals").coefficients
        search = latticezeta._search_counts(alg, p, K, "ideals", latticezeta.DEFAULT_CEILING)
        assert got == tuple(search), (trial, p, K, alg.flags, alg.constants)
        depth = _brute_depth(n, p)
        brute = latticezeta._brute_counts(alg, p, depth, "ideals", latticezeta.DEFAULT_CEILING)
        assert got[:depth + 1] == tuple(brute), (trial, p, depth, alg.flags, alg.constants)
        with monkeypatch.context() as m:
            # the zero vector has R = 0, so r = 0 and L = K: no pruning
            m.setattr(latticezeta, "projective_points", lambda p, n: [(0,) * n])
            assert latticezeta.count(shuffled, p, K, "ideals").coefficients == got, trial
        seen["r = 0" if _some_R_vanishes(alg, p) else "r > 0"] += 1
        seen["left products"] += not (alg.antisymmetric.holds or alg.commutative.holds)
        seen["d' = 3"] += algebra.class2_presentation(alg).dprime == 3
    assert min(seen.values()) >= 8, seen


def test_central_ideal_sum_skips_the_rank_walk_where_L_cannot_grow(monkeypatch):
    """The least rank of R(ell) mod p is 0 when ell -> R(ell) has a kernel
    mod p, else at least 1, and at least 2 on an antisymmetric ring.  Where
    K // (1 + d) already equals K // (1 + that floor) the rank walk is never
    entered; the counts must still equal the row search and the brute
    enumeration."""
    walks = []
    real = latticezeta.projective_points
    monkeypatch.setattr(latticezeta, "projective_points",
                        lambda p, n: walks.append(n) or real(p, n))
    rng = random.Random(4181)
    skipped = Counter()
    for trial in range(50):
        alg = _random_class2_ring(rng)
        p, K = rng.choice((2, 3)), rng.choice((1, 2, 2, 3))
        d = alg.rank - len(_central(alg))
        floor = 0 if _some_R_vanishes(alg, p) else 2 if alg.antisymmetric.holds else 1
        walks.clear()
        got = latticezeta.count(_shuffled(alg, rng), p, K, "ideals").coefficients
        assert (not walks) == (K // (1 + d) == K // (1 + floor)), (trial, p, K, alg.constants)
        search = latticezeta._search_counts(alg, p, K, "ideals", latticezeta.DEFAULT_CEILING)
        assert got == tuple(search), (trial, p, K, alg.flags, alg.constants)
        depth = min(K, _brute_depth(alg.rank, p))
        brute = latticezeta._brute_counts(alg, p, depth, "ideals", latticezeta.DEFAULT_CEILING)
        assert got[:depth + 1] == tuple(brute), (trial, p, depth, alg.flags, alg.constants)
        skipped[not walks, floor] += 1
    assert skipped[True, 1] >= 2 and skipped[True, 2] >= 4 and skipped[False, 0] >= 10, skipped


def test_central_subring_sum_matches_the_search_and_brute_enumeration():
    """count takes the central subring sum on every ring that is class 2 in
    its basis, here written in a shuffled basis.  It must equal the row search
    (in the unshuffled, triangular basis) and the brute enumeration."""
    rng = random.Random(2718)
    seen = {"not antisymmetric": 0, "antisymmetric": 0, "d' = 3": 0, "unused central coordinate": 0}
    for trial in range(45):
        alg = _random_class2_ring(rng)
        p = rng.choice((2, 3))
        n = alg.rank
        K = 3 if n + p <= 7 else 2  # the row search is the slow side
        shuffled = _shuffled(alg, rng)
        assert latticezeta.count_path(shuffled, "subrings")[0] == "central sum"
        got = latticezeta.count(shuffled, p, K, "subrings").coefficients
        search = latticezeta._search_counts(alg, p, K, "subrings", latticezeta.DEFAULT_CEILING)
        assert got == tuple(search), (trial, p, K, alg.flags, alg.constants)
        depth = _brute_depth(n, p)
        brute = latticezeta._brute_counts(alg, p, depth, "subrings", latticezeta.DEFAULT_CEILING)
        assert got[:depth + 1] == tuple(brute), (trial, p, depth, alg.flags, alg.constants)
        central = _central(alg)
        seen["antisymmetric" if alg.antisymmetric.holds else "not antisymmetric"] += 1
        seen["d' = 3"] += len(central) == 3
        seen["unused central coordinate"] += any(
            all(k - 1 != c for *_, k in alg.constants) for c in central)
    assert min(seen.values()) >= 5, seen


def test_dusautoy_ec_subrings_match_the_row_search():
    # no closed form is known for them; the row search is the only oracle
    dus = algebra.catalog("dusautoy_ec")
    search = latticezeta._search_counts(dus, 2, 2, "subrings", latticezeta.DEFAULT_CEILING)
    assert latticezeta.count(dus, 2, 2, "subrings").coefficients == tuple(search) == (1, 63, 2667)


def _signed_central_permutation(alg, rng):
    """alg in the basis s_i e_sigma(i), with random signs s_i and a random
    permutation sigma of the coordinates that are no factor of any product:
    the isomorphs the lattice benchmark draws."""
    n = alg.rank
    central = _central(alg)
    sigma = list(range(n))
    for c, t in zip(central, rng.sample(central, len(central))):
        sigma[c] = t
    inverse = {t: i for i, t in enumerate(sigma)}
    sign = [rng.choice((-1, 1)) for _ in range(n)]
    constants = {}
    for (a, b, k), c in alg.constants.items():
        i, j, l = (inverse[x - 1] for x in (a, b, k))
        constants[(i + 1, j + 1, l + 1)] = sign[i] * sign[j] * sign[l] * c
    return algebra.StructureConstantAlgebra(alg.name, n, constants, alg.flags)


def test_class2_subrings_never_take_the_search_or_the_enumeration(monkeypatch):
    from ringzeta import ratfun

    def refuse(*args, **kwargs):
        raise AssertionError("searched, enumerated or walked")

    monkeypatch.setattr(latticezeta, "_search_counts", refuse)
    monkeypatch.setattr(latticezeta, "enumerate_sublattices", refuse)
    # the free class-2 route walks no lattice M, so it never eliminates
    monkeypatch.setattr(latticezeta, "local_elimination", refuse)
    rng = random.Random(31)
    cases = ((algebra.catalog("heisenberg"), "heisenberg_subring", 3, 5),
             (algebra.catalog("heisenberg"), "heisenberg_subring", 7, 12),
             (algebra.catalog("free_nilpotent_2_d", 3), "f23_subring", 2, 3),
             (algebra.catalog("free_nilpotent_2_d", 3), "f23_subring", 2, 12),
             (algebra.catalog("free_nilpotent_2_d", 3), "f23_subring", 3, 10))
    for alg, formula, p, K in cases:
        expected = ratfun.expand(ratfun.formula_catalog(formula), p, K).coefficients
        for _ in range(3):
            isomorph = _signed_central_permutation(alg, rng)
            assert latticezeta.count(isomorph, p, K, "subrings").coefficients == expected


def test_subgroup_counts_match_the_lattices_containing_them():
    """Birkhoff's count of the subgroups of each type, summed by index, must
    equal the walk over the lattices of Z_p^r that contain the diagonal
    lattice of that type."""
    rng = random.Random(1935)
    for trial in range(140):
        p = rng.choice((2, 3, 5))
        r = rng.randrange(1, 6)
        mu = [rng.randrange(4) for _ in range(r)]
        while p ** sum(mu) > 1024:  # the walk visits up to about that many
            mu[rng.randrange(r)] = 0
        most = rng.randrange(sum(mu) + 1)
        walked = [0] * (most + 1)

        def tally(rows, e):
            walked[e] += 1

        latticezeta._lattices_containing(p, mu, most, tally)
        conj = [sum(m > i for m in mu) for i in range(max(mu))]
        counted = [0] * (most + 1)
        for nu, n, e in latticezeta._subgroups(p, conj, most):
            assert len(nu) == len(conj) and e == sum(conj) - sum(nu)
            counted[e] += n
        assert counted == walked, (trial, p, mu, most)


def _free_class2_ring(d, rng, flags):
    """F_{2,d} with each pair e_a, e_b (a < b) sent to a random sign times its
    own central coordinate, in a shuffled basis."""
    centre = rng.sample(range(d + 1, d + d * (d - 1) // 2 + 1), d * (d - 1) // 2)
    constants = {}
    for (a, b), k in zip(((a, b) for a in range(1, d + 1) for b in range(a + 1, d + 1)), centre):
        s = rng.choice((-1, 1))
        constants[(a, b, k)], constants[(b, a, k)] = s, -s
    alg = algebra.StructureConstantAlgebra("free", d + len(centre), constants, flags)
    return _shuffled(alg, rng)


def _refuse_walk(*args):
    raise AssertionError("walked the lattices M")


def test_free_class2_route_matches_the_lattice_walk_and_brute_enumeration(monkeypatch):
    """Signed, shuffled free class-2 rings take the cotype sum, which must
    equal the walk over the lattices M and the brute enumeration; random
    class-2 rings, seldom free, take the walk."""
    rng = random.Random(1994)
    routes = {"cotypes": 0, "walk": 0}
    for trial in range(30):
        p = rng.choice((2, 3))
        if trial % 2:
            d = rng.choice((2, 3, 4))
            alg = _free_class2_ring(d, rng, rng.choice(((), ("antisymmetric",))))
            K = {2: 5, 3: 3, 4: 2}[d]
        else:
            alg = _shuffled(_random_class2_ring(rng), rng)
            K = 3 if alg.rank + p <= 7 else 2
        free = latticezeta.is_free_class2(algebra.class2_presentation(alg))
        routes["cotypes" if free else "walk"] += 1
        with monkeypatch.context() as m:
            if free:  # the cotype sum walks no M, so it never eliminates
                m.setattr(latticezeta, "local_elimination", _refuse_walk)
            got = latticezeta.count(alg, p, K, "subrings").coefficients
        with monkeypatch.context() as m:
            m.setattr(latticezeta, "is_free_class2", lambda pres: False)
            walked = latticezeta.count(alg, p, K, "subrings").coefficients
        assert got == walked, (trial, p, K)
        depth = _brute_depth(alg.rank, p)
        brute = latticezeta._brute_counts(alg, p, depth, "subrings", latticezeta.DEFAULT_CEILING)
        assert got[:depth + 1] == tuple(brute), (trial, p, depth, alg.constants)
    assert min(routes.values()) >= 12, routes


def test_near_misses_of_free_class2_take_the_lattice_walk(monkeypatch):
    f23 = {(1, 2, 4): 1, (2, 1, 4): -1, (1, 3, 5): 1, (3, 1, 5): -1, (2, 3, 6): 1, (3, 2, 6): -1}
    without_23 = {k: v for k, v in f23.items() if k[2] != 6}
    near_misses = {
        "coefficient 2": {**f23, (2, 3, 6): 2, (3, 2, 6): -2},
        "one pair sent to two central coordinates": {**without_23, (1, 2, 6): 1, (2, 1, 6): -1},
        "two pairs sent to one central coordinate": {**without_23, (2, 3, 4): 1, (3, 2, 4): -1},
        "a missing pair": without_23,
        "not antisymmetric": {**f23, (3, 2, 6): 1},
    }
    assert latticezeta.is_free_class2(
        algebra.class2_presentation(algebra.StructureConstantAlgebra("f23", 6, f23)))
    for name, constants in near_misses.items():
        alg = algebra.StructureConstantAlgebra(name, 6, constants)
        pres = algebra.class2_presentation(alg)
        assert pres is not None and not latticezeta.is_free_class2(pres), name
        got = latticezeta.count(alg, 2, 3, "subrings").coefficients
        depth = _brute_depth(6, 2)
        brute = latticezeta._brute_counts(alg, 2, depth, "subrings", latticezeta.DEFAULT_CEILING)
        assert got[:depth + 1] == tuple(brute), name
        with monkeypatch.context() as m:  # the walk eliminates once per M
            m.setattr(latticezeta, "local_elimination", _refuse_walk)
            with pytest.raises(AssertionError, match="walked"):
                latticezeta.count(alg, 2, 3, "subrings")
