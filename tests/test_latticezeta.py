import random
from itertools import permutations, product

import pytest

from ringzeta import algebra, latticezeta
from ringzeta.errors import MalformedInputError, ResourceGuardError
from ringzeta.latticezeta import HermiteSublattice, contains


def lat(p, rows):
    return HermiteSublattice(p, len(rows), tuple(tuple(r) for r in rows))


def test_enumeration_count_matches_generating_function():
    for n in range(1, 6):
        for p in (2, 3):
            for k in range(4):
                lattices = list(latticezeta.enumerate_sublattices(n, p, k))
                assert len(lattices) == latticezeta.sublattice_count_prediction(n, p, k)
                assert len({l.rows for l in lattices}) == len(lattices)


def test_enumeration_small_examples():
    got = {l.rows for l in latticezeta.enumerate_sublattices(2, 2, 1)}
    assert got == {((2, 0), (0, 1)), ((1, 0), (0, 2)), ((1, 1), (0, 2))}
    assert len(list(latticezeta.enumerate_sublattices(2, 2, 2))) == 7
    only = list(latticezeta.enumerate_sublattices(4, 3, 0))
    assert len(only) == 1 and only[0].index() == 1


def test_canonical_form_validation():
    with pytest.raises(MalformedInputError):
        lat(2, [[2, 2], [0, 1]])  # entry not reduced mod column diagonal
    with pytest.raises(MalformedInputError):
        lat(2, [[3, 0], [0, 1]])  # diagonal not a power of p
    with pytest.raises(MalformedInputError):
        lat(2, [[2, 0], [1, 1]])  # not upper triangular


def test_contains_examples():
    l1 = lat(2, [[2, 0], [0, 1]])
    assert contains(l1, (2, 5))
    assert not contains(l1, (1, 0))
    l2 = lat(2, [[2, 1], [0, 4]])
    assert contains(l2, (4, 2))  # coefficients (2, 0)
    assert not contains(l2, (2, 0))


def test_is_subring_heisenberg_divisibility():
    heis = algebra.catalog("heisenberg")
    assert latticezeta.is_subring(heis, lat(2, [[2, 0, 0], [0, 2, 0], [0, 0, 4]]))
    assert not latticezeta.is_subring(heis, lat(2, [[2, 0, 0], [0, 2, 0], [0, 0, 8]]))
    # the closure condition is exactly M33 | M11*M22, on every index p^k lattice
    for k in range(4):
        for l in latticezeta.enumerate_sublattices(3, 2, k):
            expected = (l.rows[0][0] * l.rows[1][1]) % l.rows[2][2] == 0
            assert latticezeta.is_subring(heis, l) == expected


def test_is_subring_trivial_cases():
    ab = algebra.catalog("abelian", 3)
    for l in latticezeta.enumerate_sublattices(3, 2, 2):
        assert latticezeta.is_subring(ab, l)
    heis = algebra.catalog("heisenberg")
    assert latticezeta.is_subring(heis, lat(5, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_is_ideal_heisenberg_divisibility():
    heis = algebra.catalog("heisenberg")
    assert latticezeta.is_ideal(heis, lat(2, [[4, 0, 0], [0, 2, 0], [0, 0, 2]]))
    assert not latticezeta.is_ideal(heis, lat(2, [[2, 0, 0], [0, 2, 0], [0, 0, 4]]))
    # bracketing the generators with x and y shows the closure condition is
    # M33 | M11, M33 | M22 and also M33 | M12 (the last is vacuous only for
    # diagonal matrices)
    for k in range(4):
        for l in latticezeta.enumerate_sublattices(3, 2, k):
            m33 = l.rows[2][2]
            expected = (
                l.rows[0][0] % m33 == 0
                and l.rows[1][1] % m33 == 0
                and l.rows[0][1] % m33 == 0
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


def _sl2_valuation_conditions(l):
    """Independent closure test for the traceless-matrix ring at odd p, straight
    from the three valuation inequalities (v_p(0) = +infinity)."""
    M11, M12, M13 = l.rows[0]
    M22, M23 = l.rows[1][1], l.rows[1][2]
    M33 = l.rows[2][2]

    def v_le(a, b):
        # v_p(a) <= v_p(b), exact integer version
        if b == 0:
            return True
        if a == 0:
            return False
        p = l.p
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
            l = lat(p, rows)
            assert latticezeta.is_subring(sl2, l) == _sl2_valuation_conditions(l)
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
    # the search counts the candidate rows it tests
    heis = algebra.catalog("heisenberg")
    with pytest.raises(ResourceGuardError) as err:
        latticezeta.count(heis, 2, 3, "subrings", ceiling=10)
    assert err.value.ceiling == 10
    # sl2 at p=3, K=5 takes 1,097 nodes, row-0 solves included (a loop over
    # row 0's tails visited 112,377)
    sl2 = algebra.catalog("sl2")
    latticezeta.count(sl2, 3, 5, "subrings", ceiling=1097)
    with pytest.raises(ResourceGuardError):
        latticezeta.count(sl2, 3, 5, "subrings", ceiling=1096)


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


def _is_triangular(alg, mode, order):
    pos = {c + 1: t for t, c in enumerate(order)}
    low = {"subrings": min, "ideals": max}.get(mode)
    return sorted(order) == list(range(alg.rank)) and (
        low is None or all(pos[k] >= low(pos[a], pos[b]) for a, b, k in alg.constants)
    )


def test_count_matches_brute_enumeration_on_random_triangular_rings():
    rng = random.Random(496)
    searched = {mode: 0 for mode in latticezeta.MODES}
    for trial in range(90):
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
            got = latticezeta.count(alg, p, K, mode)
            assert got.coefficients == tuple(brute), (trial, n, p, K, mode, alg.flags, alg.constants)
    assert min(searched.values()) >= 40, searched


def test_scaled_solutions_mod_matches_brute_force():
    from ringzeta.exactlinalg import scaled_solutions_mod

    rng = random.Random(3511)
    kinds = set()
    for _ in range(400):
        p, E = rng.choice(((2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)))
        q = p**E
        ncols = rng.randrange(0, 4)
        while q**ncols > 4096:
            ncols -= 1
        # entries often divisible by p, so pivots of every valuation occur
        draw = lambda: rng.choice((0, 1, p, p * p, rng.randrange(-q - 3, q + 4)))
        rows = [[draw() for _ in range(ncols)] for _ in range(rng.randrange(0, 5))]
        rhs = [draw() for _ in rows]
        solutions, least = scaled_solutions_mod(rows, rhs, ncols, p, E)
        for s in range(E + 2):
            expected = sum(
                all((sum(a * v for a, v in zip(row, x)) - p**s * b) % q == 0
                    for row, b in zip(rows, rhs))
                for x in product(range(q), repeat=ncols)
            )
            assert (solutions if s >= least else 0) == expected, (rows, rhs, ncols, p, E, s)
            kinds.add((expected == 0, 1 < expected < q**ncols))
        kinds.add(("unsolvable unscaled", least > 0))
    assert kinds == {(True, False), (False, True), (False, False),
                     ("unsolvable unscaled", True), ("unsolvable unscaled", False)}


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
            "no products": 0, "none pass": 0, "some pass": 0}

    def checked(alg, rows, p, E, rights, lefts):
        passing, least = solve(alg, rows, p, E, rights, lefts)
        n = len(rows)
        test = latticezeta.is_subring if mode == "subrings" else latticezeta.is_ideal
        tails = list(product(*(range(rows[j][j]) for j in range(1, n))))
        units = latticezeta._unit_vectors(n)
        images = [
            [algebra.multiply(alg, e, x) for x in rights]
            + [algebra.multiply(alg, x, e) for x in lefts]
            for e in units
        ]
        # coordinate 0 of a tested product never reads the tail, so c is
        # coordinate 0 of the product with e_0 and always an integer
        assert not any(prod[0] for image in images[1:] for prod in image)
        top = max((rows[j][j] for j in range(1, n)), default=1)
        for m in range(K - E + 1):
            expected = sum(
                test(alg, HermiteSublattice._trusted(p, n, ((p**m,) + t,) + tuple(rows[1:])))
                for t in tails
            )
            assert (passing if m >= least else 0) == expected, (alg.constants, mode, rows, m)
            seen["leaves"] += 1
            seen["Q above max m_j"] += p == 2 and top < p ** _exponent_of_quotient(rows, p)
            seen["c != 0"] += any(prod[0] for prod in images[0])
            seen["left products"] += bool(lefts)
            seen["no products"] += not rights and not lefts
            seen["none pass"] += expected == 0
            seen["some pass"] += 0 < expected < len(tails)
        return passing, least

    monkeypatch.setattr(latticezeta, "_solve_pays", lambda *args: True)
    monkeypatch.setattr(latticezeta, "_row0_counts", checked)
    cases = [(algebra.catalog("abelian", n), "ideals", 2) for n in (1, 3)]
    cases.append((algebra.catalog("sl2"), "subrings", 2))
    for trial in range(70):
        mode = rng.choice(("subrings", "ideals"))
        n = rng.randrange(2, 5)
        alg = _random_triangular_ring(rng, n, mode)
        if mode == "subrings" and "antisymmetric" not in alg.flags:
            continue
        cases.append((alg, mode, rng.choice((2, 2, 3))))
    for alg, mode, p in cases:
        if latticezeta._search_order(alg, mode) is None:
            continue
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
    # testing every row instead: 4 + 4*1 + 3*5 + 2*25 + 1*125 = 198 nodes
    monkeypatch.setattr(latticezeta, "_solve_pays", lambda *args: False)
    assert latticezeta.count(cw2, 5, 3, "ideals", ceiling=198).coefficients == expected
    with pytest.raises(ResourceGuardError):
        latticezeta.count(cw2, 5, 3, "ideals", ceiling=197)
