import random
from fractions import Fraction

import pytest

from ringzeta import ratfun
from ringzeta.errors import (
    CoverageError,
    LookupError_,
    MalformedInputError,
    NonExpandableError,
)
from ringzeta.poly import Polynomial
from ringzeta.ratfun import (
    XY,
    BivariateRationalFunction,
    expand,
    expand_series,
    funeq_verdict,
    hybrid_funeq_verdict,
    invert_prime,
    zp_factor,
)


def brf(num_terms, den=None, extra=None):
    return BivariateRationalFunction(
        Polynomial(XY, num_terms), den, Polynomial(XY, extra) if extra else None
    )


def test_zp_factor_expansions():
    assert expand(zp_factor(0, 1), 5, 3).coefficients == (1, 1, 1, 1)
    assert expand(zp_factor(1, 1), 3, 3).coefficients == (1, 3, 9, 27)
    # zeta_p(2s-3): nonzero only at even Y-powers, values p^{3m}
    assert expand(zp_factor(3, 2), 2, 4).coefficients == (1, 0, 8, 0, 64)


def test_expand_examples():
    assert expand(ratfun.zeta_zn(2), 3, 2).coefficients == (1, 4, 13)
    assert expand(ratfun.formula_catalog("heisenberg_subring"), 2, 2).coefficients == (1, 3, 19)


def test_expand_requires_invertible_constant_term():
    f = brf({(0, 0): 1}, None, {(0, 1): 1})  # denominator Y
    with pytest.raises(NonExpandableError):
        expand(f, 3, 2)


def test_invert_prime_examples():
    f = zp_factor(0, 1) * zp_factor(1, 1)
    shifted = f * brf({(1, 2): 1})
    assert invert_prime(f) == shifted  # X Y^2 * f
    g = brf({(0, 0): 1, (0, 1): -1}, {(1, 1): 1})  # (1-Y)/(1-XY)
    assert invert_prime(g) == g * brf({(1, 0): 1})  # X * g
    one = BivariateRationalFunction.constant(1)
    assert invert_prime(one) == one


def test_invert_prime_is_an_involution_on_random_functions():
    rng = random.Random(99173)
    for _ in range(200):
        den = {}
        for _ in range(rng.randrange(1, 4)):
            a, b = rng.randrange(0, 4), rng.randrange(1, 4)
            den[(a, b)] = den.get((a, b), 0) + 1
        num = {}
        for _ in range(rng.randrange(1, 5)):
            e = (rng.randrange(-2, 5), rng.randrange(-2, 5))
            num[e] = num.get(e, 0) + rng.choice((-3, -1, 1, 2, 5))
        if not any(num.values()):
            num = {(0, 0): 1}
        f = brf(num, den)
        assert invert_prime(invert_prime(f)) == f


def test_funeq_zeta_zn():
    for n in range(1, 7):
        v = funeq_verdict(ratfun.zeta_zn(n))
        assert v.triple() == ((-1) ** n, n * (n - 1) // 2, n)


def test_funeq_catalog_entries():
    assert funeq_verdict(ratfun.formula_catalog("heisenberg_subring")).triple() == (-1, 3, 3)
    assert funeq_verdict(ratfun.formula_catalog("heisenberg_rep")).triple() == (1, 1, 0)
    assert not funeq_verdict(ratfun.formula_catalog("sl2_two")).has_monomial_equation


def test_funeq_expected_comparison():
    v = funeq_verdict(ratfun.formula_catalog("heisenberg_subring"), (-1, 3, 3))
    assert v.matches_expected
    v = funeq_verdict(ratfun.formula_catalog("heisenberg_subring"), (1, 3, 3))
    assert not v.matches_expected


def test_hybrid_funeq_verdicts():
    assert hybrid_funeq_verdict(
        ratfun.formula_catalog("dusautoy_normal"), (-1, 36, 15)
    ).matches_expected
    assert hybrid_funeq_verdict(
        ratfun.formula_catalog("dusautoy_rep"), (1, 3, 0)
    ).matches_expected
    constant_only = ratfun.PointCountHybrid(
        [("1", None, ratfun.formula_catalog("heisenberg_rep"))]
    )
    assert hybrid_funeq_verdict(constant_only, (1, 1, 0)).matches_expected
    assert not hybrid_funeq_verdict(constant_only, (1, 2, 0)).matches_expected


def _sigma(m):
    return sum(d for d in range(1, m + 1) if m % d == 0)


def test_euler_product_sigma():
    g = ratfun.euler_product(ratfun.zeta_zn(2), 97, 100)
    assert g.coefficients[6] == 12
    for m in range(1, 101):
        assert g.coefficients[m] == _sigma(m)


def test_euler_product_rank_one_and_ideals():
    g = ratfun.euler_product(ratfun.zeta_zn(1), 50, 50)
    assert all(c == 1 for c in g.coefficients[1:])
    h = ratfun.euler_product(ratfun.formula_catalog("heisenberg_ideal"), 50, 50)
    assert h.coefficients[4] == 7


def test_euler_product_multiplicative():
    g = ratfun.euler_product(ratfun.formula_catalog("heisenberg_subring"), 120, 120)
    from math import gcd

    for m in range(2, 121):
        for n in range(2, 121):
            if m * n <= 120 and gcd(m, n) == 1:
                assert g.coefficients[m * n] == g.coefficients[m] * g.coefficients[n]


def test_euler_product_coverage_error():
    with pytest.raises(CoverageError):
        ratfun.euler_product(ratfun.zeta_zn(1), 10, 30)  # 11, 13, ... uncovered


def test_asymptotic_ratio_rank_one():
    g = ratfun.euler_product(ratfun.zeta_zn(1), 200, 200)
    ratios = ratfun.asymptotic_ratio(g, 1, 0, 1.0, samples=[50, 200])
    assert ratios == [(50, 1.0), (200, 1.0)]


def _partitions_at_most(n, d):
    """Partitions of n into at most d parts, by direct recursion."""
    def rec(remaining, parts_left, largest):
        if remaining == 0:
            return 1
        if parts_left == 0:
            return 0
        return sum(
            rec(remaining - size, parts_left - 1, size)
            for size in range(1, min(largest, remaining) + 1)
        )

    return rec(n, d, n)


def test_abelian_pgroup_counts_are_partition_counts():
    for d in range(1, 5):
        coeffs = expand(ratfun.abelian_pgroups(d), 2, 10).coefficients
        for n in range(11):
            assert coeffs[n] == _partitions_at_most(n, d)
    assert expand(ratfun.abelian_pgroups(2), 3, 4).coefficients[4] == 3


def test_sl2_two_golden_values():
    # frozen from an independent series expansion (and re-derived here via sympy)
    frozen = (1, 3, 19, 43)
    assert expand(ratfun.formula_catalog("sl2_two"), 2, 3).coefficients == frozen
    sympy = pytest.importorskip("sympy")
    Y = sympy.symbols("Y")
    expr = (1 + 6 * Y**2 - 8 * Y**3) / (
        (1 - Y) * (1 - 2 * Y) * (1 - 2 * Y**2) * (1 - 4 * Y**2)
    )
    ser = sympy.series(expr, Y, 0, 4).removeO()
    assert tuple(int(sympy.Poly(ser, Y).coeff_monomial(Y**k)) for k in range(4)) == frozen


def test_f23_catalog_against_independent_expansion():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.ring_series import rs_mul, rs_series_inversion

    w23_terms = [
        (0, 0, 1), (3, 2, 1), (4, 2, 1), (5, 2, 1),
        (4, 3, -1), (5, 3, -1), (6, 3, -1),
        (7, 4, -1), (9, 4, -1),
        (10, 5, -1), (11, 5, -1), (12, 5, -1),
        (11, 6, 1), (12, 6, 1), (13, 6, 1),
        (16, 8, 1),
    ]
    den_factors = [(0, 1), (1, 1), (2, 1), (4, 2), (5, 2), (6, 2), (6, 3), (7, 3), (8, 3)]
    prec = 4
    for p in (2, 3):
        R, y = sympy.ring("y", sympy.QQ)
        num = sum(c * p**a * y**b for a, b, c in w23_terms) * (1 - p**8 * y**4)
        den = R(1)
        for a, b in den_factors:
            den *= 1 - p**a * y**b
        ser = rs_mul(num, rs_series_inversion(den, y, prec), y, prec)
        want = tuple(int(ser.coeff(y**k)) for k in range(prec))
        assert expand(ratfun.formula_catalog("f23_subring"), p, 3).coefficients == want


def test_heisenberg_rep_expansion():
    for p in (3, 5):
        coeffs = expand(ratfun.formula_catalog("heisenberg_rep"), p, 3).coefficients
        assert coeffs == (1, p - 1, p * p - p, p**3 - p * p)


def test_catalog_lookup_errors():
    with pytest.raises(LookupError_):
        ratfun.formula_catalog("riemann")
    with pytest.raises(Exception):
        ratfun.formula_catalog("zeta_Zn")  # parameter required


def test_catalog_name_with_parameter_syntax():
    assert ratfun.formula_catalog("zeta_Zn(3)") == ratfun.zeta_zn(3)
    assert "zeta_Zn(n)" in ratfun.formula_names()


def test_rational_equality_by_cross_multiplication():
    # 1/(1-Y) * 1/(1-XY) written with different factor bookkeeping
    a = zp_factor(0, 1) * zp_factor(1, 1)
    b = BivariateRationalFunction(
        Polynomial(XY, {(0, 0): 1}), {(0, 1): 1, (1, 1): 1}
    )
    assert a == b
    assert not (a == zp_factor(0, 1))


def test_expand_series_laurent_numerators():
    # a surviving Y^-1 term cannot be cancelled by the denominator series
    f = brf({(0, -1): 1, (0, 0): -1}, {(0, 1): 1})
    with pytest.raises(NonExpandableError):
        expand_series(f, 2, 3)
    # ... but a negative-Y term whose X-polynomial vanishes at the prime is fine
    g = brf({(1, -1): 1, (0, -1): -2, (0, 0): 1}, {(0, 1): 1})  # (X-2)Y^-1 + 1
    assert expand_series(g, 2, 3) == [Fraction(1)] * 4


def test_y_powers_in_extra_den_are_cleared():
    # each W has a lowest Y-power other than Y^0 in its extra denominator; the
    # second of each pair is the same function written with Y^0 there from
    # the start
    pairs = [
        (brf({(0, 0): 1}, None, {(0, -1): 1, (0, 0): 1}),  # 1/(Y^-1 + 1)
         brf({(0, 1): 1}, None, {(0, 0): 1, (0, 1): 1})),
        (brf({(0, -1): 1}, None, {(0, -1): 1, (1, 0): -1}),  # zeta_p(s - 1)
         zp_factor(1, 1)),
        (brf({(0, 0): 1}, {(0, 1): 1}, {(0, -1): 1}),
         brf({(0, 1): 1}, {(0, 1): 1})),
        (brf({(0, -2): 1, (0, 0): 1}, {(1, 2): 1}, {(1, -2): 1, (0, -1): 1}),
         brf({(0, 0): 1, (0, 2): 1}, {(1, 2): 1}, {(1, 0): 1, (0, 1): 1})),
        (brf({(0, 1): 1}, None, {(0, 1): 1, (0, 2): 1}),  # Y/(Y + Y^2)
         brf({(0, 0): 1}, None, {(0, 0): 1, (0, 1): 1})),
    ]

    def outcome(run):
        try:
            result = run()
        except (NonExpandableError, MalformedInputError, CoverageError) as exc:
            return type(exc)
        return getattr(result, "coefficients", result)

    for w, cleared in pairs:
        assert w == cleared
        for p in (2, 3, 5):
            assert outcome(lambda: expand_series(w, p, 4)) == expand_series(cleared, p, 4)
            assert outcome(lambda: expand(w, p, 4)) == outcome(lambda: expand(cleared, p, 4))
        assert (outcome(lambda: ratfun.euler_product(w, 30, 30))
                == outcome(lambda: ratfun.euler_product(cleared, 30, 30)))
    assert expand_series(pairs[0][0], 2, 4) == [0, 1, -1, 1, -1]
    assert expand(pairs[1][0], 3, 3).coefficients == (1, 3, 9, 27)


def test_global_truncation_requires_unit_leading_coefficient():
    from ringzeta.errors import MalformedInputError

    with pytest.raises(MalformedInputError):
        ratfun.GlobalDirichletTruncation(2, (0, 2, 1))


def test_componentwise_catalog_entries():
    sub = ratfun.formula_catalog("componentwise2_subring")
    assert expand(sub, 3, 3).coefficients == (1, 3, 4, 7)
    ide = ratfun.formula_catalog("componentwise_ideal", 2)
    assert expand(ide, 3, 3).coefficients == (1, 2, 3, 4)


def test_euler_product_accepts_enumerated_local_factors():
    from ringzeta import algebra, latticezeta

    ab2 = algebra.catalog("abelian", 2)

    def provider(p):
        depth = 0
        while p ** (depth + 1) <= 10:
            depth += 1
        return latticezeta.count(ab2, p, depth, "sublattices")

    g = ratfun.euler_product(provider, 10, 10)
    assert [g.coefficients[m] for m in range(1, 11)] == [_sigma(m) for m in range(1, 11)]


def _random_euler_factor(rng):
    """A random W(X, Y) = c0 * g / (extra_den * prod (1 - X^a Y^b)^mult).

    g = 1 + (terms in Y^1, Y^2) keeps a[p^0] = 1 when extra_den = c0 has no
    Y-terms.  The rest probes what expand rejects: Y-terms in extra_den (so
    coefficients like N_k / c0^(k+1) need not be integers), X^-1 terms whose
    coefficient is a primorial (integral only at the primes it covers), and
    Y^-1 terms, (X - 2) Y^-1 vanishing at p = 2 only; c0 = X - 2 vanishes at
    p = 2, and a Y^-1 term in extra_den feeds c0 through the factors.
    """
    c0 = rng.choice(({(0, 0): 1}, {(0, 0): 1}, {(0, 0): 2}, {(0, 0): -1},
                     {(0, 0): 1, (1, 0): 1}, {(1, 0): 1}, {(0, 0): 1, (2, 0): -3},
                     {(0, 0): -2, (1, 0): 1}))
    g = {(0, 0): 1}
    for _ in range(rng.randrange(0, 3)):
        g[(rng.randrange(0, 3), rng.randrange(1, 3))] = rng.choice((-2, -1, 1, 2))
    if rng.random() < 0.2:
        g[(-1, rng.randrange(1, 3))] = rng.choice((1, 2, 6, 30))
    if rng.random() < 0.2:
        g.update(rng.choice(({(0, -1): 1}, {(1, -1): 1, (0, -1): -2})))
    extra = dict(c0)
    if rng.random() < 0.2:
        extra[(rng.randrange(0, 2), rng.randrange(-1, 3) or 1)] = rng.choice((-1, 1))
    den = {}
    for _ in range(rng.randrange(1, 4)):
        den[(rng.randrange(0, 3), rng.randrange(1, 4))] = rng.randrange(1, 3)
    num = Polynomial(XY, c0) * Polynomial(XY, g)
    return BivariateRationalFunction(num, den, Polynomial(XY, extra))


def test_euler_product_expands_once_matches_per_prime_expand():
    rng = random.Random(20261018)

    def depth(p, bound):
        k = 0
        while p ** (k + 1) <= bound:
            k += 1
        return k

    def outcome(factor, N):
        try:
            return ratfun.euler_product(factor, N, N).coefficients
        except (NonExpandableError, MalformedInputError, CoverageError) as exc:
            return type(exc)  # the class is the outcome

    values = errors = 0
    for _ in range(150):
        f = _random_euler_factor(rng)
        N = rng.choice((1, 2, 3, 6, 7, 30, rng.randrange(8, 300), rng.randrange(8, 300)))
        once = outcome(f, N)
        per_prime = outcome(lambda p: ratfun.expand(f, p, depth(p, N)), N)
        assert once == per_prime, (f, N)
        values += isinstance(once, tuple)
        errors += once is NonExpandableError
    assert values >= 40 and errors >= 1, (values, errors)
