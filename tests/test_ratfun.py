import math
import random
from collections import Counter
from decimal import Decimal
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


def _largest_prime_factor(m):
    largest, d = 1, 2
    while m > 1:
        while m % d == 0:
            largest, m = d, m // d
        d += 1
    return largest


def test_euler_product_coverage_error():
    # every m <= 28 is 23-smooth; 11 is the least index 10 leaves uncovered
    assert ratfun.euler_product(ratfun.zeta_zn(1), 24, 28).coefficients == (0,) + (1,) * 28
    with pytest.raises(CoverageError, match=r"^index 11 has prime factor 11 > 10$"):
        ratfun.euler_product(ratfun.zeta_zn(1), 10, 30)
    # the error names the least index that is not P-smooth, exactly when one exists
    for P in range(0, 30):
        for B in range(0, 45, 3):
            rough = [m for m in range(2, B + 1) if _largest_prime_factor(m) > P]
            try:
                g = ratfun.euler_product(ratfun.zeta_zn(2), P, B)
            except CoverageError as exc:
                assert rough and str(exc) == f"index {rough[0]} has prime factor {rough[0]} > {P}"
            else:
                assert not rough and len(g.coefficients) == B + 1, (P, B)


def test_euler_product_assembly_matches_trial_division():
    # callable local factors with zero and negative coefficients, against
    # a_m = prod over p^v || m of a_p[v] with m factored by trial division;
    # primes_up_to above the bound adds primes of depth 0
    rng = random.Random(4099)
    for bound, primes_up_to in ((0, 0), (1, 5), (2, 2), (12, 12), (97, 130), (720, 720),
                                (1999, 1999), (2048, 2100)):
        table = {}

        def factor(p):
            if p not in table:
                table[p] = ratfun.LocalDirichletTruncation(
                    p, (1, *(rng.choice((-3, -1, 0, 0, 1, 2, 7)) for _ in range(11))))
            return table[p]

        g = ratfun.euler_product(factor, primes_up_to, bound)
        assert sorted(table) == [p for p in range(2, primes_up_to + 1)
                                 if _largest_prime_factor(p) == p]
        want = [0] + [1] * bound
        for m in range(2, bound + 1):
            rest, d = m, 2
            while rest > 1:
                v = 0
                while rest % d == 0:
                    rest, v = rest // d, v + 1
                want[m] *= table[d].coefficients[v] if v else 1
                d += 1
        assert g.coefficients == tuple(want), bound
        if bound >= 12:
            assert 0 in want[2:] and min(want) < 0
    # every prime of depth >= 1 is too shallow; the least one is named
    shallow = lambda p: ratfun.LocalDirichletTruncation(p, (1,))  # noqa: E731
    with pytest.raises(CoverageError, match=r"^local factor at p=2 too shallow \(0 < 2\)$"):
        ratfun.euler_product(shallow, 5, 5)


def test_euler_product_band_errors_match_per_prime_expand():
    # the same class and message as expand at the first failing prime, with
    # bounds that give at least three bands of primes of one depth
    rng = random.Random(6007)

    def outcome(factor, P, N):
        try:
            return ratfun.euler_product(factor, P, N).coefficients
        except (NonExpandableError, MalformedInputError, CoverageError) as exc:
            return type(exc), str(exc)

    kinds = set()
    for _ in range(200):
        f = _random_euler_factor(rng)
        N = rng.randrange(27, 400)
        P = rng.choice((N, N + rng.randrange(1, 60)))
        once = outcome(f, P, N)
        per_prime = outcome(lambda p: expand(f, p, max(k for k in range(12) if p**k <= N)), P, N)
        assert once == per_prime, (f, P, N)
        kinds.add(once[0] if isinstance(once[0], type) else tuple)
    assert kinds == {tuple, NonExpandableError, MalformedInputError}, kinds


def test_euler_product_expands_each_band_that_holds_a_prime_once(monkeypatch):
    # one denominator, at the deepest order, for the whole product, and one
    # series division for each of the 8 depths that the primes up to 10^5
    # take (16 for p = 2 down to 1 above 316) out of the 17 depths 0..16
    orders, depths = [], []
    denominator, series = ratfun._denominator, ratfun._series
    monkeypatch.setattr(ratfun, "_denominator",
                        lambda f, order: orders.append(order) or denominator(f, order))
    monkeypatch.setattr(ratfun, "_series",
                        lambda f, primes, K, den=None: depths.append(K) or series(f, primes, K, den))
    f = ratfun.formula_catalog("heisenberg_subring")
    ratfun.euler_product(f, 10**5, 10**5)
    assert orders == [16] and depths == [16, 10, 7, 5, 4, 3, 2, 1]


def _running_ratios(g, alpha, b, c, samples):
    """asymptotic_ratio by one running sum over every m <= bound."""
    import math

    out, running, want = [], 0, sorted(set(samples))
    for m in range(1, g.bound + 1):
        running += g.coefficients[m]
        if m in want:
            denom = c * m**alpha * (math.log(m) ** b if b else 1.0)
            out.append((m, running / denom if denom else float("inf")))
    return out


def test_asymptotic_ratio_rank_one():
    g = ratfun.euler_product(ratfun.zeta_zn(1), 200, 200)
    ratios = ratfun.asymptotic_ratio(g, 1, 0, 1.0, samples=[50, 200])
    assert ratios == [(50, 1.0), (200, 1.0)]
    # duplicates count once; samples outside 1..bound are left out
    h = ratfun.euler_product(ratfun.formula_catalog("heisenberg_subring"), 1000, 1000)
    for samples in ([], [1], [1000, 7, 7, 1, 999], [-3, 0, 5, 5, 1001, 10**6, 640],
                    list(range(0, 1002, 37))):
        for args in ((1.5, 1, 0.5), (2, 0, 0.0)):
            assert ratfun.asymptotic_ratio(h, *args, samples=samples) == _running_ratios(
                h, *args, samples)
    default = [10, 100, 1000]
    assert ratfun.asymptotic_ratio(h, 2, 0, 1.0) == _running_ratios(h, 2, 0, 1.0, default)


def _random_uniform_factor(rng):
    """A random W = g / prod (1 - X^a Y^b)^mult with g = 1 + integer terms in
    Y^1..Y^3: the Y^0 coefficient of its series is 1 and the Y^1 coefficient
    an integer polynomial, the shape partial_sums sums without the array.  A
    quarter of them get an X^-1 Y^2 term with coefficient 6, so a_{p^2} is
    not an integer at the primes p > 3."""
    g = {(0, 0): 1}
    for _ in range(rng.randrange(0, 4)):
        g[(rng.randrange(0, 4), rng.randrange(1, 4))] = rng.choice((-3, -1, 1, 2, 5))
    if rng.random() < 0.25:
        g[(-1, 2)] = 6
    den = {}
    for _ in range(rng.randrange(0, 4)):
        den[(rng.randrange(0, 4), rng.randrange(1, 4))] = rng.randrange(1, 3)
    return BivariateRationalFunction(Polynomial(XY, g), den)


def _near_uniform_factor(rng):
    """A uniform factor with one condition of the shape broken: a Y^0 part
    of the denominator other than 1, a Y^1 coefficient (1 + X) / 2, integral
    only at the odd primes, or 6 X^-1 Y, integral only at 2 and 3, or a Y^-1
    term in the numerator."""
    f = _random_uniform_factor(rng)
    extra, num = {(0, 0): 1}, {}
    kind = rng.randrange(4)
    if kind == 0:
        extra = rng.choice(({(0, 0): 2}, {(0, 0): 1, (1, 0): 1}, {(0, 0): -1, (0, 1): 1}))
    elif kind == 1:
        num = {(0, 1): Fraction(1, 2), (1, 1): Fraction(1, 2)}
    elif kind == 2:
        num = {(-1, 1): 6}
    else:
        num = {(0, -1): 1}
    g = BivariateRationalFunction(Polynomial(XY, num), f.den_factors) + f
    return g * BivariateRationalFunction(1, None, Polynomial(XY, extra))


def test_partial_sums_match_the_coefficient_array(monkeypatch):
    # seeded: uniform factors, summed from the prime sums and the small
    # primes, and other shapes (`_random_euler_factor`, and uniform factors
    # with one condition broken), summed from euler_product; the same sums,
    # or the same error class and message, as summing the array, at bounds
    # 0, 1, 2, p^2 - 1, p^2, prime powers and 10^k, with samples off the
    # tables of the bound; a uniform factor sieves no prime above sqrt(N)
    rng = random.Random(24601)
    sieved = []
    sieve = ratfun._primes_up_to
    monkeypatch.setattr(ratfun, "_primes_up_to", lambda n: sieved.append(n) or sieve(n))
    monkeypatch.setattr(Polynomial, "evaluate", None)  # ratfun must not call it
    bounds = (0, 1, 2, 3, 8, 24, 25, 48, 49, 120, 121, 125, 243, 256, 360, 361, 1000, 10**4)
    seen = Counter()

    def outcome(run):
        try:
            return run()
        except (NonExpandableError, MalformedInputError, CoverageError) as exc:
            return type(exc), str(exc)

    for i in range(400):
        f = (_random_uniform_factor, _random_euler_factor, _near_uniform_factor)[i % 4 % 3](rng)
        N = rng.choice(bounds)
        P = rng.choice((N, N + rng.randrange(1, 50), max(0, N - rng.randrange(1, 50)),
                        rng.randrange(0, 20)))
        samples = {N, N // 2, min(N, N // 3 + 1), rng.randrange(0, N + 1),
                   *ratfun.asymptotic_samples(N)}

        def from_array():
            coefficients = ratfun.euler_product(f, P, N).coefficients
            return {x: sum(coefficients[: x + 1]) for x in samples}

        want = outcome(from_array)
        sieved.clear()
        got = outcome(lambda: ratfun.partial_sums(f, P, samples))
        assert got == want, (f, P, N, samples)
        uniform = ratfun._prime_polynomial(f) is not None
        if uniform:
            assert max(sieved, default=0) <= math.isqrt(N), (f, N, sieved)
        seen[uniform, want[0].__name__ if isinstance(want, tuple) else "sums"] += 1
    assert all(seen[True, kind] >= 10 for kind in ("sums", "CoverageError", "NonExpandableError"))
    assert all(seen[False, kind] >= 10 for kind in
               ("sums", "CoverageError", "NonExpandableError", "MalformedInputError")), seen


def test_partial_sums_far_past_the_array():
    # sigma(m) summed as sum_d d * (N // d), and the Heisenberg subring sum
    # at 10^7, pinned from the coefficient array (7.9 s to build); every
    # power of ten is read off the one table at 10^7
    N = 10**6
    assert ratfun.partial_sums(ratfun.zeta_zn(2), N, [N]) == {
        N: sum(d * (N // d) for d in range(1, N + 1))}
    sums = ratfun.partial_sums(ratfun.formula_catalog("heisenberg_subring"), 10**7,
                               ratfun.asymptotic_samples(10**7))
    assert sums[10**7] == 908139225448740
    array = ratfun.euler_product(ratfun.formula_catalog("heisenberg_subring"), 10**4, 10**4)
    assert [sums[10**k] for k in range(1, 5)] == [
        sum(array.coefficients[: 10**k + 1]) for k in range(1, 5)]


def test_asymptotic_ratio_past_the_float_range():
    # the ratio is the float quotient wherever that is finite; past the
    # float range it is taken in Decimal, and it is a Decimal where it does
    # not fit a float
    sums = {10: 10**400, 100: 3}
    (_, huge), (_, small) = ratfun.asymptotic_ratio(sums, 1, 0, 1.0)
    assert isinstance(huge, Decimal) and huge == Decimal(10) ** 399
    assert small == 3 / 100
    # 1e300 * 10.0^10 overflows to inf, where the ratio is 1e-5
    assert math.isclose(ratfun.asymptotic_ratio({10: 10**305}, 10, 0, 1e300)[0][1], 1e-5)
    # 100.0^-400 underflows to 0.0, where the ratio is finite
    assert ratfun.asymptotic_ratio(sums, -400, 0, 1.0, samples=[100]) == [(100, Decimal("3E800"))]
    assert ratfun.asymptotic_ratio(sums, 400, 0, 1.0) == [(10, 1.0), (100, 0.0)]
    assert ratfun.asymptotic_ratio({1: 1}, 1, -1, 1.0) == [(1, 0.0)]  # (log 1)^-1 is infinite
    assert ratfun.asymptotic_ratio({1: 1}, 1, 1, 1.0) == [(1, math.inf)]
    for bad in (math.inf, -math.inf, math.nan):
        for args in ((bad, 0, 1.0), (1, bad, 1.0), (1, 0, bad)):
            with pytest.raises(MalformedInputError, match="finite"):
                ratfun.asymptotic_ratio(sums, *args)


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


def test_catalog_formula_without_parameter_refuses_one():
    for call in (lambda: ratfun.formula_catalog("heisenberg_subring(7)"),
                 lambda: ratfun.formula_catalog("dusautoy_rep", 2)):
        with pytest.raises(MalformedInputError, match="takes no parameter"):
            call()
    with pytest.raises(LookupError_):
        ratfun.formula_catalog("riemann(2)")


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


def _at_x(poly, p):
    """poly at X = p, as a Laurent polynomial in Y alone, term by term."""
    out = Polynomial(("Y",))
    for (ex, ey), c in poly.terms.items():
        out = out + Polynomial(("Y",), {(ey,): c * Fraction(p) ** ex})
    return out


def test_expand_series_times_the_denominator_is_the_numerator():
    # an oracle that runs no series division: where expansion succeeds, the
    # series times the denominator at X = p is the numerator at X = p up to
    # Y^K; NonExpandableError comes exactly where d_0(p) = 0 under a nonzero
    # numerator, or where the numerator at X = p keeps a negative Y-power;
    # a quarter of the factors get d_0 = 0 at one of the primes
    rng = random.Random(7919)
    seen = Counter()
    for _ in range(300):
        f = _random_euler_factor(rng)
        if rng.random() < 0.25:
            q = rng.choice((2, 3, 5, 7))
            f = f * BivariateRationalFunction(1, None, Polynomial(XY, {(0, 0): -q, (1, 0): 1}))
        K = rng.randrange(0, 7)
        for p in (2, 3, 5, 7):
            num = _at_x(f.num, p)
            den = _at_x(f.extra_den, p)
            for (a, b), mult in f.den_factors.items():
                for _ in range(mult):
                    den = den * Polynomial(("Y",), {(0,): 1, (b,): -(p**a)})
            vanishing = bool(num.terms) and (0,) not in den.terms
            negative = bool(num.terms) and min(num.terms)[0] < 0
            try:
                series = expand_series(f, p, K)
            except NonExpandableError:
                assert vanishing or negative, (f, p, K)
                seen["vanishing" if vanishing else "negative"] += 1
                continue
            assert not (vanishing or negative), (f, p, K)
            product = Polynomial(("Y",), {(k,): c for k, c in enumerate(series)}) * den
            assert ({e: c for e, c in product.terms.items() if e[0] <= K}
                    == {e: c for e, c in num.terms.items() if e[0] <= K}), (f, p, K)
            seen["expanded"] += 1
    assert seen["expanded"] >= 600 and seen["vanishing"] >= 10 and seen["negative"] >= 10, seen


def test_ratfun_never_calls_polynomial_evaluate(monkeypatch):
    # the benchmark's tracer counts every Polynomial.evaluate call as an Igusa
    # point, so expanding a catalog factor must not make one
    calls = []
    evaluate = Polynomial.evaluate
    monkeypatch.setattr(Polynomial, "evaluate",
                        lambda self, point: calls.append(point) or evaluate(self, point))
    rational = [f for f in (ratfun.formula_catalog(name.replace("(n)", "(3)"))
                            for name in ratfun.formula_names())
                if isinstance(f, BivariateRationalFunction)]
    assert len(rational) >= 10
    for f in rational:
        ratfun.euler_product(f, 300, 300)
        for p in (2, 3, 5):
            expand(f, p, 6)
    assert calls == []
    assert Polynomial(XY, {(1, 0): 2}).evaluate((3, 0)) == 6 and calls == [(3, 0)]
