import random
from fractions import Fraction

import pytest

from ringzeta import algebra, igusa, latticezeta, ratfun
from ringzeta.errors import MalformedInputError, ResourceGuardError
from ringzeta.igusa import (
    parse_polynomial,
    poincare_counts,
    theorem3d_form,
    theorem3d_zeta,
    zf_series_from_poincare,
)


def test_parser():
    f = parse_polynomial("y^2 - x^3 + x")
    assert f.variables == ("x", "y")
    assert f.terms == {(0, 2): 1, (3, 0): -1, (1, 0): 1}
    g = parse_polynomial("(a + b)^2 - 2*a*b")
    assert g.terms == {(2, 0): 1, (0, 2): 1}
    assert parse_polynomial("-x + 3").terms == {(1,): -1, (0,): 3}
    with pytest.raises(MalformedInputError):
        parse_polynomial("x + ")
    with pytest.raises(MalformedInputError):
        parse_polynomial("(x + 1")
    with pytest.raises(MalformedInputError):
        parse_polynomial("x ^ y")


def test_poincare_examples():
    f = parse_polynomial("x")
    assert poincare_counts(f, 3, 2).counts == (1, 1, 1)
    f2 = parse_polynomial("x^2")
    assert poincare_counts(f2, 3, 2).counts == (1, 1, 3)
    ec = parse_polynomial("y^2 - x^3 + x")
    assert poincare_counts(ec, 5, 1).counts == (1, 7)


def test_poincare_monotonicity():
    for expr, p in (("x^2 + y^2", 3), ("x*y", 2), ("x^2 - 2*y^2", 5)):
        f = parse_polynomial(expr)
        pc = poincare_counts(f, p, 3)
        for m in range(pc.depth):
            assert pc.counts[m + 1] <= p ** len(f.variables) * pc.counts[m]


def test_poincare_guard():
    # the guard bounds the walk: the p^n points mod p, refused before any is
    # evaluated, plus each singular node lifted
    with pytest.raises(ResourceGuardError) as err:
        poincare_counts(parse_polynomial("x + y + z"), 101, 4, guard=10**6)
    assert err.value.predicted == 101**3
    # x^2 mod 3: 3 points, then the nodes 0 mod 3, {0, 3, 6} mod 9, {0, 9, 18} mod 27
    f = parse_polynomial("x^2")
    assert poincare_counts(f, 3, 4, guard=10).counts == (1, 1, 3, 3, 9)
    with pytest.raises(ResourceGuardError):
        poincare_counts(f, 3, 4, guard=9)


def _random_polynomial(rng, p, n):
    """Up to four terms of total degree <= 3; coefficients often divisible by p,
    and sometimes a whole multiple of p, so singular zeros are common."""
    terms = {}
    for _ in range(rng.randrange(0, 5)):
        exp = [0] * n
        for _ in range(rng.randrange(0, 4)):
            exp[rng.randrange(n)] += 1
        terms[tuple(exp)] = rng.choice((1, -1, 2, 3, p, -p, 2 * p, p * p))
    scale = rng.choice((1, 1, 1, p))
    return igusa.IntegerPolynomial(("x", "y", "z")[:n], {e: scale * c for e, c in terms.items()})


def test_lifted_counts_match_brute_force():
    # Hensel lifting over the singular tree against the walk over all points
    xyz = ("x1", "x2", "x3")
    cases = [
        (parse_polynomial("0", variables=xyz[:n]), p, M)
        for n in (1, 2, 3) for p, M in ((2, 4), (3, 3), (5, 2))
    ]
    cases += [
        (parse_polynomial("7", variables=xyz[:n]), 7 if n == 1 else 2, 2) for n in (1, 2)
    ]
    cases += [
        (parse_polynomial(expr, variables=names), p, M)
        for expr, names, p, M in (
            ("x^2", ("x",), 2, 4), ("x^2", ("x",), 3, 4), ("4*x^2", ("x",), 2, 4),
            ("x*y", ("x", "y"), 2, 4), ("x*y", ("x", "y"), 5, 3),
            ("x3^2", xyz, 2, 4), ("x3^2", xyz, 5, 2),
            ("x3^2 + 4*x1*x2", xyz, 2, 4), ("x3^2 + 4*x1*x2", xyz, 3, 3),
            ("y^2 - x^3 + x", ("x", "y"), 3, 4),
        )
    ]
    rng = random.Random(51017)
    while len(cases) < 240:
        p, n, M = rng.choice((2, 3, 5)), rng.randint(1, 3), rng.randint(1, 4)
        if p ** (n * M) <= 20000:
            cases.append((_random_polynomial(rng, p, n), p, M))
    deep = 0
    for f, p, M in cases:
        fast = poincare_counts(f, p, M).counts
        assert fast == igusa._brute_poincare_counts(f, p, M).counts, (f, p, M)
        deep += fast[-1] > 0 and M >= 2
    assert deep >= 60


def test_zf_series_examples():
    p = 3
    f = parse_polynomial("x")
    z = zf_series_from_poincare(poincare_counts(f, p, 3), 1)
    assert z == [Fraction(p - 1, p) * Fraction(1, p**m) for m in range(3)]
    one = parse_polynomial("1")
    z = zf_series_from_poincare(poincare_counts(one, p, 3), 1)
    assert z == [Fraction(1), Fraction(0), Fraction(0)]
    zero = parse_polynomial("0", variables=("x",))
    z = zf_series_from_poincare(poincare_counts(zero, p, 3), 1)
    assert z == [Fraction(0)] * 3


def test_poincare_series_relation():
    # (1 - t * Z(t)) / (1 - t) reproduces the partial sums of P_f
    for expr, p, n in (("x^2", 3, 1), ("x*y", 2, 2), ("y^2 - x^3 + x", 3, 2)):
        f = parse_polynomial(expr)
        pc = poincare_counts(f, p, 3)
        z = zf_series_from_poincare(pc, n)
        partial = igusa.poincare_partial_sums(pc, n)
        # coefficient m of (1-t)P: P_m - P_{m-1} must equal -z_{m-1} for m >= 1
        for m in range(1, pc.depth):
            assert partial[m] - partial[m - 1] == -z[m - 1]


def test_monomial_closed_form_examples():
    f = igusa.monomial_closed_form((1,))
    # (X - 1)/(X - Y): frozen small expansion at p = 5
    assert ratfun.expand_series(f, 5, 2) == [Fraction(4, 5), Fraction(4, 25), Fraction(4, 125)]
    assert igusa.monomial_closed_form(()) == ratfun.BivariateRationalFunction.constant(1)
    assert igusa.monomial_closed_form((0, 0)) == ratfun.BivariateRationalFunction.constant(1)


def test_monomial_closed_form_matches_poincare():
    for exps in ((1,), (2,), (3,), (1, 1), (2, 1)):
        nvars = len(exps)
        names = "xyz"[:nvars]
        expr = "*".join(f"{v}^{e}" if e > 1 else v for v, e in zip(names, exps) if e)
        f = parse_polynomial(expr, variables=tuple(names))
        closed = igusa.monomial_closed_form(exps)
        for p in (2, 3, 5):
            depth = 3
            pc = poincare_counts(f, p, depth + 1)
            want = zf_series_from_poincare(pc, nvars)
            got = ratfun.expand_series(closed, p, depth)
            assert got == want[: depth + 1]


def test_theorem3d_forms():
    assert theorem3d_form(algebra.catalog("abelian", 3)).is_zero()
    heis_f = theorem3d_form(algebra.catalog("heisenberg"))
    assert heis_f.to_polynomial().terms == {(0, 0, 2): 1}
    sl2_f = theorem3d_form(algebra.catalog("sl2"))
    assert sl2_f.to_polynomial().terms == {(0, 0, 2): 1, (1, 1, 0): 4}
    scaled = theorem3d_form(algebra.scale(algebra.catalog("heisenberg"), 3, 1))
    assert scaled.to_polynomial().terms == {(0, 0, 2): 3}


def test_theorem3d_form_equivalence_invariance():
    # the catalog's x3^2 + 4 x1 x2 and the sign-flipped x3^2 - 4 x1 x2 are
    # equivalent forms: identical congruence counts
    plus = theorem3d_form(algebra.catalog("sl2")).to_polynomial()
    minus = parse_polynomial("x3^2 - 4*x1*x2", variables=("x1", "x2", "x3"))
    for p in (2, 3, 5):
        assert poincare_counts(plus, p, 2).counts == poincare_counts(minus, p, 2).counts
    # a permuted Heisenberg basis gives an equivalent form as well
    permuted = algebra.StructureConstantAlgebra(
        "heis-located", 3, {(2, 3, 1): 1, (3, 2, 1): -1}, ("antisymmetric", "lie")
    )
    fperm = theorem3d_form(permuted).to_polynomial()
    fstd = theorem3d_form(algebra.catalog("heisenberg")).to_polynomial()
    for p in (3, 5):
        assert poincare_counts(fperm, p, 2).counts == poincare_counts(fstd, p, 2).counts


def test_theorem3d_form_requires_rank3_antisymmetric():
    with pytest.raises(MalformedInputError):
        theorem3d_form(algebra.catalog("abelian", 4))
    with pytest.raises(MalformedInputError):
        theorem3d_form(algebra.catalog("componentwise", 3))


def test_theorem3d_zeta_three_way():
    heis = algebra.catalog("heisenberg")
    got = theorem3d_zeta(heis, 3, 0, 2)
    assert got.coefficients == (1, 4, 49)
    assert got.coefficients == ratfun.expand(
        ratfun.formula_catalog("heisenberg_subring"), 3, 2
    ).coefficients
    assert got.coefficients == latticezeta.count(heis, 3, 2, "subrings").coefficients
    sl2 = algebra.catalog("sl2")
    assert (
        theorem3d_zeta(sl2, 3, 0, 2).coefficients
        == ratfun.expand(ratfun.formula_catalog("sl2_odd"), 3, 2).coefficients
    )
    ab3 = algebra.catalog("abelian", 3)
    assert (
        theorem3d_zeta(ab3, 5, 0, 3).coefficients
        == ratfun.expand(ratfun.zeta_zn(3), 5, 3).coefficients
    )


def test_theorem3d_zeta_scaled_algebra():
    heis = algebra.catalog("heisenberg")
    scaled = algebra.scale(heis, 3, 1)
    want = latticezeta.count(scaled, 3, 2, "subrings").coefficients
    # i carried in the prefactor, form taken from the unscaled algebra...
    assert theorem3d_zeta(heis, 3, 1, 2).coefficients == want
    # ...or i = 0 with the scaled algebra's form: the two readings coincide
    assert theorem3d_zeta(scaled, 3, 0, 2).coefficients == want
