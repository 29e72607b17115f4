import random
from fractions import Fraction

import pytest

from ringzeta import algebra, igusa
from ringzeta.errors import MalformedInputError
from ringzeta.poly import Polynomial

NAMES = ("x", "y", "z")


def _random_polynomial(rng, nvars):
    """Up to 5 terms, exponents in -2..3, int and Fraction coefficients."""
    terms = {}
    for _ in range(rng.randrange(0, 6)):
        exp = tuple(rng.randrange(-2, 4) for _ in range(nvars))
        if rng.random() < 0.5:
            terms[exp] = rng.randrange(-4, 5)
        else:
            terms[exp] = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
    return Polynomial(NAMES[:nvars], terms)


def _cases(seed, count=150):
    rng = random.Random(seed)
    for _ in range(count):
        nvars = rng.randrange(1, 4)
        point = tuple(rng.choice((-3, -2, -1, 1, 2, 3, 5)) for _ in range(nvars))
        yield rng, nvars, point


def _assert_exact_coefficients(f):
    for c in f.terms.values():
        assert c and type(c) in (int, Fraction), c
        assert type(c) is int or c.denominator != 1, c


def test_ring_axioms_on_random_laurent_polynomials():
    for rng, nvars, _ in _cases(7411):
        f, g, h = (_random_polynomial(rng, nvars) for _ in range(3))
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f - f == Polynomial(f.variables)
        for result in (f + g, f - g, f * g, f.scale(Fraction(2, 3)), -f):
            _assert_exact_coefficients(result)


def test_evaluate_is_an_exact_ring_homomorphism():
    negative_exponents = 0
    for rng, nvars, point in _cases(9203):
        f, g = _random_polynomial(rng, nvars), _random_polynomial(rng, nvars)
        negative_exponents += any(e < 0 for exp in f.terms for e in exp)
        values = [f.evaluate(point), g.evaluate(point), (f + g).evaluate(point),
                  (f * g).evaluate(point), f.invert().evaluate(point)]
        assert all(type(v) in (int, Fraction) for v in values), values
        fv, gv, sum_v, prod_v, inv_v = values
        assert sum_v == fv + gv
        assert prod_v == fv * gv
        assert inv_v == f.evaluate(tuple(Fraction(1, x) for x in point))
        assert f.scale(3).evaluate(point) == 3 * fv
        shift = tuple(rng.randrange(-2, 3) for _ in range(nvars))
        monomial = Polynomial(f.variables, {shift: 1})
        assert f.shift(*shift) == f * monomial
    assert negative_exponents >= 50


def test_evaluate_stays_in_int_arithmetic_on_integer_data():
    f = igusa.parse_polynomial("y^2 - x^3 + x")
    assert all(type(f.evaluate((x, y))) is int for x in range(-3, 4) for y in range(-3, 4))
    assert f.evaluate((2, 3)) == 3
    assert Polynomial(("x",), {(-2,): 3}).evaluate((2,)) == Fraction(3, 4)


def test_derivative_obeys_the_product_rule():
    for rng, nvars, _ in _cases(5519):
        f, g = _random_polynomial(rng, nvars), _random_polynomial(rng, nvars)
        for v in range(nvars):
            assert (f * g).derivative(v) == f.derivative(v) * g + f * g.derivative(v)
        constant = Polynomial(f.variables, {(0,) * nvars: rng.randrange(1, 5)})
        assert all(not constant.derivative(v).terms for v in range(nvars))
    # x d/dx obeys the product rule too; the exponents pin d/dx itself
    f = Polynomial(NAMES[:2], {(3, 1): 2, (-1, 0): Fraction(5, 2), (0, 4): 7})
    assert f.derivative(0) == Polynomial(NAMES[:2], {(2, 1): 6, (-2, 0): Fraction(-5, 2)})
    assert f.derivative(1) == Polynomial(NAMES[:2], {(3, 0): 2, (0, 3): 28})


def test_slices_put_the_polynomial_back_together():
    for rng, nvars, _ in _cases(3301):
        f = _random_polynomial(rng, nvars)
        for v in range(nvars):
            pieces = f.slices(v)
            rebuilt = Polynomial(f.variables)
            for k, piece in pieces.items():
                assert all(exp[v] == 0 for exp in piece.terms)
                rebuilt = rebuilt + piece.shift(*(k if i == v else 0 for i in range(nvars)))
            assert rebuilt == f


def test_leading_min_exponents_and_homogeneity():
    f = Polynomial(NAMES[:2], {(1, -2): 3, (0, 4): Fraction(1, 2), (1, 0): -1})
    assert f.leading() == ((1, 0), -1)
    assert f.min_exponents() == (0, -2)
    assert Polynomial(NAMES[:2], {(2, 0): 1, (1, 1): 4}).is_homogeneous(2)
    assert not f.is_homogeneous()
    assert Polynomial(NAMES[:2]).is_homogeneous(5)


def test_coefficients_are_normalized_and_checked():
    f = Polynomial(("x",), {(1,): Fraction(4, 2), (2,): Fraction(0), (3,): Fraction(1, 3)})
    assert f.terms == {(1,): 2, (3,): Fraction(1, 3)}
    assert type(f.terms[(1,)]) is int
    assert type((f.scale(3)).terms[(3,)]) is int
    with pytest.raises(MalformedInputError):
        Polynomial(("x", "y"), {(1,): 1})
    with pytest.raises(MalformedInputError):
        Polynomial(("x",), {(1,): 1}) + Polynomial(("y",), {(1,): 1})


def test_repr_strings_printed_by_the_cli():
    assert repr(igusa.parse_polynomial("y^2 - x^3 + x")) == "1*y^2 + 1*x + -1*x^3"
    form = igusa.theorem3d_form(algebra.catalog("sl2"))
    assert repr(form) == "1*x3^2 + 4*x1*x2"
    assert repr(Polynomial(("X", "Y"), {(-1, 2): Fraction(1, 2)})) == "1/2*X^-1*Y^2"
    assert repr(Polynomial(("X",))) == "0"
