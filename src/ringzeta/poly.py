"""Sparse exact Laurent polynomials in named variables.

One type carries every closed form: the Euler factors W(X, Y), the Gaussian
binomials and descent sums in X, the congruence polynomials of the Igusa
integrals and the cone numerators.  A polynomial maps exponent tuples, one
entry per variable and negative entries allowed, to nonzero coefficients.  A
coefficient is an int when it is integral and a Fraction otherwise, so integer
data stays in int arithmetic and no operation ever produces a float.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .errors import MalformedInputError


def _exact(c):
    """c as an int when it is integral, otherwise as a Fraction."""
    if isinstance(c, int):
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Polynomial:
    """Sparse Laurent polynomial over the variables, a tuple of names.

    Instances are not modified after construction; every operation returns a
    new polynomial over the same variables."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        self.terms = {}
        for exp, c in (terms or {}).items():
            if len(exp) != len(self.variables):
                raise MalformedInputError("exponent vector length mismatch")
            c = _exact(c)
            if c:
                self.terms[tuple(int(e) for e in exp)] = c

    def _new(self, terms):
        out = Polynomial.__new__(Polynomial)
        out.variables = self.variables
        out.terms = terms
        return out

    def _same_ring(self, other):
        if self.variables != other.variables:
            raise MalformedInputError(f"variables differ: {self.variables} vs {other.variables}")

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __add__(self, other):
        self._same_ring(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = _exact(s)
            else:
                del terms[e]
        return self._new(terms)

    def __neg__(self):
        return self._new({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._same_ring(other)
        terms = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(map(add, ea, eb))
                terms[e] = terms.get(e, 0) + ca * cb
        return self._new({e: _exact(c) for e, c in terms.items() if c})

    def scale(self, c):
        c = _exact(c)
        return self._new({e: _exact(a * c) for e, a in self.terms.items()} if c else {})

    def shift(self, *offsets):
        """Multiply by the monomial with exponents `offsets`."""
        return self._new({tuple(map(add, e, offsets)): c for e, c in self.terms.items()})

    def invert(self):
        """Substitute 1/x for every variable x: negate every exponent."""
        return self._new({tuple(-x for x in e): c for e, c in self.terms.items()})

    def leading(self):
        """(exponent, coefficient) of the lexicographically largest term."""
        e = max(self.terms)
        return e, self.terms[e]

    def min_exponents(self):
        """The least exponent of each variable over the terms."""
        return tuple(map(min, zip(*self.terms)))

    def is_homogeneous(self, degree=None):
        degrees = {sum(e) for e in self.terms}
        if len(degrees) > 1:
            return False
        return degree is None or not degrees or degrees == {degree}

    def derivative(self, v):
        """The partial derivative in the v-th variable."""
        terms = {}
        for e, c in self.terms.items():
            if e[v]:
                terms[e[:v] + (e[v] - 1,) + e[v + 1 :]] = _exact(c * e[v])
        return self._new(terms)

    def slices(self, v):
        """Exponent k of the v-th variable -> the coefficient of its k-th
        power, a polynomial over the same variables free of the v-th."""
        out = {}
        for e, c in self.terms.items():
            out.setdefault(e[v], {})[e[:v] + (0,) + e[v + 1 :]] = c
        return {k: self._new(terms) for k, terms in out.items()}

    def evaluate(self, point):
        """The exact value at `point`, one value per variable.  Int arithmetic
        when the coefficients and the point are ints and no exponent is
        negative; a negative exponent goes through Fraction."""
        total = 0
        for exp, c in self.terms.items():
            for x, e in zip(point, exp):
                if e:
                    c *= x**e if e > 0 else Fraction(x) ** e
            total += c
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for exp, c in sorted(self.terms.items()):
            mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(self.variables, exp) if e)
            bits.append(f"{c}*{mono}" if mono else str(c))
        return " + ".join(bits)
