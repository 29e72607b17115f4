"""Igusa-style local zeta data from congruence counting.

N_m counts solutions of f = 0 mod p^m: every point mod p is enumerated once,
and deeper levels come from Hensel lifting over the tree of residue classes
(the product walk over all p^(n*m) points stays as the oracle).  The
associated measure-difference series recovers the integral's truncation, and
for rank-3 antisymmetric algebras a single ternary quadratic form assembles the
full subring zeta truncation.  Polynomials are `poly.Polynomial`s over their
sorted variable names, read by `parse_polynomial`.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING

from .errors import DEFAULT_CEILING, Budget, InternalConsistencyError, MalformedInputError
from .poly import Polynomial
from .ratfun import (
    XY,
    BivariateRationalFunction,
    LocalDirichletTruncation,
    sublattice_count_prediction,
)

if TYPE_CHECKING:  # `igusa poincare` loads neither algebra nor latticezeta
    from .algebra import StructureConstantAlgebra

# the older name of the polynomial type, still used by callers and by the
# benchmark's tracer, which counts calls to IntegerPolynomial.evaluate
IntegerPolynomial = Polynomial

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|[-+*^()])")
# the deepest parenthesis nesting parse_polynomial reads: four parser frames
# a level, so 100 levels stay well inside Python's default recursion limit
MAX_NESTING = 100


def parse_polynomial(text: str, variables=None) -> Polynomial:
    """Parse +, -, *, ^ (or **), parentheses, integer literals and variables.

    Variable order is the sorted set of names seen, unless given explicitly.
    Parentheses nested deeper than MAX_NESTING are refused."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise MalformedInputError(f"cannot tokenize {text[pos:]!r}")
        tok = m.group(1)
        tokens.append("^" if tok == "**" else tok)
        pos = m.end()
    tokens.append(None)
    names = sorted(
        {t for t in tokens if t and t[0].isalpha()}
        | set(variables or ())
    )
    if variables is not None:
        if not set(names) <= set(variables):
            raise MalformedInputError("expression uses undeclared variables")
        names = sorted(variables)
    one = Polynomial(names, {(0,) * len(names): 1})
    state = {"i": 0, "depth": 0}

    def peek():
        return tokens[state["i"]]

    def take():
        t = tokens[state["i"]]
        state["i"] += 1
        return t

    def parse_expr():
        sign = 1
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        node = parse_term().scale(sign)
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term():
        node = parse_power()
        while peek() == "*":
            take()
            node = node * parse_power()
        return node

    def parse_power():
        base = parse_atom()
        if peek() == "^":
            take()
            e = take()
            if not (e and e.isdigit()):
                raise MalformedInputError("exponent must be a literal integer")
            out = one
            for _ in range(int(e)):
                out = out * base
            return out
        return base

    def parse_atom():
        t, sign = take(), 1
        while t == "-":
            t, sign = take(), -sign
        if t == "(":
            state["depth"] += 1
            if state["depth"] > MAX_NESTING:
                raise MalformedInputError(f"parentheses nested deeper than {MAX_NESTING}")
            node = parse_expr()
            if take() != ")":
                raise MalformedInputError("unbalanced parentheses")
            state["depth"] -= 1
        elif t is None:
            raise MalformedInputError("unexpected end of expression")
        elif t.isdigit():
            node = one.scale(int(t))
        elif t in names:
            node = one.shift(*(int(v == t) for v in names))
        else:
            raise MalformedInputError(f"unexpected token {t!r}")
        return node.scale(sign)

    result = parse_expr()
    if peek() is not None:
        raise MalformedInputError(f"trailing input at token {peek()!r}")
    return result


# ---------------------------------------------------------------------------
# Poincare counting


@dataclass(frozen=True)
class PoincareTruncation:
    p: int
    depth: int
    counts: tuple  # N_0..N_depth; N_m = #solutions of f = 0 mod p^m

    def __post_init__(self):
        if self.counts[0] != 1:
            raise MalformedInputError("N_0 must be 1")


def poincare_counts(f: Polynomial, p: int, M: int,
                    ceiling: int = DEFAULT_CEILING) -> PoincareTruncation:
    """N_0..N_M by Hensel lifting; `ceiling` bounds the points walked, the p^n
    points mod p, charged up front, plus the singular nodes lifted.

    For x with f(x) = 0 mod p^j, j >= 1, and t in (Z/p)^n,
    f(x + p^j t) = f(x) + p^j grad f(x).t mod p^(j+1): the higher Taylor terms
    have integer coefficients and carry p^(2j).  So a zero mod p whose gradient
    is nonzero mod p (smooth) has p^((n-1)(m-1)) zeros mod p^m above it, and a
    singular zero x mod p^j has all p^n lifts as zeros mod p^(j+1), all
    singular, when f(x) = 0 mod p^(j+1), and none otherwise.  Only the singular
    tree is walked, depth-first, down to level M - 1.
    """
    n = len(f.variables)
    counts = [1] + [0] * M
    if M == 0:
        return PoincareTruncation(p, M, tuple(counts))
    walk = Budget(ceiling, "the lifting walk", "points")
    walk.predict(p**n)
    gradient = [f.derivative(v) for v in range(n)]
    lifts = list(product(range(p), repeat=n))
    smooth = 0
    stack = []  # (x, j): a singular zero of f mod p^j, 1 <= j < M
    for x in lifts:
        if f.evaluate(x) % p:
            continue
        counts[1] += 1
        if any(g.evaluate(x) % p for g in gradient):
            smooth += 1
        elif M > 1:
            stack.append((x, 1))
    if smooth:  # never for n = 0, where the exponent below turns negative
        for m in range(2, M + 1):
            counts[m] += smooth * p ** ((n - 1) * (m - 1))
    while stack:  # depth-first: at most p^n pending nodes per level
        x, j = stack.pop()
        walk.charge()
        if f.evaluate(x) % p ** (j + 1):
            continue
        counts[j + 1] += p**n
        if j + 1 < M:
            step = p**j
            stack.extend((tuple(a + step * b for a, b in zip(x, t)), j + 1) for t in lifts)
    return PoincareTruncation(p, M, tuple(counts))


def _brute_poincare_counts(f: Polynomial, p: int, M: int) -> PoincareTruncation:
    """The oracle: N_m by evaluating f at all p^(n*m) points mod p^m."""
    counts = [1]
    for m in range(1, M + 1):
        q = p**m
        c = sum(1 for point in product(range(q), repeat=len(f.variables))
                if f.evaluate(point) % q == 0)
        counts.append(c)
    return PoincareTruncation(p, M, tuple(counts))


def zf_series_from_poincare(pc: PoincareTruncation, nvars: int) -> list[Fraction]:
    """Coefficients of t^0..t^{depth-1} of the local integral's series:
    the t^m coefficient is p^{-nm} N_m - p^{-n(m+1)} N_{m+1}."""
    if pc.depth < 1:
        raise MalformedInputError("need depth >= 1")
    p = pc.p
    out = []
    for m in range(pc.depth):
        out.append(
            Fraction(pc.counts[m], p ** (nvars * m))
            - Fraction(pc.counts[m + 1], p ** (nvars * (m + 1)))
        )
    return out


def monomial_closed_form(exponents) -> BivariateRationalFunction:
    """Closed form of the local integral of |x1^e1 ... xn^en|^s:
    prod_i (1 - X^{-1})/(1 - X^{-1} Y^{e_i}), cleared to (X-1)/(X - Y^{e_i})."""
    num = Polynomial(XY, {(0, 0): 1})
    extra = Polynomial(XY, {(0, 0): 1})
    for e in exponents:
        if e < 0:
            raise MalformedInputError("exponents must be non-negative")
        if e == 0:
            continue
        num = num * Polynomial(XY, {(1, 0): 1, (0, 0): -1})
        extra = extra * Polynomial(XY, {(1, 0): 1, (0, e): -1})
    return BivariateRationalFunction(num, None, extra)


# ---------------------------------------------------------------------------
# the 3-dimensional assembly


def theorem3d_form(alg: StructureConstantAlgebra) -> Polynomial:
    """f(x) = L23(x) x1 - L13(x) x2 + L12(x) x3 in x1, x2, x3, read off the
    product forms L_ij(x) = sum_k c_ijk x_k of a rank-3 antisymmetric algebra."""
    if alg.rank != 3:
        raise MalformedInputError("the assembly needs a rank-3 algebra")
    if not alg.antisymmetric.holds:
        raise MalformedInputError("the assembly needs an antisymmetric algebra")
    sign = {(2, 3): 1, (1, 3): -1, (1, 2): 1}  # L_ij multiplies x_(6-i-j)
    terms = Counter()
    for (i, j, k), c in alg.constants.items():
        if (i, j) in sign:
            e = [0, 0, 0]
            e[k - 1] += 1
            e[5 - i - j] += 1
            terms[tuple(e)] += sign[i, j] * c
    return Polynomial(("x1", "x2", "x3"), terms)


def theorem3d_zeta(
    alg: StructureConstantAlgebra, p: int, i: int, K: int, ceiling: int = DEFAULT_CEILING
) -> LocalDirichletTruncation:
    """Subring zeta truncation of p^i * alg via the quadratic-form correction:

        zeta = zeta_{Z^3} - Z_f(s-2) zeta_p(2s-2) zeta_p(s-2) p^{(2-s)(i+1)} / (1 - 1/p)

    realized on truncations: Z_f(s-2) reweights the integral series by p^{2m},
    and the prefactor is the monomial X^{2(i+1)} Y^{i+1}.  The correction's
    Y^k coefficient needs the integral series to order k-(i+1), so Poincare
    depth K-i suffices and is what gets computed; `ceiling` bounds its walk."""
    form = theorem3d_form(alg)
    correction = [Fraction(0)] * (K + 1)
    if K >= i + 1 and form.terms:
        depth = K - i
        pc = poincare_counts(form, p, depth, ceiling=ceiling)
        z = zf_series_from_poincare(pc, 3)
        pref = Fraction(p ** (2 * (i + 1)), 1) / (1 - Fraction(1, p))
        for k in range(i + 1, K + 1):
            r = k - (i + 1)
            total = Fraction(0)
            # sum over m + 2a + c = r of z_m p^{2m} * p^{2a} * p^{2c}
            for m in range(r + 1):
                for a in range((r - m) // 2 + 1):
                    c = r - m - 2 * a
                    total += z[m] * p ** (2 * m + 2 * a + 2 * c)
            correction[k] = pref * total
    coeffs = []
    for k in range(K + 1):
        val = sublattice_count_prediction(3, p, k) - correction[k]
        if val.denominator != 1 or val < 0:
            raise InternalConsistencyError(
                f"assembled coefficient a[{k}] = {val} is not a non-negative integer"
            )
        coeffs.append(int(val))
    return LocalDirichletTruncation(p, tuple(coeffs))
