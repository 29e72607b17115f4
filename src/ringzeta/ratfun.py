"""Exact bivariate rational functions W(X, Y).

X stands in for the prime p and Y for p^{-s}.  A function is stored as

    numerator * prod_{(a,b)} (1 - X^a Y^b)^{-mult} / extra_denominator

where the numerator and the extra denominator are exact Laurent polynomials
over XY = ("X", "Y") (`poly.Polynomial`).  Equality is decided by
cross-multiplication, never by floating evaluation.  Laurent exponents exist so
that inversion of the prime (X -> 1/X, Y -> 1/Y) is closed; catalog formulas
themselves have non-negative exponents.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .errors import (
    CoverageError,
    LookupError_,
    MalformedInputError,
    NonExpandableError,
)
from .poly import Polynomial

XY = ("X", "Y")

# ---------------------------------------------------------------------------
# rational functions


def _poly_from_factor(a, b):
    return Polynomial(XY, {(0, 0): 1, (a, b): -1})


class BivariateRationalFunction:
    __slots__ = ("num", "den_factors", "extra_den")

    def __init__(self, num, den_factors=None, extra_den=None):
        if isinstance(num, (int, Fraction)):
            num = Polynomial(XY, {(0, 0): num})
        self.den_factors = Counter()
        for key, mult in (den_factors or {}).items():
            a, b = int(key[0]), int(key[1])
            if a < 0 or b < 1:
                raise MalformedInputError(f"denominator factor (1 - X^{a} Y^{b}) out of contract")
            if mult:
                self.den_factors[(a, b)] += mult
        if extra_den is None:
            extra_den = Polynomial(XY, {(0, 0): 1})
        elif not extra_den.terms:
            raise MalformedInputError("zero denominator")
        else:
            my = extra_den.min_exponents()[1]
            if my:  # move Y^my to the numerator: expansion reads the Y^0 part of extra_den
                num, extra_den = num.shift(0, -my), extra_den.shift(0, -my)
        self.num = num
        self.extra_den = extra_den

    @classmethod
    def constant(cls, c):
        return cls(Polynomial(XY, {(0, 0): c}))

    def is_zero(self):
        return not self.num.terms

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return BivariateRationalFunction(
                self.num.scale(other), self.den_factors, self.extra_den
            )
        return BivariateRationalFunction(
            self.num * other.num,
            self.den_factors + other.den_factors,
            self.extra_den * other.extra_den,
        )

    __rmul__ = __mul__

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BivariateRationalFunction.constant(other)
        left, right = _cross_multiplied(self, other)
        return BivariateRationalFunction(
            left + right, self.den_factors | other.den_factors, self.extra_den * other.extra_den
        )

    __radd__ = __add__

    def __neg__(self):
        return BivariateRationalFunction(-self.num, self.den_factors, self.extra_den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BivariateRationalFunction.constant(other)
        return self + (-other)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BivariateRationalFunction.constant(other)
        if not isinstance(other, BivariateRationalFunction):
            return NotImplemented
        lhs, rhs = _cross_multiplied(self, other)
        return lhs == rhs

    def __hash__(self):
        raise TypeError("unhashable (equality is by cross-multiplication)")

    def __repr__(self):
        den = "".join(
            f"(1-X^{a}Y^{b})" + (f"^{m}" if m > 1 else "")
            for (a, b), m in sorted(self.den_factors.items())
        )
        extra = "" if self.extra_den == Polynomial(XY, {(0, 0): 1}) else f"({self.extra_den!r})"
        return f"({self.num!r})" + (f" / {den}{extra}" if den or extra else "")


def _cross_multiplied(f, g):
    """Numerators of f and g over the common denominator (shared factors cancelled)."""
    shared = f.den_factors & g.den_factors
    lhs = f.num * g.extra_den
    for fac, m in (g.den_factors - shared).items():
        for _ in range(m):
            lhs = lhs * _poly_from_factor(*fac)
    rhs = g.num * f.extra_den
    for fac, m in (f.den_factors - shared).items():
        for _ in range(m):
            rhs = rhs * _poly_from_factor(*fac)
    return lhs, rhs


def zp_factor(a: int, b: int) -> BivariateRationalFunction:
    """1 / (1 - X^a Y^b); at X = p this is the local factor zeta_p(b*s - a)."""
    if b < 1:
        raise MalformedInputError("zp_factor needs b >= 1")
    return BivariateRationalFunction(1, {(a, b): 1})


def invert_prime(f: BivariateRationalFunction) -> BivariateRationalFunction:
    """Substitute X -> 1/X, Y -> 1/Y and renormalize to the factored shape.

    Each factor 1/(1 - X^{-a}Y^{-b}) equals -X^aY^b/(1 - X^aY^b), so the factor
    multiset is preserved and a signed monomial moves into the numerator.
    """
    num = f.num.invert()
    for (a, b), mult in f.den_factors.items():
        num = num.shift(a * mult, b * mult).scale((-1) ** mult)
    extra = f.extra_den.invert()
    mx = extra.min_exponents()[0]  # the constructor clears the Y-powers
    return BivariateRationalFunction(num.shift(-mx, 0), f.den_factors, extra.shift(-mx, 0))


# ---------------------------------------------------------------------------
# series expansion


@dataclass(frozen=True)
class LocalDirichletTruncation:
    """Coefficients a[k] of p^{-ks}, k = 0..K, as exact integers."""

    p: int
    coefficients: tuple

    def __post_init__(self):
        if self.coefficients and self.coefficients[0] != 1:
            raise MalformedInputError("a[p^0] must be 1 for zeta-type counting")

    @property
    def depth(self):
        return len(self.coefficients) - 1

    def as_dict(self):
        return {"prime": self.p, "coefficients": list(self.coefficients)}


def expand_series(f: BivariateRationalFunction, p: int, K: int) -> list[Fraction]:
    """Coefficients of Y^0..Y^K of f at X = p, as exact Fractions."""
    num = _at_prime(f.num, p)
    if not num:
        return [Fraction(0)] * (K + 1)
    shift = min(0, min(num))
    order = K - shift
    den = _at_prime(_denominator(f, order), p)
    if not den.get(0):
        raise NonExpandableError("denominator vanishes at Y = 0")
    inv = _series_inverse(den, order)
    coeffs = [Fraction(0)] * (order + 1)
    for ey, c in num.items():
        if ey - shift > order:
            continue
        for k in range(0, order + 1 - (ey - shift)):
            coeffs[ey - shift + k] += c * inv[k]
    if shift < 0:
        for k in range(-shift):
            if coeffs[k]:
                raise NonExpandableError("negative Y-powers survive expansion")
        coeffs = coeffs[-shift:]
    return coeffs[: K + 1]


def _denominator(f, order):
    """The full denominator of f with every Y-power above `order` dropped.

    extra_den comes first: the factors only raise Y-powers, so capping the
    product at each step drops nothing that could reach Y^0..Y^order."""
    den = f.extra_den
    for (a, b), mult in f.den_factors.items():
        for _ in range(mult):
            den = den * _poly_from_factor(a, b)
            den = Polynomial(XY, {e: c for e, c in den.terms.items() if e[1] <= order})
    return den


def _evaluator(poly):
    """p -> poly at X = p, for a polynomial free of Y, in int arithmetic unless
    a coefficient or a negative exponent needs Fraction.  It does not go
    through Polynomial.evaluate, whose calls count the Igusa points."""
    terms = [(ex, c) for (ex, _), c in poly.terms.items()]
    exact = all(ex >= 0 for ex, _ in terms)
    return lambda p: sum(c * (p if exact else Fraction(p)) ** ex for ex, c in terms)


def _at_prime(poly, p):
    """Y-exponent -> the nonzero value at X = p of that Y-power's coefficient."""
    values = {ey: _evaluator(s)(p) for ey, s in poly.slices(1).items()}
    return {ey: v for ey, v in values.items() if v}


def _series_inverse(den, order):
    c0 = Fraction(den[0])
    inv = [Fraction(0)] * (order + 1)
    inv[0] = 1 / c0
    for k in range(1, order + 1):
        s = Fraction(0)
        for j, cj in den.items():
            if 1 <= j <= k:
                s += cj * inv[k - j]
        inv[k] = -s / c0
    return inv


def expand(f: BivariateRationalFunction, p: int, K: int) -> LocalDirichletTruncation:
    """Integer Dirichlet truncation of a catalog-style Euler factor."""
    return _integral_truncation(p, expand_series(f, p, K))


def _integral_truncation(p, coeffs):
    for k, c in enumerate(coeffs):
        if c.denominator != 1:
            raise NonExpandableError(f"coefficient of Y^{k} is not an integer: {c}")
    return LocalDirichletTruncation(p, tuple(map(int, coeffs)))


# ---------------------------------------------------------------------------
# functional equations


@dataclass(frozen=True)
class FuneqVerdict:
    has_monomial_equation: bool
    sign: int | None = None
    a: int | None = None
    b: int | None = None
    matches_expected: bool | None = None

    def triple(self):
        return (self.sign, self.a, self.b)


def funeq_verdict(f: BivariateRationalFunction, expected=None) -> FuneqVerdict:
    """Solve invert_prime(f) = sign * X^a Y^b * f, when such a monomial exists."""
    if f.is_zero():
        raise MalformedInputError("funeq_verdict needs a nonzero function")
    g = invert_prime(f)
    lhs, rhs = _cross_multiplied(g, f)
    (el, cl) = lhs.leading()
    (er, cr) = rhs.leading()
    ratio = Fraction(cl) / cr
    a, b = el[0] - er[0], el[1] - er[1]
    if ratio in (1, -1) and lhs == rhs.shift(a, b).scale(ratio):
        sign = int(ratio)
        verdict = FuneqVerdict(True, sign, a, b)
        if expected is not None:
            verdict = FuneqVerdict(True, sign, a, b, tuple(expected) == (sign, a, b))
        return verdict
    return FuneqVerdict(False, matches_expected=False if expected is not None else None)


# ---------------------------------------------------------------------------
# point-count hybrids


class PointCountHybrid:
    """Sum of weight(p) * W_t(p, p^{-s}) with formal point-count weights.

    Weight symbol "1" is the constant part.  Every non-constant symbol carries a
    declared variety dimension; under prime inversion it transforms as
    symbol -> X^{-dim} * symbol.  Actual values are injected at evaluation time.
    """

    def __init__(self, parts, weight_curves=None):
        self.parts = []
        for symbol, dim, value in parts:
            if symbol != "1" and dim is None:
                raise MalformedInputError(f"weight {symbol!r} needs a declared dimension")
            self.parts.append((symbol, 0 if symbol == "1" else int(dim), value))
        self.weight_curves = dict(weight_curves or {})

    def symbols(self):
        return sorted({s for s, _, _ in self.parts if s != "1"})

    def expand(self, p, K, weights=None) -> LocalDirichletTruncation:
        weights = weights or {}
        missing = [s for s in self.symbols() if s not in weights]
        if missing:
            raise MalformedInputError(f"no point-count value supplied for {missing}")
        total = [Fraction(0)] * (K + 1)
        for symbol, _dim, value in self.parts:
            w = 1 if symbol == "1" else weights[symbol]
            for k, c in enumerate(expand_series(value, p, K)):
                total[k] += w * c
        return _integral_truncation(p, total)


def hybrid_funeq_verdict(h: PointCountHybrid, expected) -> FuneqVerdict:
    """Check invert_prime(h) = sign X^a Y^b h treating each weight formally.

    Grouping by symbol, the requirement is funeq(W_sym) = (sign, a + dim, b)."""
    sign, a, b = expected
    grouped = {}
    for symbol, dim, value in h.parts:
        if symbol in grouped:
            grouped[symbol] = (dim, grouped[symbol][1] + value)
        else:
            grouped[symbol] = (dim, value)
    for symbol, (dim, value) in grouped.items():
        v = funeq_verdict(value, (sign, a + dim, b))
        if not v.matches_expected:
            return FuneqVerdict(v.has_monomial_equation, v.sign, v.a, v.b, False)
    return FuneqVerdict(True, sign, a, b, True)


# ---------------------------------------------------------------------------
# Euler products


@dataclass(frozen=True)
class GlobalDirichletTruncation:
    bound: int
    coefficients: tuple  # a_1..a_M at indices 1..M of a length-(M+1) tuple

    def __post_init__(self):
        if self.bound >= 1 and self.coefficients[1] != 1:
            raise MalformedInputError("a_1 must be 1 for zeta-type series")

    def partial_sum(self, m):
        return sum(self.coefficients[1 : m + 1])


def _primes_up_to(n):
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(n + 1) if sieve[i]]


def _expand_once(f: BivariateRationalFunction, D: int):
    """(p, depth) -> expand(f, p, depth) for depth <= D, from one expansion of f.

    With the denominator sum_j d_j(X) Y^j and the numerator sum_k n_k(X) Y^k,
    the Y^k coefficient of f is N_k(X) / c0(X)^(k - ymin + 1) for
    k = ymin..D, where c0 = d_0, ymin <= 0 is the numerator's lowest Y-power
    and N_k = n_k c0^(k - ymin) - sum_{j>=1} d_j N_{k-j} c0^(j-1) (series
    division kept free of denominators).  Only N_k and c0 meet the prime.
    """
    num = f.num.slices(1)
    ymin = min(0, min(num, default=0))
    order = D - ymin
    d = _denominator(f, order).slices(1)
    zero = Polynomial(XY)
    c0 = d.get(0, zero)
    c0_pow = [Polynomial(XY, {(0, 0): 1})]
    for _ in range(order):
        c0_pow.append(c0_pow[-1] * c0)
    N = []
    for i in range(order + 1):  # i = k - ymin
        s = num.get(i + ymin, zero) * c0_pow[i]
        for j in range(1, i + 1):
            if j in d:
                s = s - d[j] * N[i - j] * c0_pow[j - 1]
        N.append(s)
    N = [_evaluator(s) for s in N]
    c0_at = _evaluator(c0)

    def at(p, depth):
        c = c0_at(p)
        if c == 0:  # not expandable at p: the per-prime expansion names the error
            return expand(f, p, depth)
        vals = [N[i](p) if c == 1 else Fraction(N[i](p)) / c ** (i + 1)
                for i in range(depth - ymin + 1)]
        if any(vals[:-ymin]):
            raise NonExpandableError("negative Y-powers survive expansion")
        return _integral_truncation(p, vals[-ymin:])

    return at


def euler_product(factor, primes_up_to: int, bound: int) -> GlobalDirichletTruncation:
    """Assemble a_m for m <= bound from local factors at all primes <= primes_up_to.

    factor is either a BivariateRationalFunction W, the same at every prime
    (zeta_p(s) = W(p, p^{-s})), which is expanded once as a Y-series with
    coefficients in X and evaluated at each p, raising what expand(W, p, depth)
    would; or a callable p -> LocalDirichletTruncation of sufficient depth.
    Raises CoverageError when some m <= bound is not primes_up_to-smooth.
    """
    primes = _primes_up_to(primes_up_to)
    if isinstance(factor, BivariateRationalFunction):
        local_factor = _expand_once(factor, max(bound, 1).bit_length() - 1)
    else:
        local_factor = lambda p, depth: factor(p)  # noqa: E731
    local = {}
    for p in primes:
        depth = 0
        while p ** (depth + 1) <= bound:
            depth += 1
        trunc = local_factor(p, depth)
        if trunc.depth < depth:
            raise CoverageError(f"local factor at p={p} too shallow ({trunc.depth} < {depth})")
        local[p] = trunc.coefficients
    # smallest-prime-factor sieve for multiplicative assembly
    spf = list(range(bound + 1))
    for p in primes:
        if p * p > bound:
            break
        for k in range(p * p, bound + 1, p):
            if spf[k] == k:
                spf[k] = p
    coeffs = [0] * (bound + 1)
    if bound >= 1:
        coeffs[1] = 1
    for m in range(2, bound + 1):
        p = spf[m]
        if p == m and p not in local:
            raise CoverageError(f"index {m} has prime factor {m} > {primes_up_to}")
        if p not in local:
            raise CoverageError(f"index {m} not {primes_up_to}-smooth (factor {p})")
        v = 0
        rest = m
        while rest % p == 0:
            rest //= p
            v += 1
        coeffs[m] = coeffs[rest] * local[p][v]
    return GlobalDirichletTruncation(bound, tuple(coeffs))


def asymptotic_ratio(g: GlobalDirichletTruncation, alpha, b, c, samples=None):
    """Partial-sum ratios s_m / (c m^alpha (log m)^b) for convergence inspection.

    Display-only floats; no pass/fail."""
    import math

    if samples is None:
        samples = []
        m = 10
        while m < g.bound:
            samples.append(m)
            m *= 10
        samples.append(g.bound)
    out = []
    running = 0
    want = sorted(set(samples))
    idx = 0
    for m in range(1, g.bound + 1):
        running += g.coefficients[m]
        while idx < len(want) and want[idx] == m:
            denom = c * m**alpha * (math.log(m) ** b if b else 1.0)
            out.append((m, running / denom if denom else float("inf")))
            idx += 1
    return out


# ---------------------------------------------------------------------------
# the formula catalog


def _poly_from_json(termlist):
    return Polynomial(XY, {(ex, ey): c for ex, ey, c in termlist})


def _rational_from_json(data) -> BivariateRationalFunction:
    num = Polynomial(XY, {(0, 0): 1})
    for factor in data.get("numerator_factors", []):
        num = num * _poly_from_json(factor)
    den = Counter()
    n = data.get("abelian_prefactor")
    if n:
        for i in range(n):
            den[(i, 1)] += 1
    for a, b in data.get("denominator_factors", []):
        den[(a, b)] += 1
    extra = None
    if "extra_denominator" in data:
        extra = _poly_from_json(data["extra_denominator"])
    return BivariateRationalFunction(num, den, extra)


def _load_formula_file():
    with resources.files(__package__).joinpath("formulas.json").open() as fh:
        return json.load(fh)


_FORMULAS = None


def _formulas():
    global _FORMULAS
    if _FORMULAS is None:
        _FORMULAS = _load_formula_file()
    return _FORMULAS


def zeta_zn(n: int) -> BivariateRationalFunction:
    """Local factor of the subgroup zeta function of Z^n."""
    if n < 1:
        raise MalformedInputError("need n >= 1")
    f = BivariateRationalFunction(1)
    for i in range(n):
        f = f * zp_factor(i, 1)
    return f


def abelian_pgroups(d: int) -> BivariateRationalFunction:
    """Generating function counting abelian p-groups on at most d generators."""
    if d < 1:
        raise MalformedInputError("need d >= 1")
    f = BivariateRationalFunction(1)
    for j in range(1, d + 1):
        f = f * zp_factor(0, j)
    return f


def componentwise_ideal(n: int) -> BivariateRationalFunction:
    """Local ideal zeta factor of Z^n with componentwise product: zeta_p(s)^n."""
    if n < 1:
        raise MalformedInputError("need n >= 1")
    f = BivariateRationalFunction(1)
    for _ in range(n):
        f = f * zp_factor(0, 1)
    return f


_PARAMETRIC = {
    "zeta_Zn": zeta_zn,
    "abelian_pgroups": abelian_pgroups,
    "componentwise_ideal": componentwise_ideal,
}

_NAME_RE = re.compile(r"^([a-zA-Z_][a-zA-Z0-9_]*)(?:\((\d+)\))?$")


def formula_catalog(name: str, param: int | None = None):
    """Named Euler factors, transcribed exactly; see formulas.json for the data."""
    m = _NAME_RE.match(name)
    if not m:
        raise LookupError_(f"cannot parse formula name {name!r}")
    base = m.group(1)
    if m.group(2) is not None:
        param = int(m.group(2))
    if base in _PARAMETRIC:
        if param is None:
            raise MalformedInputError(f"formula {base!r} needs a parameter")
        return _PARAMETRIC[base](param)
    data = _formulas().get(base)
    if data is None:
        raise LookupError_(f"unknown formula {name!r}")
    if data["kind"] == "rational":
        return _rational_from_json(data)
    if data["kind"] == "hybrid":
        parts = []
        curves = {}
        for part in data["parts"]:
            parts.append(
                (part["weight"], part.get("dim"), _rational_from_json(part["value"]))
            )
            if "weight_curve" in part:
                curves[part["weight"]] = part["weight_curve"]
        return PointCountHybrid(parts, curves)
    raise LookupError_(f"formula {name!r} has unknown kind {data['kind']!r}")


def formula_names():
    return sorted(_formulas()) + sorted(f"{k}(n)" for k in _PARAMETRIC)
