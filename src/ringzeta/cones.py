"""Generating functions of monoids of non-negative solutions of linear systems.

A system Phi * alpha = 0 (with optional <=-rows rewritten via slack columns)
defines the monoid E of non-negative integer solutions.  The module produces

  * box-truncated series of E by a pruned enumeration over the free
    coordinates of the system's echelon form, the pivot coordinates solved,
  * the completely fundamental solutions (primitive extreme-ray generators),
  * an exact rational form: the cone is split into half-open simplicial
    subcones on the extreme rays, so the pieces partition the cone and the
    series identity holds term by term with no inclusion-exclusion; the
    facets it cones over are coordinate faces, read off the rays' zeros;
    each piece solves every coordinate change with one left inverse of its
    rays,
  * Stanley-reciprocity verdicts, and monomial substitutions into Euler
    factors W(X, Y).

All arithmetic is exact (int / Fraction).  `ceiling` bounds each walk on its
own: the values the enumeration sets and the terms it keeps, the supports
the ray search tries, the faces the triangulation visits, the numerator
terms of the rational form, the expansion's steps, and the points of a
min-form box.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations, product
from math import comb, gcd, lcm, prod

from .errors import DEFAULT_CEILING, Budget, InternalConsistencyError, MalformedInputError
from .errors import PoleError, depth_first
from .exactlinalg import diagonalize_rowlattice, nullspace, rank, rref
from .poly import Polynomial
from .ratfun import XY, BivariateRationalFunction


class DiophantineConeSystem:
    """Integer relation matrix with equality / less-equal rows.

    A "le" row a means a . alpha <= 0; it is rewritten as the equality
    a . alpha + s = 0 with its own appended slack column s >= 0.
    """

    def __init__(self, phi, kinds=None, name=None):
        phi = [list(map(int, row)) for row in phi]
        if phi:
            m0 = len(phi[0])
            if any(len(row) != m0 for row in phi):
                raise MalformedInputError("all rows must have the same length")
        else:
            raise MalformedInputError("need at least the variable count; pass phi=[[0]*m]")
        self.m_original = m0
        kinds = list(kinds) if kinds is not None else ["eq"] * len(phi)
        if len(kinds) != len(phi):
            raise MalformedInputError("kinds must match the number of rows")
        if any(k not in ("eq", "le") for k in kinds):
            raise MalformedInputError("row kinds are 'eq' or 'le'")
        self.kinds = kinds
        slack = sum(1 for k in kinds if k == "le")
        self.m = m0 + slack
        self.slack_columns = list(range(m0, self.m))
        rows = []
        next_slack = m0
        for row, kind in zip(phi, kinds):
            full = row + [0] * slack
            if kind == "le":
                full[next_slack] = 1
                next_slack += 1
            if any(full):
                rows.append(full)
        self.rows = rows
        self.rank = rank(rows, self.m) if rows else 0
        self.name = name

    @classmethod
    def empty(cls, m):
        """No relations: E = N_0^m."""
        return cls([[0] * m])

    @classmethod
    def from_json(cls, path):
        """Read {"phi": [[int, ..], ..], "kinds": [str, ..], "name": ..}; kinds optional."""
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise MalformedInputError(f"cone file {path} must hold a JSON object")
        phi, kinds = data.get("phi"), data.get("kinds")
        if not (isinstance(phi, list) and phi and all(
                isinstance(row, list) and all(type(x) is int for x in row) for row in phi)):
            raise MalformedInputError(f"cone file {path}: phi must be a nonempty list of integer rows")
        if kinds is not None and not (isinstance(kinds, list)
                                      and all(isinstance(k, str) for k in kinds)):
            raise MalformedInputError(f"cone file {path}: kinds must be a list of strings")
        if not isinstance(data.get("name", ""), str):
            raise MalformedInputError(f"cone file {path}: name must be a string")
        return cls(phi, kinds, name=data.get("name", str(path)))

    def __repr__(self):
        return f"DiophantineConeSystem(m={self.m}, rank={self.rank})"


@dataclass(frozen=True)
class MultivariateSeriesTruncation:
    m: int
    bound: int
    terms: dict

    def __eq__(self, other):
        return (
            isinstance(other, MultivariateSeriesTruncation)
            and self.m == other.m
            and self.terms == other.terms
        )

    def marginalize(self, columns):
        """Set the exponents in the given columns to zero, summing coefficients."""
        cols = set(columns)
        out = {}
        for e, c in self.terms.items():
            e2 = tuple(0 if i in cols else x for i, x in enumerate(e))
            out[e2] = out.get(e2, 0) + c
        return MultivariateSeriesTruncation(self.m, self.bound, out)


def brute_series(sys: DiophantineConeSystem, B: int, strict: bool = False,
                 ceiling: int = DEFAULT_CEILING):
    """Enumerate solutions with every coordinate in [0, B] ([1, B] when strict),
    then marginalize the slack columns.

    Only the free columns of the rows' echelon form are walked, by
    `errors.depth_first`; each pivot coordinate is solved from its row
    scaled to integers and kept when it is an integer in [lo, B].  A free
    column takes only the values that leave every pivot reachable in
    [lo, B], given the least and greatest sums the later free columns can
    add.  `ceiling` bounds the values, charged as the walk goes: the values
    each free column takes, and B + 1 - lo for each solution kept, so at most
    ceiling / (B + 1 - lo) terms are stored."""
    lo = 1 if strict else 0
    m = sys.m
    red, pivots = rref(sys.rows, m) if sys.rows else ([], [])
    free = [j for j in range(m) if j not in pivots]
    if free and B < lo:
        return MultivariateSeriesTruncation(m, B, {})
    # scale[r] * alpha[pivots[r]] = sum_j coeffs[r][j] * alpha[free[j]]
    scale = [lcm(*(row[j].denominator for j in free)) for row in red]
    coeffs = [[int(-row[j] * d) for j in free] for row, d in zip(red, scale)]
    # least[r][i], most[r][i]: the extreme sums free columns i.. add to row r
    least, most = [], []
    for c in coeffs:
        least.append([0] * (len(free) + 1))
        most.append([0] * (len(free) + 1))
        for i in range(len(free) - 1, -1, -1):
            a, b = sorted((c[i] * lo, c[i] * B))
            least[-1][i], most[-1][i] = least[-1][i + 1] + a, most[-1][i + 1] + b
    charge = Budget(ceiling, "the enumeration", "values").charge
    alpha = [0] * m
    terms = {}

    def keep(sums):
        for p, total, d in zip(pivots, sums, scale):
            x, rem = divmod(total, d)
            if rem or not lo <= x <= B:
                return
            alpha[p] = x
        charge(B + 1 - lo)
        terms[tuple(alpha)] = 1

    def place(i, sums):
        """Set free column i to each value that keeps every pivot reachable,
        and yield (i + 1, the sums with it); keep the solutions at the last."""
        first, last = lo, B
        for c, d, t, low, high in zip(coeffs, scale, sums, least, most):
            a = c[i]
            below, above = lo * d - t - high[i + 1], B * d - t - low[i + 1]  # a * v in between
            if a > 0:
                first, last = max(first, -(-below // a)), min(last, above // a)
            elif a < 0:
                first, last = max(first, -(-above // a)), min(last, below // a)
            elif below > 0 or above < 0:
                return
        charge(max(0, last + 1 - first))
        for v in range(first, last + 1):
            alpha[free[i]] = v
            later = [t + c[i] * v for t, c in zip(sums, coeffs)]
            if i + 1 < len(free):
                yield i + 1, later
            else:
                keep(later)

    if free:
        depth_first(place, 0, [0] * len(coeffs))
    else:
        keep([0] * len(coeffs))
    series = MultivariateSeriesTruncation(m, B, terms)
    if sys.slack_columns:
        series = series.marginalize(sys.slack_columns)
    return series


# ---------------------------------------------------------------------------
# extreme rays


@dataclass(frozen=True)
class ExtremeRays:
    rays: tuple  # primitive integer vectors, sorted lexicographically
    dim: int  # dimension of the real solution cone


def _primitive(vec):
    g = gcd(*vec)
    return tuple(x // g for x in vec) if g else tuple(vec)


def extreme_rays(sys: DiophantineConeSystem, ceiling: int = DEFAULT_CEILING) -> ExtremeRays:
    """Completely fundamental solutions, by support-subset enumeration: a ray's
    support S satisfies rank(Phi_S) = |S| - 1 with one-dimensional kernel.
    `ceiling` bounds the supports tried, charged up front."""
    m = sys.m
    rows = sys.rows
    sizes = range(1, min(m, sys.rank + 1) + 1)
    Budget(ceiling, "the ray search", "supports").predict(sum(comb(m, size) for size in sizes))
    found = set()
    for size in sizes:
        for support in combinations(range(m), size):
            sub = [[row[j] for j in support] for row in rows]
            kern = nullspace(sub, size) if sub else nullspace([[0] * size], size)
            if len(kern) != 1:
                continue
            vec = kern[0]
            if any(x == 0 for x in vec):
                continue  # smaller support handles it
            if all(x > 0 for x in vec) or all(x < 0 for x in vec):
                if vec[0] < 0:
                    vec = [-x for x in vec]
                denom = lcm(*(x.denominator for x in vec))
                full = [0] * m
                for j, x in zip(support, vec):
                    full[j] = int(x * denom)
                found.add(_primitive(full))
    rays = tuple(sorted(found))
    dim = rank(list(rays), m) if rays else 0
    return ExtremeRays(rays, dim)


# ---------------------------------------------------------------------------
# rational form via half-open simplicial decomposition


@dataclass(frozen=True)
class MultivariateRationalForm:
    m: int
    numerator: dict  # exponent tuple -> int
    denominator_rays: tuple  # tuple of ray tuples (with multiplicity)
    dim: int  # dimension of the cone, which the rays span


def _triangulate(rays, dim, charge):
    """Pulling triangulation of the cone of dimension `dim` spanned by the
    rays, as tuples of ray indices; `charge` counts each face visited.

    A face's first ray is coned over each facet that misses it, depth-first
    with an explicit stack.  A face of {alpha >= 0 : Phi alpha = 0} meets
    coordinate hyperplanes in its faces, and each of its facets is one such
    face, so a facet is the set of the face's rays that vanish in one
    coordinate, when they span dim - 1 dimensions."""
    simplices, stack = [], [((), tuple(range(len(rays))), dim)]
    while stack:
        apex, face, d = stack.pop()
        charge()
        if len(face) == d:
            simplices.append(apex + face)
            continue
        facets = {tuple(i for i in face if not rays[i][j]) for j in range(len(rays[0]))}
        stack.extend((apex + face[:1], facet, d - 1) for facet in sorted(facets, reverse=True)
                     if face[0] not in facet and rank([rays[i] for i in facet]) == d - 1)
    return simplices


def _ray_solver(rays):
    """(den, solve) for independent integer rays: solve(target) gives the
    integers u with sum (u_i / den) rays[i] = target, den > 0.

    The echelon form of [M | I], M the coordinates-by-rays matrix, holds a
    left inverse of M in its first pivot rows, scaled here to the common
    denominator den.  Each solve is checked on every coordinate, so a target
    outside the span of the rays raises InternalConsistencyError."""
    k, m = len(rays), len(rays[0])
    red, pivots = rref([[r[j] for r in rays] + [int(i == j) for i in range(m)]
                        for j in range(m)], k + m)
    if pivots[:k] != list(range(k)):
        raise InternalConsistencyError("the rays are not independent")
    den = lcm(*(x.denominator for row in red[:k] for x in row[k:]))
    inverse = [[int(x * den) for x in row[k:]] for row in red[:k]]

    def solve(target):
        u = [sum(a * x for a, x in zip(row, target) if a) for row in inverse]
        if any(sum(ui * r[j] for ui, r in zip(u, rays)) != den * x for j, x in enumerate(target)):
            raise InternalConsistencyError("target not in the span of the rays")
        return u

    return den, solve


def _parallelepiped_points(rays, closed, lattice, solver):
    """Lattice points of the half-open fundamental parallelepiped of the rays,
    given `lattice` = diagonalize_rowlattice(rays) and `solver` =
    _ray_solver(rays).

    closed[i] says whether the facet t_i = 0, the one spanned by the other
    rays, is kept: a closed coordinate takes t_i in [0, 1) and an open one in
    (0, 1].  There is one point per coset of the ray lattice in its
    saturation; an integer diagonalization gives coset representatives, and
    coordinates in the ray basis are linear in them, kept here as numerators
    over the solver's denominator."""
    divisors, V = lattice
    den, solve = solver
    basis = [solve(v) for v in V[:len(rays)]]
    points = {}
    for combo in product(*map(range, divisors)):
        t = [sum(c * b[i] for c, b in zip(combo, basis)) % den for i in range(len(rays))]
        t = [ti or den * (not keep) for ti, keep in zip(t, closed)]
        pt = []
        for j in range(len(rays[0])):
            x, rem = divmod(sum(ti * r[j] for ti, r in zip(t, rays)), den)
            if rem:
                raise InternalConsistencyError("parallelepiped point is not integral")
            pt.append(x)
        pt = tuple(pt)
        if pt in points:
            raise InternalConsistencyError("duplicate parallelepiped representative")
        points[pt] = 1
    return points


def _variables(m):
    """Names for the m coordinates of a cone's generating function."""
    return tuple(f"x{i}" for i in range(1, m + 1))


def rational_form(sys: DiophantineConeSystem, _seed: int = 0,
                  ceiling: int = DEFAULT_CEILING) -> MultivariateRationalForm:
    """Exact rational generating function of the non-negative solution monoid.

    The cone is triangulated on its extreme rays; each simplicial piece is made
    half-open facing a fixed generic interior point, so the pieces partition
    the cone and expand() agrees with brute_series() coefficient by
    coefficient.

    `ceiling` bounds the ray search and the triangulation, and then the
    numerator terms, charged before any piece is walked: a piece has one
    point per coset of its ray lattice, the product of its elementary
    divisors, times 2^(#rays - dim) from the factors 1 - X^r of the rays it
    misses."""
    ex = extreme_rays(sys, ceiling)
    m = sys.m
    if not ex.rays:
        return MultivariateRationalForm(m, {tuple([0] * m): 1}, (), ex.dim)
    rays = list(ex.rays)
    simplices = _triangulate(rays, ex.dim, Budget(ceiling, "the triangulation", "faces").charge)
    all_rays = sorted({rays[i] for sigma in simplices for i in sigma})
    lattices = [diagonalize_rowlattice([rays[i] for i in sigma]) for sigma in simplices]
    Budget(ceiling, "the numerator", "terms").predict(
        sum(prod(divisors) for divisors, _ in lattices) << (len(all_rays) - ex.dim))
    solvers = [_ray_solver([rays[i] for i in sigma]) for sigma in simplices]
    # generic interior point for the half-open orientation
    rng = random.Random(_seed)
    for _ in range(64):
        w_coeff = [rng.randrange(1, 1000) for _ in rays]
        w = [sum(w_coeff[i] * rays[i][j] for i in range(len(rays))) for j in range(m)]
        barycentric = []
        for _, solve in solvers:
            u = solve(w)
            if not all(u):
                break
            barycentric.append(u)
        else:
            break
    else:
        raise InternalConsistencyError("could not find a generic interior point")
    names, zero = _variables(m), tuple([0] * m)
    numerator = Polynomial(names)
    for sigma, u, lattice, solver in zip(simplices, barycentric, lattices, solvers):
        sigma_rays = [rays[i] for i in sigma]
        piece = Polynomial(names, _parallelepiped_points(
            sigma_rays, [ui > 0 for ui in u], lattice, solver))
        for r in all_rays:
            if r not in sigma_rays:
                piece = piece * Polynomial(names, {zero: 1, r: -1})
        numerator = numerator + piece
    return MultivariateRationalForm(m, numerator.terms, tuple(all_rays), ex.dim)


def expand_form(form: MultivariateRationalForm, B: int,
                ceiling: int = DEFAULT_CEILING) -> MultivariateSeriesTruncation:
    """Box-truncated series of the form (every exponent in [0, B])."""
    series, negatives = _expand_with_laurent(form.numerator, form.denominator_rays, form.m, B,
                                             ceiling)
    if negatives:
        raise InternalConsistencyError("unexpected negative exponents in expansion")
    return MultivariateSeriesTruncation(form.m, B, series)


def _expand_with_laurent(numerator, rays, m, B, ceiling):
    """Series of numerator / prod(1 - X^ray) in the box [0, B]^m.

    Laurent numerators are allowed; returns (terms_in_box, negatives_present).
    The terms are kept in one bucket per total degree.  `ceiling` bounds the
    steps: each pass over the buckets, one per ray and one to read them out,
    is charged before the buckets are made, and each term propagated as it
    goes."""
    if not numerator:
        return {}, False
    shift = [max(0, -min(e[j] for e in numerator)) for j in range(m)]
    cap = [B + shift[j] for j in range(m)]
    maxdeg = sum(cap)
    budget = Budget(ceiling, "the expansion", "steps")
    budget.predict((len(rays) + 1) * (maxdeg + 1))
    buckets = [dict() for _ in range(maxdeg + 1)]
    for e, c in numerator.items():
        e2 = tuple(x + s for x, s in zip(e, shift))
        if all(0 <= x <= cp for x, cp in zip(e2, cap)):
            b = buckets[sum(e2)]
            b[e2] = b.get(e2, 0) + c
    for r in rays:
        rsum = sum(r)
        for deg in range(maxdeg + 1):
            bucket = buckets[deg]
            if not bucket or deg + rsum > maxdeg:
                continue
            budget.charge(len(bucket))
            target = buckets[deg + rsum]
            for e, c in list(bucket.items()):
                if not c:
                    continue
                e2 = tuple(x + y for x, y in zip(e, r))
                if all(x <= cp for x, cp in zip(e2, cap)):
                    target[e2] = target.get(e2, 0) + c
    # every exponent is within the cap, and shifting back is one-to-one
    out, negatives = {}, False
    for bucket in buckets:
        for e, c in bucket.items():
            if not c:
                continue
            e2 = tuple(x - s for x, s in zip(e, shift))
            if any(x < 0 for x in e2):
                negatives = True
            else:
                out[e2] = c
    return out, negatives


# ---------------------------------------------------------------------------
# Stanley reciprocity


@dataclass(frozen=True)
class ReciprocityVerdict:
    status: str  # "pass" | "fail" | "inconclusive"
    detail: str = ""


def reciprocity_check(sys: DiophantineConeSystem, B: int,
                      ceiling: int = DEFAULT_CEILING) -> ReciprocityVerdict:
    """Compare the strict-solution series with (-1)^d E(1/X) up to the box bound."""
    strict = brute_series(sys, B, strict=True, ceiling=ceiling)
    if not strict.terms:
        return ReciprocityVerdict("inconclusive", "no strict solution within the bound")
    form = rational_form(sys, ceiling=ceiling)
    # E(1/X): invert numerator exponents; each 1/(1 - X^-r) = -X^r/(1 - X^r)
    sign = (-1) ** (form.dim + len(form.denominator_rays))
    shift_total = [sum(r[j] for r in form.denominator_rays) for j in range(sys.m)]
    num = Polynomial(_variables(sys.m), form.numerator).invert().shift(*shift_total).scale(sign)
    series, negatives = _expand_with_laurent(num.terms, form.denominator_rays, sys.m, B, ceiling)
    if negatives:
        return ReciprocityVerdict("fail", "inverted series has negative exponents")
    candidate = MultivariateSeriesTruncation(sys.m, B, series)
    if sys.slack_columns:
        candidate = candidate.marginalize(sys.slack_columns)
    if candidate == strict:
        return ReciprocityVerdict("pass")
    return ReciprocityVerdict("fail", "series differ inside the box")


# ---------------------------------------------------------------------------
# substitution into Euler factors


def substitute(obj, assignment) -> BivariateRationalFunction:
    """Apply the monoid homomorphism X_i -> X^{e1} Y^{e2} (None means -> 1)
    to a series truncation or a rational form.

    assignment: sequence of (e1, e2) pairs or None per variable, e >= 0."""
    images = []
    for a in assignment:
        if a is None:
            images.append((0, 0))
        else:
            e1, e2 = int(a[0]), int(a[1])
            if e1 < 0 or e2 < 0:
                raise MalformedInputError("assignment exponents must be non-negative")
            images.append((e1, e2))
    if len(images) != obj.m:
        raise MalformedInputError("assignment must cover every variable")

    def image(exp_vector):
        ax = sum(e * im[0] for e, im in zip(exp_vector, images))
        ay = sum(e * im[1] for e, im in zip(exp_vector, images))
        return ax, ay

    if isinstance(obj, MultivariateSeriesTruncation):
        terms, rays = obj.terms, ()
    else:
        terms, rays = obj.numerator, obj.denominator_rays
    acc = {}
    for e, c in terms.items():
        key = image(e)
        acc[key] = acc.get(key, 0) + c
    den = {}
    extra = Polynomial(XY, {(0, 0): 1})
    for ray in rays:
        a, b = image(ray)
        if (a, b) == (0, 0):
            raise PoleError(f"substitution sends ray {ray} to 1", ray=ray)
        if b >= 1:
            den[(a, b)] = den.get((a, b), 0) + 1
        else:
            extra = extra * Polynomial(XY, {(0, 0): 1, (a, b): -1})
    return BivariateRationalFunction(Polynomial(XY, acc), den, extra)


# ---------------------------------------------------------------------------
# min-of-linear-forms series (brute force only)


def minform_series(forms, r, s, t, B, strict=False) -> MultivariateSeriesTruncation:
    """Sum over n in {lo..B}^r of X^n * prod_sigma Y_sigma^{min_tau L_{sigma tau}(n)}.

    forms[sigma][tau] is the coefficient vector (length r) of a Z-linear form.
    The default ceiling bounds the (B + 1)^r points of the box, charged up
    front."""
    if len(forms) != s or any(len(row) != t for row in forms):
        raise MalformedInputError("forms must be an s x t array of coefficient vectors")
    Budget(DEFAULT_CEILING, "the box", "points").predict((B + 1) ** r)
    lo = 1 if strict else 0
    terms = {}
    for n in product(range(lo, B + 1), repeat=r):
        ys = tuple(
            min(sum(c * x for c, x in zip(form, n)) for form in row) for row in forms
        )
        e = n + ys
        terms[e] = terms.get(e, 0) + 1
    return MultivariateSeriesTruncation(r + s, B, terms)
