"""Generating functions of monoids of non-negative solutions of linear systems.

A system Phi * alpha = 0 (with optional <=-rows rewritten via slack columns)
defines the monoid E of non-negative integer solutions.  The module produces

  * box-truncated series of E by direct enumeration,
  * the completely fundamental solutions (primitive extreme-ray generators),
  * an exact rational form: the cone is split into half-open simplicial
    subcones on the extreme rays, so the pieces partition the cone and the
    series identity holds term by term with no inclusion-exclusion,
  * Stanley-reciprocity verdicts, and monomial substitutions into Euler
    factors W(X, Y).

All arithmetic is exact (int / Fraction).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd

from .errors import MalformedInputError, PoleError, ResourceGuardError, UnsupportedError
from .exactlinalg import diagonalize_rowlattice, nullspace, rank, rref, solve_exact
from .poly import Polynomial
from .ratfun import XY, BivariateRationalFunction

MAX_VARIABLES = 12
MAX_BOUND = 60
MAX_RAY_VARIABLES = 10
MAX_RAYS = 12


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
        with open(path) as fh:
            data = json.load(fh)
        return cls(data["phi"], data.get("kinds"), name=data.get("name", str(path)))

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


def brute_series(sys: DiophantineConeSystem, B: int, strict: bool = False):
    """Enumerate solutions with every coordinate in [0, B] ([1, B] when strict),
    then marginalize the slack columns."""
    if sys.m > MAX_VARIABLES or B > MAX_BOUND:
        raise ResourceGuardError(
            f"guard: m <= {MAX_VARIABLES} and B <= {MAX_BOUND}", predicted=sys.m
        )
    lo = 1 if strict else 0
    m = sys.m
    rows = sys.rows
    # suffix contribution bounds for pruning
    nrows = len(rows)
    suff_min = [[0] * (m + 1) for _ in range(nrows)]
    suff_max = [[0] * (m + 1) for _ in range(nrows)]
    for r in range(nrows):
        for idx in range(m - 1, -1, -1):
            c = rows[r][idx]
            lo_c, hi_c = sorted((c * lo, c * B))
            suff_min[r][idx] = suff_min[r][idx + 1] + lo_c
            suff_max[r][idx] = suff_max[r][idx + 1] + hi_c
    terms = {}
    alpha = [0] * m

    def rec(idx, partial):
        if idx == m:
            if all(s == 0 for s in partial):
                e = tuple(alpha)
                terms[e] = terms.get(e, 0) + 1
            return
        for v in range(lo, B + 1):
            new = [partial[r] + rows[r][idx] * v for r in range(nrows)]
            if all(
                new[r] + suff_min[r][idx + 1] <= 0 <= new[r] + suff_max[r][idx + 1]
                for r in range(nrows)
            ):
                alpha[idx] = v
                rec(idx + 1, new)
        alpha[idx] = 0

    rec(0, [0] * nrows)
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
    g = 0
    for x in vec:
        g = gcd(g, x)
    return tuple(x // g for x in vec) if g else tuple(vec)


def extreme_rays(sys: DiophantineConeSystem) -> ExtremeRays:
    """Completely fundamental solutions, by support-subset enumeration: a ray's
    support S satisfies rank(Phi_S) = |S| - 1 with one-dimensional kernel."""
    if sys.m > MAX_RAY_VARIABLES:
        raise ResourceGuardError(f"guard: m <= {MAX_RAY_VARIABLES}", predicted=sys.m)
    m = sys.m
    rows = sys.rows
    found = set()
    for size in range(1, min(m, sys.rank + 1) + 1):
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
                denom = 1
                for x in vec:
                    denom = denom * x.denominator // gcd(denom, x.denominator)
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


def _affine_coordinates(points):
    """Coordinates of the points in a basis of their affine hull.

    Returns (coords, affdim): coords[i] is a Fraction tuple of length affdim."""
    base = points[0]
    vecs = [[x - b for x, b in zip(pt, base)] for pt in points]
    red, pivots = rref(vecs)
    affdim = len(pivots)
    coords = []
    for v in vecs:
        residual = [Fraction(x) for x in v]
        alpha = []
        for row, piv in zip(red, pivots):
            c = residual[piv]
            alpha.append(c)
            if c:
                residual = [a - c * b for a, b in zip(residual, row)]
        if any(residual):
            raise MalformedInputError("point outside affine hull")
        coords.append(tuple(alpha))
    return coords, affdim


def _facets(points_idx, coords):
    """Facets of the convex hull, as frozensets of indices into points_idx."""
    affdim = len(coords[0]) if coords else 0
    if affdim == 0:
        return []
    npts = len(points_idx)
    facets = set()
    for subset in combinations(range(npts), affdim):
        base = coords[subset[0]]
        mat = [[coords[s][j] - base[j] for j in range(affdim)] for s in subset[1:]]
        kern = nullspace(mat, affdim) if mat else nullspace([[0] * affdim], affdim)
        if len(kern) != 1:
            continue
        normal = kern[0]
        sides = [
            sum(n * (coords[i][j] - base[j]) for j, n in enumerate(normal))
            for i in range(npts)
        ]
        if all(s >= 0 for s in sides) or all(s <= 0 for s in sides):
            on = frozenset(i for i in range(npts) if sides[i] == 0)
            if len(on) < npts:
                facets.add(on)
    return facets


def _triangulate_points(points_idx, points):
    """Pulling triangulation of a point configuration (indices into `points`).

    Recursively cones the lowest-index vertex over the facets avoiding it."""
    coords, affdim = _affine_coordinates([points[i] for i in points_idx])
    independent = len(points_idx) == affdim + 1
    if independent:
        return [tuple(points_idx)]
    v_local = 0  # points_idx is sorted; pull the first
    out = []
    for facet in _facets(points_idx, coords):
        if v_local in facet:
            continue
        sub_idx = sorted(points_idx[i] for i in facet)
        for sub in _triangulate_points(sub_idx, points):
            out.append((points_idx[v_local],) + sub)
    return out


def _solve_in_ray_basis(rays, target):
    """Coefficients t with sum t_i * rays[i] = target (target must lie in the span)."""
    d = len(rays)
    m = len(target)
    mat = [[Fraction(rays[i][j]) for j in range(m)] for i in range(d)]
    _, pivots = rref(mat, m)
    cols = pivots
    square = [[Fraction(rays[i][c]) for i in range(d)] for c in cols]
    rhs = [Fraction(target[c]) for c in cols]
    t = solve_exact(square, rhs)
    if t is None:
        raise MalformedInputError("target not in the span of the rays")
    for j in range(m):
        if sum(t[i] * rays[i][j] for i in range(d)) != target[j]:
            raise MalformedInputError("target not in the span of the rays")
    return t


def _parallelepiped_points(rays, closed):
    """Lattice points of the half-open fundamental parallelepiped of the rays.

    closed[i] says whether the facet opposite to... (coefficient t_i = 0 side)
    is kept; open coordinates use (0, 1] instead of [0, 1).  Enumerates coset
    representatives of the saturated lattice modulo the ray lattice via an
    integer diagonalization."""
    d = len(rays)
    m = len(rays[0])
    divisors, V = diagonalize_rowlattice([list(r) for r in rays])
    points = {}
    for combo in product(*[range(dv) for dv in divisors]):
        z = [0] * m
        for c, vrow in zip(combo, V):
            if c:
                for j in range(m):
                    z[j] += c * vrow[j]
        t = _solve_in_ray_basis(rays, z)
        tt = []
        for i, ti in enumerate(t):
            frac = ti - (ti.numerator // ti.denominator)  # in [0,1)
            if frac == 0 and not closed[i]:
                frac = Fraction(1)
            tt.append(frac)
        pt = tuple(
            int(sum(tt[i] * rays[i][j] for i in range(d))) for j in range(m)
        )
        chk = [sum(Fraction(tt[i]) * rays[i][j] for i in range(d)) for j in range(m)]
        if any(c.denominator != 1 for c in chk):
            raise MalformedInputError("parallelepiped point is not integral")
        if pt in points:
            raise MalformedInputError("duplicate parallelepiped representative")
        points[pt] = 1
    return points


def _variables(m):
    """Names for the m coordinates of a cone's generating function."""
    return tuple(f"x{i}" for i in range(1, m + 1))


def rational_form(sys: DiophantineConeSystem, _seed: int = 0) -> MultivariateRationalForm:
    """Exact rational generating function of the non-negative solution monoid.

    The cone is triangulated on its extreme rays; each simplicial piece is made
    half-open facing a fixed generic interior point, so the pieces partition
    the cone and expand() agrees with brute_series() coefficient by
    coefficient."""
    ex = extreme_rays(sys)
    # cones inside the non-negative orthant are always pointed; a violated ray
    # sign would mean a non-pointed cone slipped through
    if any(min(r) < 0 for r in ex.rays):
        raise UnsupportedError("non-pointed cone (negative ray component)")
    if len(ex.rays) > MAX_RAYS:
        raise ResourceGuardError(f"guard: at most {MAX_RAYS} extreme rays", predicted=len(ex.rays))
    m = sys.m
    if not ex.rays:
        return MultivariateRationalForm(m, {tuple([0] * m): 1}, ())
    rays = list(ex.rays)
    d = ex.dim
    # normalize onto the hyperplane sum = 1 and triangulate
    points = [tuple(Fraction(x, sum(r)) for x in r) for r in rays]
    simplices = _triangulate_points(list(range(len(rays))), points)
    for sigma in simplices:
        if len(sigma) != d:
            raise MalformedInputError("triangulation produced a non-maximal simplex")
    # generic interior point for the half-open orientation
    rng = random.Random(_seed)
    for _ in range(64):
        w_coeff = [rng.randrange(1, 1000) for _ in rays]
        w = [sum(w_coeff[i] * rays[i][j] for i in range(len(rays))) for j in range(m)]
        barycentric = []
        ok = True
        for sigma in simplices:
            t = _solve_in_ray_basis([rays[i] for i in sigma], w)
            if any(ti == 0 for ti in t):
                ok = False
                break
            barycentric.append(t)
        if ok:
            break
    else:
        raise MalformedInputError("could not find a generic interior point")
    pieces = []
    for sigma, t in zip(simplices, barycentric):
        sigma_rays = [rays[i] for i in sigma]
        closed = [ti > 0 for ti in t]
        pieces.append((sigma_rays, _parallelepiped_points(sigma_rays, closed)))
    all_rays = sorted({tuple(r) for sigma_rays, _ in pieces for r in sigma_rays})
    names, zero = _variables(m), tuple([0] * m)
    numerator = Polynomial(names)
    for sigma_rays, pts in pieces:
        sigma_set = {tuple(r) for r in sigma_rays}
        piece = Polynomial(names, pts)
        for r in all_rays:
            if r not in sigma_set:
                piece = piece * Polynomial(names, {zero: 1, r: -1})
        numerator = numerator + piece
    return MultivariateRationalForm(m, numerator.terms, tuple(all_rays))


def expand_form(form: MultivariateRationalForm, B: int) -> MultivariateSeriesTruncation:
    """Box-truncated series of the form (every exponent in [0, B])."""
    series, negatives = _expand_with_laurent(form.numerator, form.denominator_rays, form.m, B)
    if negatives:
        raise MalformedInputError("unexpected negative exponents in expansion")
    return MultivariateSeriesTruncation(form.m, B, series)


def _expand_with_laurent(numerator, rays, m, B):
    """Series of numerator / prod(1 - X^ray) in the box [0, B]^m.

    Laurent numerators are allowed; returns (terms_in_box, negatives_present)."""
    if not numerator:
        return {}, False
    shift = [max(0, -min(e[j] for e in numerator)) for j in range(m)]
    cap = [B + shift[j] for j in range(m)]
    maxdeg = sum(cap)
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
            target = buckets[deg + rsum]
            for e, c in list(bucket.items()):
                if not c:
                    continue
                e2 = tuple(x + y for x, y in zip(e, r))
                if all(x <= cp for x, cp in zip(e2, cap)):
                    target[e2] = target.get(e2, 0) + c
    out = {}
    negatives = False
    for bucket in buckets:
        for e, c in bucket.items():
            if not c:
                continue
            e2 = tuple(x - s for x, s in zip(e, shift))
            if any(x < 0 for x in e2):
                negatives = True
                continue
            if all(x <= B for x in e2):
                out[e2] = out.get(e2, 0) + c
    out = {e: c for e, c in out.items() if c}
    return out, negatives


# ---------------------------------------------------------------------------
# Stanley reciprocity


@dataclass(frozen=True)
class ReciprocityVerdict:
    status: str  # "pass" | "fail" | "inconclusive"
    detail: str = ""


def reciprocity_check(sys: DiophantineConeSystem, B: int) -> ReciprocityVerdict:
    """Compare the strict-solution series with (-1)^d E(1/X) up to the box bound."""
    strict = brute_series(sys, B, strict=True)
    if not strict.terms:
        return ReciprocityVerdict("inconclusive", "no strict solution within the bound")
    form = rational_form(sys)
    ex_dim = extreme_rays(sys).dim
    # E(1/X): invert numerator exponents; each 1/(1 - X^-r) = -X^r/(1 - X^r)
    q = len(form.denominator_rays)
    sign = (-1) ** (ex_dim + q)
    shift_total = [sum(r[j] for r in form.denominator_rays) for j in range(sys.m)]
    num = Polynomial(_variables(sys.m), form.numerator).invert().shift(*shift_total).scale(sign)
    series, negatives = _expand_with_laurent(num.terms, form.denominator_rays, sys.m, B)
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
    """Apply the monoid homomorphism X_i -> X^{e1} Y^{e2} (None means -> 1).

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

    def image(exp_vector):
        ax = sum(e * im[0] for e, im in zip(exp_vector, images))
        ay = sum(e * im[1] for e, im in zip(exp_vector, images))
        return ax, ay

    if isinstance(obj, MultivariateSeriesTruncation):
        if len(images) != obj.m:
            raise MalformedInputError("assignment must cover every variable")
        acc = {}
        for e, c in obj.terms.items():
            key = image(e)
            acc[key] = acc.get(key, 0) + c
        return BivariateRationalFunction(Polynomial(XY, acc))

    form = obj
    if len(images) != form.m:
        raise MalformedInputError("assignment must cover every variable")
    acc = {}
    for e, c in form.numerator.items():
        key = image(e)
        acc[key] = acc.get(key, 0) + c
    num = Polynomial(XY, acc)
    den = {}
    extra = Polynomial(XY, {(0, 0): 1})
    for ray in form.denominator_rays:
        a, b = image(ray)
        if (a, b) == (0, 0):
            raise PoleError(f"substitution sends ray {ray} to 1", ray=ray)
        if b >= 1:
            den[(a, b)] = den.get((a, b), 0) + 1
        else:
            extra = extra * Polynomial(XY, {(0, 0): 1, (a, b): -1})
    return BivariateRationalFunction(num, den, extra)


# ---------------------------------------------------------------------------
# min-of-linear-forms series (brute force only)


def minform_series(forms, r, s, t, B, strict=False) -> MultivariateSeriesTruncation:
    """Sum over n in {lo..B}^r of X^n * prod_sigma Y_sigma^{min_tau L_{sigma tau}(n)}.

    forms[sigma][tau] is the coefficient vector (length r) of a Z-linear form."""
    if r + s > MAX_VARIABLES or B > MAX_BOUND:
        raise ResourceGuardError(f"guard: r+s <= {MAX_VARIABLES}, B <= {MAX_BOUND}")
    if len(forms) != s or any(len(row) != t for row in forms):
        raise MalformedInputError("forms must be an s x t array of coefficient vectors")
    lo = 1 if strict else 0
    terms = {}
    for n in product(range(lo, B + 1), repeat=r):
        ys = tuple(
            min(sum(c * x for c, x in zip(form, n)) for form in row) for row in forms
        )
        e = n + ys
        terms[e] = terms.get(e, 0) + 1
    return MultivariateSeriesTruncation(r + s, B, terms)
