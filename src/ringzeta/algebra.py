"""Rings given by integer structure constants.

A rank-n ring is stored as a sparse map (i, j, k) -> c (1-based basis indices,
absent means 0) with e_i * e_j = sum_k c_{ijk} e_k.  Products extend bilinearly.
The catalog ships the worked example rings used throughout the test suite.
"""

from __future__ import annotations

import json
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, count, product

from .errors import LookupError_, MalformedInputError, UnsupportedError
from .exactlinalg import rref

KNOWN_FLAGS = frozenset({"antisymmetric", "lie", "associative", "commutative"})


def _freeze_constants(constants, rank, kmax=None):
    if kmax is None:
        kmax = rank
    out = {}
    for (i, j, k), v in constants.items():
        if not (1 <= i <= rank and 1 <= j <= rank and 1 <= k <= kmax):
            raise MalformedInputError(f"structure constant index {(i, j, k)} out of range")
        v = int(v)
        if v:
            out[(i, j, k)] = v
    return out


@dataclass(frozen=True)
class AxiomVerdict:
    holds: bool
    witness: tuple | None = None  # first offending basis triple


@dataclass(frozen=True)
class ValidationReport:
    antisymmetric: AxiomVerdict
    jacobi: AxiomVerdict
    associative: AxiomVerdict
    commutative: AxiomVerdict

    def as_dict(self):
        return {
            name: {"holds": v.holds, "witness": v.witness}
            for name, v in (
                ("antisymmetric", self.antisymmetric),
                ("jacobi", self.jacobi),
                ("associative", self.associative),
                ("commutative", self.commutative),
            )
        }


class StructureConstantAlgebra:
    """Immutable; safe to share between workers.  `flags` are declarations,
    each checked against the constants here; `antisymmetric` and
    `commutative` are the verdicts `validate` measures here, which the walks
    read whatever the ring declares."""

    def __init__(self, name, rank, constants, flags=()):
        if rank < 1:
            raise MalformedInputError("rank must be >= 1")
        flags = frozenset(flags)
        unknown = flags - KNOWN_FLAGS
        if unknown:
            raise MalformedInputError(f"unknown flags: {sorted(unknown)}")
        self.name = name
        self.rank = rank
        self.constants = _freeze_constants(constants, rank)
        self.flags = flags
        report = validate(self)
        self.antisymmetric, self.commutative = report.antisymmetric, report.commutative
        self._check_declared_flags(report)

    def _check_declared_flags(self, report):
        checks = {
            "antisymmetric": report.antisymmetric,
            "lie": AxiomVerdict(
                report.antisymmetric.holds and report.jacobi.holds,
                report.antisymmetric.witness or report.jacobi.witness,
            ),
            "associative": report.associative,
            "commutative": report.commutative,
        }
        for flag in self.flags:
            verdict = checks[flag]
            if not verdict.holds:
                raise MalformedInputError(
                    f"{self.name!r} declared {flag} but fails at triple {verdict.witness}"
                )

    def basis_vector(self, i):
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))

    def __repr__(self):
        return f"StructureConstantAlgebra({self.name!r}, rank={self.rank})"

    def __eq__(self, other):
        return (
            isinstance(other, StructureConstantAlgebra)
            and self.rank == other.rank
            and self.constants == other.constants
        )

    def __hash__(self):
        return hash((self.rank, tuple(sorted(self.constants.items()))))


def multiply(alg: StructureConstantAlgebra, u, v):
    """Bilinear product of two coordinate vectors of length alg.rank, as a
    tuple of ints.  The lengths are not checked: callers pass vectors they built."""
    out = [0] * alg.rank
    for (i, j, k), c in alg.constants.items():
        ui = u[i - 1]
        if ui:
            vj = v[j - 1]
            if vj:
                out[k - 1] += ui * vj * c
    return tuple(out)


def validate(alg: StructureConstantAlgebra) -> ValidationReport:
    """Check every axiom on all basis triples, whatever the declared flags say.

    Each axiom is a sum of structure constants that must vanish at every basis
    triple (i, j, k) and output coordinate l, built from the nonzero constants:
    antisymmetry c_ijl + c_jil for i < j and c_iil for i = j; commutativity
    c_ijl - c_jil; associativity sum_m c_ijm c_mkl - c_jkm c_iml; Jacobi
    sum_m c_jkm c_iml summed over the cyclic shifts of (i, j, k).  The sums
    are keyed (witness..., l), and the witness is the least one with a nonzero
    sum: (i, j, l) with i <= j for antisymmetry, (i, j, None) with i < j for
    commutativity and (i, j, k) otherwise.  The first two come from
    `_symmetry`, which `Class2Presentation` runs on its own constants.
    """
    by_right = defaultdict(list)  # m -> [(h, l, c_hml)]
    by_left = defaultdict(list)  # m -> [(k, l, c_mkl)]
    for (a, b, l), c in alg.constants.items():
        by_right[b].append((a, l, c))
        by_left[a].append((b, l, c))
    assoc, jacobi = Counter(), Counter()
    for (i, j, m), c in alg.constants.items():
        for k, l, d in by_left[m]:  # (e_i e_j) e_k
            assoc[i, j, k, l] += c * d
        for h, l, d in by_right[m]:  # e_h (e_i e_j)
            assoc[h, i, j, l] -= c * d
            for key in ((h, i, j, l), (j, h, i, l), (i, j, h, l)):
                jacobi[key] += c * d
    antisymmetric, commutative = _symmetry(alg.constants)
    return ValidationReport(
        antisymmetric=antisymmetric,
        jacobi=_verdict(jacobi),
        associative=_verdict(assoc),
        commutative=commutative,
    )


def _symmetry(constants):
    """The antisymmetry and commutativity verdicts of the constants (i, j, l)
    -> c of a ring or a class-2 presentation (see `validate`)."""
    anti, comm = Counter(), Counter()
    for (i, j, l), c in constants.items():
        anti[min(i, j), max(i, j), l] += c
        if i != j:
            comm[min(i, j), max(i, j), None, l] += c if i < j else -c
    return _verdict(anti), _verdict(comm)


def _verdict(sums):
    w = min((key[:3] for key, v in sums.items() if v), default=None)
    return AxiomVerdict(w is None, w)


def nilpotency_class(alg: StructureConstantAlgebra):
    """Smallest c with gamma_{c+1} = 0 over Q, or None when the series
    stabilizes at a nonzero term.  Ranks decide; torsion is not modeled.

    A basis of gamma_{c+1} is the rref of the products u e_b, u running over a
    basis of gamma_c; as gamma_{c+1} lies in gamma_c, equal ranks mean equal
    spaces."""
    n = alg.rank
    basis = [alg.basis_vector(i) for i in range(1, n + 1)]
    current = basis  # a basis of gamma_c
    for c in count(1):
        space, _ = rref([multiply(alg, u, b) for u in current for b in basis], n)
        if not space:
            return c
        if len(space) == len(current):
            return None
        current = space


def scale(alg: StructureConstantAlgebra, p: int, i: int) -> StructureConstantAlgebra:
    """The same additive lattice with all products multiplied by p^i."""
    f = p**i
    return StructureConstantAlgebra(
        f"scale({alg.name},{p},{i})",
        alg.rank,
        {key: v * f for key, v in alg.constants.items()},
        alg.flags,
    )


# ---------------------------------------------------------------------------
# class-2 presentations and commutator matrices


class Class2Presentation:
    """Relations [e_i, e_j] = sum_k c_{ijk} f_k with central f_1..f_{dprime}.
    They need not be antisymmetric (the central sums take any class-2 ring).
    The constructor measures antisymmetry and commutativity as `validate`
    does: the central sums test one side where either holds, and
    `commutator_matrix`, for the orbit count, refuses a presentation that is
    not antisymmetric."""

    def __init__(self, name, d, dprime, constants):
        if d < 1 or dprime < 1:
            raise MalformedInputError("d and dprime must be >= 1")
        self.name = name
        self.d = d
        self.dprime = dprime
        self.constants = _freeze_constants(constants, d, kmax=dprime)
        self.antisymmetric, self.commutative = _symmetry(self.constants)

    def __repr__(self):
        return f"Class2Presentation({self.name!r}, d={self.d}, dprime={self.dprime})"


class CommutatorMatrix:
    """d x d matrix of integer linear forms in y_1..y_{dprime}."""

    def __init__(self, d, dprime, entries):
        self.d = d
        self.dprime = dprime
        self.entries = entries  # entries[i][j] = coefficient tuple, length dprime

    def evaluate(self, ell):
        """Integer matrix R(ell) at a point ell of length dprime (not checked)."""
        return [
            [sum(c * l for c, l in zip(form, ell)) for form in row]
            for row in self.entries
        ]

    def is_zero(self):
        return all(not any(form) for row in self.entries for form in row)


def commutator_matrix(pres: Class2Presentation) -> CommutatorMatrix:
    """The matrix of pres, which must be antisymmetric; the least offending
    triple (i, j, k), i <= j, is named."""
    if not pres.antisymmetric.holds:
        raise MalformedInputError(
            f"commutator forms not antisymmetric at {pres.antisymmetric.witness}")
    entries = [
        [[0] * pres.dprime for _ in range(pres.d)] for _ in range(pres.d)
    ]
    for (i, j, k), c in pres.constants.items():
        entries[i - 1][j - 1][k - 1] = c
    return CommutatorMatrix(pres.d, pres.dprime, entries)


def class2_presentation(alg: StructureConstantAlgebra) -> Class2Presentation | None:
    """The presentation of alg when it is class 2 in its given basis, else
    None.  Class 2 in the given basis: the coordinates that are no factor of
    any structure constant span an ideal Z that annihilates the ring, every
    product lands in Z, and Z and its complement are both nonzero.  The
    factor coordinates become e_1..e_d and those of Z f_1..f_d', each in
    order."""
    factors = sorted({c for key in alg.constants for c in key[:2]})
    e = {c: i for i, c in enumerate(factors, start=1)}
    f = {c: k for k, c in enumerate((c for c in range(1, alg.rank + 1) if c not in e), start=1)}
    if not e or not f or any(k in e for *_, k in alg.constants):
        return None
    return Class2Presentation(
        alg.name, len(e), len(f),
        {(e[a], e[b], f[k]): v for (a, b, k), v in alg.constants.items()},
    )


def projective_points(p, n):
    """One vector per point of P^(n-1)(F_p): its first nonzero coordinate is 1."""
    for i in range(n):
        for tail in product(range(p), repeat=n - 1 - i):
            yield (0,) * i + (1,) + tail


# ---------------------------------------------------------------------------
# catalog

# du Sautoy's elliptic-curve ring, basis x1..x6, y1..y3: [x_i, x_{3+j}] is the
# sum of the y_k listed at (i, j)
_DUSAUTOY_SMALL_R = (
    ((3,), (1,), (2,)),
    ((1,), (3,), ()),
    ((2,), (), (1,)),
)


@lru_cache(maxsize=None)
def catalog(name: str, param: int | None = None) -> StructureConstantAlgebra:
    """Catalog of example rings.  Basis order follows the sources the test
    oracles were derived from (x, y, z for the Heisenberg ring; e, f, h for
    the traceless 2x2 matrices)."""
    if name == "abelian":
        n = _require_param(name, param)
        return StructureConstantAlgebra(
            f"abelian({n})", n, {}, ("antisymmetric", "lie", "associative", "commutative")
        )
    if name == "heisenberg":
        _refuse_param(name, param)
        return StructureConstantAlgebra(
            "heisenberg", 3, {(1, 2, 3): 1, (2, 1, 3): -1}, ("antisymmetric", "lie")
        )
    if name == "sl2":
        _refuse_param(name, param)
        constants = {
            (1, 2, 3): 1, (2, 1, 3): -1,   # [e, f] = h
            (3, 1, 1): 2, (1, 3, 1): -2,   # [h, e] = 2e
            (3, 2, 2): -2, (2, 3, 2): 2,   # [h, f] = -2f
        }
        return StructureConstantAlgebra("sl2", 3, constants, ("antisymmetric", "lie"))
    if name == "free_nilpotent_2_d":
        d = _require_param(name, param)
        constants = {}
        for k, (i, j) in enumerate(combinations(range(1, d + 1), 2), start=d + 1):
            constants[(i, j, k)], constants[(j, i, k)] = 1, -1
        return StructureConstantAlgebra(
            f"free_nilpotent_2_{d}", d + d * (d - 1) // 2, constants, ("antisymmetric", "lie")
        )
    if name == "componentwise":
        n = _require_param(name, param)
        return StructureConstantAlgebra(
            f"componentwise({n})",
            n,
            {(i, i, i): 1 for i in range(1, n + 1)},
            ("associative", "commutative"),
        )
    if name == "dusautoy_ec":
        _refuse_param(name, param)
        constants = {}
        for i, j in product(range(3), repeat=2):
            for k in _DUSAUTOY_SMALL_R[i][j]:
                constants[(i + 1, j + 4, 6 + k)], constants[(j + 4, i + 1, 6 + k)] = 1, -1
        return StructureConstantAlgebra("dusautoy_ec", 9, constants, ("antisymmetric", "lie"))
    raise LookupError_(f"unknown catalog ring {name!r}")


def _require_param(name, param):
    if param is None:
        raise MalformedInputError(f"catalog entry {name!r} needs a parameter")
    if param < 1:
        raise MalformedInputError(f"parameter for {name!r} must be >= 1")
    return param


def _refuse_param(name, param):
    if param is not None:
        raise MalformedInputError(f"catalog entry {name!r} takes no parameter")


_SPEC_RE = re.compile(r"^([a-zA-Z_][a-zA-Z0-9_]*)(?:\((\d+)\))?$")


def resolve_ring_spec(spec: str) -> StructureConstantAlgebra:
    """Resolve 'catalog:NAME', 'catalog:NAME(k)', 'catalog:scale(NAME,p,i)',
    'catalog:scale(NAME(k),p,i)' or a JSON path."""
    if not spec.startswith("catalog:"):
        return load_algebra(spec)
    body = spec[len("catalog:"):]
    scaled = re.match(r"^scale\(([a-zA-Z0-9_()]+),(\d+),(\d+)\)$", body)
    m = _SPEC_RE.match(scaled.group(1) if scaled else body)
    if not m:
        raise MalformedInputError(f"cannot parse ring spec {spec!r}")
    alg = catalog(m.group(1), int(m.group(2)) if m.group(2) else None)
    return scale(alg, int(scaled.group(2)), int(scaled.group(3))) if scaled else alg


def resolve_presentation_spec(spec: str) -> Class2Presentation:
    """The presentation of a catalog ring spec (see `class2_presentation`) or
    of a presentation JSON file."""
    if not spec.startswith("catalog:"):
        return load_presentation(spec)
    pres = class2_presentation(resolve_ring_spec(spec))
    if pres is None:
        raise UnsupportedError(f"{spec!r} is not class 2 in its given basis")
    return pres


# ---------------------------------------------------------------------------
# JSON input files


def _constants_from_json(entries):
    if not isinstance(entries, list):
        raise MalformedInputError("constants must be a list of [i, j, k, value] entries")
    constants = {}
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 4
                and all(type(x) is int for x in entry)):
            raise MalformedInputError(f"constant entry {entry!r} must be [i, j, k, value] integers")
        i, j, k, v = entry
        if (i, j, k) in constants:
            raise MalformedInputError(f"duplicate structure-constant triple {(i, j, k)}")
        constants[(i, j, k)] = v
    return constants


def _load_object(path, kind, int_fields):
    """The JSON object in `path`, with each of `int_fields` present and an
    integer, and `name`, when present, a string."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise MalformedInputError(f"{kind} file {path} must hold a JSON object")
    if not isinstance(data.get("name", ""), str):
        raise MalformedInputError(f"{kind} file {path}: name must be a string")
    for field in int_fields:
        if field not in data:
            raise MalformedInputError(f"{kind} file {path} missing field {field!r}")
        if type(data[field]) is not int:
            raise MalformedInputError(f"{kind} file {path}: {field} must be an integer")
    return data


def load_algebra(path) -> StructureConstantAlgebra:
    data = _load_object(path, "ring", ("rank",))
    flags = data.get("flags", [])
    if not (isinstance(flags, list) and all(isinstance(f, str) for f in flags)):
        raise MalformedInputError(f"ring file {path}: flags must be a list of strings")
    return StructureConstantAlgebra(
        data.get("name", str(path)),
        data["rank"],
        _constants_from_json(data.get("constants", [])),
        flags,
    )


def load_presentation(path) -> Class2Presentation:
    data = _load_object(path, "presentation", ("d", "dprime"))
    return Class2Presentation(
        data.get("name", str(path)),
        data["d"],
        data["dprime"],
        _constants_from_json(data.get("constants", [])),
    )
