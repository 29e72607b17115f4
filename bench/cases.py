"""The benchmark's workloads: base inputs, case lists and output checks.

Every case is an argv for `ringzeta.cli.main`.  A token `@ring:NAME` or
`@presentation:NAME` stands for a JSON file holding a seeded isomorph of the
base input NAME; `@data:PATH` stands for a read-only file of the checkout.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import isomorph

LIE = ["antisymmetric", "lie"]

# Base rings as in the sources the closed forms come from: (rank, constants
# [i, j, k, c] meaning e_i * e_j has c in coordinate k, flags).
RINGS = {
    "heisenberg": (3, [[1, 2, 3, 1], [2, 1, 3, -1]], LIE),
    "sl2": (3, [[1, 2, 3, 1], [2, 1, 3, -1], [3, 1, 1, 2], [1, 3, 1, -2],
                [3, 2, 2, -2], [2, 3, 2, 2]], LIE),
    "free_nilpotent_2_d(3)": (6, [[1, 2, 4, 1], [2, 1, 4, -1], [1, 3, 5, 1],
                                  [3, 1, 5, -1], [2, 3, 6, 1], [3, 2, 6, -1]], LIE),
    "componentwise(4)": (4, [[i, i, i, 1] for i in range(1, 5)],
                         ["associative", "commutative"]),
    "abelian(5)": (5, [], ["antisymmetric", "lie", "associative", "commutative"]),
    "dusautoy_ec": (9, [[1, 4, 9, 1], [1, 5, 7, 1], [1, 6, 8, 1], [2, 4, 7, 1],
                        [2, 5, 9, 1], [3, 4, 8, 1], [3, 6, 7, 1], [4, 1, 9, -1],
                        [4, 2, 7, -1], [4, 3, 8, -1], [5, 1, 7, -1], [5, 2, 9, -1],
                        [6, 1, 8, -1], [6, 3, 7, -1]], LIE),
}

# Class-2 presentations: (d, dprime, constants [i, j, k, c] meaning
# [e_i, e_j] has c in central coordinate f_k).
PRESENTATIONS = {
    "heisenberg": (2, 1, [[1, 2, 1, 1], [2, 1, 1, -1]]),
    "dusautoy_ec": (6, 3, [[1, 4, 3, 1], [1, 5, 1, 1], [1, 6, 2, 1], [2, 4, 1, 1],
                           [2, 5, 3, 1], [3, 4, 2, 1], [3, 6, 1, 1], [4, 1, 3, -1],
                           [4, 2, 1, -1], [4, 3, 2, -1], [5, 1, 1, -1], [5, 2, 3, -1],
                           [6, 1, 2, -1], [6, 3, 1, -1]]),
}


def _zeta(ring, formula, p, K, mode):
    return (f"zeta compare {ring} {formula} p={p} K={K} {mode}",
            ["zeta", "compare", "--ring", "@ring:" + ring, "--formula", formula,
             "--prime", str(p), "--max-index", str(K), "--mode", mode])


def _rep(pres, formula, p, J):
    return (f"rep compare {pres} {formula} p={p} J={J}",
            ["rep", "compare", "--presentation", "@presentation:" + pres,
             "--formula", formula, "--prime", str(p), "--max-exp", str(J)])


def _euler(name, bound, *extra):
    return (f"euler {name} {bound}",
            ["euler", "--name", name, "--primes-up-to", str(bound), "--max-m", str(bound), *extra])


def _solve(name):
    return (f"zeta funeq {name}", ["zeta", "funeq", "--name", name, "--solve"])


def _expect(name, sign, a, b):
    return (f"zeta funeq {name}", ["zeta", "funeq", "--name", name, "--expect-sign", str(sign),
                                   "--expect-a", str(a), "--expect-b", str(b)])


def _cone(command, fixture):
    return (f"cone {command} {fixture}",
            ["cone", command, "--system", "@data:tests/data/" + fixture, "--bound", "6"])


# transform: how the seed changes the inputs (see isomorph.py).
WORKLOADS = {
    # Filtered nilpotent rings (k > max(i, j) in the given basis).  For the
    # rank-9 ideals 2,731 of 174,763 lattices pass closure, so pruning and
    # closure work dominate.
    "nilpotent_lattices": ("filtered", [
        _zeta("dusautoy_ec", "dusautoy_normal", 2, 2, "ideals"),
        _zeta("free_nilpotent_2_d(3)", "f23_subring", 2, 3, "subrings"),
        _zeta("heisenberg", "heisenberg_subring", 3, 5, "subrings"),
        _zeta("heisenberg", "heisenberg_ideal", 3, 5, "ideals"),
    ]),
    # The same layer without a filtered basis: sl2 is not nilpotent,
    # componentwise(4) is not antisymmetric (products on both sides), and in
    # sublattice mode every lattice is accepted.
    "general_lattices": ("signed_permutation", [
        _zeta("sl2", "sl2_odd", 3, 5, "subrings"),
        _zeta("sl2", "sl2_two", 2, 7, "subrings"),
        _zeta("componentwise(4)", "componentwise_ideal(4)", 2, 5, "ideals"),
        _zeta("abelian(5)", "zeta_Zn(5)", 2, 4, "sublattices"),
    ]),
    # Orbit counting: smith_type on every primitive character; never touches
    # latticezeta.
    "orbit_reps": ("signed_permutation", [
        _rep("dusautoy_ec", "dusautoy_rep", 3, 2),
        _rep("dusautoy_ec", "dusautoy_rep", 5, 2),
        _rep("dusautoy_ec", "dusautoy_rep", 7, 2),
        _rep("heisenberg", "heisenberg_rep", 5, 6),
        _rep("heisenberg", "heisenberg_rep", 7, 5),
    ]),
    # No enumeration of lattices or characters: Fraction series expansion,
    # polynomial evaluation, cones and Coxeter identities.  Not seeded.
    "closed_forms": (None, [
        _euler("zeta_Zn(2)", 10**5, "--asymptotics", "2,0,0.822467"),
        _euler("heisenberg_subring", 10**5),
        _euler("f23_subring", 2 * 10**4),
        ("igusa zeta3d heisenberg p=5 K=3",
         ["igusa", "zeta3d", "--ring", "@ring:heisenberg", "--prime", "5", "--max-index", "3"]),
        *[_solve(name) for name in (
            "heisenberg_subring", "heisenberg_ideal", "heisenberg_rep", "sl2_odd", "sl2_two",
            "f23_subring", "componentwise2_subring", "class2_2gen_pgroups", "zeta_Zn(6)",
            "abelian_pgroups(3)", "componentwise_ideal(4)")],
        _expect("dusautoy_normal", -1, 36, 15),
        _expect("dusautoy_rep", 1, 3, 0),
        _cone("ratform", "stanley_cone.json"),
        _cone("reciprocity", "stanley_cone.json"),
        _cone("ratform", "heisenberg_inequality.json"),
        _cone("reciprocity", "heisenberg_inequality.json"),
        ("coxeter check n=6", ["coxeter", "check", "--n", "6"]),
    ]),
}


def _base_change(transform, rank, constants, rng):
    if transform == "filtered":
        return isomorph.filtered_change(rank, constants, rng)
    if transform == "signed_permutation":
        return isomorph.signed_permutation(rank, rng)
    return [[int(i == j) for j in range(rank)] for i in range(rank)]


def _as_dict(entries):
    return {(i, j, k): c for i, j, k, c in entries}


def _as_list(constants):
    return [[i, j, k, c] for (i, j, k), c in sorted(constants.items())]


def isomorphs(workload, seed):
    """{token: JSON document} for every seeded input the workload's cases name."""
    transform, cases = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    tokens = sorted({a for _, argv in cases for a in argv
                     if a.startswith(("@ring:", "@presentation:"))})
    docs = {}
    for n, token in enumerate(tokens, start=1):
        kind, name = token[1:].split(":", 1)
        if kind == "ring":
            rank, entries, flags = RINGS[name]
            M = _base_change(transform, rank, _as_dict(entries), rng)
            docs[token] = {"name": f"ring{n}", "rank": rank, "flags": flags,
                           "constants": _as_list(isomorph.change_basis(_as_dict(entries), M))}
        else:
            d, dprime, entries = PRESENTATIONS[name]
            A = _base_change(transform, d, {}, rng)
            B = _base_change(transform, dprime, {}, rng)
            docs[token] = {"name": f"presentation{n}", "d": d, "dprime": dprime,
                           "constants": _as_list(isomorph.change_basis(_as_dict(entries), A, B))}
    return docs


def materialize(workload, seed, root: Path, tmp: Path):
    """The workload's (case id, argv) list with every token replaced by a path."""
    paths = {}
    for n, (token, doc) in enumerate(isomorphs(workload, seed).items()):
        path = tmp / f"input{n}.json"
        path.write_text(json.dumps(doc))
        paths[token] = str(path)
    out = []
    for case_id, argv in WORKLOADS[workload][1]:
        resolved = []
        for a in argv:
            if a.startswith("@data:"):
                a = str(root / a[len("@data:"):])
            resolved.append(paths.get(a, a))
        out.append((case_id, ["--output", "json", *resolved]))
    return out


def check(expected, code, stdout):
    """True when the exit code and the report match the pinned reference.

    `fields` must match exactly; `coefficients` must equal every coefficient
    column of the report rows (both sides of a comparison)."""
    if code != expected["exit"]:
        return False
    try:
        report = json.loads(stdout)
    except ValueError:
        return False
    if any(report.get(k) != v for k, v in expected.get("fields", {}).items()):
        return False
    if "coefficients" in expected:
        rows = report.get("rows") or [{}]
        columns = [k for k in rows[0] if k not in ("index_exponent", "equal")]
        if not columns or any([row.get(k) for row in rows] != expected["coefficients"]
                              for k in columns):
            return False
    return True
