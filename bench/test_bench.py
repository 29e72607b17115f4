"""Tests of the benchmark's seeded inputs.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import cases  # noqa: E402
import isomorph  # noqa: E402
from ringzeta import algebra, cli  # noqa: E402
from run import run_case  # noqa: E402

SEEDS = (1, 2, 3, 17)


def _load(doc, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    if "rank" in doc:
        return algebra.load_algebra(path)  # raises if a declared flag fails
    return algebra.load_presentation(path)


@pytest.mark.parametrize("seed", SEEDS)
def test_filtered_change_keeps_filtration_and_flags(seed, tmp_path):
    docs = cases.isomorphs("nilpotent_lattices", seed)
    for token, doc in docs.items():
        base_rank, base_constants, flags = cases.RINGS[token.split(":", 1)[1]]
        assert all(k > max(i, j) for i, j, k, _ in base_constants)
        assert all(k > max(i, j) for i, j, k, _ in doc["constants"]), token
        assert len(doc["constants"]) == len(base_constants)
        ring = _load(doc, tmp_path)
        assert ring.flags == frozenset(flags)


@pytest.mark.parametrize("workload", ["general_lattices", "orbit_reps"])
def test_signed_permutations_load_with_their_flags(workload, tmp_path):
    for seed in SEEDS:
        for doc in cases.isomorphs(workload, seed).values():
            _load(doc, tmp_path)


def test_base_change_round_trips():
    rank, entries, _ = cases.RINGS["sl2"]
    constants = {(i, j, k): c for i, j, k, c in entries}
    M = [[1, 1, 0], [0, 1, -1], [1, 1, 1]]
    assert isomorph.change_basis(isomorph.change_basis(constants, M), isomorph.integer_inverse(M)) == constants
    with pytest.raises(ValueError):
        isomorph.integer_inverse([[2, 0], [0, 1]])


def test_seeds_change_the_constants():
    a, b = (cases.isomorphs("nilpotent_lattices", s)["@ring:dusautoy_ec"] for s in (1, 2))
    assert a["constants"] != b["constants"]


CHEAP = {
    "nilpotent_lattices": "zeta compare heisenberg heisenberg_ideal p=3 K=5 ideals",
    "general_lattices": "zeta compare sl2 sl2_two p=2 K=7 subrings",
    "orbit_reps": "rep compare heisenberg heisenberg_rep p=5 J=6",
}


@pytest.mark.parametrize("workload", sorted(CHEAP))
def test_two_seeds_give_the_pinned_coefficients(workload, tmp_path):
    references = json.loads((HERE / "references.json").read_text())
    reports = []
    for seed in (1, 2):
        (tmp_path / str(seed)).mkdir()
        case_list = dict(cases.materialize(workload, seed, HERE.parent, tmp_path / str(seed)))
        code, stdout = run_case(cli, case_list[CHEAP[workload]])
        assert cases.check(references[CHEAP[workload]], code, stdout)
        reports.append([{k: v for k, v in row.items() if k != "index_exponent"}
                        for row in json.loads(stdout)["rows"]])
    assert [list(r.values()) for r in reports[0]] == [list(r.values()) for r in reports[1]]
