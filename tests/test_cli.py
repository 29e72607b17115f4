import csv
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringzeta import algebra, cli

DATA = Path(__file__).parent / "data"


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_compare_pass_exit_zero():
    code, out = run(
        ["zeta", "compare", "--ring", "catalog:heisenberg",
         "--formula", "heisenberg_subring", "--prime", "2", "--max-index", "2", "--yes"]
    )
    assert code == 0
    assert "pass" in out


def test_compare_mismatched_formula_exit_one():
    code, _ = run(
        ["zeta", "compare", "--ring", "catalog:heisenberg",
         "--formula", "heisenberg_ideal", "--prime", "2", "--max-index", "2", "--yes"]
    )
    assert code == 1


def test_compare_ideal_mode():
    code, _ = run(
        ["zeta", "compare", "--ring", "catalog:heisenberg", "--mode", "ideals",
         "--formula", "heisenberg_ideal", "--prime", "3", "--max-index", "2", "--yes"]
    )
    assert code == 0


def test_usage_error_exit_two():
    code, _ = run(["zeta", "count", "--ring", "catalog:nope", "--prime", "2", "--max-index", "1"])
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        run(["zeta", "count", "--oops"])
    assert exc.value.code == 2


PRIME_COMMANDS = [
    ["zeta", "count", "--ring", "catalog:heisenberg", "--max-index", "1"],
    ["zeta", "formula", "--name", "heisenberg_subring", "--max-index", "1"],
    ["zeta", "compare", "--ring", "catalog:heisenberg", "--formula", "heisenberg_subring",
     "--max-index", "1"],
    ["igusa", "poincare", "--poly", "x^2", "--depth", "1"],
    ["igusa", "zeta3d", "--ring", "catalog:heisenberg", "--max-index", "1"],
    ["rep", "zeta", "--presentation", "catalog:heisenberg", "--max-exp", "1"],
    ["rep", "compare", "--presentation", "catalog:heisenberg", "--formula", "heisenberg_rep",
     "--max-exp", "1"],
]


@pytest.mark.parametrize("argv", PRIME_COMMANDS, ids=lambda argv: " ".join(argv[:2]))
def test_prime_checked_at_the_boundary(argv):
    assert run(["--yes", *argv, "--prime", "3"])[0] == 0
    # two strong pseudoprimes, to the bases 2..37 and 2..41, and a prime above
    # the second, whose primality the test cannot certify
    for bad in ("4", "9", "1", "0", "-3", "x", "318665857834031151167461",
                "3317044064679887385961981", "3317044064679887385962123"):
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--prime", bad])
        assert exc.value.code == 2, bad


def test_is_prime():
    sieve = [n for n in range(200) if n > 1 and all(n % q for q in range(2, n))]
    assert [n for n in range(200) if cli._is_prime(n)] == sieve
    assert cli._is_prime(2**61 - 1) and not cli._is_prime(3215031751)  # strong pseudoprime
    # the least strong pseudoprime to the bases 2..37 needs base 41
    assert not cli._is_prime(318665857834031151167461)
    # primes between 10^23 and the limit: sympy.nextprime(10**23),
    # sympy.nextprime(10**24) and sympy.prevprime(3317044064679887385961981)
    for p in (100000000000000000000117, 1000000000000000000000007, 3317044064679887385961813):
        assert cli._is_prime(p) and not cli._is_prime(p + 2)


class _Terminal(io.StringIO):
    def isatty(self):
        return True


def _so3_file(tmp_path):
    """The cross product on Z^3, which has no triangular order in any mode."""
    so3 = tmp_path / "so3.json"
    so3.write_text(json.dumps({"rank": 3, "flags": ["antisymmetric", "lie"], "constants": [
        [1, 2, 3, 1], [2, 1, 3, -1], [2, 3, 1, 1], [3, 2, 1, -1], [3, 1, 2, 1], [1, 3, 2, -1]]}))
    return so3


def test_guard_preview_follows_the_path(monkeypatch, capsys, tmp_path):
    so3 = _so3_file(tmp_path)
    # the search path: no prediction and no prompt, even at a terminal
    monkeypatch.setattr(sys, "stdin", _Terminal(""))
    assert cli.main(["zeta", "count", "--ring", "catalog:sl2", "--prime", "3",
                     "--max-index", "3"]) == 0
    err = capsys.readouterr().err
    assert "--ceiling 100000000 bounds the search nodes" in err and "prediction" not in err
    assert cli.main(["--ceiling", "50", "zeta", "compare", "--ring", "catalog:sl2", "--prime", "7",
                     "--max-index", "6", "--formula", "sl2_odd"]) == 3
    captured = capsys.readouterr()
    assert "proceed?" not in captured.out and "prediction" not in captured.err
    # the enumerate path: the sublattice count, and the prompt above 10^6
    assert cli.main(["zeta", "count", "--ring", str(so3), "--prime", "3", "--max-index", "3"]) == 0
    assert "resource-guard prediction: 1354 objects" in capsys.readouterr().err
    monkeypatch.setattr(sys, "stdin", _Terminal("n\n"))
    assert cli.main(["zeta", "count", "--ring", str(so3), "--prime", "7", "--max-index", "6"]) == 3
    captured = capsys.readouterr()
    assert "proceed?" in captured.out and "declined at prompt" in captured.err


def test_enumerate_guard_checks_the_sum_it_prints(tmp_path, capsys):
    # so3 is enumerated: 1354 sublattices of index up to 27, at most 1210 of
    # any one index
    so3 = _so3_file(tmp_path)
    argv = ["zeta", "count", "--ring", str(so3), "--prime", "3", "--max-index", "3"]
    assert cli.main(["--ceiling", "1300", *argv]) == 3
    assert "prediction: 1354 objects" in capsys.readouterr().err
    assert cli.main(["--ceiling", "1354", *argv]) == 0


def test_rep_ceiling_bounds_every_unit_class(capsys):
    # p = 5, d' = 3: the 31 level-1 classes are walked; no level-2 lift is, as
    # a lift of a curve point (rank 4 mod p) has e >= 4 > 2
    argv = ["rep", "zeta", "--presentation", "catalog:dusautoy_ec", "--prime", "5",
            "--max-exp", "2"]
    assert cli.main(["--ceiling", "31", *argv]) == 0
    assert cli.main(["--ceiling", "30", *argv]) == 3
    assert "the walk to level 2 needs 31 characters" in capsys.readouterr().err
    # p = 101: the 10,303 level-1 classes, refused before any level-2 work
    argv = ["rep", "compare", "--presentation", "catalog:dusautoy_ec", "--formula",
            "dusautoy_rep", "--prime", "101", "--max-exp", "2"]
    assert cli.main(["--ceiling", "10302", *argv]) == 3
    assert "needs 10303 characters, over ceiling 10302" in capsys.readouterr().err
    assert cli.main(argv) == 0
    assert "verdict: pass" in capsys.readouterr().out


def test_central_sum_ceiling_bounds_lattices_and_rank_points(capsys):
    # dusautoy_ec ideals at p = 3: 13 points of P^2(F_3) in the rank walk,
    # least rank 4, so L = 6 // 5 = 1 and the 28 lattices between 3Z^3 and Z^3
    argv = ["zeta", "count", "--ring", "catalog:dusautoy_ec", "--prime", "3",
            "--max-index", "6", "--mode", "ideals"]
    assert cli.main(["--ceiling", "5", *argv]) == 3
    err = capsys.readouterr().err
    assert "central sum, --ceiling 5 bounds the central lattices" in err
    assert "visited more than 5 nodes" in err and "Traceback" not in err
    assert cli.main(argv) == 0
    assert cli.main(["--ceiling", "41", *argv]) == 0
    assert cli.main(["--ceiling", "40", *argv]) == 3


def test_central_subring_sum_ceiling_bounds_both_lattice_walks(capsys):
    # free_nilpotent_2_d(3) subrings at p = 3 are free class 2: one node for
    # each cotype of the lattices M of Z_3^3 of index below 9, (0, 0, 0) and
    # (1, 0, 0), then one for each subgroup type of Z / beta(M, M) capped at
    # the index left: Z itself for M = Z_3^3, and for the M of index 3, whose
    # products span a lattice of type (0, 1, 1) mod 3, the types of index 1
    # and 3 (20 nodes when the 14 M were predicted and the 1 + 5 Lambda'
    # walked)
    argv = ["zeta", "count", "--ring", "catalog:free_nilpotent_2_d(3)", "--prime", "3",
            "--max-index", "2"]
    assert cli.main(["--ceiling", "5", *argv]) == 0
    assert "central sum, --ceiling 5 bounds the cotypes of the abelian quotient" in (
        capsys.readouterr().err)
    assert cli.main(["--ceiling", "4", *argv]) == 3
    err = capsys.readouterr().err
    assert "visited more than 4 nodes" in err and "Traceback" not in err
    # dusautoy_ec is not free class 2: its 1 + 63 lattices M of index below 4
    # are predicted, then walked, and each (index, type) adds its subgroup
    # types of Z
    argv = ["zeta", "count", "--ring", "catalog:dusautoy_ec", "--prime", "2", "--max-index", "2"]
    assert cli.main(["--ceiling", "60", *argv]) == 3
    err = capsys.readouterr().err
    assert "bounds the lattices of the abelian quotient of index below p^K, predicted" in err
    assert "central sum needs 64 nodes, over ceiling 60" in err and "Traceback" not in err
    assert cli.main(["--ceiling", "66", *argv]) == 0
    assert cli.main(["--ceiling", "65", *argv]) == 3
    assert "visited more than 65 nodes" in capsys.readouterr().err


def test_class2_ring_with_a_centre_of_rank_1198_counts_its_subrings(tmp_path):
    # e_1 e_2 = e_1200 = -e_2 e_1, centre e_3..e_1200: the 2^1197 - 1 lattices
    # of index 2 in the centre that contain e_1200 each take 2^2 maps from
    # Z_2^2, and the 3 lattices of Z_2^2 of index 2 add the whole centre.  The
    # central lattices are counted by type, with no frame per coordinate.
    ring = tmp_path / "big.json"
    ring.write_text(json.dumps({"rank": 1200, "flags": ["antisymmetric"],
                                "constants": [[1, 2, 1200, 1], [2, 1, 1200, -1]]}))
    code, out = run(["zeta", "count", "--ring", str(ring), "--prime", "2",
                     "--max-index", "1", "--mode", "subrings"])
    assert code == 0
    assert out.splitlines()[-1].split() == ["1", str(2**1199 - 1)]


def test_central_subring_walk_reads_only_the_support_of_each_row(tmp_path):
    # e_(2i-1) e_(2i) = e_1200 = -e_(2i) e_(2i-1) for i <= 599: d = 1198 and
    # d' = 2.  At K = 1 the one lattice M is Z_2^1198, and each of its
    # d^2 / 2 row products reads only the one constant of the row's support
    ring = tmp_path / "wide_quotient.json"
    constants = [c for i in range(1, 600) for c in ([2 * i - 1, 2 * i, 1200, 1],
                                                    [2 * i, 2 * i - 1, 1200, -1])]
    ring.write_text(json.dumps({"rank": 1200, "flags": ["antisymmetric"],
                                "constants": constants}))
    start = time.perf_counter()
    code, out = run(["zeta", "count", "--ring", str(ring), "--prime", "2",
                     "--max-index", "1", "--mode", "subrings"])
    assert time.perf_counter() - start < 5
    assert code == 0
    assert out.splitlines()[-1].split() == ["1", str(2**1199 - 1)]


def test_central_ideal_sum_never_enters_a_rank_walk_that_cannot_move_L():
    # F_{2,8} ideals at p = 3, K = 2: ell -> R(ell) has no kernel mod 3 and
    # R(ell) is alternating, so the least rank is at least 2 and L = 2 // 3 = 0,
    # as with r = d.  The walk over the (3^28 - 1) / 2 points of P^27(F_3) is
    # never entered, and the sum takes one node, the lattice Z itself
    argv = ["zeta", "count", "--ring", "catalog:free_nilpotent_2_d(8)", "--prime", "3",
            "--max-index", "2", "--mode", "ideals"]
    start = time.perf_counter()
    assert run(["--ceiling", "1", *argv])[0] == 0
    code, out = run(argv)
    assert time.perf_counter() - start < 2
    assert code == 0
    assert out.splitlines()[-2].split() == ["1", str((3**8 - 1) // 2)]


def test_free_class2_orbit_count_credits_every_class_at_the_generic_rank():
    # free_nilpotent_2_d(3): R(ell) is 3 x 3, of generic rank 2, and its
    # 2-Pfaffians are the coordinates of ell, one of which is a unit at every
    # class.  So every lift at every level is credited with no Smith form
    start = time.perf_counter()
    code, out = run(["rep", "zeta", "--presentation", "catalog:free_nilpotent_2_d(3)",
                     "--prime", "5", "--max-exp", "4"])
    assert time.perf_counter() - start < 1
    assert code == 0
    assert [line.split() for line in out.splitlines()[-5:]] == [
        ["0", "1"], ["1", "124"], ["2", "15500"], ["3", "1937500"], ["4", "242187500"]]


def test_orbit_count_of_a_wide_presentation_keeps_the_smith_walk(tmp_path):
    # d = 40, d' = 1, e_i e_(i+20) = f_1 for i <= 20: the 2^39 - 1 principal
    # subsets are not worth building for the one class of P^0(F_3), so one
    # Smith form finds it nonsingular, exponent 20 at level 1 and beyond 25
    # at every later level
    pres = tmp_path / "wide.json"
    constants = [c for i in range(1, 21) for c in ([i, i + 20, 1, 1], [i + 20, i, 1, -1])]
    pres.write_text(json.dumps({"d": 40, "dprime": 1, "constants": constants}))
    start = time.perf_counter()
    code, out = run(["rep", "zeta", "--presentation", str(pres), "--prime", "3",
                     "--max-exp", "25"])
    assert time.perf_counter() - start < 1
    assert code == 0
    rows = [line.split() for line in out.splitlines()[3:]]
    assert len(rows) == 26 and [row for row in rows if row[1] != "0"] == [["0", "1"], ["20", "2"]]


@pytest.mark.parametrize("mode", ["subrings", "ideals"])
def test_ring_file_index_out_of_range_is_a_usage_error(tmp_path, capsys, mode):
    # the walks trust the ring's shape, so the constructor must refuse it
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({"rank": 3, "constants": [[1, 2, 4, 1]]}))
    assert cli.main(["zeta", "count", "--ring", str(ring), "--prime", "2", "--max-index", "1",
                     "--mode", mode]) == 2
    assert "out of range" in capsys.readouterr().err


def test_presentation_file_that_is_not_antisymmetric_is_a_usage_error(tmp_path, capsys):
    pres = tmp_path / "pres.json"
    pres.write_text(json.dumps({"d": 2, "dprime": 1, "constants": [[1, 2, 1, 1]]}))
    assert cli.main(["rep", "zeta", "--presentation", str(pres), "--prime", "3",
                     "--max-exp", "1"]) == 2
    assert "not antisymmetric" in capsys.readouterr().err


def test_lookup_errors_print_the_bare_message(capsys):
    assert cli.main(["zeta", "formula", "--name", "nosuch", "--prime", "3",
                     "--max-index", "2"]) == 2
    assert capsys.readouterr().err == "usage error: unknown formula 'nosuch'\n"
    assert cli.main(["rep", "zeta", "--presentation", "catalog:nosuch", "--prime", "3",
                     "--max-exp", "1"]) == 2
    assert capsys.readouterr().err == "usage error: unknown catalog ring 'nosuch'\n"


def test_formula_file_schema_is_not_a_formula(capsys):
    from ringzeta import ratfun

    assert not [name for name in ratfun.formula_names() if name.startswith("_")]
    assert cli.main(["zeta", "formula", "--name", "_schema", "--prime", "3",
                     "--max-index", "2"]) == 2
    assert capsys.readouterr().err == "usage error: unknown formula '_schema'\n"


def test_guard_exit_three():
    code, _ = run(
        ["--ceiling", "10", "zeta", "count", "--ring", "catalog:componentwise(4)",
         "--mode", "ideals", "--prime", "3", "--max-index", "3", "--yes"]
    )
    assert code == 3


@pytest.mark.parametrize("mode", ["sublattices", "subrings", "ideals"])
def test_zero_ring_of_rank_1200_is_counted_in_one_node(mode):
    # the zero ring's whole search tree is credited at the top, so none of
    # the 1200 rows is placed, each of which would take one recursion level
    code, out = run(
        ["--ceiling", "1", "zeta", "count", "--ring", "catalog:abelian(1200)",
         "--prime", "2", "--max-index", "1", "--mode", mode, "--yes"]
    )
    assert code == 0
    assert out.splitlines()[-1].split() == ["1", str(2**1200 - 1)]


def test_central_ideal_sum_predicts_its_lattices_before_walking_any(tmp_path, capsys):
    # e_1 e_2 = e_1200 = -e_2 e_1: the first point of the rank walk has rank
    # 0, so the sum would walk all 2^1198 lattices between 2Z and Z, Z of
    # rank 1198; the prediction refuses them before any is walked
    ring = tmp_path / "wide_centre.json"
    ring.write_text(json.dumps({"rank": 1200, "flags": ["antisymmetric"],
                                "constants": [[1, 2, 1200, 1], [2, 1, 1200, -1]]}))
    start = time.perf_counter()
    code = cli.main(["zeta", "count", "--ring", str(ring), "--prime", "2", "--max-index", "1",
                     "--mode", "ideals"])
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert code == 3 and "Traceback" not in err
    assert f"central sum needs {1 + 2**1198} nodes" in err


@pytest.mark.parametrize("mode, p", [("ideals", 2), ("subrings", 3)])
def test_row_search_places_1200_rows_without_recursion(tmp_path, mode, p):
    # Z_p^1199 + Z_p with e_1200 e_1200 = e_1200: a hyperplane of index p is
    # an ideal, and a subring, iff it contains e_1200 or is x_1200 = 0.  Every
    # row below the last is placed, and each grading of coordinates 1..1199
    # gives a scaling, so at p = 3 the 1,199 of them outnumber every sibling
    # group and no stabiliser is sought.
    ring = tmp_path / "big.json"
    ring.write_text(json.dumps({"rank": 1200, "constants": [[1200, 1200, 1200, 1]]}))
    code, out = run(["zeta", "count", "--ring", str(ring), "--prime", str(p),
                     "--max-index", "1", "--mode", mode, "--yes"])
    assert code == 0
    assert out.splitlines()[-1].split() == ["1", str((p**1199 - 1) // (p - 1) + 1)]


def test_sl2_subrings_at_p7_k6_pass_under_the_default_ceiling():
    code, out = run(["zeta", "compare", "--ring", "catalog:sl2", "--formula", "sl2_odd",
                     "--prime", "7", "--max-index", "6", "--mode", "subrings"])
    assert code == 0 and "pass" in out


@pytest.mark.parametrize("argv", [
    ["rep", "zeta", "--presentation", "catalog:dusautoy_ec", "--prime", "5", "--max-exp", "2"],
    ["rep", "compare", "--presentation", "catalog:dusautoy_ec", "--formula", "dusautoy_rep",
     "--prime", "5", "--max-exp", "2"],
    # 3 points mod 3, then 7 singular nodes lifted
    ["igusa", "poincare", "--poly", "x^2", "--prime", "3", "--depth", "4"],
    ["igusa", "zeta3d", "--ring", "catalog:heisenberg", "--prime", "3", "--max-index", "2"],
    # series and reciprocity stop in the enumeration, rays and ratform in the
    # ray search, which tries 10 supports
    *[["cone", name, "--system", str(DATA / "stanley_cone.json")]
      for name in ("rays", "series", "ratform", "reciprocity")],
    ["coxeter", "check", "--n", "4"],  # 24 permutations
    ["euler", "--name", "zeta_Zn(2)", "--primes-up-to", "10", "--max-m", "10"],  # 20 integers
    # the hybrid's curve has 31 points over F_5
    ["zeta", "formula", "--name", "dusautoy_rep", "--prime", "5", "--max-index", "2"],
], ids=lambda argv: " ".join(argv[:2]))
def test_ceiling_reaches_every_guard(argv):
    assert run([*argv, "--ceiling", "5"])[0] == 3
    for bad in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--ceiling", bad])
        assert exc.value.code == 2, bad


TRUNCATION_COMMANDS = [
    ["zeta", "count", "--ring", "catalog:heisenberg", "--prime", "3", "--max-index"],
    ["zeta", "formula", "--name", "heisenberg_subring", "--prime", "3", "--max-index"],
    ["zeta", "compare", "--ring", "catalog:heisenberg", "--formula", "heisenberg_subring",
     "--prime", "3", "--max-index"],
    ["igusa", "poincare", "--poly", "x^2", "--prime", "3", "--depth"],
    ["igusa", "zeta3d", "--ring", "catalog:heisenberg", "--prime", "3", "--depth"],
    ["rep", "zeta", "--presentation", "catalog:heisenberg", "--prime", "5", "--max-exp"],
    ["rep", "compare", "--presentation", "catalog:heisenberg", "--formula", "heisenberg_rep",
     "--prime", "5", "--max-exp"],
    pytest.param(["igusa", "zeta3d", "--ring", "catalog:heisenberg", "--prime", "3",
                  "--max-index", "2", "--scale-exp"], id="igusa zeta3d --scale-exp"),
    pytest.param(["euler", "--name", "zeta_Zn(2)", "--primes-up-to", "10", "--max-m"],
                 id="euler --max-m"),
    pytest.param(["euler", "--name", "zeta_Zn(2)", "--max-m", "1", "--primes-up-to"],
                 id="euler --primes-up-to"),
    pytest.param(["coxeter", "check", "--n"], id="coxeter --n"),
]


@pytest.mark.parametrize("argv", TRUNCATION_COMMANDS, ids=lambda argv: " ".join(argv[:2]))
def test_truncation_bound_must_be_nonnegative(argv):
    assert run(["--yes", *argv, "0"])[0] == 0
    for bad in ("-1", "-5"):
        with pytest.raises(SystemExit) as exc:
            run([*argv, bad])
        assert exc.value.code == 2, bad


def test_internal_consistency_exit_four(tmp_path):
    pres = tmp_path / "bad.json"
    pres.write_text(
        json.dumps({"d": 2, "dprime": 1, "constants": [[1, 2, 1, 3], [2, 1, 1, -3]]})
    )
    code, _ = run(["rep", "zeta", "--presentation", str(pres), "--prime", "3", "--max-exp", "2"])
    assert code == 4


def test_relations_that_miss_the_centre_exit_two(tmp_path, capsys):
    # f2 is in no relation, so R(0, 1) = 0 at every prime: the input is
    # outside the recipe, which no prime mends, not an internal fault
    pres = tmp_path / "short.json"
    pres.write_text(json.dumps({"d": 2, "dprime": 2, "constants": [[1, 2, 1, 1], [2, 1, 1, -1]]}))
    for p in ("3", "101"):
        argv = ["rep", "zeta", "--presentation", str(pres), "--prime", p, "--max-exp", "2"]
        assert run(argv)[0] == 2
        assert "do not span the centre" in capsys.readouterr().err


def test_catalog_presentations_are_the_class2_catalog_rings(capsys):
    def rep(spec, p):
        argv = ["--output", "json", "rep", "zeta", "--presentation", spec, "--prime", p,
                "--max-exp", "2"]
        code, out = run(argv)
        return code, out and [row["coefficient"] for row in json.loads(out)["rows"]]

    for name in ("sl2", "abelian(3)", "componentwise(2)", "free_nilpotent_2_d(1)"):
        assert rep(f"catalog:{name}", "3") == (2, "")
        assert "not class 2 in its given basis" in capsys.readouterr().err
    # [e1, e2] = 3 f1: the hand-built presentation of test_internal_consistency_exit_four
    assert rep("catalog:scale(heisenberg,3,1)", "5") == (0, [1, 4, 20])
    assert rep("catalog:scale(heisenberg,3,1)", "3")[0] == 4


def test_json_output_round_trips():
    code, out = run(
        ["--output", "json", "zeta", "count", "--ring", "catalog:heisenberg",
         "--prime", "2", "--max-index", "2", "--yes"]
    )
    assert code == 0
    report = json.loads(out)
    assert json.loads(json.dumps(report)) == report
    assert [r["coefficient"] for r in report["rows"]] == [1, 3, 19]


def test_csv_columns():
    code, out = run(
        ["--output", "csv", "zeta", "formula", "--name", "heisenberg_ideal",
         "--prime", "2", "--max-index", "3"]
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0].keys()) == ["index_exponent", "coefficient"]
    assert [int(r["coefficient"]) for r in rows] == [1, 3, 7, 19]


def test_funeq_solve_and_expectations():
    code, out = run(["zeta", "funeq", "--name", "heisenberg_subring", "--solve"])
    assert code == 0 and "-1" in out
    code, _ = run(
        ["zeta", "funeq", "--name", "dusautoy_normal",
         "--expect-sign", "-1", "--expect-a", "36", "--expect-b", "15"]
    )
    assert code == 0
    code, _ = run(
        ["zeta", "funeq", "--name", "dusautoy_normal",
         "--expect-sign", "1", "--expect-a", "36", "--expect-b", "15"]
    )
    assert code == 1
    code, _ = run(["zeta", "funeq", "--name", "dusautoy_normal", "--solve"])
    assert code == 2  # hybrids need explicit expectations


def test_funeq_checks_expectations_of_a_plain_formula(capsys):
    # --solve gives (-1, 3, 3) for heisenberg_subring
    argv = ["zeta", "funeq", "--name", "heisenberg_subring"]
    assert run([*argv, "--expect-sign", "-1", "--expect-a", "3", "--expect-b", "3"])[0] == 0
    assert run([*argv, "--expect-sign", "1", "--expect-a", "3", "--expect-b", "6"])[0] == 1
    assert cli.main([*argv, "--expect-sign", "1"]) == 2
    assert "give --solve or all of --expect-sign/--expect-a/--expect-b" in capsys.readouterr().err


def test_cone_commands(tmp_path):
    system = tmp_path / "sys.json"
    system.write_text(json.dumps({"phi": [[1, 1, -1, -1]], "name": "s"}))
    code, out = run(["cone", "rays", "--system", str(system)])
    assert code == 0
    rays = [line for line in out.splitlines() if line and line[0].isdigit()]
    assert rays == sorted(rays)  # deterministic lexicographic ordering
    assert len(rays) == 4
    code, _ = run(["cone", "ratform", "--system", str(system), "--bound", "4"])
    assert code == 0
    code, _ = run(["cone", "reciprocity", "--system", str(system), "--bound", "5"])
    assert code == 0
    code, out = run(["cone", "series", "--system", str(system), "--bound", "1"])
    assert code == 0


@pytest.mark.parametrize("command, doc, bound, ceiling, walk", [
    ("series", {"phi": [[0] * 12]}, "60", "1", "the enumeration"),  # 61 values for x1
    # one parallelepiped of 100,000 points, after 6 supports and 1 face
    ("ratform", {"phi": [[1, 1, -100000]]}, "2", "10", "the numerator"),
    # ratform enumerates before it expands: 13 values for x1
    ("ratform", {"phi": [[0] * 10]}, "12", "10", "the enumeration"),
    # a bound of 10^12 is refused before any loop or list of that length
    ("series", {"phi": [[1, 1]]}, str(10**12), "10", "the enumeration"),  # the origin, kept
    ("ratform", {"phi": [[1, 1, -1, -1]]}, str(10**12), "10", "the enumeration"),
    ("ratform", {"phi": [[1, 1]]}, str(10**12), "10", "the enumeration"),  # no rays
    # 13 values enumerated; the expansion scans 25 degrees twice, one ray
    ("ratform", {"phi": [[1, -100000]]}, "12", "30", "the expansion"),
    # the box that filled the memory when the expansion ran first
    ("ratform", {"phi": [[1, 1, -1, -1]]}, "3000", "100000000", "the enumeration"),
    # 10^7 + 1 terms, each charged 10^7 + 1 values: refused before the memory fills
    ("series", {"phi": [[1, -1]]}, str(10**7), "100000000", "the enumeration"),
], ids=["series-doc0-60", "ratform-doc1-2", "ratform-doc2-12", "series-huge-bound",
        "ratform-huge-bound", "ratform-no-rays-huge-bound", "ratform-expansion",
        "ratform-stanley-3000", "series-diagonal-10M"])
def test_cone_walks_are_refused_at_the_ceiling(tmp_path, capsys, command, doc, bound, ceiling,
                                               walk):
    system = tmp_path / "cone.json"
    system.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out = run(["cone", command, "--system", str(system), "--bound", bound,
                     "--ceiling", ceiling])
    assert (code, out) == (3, "")
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert err.startswith(f"resource guard: {walk} ") and "Traceback" not in err


def test_ceiling_replaces_the_cone_size_caps(tmp_path, capsys):
    # 16 extreme rays: 20 pieces of 2^9 numerator terms each
    system = tmp_path / "cone.json"
    system.write_text(json.dumps({"phi": [[1, 1, 1, 1, -1, -1, -1, -1]]}))
    code, out = run(["cone", "ratform", "--system", str(system), "--bound", "2"])
    assert code == 0 and "expansion_matches_enumeration: True" in out
    # 30 rays: 126 pieces of 2^20 terms each, refused before any is multiplied out
    system.write_text(json.dumps({"phi": [[1] * 6 + [-1] * 5]}))
    start = time.perf_counter()
    assert run(["cone", "ratform", "--system", str(system)]) == (3, "")
    assert time.perf_counter() - start < 2
    assert "the numerator needs 132120576 terms" in capsys.readouterr().err


def test_cone_series_walks_more_coordinates_than_the_recursion_limit(tmp_path, capsys):
    system = tmp_path / "cone.json"
    system.write_text(json.dumps({"phi": [[0] * 2000]}))
    argv = ["cone", "series", "--system", str(system), "--bound", "0"]
    code, out = run(argv)
    assert code == 0 and " ".join(["0"] * 2000) in out
    assert run(argv + ["--ceiling", "5"]) == (3, "")
    err = capsys.readouterr().err
    assert "the enumeration visited more than 5 values" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["series", "ratform"])
@pytest.mark.parametrize("doc, bound", [
    ({"phi": [[1] * 8]}, "10"),  # one-signed: 7 free columns held at 0
    ({"phi": [[1] * 6 + [-1]]}, "12"),  # partition type: 18,564 solutions
], ids=["one-signed", "partition"])
def test_pruned_cone_walks_finish_at_the_default_ceiling(tmp_path, command, doc, bound):
    system = tmp_path / "cone.json"
    system.write_text(json.dumps(doc))
    code, out = run(["cone", command, "--system", str(system), "--bound", bound])
    assert code == 0
    if command == "ratform":
        assert "expansion_matches_enumeration: True" in out


@pytest.mark.parametrize("command", ["ratform", "reciprocity"])
def test_only_cone_series_takes_strict(command):
    with pytest.raises(SystemExit) as exc:
        run(["cone", command, "--system", str(DATA / "stanley_cone.json"), "--strict"])
    assert exc.value.code == 2


def test_cone_commands_on_the_zero_variable_system(tmp_path):
    system = tmp_path / "none.json"
    system.write_text(json.dumps({"phi": [[]]}))

    def report(command):
        code, out = run(["--output", "json", "cone", command, "--system", str(system)])
        assert code == 0, command
        out = json.loads(out)
        assert out.pop("system") == str(system)
        return out

    assert report("rays") == {"dimension": 0, "rows": []}
    assert report("series") == {"bound": 6, "strict": False,
                                "rows": [{"exponents": "", "coefficient": 1}]}
    assert report("ratform") == {"expansion_matches_enumeration": True, "rows": [
        {"part": "numerator", "exponents": "", "coefficient": 1}]}
    assert report("reciprocity") == {"status": "pass", "detail": ""}


def test_ring_validate_file_and_catalog(tmp_path):
    ring = tmp_path / "ring.json"
    ring.write_text(
        json.dumps({"rank": 3, "constants": [[1, 2, 3, 1], [2, 1, 3, -1]], "flags": ["lie"]})
    )
    code, out = run(["ring", "validate", "--ring", str(ring)])
    assert code == 0 and "nilpotency_class: 2" in out
    code, out = run(["ring", "validate", "--ring", "catalog:sl2"])
    assert code == 0 and "not nilpotent" in out


def test_a_ring_declared_only_lie_counts_as_the_catalog_ring(tmp_path):
    # the walks read the symmetry the ring measures, not what its file declares
    sl2 = algebra.catalog("sl2")
    ring = tmp_path / "sl2.json"
    ring.write_text(json.dumps({"name": "sl2", "rank": 3, "flags": ["lie"], "constants": [
        [*key, c] for key, c in sl2.constants.items()]}))
    argv = ["zeta", "count", "--prime", "3", "--max-index", "5", "--ceiling", "660", "--ring"]
    got = run([*argv, str(ring)])
    assert got == run([*argv, "catalog:sl2"]) and got[0] == 0


@pytest.mark.parametrize("doc", [
    [3, [[1, 2, 3, 1]]],  # a list, not an object
    {"rank": "3", "constants": []},
    {"rank": True},
    {"constants": []},
    {"rank": 3, "constants": 5},
    {"rank": 3, "constants": [[1, 2, 3, "1"]]},
    {"rank": 3, "name": {"a": 1}},  # was printed as the ring's name
])
def test_ring_validate_malformed_file_is_a_usage_error(tmp_path, doc):
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps(doc))
    assert run(["ring", "validate", "--ring", str(ring)])[0] == 2


@pytest.mark.parametrize("flags", [5, "lie", [1], [["lie"]]])
def test_ring_flags_must_be_a_list_of_strings(tmp_path, capsys, flags):
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({"rank": 3, "flags": flags}))
    assert run(["ring", "validate", "--ring", str(ring)])[0] == 2
    assert "flags must be a list of strings" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"phi": [[1.5, -1]]},  # was truncated to the ray 1 1
    {"phi": [["2", -1]]},
    {"phi": [[True, -1]]},
    {},
    [1],
    {"phi": "ab"},
    {"phi": [1, 2]},
    {"phi": [[1, -1]], "kinds": "eq"},
    {"phi": [[1, -1]], "name": [1]},  # was printed as "system: [1]"
])
@pytest.mark.parametrize("command", ["rays", "series"])
def test_cone_malformed_system_is_a_usage_error(tmp_path, capsys, doc, command):
    system = tmp_path / "cone.json"
    system.write_text(json.dumps(doc))
    assert run(["cone", command, "--system", str(system)]) == (2, "")
    assert capsys.readouterr().err.startswith("usage error: cone file ")


def test_cone_negative_bound_is_a_usage_error(capsys):
    argv = ["cone", "series", "--system", str(DATA / "stanley_cone.json"), "--bound", "-1"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "--bound: must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("ring, witnesses", [
    ("catalog:sl2", {"associative": "(1, 1, 2)", "commutative": "(1, 2, None)"}),
    ("catalog:componentwise(3)", {"antisymmetric": "(1, 1, 1)", "jacobi": "(1, 1, 1)"}),
])
def test_ring_validate_witnesses(ring, witnesses):
    code, out = run(["ring", "validate", "--ring", ring, "--output", "json"])
    rows = json.loads(out)["rows"]
    assert code == 0
    assert {r["axiom"]: r["witness"] for r in rows if not r["holds"]} == witnesses


@pytest.mark.parametrize("argv", [
    ["zeta", "count", "--ring", "catalog:heisenberg(2)", "--prime", "3", "--max-index", "2"],
    ["ring", "validate", "--ring", "catalog:sl2(9)"],
    ["rep", "zeta", "--presentation", "catalog:heisenberg(3)", "--prime", "3", "--max-exp", "1"],
    ["zeta", "formula", "--name", "heisenberg_subring(7)", "--prime", "3", "--max-index", "2"],
])
def test_parameter_on_a_catalog_entry_without_one_is_a_usage_error(capsys, argv):
    # each of these used to drop the parameter and run the plain entry
    assert run(argv) == (2, "")
    assert "takes no parameter" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [[2, 1], {"d": 2, "dprime": "1"}, {"d": 2.0, "dprime": 1},
                                 {"d": 2, "dprime": 1, "name": 5}])
def test_rep_zeta_malformed_presentation_is_a_usage_error(tmp_path, doc):
    pres = tmp_path / "pres.json"
    pres.write_text(json.dumps(doc))
    argv = ["rep", "zeta", "--presentation", str(pres), "--prime", "3", "--max-exp", "1"]
    assert run(argv)[0] == 2


def test_unexpected_exception_exits_four_with_traceback(monkeypatch, capsys):
    def broken(path):
        raise RuntimeError("unforeseen")

    monkeypatch.setattr(algebra, "load_algebra", broken)
    assert cli.main(["ring", "validate", "--ring", "ring.json"]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: unforeseen" in err


def test_igusa_commands():
    code, out = run(["igusa", "poincare", "--poly", "x^2", "--prime", "3", "--depth", "2"])
    assert code == 0
    # 5^24 points at the deepest level, but the walk is 25 points mod 5 and
    # the few singular nodes above them
    code, out = run(["igusa", "poincare", "--poly", "y^2 - x^3 + x", "--prime", "5", "--depth", "12"])
    assert code == 0 and "341796875" in out
    code, out = run(
        ["igusa", "zeta3d", "--ring", "catalog:heisenberg", "--prime", "3",
         "--scale-exp", "1", "--max-index", "2"]
    )
    assert code == 0
    assert "13" in out


def test_rep_compare_command():
    code, _ = run(
        ["rep", "compare", "--presentation", "catalog:dusautoy_ec",
         "--formula", "dusautoy_rep", "--prime", "3", "--max-exp", "2"]
    )
    assert code == 0


def test_euler_command_with_asymptotics():
    code, out = run(
        ["euler", "--name", "zeta_Zn(1)", "--primes-up-to", "100", "--max-m", "100",
         "--asymptotics", "1,0,1.0"]
    )
    assert code == 0
    assert "1.000000" in out


def test_euler_asymptotics_wants_three_numbers(capsys):
    assert cli.main(["euler", "--name", "zeta_Zn(2)", "--primes-up-to", "100", "--max-m", "100",
                     "--asymptotics", "1,2"]) == 2
    assert "--asymptotics wants alpha,b,c" in capsys.readouterr().err


def test_euler_sieves_only_up_to_the_square_root(monkeypatch):
    # the sums sieve the primes up to sqrt(--max-m), and the 30 printed
    # coefficients the primes up to 30; --primes-up-to above --max-m adds none
    from ringzeta import ratfun

    sieved, sieve = [], ratfun._primes_up_to
    monkeypatch.setattr(ratfun, "_primes_up_to", lambda n: sieved.append(n) or sieve(n))
    code, out = run(["euler", "--name", "heisenberg_subring", "--primes-up-to", str(10**8),
                     "--max-m", str(10**6)])
    assert code == 0 and sorted(sieved) == [30, 1000]
    assert "partial_sum: 7790838328519" in out and "\n30  72\n" in out


@pytest.mark.parametrize("argv, ratios", [
    # 10^400 and 100^400 are past the float range
    (["--name", "zeta_Zn(2)", "--primes-up-to", "100", "--max-m", "100",
      "--asymptotics", "400,0,1"], ["0.000000", "0.000000"]),
    # the partial sums of zeta_Zn(200) are past it too
    (["--name", "zeta_Zn(200)", "--primes-up-to", "100", "--max-m", "100",
      "--asymptotics", "1,0,1"], None),
    # (log 1)^-1 is infinite, so the ratio at m = 1 is 0
    (["--name", "zeta_Zn(2)", "--primes-up-to", "5", "--max-m", "1",
      "--asymptotics", "1,-1,1"], ["0.000000"]),
])
def test_euler_asymptotics_past_the_float_range(argv, ratios):
    code, out = run(["euler", *argv, "--output", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    if ratios is not None:
        assert [row["ratio"] for row in rows] == ratios
        return
    # s_10 / 10 is a float of 199 digits and s_100 / 100 a Decimal of 397,
    # 28 of them significant: each leads with the exact quotient's digits
    from ringzeta import ratfun

    coefficients = ratfun.euler_product(ratfun.zeta_zn(200), 100, 100).coefficients
    sums = {m: sum(coefficients[: m + 1]) for m in (10, 100)}
    wholes = [row["ratio"].split(".")[0] for row in rows]
    for row, whole in zip(rows, wholes):
        exact = str(sums[row["m"]] // row["m"])
        assert len(whole) == len(exact) and whole[:15] == exact[:15]
    assert [len(whole) for whole in wholes] == [199, 397]


@pytest.mark.parametrize("asymptotics", ["inf,0,1", "1,nan,1", "1,0,-inf", "1e999,0,1"])
def test_euler_asymptotics_must_be_finite(asymptotics, capsys):
    argv = ["euler", "--name", "zeta_Zn(2)", "--primes-up-to", "10", "--max-m", "10",
            "--asymptotics", asymptotics]
    assert run(argv) == (2, "")
    assert "finite" in capsys.readouterr().err


def test_euler_resolves_the_formula_before_the_product():
    # no prime <= 1, so no local factor is ever needed: the formula is checked anyway
    for name in ("dusautoy_rep", "no_such_formula"):
        assert run(["euler", "--name", name, "--primes-up-to", "1", "--max-m", "1"])[0] == 2
    code, out = run(["euler", "--name", "zeta_Zn(2)", "--primes-up-to", "1", "--max-m", "1"])
    assert code == 0 and "partial_sum: 1" in out


def test_coxeter_check_command():
    code, out = run(["coxeter", "check", "--n", "4"])
    assert code == 0 and "pass" in out


def test_coxeter_check_refuses_a_huge_degree_at_once(capsys):
    # n! is not computed: the product stops at 12! > 10^8
    start = time.perf_counter()
    assert run(["coxeter", "check", "--n", "1000000"]) == (3, "")
    assert time.perf_counter() - start < 1
    assert "contains S_12, which needs 479001600 permutations" in capsys.readouterr().err


def test_euler_is_refused_before_the_sieve(monkeypatch, capsys):
    from ringzeta import ratfun

    def sieve(n):
        raise AssertionError(f"sieved up to {n}")

    monkeypatch.setattr(ratfun, "_primes_up_to", sieve)
    # f(X) = 1 + X: two prime-sum tables and the recursion, 460 updates each
    argv = ["euler", "--name", "zeta_Zn(2)", "--primes-up-to", "100", "--max-m", "1000"]
    assert run(["--ceiling", "1000", *argv]) == (3, "")
    assert "the Euler product needs 1380 table updates" in capsys.readouterr().err
    # --max-m 10^30: refused at the default ceiling, with no sieve
    argv[6] = str(10**30)
    assert run(argv) == (3, "")


def test_corrupted_catalog_entry_fails_compare(monkeypatch):
    # corrupt one numerator coefficient of the loaded catalog and watch the
    # comparison exit code flip to 1
    import copy

    from ringzeta import ratfun

    good = ratfun._formulas()
    bad = copy.deepcopy(good)
    bad["heisenberg_subring"]["denominator_factors"][1] = [2, 1]  # was [1, 1]
    monkeypatch.setattr(ratfun, "_FORMULAS", bad)
    code, _ = run(
        ["zeta", "compare", "--ring", "catalog:heisenberg",
         "--formula", "heisenberg_subring", "--prime", "2", "--max-index", "2", "--yes"]
    )
    assert code == 1
    monkeypatch.setattr(ratfun, "_FORMULAS", good)


_SMALL = st.integers(-1, 4).map(str)
_PRIMES = st.sampled_from(["2", "3", "5", "7", "2", "3", "4"])
_RINGS = st.sampled_from([
    "catalog:heisenberg", "catalog:sl2", "catalog:abelian(3)", "catalog:componentwise(3)",
    "catalog:free_nilpotent_2_d(2)", "catalog:scale(heisenberg,2,1)", "catalog:nope",
    str(DATA / "heisenberg_ring.json"), str(DATA / "stanley_cone.json"),
])
_FORMULAS = st.sampled_from([
    "heisenberg_subring", "heisenberg_ideal", "sl2_odd", "zeta_Zn(3)", "heisenberg_rep",
    "dusautoy_rep", "dusautoy_normal", "nope",
])
_PRESENTATIONS = st.sampled_from([
    "catalog:heisenberg", "catalog:free_nilpotent_2_d(2)", "catalog:dusautoy_ec", "catalog:nope",
])
_SYSTEMS = st.sampled_from([str(DATA / "stanley_cone.json"), str(DATA / "heisenberg_inequality.json")])
_MODES = st.sampled_from(["subrings", "ideals", "sublattices"])

# each subcommand with the options it takes and a strategy for their values
_GRAMMAR = {
    ("ring", "validate"): {"--ring": _RINGS},
    ("zeta", "count"): {"--ring": _RINGS, "--prime": _PRIMES, "--max-index": _SMALL, "--mode": _MODES},
    ("zeta", "formula"): {"--name": _FORMULAS, "--prime": _PRIMES, "--max-index": _SMALL},
    ("zeta", "compare"): {"--ring": _RINGS, "--formula": _FORMULAS, "--prime": _PRIMES,
                          "--max-index": _SMALL, "--mode": _MODES},
    ("zeta", "funeq"): {"--name": _FORMULAS, "--solve": None, "--expect-sign": _SMALL,
                        "--expect-a": _SMALL, "--expect-b": _SMALL},
    ("cone", "rays"): {"--system": _SYSTEMS},
    ("cone", "series"): {"--system": _SYSTEMS, "--bound": _SMALL, "--strict": None},
    **{("cone", name): {"--system": _SYSTEMS, "--bound": _SMALL}
       for name in ("ratform", "reciprocity")},
    ("igusa", "poincare"): {"--poly": st.sampled_from(["x^2", "x*y", "y^2 - x^3 + x", "x + y + z",
                                                       "0", "3", "x^", "(x"]),
                            "--prime": _PRIMES, "--depth": _SMALL},
    ("igusa", "zeta3d"): {"--ring": _RINGS, "--prime": _PRIMES, "--max-index": _SMALL,
                          "--scale-exp": _SMALL},
    ("rep", "zeta"): {"--presentation": _PRESENTATIONS, "--prime": _PRIMES, "--max-exp": _SMALL},
    ("rep", "compare"): {"--presentation": _PRESENTATIONS, "--formula": _FORMULAS,
                         "--prime": _PRIMES, "--max-exp": _SMALL},
    ("euler",): {"--name": _FORMULAS, "--primes-up-to": st.integers(0, 30).map(str),
                 "--max-m": st.integers(0, 30).map(str)},
    ("coxeter", "check"): {"--n": st.integers(-1, 4).map(str)},
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    argv = list(command)
    for option, values in _GRAMMAR[command].items():
        if draw(st.integers(0, 9)):  # now and then leave an option out
            argv += [option] if values is None else [option, draw(values)]
    common = ["--ceiling", str(draw(st.integers(0, 10**4)))]
    common += ["--output", draw(st.sampled_from(["table", "csv", "json"]))]
    if draw(st.booleans()):
        common.append("--yes")
    return common + argv if draw(st.booleans()) else argv + common


@settings(max_examples=300, derandomize=True, deadline=None)
@given(argv=_argv())
def test_cli_fuzz_exits_with_a_documented_code(argv):
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO()  # not a terminal: the guard never prompts
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    finally:
        sys.stdin = stdin
    assert code in range(5), (argv, code)
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())


def test_closed_pipe_exits_quietly_with_the_commands_code():
    """A reader that left before the report was written (as with `| head`)
    costs no traceback and no change of exit code."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "ringzeta.cli", "rep", "zeta", "--presentation",
             "catalog:heisenberg", "--prime", "3", "--max-exp", "2"],
            env=env, stdin=subprocess.DEVNULL, stdout=write_end, stderr=subprocess.PIPE,
            text=True, check=False,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, "")


_FRONT_END = {"ringzeta", "ringzeta.cli", "ringzeta.errors", "ringzeta.ratfun", "ringzeta.poly"}
_LOADED_AFTER = """
import io, json, sys
from contextlib import redirect_stdout
import ringzeta.cli
ringzeta.cli.build_parser()
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()):
        assert ringzeta.cli.main(argv) == 0, argv
print(json.dumps([m for m in sys.modules if m.split(".")[0] == "ringzeta"]))
"""


@pytest.mark.parametrize("argvs, unloaded", [
    ([], None),
    ([["euler", "--name", "heisenberg_subring", "--primes-up-to", "7", "--max-m", "10"],
      ["zeta", "funeq", "--name", "heisenberg_subring", "--solve"]],
     {"algebra", "exactlinalg", "latticezeta", "repzeta", "igusa", "cones", "coxeter"}),
    ([["igusa", "poincare", "--poly", "y^2 - x^3 + x", "--prime", "5", "--depth", "3"]],
     {"algebra", "latticezeta"}),
    ([["igusa", "zeta3d", "--ring", "catalog:heisenberg", "--prime", "3", "--max-index", "2"]],
     {"latticezeta"}),
])
def test_a_command_loads_only_the_layers_it_calls(argvs, unloaded):
    """In a fresh interpreter, importing the CLI and building its parser loads
    only the front end; each command then loads the layers its handler calls."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _LOADED_AFTER, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, check=True)
    loaded = set(json.loads(done.stdout))
    if unloaded is None:
        assert loaded == _FRONT_END
    else:
        assert not loaded & {f"ringzeta.{name}" for name in unloaded}
