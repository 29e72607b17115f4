import csv
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringzeta import cli

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
    for bad in ("4", "9", "1", "0", "-3", "x"):
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--prime", bad])
        assert exc.value.code == 2, bad


def test_is_prime():
    sieve = [n for n in range(200) if n > 1 and all(n % q for q in range(2, n))]
    assert [n for n in range(200) if cli._is_prime(n)] == sieve
    assert cli._is_prime(2**61 - 1) and not cli._is_prime(3215031751)  # strong pseudoprime


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


def test_guard_exit_three():
    code, _ = run(
        ["--ceiling", "10", "zeta", "count", "--ring", "catalog:abelian(4)",
         "--prime", "3", "--max-index", "3", "--yes"]
    )
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["rep", "zeta", "--presentation", "catalog:dusautoy_ec", "--prime", "5", "--max-exp", "2"],
    ["rep", "compare", "--presentation", "catalog:dusautoy_ec", "--formula", "dusautoy_rep",
     "--prime", "5", "--max-exp", "2"],
    # 3 points mod 3, then 7 singular nodes lifted
    ["igusa", "poincare", "--poly", "x^2", "--prime", "3", "--depth", "4"],
    ["igusa", "zeta3d", "--ring", "catalog:heisenberg", "--prime", "3", "--max-index", "2"],
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


def test_ring_validate_file_and_catalog(tmp_path):
    ring = tmp_path / "ring.json"
    ring.write_text(
        json.dumps({"rank": 3, "constants": [[1, 2, 3, 1], [2, 1, 3, -1]], "flags": ["lie"]})
    )
    code, out = run(["ring", "validate", "--ring", str(ring)])
    assert code == 0 and "nilpotency_class: 2" in out
    code, out = run(["ring", "validate", "--ring", "catalog:sl2"])
    assert code == 0 and "not nilpotent" in out


@pytest.mark.parametrize("doc", [
    [3, [[1, 2, 3, 1]]],  # a list, not an object
    {"rank": "3", "constants": []},
    {"rank": True},
    {"constants": []},
    {"rank": 3, "constants": 5},
    {"rank": 3, "constants": [[1, 2, 3, "1"]]},
])
def test_ring_validate_malformed_file_is_a_usage_error(tmp_path, doc):
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps(doc))
    assert run(["ring", "validate", "--ring", str(ring)])[0] == 2


@pytest.mark.parametrize("doc", [[2, 1], {"d": 2, "dprime": "1"}, {"d": 2.0, "dprime": 1}])
def test_rep_zeta_malformed_presentation_is_a_usage_error(tmp_path, doc):
    pres = tmp_path / "pres.json"
    pres.write_text(json.dumps(doc))
    argv = ["rep", "zeta", "--presentation", str(pres), "--prime", "3", "--max-exp", "1"]
    assert run(argv)[0] == 2


def test_unexpected_exception_exits_four_with_traceback(monkeypatch, capsys):
    def broken(path):
        raise RuntimeError("unforeseen")

    monkeypatch.setattr(cli.algebra, "load_algebra", broken)
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


def test_euler_resolves_the_formula_before_the_product():
    # no prime <= 1, so no local factor is ever needed: the formula is checked anyway
    for name in ("dusautoy_rep", "no_such_formula"):
        assert run(["euler", "--name", name, "--primes-up-to", "1", "--max-m", "1"])[0] == 2
    code, out = run(["euler", "--name", "zeta_Zn(2)", "--primes-up-to", "1", "--max-m", "1"])
    assert code == 0 and "partial_sum: 1" in out


def test_coxeter_check_command():
    code, out = run(["coxeter", "check", "--n", "4"])
    assert code == 0 and "pass" in out


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
    **{("cone", name): {"--system": _SYSTEMS, "--bound": _SMALL, "--strict": None}
       for name in ("series", "ratform", "reciprocity")},
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
