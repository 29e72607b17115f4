"""Acceptance suite: every closed form is checked against the enumeration
oracle at desk scale, exactly (integer equality, no tolerances).

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import io
import math
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stdout
from itertools import combinations
from pathlib import Path

import ringzeta
from ringzeta import algebra, cli, cones, coxeter, igusa, latticezeta, ratfun, repzeta

# small cases of each command the acceptance criteria exercise: the lattice
# search with and without the row-0 solve, the central sum of class-2 ideals,
# both orbit walks' callers, the one-shot Euler expansion, the Poincare
# lifting walk and the cone triangulation
DETERMINISM_COMMANDS = [
    ["zeta", "compare", "--ring", "catalog:heisenberg", "--formula", "heisenberg_subring",
     "--prime", "2", "--max-index", "3", "--yes"],
    ["zeta", "compare", "--ring", "catalog:sl2", "--formula", "sl2_odd",
     "--prime", "3", "--max-index", "3", "--yes"],
    ["zeta", "compare", "--ring", "catalog:heisenberg", "--formula", "heisenberg_ideal",
     "--mode", "ideals", "--prime", "3", "--max-index", "4"],
    ["rep", "compare", "--presentation", "catalog:heisenberg", "--formula", "heisenberg_rep",
     "--prime", "3", "--max-exp", "2"],
    ["rep", "compare", "--presentation", "catalog:dusautoy_ec", "--formula", "dusautoy_rep",
     "--prime", "5", "--max-exp", "2"],
    ["euler", "--name", "heisenberg_subring", "--primes-up-to", "60", "--max-m", "60"],
    ["igusa", "zeta3d", "--ring", "catalog:sl2", "--prime", "3", "--max-index", "4"],
    *[["cone", command, "--system", str(Path(__file__).parent / "data" / fixture), "--bound", "6"]
      for fixture in ("stanley_cone.json", "heisenberg_inequality.json")
      for command in ("ratform", "reciprocity")],
]


def _run_in_process(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _run_in_fresh_interpreter(argv):
    src = str(Path(ringzeta.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONHASHSEED", None)
    done = subprocess.run([sys.executable, "-m", "ringzeta.cli", *argv], env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True, check=False)
    return done.returncode, done.stdout


@contextmanager
def criterion(number, label):
    start = time.time()
    failed = True
    try:
        yield
        failed = False
    finally:
        state = "FAIL" if failed else "PASS"
        print(f"ACCEPTANCE {number:>2} {label}: {state} ({time.time() - start:.1f}s)")


def test_criterion_01_abelian_self_test():
    with criterion(1, "abelian sublattice counts match the product formula"):
        for n in range(1, 5):
            for p in (2, 3):
                K = 4 if (n <= 3 and p == 2) else 3
                abelian = algebra.catalog("abelian", n)
                formula = ratfun.expand(ratfun.zeta_zn(n), p, K).coefficients
                # count credits the whole search tree in closed form; the
                # enumeration lists every lattice
                assert latticezeta.count(abelian, p, K, "sublattices").coefficients == formula
                brute = latticezeta._brute_counts(
                    abelian, p, K, "sublattices", latticezeta.DEFAULT_CEILING)
                assert tuple(brute) == formula, (n, p)


def test_criterion_02_heisenberg_subrings_and_ideals():
    with criterion(2, "Heisenberg subring and ideal counts match their factors"):
        heis = algebra.catalog("heisenberg")
        for p in (2, 3, 5):
            brute = latticezeta.count(heis, p, 3, "subrings")
            formula = ratfun.expand(ratfun.formula_catalog("heisenberg_subring"), p, 3)
            assert brute.coefficients == formula.coefficients, ("subrings", p)
            brute = latticezeta.count(heis, p, 3, "ideals")
            formula = ratfun.expand(ratfun.formula_catalog("heisenberg_ideal"), p, 3)
            assert brute.coefficients == formula.coefficients, ("ideals", p)
        brute = latticezeta.count(heis, 5, 5, "ideals")
        formula = ratfun.expand(ratfun.formula_catalog("heisenberg_ideal"), 5, 5)
        assert brute.coefficients == formula.coefficients, ("ideals", 5, 5)


def test_criterion_03_sl2_including_the_even_prime():
    with criterion(3, "traceless 2x2 ring: odd-prime factor and the p=2 factor"):
        sl2 = algebra.catalog("sl2")
        for p in (3, 5):
            brute = latticezeta.count(sl2, p, 3, "subrings")
            formula = ratfun.expand(ratfun.formula_catalog("sl2_odd"), p, 3)
            assert brute.coefficients == formula.coefficients, p
        brute = latticezeta.count(sl2, 2, 3, "subrings")
        formula = ratfun.expand(ratfun.formula_catalog("sl2_two"), 2, 3)
        assert brute.coefficients == formula.coefficients


def test_criterion_04_rank6_free_class2_ring():
    with criterion(4, "rank-6 free class-2 ring matches the 16-term numerator factor"):
        f23 = algebra.catalog("free_nilpotent_2_d", 3)
        factor = ratfun.formula_catalog("f23_subring")
        for p, K in ((2, 4), (3, 4)):
            brute = latticezeta.count(f23, p, K, "subrings")
            assert brute.coefficients == ratfun.expand(factor, p, K).coefficients, (p, K)
        # the Hermite row search, which count no longer takes for this ring
        search = latticezeta._search_counts(f23, 2, 3, "subrings", latticezeta.DEFAULT_CEILING)
        assert tuple(search) == ratfun.expand(factor, 2, 3).coefficients


def test_criterion_05_three_dimensional_assembly():
    with criterion(5, "rank-3 theorem: assembly = enumeration = closed form"):
        cases = [
            ("abelian", algebra.catalog("abelian", 3), ratfun.zeta_zn(3)),
            ("heisenberg", algebra.catalog("heisenberg"),
             ratfun.formula_catalog("heisenberg_subring")),
            ("sl2", algebra.catalog("sl2"), ratfun.formula_catalog("sl2_odd")),
        ]
        for name, alg, formula in cases:
            for p in (3, 5):
                for K in (1, 2):
                    assembled = igusa.theorem3d_zeta(alg, p, 0, K).coefficients
                    brute = latticezeta.count(alg, p, K, "subrings").coefficients
                    closed = ratfun.expand(formula, p, K).coefficients
                    assert assembled == brute == closed, (name, p, K)
        heis = algebra.catalog("heisenberg")
        scaled = algebra.scale(heis, 3, 1)
        for K in (1, 2):
            assembled = igusa.theorem3d_zeta(heis, 3, 1, K).coefficients
            brute = latticezeta.count(scaled, 3, K, "subrings").coefficients
            assert assembled == brute, K


def test_criterion_06_coxeter_identities():
    with criterion(6, "descent sums, flag counts, longest-element identities"):
        for n in range(1, 7):
            for size in range(0, n):
                for I in combinations(range(1, n), size):
                    assert coxeter.descent_sum(n, I) == coxeter.gaussian_binomial(n, I)
        for n, q in ((3, 2), (3, 3), (4, 2)):
            for size in range(0, n):
                for I in combinations(range(1, n), size):
                    assert coxeter.flag_count(n, I, q) == coxeter.gaussian_binomial(n, I).evaluate((q, 1))
        for n in range(1, 8):
            assert coxeter.longest_element_identities(n).holds


def test_criterion_07_cone_machinery():
    with criterion(7, "cone forms expand to the enumeration; reciprocity; substitution"):
        fixtures = [
            cones.DiophantineConeSystem([[1, 1, -1, -1]]),
            cones.DiophantineConeSystem([[1, -1]]),
            cones.DiophantineConeSystem([[2, -1]]),
            cones.DiophantineConeSystem([[-1, -1, 1]], kinds=["le"]),
            cones.DiophantineConeSystem([[1, 1, -1, -1], [1, -1, 0, 0]]),
            cones.DiophantineConeSystem.empty(2),
            cones.DiophantineConeSystem.empty(3),
        ]
        for sys_ in fixtures:
            form = cones.rational_form(sys_)
            got = cones.expand_form(form, 8)
            if sys_.slack_columns:
                got = got.marginalize(sys_.slack_columns)
            assert got == cones.brute_series(sys_, 8), sys_
        assert cones.reciprocity_check(fixtures[0], 6).status == "pass"
        for m in range(1, 5):
            assert cones.reciprocity_check(cones.DiophantineConeSystem.empty(m), 5).status == "pass"
        heis_sys = cones.DiophantineConeSystem([[-1, -1, 1]], kinds=["le"])
        substituted = cones.substitute(
            cones.rational_form(heis_sys), [(0, 1), (1, 1), (2, 1), None]
        )
        assert substituted == ratfun.formula_catalog("heisenberg_subring")


def test_criterion_08_functional_equations():
    with criterion(8, "functional equations, plain and point-count-weighted"):
        for n in range(1, 7):
            v = ratfun.funeq_verdict(ratfun.zeta_zn(n))
            assert v.triple() == ((-1) ** n, n * (n - 1) // 2, n), n
        assert ratfun.funeq_verdict(
            ratfun.formula_catalog("heisenberg_subring")
        ).triple() == (-1, 3, 3)
        assert ratfun.hybrid_funeq_verdict(
            ratfun.formula_catalog("dusautoy_normal"), (-1, 36, 15)
        ).matches_expected
        assert ratfun.hybrid_funeq_verdict(
            ratfun.formula_catalog("dusautoy_rep"), (1, 3, 0)
        ).matches_expected
        assert ratfun.funeq_verdict(
            ratfun.formula_catalog("heisenberg_rep")
        ).triple() == (1, 1, 0)


def test_criterion_09_representation_zeta():
    with criterion(9, "orbit-method counts match totients and the weighted factors"):
        heis = algebra.resolve_presentation_spec("catalog:heisenberg")
        for p in (3, 5, 7):
            got = repzeta.rep_zeta_class2(heis, p, 3).coefficients
            assert got == (1, p - 1, p**2 - p, p**3 - p**2), p
        ec = igusa.parse_polynomial("y^2 - x^3 + x")
        assert repzeta.point_count_affine(ec, 7) == 7  # p = 3 mod 4
        hybrid = ratfun.formula_catalog("dusautoy_rep")
        assert repzeta.weight_values(hybrid, 7)["b"] == 8
        dus = algebra.resolve_presentation_spec("catalog:dusautoy_ec")
        for p in (3, 5, 7, 31):
            weights = repzeta.weight_values(hybrid, p)
            brute = repzeta.rep_zeta_class2(dus, p, 2).coefficients
            formula = hybrid.expand(p, 2, weights).coefficients
            assert brute == formula, p


def test_criterion_10_rank9_ideal_truncation():
    with criterion(10, "rank-9 ring ideal counts match the weighted normal factor"):
        dus = algebra.catalog("dusautoy_ec")
        hybrid = ratfun.formula_catalog("dusautoy_normal")
        # the Hermite row search, which count no longer takes for this ring
        brute = tuple(latticezeta._search_counts(dus, 2, 2, "ideals", latticezeta.DEFAULT_CEILING))
        weights = repzeta.weight_values(hybrid, 2)
        formula = hybrid.expand(2, 2, weights).coefficients
        assert brute == formula == latticezeta.count(dus, 2, 2, "ideals").coefficients
        # at this depth the weighted corrections vanish: the factor reduces to
        # the rank-6 abelian part (the curve enters only from Y^5 on)
        assert formula == ratfun.expand(ratfun.zeta_zn(6), 2, 2).coefficients
        # the central sum reaches the depths where b(p) enters, at b(p) = p + 1
        # (p = 3, 7) and at b(5) = 8
        for p, K in ((3, 6), (5, 7), (7, 7)):
            weights = repzeta.weight_values(hybrid, p)
            formula = hybrid.expand(p, K, weights).coefficients
            assert latticezeta.count(dus, p, K, "ideals").coefficients == formula, p
            assert formula != hybrid.expand(p, K, {"b": weights["b"] + 1}).coefficients, p


def test_criterion_11_global_asymptotics():
    with criterion(11, "rank-2 partial sums approach (pi^2/12) m^2 within 2%"):
        M = 10**5
        g = ratfun.euler_product(ratfun.zeta_zn(2), M, M)
        c = math.pi**2 / 12
        ratios = ratfun.asymptotic_ratio(g, 2, 0, c, samples=[M])
        assert abs(ratios[0][1] - 1) <= 0.02


def test_criterion_12_property_suites():
    with criterion(12, "seeded property suites: zero failures"):
        rng = random.Random(5077)
        # prime-inversion involution on random factored functions
        for _ in range(50):
            den = {}
            for _ in range(rng.randrange(1, 4)):
                den[(rng.randrange(0, 4), rng.randrange(1, 4))] = 1
            num = ratfun.Polynomial(ratfun.XY,
                {(rng.randrange(0, 5), rng.randrange(0, 5)): rng.randrange(1, 5)}
            )
            f = ratfun.BivariateRationalFunction(num, den)
            assert ratfun.invert_prime(ratfun.invert_prime(f)) == f
        # multiplicativity of Euler coefficients
        g = ratfun.euler_product(ratfun.formula_catalog("heisenberg_subring"), 60, 60)
        for m in (4, 5, 9):
            for n in (7, 11):
                if m * n <= 60:
                    assert g.coefficients[m * n] == g.coefficients[m] * g.coefficients[n]
        # elementary-divisor type is unimodular-invariant
        for _ in range(100):
            p, N = rng.choice(((3, 2), (5, 1), (3, 3))), 0
            p, N = p[0], p[1]
            q = p**N
            A = [[rng.randrange(q) for _ in range(3)] for _ in range(3)]
            t = repzeta.smith_type(A, p, N).type
            perm = rng.sample(range(3), 3)
            B = [[A[perm[i]][j] for j in range(3)] for i in range(3)]
            assert repzeta.smith_type(B, p, N).type == t
        # determinism: each command prints the same bytes twice in this process
        # and once in a fresh interpreter, whose hash seed differs
        for argv in DETERMINISM_COMMANDS:
            first = _run_in_process(argv)
            assert first[0] == 0, argv
            assert _run_in_process(argv) == first, argv
            assert _run_in_fresh_interpreter(argv) == first, argv
