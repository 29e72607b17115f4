import json
import math
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringzeta import algebra
from ringzeta.errors import LookupError_, MalformedInputError


def test_heisenberg_is_lie():
    report = algebra.validate(algebra.catalog("heisenberg"))
    assert report.antisymmetric.holds
    assert report.jacobi.holds


def test_abelian_passes_everything():
    report = algebra.validate(algebra.catalog("abelian", 3))
    assert all(v["holds"] for v in report.as_dict().values())


def test_declared_antisymmetry_violation_fails_construction():
    with pytest.raises(MalformedInputError) as err:
        algebra.StructureConstantAlgebra("bad", 2, {(1, 2, 1): 1}, ("antisymmetric",))
    assert "(1, 2, 1)" in str(err.value)


def test_validate_reports_all_axioms_regardless_of_flags():
    cw = algebra.catalog("componentwise", 2)
    report = algebra.validate(cw)
    assert report.commutative.holds
    assert report.associative.holds
    assert not report.antisymmetric.holds
    assert not report.jacobi.holds  # [e1,[e1,e1]] has no chance with e1*e1 = e1


def test_index_out_of_range_rejected():
    with pytest.raises(MalformedInputError):
        algebra.StructureConstantAlgebra("bad", 2, {(1, 3, 1): 1})


def test_multiply_examples():
    heis = algebra.catalog("heisenberg")
    assert algebra.multiply(heis, (1, 0, 0), (0, 1, 0)) == (0, 0, 1)
    sl2 = algebra.catalog("sl2")
    # basis order e, f, h
    assert algebra.multiply(sl2, (0, 0, 1), (1, 0, 0)) == (2, 0, 0)
    assert algebra.multiply(sl2, (0, 0, 0), (5, -3, 2)) == (0, 0, 0)


@settings(max_examples=60, derandomize=True)
@given(
    a=st.integers(-9, 9),
    u=st.lists(st.integers(-9, 9), min_size=3, max_size=3),
    u2=st.lists(st.integers(-9, 9), min_size=3, max_size=3),
    v=st.lists(st.integers(-9, 9), min_size=3, max_size=3),
)
def test_multiply_bilinear(a, u, u2, v):
    for name in ("heisenberg", "sl2"):
        alg = algebra.catalog(name)
        left = algebra.multiply(alg, [a * x + y for x, y in zip(u, u2)], v)
        expect = tuple(
            a * s + t
            for s, t in zip(algebra.multiply(alg, u, v), algebra.multiply(alg, u2, v))
        )
        assert left == expect
        right = algebra.multiply(alg, v, [a * x + y for x, y in zip(u, u2)])
        expect = tuple(
            a * s + t
            for s, t in zip(algebra.multiply(alg, v, u), algebra.multiply(alg, v, u2))
        )
        assert right == expect


def test_nilpotency_classes():
    assert algebra.nilpotency_class(algebra.catalog("heisenberg")) == 2
    assert algebra.nilpotency_class(algebra.catalog("abelian", 4)) == 1
    assert algebra.nilpotency_class(algebra.catalog("sl2")) is None
    assert algebra.nilpotency_class(algebra.catalog("free_nilpotent_2_d", 3)) == 2


def test_nilpotency_class_invariant_under_scaling():
    for name, param in (("heisenberg", None), ("abelian", 3), ("free_nilpotent_2_d", 3)):
        alg = algebra.catalog(name, param)
        assert algebra.nilpotency_class(algebra.scale(alg, 3, 2)) == algebra.nilpotency_class(alg)


def test_commutator_matrix_heisenberg():
    pres = algebra.resolve_presentation_spec("catalog:heisenberg")
    R = algebra.commutator_matrix(pres)
    assert R.entries[0][1] == [1]
    assert R.entries[1][0] == [-1]
    assert R.evaluate((5,)) == [[0, 5], [-5, 0]]


def test_commutator_matrix_dusautoy_blocks():
    R = algebra.commutator_matrix(algebra.resolve_presentation_spec("catalog:dusautoy_ec"))
    # upper-right block rows: (y3, y1, y2), (y1, y3, 0), (y2, 0, y1)
    assert R.entries[0][3] == [0, 0, 1]
    assert R.entries[0][4] == [1, 0, 0]
    assert R.entries[0][5] == [0, 1, 0]
    assert R.entries[1][5] == [0, 0, 0]
    assert R.entries[2][5] == [1, 0, 0]
    # lower-left is the negated transpose and the diagonal blocks vanish
    assert R.entries[3][0] == [0, 0, -1]
    assert R.entries[0][1] == [0, 0, 0]


def test_commutator_matrix_zero_presentation():
    pres = algebra.Class2Presentation("zero", 3, 2, {})
    R = algebra.commutator_matrix(pres)
    assert R.is_zero()
    assert R.evaluate((1, 1)) == [[0] * 3 for _ in range(3)]


@settings(max_examples=40, derandomize=True)
@given(ell=st.lists(st.integers(-20, 20), min_size=3, max_size=3))
def test_evaluated_commutator_matrix_antisymmetric(ell):
    R = algebra.commutator_matrix(algebra.resolve_presentation_spec("catalog:dusautoy_ec"))
    M = R.evaluate(ell)
    for i in range(6):
        assert M[i][i] == 0
        for j in range(6):
            assert M[i][j] == -M[j][i]


def test_catalog_sl2_relations():
    sl2 = algebra.catalog("sl2")
    assert sl2.rank == 3
    e, f, h = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert algebra.multiply(sl2, h, e) == (2, 0, 0)
    assert algebra.multiply(sl2, h, f) == (0, -2, 0)
    assert algebra.multiply(sl2, e, f) == (0, 0, 1)


def test_free_nilpotent_2_2_is_heisenberg():
    assert algebra.catalog("free_nilpotent_2_d", 2) == algebra.catalog("heisenberg")


def test_componentwise_constants():
    cw = algebra.catalog("componentwise", 2)
    assert cw.rank == 2
    assert cw.constants == {(1, 1, 1): 1, (2, 2, 2): 1}


def test_dusautoy_is_class_2_lie():
    dus = algebra.catalog("dusautoy_ec")
    assert dus.rank == 9
    assert algebra.nilpotency_class(dus) == 2


def test_unknown_catalog_name():
    with pytest.raises(LookupError_):
        algebra.catalog("borel")


def test_catalog_entry_without_parameter_refuses_one():
    for name in ("heisenberg", "sl2", "dusautoy_ec"):
        with pytest.raises(MalformedInputError, match="takes no parameter"):
            algebra.catalog(name, 2)
        assert algebra.catalog(name).name == name
    for name in ("heisenberg", "dusautoy_ec"):
        with pytest.raises(MalformedInputError, match="takes no parameter"):
            algebra.resolve_presentation_spec(f"catalog:{name}(3)")
    with pytest.raises(MalformedInputError, match="takes no parameter"):
        algebra.resolve_ring_spec("catalog:scale(heisenberg(2),3,1)")


def test_ring_spec_resolution():
    assert algebra.resolve_ring_spec("catalog:abelian(3)").rank == 3
    scaled = algebra.resolve_ring_spec("catalog:scale(heisenberg,3,1)")
    assert scaled.constants[(1, 2, 3)] == 3


def test_load_algebra_file(tmp_path):
    heis = algebra.catalog("heisenberg")
    path = tmp_path / "ring.json"
    path.write_text(
        json.dumps(
            {
                "name": "h",
                "rank": 3,
                "constants": [[1, 2, 3, 1], [2, 1, 3, -1]],
                "flags": ["antisymmetric", "lie"],
            }
        )
    )
    assert algebra.load_algebra(path) == heis


def test_duplicate_triple_rejected(tmp_path):
    path = tmp_path / "ring.json"
    path.write_text(
        json.dumps({"rank": 2, "constants": [[1, 2, 1, 1], [1, 2, 1, 2]]})
    )
    with pytest.raises(MalformedInputError):
        algebra.load_algebra(path)


def test_load_presentation_file(tmp_path):
    path = tmp_path / "pres.json"
    path.write_text(
        json.dumps({"d": 2, "dprime": 1, "constants": [[1, 2, 1, 1], [2, 1, 1, -1]]})
    )
    pres = algebra.load_presentation(path)
    assert (pres.d, pres.dprime) == (2, 1)
    # a presentation need not be antisymmetric, but its commutator matrix must
    bad = algebra.Class2Presentation("bad", 2, 1, {(1, 2, 1): 1})
    with pytest.raises(MalformedInputError, match=r"not antisymmetric at \(1, 2, 1\)"):
        algebra.commutator_matrix(bad)
    with pytest.raises(MalformedInputError, match=r"not antisymmetric at \(2, 2, 1\)"):
        algebra.commutator_matrix(algebra.Class2Presentation("bad", 2, 1, {(2, 2, 1): 1}))


def test_catalog_presentations_are_read_off_the_rings():
    # the factor coordinates become e_1..e_d and the others f_1..f_d', in order
    def antisymmetric(*triples):
        out = {}
        for i, j, k in triples:
            out[(i, j, k)], out[(j, i, k)] = 1, -1
        return out

    dusautoy = antisymmetric((1, 4, 3), (1, 5, 1), (1, 6, 2), (2, 4, 1), (2, 5, 3), (3, 4, 2),
                             (3, 6, 1))
    for spec, name, d, dprime, constants in (
        ("heisenberg", "heisenberg", 2, 1, antisymmetric((1, 2, 1))),
        ("free_nilpotent_2_d(3)", "free_nilpotent_2_3", 3, 3,
         antisymmetric((1, 2, 1), (1, 3, 2), (2, 3, 3))),
        ("dusautoy_ec", "dusautoy_ec", 6, 3, dusautoy),
    ):
        pres = algebra.resolve_presentation_spec("catalog:" + spec)
        assert (pres.name, pres.d, pres.dprime, pres.constants) == (name, d, dprime, constants)


def test_catalog_lie_entries_pass_jacobi_exhaustively():
    entries = [
        algebra.catalog("abelian", 3),
        algebra.catalog("heisenberg"),
        algebra.catalog("sl2"),
        algebra.catalog("free_nilpotent_2_d", 2),
        algebra.catalog("free_nilpotent_2_d", 3),
        algebra.catalog("dusautoy_ec"),
    ]
    for alg in entries:
        report = algebra.validate(alg)
        assert report.jacobi.holds, alg.name
        assert report.antisymmetric.holds, alg.name


def _definition_report(alg):
    """Each axiom checked from its definition with `multiply` on basis
    vectors; the witness is the first failing triple in the scan order."""
    n = alg.rank
    e = [None] + [alg.basis_vector(i) for i in range(1, n + 1)]

    def mul(u, v):
        return algebra.multiply(alg, u, v)

    def add(*vectors):
        return tuple(map(sum, zip(*vectors)))

    def first(triples, fails):
        return next((t for t in triples if fails(*t)), None)

    def anti_sum(i, j):
        return add(mul(e[i], e[j]), mul(e[j], e[i])) if i != j else mul(e[i], e[i])

    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    anti = first([(i, j, l) for i, j in pairs for l in range(1, n + 1)],
                 lambda i, j, l: anti_sum(i, j)[l - 1])
    triples = list(product(range(1, n + 1), repeat=3))
    jacobi = first(triples, lambda i, j, k: any(add(
        mul(e[i], mul(e[j], e[k])), mul(e[j], mul(e[k], e[i])), mul(e[k], mul(e[i], e[j])))))
    assoc = first(triples, lambda i, j, k: mul(mul(e[i], e[j]), e[k]) != mul(e[i], mul(e[j], e[k])))
    comm = first([(i, j, None) for i, j in pairs if i < j],
                 lambda i, j, _: mul(e[i], e[j]) != mul(e[j], e[i]))
    return {name: {"holds": w is None, "witness": w} for name, w in (
        ("antisymmetric", anti), ("jacobi", jacobi), ("associative", assoc), ("commutative", comm))}


def _definition_class(alg):
    """The least c <= n such that every left-normed product of c + 1 basis
    vectors vanishes, else None; products are kept up to sign and content."""
    n = alg.rank
    basis = [alg.basis_vector(i) for i in range(1, n + 1)]
    products = set(basis)
    for c in range(1, n + 1):
        nxt = set()
        for u in products:
            for b in basis:
                v = algebra.multiply(alg, u, b)
                if any(v):
                    g = math.gcd(*v) * (1 if next(x for x in v if x) > 0 else -1)
                    nxt.add(tuple(x // g for x in v))
        if not nxt:
            return c
        products = nxt
    return None


def _random_ring(rng):
    """Sparse constants, optionally antisymmetrized or symmetrized, with the
    output index optionally above both inputs (a nilpotent ring)."""
    n = rng.randint(1, 5)
    shape, upper = rng.choice(["free", "anti", "sym"]), n > 1 and rng.random() < 0.5
    constants = {}
    for _ in range(rng.randint(0, 2 * n)):
        i, j = rng.randint(1, n - upper), rng.randint(1, n - upper)
        if shape == "anti" and i == j:
            continue
        k = rng.randint(max(i, j) + 1, n) if upper else rng.randint(1, n)
        v = rng.choice([-2, -1, 1, 1, 2])
        constants[(i, j, k)] = v
        if shape != "free" and i != j:
            constants[(j, i, k)] = -v if shape == "anti" else v
    return algebra.StructureConstantAlgebra("random", n, constants)


def test_validate_and_nilpotency_class_match_their_definitions():
    rng = random.Random(7)
    combinations, classes = set(), set()
    for _ in range(2000):
        alg = _random_ring(rng)
        report = algebra.validate(alg).as_dict()
        assert report == _definition_report(alg), alg.constants
        nc = algebra.nilpotency_class(alg)
        assert nc == _definition_class(alg), alg.constants
        combinations.add(tuple(v["holds"] for v in report.values()))
        classes.add(nc)
    assert len(combinations) >= 10
    assert classes >= {None, 1, 2, 3, 4}
