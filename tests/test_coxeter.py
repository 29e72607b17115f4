from collections import deque
from itertools import combinations

import pytest

from ringzeta import cones, coxeter, ratfun
from ringzeta.coxeter import (
    PermutationData,
    descent_set,
    descent_sum,
    flag_count,
    gaussian_binomial,
    length,
)
from ringzeta.errors import MalformedInputError, ResourceGuardError, UnsupportedError
from ringzeta.poly import Polynomial
from ringzeta.ratfun import XY, BivariateRationalFunction


def in_x(coeffs):
    """The polynomial sum c X^d over coeffs {d: c}."""
    return Polynomial(XY, {(d, 0): c for d, c in coeffs.items()})


def test_length_and_descent_examples():
    w = PermutationData((3, 5, 2, 4, 1))
    assert length(w) == 7
    assert descent_set(w) == frozenset({2, 4})
    ident = PermutationData((1, 2, 3, 4))
    assert length(ident) == 0 and descent_set(ident) == frozenset()
    w0 = PermutationData((4, 3, 2, 1))
    assert length(w0) == 6
    assert descent_set(w0) == frozenset({1, 2, 3})


def test_invalid_permutation():
    with pytest.raises(MalformedInputError):
        PermutationData((1, 1, 2))


def _word_lengths(n):
    """BFS over products of adjacent transpositions: the word metric."""
    start = tuple(range(1, n + 1))
    dist = {start: 0}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for i in range(n - 1):
            nxt = list(w)
            nxt[i], nxt[i + 1] = nxt[i + 1], nxt[i]
            nxt = tuple(nxt)
            if nxt not in dist:
                dist[nxt] = dist[w] + 1
                queue.append(nxt)
    return dist


def test_length_matches_word_metric_on_s4():
    dist = _word_lengths(4)
    for img, d in dist.items():
        w = PermutationData(img)
        assert length(w) == d
        # descent characterization: the swaps that shorten the word
        shorter = frozenset(
            i + 1
            for i in range(3)
            if dist[tuple(img[:i] + (img[i + 1], img[i]) + img[i + 2:])] < d
        )
        assert descent_set(w) == shorter


def test_longest_element_identities():
    for n in (1, 3, 5):
        assert coxeter.longest_element_identities(n).holds
    w = PermutationData((3, 5, 2, 4, 1))
    assert length(coxeter.complement_by_longest(w)) == 10 - 7
    with pytest.raises(ResourceGuardError):
        coxeter.longest_element_identities(9, ceiling=10**5)


def test_gaussian_binomial_examples():
    assert gaussian_binomial(3, {1}) == in_x({0: 1, 1: 1, 2: 1})
    assert gaussian_binomial(3, {1, 2}) == in_x({0: 1, 1: 2, 2: 2, 3: 1})
    assert gaussian_binomial(4, {2}) == in_x({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
    assert gaussian_binomial(5, set()) == in_x({0: 1})


def test_descent_sum_equals_gaussian_binomial():
    for n in range(1, 6):
        for size in range(0, n):
            for I in combinations(range(1, n), size):
                assert descent_sum(n, I) == gaussian_binomial(n, I)


def test_descent_sum_empty_type():
    assert descent_sum(5, set()) == in_x({0: 1})


def test_flag_count_examples():
    assert flag_count(3, {1}, 2) == 7
    assert flag_count(3, {1, 2}, 2) == 21
    assert flag_count(2, {1}, 3) == 4


def test_flag_count_matches_gaussian_binomial():
    for n, q in ((3, 2), (3, 3), (4, 2)):
        for size in range(0, n):
            for I in combinations(range(1, n), size):
                assert flag_count(n, I, q) == gaussian_binomial(n, I).evaluate((q, 1))


def test_flag_count_guards():
    with pytest.raises(UnsupportedError):
        flag_count(3, {1}, 4)
    with pytest.raises(ResourceGuardError):
        flag_count(5, {1}, 2, ceiling=20)


def test_ip_abelian_family():
    for n in range(2, 6):
        family = coxeter.abelian_w_family(n)
        verdict = coxeter.ip_hypothesis_check(family, n)
        assert verdict.holds and verdict.conclusion_checked
        total = coxeter.ip_assemble(family, n) * ratfun.zp_factor(0, n)
        assert total == ratfun.zeta_zn(n)


def test_ip_n2_identity_from_first_principles():
    # 1/(1-Y^2) * (1 + (1+X^-1) XY/(1-XY)) = 1/((1-Y)(1-XY))
    family = coxeter.abelian_w_family(2)
    W = coxeter.ip_assemble(family, 2)
    lhs = ratfun.zp_factor(0, 2) * W
    assert lhs == ratfun.zeta_zn(2)
    binom = BivariateRationalFunction(Polynomial(XY, {(0, 0): 1, (-1, 0): 1}))
    manual = BivariateRationalFunction.constant(1) + binom * BivariateRationalFunction(
        Polynomial(XY, {(1, 1): 1}), {(1, 1): 1}
    )
    assert W == manual


def test_ip_family_built_from_cones():
    # W_I as the strict-solution series of the empty system in |I| variables,
    # monomially substituted; the hypothesis then is Stanley reciprocity
    n = 3
    family = {}
    for size in range(0, n):
        for I in combinations(range(1, n), size):
            if not I:
                family[frozenset()] = BivariateRationalFunction.constant(1)
                continue
            sys_ = cones.DiophantineConeSystem.empty(len(I))
            form = cones.rational_form(sys_)
            # strict series = prod X_i/(1 - X_i): shift the closed form by one
            # in every variable and verify against strict enumeration
            strict_form = cones.MultivariateRationalForm(
                form.m,
                {tuple([1] * len(I)): 1},
                form.denominator_rays,
            )
            got = cones.expand_form(strict_form, 4)
            assert got == cones.brute_series(sys_, 4, strict=True)
            assignment = [(i * (n - i), i) for i in sorted(I)]
            family[frozenset(I)] = cones.substitute(strict_form, assignment)
    verdict = coxeter.ip_hypothesis_check(family, n)
    assert verdict.holds


def test_ip_violating_family():
    bad = {
        frozenset(): BivariateRationalFunction.constant(1),
        frozenset({1}): BivariateRationalFunction.constant(1),
    }
    verdict = coxeter.ip_hypothesis_check(bad, 2)
    assert not verdict.holds
    assert verdict.witness == frozenset({1})


def test_ip_assemble_missing_subset():
    with pytest.raises(MalformedInputError):
        coxeter.ip_assemble({frozenset(): BivariateRationalFunction.constant(1)}, 3)
