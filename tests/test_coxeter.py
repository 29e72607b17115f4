from collections import deque
from itertools import combinations

import pytest

from ringzeta import coxeter
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
from ringzeta.ratfun import XY


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
