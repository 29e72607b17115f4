from collections import deque
from itertools import combinations, permutations

import pytest

from ringzeta import cli, coxeter
from ringzeta.coxeter import descent_sum, flag_count, gaussian_binomial
from ringzeta.errors import ResourceGuardError, UnsupportedError
from ringzeta.poly import Polynomial
from ringzeta.ratfun import XY


def in_x(coeffs):
    """The polynomial sum c X^d over coeffs {d: c}."""
    return Polynomial(XY, {(d, 0): c for d, c in coeffs.items()})


def mask(D):
    """The descent set D as the walk's bit mask."""
    return sum(1 << (i - 1) for i in D)


def statistics(n):
    """w -> (D(w), l(w), D(w w0), l(w w0)) as the walk reads them."""
    return {w: tuple(rest) for w, *rest in coxeter._permutation_statistics(n)}


def test_length_and_descent_examples():
    assert statistics(5)[(3, 5, 2, 4, 1)] == (mask({2, 4}), 7, mask({1, 3}), 3)
    identity, w0 = (1, 2, 3, 4), (4, 3, 2, 1)
    assert statistics(4)[identity] == (0, 0, mask({1, 2, 3}), 6)
    assert statistics(4)[w0] == (mask({1, 2, 3}), 6, 0, 0)


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


def _word_descents(w, dist):
    """The descent set by words: the adjacent swaps that shorten w."""
    return frozenset(i + 1 for i in range(len(w) - 1)
                     if dist[w[:i] + (w[i + 1], w[i]) + w[i + 2:]] < dist[w])


def test_walk_matches_the_word_definitions():
    """For n <= 5, every w and w w0 has the word length and word descent set,
    and the walk tallies exactly those."""
    for n in range(6):
        dist = _word_lengths(n)
        stats = statistics(n)
        assert sorted(stats) == sorted(dist)
        lengths = [[0] * (n * (n - 1) // 2 + 1) for _ in range(1 << max(n - 1, 0))]
        for w, (D, l, Dv, lv) in stats.items():
            v = tuple(n + 1 - x for x in w)
            assert (D, l) == (mask(_word_descents(w, dist)), dist[w])
            assert (Dv, lv) == (mask(_word_descents(v, dist)), dist[v])
            lengths[D][l] += 1
        walk = coxeter.walk_symmetric_group(n)
        assert walk.lengths == lengths and walk.longest.holds


def test_coxeter_check_walks_the_group_once(monkeypatch, capsys):
    walks = []

    def counted(*args):
        walks.append(args)
        return permutations(*args)

    monkeypatch.setattr(coxeter, "permutations", counted)
    assert cli.main(["coxeter", "check", "--n", "5"]) == 0
    assert "pass" in capsys.readouterr().out
    assert walks == [(range(1, 6),)]


def test_longest_element_identities():
    for n in (1, 3, 5):
        assert coxeter.longest_element_identities(n).holds
    with pytest.raises(ResourceGuardError):
        coxeter.longest_element_identities(9, ceiling=10**5)


def test_broken_identity_is_reported_with_its_witness(monkeypatch):
    # a walk whose w w0 data is off for one w must not pass
    real = coxeter._permutation_statistics

    def skewed(n):
        for w, D, l, Dv, lv in real(n):
            yield (w, D, l, Dv, lv + (w == (2, 1, 3)))

    monkeypatch.setattr(coxeter, "_permutation_statistics", skewed)
    verdict = coxeter.longest_element_identities(3)
    assert not verdict.holds and verdict.witness == (2, 1, 3)


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
