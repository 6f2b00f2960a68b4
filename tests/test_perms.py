"""Permutation engine: conventions, reduced words, Bruhat order, patterns."""

import doctest
import itertools
import random
from bisect import insort

import pytest

from borbit import perms
from borbit.perms import (
    CapExceeded,
    bruhat_leq,
    compose,
    contains_pattern,
    evaluate_word,
    format_perm,
    format_word,
    identity,
    inverse,
    left_descents,
    length,
    lower_interval,
    parse_perm,
    parse_word,
    pattern_positions,
    reduced_word,
    simple,
)
from dense import all_perms


def longest_element(n: int) -> tuple[int, ...]:
    """``w_0 = n, n-1, ..., 1``, the longest permutation of ``S_n``."""
    return tuple(range(n, 0, -1))


def test_doctests():
    assert doctest.testmod(perms).failed == 0


def test_check_perm_rejects_non_permutations():
    with pytest.raises(ValueError):
        perms.check_perm((1, 1, 2))
    with pytest.raises(ValueError):
        perms.check_perm((0, 1))


def test_compose_is_right_to_left():
    # q acts first: (p q)(i) = p(q(i))
    p, q = (2, 4, 1, 3), (1, 3, 2, 4)
    assert compose(p, q) == tuple(p[q[i] - 1] for i in range(4))
    with pytest.raises(ValueError):
        compose((1, 2), (1, 2, 3))


def test_left_multiplication_swaps_values_right_swaps_positions():
    for w in all_perms(4):
        for i in range(1, 4):
            left = compose(simple(4, i), w)
            positions = {v: idx for idx, v in enumerate(w)}
            expected = list(w)
            expected[positions[i]], expected[positions[i + 1]] = i + 1, i
            assert left == tuple(expected)
            right = compose(w, simple(4, i))
            swapped = list(w)
            swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
            assert right == tuple(swapped)


def test_inverse_and_identity():
    for w in all_perms(4):
        assert compose(w, inverse(w)) == identity(4)
        assert compose(inverse(w), w) == identity(4)
        assert length(w) == length(inverse(w))


def test_word_evaluation_matches_generator_products():
    assert evaluate_word(4, (1, 3, 2)) == (2, 4, 1, 3)
    assert evaluate_word(4, (2, 1, 3)) == (3, 1, 4, 2)
    assert evaluate_word(4, (2, 1, 3, 2)) == (3, 4, 1, 2)
    assert evaluate_word(6, (1, 3, 2, 5, 4)) == (2, 4, 1, 6, 3, 5)
    with pytest.raises(ValueError):
        evaluate_word(4, (4,))


def test_reduced_word_round_trip_and_determinism():
    for n in (1, 2, 3, 4, 5):
        for w in all_perms(n):
            word = reduced_word(w)
            assert len(word) == length(w)
            assert evaluate_word(n, word) == w
            # deterministic choice: each letter is the smallest left descent
            q = w
            for letter in word:
                assert letter == left_descents(q)[0]
                q = compose(simple(n, letter), q)


def test_reduced_word_known_values():
    assert reduced_word((2, 4, 1, 3)) == (1, 3, 2)
    assert reduced_word((3, 1, 4, 2)) == (2, 1, 3)
    assert reduced_word((3, 4, 1, 2)) == (2, 1, 3, 2)
    assert reduced_word((2, 4, 1, 6, 3, 5)) == (1, 3, 2, 5, 4)
    assert reduced_word(identity(5)) == ()


def test_bruhat_leq_is_a_partial_order_with_bottom_and_top():
    perms4 = list(all_perms(4))
    w0 = longest_element(4)
    for u in perms4:
        assert bruhat_leq(identity(4), u)
        assert bruhat_leq(u, w0)
        assert bruhat_leq(u, u)
    for u in perms4:
        for w in perms4:
            if bruhat_leq(u, w) and bruhat_leq(w, u):
                assert u == w
            if bruhat_leq(u, w) and u != w:
                assert length(u) < length(w)


def test_bruhat_transitivity_sample():
    perms4 = list(all_perms(4))
    for u in perms4:
        for v in perms4:
            if not bruhat_leq(u, v):
                continue
            for w in perms4:
                if bruhat_leq(v, w):
                    assert bruhat_leq(u, w)


def test_subword_oracle_agrees_exhaustively_small():
    for n in (2, 3, 4):
        for w in all_perms(n):
            below = lower_interval(w)
            for u in all_perms(n):
                assert bruhat_leq(u, w) == (u in below)


def test_bruhat_leq_matches_the_subword_oracle_on_all_of_s5():
    intervals = {w: lower_interval(w) for w in all_perms(5)}
    pairs = [(u, w) for u in intervals for w in intervals]
    assert len(pairs) == 14400
    assert all(bruhat_leq(u, w) == (u in intervals[w]) for u, w in pairs)


def sorted_prefix_leq(u, w):
    """Prefix dominance: ``u <= w`` iff each sorted prefix of ``u`` is
    entrywise at most the sorted prefix of ``w`` of the same length."""
    su, sw = [], []
    for a, b in zip(u, w):
        insort(su, a)
        insort(sw, b)
        if any(x > y for x, y in zip(su, sw)):
            return False
    return True


def test_bruhat_leq_matches_sorted_prefix_dominance_at_larger_n():
    rng = random.Random(20261018)
    seen = {True: 0, False: 0}
    for n in range(9, 13):
        for _ in range(300):
            w = tuple(rng.sample(range(1, n + 1), n))
            u = list(w)
            for _ in range(rng.randint(0, 4)):  # a few swaps keep many pairs comparable
                i, j = sorted(rng.sample(range(n), 2))
                u[i], u[j] = u[j], u[i]
            u = tuple(u) if rng.random() < 0.7 else tuple(rng.sample(range(1, n + 1), n))
            answer = bruhat_leq(u, w)
            assert answer == sorted_prefix_leq(u, w)
            seen[answer] += 1
    assert min(seen.values()) > 100
    with pytest.raises(ValueError):
        bruhat_leq((1, 2, 3), (1, 2))


def test_lower_interval_is_the_down_set():
    for n in (4, 5):
        for w in all_perms(n):
            interval = lower_interval(w)
            assert interval == frozenset(
                u for u in all_perms(n) if bruhat_leq(u, w)
            ), w


def test_lower_interval_cap():
    with pytest.raises(CapExceeded):
        lower_interval(longest_element(7))  # length 21 exceeds the cap of 20
    assert len(lower_interval(longest_element(7), word_cap=21)) == 5040


#: Each sequence of four distinct values in ``1..8`` -> the pattern it forms.
STANDARD = {
    vals: tuple(sorted(vals).index(v) + 1 for v in vals)
    for vals in itertools.permutations(range(1, 9), 4)
}


def first_embeddings_by_scan(w):
    """Oracle, the scan ``pattern_positions`` ran before it backtracked:
    every four positions in lexicographic order, each pattern of length
    four keeping the first positions whose values form it."""
    first = {}
    positions = itertools.combinations(range(1, len(w) + 1), 4)
    for combo, vals in zip(positions, itertools.combinations(w, 4)):
        first.setdefault(STANDARD[vals], combo)
    return first


def test_pattern_search_matches_the_scan_on_s_n_up_to_8():
    patterns = ((3, 1, 4, 2), (4, 2, 3, 1), (3, 4, 1, 2))
    for n in range(9):
        for w in all_perms(n):
            first = first_embeddings_by_scan(w)
            for pattern in patterns:
                assert pattern_positions(w, pattern) == first.get(pattern), (w, pattern)


def test_pattern_search_edge_cases():
    assert pattern_positions((2, 1, 3), ()) == ()
    assert pattern_positions((1, 2), (2, 1, 3)) is None
    assert pattern_positions((3, 1, 2), (1,)) == (1,)
    w = tuple(range(1, 65))
    for pattern in ((3, 1, 4, 2), (4, 2, 3, 1), (3, 4, 1, 2)):
        assert pattern_positions(w, pattern) is None
    assert pattern_positions(w, (1, 2, 3)) == (1, 2, 3)


def test_pattern_positions():
    assert pattern_positions((3, 1, 4, 2), (3, 1, 4, 2)) == (1, 2, 3, 4)
    assert pattern_positions((4, 2, 3, 1), (4, 2, 3, 1)) == (1, 2, 3, 4)
    # embedded occurrence, first witness in lexicographic position order
    assert pattern_positions((5, 3, 1, 4, 2), (3, 1, 4, 2)) == (2, 3, 4, 5)
    assert pattern_positions((4, 5, 1, 2, 3, 6), (3, 4, 1, 2)) == (1, 2, 3, 4)
    assert contains_pattern((2, 1, 4, 3), (3, 4, 1, 2)) is False
    assert contains_pattern((2, 1, 4, 3), (4, 2, 3, 1)) is False
    # decreasing words avoid both singular patterns
    assert contains_pattern(longest_element(6), (4, 2, 3, 1)) is False
    assert contains_pattern(longest_element(6), (3, 4, 1, 2)) is False
    # a pattern longer than the word is never contained
    assert contains_pattern((2, 1), (3, 1, 4, 2)) is False


def test_serialisation_round_trips():
    assert format_perm((2, 4, 1, 3)) == "2,4,1,3"
    assert parse_perm("2,4,1,3") == (2, 4, 1, 3)
    assert parse_perm("id", 3) == (1, 2, 3)
    assert format_word((1, 3, 2)) == "s1.s3.s2"
    assert parse_word("s1.s3.s2") == (1, 3, 2)
    assert parse_word("1.3.2") == (1, 3, 2)
    assert parse_word("id") == ()
    assert format_word(()) == "id"
    with pytest.raises(ValueError):
        parse_perm("id")
    with pytest.raises(ValueError):
        parse_perm("2,4,1,3", 5)
    with pytest.raises(ValueError):
        parse_word("s0")
    with pytest.raises(ValueError):
        parse_perm("1,1,2")
