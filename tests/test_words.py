"""Lyndon-word combinatorics and the orders on words and super words."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbw.words import (
    c_set,
    format_word,
    is_lyndon,
    is_shirshov_closed,
    longest_lyndon_proper_ending_split,
    lyndon_up_to,
    parse_word,
    prec_cmp,
    shirshov_closure,
    shirshov_decompose,
    xlen,
)


def all_words(theta, n):
    for k in range(1, n + 1):
        yield from itertools.product(range(1, theta + 1), repeat=k)


def brute_min_ending_split(u):
    """Oracle: scan every proper ending and split at the smallest."""
    endings = sorted(range(1, len(u)), key=lambda i: u[i:])
    i = endings[0]
    return u[:i], u[i:]


def necklace_count(theta, n):
    """Moebius-sum oracle for the number of Lyndon words of length n."""
    def mobius(k):
        out, d = 1, 2
        while d * d <= k:
            if k % d == 0:
                k //= d
                if k % d == 0:
                    return 0
                out = -out
            d += 1
        if k > 1:
            out = -out
        return out

    total = sum(mobius(d) * theta ** (n // d) for d in range(1, n + 1) if n % d == 0)
    return total // n


def test_is_lyndon_examples():
    assert is_lyndon((1,))
    assert not is_lyndon((1, 1))
    assert not is_lyndon(())
    assert is_lyndon((1, 1, 2, 1, 2))
    assert is_lyndon((1, 2, 2))


def test_lyndon_enumeration_matches_filter():
    for theta, n in [(2, 6), (3, 4)]:
        by_filter = sorted(w for w in all_words(theta, n) if is_lyndon(w))
        assert lyndon_up_to(theta, n) == by_filter


def test_lyndon_counts_match_necklace_oracle():
    words = lyndon_up_to(2, 8)
    counts = [sum(1 for w in words if len(w) == n) for n in range(1, 9)]
    assert counts == [2, 1, 2, 3, 6, 9, 18, 30]
    assert counts == [necklace_count(2, n) for n in range(1, 9)]


def test_lyndon_up_to_small():
    assert lyndon_up_to(2, 2) == [(1,), (1, 2), (2,)]
    assert lyndon_up_to(1, 3) == [(1,)]
    assert len([w for w in lyndon_up_to(2, 4)]) == 8
    with pytest.raises(ValueError):
        lyndon_up_to(0, 3)


def test_shirshov_decompose_examples():
    assert shirshov_decompose((1, 2)) == ((1,), (2,))
    assert shirshov_decompose((1, 1, 2, 1, 2)) == ((1, 1, 2), (1, 2))
    assert shirshov_decompose((1, 1, 2)) == ((1,), (1, 2))  # not ((1,1),(2,))
    with pytest.raises(ValueError):
        shirshov_decompose((1,))


def test_shirshov_decompose_matches_brute_force():
    for w in all_words(2, 8):
        if len(w) >= 2:
            assert shirshov_decompose(w) == brute_min_ending_split(w)


def slice_min_ending_split(u):
    """Reference: the least proper ending found by comparing slices, each
    against the least so far (quadratic in the length)."""
    best = 1
    for i in range(2, len(u)):
        if u[i:] < u[best:]:
            best = i
    return u[:best], u[best:]


def test_shirshov_decompose_matches_slice_comparison_on_every_short_word():
    # all 29,520 words over {1, 2, 3} of length 2 to 9
    n = 0
    for length in range(2, 10):
        for w in itertools.product((1, 2, 3), repeat=length):
            assert shirshov_decompose(w) == slice_min_ending_split(w), w
            n += 1
    assert n == 29_520


@pytest.mark.parametrize(
    "u,cut",
    [
        ((1,) + (1, 2) * 50_000, 99_999),   # u[1:] = (12)^50000: the last 12
        ((1,) * 100_000, 99_999),            # the one-letter ending
        ((2,) + (1,) * 99_999, 99_999),      # a descent, then ones
        ((1,) * 50_000 + (2,) * 50_000, 1),  # u is Lyndon and so is u[1:]
    ],
)
def test_shirshov_decompose_is_linear_on_long_words(u, cut):
    # comparing slices took 1.4 s at 20,000 letters
    t0 = time.perf_counter()
    assert shirshov_decompose(u) == (u[:cut], u[cut:])
    assert time.perf_counter() - t0 < 1.0


def test_two_characterizations_agree_on_lyndon_words():
    for theta, n in [(2, 8), (3, 6)]:
        for w in lyndon_up_to(theta, n):
            if len(w) >= 2:
                assert shirshov_decompose(w) == longest_lyndon_proper_ending_split(w)


def test_shirshov_factors_of_lyndon_words():
    for theta, n in [(2, 8), (3, 6)]:
        for u in lyndon_up_to(theta, n):
            if len(u) >= 2:
                v, w = shirshov_decompose(u)
                assert is_lyndon(v) and is_lyndon(w)
                assert v < w
                assert u < w


def test_shirshov_closed_examples():
    assert not is_shirshov_closed([(1,), (1, 1, 2), (2,)], 2)
    assert is_shirshov_closed([(1,), (1, 2), (1, 1, 2), (2,)], 2)
    with pytest.raises(ValueError):
        is_shirshov_closed([(1, 1)], 2)


def test_shirshov_closure():
    got = shirshov_closure([(1, 1, 2)], 2)
    assert got == ((1,), (1, 1, 2), (1, 2), (2,))
    assert is_shirshov_closed(got, 2)
    assert shirshov_closure(got, 2) == got  # idempotent
    rng = random.Random(5)
    pool = lyndon_up_to(2, 6)
    for _ in range(25):
        members = rng.sample(pool, rng.randint(0, 5))
        closed = shirshov_closure(members, 2)
        assert is_shirshov_closed(closed, 2)
        assert shirshov_closure(closed, 2) == closed


def test_c_set_examples():
    got = c_set([(1,), (1, 1, 2), (1, 2), (2,)])
    assert got == ((1, 1, 1, 2), (1, 1, 2, 1, 2), (1, 2, 2))
    assert c_set([(1,), (2,)]) == ((1, 2),)
    assert c_set([(1,)]) == ()
    assert all(is_lyndon(w) for w in got)


def test_prec_examples():
    assert prec_cmp(((1,),), ((1, 2),)) < 0  # shorter
    assert prec_cmp(((2,), (1,)), ((1,), (2,))) < 0  # equal length, lex-bigger
    U = ((1, 2), (1,))
    assert prec_cmp(U, U) == 0


def test_prec_is_total_and_has_minima():
    rng = random.Random(23)
    letters = [(1,), (2,), (1, 2), (1, 1, 2)]

    def rnd():
        return tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))

    words = [rnd() for _ in range(150)]
    for u, v, w in zip(words, words[1:], words[2:]):
        assert (prec_cmp(u, v) == 0) == (u == v)
        assert prec_cmp(u, v) == -prec_cmp(v, u)
        if prec_cmp(u, v) <= 0 and prec_cmp(v, w) <= 0:
            assert prec_cmp(u, w) <= 0
    for _ in range(20):
        subset = [rnd() for _ in range(rng.randint(1, 12))]
        m = subset[0]
        for x in subset[1:]:
            if prec_cmp(x, m) < 0:
                m = x
        assert all(prec_cmp(m, x) <= 0 for x in subset)


def test_word_literals():
    assert parse_word("112") == (1, 1, 2)
    assert parse_word("1,10,2") == (1, 10, 2)
    assert format_word((1, 1, 2)) == "112"
    assert format_word((1, 10, 2)) == "1,10,2"
    assert xlen(((1, 2), (1,))) == 3
    with pytest.raises(ValueError):
        parse_word("")
    with pytest.raises(ValueError):
        parse_word("1a2")
    # a single letter above 9 carries a trailing comma; without it, 10 is
    # the two letters 1 and 0
    assert format_word((10,)) == "10,"
    assert parse_word("10,") == (10,)
    with pytest.raises(ValueError, match="letters must be >= 1"):
        parse_word("10")


@pytest.mark.parametrize("text", ["1,,2", "1,x", "\u00b2", "1\u00b2", "1_0,2", "+1,2", "1,-2", ",", "1,2,,", "1, 2", "\uff11,2"])
def test_word_literal_indices_are_ascii_digit_runs(text):
    # int() would read "1_0" as 10, "+1" as 1 and " 2" as 2, and fail on the
    # empty part of "1,,2" with its own message
    with pytest.raises(ValueError) as e:
        parse_word(text)
    assert str(e.value) == f"bad word literal: {text!r}"


def test_word_literal_comma_forms():
    assert parse_word("1,10,2") == (1, 10, 2)
    assert parse_word("10,") == (10,)
    assert parse_word("3,") == (3,)
    assert parse_word(" 12,1 ") == (12, 1)
    assert parse_word("007,") == (7,)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12).flatmap(lambda theta: st.lists(st.integers(1, theta), min_size=1, max_size=6)))
def test_word_literals_round_trip(letters):
    w = tuple(letters)
    text = format_word(w)
    assert parse_word(text) == w
    # the digit form, unchanged, while every letter is at most 9
    assert (text == "".join(map(str, w))) == (max(w) <= 9)
