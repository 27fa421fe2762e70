import itertools
import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cantor3 import (
    RefusalError,
    admissible_word,
    brute_count,
    brute_count_extendable,
    build_multi,
    build_single,
    count_paths,
    hausdorff_dim,
    normalize,
)
import cantor3.oracle as oracle
from cantor3.families import PHI
from cantor3.oracle import (
    INT64_MAX,
    PROBE_LIMIT,
    RETURN_LIMIT,
    SLICE,
    first_return_counts,
    return_word_bound,
)
from cantor3.spectral import log3


def test_admissible_word_examples():
    assert admissible_word([7], (0,))
    assert admissible_word([7], (1,))
    assert not admissible_word([7], (1, 0))  # 7*1 = (21)_3, digit 1 is 2
    assert admissible_word([7], (1, 1))
    assert admissible_word([7, 19], (0, 0, 0))
    assert admissible_word([1], (1, 1, 1))


def test_admissible_word_rejects_bad_digits():
    with pytest.raises(ValueError):
        admissible_word([7], (0, 2))
    # 5 * 3 = (120)_3: a residue-2 multiplier is checked like any other
    assert not admissible_word([5], (0, 1))
    assert admissible_word([5], (0, 0))


def test_brute_count_small_values():
    assert brute_count([7], 3) == 5
    assert [brute_count([7], n) for n in range(1, 6)] == [2, 3, 5, 8, 13]
    assert brute_count([1], 10) == 1024
    assert brute_count([7, 19], 1) == 2


def test_brute_count_equals_filtered_enumeration():
    for ms in ([7], [19], [7, 19]):
        for n in range(1, 9):
            direct = sum(
                1
                for x in range(2**n)
                if admissible_word(ms, tuple((x >> i) & 1 for i in range(n)))
            )
            assert brute_count(ms, n) == direct


def test_prefix_closure():
    ms = [7, 19]
    for n in range(2, 9):
        for x in range(2**n):
            word = tuple((x >> i) & 1 for i in range(n))
            if admissible_word(ms, word):
                assert admissible_word(ms, word[:-1])


def test_count_growth_is_at_most_doubling():
    for ms in ([7], [13], [4, 16]):
        prev = brute_count(ms, 1)
        for n in range(2, 10):
            cur = brute_count(ms, n)
            assert cur <= 2 * prev
            prev = cur


def test_extendable_counts_drop_dead_ends():
    # the (4,16) intersection keeps only the zero word
    for n in range(1, 9):
        assert brute_count_extendable([4, 16], n) == 1
        assert brute_count([4, 16], n) >= 1
    # on an essential single graph the two counts agree
    for n in range(1, 10):
        assert brute_count_extendable([7], n) == brute_count([7], n)


def test_extendable_matches_trimmed_automaton():
    for ms in ([4, 16], [7, 19], [4, 256]):
        g = build_multi(ms)
        for n in range(1, 9):
            assert brute_count_extendable(ms, n) == count_paths(g, n)


def test_refusals_and_input_checks():
    with pytest.raises(RefusalError):
        brute_count([7], 23)
    with pytest.raises(RefusalError):
        brute_count_extendable([7], 23)
    assert brute_count([5], 3) == 1
    with pytest.raises(ValueError):
        brute_count([0], 3)


def test_extension_probe_cap():
    # V = prod(1 + M div 2): 8191 sits on the cap, 8194 just past it
    assert brute_count_extendable([8191], 2) == count_paths(build_multi([8191]), 2)
    with pytest.raises(RefusalError, match=f"limited to {PROBE_LIMIT} carry states, got 4098"):
        brute_count_extendable([8194], 1)


def test_limit_override(monkeypatch):
    # n = 24 extends one full slice of 2^16 prefixes and one partial slice
    monkeypatch.setattr(oracle, "DEFAULT_LIMIT", 25)
    assert brute_count([7], 24) == 121393
    monkeypatch.setattr(oracle, "DEFAULT_LIMIT", 23)
    with pytest.raises(RefusalError, match="n <= 23, got 24"):
        brute_count([7], 24)


def _count_reference(ms, n):
    """The per-word recursion that _count replaced, kept as the reference."""
    values = [normalize(m).value for m in ms]

    def rec(pos, x, p3):
        if pos == n:
            return 1
        return sum(rec(pos + 1, x2, p3 * 3) for x2 in (x, x + p3)
                   if all((M * x2 // p3) % 3 <= 1 for M in values))

    return rec(0, 0, 1)


def _extendable_reference(ms, n):
    """The per-word probe that the carry-memoized one replaced, kept as the reference.

    Every admissible length-n word is walked depth-first, digit by digit,
    to n + prod(1 + M div 2) digits.
    """
    values = [normalize(m).value for m in ms]
    target = n + math.prod(1 + M // 2 for M in values)

    def ok(x, p3):
        return all((M * x // p3) % 3 <= 1 for M in values)

    def probe(x, p3):
        stack = [(n, x, p3)]
        while stack:
            pos, x, p3 = stack.pop()
            if pos == target:
                return True
            stack.extend((pos + 1, x2, p3 * 3) for x2 in (x + p3, x) if ok(x2, p3))
        return False

    def rec(pos, x, p3):
        if pos == n:
            return int(probe(x, p3))
        return sum(rec(pos + 1, x2, p3 * 3) for x2 in (x, x + p3) if ok(x2, p3))

    return rec(0, 0, 1)


def _filtered(ms, n):
    return sum(1 for w in itertools.product((0, 1), repeat=n) if admissible_word(ms, w))


def _fits_int64(ms, n):
    return max(normalize(m).value % 3**n for m in ms) * 3**n <= INT64_MAX


def test_empty_word_is_counted_once():
    assert brute_count([7], 0) == 1
    assert brute_count([4, 16], 0) == 1
    assert brute_count_extendable([4, 16], 0) == 1


def test_multipliers_past_3_to_the_n():
    # only M mod 3^n reaches the low n digits of M*x
    for ms in ([3**40 + 1], [2**40], [7, 3**40 + 1]):
        assert brute_count(ms, 12) == _filtered(ms, 12)


def test_object_path_matches_reference():
    for ms, n in (([2**40], 22), ([7, 2**40], 21)):
        assert not _fits_int64(ms, n)
        assert brute_count(ms, n) == _count_reference(ms, n)


def test_both_sides_of_the_int64_bound():
    n = 20
    below = INT64_MAX // 3**n
    below -= (below - 1) % 3  # residue 1, so normalize keeps it
    assert _fits_int64([below], n) and not _fits_int64([below + 3], n)
    for M in (below, below + 3):
        assert M < 3**n
        assert brute_count([M], n) == _count_reference([M], n)
        assert brute_count([7, M], n) == _count_reference([7, M], n)


def test_frontier_larger_than_a_slice():
    # at n = 18 the 2^17 prefixes of length 17 are split before they are extended
    assert 2**17 > SLICE
    assert brute_count([1], 17) == 2**17
    assert brute_count([1], 18) == 2**18


def test_first_return_counts_by_hand():
    # 256 = (100111)_3 has 0/1 digits in six places: x = 1 returns at length 6
    assert first_return_counts([256], 20) == (
        1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1, 2, 3, 4, 4, 5, 7)
    assert first_return_counts([1], 4) == (2, 0, 0, 0)
    assert first_return_counts([4, 256], 12) == (1, 0, 0, 0, 0, 1) + (0,) * 6


def test_first_return_words_concatenate():
    # every concatenation of two first-return words is itself admissible
    ms = [112]

    def returns(w):
        x = sum(d * 3**i for i, d in enumerate(w))
        return admissible_word(ms, w) and 112 * x < 3 ** len(w)

    words = []
    for n in range(1, 13):
        for x in range(2**n):
            w = tuple((x >> i) & 1 for i in range(n))
            if returns(w) and not any(returns(w[:i]) for i in range(1, n)):
                words.append(w)
    assert len(words) == sum(first_return_counts(ms, 12)) > 2
    assert all(admissible_word(ms, u + v) for u in words for v in words)


def test_return_bound_never_exceeds_dimension():
    for spec in ([7], [19], [43], [64], [112], [256], [7, 19], [4, 256]):
        r = hausdorff_dim(build_multi(spec))
        for n in (6, 12, 24):
            b = return_word_bound(spec, n)
            assert b.covers(b.r_num, b.r_den)
            assert b.dim <= r.dim + r.error_bound, (spec, n)


def test_return_bound_is_tight_on_7():
    b = return_word_bound([7], 24)
    assert 0 <= log3(PHI) - b.dim <= 1e-5


def test_return_bound_refutes_published_2_8_entry():
    b = return_word_bound([256], 20)
    assert b.covers(1372, 1000) and not b.covers(b.r_num + 1, b.r_den)
    assert b.exceeds(0.287416 + 1e-5)
    assert not b.exceeds(b.dim + 1e-6)


def test_return_bound_refusals():
    with pytest.raises(RefusalError):
        first_return_counts([7], RETURN_LIMIT + 1)
    with pytest.raises(RefusalError):
        return_word_bound([256], RETURN_LIMIT + 1)
    assert return_word_bound([5], 4).r == 1  # only the word 0 returns
    with pytest.raises(ValueError):
        first_return_counts([7], 0)


def test_return_bound_at_the_top_of_the_search():
    # the multiplier 1 admits every binary word: the bound covers r = 2 and takes it
    b = return_word_bound([1], 10)
    assert (b.r_num, b.r_den) == (2_000_000, 1_000_000)
    assert b.dim == hausdorff_dim(build_single(1)).dim


def test_block_counts_reject_bad_arguments():
    with pytest.raises(ValueError, match="need at least one multiplier"):
        brute_count([], 3)
    with pytest.raises(ValueError, match="word length must be nonnegative"):
        oracle.checked_blocks([7], -1)


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=8))
def test_oracle_matches_automaton_for_random_singles(m, n):
    assume(normalize(m).residue == 1)
    g = build_multi([m])
    assert brute_count([m], n) == count_paths(g, n)


@pytest.mark.parametrize("m", [2, 5, 11, 2**9, 3**7 + 2, 2 * 3**5 + 2])
def test_residue_two_admits_only_the_zero_word(m):
    # at the lowest digit 1 of x, M*x has the digit M mod 3 = 2
    assert normalize(m).residue == 2
    for n in range(1, 7):
        assert brute_count_extendable([m], n) == count_paths(build_multi([m]), n) == 1


def _residue_1(bound):
    return st.integers(min_value=1, max_value=bound - 1).filter(
        lambda m: normalize(m).residue == 1)


@settings(max_examples=60, deadline=None)
@given(st.lists(_residue_1(3**8), min_size=1, max_size=3), st.integers(min_value=0, max_value=9))
def test_brute_count_matches_filter_for_random_tuples(ms, n):
    assert brute_count(ms, n) == _filtered(ms, n)


# The reference probe walks every extendable word to depth n + prod(1 + M div 2),
# over 10^10 for three multipliers near 3^8, so each tuple size gets its own
# bound on the multipliers: products of at most 3 281, 1 681 and 2 744.
_SMALL_PROBE_TUPLES = st.sampled_from([(1, 3**8), (2, 3**4), (3, 3**3)]).flatmap(
    lambda kb: st.lists(_residue_1(kb[1]), min_size=kb[0], max_size=kb[0]))


@settings(max_examples=40, deadline=None)
@given(_SMALL_PROBE_TUPLES, st.integers(min_value=0, max_value=9))
def test_extendable_matches_automaton_for_random_tuples(ms, n):
    assert brute_count_extendable(ms, n) == count_paths(build_multi(ms), n)


@settings(max_examples=40, deadline=None)
@given(_SMALL_PROBE_TUPLES, st.integers(min_value=0, max_value=8))
@example([7, 55], 3)  # a probe passes a dead carry vector and must try the other digit
@example([4, 49], 5)
def test_extendable_matches_per_word_probe(ms, n):
    assert brute_count_extendable(ms, n) == _extendable_reference(ms, n)


def test_extendable_reuses_probes_across_words():
    # V = 366; the 15 625 extendable words at n = 18 share far fewer carry vectors
    assert [brute_count_extendable([730], n) for n in (16, 17, 18)] == [5625, 9375, 15625]
