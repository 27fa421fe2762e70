"""Brute-force ground truth by direct integer arithmetic.

Nothing here reads an automaton. A digit word w of length n stands for
x = sum w[i] * 3^i, and w is admissible for multiplier M when every one of
the first n base-3 digits of M*x is 0 or 1. For any M, digit j of M*x is
final once digits 0..j of x are fixed, as it depends only on x mod 3^(j+1),
so prefixes can be checked one new digit at a time and dead branches pruned.
The low n digits of M*x depend only on M mod 3^n, so the block counts
reduce every multiplier mod 3^n before they start. That is the entire
theory this module relies on; the dimension lower bound from first-return
words (return_word_bound) adds only that a word whose products all fit in
its own length leaves no carry behind.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import RefusalError
from .ternary import Multiplier, normalize

DEFAULT_LIMIT = 22
RETURN_LIMIT = 36
PROBE_LIMIT = 4096  # most carry states brute_count_extendable probes past
EXCEEDS_MAX_DEN = 1024
SLICE = 1 << 16  # most prefixes _count extends at once
# Levels of _count narrower than this are Python lists, wider ones numpy
# arrays: numpy's fixed cost per call loses on a few dozen prefixes. The
# value is the measured crossover, see README "Block counts".
ARRAY_LEVEL_WIDTH = 32
INT64_MAX = 2 ** 63 - 1


def _values(ms) -> tuple[int, ...]:
    values = []
    for m in ms:
        m = m if isinstance(m, Multiplier) else normalize(int(m))
        values.append(m.value)
    if not values:
        raise ValueError("need at least one multiplier")
    return tuple(values)


def admissible_word(ms, word) -> bool:
    """Check the digit criterion outright: no pruning, no state, no reuse."""
    values = _values(ms)
    for d in word:
        if d not in (0, 1):
            raise ValueError(f"words use digits 0 and 1 only, got {d}")
    x = sum(d * 3 ** i for i, d in enumerate(word))
    n = len(word)
    for M in values:
        y = M * x
        for j in range(n):
            if (y // 3 ** j) % 3 > 1:
                return False
    return True


def checked_blocks(ms, n: int) -> tuple[int, ...]:
    """The multipliers' values, once n is known to be a length the block counts take."""
    if n < 0:
        raise ValueError(f"word length must be nonnegative, got {n}")
    if n > DEFAULT_LIMIT:
        raise RefusalError(f"brute-force count limited to n <= {DEFAULT_LIMIT}, got {n}")
    return _values(ms)


def _count(values, n: int, accept=None) -> list[int]:
    """Admissible words in {0,1}^k for every k = 0..n, extended level by level.

    The admissible prefixes of one length are held as their values x.
    Extending by digit b adds b * 3^pos; the prefixes whose new product
    digit is 0 or 1 for every multiplier survive, and their number is the
    count of their length. The levels narrower than ARRAY_LEVEL_WIDTH
    come first, one list of Python ints a length, extended in plain
    integer arithmetic, since numpy's per-call cost outweighs its speed on
    a few dozen prefixes; the first level that reaches the width becomes an
    array, and its descendants stay arrays, walked depth-first on a stack.
    Arrays longer than SLICE are split before they are extended, so memory
    stays bounded for every n, and the slices of a level add up to its
    count. Multipliers are reduced mod 3^n first, which leaves every digit
    below n as it is, so each shorter length is counted as its own call
    would count it; int64 holds every product when max(M mod 3^n) * 3^n
    fits, and Python-int object arrays keep the rest exact. The width is
    the one measured in README "Block counts". With accept given, only the
    words x of length n (read to depth n, p3 = 3^n) for which accept(x, p3)
    holds are counted at length n.
    """
    mods = [M % 3 ** n for M in values]
    dtype = np.int64 if max(mods) * 3 ** n <= INT64_MAX else object
    counts = [1] + [0] * n
    x, pos, p3 = [0], 0, 1
    while pos < n and len(x) < ARRAY_LEVEL_WIDTH:  # one list a length
        x = x + [w + p3 for w in x]
        for M in mods:
            x = [w for w in x if (M * w // p3) % 3 <= 1]
        pos, p3 = pos + 1, p3 * 3
        counts[pos] = len(x)
    stack = [(pos, x if pos == n else np.array(x, dtype=dtype), p3)]
    while stack:
        pos, x, p3 = stack.pop()
        if pos == n:
            if accept is not None:
                counts[n] -= sum(1 for w in (x if isinstance(x, list) else x.tolist())
                                 if not accept(w, p3))
            continue
        if len(x) > SLICE:
            stack.extend((pos, x[i:i + SLICE], p3) for i in range(0, len(x), SLICE))
            continue
        x = np.concatenate((x, x + p3))
        for M in mods:
            # digit pos of M*x is final; lower digits were already accepted
            x = x[(M * x // p3) % 3 <= 1]
        counts[pos + 1] += len(x)
        stack.append((pos + 1, x, p3 * 3))
    return counts


def brute_count(ms, n: int) -> int:
    """Count admissible words in {0,1}^n by pruned depth-first enumeration.

    n above DEFAULT_LIMIT is refused.
    """
    return _count(checked_blocks(ms, n), n)[n]


def brute_counts(ms, n: int) -> tuple[int, ...]:
    """brute_count(ms, k) for k = 1..n, from the one enumeration to length n."""
    return tuple(_count(checked_blocks(ms, n), n)[1:])


def brute_count_extendable(ms, n: int) -> int:
    """Count admissible length-n words with a guaranteed infinite continuation.

    Whether a word continues depends only on its pending carries, the
    vector of M*x div 3^n: every later digit of M*x is a digit of that
    carry plus M times the continuation. V = prod(1 + M div 2) bounds the
    number of distinct carry vectors, so a continuation of V digits must
    revisit one and can therefore loop forever. DEFAULT_LIMIT caps n;
    each distinct carry vector is probed once per call, depth-first to
    depth V, and a probe never expands the same (carries, depth) twice, so
    it costs at most V * (V + 1) steps. A probe also stops at a carry
    vector an earlier probe settled. V above PROBE_LIMIT is refused before
    anything is enumerated.
    """
    values = checked_blocks(ms, n)
    V = math.prod(1 + M // 2 for M in values)
    if V > PROBE_LIMIT:
        raise RefusalError(
            f"extension probe limited to {PROBE_LIMIT} carry states, got {V}")
    known: dict[tuple[int, ...], bool] = {}  # carries -> has an infinite continuation

    def continues(carries: tuple[int, ...]) -> bool:
        stack = [(carries, 0)]
        seen = {stack[0]}
        while stack:
            cs, depth = stack.pop()
            if depth == V:
                return True
            if depth and cs in known:
                # an infinite continuation passes only through carries that have one
                if known[cs]:
                    return True
                continue
            for b in (1, 0):  # digit 0 is tried first
                ts = [c + M * b for c, M in zip(cs, values)]
                if all(t % 3 <= 1 for t in ts):
                    nxt = (tuple(t // 3 for t in ts), depth + 1)
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        return False

    def extendable(x: int, p3: int) -> bool:
        carries = tuple(M * x // p3 for M in values)
        if carries not in known:
            known[carries] = continues(carries)
        return known[carries]

    return _count(values, n, extendable)[n]


def first_return_counts(ms, max_len: int) -> tuple[int, ...]:
    """F_1..F_max_len: how many first-return words there are of each length.

    A 0/1 word w of length L returns when every M*w has 0/1 digits in its
    low L places and M*w < 3^L, i.e. the pending carry is zero for every
    multiplier; it is a first return when no proper prefix returns.
    RETURN_LIMIT caps max_len: the enumeration visits every admissible
    prefix that has not yet returned.
    """
    if max_len < 1:
        raise ValueError(f"word length must be positive, got {max_len}")
    if max_len > RETURN_LIMIT:
        raise RefusalError(
            f"first-return enumeration limited to length <= {RETURN_LIMIT}, got {max_len}")
    values = _values(ms)
    counts = [0] * max_len
    stack = [(0, 0, 1)]
    while stack:
        pos, x, p3 = stack.pop()
        for b in (0, 1):
            x2 = x + b * p3
            if not all((M * x2 // p3) % 3 <= 1 for M in values):
                continue
            if all(M * x2 < 3 * p3 for M in values):
                counts[pos] += 1
            elif pos + 1 < max_len:
                stack.append((pos + 1, x2, p3 * 3))
    return tuple(counts)


@dataclass(frozen=True)
class ReturnBound:
    """dim C(1, M1, ..., Mn) >= log_3 r, from first-return words alone.

    Any concatenation of first-return words is admissible, since no carry
    crosses a block boundary, and they form a prefix code. The words of
    length <= max_len therefore generate a 3-adic IFS with disjoint
    cylinders inside the set, whose dimension s solves
    sum_L F_L 3^(-sL) = 1; any r with that sum >= 1 has log_3 r <= s.
    Here r = r_num / r_den, and every comparison is made in integers.
    """

    multipliers: tuple[int, ...]
    max_len: int
    counts: tuple[int, ...]  # counts[L - 1] = F_L
    r_num: int
    r_den: int

    def covers(self, num: int, den: int) -> bool:
        """sum_L F_L (den/num)^L >= 1, i.e. the bound holds at r = num/den."""
        n = self.max_len
        return sum(f * den ** L * num ** (n - L)
                   for L, f in enumerate(self.counts, 1)) >= num ** n

    @property
    def r(self) -> float:
        return self.r_num / self.r_den

    @property
    def dim(self) -> float:
        return math.log(self.r, 3)

    def exceeds(self, t: float) -> bool:
        """Prove log_3 r > t in integers: some j/k > t with r^k >= 3^j.

        False means no such j/k with k <= EXCEEDS_MAX_DEN was found, not
        that log_3 r <= t; one is always found when log_3 r - t exceeds
        1/EXCEEDS_MAX_DEN.
        """
        tn, td = t.as_integer_ratio()
        pk, qk = 1, 1
        for k in range(1, EXCEEDS_MAX_DEN + 1):
            pk, qk = pk * self.r_num, qk * self.r_den
            j = tn * k // td + 1
            if pk >= 3 ** j * qk:
                return True
        return False


def return_word_bound(ms, max_len: int) -> ReturnBound:
    """The bound at the largest r = n / 10^6 in [1, 2] that it covers.

    The sum falls as r grows, is >= 1 at r = 1 because the word 0 always
    returns, and is <= 1 at r = 2 by Kraft's inequality for a binary
    prefix code, so bisection over n finds the crossing.
    """
    d = 10**6
    counts = first_return_counts(ms, max_len)
    b = ReturnBound(_values(ms), max_len, counts, d, d)
    lo, hi = d, 2 * d
    if b.covers(hi, d):
        lo = hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if b.covers(mid, d):
            lo = mid
        else:
            hi = mid
    return ReturnBound(b.multipliers, max_len, counts, lo, d)
