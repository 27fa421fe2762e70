"""Exact base-3 arithmetic, multiplier normalization, and the integer families.

Digit words are least-significant first throughout: digits[i] is the
coefficient of 3**i. Display helpers reverse to the usual high-to-low
reading, so 19 renders as "201".
"""

import math
import sys
from dataclasses import dataclass

from .errors import ParseError, RefusalError

FAMILY_KINDS = ("L", "N", "P")


def to_ternary(n: int) -> tuple[int, ...]:
    """Base-3 digits of n, least significant first. Zero gives the empty word."""
    if n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n}")
    digits = []
    while n:
        n, d = divmod(n, 3)
        digits.append(d)
    return tuple(digits)


def from_ternary(digits) -> int:
    """Evaluate a least-significant-first digit word."""
    value = 0
    power = 1
    for i, d in enumerate(digits):
        if d not in (0, 1, 2):
            raise ValueError(f"digit {d!r} at position {i} is not a base-3 digit")
        value += d * power
        power *= 3
    return value


def render_ternary(n: int) -> str:
    """High-to-low digit string, as in 19 -> '201'. Zero renders as '0'."""
    if n == 0:
        return "0"
    return "".join(str(d) for d in reversed(to_ternary(n)))


@dataclass(frozen=True)
class Multiplier:
    """A positive integer with all factors of 3 stripped.

    Multiplying the defining set by 3 only shifts digit positions, so a
    multiplier and 3*it cut out the same set; every construction works on
    the reduced value. residue is value mod 3 and is never 0.
    """

    value: int
    residue: int
    normalized_from: int

    def __str__(self):
        return str(self.value)


def normalize(m: int) -> Multiplier:
    """Strip factors of 3 from a positive integer and record the residue."""
    if m < 1:
        raise ValueError(f"multiplier must be a positive integer, got {m}")
    original = m
    while m % 3 == 0:
        m //= 3
    return Multiplier(value=m, residue=m % 3, normalized_from=original)


@dataclass(frozen=True)
class FamilyId:
    """One member of the L, N, or P family of multipliers."""

    kind: str
    k: int

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"family kind must be one of {FAMILY_KINDS}, got {self.kind!r}")
        if self.k < 1:
            raise ValueError(f"family index must be >= 1, got {self.k}")

    def __str__(self):
        return f"{self.kind}:{self.k}"


def family_value(f: FamilyId) -> int:
    """L:k -> (3^k - 1)/2 = (1...1)_3, N:k -> 3^k + 1, P:k -> 2*3^k + 1."""
    if f.kind == "L":
        return (3 ** f.k - 1) // 2
    if f.kind == "N":
        return 3 ** f.k + 1
    return 2 * 3 ** f.k + 1


def parse_decimal(text: str, message: str) -> int:
    """text as a number in ASCII digits, blanks around it allowed, else ParseError(message):
    int() alone would also take a sign, underscores and non-ASCII digits. Refused when
    it has more digits, leading zeros aside, than Python prints."""
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(message)
    digits = digits.lstrip("0") or "0"
    _refuse_long(len(digits) - 1, "the number")
    return int(digits)


def _refuse_long(log10: float, what: str) -> None:
    """RefusalError when a value of 10**log10 or more has more decimal digits than
    sys.get_int_max_str_digits() allows (0, or before Python 3.10.7: no limit)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if 0 < limit <= log10:
        raise RefusalError(f"{what} has over {limit} decimal digits, more than Python prints")


def parse_family(text: str) -> FamilyId:
    """Parse a family member 'K:k', K one of L, N, P and k >= 1; refused when
    the member, about c * 3^k with c = 1/2, 1 or 2, is too long to print."""
    text = text.strip()
    kind, sep, index = text.partition(":")
    if kind not in FAMILY_KINDS or not sep:
        raise ParseError(f"expected a family like 'L:4', got {text!r}")
    k = parse_decimal(index, f"bad family index in {text!r}")
    if k < 1:
        raise ParseError(f"family index must be >= 1 in {text!r}")
    # min: a larger k passes any limit, and would overflow the float product
    _refuse_long(min(k, sys.maxsize) * math.log10(3) + math.log10({"L": .5, "N": 1, "P": 2}[kind]),
                 text)
    return FamilyId(kind, k)


def parse_multiplier(text: str) -> Multiplier:
    """Parse one multiplier: decimal '19', ternary 't:201', or family 'L:4';
    refused, before its value is computed, when it is too long to print."""
    text = text.strip()
    if not text:
        raise ParseError("empty multiplier")
    if text.startswith("t:"):
        body = text[2:]
        if not body or any(c not in "012" for c in body):
            raise ParseError(f"bad ternary literal {text!r}")
        _refuse_long((len(body.lstrip("0")) - 1) * math.log10(3), "the ternary literal")
        value = from_ternary(tuple(int(c) for c in reversed(body)))
        if value == 0:
            raise ParseError("multiplier 0 is not allowed")
        return normalize(value)
    if text[0] in FAMILY_KINDS and text[1:2] == ":":
        return normalize(family_value(parse_family(text)))
    value = parse_decimal(text, f"cannot parse multiplier {text!r}")
    if value == 0:
        raise ParseError("multiplier 0 is not allowed")
    return normalize(value)


def parse_multiplier_list(text: str) -> list[Multiplier]:
    """Comma-separated multipliers, no item empty. The implicit leading 1 is never written."""
    parts = text.split(",")
    if not all(map(str.strip, parts)):
        if not text.replace(",", "").strip():
            raise ParseError("empty multiplier list")
        raise ParseError(f"empty item in multiplier list {text!r}")
    return [parse_multiplier(p) for p in parts]
