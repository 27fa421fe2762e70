import sys

import pytest
from hypothesis import given, strategies as st

from cantor3 import (
    FamilyId,
    ParseError,
    RefusalError,
    family_value,
    from_ternary,
    normalize,
    parse_family,
    parse_multiplier,
    parse_multiplier_list,
    render_ternary,
    to_ternary,
)
from cantor3.ternary import parse_decimal


@given(st.integers(min_value=0, max_value=3**20))
def test_ternary_round_trip(n):
    assert from_ternary(to_ternary(n)) == n


def test_ternary_examples():
    assert to_ternary(7) == (1, 2)
    assert to_ternary(19) == (1, 0, 2)
    assert render_ternary(7) == "21"
    assert render_ternary(19) == "201"
    assert render_ternary(0) == "0"
    assert from_ternary((1, 0, 2)) == 19


def test_to_ternary_rejects_negative():
    with pytest.raises(ValueError):
        to_ternary(-1)


def test_normalize_strips_threes():
    m = normalize(63)  # 9 * 7
    assert m.value == 7
    assert m.normalized_from == 63
    assert m.residue == 1
    assert normalize(7).normalized_from == 7
    assert normalize(27).value == 1
    assert normalize(6).value == 2
    assert normalize(6).residue == 2


@given(st.integers(min_value=1, max_value=3**12), st.integers(min_value=0, max_value=6))
def test_normalize_invariant_under_powers_of_three(m, e):
    assert normalize(m * 3**e).value == normalize(m).value


def test_residue_is_first_nonzero_digit():
    for m in range(1, 100_000):
        digits = to_ternary(m)
        first = next(d for d in digits if d != 0)
        assert normalize(m).residue == first


def test_family_values():
    assert [family_value(FamilyId("L", k)) for k in (1, 2, 3, 4)] == [1, 4, 13, 40]
    assert [family_value(FamilyId("N", k)) for k in (1, 2, 3)] == [4, 10, 28]
    assert [family_value(FamilyId("P", k)) for k in (1, 2)] == [7, 19]
    for k in range(1, 11):
        for kind in "LNP":
            v = family_value(FamilyId(kind, k))
            assert v % 3 == 1
            assert normalize(v).value == v


def test_family_ternary_shapes():
    assert render_ternary(family_value(FamilyId("L", 4))) == "1111"
    assert render_ternary(family_value(FamilyId("N", 4))) == "10001"
    assert render_ternary(family_value(FamilyId("P", 4))) == "20001"


def test_family_id_validation():
    with pytest.raises(ValueError):
        FamilyId("L", 0)
    with pytest.raises(ValueError):
        FamilyId("Q", 3)
    assert str(FamilyId("L", 4)) == "L:4"


def test_parse_multiplier_forms():
    assert parse_multiplier("19").value == 19
    assert parse_multiplier("t:201").value == 19
    assert parse_multiplier("L:4").value == 40
    assert parse_multiplier("N:3").value == 28
    assert parse_multiplier(" 7 ").value == 7
    assert parse_multiplier("63").value == 7  # normalized on parse


def test_parse_multiplier_rejects():
    for bad in ("", "0", "t:", "t:013x", "x:3", "L:", "L:0", "L:abc", "-4", "3.5", "seven"):
        with pytest.raises(ParseError):
            parse_multiplier(bad)


@pytest.mark.parametrize("limit", [10, 4300])
def test_parse_refuses_multipliers_too_long_to_print(monkeypatch, limit):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit, raising=False)

    def parses(text):
        try:
            return parse_multiplier(text).normalized_from < 10**limit
        except RefusalError:
            return False

    # around the limit: refused exactly when the value has more than `limit` digits
    k = int(limit / 0.4771)
    for kind in "LNP":
        for j in range(k - 4, k + 5):
            assert parses(f"{kind}:{j}") == (family_value(FamilyId(kind, j)) < 10**limit)
    for j in range(k - 4, k + 5):  # 3^j as a ternary literal, leading zeros and all
        assert parses("t:00" + "1" + "0" * j) == (3**j < 10**limit)
    assert parses("1" * limit) and not parses("1" * (limit + 1))
    with pytest.raises(RefusalError):  # k too large for a float
        parse_family("L:" + "9" * 400)


def test_parse_decimal_refuses_long_numbers_before_reading_them(monkeypatch):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 10, raising=False)
    assert parse_decimal("9" * 10, "bad") == 10**10 - 1
    assert parse_decimal(" " + "0" * 20 + "9" * 10, "bad") == 10**10 - 1  # leading zeros aside
    with pytest.raises(RefusalError):
        parse_decimal("1" + "0" * 10, "bad")


def test_parse_takes_multipliers_below_the_default_limit(monkeypatch):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)  # the default
    assert parse_multiplier("L:9000").value == (3**9000 - 1) // 2  # 4 294 digits
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)  # no limit
    assert parse_multiplier("L:9100").value == (3**9100 - 1) // 2


def test_parse_family():
    assert parse_family(" N:3 ") == FamilyId("N", 3)
    assert parse_family("P:12") == FamilyId("P", 12)
    for bad in ("", "L", "L4", "L:", "L:0", "L:-1", "L:abc", "Q:3", "t:201", "LN:3"):
        with pytest.raises(ParseError):
            parse_family(bad)


def test_parse_multiplier_list():
    values = [m.value for m in parse_multiplier_list("7,19, L:2")]
    assert values == [7, 19, 4]
    with pytest.raises(ParseError, match="empty multiplier list"):
        parse_multiplier_list(" , ,")


@pytest.mark.parametrize("text", ["7,,19", "7,", ",7", "7, ,19", "7,19,"])
def test_parse_multiplier_list_refuses_empty_items(text):
    with pytest.raises(ParseError, match="empty item"):
        parse_multiplier_list(text)


@given(st.integers(min_value=1, max_value=3**15))
def test_multiplier_fields_consistent(n):
    m = normalize(n)
    assert m.value % 3 != 0
    assert m.residue == m.value % 3
    assert m.normalized_from == n
    q, r = divmod(n, m.value)
    assert r == 0 and q == 3 ** (len(to_ternary(q)) - 1)  # only factors of 3 are stripped
