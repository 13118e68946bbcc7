from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from talentflow.dates import Texts, format_years, month_text, parse_month


def test_parse_and_str_roundtrip():
    assert month_text(parse_month("2017-03")) == "2017-03"
    assert parse_month("2017-03") == 2017 * 12 + 2
    assert (parse_month("0000-01"), month_text(0)) == (0, "0000-01")


@pytest.mark.parametrize("bad", ["2017-13", "2017-00", "17-03", "2017/03", "2017-3", "x",
                                 "2017-03\n", "２０１７-03"])
def test_parse_rejects_malformed(bad):
    for _ in range(2):  # a failed parse is not cached
        with pytest.raises(ValueError):
            parse_month(bad)


def test_parse_interns_valid_months():
    first = parse_month("2016-07")
    assert first == 2016 * 12 + 6
    assert parse_month("2016-07") is first


def test_ordering_is_chronological():
    assert parse_month("2017-03") < parse_month("2017-04") < parse_month("2018-01")


def test_months_between():
    # a duration in months is a subtraction of month numbers
    assert parse_month("2013-06") - parse_month("2010-06") == 36
    assert parse_month("2015-05") - parse_month("2015-01") == 4
    assert parse_month("2014-01") - parse_month("2015-01") == -12
    assert parse_month("2015-01") - parse_month("2014-12") == 1


def test_format_years_is_decimal():
    assert format_years(Fraction(1, 2)) == "0.5"
    assert format_years(Fraction(1, 3)) == "0.3333333333333333"


year_months = st.tuples(st.integers(min_value=0, max_value=9999),
                        st.integers(min_value=1, max_value=12))


@given(year_months)
def test_str_parse_roundtrip(year_month):
    year, month = year_month
    text = f"{year:04d}-{month:02d}"
    assert parse_month(text) == year * 12 + month - 1
    assert month_text(parse_month(text)) == text


@given(year_months, year_months)
def test_ordinal_distance_matches_ordering(a, b):
    first, second = (parse_month(f"{y:04d}-{m:02d}") for y, m in (a, b))
    assert (second - first > 0) == (b > a)
    assert (first < second, first == second) == (a < b, a == b)


@pytest.mark.parametrize("year, month, reason", [
    (2017, 13, "month out of range: 13"),
    (2017, 0, "month out of range: 0"),
    (-1, 1, "not a YYYY-MM month: '-001-01'"),
], ids=["2017-13", "2017-0", "-1-1"])
def test_out_of_range_month_rejected(year, month, reason):
    with pytest.raises(ValueError) as exc:
        parse_month(f"{year:04d}-{month:02d}")
    assert str(exc.value) == reason


@pytest.mark.parametrize("value", [201203, ["2017-03"]])
def test_non_string_raises_the_re_type_error(value):
    with pytest.raises(TypeError) as expected:
        re.fullmatch("", value)
    with pytest.raises(TypeError, match=re.escape(str(expected.value))):
        parse_month(value)


def test_month_prints_hashes_and_orders_as_a_year_month_tuple():
    month = parse_month("2017-03")
    assert (month_text(month), month) == ("2017-03", 24206)
    texts = ["2018-01", "2017-12", "2017-03"]
    assert sorted(texts, key=parse_month) == sorted(texts) == [
        "2017-03", "2017-12", "2018-01"]
    assert len({2017 * 12 + 2, parse_month("2017-03")}) == 1


@given(st.integers(-10 ** 30, 10 ** 30),
       st.integers(-10 ** 30, 10 ** 30).filter(lambda b: b != 0))
def test_int_true_division_renders_as_the_exact_fraction(a, b):
    # why writers may print repr(total / n) without building a Fraction
    assert repr(a / b) == format_years(Fraction(a, b))


def test_texts_formats_each_distinct_key_once():
    formatted = []
    texts = Texts(lambda key: formatted.append(key) or month_text(key))
    rows = [2017 * 12 + 2, parse_month("2017-03"), 2017 * 12 + 3, 2017 * 12 + 2]
    assert [texts[month] for month in rows] == ["2017-03", "2017-03", "2017-04", "2017-03"]
    assert formatted == [2017 * 12 + 2, 2017 * 12 + 3]
