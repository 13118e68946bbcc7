from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from talentflow.dates import Month, Texts, format_years, months_between


def test_parse_and_str_roundtrip():
    assert str(Month.parse("2017-03")) == "2017-03"
    assert Month.parse("2017-03") == Month(2017, 3)


@pytest.mark.parametrize("bad", ["2017-13", "2017-00", "17-03", "2017/03", "2017-3", "x",
                                 "2017-03\n", "２０１７-03"])
def test_parse_rejects_malformed(bad):
    for _ in range(2):  # a failed parse is not cached
        with pytest.raises(ValueError):
            Month.parse(bad)


def test_parse_interns_valid_months():
    first = Month.parse("2016-07")
    assert first == Month(2016, 7)
    assert Month.parse("2016-07") is first


def test_ordering_is_chronological():
    assert Month(2017, 3) < Month(2017, 4) < Month(2018, 1)


def test_months_between():
    assert months_between(Month(2010, 6), Month(2013, 6)) == 36
    assert months_between(Month(2015, 1), Month(2015, 5)) == 4
    assert months_between(Month(2015, 1), Month(2014, 1)) == -12
    assert months_between(Month(2014, 12), Month(2015, 1)) == 1


def test_format_years_is_decimal():
    assert format_years(Fraction(1, 2)) == "0.5"
    assert format_years(Fraction(1, 3)) == "0.3333333333333333"


months = st.builds(Month, st.integers(min_value=1900, max_value=2100),
                   st.integers(min_value=1, max_value=12))


@given(months)
def test_str_parse_roundtrip(month):
    assert Month.parse(str(month)) == month


@given(months, months)
def test_ordinal_distance_matches_ordering(a, b):
    assert (months_between(a, b) > 0) == (b > a)
    assert months_between(a, b) == -months_between(b, a)


@pytest.mark.parametrize("year, month", [(2017, 13), (2017, 0), (-1, 1)])
def test_out_of_range_month_rejected(year, month):
    with pytest.raises(ValueError):
        Month(year, month)


def test_month_prints_hashes_and_orders_as_a_year_month_tuple():
    m = Month(2017, 3)
    assert (str(m), repr(m)) == ("2017-03", "Month(year=2017, month=3)")
    assert hash(m) == hash((2017, 3)) and m == (2017, 3)
    assert sorted([Month(2018, 1), Month(2017, 12), Month(2017, 3)]) == [
        Month(2017, 3), Month(2017, 12), Month(2018, 1)]
    assert len({Month(2017, 3), Month.parse("2017-03")}) == 1


@given(st.integers(-10 ** 30, 10 ** 30),
       st.integers(-10 ** 30, 10 ** 30).filter(lambda b: b != 0))
def test_int_true_division_renders_as_the_exact_fraction(a, b):
    # why writers may print repr(total / n) without building a Fraction
    assert repr(a / b) == format_years(Fraction(a, b))


def test_texts_formats_each_distinct_key_once():
    formatted = []
    texts = Texts(lambda key: formatted.append(key) or str(key))
    rows = [Month(2017, 3), Month.parse("2017-03"), Month(2017, 4), Month(2017, 3)]
    assert [texts[month] for month in rows] == ["2017-03", "2017-03", "2017-04", "2017-03"]
    assert formatted == [Month(2017, 3), Month(2017, 4)]
