"""Calendar-month dates and exact duration arithmetic.

All profile dates are month-granular, and durations are integer month
counts. Where a year value is needed (a mean, a gain, a quartile) it is
an exact `Fraction` of months / 12, so results are reproducible across
platforms; it is converted to decimal only when written out. A `Month`
orders, hashes and compares equal as the plain tuple (year, month) does.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, NamedTuple

_MONTH_RE = re.compile(r"([0-9]{4})-([0-9]{2})")


class Month(NamedTuple("Month", [("year", int), ("month", int)])):
    """A calendar month, e.g. 2017-03."""

    __slots__ = ()

    def __new__(cls, year: int, month: int) -> "Month":
        if not 1 <= month <= 12:
            raise ValueError(f"month out of range: {month}")
        if year < 0:
            raise ValueError(f"negative year: {year}")
        return super().__new__(cls, year, month)

    @classmethod
    def parse(cls, text: str) -> "Month":
        """Parse a 'YYYY-MM' string.

        Valid results are interned by text, because a corpus repeats a few
        hundred distinct months many times over; invalid text is never
        cached and raises on every call.
        """
        month = _PARSED.get(text) if isinstance(text, str) else None
        if month is None:
            m = _MONTH_RE.fullmatch(text)
            if not m:
                raise ValueError(f"not a YYYY-MM month: {text!r}")
            month = _PARSED[text] = cls(int(m.group(1)), int(m.group(2)))
        return month

    @property
    def ordinal(self) -> int:
        """Months since year 0, usable for distance arithmetic."""
        return self.year * 12 + (self.month - 1)

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"


_PARSED: dict[str, Month] = {}


def months_between(start: Month, end: Month) -> int:
    """Signed month count from start to end (negative if end precedes start)."""
    return end.ordinal - start.ordinal


def format_years(value: Fraction | float) -> str:
    """Render a duration (or any ratio) as a decimal string.

    Uses repr of the float value, which is the shortest string that
    round-trips, so output bytes are stable across runs. A month count
    `m` is passed as `m / 12`: int division is correctly rounded, so it
    renders as the exact `Fraction(m, 12)` would.
    """
    return repr(float(value))


class Texts(dict):
    """A dict from each key to `fmt(key)`, formatted on its first lookup:
    a writer formats each distinct month or stay once, not once per row."""

    __slots__ = ("fmt",)

    def __init__(self, fmt: Callable[..., str]) -> None:
        super().__init__()
        self.fmt = fmt

    def __missing__(self, key) -> str:
        text = self[key] = self.fmt(key)
        return text
