"""Calendar-month dates and exact duration arithmetic.

All profile dates are month-granular. A month is the int
`year * 12 + month - 1`, months since January of year 0: int order is
calendar order, and a duration in months is a subtraction. Only this
module converts between that number and its `YYYY-MM` text. Where a
year value is needed (a mean, a gain, a quartile) it is an exact
`Fraction` of months / 12, so results are reproducible across
platforms; it is converted to decimal only when written out.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable

_MONTH_RE = re.compile(r"([0-9]{4})-([0-9]{2})")

_PARSED: dict[str, int] = {}


def parse_month(text: str) -> int:
    """The month number of a 'YYYY-MM' string, e.g. 2017-03.

    Valid results are interned by text, because a corpus repeats a few
    hundred distinct months many times over; invalid text is never
    cached and raises on every call.
    """
    month = _PARSED.get(text) if isinstance(text, str) else None
    if month is None:
        m = _MONTH_RE.fullmatch(text)
        if not m:
            raise ValueError(f"not a YYYY-MM month: {text!r}")
        number = int(m.group(2))
        if not 1 <= number <= 12:
            raise ValueError(f"month out of range: {number}")
        month = _PARSED[text] = int(m.group(1)) * 12 + number - 1
    return month


def month_text(month: int) -> str:
    """The 'YYYY-MM' text of a month number; inverts `parse_month`."""
    return f"{month // 12:04d}-{month % 12 + 1:02d}"


def format_years(value: Fraction | float) -> str:
    """Render a duration (or any ratio) as a decimal string.

    Uses repr of the float value, which is the shortest string that
    round-trips, so output bytes are stable across runs. A month count
    `m` is passed as `m / 12`: int division is correctly rounded, so it
    renders as the exact `Fraction(m, 12)` would.
    """
    return repr(float(value))


class Texts(dict):
    """A dict from each key to `fmt(key)`, computed on its first lookup:
    a writer formats each distinct month or stay once, not once per row,
    and a run resolves each distinct title once, when first read."""

    __slots__ = ("fmt",)

    def __init__(self, fmt: Callable[..., str]) -> None:
        super().__init__()
        self.fmt = fmt

    def __missing__(self, key) -> str:
        text = self[key] = self.fmt(key)
        return text
