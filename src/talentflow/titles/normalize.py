"""Canonicalization of equivalent job titles.

Every parseable title maps to the key of its constituent parts; titles
sharing a key are spelling variants of the same job. The most frequent
member becomes the canonical surface form (ties broken by shortest
string, then lexicographically). Unparseable titles are tallied into an
error rate and pass through normalization unchanged.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple

from ..artifacts import write_csv
from .dictionaries import TitleDictionaries
from .grammar import ParsedTitle, TitleParseError, parse
from .lexer import LexicalError, clean_title, tokenize

LEXICAL_ERROR_CODE = "LEXICAL"


class Normalized(NamedTuple):
    title: str
    canonical: bool


@dataclass(frozen=True)
class ParseFailure:
    title: str
    count: int
    error_code: str


@dataclass(frozen=True)
class NormalizationStats:
    parsed: int
    canonical: int
    errors: int

    @property
    def duplicates(self) -> int:
        return self.parsed - self.canonical

    @property
    def distinct(self) -> int:
        return self.parsed + self.errors

    @property
    def error_rate(self) -> Fraction:
        if self.distinct == 0:
            return Fraction(0)
        return Fraction(self.errors, self.distinct)


class NormalizationMap:
    """Immutable mapping from constituent-part keys to canonical titles."""

    def __init__(self, dicts: TitleDictionaries,
                 canonical_by_key: Mapping[tuple, str],
                 parsed_by_title: Mapping[str, ParsedTitle],
                 failures: tuple[ParseFailure, ...] = (),
                 stats: NormalizationStats | None = None):
        self.dicts = dicts
        self.canonical_by_key = dict(canonical_by_key)
        self.parsed_by_title = dict(parsed_by_title)
        self.failures = failures
        self.stats = stats
        self._normalized: dict[str, str] = {}

    def lookup(self, title: str) -> Normalized:
        """Canonical form of a title, with a flag saying whether it is
        canonical or an unknown/unparseable passthrough."""
        cleaned = clean_title(title)
        if not cleaned:
            return Normalized(" ".join(title.lower().split()), False)
        try:
            parsed = parse(tokenize(cleaned, self.dicts))
        except (LexicalError, TitleParseError):
            return Normalized(cleaned, False)
        canonical = self.canonical_by_key.get(parsed.key())
        if canonical is None:
            return Normalized(cleaned, False)
        return Normalized(canonical, True)

    def normalize(self, title: str) -> str:
        """`lookup(title).title`, memoized per distinct title, since a
        corpus repeats each title many times."""
        hit = self._normalized.get(title)
        if hit is None:
            hit = self._normalized[title] = self.lookup(title).title
        return hit

    def to_csv(self, path) -> None:
        write_csv(path, ["raw_title", "canonical_title", "primary_function",
                         "domains", "positions", "secondary_function",
                         "additional_info"], ((
            title, self.canonical_by_key[parsed.key()], parsed.primary_function,
            ";".join(parsed.domain), ";".join(parsed.position),
            parsed.secondary_function or "", parsed.additional_info or "",
        ) for title, parsed in sorted(self.parsed_by_title.items())))

    @classmethod
    def from_csv(cls, path, dicts: TitleDictionaries) -> "NormalizationMap":
        canonical_by_key: dict[tuple, str] = {}
        parsed_by_title: dict[str, ParsedTitle] = {}
        with open(path, "r", encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                parsed = ParsedTitle(
                    primary_function=row["primary_function"],
                    domain=tuple(d for d in row["domains"].split(";") if d),
                    position=tuple(p for p in row["positions"].split(";") if p),
                    secondary_function=row["secondary_function"] or None,
                    additional_info=row["additional_info"] or None,
                )
                parsed_by_title[row["raw_title"]] = parsed
                canonical_by_key[parsed.key()] = row["canonical_title"]
        return cls(dicts, canonical_by_key, parsed_by_title)

    def write_error_report(self, path) -> None:
        write_csv(path, ["raw_title", "count", "error_code"],
                  ((f.title, f.count, f.error_code)
                   for f in sorted(self.failures, key=lambda f: f.title)))


def build_normalization(titles_with_counts: Mapping[str, int],
                        dicts: TitleDictionaries) -> NormalizationMap:
    """Build the canonical-title map from title occurrence counts.

    The result is byte-for-byte identical for any iteration order of the
    input mapping. Counts of raw spellings that clean to the same string
    are pooled before canonical selection.
    """
    cleaned_counts: Counter[str] = Counter()
    blank_failures: Counter[str] = Counter()
    for title in sorted(titles_with_counts):
        count = titles_with_counts[title]
        if count <= 0:
            raise ValueError(f"non-positive count for title {title!r}")
        cleaned = clean_title(title)
        if cleaned:
            cleaned_counts[cleaned] += count
        else:
            blank_failures[" ".join(title.lower().split())] += count

    parsed_by_title: dict[str, ParsedTitle] = {}
    failures: list[ParseFailure] = [
        ParseFailure(t, c, LEXICAL_ERROR_CODE) for t, c in sorted(blank_failures.items())
    ]
    groups: dict[tuple, list[str]] = {}
    for title in sorted(cleaned_counts):
        try:
            parsed = parse(tokenize(title, dicts))
        except LexicalError:
            failures.append(ParseFailure(title, cleaned_counts[title], LEXICAL_ERROR_CODE))
            continue
        except TitleParseError as exc:
            failures.append(ParseFailure(title, cleaned_counts[title], exc.code.value))
            continue
        parsed_by_title[title] = parsed
        groups.setdefault(parsed.key(), []).append(title)

    canonical_by_key = {
        key: min(members, key=lambda t: (-cleaned_counts[t], len(t), t))
        for key, members in groups.items()
    }
    stats = NormalizationStats(
        parsed=len(parsed_by_title),
        canonical=len(canonical_by_key),
        errors=len(failures),
    )
    return NormalizationMap(dicts, canonical_by_key, parsed_by_title,
                            tuple(failures), stats)
