"""Job-hop extraction and internal/external classification.

A hop is a move between two non-overlapping spells of one person. Each
spell hops to the spell(s) with the earliest start date at or after its
end; overlapping spells are treated as side activities and never form
hops. A move that keeps both the organization and the normalized title
is a duplicate listing, not a hop. Ongoing spells were closed at the
reference date on load, and a hop's stay in its source spell is the
source's end month number minus its start month number. A `Hop` is an
immutable NamedTuple, equal to a plain tuple of its fields.
"""

from __future__ import annotations

import csv
from collections import Counter
from enum import Enum
from typing import Mapping, NamedTuple, Sequence

from .artifacts import write_csv
from .dates import Texts, format_years, month_text, parse_month
from .ingest import JobSpell, ProfileSet, support_filter


class HopKind(Enum):
    INTERNAL = "internal"
    EXTERNAL = "external"


class Hop(NamedTuple):
    person_id: str
    src: JobSpell
    dst: JobSpell
    src_title: str
    dst_title: str
    kind: HopKind
    stay_months: int  # from the source spell's start to its end

    def sort_key(self) -> tuple:
        return (self.person_id, self.src.start_date, self.dst.start_date,
                self.src_title, self.dst_title, self.src.organization,
                self.dst.organization)


def classify_hop(src: JobSpell, dst: JobSpell) -> HopKind:
    """External iff the organizations differ."""
    if src.organization != dst.organization:
        return HopKind.EXTERNAL
    return HopKind.INTERNAL


def extract_hops(person_id: str, spells: Sequence[JobSpell],
                 title_of: Mapping[str, str]) -> list[Hop]:
    """All hops between the given spells of one person, with `title_of`
    mapping the raw title of each spell to its normalized title."""
    hops: list[Hop] = []
    for idx, src in enumerate(spells):
        candidates = [s for j, s in enumerate(spells) if j != idx and s.start_date >= src.end_date]
        if not candidates:
            continue
        first_start = min(s.start_date for s in candidates)
        src_title = title_of[src.raw_title]
        for dst in candidates:
            if dst.start_date != first_start:
                continue
            dst_title = title_of[dst.raw_title]
            kind = classify_hop(src, dst)
            if kind is HopKind.INTERNAL and src_title == dst_title:
                continue  # duplicate listing of the same job
            hops.append(Hop(
                person_id=person_id,
                src=src,
                dst=dst,
                src_title=src_title,
                dst_title=dst_title,
                kind=kind,
                stay_months=src.end_date - src.start_date,
            ))
    hops.sort(key=Hop.sort_key)
    return hops


class HopCorpus:
    """All hops of a profile set, with normalized titles."""

    __slots__ = ("hops", "retained_titles")

    def __init__(self, hops: tuple[Hop, ...], retained_titles: frozenset[str]) -> None:
        self.hops = hops
        self.retained_titles = retained_titles

    def __len__(self) -> int:
        return len(self.hops)

    @property
    def internal_count(self) -> int:
        return sum(1 for h in self.hops if h.kind is HopKind.INTERNAL)

    @property
    def external_count(self) -> int:
        return len(self.hops) - self.internal_count


def build_hop_corpus(profile_set: ProfileSet, title_of: Mapping[str, str],
                     title_min_sup: int = 10) -> HopCorpus:
    """Drop the spells whose normalized title is below the support
    threshold, then extract and classify hops per person. `title_of`
    maps every raw spell title of the profile set to its normalized title.

    All profiles participate, not only core users. Support is counted on
    normalized titles over spells.
    """
    counts = Counter(title_of[s.raw_title] for s in profile_set.all_spells())
    retained = support_filter(counts, title_min_sup)

    hops: list[Hop] = []
    for profile in sorted(profile_set, key=lambda p: p.person_id):
        surviving = [s for s in profile.spells if title_of[s.raw_title] in retained]
        if len(surviving) < 2:
            continue
        hops.extend(extract_hops(profile.person_id, surviving, title_of))

    return HopCorpus(hops=tuple(hops), retained_titles=frozenset(retained))


HOP_CSV_HEADER = [
    "person_id", "src_title", "src_org", "src_industry", "src_start", "src_end",
    "dst_title", "dst_org", "dst_industry", "dst_start", "dst_end",
    "kind", "duration_of_stay",
]


def write_hops_csv(corpus: HopCorpus, path) -> int:
    """Hop export, with the stay as a decimal number of years. Each
    distinct month and stay is formatted once."""
    month, stay = Texts(month_text), Texts(lambda months: format_years(months / 12))
    return write_csv(path, HOP_CSV_HEADER, ((
        h.person_id, h.src_title, h.src.organization, h.src.industry,
        month[h.src.start_date], month[h.src.end_date],
        h.dst_title, h.dst.organization, h.dst.industry,
        month[h.dst.start_date], month[h.dst.end_date],
        h.kind.value, stay[h.stay_months],
    ) for h in corpus.hops))


def read_hops_csv(path) -> HopCorpus:
    """Rebuild a corpus from its CSV export.

    Spell titles are set to the normalized titles stored in the file, so
    the result behaves like the corpus that produced it.
    """
    hops: list[Hop] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            src = JobSpell(row["src_title"], row["src_org"], row["src_industry"],
                           parse_month(row["src_start"]), parse_month(row["src_end"]))
            dst = JobSpell(row["dst_title"], row["dst_org"], row["dst_industry"],
                           parse_month(row["dst_start"]), parse_month(row["dst_end"]))
            hops.append(Hop(
                person_id=row["person_id"],
                src=src, dst=dst,
                src_title=row["src_title"], dst_title=row["dst_title"],
                kind=HopKind(row["kind"]),
                stay_months=src.end_date - src.start_date,
            ))
    return HopCorpus(
        hops=tuple(hops),
        retained_titles=frozenset(
            {h.src_title for h in hops} | {h.dst_title for h in hops}),
    )
