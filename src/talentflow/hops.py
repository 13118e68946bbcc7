"""Job-hop extraction and internal/external classification.

A hop is a move between two non-overlapping spells of one person. Each
spell hops to the spell(s) with the earliest start date at or after its
end; overlapping spells are treated as side activities and never form
hops. A move that keeps both the organization and the normalized title
is a duplicate listing, not a hop.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Sequence

from .artifacts import write_csv
from .dates import Month, format_years, years_between
from .ingest import JobSpell, PersonProfile, ProfileSet, support_filter
from .titles import NormalizationMap, identity


class HopKind(Enum):
    INTERNAL = "internal"
    EXTERNAL = "external"


@dataclass(frozen=True)
class Hop:
    person_id: str
    src: JobSpell
    dst: JobSpell
    src_title: str
    dst_title: str
    kind: HopKind
    duration_of_stay: Fraction

    def sort_key(self) -> tuple:
        return (self.person_id, self.src.start_date, self.dst.start_date,
                self.src_title, self.dst_title, self.src.organization,
                self.dst.organization)


def classify_hop(src: JobSpell, dst: JobSpell) -> HopKind:
    """External iff the organizations differ."""
    if src.organization != dst.organization:
        return HopKind.EXTERNAL
    return HopKind.INTERNAL


def extract_hops(profile: PersonProfile, reference_date: Month,
                 title_of: Callable[[JobSpell], str] | None = None,
                 spells: Sequence[JobSpell] | None = None) -> list[Hop]:
    """All hops of one person.

    `title_of` supplies the normalized title per spell (defaults to the
    raw title). `spells` restricts extraction to a subset of the
    profile's spells, e.g. after support filtering.
    """
    if title_of is None:
        title_of = lambda s: s.raw_title
    pool = list(profile.spells if spells is None else spells)
    hops: list[Hop] = []
    for idx, src in enumerate(pool):
        end = src.resolved_end(reference_date)
        candidates = [s for j, s in enumerate(pool) if j != idx and s.start_date >= end]
        if not candidates:
            continue
        first_start = min(s.start_date for s in candidates)
        src_title = title_of(src)
        for dst in candidates:
            if dst.start_date != first_start:
                continue
            dst_title = title_of(dst)
            kind = classify_hop(src, dst)
            if kind is HopKind.INTERNAL and src_title == dst_title:
                continue  # duplicate listing of the same job
            hops.append(Hop(
                person_id=profile.person_id,
                src=src,
                dst=dst,
                src_title=src_title,
                dst_title=dst_title,
                kind=kind,
                duration_of_stay=years_between(src.start_date, end),
            ))
    hops.sort(key=Hop.sort_key)
    return hops


@dataclass(frozen=True)
class HopCorpus:
    """All hops of a profile set, with normalized titles."""

    hops: tuple[Hop, ...]
    retained_titles: frozenset[str]

    def __len__(self) -> int:
        return len(self.hops)

    @property
    def internal_count(self) -> int:
        return sum(1 for h in self.hops if h.kind is HopKind.INTERNAL)

    @property
    def external_count(self) -> int:
        return len(self.hops) - self.internal_count


def build_hop_corpus(profile_set: ProfileSet, norm_map: NormalizationMap,
                     title_min_sup: int = 10,
                     translate: Callable[[str], str] = identity) -> HopCorpus:
    """Normalize every spell title, drop titles below the support
    threshold, then extract and classify hops per person.

    All profiles participate, not only core users. Support is counted on
    normalized titles over spells.
    """
    def norm(raw_title: str) -> str:
        return norm_map.normalize(translate(raw_title))

    counts: Counter[str] = Counter()
    for spell in profile_set.all_spells():
        counts[norm(spell.raw_title)] += 1
    retained = support_filter(counts, title_min_sup)

    hops: list[Hop] = []
    for profile in sorted(profile_set, key=lambda p: p.person_id):
        surviving = [s for s in profile.spells if norm(s.raw_title) in retained]
        if len(surviving) < 2:
            continue
        hops.extend(extract_hops(
            profile, profile_set.reference_date,
            title_of=lambda s: norm(s.raw_title), spells=surviving))

    return HopCorpus(hops=tuple(hops), retained_titles=frozenset(retained))


HOP_CSV_HEADER = [
    "person_id", "src_title", "src_org", "src_industry", "src_start", "src_end",
    "dst_title", "dst_org", "dst_industry", "dst_start", "dst_end",
    "kind", "duration_of_stay",
]


def write_hops_csv(corpus: HopCorpus, path, reference_date: Month) -> None:
    """Hop export; ongoing spells are written with their resolved end."""
    write_csv(path, HOP_CSV_HEADER, ((
        h.person_id, h.src_title, h.src.organization, h.src.industry,
        str(h.src.start_date), str(h.src.resolved_end(reference_date)),
        h.dst_title, h.dst.organization, h.dst.industry,
        str(h.dst.start_date), str(h.dst.resolved_end(reference_date)),
        h.kind.value, format_years(h.duration_of_stay),
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
                           Month.parse(row["src_start"]), Month.parse(row["src_end"]))
            dst = JobSpell(row["dst_title"], row["dst_org"], row["dst_industry"],
                           Month.parse(row["dst_start"]), Month.parse(row["dst_end"]))
            hops.append(Hop(
                person_id=row["person_id"],
                src=src, dst=dst,
                src_title=row["src_title"], dst_title=row["dst_title"],
                kind=HopKind(row["kind"]),
                duration_of_stay=years_between(src.start_date, src.end_date),
            ))
    return HopCorpus(
        hops=tuple(hops),
        retained_titles=frozenset(
            {h.src_title for h in hops} | {h.dst_title for h in hops}),
    )
