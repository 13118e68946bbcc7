"""Job-attribute metrics over profiles and hops.

Covers per-person work experience and job age, their per-job averages,
job levels and level gains with promotion/demotion labels, cohort-grouped
external-hop fractions, and distribution summaries. Durations are kept as
integer months; an exact `Fraction` of years is formed only for a mean, a
gain or a quartile interpolation, and rendered as a decimal on export.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .artifacts import write_csv
from .dates import Month, format_years, months_between
from .hops import Hop, HopCorpus, HopKind
from .ingest import JobSpell, PersonProfile, ProfileSet, is_core_user
from .titles import NormalizationMap, identity

logger = logging.getLogger(__name__)


def work_experience_months(profile: PersonProfile, spell: JobSpell,
                           reference_date: Month) -> int | None:
    """Months from the most recent graduation to the end of the spell.

    None when the profile has no dated education. Non-positive results
    are returned as-is; aggregates exclude them.
    """
    grad = profile.grad_date()
    if grad is None:
        return None
    return months_between(grad, spell.resolved_end(reference_date))


def job_age_months(spell: JobSpell, reference_date: Month) -> int | None:
    """Months from the spell's start to the reference date; None (with a
    warning) when the spell starts after the reference date."""
    age = months_between(spell.start_date, reference_date)
    if age < 0:
        logger.warning("spell starts after reference date %s: %s at %s",
                       reference_date, spell.raw_title, spell.organization)
        return None
    return age


def _mean_years(total_months: int, n: int) -> Fraction | None:
    return Fraction(total_months, 12 * n) if n else None


@dataclass(frozen=True)
class JobHolding:
    """One unique (person, title, organization) occupancy.

    Duplicate spells of the same job are merged: the earliest start and
    the latest resolved end represent the occupancy.
    """

    person_id: str
    title: str
    organization: str
    industry: str
    start: Month
    end: Month
    wk_months: int | None
    age_months: int | None


def _positive_wk_months(holdings: Iterable[JobHolding]) -> list[int]:
    """Work-experience months of the holdings, positive values only."""
    return [h.wk_months for h in holdings if (h.wk_months or 0) > 0]


def _sum_count(months: list[int]) -> tuple[int, int]:
    return sum(months), len(months)


class JobIndex:
    """Holdings indexed by (title, industry) and by (title, organization),
    with the per-job aggregates that the metrics read.

    Built once from core users with normalized titles; immutable
    afterwards. Work-experience aggregates use only positive values.
    """

    def __init__(self, holdings: Sequence[JobHolding]):
        self.holdings = tuple(holdings)
        ti: dict[tuple[str, str], list[JobHolding]] = {}
        tc: dict[tuple[str, str], list[JobHolding]] = {}
        for h in self.holdings:
            ti.setdefault((h.title, h.industry), []).append(h)
            tc.setdefault((h.title, h.organization), []).append(h)
        self.by_title_industry = {k: tuple(v) for k, v in ti.items()}
        self.by_title_org = {k: tuple(v) for k, v in tc.items()}

        # (title, industry) -> (sum, count) of positive experience months
        # and of known age months.
        self.experience_months = {
            k: _sum_count(_positive_wk_months(group)) for k, group in ti.items()}
        self.age_months = {
            k: _sum_count([h.age_months for h in group if h.age_months is not None])
            for k, group in ti.items()}
        # (title, organization) -> holders with positive experience, and the
        # job level for the jobs that have any.
        self.job_supports: dict[tuple[str, str], int] = {}
        self.job_levels: dict[tuple[str, str], Fraction] = {}
        for k, group in tc.items():
            total, n = _sum_count(_positive_wk_months(group))
            self.job_supports[k] = n
            if n:
                self.job_levels[k] = Fraction(total, 12 * n)

    @classmethod
    def build(cls, profile_set: ProfileSet, norm_map: NormalizationMap,
              translate: Callable[[str], str] = identity) -> "JobIndex":
        reference = profile_set.reference_date
        # (person, title, org) -> (profile, the occupancy as one spell)
        merged: dict[tuple[str, str, str], tuple[PersonProfile, JobSpell]] = {}
        for profile in sorted(profile_set, key=lambda p: p.person_id):
            if not is_core_user(profile):
                continue
            for spell in profile.spells:
                title = norm_map.normalize(translate(spell.raw_title))
                key = (profile.person_id, title, spell.organization)
                seen = merged.get(key)
                if seen is not None:
                    first = seen[1]
                    spell = JobSpell(
                        first.raw_title, first.organization, first.industry,
                        min(first.start_date, spell.start_date),
                        max(first.resolved_end(reference), spell.resolved_end(reference)))
                merged[key] = (profile, spell)

        holdings = []
        for (person_id, title, org), (profile, spell) in sorted(merged.items()):
            holdings.append(JobHolding(
                person_id=person_id, title=title, organization=org,
                industry=spell.industry, start=spell.start_date,
                end=spell.resolved_end(reference),
                wk_months=work_experience_months(profile, spell, reference),
                age_months=job_age_months(spell, reference),
            ))
        return cls(holdings)


def avg_work_experience(title: str, industry: str, idx: JobIndex) -> Fraction | None:
    """Mean positive work experience over holders of (title, industry)."""
    return _mean_years(*idx.experience_months.get((title, industry), (0, 0)))


def avg_job_age(title: str, industry: str, idx: JobIndex) -> Fraction | None:
    """Mean job age over holders of (title, industry)."""
    return _mean_years(*idx.age_months.get((title, industry), (0, 0)))


def job_level(title: str, organization: str, idx: JobIndex) -> Fraction | None:
    """Mean positive work experience over holders of (title, organization);
    a proxy for the seniority level of that job."""
    return idx.job_levels.get((title, organization))


def job_support(title: str, organization: str, idx: JobIndex) -> int:
    """Number of holders contributing to the job's level."""
    return idx.job_supports.get((title, organization), 0)


class GainLabel(Enum):
    PROMOTION = "promotion"
    DEMOTION = "demotion"
    UNSUPPORTED = "unsupported"


REASON_LOW_SUPPORT = "low_support"
REASON_ZERO_GAIN = "zero_gain"


@dataclass(frozen=True)
class LevelGainRecord:
    hop: Hop
    src_level: Fraction | None
    dst_level: Fraction | None
    gain: Fraction | None
    label: GainLabel
    reason: str | None = None


def level_gain(hop: Hop, idx: JobIndex, job_min_sup: int = 10) -> LevelGainRecord:
    """Level difference between the hop's destination and source jobs.

    Either job below the holder minimum support makes the record
    unsupported; an exact zero gain is unsupported too (kept apart from
    the low-support case via `reason`).
    """
    if job_min_sup < 1:
        raise ValueError(f"job_min_sup must be >= 1, got {job_min_sup}")
    src_key = (hop.src_title, hop.src.organization)
    dst_key = (hop.dst_title, hop.dst.organization)
    src_level = idx.job_levels.get(src_key)
    dst_level = idx.job_levels.get(dst_key)
    gain = None
    if src_level is not None and dst_level is not None:
        gain = dst_level - src_level
    supports = idx.job_supports
    if supports.get(src_key, 0) < job_min_sup or supports.get(dst_key, 0) < job_min_sup:
        return LevelGainRecord(hop, src_level, dst_level, gain,
                               GainLabel.UNSUPPORTED, REASON_LOW_SUPPORT)
    if gain > 0:
        return LevelGainRecord(hop, src_level, dst_level, gain, GainLabel.PROMOTION)
    if gain < 0:
        return LevelGainRecord(hop, src_level, dst_level, gain, GainLabel.DEMOTION)
    return LevelGainRecord(hop, src_level, dst_level, gain,
                           GainLabel.UNSUPPORTED, REASON_ZERO_GAIN)


def build_level_gain_records(corpus: HopCorpus, idx: JobIndex,
                             job_min_sup: int = 10) -> list[LevelGainRecord]:
    return [level_gain(h, idx, job_min_sup) for h in corpus.hops]


@dataclass(frozen=True)
class PromotionTable:
    """Promotion/demotion counts split by hop kind (unsupported excluded)."""

    external_promotions: int
    external_demotions: int
    internal_promotions: int
    internal_demotions: int

    @property
    def external_total(self) -> int:
        return self.external_promotions + self.external_demotions

    @property
    def internal_total(self) -> int:
        return self.internal_promotions + self.internal_demotions

    @property
    def promotions_total(self) -> int:
        return self.external_promotions + self.internal_promotions

    @property
    def demotions_total(self) -> int:
        return self.external_demotions + self.internal_demotions

    @property
    def total(self) -> int:
        return self.external_total + self.internal_total


def promotion_tables(records: Iterable[LevelGainRecord]) -> PromotionTable:
    counts = Counter()
    for r in records:
        if r.label is GainLabel.UNSUPPORTED:
            continue
        counts[(r.hop.kind, r.label)] += 1
    return PromotionTable(
        external_promotions=counts[(HopKind.EXTERNAL, GainLabel.PROMOTION)],
        external_demotions=counts[(HopKind.EXTERNAL, GainLabel.DEMOTION)],
        internal_promotions=counts[(HopKind.INTERNAL, GainLabel.PROMOTION)],
        internal_demotions=counts[(HopKind.INTERNAL, GainLabel.DEMOTION)],
    )


@dataclass(frozen=True)
class DurationBinCell:
    """Promotion fraction for one hop kind within one duration-of-stay bin."""

    duration_bin: int
    kind: HopKind
    promotions: int
    total: int
    suppressed: bool

    @property
    def fraction(self) -> Fraction | None:
        if self.suppressed or self.total == 0:
            return None
        return Fraction(self.promotions, self.total)


def promotion_vs_duration(records: Iterable[LevelGainRecord],
                          min_sup: int = 10) -> list[DurationBinCell]:
    """Conditional promotion fractions per integer-year duration bin.

    Each (bin, kind) cell with fewer labeled hops than `min_sup` is
    suppressed but keeps its counts."""
    promos: Counter = Counter()
    totals: Counter = Counter()
    for r in records:
        if r.label is GainLabel.UNSUPPORTED:
            continue
        d = int(r.hop.duration_of_stay // 1)
        totals[(d, r.hop.kind)] += 1
        if r.label is GainLabel.PROMOTION:
            promos[(d, r.hop.kind)] += 1
    cells = []
    for (d, kind), total in sorted(totals.items(), key=lambda kv: (kv[0][0], kv[0][1].value)):
        cells.append(DurationBinCell(
            duration_bin=d, kind=kind, promotions=promos[(d, kind)],
            total=total, suppressed=total < min_sup,
        ))
    return cells


@dataclass(frozen=True)
class CohortKey:
    """Left-closed right-open bins of hopper attributes at the moment of
    leaving the source job."""

    wk_exp_bin: int
    job_age_bin: int
    skill_bin: int


@dataclass(frozen=True)
class CohortBinning:
    wk_exp_width: int = 1
    job_age_width: int = 1
    skill_width: int = 5


def cohort_key_for(profile: PersonProfile, hop: Hop, reference_date: Month,
                   binning: CohortBinning = CohortBinning()) -> CohortKey | None:
    """Cohort of the hopper, measured when leaving the source spell.

    None when the hopper has no dated education, non-positive work
    experience at that moment, or a source job starting after the
    reference date."""
    wk = work_experience_months(profile, hop.src, reference_date)
    if wk is None or wk <= 0:
        return None
    age = job_age_months(hop.src, reference_date)
    if age is None:
        return None
    return CohortKey(
        wk_exp_bin=wk // (12 * binning.wk_exp_width) * binning.wk_exp_width,
        job_age_bin=age // (12 * binning.job_age_width) * binning.job_age_width,
        skill_bin=(len(profile.skills) // binning.skill_width) * binning.skill_width,
    )


class CohortTable:
    """External/internal hop counts per cohort, with suppression below
    the cohort minimum support."""

    def __init__(self, cells: Mapping[CohortKey, tuple[int, int]], min_sup: int):
        self.cells = dict(cells)
        self.min_sup = min_sup

    def fraction(self, key: CohortKey) -> Fraction | None:
        """Share of external hops among all hops of a cohort; None when the
        cohort is absent or below the minimum support."""
        cell = self.cells.get(key)
        if cell is None:
            return None
        external, internal = cell
        total = external + internal
        if total == 0 or total < self.min_sup:
            return None
        return Fraction(external, total)

    def rows(self) -> list[tuple[CohortKey, int, int, Fraction | None]]:
        out = []
        for key in sorted(self.cells, key=lambda k: (k.wk_exp_bin, k.job_age_bin, k.skill_bin)):
            external, internal = self.cells[key]
            out.append((key, external, internal, self.fraction(key)))
        return out


def build_cohort_table(corpus: HopCorpus, profile_set: ProfileSet,
                       min_sup: int = 100,
                       binning: CohortBinning = CohortBinning()) -> CohortTable:
    by_id = profile_set.by_id()
    cells: dict[CohortKey, list[int]] = {}
    for hop in corpus.hops:
        profile = by_id.get(hop.person_id)
        if profile is None:
            continue
        key = cohort_key_for(profile, hop, profile_set.reference_date, binning)
        if key is None:
            continue
        cell = cells.setdefault(key, [0, 0])
        if hop.kind is HopKind.EXTERNAL:
            cell[0] += 1
        else:
            cell[1] += 1
    return CohortTable({k: (v[0], v[1]) for k, v in cells.items()}, min_sup)


@dataclass(frozen=True)
class QuartileSummary:
    count: int
    minimum: Fraction
    q1: Fraction
    median: Fraction
    q3: Fraction
    maximum: Fraction


def exact_order(value: Fraction) -> tuple[float, Fraction]:
    """Sort key equivalent to comparing Fractions, but mostly by float.

    Rounding to float is monotone, so unequal floats already give the
    true order; only equal floats fall back to comparing the Fractions.
    """
    return (float(value), value)


def quartiles(values: Sequence[Fraction | int],
              key: Callable[[Fraction], object] | None = None) -> QuartileSummary | None:
    """Exact quartiles with linear interpolation between order statistics.

    `values` are sorted as given (with `key`, if any, which must order
    them as their own comparison does); only interpolation forms Fractions.
    """
    if not values:
        return None
    data = sorted(values, key=key)
    n = len(data)

    def at(q: Fraction) -> Fraction | int:
        pos = (n - 1) * q
        lower = int(pos)  # floor; pos is non-negative
        frac = pos - lower
        if frac == 0:
            return data[lower]
        return data[lower] + frac * (data[lower + 1] - data[lower])

    return QuartileSummary(
        count=n,
        minimum=data[0],
        q1=at(Fraction(1, 4)),
        median=at(Fraction(1, 2)),
        q3=at(Fraction(3, 4)),
        maximum=data[-1],
    )


@dataclass(frozen=True)
class Distribution:
    """Histogram over integer bins plus a quartile summary."""

    name: str
    histogram: tuple[tuple[int, int], ...]
    summary: QuartileSummary | None


def _histogram(values: Iterable[int]) -> tuple[tuple[int, int], ...]:
    counts = Counter(values)
    return tuple(sorted(counts.items()))


DISTRIBUTION_NAMES = ("skill_count", "work_experience", "job_age", "job_level")


def distribution_summaries(profile_set: ProfileSet, idx: JobIndex) -> list[Distribution]:
    """Distributions of skill count, work experience, job age and job
    level, computed over core users, in `DISTRIBUTION_NAMES` order."""
    skills = [len(p.skills) for p in profile_set if is_core_user(p)]
    wk = _positive_wk_months(idx.holdings)
    ages = [h.age_months for h in idx.holdings if h.age_months is not None]
    levels = list(idx.job_levels.values())
    parts = (
        (_histogram(skills), quartiles(skills)),
        (_histogram(v // 12 for v in wk), _in_years(quartiles(wk))),
        (_histogram(v // 12 for v in ages), _in_years(quartiles(ages))),
        (_histogram(int(v // 1) for v in levels), quartiles(levels, key=exact_order)),
    )
    return [Distribution(name, *part)
            for name, part in zip(DISTRIBUTION_NAMES, parts, strict=True)]


def _in_years(s: QuartileSummary | None) -> QuartileSummary | None:
    """A summary of month values, re-expressed in years."""
    if s is None:
        return None
    return QuartileSummary(s.count, *(Fraction(v, 12) for v in
                                      (s.minimum, s.q1, s.median, s.q3, s.maximum)))


def _fmt(value: Fraction | None) -> str:
    return "" if value is None else format_years(value)


def write_job_metrics_csv(idx: JobIndex, path) -> None:
    """Per (title, industry): holder counts and average experience / age."""
    write_csv(path, ["title", "industry", "holdings", "positive_experience_holdings",
                     "avg_work_experience", "avg_job_age"], ((
        title, industry, len(idx.by_title_industry[(title, industry)]),
        idx.experience_months[(title, industry)][1],
        _fmt(avg_work_experience(title, industry, idx)),
        _fmt(avg_job_age(title, industry, idx)),
    ) for (title, industry) in sorted(idx.by_title_industry)))


def write_job_levels_csv(idx: JobIndex, path) -> None:
    write_csv(path, ["title", "organization", "holders", "job_level"],
              ((title, org, job_support(title, org, idx),
                _fmt(job_level(title, org, idx)))
               for (title, org) in sorted(idx.by_title_org)))


def write_cohort_csv(table: CohortTable, path) -> None:
    write_csv(path, ["wk_exp_bin", "job_age_bin", "skill_bin", "external_hops",
                     "internal_hops", "external_fraction", "suppressed"],
              ((key.wk_exp_bin, key.job_age_bin, key.skill_bin,
                external, internal, _fmt(fraction), str(fraction is None).lower())
               for key, external, internal, fraction in table.rows()))


def write_level_gains_csv(records: Iterable[LevelGainRecord], path) -> None:
    write_csv(path, ["person_id", "src_title", "src_org", "dst_title", "dst_org",
                     "kind", "duration_of_stay", "src_level", "dst_level",
                     "gain", "label", "reason"], ((
        r.hop.person_id, r.hop.src_title, r.hop.src.organization,
        r.hop.dst_title, r.hop.dst.organization, r.hop.kind.value,
        format_years(r.hop.duration_of_stay),
        _fmt(r.src_level), _fmt(r.dst_level), _fmt(r.gain),
        r.label.value, r.reason or "",
    ) for r in records))


def write_promotion_table_csv(table: PromotionTable, path) -> None:
    write_csv(path, ["kind", "promotions", "demotions", "total"], (
        ("external", table.external_promotions,
         table.external_demotions, table.external_total),
        ("internal", table.internal_promotions,
         table.internal_demotions, table.internal_total),
        ("total", table.promotions_total, table.demotions_total, table.total),
    ))


def write_promotion_vs_duration_csv(cells: Iterable[DurationBinCell], path) -> None:
    write_csv(path, ["duration_bin", "kind", "promotions", "total",
                     "p_promotion", "suppressed"],
              ((c.duration_bin, c.kind.value, c.promotions, c.total,
                _fmt(c.fraction), str(c.suppressed).lower()) for c in cells))


def write_distribution_csv(dist: Distribution, path) -> None:
    write_csv(path, ["bin", "count"], dist.histogram)


def _quartile_row(d: Distribution) -> tuple:
    s = d.summary
    if s is None:
        return (d.name, 0, "", "", "", "", "")
    return (d.name, s.count, *map(_fmt, (s.minimum, s.q1, s.median, s.q3, s.maximum)))


def write_quartiles_csv(distributions: Iterable[Distribution], path) -> None:
    write_csv(path, ["metric", "count", "min", "q1", "median", "q3", "max"],
              map(_quartile_row, distributions))
