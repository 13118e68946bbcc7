"""Job-attribute metrics over profiles and hops.

Covers per-person work experience and job age, their per-job averages,
job levels and level gains with promotion/demotion labels, cohort-grouped
external-hop fractions, and distribution summaries. Durations are integer
months, each one subtraction of month numbers (`dates.parse_month`); an
exact `Fraction` of years is formed only for a mean, a gain or a
quartile interpolation, and rendered as a decimal on export.
Each job keeps only its (total months, holders) sums, so a hop's label
is the sign of an integer and its gain one Fraction of integers.
No job age is negative, as `load_profiles` rejects future-dated spells.
Records are immutable NamedTuples, equal to plain tuples of their fields.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .artifacts import write_csv
from .dates import format_years
from .hops import Hop, HopCorpus, HopKind
from .ingest import JobSpell, PersonProfile, ProfileSet, is_core_user


def work_experience_months(grad: int | None, spell: JobSpell) -> int | None:
    """Months from the graduation month `grad` (the profile's
    `grad_date` field) to the end of the spell.

    None when the profile has no dated education. Non-positive results
    are returned as-is; aggregates exclude them.
    """
    if grad is None:
        return None
    return spell.end_date - grad


def job_age_months(spell: JobSpell, reference_date: int) -> int:
    """Months from the spell's start to the reference date."""
    return reference_date - spell.start_date


def _mean_years_text(total_months: int, n: int) -> str:
    """The mean `Fraction(total_months, 12 * n)` as `format_years` writes
    it, "" for no value. An int over an int is correctly rounded, so
    `total_months / (12 * n)` is the float of the exact Fraction and no
    Fraction is built."""
    return repr(total_months / (12 * n)) if n else ""


class JobHolding(NamedTuple):
    """One unique (person, title, organization) occupancy.

    Duplicate spells of the same job are merged: the job age runs from
    the earliest start, the work experience to the latest end.
    """

    person_id: str
    title: str
    organization: str
    industry: str
    wk_months: int | None
    age_months: int


def _positive_wk(h: JobHolding) -> int:
    """The holding's work-experience months if positive, else 0: the
    experience aggregates exclude non-positive values."""
    return h.wk_months if (h.wk_months or 0) > 0 else 0


class JobIndex:
    """The core users' holdings, and per key the (total months, count)
    that the metrics read.

    `experience_months` (positive experience only) and `age_months` are
    keyed by (title, industry); `job_months` (positive experience only)
    by (title, organization), with every job present, holders or not.
    A job's level is `Fraction(total, 12 * n)` over its `job_months`;
    `job_level_texts` keeps its decimal text for the jobs with holders.
    """

    def __init__(self, holdings: Iterable[JobHolding]):
        self.holdings = tuple(holdings)
        experience: dict[tuple[str, str], tuple[int, int]] = {}
        age: dict[tuple[str, str], tuple[int, int]] = {}
        job: dict[tuple[str, str], tuple[int, int]] = {}
        for h in self.holdings:
            wk = _positive_wk(h)
            key = (h.title, h.industry)
            total, n = experience.get(key, (0, 0))
            experience[key] = (total + wk, n + (wk > 0))
            total, n = age.get(key, (0, 0))
            age[key] = (total + h.age_months, n + 1)
            key = (h.title, h.organization)
            total, n = job.get(key, (0, 0))
            job[key] = (total + wk, n + (wk > 0))
        self.experience_months = experience
        self.age_months = age
        self.job_months = job
        self.job_level_texts = {k: _mean_years_text(total, n)
                                for k, (total, n) in job.items() if n}

    @classmethod
    def build(cls, profile_set: ProfileSet, title_of: Mapping[str, str]) -> "JobIndex":
        """The index of the core users' jobs, where `title_of` maps every
        raw spell title to its normalized title. Holdings come in
        (person, title, organization) order."""
        reference = profile_set.reference_date
        holdings = []
        for profile in sorted(profile_set, key=lambda p: p.person_id):
            if not is_core_user(profile):
                continue
            grad = profile.grad_date
            # (title, org) -> the person's occupancy of that job as one spell
            jobs: dict[tuple[str, str], JobSpell] = {}
            for spell in profile.spells:
                key = (title_of[spell.raw_title], spell.organization)
                first = jobs.get(key)
                if first is not None:
                    spell = first._replace(
                        start_date=min(first.start_date, spell.start_date),
                        end_date=max(first.end_date, spell.end_date))
                jobs[key] = spell
            for (title, org), spell in sorted(jobs.items()):
                holdings.append(JobHolding(
                    person_id=profile.person_id, title=title, organization=org,
                    industry=spell.industry,
                    wk_months=work_experience_months(grad, spell),
                    age_months=job_age_months(spell, reference),
                ))
        return cls(holdings)


def job_level(title: str, organization: str, idx: JobIndex) -> Fraction | None:
    """Mean positive work experience over holders of (title, organization);
    a proxy for the seniority level of that job."""
    total, n = idx.job_months.get((title, organization), (0, 0))
    return Fraction(total, 12 * n) if n else None


class GainLabel(Enum):
    PROMOTION = "promotion"
    DEMOTION = "demotion"
    UNSUPPORTED = "unsupported"


REASON_LOW_SUPPORT = "low_support"
REASON_ZERO_GAIN = "zero_gain"


class LevelGainRecord(NamedTuple):
    hop: Hop
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
    months = idx.job_months
    t_s, n_s = months.get((hop.src_title, hop.src.organization), (0, 0))
    t_d, n_d = months.get((hop.dst_title, hop.dst.organization), (0, 0))
    # dst level - src level = t_d/(12 n_d) - t_s/(12 n_s)
    diff = t_d * n_s - t_s * n_d
    gain = Fraction(diff, 12 * n_s * n_d) if n_s and n_d else None
    if n_s < job_min_sup or n_d < job_min_sup:
        return LevelGainRecord(hop, gain, GainLabel.UNSUPPORTED, REASON_LOW_SUPPORT)
    if diff > 0:
        return LevelGainRecord(hop, gain, GainLabel.PROMOTION)
    if diff < 0:
        return LevelGainRecord(hop, gain, GainLabel.DEMOTION)
    return LevelGainRecord(hop, gain, GainLabel.UNSUPPORTED, REASON_ZERO_GAIN)


def build_level_gain_records(corpus: HopCorpus, idx: JobIndex,
                             job_min_sup: int = 10) -> list[LevelGainRecord]:
    return [level_gain(h, idx, job_min_sup) for h in corpus.hops]


class PromotionTable(NamedTuple):
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


class DurationBinCell(NamedTuple):
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
        d = r.hop.stay_months // 12
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


class CohortKey(NamedTuple):
    """Left-closed right-open bins of hopper attributes at the moment of
    leaving the source job."""

    wk_exp_bin: int
    job_age_bin: int
    skill_bin: int


def cohort_key_for(profile: PersonProfile, hop: Hop,
                   reference_date: int) -> CohortKey | None:
    """Cohort of the hopper, measured when leaving the source spell: whole
    years of work experience, whole years of the source job's age at the
    reference date, and skill count in fives (0-4, 5-9, ...).

    None when the hopper has no dated education or non-positive work
    experience at that moment."""
    wk = work_experience_months(profile.grad_date, hop.src)
    if wk is None or wk <= 0:
        return None
    return CohortKey(
        wk_exp_bin=wk // 12,
        job_age_bin=job_age_months(hop.src, reference_date) // 12,
        skill_bin=profile.skill_count // 5 * 5,
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
        for key in sorted(self.cells):
            external, internal = self.cells[key]
            out.append((key, external, internal, self.fraction(key)))
        return out


def build_cohort_table(corpus: HopCorpus, profile_set: ProfileSet,
                       min_sup: int = 100) -> CohortTable:
    by_id = profile_set.by_id()
    cells: dict[CohortKey, list[int]] = {}
    for hop in corpus.hops:
        profile = by_id.get(hop.person_id)
        if profile is None:
            continue
        key = cohort_key_for(profile, hop, profile_set.reference_date)
        if key is None:
            continue
        cell = cells.setdefault(key, [0, 0])
        if hop.kind is HopKind.EXTERNAL:
            cell[0] += 1
        else:
            cell[1] += 1
    return CohortTable({k: (v[0], v[1]) for k, v in cells.items()}, min_sup)


class QuartileSummary(NamedTuple):
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


class Distribution(NamedTuple):
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
    skills = [p.skill_count for p in profile_set if is_core_user(p)]
    wk = [v for v in map(_positive_wk, idx.holdings) if v]
    ages = [h.age_months for h in idx.holdings]
    levels = [Fraction(total, 12 * n) for total, n in idx.job_months.values() if n]
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
    return QuartileSummary(s.count, *(Fraction(v, 12) for v in s[1:]))  # not count


def _fmt(value: Fraction | None) -> str:
    return "" if value is None else format_years(value)


def write_job_metrics_csv(idx: JobIndex, path) -> int:
    """Per (title, industry): holder counts and average experience / age."""
    return write_csv(path, ["title", "industry", "holdings",
                            "positive_experience_holdings",
                            "avg_work_experience", "avg_job_age"], ((
        *key, idx.age_months[key][1], idx.experience_months[key][1],
        _mean_years_text(*idx.experience_months[key]),
        _mean_years_text(*idx.age_months[key]),
    ) for key in sorted(idx.age_months)))


def write_job_levels_csv(idx: JobIndex, path) -> int:
    texts = idx.job_level_texts
    return write_csv(path, ["title", "organization", "holders", "job_level"],
                     ((*key, idx.job_months[key][1], texts.get(key, ""))
                      for key in sorted(idx.job_months)))


def write_cohort_csv(table: CohortTable, path) -> int:
    return write_csv(path, ["wk_exp_bin", "job_age_bin", "skill_bin", "external_hops",
                            "internal_hops", "external_fraction", "suppressed"],
                     ((*key, external, internal, _fmt(fraction),
                       str(fraction is None).lower())
                      for key, external, internal, fraction in table.rows()))


def write_level_gains_csv(records: Iterable[LevelGainRecord], idx: JobIndex,
                          path) -> int:
    """One row per record, in record order, with only the record's own
    columns: the levels of the hop's source and destination jobs (the
    texts that `idx`, the index the records were built from, keeps per
    job; "" for a job without holders), the gain, the label and the
    reason. The hop itself is not repeated: records built from
    `corpus.hops` make row i the gain of hop i of `hops.csv`."""
    texts = idx.job_level_texts
    return write_csv(path, ["src_level", "dst_level", "gain", "label", "reason"], ((
        texts.get((r.hop.src_title, r.hop.src.organization), ""),
        texts.get((r.hop.dst_title, r.hop.dst.organization), ""),
        _fmt(r.gain), r.label.value, r.reason or "",
    ) for r in records))


def write_promotion_table_csv(table: PromotionTable, path) -> int:
    return write_csv(path, ["kind", "promotions", "demotions", "total"], (
        ("external", table.external_promotions,
         table.external_demotions, table.external_total),
        ("internal", table.internal_promotions,
         table.internal_demotions, table.internal_total),
        ("total", table.promotions_total, table.demotions_total, table.total),
    ))


def write_promotion_vs_duration_csv(cells: Iterable[DurationBinCell], path) -> int:
    return write_csv(path, ["duration_bin", "kind", "promotions", "total",
                            "p_promotion", "suppressed"],
                     ((c.duration_bin, c.kind.value, c.promotions, c.total,
                       _fmt(c.fraction), str(c.suppressed).lower()) for c in cells))


def write_distribution_csv(dist: Distribution, path) -> int:
    return write_csv(path, ["bin", "count"], dist.histogram)


def _quartile_row(d: Distribution) -> tuple:
    s = d.summary
    if s is None:
        return (d.name, 0, "", "", "", "", "")
    return (d.name, s.count, *map(_fmt, s[1:]))  # minimum to maximum


def write_quartiles_csv(distributions: Iterable[Distribution], path) -> int:
    return write_csv(path, ["metric", "count", "min", "q1", "median", "q3", "max"],
                     map(_quartile_row, distributions))
