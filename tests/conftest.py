from __future__ import annotations

import csv
import gc
import json
from fractions import Fraction
from pathlib import Path

import pytest

from talentflow import pipeline
from talentflow.dates import parse_month
from talentflow.ingest import JobSpell, PersonProfile, ProfileSet
from talentflow.titles import NormalizationMap, TitleDictionaries


REFERENCE = "2020-01"  # the reference date of every test


def m(text: str) -> int:
    return parse_month(text)


def spell(title: str, org: str, industry: str, start: str,
          end: str | None) -> JobSpell:
    """A spell as `load_profiles` builds it: an ongoing one (`end` None)
    ends at the reference date."""
    return JobSpell(title, org, industry, m(start),
                    m(end if end is not None else REFERENCE))


def profile(person_id: str, spells=(), grad: str | None = None,
            skills=("python",)) -> PersonProfile:
    """A profile as `load_profiles` builds it from one education entry
    graduating at `grad` (none when `grad` is None) and the skill names
    `skills`."""
    return PersonProfile(person_id, tuple(spells), grad is not None,
                         m(grad) if grad is not None else None, len(set(skills)))


def profile_set(profiles) -> ProfileSet:
    org_industry = {}
    for p in profiles:
        for s in p.spells:
            org_industry.setdefault(s.organization, s.industry)
    return ProfileSet(tuple(profiles), m(REFERENCE), org_industry)


def title_map(ps: ProfileSet, nmap: NormalizationMap) -> dict[str, str]:
    """Each raw spell title of `ps` -> its title under `nmap`, as
    `RunState.title_of` maps them without a translation table."""
    return {s.raw_title: nmap.lookup(s.raw_title) for s in ps.all_spells()}


def mean_years(sums: dict, key) -> Fraction | None:
    """The mean in years behind the (total months, holders) pair that
    `sums` (`JobIndex.experience_months` or `age_months`) keeps for `key`;
    None when the key has no holder."""
    total, n = sums.get(key, (0, 0))
    return Fraction(total, 12 * n) if n else None


@pytest.fixture(autouse=True)
def gc_thresholds():
    """`cli.main` sets the collector's thresholds for the whole process;
    each test gets back the thresholds it started with."""
    before = gc.get_threshold()
    yield before
    gc.set_threshold(*before)


@pytest.fixture(scope="session")
def dicts() -> TitleDictionaries:
    return TitleDictionaries.bundled()


def report_reference(out: Path) -> bytes:
    """The bytes `report.json` must have for the artifacts in `out`: every
    reported table as its `csv.reader` header and non-blank rows through
    one compact `json.dumps`, except the linked tables (`LINKED_CSVS`),
    which are given by size and `csv.DictReader` row count."""
    files = sorted(name for name in pipeline.REPORTED_CSVS if (out / name).exists())
    linked, tables = {}, {}
    for name in files:
        with open(out / name, encoding="utf-8", newline="") as fh:
            if name in pipeline.LINKED_CSVS:
                linked[name] = {"bytes": (out / name).stat().st_size,
                                "rows": len(list(csv.DictReader(fh)))}
                continue
            header, *rows = list(csv.reader(fh)) or [[]]
        tables[name.removesuffix(".csv")] = {
            "columns": header,
            "rows": [row for row in rows if row]}  # blank lines are no rows
    powerlaw = {prefix: json.loads(path.read_text(encoding="utf-8"))
                for prefix in ("job", "org")
                if (path := out / f"{prefix}_powerlaw.json").exists()}
    payload = {"files": files, "linked": linked, "powerlaw": powerlaw,
               "tables": tables}
    return (json.dumps(payload, ensure_ascii=False, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")
