from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from talentflow import pipeline
from talentflow.dates import Month
from talentflow.ingest import (EducationRecord, JobSpell, PersonProfile,
                               ProfileSet)
from talentflow.titles import TitleDictionaries


def m(text: str) -> Month:
    return Month.parse(text)


def spell(title: str, org: str, industry: str, start: str,
          end: str | None) -> JobSpell:
    return JobSpell(title, org, industry, m(start),
                    m(end) if end is not None else None)


def profile(person_id: str, spells=(), grad: str | None = None,
            skills=("python",)) -> PersonProfile:
    education = ()
    if grad is not None:
        education = (EducationRecord("University A", "BSc", m(grad)),)
    return PersonProfile(person_id, education, tuple(spells), tuple(skills))


def profile_set(profiles, reference: str = "2020-01") -> ProfileSet:
    org_industry = {}
    for p in profiles:
        for s in p.spells:
            org_industry.setdefault(s.organization, s.industry)
    return ProfileSet(tuple(profiles), m(reference), org_industry)


@pytest.fixture(scope="session")
def dicts() -> TitleDictionaries:
    return TitleDictionaries.bundled()


def report_reference(out: Path) -> bytes:
    """The bytes `report.json` must have for the artifacts in `out`: every
    reported table as `csv.DictReader` rows, through `json.dumps`."""
    files = sorted(name for name in pipeline.REPORTED_CSVS if (out / name).exists())
    tables = {}
    for name in files:
        with open(out / name, encoding="utf-8", newline="") as fh:
            tables[name.removesuffix(".csv")] = list(csv.DictReader(fh))
    powerlaw = {prefix: json.loads(path.read_text(encoding="utf-8"))
                for prefix in ("job", "org")
                if (path := out / f"{prefix}_powerlaw.json").exists()}
    payload = {"files": files, "powerlaw": powerlaw, "tables": tables}
    return (json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2)
            + "\n").encode("utf-8")
