"""Loading, validation and indexing of career-history profile files.

Input is JSON Lines, one profile object per line:

    {"person_id": "...",
     "education": [{"institution": "...", "degree": "...", "grad_date": "YYYY-MM"}],
     "spells": [{"title": "...", "organization": "...", "industry": "...",
                 "start": "YYYY-MM", "end": "YYYY-MM" | null}],
     "skills": ["...", ...]}

String fields must be JSON strings of valid Unicode text; an absent or
null field reads as empty, so a required one is then missing. Malformed
lines (invalid UTF-8, bad or too deeply nested JSON, a bad field) are
rejected and reported with their line number; they never abort a load.
Each organization is bound to the industry it was first seen with; later
conflicts are logged and rewritten.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .artifacts import write_csv
from .dates import Month

logger = logging.getLogger(__name__)

MAX_SKILLS = 50


@dataclass(frozen=True)
class EducationRecord:
    institution: str
    degree: str
    grad_date: Month | None


@dataclass(frozen=True)
class JobSpell:
    """One job held by one person. `end_date` of None means ongoing."""

    raw_title: str
    organization: str
    industry: str
    start_date: Month
    end_date: Month | None

    def resolved_end(self, reference_date: Month) -> Month:
        """End date with ongoing spells closed at the reference date."""
        return self.end_date if self.end_date is not None else reference_date


@dataclass(frozen=True)
class PersonProfile:
    person_id: str
    education: tuple[EducationRecord, ...]
    spells: tuple[JobSpell, ...]
    skills: tuple[str, ...]

    def grad_date(self) -> Month | None:
        """Most recent graduation month, or None if no dated education."""
        dates = [e.grad_date for e in self.education if e.grad_date is not None]
        return max(dates) if dates else None


@dataclass(frozen=True)
class Rejection:
    line_no: int
    reason: str


@dataclass
class LoadReport:
    loaded: int = 0
    rejections: list[Rejection] = field(default_factory=list)
    skill_truncations: int = 0
    industry_conflicts: list[tuple[str, str, str]] = field(default_factory=list)

    def reject(self, line_no: int, reason: str) -> None:
        self.rejections.append(Rejection(line_no, reason))


@dataclass(frozen=True)
class ProfileSet:
    """Immutable collection of profiles plus the shared reference date.

    `org_industry` maps every organization to its unique industry and is
    consistent with every spell (conflicting records were rewritten on load).
    """

    profiles: tuple[PersonProfile, ...]
    reference_date: Month
    org_industry: Mapping[str, str]

    def __len__(self) -> int:
        return len(self.profiles)

    def __iter__(self):
        return iter(self.profiles)

    def by_id(self) -> dict[str, PersonProfile]:
        return {p.person_id: p for p in self.profiles}

    def all_spells(self) -> Iterable[JobSpell]:
        for p in self.profiles:
            yield from p.spells


def _text(value, name: str) -> str:
    """A string field, stripped; "" when absent or null. Anything but a
    string that encodes to UTF-8 (no lone surrogate) raises ValueError."""
    if isinstance(value, str):
        if not value.isascii():
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"{name} is not valid Unicode text") from None
        return value.strip()
    if value is None:
        return ""
    raise ValueError(f"{name} is not a string")


def _clean_skills(raw, report: LoadReport, person_id: str) -> tuple[str, ...]:
    seen: set[str] = set()
    out: list[str] = []
    for name in raw:
        if not name or name in seen:
            continue
        seen.add(name)
        out.append(name)
    if len(out) > MAX_SKILLS:
        logger.warning("profile %s lists %d skills, truncating to %d",
                       person_id, len(out), MAX_SKILLS)
        report.skill_truncations += 1
        out = out[:MAX_SKILLS]
    return tuple(out)


def _parse_education(raw) -> tuple[EducationRecord, ...]:
    records = []
    for entry in raw:
        if not isinstance(entry, dict):
            raise ValueError("education entry is not an object")
        grad = entry.get("grad_date")
        grad_date = Month.parse(grad) if grad is not None else None
        records.append(EducationRecord(
            institution=_text(entry.get("institution"), "institution"),
            degree=_text(entry.get("degree"), "degree"),
            grad_date=grad_date,
        ))
    return tuple(records)


def _parse_spell(entry) -> JobSpell:
    if not isinstance(entry, dict):
        raise ValueError("spell entry is not an object")
    title = _text(entry.get("title"), "title")
    organization = _text(entry.get("organization"), "organization")
    industry = _text(entry.get("industry"), "industry")
    if not title:
        raise ValueError("spell missing title")
    if not organization:
        raise ValueError("spell missing organization")
    if not industry:
        raise ValueError("spell missing industry")
    start_raw = entry.get("start")
    if start_raw is None:
        raise ValueError("spell missing start date")
    start = Month.parse(start_raw)
    end_raw = entry.get("end")
    end = Month.parse(end_raw) if end_raw is not None else None
    if end is not None and end < start:
        raise ValueError(f"spell end {end} precedes start {start}")
    return JobSpell(title, organization, industry, start, end)


def _list_field(obj, name) -> list:
    value = obj.get(name)
    if value is None:
        return []
    if not isinstance(value, list):
        raise ValueError(f"{name} must be an array")
    return value


def _parse_profile(obj) -> PersonProfile:
    if not isinstance(obj, dict):
        raise ValueError("line is not a JSON object")
    person_id = _text(obj.get("person_id"), "person_id")
    if not person_id:
        raise ValueError("missing or empty person_id")
    education = _parse_education(_list_field(obj, "education"))
    spells = tuple(_parse_spell(e) for e in _list_field(obj, "spells"))
    skills = tuple(_text(s, "skill") for s in _list_field(obj, "skills"))
    return PersonProfile(person_id, education, spells, skills)


def load_profiles(path, reference_date: Month) -> tuple[ProfileSet, LoadReport]:
    """Load a JSON Lines profile file.

    Returns the profile set plus a report of rejected lines, skill
    truncations and organization/industry conflicts. An unreadable file
    raises OSError; a malformed line only rejects that line. Lines end at
    LF, CR or CRLF, and a line of only whitespace is skipped.
    """
    report = LoadReport()
    profiles: list[PersonProfile] = []
    seen_ids: set[str] = set()
    org_industry: dict[str, str] = {}

    # a byte that is not UTF-8 reads as a lone surrogate; its line is
    # rejected with the decode error below
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                if not line.isascii():
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                profile = _parse_profile(json.loads(line))
            except (ValueError, TypeError, RecursionError) as exc:
                report.reject(line_no, str(exc))
                continue
            if profile.person_id in seen_ids:
                report.reject(line_no, f"duplicate person_id {profile.person_id!r}")
                continue
            seen_ids.add(profile.person_id)

            skills = _clean_skills(profile.skills, report, profile.person_id)

            # First-seen industry wins; conflicting spells are rewritten so the
            # org -> industry map stays consistent with every stored spell.
            fixed_spells = []
            for spell in profile.spells:
                known = org_industry.get(spell.organization)
                if known is None:
                    org_industry[spell.organization] = spell.industry
                    fixed_spells.append(spell)
                elif known != spell.industry:
                    logger.warning(
                        "organization %r industry conflict: keeping %r, ignoring %r",
                        spell.organization, known, spell.industry)
                    report.industry_conflicts.append(
                        (spell.organization, known, spell.industry))
                    fixed_spells.append(JobSpell(
                        spell.raw_title, spell.organization, known,
                        spell.start_date, spell.end_date))
                else:
                    fixed_spells.append(spell)

            profiles.append(PersonProfile(
                profile.person_id, profile.education, tuple(fixed_spells), skills))
            report.loaded += 1

    return ProfileSet(tuple(profiles), reference_date, org_industry), report


def write_rejections(report: LoadReport, path) -> None:
    write_csv(path, ["line_no", "reason"],
              ((r.line_no, r.reason) for r in report.rejections))


def is_core_user(p: PersonProfile) -> bool:
    """True iff the profile has education, job spells and skills."""
    return bool(p.education) and bool(p.spells) and bool(p.skills)


def support_filter(counts: Mapping[str, int], min_sup: int) -> set[str]:
    """Keys whose count meets the minimum support (boundary inclusive)."""
    if min_sup < 1:
        raise ValueError(f"min_sup must be >= 1, got {min_sup}")
    return {key for key, n in counts.items() if n >= min_sup}
