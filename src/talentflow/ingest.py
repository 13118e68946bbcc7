"""Loading, validation and indexing of career-history profile files.

Input is JSON Lines, one profile object per line:

    {"person_id": "...",
     "education": [{"institution": "...", "degree": "...", "grad_date": "YYYY-MM"}],
     "spells": [{"title": "...", "organization": "...", "industry": "...",
                 "start": "YYYY-MM", "end": "YYYY-MM" | null}],
     "skills": ["...", ...]}

Dates load as month numbers (`dates.parse_month`), and a rejection
reason prints them back as `YYYY-MM`. An ongoing spell (absent or null
end) is closed at the reference date, and a spell that starts after the
reference date rejects its line, so every loaded spell ends at or after
its start.

A loaded profile keeps what the analysis reads: the person id, the job
spells, whether education is listed, the latest dated graduation month
(None without one) and the number of distinct non-empty trimmed skill
names, capped at `MAX_SKILLS`. Institutions, degrees and skill names are
not kept, but are checked like every other field, in line order.

String fields must be JSON strings of valid Unicode text; an absent or
null field reads as empty, so a required one is then missing. Malformed
lines (invalid UTF-8, bad or too deeply nested JSON, a bad field) are
rejected and reported with their line number; they never abort a load.
Each organization is bound to the industry it was first seen with; later
conflicts are logged and rewritten. Records are immutable NamedTuples,
equal to plain tuples of their fields.
"""

from __future__ import annotations

import json
import logging
import sys
from typing import Iterable, Mapping, NamedTuple

from .artifacts import write_csv
from .dates import month_text, parse_month

logger = logging.getLogger(__name__)

MAX_SKILLS = 50


class JobSpell(NamedTuple):
    """One job held by one person. An ongoing spell ends at the reference
    date it was loaded with."""

    raw_title: str
    organization: str
    industry: str
    start_date: int
    end_date: int


class PersonProfile(NamedTuple):
    """One person's spells, and the facts of education and skills that
    the metrics read. `grad_date` is the most recent graduation month,
    None if no education entry is dated."""

    person_id: str
    spells: tuple[JobSpell, ...]
    has_education: bool
    grad_date: int | None
    skill_count: int


class Rejection(NamedTuple):
    line_no: int
    reason: str


class LoadReport:
    """What a load rejected or rewrote; filled in as the load goes."""

    __slots__ = ("loaded", "rejections", "skill_truncations", "industry_conflicts")

    def __init__(self, rejections: list[Rejection] | None = None) -> None:
        self.loaded = 0
        self.rejections = [] if rejections is None else rejections
        self.skill_truncations = 0
        self.industry_conflicts: list[tuple[str, str, str]] = []

    def reject(self, line_no: int, reason: str) -> None:
        self.rejections.append(Rejection(line_no, reason))


class ProfileSet:
    """Collection of profiles plus the shared reference date.

    `org_industry` maps every organization to its unique industry and is
    consistent with every spell (conflicting records were rewritten on load).
    """

    __slots__ = ("profiles", "reference_date", "org_industry")

    def __init__(self, profiles: tuple[PersonProfile, ...], reference_date: int,
                 org_industry: Mapping[str, str]) -> None:
        self.profiles = profiles
        self.reference_date = reference_date
        self.org_industry = org_industry

    def __len__(self) -> int:
        return len(self.profiles)

    def __iter__(self):
        return iter(self.profiles)

    def by_id(self) -> dict[str, PersonProfile]:
        return {p.person_id: p for p in self.profiles}

    def all_spells(self) -> Iterable[JobSpell]:
        for p in self.profiles:
            yield from p.spells


def _checked(value, name: str) -> str:
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


def _text(value, name: str) -> str:
    """A kept string field, checked and interned, so that the many
    records repeating one organization or title share one string. Only
    kept fields are interned: a dropped interned string would leave its
    slot in the interpreter's table of interned strings."""
    return sys.intern(_checked(value, name))


def _parse_spell(entry, reference_date: int) -> JobSpell:
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
    start = parse_month(start_raw)
    if start > reference_date:
        raise ValueError(f"spell start {month_text(start)} is after reference date "
                         f"{month_text(reference_date)}")
    end_raw = entry.get("end")
    end = parse_month(end_raw) if end_raw is not None else reference_date
    if end < start:
        raise ValueError(f"spell end {month_text(end)} precedes start {month_text(start)}")
    return JobSpell(title, organization, industry, start, end)


def _list_field(obj, name) -> list:
    value = obj.get(name)
    if value is None:
        return []
    if not isinstance(value, list):
        raise ValueError(f"{name} must be an array")
    return value


def _parse_profile(obj, reference_date: int) -> PersonProfile:
    if not isinstance(obj, dict):
        raise ValueError("line is not a JSON object")
    person_id = _text(obj.get("person_id"), "person_id")
    if not person_id:
        raise ValueError("missing or empty person_id")
    education = _list_field(obj, "education")
    grad_date = None
    for entry in education:
        if not isinstance(entry, dict):
            raise ValueError("education entry is not an object")
        month = entry.get("grad_date")
        if month is not None:
            month = parse_month(month)
            grad_date = month if grad_date is None else max(grad_date, month)
        _checked(entry.get("institution"), "institution")
        _checked(entry.get("degree"), "degree")
    spells = tuple(_parse_spell(e, reference_date) for e in _list_field(obj, "spells"))
    skills = {_checked(s, "skill") for s in _list_field(obj, "skills")}
    skills.discard("")
    # the count is capped by the loader, once the line is known to load
    return PersonProfile(person_id, spells, bool(education), grad_date, len(skills))


def load_profiles(path, reference_date: int) -> tuple[ProfileSet, LoadReport]:
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
                profile = _parse_profile(json.loads(line), reference_date)
            except (ValueError, TypeError, RecursionError) as exc:
                report.reject(line_no, str(exc))
                continue
            if profile.person_id in seen_ids:
                report.reject(line_no, f"duplicate person_id {profile.person_id!r}")
                continue
            seen_ids.add(profile.person_id)

            skill_count = profile.skill_count
            if skill_count > MAX_SKILLS:
                logger.warning("profile %s lists %d skills, truncating to %d",
                               profile.person_id, skill_count, MAX_SKILLS)
                report.skill_truncations += 1
                skill_count = MAX_SKILLS

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
                    fixed_spells.append(spell._replace(industry=known))
                else:
                    fixed_spells.append(spell)

            profiles.append(profile._replace(spells=tuple(fixed_spells),
                                            skill_count=skill_count))
            report.loaded += 1

    return ProfileSet(tuple(profiles), reference_date, org_industry), report


def write_rejections(report: LoadReport, path) -> int:
    return write_csv(path, ["line_no", "reason"],
                     ((r.line_no, r.reason) for r in report.rejections))


def is_core_user(p: PersonProfile) -> bool:
    """True iff the profile has education, job spells and skills."""
    return p.has_education and bool(p.spells) and p.skill_count > 0


def support_filter(counts: Mapping[str, int], min_sup: int) -> set[str]:
    """Keys whose count meets the minimum support (boundary inclusive)."""
    if min_sup < 1:
        raise ValueError(f"min_sup must be >= 1, got {min_sup}")
    return {key for key, n in counts.items() if n >= min_sup}
