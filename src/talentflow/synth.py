"""Seeded generator of synthetic profile corpora with ground truth.

Careers are built from a small title vocabulary whose surface forms get
noise injected (inverted separator forms, misspellings matching the
shipped dictionary aliases, parenthesized suffixes, one-off junk titles).
Alongside the JSON Lines profile file the generator writes a sidecar with
the true title classes, the expected canonical surface per class, and the
expected hop list computed by an independent pairwise scan. Generation is
a pure function of the spec: the same seed yields identical bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Iterable

from .dates import month_text, parse_month
from .titles.lexer import clean_title

FUNCTIONS = ["manager", "engineer", "director", "analyst", "consultant",
             "developer", "specialist", "accountant"]

# misspellings resolved by alias lines in the shipped function dictionary
TYPOS = {
    "manager": ["manger", "mananger"],
    "engineer": ["enginer", "engeneer"],
    "director": ["directer"],
    "analyst": ["analist"],
    "consultant": ["consultent"],
    "developer": ["develper"],
    "specialist": ["specialst"],
    "accountant": ["acountant"],
}

DOMAINS = ["finance", "software", "research", "marketing", "sales", "data",
           "security", "operations", "logistics", "banking"]

POSITIONS = ["senior", "junior", "lead", "chief"]

PAREN_INFOS = ["contract", "part time", "acting", "temporary"]

JUNK_WORDS = ["synergy", "holistic", "paradigm", "dynamic", "vision",
              "quantum", "alpha", "omega"]

SKILLS = ["python", "sql", "excel", "communication", "leadership", "java",
          "accounting", "negotiation", "forecasting", "auditing", "selling",
          "branding", "recruiting", "planning", "budgeting", "reporting",
          "modelling", "scheduling", "logistics", "writing", "editing",
          "testing", "debugging", "networking", "analytics", "design",
          "research", "statistics", "presentation", "procurement", "coaching",
          "compliance", "valuation", "risk", "css", "javascript", "linux",
          "docker", "kubernetes", "tableau"]

INSTITUTIONS = [f"University {c}" for c in "ABCDEFGH"]
DEGREES = ["BSc", "BA", "MSc", "MBA", "PhD"]

VARIANT_FORMS = ("comma", "dash", "slash", "of")


@dataclass(frozen=True)
class SynthSpec:
    persons: int = 1000
    organizations: int = 120
    industries: int = 8
    seed: int = 42
    min_spells: int = 1
    max_spells: int = 6
    title_classes: int = 150
    variant_rate: float = 0.35
    typo_rate: float = 0.08
    paren_rate: float = 0.06
    junk_rate: float = 0.02
    overlap_prob: float = 0.15
    same_org_prob: float = 0.25
    duplicate_prob: float = 0.05
    education_rate: float = 0.85
    skill_rate: float = 0.9
    max_skills: int = 30
    ongoing_rate: float = 0.3
    reference_date: str = "2020-01"

    def validate(self) -> None:
        if self.persons < 0:
            raise ValueError("persons must be >= 0")
        if self.organizations < 1 or self.industries < 1:
            raise ValueError("need at least one organization and industry")
        if not 0 <= self.min_spells <= self.max_spells:
            raise ValueError("invalid spell count range")
        # generate() draws distinct (position, domain, function) bases
        max_classes = (len(POSITIONS) + 1) * len(DOMAINS) * len(FUNCTIONS)
        if not 1 <= self.title_classes <= max_classes:
            raise ValueError(f"title_classes must be in [1, {max_classes}], "
                             f"got {self.title_classes}")
        for name in ("variant_rate", "typo_rate", "paren_rate", "junk_rate",
                     "overlap_prob", "same_org_prob", "duplicate_prob",
                     "education_rate", "skill_rate", "ongoing_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        parse_month(self.reference_date)


@dataclass
class _Spell:
    class_id: str | None  # None for junk titles
    surface: str
    organization: str
    industry: str
    start: int  # a month number, as `dates.parse_month` gives
    end: int | None

    def identity(self) -> tuple[str, str]:
        """Ground-truth normalization identity: two spells normalize to the
        same title iff their identities are equal."""
        if self.class_id is not None:
            return ("class", self.class_id)
        return ("junk", clean_title(self.surface))


@dataclass
class SynthResult:
    profiles: list[dict]
    sidecar: dict = field(repr=False)


def _base_class(pos: str | None, dom: str, func: str) -> str:
    return " ".join(p for p in (pos, dom, func) if p)


def _surface_for(rng: random.Random, spec: SynthSpec, pos: str | None,
                 dom: str, func: str, info: str | None) -> str:
    func_surface = func
    if rng.random() < spec.typo_rate:
        func_surface = rng.choice(TYPOS[func])
    if rng.random() < spec.variant_rate:
        form = rng.choice(VARIANT_FORMS)
    else:
        form = "plain"
    prefix = f"{pos} " if pos else ""
    if form == "plain":
        title = f"{prefix}{dom} {func_surface}"
    elif form == "comma":
        title = f"{prefix}{func_surface}, {dom}"
    elif form == "dash":
        title = f"{prefix}{func_surface} - {dom}"
    elif form == "slash":
        title = f"{prefix}{func_surface} / {dom}"
    else:
        title = f"{prefix}{func_surface} of {dom}"
    if info is not None:
        title = f"{title} ({info})"
    return title


def _expected_hops(person_id: str, spells: list[_Spell], reference: int) -> list[dict]:
    """Independent pairwise scan implementing the hop definition.

    For every spell, destinations are the other spells with the smallest
    start at or after its resolved end; moves keeping both organization
    and normalized title are duplicate listings and dropped.
    """
    hops = []
    ends = [s.end if s.end is not None else reference for s in spells]
    for i, src in enumerate(spells):
        starts = [s.start for j, s in enumerate(spells)
                  if j != i and s.start >= ends[i]]
        if not starts:
            continue
        first = min(starts)
        for j, dst in enumerate(spells):
            if j == i or dst.start != first:
                continue
            same_org = src.organization == dst.organization
            if same_org and src.identity() == dst.identity():
                continue
            hops.append({
                "person_id": person_id,
                "src_index": i,
                "dst_index": j,
                "kind": "internal" if same_org else "external",
                "src_identity": src.identity(),
                "dst_identity": dst.identity(),
                "duration_months": ends[i] - src.start,
            })
    hops.sort(key=lambda h: (h["src_index"], h["dst_index"]))
    return hops


def _canonical_of(members: dict[str, int]) -> str:
    """Expected canonical form of one class: highest count, then shortest,
    then lexicographically smallest cleaned surface."""
    return min(members, key=lambda t: (-members[t], len(t), t))


def generate(spec: SynthSpec) -> SynthResult:
    """Generate profiles plus the ground-truth sidecar."""
    spec.validate()
    rng = random.Random(spec.seed)
    reference = parse_month(spec.reference_date)
    latest_start = (reference // 12 - 1) * 12 + 5  # June of the year before

    orgs = [f"Org{i:04d}" for i in range(spec.organizations)]
    org_industry = {org: f"i{rng.randrange(spec.industries):02d}" for org in orgs}

    # fixed class pool with a popularity skew so rare classes exercise
    # the support filters
    pool: list[tuple[str | None, str, str]] = []
    seen_bases: set[str] = set()
    while len(pool) < spec.title_classes:
        pos = rng.choice(POSITIONS) if rng.random() < 0.25 else None
        dom = rng.choice(DOMAINS)
        func = rng.choice(FUNCTIONS)
        base = _base_class(pos, dom, func)
        if base not in seen_bases:
            seen_bases.add(base)
            pool.append((pos, dom, func))
    weights = [1.0 / (rank + 1) for rank in range(len(pool))]

    class_members: dict[str, dict[str, int]] = {}
    profiles: list[dict] = []
    all_hops: list[dict] = []
    spell_total = 0

    for idx in range(spec.persons):
        person_id = f"p{idx:06d}"
        spells: list[_Spell] = []
        count = rng.randint(spec.min_spells, spec.max_spells)
        start = rng.randint(2004, 2012) * 12 + rng.randint(1, 12) - 1
        prev: _Spell | None = None
        prev_parts: tuple[str | None, str, str] | None = None
        prev_info: str | None = None
        for j in range(count):
            if prev is not None:
                if rng.random() < spec.overlap_prob:
                    start = prev.start
                else:
                    prev_end = prev.end if prev.end is not None else reference
                    start = prev_end + rng.randint(0, 6)
            if start > latest_start:
                break
            duration = rng.randint(4, 36)
            ongoing = j == count - 1 and rng.random() < spec.ongoing_rate
            end = None if ongoing else start + duration

            duplicate = prev is not None and rng.random() < spec.duplicate_prob
            if duplicate or (prev is not None and rng.random() < spec.same_org_prob):
                org = prev.organization
            else:
                org = rng.choice(orgs)

            if duplicate and prev is not None and prev.class_id is not None:
                pos, dom, func = prev_parts
                info = prev_info
                class_id = prev.class_id
                surface = _surface_for(rng, spec, pos, dom, func, info)
            elif rng.random() < spec.junk_rate:
                surface = (f"{rng.choice(JUNK_WORDS)} {rng.choice(JUNK_WORDS)} "
                           f"{rng.randint(1, 99999)}")
                class_id = None
            else:
                pos, dom, func = rng.choices(pool, weights=weights, k=1)[0]
                info = rng.choice(PAREN_INFOS) if rng.random() < spec.paren_rate else None
                base = _base_class(pos, dom, func)
                class_id = f"{base} ({info})" if info else base
                surface = _surface_for(rng, spec, pos, dom, func, info)

            if class_id is not None:
                members = class_members.setdefault(class_id, {})
                cleaned = clean_title(surface)
                members[cleaned] = members.get(cleaned, 0) + 1
                prev_parts, prev_info = (pos, dom, func), info

            spells.append(_Spell(class_id, surface, org, org_industry[org], start, end))
            prev = spells[-1]

        education = []
        if rng.random() < spec.education_rate:
            first_start = spells[0].start if spells else 2010 * 12 + 5
            for _ in range(rng.randint(1, 2)):
                grad_year = first_start // 12 - rng.randint(-1, 8)
                education.append({
                    "institution": rng.choice(INSTITUTIONS),
                    "degree": rng.choice(DEGREES),
                    "grad_date": month_text(grad_year * 12 + rng.randint(1, 12) - 1),
                })
        skills: list[str] = []
        if rng.random() < spec.skill_rate:
            skills = rng.sample(SKILLS, rng.randint(1, min(spec.max_skills, len(SKILLS))))

        profiles.append({
            "person_id": person_id,
            "education": education,
            "spells": [{
                "title": s.surface,
                "organization": s.organization,
                "industry": s.industry,
                "start": month_text(s.start),
                "end": month_text(s.end) if s.end is not None else None,
            } for s in spells],
            "skills": skills,
        })
        spell_total += len(spells)
        all_hops.extend(_expected_hops(person_id, spells, reference))

    # canonical titles depend on the final global counts, so hop identities
    # are resolved only after the whole corpus is generated
    canonical_cache = {cid: _canonical_of(m) for cid, m in class_members.items()}

    def title_of(identity: tuple[str, str]) -> str:
        kind, value = identity
        return canonical_cache[value] if kind == "class" else value

    for hop in all_hops:
        hop["src_title"] = title_of(hop.pop("src_identity"))
        hop["dst_title"] = title_of(hop.pop("dst_identity"))

    classes = {
        cid: {"canonical": canonical_cache[cid],
              "members": dict(sorted(members.items()))}
        for cid, members in sorted(class_members.items())
    }
    internal = sum(1 for h in all_hops if h["kind"] == "internal")
    sidecar = {
        "seed": spec.seed,
        "persons": spec.persons,
        "spells": spell_total,
        "reference_date": spec.reference_date,
        "classes": classes,
        "hops": all_hops,
        "hop_counts": {"internal": internal, "external": len(all_hops) - internal},
    }
    return SynthResult(profiles=profiles, sidecar=sidecar)


def write_profiles_jsonl(profiles: Iterable[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for profile in profiles:
            fh.write(json.dumps(profile, ensure_ascii=False) + "\n")


def write_sidecar(sidecar: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, ensure_ascii=False, sort_keys=True,
                  separators=(",", ":"))
        fh.write("\n")
