from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from talentflow.titles import NormalizationMap, build_normalization

FINANCE_MANAGER_VARIANTS = {
    "finance manager": 50,
    "manager, finance": 10,
    "manager - finance": 8,
    "finance mananger": 3,
    "finance manger": 2,
}


def test_finance_manager_variants_collapse(dicts):
    nmap = build_normalization(FINANCE_MANAGER_VARIANTS, dicts)
    assert nmap.stats.canonical == 1
    for variant in FINANCE_MANAGER_VARIANTS:
        result = nmap.lookup(variant)
        assert result.title == "finance manager"
        assert result.canonical


def test_research_director_forms_collapse(dicts):
    nmap = build_normalization({"research director": 5, "director of research": 9}, dicts)
    assert nmap.stats.canonical == 1
    assert nmap.normalize("research director") == "director of research"


def test_canonical_is_most_popular(dicts):
    nmap = build_normalization({"manager, finance": 60, "finance manager": 10}, dicts)
    assert nmap.normalize("finance manager") == "manager , finance"


def test_tie_breaks_shortest_then_lexicographic(dicts):
    nmap = build_normalization({"manager of finance": 5, "finance manager": 5}, dicts)
    assert nmap.normalize("manager of finance") == "finance manager"
    nmap = build_normalization({"sales engineer": 5, "engineer, sales": 5}, dicts)
    # equal counts; "engineer , sales" cleans longer than "sales engineer"
    assert nmap.normalize("engineer, sales") == "sales engineer"


def test_case_and_spacing_pool_counts(dicts):
    nmap = build_normalization({"Finance Manager": 30, "finance   manager": 30,
                                "manager, finance": 59}, dicts)
    # the two spellings clean to one title with count 60, beating 59
    assert nmap.normalize("manager, finance") == "finance manager"


def test_stats_invariant(dicts):
    counts = {
        "finance manager": 9, "manager, finance": 4,
        "software engineer": 7, "engineer of software": 2,
        "research director": 3,
        "zzz qqq": 2,  # no function: parse error
    }
    nmap = build_normalization(counts, dicts)
    stats = nmap.stats
    assert stats.parsed == 5
    assert stats.canonical == 3
    assert stats.duplicates == stats.parsed - stats.canonical == 2
    assert stats.errors == 1
    assert stats.distinct == 6
    assert stats.error_rate == Fraction(1, 6)


def test_duplicate_ratio_matches_construction(dicts):
    # 886 equivalence classes over 1000 parsed titles: 114 classes get one
    # inverted variant, so duplicates / parsed = 11.4%
    domains = ["finance", "software", "research", "marketing", "sales",
               "data", "security", "operations", "logistics", "banking"]
    functions = ["manager", "engineer", "director", "analyst", "consultant",
                 "developer", "specialist", "accountant", "advisor"]
    positions = ["", "senior", "junior", "lead", "chief", "deputy", "acting",
                 "interim", "principal", "associate", "staff", "global"]
    bases = []
    for pos in positions:
        for dom in domains:
            for func in functions:
                bases.append((pos, dom, func))
    assert len(bases) >= 886
    counts = {}
    for i, (pos, dom, func) in enumerate(bases[:886]):
        prefix = f"{pos} " if pos else ""
        counts[f"{prefix}{dom} {func}"] = 10
        if i < 114:
            counts[f"{prefix}{func}, {dom}"] = 1
    nmap = build_normalization(counts, dicts)
    assert nmap.stats.parsed == 1000
    assert nmap.stats.canonical == 886
    assert nmap.stats.duplicates == 114
    assert float(nmap.stats.duplicates) / nmap.stats.parsed == 0.114


def test_error_rate_never_rises_with_support_threshold(dicts):
    # junk titles are rare by construction; raising the threshold must not
    # raise the distinct-title error rate
    counts = {}
    for i in range(40):
        counts[f"title{i:02d} manager"] = 10 + i * 5
    for i in range(25):
        counts[f"junkword{i:02d} nothing"] = 1 + (i % 3)
    rates = []
    for min_sup in (1, 2, 5, 8, 10):
        retained = {t: c for t, c in counts.items() if c >= min_sup}
        stats = build_normalization(retained, dicts).stats
        rates.append(stats.error_rate)
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert rates[-1] == 0


def test_unknown_title_passthrough_flagged(dicts):
    nmap = build_normalization(FINANCE_MANAGER_VARIANTS, dicts)
    result = nmap.lookup("zzz specialist")
    assert result.title == "zzz specialist"
    assert not result.canonical


def test_unparseable_title_passthrough(dicts):
    nmap = build_normalization(FINANCE_MANAGER_VARIANTS, dicts)
    result = nmap.lookup("Strategic Synergy")
    assert result.title == "strategic synergy"
    assert not result.canonical
    assert nmap.lookup("???").title == "???"


def test_normalize_title_examples(dicts):
    nmap = build_normalization(FINANCE_MANAGER_VARIANTS, dicts)
    for _ in range(2):  # the second pass reads the memo
        assert nmap.normalize("manager - finance") == "finance manager"
        assert nmap.normalize("finance manager") == "finance manager"
        assert nmap.normalize("Strategic Synergy") == "strategic synergy"


def test_unseen_variant_with_known_key_still_maps(dicts):
    nmap = build_normalization({"finance manager": 50}, dicts)
    assert nmap.normalize("manager / finance") == "finance manager"


def test_canonical_titles_parse_to_their_own_key(dicts):
    nmap = build_normalization(FINANCE_MANAGER_VARIANTS, dicts)
    for key, canonical in nmap.canonical_by_key.items():
        assert nmap.parsed_by_title[canonical].key() == key


TITLE_POOL = [
    "finance manager", "manager, finance", "manager - finance",
    "finance mananger", "software engineer", "engineer of software",
    "senior software engineer", "research director", "director of research",
    "zzz specialist", "strategic synergy", "???", "sales analyst",
    "analyst, sales", "lead data scientist",
]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(TITLE_POOL), min_size=1, max_size=12),
       st.sampled_from(TITLE_POOL))
def test_normalize_idempotent(dicts, corpus, probe):
    counts = {}
    for t in corpus:
        counts[t] = counts.get(t, 0) + 1
    nmap = build_normalization(counts, dicts)
    once = nmap.normalize(probe)
    assert nmap.normalize(once) == once


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(TITLE_POOL), min_size=2, max_size=12))
def test_equivalence_closure(dicts, corpus):
    counts = {}
    for t in corpus:
        counts[t] = counts.get(t, 0) + 1
    nmap = build_normalization(counts, dicts)
    parsed = {}
    for t in counts:
        entry = nmap.parsed_by_title.get(nmap.lookup(t).title)
        if entry is not None:
            parsed[t] = entry
    for a in parsed:
        for b in parsed:
            if parsed[a].key() == parsed[b].key():
                assert nmap.normalize(a) == nmap.normalize(b)


def test_determinism_under_input_ordering(dicts):
    items = list(FINANCE_MANAGER_VARIANTS.items()) + [
        ("software engineer", 4), ("research director", 2)]
    rng = random.Random(0)
    maps = []
    for _ in range(4):
        rng.shuffle(items)
        maps.append(build_normalization(dict(items), dicts))
    first = maps[0]
    for other in maps[1:]:
        assert other.canonical_by_key == first.canonical_by_key
        assert other.parsed_by_title == first.parsed_by_title
        assert other.failures == first.failures


def test_csv_roundtrip(tmp_path, dicts):
    counts = dict(FINANCE_MANAGER_VARIANTS)
    counts["zzz qqq"] = 2
    nmap = build_normalization(counts, dicts)
    path = tmp_path / "map.csv"
    nmap.to_csv(path)
    loaded = NormalizationMap.from_csv(path, dicts)
    assert loaded.canonical_by_key == nmap.canonical_by_key
    assert loaded.parsed_by_title == nmap.parsed_by_title
    assert loaded.normalize("manager - finance") == "finance manager"

    errors = tmp_path / "errors.csv"
    nmap.write_error_report(errors)
    lines = errors.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "raw_title,count,error_code"
    assert any("zzz qqq" in line and "NO_PRIMARY_FUNCTION" in line for line in lines)
