from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from talentflow.dates import month_text
from talentflow.hops import (HopKind, build_hop_corpus, classify_hop,
                             extract_hops, read_hops_csv, write_hops_csv)
from talentflow.titles import build_normalization

from conftest import m, profile, profile_set, spell, title_map


def hops_of(spells):
    """The hops of one person's spells, titles taken as written."""
    return extract_hops("p", spells, {s.raw_title: s.raw_title for s in spells})


def pairs(hops):
    return {(h.src.raw_title, h.dst.raw_title) for h in hops}


def recount(corpus):
    kinds = [h.kind for h in corpus.hops]
    return kinds.count(HopKind.INTERNAL), kinds.count(HopKind.EXTERNAL)


def test_five_spell_reference_configuration():
    # A ends before B; C and D overlap B; E starts after B ends; D overlaps E.
    spells = [
        spell("A", "orgA", "i1", "2010-01", "2010-06"),
        spell("B", "orgB", "i1", "2010-08", "2012-08"),
        spell("C", "orgC", "i1", "2011-01", "2011-06"),
        spell("D", "orgD", "i1", "2011-09", "2012-12"),
        spell("E", "orgE", "i1", "2012-10", "2014-01"),
    ]
    hops = hops_of(spells)
    assert pairs(hops) == {("A", "B"), ("B", "E"), ("C", "D")}
    assert len(hops) == 3


def test_fully_overlapping_spells_yield_no_hops():
    spells = [spell("A", "orgA", "i1", "2010-01", "2012-01"),
              spell("B", "orgB", "i1", "2010-01", "2011-06")]
    assert hops_of(spells) == []


def test_sequential_chain():
    spells = [spell("X", "o1", "i1", "2010-01", "2011-01"),
              spell("Y", "o2", "i1", "2011-03", "2012-01"),
              spell("Z", "o3", "i1", "2012-05", "2013-01")]
    hops = hops_of(spells)
    assert pairs(hops) == {("X", "Y"), ("Y", "Z")}


def test_same_org_same_title_move_discarded():
    spells = [spell("civil engineer", "X", "i1", "2010-01", "2011-01"),
              spell("civil engineer", "X", "i1", "2011-02", "2012-01")]
    assert hops_of(spells) == []


def test_same_org_different_title_is_internal():
    spells = [spell("engineer", "X", "i1", "2010-01", "2011-01"),
              spell("manager", "X", "i1", "2011-02", "2012-01")]
    hops = hops_of(spells)
    assert len(hops) == 1
    assert hops[0].kind is HopKind.INTERNAL
    assert classify_hop(hops[0].src, hops[0].dst) is HopKind.INTERNAL


def test_same_title_across_orgs_is_external():
    spells = [spell("engineer", "AcmeA", "i1", "2010-01", "2011-01"),
              spell("engineer", "AcmeB", "i1", "2011-02", "2012-01")]
    hops = hops_of(spells)
    assert len(hops) == 1
    assert hops[0].kind is HopKind.EXTERNAL


def test_boundary_touch_counts_as_non_overlap():
    spells = [spell("A", "o1", "i1", "2010-01", "2011-01"),
              spell("B", "o2", "i1", "2011-01", "2012-01")]
    hops = hops_of(spells)
    assert pairs(hops) == {("A", "B")}


def test_tied_earliest_starts_all_get_hops():
    spells = [spell("A", "o1", "i1", "2010-01", "2010-12"),
              spell("B", "o2", "i1", "2011-01", "2012-01"),
              spell("C", "o3", "i1", "2011-01", "2011-06")]
    hops = hops_of(spells)
    assert pairs(hops) == {("A", "B"), ("A", "C")}


def test_ongoing_spell_duration_uses_reference_date():
    spells = [spell("A", "o1", "i1", "2019-01", None),
              spell("B", "o2", "i1", "2020-01", None)]
    hops = hops_of(spells)
    assert len(hops) == 1
    assert hops[0].stay_months == 12


# ---------------------------------------------------------------------------
# brute-force oracle: test every ordered pair independently of the
# implementation's candidate scan
# ---------------------------------------------------------------------------

def oracle_hops(spells):
    ends = [s.end_date for s in spells]
    result = set()
    for i, a in enumerate(spells):
        for j, b in enumerate(spells):
            if i == j or b.start_date < ends[i]:
                continue
            is_min = all(
                b.start_date <= c.start_date
                for k, c in enumerate(spells)
                if k != i and c.start_date >= ends[i]
            )
            if not is_min:
                continue
            if a.organization == b.organization and a.raw_title == b.raw_title:
                continue
            result.add((i, j))
    return result


@st.composite
def random_spells(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    out = []
    for i in range(n):
        start = draw(st.integers(min_value=0, max_value=60))
        dur = draw(st.integers(min_value=0, max_value=36))
        ongoing = draw(st.booleans())
        title = draw(st.sampled_from(["t1", "t2", "t3"]))
        org = draw(st.sampled_from(["o1", "o2", "o3"]))
        start_month = 2010 * 12 + start
        end = None if ongoing else month_text(start_month + dur)
        out.append(spell(title, org, "i1", month_text(start_month), end))
    return out


@settings(max_examples=300, deadline=None)
@given(random_spells())
def test_extraction_matches_pairwise_oracle(spells):
    got = hops_of(spells)

    def index_of(target):
        return next(i for i, s in enumerate(spells) if s is target)

    got_pairs = {(index_of(h.src), index_of(h.dst)) for h in got}
    assert got_pairs == oracle_hops(spells)
    # tied starts can exceed spells - 1, but never the number of ordered pairs
    assert len(got) <= len(spells) * (len(spells) - 1)


def test_hop_multiset_unchanged_by_profile_permutation(dicts):
    p1 = profile("p1", [spell("finance manager", "o1", "i1", "2010-01", "2011-01"),
                        spell("sales manager", "o2", "i1", "2011-02", "2012-01")])
    p2 = profile("p2", [spell("finance manager", "o1", "i1", "2012-01", "2013-01"),
                        spell("data analyst", "o3", "i1", "2013-02", "2014-01")])
    nmap = build_normalization({"finance manager": 5, "sales manager": 5,
                                "data analyst": 5}, dicts)
    ps1, ps2 = profile_set([p1, p2]), profile_set([p2, p1])
    c1 = build_hop_corpus(ps1, title_map(ps1, nmap), title_min_sup=1)
    c2 = build_hop_corpus(ps2, title_map(ps2, nmap), title_min_sup=1)
    assert c1.hops == c2.hops


def test_corpus_counts_match_recount(dicts):
    profiles = [
        profile("p1", [spell("finance manager", "o1", "i1", "2010-01", "2011-01"),
                       spell("manager, finance", "o2", "i1", "2011-02", "2012-01")]),
        profile("p2", [spell("software engineer", "o1", "i1", "2012-01", "2013-01"),
                       spell("finance manager", "o1", "i1", "2013-02", "2014-01")]),
    ]
    counts = {"finance manager": 10, "manager, finance": 10, "software engineer": 10}
    nmap = build_normalization(counts, dicts)
    ps = profile_set(profiles)
    corpus = build_hop_corpus(ps, title_map(ps, nmap), title_min_sup=1)
    assert (corpus.internal_count, corpus.external_count) == recount(corpus)
    assert corpus.internal_count + corpus.external_count == len(corpus)


def test_normalized_duplicate_discarded_in_corpus(dicts):
    # different spellings of the same job at the same organization
    profiles = [profile("p1", [
        spell("finance manager", "o1", "i1", "2010-01", "2011-01"),
        spell("manager, finance", "o1", "i1", "2011-02", "2012-01"),
    ])]
    nmap = build_normalization({"finance manager": 10, "manager, finance": 5}, dicts)
    ps = profile_set(profiles)
    corpus = build_hop_corpus(ps, title_map(ps, nmap), title_min_sup=1)
    assert len(corpus) == 0


def test_title_min_sup_drops_spells(dicts):
    profiles = [profile("p1", [
        spell("finance manager", "o1", "i1", "2010-01", "2011-01"),
        spell("rare title", "o2", "i1", "2011-02", "2012-01"),
        spell("finance manager", "o3", "i1", "2012-02", "2013-01"),
    ])]
    nmap = build_normalization({"finance manager": 2, "rare title": 1}, dicts)
    ps = profile_set(profiles)
    corpus = build_hop_corpus(ps, title_map(ps, nmap), title_min_sup=2)
    # the rare middle spell is dropped; hop goes between the survivors
    assert len(corpus) == 1
    hop = corpus.hops[0]
    assert (hop.src.raw_title, hop.dst.raw_title) == ("finance manager", "finance manager")
    assert hop.kind is HopKind.EXTERNAL


def test_high_min_sup_kills_all_hops(dicts):
    profiles = [profile("p1", [
        spell("finance manager", "o1", "i1", "2010-01", "2011-01"),
        spell("software engineer", "o2", "i1", "2011-02", "2012-01"),
    ])]
    nmap = build_normalization({"finance manager": 1, "software engineer": 1}, dicts)
    ps = profile_set(profiles)
    corpus = build_hop_corpus(ps, title_map(ps, nmap), title_min_sup=100)
    assert len(corpus) == 0


def test_non_core_users_included(dicts):
    # no education, no skills: still contributes hops
    p = profile("p1", [spell("finance manager", "o1", "i1", "2010-01", "2011-01"),
                       spell("finance manager", "o2", "i1", "2011-02", "2012-01")],
                skills=())
    nmap = build_normalization({"finance manager": 2}, dicts)
    ps = profile_set([p])
    corpus = build_hop_corpus(ps, title_map(ps, nmap), title_min_sup=1)
    assert len(corpus) == 1


def test_hop_csv_roundtrip(tmp_path, dicts):
    profiles = [
        profile("p1", [spell("finance manager", "o1", "i1", "2010-01", "2011-01"),
                       spell("manager, finance", "o2", "i2", "2011-02", None)]),
    ]
    nmap = build_normalization({"finance manager": 5, "manager, finance": 5}, dicts)
    ps = profile_set(profiles)
    corpus = build_hop_corpus(ps, title_map(ps, nmap), title_min_sup=1)
    path = tmp_path / "hops.csv"
    write_hops_csv(corpus, path)
    loaded = read_hops_csv(path)
    assert len(loaded) == len(corpus) == 1
    a, b = corpus.hops[0], loaded.hops[0]
    assert (a.person_id, a.src_title, a.dst_title, a.kind) == \
        (b.person_id, b.src_title, b.dst_title, b.kind)
    assert a.stay_months == b.stay_months == 12
    assert (loaded.internal_count, loaded.external_count) == recount(loaded)


def test_no_hop_spells_never_overlap(dicts):
    nmap = build_normalization({"t1": 1, "t2": 1, "t3": 1}, dicts)
    profiles = [
        profile(f"p{i}", [
            spell("t1", "o1", "i1", "2010-01", "2012-01"),
            spell("t2", "o2", "i1", "2011-01", "2013-01"),
            spell("t3", "o3", "i1", "2013-01", None),
        ])
        for i in range(3)
    ]
    ps = profile_set(profiles)
    corpus = build_hop_corpus(ps, title_map(ps, nmap), title_min_sup=1)
    for h in corpus.hops:
        assert h.src.end_date <= h.dst.start_date
