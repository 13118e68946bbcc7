from __future__ import annotations

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from talentflow.dates import format_years, month_text, parse_month
from talentflow.hops import Hop, HopKind, build_hop_corpus
from talentflow.ingest import ProfileSet, is_core_user, load_profiles
from talentflow.metrics import (CohortKey, CohortTable, GainLabel, JobHolding, JobIndex,
                                REASON_LOW_SUPPORT, REASON_ZERO_GAIN,
                                build_cohort_table, build_level_gain_records,
                                cohort_key_for, distribution_summaries,
                                exact_order, job_age_months, job_level,
                                level_gain, promotion_tables,
                                promotion_vs_duration, quartiles,
                                work_experience_months)
from talentflow.synth import SynthSpec, generate, write_profiles_jsonl
from talentflow.titles import TitleDictionaries, build_normalization

from conftest import m, mean_years, profile, profile_set, spell, title_map

REF = m("2020-01")


def test_work_experience_arithmetic():
    p = profile("p", [], grad="2010-06")
    s = spell("engineer", "Acme", "i1", "2011-01", "2013-06")
    assert work_experience_months(p.grad_date, s) == 36

    same_month = spell("engineer", "Acme", "i1", "2015-01", "2015-01")
    p2 = profile("p", [], grad="2015-01")
    assert work_experience_months(p2.grad_date, same_month) == 0

    p3 = profile("p", [], grad="2016-01")
    assert work_experience_months(p3.grad_date, same_month) == -12


def test_work_experience_unavailable_without_grad():
    p = profile("p", [], grad=None)
    s = spell("engineer", "Acme", "i1", "2011-01", "2013-06")
    assert work_experience_months(p.grad_date, s) is None


def test_job_age_arithmetic():
    s = spell("engineer", "Acme", "i1", "2015-01", None)
    assert job_age_months(s, m("2017-01")) == 24
    assert job_age_months(s, REF) == 60


def _tiny_index(dicts):
    profiles = [
        profile("p1", [spell("finance manager", "OrgA", "i1", "2011-01", "2013-06")],
                grad="2010-06"),                      # wk 3.0, age 9.0
        profile("p2", [spell("manager, finance", "OrgA", "i1", "2012-01", "2015-06")],
                grad="2010-06"),                      # wk 5.0, age 8.0
        profile("p3", [spell("finance manager", "OrgB", "i1", "2014-01", "2016-01")],
                grad="2015-01"),                      # wk 1.0, age 6.0
        profile("p4", [spell("finance manager", "OrgB", "i1", "2015-01", "2015-01")],
                grad="2015-01"),                      # wk 0 -> excluded
    ]
    nmap = build_normalization({"finance manager": 10, "manager, finance": 5}, dicts)
    ps = profile_set(profiles)
    return JobIndex.build(ps, title_map(ps, nmap))


def test_averages_over_title_industry(dicts):
    idx = _tiny_index(dicts)
    assert mean_years(idx.experience_months, ("finance manager", "i1")) == Fraction(3)
    assert mean_years(idx.age_months, ("finance manager", "i1")) == Fraction(9 + 8 + 6 + 5, 4)


def test_job_age_includes_nonpositive_experience_holders(dicts):
    # p4 has zero work experience but a valid job age
    idx = _tiny_index(dicts)
    assert idx.age_months[("finance manager", "i1")][1] == 4
    assert idx.experience_months[("finance manager", "i1")][1] == 3


def test_job_level_and_support(dicts):
    idx = _tiny_index(dicts)
    assert job_level("finance manager", "OrgA", idx) == Fraction(4)
    assert idx.job_months[("finance manager", "OrgA")] == (96, 2)
    assert job_level("finance manager", "OrgB", idx) == Fraction(1)
    assert idx.job_months[("finance manager", "OrgB")] == (12, 1)  # zero-exp holder excluded
    assert job_level("finance manager", "OrgZ", idx) is None


def test_avg_empty_group_reported_absent(dicts):
    idx = _tiny_index(dicts)
    assert mean_years(idx.experience_months, ("software engineer", "i1")) is None


def test_index_merges_duplicate_person_job(dicts):
    profiles = [profile("p1", [
        spell("finance manager", "OrgA", "i1", "2011-01", "2012-01"),
        spell("finance manager", "OrgA", "i1", "2013-01", "2014-01"),
    ], grad="2010-01")]
    nmap = build_normalization({"finance manager": 2}, dicts)
    ps = profile_set(profiles)
    idx = JobIndex.build(ps, title_map(ps, nmap))
    assert len(idx.holdings) == 1
    h = idx.holdings[0]
    assert h.age_months == 108  # from the earliest start, 2011-01
    assert h.wk_months == 48  # to the latest end, 2014-01


def test_index_merges_a_person_job_split_by_another_job(dicts):
    # A and A' are one (title, org) with B between them; p2 comes first in
    # the set but after p1 in id order
    profiles = [
        profile("p2", [
            spell("finance manager", "OrgB", "i2", "2012-01", "2014-01"),   # A
            spell("finance manager", "OrgA", "i1", "2014-01", "2015-01"),   # B
            spell("finance manager", "OrgB", "i2", "2011-01", "2013-01"),   # A'
        ], grad="2010-01"),
        profile("p1", [
            spell("sales manager", "OrgA", "i1", "2011-01", "2012-01"),
            spell("finance manager", "OrgA", "i1", "2012-01", "2013-01"),
        ], grad="2010-01"),
    ]
    nmap = build_normalization({"finance manager": 4, "sales manager": 1}, dicts)
    ps = profile_set(profiles)
    idx = JobIndex.build(ps, title_map(ps, nmap))
    assert [(h.person_id, h.title, h.organization) for h in idx.holdings] == [
        ("p1", "finance manager", "OrgA"), ("p1", "sales manager", "OrgA"),
        ("p2", "finance manager", "OrgA"), ("p2", "finance manager", "OrgB")]
    merged = idx.holdings[3]
    assert merged.industry == "i2"
    assert merged.wk_months == 48  # to the latest end, 2014-01
    assert merged.age_months == 108  # from the earliest start, 2011-01
    assert idx.job_months[("finance manager", "OrgB")] == (48, 1)


def test_index_uses_core_users_only(dicts):
    profiles = [
        profile("p1", [spell("finance manager", "OrgA", "i1", "2011-01", "2012-01")],
                grad="2010-01"),
        profile("p2", [spell("finance manager", "OrgA", "i1", "2011-01", "2012-01")],
                grad=None, skills=()),
    ]
    nmap = build_normalization({"finance manager": 2}, dicts)
    ps = profile_set(profiles)
    idx = JobIndex.build(ps, title_map(ps, nmap))
    assert {h.person_id for h in idx.holdings} == {"p1"}


def _hop(dicts, src_title, src_org, dst_title, dst_org, months=12):
    end = month_text(m("2012-01") + months)
    p = profile("hopper", [
        spell(src_title, src_org, "i1", "2012-01", end),
        spell(dst_title, dst_org, "i1", end, None),
    ], grad="2010-01")
    nmap = build_normalization({src_title: 10, dst_title: 10}, dicts)
    ps = profile_set([p])
    corpus = build_hop_corpus(ps, title_map(ps, nmap), title_min_sup=1)
    assert len(corpus) == 1
    return corpus.hops[0]


def _index_with_levels(dicts, src_level_years, dst_level_years, holders=10):
    """Index where (finance manager, OrgA) and (sales manager, OrgB) have
    the given levels, each backed by `holders` people."""
    profiles = []
    for i in range(holders):
        profiles.append(profile(
            f"a{i}", [spell("finance manager", "OrgA", "i1", "2011-01",
                            f"{2010 + src_level_years}-01")],
            grad="2010-01"))
    for i in range(holders):
        profiles.append(profile(
            f"b{i}", [spell("sales manager", "OrgB", "i1", "2011-01",
                            f"{2010 + dst_level_years}-01")],
            grad="2010-01"))
    nmap = build_normalization({"finance manager": 10, "sales manager": 10}, dicts)
    ps = profile_set(profiles)
    return JobIndex.build(ps, title_map(ps, nmap))


def test_level_gain_promotion(dicts):
    idx = _index_with_levels(dicts, 5, 7)
    hop = _hop(dicts, "finance manager", "OrgA", "sales manager", "OrgB")
    record = level_gain(hop, idx, job_min_sup=10)
    assert record.gain == 2
    assert record.label is GainLabel.PROMOTION


def test_level_gain_demotion(dicts):
    idx = _index_with_levels(dicts, 5, 4)
    hop = _hop(dicts, "finance manager", "OrgA", "sales manager", "OrgB")
    record = level_gain(hop, idx, job_min_sup=10)
    assert record.gain == -1
    assert record.label is GainLabel.DEMOTION


def test_level_gain_unsupported_below_min_holders(dicts):
    idx = _index_with_levels(dicts, 5, 7, holders=9)
    hop = _hop(dicts, "finance manager", "OrgA", "sales manager", "OrgB")
    record = level_gain(hop, idx, job_min_sup=10)
    assert record.label is GainLabel.UNSUPPORTED
    assert record.reason == REASON_LOW_SUPPORT


def test_level_gain_zero_is_unsupported(dicts):
    idx = _index_with_levels(dicts, 5, 5)
    hop = _hop(dicts, "finance manager", "OrgA", "sales manager", "OrgB")
    record = level_gain(hop, idx, job_min_sup=10)
    assert record.gain == 0
    assert record.label is GainLabel.UNSUPPORTED
    assert record.reason == REASON_ZERO_GAIN


def test_promotion_table_counts(dicts):
    idx = _index_with_levels(dicts, 5, 7)
    ext = _hop(dicts, "finance manager", "OrgA", "sales manager", "OrgB")
    records = [level_gain(ext, idx, 10)] * 2
    # internal demotion: same org, different title
    profiles = []
    for i in range(10):
        profiles.append(profile(
            f"a{i}", [spell("finance manager", "OrgA", "i1", "2011-01", "2015-01")],
            grad="2010-01"))
        profiles.append(profile(
            f"b{i}", [spell("sales manager", "OrgA", "i1", "2011-01", "2014-01")],
            grad="2010-01"))
    nmap = build_normalization({"finance manager": 10, "sales manager": 10}, dicts)
    ps = profile_set(profiles)
    idx3 = JobIndex.build(ps, title_map(ps, nmap))
    p = profile("hopper", [
        spell("finance manager", "OrgA", "i1", "2012-01", "2013-01"),
        spell("sales manager", "OrgA", "i1", "2013-01", None),
    ], grad="2010-01")
    ps = profile_set([p])
    corpus = build_hop_corpus(ps, title_map(ps, nmap), title_min_sup=1)
    records.append(level_gain(corpus.hops[0], idx3, 10))

    table = promotion_tables(records)
    assert table.external_promotions == 2
    assert table.external_demotions == 0
    assert table.internal_promotions == 0
    assert table.internal_demotions == 1
    assert table.total == 3


def test_promotion_table_empty():
    table = promotion_tables([])
    assert table.total == 0
    assert table.promotions_total == table.demotions_total == 0


def test_promotion_vs_duration_fraction_and_suppression(dicts):
    idx_p = _index_with_levels(dicts, 5, 7)
    idx_d = _index_with_levels(dicts, 5, 4)
    promo = _hop(dicts, "finance manager", "OrgA", "sales manager", "OrgB", months=18)
    records = [level_gain(promo, idx_p, 10)] * 4 + [level_gain(promo, idx_d, 10)]
    cells = promotion_vs_duration(records, min_sup=5)
    assert len(cells) == 1
    cell = cells[0]
    assert cell.duration_bin == 1
    assert cell.promotions == 4 and cell.total == 5
    assert cell.fraction == Fraction(4, 5)
    assert not cell.suppressed

    cells = promotion_vs_duration(records, min_sup=6)
    assert cells[0].suppressed
    assert cells[0].fraction is None


def test_cohort_fraction_arithmetic():
    key = CohortKey(2, 1, 5)
    table = CohortTable({key: (3, 1)}, min_sup=1)
    assert table.fraction(key) == Fraction(3, 4)
    all_ext = CohortTable({key: (7, 0)}, min_sup=1)
    assert all_ext.fraction(key) == 1
    sparse = CohortTable({key: (66, 33)}, min_sup=100)
    assert sparse.fraction(key) is None  # 99 hops at support 100
    just_enough = CohortTable({key: (67, 33)}, min_sup=100)
    assert just_enough.fraction(key) == Fraction(67, 100)


def test_cohort_membership_at_source_exit(dicts):
    p = profile("p", [
        spell("finance manager", "OrgA", "i1", "2013-01", "2015-07"),
        spell("sales manager", "OrgB", "i1", "2015-07", None),
    ], grad="2013-01", skills=tuple(f"s{i}" for i in range(12)))
    nmap = build_normalization({"finance manager": 5, "sales manager": 5}, dicts)
    ps = profile_set([p])
    corpus = build_hop_corpus(ps, title_map(ps, nmap), title_min_sup=1)
    key = cohort_key_for(p, corpus.hops[0], REF)
    # wk exp at src end: 2013-01 -> 2015-07 = 2.5y -> bin 2
    # src job age: 2013-01 -> 2020-01 = 7y -> bin 7; 12 skills -> bin 10
    assert key == CohortKey(wk_exp_bin=2, job_age_bin=7, skill_bin=10)


def test_cohort_requires_positive_experience(dicts):
    p = profile("p", [
        spell("finance manager", "OrgA", "i1", "2013-01", "2015-07"),
        spell("sales manager", "OrgB", "i1", "2015-07", None),
    ], grad="2016-01")
    nmap = build_normalization({"finance manager": 5, "sales manager": 5}, dicts)
    ps = profile_set([p])
    corpus = build_hop_corpus(ps, title_map(ps, nmap), title_min_sup=1)
    assert cohort_key_for(p, corpus.hops[0], REF) is None


def test_quartiles_examples():
    s = quartiles([10, 20, 30])
    assert s.median == 20
    assert s.minimum == 10 and s.maximum == 30
    assert s.q1 == 15 and s.q3 == 25
    assert quartiles([]) is None


def test_distribution_summaries_shapes(dicts):
    profiles = [
        profile("p1", [spell("finance manager", "OrgA", "i1", "2011-01", "2013-01")],
                grad="2010-01", skills=tuple(f"s{i}" for i in range(10))),
        profile("p2", [spell("finance manager", "OrgB", "i1", "2012-01", "2014-01")],
                grad="2010-01", skills=tuple(f"s{i}" for i in range(20))),
        profile("p3", [spell("sales manager", "OrgA", "i1", "2013-01", "2015-01")],
                grad="2010-01", skills=tuple(f"s{i}" for i in range(30))),
        profile("nc", [spell("sales manager", "OrgA", "i1", "2013-01", "2015-01")],
                grad=None, skills=()),  # non-core: excluded
    ]
    nmap = build_normalization({"finance manager": 5, "sales manager": 5}, dicts)
    ps = profile_set(profiles)
    idx = JobIndex.build(ps, title_map(ps, nmap))
    dists = {d.name: d for d in distribution_summaries(ps, idx)}
    assert dists["skill_count"].summary.median == 20
    assert dists["skill_count"].histogram == ((10, 1), (20, 1), (30, 1))
    # all work experience values: 3, 4, 5 years
    assert dists["work_experience"].summary.count == 3
    assert dists["job_level"].summary.count == 3  # three distinct (title, org) jobs


def test_degenerate_distribution_single_bin(dicts):
    profiles = [
        profile(f"p{i}", [spell("finance manager", f"Org{i}", "i1", "2012-01", "2014-01")],
                grad="2012-01", skills=("a",))
        for i in range(4)
    ]
    nmap = build_normalization({"finance manager": 5}, dicts)
    ps = profile_set(profiles)
    idx = JobIndex.build(ps, title_map(ps, nmap))
    dists = {d.name: d for d in distribution_summaries(ps, idx)}
    assert dists["work_experience"].histogram == ((2, 4),)


# ---------------------------------------------------------------------------
# oracle equivalence on a synthetic corpus
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def synth_setup(tmp_path_factory):
    dicts_local = TitleDictionaries.bundled()
    spec = SynthSpec(persons=400, organizations=30, industries=5, seed=11,
                     title_classes=60)
    result = generate(spec)
    path = tmp_path_factory.mktemp("synth") / "profiles.jsonl"
    write_profiles_jsonl(result.profiles, path)
    ps, report = load_profiles(path, parse_month(spec.reference_date))
    assert not report.rejections
    counts = {}
    for s in ps.all_spells():
        counts[s.raw_title] = counts.get(s.raw_title, 0) + 1
    nmap = build_normalization(counts, dicts_local)
    titles = title_map(ps, nmap)
    idx = JobIndex.build(ps, titles)
    corpus = build_hop_corpus(ps, titles, title_min_sup=1)
    return ps, nmap, idx, corpus


def _oracle_holdings(ps, nmap):
    """Float full-scan recomputation, structured independently of JobIndex."""
    rows = {}
    for p in ps:
        if not (p.has_education and p.spells and p.skill_count):
            continue
        grad = p.grad_date
        for s in p.spells:
            title = nmap.lookup(s.raw_title)
            key = (p.person_id, title, s.organization)
            row = rows.get(key)
            if row is None:
                rows[key] = [s.industry, s.start_date, s.end_date, grad]
            else:
                row[1] = min(row[1], s.start_date)
                row[2] = max(row[2], s.end_date)
    return rows


def test_title_industry_means_match_full_scan_oracle(synth_setup):
    ps, nmap, idx, _ = synth_setup
    rows = _oracle_holdings(ps, nmap)
    by_ti: dict[tuple, list] = {}
    for (pid, title, org), (industry, start, end, grad) in rows.items():
        by_ti.setdefault((title, industry), []).append((start, end, grad))
    checked = 0
    for (title, industry), entries in by_ti.items():
        wk = [(e - g) / 12.0 for (s, e, g) in entries
              if g is not None and e > g]
        ages = [(ps.reference_date - s) / 12.0 for (s, e, g) in entries
                if s <= ps.reference_date]
        got_wk = mean_years(idx.experience_months, (title, industry))
        got_age = mean_years(idx.age_months, (title, industry))
        if wk:
            assert got_wk is not None
            assert abs(float(got_wk) - sum(wk) / len(wk)) <= 1e-9 * max(1.0, abs(float(got_wk)))
            checked += 1
        else:
            assert got_wk is None
        if ages:
            assert abs(float(got_age) - sum(ages) / len(ages)) <= 1e-9
    assert checked > 20


def test_job_levels_match_full_scan_oracle(synth_setup):
    ps, nmap, idx, _ = synth_setup
    rows = _oracle_holdings(ps, nmap)
    by_tc: dict[tuple, list] = {}
    for (pid, title, org), (industry, start, end, grad) in rows.items():
        by_tc.setdefault((title, org), []).append((end, grad))
    checked = 0
    for (title, org), entries in by_tc.items():
        wk = [(e - g) / 12.0 for (e, g) in entries
              if g is not None and e > g]
        got = job_level(title, org, idx)
        if wk:
            assert abs(float(got) - sum(wk) / len(wk)) <= 1e-9
            assert idx.job_months[(title, org)][1] == len(wk)
            checked += 1
        else:
            assert got is None
    assert checked > 50


def test_job_level_texts_render_the_exact_levels(synth_setup):
    _, _, idx, _ = synth_setup
    levels = {key: job_level(*key, idx) for key, (_, n) in idx.job_months.items() if n}
    assert idx.job_level_texts.keys() == levels.keys()
    assert len(levels) > 50
    for key, level in levels.items():
        assert idx.job_level_texts[key] == format_years(level)


def test_label_sign_coherence_and_bounds(synth_setup):
    ps, nmap, idx, corpus = synth_setup
    records = build_level_gain_records(corpus, idx, job_min_sup=2)
    assert any(r.label is not GainLabel.UNSUPPORTED for r in records)
    for r in records:
        if r.label is GainLabel.PROMOTION:
            assert r.gain > 0
        elif r.label is GainLabel.DEMOTION:
            assert r.gain < 0
        elif r.reason == REASON_ZERO_GAIN:
            assert r.gain == 0
    cells = promotion_vs_duration(records, min_sup=1)
    for cell in cells:
        assert 0 <= cell.fraction <= 1


def test_promotion_tables_match_recount(synth_setup):
    ps, nmap, idx, corpus = synth_setup
    records = build_level_gain_records(corpus, idx, job_min_sup=2)
    table = promotion_tables(records)
    recount = {"external": {"promotion": 0, "demotion": 0},
               "internal": {"promotion": 0, "demotion": 0}}
    for r in records:
        if r.label is GainLabel.UNSUPPORTED:
            continue
        recount[r.hop.kind.value][r.label.value] += 1
    assert table.external_promotions == recount["external"]["promotion"]
    assert table.external_demotions == recount["external"]["demotion"]
    assert table.internal_promotions == recount["internal"]["promotion"]
    assert table.internal_demotions == recount["internal"]["demotion"]


def test_cohort_totals_match_classified_hops(synth_setup):
    ps, nmap, idx, corpus = synth_setup
    table = build_cohort_table(corpus, ps, min_sup=1)
    by_id = ps.by_id()
    eligible = sum(
        1 for h in corpus.hops
        if cohort_key_for(by_id[h.person_id], h, ps.reference_date) is not None)
    assert sum(e + i for e, i in table.cells.values()) == eligible
    for key, ext, internal, fraction in table.rows():
        if fraction is not None:
            assert 0 <= fraction <= 1


def test_shift_invariance_of_levels_and_gains(dicts):
    base_profiles = []
    for i in range(12):
        base_profiles.append(profile(
            f"a{i}", [spell("finance manager", "OrgA", "i1", "2011-01", "2014-01")],
            grad="2010-01"))
        base_profiles.append(profile(
            f"b{i}", [spell("sales manager", "OrgB", "i1", "2011-01", "2016-01")],
            grad="2010-01"))
    nmap = build_normalization({"finance manager": 5, "sales manager": 5}, dicts)

    def shifted(years):
        out = []
        for p in base_profiles:
            grad = p.grad_date
            out.append(profile(p.person_id, p.spells,
                               grad=month_text(grad - 12 * years)))
        return profile_set(out)

    ps0, ps2 = shifted(0), shifted(2)
    idx0 = JobIndex.build(ps0, title_map(ps0, nmap))
    idx2 = JobIndex.build(ps2, title_map(ps2, nmap))
    for key in idx0.job_months:
        assert job_level(*key, idx2) == job_level(*key, idx0) + 2

    hop = _hop(dicts, "finance manager", "OrgA", "sales manager", "OrgB")
    g0 = level_gain(hop, idx0, job_min_sup=1).gain
    g2 = level_gain(hop, idx2, job_min_sup=1).gain
    assert g0 == g2


def test_quartiles_match_numpy_oracle(synth_setup):
    ps, nmap, idx, _ = synth_setup
    wk = [Fraction(h.wk_months, 12) for h in idx.holdings
          if h.wk_months is not None and h.wk_months > 0]
    s = quartiles(wk)
    expected = np.percentile(np.array([float(v) for v in wk]), [0, 25, 50, 75, 100])
    got = [float(s.minimum), float(s.q1), float(s.median), float(s.q3), float(s.maximum)]
    assert np.allclose(got, expected, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# month aggregates vs full-scan Fraction oracles on random holdings
# ---------------------------------------------------------------------------

_holdings = st.lists(st.builds(
    JobHolding,
    person_id=st.sampled_from(["p1", "p2", "p3"]),
    title=st.sampled_from(["t1", "t2", "t3"]),
    organization=st.sampled_from(["o1", "o2"]),
    industry=st.sampled_from(["i1", "i2"]),
    wk_months=st.none() | st.integers(-60, 480),
    age_months=st.integers(0, 480),
), max_size=40)


def _scan_mean(values):
    return sum(values, Fraction(0)) / len(values) if values else None


def _scan_positive_wk(holdings):
    return [Fraction(h.wk_months, 12) for h in holdings
            if h.wk_months is not None and h.wk_months > 0]


def _scan_ages(holdings):
    return [Fraction(h.age_months, 12) for h in holdings]


@given(_holdings)
def test_aggregates_match_full_scan_fraction_means(holdings):
    idx = JobIndex(holdings)
    for title in ("t1", "t2", "t3", "absent"):
        for industry in ("i1", "i2"):
            group = [h for h in holdings if (h.title, h.industry) == (title, industry)]
            wk = _scan_positive_wk(group)
            ages = _scan_ages(group)
            assert mean_years(idx.experience_months, (title, industry)) == _scan_mean(wk)
            assert mean_years(idx.age_months, (title, industry)) == _scan_mean(ages)
        for org in ("o1", "o2"):
            wk = _scan_positive_wk(
                [h for h in holdings if (h.title, h.organization) == (title, org)])
            assert job_level(title, org, idx) == _scan_mean(wk)
            assert idx.job_months.get((title, org), (0, 0))[1] == len(wk)


_JOBS = [(t, o) for t in ("t1", "t2", "t3", "absent") for o in ("o1", "o2")]


@given(_holdings, st.integers(1, 4))
def test_level_gain_is_the_exact_level_difference(holdings, job_min_sup):
    idx = JobIndex(holdings)
    for src in _JOBS:
        for dst in _JOBS:
            hop = Hop("p1", spell(src[0], src[1], "i1", "2010-01", "2011-01"),
                      spell(dst[0], dst[1], "i1", "2011-01", None),
                      src[0], dst[0], HopKind.EXTERNAL, 12)
            record = level_gain(hop, idx, job_min_sup)
            src_level, dst_level = job_level(*src, idx), job_level(*dst, idx)
            if src_level is None or dst_level is None:
                assert record.gain is None
            else:
                assert record.gain == dst_level - src_level
            supports = [len(_scan_positive_wk(
                [h for h in holdings if (h.title, h.organization) == job]))
                for job in (src, dst)]
            if min(supports) < job_min_sup:
                assert record == (hop, record.gain, GainLabel.UNSUPPORTED,
                                  REASON_LOW_SUPPORT)
            elif record.gain > 0:
                assert record == (hop, record.gain, GainLabel.PROMOTION, None)
            elif record.gain < 0:
                assert record == (hop, record.gain, GainLabel.DEMOTION, None)
            else:
                assert record == (hop, 0, GainLabel.UNSUPPORTED, REASON_ZERO_GAIN)


@given(_holdings)
def test_month_summaries_match_fraction_quartiles(holdings):
    idx = JobIndex(holdings)
    dists = {d.name: d for d in
             distribution_summaries(ProfileSet((), REF, {}), idx)}
    wk = _scan_positive_wk(holdings)
    ages = _scan_ages(holdings)
    levels = []
    for key in {(h.title, h.organization) for h in holdings}:
        level = _scan_mean(_scan_positive_wk(
            [h for h in holdings if (h.title, h.organization) == key]))
        if level is not None:
            levels.append(level)
    for name, values in (("work_experience", wk), ("job_age", ages), ("job_level", levels)):
        assert dists[name].summary == quartiles(values)
        assert dists[name].histogram == tuple(sorted(Counter(v // 1 for v in values).items()))


@given(st.lists(st.fractions(-10**6, 10**6), max_size=30),
       st.fractions(min_value=Fraction(1, 1200), max_value=10**6),
       st.lists(st.integers(-5, 5), min_size=2, max_size=10))
def test_exact_order_sorts_like_fractions(fs, base, offsets):
    # offsets of 1e-25 vanish in the float of `base`, so these collide
    close = [base + Fraction(k, 10**25) for k in offsets]
    assert len({float(v) for v in close}) == 1
    values = fs + close
    assert sorted(values, key=exact_order) == sorted(values)
