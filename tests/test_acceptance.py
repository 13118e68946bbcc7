"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with `pytest tests/test_acceptance.py -v -s`).

Expected values come from independent oracles computed inside the tests:
pairwise scans, dense matrix iteration, transitive-closure reachability,
sort-based counting, and an inverse-CDF sampler with a known exponent.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from talentflow.cli import main as cli_main
from talentflow.dates import Month
from talentflow.graph import (JOB_MODE, ORG_MODE, STRONG, WEAK, TalentGraph,
                              build_graph, connected_components, degree_ccdf,
                              fit_power_law, sparsity, weighted_pagerank)
from talentflow.hops import HopKind, build_hop_corpus, extract_hops
from talentflow.ingest import (JobSpell, PersonProfile, load_profiles,
                               support_filter)
from talentflow.metrics import (GainLabel, JobIndex, avg_job_age,
                                avg_work_experience, build_cohort_table,
                                build_level_gain_records, job_level,
                                job_support, promotion_tables,
                                promotion_vs_duration, work_experience_months)
from talentflow.synth import SynthSpec, generate, write_profiles_jsonl
from talentflow.titles import TitleDictionaries, build_normalization

from conftest import profile, spell

REF = Month(2020, 1)


def _passed(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS - {message}")


@pytest.fixture(scope="module")
def dicts():
    return TitleDictionaries.bundled()


@pytest.fixture(scope="module")
def labeled_corpus(dicts, tmp_path_factory):
    """Mid-size corpus dense enough to produce promotion/demotion labels."""
    spec = SynthSpec(persons=1500, organizations=25, industries=5, seed=77,
                     title_classes=50)
    result = generate(spec)
    path = tmp_path_factory.mktemp("acc") / "profiles.jsonl"
    write_profiles_jsonl(result.profiles, path)
    ps, report = load_profiles(path, Month.parse(spec.reference_date))
    assert not report.rejections
    counts = Counter(s.raw_title for s in ps.all_spells())
    nmap = build_normalization(counts, dicts)
    corpus = build_hop_corpus(ps, nmap, title_min_sup=10)
    idx = JobIndex.build(ps, nmap)
    return ps, nmap, corpus, idx


# ---------------------------------------------------------------------------
# 1. hop definition on the five-spell reference configuration
# ---------------------------------------------------------------------------

def test_criterion_01_hop_configuration():
    spells = [
        spell("A", "orgA", "i1", "2010-01", "2010-06"),
        spell("B", "orgB", "i1", "2010-08", "2012-08"),
        spell("C", "orgC", "i1", "2011-01", "2011-06"),
        spell("D", "orgD", "i1", "2011-09", "2012-12"),
        spell("E", "orgE", "i1", "2012-10", "2014-01"),
    ]
    person = profile("p", spells)
    extract_hops(person, REF)  # warm-up
    t0 = time.perf_counter()
    hops = extract_hops(person, REF)
    elapsed = time.perf_counter() - t0
    got = {(h.src.raw_title, h.dst.raw_title) for h in hops}
    assert got == {("A", "B"), ("B", "E"), ("C", "D")}
    assert len(hops) == 3
    assert elapsed < 1e-3
    _passed(1, f"five-spell configuration yields exactly A>B, B>E, C>D "
               f"({elapsed * 1e6:.0f} us)")


# ---------------------------------------------------------------------------
# 2. normalizer equivalence classes
# ---------------------------------------------------------------------------

def test_criterion_02_normalizer_equivalence(dicts):
    finance_variants = ["finance manager", "manager, finance",
                        "manager - finance", "finance mananger",
                        "finance manger"]
    director_variants = ["research director", "director of research"]
    counts = {t: 20 - i for i, t in enumerate(finance_variants)}
    counts.update({t: 10 - i for i, t in enumerate(director_variants)})
    nmap = build_normalization(counts, dicts)
    finance_norm = {nmap.normalize(t) for t in finance_variants}
    director_norm = {nmap.normalize(t) for t in director_variants}
    assert finance_norm == {"finance manager"}
    assert director_norm == {"research director"}
    _passed(2, "five finance-manager variants and both research-director "
               "forms collapse to single canonical titles")


# ---------------------------------------------------------------------------
# 3. sparsity formula at the published scale
# ---------------------------------------------------------------------------

def test_criterion_03_sparsity_formula():
    n = 30531
    nodes = tuple(f"n{i}" for i in range(n))
    edges = {}
    for offset in (1, 2):
        for i in range(n):
            if len(edges) == 45412:
                break
            edges[(f"n{i}", f"n{(i + offset) % n}")] = 1
    g = TalentGraph(mode=ORG_MODE, nodes=nodes, edges=edges)
    value = sparsity(g)
    assert round(value, 4) == 0.0049
    assert round(value, 3) == 0.005
    _passed(3, f"30,531 nodes / 45,412 edges -> {value:.4f}% ~ 0.005%")


# ---------------------------------------------------------------------------
# 4. metric and hop oracle equivalence on a 5,000-person corpus
# ---------------------------------------------------------------------------

def test_criterion_04_metric_oracles(dicts, tmp_path):
    t0 = time.perf_counter()
    spec = SynthSpec(persons=5000, organizations=40, industries=6, seed=101,
                     title_classes=80)
    result = generate(spec)
    path = tmp_path / "profiles.jsonl"
    write_profiles_jsonl(result.profiles, path)
    ps, _ = load_profiles(path, Month.parse(spec.reference_date))
    reference = ps.reference_date

    counts = Counter(s.raw_title for s in ps.all_spells())
    nmap = build_normalization(counts, dicts)
    corpus = build_hop_corpus(ps, nmap, title_min_sup=10)
    idx = JobIndex.build(ps, nmap)

    # --- hop extraction vs O(n^2) pairwise oracle (exact) ----------------
    norm_cache: dict[str, str] = {}

    def norm(title: str) -> str:
        if title not in norm_cache:
            norm_cache[title] = nmap.normalize(title)
        return norm_cache[title]

    norm_counts = Counter(norm(s.raw_title) for s in ps.all_spells())
    retained = {t for t, c in norm_counts.items() if c >= 10}

    def spell_key(person_id, s):
        return (person_id, norm(s.raw_title), s.organization,
                str(s.start_date), str(s.end_date) if s.end_date else "")

    oracle = Counter()
    for p in ps:
        pool = [s for s in p.spells if norm(s.raw_title) in retained]
        ends = [s.end_date if s.end_date is not None else reference for s in pool]
        for i, a in enumerate(pool):
            for j, b in enumerate(pool):
                if i == j or b.start_date < ends[i]:
                    continue
                if any(k != i and c.start_date >= ends[i]
                       and c.start_date < b.start_date
                       for k, c in enumerate(pool)):
                    continue
                if (a.organization == b.organization
                        and norm(a.raw_title) == norm(b.raw_title)):
                    continue
                kind = "internal" if a.organization == b.organization else "external"
                oracle[spell_key(p.person_id, a) + spell_key(p.person_id, b) + (kind,)] += 1
    got = Counter(
        spell_key(h.person_id, h.src) + spell_key(h.person_id, h.dst)
        + (h.kind.value,)
        for h in corpus.hops)
    assert got == oracle
    assert len(corpus) == sum(oracle.values())

    # --- work experience / job age (per person-job) ----------------------
    rel = lambda a, b: abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))
    scanned = 0
    for p in ps:
        grads = [e.grad_date for e in p.education if e.grad_date is not None]
        grad = max(grads) if grads else None
        for s in p.spells:
            got_wk = work_experience_months(p, s, reference)
            if grad is None:
                assert got_wk is None
                continue
            end = s.end_date if s.end_date is not None else reference
            assert got_wk == end.ordinal - grad.ordinal
            scanned += 1
    assert scanned > 5000

    # --- per-(title, industry) and per-(title, org) means ----------------
    merged = {}
    for p in sorted(ps, key=lambda p: p.person_id):
        if not (p.education and p.spells and p.skills):
            continue
        grads = [e.grad_date for e in p.education if e.grad_date is not None]
        grad = max(grads) if grads else None
        for s in p.spells:
            key = (p.person_id, norm(s.raw_title), s.organization)
            end = s.end_date if s.end_date is not None else reference
            row = merged.get(key)
            if row is None:
                merged[key] = [s.industry, s.start_date, end, grad]
            else:
                row[1] = min(row[1], s.start_date)
                row[2] = max(row[2], end)

    by_ti: dict = {}
    by_tc: dict = {}
    for (pid, title, org), (industry, start, end, grad) in merged.items():
        by_ti.setdefault((title, industry), []).append((start, end, grad))
        by_tc.setdefault((title, org), []).append((start, end, grad))

    checked_ti = 0
    for (title, industry), entries in by_ti.items():
        wk = [(e.ordinal - g.ordinal) / 12.0 for (s, e, g) in entries
              if g is not None and e.ordinal > g.ordinal]
        ages = [(reference.ordinal - s.ordinal) / 12.0 for (s, e, g) in entries]
        got_wk = avg_work_experience(title, industry, idx)
        got_age = avg_job_age(title, industry, idx)
        if wk:
            assert rel(float(got_wk), sum(wk) / len(wk))
            checked_ti += 1
        else:
            assert got_wk is None
        assert rel(float(got_age), sum(ages) / len(ages))
    assert checked_ti > 100

    checked_tc = 0
    for (title, org), entries in by_tc.items():
        wk = [(e.ordinal - g.ordinal) / 12.0 for (s, e, g) in entries
              if g is not None and e.ordinal > g.ordinal]
        got = job_level(title, org, idx)
        if wk:
            assert rel(float(got), sum(wk) / len(wk))
            assert job_support(title, org, idx) == len(wk)
            checked_tc += 1
        else:
            assert got is None
    assert checked_tc > 200

    # --- cohort fractions vs independent integer-month binning -----------
    table = build_cohort_table(corpus, ps, min_sup=1)
    by_id = ps.by_id()
    cells = {}
    for h in corpus.hops:
        p = by_id[h.person_id]
        grads = [e.grad_date for e in p.education if e.grad_date is not None]
        if not grads:
            continue
        grad = max(grads)
        end = h.src.end_date if h.src.end_date is not None else reference
        wk_months = end.ordinal - grad.ordinal
        age_months = reference.ordinal - h.src.start_date.ordinal
        if wk_months <= 0 or age_months < 0:
            continue
        key = (wk_months // 12, age_months // 12, (len(p.skills) // 5) * 5)
        cell = cells.setdefault(key, [0, 0])
        cell[0 if h.kind is HopKind.EXTERNAL else 1] += 1
    assert len(cells) == len(table.cells)
    for key, (ext, internal) in cells.items():
        from talentflow.metrics import CohortKey
        ck = CohortKey(*key)
        assert table.cells[ck] == (ext, internal)
        assert table.fraction(ck) == Fraction(ext, ext + internal)

    # --- level gains: recompute from oracle job levels -------------------
    records = build_level_gain_records(corpus, idx, job_min_sup=10)

    def oracle_level(title, org):
        entries = by_tc.get((title, org), [])
        wk = [(e.ordinal - g.ordinal) / 12.0 for (s, e, g) in entries
              if g is not None and e.ordinal > g.ordinal]
        return (sum(wk) / len(wk), len(wk)) if wk else (None, 0)

    labeled = 0
    for r in records:
        src_level, src_n = oracle_level(r.hop.src_title, r.hop.src.organization)
        dst_level, dst_n = oracle_level(r.hop.dst_title, r.hop.dst.organization)
        if src_n < 10 or dst_n < 10:
            assert r.label is GainLabel.UNSUPPORTED
            continue
        gain = dst_level - src_level
        assert rel(float(r.gain), gain)
        if r.label is GainLabel.PROMOTION:
            assert r.gain > 0
            labeled += 1
        elif r.label is GainLabel.DEMOTION:
            assert r.gain < 0
            labeled += 1
    assert labeled > 50

    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    _passed(4, f"5,000-person corpus: experience/age/level/cohort metrics match "
               f"full-scan oracles, {len(corpus)} hops match the pairwise "
               f"oracle exactly ({elapsed:.1f} s)")


# ---------------------------------------------------------------------------
# 5. pagerank distribution, oracle, symmetry, scaling
# ---------------------------------------------------------------------------

def test_criterion_05_pagerank():
    import random as _random

    def dense_oracle(g, damping=0.85):
        nodes = list(g.nodes)
        index = {v: i for i, v in enumerate(nodes)}
        n = len(nodes)
        P = np.zeros((n, n))
        for u in nodes:
            out = [(v, w) for (s, v), w in g.edges.items() if s == u]
            total = sum(w for _, w in out)
            if total == 0:
                P[index[u], :] = 1.0 / n
            else:
                for v, w in out:
                    P[index[u], index[v]] = w / total
        M = damping * P + (1 - damping) / n
        r = np.full(n, 1.0 / n)
        for _ in range(100000):
            nxt = M.T @ r
            if np.abs(nxt - r).sum() < 1e-15:
                r = nxt
                break
            r = nxt
        return {v: float(x) for v, x in zip(nodes, r / r.sum())}

    rng = _random.Random(55)
    test_set = []
    for _ in range(40):
        n = rng.randint(1, 10)
        edges = {}
        for _ in range(rng.randint(0, 3 * n)):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                edges[(f"n{a}", f"n{b}")] = rng.randint(1, 9)
        nodes = tuple(sorted({f"n{i}" for i in range(n)}
                             | {v for pair in edges for v in pair}))
        test_set.append(TalentGraph(mode=ORG_MODE, nodes=nodes, edges=edges))
    test_set.append(TalentGraph(
        mode=ORG_MODE, nodes=("a", "b", "c", "d"),
        edges={("a", "b"): 3, ("b", "c"): 1, ("c", "a"): 2, ("a", "d"): 1,
               ("d", "a"): 5}))

    for g in test_set:
        result = weighted_pagerank(g, tol=1e-13, max_iter=10000)
        assert abs(sum(result.scores.values()) - 1.0) <= 1e-9
        assert all(s >= 0 for s in result.scores.values())
        expected = dense_oracle(g)
        for v in g.nodes:
            assert abs(result.scores[v] - expected[v]) <= 1e-6

    cycle = TalentGraph(mode=ORG_MODE, nodes=("a", "b", "c"),
                        edges={("a", "b"): 1, ("b", "c"): 1, ("c", "a"): 1})
    for score in weighted_pagerank(cycle).scores.values():
        assert abs(score - 1 / 3) <= 1e-9

    base = {("a", "b"): 2, ("b", "c"): 3, ("c", "a"): 1, ("a", "c"): 4}
    g1 = TalentGraph(mode=ORG_MODE, nodes=("a", "b", "c"), edges=base)
    g7 = TalentGraph(mode=ORG_MODE, nodes=("a", "b", "c"),
                     edges={k: 7 * w for k, w in base.items()})
    r1 = weighted_pagerank(g1).scores
    r7 = weighted_pagerank(g7).scores
    assert sorted(r1, key=r1.get) == sorted(r7, key=r7.get)
    for v in r1:
        assert abs(r1[v] - r7[v]) <= 1e-10

    _passed(5, f"pagerank sums to 1 on {len(test_set)} graphs, matches the "
               "dense oracle within 1e-6, 3-cycle is uniform, x7 weight "
               "scaling preserves scores")


# ---------------------------------------------------------------------------
# 6. components vs reachability oracle
# ---------------------------------------------------------------------------

def test_criterion_06_components():
    import random as _random

    def closure_components(nodes, edges, mode):
        index = {v: i for i, v in enumerate(nodes)}
        n = len(nodes)
        reach = np.eye(n, dtype=bool)
        for (a, b) in edges:
            reach[index[a], index[b]] = True
            if mode == WEAK:
                reach[index[b], index[a]] = True
        for k in range(n):
            reach = reach | (reach[:, k:k + 1] & reach[k:k + 1, :])
        groups = set()
        for v in nodes:
            i = index[v]
            groups.add(tuple(sorted(
                w for w in nodes if reach[i, index[w]] and reach[index[w], i])))
        return groups

    rng = _random.Random(202)
    for trial in range(100):
        n = rng.randint(1, 50)
        nodes = tuple(f"n{i:02d}" for i in range(n))
        edges = {}
        for _ in range(rng.randint(0, 3 * n)):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                edges[(nodes[a], nodes[b])] = 1
        g = TalentGraph(mode=ORG_MODE, nodes=nodes, edges=edges)
        strong = connected_components(g, STRONG)
        weak = connected_components(g, WEAK)
        assert set(strong.components) == closure_components(nodes, edges, STRONG)
        assert set(weak.components) == closure_components(nodes, edges, WEAK)
        wcc_of = {}
        for comp in weak.components:
            for v in comp:
                wcc_of[v] = comp
        for comp in strong.components:
            assert len({wcc_of[v] for v in comp}) == 1
        assert weak.count <= strong.count
    _passed(6, "SCC/WCC match the transitive-closure oracle on 100 random "
               "digraphs; every SCC sits inside one WCC")


# ---------------------------------------------------------------------------
# 7. power-law exponent recovery and ccdf shape
# ---------------------------------------------------------------------------

def test_criterion_07_power_law():
    t0 = time.perf_counter()
    alpha_true = 2.5
    support = np.arange(1, 10 ** 6 + 1, dtype=float)
    pmf = support ** (-alpha_true)
    pmf /= pmf.sum()
    cdf = np.cumsum(pmf)
    u = np.random.default_rng(4242).random(100_000)
    values = (np.searchsorted(cdf, u) + 1).tolist()

    fit = fit_power_law(values, x_min=1)
    assert fit.n_tail == 100_000
    assert 2.4 <= fit.alpha <= 2.6

    points = degree_ccdf(values)
    assert points[0][1] == 1
    probs = [p for _, p in points]
    assert all(a >= b for a, b in zip(probs, probs[1:]))

    elapsed = time.perf_counter() - t0
    assert elapsed < 5
    _passed(7, f"discrete MLE on 100,000 samples with true exponent 2.5 "
               f"estimates {fit.alpha:.3f}; ccdf monotone with first point 1 "
               f"({elapsed:.1f} s)")


# ---------------------------------------------------------------------------
# 8. support-filter semantics and monotonicity
# ---------------------------------------------------------------------------

def test_criterion_08_support_filters(labeled_corpus):
    ps, nmap, corpus, idx = labeled_corpus

    counts = {f"t{i}": c for i, c in enumerate([1, 5, 9, 10, 11, 40, 100])}
    retained = support_filter(counts, 10)
    assert retained == {t for t, c in counts.items() if c >= 10}
    assert "t3" in retained  # count exactly 10: boundary inclusive

    unfiltered = build_graph(corpus, ORG_MODE, edge_min_sup=1)
    filtered = build_graph(corpus, ORG_MODE, edge_min_sup=2)
    assert set(filtered.edges) == {
        pair for pair, w in unfiltered.edges.items() if w >= 2}
    assert all(w >= 2 for w in filtered.edges.values())

    title_counts = Counter(s.raw_title for s in ps.all_spells())
    retained_sizes = [len(support_filter(title_counts, t)) for t in (1, 2, 5, 10, 20)]
    assert all(a >= b for a, b in zip(retained_sizes, retained_sizes[1:]))

    graph_sizes = []
    for threshold in (1, 2, 3, 5, 8):
        g = build_graph(corpus, JOB_MODE, edge_min_sup=threshold)
        wcc = connected_components(g, WEAK) if g.nodes else None
        graph_sizes.append((g.node_count, g.edge_count,
                            wcc.largest_size if wcc else 0))
    for (n1, e1, w1), (n2, e2, w2) in zip(graph_sizes, graph_sizes[1:]):
        assert n2 <= n1 and e2 <= e1 and w2 <= w1

    _passed(8, "title filter keeps exactly the >=10 titles (boundary "
               "inclusive), edge filter at 2 removes exactly weight-1 edges, "
               "both shrink monotonically over 5 thresholds")


# ---------------------------------------------------------------------------
# 9. promotion bookkeeping vs brute-force recounts
# ---------------------------------------------------------------------------

def test_criterion_09_promotion_bookkeeping(labeled_corpus):
    ps, nmap, corpus, idx = labeled_corpus
    records = build_level_gain_records(corpus, idx, job_min_sup=10)

    labeled = [r for r in records if r.label is not GainLabel.UNSUPPORTED]
    assert labeled, "corpus produced no labeled hops"
    for r in records:
        if r.label is GainLabel.PROMOTION:
            assert r.gain > 0
        elif r.label is GainLabel.DEMOTION:
            assert r.gain < 0

    table = promotion_tables(records)
    recount = Counter((r.hop.kind.value, r.label.value) for r in labeled)
    assert table.external_promotions == recount[("external", "promotion")]
    assert table.external_demotions == recount[("external", "demotion")]
    assert table.internal_promotions == recount[("internal", "promotion")]
    assert table.internal_demotions == recount[("internal", "demotion")]
    assert table.total == len(labeled)

    cells = promotion_vs_duration(records, min_sup=10)
    bins = Counter()
    promos = Counter()
    for r in labeled:
        b = int(r.hop.duration_of_stay // 1)
        bins[(b, r.hop.kind.value)] += 1
        if r.label is GainLabel.PROMOTION:
            promos[(b, r.hop.kind.value)] += 1
    assert len(cells) == len(bins)
    for cell in cells:
        key = (cell.duration_bin, cell.kind.value)
        assert cell.total == bins[key]
        assert cell.promotions == promos[key]
        assert cell.suppressed == (bins[key] < 10)
        if not cell.suppressed:
            assert cell.fraction == Fraction(promos[key], bins[key])

    _passed(9, f"2x2 promotion table and duration bins match brute-force "
               f"recounts over {len(labeled)} labeled hops; every label "
               f"agrees with its gain sign")


# ---------------------------------------------------------------------------
# 10. end-to-end determinism and runtime
# ---------------------------------------------------------------------------

def test_criterion_10_determinism_and_runtime(tmp_path):
    profiles = tmp_path / "profiles.jsonl"
    code = cli_main(["synth", "--out", str(profiles), "--persons", "10000",
                     "--seed", "2024", "--organizations", "60",
                     "--title-classes", "100"])
    assert code == 0

    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    args = ["run", "--input", str(profiles), "--reference-date", "2020-01"]
    t0 = time.perf_counter()
    assert cli_main(args + ["--out", str(out1)]) == 0
    elapsed = time.perf_counter() - t0
    assert cli_main(args + ["--out", str(out2)]) == 0

    names1 = {p.name for p in out1.iterdir()}
    assert names1 == {p.name for p in out2.iterdir()}
    for name in sorted(names1):
        a = (out1 / name).read_bytes()
        b = (out2 / name).read_bytes()
        if name == "manifest.json":
            ma, mb = json.loads(a), json.loads(b)
            ma.pop("timings"), mb.pop("timings")
            ma["config"].pop("out"), mb["config"].pop("out")
            assert ma == mb
        else:
            assert a == b, f"artifact {name} differs between identical runs"

    assert elapsed < 60
    _passed(10, f"two identical 10,000-profile runs produced byte-identical "
                f"artifacts; full pipeline took {elapsed:.1f} s")
