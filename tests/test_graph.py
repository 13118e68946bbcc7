from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from talentflow.graph import (JOB_MODE, ORG_MODE, STRONG, WEAK,
                              TailTooSmallError, TalentGraph, _hurwitz_zeta,
                              build_centrality_report, build_graph,
                              connected_components, degree_ccdf,
                              degree_centrality, fit_power_law, sparsity,
                              top_k, weighted_pagerank)
from talentflow.hops import build_hop_corpus
from talentflow.titles import build_normalization

from conftest import profile, profile_set, spell, title_map


def graph_of(edges: dict[tuple[str, str], int], mode: str = ORG_MODE) -> TalentGraph:
    nodes = tuple(sorted({v for pair in edges for v in pair}))
    return TalentGraph(mode=mode, nodes=nodes, edges=dict(edges))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _corpus(dicts, person_specs):
    """person_specs: list of lists of (title, org) tuples; spells are laid
    out sequentially so that consecutive entries hop."""
    profiles = []
    titles = {}
    for i, chain in enumerate(person_specs):
        spells = []
        year = 2010
        for title, org in chain:
            spells.append(spell(title, org, f"ind-{org}", f"{year}-01", f"{year}-12"))
            titles[title] = titles.get(title, 0) + 1
            year += 1
        profiles.append(profile(f"p{i}", spells))
    nmap = build_normalization(titles, dicts)
    ps = profile_set(profiles)
    return build_hop_corpus(ps, title_map(ps, nmap), title_min_sup=1)


def test_repeated_hops_accumulate_weight(dicts):
    corpus = _corpus(dicts, [
        [("finance manager", "A"), ("sales manager", "B")],
        [("finance manager", "A"), ("sales manager", "B")],
        [("finance manager", "A"), ("sales manager", "B")],
    ])
    g = build_graph(corpus, JOB_MODE, edge_min_sup=1)
    assert g.edges == {("finance manager|ind-A", "sales manager|ind-B"): 3}


def test_internal_hop_contributes_no_org_edge(dicts):
    corpus = _corpus(dicts, [[("finance manager", "A"), ("sales manager", "A")]])
    org_graph = build_graph(corpus, ORG_MODE, edge_min_sup=1)
    assert org_graph.edge_count == 0
    assert org_graph.node_count == 0
    # but it remains a job-graph edge within the same industry
    job_graph = build_graph(corpus, JOB_MODE, edge_min_sup=1)
    assert job_graph.edge_count == 1


def test_same_job_node_hop_is_no_self_loop(dicts):
    # same title, same industry, different organization
    profiles = [profile("p", [
        spell("finance manager", "A", "i1", "2010-01", "2010-12"),
        spell("finance manager", "B", "i1", "2011-01", "2011-12"),
    ])]
    nmap = build_normalization({"finance manager": 2}, dicts)
    ps = profile_set(profiles)
    corpus = build_hop_corpus(ps, title_map(ps, nmap), title_min_sup=1)
    assert len(corpus) == 1
    job_graph = build_graph(corpus, JOB_MODE, edge_min_sup=1)
    assert job_graph.edge_count == 0
    org_graph = build_graph(corpus, ORG_MODE, edge_min_sup=1)
    assert org_graph.edges == {("A", "B"): 1}


def test_edge_min_sup_removes_light_edges_and_isolated_nodes(dicts):
    corpus = _corpus(dicts, [
        [("finance manager", "A"), ("sales manager", "B")],
        [("finance manager", "A"), ("sales manager", "B")],
        [("data analyst", "C"), ("finance manager", "D")],
    ])
    g1 = build_graph(corpus, ORG_MODE, edge_min_sup=1)
    assert g1.edge_count == 2 and g1.node_count == 4
    g2 = build_graph(corpus, ORG_MODE, edge_min_sup=2)
    assert g2.edges == {("A", "B"): 2}
    assert g2.nodes == ("A", "B")  # C and D became isolated and were dropped


def test_filter_monotonicity(dicts):
    chains = []
    rng = random.Random(3)
    orgs = [chr(ord("A") + i) for i in range(8)]
    for _ in range(40):
        chains.append([("finance manager", rng.choice(orgs)),
                       ("sales manager", rng.choice(orgs)),
                       ("data analyst", rng.choice(orgs))])
    corpus = _corpus(dicts, chains)
    stats = []
    for min_sup in (1, 2, 3, 5, 8):
        g = build_graph(corpus, ORG_MODE, edge_min_sup=min_sup)
        wcc = connected_components(g, WEAK)
        stats.append((g.node_count, g.edge_count, wcc.largest_size))
    for (n1, e1, w1), (n2, e2, w2) in zip(stats, stats[1:]):
        assert n2 <= n1 and e2 <= e1 and w2 <= w1


# ---------------------------------------------------------------------------
# degrees
# ---------------------------------------------------------------------------

def test_star_graph_degrees():
    g = graph_of({("l1", "c"): 5, ("l2", "c"): 9, ("l3", "c"): 1, ("l4", "c"): 2})
    degrees = degree_centrality(g)
    assert degrees["c"] == (4, 0)
    assert degrees["l1"] == (0, 1)


def test_degrees_ignore_weights():
    g = graph_of({("a", "b"): 1000})
    assert degree_centrality(g)["b"] == (1, 0)


@settings(max_examples=60, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 14), st.integers(0, 14)), max_size=60),
       st.integers(1, 9))
def test_degrees_match_adjacency_recount(pairs, weight):
    edges = {(f"n{a}", f"n{b}"): weight for a, b in pairs if a != b}
    if not edges:
        return
    g = graph_of(edges)
    index = {v: i for i, v in enumerate(g.nodes)}
    n = len(g.nodes)
    adj = np.zeros((n, n), dtype=int)
    for (src, dst) in edges:
        adj[index[src], index[dst]] = 1
    degrees = degree_centrality(g)
    for v in g.nodes:
        assert degrees[v] == (int(adj[:, index[v]].sum()), int(adj[index[v]].sum()))


# ---------------------------------------------------------------------------
# pagerank
# ---------------------------------------------------------------------------

def oracle_pagerank(g: TalentGraph, damping=0.85, sweeps=20000):
    """Dense power iteration over an explicit stochastic matrix."""
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
    M = damping * P + (1 - damping) / n * np.ones((n, n))
    r = np.full(n, 1.0 / n)
    for _ in range(sweeps):
        nxt = M.T @ r
        if np.abs(nxt - r).sum() < 1e-15:
            r = nxt
            break
        r = nxt
    r = r / r.sum()
    return {v: r[index[v]] for v in nodes}


def test_three_cycle_is_uniform():
    g = graph_of({("a", "b"): 1, ("b", "c"): 1, ("c", "a"): 1})
    result = weighted_pagerank(g)
    assert result.converged
    for score in result.scores.values():
        assert abs(score - 1 / 3) <= 1e-9


def test_single_node_no_edges():
    g = TalentGraph(mode=ORG_MODE, nodes=("only",), edges={})
    result = weighted_pagerank(g)
    assert result.scores == {"only": 1.0}


def test_pagerank_sums_to_one_and_nonnegative():
    rng = random.Random(5)
    for trial in range(25):
        n = rng.randint(1, 12)
        edges = {}
        for _ in range(rng.randint(0, 25)):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                edges[(f"n{a}", f"n{b}")] = rng.randint(1, 9)
        nodes = tuple(sorted({v for pair in edges for v in pair}
                             | {f"n{i}" for i in range(n)}))
        g = TalentGraph(mode=ORG_MODE, nodes=nodes, edges=edges)
        result = weighted_pagerank(g)
        assert abs(sum(result.scores.values()) - 1.0) <= 1e-9
        assert all(s >= 0 for s in result.scores.values())


def test_pagerank_matches_dense_oracle_on_small_graphs():
    rng = random.Random(9)
    for trial in range(30):
        n = rng.randint(2, 10)
        edges = {}
        for _ in range(rng.randint(1, 30)):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                edges[(f"n{a}", f"n{b}")] = rng.randint(1, 7)
        if not edges:
            continue
        g = graph_of(edges)
        got = weighted_pagerank(g, tol=1e-14, max_iter=5000).scores
        expected = oracle_pagerank(g)
        for v in g.nodes:
            assert abs(got[v] - expected[v]) <= 1e-6


def _left_to_right_pagerank(g: TalentGraph, damping=0.85, tol=1e-10, max_iter=200):
    """Power iteration with every float sum a plain loop in node order.
    Returns the scores; how many sweeps' dangling mass `math.fsum` rounds
    differently, so a caller can tell the graph exercises summation order;
    the sweep count; and whether the L1 change fell below `tol`."""
    nodes, n = g.nodes, len(g.nodes)
    out = {v: [] for v in nodes}
    for (src, dst), w in sorted(g.edges.items()):
        out[src].append((dst, w))
    wout = {v: sum(w for _, w in out[v]) for v in nodes}  # ints: exact
    rank = {v: 1.0 / n for v in nodes}
    sensitive = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        nxt = {v: 0.0 for v in nodes}
        for u in nodes:
            for v, w in out[u]:
                nxt[v] += rank[u] * (w / wout[u])
        mass = 0.0
        for u in nodes:
            if not out[u]:
                mass += rank[u]
        sensitive += mass != math.fsum(rank[u] for u in nodes if not out[u])
        delta = 0.0
        for v in nodes:
            nxt[v] = (1.0 - damping) / n + damping * (nxt[v] + mass / n)
            delta += abs(nxt[v] - rank[v])
        rank = nxt
        if delta < tol:
            converged = True
            break
    total = 0.0
    for v in nodes:
        total += rank[v]
    return {v: rank[v] / total for v in nodes}, sensitive, iterations, converged


def test_pagerank_is_bit_exact_with_left_to_right_sums():
    # 700 nodes, of which only the first 200 have out-edges: 500 dangling
    rng = random.Random(11)
    nodes = tuple(f"n{i:03d}" for i in range(700))
    edges = {}
    for _ in range(2500):
        src, dst = rng.choice(nodes[:200]), rng.choice(nodes)
        if src != dst:
            edges[(src, dst)] = rng.randint(1, 9)
    g = TalentGraph(mode=ORG_MODE, nodes=nodes, edges=edges)
    expected, sensitive, _, _ = _left_to_right_pagerank(g)
    assert sensitive > 0  # compensated sums would round differently here
    got = weighted_pagerank(g).scores
    assert list(got) == list(nodes)
    assert [repr(got[v]) for v in nodes] == [repr(expected[v]) for v in nodes]


@st.composite
def _weighted_graphs(draw):
    """1-60 nodes, every one in `nodes`: some isolated, some dangling."""
    n = draw(st.integers(1, 60))
    nodes = tuple(f"n{i:02d}" for i in range(n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.dictionaries(pairs, st.integers(1, 9), max_size=4 * n))
    return TalentGraph(mode=ORG_MODE, nodes=nodes,
                       edges={(nodes[a], nodes[b]): w
                              for (a, b), w in edges.items() if a != b})


@settings(max_examples=200, deadline=None)
@given(_weighted_graphs(), st.one_of(st.just(200), st.integers(1, 40)))
def test_pagerank_is_bit_exact_on_random_graphs(g, max_iter):
    expected, _, iterations, converged = _left_to_right_pagerank(g, max_iter=max_iter)
    got = weighted_pagerank(g, max_iter=max_iter)
    assert list(got.scores) == list(g.nodes)
    assert [repr(got.scores[v]) for v in g.nodes] == [repr(expected[v]) for v in g.nodes]
    assert (got.iterations, got.converged) == (iterations, converged)


def test_weight_scaling_leaves_scores_unchanged():
    base = {("a", "b"): 2, ("b", "c"): 3, ("c", "a"): 1, ("a", "c"): 4}
    g1 = graph_of(base)
    g7 = graph_of({pair: w * 7 for pair, w in base.items()})
    r1 = weighted_pagerank(g1).scores
    r7 = weighted_pagerank(g7).scores
    for v in r1:
        assert abs(r1[v] - r7[v]) <= 1e-12
    assert (sorted(r1, key=r1.get) == sorted(r7, key=r7.get))


def test_nonconvergence_is_flagged():
    g = graph_of({("a", "b"): 1, ("b", "a"): 1, ("b", "c"): 1, ("c", "a"): 3})
    result = weighted_pagerank(g, tol=1e-15, max_iter=2)
    assert not result.converged
    assert result.iterations == 2


def test_dead_end_mass_redistributed():
    g = graph_of({("a", "b"): 1})  # b is a dead end
    result = weighted_pagerank(g)
    assert result.converged
    assert abs(sum(result.scores.values()) - 1.0) <= 1e-9
    assert result.scores["b"] > result.scores["a"]


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------

def oracle_reachability_components(nodes, edges, mode):
    """Floyd-Warshall style closure; quadratic and obviously correct."""
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    reach = np.eye(n, dtype=bool)
    for (a, b) in edges:
        reach[index[a], index[b]] = True
        if mode == WEAK:
            reach[index[b], index[a]] = True
    for k in range(n):
        reach = reach | (reach[:, k:k + 1] & reach[k:k + 1, :])
    groups = {}
    for v in nodes:
        i = index[v]
        key = tuple(sorted(
            w for w in nodes if reach[i, index[w]] and reach[index[w], i]))
        groups[key] = None
    return set(groups)


def test_scc_and_wcc_reference_example():
    g = graph_of({("A", "B"): 1, ("B", "A"): 1, ("B", "C"): 1})
    strong = connected_components(g, STRONG)
    assert set(strong.components) == {("A", "B"), ("C",)}
    assert strong.largest_size == 2
    weak = connected_components(g, WEAK)
    assert weak.components == (("A", "B", "C"),)
    assert weak.count == 1


def test_components_match_reachability_oracle():
    rng = random.Random(17)
    for trial in range(100):
        n = rng.randint(1, 50)
        nodes = tuple(f"n{i:02d}" for i in range(n))
        edges = {}
        for _ in range(rng.randint(0, 3 * n)):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                edges[(nodes[a], nodes[b])] = 1
        g = TalentGraph(mode=ORG_MODE, nodes=nodes, edges=edges)
        for mode in (STRONG, WEAK):
            got = set(connected_components(g, mode).components)
            assert got == oracle_reachability_components(nodes, edges, mode)


def test_every_scc_within_one_wcc():
    rng = random.Random(23)
    for trial in range(20):
        n = rng.randint(2, 40)
        nodes = tuple(f"n{i:02d}" for i in range(n))
        edges = {}
        for _ in range(rng.randint(1, 2 * n)):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                edges[(nodes[a], nodes[b])] = 1
        g = TalentGraph(mode=ORG_MODE, nodes=nodes, edges=edges)
        sccs = connected_components(g, STRONG)
        wccs = connected_components(g, WEAK)
        wcc_of = {}
        for comp in wccs.components:
            for v in comp:
                wcc_of[v] = comp
        for comp in sccs.components:
            owners = {wcc_of[v] for v in comp}
            assert len(owners) == 1
        assert wccs.count <= sccs.count


def test_component_percentages():
    g = graph_of({("A", "B"): 1, ("B", "A"): 1, ("B", "C"): 1})
    strong = connected_components(g, STRONG)
    assert strong.size_pct(strong.largest_size) == pytest.approx(100 * 2 / 3)


# ---------------------------------------------------------------------------
# sparsity, ccdf, power law, top-k
# ---------------------------------------------------------------------------

def test_sparsity_formula():
    g = TalentGraph(mode=ORG_MODE, nodes=tuple(f"n{i}" for i in range(10)),
                    edges={(f"n{i}", f"n{i+1}"): 1 for i in range(5)})
    assert sparsity(g) == pytest.approx(5.0)


def test_sparsity_complete_digraph():
    nodes = ("a", "b", "c")
    edges = {(a, b): 1 for a in nodes for b in nodes if a != b}
    g = TalentGraph(mode=ORG_MODE, nodes=nodes, edges=edges)
    assert sparsity(g) == pytest.approx(100 * 6 / 9)
    assert round(sparsity(g), 2) == 66.67


def test_sparsity_published_scale():
    nodes = tuple(f"n{i}" for i in range(30531))
    edges = {}
    count = 0
    for i in range(30531):
        for j in (i + 1, i + 2):
            if count == 45412:
                break
            edges[(f"n{i}", f"n{j % 30531}")] = 1
            count += 1
    g = TalentGraph(mode=ORG_MODE, nodes=nodes, edges=edges)
    assert g.edge_count == 45412
    assert round(sparsity(g), 4) == 0.0049
    assert round(sparsity(g), 3) == 0.005


def test_ccdf_counting():
    points = degree_ccdf([1, 1, 2])
    assert points == [(1, 1.0), (2, 1 / 3)]
    assert all(type(p) is float for _, p in points)


def test_ccdf_degenerate_single_step():
    assert degree_ccdf([4, 4, 4]) == [(4, 1.0)]


def test_ccdf_matches_sort_oracle_and_is_monotone():
    rng = random.Random(31)
    values = [rng.randint(1, 40) for _ in range(500)]
    points = degree_ccdf(values)
    assert points[0][1] == 1
    sorted_vals = sorted(values)
    for x, p in points:
        expected = sum(1 for v in sorted_vals if v >= x) / len(values)
        assert float(p) == pytest.approx(expected, abs=0)
    probs = [p for _, p in points]
    assert all(a >= b for a, b in zip(probs, probs[1:]))


def zipf_inverse_cdf_samples(alpha: float, n: int, seed: int,
                             x_min: int = 1, support: int = 10 ** 6):
    """Inverse-CDF sampler for p(x) ~ x^-alpha on {x_min, ...}."""
    ks = np.arange(x_min, support + 1, dtype=float)
    pmf = ks ** (-alpha)
    pmf /= pmf.sum()
    cdf = np.cumsum(pmf)
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    return (np.searchsorted(cdf, u) + x_min).tolist()


def test_power_law_recovery():
    values = zipf_inverse_cdf_samples(2.5, 40_000, seed=1)
    fit = fit_power_law(values, x_min=1)
    assert fit.n_tail == 40_000
    assert 2.4 <= fit.alpha <= 2.6


def test_power_law_recovery_at_higher_xmin():
    values = zipf_inverse_cdf_samples(2.5, 60_000, seed=2)
    fit = fit_power_law(values, x_min=2)
    assert 2.3 <= fit.alpha <= 2.7


def test_power_law_tail_guard():
    with pytest.raises(TailTooSmallError):
        fit_power_law([3, 5], x_min=1)
    with pytest.raises(TailTooSmallError):
        fit_power_law(list(range(1, 100)), x_min=90)


def test_power_law_rejects_non_integers():
    with pytest.raises(ValueError):
        fit_power_law([1.5] * 100, x_min=1)


def test_scale_free_degree_sequence_fits_above_two(dicts):
    values = zipf_inverse_cdf_samples(2.7, 5_000, seed=3)
    fit = fit_power_law(values, x_min=1)
    assert fit.alpha > 2


@settings(max_examples=300, deadline=None)
@given(x=st.one_of(st.floats(1 + 1e-6, 1 + 1e-3), st.floats(1 + 1e-6, 25.0)),
       q=st.integers(1, 5))
@example(x=1 + 1e-6, q=1)
@example(x=25.0, q=5)
def test_hurwitz_zeta_is_bit_exact_with_scipy(x, q):
    special = pytest.importorskip("scipy.special")
    assert _hurwitz_zeta(x, q) == float(special.zeta(x, q))


@st.composite
def _tails(draw):
    x_min = draw(st.integers(1, 3))
    heavy = st.integers(x_min, 10 ** 6)
    near = st.integers(x_min, x_min + 5)
    values = draw(st.lists(st.one_of(near, heavy), min_size=50, max_size=400))
    return values, x_min


@settings(max_examples=150, deadline=None)
@given(_tails())
@example(([1] * 50, 1))
@example(([2] * 120, 2))
def test_power_law_fit_is_bit_exact_with_scipy(case):
    optimize = pytest.importorskip("scipy.optimize")
    special = pytest.importorskip("scipy.special")
    values, x_min = case
    n = len(values)
    slog = 0.0  # left to right, as fit_power_law sums on every Python version
    for v in values:
        slog += math.log(v)

    def nll(alpha):
        return n * math.log(special.zeta(alpha, x_min)) + alpha * slog

    oracle = optimize.minimize_scalar(nll, bounds=(1 + 1e-6, 25), method="bounded",
                                      options={"xatol": 1e-9})
    assert fit_power_law(values, x_min).alpha == float(oracle.x)


def test_top_k_ranking():
    g = graph_of({("a", "b"): 1, ("c", "b"): 1, ("a", "c"): 1})
    report = build_centrality_report(g)
    ranked = top_k(report, "in_degree", 2)
    assert ranked[0][0] == "b" and ranked[0][1] == 2
    assert len(top_k(report, "pagerank", 99)) == 3
    with pytest.raises(ValueError):
        top_k(report, "pagerank", 0)
    with pytest.raises(ValueError):
        top_k(report, "betweenness", 1)


def test_top_k_ties_broken_by_node_key():
    g = graph_of({("a", "b"): 4, ("c", "b"): 9})
    report = build_centrality_report(g)
    tied = top_k(report, "out_degree", 3)  # a and c both have out-degree 1
    assert [v for v, _ in tied] == ["a", "c", "b"]


def test_empty_graph_api():
    g = TalentGraph(mode=JOB_MODE, nodes=(), edges={})
    with pytest.raises(ValueError):
        weighted_pagerank(g)
    with pytest.raises(ValueError):
        sparsity(g)
    report = build_centrality_report(g)
    assert report.nodes == ()
    assert report.in_degree == report.out_degree == report.pagerank == {}
    assert report.pagerank_converged and report.pagerank_iterations == 0
    for mode in (STRONG, WEAK):
        assert connected_components(g, mode).count == 0
    assert top_k(report, "pagerank", 3) == []
