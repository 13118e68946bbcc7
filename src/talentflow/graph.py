"""Weighted directed talent-flow graphs and their analysis.

Nodes are either jobs (normalized title within an industry, keyed by
`job_node_key`) or organizations; edge weights count hops. Includes
unweighted degree centralities, weighted PageRank with uniform
redistribution of dead-end mass, strongly/weakly connected components,
adjacency sparsity, CCDFs and a discrete power-law exponent fit.
Records are immutable NamedTuples, equal to plain tuples of their fields.

Analysis runs over integer node ids (a node's id is its rank in the
sorted `nodes`) and lists: each per-node measure is a list in node order
until `top_k` and the writers pair it with node keys. One iterative
traversal finds both strong (Kosaraju) and weak components. Every float
sum in PageRank is a left-to-right fold in node order, so scores are
bit-identical across runs and Python versions.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import add, sub
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .artifacts import write_csv
from .hops import HopCorpus

JOB_MODE = "job"
ORG_MODE = "org"
STRONG = "strong"
WEAK = "weak"


def job_node_key(title: str, industry: str) -> str:
    """`title|industry` with `\\` escaped as `\\\\` and `|` as `\\|` in each
    part, so that distinct jobs never share a key."""
    return (title.replace("\\", "\\\\").replace("|", "\\|") + "|"
            + industry.replace("\\", "\\\\").replace("|", "\\|"))


class TalentGraph(NamedTuple("TalentGraph", [
        ("mode", str), ("nodes", tuple[str, ...]),
        ("edges", Mapping[tuple[str, str], int]),
        ("links", tuple[tuple[int, int, int], ...])])):
    """Immutable weighted digraph. `nodes` is sorted; `edges` maps
    (src, dst) pairs to positive integer weights; no self-loops.

    `links` is derived on construction, so that node ids are mapped once
    per graph: the edges as (src_id, dst_id, weight), sorted by id pair,
    where a node's id is its position in `nodes`.
    """

    __slots__ = ()

    def __new__(cls, mode: str, nodes: tuple[str, ...],
                edges: Mapping[tuple[str, str], int]) -> "TalentGraph":
        ids = {v: i for i, v in enumerate(nodes)}
        links = tuple(sorted([(ids[src], ids[dst], w) for (src, dst), w in edges.items()]))
        return super().__new__(cls, mode, nodes, edges, links)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def build_graph(corpus: HopCorpus, mode: str, edge_min_sup: int = 2) -> TalentGraph:
    """Aggregate hops into a graph, drop edges below the weight threshold,
    then drop nodes left without edges.

    Job mode keys nodes by (title, industry); org mode by organization.
    Hops that stay on the same node (same organization, or same
    title-industry pair) contribute no edge.
    """
    if mode not in (JOB_MODE, ORG_MODE):
        raise ValueError(f"unknown graph mode {mode!r}")
    if edge_min_sup < 1:
        raise ValueError(f"edge_min_sup must be >= 1, got {edge_min_sup}")
    if mode == JOB_MODE:
        ends = (((h.src_title, h.src.industry), (h.dst_title, h.dst.industry))
                for h in corpus.hops)
    else:
        ends = ((h.src.organization, h.dst.organization) for h in corpus.hops)
    edges = {(src, dst): w for (src, dst), w in Counter(ends).items()
             if w >= edge_min_sup and src != dst}
    if mode == JOB_MODE:  # one key per distinct job
        key = {job: job_node_key(*job) for job in {job for pair in edges for job in pair}}
        edges = {(key[src], key[dst]): w for (src, dst), w in edges.items()}
    nodes = sorted({v for pair in edges for v in pair})
    return TalentGraph(mode=mode, nodes=tuple(nodes), edges=edges)


def degree_centrality(g: TalentGraph) -> tuple[list[int], list[int]]:
    """Unweighted (in_degree, out_degree) lists in node order: distinct
    neighbor counts, ignoring edge weights."""
    in_deg = [0] * len(g.nodes)
    out_deg = [0] * len(g.nodes)
    for u, v, _ in g.links:
        out_deg[u] += 1
        in_deg[v] += 1
    return in_deg, out_deg


class PageRankResult(NamedTuple):
    scores: list[float]  # in node order
    converged: bool
    iterations: int


def weighted_pagerank(g: TalentGraph, damping: float = 0.85,
                      tol: float = 1e-10, max_iter: int = 200) -> PageRankResult:
    """Weighted PageRank by power iteration.

    Transition probability from u to v is weight(u, v) over u's weighted
    out-degree; nodes without outgoing edges spread their mass uniformly
    over all nodes. Iterates until the L1 change drops below `tol`;
    returns unconverged scores (flagged) after `max_iter` sweeps. Scores
    are normalized to sum to one. Every sum is a left-to-right fold in
    node order, a loop or `reduce(add, ..., 0.0)` (`sum()` of floats
    compensates from Python 3.12 on), so results are bit-identical across
    runs and Python versions. Scores are a list in node order.
    """
    if not g.nodes:
        raise ValueError("pagerank needs a non-empty graph")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not 0 < damping < 1:
        raise ValueError(f"damping must be in (0, 1), got {damping}")

    n = len(g.nodes)
    out_weight = [0] * n
    for u, _, w in g.links:
        out_weight[u] += w
    # One transition probability per link, computed once. The links are
    # sorted by source, so that each node's inflow adds its sources in
    # node order.
    links = [(u, v, w / out_weight[u]) for u, v, w in g.links]
    dangling = [u for u in range(n) if out_weight[u] == 0]

    rank = [1.0 / n] * n
    base = (1.0 - damping) / n
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        inflow = [0.0] * n
        for u, v, p in links:
            inflow[v] += rank[u] * p
        spread = reduce(add, map(rank.__getitem__, dangling), 0.0) / n
        nxt = [base + damping * (x + spread) for x in inflow]
        delta = 0.0
        for d in map(sub, nxt, rank):
            delta += abs(d)
        rank = nxt
        if delta < tol:
            converged = True
            break

    total = reduce(add, rank, 0.0)
    return PageRankResult(scores=[r / total for r in rank], converged=converged,
                          iterations=iterations)


def _finish_order(adj: Sequence[Sequence[int]]) -> list[int]:
    """The ids 0..len(adj)-1 in the order a depth-first search over the
    successor lists `adj`, started from each unvisited id in id order,
    finishes them. Iterative, to keep deep graphs off the Python call
    stack."""
    visited = [False] * len(adj)
    order: list[int] = []
    for root in range(len(adj)):
        if visited[root]:
            continue
        visited[root] = True
        path = [(root, iter(adj[root]))]
        while path:
            v, successors = path[-1]
            for w in successors:
                if not visited[w]:
                    visited[w] = True
                    path.append((w, iter(adj[w])))
                    break
            else:
                path.pop()
                order.append(v)
    return order


def _reach_groups(adj: Sequence[Sequence[int]], roots: Iterable[int]) -> list[list[int]]:
    """For each id of `roots` not yet grouped, in turn, the group of ids it
    reaches through the successor lists `adj` via ids not yet grouped."""
    grouped = [False] * len(adj)
    groups: list[list[int]] = []
    for root in roots:
        if grouped[root]:
            continue
        grouped[root] = True
        group = [root]
        for v in group:  # visits the ids appended while it runs
            for w in adj[v]:
                if not grouped[w]:
                    grouped[w] = True
                    group.append(w)
        groups.append(group)
    return groups


class ComponentReport(NamedTuple):
    mode: str
    node_count: int
    components: tuple[tuple[str, ...], ...]

    @property
    def count(self) -> int:
        return len(self.components)

    @property
    def largest_size(self) -> int:
        return len(self.components[0]) if self.components else 0

    @property
    def second_largest_size(self) -> int:
        return len(self.components[1]) if len(self.components) > 1 else 0

    def size_pct(self, size: int) -> float:
        if self.node_count == 0:
            return 0.0
        return float(Fraction(size, self.node_count) * 100)


def connected_components(g: TalentGraph, mode: str = STRONG) -> ComponentReport:
    """Components of the graph: strong follows edge direction, weak
    ignores it. Components come sorted by size (largest first), ties by
    their smallest node key. Strong ones are grouped over reversed edges
    in reverse depth-first finishing order (Kosaraju), weak ones over
    edges in both directions in id order."""
    if mode not in (STRONG, WEAK):
        raise ValueError(f"unknown component mode {mode!r}")
    succ: list[list[int]] = [[] for _ in g.nodes]
    pred: list[list[int]] = [[] for _ in g.nodes]
    for u, v, _ in g.links:
        succ[u].append(v)
        pred[v].append(u)
    groups = (_reach_groups(pred, reversed(_finish_order(succ))) if mode == STRONG
              else _reach_groups(list(map(add, succ, pred)), range(len(g.nodes))))
    # ids are ranks of the sorted keys, so sorted ids are sorted keys
    ordered = sorted(map(sorted, groups), key=lambda c: (-len(c), c[0]))
    return ComponentReport(mode=mode, node_count=g.node_count, components=tuple(
        tuple(map(g.nodes.__getitem__, c)) for c in ordered))


def sparsity(g: TalentGraph) -> float:
    """Edge count over squared node count, as a percentage."""
    if g.node_count == 0:
        raise ValueError("sparsity undefined for an empty graph")
    return float(Fraction(g.edge_count, g.node_count ** 2) * 100)


def degree_ccdf(values: Sequence[int]) -> list[tuple[int, float]]:
    """Points (x, P(X >= x)) over the observed support, descending in
    probability; the first point is exactly 1. An int over an int is
    correctly rounded, so each P is the float of the exact Fraction."""
    if not values:
        raise ValueError("ccdf needs at least one value")
    data = sorted(values)
    n = len(data)
    points: list[tuple[int, float]] = []
    seen = 0
    previous = None
    for v in data:
        if v != previous:
            points.append((v, (n - seen) / n))
            previous = v
        seen += 1
    return points


class TailTooSmallError(ValueError):
    """Too few observations at or above x_min to fit a tail exponent."""


class PowerLawFit(NamedTuple):
    alpha: float
    x_min: int
    n_tail: int


# Cephes zeta.c: A[i] = (2i+2)! / B_{2i+2}, the Euler-Maclaurin tail terms.
_ZETA_A = (
    12.0,
    -720.0,
    30240.0,
    -1209600.0,
    47900160.0,
    -1.8924375803183791606e9,  # 1.307674368e12 / 691
    7.47242496e10,
    -2.950130727918164224e12,  # 1.067062284288e16 / 3617
    1.1646782814350067249e14,  # 5.109094217170944e18 / 43867
    -4.5979787224074726105e15,  # 8.028576626367488e20 / 174611
    1.8152105401943546773e17,  # 1.5511210043330985984e23 / 854513
    -7.1661652561756670113e18,  # 1.6938241367317436694528e27 / 236364091
)
_MACHEP = 1.11022302462515654042e-16  # 2**-53


def _hurwitz_zeta(x: float, q: float) -> float:
    """Hurwitz zeta(x, q) = sum over k >= 0 of (k + q)^-x, for x > 1, q > 0.

    A line-for-line port of the Cephes routine behind SciPy's
    `special.zeta(x, q)`: direct summation of at least nine terms and until
    k + q > 9, then the Euler-Maclaurin tail; an asymptotic form for
    q > 1e8. Every step is the same IEEE double operation in the same
    order, so results are bit-identical to SciPy's.
    """
    q = float(q)
    if q > 1e8:
        return (1 / (x - 1) + 1 / (2 * q)) * math.pow(q, 1 - x)
    s = math.pow(q, -x)
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = math.pow(a, -x)
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for coef in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coef
        s = s + t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def _step_sign(v: float) -> float:
    """NumPy's `sign(v) + (v == 0)`: the direction of a step, +1 at zero."""
    return math.copysign(1.0, v) if v != 0 else 1.0


def _fminbound(f: Callable[[float], float], a: float, b: float,
               xatol: float) -> float:
    """Minimizer of f on [a, b] by Brent's method: golden-section search
    with parabolic interpolation steps.

    A line-for-line port of SciPy's
    `optimize.minimize_scalar(method="bounded")`, evaluating f at the same
    points in the same order, so the returned x is bit-identical to its
    `res.x`.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _step_sign(xm - xf)
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e

        x = xf + _step_sign(rat) * max(abs(rat), tol1)
        fu = f(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:  # SciPy's default maxiter
            break
    return xf


def fit_power_law(values: Iterable[int], x_min: int = 1,
                  min_tail: int = 50) -> PowerLawFit:
    """Maximum-likelihood exponent of a discrete power law p(x) ~ x^-alpha
    on integers x >= x_min.

    The zeta-normalized likelihood is maximized numerically; unlike the
    closed-form continuous approximation, this stays unbiased at small
    x_min. The normalizer is a pure-Python port of the Cephes Hurwitz
    zeta and the search a port of the bounded Brent minimizer (alpha in
    [1 + 1e-6, 25], xatol 1e-9); both are bit-exact with SciPy's
    `special.zeta` and `optimize.minimize_scalar`, which the tests use as
    the oracle. Raises TailTooSmallError when fewer than
    `min_tail` values lie in the tail.
    """
    if x_min < 1:
        raise ValueError(f"x_min must be >= 1, got {x_min}")
    tail = []
    for v in values:
        if v != int(v):
            raise ValueError(f"discrete power-law fit needs integer values, got {v!r}")
        if v >= x_min:
            tail.append(int(v))
    n = len(tail)
    if n < min_tail:
        raise TailTooSmallError(
            f"TAIL_TOO_SMALL: {n} values >= {x_min}, need {min_tail}")
    slog = 0.0  # left to right, like the sums in weighted_pagerank
    for v in tail:
        slog += math.log(v)

    def nll(alpha: float) -> float:
        return n * math.log(_hurwitz_zeta(alpha, x_min)) + alpha * slog

    alpha = _fminbound(nll, 1.0 + 1e-6, 25.0, xatol=1e-9)
    return PowerLawFit(alpha=alpha, x_min=x_min, n_tail=n)


class CentralityReport(NamedTuple):
    """Each measure is a list in the order of `nodes`."""

    nodes: tuple[str, ...]
    in_degree: list[int]
    out_degree: list[int]
    pagerank: list[float]
    pagerank_converged: bool
    pagerank_iterations: int

    def measure(self, name: str) -> list[float]:
        if name not in ("in_degree", "out_degree", "pagerank"):
            raise ValueError(f"unknown centrality measure {name!r}")
        return getattr(self, name)


def build_centrality_report(g: TalentGraph, damping: float = 0.85,
                            tol: float = 1e-10, max_iter: int = 200) -> CentralityReport:
    """Degree centralities and weighted PageRank of every node. An empty
    graph gives an empty report (no nodes, converged after 0 iterations)
    without running PageRank."""
    in_degree, out_degree = degree_centrality(g)
    pr = (weighted_pagerank(g, damping=damping, tol=tol, max_iter=max_iter)
          if g.nodes else PageRankResult(scores=[], converged=True, iterations=0))
    return CentralityReport(
        nodes=g.nodes,
        in_degree=in_degree,
        out_degree=out_degree,
        pagerank=pr.scores,
        pagerank_converged=pr.converged,
        pagerank_iterations=pr.iterations,
    )


def top_k(report: CentralityReport, measure: str, k: int) -> list[tuple[str, float]]:
    """The k best nodes by a measure, ties broken by ascending node key."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores = report.measure(measure)
    return heapq.nsmallest(k, zip(report.nodes, scores), key=lambda kv: (-kv[1], kv[0]))


def write_graph_csv(g: TalentGraph, path) -> int:
    """The edges in key-pair order, which is the id-pair order of `links`."""
    nodes = g.nodes
    return write_csv(path, ["src_key", "dst_key", "weight"],
                     ((nodes[u], nodes[v], w) for u, v, w in g.links))


def write_centrality_csv(report: CentralityReport, path) -> int:
    return write_csv(path, ["node_key", "in_degree", "out_degree", "pagerank"],
                     zip(report.nodes, report.in_degree, report.out_degree,
                         map(repr, report.pagerank)))


def write_components_csv(reports: Iterable[ComponentReport], path) -> int:
    return write_csv(path, ["component_id", "size", "mode"],
                     ((cid, len(component), report.mode) for report in reports
                      for cid, component in enumerate(report.components)))


def write_ccdf_csv(points: Sequence[tuple[int, float]], path) -> int:
    return write_csv(path, ["x", "ccdf"], ((x, repr(p)) for x, p in points))
