"""Batch pipeline stages and the artifact directory layout.

A one-shot run hands one `RunState` through the five stages, so the
profiles, the title normalization map and the hop corpus pass between
them in memory. A staged subcommand gets a fresh state, which loads them
from the input and the artifacts of earlier stages; both paths write
identical artifact bytes. Every artifact is written atomically (temp
file, then rename) by `talentflow.artifacts`; the JSON layouts of the
power-law summaries, the manifest and the report are defined here.
"""

from __future__ import annotations

import csv
import datetime as _dt
import json
import platform
import time
from collections import Counter
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterator

from . import __version__
from .artifacts import write_csv, write_text
from .config import ConfigError, PipelineConfig
from .graph import (JOB_MODE, ORG_MODE, STRONG, WEAK, CentralityReport,
                    ComponentReport, TailTooSmallError, TalentGraph,
                    build_centrality_report, build_graph, connected_components,
                    degree_ccdf, fit_power_law, sparsity, top_k,
                    write_ccdf_csv, write_centrality_csv, write_components_csv,
                    write_graph_csv)
from .hops import HopCorpus, build_hop_corpus, read_hops_csv, write_hops_csv
from .ingest import (LoadReport, ProfileSet, is_core_user, load_profiles,
                     support_filter, write_rejections)
from .metrics import (DISTRIBUTION_NAMES, JobIndex, build_cohort_table,
                      build_level_gain_records, distribution_summaries,
                      promotion_tables, promotion_vs_duration, write_cohort_csv,
                      write_distribution_csv, write_job_levels_csv,
                      write_job_metrics_csv, write_level_gains_csv,
                      write_promotion_table_csv, write_promotion_vs_duration_csv,
                      write_quartiles_csv)
from .titles import NormalizationMap, build_normalization

REJECTIONS_CSV = "rejections.csv"
NORMALIZATION_CSV = "normalization_map.csv"
PARSE_ERRORS_CSV = "parse_errors.csv"
HOPS_CSV = "hops.csv"
JOB_METRICS_CSV = "job_metrics.csv"
JOB_LEVELS_CSV = "job_levels.csv"
COHORT_CSV = "cohort_hop_fractions.csv"
LEVEL_GAINS_CSV = "level_gains.csv"
PROMOTION_TABLE_CSV = "promotion_table.csv"
PROMOTION_VS_DURATION_CSV = "promotion_vs_duration.csv"
QUARTILES_CSV = "distribution_quartiles.csv"
NETWORK_STATS_CSV = "network_stats.csv"
TOP_NODES_CSV = "top_nodes.csv"
REPORT_JSON = "report.json"
MANIFEST_JSON = "manifest.json"

CENTRALITY_MEASURES = ("in_degree", "out_degree", "pagerank")
FITTED_MEASURES = ("in_degree", "out_degree")  # power-law fits per graph
GRAPH_PREFIXES = ((JOB_MODE, "job"), (ORG_MODE, "org"))

# Every CSV table the stages write; the report reads these and no others.
REPORTED_CSVS = (
    REJECTIONS_CSV, NORMALIZATION_CSV, PARSE_ERRORS_CSV, HOPS_CSV,
    JOB_METRICS_CSV, JOB_LEVELS_CSV, COHORT_CSV, LEVEL_GAINS_CSV,
    PROMOTION_TABLE_CSV, PROMOTION_VS_DURATION_CSV, QUARTILES_CSV,
    NETWORK_STATS_CSV, TOP_NODES_CSV,
    *(f"dist_{name}.csv" for name in DISTRIBUTION_NAMES),
    *(f"{prefix}_{table}.csv" for _, prefix in GRAPH_PREFIXES
      for table in ("graph", "centrality", "components",
                    *(f"{m}_ccdf" for m in CENTRALITY_MEASURES))),
)


class DependencyError(Exception):
    """A required upstream artifact is missing."""


def _json(value) -> str:
    return json.dumps(value, ensure_ascii=False, sort_keys=True, indent=2)


def _write_json(path: Path, payload: dict) -> None:
    write_text(path, (_json(payload), "\n"))


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise DependencyError(
            f"missing artifact {path}; run '{producer}' first")
    return path


class RunState:
    """What the stages of one process share; the data loads on first use.

    A stage that builds the normalization map or the hop corpus stores it
    here, so the later stages of a one-shot run use it as built; in a
    fresh state it is loaded from the artifact that the stage before wrote.
    """

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.out = Path(config.out)
        self.out.mkdir(parents=True, exist_ok=True)

    @cached_property
    def translate(self) -> Callable[[str], str]:
        return self.config.load_translator()

    @cached_property
    def loaded(self) -> tuple[ProfileSet, LoadReport]:
        if not self.config.input:
            raise ConfigError("input path is required")
        return load_profiles(self.config.input, self.config.reference_month())

    @cached_property
    def norm_map(self) -> NormalizationMap:
        path = _require(self.out / NORMALIZATION_CSV, "talentflow parse-titles")
        return NormalizationMap.from_csv(path, self.config.load_dictionaries())

    @cached_property
    def corpus(self) -> HopCorpus:
        return read_hops_csv(_require(self.out / HOPS_CSV, "talentflow extract-hops"))

    def release_data(self) -> None:
        """Free the profiles, the map and the corpus for work on artifacts."""
        for name in ("loaded", "norm_map", "corpus"):
            self.__dict__.pop(name, None)


def stage_parse_titles(state: RunState) -> dict:
    """Load profiles, build the title normalization map over titles that
    meet the support threshold, and write the map plus error reports."""
    config, out = state.config, state.out
    dicts, translate = config.load_dictionaries(), state.translate
    profile_set, report = state.loaded
    write_rejections(report, out / REJECTIONS_CSV)

    counts = Counter(translate(s.raw_title) for s in profile_set.all_spells())
    retained = support_filter(counts, config.title_min_sup)
    norm_map = state.norm_map = build_normalization(
        {t: counts[t] for t in retained}, dicts)
    norm_map.to_csv(out / NORMALIZATION_CSV)
    norm_map.write_error_report(out / PARSE_ERRORS_CSV)

    stats = norm_map.stats
    return {
        "profiles": {
            "total": len(profile_set),
            "core": sum(1 for p in profile_set if is_core_user(p)),
            "organizations": len(profile_set.org_industry),
            "rejected_lines": len(report.rejections),
            "skill_truncations": report.skill_truncations,
            "industry_conflicts": len(report.industry_conflicts),
        },
        "titles": {
            "distinct_raw": len(counts),
            "distinct_raw_min_sup": len(retained),
            "parsed": stats.parsed,
            "duplicates": stats.duplicates,
            "canonical": stats.canonical,
            "errors": stats.errors,
            "error_rate": float(stats.error_rate),
        },
    }


def stage_extract_hops(state: RunState) -> dict:
    config, out = state.config, state.out
    profile_set, _ = state.loaded
    norm_map, translate = state.norm_map, state.translate
    corpus = state.corpus = build_hop_corpus(
        profile_set, norm_map, config.title_min_sup, translate)
    reference = config.reference_month()
    write_hops_csv(corpus, out / HOPS_CSV, reference)
    return {
        "hops": {
            "total": len(corpus),
            "internal": corpus.internal_count,
            "external": corpus.external_count,
            "retained_normalized_titles": len(corpus.retained_titles),
        },
    }


def stage_metrics(state: RunState) -> dict:
    config, out = state.config, state.out
    profile_set, _ = state.loaded
    norm_map, corpus, translate = state.norm_map, state.corpus, state.translate

    idx = JobIndex.build(profile_set, norm_map, translate)
    write_job_metrics_csv(idx, out / JOB_METRICS_CSV)
    write_job_levels_csv(idx, out / JOB_LEVELS_CSV)

    records = build_level_gain_records(corpus, idx, config.job_min_sup)
    write_level_gains_csv(records, out / LEVEL_GAINS_CSV)
    table = promotion_tables(records)
    write_promotion_table_csv(table, out / PROMOTION_TABLE_CSV)
    duration_cells = promotion_vs_duration(records, config.job_min_sup)
    write_promotion_vs_duration_csv(duration_cells, out / PROMOTION_VS_DURATION_CSV)

    cohorts = build_cohort_table(corpus, profile_set, config.cohort_min_sup)
    write_cohort_csv(cohorts, out / COHORT_CSV)

    distributions = distribution_summaries(profile_set, idx)
    for dist in distributions:
        write_distribution_csv(dist, out / f"dist_{dist.name}.csv")
    write_quartiles_csv(distributions, out / QUARTILES_CSV)

    return {
        "metrics": {
            "holdings": len(idx.holdings),
            "jobs": len(idx.by_title_org),
            "title_industry_pairs": len(idx.by_title_industry),
            "promotion_labels": {
                "external_promotions": table.external_promotions,
                "external_demotions": table.external_demotions,
                "internal_promotions": table.internal_promotions,
                "internal_demotions": table.internal_demotions,
            },
            "cohorts": len(cohorts.cells),
        },
    }


def graph_summary(g: TalentGraph, report: CentralityReport,
                  components: tuple[ComponentReport, ...]) -> tuple[list, dict]:
    """The `network_stats.csv` rows (metric, value) and the power-law fits
    of one graph, given its centrality report and its strong and weak
    components. An empty graph has only its size rows, an empty
    sparsity, and EMPTY_GRAPH in place of every fit."""
    rows = [("nodes", str(g.node_count)), ("edges", str(g.edge_count))]
    if not g.nodes:
        return (rows + [("sparsity_pct", "")],
                {m: {"error": "EMPTY_GRAPH"} for m in FITTED_MEASURES})
    rows.append(("sparsity_pct", repr(sparsity(g))))
    for label, comp in zip(("scc", "wcc"), components):
        rows += [
            (f"{label}_count", str(comp.count)),
            (f"{label}_largest_size", str(comp.largest_size)),
            (f"{label}_largest_pct", repr(comp.size_pct(comp.largest_size))),
            (f"{label}_second_size", str(comp.second_largest_size)),
            (f"{label}_second_pct", repr(comp.size_pct(comp.second_largest_size))),
        ]
    rows += [("pagerank_converged", str(report.pagerank_converged).lower()),
             ("pagerank_iterations", str(report.pagerank_iterations))]

    fits = {}
    for measure in FITTED_MEASURES:
        # node order: the fit sums logs in input order
        values = [report.measure(measure)[v] for v in report.nodes]
        try:
            fit = fit_power_law(values, x_min=1)
            fits[measure] = {"alpha": fit.alpha, "x_min": fit.x_min,
                             "n_tail": fit.n_tail}
        except TailTooSmallError:
            fits[measure] = {"error": "TAIL_TOO_SMALL"}
    return rows, fits


def stage_graph(state: RunState) -> dict:
    config, out, corpus = state.config, state.out, state.corpus

    stats_rows: list[tuple[str, str, str]] = []
    top_rows: list[tuple[str, str, int, str, str]] = []
    graph_counts = {}
    for mode, prefix in GRAPH_PREFIXES:
        g = build_graph(corpus, mode, config.edge_min_sup)
        graph_counts[prefix] = {"nodes": g.node_count, "edges": g.edge_count}
        report = build_centrality_report(
            g, damping=config.damping, tol=config.tol, max_iter=config.max_iter)
        components = (connected_components(g, STRONG), connected_components(g, WEAK))
        rows, fits = graph_summary(g, report, components)
        stats_rows += [(prefix, metric, value) for metric, value in rows]

        write_graph_csv(g, out / f"{prefix}_graph.csv")
        write_centrality_csv(report, out / f"{prefix}_centrality.csv")
        write_components_csv(components, out / f"{prefix}_components.csv")
        _write_json(out / f"{prefix}_powerlaw.json", fits)
        for measure in CENTRALITY_MEASURES:
            values = [report.measure(measure)[v] for v in report.nodes]
            positive = [v for v in values if v > 0]
            points = degree_ccdf(positive) if positive else []
            write_ccdf_csv(points, out / f"{prefix}_{measure}_ccdf.csv")
            top_rows += [(prefix, measure, rank, node, repr(float(score)))
                         for rank, (node, score) in enumerate(
                             top_k(report, measure, config.top_k), start=1)]

    write_csv(out / NETWORK_STATS_CSV, ["graph", "metric", "value"], stats_rows)
    write_csv(out / TOP_NODES_CSV,
              ["graph", "measure", "rank", "node_key", "score"], top_rows)
    return {"graphs": graph_counts}


_encode = json.JSONEncoder(ensure_ascii=False).encode  # C string encoder


def _nested_json(value) -> str:
    """`value` as `_write_json` lays it out, one level deeper."""
    return _json(value).replace("\n", "\n  ")


def _report_table(path: Path) -> Iterator[str]:
    """The CSV table at `path` as the JSON array `json.dumps` writes for
    `list(csv.DictReader(...))` at the depth of a report table, one row at
    a time."""
    with open(path, "r", encoding="utf-8", newline="") as src:
        reader = csv.reader(src)
        header = next(reader, [])
        if len(set(header)) < len(header):
            raise ValueError(f"{path}: line {reader.line_num}: "
                             f"header repeats a column name")
        # a str.format template for one row object, keys in sorted order;
        # argument i is the encoded field i
        fields = ",\n".join(
            "        " + _encode(header[i]).replace("{", "{{").replace("}", "}}")
            + f": {{{i}}}"
            for i in sorted(range(len(header)), key=header.__getitem__))
        template = "      {{\n" + fields + "\n      }}"
        separator = "[\n"
        for row in reader:
            if not row:
                continue  # a blank line is no row
            if len(row) != len(header):
                raise ValueError(f"{path}: line {reader.line_num}: {len(row)} "
                                 f"fields, the header has {len(header)}")
            # a list, not map(): each tuple built from an iterator of unknown
            # length is resized and then parked in the interpreter's free list
            yield separator + template.format(*[_encode(v) for v in row])
            separator = ",\n"
    yield "[]" if separator == "[\n" else "\n    ]"


def _report_json(out: Path, files: list[str], powerlaw: dict) -> Iterator[str]:
    """`report.json` in pieces, each table streamed from its file."""
    yield (f'{{\n  "files": {_nested_json(files)},\n'
           f'  "powerlaw": {_nested_json(powerlaw)},\n  "tables": {{')
    # key order is by stem, which can differ from file order:
    # "dist_a-b.csv" < "dist_a.csv" but "dist_a" < "dist_a-b"
    separator = "\n"
    for name in sorted(files, key=lambda n: n.removesuffix(".csv")):
        yield f"{separator}    {_encode(name.removesuffix('.csv'))}: "
        yield from _report_table(out / name)
        separator = ",\n"
    yield "}\n}\n" if not files else "\n  }\n}\n"


def stage_report(state: RunState) -> dict:
    """Aggregate the pipeline's CSV tables and power-law summaries into one
    JSON document with plot-ready rows. Other files in the output
    directory are left out, and artifacts not written are skipped.

    `report.json` holds the bytes of
    `json.dumps({"files": [...], "powerlaw": {...}, "tables": {...}},
    ensure_ascii=False, sort_keys=True, indent=2) + "\\n"`, where each
    table, keyed by its file name without `.csv`, is
    `list(csv.DictReader(...))` of that file. It is written one row at a
    time, so no table is held in memory. Blank lines are skipped, and an
    empty or header-only file is `[]`. A row with more or fewer fields
    than the header, or a header that repeats a column name, raises
    `ValueError` naming the file and line, and any earlier `report.json`
    is left as it was."""
    state.release_data()  # the report reads only artifacts
    out = state.out
    files = sorted(name for name in REPORTED_CSVS if (out / name).exists())
    powerlaw = {}
    for _, prefix in GRAPH_PREFIXES:
        path = out / f"{prefix}_powerlaw.json"
        if path.exists():
            with open(path, "r", encoding="utf-8") as fh:
                powerlaw[prefix] = json.load(fh)
    write_text(out / REPORT_JSON, _report_json(out, files, powerlaw))
    return {"report": {"tables": len(files)}}


STAGES: tuple[tuple[str, Callable[[RunState], dict]], ...] = (
    ("parse-titles", stage_parse_titles),
    ("extract-hops", stage_extract_hops),
    ("metrics", stage_metrics),
    ("graph", stage_graph),
    ("report", stage_report),
)


class StageFailure(Exception):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage} failed: {cause}")
        self.stage = stage
        self.cause = cause


def run_pipeline(config: PipelineConfig) -> dict:
    """Run all stages in order over one `RunState` and write the manifest.
    Returns the manifest payload."""
    config.validate()
    state = RunState(config)
    started = _dt.datetime.now(_dt.timezone.utc)
    counts: dict = {}
    stage_seconds: dict[str, float] = {}
    for name, stage in STAGES:
        t0 = time.perf_counter()
        try:
            counts.update(stage(state))
        except (OSError, DependencyError, ConfigError):
            raise
        except Exception as exc:
            raise StageFailure(name, exc) from exc
        stage_seconds[name] = round(time.perf_counter() - t0, 3)
    finished = _dt.datetime.now(_dt.timezone.utc)
    manifest = {
        "package": "talentflow",
        "version": __version__,
        "python": platform.python_version(),
        "config": config.echo(),
        "counts": counts,
        "timings": {
            "started_at": started.isoformat(),
            "finished_at": finished.isoformat(),
            "stage_seconds": stage_seconds,
        },
    }
    _write_json(state.out / MANIFEST_JSON, manifest)
    return manifest
