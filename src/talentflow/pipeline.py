"""Batch pipeline stages and the artifact directory layout.

Every stage is a pure function over files: it reads prior-stage artifacts
from the output directory and (re)writes its own. Running the full
pipeline is exactly the five stages in order plus a manifest, so staged
and one-shot runs produce identical artifact bytes. All files are written
atomically (temp file, then rename).
"""

from __future__ import annotations

import csv
import datetime as _dt
import json
import os
import platform
import time
from collections import Counter
from pathlib import Path
from typing import Callable

from . import __version__
from .config import ConfigError, PipelineConfig
from .graph import (JOB_MODE, ORG_MODE, STRONG, WEAK, TailTooSmallError,
                    build_centrality_report, build_graph, connected_components,
                    degree_ccdf, fit_power_law, sparsity, top_k,
                    write_ccdf_csv, write_centrality_csv, write_components_csv,
                    write_graph_csv)
from .hops import build_hop_corpus, read_hops_csv, write_hops_csv
from .ingest import (is_core_user, load_profiles, support_filter,
                     write_rejections)
from .metrics import (JobIndex, build_cohort_table, build_level_gain_records,
                      distribution_summaries, promotion_tables,
                      promotion_vs_duration, write_cohort_csv,
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


class DependencyError(Exception):
    """A required upstream artifact is missing."""


def _atomic(path: Path, write_fn: Callable[[Path], None]) -> None:
    """Write via `write_fn` to a temp file, then rename it over `path`. On
    any failure, interruption included, the temp file is removed and
    `path` is left as it was."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(path: Path, payload: dict) -> None:
    def write(p: Path) -> None:
        with open(p, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, ensure_ascii=False, sort_keys=True, indent=2)
            fh.write("\n")
    _atomic(path, write)


def _write_header_only(path: Path, header: list[str]) -> None:
    def write(p: Path) -> None:
        with open(p, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerow(header)
    _atomic(path, write)


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise DependencyError(
            f"missing artifact {path}; run '{producer}' first")
    return path


def _out_dir(config: PipelineConfig) -> Path:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_input(config: PipelineConfig):
    return load_profiles(config.input, config.reference_month())


def stage_parse_titles(config: PipelineConfig) -> dict:
    """Load profiles, build the title normalization map over titles that
    meet the support threshold, and write the map plus error reports."""
    out = _out_dir(config)
    dicts = config.load_dictionaries()
    translate = config.load_translator()
    profile_set, report = _load_input(config)
    _atomic(out / REJECTIONS_CSV, lambda p: write_rejections(report, p))

    counts = Counter(translate(s.raw_title) for s in profile_set.all_spells())
    retained = support_filter(counts, config.title_min_sup)
    norm_map = build_normalization({t: counts[t] for t in retained}, dicts)
    _atomic(out / NORMALIZATION_CSV, norm_map.to_csv)
    _atomic(out / PARSE_ERRORS_CSV, norm_map.write_error_report)

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


def _load_norm_map(config: PipelineConfig, out: Path) -> NormalizationMap:
    path = _require(out / NORMALIZATION_CSV, "talentflow parse-titles")
    return NormalizationMap.from_csv(path, config.load_dictionaries())


def stage_extract_hops(config: PipelineConfig) -> dict:
    out = _out_dir(config)
    norm_map = _load_norm_map(config, out)
    translate = config.load_translator()
    profile_set, _ = _load_input(config)
    corpus = build_hop_corpus(profile_set, norm_map, config.title_min_sup, translate)
    reference = config.reference_month()
    _atomic(out / HOPS_CSV, lambda p: write_hops_csv(corpus, p, reference))
    return {
        "hops": {
            "total": len(corpus),
            "internal": corpus.internal_count,
            "external": corpus.external_count,
            "retained_normalized_titles": len(corpus.retained_titles),
        },
    }


def stage_metrics(config: PipelineConfig) -> dict:
    out = _out_dir(config)
    norm_map = _load_norm_map(config, out)
    corpus = read_hops_csv(_require(out / HOPS_CSV, "talentflow extract-hops"))
    translate = config.load_translator()
    profile_set, _ = _load_input(config)

    idx = JobIndex.build(profile_set, norm_map, translate)
    _atomic(out / JOB_METRICS_CSV, lambda p: write_job_metrics_csv(idx, p))
    _atomic(out / JOB_LEVELS_CSV, lambda p: write_job_levels_csv(idx, p))

    records = build_level_gain_records(corpus, idx, config.job_min_sup)
    _atomic(out / LEVEL_GAINS_CSV, lambda p: write_level_gains_csv(records, p))
    table = promotion_tables(records)
    _atomic(out / PROMOTION_TABLE_CSV, lambda p: write_promotion_table_csv(table, p))
    duration_cells = promotion_vs_duration(records, config.job_min_sup)
    _atomic(out / PROMOTION_VS_DURATION_CSV,
            lambda p: write_promotion_vs_duration_csv(duration_cells, p))

    cohorts = build_cohort_table(corpus, profile_set, config.cohort_min_sup)
    _atomic(out / COHORT_CSV, lambda p: write_cohort_csv(cohorts, p))

    distributions = distribution_summaries(profile_set, idx)
    for dist in distributions:
        _atomic(out / f"dist_{dist.name}.csv",
                lambda p, d=dist: write_distribution_csv(d, p))
    _atomic(out / QUARTILES_CSV, lambda p: write_quartiles_csv(distributions, p))

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


def stage_graph(config: PipelineConfig) -> dict:
    out = _out_dir(config)
    corpus = read_hops_csv(_require(out / HOPS_CSV, "talentflow extract-hops"))

    stats_rows: list[tuple[str, str, str]] = []
    top_rows: list[tuple[str, str, int, str, str]] = []
    graph_counts = {}
    for mode, prefix in ((JOB_MODE, "job"), (ORG_MODE, "org")):
        g = build_graph(corpus, mode, config.edge_min_sup)
        _atomic(out / f"{prefix}_graph.csv", lambda p, g=g: write_graph_csv(g, p))
        graph_counts[prefix] = {"nodes": g.node_count, "edges": g.edge_count}
        stats_rows.append((prefix, "nodes", str(g.node_count)))
        stats_rows.append((prefix, "edges", str(g.edge_count)))

        if not g.nodes:
            _write_header_only(out / f"{prefix}_centrality.csv",
                               ["node_key", "in_degree", "out_degree", "pagerank"])
            _write_header_only(out / f"{prefix}_components.csv",
                               ["component_id", "size", "mode"])
            for measure in CENTRALITY_MEASURES:
                _write_header_only(out / f"{prefix}_{measure}_ccdf.csv", ["x", "ccdf"])
            _write_json(out / f"{prefix}_powerlaw.json",
                        {m: {"error": "EMPTY_GRAPH"} for m in
                         ("in_degree", "out_degree")})
            stats_rows.append((prefix, "sparsity_pct", ""))
            continue

        stats_rows.append((prefix, "sparsity_pct", repr(sparsity(g))))
        report = build_centrality_report(
            g, damping=config.damping, tol=config.tol, max_iter=config.max_iter)
        _atomic(out / f"{prefix}_centrality.csv",
                lambda p, r=report: write_centrality_csv(r, p))

        strong = connected_components(g, STRONG)
        weak = connected_components(g, WEAK)
        _atomic(out / f"{prefix}_components.csv",
                lambda p, s=strong, w=weak: write_components_csv((s, w), p))
        for label, comp in (("scc", strong), ("wcc", weak)):
            stats_rows.append((prefix, f"{label}_count", str(comp.count)))
            stats_rows.append((prefix, f"{label}_largest_size", str(comp.largest_size)))
            stats_rows.append((prefix, f"{label}_largest_pct",
                               repr(comp.size_pct(comp.largest_size))))
            stats_rows.append((prefix, f"{label}_second_size",
                               str(comp.second_largest_size)))
            stats_rows.append((prefix, f"{label}_second_pct",
                               repr(comp.size_pct(comp.second_largest_size))))
        stats_rows.append((prefix, "pagerank_converged",
                           str(report.pagerank_converged).lower()))
        stats_rows.append((prefix, "pagerank_iterations",
                           str(report.pagerank_iterations)))

        fits = {}
        for measure in ("in_degree", "out_degree"):
            values = [report.measure(measure)[v] for v in report.nodes]
            try:
                fit = fit_power_law(values, x_min=1)
                fits[measure] = {"alpha": fit.alpha, "x_min": fit.x_min,
                                 "n_tail": fit.n_tail}
            except TailTooSmallError:
                fits[measure] = {"error": "TAIL_TOO_SMALL"}
        _write_json(out / f"{prefix}_powerlaw.json", fits)

        for measure in CENTRALITY_MEASURES:
            values = [report.measure(measure)[v] for v in report.nodes]
            positive = [v for v in values if v > 0]
            points = degree_ccdf(positive) if positive else []
            _atomic(out / f"{prefix}_{measure}_ccdf.csv",
                    lambda p, pts=points: write_ccdf_csv(pts, p))

        for measure in CENTRALITY_MEASURES:
            for rank, (node, score) in enumerate(
                    top_k(report, measure, config.top_k), start=1):
                top_rows.append((prefix, measure, rank, node, repr(float(score))))

    def write_stats(p: Path) -> None:
        with open(p, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["graph", "metric", "value"])
            writer.writerows(stats_rows)
    _atomic(out / NETWORK_STATS_CSV, write_stats)

    def write_top(p: Path) -> None:
        with open(p, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["graph", "measure", "rank", "node_key", "score"])
            writer.writerows(top_rows)
    _atomic(out / TOP_NODES_CSV, write_top)

    return {"graphs": graph_counts}


def stage_report(config: PipelineConfig) -> dict:
    """Aggregate every emitted CSV table and power-law summary into one
    JSON document with plot-ready rows."""
    out = _out_dir(config)
    tables = {}
    for path in sorted(out.glob("*.csv")):
        with open(path, "r", encoding="utf-8", newline="") as fh:
            tables[path.stem] = list(csv.DictReader(fh))
    powerlaw = {}
    for path in sorted(out.glob("*_powerlaw.json")):
        with open(path, "r", encoding="utf-8") as fh:
            powerlaw[path.stem.removesuffix("_powerlaw")] = json.load(fh)
    payload = {"tables": tables, "powerlaw": powerlaw,
               "files": sorted(p.name for p in out.glob("*.csv"))}
    _write_json(out / REPORT_JSON, payload)
    return {"report": {"tables": len(tables)}}


STAGES: tuple[tuple[str, Callable[[PipelineConfig], dict]], ...] = (
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
    """Run all stages in order and write the manifest. Returns the
    manifest payload."""
    config.validate()
    started = _dt.datetime.now(_dt.timezone.utc)
    counts: dict = {}
    stage_seconds: dict[str, float] = {}
    for name, stage in STAGES:
        t0 = time.perf_counter()
        try:
            counts.update(stage(config))
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
    _write_json(Path(config.out) / MANIFEST_JSON, manifest)
    return manifest
