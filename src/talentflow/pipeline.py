"""Batch pipeline stages, their one driver and the artifact directory layout.

`run_stages` runs the named stages over one `RunState`: `run` names all
five, a stage subcommand its own. So a one-shot run passes the profiles,
the title normalization map, the hop corpus and the row count of each
table it wrote between stages in memory, and a staged subcommand loads
them from the input and the artifacts of earlier stages; both write
identical artifacts and manifest counts. Every artifact is written
atomically (temp file, then rename) by `talentflow.artifacts`; the JSON
layouts of the power-law summaries, the manifest and the report are
defined here. The report embeds the summary tables and links the tables
with one row per input line or entity (`LINKED_CSVS`).
"""

from __future__ import annotations

import csv
import json
import sys
import time
from collections import Counter
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterator, Sequence

from . import __version__
from .artifacts import write_csv, write_text
from .config import ConfigError, PipelineConfig
from .dates import Texts
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
# A table is embedded in report.json when its size is bounded by the
# configuration and the value ranges: its rows come from bins, fixed
# metrics, `top_k` or distinct degree values. It is linked when it has one
# row per input line, title, job, edge, node or component: the report
# vouches for it by its data row count and byte size, and leaves its rows
# to the CSV file.
LINKED_CSVS = (
    HOPS_CSV, LEVEL_GAINS_CSV, REJECTIONS_CSV, NORMALIZATION_CSV,
    PARSE_ERRORS_CSV, JOB_METRICS_CSV, JOB_LEVELS_CSV,
    *(f"{prefix}_{table}.csv" for _, prefix in GRAPH_PREFIXES
      for table in ("graph", "centrality", "components", "pagerank_ccdf")),
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
    """What the stages of one `run_stages` call share, loaded on first use.

    A stage that builds the normalization map or the hop corpus stores it
    here, so the later stages of a one-shot run use it as built; in a
    fresh state it is loaded from the artifact that the stage before wrote.
    Likewise `rows` holds the data row count of each table written in this
    process, by file name, as its writer returned it.
    """

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.out = Path(config.out)
        self.out.mkdir(parents=True, exist_ok=True)
        self.rows: dict[str, int] = {}

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
    def translated(self) -> Texts:
        """Each raw spell title, translated when first read: the
        translator runs once per distinct raw title."""
        return Texts(self.config.load_translator())

    @cached_property
    def title_of(self) -> Texts:
        """Each raw spell title, normalized when first read: the map
        looks up each distinct translated title once."""
        translated, resolved = self.translated, Texts(self.norm_map.lookup)
        return Texts(lambda raw: resolved[translated[raw]])

    @cached_property
    def corpus(self) -> HopCorpus:
        return read_hops_csv(_require(self.out / HOPS_CSV, "talentflow extract-hops"))


def stage_parse_titles(state: RunState) -> dict:
    """Load profiles, build the title normalization map over titles that
    meet the support threshold, and write the map plus error reports."""
    config, out, written = state.config, state.out, state.rows
    dicts, translated = config.load_dictionaries(), state.translated
    profile_set, report = state.loaded
    written[REJECTIONS_CSV] = write_rejections(report, out / REJECTIONS_CSV)

    counts = Counter(translated[s.raw_title] for s in profile_set.all_spells())
    retained = support_filter(counts, config.title_min_sup)
    norm_map = state.norm_map = build_normalization(
        {t: counts[t] for t in retained}, dicts)
    written[NORMALIZATION_CSV] = norm_map.to_csv(out / NORMALIZATION_CSV)
    written[PARSE_ERRORS_CSV] = norm_map.write_error_report(out / PARSE_ERRORS_CSV)

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
    corpus = state.corpus = build_hop_corpus(
        profile_set, state.title_of, config.title_min_sup)
    state.rows[HOPS_CSV] = write_hops_csv(corpus, out / HOPS_CSV)
    return {
        "hops": {
            "total": len(corpus),
            "internal": corpus.internal_count,
            "external": corpus.external_count,
            "retained_normalized_titles": len(corpus.retained_titles),
        },
    }


def stage_metrics(state: RunState) -> dict:
    config, out, written = state.config, state.out, state.rows
    profile_set, _ = state.loaded
    corpus = state.corpus

    idx = JobIndex.build(profile_set, state.title_of)
    written[JOB_METRICS_CSV] = write_job_metrics_csv(idx, out / JOB_METRICS_CSV)
    written[JOB_LEVELS_CSV] = write_job_levels_csv(idx, out / JOB_LEVELS_CSV)

    records = build_level_gain_records(corpus, idx, config.job_min_sup)
    written[LEVEL_GAINS_CSV] = write_level_gains_csv(records, idx, out / LEVEL_GAINS_CSV)
    table = promotion_tables(records)
    written[PROMOTION_TABLE_CSV] = write_promotion_table_csv(
        table, out / PROMOTION_TABLE_CSV)
    duration_cells = promotion_vs_duration(records, config.job_min_sup)
    written[PROMOTION_VS_DURATION_CSV] = write_promotion_vs_duration_csv(
        duration_cells, out / PROMOTION_VS_DURATION_CSV)

    cohorts = build_cohort_table(corpus, profile_set, config.cohort_min_sup)
    written[COHORT_CSV] = write_cohort_csv(cohorts, out / COHORT_CSV)

    distributions = distribution_summaries(profile_set, idx)
    for dist in distributions:
        name = f"dist_{dist.name}.csv"
        written[name] = write_distribution_csv(dist, out / name)
    written[QUARTILES_CSV] = write_quartiles_csv(distributions, out / QUARTILES_CSV)

    return {
        "metrics": {
            "holdings": len(idx.holdings),
            "jobs": len(idx.job_months),
            "title_industry_pairs": len(idx.age_months),
            "promotion_labels": table._asdict(),
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
        try:
            fits[measure] = fit_power_law(report.measure(measure), x_min=1)._asdict()
        except TailTooSmallError:
            fits[measure] = {"error": "TAIL_TOO_SMALL"}
    return rows, fits


def stage_graph(state: RunState) -> dict:
    config, out, corpus, written = state.config, state.out, state.corpus, state.rows

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

        for table, write, data in (("graph", write_graph_csv, g),
                                   ("centrality", write_centrality_csv, report),
                                   ("components", write_components_csv, components)):
            name = f"{prefix}_{table}.csv"
            written[name] = write(data, out / name)
        _write_json(out / f"{prefix}_powerlaw.json", fits)
        for measure in CENTRALITY_MEASURES:
            positive = [v for v in report.measure(measure) if v > 0]
            points = degree_ccdf(positive) if positive else []
            name = f"{prefix}_{measure}_ccdf.csv"
            written[name] = write_ccdf_csv(points, out / name)
            top_rows += [(prefix, measure, rank, node, repr(float(score)))
                         for rank, (node, score) in enumerate(
                             top_k(report, measure, config.top_k), start=1)]

    written[NETWORK_STATS_CSV] = write_csv(
        out / NETWORK_STATS_CSV, ["graph", "metric", "value"], stats_rows)
    written[TOP_NODES_CSV] = write_csv(
        out / TOP_NODES_CSV, ["graph", "measure", "rank", "node_key", "score"],
        top_rows)
    return {"graphs": graph_counts}


# The C string encoder that json.dumps(..., ensure_ascii=False) applies
# to every str.
_encode = json.encoder.encode_basestring


def _compact_json(value) -> str:
    """`value` as `report.json` lays it out: sorted keys, no whitespace."""
    return json.dumps(value, ensure_ascii=False, sort_keys=True,
                      separators=(",", ":"))


def _table_rows(path: Path) -> Iterator[list[str]]:
    """The header of the CSV table at `path`, then each of its rows, read
    one at a time. Blank lines are skipped, and an empty file has the
    header `[]`. A header that repeats a column name, or a row with more or
    fewer fields than the header, raises `ValueError` naming the file and
    line."""
    with open(path, "r", encoding="utf-8", newline="") as src:
        reader = csv.reader(src)
        header = next(reader, [])
        if len(set(header)) < len(header):
            raise ValueError(f"{path}: line {reader.line_num}: "
                             f"header repeats a column name")
        yield header
        for row in reader:
            if not row:
                continue  # a blank line is no row
            if len(row) != len(header):
                raise ValueError(f"{path}: line {reader.line_num}: {len(row)} "
                                 f"fields, the header has {len(header)}")
            yield row


def _linked_table(path: Path, rows: int | None) -> dict:
    """The size of the CSV table at `path` and its number of data rows,
    which is `len(list(csv.DictReader(...)))` of a well-formed table:
    `rows` when the table's writer returned it in this process, else
    counted from the file, with every check of `_table_rows`."""
    if rows is None:
        table = _table_rows(path)
        next(table)  # the header
        rows = sum(1 for _ in table)
    return {"bytes": path.stat().st_size, "rows": rows}


def _report_table(path: Path) -> Iterator[str]:
    """The CSV table at `path` as the compact JSON object
    `{"columns": [header], "rows": [[fields], ...]}`, one row at a time."""
    rows = _table_rows(path)
    yield '{"columns":[' + ",".join(map(_encode, next(rows))) + '],"rows":['
    separator = ""
    for row in rows:
        yield separator + "[" + ",".join(map(_encode, row)) + "]"
        separator = ","
    yield "]}"


def _report_json(out: Path, files: list[str], linked: dict,
                 powerlaw: dict) -> Iterator[str]:
    """`report.json` in pieces, each embedded table streamed from its
    file."""
    yield (f'{{"files":{_compact_json(files)},"linked":{_compact_json(linked)},'
           f'"powerlaw":{_compact_json(powerlaw)},"tables":{{')
    # key order is by stem, which can differ from file order:
    # "dist_a-b.csv" < "dist_a.csv" but "dist_a" < "dist_a-b"
    tables = sorted((name for name in files if name not in linked),
                    key=lambda n: n.removesuffix(".csv"))
    separator = ""
    for name in tables:
        yield f"{separator}{_encode(name.removesuffix('.csv'))}:"
        yield from _report_table(out / name)
        separator = ","
    yield "}}\n"


def stage_report(state: RunState) -> dict:
    """Aggregate the pipeline's summary tables and power-law fits into one
    JSON document with plot-ready rows, and vouch for the per-entity
    tables by size and row count. Other files in the output directory are
    left out, and artifacts not written are skipped.

    `report.json` holds the bytes of
    `json.dumps({"files": [...], "linked": {...}, "powerlaw": {...},
    "tables": {...}}, ensure_ascii=False, sort_keys=True,
    separators=(",", ":")) + "\\n"`. `files` names every reported CSV
    that exists. The tables with one row per input line or entity
    (`LINKED_CSVS`) are not copied: `linked` maps each one that exists
    to `{"bytes": <file size>, "rows": <data rows>}`, with the rows
    counted as `len(list(csv.DictReader(...)))`. A table written in this
    process, as in a one-shot run, takes its row count from its writer
    (`state.rows`) and is not read back; one written by an earlier
    process is read and checked. Each other table, keyed by its file
    name without `.csv`, is `{"columns": <header>, "rows": [<fields>,
    ...]}` under `tables`: the header in file order, and each data row as
    its list of field strings. The document is written one row at a
    time, so no table is held in memory. Blank lines are skipped; an
    empty file is `{"columns": [], "rows": []}` and a header-only file
    has no rows. A row with more or fewer fields than the header, or a
    header that repeats a column name, in a linked table that is read or
    in an embedded table, raises `ValueError` naming the file and line,
    and any earlier `report.json` is left as it was."""
    out = state.out
    files = sorted(name for name in REPORTED_CSVS if (out / name).exists())
    linked = {name: _linked_table(out / name, state.rows.get(name))
              for name in LINKED_CSVS if name in files}
    powerlaw = {}
    for _, prefix in GRAPH_PREFIXES:
        path = out / f"{prefix}_powerlaw.json"
        if path.exists():
            with open(path, "r", encoding="utf-8") as fh:
                powerlaw[prefix] = json.load(fh)
    write_text(out / REPORT_JSON, _report_json(out, files, linked, powerlaw))
    return {"report": {"tables": len(files) - len(linked), "linked": len(linked)}}


STAGES: tuple[tuple[str, Callable[[RunState], dict]], ...] = (
    ("parse-titles", stage_parse_titles),
    ("extract-hops", stage_extract_hops),
    ("metrics", stage_metrics),
    ("graph", stage_graph),
    ("report", stage_report),
)


class StageFailure(Exception):
    """A stage error that is not an I/O, missing-artifact or config error."""


def _utc_now() -> str:
    """The current UTC time as ISO 8601 with microseconds,
    `YYYY-MM-DDTHH:MM:SS.ffffff+00:00`."""
    seconds, ns = divmod(time.time_ns(), 1_000_000_000)
    return (time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
            + f".{ns // 1000:06d}+00:00")


def _earlier_manifest(path: Path) -> tuple[dict, dict]:
    """The `counts` and `timings.stage_seconds` of the manifest at `path`,
    or two empty dicts if it is missing, unreadable or foreign (invalid
    UTF-8 or JSON, nested too deeply, or not of the manifest's shape)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        earlier = manifest["counts"], manifest["timings"]["stage_seconds"]
    except (OSError, ValueError, RecursionError, LookupError, TypeError):
        return {}, {}
    return earlier if all(isinstance(d, dict) for d in earlier) else ({}, {})


def run_stages(config: PipelineConfig, names: Sequence[str]) -> dict:
    """Validate `config`, then run the named stages of `STAGES` (read when
    called) in order over one `RunState`, timing each, and write the
    manifest; returns its payload. A stage error other than an I/O,
    missing-artifact or configuration error is raised as `StageFailure`,
    and a failing call writes no manifest. Names that do not start at
    parse-titles add their counts and seconds to those of the manifest
    already in the output directory (see `_earlier_manifest`)."""
    config.validate()
    state = RunState(config)
    counts, stage_seconds = (({}, {}) if names[0] == STAGES[0][0]
                             else _earlier_manifest(state.out / MANIFEST_JSON))
    stages = dict(STAGES)
    started = _utc_now()
    for name in names:
        t0 = time.perf_counter()
        try:
            counts.update(stages[name](state))
        except (OSError, DependencyError, ConfigError):
            raise
        except Exception as exc:
            raise StageFailure(f"stage {name} failed: {exc}") from exc
        stage_seconds[name] = round(time.perf_counter() - t0, 3)
    finished = _utc_now()
    manifest = {
        "package": "talentflow",
        "version": __version__,
        "python": sys.version.split()[0],
        "config": config.echo(),
        "counts": counts,
        "timings": {
            "started_at": started,
            "finished_at": finished,
            "stage_seconds": stage_seconds,
        },
    }
    _write_json(state.out / MANIFEST_JSON, manifest)
    return manifest
