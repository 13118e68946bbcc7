"""Run one talentflow CLI command in this process with layer spans.

Usage: python3 perfbench/tracer.py SPANS_JSON -- CLI_ARGS...

The names that talentflow.pipeline imports from ingest, titles, hops,
metrics and graph are replaced by wrappers that record a span (name,
start, end, parent) per call; the stage functions and
PipelineConfig.load_dictionaries get spans too. The hot inner functions
(NormalizationMap.lookup, metrics.job_level) are counted, not timed, so
that tracing stays cheap. Nothing in the program changes on disk. Spans
are kept in memory and written to SPANS_JSON when the command ends.
"""

from __future__ import annotations

import functools
import json
import logging
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.values: dict[str, int] = {}
        self.titles: set[str] = set()

    def timed(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[index][2] = time.perf_counter()
            if on_result is not None:
                on_result(result, args, kwargs)
            return result
        return wrapper


class _WarningCounter(logging.Handler):
    """Counts warning records per logger; prints nothing."""

    def __init__(self, counts: Counter) -> None:
        super().__init__(logging.WARNING)
        self.counts = counts

    def emit(self, record: logging.LogRecord) -> None:
        if record.name.startswith("talentflow.ingest"):
            self.counts["ingest.warning_lines"] += 1


def _replace(owner, attr: str, make):
    """Swap owner.attr for make(original); fails loudly if it is gone."""
    original = getattr(owner, attr)
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
    wrapped = make(original)
    if isinstance(raw, (classmethod, staticmethod)):
        wrapped = staticmethod(wrapped)
    setattr(owner, attr, wrapped)


def install(tracer: Tracer) -> None:
    from talentflow import cli, config, graph, metrics, pipeline
    from talentflow.titles import NormalizationMap

    def span(owner, attr, name, on_result=None):
        _replace(owner, attr, lambda fn: tracer.timed(name, fn, on_result))

    def on_load(result, args, kwargs):
        tracer.values["ingest.rejected_lines"] = len(result[1].rejections)

    def on_hops(result, args, kwargs):
        tracer.values["hops.count"] = len(result)

    modes = {graph.JOB_MODE: "job", graph.ORG_MODE: "org"}

    def on_graph(result, args, kwargs):
        prefix = modes[kwargs.get("mode", args[1] if len(args) > 1 else None)]
        tracer.values[f"graph.{prefix}.nodes"] = result.node_count
        tracer.values[f"graph.{prefix}.edges"] = result.edge_count

    def on_pagerank(result, args, kwargs):
        tracer.counts["graph.pagerank.iterations"] += result.iterations

    span(pipeline, "load_profiles", "ingest.load_profiles", on_load)
    span(pipeline, "build_normalization", "titles.build_normalization")
    span(NormalizationMap, "from_csv", "titles.map_from_csv")
    span(pipeline, "build_hop_corpus", "hops.build_hop_corpus", on_hops)
    span(pipeline, "write_hops_csv", "hops.write_hops_csv")
    span(pipeline, "read_hops_csv", "hops.read_hops_csv")
    span(metrics.JobIndex, "build", "metrics.job_index")
    span(pipeline, "build_level_gain_records", "metrics.level_gains")
    span(pipeline, "build_cohort_table", "metrics.cohorts")
    span(pipeline, "distribution_summaries", "metrics.distributions")
    span(metrics, "quartiles", "metrics.quartiles")
    for name in ("write_job_metrics_csv", "write_job_levels_csv",
                 "write_level_gains_csv", "write_promotion_table_csv",
                 "write_promotion_vs_duration_csv", "write_cohort_csv",
                 "write_distribution_csv", "write_quartiles_csv"):
        span(pipeline, name, "metrics.writers")
    span(pipeline, "build_graph", "graph.build", on_graph)
    span(graph, "weighted_pagerank", "graph.pagerank", on_pagerank)
    span(pipeline, "connected_components", "graph.components")
    span(pipeline, "fit_power_law", "graph.power_law")
    for name in ("write_graph_csv", "write_centrality_csv",
                 "write_components_csv", "write_ccdf_csv"):
        span(pipeline, name, "graph.writers")
    span(config.PipelineConfig, "load_dictionaries", "cli.dictionaries")

    stages = tuple((name, tracer.timed(f"pipeline.stage.{name}", fn))
                   for name, fn in pipeline.STAGES)
    _replace(pipeline, "STAGES", lambda _: stages)
    _replace(cli, "STAGES", lambda _: stages)

    def count_lookup(fn):
        def lookup(self, title):
            tracer.counts["titles.normalize.calls"] += 1
            tracer.titles.add(title)
            return fn(self, title)
        return lookup

    def count_job_level(fn):
        def job_level(*args, **kwargs):
            tracer.counts["metrics.job_level.calls"] += 1
            return fn(*args, **kwargs)
        return job_level

    _replace(NormalizationMap, "lookup", count_lookup)
    _replace(metrics, "job_level", count_job_level)
    logging.getLogger("talentflow").addHandler(_WarningCounter(tracer.counts))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- CLI_ARGS...", file=sys.stderr)
        return 2
    spans_path, cli_argv = argv[0], argv[2:]
    t0 = time.perf_counter()
    import talentflow.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    rc = 3
    try:
        rc = talentflow.cli.main(cli_argv)
    finally:
        payload = {"rc": rc, "import_s": import_s, "spans": tracer.spans,
                   "counts": dict(tracer.counts), "values": tracer.values,
                   "titles": sorted(tracer.titles)}
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
