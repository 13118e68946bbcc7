from __future__ import annotations

import csv
import json
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import report_reference, spell
from talentflow import pipeline
from talentflow.artifacts import write_atomic, write_csv
from talentflow.config import PipelineConfig
from talentflow.graph import write_ccdf_csv
from talentflow.hops import Hop, HopCorpus, HopKind, write_hops_csv
from talentflow.ingest import (LoadReport, Rejection, is_core_user, load_profiles,
                               write_rejections)
from talentflow.metrics import (GainLabel, JobIndex, LevelGainRecord,
                                write_level_gains_csv)
from talentflow.pipeline import RunState, stage_report
from talentflow.synth import SynthSpec, generate, write_profiles_jsonl
from talentflow.titles import TranslationTable

ALL_STAGES = [name for name, _ in pipeline.STAGES]  # what `run` names


def _partial_then_fail(p):
    with open(p, "w", encoding="utf-8") as fh:
        fh.write("half a row,")
    raise OSError("disk full")


@pytest.mark.parametrize("old", ["old,bytes\n", None])
def test_atomic_failure_leaves_no_temp_file_and_keeps_target(tmp_path, old):
    target = tmp_path / "hops.csv"
    if old is not None:
        target.write_text(old, encoding="utf-8")
    with pytest.raises(OSError, match="disk full"):
        write_atomic(target, _partial_then_fail)
    assert list(tmp_path.glob("*.tmp")) == []
    if old is None:
        assert not target.exists()
    else:
        assert target.read_text(encoding="utf-8") == old


def _one_then_fail(item):
    yield item
    raise OSError("disk full")


# Fields that need quoting, or that look like blank lines or quotes, in
# csv's default dialect; NUL and lone surrogates are left out as in VALUES.
CHARS = st.characters(exclude_characters="\x00", exclude_categories=("Cs",))
CSV_FIELDS = st.one_of(
    st.sampled_from(['"', ",", "\r", "\n", "\r\n", '""', "", " ", "\u00e9t\u00e9",
                     "\U0001f600"]),
    st.text(CHARS, max_size=6),
    st.integers())


@st.composite
def written_tables(draw):
    """A header of 1-4 distinct column names and rows of its width."""
    header = draw(st.lists(st.one_of(st.sampled_from(["", "a", '"', "a,b", "\n"]),
                                     st.text(CHARS, max_size=4)),
                           min_size=1, max_size=4, unique=True))
    row = st.lists(CSV_FIELDS, min_size=len(header), max_size=len(header))
    return header, draw(st.lists(row, max_size=6))


@settings(max_examples=200, deadline=None)
@given(written_tables())
def test_write_csv_returns_the_rows_a_dict_reader_reads(table):
    header, rows = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        count = write_csv(path, header, iter(rows))
        with open(path, encoding="utf-8", newline="") as fh:
            assert count == len(list(csv.DictReader(fh))) == len(rows)


_HOP = Hop("p1", spell("analyst", "OrgA", "i1", "2010-01", "2012-01"),
           spell("manager", "OrgB", "i1", "2012-01", None),
           "analyst", "manager", HopKind.EXTERNAL, 24)

# Each writer gets a row source that fails after its first row.
FAILING_WRITERS = {
    "write_rejections": lambda p: write_rejections(
        LoadReport(rejections=_one_then_fail(Rejection(3, "bad line"))), p),
    "write_hops_csv": lambda p: write_hops_csv(
        HopCorpus(_one_then_fail(_HOP), frozenset()), p),
    "write_level_gains_csv": lambda p: write_level_gains_csv(_one_then_fail(
        LevelGainRecord(_HOP, None, GainLabel.UNSUPPORTED, "low_support")),
        JobIndex(()), p),
    "write_ccdf_csv": lambda p: write_ccdf_csv(_one_then_fail((1, 0.5)), p),
}


@pytest.mark.parametrize("name", FAILING_WRITERS)
def test_writer_failure_keeps_target_and_leaves_no_temp_file(tmp_path, name):
    target = tmp_path / "table.csv"
    target.write_text("old,bytes\n", encoding="utf-8")
    with pytest.raises(OSError, match="disk full"):
        FAILING_WRITERS[name](target)
    assert target.read_text(encoding="utf-8") == "old,bytes\n"
    assert list(tmp_path.glob("*.tmp")) == []


def test_one_shot_run_reads_input_once_and_no_artifact_back(tmp_path, monkeypatch):
    corpus = tmp_path / "profiles.jsonl"
    write_profiles_jsonl(generate(SynthSpec(persons=60, seed=3)).profiles, corpus)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("load_profiles", "read_hops_csv"):
        monkeypatch.setattr(pipeline, name, counted(name, getattr(pipeline, name)))
    monkeypatch.setattr(pipeline.NormalizationMap, "from_csv", staticmethod(
        counted("from_csv", pipeline.NormalizationMap.from_csv)))

    pipeline.run_stages(PipelineConfig(input=str(corpus), out=str(tmp_path / "out"),
                                       reference_date="2020-01", title_min_sup=1),
                        ALL_STAGES)
    assert calls == {"load_profiles": 1}
    assert (tmp_path / "out" / "report.json").exists()


def test_one_shot_report_reads_no_linked_table_and_a_staged_one_reads_all(
        tmp_path, monkeypatch):
    corpus = tmp_path / "profiles.jsonl"
    write_profiles_jsonl(generate(SynthSpec(persons=60, seed=3)).profiles, corpus)
    config = PipelineConfig(input=str(corpus), out=str(tmp_path / "out"),
                            reference_date="2020-01", title_min_sup=1)
    reads = Counter()
    table_rows = pipeline._table_rows

    def counted(path):
        reads[Path(path).name] += 1
        return table_rows(path)

    monkeypatch.setattr(pipeline, "_table_rows", counted)
    # the one-shot report embeds each summary table and takes the row
    # counts of the linked ones from their writers
    pipeline.run_stages(config, ALL_STAGES)
    assert len(pipeline.LINKED_CSVS) == 15
    assert reads == Counter(set(pipeline.REPORTED_CSVS) - set(pipeline.LINKED_CSVS))
    one_shot = (tmp_path / "out" / "report.json").read_bytes()

    # a staged report reads and checks every table, linked ones included
    reads.clear()
    pipeline.run_stages(config, ["report"])
    assert reads == Counter(pipeline.REPORTED_CSVS)
    assert (tmp_path / "out" / "report.json").read_bytes() == one_shot


def test_staged_metrics_looks_up_only_the_titles_it_reads(tmp_path, monkeypatch):
    corpus = tmp_path / "profiles.jsonl"
    write_profiles_jsonl(generate(SynthSpec(persons=60, seed=3)).profiles, corpus)
    config = PipelineConfig(input=str(corpus), out=str(tmp_path / "out"),
                            reference_date="2020-01", title_min_sup=1)
    pipeline.run_stages(config, ALL_STAGES[:2])
    profile_set, _ = load_profiles(corpus, config.reference_month())
    everyone = {s.raw_title for s in profile_set.all_spells()}
    core = {s.raw_title for p in profile_set if is_core_user(p) for s in p.spells}
    assert core < everyone  # so a lookup of every title would show
    lookups = Counter()
    lookup = pipeline.NormalizationMap.lookup

    def counted(self, title):
        lookups[title] += 1
        return lookup(self, title)

    monkeypatch.setattr(pipeline.NormalizationMap, "lookup", counted)
    # the job index reads only the core users' titles
    pipeline.run_stages(config, ["metrics"])
    assert lookups == Counter(core)


def test_one_shot_run_looks_up_each_distinct_title_once(tmp_path, monkeypatch):
    corpus = tmp_path / "profiles.jsonl"
    write_profiles_jsonl(generate(SynthSpec(persons=60, seed=3)).profiles, corpus)
    settings = dict(input=str(corpus), reference_date="2020-01", title_min_sup=1)
    profile_set, _ = load_profiles(corpus, PipelineConfig(**settings).reference_month())
    raw_titles = {s.raw_title for s in profile_set.all_spells()}
    first, second = sorted(raw_titles)[:2]
    table = tmp_path / "table.tsv"  # two raw titles, one translation
    table.write_text(f"{first}\tmerged title\n{second}\tmerged title\n",
                     encoding="utf-8")
    calls = {"translate": Counter(), "lookup": Counter()}

    def counted(name, fn):
        def wrapper(self, title):
            calls[name][title] += 1
            return fn(self, title)
        return wrapper

    monkeypatch.setattr(TranslationTable, "__call__",
                        counted("translate", TranslationTable.__call__))
    monkeypatch.setattr(pipeline.NormalizationMap, "lookup",
                        counted("lookup", pipeline.NormalizationMap.lookup))

    # no translation table: every distinct raw title once, and nothing else
    pipeline.run_stages(PipelineConfig(**settings, out=str(tmp_path / "plain")), ALL_STAGES)
    assert calls == {"translate": Counter(), "lookup": Counter(raw_titles)}

    # the translator sees each distinct raw title once; the map looks up
    # each distinct translated title once
    calls["lookup"].clear()
    pipeline.run_stages(PipelineConfig(**settings, out=str(tmp_path / "translated"),
                                       translate_table=str(table)), ALL_STAGES)
    assert calls == {
        "translate": Counter(raw_titles),
        "lookup": Counter(raw_titles - {first, second} | {"merged title"}),
    }


# Sorted as file names "a-b.csv" < "a.csv" < "a_b.csv", but as table keys
# "a" < "a-b" < "a_b".
TABLE_NAMES = ("a-b.csv", "a.csv", "a_b.csv", "hops.csv", "\u00e9t\u00e9.csv")
# Template syntax of str.format and %, in keys and in values.
TEMPLATE_SYNTAX = ["{0}", "}{", "%s", "%%"]
# Keys whose order as str differs from their order as encoded JSON ("a" and
# "a b", "a\x1f") or as UTF-16 ("\ue000" and "\U0001f600").
KEYS = st.one_of(st.sampled_from(["a", "a b", "a\x1f", "\ue000", "\U0001f600", "",
                                  *TEMPLATE_SYNTAX]),
                 st.text(max_size=4))
# NUL is left out: csv on Python 3.10 rejects it in both readers. Lone
# surrogates (category Cs) are left out: no UTF-8 file can hold one, so
# writing the table would fail before the report stage runs.
VALUES = st.one_of(
    st.sampled_from(["", '"', "\\", "\n", "\r\n", "\t\x7f\x1b", "\U0001f600", "\u2028",
                     *TEMPLATE_SYNTAX]),
    st.text(st.characters(exclude_characters="\x00", exclude_categories=("Cs",)),
            max_size=6))


@st.composite
def csv_tables(draw):
    """File name -> None (an empty file) or (header, rows), where a row of
    None is a blank line."""
    names = draw(st.lists(st.sampled_from(TABLE_NAMES), unique=True, max_size=4))
    result = {}
    for name in names:
        if draw(st.integers(0, 3)) == 0:
            result[name] = None
            continue
        header = draw(st.lists(KEYS, unique=True, max_size=4))
        row = st.lists(VALUES, min_size=len(header), max_size=len(header))
        result[name] = (header, draw(st.lists(st.one_of(st.none(), row), max_size=4)))
    return result


FIT = st.one_of(
    st.fixed_dictionaries({"alpha": st.floats(1, 5), "x_min": st.integers(1, 9),
                           "n_tail": st.integers(0, 99)}),
    st.fixed_dictionaries({"error": st.sampled_from(["EMPTY_GRAPH", "TAIL_TOO_SMALL"])}))


@settings(max_examples=150, deadline=None)
@given(csv_tables(), st.dictionaries(st.sampled_from(["job", "org"]),
                                     st.fixed_dictionaries({"in_degree": FIT,
                                                            "out_degree": FIT})))
def test_streamed_report_equals_json_dumps(tables, powerlaw):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(pipeline, "REPORTED_CSVS", TABLE_NAMES):
        out = Path(tmp)
        for name, table in tables.items():
            with open(out / name, "w", encoding="utf-8", newline="") as fh:
                if table is not None:
                    header, rows = table
                    writer = csv.writer(fh)
                    writer.writerow(header)
                    writer.writerows(row or [] for row in rows)
        for prefix, fits in powerlaw.items():
            (out / f"{prefix}_powerlaw.json").write_text(json.dumps(fits), encoding="utf-8")
        stage_report(RunState(PipelineConfig(out=tmp)))
        assert (out / "report.json").read_bytes() == report_reference(out)


def test_report_holds_no_table_in_memory(tmp_path):
    # The stage's fixed overhead is about 70 KB; 2,000 persons give linked
    # tables of several hundred KB, which a staged report reads in full, so
    # a table held in memory, which grows with them, still breaks the bound.
    corpus = tmp_path / "profiles.jsonl"
    write_profiles_jsonl(generate(SynthSpec(persons=2000, seed=3)).profiles, corpus)
    config = PipelineConfig(input=str(corpus), out=str(tmp_path / "out"),
                            reference_date="2020-01", title_min_sup=1)
    pipeline.run_stages(config, ALL_STAGES)
    state = RunState(config)
    tracemalloc.start()
    try:
        stage_report(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    linked_bytes = sum((tmp_path / "out" / name).stat().st_size
                       for name in pipeline.LINKED_CSVS)
    assert peak < linked_bytes / 4


def _graph_edges(path: Path) -> dict[tuple[str, str], str]:
    with open(path, encoding="utf-8", newline="") as fh:
        return {(r["src_key"], r["dst_key"]): r["weight"] for r in csv.DictReader(fh)}


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000), st.integers(150, 300),
       st.lists(st.integers(1, 4), min_size=2, max_size=2, unique=True).map(sorted))
def test_raising_edge_min_sup_keeps_a_subset_of_each_graph(seed, persons, sups):
    """A higher `edge_min_sup` keeps exactly the edges of a lower one whose
    weight reaches it, with the same weights, and leaves the hops as
    they were. Few organizations and title classes give edges of weight
    up to the highest value drawn."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        corpus = root / "profiles.jsonl"
        spec = SynthSpec(persons=persons, seed=seed, organizations=10, title_classes=20)
        write_profiles_jsonl(generate(spec).profiles, corpus)
        low, high = (root / str(sup) for sup in sups)
        for sup, out in zip(sups, (low, high)):
            pipeline.run_stages(PipelineConfig(input=str(corpus), out=str(out),
                                               reference_date="2020-01",
                                               edge_min_sup=sup), ALL_STAGES)
        assert (low / "hops.csv").read_bytes() == (high / "hops.csv").read_bytes()
        for prefix in ("job", "org"):
            kept = _graph_edges(low / f"{prefix}_graph.csv")
            if sups[0] == 1:
                assert kept, prefix
            assert _graph_edges(high / f"{prefix}_graph.csv") == {
                edge: w for edge, w in kept.items() if int(w) >= sups[1]}, prefix


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(50, 200), st.data())
def test_line_order_changes_no_artifact(seed, persons, data):
    """A synth corpus has unique person ids and one industry per
    organization, so the order of its lines is no input of the run."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        corpus = root / "profiles.jsonl"
        write_profiles_jsonl(generate(SynthSpec(persons=persons, seed=seed)).profiles,
                             corpus)
        lines = corpus.read_text(encoding="utf-8").splitlines()
        shuffled = root / "shuffled.jsonl"
        shuffled.write_text("\n".join(data.draw(st.permutations(lines))) + "\n",
                            encoding="utf-8")
        for path in (corpus, shuffled):
            pipeline.run_stages(PipelineConfig(input=str(path), out=str(root / path.stem),
                                               reference_date="2020-01", title_min_sup=1),
                                ALL_STAGES)
        names = sorted(p.name for p in (root / "profiles").iterdir())
        assert names == sorted(p.name for p in (root / "shuffled").iterdir())
        for name in names:
            if name != "manifest.json":
                assert (root / "profiles" / name).read_bytes() == \
                    (root / "shuffled" / name).read_bytes(), name


# Lines that `load_profiles` rejects: each leaves every artifact but the
# rejection list and the files that count or embed it as it was.
_NULL_TITLE = json.dumps({"person_id": "null-title", "spells": [
    {"title": None, "organization": "OrgA", "industry": "i1", "start": "2010-01"}]})
_REJECTABLE = [b"{not json", b'{"person_id": "bad-\xff"}', _NULL_TITLE.encode()]


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000), st.integers(50, 150), st.data())
def test_rejected_lines_change_only_rejections_report_and_manifest(seed, persons, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        corpus = root / "profiles.jsonl"
        write_profiles_jsonl(generate(SynthSpec(persons=persons, seed=seed)).profiles, corpus)
        clean = corpus.read_bytes()
        duplicate = data.draw(st.sampled_from(clean.splitlines()))
        bad = data.draw(st.lists(st.sampled_from(_REJECTABLE + [duplicate]),
                                 min_size=1, max_size=6))
        dirty = root / "dirty.jsonl"
        dirty.write_bytes(clean + b"\n".join(bad) + b"\n")
        for path in (corpus, dirty):
            pipeline.run_stages(PipelineConfig(input=str(path), out=str(root / path.stem),
                                               reference_date="2020-01", title_min_sup=1),
                                ALL_STAGES)
        with open(root / "dirty" / "rejections.csv", encoding="utf-8", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == len(bad)
        names = sorted(p.name for p in (root / "profiles").iterdir())
        assert names == sorted(p.name for p in (root / "dirty").iterdir())
        for name in names:
            if name not in ("rejections.csv", "report.json", "manifest.json"):
                assert (root / "profiles" / name).read_bytes() == \
                    (root / "dirty" / name).read_bytes(), name
