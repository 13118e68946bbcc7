from __future__ import annotations

import csv
import json
import tempfile
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import m, report_reference, spell
from talentflow import pipeline
from talentflow.artifacts import write_atomic
from talentflow.config import PipelineConfig
from talentflow.graph import write_ccdf_csv
from talentflow.hops import Hop, HopCorpus, HopKind, write_hops_csv
from talentflow.ingest import LoadReport, Rejection, write_rejections
from talentflow.metrics import GainLabel, LevelGainRecord, write_level_gains_csv
from talentflow.pipeline import RunState, stage_report
from talentflow.synth import SynthSpec, generate, write_profiles_jsonl


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


_HOP = Hop("p1", spell("analyst", "OrgA", "i1", "2010-01", "2012-01"),
           spell("manager", "OrgB", "i1", "2012-01", None),
           "analyst", "manager", HopKind.EXTERNAL, Fraction(2))

# Each writer gets a row source that fails after its first row.
FAILING_WRITERS = {
    "write_rejections": lambda p: write_rejections(
        LoadReport(rejections=_one_then_fail(Rejection(3, "bad line"))), p),
    "write_hops_csv": lambda p: write_hops_csv(
        HopCorpus(_one_then_fail(_HOP), frozenset()), p, m("2020-01")),
    "write_level_gains_csv": lambda p: write_level_gains_csv(_one_then_fail(
        LevelGainRecord(_HOP, None, None, None, GainLabel.UNSUPPORTED, "low_support")), p),
    "write_ccdf_csv": lambda p: write_ccdf_csv(_one_then_fail((1, Fraction(1, 2))), p),
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

    pipeline.run_pipeline(PipelineConfig(input=str(corpus), out=str(tmp_path / "out"),
                                         reference_date="2020-01", title_min_sup=1))
    assert calls == {"load_profiles": 1}
    assert (tmp_path / "out" / "report.json").exists()


# Sorted as file names "a-b.csv" < "a.csv" < "a_b.csv", but as table keys
# "a" < "a-b" < "a_b".
TABLE_NAMES = ("a-b.csv", "a.csv", "a_b.csv", "hops.csv", "\u00e9t\u00e9.csv")
# Keys whose order as str differs from their order as encoded JSON ("a" and
# "a b", "a\x1f") or as UTF-16 ("\ue000" and "\U0001f600").
KEYS = st.one_of(st.sampled_from(["a", "a b", "a\x1f", "\ue000", "\U0001f600", ""]),
                 st.text(max_size=4))
# NUL is left out: csv on Python 3.10 rejects it in both readers.
VALUES = st.one_of(
    st.sampled_from(["", '"', "\\", "\n", "\r\n", "\t\x7f\x1b", "\U0001f600", "\u2028"]),
    st.text(st.characters(exclude_characters="\x00"), max_size=6))


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
    corpus = tmp_path / "profiles.jsonl"
    write_profiles_jsonl(generate(SynthSpec(persons=300, seed=3)).profiles, corpus)
    config = PipelineConfig(input=str(corpus), out=str(tmp_path / "out"),
                            reference_date="2020-01", title_min_sup=1)
    pipeline.run_pipeline(config)
    state = RunState(config)
    tracemalloc.start()
    try:
        stage_report(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (tmp_path / "out" / "report.json").stat().st_size / 4
