from __future__ import annotations

from collections import Counter

import pytest

from talentflow import pipeline
from talentflow.config import PipelineConfig
from talentflow.pipeline import _atomic
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
        _atomic(target, _partial_then_fail)
    assert list(tmp_path.glob("*.tmp")) == []
    if old is None:
        assert not target.exists()
    else:
        assert target.read_text(encoding="utf-8") == old


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
