from __future__ import annotations

import csv
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import report_reference
from talentflow import pipeline
from talentflow.cli import GC_THRESHOLDS, main

REF = "2020-01"


def run_cli(*args) -> int:
    return main(list(args))


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("cli") / "profiles.jsonl"
    code = run_cli("synth", "--out", str(path), "--persons", "200", "--seed", "4",
                   "--organizations", "25", "--title-classes", "40")
    assert code == 0
    return path


STAGE_NAMES = [name for name, _ in pipeline.STAGES]


def _artifact_names(out: Path) -> set[str]:
    return {p.name for p in out.iterdir()}


def _manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text(encoding="utf-8"))


def test_run_produces_all_artifacts(corpus_file, tmp_path):
    out = tmp_path / "out"
    code = run_cli("run", "--input", str(corpus_file), "--out", str(out),
                   "--reference-date", REF, "--title-min-sup", "2")
    assert code == 0
    names = _artifact_names(out)
    expected = {
        "rejections.csv", "normalization_map.csv", "parse_errors.csv",
        "hops.csv", "job_metrics.csv", "job_levels.csv",
        "cohort_hop_fractions.csv", "level_gains.csv", "promotion_table.csv",
        "promotion_vs_duration.csv", "distribution_quartiles.csv",
        "dist_skill_count.csv", "dist_work_experience.csv", "dist_job_age.csv",
        "dist_job_level.csv", "job_graph.csv", "org_graph.csv",
        "job_centrality.csv", "org_centrality.csv", "job_components.csv",
        "org_components.csv", "network_stats.csv", "top_nodes.csv",
        "job_powerlaw.json", "org_powerlaw.json", "report.json", "manifest.json",
    }
    assert expected <= names


def test_manifest_counts_match_artifact_recounts(corpus_file, tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--input", str(corpus_file), "--out", str(out),
                   "--reference-date", REF, "--title-min-sup", "2") == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    counts = manifest["counts"]

    with open(corpus_file, encoding="utf-8") as fh:
        assert counts["profiles"]["total"] == sum(1 for line in fh if line.strip())

    with open(out / "hops.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert counts["hops"]["total"] == len(rows)
    assert counts["hops"]["internal"] == sum(1 for r in rows if r["kind"] == "internal")
    assert counts["hops"]["external"] == sum(1 for r in rows if r["kind"] == "external")

    with open(out / "job_graph.csv", newline="", encoding="utf-8") as fh:
        edges = list(csv.DictReader(fh))
    assert counts["graphs"]["job"]["edges"] == len(edges)
    nodes = {r["src_key"] for r in edges} | {r["dst_key"] for r in edges}
    assert counts["graphs"]["job"]["nodes"] == len(nodes)

    with open(out / "rejections.csv", newline="", encoding="utf-8") as fh:
        assert counts["profiles"]["rejected_lines"] == len(list(csv.DictReader(fh)))


def test_empty_input_is_graceful(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "out"
    code = run_cli("run", "--input", str(empty), "--out", str(out),
                   "--reference-date", REF)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["counts"]["profiles"]["total"] == 0
    assert manifest["counts"]["hops"]["total"] == 0
    assert (out / "report.json").exists()


def test_bad_dictionary_path_is_config_error(corpus_file, tmp_path):
    code = run_cli("run", "--input", str(corpus_file), "--out", str(tmp_path / "o"),
                   "--reference-date", REF, "--dicts", str(tmp_path / "missing"))
    assert code == 1


def test_missing_input_is_io_error(tmp_path):
    code = run_cli("run", "--input", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "o"), "--reference-date", REF)
    assert code == 2


def test_missing_upstream_artifact_names_file(tmp_path, corpus_file, capsys):
    out = tmp_path / "out"
    code = run_cli("extract-hops", "--input", str(corpus_file), "--out", str(out),
                   "--reference-date", REF)
    assert code == 2
    err = capsys.readouterr().err
    assert "normalization_map.csv" in err
    assert "parse-titles" in err


def test_input_is_required_by_the_stages_that_read_it(tmp_path, corpus_file, capsys):
    out = tmp_path / "out"
    for command in ("run", "parse-titles", "extract-hops", "metrics"):
        assert run_cli(command, "--out", str(out), "--reference-date", REF) == 1, command
        assert "input path is required" in capsys.readouterr().err
    assert list(out.iterdir()) == []
    assert run_cli("run", "--input", str(corpus_file), "--out", str(out),
                   "--reference-date", REF) == 0
    for command in ("graph", "report"):  # these read only artifacts
        assert run_cli(command, "--out", str(out)) == 0, command


def person(person_id, *spells) -> str:
    """One JSONL profile line; spells are (title, org, industry, start, end)."""
    edu = [{"institution": "U", "degree": "BSc", "grad_date": "2008-06"}]
    return json.dumps({"person_id": person_id, "education": edu,
                       "spells": [{"title": t, "organization": o, "industry": i,
                                   "start": s, "end": e}
                                  for t, o, i, s, e in spells],
                       "skills": ["sql"]})


def _hostile_corpus(corpus_file: Path, path: Path) -> Path:
    """Part of the synthetic corpus (80 lines) plus a null title, a
    truncated line, an industry conflict, an ongoing source spell whose
    next spell starts at the reference date, and, on line 85, a spell that
    starts after the reference date."""
    lines = corpus_file.read_text(encoding="utf-8").splitlines()[:80] + [
        person("null-title", (None, "Org0001", "i01", "2012-01", "2013-01"),
               ("data engineer", "Org0002", "i01", "2013-02", None)),
        person("truncated", ("data engineer", "Org0003", "i01", "2012-01", None))[:60],
        person("conflict", ("data engineer", "Org0001", "other", "2010-01", "2011-01"),
               ("data specialist", "Org0004", "i01", "2011-02", "2012-01")),
        person("ongoing", ("data engineer", "Org0005", "i01", "2018-03", None),
               ("research analyst", "Org0006", "i01", REF, None)),
        person("future", ("data engineer", "Org0007", "i01", "2015-01", "2019-06"),
               ("research analyst", "Org0008", "i01", "2020-02", None)),
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _semicolon_corpus(path: Path) -> Path:
    """Four persons hop from `r;d engineer` and two from `r d engineer`:
    titles that a `;` inside a token would merge when the staged run reads
    the domains back from normalization_map.csv."""
    lines = [person(f"p{k}", (title, f"Org{k}", "i01", "2010-01", "2012-01"),
                    ("data analyst", "OrgX", "i01", "2012-02", None))
             for k, title in enumerate(["r;d engineer"] * 4 + ["r d engineer"] * 2)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_stagewise_equals_one_shot(corpus_file, tmp_path):
    merge = tmp_path / "merge.tsv"
    merge.write_text("data specialist\tdata engineer\n", encoding="utf-8")
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    one_org = tmp_path / "one_org.jsonl"  # job graph non-empty, org graph empty
    assert run_cli("synth", "--out", str(one_org), "--persons", "300",
                   "--organizations", "1", "--seed", "3") == 0
    cases = {
        "title-min-sup-2": (corpus_file, ["--title-min-sup", "2"]),
        "no-support-filter": (corpus_file, ["--title-min-sup", "1", "--edge-min-sup", "1"]),
        "translate-merge": (corpus_file, ["--title-min-sup", "2",
                                          "--translate-table", str(merge)]),
        "hostile": (_hostile_corpus(corpus_file, tmp_path / "hostile.jsonl"),
                    ["--title-min-sup", "1"]),
        "empty": (empty, []),
        "one-org": (one_org, ["--title-min-sup", "1"]),
        "semicolon-title": (_semicolon_corpus(tmp_path / "semicolon.jsonl"),
                            ["--title-min-sup", "1"]),
    }
    for case, (input_path, flags) in cases.items():
        one_shot = tmp_path / case / "one"
        staged = tmp_path / case / "staged"
        base = ["--input", str(input_path), "--reference-date", REF, *flags]
        assert run_cli("run", *base, "--out", str(one_shot)) == 0, case
        for stage in STAGE_NAMES:
            assert run_cli(stage, *base, "--out", str(staged)) == 0, (case, stage)

        one_files = {p.name for p in one_shot.iterdir()}
        staged_files = {p.name for p in staged.iterdir()}
        assert one_files == staged_files, case
        for name in sorted(one_files - {"manifest.json"}):
            assert (one_shot / name).read_bytes() == (staged / name).read_bytes(), \
                (case, name)
        # the five stage processes leave the one-shot run's counts; the
        # config echo can differ, and timings always do
        one_manifest, staged_manifest = (_manifest(out) for out in (one_shot, staged))
        assert staged_manifest["counts"] == one_manifest["counts"], case
        assert set(staged_manifest["timings"]["stage_seconds"]) == set(STAGE_NAMES), case
        assert (one_shot / "report.json").read_bytes() == report_reference(one_shot), case

    with open(tmp_path / "hostile" / "one" / "rejections.csv", newline="",
              encoding="utf-8") as fh:
        assert ["85", "spell start 2020-02 is after reference date 2020-01"] \
            in list(csv.reader(fh))

    with open(tmp_path / "semicolon-title" / "one" / "hops.csv", newline="",
              encoding="utf-8") as fh:
        src_titles = [row["src_title"] for row in csv.DictReader(fh)]
    # `r;d engineer` fails to parse, like `r,d engineer`, and keeps its
    # cleaned form; the two titles stay apart in both runs
    assert src_titles == ["r ; d engineer"] * 4 + ["r d engineer"] * 2

    out = tmp_path / "one-org" / "one"
    with open(out / "network_stats.csv", newline="", encoding="utf-8") as fh:
        stats = list(csv.reader(fh))
    assert [row for row in stats if row[0] == "org"] == [
        ["org", "nodes", "0"], ["org", "edges", "0"], ["org", "sparsity_pct", ""]]
    assert ["job", "nodes", "0"] not in stats
    assert any(row[:2] == ["job", "scc_count"] for row in stats)
    assert json.loads((out / "org_powerlaw.json").read_text(encoding="utf-8")) == {
        "in_degree": {"error": "EMPTY_GRAPH"}, "out_degree": {"error": "EMPTY_GRAPH"}}


def test_staged_graph_replaces_only_its_counts_in_the_manifest(corpus_file, tmp_path):
    out = tmp_path / "out"
    args = ["--input", str(corpus_file), "--out", str(out), "--reference-date", REF]
    assert run_cli("run", *args) == 0
    before = _manifest(out)
    assert run_cli("graph", *args, "--edge-min-sup", "3") == 0
    after = _manifest(out)

    assert after["config"] == {**before["config"], "edge_min_sup": 3}
    graphs = before["counts"].pop("graphs")
    assert after["counts"].pop("graphs") != graphs
    assert after["counts"] == before["counts"]
    seconds = [m["timings"].pop("stage_seconds") for m in (before, after)]
    assert set(seconds[1]) == set(STAGE_NAMES)
    del seconds[0]["graph"], seconds[1]["graph"]
    assert seconds[1] == seconds[0]
    for manifest in (before, after):
        manifest.pop("config"), manifest.pop("counts"), manifest.pop("timings")
    assert after == before


def test_foreign_manifest_before_a_staged_process_is_ignored(corpus_file, tmp_path):
    out = tmp_path / "out"
    args = ["--input", str(corpus_file), "--out", str(out), "--reference-date", REF]
    assert run_cli("run", *args) == 0
    graphs = _manifest(out)["counts"]["graphs"]
    # not an object, invalid UTF-8, no timings, nested too deeply, and
    # non-object counts in an otherwise well-shaped manifest
    for foreign in (b"[]", b"\xff\xfe{", b'{"counts": 3}', b"[" * 100_000,
                    b'{"counts": [], "timings": {"stage_seconds": {}}}'):
        (out / "manifest.json").write_bytes(foreign)
        assert run_cli("graph", *args) == 0, foreign[:8]
        manifest = _manifest(out)
        assert manifest["counts"] == {"graphs": graphs}, foreign[:8]
        assert list(manifest["timings"]["stage_seconds"]) == ["graph"], foreign[:8]


def test_stage_error_exits_three_from_run_and_from_its_subcommand(
        corpus_file, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    args = ["--input", str(corpus_file), "--out", str(out), "--reference-date", REF]
    assert run_cli("run", *args) == 0
    before = (out / "manifest.json").read_bytes()

    def boom(state):
        raise RuntimeError("boom")

    # the driver reads pipeline.STAGES when called, as the benchmark
    # tracer needs
    monkeypatch.setattr(pipeline, "STAGES", tuple(
        (name, boom if name == "metrics" else stage) for name, stage in pipeline.STAGES))
    capsys.readouterr()
    for command in ("run", "metrics"):
        assert run_cli(command, *args) == 3, command
        assert capsys.readouterr().err == "talentflow: stage metrics failed: boom\n"
        assert (out / "manifest.json").read_bytes() == before, command


def test_runs_are_byte_identical_modulo_timings(corpus_file, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = ["--input", str(corpus_file), "--reference-date", REF]
    assert run_cli("run", *args, "--out", str(out1)) == 0
    assert run_cli("run", *args, "--out", str(out2)) == 0
    names1 = {p.name for p in out1.iterdir()}
    assert names1 == {p.name for p in out2.iterdir()}
    for name in sorted(names1):
        a, b = (out1 / name).read_bytes(), (out2 / name).read_bytes()
        if name == "manifest.json":
            ma, mb = json.loads(a), json.loads(b)
            ma.pop("timings"), mb.pop("timings")
            ma["config"].pop("out"), mb["config"].pop("out")
            assert ma == mb
        else:
            assert a == b, name


def test_artifacts_do_not_depend_on_the_hash_seed(corpus_file, tmp_path):
    # str hashes, and so the order of every set and of dicts built from
    # sets, change with PYTHONHASHSEED; no artifact byte may follow them
    src = Path(__file__).resolve().parents[1] / "src"
    outs = []
    for seed in ("0", "1"):
        out = tmp_path / f"hashseed-{seed}"
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}
        subprocess.run([sys.executable, "-m", "talentflow.cli", "run",
                        "--input", str(corpus_file), "--out", str(out),
                        "--reference-date", REF, "--title-min-sup", "1",
                        "--edge-min-sup", "1"],
                       env=env, capture_output=True, check=True)
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        if name != "manifest.json":
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_config_file_with_flag_override(corpus_file, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"input={corpus_file}\nreference-date={REF}\n"
        "title-min-sup=2\nedge-min-sup=3\n# comment\n", encoding="utf-8")
    out = tmp_path / "out"
    code = run_cli("run", "--config", str(cfg), "--out", str(out),
                   "--edge-min-sup", "1")
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["title_min_sup"] == 2   # from file
    assert manifest["config"]["edge_min_sup"] == 1    # flag wins


def test_invalid_config_values_rejected(tmp_path, corpus_file):
    assert run_cli("run", "--input", str(corpus_file), "--out", str(tmp_path / "o"),
                   "--reference-date", REF, "--damping", "1.5") == 1
    assert run_cli("run", "--input", str(corpus_file), "--out", str(tmp_path / "o"),
                   "--reference-date", REF, "--title-min-sup", "0") == 1
    assert run_cli("run", "--input", str(corpus_file), "--out", str(tmp_path / "o"),
                   "--reference-date", "season 3") == 1


def test_undecodable_config_file_is_config_error(tmp_path, corpus_file, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"title-min-sup=\xff2\n")
    assert run_cli("run", "--config", str(cfg), "--input", str(corpus_file),
                   "--out", str(tmp_path / "o"), "--reference-date", REF) == 1
    err = capsys.readouterr().err
    assert err.startswith("talentflow: configuration error: cannot read config file ")
    assert str(cfg) in err


def test_translate_table_applied(tmp_path, dicts):
    profiles = tmp_path / "p.jsonl"
    rows = []
    for i in range(3):
        rows.append(json.dumps({
            "person_id": f"p{i}",
            "education": [{"institution": "U", "degree": "BSc", "grad_date": "2009-06"}],
            "spells": [
                {"title": "ingénieur logiciel", "organization": "OrgA", "industry": "i1",
                 "start": "2010-01", "end": "2011-01"},
                {"title": "software engineer", "organization": "OrgB", "industry": "i1",
                 "start": "2011-02", "end": "2012-01"},
            ],
            "skills": ["x"],
        }))
    profiles.write_text("\n".join(rows) + "\n", encoding="utf-8")
    table = tmp_path / "table.tsv"
    table.write_text("ingénieur logiciel\tsoftware engineer\n", encoding="utf-8")
    out = tmp_path / "out"
    code = run_cli("run", "--input", str(profiles), "--out", str(out),
                   "--reference-date", REF, "--title-min-sup", "1",
                   "--translate-table", str(table))
    assert code == 0
    with open(out / "hops.csv", newline="", encoding="utf-8") as fh:
        hop_rows = list(csv.DictReader(fh))
    # translation merged both spellings into one title, so the move with an
    # identical normalized title across organizations is still external
    assert all(r["src_title"] == "software engineer" for r in hop_rows)
    assert len(hop_rows) == 3

    missing = run_cli("run", "--input", str(profiles), "--out", str(out),
                      "--reference-date", REF,
                      "--translate-table", str(tmp_path / "none.tsv"))
    assert missing == 1


def test_report_aggregates_every_table(corpus_file, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.csv").write_text("foreign,table\n1,2\n", encoding="utf-8")
    assert run_cli("run", "--input", str(corpus_file), "--out", str(out),
                   "--reference-date", REF) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    written = sorted(p.name for p in out.glob("*.csv") if p.name != "notes.csv")
    linked = sorted(pipeline.LINKED_CSVS)
    assert len(linked) == 15
    assert report["files"] == written
    assert set(linked) <= set(written)
    assert sorted(report["linked"]) == linked
    assert set(report["tables"]) == {name.removesuffix(".csv") for name in written
                                     if name not in linked}
    assert set(report["powerlaw"]) == {"job", "org"}
    for name in ("hops.csv", "job_levels.csv"):
        with open(out / name, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows, name
        assert report["linked"][name] == {
            "bytes": (out / name).stat().st_size, "rows": len(rows)}, name
    network_stats = report["tables"]["network_stats"]
    with open(out / "network_stats.csv", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        assert [dict(zip(network_stats["columns"], row))
                for row in network_stats["rows"]] == list(reader)
        assert network_stats["columns"] == reader.fieldnames
    assert network_stats["rows"]
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["counts"]["report"] == {"tables": 14, "linked": 15}
    assert len(written) == 29


def test_level_gains_row_i_is_the_gain_of_hop_i(corpus_file, tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--input", str(corpus_file), "--out", str(out),
                   "--reference-date", REF, "--title-min-sup", "1") == 0

    def rows(name: str) -> list[dict]:
        with open(out / name, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    hops, gains = rows("hops.csv"), rows("level_gains.csv")
    levels = {(r["title"], r["organization"]): r["job_level"]
              for r in rows("job_levels.csv")}
    assert hops and len(gains) == len(hops)
    assert list(gains[0]) == ["src_level", "dst_level", "gain", "label", "reason"]
    for i, (hop, gain) in enumerate(zip(hops, gains)):
        assert gain["src_level"] == levels.get((hop["src_title"], hop["src_org"]), ""), i
        assert gain["dst_level"] == levels.get((hop["dst_title"], hop["dst_org"]), ""), i
    # the levels vary, so a row out of its hop's place shows
    assert len({g["src_level"] for g in gains}) > 10


def _damage_table(rows: list[list[str]], damage: str) -> None:
    if damage == "short-row":
        rows[2] = rows[2][:-1]
    elif damage == "long-row":
        rows[2] = rows[2] + ["extra"]
    else:  # a header that repeats a column name
        rows[0][1] = rows[0][0]


# hops.csv, level_gains.csv and job_levels.csv are linked, network_stats.csv
# is embedded: a staged report checks the rows of both kinds.
@pytest.mark.parametrize("name", ["hops.csv", "level_gains.csv", "job_levels.csv",
                                  "network_stats.csv"])
@pytest.mark.parametrize("damage, line", [
    ("short-row", 3), ("long-row", 3), ("repeated-column", 1)])
def test_report_rejects_malformed_table(corpus_file, tmp_path, capsys, damage, line,
                                        name):
    out = tmp_path / "out"
    assert run_cli("run", "--input", str(corpus_file), "--out", str(out),
                   "--reference-date", REF) == 0
    before = (out / "report.json").read_bytes()
    manifest = (out / "manifest.json").read_bytes()
    with open(out / name, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) >= 3 and len(rows[0]) >= 2, name
    _damage_table(rows, damage)
    with open(out / name, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()

    assert run_cli("report", "--out", str(out), "--reference-date", REF) == 3
    assert f"{name}: line {line}:" in capsys.readouterr().err
    assert not (out / "report.json.tmp").exists()
    assert (out / "report.json").read_bytes() == before
    assert (out / "manifest.json").read_bytes() == manifest


def test_cli_usage_error_exits_one(capsys):
    # --seed belongs to synth only; the pipeline subcommands reject it
    for argv in (["run", "--no-such-flag"], ["run", "--seed", "3"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1, argv


def test_cli_import_loads_neither_scipy_nor_numpy():
    # a fresh interpreter, so modules imported by other tests do not count
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = ("import sys, talentflow.cli; "
             "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'numpy'}))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, encoding="utf-8", check=True)
    assert done.stdout.strip() == "[]"


def test_cli_import_builds_no_dataclass_and_skips_synth():
    # records are NamedTuples, so nothing pulls in dataclasses (and with it
    # inspect); the corpus generator loads only for `talentflow synth`
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = ("import sys, talentflow.cli; print(sorted(sys.modules.keys() & "
             "{'dataclasses', 'inspect', 'talentflow.synth'}))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, encoding="utf-8", check=True)
    assert done.stdout.strip() == "[]"


def test_pipeline_commands_set_the_gc_policy_and_synth_does_not(corpus_file, tmp_path,
                                                                gc_thresholds):
    gc.set_threshold(700, 10, 10)
    assert run_cli("synth", "--out", str(tmp_path / "p.jsonl"), "--persons", "5") == 0
    assert gc.get_threshold() == (700, 10, 10)
    assert run_cli("run", "--input", str(corpus_file), "--out", str(tmp_path / "out"),
                   "--reference-date", REF) == 0
    assert gc.get_threshold() == GC_THRESHOLDS
    gc.set_threshold(700, 10, 10)
    assert run_cli("report", "--out", str(tmp_path / "out"), "--reference-date", REF) == 0
    assert gc.get_threshold() == GC_THRESHOLDS
