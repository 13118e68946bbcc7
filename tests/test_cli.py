from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import report_reference
from talentflow.cli import main

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


def _artifact_names(out: Path) -> set[str]:
    return {p.name for p in out.iterdir()}


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


def _hostile_corpus(corpus_file: Path, path: Path) -> Path:
    """Part of the synthetic corpus plus a null title, a truncated line, an
    industry conflict and an ongoing source spell whose next spell starts
    at the reference date."""
    edu = [{"institution": "U", "degree": "BSc", "grad_date": "2008-06"}]

    def person(person_id, *spells):
        return json.dumps({"person_id": person_id, "education": edu,
                           "spells": [{"title": t, "organization": o, "industry": i,
                                       "start": s, "end": e}
                                      for t, o, i, s, e in spells],
                           "skills": ["sql"]})

    lines = corpus_file.read_text(encoding="utf-8").splitlines()[:80] + [
        person("null-title", (None, "Org0001", "i01", "2012-01", "2013-01"),
               ("data engineer", "Org0002", "i01", "2013-02", None)),
        person("truncated", ("data engineer", "Org0003", "i01", "2012-01", None))[:60],
        person("conflict", ("data engineer", "Org0001", "other", "2010-01", "2011-01"),
               ("data specialist", "Org0004", "i01", "2011-02", "2012-01")),
        person("ongoing", ("data engineer", "Org0005", "i01", "2018-03", None),
               ("research analyst", "Org0006", "i01", REF, None)),
    ]
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
    }
    for case, (input_path, flags) in cases.items():
        one_shot = tmp_path / case / "one"
        staged = tmp_path / case / "staged"
        base = ["--input", str(input_path), "--reference-date", REF, *flags]
        assert run_cli("run", *base, "--out", str(one_shot)) == 0, case
        for stage in ("parse-titles", "extract-hops", "metrics", "graph", "report"):
            assert run_cli(stage, *base, "--out", str(staged)) == 0, (case, stage)

        one_files = {p.name for p in one_shot.iterdir()} - {"manifest.json"}
        staged_files = {p.name for p in staged.iterdir()}
        assert one_files == staged_files, case
        for name in sorted(one_files):
            assert (one_shot / name).read_bytes() == (staged / name).read_bytes(), \
                (case, name)
        assert (one_shot / "report.json").read_bytes() == report_reference(one_shot), case

    out = tmp_path / "one-org" / "one"
    with open(out / "network_stats.csv", newline="", encoding="utf-8") as fh:
        stats = list(csv.reader(fh))
    assert [row for row in stats if row[0] == "org"] == [
        ["org", "nodes", "0"], ["org", "edges", "0"], ["org", "sparsity_pct", ""]]
    assert ["job", "nodes", "0"] not in stats
    assert any(row[:2] == ["job", "scc_count"] for row in stats)
    assert json.loads((out / "org_powerlaw.json").read_text(encoding="utf-8")) == {
        "in_degree": {"error": "EMPTY_GRAPH"}, "out_degree": {"error": "EMPTY_GRAPH"}}


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
    assert report["files"] == written
    assert set(report["tables"]) == {name.removesuffix(".csv") for name in written}
    assert set(report["powerlaw"]) == {"job", "org"}
    with open(out / "hops.csv", newline="", encoding="utf-8") as fh:
        assert report["tables"]["hops"] == list(csv.DictReader(fh))


def _damage_hops(rows: list[list[str]], damage: str) -> None:
    if damage == "short-row":
        rows[2] = rows[2][:-1]
    elif damage == "long-row":
        rows[2] = rows[2] + ["extra"]
    else:  # a header that repeats a column name
        rows[0][1] = rows[0][0]


@pytest.mark.parametrize("damage, line", [
    ("short-row", 3), ("long-row", 3), ("repeated-column", 1)])
def test_report_rejects_malformed_table(corpus_file, tmp_path, capsys, damage, line):
    out = tmp_path / "out"
    assert run_cli("run", "--input", str(corpus_file), "--out", str(out),
                   "--reference-date", REF) == 0
    before = (out / "report.json").read_bytes()
    with open(out / "hops.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    _damage_hops(rows, damage)
    with open(out / "hops.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()

    assert run_cli("report", "--out", str(out), "--reference-date", REF) == 3
    assert f"hops.csv: line {line}:" in capsys.readouterr().err
    assert not (out / "report.json.tmp").exists()
    assert (out / "report.json").read_bytes() == before


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
