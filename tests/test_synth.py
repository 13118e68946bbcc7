from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest

from talentflow.dates import parse_month
from talentflow.hops import build_hop_corpus
from talentflow.ingest import load_profiles
from talentflow.synth import (DOMAINS, FUNCTIONS, POSITIONS, SynthSpec,
                              generate, write_profiles_jsonl, write_sidecar)
from talentflow.titles import build_normalization

from conftest import title_map


def _write(tmp_path, spec):
    result = generate(spec)
    path = tmp_path / "profiles.jsonl"
    sidecar = tmp_path / "profiles.truth.json"
    write_profiles_jsonl(result.profiles, path)
    write_sidecar(result.sidecar, sidecar)
    return path, sidecar, result


def test_same_seed_gives_identical_bytes(tmp_path):
    spec = SynthSpec(persons=80, seed=42)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    pa, sa, _ = _write(tmp_path / "a", spec)
    pb, sb, _ = _write(tmp_path / "b", spec)
    assert pa.read_bytes() == pb.read_bytes()
    assert sa.read_bytes() == sb.read_bytes()


def test_output_bytes_are_pinned(tmp_path):
    # the benchmark's corpora come from this generator: its bytes must not
    # drift, even where the code that writes them changes
    path, sidecar, _ = _write(tmp_path, SynthSpec(persons=200, seed=1))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "64aac58c18f78159df8cce37d1a847815c2f38968cb6018847bde686ddfd4f0c")
    assert hashlib.sha256(sidecar.read_bytes()).hexdigest() == (
        "359808919048c5ac8625663eb9928140fc53ac46613d5c1c71cd791f3e0652f5")


def test_different_seed_differs(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    pa, _, _ = _write(tmp_path / "a", SynthSpec(persons=80, seed=1))
    pb, _, _ = _write(tmp_path / "b", SynthSpec(persons=80, seed=2))
    assert pa.read_bytes() != pb.read_bytes()


def test_output_loads_cleanly(tmp_path):
    spec = SynthSpec(persons=60, seed=5)
    path, _, result = _write(tmp_path, spec)
    ps, report = load_profiles(path, parse_month(spec.reference_date))
    assert len(ps) == 60
    assert report.rejections == []
    assert report.industry_conflicts == []


def test_full_overlap_produces_zero_hops(tmp_path, dicts):
    spec = SynthSpec(persons=50, seed=9, overlap_prob=1.0, min_spells=2,
                     max_spells=5, ongoing_rate=0.0)
    path, _, result = _write(tmp_path, spec)
    assert result.sidecar["hops"] == []
    ps, _ = load_profiles(path, parse_month(spec.reference_date))
    counts = Counter(s.raw_title for s in ps.all_spells())
    nmap = build_normalization(counts, dicts)
    corpus = build_hop_corpus(ps, title_map(ps, nmap), title_min_sup=1)
    assert len(corpus) == 0


def test_sidecar_variants_map_to_single_canonical(tmp_path, dicts):
    spec = SynthSpec(persons=250, seed=13, title_classes=10, variant_rate=0.5,
                     typo_rate=0.3, paren_rate=0.0, junk_rate=0.0)
    path, sidecar_path, result = _write(tmp_path, spec)
    sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))

    ps, _ = load_profiles(path, parse_month(spec.reference_date))
    counts = Counter(s.raw_title for s in ps.all_spells())
    nmap = build_normalization(counts, dicts)

    for class_id, data in sidecar["classes"].items():
        canonicals = {nmap.lookup(member) for member in data["members"]}
        assert canonicals == {data["canonical"]}, class_id


def test_sidecar_member_counts_match_file(tmp_path):
    spec = SynthSpec(persons=120, seed=21)
    path, sidecar_path, _ = _write(tmp_path, spec)
    sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
    from talentflow.titles.lexer import clean_title
    file_counts = Counter()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            for s in json.loads(line)["spells"]:
                file_counts[clean_title(s["title"])] += 1
    for class_id, data in sidecar["classes"].items():
        for member, count in data["members"].items():
            assert file_counts[member] >= count  # junk may collide, never classed

    total_member_count = sum(sum(d["members"].values())
                             for d in sidecar["classes"].values())
    assert total_member_count <= sidecar["spells"]


def test_sidecar_hops_match_pipeline_extraction(tmp_path, dicts):
    spec = SynthSpec(persons=200, seed=33)
    path, sidecar_path, _ = _write(tmp_path, spec)
    sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))

    ps, _ = load_profiles(path, parse_month(spec.reference_date))
    counts = Counter(s.raw_title for s in ps.all_spells())
    nmap = build_normalization(counts, dicts)
    corpus = build_hop_corpus(ps, title_map(ps, nmap), title_min_sup=1)

    got = Counter((h.person_id, h.src_title, h.dst_title, h.kind.value)
                  for h in corpus.hops)
    expected = Counter((h["person_id"], h["src_title"], h["dst_title"], h["kind"])
                       for h in sidecar["hops"])
    assert got == expected
    assert corpus.internal_count == sidecar["hop_counts"]["internal"]
    assert corpus.external_count == sidecar["hop_counts"]["external"]


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(persons=-1).validate()
    with pytest.raises(ValueError):
        SynthSpec(variant_rate=1.5).validate()
    with pytest.raises(ValueError):
        SynthSpec(min_spells=5, max_spells=2).validate()
    with pytest.raises(ValueError):
        SynthSpec(reference_date="nope").validate()


def test_title_classes_capped_at_distinct_bases():
    # generate() would loop forever looking for more distinct bases
    limit = (len(POSITIONS) + 1) * len(DOMAINS) * len(FUNCTIONS)
    SynthSpec(title_classes=limit).validate()
    with pytest.raises(ValueError, match=f"title_classes must be in \\[1, {limit}\\]"):
        SynthSpec(title_classes=limit + 1).validate()
    with pytest.raises(ValueError):
        SynthSpec(title_classes=0).validate()
