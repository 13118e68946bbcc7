"""Benchmark workloads: seeded corpus generation, the dirty-line injector
and the output checks that every job of a workload must pass.

A corpus is a pure function of (workload, seed, generator source), so it
is cached under the work directory and built outside any timed region.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
import shutil
import subprocess
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

REFERENCE_DATE = "2020-01"

# synth draws title classes from (no position + 4 positions) x 10 domains x
# 8 functions distinct bases. SynthSpec.validate accepts larger values, and
# generate() then loops forever looking for a new base, so the spec is
# checked here before synth is called.
MAX_TITLE_CLASSES = 5 * 10 * 8

STAGES = ("parse-titles", "extract-hops", "metrics", "graph", "report")

# Artifacts every job must leave in --out; a one-shot `run` also writes
# manifest.json, which holds timings and is excluded from byte checks.
REQUIRED_ARTIFACTS = (
    "rejections.csv", "normalization_map.csv", "parse_errors.csv", "hops.csv",
    "job_metrics.csv", "job_levels.csv", "level_gains.csv",
    "promotion_table.csv", "promotion_vs_duration.csv",
    "cohort_hop_fractions.csv", "distribution_quartiles.csv",
    "job_graph.csv", "org_graph.csv", "network_stats.csv", "top_nodes.csv",
    "report.json",
)
MANIFEST = "manifest.json"

CACHE_ENTRIES = 12


@dataclass(frozen=True)
class Workload:
    name: str
    persons: int
    organizations: int = 120
    industries: int = 8
    title_classes: int = 150
    run_flags: tuple[str, ...] = ()
    staged: bool = False
    dirty: bool = False
    check_sidecar_hops: bool = False

    def validate(self) -> None:
        if not 1 <= self.title_classes <= MAX_TITLE_CLASSES:
            raise ValueError(
                f"workload {self.name}: title_classes must be in "
                f"[1, {MAX_TITLE_CLASSES}], got {self.title_classes}")

    def synth_flags(self) -> list[str]:
        return ["--persons", str(self.persons),
                "--organizations", str(self.organizations),
                "--industries", str(self.industries),
                "--title-classes", str(self.title_classes),
                "--reference-date", REFERENCE_DATE]

    def commands(self, profiles: Path, out: Path) -> list[list[str]]:
        """CLI argument lists of one job, one per process."""
        flags = ["--input", str(profiles), "--out", str(out),
                 "--reference-date", REFERENCE_DATE, *self.run_flags]
        if self.staged:
            return [[stage, *flags] for stage in STAGES]
        return [["run", *flags]]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# Person counts are a tenth of the corpus sizes the workloads were designed
# at (20k, 20k, 10k), so that several jobs fit in one timed run.
WORKLOADS = {w.name: w for w in (
    Workload(name="bulk", persons=2000),
    Workload(name="wide", persons=2000, organizations=5000, industries=60,
             title_classes=400,
             run_flags=("--title-min-sup", "1", "--edge-min-sup", "1"),
             check_sidecar_hops=True),
    Workload(name="staged-dirty", persons=1000, staged=True, dirty=True),
)}


@dataclass
class Corpus:
    profiles: Path
    sidecar: Path
    injected: dict | None


def _cache_key(workload: Workload, seed: int, src: Path) -> str:
    h = hashlib.sha256()
    h.update(json.dumps([asdict(workload), seed], sort_keys=True).encode())
    h.update((src / "talentflow" / "synth.py").read_bytes())
    h.update(Path(__file__).read_bytes())
    return h.hexdigest()[:16]


def prepare(workload: Workload, seed: int, python: str, env: dict,
            src: Path, cache: Path) -> Corpus:
    """Generate (or reuse) the seeded corpus of one workload."""
    workload.validate()
    cache.mkdir(parents=True, exist_ok=True)
    final = cache / f"{workload.name}-{seed}-{_cache_key(workload, seed, src)}"
    if not final.is_dir():
        tmp = cache / f"tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir()
        synth_out = tmp / "synth.jsonl"
        subprocess.run(
            [python, "-m", "talentflow.cli", "synth", "--out", str(synth_out),
             "--sidecar", str(tmp / "sidecar.json"), "--seed", str(seed),
             *workload.synth_flags()],
            env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)
        if workload.dirty:
            injected = inject_damage(synth_out, tmp / "profiles.jsonl",
                                     random.Random(f"{workload.name}:{seed}"))
            (tmp / "injected.json").write_text(json.dumps(injected, sort_keys=True))
            synth_out.unlink()
        else:
            synth_out.rename(tmp / "profiles.jsonl")
        os.replace(tmp, final)
    os.utime(final)
    _prune(cache)
    injected_path = final / "injected.json"
    return Corpus(
        profiles=final / "profiles.jsonl",
        sidecar=final / "sidecar.json",
        injected=json.loads(injected_path.read_text()) if injected_path.exists() else None)


def _prune(cache: Path) -> None:
    entries = sorted((p for p in cache.iterdir() if p.is_dir()),
                     key=lambda p: p.stat().st_mtime, reverse=True)
    for old in entries[CACHE_ENTRIES:]:
        shutil.rmtree(old, ignore_errors=True)


def _month_before(month: str) -> str:
    year, mon = int(month[:4]), int(month[5:7])
    total = year * 12 + mon - 2
    return f"{total // 12:04d}-{total % 12 + 1:02d}"


def inject_damage(src: Path, dst: Path, rng: random.Random) -> dict:
    """Copy a synth corpus, damaging lines; returns what was done.

    About 5% of lines become rejectable (truncated JSON, missing
    person_id, a spell ending before it starts, or a person_id already
    used by an earlier loaded line). About 0.5% of the remaining lines get
    a null title, 5% of spells a conflicting industry and 2% of profiles
    60 distinct skills. Invalid UTF-8 and deeply nested lines are not
    injected: either one aborts the whole load today.
    """
    rejectable: dict[str, list[int]] = {
        "truncated": [], "missing_person_id": [], "end_before_start": [],
        "duplicate_person_id": []}
    null_titles: list[int] = []
    many_skills: list[int] = []
    industry_rewrites = 0
    loaded_ids: list[str] = []
    out_lines: list[str] = []
    with open(src, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for line_no, line in enumerate(lines, start=1):
        obj = json.loads(line)
        spells = obj["spells"]
        if rng.random() < 0.05:
            kinds = ["truncated", "missing_person_id"]
            if spells:
                kinds.append("end_before_start")
            if loaded_ids:
                kinds.append("duplicate_person_id")
            kind = rng.choice(kinds)
            if kind == "truncated":
                text = line[:len(line) // 2]
            else:
                if kind == "missing_person_id":
                    del obj["person_id"]
                elif kind == "end_before_start":
                    spell = rng.choice(spells)
                    spell["end"] = _month_before(spell["start"])
                else:
                    obj["person_id"] = rng.choice(loaded_ids)
                text = json.dumps(obj, ensure_ascii=False)
            rejectable[kind].append(line_no)
            out_lines.append(text)
            continue
        loaded_ids.append(obj["person_id"])
        if spells and rng.random() < 0.005:
            rng.choice(spells)["title"] = None
            null_titles.append(line_no)
        for spell in spells:
            if rng.random() < 0.05:
                spell["industry"] = f"x{rng.randrange(4)}-{spell['industry']}"
                industry_rewrites += 1
        if rng.random() < 0.02:
            obj["skills"] = [f"skill{k:02d}" for k in range(60)]
            many_skills.append(line_no)
        out_lines.append(json.dumps(obj, ensure_ascii=False))
    with open(dst, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out_lines) + "\n")
    return {"rejectable": rejectable, "null_title": null_titles,
            "many_skills": many_skills, "industry_rewrites": industry_rewrites}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifact_digests(out: Path) -> dict[str, str]:
    """sha256 of every artifact in `out` except the manifest."""
    return {p.name: _sha256(p) for p in sorted(out.iterdir())
            if p.is_file() and p.name != MANIFEST}


def combined_digest(digests: dict[str, str]) -> str:
    text = "".join(f"{name} {digest}\n" for name, digest in sorted(digests.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def missing_artifacts(out: Path, one_shot: bool) -> list[str]:
    names = REQUIRED_ARTIFACTS + ((MANIFEST,) if one_shot else ())
    return [n for n in names if not (out / n).is_file()]


def hops_match_sidecar(hops_csv: Path, sidecar: Path) -> bool:
    """hops.csv as a (person, src_title, dst_title, kind) multiset equals
    the hop list synth computed by its own pairwise scan."""
    with open(hops_csv, encoding="utf-8", newline="") as fh:
        got = Counter((r["person_id"], r["src_title"], r["dst_title"], r["kind"])
                      for r in csv.DictReader(fh))
    with open(sidecar, encoding="utf-8") as fh:
        truth = json.load(fh)
    expected = Counter((h["person_id"], h["src_title"], h["dst_title"], h["kind"])
                       for h in truth["hops"])
    return got == expected


def rejections_cover(rejections_csv: Path, injected: dict) -> bool:
    """Every line the injector made rejectable is in rejections.csv; the
    program may reject more."""
    with open(rejections_csv, encoding="utf-8", newline="") as fh:
        rejected = {int(r["line_no"]) for r in csv.DictReader(fh)}
    wanted = {n for lines in injected["rejectable"].values() for n in lines}
    return wanted <= rejected
