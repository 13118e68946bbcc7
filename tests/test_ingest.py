from __future__ import annotations

import json
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talentflow.dates import Month
from talentflow.ingest import (is_core_user, load_profiles, support_filter,
                               write_rejections)

from conftest import m, profile, spell

REF = Month(2020, 1)


def _valid_line(person_id="p1", title="engineer", org="Acme", industry="i1"):
    return json.dumps({
        "person_id": person_id,
        "education": [{"institution": "U", "degree": "BSc", "grad_date": "2010-06"}],
        "spells": [{"title": title, "organization": org, "industry": industry,
                    "start": "2012-01", "end": "2014-01"}],
        "skills": ["python"],
    })


def _load(tmp_path, lines):
    path = tmp_path / "profiles.jsonl"
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return load_profiles(path, REF)


def test_malformed_line_is_rejected_not_fatal(tmp_path):
    lines = [_valid_line("p1"), _valid_line("p2"), "{not json", _valid_line("p3")]
    ps, report = _load(tmp_path, lines)
    assert len(ps) == 3
    assert len(report.rejections) == 1
    assert report.rejections[0].line_no == 3


def test_empty_file(tmp_path):
    ps, report = _load(tmp_path, [])
    assert len(ps) == 0
    assert report.rejections == []


def test_industry_conflict_keeps_first_seen(tmp_path, caplog):
    record = {
        "person_id": "p1",
        "education": [],
        "spells": [
            {"title": "engineer", "organization": "Acme", "industry": "i1",
             "start": "2010-01", "end": "2011-01"},
            {"title": "manager", "organization": "Acme", "industry": "i2",
             "start": "2011-02", "end": "2012-01"},
        ],
        "skills": [],
    }
    with caplog.at_level("WARNING"):
        ps, report = _load(tmp_path, [json.dumps(record)])
    assert ps.org_industry["Acme"] == "i1"
    assert [s.industry for s in ps.profiles[0].spells] == ["i1", "i1"]
    assert report.industry_conflicts == [("Acme", "i1", "i2")]
    assert "industry conflict" in caplog.text


def test_duplicate_person_id_rejected(tmp_path):
    ps, report = _load(tmp_path, [_valid_line("p1"), _valid_line("p1")])
    assert len(ps) == 1
    assert "duplicate person_id" in report.rejections[0].reason


@pytest.mark.parametrize("mutate,reason_part", [
    (lambda r: r.__setitem__("person_id", ""), "person_id"),
    (lambda r: r["spells"][0].__setitem__("start", "2012-13"), "month"),
    (lambda r: r["spells"][0].__setitem__("end", "2011-01"), "precedes"),
    (lambda r: r["spells"][0].__setitem__("title", "  "), "title"),
    (lambda r: r["education"][0].__setitem__("grad_date", "junk"), "YYYY-MM"),
    (lambda r: r.__setitem__("skills", "python"), "array"),
    (lambda r: r.__setitem__("spells", {"title": "x"}), "array"),
    (lambda r: r.__setitem__("person_id", None), "missing or empty person_id"),
    (lambda r: r["spells"][0].__setitem__("title", None), "missing title"),
    (lambda r: r["spells"][0].__setitem__("title", 123), "title is not a string"),
    (lambda r: r["spells"][0].__setitem__("organization", "org \ud800"),
     "organization is not valid Unicode"),
    (lambda r: r["education"][0].__setitem__("degree", ["BSc"]), "degree"),
    (lambda r: r.__setitem__("skills", [{"k": 1}]), "skill"),
])
def test_schema_violations_reject_record(tmp_path, mutate, reason_part):
    record = json.loads(_valid_line())
    mutate(record)
    ps, report = _load(tmp_path, [json.dumps(record)])
    assert len(ps) == 0
    assert len(report.rejections) == 1
    assert reason_part in report.rejections[0].reason


def _load_bytes(tmp_path, data: bytes):
    path = tmp_path / "profiles.jsonl"
    path.write_bytes(data)
    return load_profiles(path, REF)


def test_invalid_utf8_and_deep_nesting_are_rejected_not_fatal(tmp_path):
    bad_byte = _valid_line("p2").encode().replace(b"engineer", b"engin\xffer")
    deep = b"[" * 100_000 + b"]" * 100_000
    data = b"\n".join([_valid_line("p1").encode(), bad_byte, deep,
                       _valid_line("p3").encode()]) + b"\n"
    ps, report = _load_bytes(tmp_path, data)
    assert [p.person_id for p in ps] == ["p1", "p3"]
    assert [r.line_no for r in report.rejections] == [2, 3]
    assert "utf-8" in report.rejections[0].reason
    assert "recursion" in report.rejections[1].reason


def test_lines_end_at_lf_cr_or_crlf(tmp_path):
    data = "\r".join([_valid_line("p1"), "oops", _valid_line("p2")]) + "\r\n \u3000\n{"
    ps, report = _load_bytes(tmp_path, data.encode())
    assert [p.person_id for p in ps] == ["p1", "p2"]
    assert [r.line_no for r in report.rejections] == [2, 5]  # line 4 is blank


def _is_blank(line: bytes) -> bool:
    try:
        return not line.decode("utf-8").strip()
    except UnicodeDecodeError:
        return False


_FIELDS = st.sampled_from(["person_id", "education", "spells", "skills", "title",
                           "organization", "industry", "start", "end", "grad_date",
                           "institution", "degree"])
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
            | st.text(max_size=6) | st.sampled_from(["p1", "2010-01", "2012-01", "\ud800"]))
_JSON_VALUES = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_FIELDS, inner, max_size=5), max_leaves=16)
# one line each: arbitrary bytes, or any JSON value (shaped like a profile
# often enough to reach the field checks), or a valid profile
_LINES = st.one_of(
    st.binary(max_size=12).map(lambda b: b.replace(b"\n", b"").replace(b"\r", b"")),
    _JSON_VALUES.map(lambda v: json.dumps(v).encode()),
    st.sampled_from(["p1", "p2"]).map(lambda pid: _valid_line(pid).encode()))


@settings(max_examples=200, deadline=None)
@given(st.lists(_LINES, max_size=8))
def test_load_never_raises_and_accounts_for_every_line(lines):
    with tempfile.TemporaryDirectory() as tmp:
        ps, report = _load_bytes(Path(tmp), b"\n".join(lines) + b"\n")
    non_blank = [n for n, line in enumerate(lines, start=1) if not _is_blank(line)]
    assert report.loaded == len(ps)
    assert report.loaded + len(report.rejections) == len(non_blank)
    assert {r.line_no for r in report.rejections} <= set(non_blank)
    for p in ps:
        texts = [p.person_id, *p.skills]
        texts += [t for e in p.education for t in (e.institution, e.degree)]
        texts += [t for s in p.spells for t in (s.raw_title, s.organization, s.industry)]
        for text in texts:
            assert isinstance(text, str)
            text.encode("utf-8")


def test_skills_trimmed_deduped_truncated(tmp_path):
    record = json.loads(_valid_line())
    record["skills"] = [" python ", "python", "", "sql"] + [f"s{i}" for i in range(70)]
    ps, report = _load(tmp_path, [json.dumps(record)])
    skills = ps.profiles[0].skills
    assert skills[:2] == ("python", "sql")
    assert len(skills) == 50
    assert report.skill_truncations == 1


def test_null_grad_date_loadable(tmp_path):
    record = json.loads(_valid_line())
    record["education"][0]["grad_date"] = None
    ps, _ = _load(tmp_path, [json.dumps(record)])
    assert ps.profiles[0].grad_date() is None
    assert is_core_user(ps.profiles[0])


def test_grad_date_is_latest(tmp_path):
    record = json.loads(_valid_line())
    record["education"].append(
        {"institution": "U2", "degree": "MSc", "grad_date": "2013-08"})
    ps, _ = _load(tmp_path, [json.dumps(record)])
    assert str(ps.profiles[0].grad_date()) == "2013-08"


def test_unreadable_file_is_fatal(tmp_path):
    with pytest.raises(OSError):
        load_profiles(tmp_path / "missing.jsonl", REF)


def test_rejection_report_csv(tmp_path):
    _, report = _load(tmp_path, ["oops"])
    out = tmp_path / "rej.csv"
    write_rejections(report, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "line_no,reason"
    assert lines[1].startswith("1,")


def test_core_user_definition():
    full = profile("p", [spell("engineer", "Acme", "i1", "2012-01", "2013-01")],
                   grad="2010-06", skills=("a", "b", "c"))
    assert is_core_user(full)
    assert not is_core_user(profile("p", [], grad="2010-06"))
    no_edu = profile("p", [spell("engineer", "Acme", "i1", "2012-01", "2013-01")],
                     skills=("a",))
    assert not is_core_user(no_edu)
    no_skills = profile("p", [spell("engineer", "Acme", "i1", "2012-01", "2013-01")],
                        grad="2010-06", skills=())
    assert not is_core_user(no_skills)


def test_core_user_stable_under_reordering():
    spells = [spell("engineer", "Acme", "i1", "2012-01", "2013-01"),
              spell("manager", "Best", "i2", "2013-02", "2014-01")]
    a = profile("p", spells, grad="2010-06", skills=("x", "y"))
    b = profile("p", list(reversed(spells)), grad="2010-06", skills=("y", "x"))
    assert is_core_user(a) == is_core_user(b)


def test_title_support_filter_threshold():
    spells = ([spell("engineer", "A", "i1", "2010-01", "2011-01")] * 12
              + [spell("rare title", "A", "i1", "2010-01", "2011-01")] * 3)
    counts = Counter(s.raw_title for s in spells)
    assert support_filter(counts, 10) == {"engineer"}
    assert support_filter(counts, 1) == {"engineer", "rare title"}


def test_support_filter_boundary_inclusive():
    assert support_filter({"a": 10}, 10) == {"a"}
    assert support_filter({"a": 9}, 10) == set()
    with pytest.raises(ValueError):
        support_filter({"a": 1}, 0)


@given(st.dictionaries(st.text(min_size=1, max_size=8),
                       st.integers(min_value=1, max_value=40), max_size=30),
       st.integers(min_value=1, max_value=20),
       st.integers(min_value=0, max_value=20))
def test_support_filter_antimonotone(counts, low, extra):
    high = low + extra
    assert support_filter(counts, high) <= support_filter(counts, low)


def test_load_serialize_load_roundtrip(tmp_path):
    lines = [
        _valid_line("p1"),
        json.dumps({"person_id": "p2", "education": [],
                    "spells": [{"title": "ongoing role", "organization": "Best",
                                "industry": "i2", "start": "2018-02", "end": None}],
                    "skills": []}),
    ]
    ps1, _ = _load(tmp_path, lines)
    out = tmp_path / "round.jsonl"
    with open(out, "w", encoding="utf-8") as fh:
        for p in ps1:
            fh.write(json.dumps({
                "person_id": p.person_id,
                "education": [
                    {"institution": e.institution, "degree": e.degree,
                     "grad_date": str(e.grad_date) if e.grad_date is not None else None}
                    for e in p.education],
                "spells": [
                    {"title": s.raw_title, "organization": s.organization,
                     "industry": s.industry, "start": str(s.start_date),
                     "end": str(s.end_date) if s.end_date is not None else None}
                    for s in p.spells],
                "skills": list(p.skills),
            }, ensure_ascii=False) + "\n")
    ps2, report = load_profiles(out, REF)
    assert report.rejections == []
    assert ps1 == ps2
