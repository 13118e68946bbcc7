from __future__ import annotations

import json
import re
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talentflow.dates import month_text
from talentflow.ingest import (MAX_SKILLS, is_core_user, load_profiles,
                               support_filter, write_rejections)

from conftest import m, profile, spell

REF = m("2020-01")


def _valid_line(person_id="p1", title="engineer", org="Acme", industry="i1",
                start="2012-01", end="2014-01"):
    return json.dumps({
        "person_id": person_id,
        "education": [{"institution": "U", "degree": "BSc", "grad_date": "2010-06"}],
        "spells": [{"title": title, "organization": org, "industry": industry,
                    "start": start, "end": end}],
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


def test_spells_of_one_organization_share_one_string(tmp_path):
    lines = [_valid_line(f"p{i}", org=" Acme Corp ") for i in range(1000)]
    ps, _ = _load(tmp_path, lines)
    spells = list(ps.all_spells())
    assert len(spells) == 1000
    assert len({id(s.organization) for s in spells}) == 1
    assert spells[0].organization == "Acme Corp"


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


def test_ongoing_spell_ends_at_reference_and_future_start_is_rejected(tmp_path):
    lines = [_valid_line("ongoing", start="2018-02", end=None),
             _valid_line("starts-at-reference", start="2020-01", end=None),
             _valid_line("starts-after", start="2020-02", end=None)]
    ps, report = _load(tmp_path, lines)
    assert [(p.person_id, p.spells[0].start_date, p.spells[0].end_date) for p in ps] == [
        ("ongoing", m("2018-02"), REF), ("starts-at-reference", REF, REF)]
    assert [(r.line_no, r.reason) for r in report.rejections] == [
        (3, "spell start 2020-02 is after reference date 2020-01")]


def test_duplicate_person_id_rejected(tmp_path):
    ps, report = _load(tmp_path, [_valid_line("p1"), _valid_line("p1")])
    assert len(ps) == 1
    assert "duplicate person_id" in report.rejections[0].reason


def test_rejected_line_does_not_claim_its_person_id(tmp_path):
    # A null title rejects the whole line before its person_id is taken,
    # so a later valid line with that id is the first one and loads.
    null_title = json.loads(_valid_line("p1"))
    null_title["spells"][0]["title"] = None
    lines = [_valid_line("p0"), json.dumps(null_title), _valid_line("p1", title="manager")]
    ps, report = _load(tmp_path, lines)
    assert [(r.line_no, r.reason) for r in report.rejections] == [
        (2, "spell missing title")]
    assert [(p.person_id, p.spells[0].raw_title) for p in ps] == [
        ("p0", "engineer"), ("p1", "manager")]


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


def _re_type_error(value) -> str:
    """What `re.fullmatch` says of a non-string, on this Python version."""
    try:
        re.fullmatch("", value)
    except TypeError as exc:
        return str(exc)
    raise AssertionError(f"{value!r} matched")


@pytest.mark.parametrize("field, value, reason", [
    ("start", "2012-13", "month out of range: 13"),
    ("start", "2020-02", "spell start 2020-02 is after reference date 2020-01"),
    ("end", "2011-01", "spell end 2011-01 precedes start 2012-01"),
    ("grad_date", "junk", "not a YYYY-MM month: 'junk'"),
    ("start", 201203, _re_type_error(201203)),
])
def test_date_violations_reject_with_exact_reason(tmp_path, field, value, reason):
    # each reason is written as is to rejections.csv
    record = json.loads(_valid_line())
    entry = record["education"][0] if field == "grad_date" else record["spells"][0]
    entry[field] = value
    ps, report = _load(tmp_path, [json.dumps(record)])
    assert len(ps) == 0
    assert report.rejections == [(1, reason)]


@pytest.mark.parametrize("mutate, reason", [
    (lambda r: r["education"][0].__setitem__("institution", 5),
     "institution is not a string"),
    (lambda r: r["education"][0].__setitem__("degree", "\ud800"),
     "degree is not valid Unicode text"),
    (lambda r: r.__setitem__("skills", ["python", 3]), "skill is not a string"),
    (lambda r: r.__setitem__("education", ["x"]), "education entry is not an object"),
    (lambda r: r["education"][0].update(grad_date="junk", institution=5),
     "not a YYYY-MM month: 'junk'"),
], ids=["institution", "degree", "skill", "education-entry", "date-before-institution"])
def test_unkept_field_violations_reject_with_exact_reason(tmp_path, mutate, reason):
    # institutions, degrees and skill names are not kept, but are checked
    # as before: same reasons, and an entry's date before its institution
    record = json.loads(_valid_line())
    mutate(record)
    ps, report = _load(tmp_path, [json.dumps(record)])
    assert len(ps) == 0
    assert report.rejections == [(1, reason)]


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
# often enough to reach the field checks), or a well-formed profile whose
# spell may be ongoing, start at or after the reference date, or end before
# it starts
_LINES = st.one_of(
    st.binary(max_size=12).map(lambda b: b.replace(b"\n", b"").replace(b"\r", b"")),
    _JSON_VALUES.map(lambda v: json.dumps(v).encode()),
    st.builds(_valid_line, st.sampled_from(["p1", "p2"]),
              start=st.sampled_from(["2012-01", "2020-01", "2020-02"]),
              end=st.sampled_from(["2014-01", "2021-01", None])).map(str.encode))


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
        texts = [p.person_id]
        texts += [t for s in p.spells for t in (s.raw_title, s.organization, s.industry)]
        for text in texts:
            assert isinstance(text, str)
            text.encode("utf-8")
        assert isinstance(p.has_education, bool)
        assert p.grad_date is None or isinstance(p.grad_date, int)
        assert 0 <= p.skill_count <= MAX_SKILLS
        for s in p.spells:
            assert s.start_date <= REF and s.start_date <= s.end_date


def test_skills_trimmed_deduped_truncated(tmp_path, caplog):
    few = json.loads(_valid_line("few"))
    few["skills"] = [" python ", "python", "", "  ", "sql"]
    many = json.loads(_valid_line("many"))
    many["skills"] = few["skills"] + [f"s{i}" for i in range(70)]
    with caplog.at_level("WARNING"):
        ps, report = _load(tmp_path, [json.dumps(few), json.dumps(many)])
    assert [p.skill_count for p in ps] == [2, 50]
    assert report.skill_truncations == 1
    assert "profile many lists 72 skills, truncating to 50" in caplog.text


def test_null_grad_date_loadable(tmp_path):
    record = json.loads(_valid_line())
    record["education"][0]["grad_date"] = None
    ps, _ = _load(tmp_path, [json.dumps(record)])
    assert ps.profiles[0].grad_date is None
    assert ps.profiles[0].has_education
    assert is_core_user(ps.profiles[0])


def test_grad_date_is_latest(tmp_path):
    record = json.loads(_valid_line())
    record["education"][:0] = [
        {"institution": "U2", "degree": "MSc", "grad_date": "2013-08"},
        {"institution": "U3", "degree": "PhD", "grad_date": None}]
    ps, _ = _load(tmp_path, [json.dumps(record)])
    assert month_text(ps.profiles[0].grad_date) == "2013-08"


_MONTHS = st.integers(1990 * 12, 2019 * 12 + 11).map(month_text)
# a dated, null or missing graduation month
_EDUCATION = st.fixed_dictionaries(
    {"institution": st.just("U"), "degree": st.just("BSc")},
    optional={"grad_date": st.none() | _MONTHS})


def _skill_names(distinct: int, copies: list[int], blanks: int) -> list[str]:
    """`distinct` names, some with surrounding whitespace, then a copy
    of each name listed in `copies` and `blanks` pairs of blank names."""
    names = [(" s{} ", "s{}", "s{}\t")[i % 3].format(i) for i in range(distinct)]
    return names + [f"s{i}" for i in copies if i < distinct] + ["", " "] * blanks


# 0-70 skill names in any order, more than 50 distinct ones now and then
_SKILLS = st.builds(_skill_names, st.integers(0, 57),
                    st.lists(st.integers(0, 56), max_size=9),
                    st.integers(0, 2)).flatmap(st.permutations)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.lists(_EDUCATION, max_size=4), _SKILLS), max_size=5))
def test_loaded_education_and_skill_facts_match_the_line(people):
    lines = []
    for i, (education, skills) in enumerate(people):
        record = json.loads(_valid_line(f"p{i}"))
        record.update(education=education, skills=skills)
        lines.append(json.dumps(record))
    with tempfile.TemporaryDirectory() as tmp:
        ps, report = _load(Path(tmp), lines)
    assert report.rejections == []
    capped = 0
    for p, (education, skills) in zip(ps, people, strict=True):
        dated = [m(e["grad_date"]) for e in education if e.get("grad_date") is not None]
        distinct = len({s.strip() for s in skills} - {""})
        assert p.has_education == bool(education)
        assert p.grad_date == (max(dated) if dated else None)
        assert p.skill_count == min(distinct, 50)
        capped += distinct > 50
    assert report.skill_truncations == capped


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
            grad = month_text(p.grad_date) if p.grad_date is not None else None
            fh.write(json.dumps({
                "person_id": p.person_id,
                "education": [{"grad_date": grad}] if p.has_education else [],
                "spells": [
                    {"title": s.raw_title, "organization": s.organization,
                     "industry": s.industry, "start": month_text(s.start_date),
                     "end": month_text(s.end_date) if s.end_date is not None else None}
                    for s in p.spells],
                "skills": [f"skill {i}" for i in range(p.skill_count)],
            }, ensure_ascii=False) + "\n")
    ps2, report = load_profiles(out, REF)
    assert report.rejections == []
    assert ((ps1.profiles, ps1.reference_date, ps1.org_industry)
            == (ps2.profiles, ps2.reference_date, ps2.org_industry))
