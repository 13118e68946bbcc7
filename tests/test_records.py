"""Record types are `typing.NamedTuple`s; the four holders that must not
be tuples are plain classes with fixed attributes."""

from __future__ import annotations

import pytest

from talentflow.config import PipelineConfig
from talentflow.graph import (CentralityReport, ComponentReport, PageRankResult,
                              PowerLawFit, TalentGraph)
from talentflow.hops import Hop, HopCorpus
from talentflow.ingest import JobSpell, LoadReport, PersonProfile, Rejection
from talentflow.metrics import (CohortKey, Distribution, DurationBinCell,
                                JobHolding, LevelGainRecord, PromotionTable,
                                QuartileSummary)
from talentflow.titles import (NormalizationStats, ParsedTitle, ParseFailure,
                               TitleDictionaries, Token)

from conftest import profile, profile_set, spell

RECORDS = (
    JobSpell, PersonProfile, Rejection, Hop, JobHolding, LevelGainRecord,
    PromotionTable, DurationBinCell, CohortKey, QuartileSummary,
    Distribution, TalentGraph, PageRankResult, ComponentReport,
    PowerLawFit, CentralityReport, ParseFailure, NormalizationStats, Token,
    ParsedTitle, TitleDictionaries,
)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_an_immutable_tuple(cls):
    values = tuple(range(1, len(cls._fields) + 1))
    record = cls._make(values)
    assert record == values  # equal to the plain tuple of its fields
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], 0)
    with pytest.raises(AttributeError):
        record.extra = 0


def test_profile_set_equality_compares_contents():
    spells = [spell("analyst", "OrgA", "i1", "2010-01", "2012-01")]
    same = profile_set([profile("p1", spells)])
    assert profile_set([profile("p1", spells)]) == same
    assert profile_set([profile("p2", spells)]) != same
    assert profile_set([]) != same


def test_holders_take_only_their_own_attributes():
    report = LoadReport()
    report.loaded += 1
    report.reject(3, "bad line")
    assert (report.loaded, report.rejections) == (1, [Rejection(3, "bad line")])
    corpus = HopCorpus((), frozenset())
    config = PipelineConfig(out="out", top_k=3)
    config.damping = 0.5
    assert (config.out, config.top_k, config.damping, config.tol) == ("out", 3, 0.5, 1e-10)
    for holder in (report, corpus, config):
        with pytest.raises(AttributeError):
            holder.misspelled = 1
    with pytest.raises(AttributeError):
        PipelineConfig(topk=3)
