"""Windowed Q1 rows: ``TaraExplorer.trajectory`` equals the full-series filter.

A Q1 row reports one rule's measures in the requested windows only.
``TarArchive.measures_in`` finds each window by bisecting the rule's
entries instead of building a measure for every archived window; these
properties pin that the result is exactly what filtering the full
series gives, over the eager archive (sealed and staged) and over the
lazy v2 reader.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import UnknownWindowError
from repro.core import GenerationConfig, TaraExplorer, build_knowledge_base
from repro.core.lazykb import LazyTaraKnowledgeBase
from repro.core.persistence import load_knowledge_base, save_knowledge_base
from repro.data import PeriodSpec, TransactionDatabase, WindowedDatabase
from tests.conftest import random_itemlists
from tests.core.test_archive_property import build_archive, windows_strategy

WINDOWS = 24


@pytest.fixture(scope="module")
def long_kb():
    """24 windows x 50 transactions: a history much longer than a span."""
    itemlists = random_itemlists(seed=202, count=1200, item_count=12, max_len=5)
    db = TransactionDatabase.from_itemlists(itemlists)
    windows = WindowedDatabase.partition_by_count(db, WINDOWS)
    return build_knowledge_base(windows, GenerationConfig(0.03, 0.1))


@pytest.fixture(scope="module")
def lazy_long_kb(long_kb, tmp_path_factory):
    path = tmp_path_factory.mktemp("lazy") / "kb.tara2"
    save_knowledge_base(long_kb, path)
    knowledge_base = load_knowledge_base(path)
    assert isinstance(knowledge_base, LazyTaraKnowledgeBase)
    yield knowledge_base
    knowledge_base.close()


def full_series_filter(archive, rule_id, windows):
    """The reference: every archived measure, kept where requested."""
    expected = dict.fromkeys(windows)
    for measure in archive.series(rule_id):
        if measure.window in expected:
            expected[measure.window] = measure
    return expected


spans = st.lists(
    st.integers(min_value=0, max_value=WINDOWS - 1),
    min_size=1,
    max_size=8,
    unique=True,
)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_trajectory_equals_full_series_filter(long_kb, lazy_long_kb, data):
    rule_id = data.draw(st.sampled_from(sorted(long_kb.archive.rule_ids())))
    spec = PeriodSpec(data.draw(spans))
    for knowledge_base in (long_kb, lazy_long_kb):
        row = TaraExplorer(knowledge_base).trajectory(rule_id, spec)
        assert row.rule_id == rule_id
        assert row.rule == knowledge_base.catalog.get(rule_id)
        assert list(row.measures) == list(spec)
        assert dict(row.measures) == full_series_filter(
            knowledge_base.archive, rule_id, spec
        )


@settings(max_examples=60, deadline=None)
@given(per_window=windows_strategy, data=st.data())
def test_measures_in_staged_and_sealed(per_window, data):
    archive = build_archive(per_window)
    rule_ids = sorted(archive.rule_ids())
    if not rule_ids:
        return
    rule_id = data.draw(st.sampled_from(rule_ids))
    windows = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(per_window) - 1),
            min_size=1,
            unique=True,
        )
    )
    staged = archive.measures_in(rule_id, windows)
    assert staged == full_series_filter(archive, rule_id, windows)
    archive.seal()
    assert archive.measures_in(rule_id, windows) == staged


def test_window_outside_the_archive_is_rejected(long_kb):
    rule_id = next(iter(long_kb.archive.rule_ids()))
    with pytest.raises(UnknownWindowError):
        TaraExplorer(long_kb).trajectory(rule_id, PeriodSpec([0, WINDOWS]))
