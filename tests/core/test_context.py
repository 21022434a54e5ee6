"""Per-stage execution accounting through the unified session pipeline."""

from __future__ import annotations

import pytest

from repro.core.config import OnlineConfig
from repro.core.engine import OnlineEngine
from repro.core.context import ExecutionContext
from repro.core.query import CompoundQuery, Query
from repro.core.svaq import SVAQ
from repro.core.svaqd import SVAQD
from tests.conftest import make_kitchen_video

VIDEO = make_kitchen_video(seed=41, duration_s=300.0, video_id="ctxvid")
# "oven" rarely co-occurs with washing dishes, so most clips short-circuit
# before the remaining predicates are touched.
SELECTIVE_QUERY = Query(
    objects=["oven", "faucet"], action="washing dishes"
)


class TestResultStats:
    def test_stats_attached_to_result(self, zoo):
        result = SVAQD(zoo, SELECTIVE_QUERY, OnlineConfig()).run(VIDEO)
        stats = result.stats
        assert stats is not None
        assert stats.clips_processed == VIDEO.meta.n_clips
        assert stats.model_invocations > 0
        assert stats.model_invocations == (
            stats.detector_invocations + stats.recognizer_invocations
        )

    def test_short_circuit_skips_are_visible(self, zoo):
        result = SVAQD(zoo, SELECTIVE_QUERY, OnlineConfig()).run(VIDEO)
        assert result.stats.predicates_skipped > 0
        assert 0.0 < result.stats.short_circuit_savings < 1.0

    def test_no_short_circuit_means_no_skips(self, zoo):
        result = SVAQD(zoo, SELECTIVE_QUERY, OnlineConfig()).run(
            VIDEO, short_circuit=False
        )
        assert result.stats.predicates_skipped == 0
        assert result.stats.short_circuit_savings == 0.0

    def test_stage_wall_times_recorded(self, zoo):
        result = SVAQD(zoo, SELECTIVE_QUERY, OnlineConfig()).run(VIDEO)
        stages = result.stats.stage_wall_s
        assert {"evaluate", "quotas", "assemble"} <= set(stages)
        assert all(seconds >= 0.0 for seconds in stages.values())

    def test_compound_results_carry_stats(self, zoo):
        compound = CompoundQuery.disjunction(
            [Query(action="washing dishes"), Query(objects=["faucet"])]
        )
        result = OnlineEngine(zoo).run(compound, VIDEO)
        assert result.stats is not None
        assert result.stats.clips_processed == VIDEO.meta.n_clips
        assert result.stats.model_invocations > 0


class TestPolicyCounters:
    def test_dynamic_runs_probe_and_refresh(self, zoo):
        result = SVAQD(zoo, SELECTIVE_QUERY, OnlineConfig()).run(VIDEO)
        assert result.stats.probe_clips > 0
        assert result.stats.quota_refreshes == VIDEO.meta.n_clips

    def test_static_runs_never_probe_or_refresh(self, zoo):
        result = SVAQ(zoo, SELECTIVE_QUERY, OnlineConfig()).run(VIDEO)
        assert result.stats.probe_clips == 0
        assert result.stats.quota_refreshes == 0


class TestSharedContext:
    def test_shared_context_accumulates_across_runs(self, zoo):
        context = ExecutionContext()
        SVAQD(zoo, SELECTIVE_QUERY, OnlineConfig()).run(
            VIDEO, context=context
        )
        after_one = context.clips_processed
        SVAQD(zoo, SELECTIVE_QUERY, OnlineConfig()).run(
            VIDEO, context=context
        )
        assert after_one == VIDEO.meta.n_clips
        assert context.clips_processed == 2 * after_one

    def test_merge_sums_counters_and_stage_times(self):
        a, b = ExecutionContext(), ExecutionContext()
        a.clips_processed = 3
        a.record_model_call("object", 2)
        a.add_stage_time("evaluate", 0.5)
        b.clips_processed = 4
        b.record_model_call("action", 1)
        b.add_stage_time("evaluate", 0.25)
        a.merge(b)
        assert a.clips_processed == 7
        assert a.detector_invocations == 2
        assert a.recognizer_invocations == 1
        assert a.stage_wall_s()["evaluate"] == pytest.approx(0.75)

    def test_snapshot_is_frozen_copy(self):
        context = ExecutionContext()
        context.clips_processed = 5
        stats = context.snapshot()
        context.clips_processed = 9
        assert stats.clips_processed == 5
        assert stats.as_dict()["clips_processed"] == 5


class TestCacheHitCounters:
    def test_cached_calls_count_as_invocations_and_hits(self):
        context = ExecutionContext()
        context.record_model_call("object", 3)
        context.record_model_call("object", 2, cached=True)
        context.record_model_call("action", 1, cached=True)
        stats = context.snapshot()
        assert stats.detector_invocations == 5
        assert stats.detector_cache_hits == 2
        assert stats.recognizer_cache_hits == 1
        assert stats.cache_hits == 3
        assert stats.cache_hit_rate == pytest.approx(3 / 6)

    def test_merge_carries_hit_counters(self):
        a, b = ExecutionContext(), ExecutionContext()
        b.record_model_call("object", 4, cached=True)
        a.merge(b)
        assert a.detector_cache_hits == 4
        assert a.snapshot().as_dict()["detector_cache_hits"] == 4

    def test_summary_surfaces_cache_and_fresh_lines(self):
        context = ExecutionContext()
        context.clips_processed = 2
        context.record_model_call("object", 3)
        context.record_model_call("object", 1, cached=True)
        context.add_stage_time("evaluate", 0.002)
        text = context.snapshot().summary()
        assert "execution stats:" in text
        assert "cache hits           : 1" in text
        assert "hit rate 25.0%" in text
        assert "fresh model calls    : 3" in text
        assert "stage evaluate" in text
