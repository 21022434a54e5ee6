"""Engine facades: online + offline end-to-end behaviour."""

from __future__ import annotations

import pytest

from repro.core.engine import OfflineEngine, OnlineEngine
from repro.core.query import Query
from repro.errors import ConfigurationError, StorageError
from repro.eval.metrics import match_sequences
from tests.conftest import make_kitchen_video

QUERY = Query(objects=["faucet"], action="washing dishes")


class TestOnlineEngine:
    def test_run_both_algorithms(self, zoo, kitchen_video):
        engine = OnlineEngine(zoo=zoo)
        for algorithm in ("svaq", "svaqd"):
            result = engine.run(QUERY, kitchen_video, algorithm=algorithm)
            assert result.video_id == kitchen_video.video_id

    def test_unknown_algorithm(self, zoo, kitchen_video):
        engine = OnlineEngine(zoo=zoo)
        with pytest.raises(ConfigurationError):
            engine.run(QUERY, kitchen_video, algorithm="magic")


class TestOfflineEngine:
    def test_topk_algorithms_agree_on_set(self, kitchen_engine):
        results = {
            algo: kitchen_engine.top_k(QUERY, k=3, algorithm=algo)
            for algo in ("rvaq", "rvaq-noskip", "fa", "pq-traverse")
        }
        reference = {r.interval for r in results["pq-traverse"].ranked}
        for algo, result in results.items():
            assert {r.interval for r in result.ranked} == reference, algo

    def test_rvaq_answers_are_real(self, kitchen_engine, kitchen_video):
        truth = kitchen_video.truth.query_clips(
            ["faucet"], "washing dishes", kitchen_video.meta.geometry
        )
        result = kitchen_engine.top_k(QUERY, k=3)
        report = match_sequences(result.sequences, truth)
        assert report.precision >= 0.5

    def test_localized(self, kitchen_engine):
        result = kitchen_engine.top_k(QUERY, k=2)
        rows = kitchen_engine.localized(result)
        assert all(video_id == "kitchen" for video_id, *_ in rows)
        for _, start, end, score in rows:
            assert 0 <= start <= end
            assert score >= 0

    def test_video_accessor(self, kitchen_engine, kitchen_video):
        assert kitchen_engine.video("kitchen") is kitchen_video
        with pytest.raises(StorageError):
            kitchen_engine.video("ghost")

    def test_unknown_algorithm(self, kitchen_engine):
        with pytest.raises(ConfigurationError):
            kitchen_engine.top_k(QUERY, k=1, algorithm="sorcery")

    def test_remove(self, zoo):
        engine = OfflineEngine(zoo=zoo)
        video = make_kitchen_video(seed=81, video_id="tmp")
        engine.ingest(video, object_labels=["faucet"], action_labels=["washing dishes"])
        assert engine.repository.n_videos == 1
        engine.remove("tmp")
        assert engine.repository.n_videos == 0
