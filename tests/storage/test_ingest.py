"""The ingestion phase (§4.2)."""

from __future__ import annotations

import pytest

from repro.core.config import OnlineConfig
from repro.core.query import Query
from repro.core.scoring import MaxScoring
from repro.core.svaqd import SVAQD
from repro.detectors.faults import faulty_zoo
from repro.detectors.zoo import default_zoo
from repro.errors import IngestError
from repro.storage.ingest import ingest_many, ingest_video
from repro.video.model import ClipView
from tests.conftest import make_kitchen_video
from tests.detectors.tracker_reference import ReferenceTracker

VIDEO = make_kitchen_video(seed=51, duration_s=240.0, video_id="ingvid")


@pytest.fixture(scope="module")
def ingest(zoo):
    return ingest_video(
        VIDEO, zoo,
        object_labels=["faucet", "person"],
        action_labels=["washing dishes"],
    )


class TestIngest:
    def test_tables_cover_all_clips(self, ingest):
        for label in ("faucet", "person", "washing dishes"):
            table = ingest.table_for(label)
            assert len(table) == VIDEO.meta.n_clips

    def test_object_scores_track_presence(self, ingest, zoo):
        table = ingest.table_for("faucet")
        present_clips = VIDEO.truth.query_clips(
            [], "washing dishes", VIDEO.meta.geometry
        )
        # the best-scoring faucet clip holds real tracked detections
        best_cid, best_score = table.sorted_row(0)
        assert best_score > 0
        faucet_clips = VIDEO.meta.geometry.frame_set_to_clips(
            VIDEO.truth.object_frames("faucet"), min_cover=0.2
        )
        assert best_cid in faucet_clips

    def test_individual_sequences_near_truth(self, ingest):
        found = ingest.sequences_for("washing dishes")
        truth = VIDEO.meta.geometry.frame_set_to_clips(
            VIDEO.truth.action_frames("washing dishes"), min_cover=0.5
        )
        assert found.iou(truth) > 0.6

    def test_unknown_label_raises(self, ingest):
        with pytest.raises(IngestError):
            ingest.table_for("zebra")
        with pytest.raises(IngestError):
            ingest.sequences_for("zebra")

    def test_labels_listing(self, ingest):
        assert set(ingest.labels) == {"faucet", "person", "washing dishes"}

    def test_ingest_cost_recorded(self, ingest):
        assert ingest.ingest_cost_ms > 0

    def test_duplicate_labels_rejected(self, zoo):
        with pytest.raises(IngestError):
            ingest_video(
                VIDEO, zoo, object_labels=["faucet", "faucet"], action_labels=[]
            )

    def test_alternative_scoring_scheme(self, zoo):
        alt = ingest_video(
            VIDEO, zoo,
            object_labels=["faucet"],
            action_labels=["washing dishes"],
            scoring=MaxScoring(),
        )
        table = alt.table_for("faucet")
        # MaxScoring: per-clip score is one instance's score, bounded by 1
        assert table.max_score <= 1.0


class TestSequencesMatchStandaloneSVAQD:
    """Ingest runs every label as one query of a shared fleet; each label's
    sequences must equal a standalone single-label SVAQD run."""

    OBJECTS = ["faucet", "person", "zebra"]
    ACTIONS = ["washing dishes", "smoking"]

    @pytest.mark.parametrize(
        "config, faults",
        [
            (OnlineConfig(), "none"),
            (OnlineConfig(cache_detections=False), "none"),
            (OnlineConfig(retry_max_attempts=8), "flaky"),
            (
                OnlineConfig(cache_detections=False, retry_max_attempts=8),
                "flaky",
            ),
        ],
        ids=["default", "uncached", "flaky", "flaky-uncached"],
    )
    def test_sequences_equal_standalone_runs(self, config, faults):
        ingest = ingest_video(
            VIDEO, faulty_zoo(default_zoo(seed=8), faults),
            self.OBJECTS, self.ACTIONS, config=config,
        )
        reference = faulty_zoo(default_zoo(seed=8), faults)
        for query in (
            *(Query(objects=[label]) for label in self.OBJECTS),
            *(Query(actions=[label]) for label in self.ACTIONS),
        ):
            (label,) = query.all_labels
            expected = SVAQD(reference, query, config).run(VIDEO).sequences
            assert ingest.sequences_for(label) == expected, label
        assert any(ingest.sequences_for(label) for label in ingest.labels)

    def test_tables_and_meter_equal_the_per_label_path(self):
        """Object tables equal the reference tracker's per-clip sums, and
        the meter equals per-label table passes plus standalone runs."""
        zoo = default_zoo(seed=8)
        ingest = ingest_video(VIDEO, zoo, self.OBJECTS, self.ACTIONS)
        reference = default_zoo(seed=8)
        tracker = ReferenceTracker(
            reference.tracker.profile, seed=8, cost_meter=reference.cost_meter
        )
        meta = VIDEO.meta
        for label in self.OBJECTS:
            expected = {
                cid: float(sum(t.score for t in tracker.tracks_in_clip(
                    meta, VIDEO.truth, label, ClipView(meta, cid)
                )))
                for cid in meta.clip_ids()
            }
            cids, scores = ingest.table_for(label).as_columns()
            assert dict(zip(cids.tolist(), scores.tolist())) == expected
            SVAQD(reference, Query(objects=[label])).run(VIDEO)
        recognizer = reference.recognizer
        for label in self.ACTIONS:
            reference.cost_meter.record(
                recognizer.name, meta.n_shots, recognizer.profile.ms_per_unit
            )
            SVAQD(reference, Query(actions=[label])).run(VIDEO)
        assert ingest.ingest_cost_ms == reference.cost_meter.ms()
        assert zoo.cost_meter.breakdown() == reference.cost_meter.breakdown()
        assert zoo.cost_meter.units() == reference.cost_meter.units()


class TestIngestMany:
    """Parallel ingestion: any executor, same results, same cost books."""

    VIDEOS = [
        make_kitchen_video(seed=61 + i, duration_s=120.0, video_id=f"many{i}")
        for i in range(3)
    ]
    LABELS = dict(object_labels=["faucet"], action_labels=["washing dishes"])

    @staticmethod
    def _fingerprint(ingests, meter):
        rows = []
        for ing in ingests:
            for label in ing.labels:
                cids, scores = ing.table_for(label).as_columns()
                rows.append(
                    (ing.video_id, label, cids.tolist(), scores.tolist(),
                     ing.sequences_for(label).as_tuples())
                )
            rows.append((ing.video_id, ing.ingest_cost_ms))
        rows.append((meter.ms(), meter.units()))
        return rows

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_matches_serial(self, executor):
        from repro.detectors.zoo import default_zoo

        serial_zoo = default_zoo(seed=9)
        serial = ingest_many(self.VIDEOS, serial_zoo, **self.LABELS)
        par_zoo = default_zoo(seed=9)
        par = ingest_many(
            self.VIDEOS, par_zoo, **self.LABELS,
            executor=executor, max_workers=2,
        )
        assert self._fingerprint(par, par_zoo.cost_meter) == self._fingerprint(
            serial, serial_zoo.cost_meter
        )

    def test_unknown_executor(self, zoo):
        with pytest.raises(IngestError):
            ingest_many([], zoo, **self.LABELS, executor="gpu")

    def test_zoo_fork_is_private(self):
        from repro.detectors.zoo import default_zoo

        zoo = default_zoo(seed=4)
        fork = zoo.fork()
        assert fork.cost_meter is not zoo.cost_meter
        assert fork.cost_meter.ms() == 0.0
        before = zoo.cost_meter.ms()
        fork.cost_meter.record("probe", 2, 1.5)
        assert zoo.cost_meter.ms() == before
        zoo.cost_meter.merge(fork.cost_meter)
        assert zoo.cost_meter.ms("probe") == 3.0
