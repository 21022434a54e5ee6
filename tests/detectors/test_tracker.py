"""Simulated tracker: stable ids, coverage, spurious tracks."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detectors.cost import CostMeter
from repro.detectors.profiles import (
    CENTERTRACK,
    IDEAL_TRACKER,
    MASK_RCNN,
    DetectorProfile,
    LabelAccuracy,
)
from repro.detectors.tracker import SimulatedTracker
from repro.errors import DetectorError
from repro.utils.intervals import Interval, IntervalSet
from repro.video.ground_truth import GroundTruth
from repro.video.model import ClipView, VideoGeometry, VideoMeta
from tests.conftest import make_kitchen_video
from tests.detectors.tracker_reference import ReferenceTracker

VIDEO = make_kitchen_video(seed=13, duration_s=600.0, video_id="trackvid")


def all_tracked(tracker, label):
    out = []
    for clip_id in VIDEO.meta.clip_ids():
        out.extend(
            tracker.tracks_in_clip(
                VIDEO.meta, VIDEO.truth, label, ClipView(VIDEO.meta, clip_id)
            )
        )
    return out


class TestTracking:
    def test_observations_inside_clip_bounds(self):
        tracker = SimulatedTracker(CENTERTRACK, seed=0)
        clip = ClipView(VIDEO.meta, 3)
        for obs in tracker.tracks_in_clip(VIDEO.meta, VIDEO.truth, "faucet", clip):
            assert clip.frames.start <= obs.frame <= clip.frames.end
            assert obs.label == "faucet"
            assert 0.0 <= obs.score <= 1.0

    def test_ids_stable_within_episode(self):
        tracker = SimulatedTracker(IDEAL_TRACKER, seed=0, id_switch_rate=0.0)
        observations = all_tracked(tracker, "faucet")
        # Ideal tracker, no switches: per episode one id; id never toggles
        # back and forth across frames.
        by_frame: dict[int, set[int]] = {}
        for obs in observations:
            by_frame.setdefault(obs.frame, set()).add(obs.track_id)
        episodes = VIDEO.truth.object_frames("faucet")
        for episode in episodes:
            ids = set()
            for frame in episode:
                ids |= by_frame.get(frame, set())
            # one ground-truth instance set can carry a couple instances,
            # but ids must not proliferate per frame
            assert 1 <= len(ids) <= 4

    def test_ideal_tracker_covers_every_present_frame(self):
        tracker = SimulatedTracker(IDEAL_TRACKER, seed=0, id_switch_rate=0.0)
        covered = {obs.frame for obs in all_tracked(tracker, "faucet")}
        expected = {
            f
            for f in VIDEO.truth.object_frames("faucet").points()
            if f < VIDEO.meta.usable_frames
        }
        assert expected <= covered

    def test_id_switches_create_new_ids(self):
        never = SimulatedTracker(CENTERTRACK, seed=0, id_switch_rate=0.0)
        always = SimulatedTracker(CENTERTRACK, seed=0, id_switch_rate=1.0)
        ids_never = {o.track_id for o in all_tracked(never, "faucet")}
        ids_always = {o.track_id for o in all_tracked(always, "faucet")}
        assert len(ids_always) > len(ids_never)

    def test_deterministic(self):
        a = SimulatedTracker(CENTERTRACK, seed=0)
        b = SimulatedTracker(CENTERTRACK, seed=0)
        clip = ClipView(VIDEO.meta, 2)
        assert a.tracks_in_clip(VIDEO.meta, VIDEO.truth, "faucet", clip) == (
            b.tracks_in_clip(VIDEO.meta, VIDEO.truth, "faucet", clip)
        )

    def test_spurious_tracks_outside_truth(self):
        tracker = SimulatedTracker(CENTERTRACK, seed=0)
        present = set(VIDEO.truth.object_frames("faucet").points())
        spurious = [
            o for o in all_tracked(tracker, "faucet") if o.frame not in present
        ]
        total_absent = VIDEO.meta.usable_frames - len(
            [f for f in present if f < VIDEO.meta.usable_frames]
        )
        rate = len(spurious) / max(1, total_absent)
        assert 0.0 < rate < 0.06  # around the profile's fpr

    def test_vocabulary_and_profile_validation(self):
        with pytest.raises(DetectorError):
            SimulatedTracker(MASK_RCNN)  # wrong profile kind
        tracker = SimulatedTracker(
            CENTERTRACK, seed=0, vocabulary=frozenset({"faucet"})
        )
        with pytest.raises(DetectorError):
            tracker.tracks_in_clip(
                VIDEO.meta, VIDEO.truth, "zebra", ClipView(VIDEO.meta, 0)
            )


# -- differential test against the dict-of-lists oracle -----------------------

LABEL = "thing"

spans = st.tuples(st.integers(0, 299), st.integers(0, 60)).map(
    lambda p: Interval(p[0], min(299, p[0] + p[1]))
)


@st.composite
def scenes(draw):
    """A small video whose ``LABEL`` has random instance episodes (some
    overlapping, some past the usable frames), optional outages and a
    random tracker profile, ideal included."""
    geometry = VideoGeometry(
        frames_per_shot=draw(st.integers(1, 6)),
        shots_per_clip=draw(st.integers(1, 4)),
    )
    n_frames = draw(st.integers(geometry.frames_per_clip, 300))
    meta = VideoMeta("scene", n_frames, geometry)
    instances = tuple(
        IntervalSet([iv for iv in ivs if iv.end < n_frames])
        for ivs in draw(st.lists(st.lists(spans, max_size=4), max_size=4))
    )
    outages = IntervalSet(
        [iv for iv in draw(st.lists(spans, max_size=2)) if iv.end < n_frames]
    )
    truth = GroundTruth(
        n_frames=n_frames,
        objects={LABEL: IntervalSet([iv for ivs in instances for iv in ivs])},
        instances={LABEL: instances},
        outage_frames=outages,
    )
    if draw(st.booleans()):
        accuracy = IDEAL_TRACKER.default
    else:
        accuracy = LabelAccuracy(
            tpr=draw(st.sampled_from([0.3, 0.8, 0.95, 1.0])),
            fpr=draw(st.sampled_from([0.0, 0.02, 0.3])),
            burst_on=draw(st.floats(1.0, 20.0)),
            burst_off=draw(st.floats(1.0, 8.0)),
        )
    profile = DetectorProfile(
        name="T", kind="tracker", default=accuracy, ms_per_unit=0.1
    )
    switch = draw(st.sampled_from([0.0, 0.3, 1.0]))
    return meta, truth, profile, switch, draw(st.integers(0, 3))


class TestColumnarMatchesReference:
    @given(scenes(), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_identical_observations_sums_and_charges(self, scene, absent):
        meta, truth, profile, switch, seed = scene
        label = "absent" if absent else LABEL
        columnar_meter, reference_meter = CostMeter(), CostMeter()
        columnar = SimulatedTracker(
            profile, seed=seed, cost_meter=columnar_meter, id_switch_rate=switch
        )
        reference = ReferenceTracker(
            profile, seed=seed, cost_meter=reference_meter, id_switch_rate=switch
        )
        for clip_id in meta.clip_ids():
            clip = ClipView(meta, clip_id)
            expected = reference.tracks_in_clip(meta, truth, label, clip)
            assert columnar.tracks_in_clip(meta, truth, label, clip) == expected
            # A second reference call, so both meters see two charges.
            expected_scores = [
                t.score
                for t in reference.tracks_in_clip(meta, truth, label, clip)
            ]
            scores = columnar.track_scores_in_clip(meta, truth, label, clip)
            assert scores == expected_scores
            assert float(sum(scores)).hex() == float(sum(expected_scores)).hex()
        assert columnar_meter.units() == reference_meter.units()
        assert columnar_meter.ms() == reference_meter.ms()

    def test_kitchen_scene_matches_reference(self):
        columnar = SimulatedTracker(CENTERTRACK, seed=3, id_switch_rate=0.5)
        reference = ReferenceTracker(CENTERTRACK, seed=3, id_switch_rate=0.5)
        for label in ("faucet", "person", "zebra"):
            for clip_id in VIDEO.meta.clip_ids():
                clip = ClipView(VIDEO.meta, clip_id)
                assert columnar.tracks_in_clip(
                    VIDEO.meta, VIDEO.truth, label, clip
                ) == reference.tracks_in_clip(VIDEO.meta, VIDEO.truth, label, clip)
