"""Reference oracle for :class:`repro.detectors.tracker.SimulatedTracker`.

The frame-at-a-time synthesis the columnar tracker replaced: every
observation is appended to a ``frame -> [(track_id, score)]`` map in Python
loops, from the same RNG draws in the same order.  The differential tests
hold the columnar tracker to this oracle observation for observation.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import TrackedDetection
from repro.detectors.cost import CostMeter
from repro.detectors.noise import alternating_indicator, conditional_scores
from repro.detectors.profiles import DetectorProfile
from repro.utils.rng import derive_rng
from repro.video.ground_truth import GroundTruth
from repro.video.model import ClipView, VideoMeta


class ReferenceTracker:
    """Dict-of-lists tracker with the constructor of ``SimulatedTracker``."""

    def __init__(
        self,
        profile: DetectorProfile,
        seed: int = 0,
        cost_meter: CostMeter | None = None,
        id_switch_rate: float = 0.05,
    ) -> None:
        self._profile = profile
        self._seed = seed
        self._cost = cost_meter
        self._id_switch_rate = id_switch_rate
        self._cache: dict[tuple[str, str], dict[int, list[tuple[int, float]]]] = {}

    @property
    def name(self) -> str:
        return self._profile.name

    def tracks_in_clip(
        self, video: VideoMeta, truth: GroundTruth, label: str, clip: ClipView
    ) -> list[TrackedDetection]:
        by_frame = self._observations(video, truth, label)
        frames = clip.frames
        if self._cost is not None:
            self._cost.record(self.name, len(frames), self._profile.ms_per_unit)
        result: list[TrackedDetection] = []
        for frame in range(frames.start, frames.end + 1):
            for track_id, score in by_frame.get(frame, ()):
                result.append(
                    TrackedDetection(
                        label=label, frame=frame, track_id=track_id, score=score
                    )
                )
        return result

    def _observations(
        self, video: VideoMeta, truth: GroundTruth, label: str
    ) -> dict[int, list[tuple[int, float]]]:
        key = (video.video_id, label)
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        accuracy = self._profile.accuracy_for(label)
        rng = derive_rng(self._seed, "tracker", self.name, video.video_id, label)
        n = video.usable_frames
        by_frame: dict[int, list[tuple[int, float]]] = {}
        next_track_id = 1

        for instance_spans in truth.object_instances(label):
            for episode in instance_spans:
                start = max(0, episode.start)
                end = min(n - 1, episode.end)
                if end < start:
                    continue
                length = end - start + 1
                if accuracy.tpr >= 1.0:
                    firing = np.ones(length, dtype=bool)
                else:
                    firing = alternating_indicator(
                        rng, length, accuracy.tpr, accuracy.burst_on
                    )
                scores = conditional_scores(
                    rng,
                    firing,
                    np.ones(length, dtype=bool),
                    self._profile.threshold,
                    self._profile.score_sharpness,
                )
                track_id = next_track_id
                next_track_id += 1
                switch_at = -1
                if length > 2 and rng.random() < self._id_switch_rate:
                    switch_at = int(rng.integers(1, length))
                for offset in range(length):
                    if offset == switch_at:
                        track_id = next_track_id
                        next_track_id += 1
                    if firing[offset]:
                        by_frame.setdefault(start + offset, []).append(
                            (track_id, float(scores[offset]))
                        )

        if accuracy.fpr > 0.0:
            alarms = alternating_indicator(rng, n, accuracy.fpr, accuracy.burst_off)
            scores = conditional_scores(
                rng,
                alarms,
                np.zeros(n, dtype=bool),
                self._profile.threshold,
                self._profile.score_sharpness,
            )
            in_alarm = False
            for frame in range(n):
                if alarms[frame]:
                    if not in_alarm:
                        track_id = next_track_id
                        next_track_id += 1
                        in_alarm = True
                    by_frame.setdefault(frame, []).append(
                        (track_id, float(scores[frame]))
                    )
                else:
                    in_alarm = False

        if truth.outage_frames:
            for frame in list(by_frame):
                if frame in truth.outage_frames:
                    del by_frame[frame]

        self._cache[key] = by_frame
        return by_frame
