"""Simulated object tracker (the CenterTrack stand-in).

The offline ranking function ``h`` (Eq. 7) aggregates *per-track-instance*
scores ``S_o^t(v)``: a clip where two cars are visible for all 50 frames
should outscore a clip with one car for 10 frames.  The simulated tracker
assigns a stable track id to every ground-truth object instance episode,
fires per frame with the tracker profile's TPR (plus occasional spurious
short tracks at the FPR), and occasionally *switches ids* mid-episode the
way real trackers lose and re-acquire targets.  Observations are synthesised
once per ``(video, label)`` into frame-sorted columns with array ops, so a
per-clip call is a slice.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import GroundTruth, TrackedDetection
from repro.detectors.cost import CostMeter
from repro.detectors.noise import alternating_indicator, conditional_scores
from repro.detectors.profiles import DetectorProfile
from repro.errors import DetectorError
from repro.utils.rng import derive_rng
from repro.video.model import ClipView, VideoMeta


_Columns = tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]


class SimulatedTracker:
    """Implements :class:`repro.detectors.base.ObjectTracker`.

    Track ids are deterministic functions of ``(video, label, instance,
    episode)`` so repeated queries see identical tracks — as they would from
    a frozen tracking model re-run over the same file.
    """

    def __init__(
        self,
        profile: DetectorProfile,
        seed: int = 0,
        vocabulary: frozenset[str] | None = None,
        cost_meter: CostMeter | None = None,
        id_switch_rate: float = 0.05,
    ) -> None:
        if profile.kind != "tracker":
            raise DetectorError(
                f"profile {profile.name!r} is a {profile.kind} profile, "
                "not a tracker profile"
            )
        if not 0.0 <= id_switch_rate <= 1.0:
            raise DetectorError("id_switch_rate must be in [0, 1]")
        self._profile = profile
        self._seed = seed
        self._vocabulary = vocabulary
        self._cost = cost_meter
        self._id_switch_rate = id_switch_rate
        #: (video_id, label, frames_per_clip) -> columns, clip row bounds
        self._cache: dict[tuple[str, str, int], _Columns] = {}

    @property
    def name(self) -> str:
        return self._profile.name

    @property
    def profile(self) -> DetectorProfile:
        return self._profile

    @property
    def vocabulary(self) -> frozenset[str]:
        if self._vocabulary is None:
            raise DetectorError(
                f"{self.name} was built with an open vocabulary; "
                "pass an explicit vocabulary to enumerate it"
            )
        return self._vocabulary

    def supports(self, label: str) -> bool:
        return self._vocabulary is None or label in self._vocabulary

    def tracks_in_clip(
        self, video: VideoMeta, truth: GroundTruth, label: str, clip: ClipView
    ) -> list[TrackedDetection]:
        """All tracked observations of ``label`` inside one clip, ordered by
        frame then track id; charges one inference per clip frame."""
        frame, track_id, score = self._clip_rows(video, truth, label, clip)
        return [
            TrackedDetection(label=label, frame=f, track_id=t, score=s)
            for f, t, s in zip(frame.tolist(), track_id.tolist(), score.tolist())
        ]

    def track_scores_in_clip(
        self, video: VideoMeta, truth: GroundTruth, label: str, clip: ClipView
    ) -> list[float]:
        """The scores of :meth:`tracks_in_clip`, in its order and at its
        charge, without building the records."""
        return self._clip_rows(video, truth, label, clip)[2].tolist()

    def _clip_rows(
        self, video: VideoMeta, truth: GroundTruth, label: str, clip: ClipView
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not self.supports(label):
            raise DetectorError(
                f"label {label!r} outside the vocabulary of {self.name}"
            )
        frame, track_id, score, bounds = self._columns(video, truth, label)
        if self._cost is not None:
            self._cost.record(self.name, len(clip.frames), self._profile.ms_per_unit)
        lo, hi = bounds[clip.clip_id], bounds[clip.clip_id + 1]
        return frame[lo:hi], track_id[lo:hi], score[lo:hi]

    # -- synthesis ------------------------------------------------------------

    def _columns(
        self, video: VideoMeta, truth: GroundTruth, label: str
    ) -> _Columns:
        key = (video.video_id, label, video.geometry.frames_per_clip)
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        accuracy = self._profile.accuracy_for(label)
        rng = derive_rng(self._seed, "tracker", self.name, video.video_id, label)
        n = video.usable_frames

        def draw_scores(firing: np.ndarray, present: bool) -> np.ndarray:
            return conditional_scores(
                rng, firing, np.full(firing.size, present),
                self._profile.threshold, self._profile.score_sharpness,
            )

        # (frame, track_id, score) column pieces, in draw order.
        parts = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))]
        next_track_id = 1

        for instance_spans in truth.object_instances(label):
            for episode in instance_spans:
                start = max(0, episode.start)
                end = min(n - 1, episode.end)
                if end < start:
                    continue
                length = end - start + 1
                firing = alternating_indicator(
                    rng, length, accuracy.tpr, accuracy.burst_on
                )
                episode_scores = draw_scores(firing, True)
                switch_at = -1
                if length > 2 and rng.random() < self._id_switch_rate:
                    switch_at = int(rng.integers(1, length))
                offsets = np.flatnonzero(firing)
                ids = np.full(offsets.size, next_track_id, dtype=np.int64)
                next_track_id += 1
                if switch_at >= 0:
                    ids[offsets >= switch_at] = next_track_id
                    next_track_id += 1
                parts.append((start + offsets, ids, episode_scores[offsets]))

        # Spurious short tracks at the false-positive rate, outside truth:
        # every run of consecutive alarm frames is one fresh track.
        if accuracy.fpr > 0.0:
            alarms = alternating_indicator(rng, n, accuracy.fpr, accuracy.burst_off)
            alarm_scores = draw_scores(alarms, False)
            run_starts = alarms.copy()
            run_starts[1:] &= ~alarms[:-1]
            at = np.flatnonzero(alarms)
            ids = next_track_id - 1 + np.cumsum(run_starts)[at]
            parts.append((at, ids, alarm_scores[at]))

        frame, track_id, score = (np.concatenate(c) for c in zip(*parts))

        order = np.lexsort((track_id, frame))
        # Failure injection: nothing is trackable during a recording outage.
        if truth.outage_frames:
            outage = np.zeros(n, dtype=bool)
            for span in truth.outage_frames:
                outage[span.start : span.end + 1] = True
            order = order[~outage[frame[order]]]
        frame, track_id, score = frame[order], track_id[order], score[order]
        starts = np.arange(video.n_clips + 1) * video.geometry.frames_per_clip
        columns = (frame, track_id, score, np.searchsorted(frame, starts).tolist())
        self._cache[key] = columns
        return columns

    def cache_clear(self) -> None:
        self._cache.clear()
