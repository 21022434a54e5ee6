"""``ingest`` workload: synthesized video → ``ingest_many`` → format-3 save.

Batch, one process, serial executor.  The corpus is the 12 Table-1
YouTube sets plus the 4 Table-2 movies, synthesized from the seed, and
every video is ingested over the full deployed vocabulary
(``object_vocabulary() ∪ action_vocabulary()``, 37 labels) before the
repository is saved in format 3.  Ingest cost scales with labels × clips
and runs per-label SVAQD plus the tracker; RVAQ and the service do no
work here.

``ingest_many`` is called once per video, so each video's latency is
observable; with the serial executor that is the same per-video loop a
single call over the whole corpus runs.  Whole passes repeat, each on a
fresh zoo, for ``--seconds``.  Every video and the save keep their
fastest pass (best-of-passes, as ``timeit`` does: co-tenant load on a
shared host only ever adds time), and the metrics come from those best
times: throughput is the corpus's clips over its best pass, and the
latency is the median over videos of a video's best ingest time per
clip (video lengths vary with the seed).
"""

from __future__ import annotations

import random
import shutil
import statistics
import time
from pathlib import Path
from typing import Any

import numpy as np

import repro.storage.ingest as ingest_mod
from repro.core.config import OnlineConfig
from repro.core.query import Query
from repro.core.svaqd import SVAQD
from repro.detectors.zoo import default_zoo
from repro.eval.metrics import MatchReport, match_sequences
from repro.storage.repository import VideoRepository
from repro.utils.intervals import intersect_all
from repro.video.datasets import (
    MOVIES,
    YOUTUBE_QUERY_SETS,
    action_vocabulary,
    build_movie,
    build_youtube_set,
    object_vocabulary,
)

from common import (
    WORK_DIR,
    Outcome,
    gate,
    layer_report,
    meter_layers,
    peak_rss_mb,
    percentile,
    timed_setups,
)
from tracing import Tracer

#: Corpus scale (share of each Table-1/2 entry's minutes): about 1.1k
#: clips in 16-20 videos, 2-3 s a pass on a 2-core x86 box.
SCALE = 0.02
#: Passes a run makes at least, so every video has a best of several.
MIN_PASSES = 3
#: Set-ups per run (synthesis only takes tens of ms, so many).
SETUP_REPEATS = 25
#: (video, label) pairs re-run through a standalone SVAQD by the gate.
SVAQD_SAMPLE = 24

OBJECTS = tuple(sorted(object_vocabulary()))
ACTIONS = tuple(sorted(action_vocabulary()))


def build_corpus(seed: int, scale: float) -> list[tuple[Query, tuple[Any, ...]]]:
    """The Table-1 sets and Table-2 movies as (query, videos) pairs."""
    corpus = [
        (spec.query, build_youtube_set(spec, seed=seed, scale=scale).videos)
        for spec in YOUTUBE_QUERY_SETS
    ]
    corpus.extend(
        (movie.query, (build_movie(movie, seed=seed, scale=scale),))
        for movie in MOVIES
    )
    return corpus


def table_query_f1(
    repo: VideoRepository, corpus: list[tuple[Query, tuple[Any, ...]]]
) -> float:
    """Pooled sequence F1 of each Table-1/2 query's ``P_q`` (Eq. 12 over
    the repository's individual sequences) against the ground truth."""
    total = MatchReport(0, 0, 0)
    for query, videos in corpus:
        for video in videos:
            ingest = repo.ingest_of(video.video_id)
            found = intersect_all(
                [ingest.sequences_for(label)
                 for label in (*query.actions, *query.objects)]
            )
            truth = video.truth.query_clips(
                query.objects, query.actions[0], video.meta.geometry
            )
            total = total + match_sequences(found, truth)
    return total.f1


def ingest_pass(
    videos: list[Any], seed: int, out_dir: Path
) -> tuple[VideoRepository, list[float], int, float, float, Any]:
    """Ingest every video on a fresh zoo and save the repository.

    Returns the in-memory repository, per-video latencies in ms (``inf``
    for a failed video), the failure count, the save's ms, the pass wall
    time in s and the zoo.
    """
    zoo = default_zoo(seed=seed)
    repo = VideoRepository()
    latencies: list[float] = []
    failed = 0
    start = time.perf_counter()
    for video in videos:
        t0 = time.perf_counter()
        (outcome,) = ingest_mod.ingest_many(
            [video], zoo, OBJECTS, ACTIONS, on_error="capture"
        )
        if outcome.ok:
            latencies.append((time.perf_counter() - t0) * 1000.0)
            repo.add(outcome.ingest)
        else:
            latencies.append(float("inf"))
            failed += 1
    t0 = time.perf_counter()
    repo.save(out_dir, format=3)
    save_ms = (time.perf_counter() - t0) * 1000.0
    return (repo, latencies, failed, save_ms, time.perf_counter() - start,
            zoo)


def check(
    repo: VideoRepository, saved: Path, videos: list[Any], seed: int
) -> VideoRepository:
    """Correctness gates; returns the loaded repository."""
    loaded = VideoRepository.load(saved)
    gate(loaded.video_ids == repo.video_ids, "saved video order differs")
    for video_id in repo.video_ids:
        mine, theirs = repo.ingest_of(video_id), loaded.ingest_of(video_id)
        gate(mine.n_clips == theirs.n_clips, f"{video_id}: clip count differs")
        gate(mine.labels == theirs.labels, f"{video_id}: label set differs")
        for label in mine.labels:
            for a, b in zip(
                mine.table_for(label).export_columns(),
                theirs.table_for(label).export_columns(),
            ):
                gate(np.array_equal(a, b),
                     f"{video_id}/{label}: saved table rows differ")
            gate(mine.sequences_for(label) == theirs.sequences_for(label),
                 f"{video_id}/{label}: saved sequences differ")
    rng = random.Random(seed)
    by_id = {video.video_id: video for video in videos}
    pairs = [(vid, label) for vid in repo.video_ids
             for label in OBJECTS + ACTIONS]
    config = OnlineConfig()
    for video_id, label in rng.sample(pairs, min(SVAQD_SAMPLE, len(pairs))):
        query = (Query(objects=[label]) if label in OBJECTS
                 else Query(actions=[label]))
        solo = SVAQD(default_zoo(seed=seed), query, config).run(by_id[video_id])
        gate(solo.sequences == loaded.ingest_of(video_id).sequences_for(label),
             f"{video_id}/{label}: ingested sequences differ from a "
             "standalone SVAQD run")
    return loaded


def run(seed: int, seconds: float, trace: bool, scale: float = 1.0) -> Outcome:
    corpus, setup_times = timed_setups(
        lambda: build_corpus(seed, SCALE * scale), SETUP_REPEATS
    )
    setup_s = statistics.median(setup_times)
    videos = [video for _, group in corpus for video in group]
    clips = sum(video.meta.n_clips for video in videos)
    out_dir = WORK_DIR / f"ingest-{seed}"

    # Passes run back to back while another one still fits in
    # ``seconds``; each video and the save keep their fastest pass.
    best = [float("inf")] * len(videos)
    best_save = float("inf")
    walls: list[float] = []
    failed = 0
    while True:
        repo = zoo = None  # free the previous pass before the next one
        repo, lat, fail, save_ms, wall, zoo = ingest_pass(
            videos, seed, out_dir
        )
        best = [min(a, b) for a, b in zip(best, lat)]
        best_save = min(best_save, save_ms)
        walls.append(wall)
        failed += fail
        if len(walls) >= MIN_PASSES and sum(walls) + wall > seconds:
            break
    rss = peak_rss_mb()

    layers: dict[str, float] = {}
    if trace:
        # The overhead's base is the fastest untraced pass; the traced
        # pass runs last, so the gates below check its save.
        reference_wall = min(walls)
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("bench.ingest") as root:
                *_, traced_wall, traced_zoo = ingest_pass(
                    videos, seed, out_dir
                )
        finally:
            tracer.uninstall()
        bytes_saved = sum(p.stat().st_size for p in out_dir.iterdir())
        derived = meter_layers(traced_zoo.cost_meter, clips)
        derived["storage.save.bytes_per_clip_label"] = bytes_saved / (
            clips * (len(OBJECTS) + len(ACTIONS))
        )
        derived["trace.overhead"] = traced_wall / reference_wall
        layers = layer_report(tracer, root, derived)
        tracer.dump(WORK_DIR / "traces" / f"ingest-{seed}.npz")

    loaded = check(repo, out_dir, videos, seed)
    f1 = table_query_f1(loaded, corpus)
    shutil.rmtree(out_dir, ignore_errors=True)

    ok = [i for i, ms in enumerate(best) if ms != float("inf")]
    best_pass_ms = sum(best[i] for i in ok) + best_save
    throughput = sum(videos[i].meta.n_clips for i in ok) / best_pass_ms * 1000.0
    per_clip = [best[i] / videos[i].meta.n_clips for i in ok]
    per_clip += [float("inf")] * (len(videos) - len(ok))
    p50, p90, p99 = (percentile(per_clip, q) for q in (50, 90, 99))
    model_ms = zoo.cost_meter.ms() / clips
    return Outcome(
        end_to_end={
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "throughput_per_s": throughput,
            "latency_p50_ms": p50,
        },
        named={
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss, "MB"),
            "failed_share": (failed / (len(videos) * len(walls)),
                             "failed/attempted"),
            "ingest_clips_per_s": (throughput, "clips/s"),
            "ingest_pass_ms": (best_pass_ms, "ms"),
            "model_ms_per_clip": (model_ms, "ms/clip"),
            "video_ingest_p50_ms": (p50, "ms/clip"),
            "video_ingest_p90_ms": (p90, "ms/clip"),
            "video_ingest_p99_ms": (p99, "ms/clip"),
            "table_query_f1": (f1, "F1"),
            "corpus": (float(clips), f"clips in {len(videos)} videos x "
                       f"{len(OBJECTS) + len(ACTIONS)} labels"),
            "passes": (float(len(walls)), "passes"),
        },
        attempted=len(videos) * len(walls),
        failed=failed,
        layers=layers,
    )
