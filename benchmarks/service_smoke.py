#!/usr/bin/env python
"""Service smoke: the full streaming-service lifecycle in one process.

Drives :class:`repro.service.QueryService` through everything the service
layer promises, end to end: two video streams, four standing queries from
one tenant, incremental result push, one mid-stream cancellation, then a
snapshot → JSON → resume migration onto a fresh service (new zoo objects)
that finishes the runs.  Assertions, not timings, are the product:

* every query's incremental pushes — across *both* processes — reassemble
  into exactly its final result (nothing lost, nothing doubled by the
  migration);
* completed queries are result-identical to the batch
  :func:`~repro.core.scheduler.run_fleet` reference (the
  ``run_queries`` path) on the same specs;
* the snapshotted source service is frozen and refuses to step;
* admission slots drain back to zero when the streams end.

``--fault-profile chaos`` reruns the same choreography on a fault-injected
zoo: equality against the batch reference no longer holds (fault injection
is call-order dependent and the resumed process re-seeds its RNG), so the
chaos leg asserts the order-independent invariants — no crashes, pushes
still reassemble into finals, and the retry/degraded accounting is
reported.

Writes ``BENCH_service_smoke.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.config import OnlineConfig  # noqa: E402
from repro.core.query import Query  # noqa: E402
from repro.core.scheduler import QuerySpec, run_fleet  # noqa: E402
from repro.detectors.zoo import default_zoo  # noqa: E402
from repro.errors import ConfigurationError  # noqa: E402
from repro.service import QueryService, ServiceClient  # noqa: E402
from repro.service.service import EVENT_FINAL  # noqa: E402
from repro.video.synthesis import (  # noqa: E402
    SceneSpec,
    TrackSpec,
    synthesize_video,
)

ACTION = "crossing"
TENANT = "smoke"

#: (stream, spec) — four standing queries across two streams; one svaq
#: session rides along so the chunked static path is exercised too.
def build_workload(seed: int):
    def scene(video_id: str, duration_s: float, seed: int):
        tracks = [
            TrackSpec(label=ACTION, kind="action",
                      occupancy=0.2, mean_duration_s=15.0),
            TrackSpec(label="car", kind="object", occupancy=0.15,
                      mean_duration_s=8.0, correlate_with=ACTION,
                      correlation=0.85),
            TrackSpec(label="person", kind="object", occupancy=0.25,
                      mean_duration_s=10.0),
        ]
        return synthesize_video(
            SceneSpec(video_id=video_id, duration_s=duration_s,
                      tracks=tuple(tracks)),
            seed=seed,
        )

    videos = {
        "north": scene("north", 240.0, seed),
        "south": scene("south", 180.0, seed + 1),
    }
    specs = [
        ("north", QuerySpec("cars", Query(objects=["car"], action=ACTION))),
        ("north", QuerySpec("both", Query(objects=["car", "person"],
                                          action=ACTION))),
        ("north", QuerySpec("cut", Query(objects=["person"], action=ACTION),
                            algorithm="svaq")),
        ("south", QuerySpec("cars", Query(objects=["car"], action=ACTION))),
    ]
    return videos, specs


def build_zoo(profile_name: str, seed: int):
    zoo = default_zoo(seed=3)
    if profile_name == "none":
        return zoo
    from repro.detectors.faults import fault_profile, faulty_zoo

    return faulty_zoo(zoo, fault_profile(profile_name).with_seed(seed))


def build_config(profile_name: str) -> OnlineConfig:
    if profile_name == "none":
        return OnlineConfig()
    return OnlineConfig(
        cache_detections=False,
        retry_max_attempts=4,
        failure_policy="hold_last_estimate",
    )


def drain(queues):
    """Pop every pending event; returns {key: [events]}."""
    out = {}
    for key, queue in queues.items():
        events = out.setdefault(key, [])
        while not queue.empty():
            events.append(queue.get_nowait())
    return out


def run_smoke(profile_name: str, seed: int, out: Path) -> int:
    videos, specs = build_workload(seed)
    config = build_config(profile_name)
    t0 = time.perf_counter()

    service = QueryService(
        build_zoo(profile_name, seed), config, clip_batch=4
    )
    for name, video in videos.items():
        service.add_stream(name, video)
    client = ServiceClient(service, tenant=TENANT)
    queues = {}
    for stream, spec in specs:
        client.register(stream, spec)
        queues[(stream, spec.name)] = client.subscribe(stream, spec.name)

    # Phase 1: advance both streams, then cancel one query mid-stream.
    for _ in range(2):
        for stream in service.streams():
            service.step(stream)
    cancelled = client.cancel("north", "cut")
    service.step("north")
    pushed = {
        key: [e.interval for e in events if e.interval is not None]
        for key, events in drain(queues).items()
    }

    # Phase 2: migrate — one JSON bundle into a fresh service + zoo.
    bundle = json.loads(json.dumps(service.snapshot().to_dict()))
    try:
        service.step("north")
        raise AssertionError("snapshotted service still stepped")
    except ConfigurationError:
        pass
    resumed = QueryService.resume(
        bundle, videos, build_zoo(profile_name, seed + 7), config,
        clip_batch=4,
    )
    client.rebind(resumed)
    for stream, spec in specs:
        if spec.name in resumed.live(stream):
            queues[(stream, spec.name)] = client.subscribe(
                stream, spec.name
            )
    asyncio.run(resumed.serve())
    finals = {}
    for key, events in drain(queues).items():
        pushed[key].extend(
            e.interval for e in events if e.interval is not None
        )
        for event in events:
            if event.kind == EVENT_FINAL:
                finals[key] = event.result
    finals[("north", "cut")] = cancelled
    wall = time.perf_counter() - t0

    # Invariant 1: pushes across both processes == each final result.
    for key, result in finals.items():
        got = [(iv.start, iv.end) for iv in pushed[key]]
        assert got == result.sequences.as_tuples(), (
            f"{key}: pushed {got} != final {result.sequences.as_tuples()}"
        )
    # Invariant 2 (clean leg): completed queries match the batch path.
    if profile_name == "none":
        for stream in videos:
            stream_specs = [s for st, s in specs if st == stream
                            and s.name != "cut"]
            reference = run_fleet(
                default_zoo(seed=3), videos[stream], config, stream_specs
            )
            for spec in stream_specs:
                assert finals[(stream, spec.name)].sequences == (
                    reference[spec.name].sequences
                ), f"{stream}/{spec.name} diverged from run_queries"
    # Invariant 3: every slot was returned.
    usage = resumed.admission.usage()[TENANT]
    assert usage["live_queries"] == 0, usage

    health = resumed.health()
    totals = health["totals"]
    print(
        f"service smoke [{profile_name}]: {len(specs)} queries on "
        f"{len(videos)} streams  cancelled=1  migrated=1  "
        f"retries={totals['model_retries']}  "
        f"giveups={totals['model_giveups']}  "
        f"degraded={totals['sequences_degraded']}  wall={wall:.2f}s"
    )
    payload = {
        "benchmark": "service_smoke",
        "fault_profile": profile_name,
        "n_streams": len(videos),
        "n_queries": len(specs),
        "cancelled": 1,
        "bundle_version": bundle["version"],
        "model_retries": totals["model_retries"],
        "model_giveups": totals["model_giveups"],
        "sequences_degraded": totals["sequences_degraded"],
        "units_used": usage["units_used"],
        "wall_s": round(wall, 6),
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--fault-profile", default="none",
        help="inject faults from this profile (none, transient, flaky, "
             "chaos); equality vs the batch path is asserted only on none",
    )
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_service_smoke.json",
    )
    args = parser.parse_args(argv)
    return run_smoke(args.fault_profile, args.seed, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
