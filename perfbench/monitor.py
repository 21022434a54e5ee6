"""``monitor`` workload: ``QueryService`` with subscriber coroutines.

Open loop.  A :class:`~repro.service.QueryService` runs the 4 Table-2
movie streams, each with a fleet of 16 standing queries over overlapping
labels, mixing SVAQ and SVAQD, spread over 4 tenants under
``AdmissionController`` quotas.  Clips are admitted on a fixed schedule
at a fixed aggregate rate below the service's capacity; a clip is
admitted only once it is due.  The same schedule carries mid-stream
register/cancel calls and ``health()`` polls; some registrations exceed
a tenant's quota, so the refusal path runs.

Choices the schedule rests on:

* ``clip_batch=1``: each clip is processed as soon as it is due.  A batch
  of B would hold the first clip of every batch back for B-1 arrivals,
  adding that wait to every emit latency.
* Stream starts are staggered by ``STAGGER_S``: cameras come online at
  different times, and the cache-materialisation stall every stream pays
  at its clip 0 and at each cache-chunk boundary would otherwise land on
  the same instant for all four streams, so the tail would measure the
  streams' alignment rather than the service.

Emit latency runs from the due time of the clip (or cancel call) whose
processing closed a sequence to a subscriber dequeuing its event, so a
stall's cost to every later clip is counted.

The schedule has a fixed length and runs as whole passes, each on a
fresh service, for ``--seconds``.  Every pass does the same operations
in the same order, so each clip's step and each emitted event keep their
fastest pass (best-of-passes, as ``timeit`` does: co-tenant load on a
shared host only ever adds time).  Capacity is the clips of a pass over
their summed best step times; the latency is the median over events of
their best emit latencies.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.config import OnlineConfig
from repro.core.query import Query
from repro.core.scheduler import QuerySpec
from repro.core.session import StreamSession
from repro.detectors.zoo import default_zoo
from repro.errors import AdmissionError
from repro.eval.metrics import MatchReport, match_sequences
from repro.service import AdmissionController, QueryService, TenantQuota
from repro.service.service import EVENT_FINAL
from repro.video.datasets import DISTRACTOR_OBJECTS, MOVIES, build_movie
from repro.video.stream import ClipStream

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

#: Offered aggregate admission rate while all streams run (clips/s):
#: about 20% of the service's capacity, so the latency median and the
#: throughput do not swing with queueing behind stalls.
RATE = 300.0
#: Start offset between consecutive streams (s).
STAGGER_S = 0.25
#: Span of one pass's clip schedule per stream (s); the movie scale is
#: chosen so the schedule offers ``RATE`` clips/s for this whole span.
PASS_SPAN_S = 3.5
#: Passes a run makes at least, so every operation has a best of several.
MIN_PASSES = 3
#: Clips of the 4 movies at scale 1.0.
FULL_SCALE_CLIPS = 16500
TENANTS = ("t0", "t1", "t2", "t3")
#: Each tenant holds 16 standing queries at the start, one slot spare.
MAX_CONCURRENT = 17
HEALTH_EVERY_S = 0.5
#: Set-ups before each pass (tens of ms each); the pass takes the last.
#: Spread over the run, they sample the same machine states as the passes.
SETUP_REPEATS = 3

CLIP, REGISTER, CANCEL, HEALTH = "clip", "register", "cancel", "health"


def fleet_templates(movie: Any) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """(actions, objects) of one stream's standing queries.

    Half watch the movie's action, half watch objects alone: sequences of
    action queries all close at the ends of the few action episodes, so
    object-only queries spread the emit events over the stream.
    """
    a = (movie.action,)
    o1, o2 = movie.objects
    return [
        (a, ()), (a, (o1,)), (a, (o2,)), (a, ("person",)),
        ((), ("person",)), ((), (o1,)), ((), (o2,)),
        ((), (DISTRACTOR_OBJECTS[0],)),
    ]


def make_query(labels: tuple[tuple[str, ...], tuple[str, ...]]) -> Query:
    actions, objects = labels
    return Query(actions=list(actions), objects=list(objects))


@dataclass
class Recorder:
    """What the open-loop driver and the subscribers observe."""

    closing_due: dict[str, float] = field(default_factory=dict)
    #: (stream, query, event index) or ("refused", stream, query) -> emit
    #: latency in ms (``inf`` for a refused registration).
    emits: dict[tuple[str, str, Any], float] = field(default_factory=dict)
    #: Time inside each ``QueryService.step``, in schedule order (ms).
    step_ms: list[float] = field(default_factory=list)
    pushed: dict[tuple[str, str], list[Any]] = field(default_factory=dict)
    finals: dict[tuple[str, str], Any] = field(default_factory=dict)
    lags: list[float] = field(default_factory=list)
    backlog_max: int = 0
    step_s: float = 0.0
    clips: int = 0
    refused: int = 0
    control_ops: int = 0
    #: (stream, query) -> (spec, tenant, first clip, end clip or None)
    spans: dict[tuple[str, str], list[Any]] = field(default_factory=dict)


@dataclass
class Setup:
    service: QueryService
    zoo: Any
    videos: dict[str, Any]
    schedule: list[tuple[float, int, str, Any]]
    recorder: Recorder
    queues: list[tuple[str, str, Any]]


def build(seed: int, scale: float) -> Setup:
    """Set-up: movies, service, streams, the initial fleet, the schedule."""
    span_s = PASS_SPAN_S * scale
    movie_scale = RATE * span_s / FULL_SCALE_CLIPS
    videos = {
        movie.video_id: build_movie(movie, seed=seed, scale=movie_scale)
        for movie in MOVIES
    }
    zoo = default_zoo(seed=seed)
    service = QueryService(
        zoo, OnlineConfig(),
        admission=AdmissionController(TenantQuota(max_concurrent=MAX_CONCURRENT)),
        clip_batch=1,
    )
    recorder = Recorder()
    queues = []
    for s, movie in enumerate(MOVIES):
        stream = movie.video_id
        service.add_stream(stream, videos[stream])
        for i, labels in enumerate(fleet_templates(movie)):
            for algorithm in ("svaq", "svaqd"):
                n = len(queues)
                spec = QuerySpec(f"{algorithm}-{i}", make_query(labels),
                                 algorithm=algorithm)
                tenant = TENANTS[n % len(TENANTS)]
                name = service.register(stream, spec, tenant=tenant)
                recorder.spans[(stream, name)] = [spec, tenant, 0, None]
                queues.append((stream, name, service.subscribe(stream, name)))
    schedule = make_schedule(seed, videos, span_s)
    return Setup(service, zoo, videos, schedule, recorder, queues)


def make_schedule(
    seed: int, videos: dict[str, Any], span_s: float
) -> list[tuple[float, int, str, Any]]:
    """(due offset s, tie-break, op, argument), sorted by due time.

    Stream s starts at ``s * STAGGER_S`` and admits its clips at
    ``n_s / span_s`` clips/s, so the aggregate rate is ``RATE`` while all
    streams run.  Control calls land at fixed shares of the span.
    """
    rng = random.Random(seed)
    entries: list[tuple[float, int, str, Any]] = []
    streams = list(videos)
    for s, stream in enumerate(streams):
        n = videos[stream].meta.n_clips
        start = s * STAGGER_S
        entries += [(start + i * span_s / n, 0, CLIP, stream) for i in range(n)]
    end = span_s + STAGGER_S * (len(streams) - 1)
    t = HEALTH_EVERY_S
    while t < end:
        entries.append((t, 1, HEALTH, None))
        t += HEALTH_EVERY_S
    # Registrations: two per stream at 20% and one at 50%, from tenants
    # that already hold 16 queries, so some exceed the quota and are
    # refused; the 35% cancels free a seeded tenant's slot, and the 65%
    # cancels retire the stream's first admitted churn query, if any.
    for s, stream in enumerate(streams):
        movie = MOVIES[s]
        o1, o2 = movie.objects
        picks = [((movie.action,), (o1, "person")), ((), (o2, o1)),
                 ((), (DISTRACTOR_OBJECTS[1],))]
        for j, (share, labels) in enumerate(((0.2, picks[0]), (0.2, picks[1]),
                                             (0.5, picks[2]))):
            tenant = TENANTS[(s + (j % 2)) % len(TENANTS)]
            algorithm = "svaqd" if (s + j) % 2 else "svaq"
            spec = QuerySpec(f"churn-{j}", make_query(labels), algorithm=algorithm)
            entries.append((share * span_s, 2, REGISTER, (stream, spec, tenant)))
        victim = f"{rng.choice(('svaq', 'svaqd'))}-{rng.randrange(8)}"
        entries.append((0.35 * span_s, 3, CANCEL, (stream, victim)))
        entries.append((0.65 * span_s, 3, CANCEL, (stream, None)))
    entries.sort(key=lambda e: (e[0], e[1]))
    return entries


def _untraced(name: str) -> contextlib.nullcontext[None]:
    return contextlib.nullcontext()


async def subscriber(rec: Recorder, stream: str, name: str, queue: Any,
                     span: Callable[[str], Any]) -> None:
    pushed = rec.pushed.setdefault((stream, name), [])
    while True:
        event = await queue.get()
        now = time.perf_counter()
        with span("bench.deliver"):
            if event.kind == EVENT_FINAL:
                rec.finals[(stream, name)] = event.result
                return
            rec.emits[(stream, name, len(pushed))] = (
                (now - rec.closing_due[stream]) * 1000.0)
            pushed.append(event.interval)


async def drive(setup: Setup, tracer: Tracer | None) -> float:
    """Run the schedule open loop; returns the wall time."""
    service, rec = setup.service, setup.recorder
    span = tracer.span if tracer else _untraced
    tasks = [
        asyncio.create_task(subscriber(rec, stream, name, queue, span))
        for stream, name, queue in setup.queues
    ]
    dues = [entry[0] for entry in setup.schedule]
    start = time.perf_counter()
    for i, (offset, _, op, arg) in enumerate(setup.schedule):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            with span("bench.idle"):
                await asyncio.sleep(delay)
        if op == CANCEL and arg[1] is None:
            churn = [q for q in service.live(arg[0]) if q.startswith("churn-")]
            if not churn:
                continue
            arg = (arg[0], churn[0])
        now = time.perf_counter()
        rec.lags.append((now - due) * 1000.0)
        rec.backlog_max = max(
            rec.backlog_max, bisect.bisect_right(dues, now - start) - i - 1
        )
        with span("bench.op"):
            if op == CLIP:
                rec.closing_due[arg] = due
                t0 = time.perf_counter()
                service.step(arg)
                elapsed = time.perf_counter() - t0
                rec.step_s += elapsed
                rec.step_ms.append(elapsed * 1000.0)
                rec.clips += 1
            elif op == HEALTH:
                rec.control_ops += 1
                service.health()
            elif op == REGISTER:
                stream, spec, tenant = arg
                rec.control_ops += 1
                first = service.position(stream)
                try:
                    name = service.register(stream, spec, tenant=tenant)
                except AdmissionError:
                    rec.refused += 1
                    rec.emits[("refused", stream, spec.name)] = float("inf")
                else:
                    rec.spans[(stream, name)] = [spec, tenant, first, None]
                    queue = service.subscribe(stream, name)
                    tasks.append(asyncio.create_task(
                        subscriber(rec, stream, name, queue, span)))
            else:  # CANCEL
                stream, name = arg
                rec.control_ops += 1
                rec.closing_due[stream] = due
                rec.spans[(stream, name)][3] = service.position(stream)
                service.cancel(stream, name)
        await asyncio.sleep(0)
    await asyncio.gather(*tasks)
    return time.perf_counter() - start


def check(setup: Setup, seed: int) -> None:
    """Correctness gates over every query the run admitted."""
    rec = setup.recorder
    config = OnlineConfig()
    reference = default_zoo(seed=seed)
    for key, (spec, _, first, end) in rec.spans.items():
        stream, name = key
        gate(key in rec.finals, f"{stream}/{name}: no final event")
        final = rec.finals[key].sequences
        gate(rec.pushed.get(key, []) == list(final),
             f"{stream}/{name}: pushed sequences differ from the final result")
        video = setup.videos[stream]
        session = StreamSession.for_query(
            reference, spec.query, video, config,
            dynamic=spec.algorithm == "svaqd",
        )
        for clip in ClipStream(video.meta, start_clip=first, stop_clip=end):
            session.process(clip)
        gate(session.finish().sequences == final,
             f"{stream}/{name}: differs from a standalone "
             f"{spec.algorithm} run over clips [{first}, {end})")
    fleet, solo = setup.zoo.cost_meter, reference.cost_meter
    for model in (reference.detector.name, reference.recognizer.name):
        gate(fleet.units(model) + fleet.cached_units(model)
             == solo.units(model) + solo.cached_units(model),
             f"{model}: fresh plus cached units not conserved")


def steady_f1(setup: Setup) -> float:
    """Pooled F1 of the action queries that watched a whole stream."""
    total = MatchReport(0, 0, 0)
    for (stream, _), (spec, _, first, end) in setup.recorder.spans.items():
        query = spec.query
        if first != 0 or end is not None or not query.actions:
            continue
        video = setup.videos[stream]
        truth = video.truth.query_clips(
            query.objects, query.actions[0], video.meta.geometry
        )
        final = setup.recorder.finals[(stream, spec.name)].sequences
        total = total + match_sequences(final, truth)
    return total.f1


def same_results(a: Recorder, b: Recorder) -> bool:
    """Whether two passes did the same operations and emitted the same."""
    return (a.pushed == b.pushed and a.emits.keys() == b.emits.keys()
            and len(a.step_ms) == len(b.step_ms)
            and {k: v.sequences for k, v in a.finals.items()}
            == {k: v.sequences for k, v in b.finals.items()})


def run(seed: int, seconds: float, trace: bool, scale: float = 1.0) -> Outcome:
    first, setup_times = timed_setups(lambda: build(seed, scale), SETUP_REPEATS)
    # Each pass's results are folded in and dropped, so memory does not
    # grow with the number of passes; the first pass is kept for the gates.
    setup = first
    best_step: list[float] = []
    best_emit: dict[tuple[str, str, Any], float] = {}
    walls: list[float] = []
    step_s: list[float] = []
    lags: list[float] = []
    backlog_max = attempted = failed = 0
    start = time.perf_counter()
    while True:
        if walls:
            setup, times = timed_setups(lambda: build(seed, scale),
                                        SETUP_REPEATS)
            setup_times += times
        walls.append(asyncio.run(drive(setup, None)))
        r = setup.recorder
        gate(same_results(r, first.recorder),
             f"pass {len(walls)} emitted different results")
        best_step = ([min(a, b) for a, b in zip(best_step, r.step_ms)]
                     if best_step else list(r.step_ms))
        for key, ms in r.emits.items():
            best_emit[key] = min(best_emit.get(key, ms), ms)
        step_s.append(r.step_s)
        lags += r.lags
        backlog_max = max(backlog_max, r.backlog_max)
        attempted += r.clips + r.control_ops
        failed += r.refused
        if len(walls) >= MIN_PASSES and (
                time.perf_counter() - start + walls[-1] > seconds):
            break
    rss = peak_rss_mb()
    rec = first.recorder
    setup_s = statistics.median(setup_times)

    layers: dict[str, float] = {}
    if trace:
        traced = build(seed, scale)
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("bench.monitor") as root:
                asyncio.run(drive(traced, tracer))
        finally:
            tracer.uninstall()
        trec = traced.recorder
        gate(same_results(trec, rec), "traced run emitted different results")
        derived = meter_layers(traced.zoo.cost_meter, trec.clips)
        derived.update({
            "service.busy_share": trec.step_s / (tracer.end[root] - tracer.start[root]),
            "service.admission.refused": float(trec.refused),
            "service.backlog.max": float(trec.backlog_max),
            "service.generator_lag_p99_ms": percentile(trec.lags, 99),
            # Open loop: wall time is fixed by the schedule, so the
            # overhead compares time spent inside the service instead.
            "trace.overhead": trec.step_s / statistics.median(step_s),
        })
        layers = layer_report(tracer, root, derived)
        tracer.dump(WORK_DIR / "traces" / f"monitor-{seed}.npz")

    check(first, seed)
    f1 = steady_f1(first)
    capacity = len(best_step) / sum(best_step) * 1000.0
    p50, p90, p99 = (percentile(list(best_emit.values()), q)
                     for q in (50, 90, 99))
    meter = first.zoo.cost_meter
    return Outcome(
        end_to_end={
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "throughput_per_s": capacity,
            "latency_p50_ms": p50,
        },
        named={
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss, "MB"),
            "failed_share": (failed / attempted, "failed/attempted"),
            "capacity_clips_per_s": (capacity, "clips/s in step"),
            "model_ms_per_clip": (meter.ms() / rec.clips, "ms/clip"),
            "emit_p50_ms": (p50, "ms"),
            "emit_p90_ms": (p90, "ms"),
            "emit_p99_ms": (p99, "ms"),
            "sequence_f1": (f1, "F1"),
            "emitted": (float(len(rec.emits) - rec.refused),
                        "sequence events a pass"),
            "offered": (float(rec.clips), f"clips a pass at {RATE:g} clips/s, "
                        f"clip_batch=1, stagger {STAGGER_S:g} s"),
            "passes": (float(len(walls)), "passes"),
            "generator_lag_p99_ms": (percentile(lags, 99), "ms"),
            "backlog_max": (float(backlog_max), "ops"),
            "busy_share": (sum(step_s) / sum(walls), "share"),
        },
        attempted=attempted,
        failed=failed,
        layers=layers,
    )
