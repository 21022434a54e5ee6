"""A single query is a fleet of one.

``SVAQ.run``, ``SVAQD.run`` and ``OnlineEngine.run`` all drive a
one-member :class:`~repro.core.scheduler.FleetRun` through
:func:`~repro.core.scheduler.run_fleet`.  Each must reproduce a
hand-driven standalone :class:`~repro.core.session.StreamSession`
exactly: sequences, per-clip evaluations, final rates, the critical-value
trace, the cost meter and every execution counter.

One documented exception: a clean (fault-free) SVAQD member rides the
fleet's shared rate book, whose bucket-skip fast path counts the label
refreshes it skips on the book rather than on the member.  So
``refresh_skipped`` on that member's own ``result.stats`` is smaller than
the standalone session's; the caller's context — what ``--stats`` prints —
receives the book's share at finish and matches the standalone total.
"""

from __future__ import annotations

import pytest

from repro.core.config import OnlineConfig
from repro.core.context import ExecutionContext
from repro.core.engine import OnlineEngine
from repro.core.query import CompoundQuery, Query
from repro.core.session import StreamSession
from repro.core.svaq import SVAQ
from repro.core.svaqd import SVAQD
from repro.detectors.faults import faulty_zoo
from repro.detectors.zoo import default_zoo
from repro.video.stream import ClipStream
from tests.conftest import make_kitchen_video

VIDEO = make_kitchen_video(seed=19, duration_s=150.0, video_id="fleet1")
QUERY = Query(objects=["faucet"], action="washing dishes")
COMPOUND = CompoundQuery.disjunction(
    [
        Query(objects=["faucet"], action="washing dishes"),
        Query(objects=["person"], action="washing dishes"),
    ]
)
START = 37

#: (entry point, algorithm, query) — SVAQ/SVAQD take conjunctive queries
#: only; the engine takes both shapes under both algorithms.
CASES = [
    ("SVAQ.run", "svaq", QUERY),
    ("SVAQD.run", "svaqd", QUERY),
    ("OnlineEngine.run", "svaq", QUERY),
    ("OnlineEngine.run", "svaqd", QUERY),
    ("OnlineEngine.run", "svaq", COMPOUND),
    ("OnlineEngine.run", "svaqd", COMPOUND),
]

CONFIGS = {
    "clean": OnlineConfig(),
    "flaky": OnlineConfig(
        cache_detections=False,
        retry_max_attempts=4,
        failure_policy="hold_last_estimate",
    ),
}


def fresh_zoo(config_name: str):
    zoo = default_zoo(seed=3)
    return faulty_zoo(zoo, "flaky") if config_name == "flaky" else zoo


def stream_from(start: int) -> ClipStream:
    return ClipStream(VIDEO.meta, start_clip=start)


def run_entry(entry, algorithm, query, zoo, config, *, start, short_circuit,
              context):
    stream = stream_from(start)
    if entry == "SVAQ.run":
        return SVAQ(zoo, query, config).run(
            VIDEO, stream=stream, short_circuit=short_circuit,
            context=context,
        )
    if entry == "SVAQD.run":
        return SVAQD(zoo, query, config).run(
            VIDEO, stream=stream, short_circuit=short_circuit,
            record_trace=True, context=context,
        )
    return OnlineEngine(zoo, config).run(
        query, VIDEO, algorithm, stream=stream,
        short_circuit=short_circuit, context=context,
    )


def run_standalone(entry, algorithm, query, zoo, config, *, start,
                   short_circuit):
    builder = (
        StreamSession.for_compound
        if isinstance(query, CompoundQuery)
        else StreamSession.for_query
    )
    session = builder(
        zoo, query, VIDEO, config,
        dynamic=algorithm == "svaqd",
        record_trace=entry == "SVAQD.run",
    )
    for clip in stream_from(start):
        session.process(clip, short_circuit=short_circuit)
    return session.finish()


def counters(stats) -> dict:
    payload = stats.as_dict()
    del payload["stage_wall_s"]
    return payload


def meter(zoo) -> dict:
    m = zoo.cost_meter
    models = (zoo.detector.name, zoo.recognizer.name)
    return {
        model: (m.units(model), m.cached_units(model), m.ms(model),
                m.retries(model), m.giveups(model))
        for model in models
    }


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("start", [0, START])
@pytest.mark.parametrize("short_circuit", [True, False])
@pytest.mark.parametrize(
    ("entry", "algorithm", "query"), CASES,
    ids=[f"{e}-{a}-{type(q).__name__}" for e, a, q in CASES],
)
def test_fleet_of_one_matches_standalone_session(
    entry, algorithm, query, short_circuit, start, config_name
):
    config = CONFIGS[config_name]
    fleet_zoo = fresh_zoo(config_name)
    context = ExecutionContext()
    result = run_entry(
        entry, algorithm, query, fleet_zoo, config,
        start=start, short_circuit=short_circuit, context=context,
    )
    solo_zoo = fresh_zoo(config_name)
    reference = run_standalone(
        entry, algorithm, query, solo_zoo, config,
        start=start, short_circuit=short_circuit,
    )

    assert result.sequences == reference.sequences
    assert result.evaluations == reference.evaluations
    assert dict(result.final_rates) == dict(reference.final_rates)
    assert result.k_crit_trace == reference.k_crit_trace
    assert result.degraded_clips == reference.degraded_clips
    assert meter(fleet_zoo) == meter(solo_zoo)

    expected = counters(reference.stats)
    # The caller's context sees exactly what the standalone session saw,
    # stage names included.
    assert counters(context.snapshot()) == expected
    assert set(context.stage_wall_s()) == set(reference.stats.stage_wall_s)

    own = counters(result.stats)
    shared_member = algorithm == "svaqd" and not config.fault_tolerant
    if shared_member:
        # Bucket skips move to the fleet's rate book (module docstring).
        assert own.pop("refresh_skipped") <= expected.pop("refresh_skipped")
    assert own == expected


def test_flaky_config_injects_faults():
    """Guard for the matrix above: the flaky leg really retries."""
    zoo = fresh_zoo("flaky")
    result = SVAQD(zoo, QUERY, CONFIGS["flaky"]).run(VIDEO)
    assert result.stats.model_retries > 0
