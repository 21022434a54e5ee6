"""``search`` workload: ``VideoRepository.load`` → SQL → RVAQ top-K.

Closed loop with one client, which sends the next query only after the
previous one returned.  Set-up ingests the Table-1/2 corpus, each video
over its own query's labels plus ``person``, and saves it in format 3.
The timed part opens the repository (several fresh opens; the last one
serves the queries), then runs rounds of top-K queries written as SQL
text: each round sends every (template, K) pair once, in a seeded order.
Every pair keeps its fastest round (best-of-rounds, as ``timeit`` does:
co-tenant load on a shared host only ever adds time); the latency is the
median over pairs of those best times and the throughput is the pairs
over their summed best times.

The mix combines the 16 selective Table-1/2 queries with broad
action-only and ``person & action`` queries for each of their actions,
and its K values fall on both sides of |P_q|, so both branches of
TBClip's ``need_bottom`` run.  TBClip and
bound maintenance dominate; inference cost is zero.
"""

from __future__ import annotations

import random
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Iterable, Iterator

import repro.sql as sql
import repro.storage.ingest as ingest_mod
from repro.core.baselines import pq_traverse
from repro.core.engine import OfflineEngine
from repro.core.query import Query
from repro.core.rvaq import TopKResult
from repro.detectors.zoo import default_zoo
from repro.storage.repository import VideoRepository

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
from ingest import build_corpus, table_query_f1
from tracing import Tracer

#: Corpus scale: about 13k clips in 80-90 videos.
SCALE = 0.25
#: Set-ups per run (each ingests the corpus: several seconds).
SETUP_REPEATS = 3
#: Fresh opens per run; ``open_ms`` is their median.
OPENS = 7
#: K values: 1 and 2 sit below every |P_q| of the mix, 50 above all.
KS = (1, 2, 5, 10, 20, 50)
#: Rounds a run makes at least, so every pair has a best of several.
MIN_ROUNDS = 3
#: Relative tolerance between RVAQ's folded bounds and Pq-Traverse's
#: exact scores: both sum the same clip scores in different orders, so
#: they may differ in the last bits (1e-9 is ~10^7 ulps of headroom and
#: still far below any real score gap).
SCORE_RTOL = 1e-9

QUERY_SQL = (
    "SELECT MERGE(clipID) AS Sequence "
    "FROM (PROCESS repository PRODUCE clipID, "
    "obj USING ObjectDetector, act USING ActionRecognizer) "
    "WHERE act = '{action}'{objects} ORDER BY RANK(act, obj) LIMIT {k}"
)


def query_sql(query: Query, k: int) -> str:
    objects = ""
    if query.objects:
        quoted = ", ".join(f"'{label}'" for label in query.objects)
        objects = f" AND obj.include({quoted})"
    return QUERY_SQL.format(action=query.actions[0], objects=objects, k=k)


def query_rounds(
    corpus: list[tuple[Query, Any]], seed: int
) -> Iterator[list[tuple[Query, int]]]:
    """Endless rounds of (query, K) pairs.

    Each round runs through every (template, K) pair once, in a fresh
    seeded order, so every run executes the same mix and only the corpus
    and the order change with the seed.
    """
    selective = [query for query, _ in corpus]
    actions = sorted({query.actions[0] for query in selective})
    templates = [
        *selective,
        *(Query(actions=[a]) for a in actions),
        *(Query(objects=["person"], actions=[a]) for a in actions),
    ]
    pairs = [(query, k) for query in templates for k in KS]
    rng = random.Random(seed)
    while True:
        rng.shuffle(pairs)
        yield list(pairs)


def build_repository(
    seed: int, scale: float, out_dir: Path
) -> tuple[list[tuple[Query, Any]], Any]:
    """Set-up: synthesize, ingest and save the searched repository;
    returns the corpus and the zoo that ingested it.

    Each Table-1 set and each movie is ingested over the labels of its own
    query plus ``person``: the repository then answers every query of the
    mix, and set-up costs a few labels per clip instead of the whole
    vocabulary, which buys a corpus large enough that per-seed content
    does not dominate query cost.
    """
    corpus = build_corpus(seed, scale)
    zoo = default_zoo(seed=seed)
    repo = VideoRepository()
    for query, videos in corpus:
        objects = sorted({"person", *query.objects})
        for ingest in ingest_mod.ingest_many(
            videos, zoo, objects, query.actions
        ):
            repo.add(ingest)
    repo.save(out_dir, format=3)
    return corpus, zoo


def clip_labels(corpus: list[tuple[Query, Any]]) -> int:
    """(clip, label) pairs the set-up ingests."""
    return sum(
        video.meta.n_clips * len({"person", *query.objects, *query.actions})
        for query, videos in corpus for video in videos
    )


def search_pass(
    out_dir: Path, rounds: Iterable[list[tuple[Query, int]]],
    seconds: float | None,
) -> tuple[VideoRepository, list[float], list[list[tuple[Query, int]]],
           list[list[float]], dict[tuple[Query, int], Any], list[str], float]:
    """Open the repository, then run whole rounds of queries.

    With ``seconds`` set, rounds run while another one still fits in that
    much time (at least ``MIN_ROUNDS``); otherwise every round of
    ``rounds`` runs.  Returns the repository, open latencies in ms, the
    rounds run, their query latencies in ms (``inf`` for a failed query),
    each pair's first result, the pairs a later round ranked differently
    and the wall time of the pass.  Later results are compared and
    dropped, so memory does not grow with the number of rounds.
    """
    start = time.perf_counter()
    opens = []
    for _ in range(OPENS):
        t0 = time.perf_counter()
        repo = VideoRepository.load(out_dir)
        opens.append((time.perf_counter() - t0) * 1000.0)
    engine = OfflineEngine(repository=repo)
    done: list[list[tuple[Query, int]]] = []
    latencies: list[list[float]] = []
    first: dict[tuple[Query, int], Any] = {}
    differ: list[str] = []
    for mix in rounds:
        t_round = time.perf_counter()
        lat: list[float] = []
        for query, k in mix:
            text = query_sql(query, k)
            t0 = time.perf_counter()
            try:
                result = sql.plan(sql.parse(text)).execute_offline(engine)
                engine.localized(result)
            except Exception:  # a failed query is counted, not fatal
                lat.append(float("inf"))
                continue
            lat.append((time.perf_counter() - t0) * 1000.0)
            if (query, k) not in first:
                first[(query, k)] = result
            elif ranked_rows(first[(query, k)]) != ranked_rows(result):
                differ.append(f"{query} K={k}")
        done.append(mix)
        latencies.append(lat)
        now = time.perf_counter()
        if seconds is not None and len(done) >= MIN_ROUNDS and (
                now - start + (now - t_round) > seconds):
            break
    return (repo, opens, done, latencies, first, differ,
            time.perf_counter() - start)


def ranked_rows(result: TopKResult) -> list[tuple[int, int, float, float]]:
    return [
        (r.interval.start, r.interval.end, r.lower_bound, r.upper_bound)
        for r in result.ranked
    ]


def exact_scores(repo: VideoRepository, query: Query) -> dict[tuple[int, int], float]:
    """Pq-Traverse's exact score of every sequence of ``P_q``."""
    full = pq_traverse(repo, query, k=repo.total_clips + 1)
    gate(len(full.ranked) == len(full.p_q), f"{query}: Pq-Traverse missed sequences")
    return {(r.interval.start, r.interval.end): r.score for r in full.ranked}


def check_ranking(
    exact: dict[tuple[int, int], float], k: int,
    rows: list[tuple[int, int, float, float]], label: str,
) -> None:
    """Gate: ``rows`` are a correct top-K over the exact scores of ``P_q``.

    With ``s_K`` the K-th best exact score, the rows must be exactly
    ``min(K, |P_q|)`` distinct sequences of ``P_q``, each scoring at least
    ``s_K``; every sequence scoring above ``s_K`` must be among them
    (which of several sequences tied at ``s_K`` fill the last places is
    free); each row's bounds must bracket its exact score, and rows come
    in non-increasing order of their lower bounds.  Score comparisons
    allow ``SCORE_RTOL``.
    """
    want = min(k, len(exact))
    gate(len(rows) == want, f"{label}: {len(rows)} rows, expected {want}")
    if not rows:
        return
    keys = [(start, end) for start, end, _, _ in rows]
    gate(len(set(keys)) == len(keys), f"{label}: duplicate rows")
    gate(all(key in exact for key in keys), f"{label}: row outside P_q")
    kth = sorted(exact.values(), reverse=True)[want - 1]
    slack = SCORE_RTOL * max(abs(kth), 1.0)
    for (_, _, lower, upper), key in zip(rows, keys):
        score = exact[key]
        gate(score >= kth - slack, f"{label}: row {key} scores below the K-th")
        tol = SCORE_RTOL * max(abs(score), 1.0)
        gate(lower - tol <= score <= upper + tol,
             f"{label}: row {key} bounds do not bracket its exact score")
    above = {key for key, score in exact.items() if score > kth + slack}
    gate(above <= set(keys), f"{label}: a sequence above the K-th is missing")
    lowers = [row[2] for row in rows]
    gate(lowers == sorted(lowers, reverse=True), f"{label}: rows out of order")


def check(
    repo: VideoRepository, first: dict[tuple[Query, int], Any],
    differ: list[str],
) -> None:
    """Correctness gates over every executed query: repeats rank as the
    first run of their pair did, and each pair's ranking is a correct
    top-K."""
    gate(not differ, f"repeated queries ranked differently: {differ[:3]}")
    exact: dict[Query, dict[tuple[int, int], float]] = {}
    for (query, k), result in first.items():
        if query not in exact:
            exact[query] = exact_scores(repo, query)
        check_ranking(exact[query], k, ranked_rows(result), f"{query} K={k}")


def access_counts(first: dict[tuple[Query, int], Any]) -> dict[str, float]:
    """RVAQ access counts over every pair once, so they repeat exactly for
    a seed."""
    counted = list(first.values())
    pairs = sum(r.iterations for r in counted)
    rows = sum(len(r.ranked) for r in counted)
    return {
        "core.rvaq.pairs": float(pairs),
        "core.rvaq.sorted_accesses": float(sum(r.stats.sorted_accesses for r in counted)),
        "core.rvaq.reverse_accesses": float(sum(r.stats.reverse_accesses for r in counted)),
        "core.rvaq.random_accesses": float(sum(r.stats.random_accesses for r in counted)),
        "core.rvaq.pairs_per_row": pairs / rows if rows else 0.0,
    }


def run(seed: int, seconds: float, trace: bool, scale: float = 1.0) -> Outcome:
    out_dir = WORK_DIR / f"search-{seed}"
    (corpus, _), setup_times = timed_setups(
        lambda: build_repository(seed, SCALE * scale, out_dir), SETUP_REPEATS
    )
    setup_s = statistics.median(setup_times)
    repo, opens, rounds, latencies, first, differ, _ = search_pass(
        out_dir, query_rounds(corpus, seed), seconds
    )
    rss = peak_rss_mb()

    layers: dict[str, float] = {}
    if trace:
        # One set-up and one round, traced, against the median untraced
        # set-up and the same round untraced in the same warm state.  The
        # set-up runs the ingest layers (over each query's own labels).
        *_, reference_wall = search_pass(out_dir, rounds[:1], None)
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("bench.search") as root:
                t0 = time.perf_counter()
                _, traced_zoo = build_repository(seed, SCALE * scale, out_dir)
                traced_setup = time.perf_counter() - t0
                *_, traced, _, traced_wall = search_pass(
                    out_dir, rounds[:1], None
                )
        finally:
            tracer.uninstall()
        gate({pair: ranked_rows(r) for pair, r in traced.items()}
             == {pair: ranked_rows(first[pair]) for pair in traced},
             "traced pass ranked differently")
        derived = access_counts(first)
        derived.update(meter_layers(traced_zoo.cost_meter, repo.total_clips))
        derived["storage.save.bytes_per_clip_label"] = sum(
            p.stat().st_size for p in out_dir.iterdir()
        ) / clip_labels(corpus)
        derived["trace.overhead"] = (traced_setup + traced_wall) / (
            setup_s + reference_wall)
        layers = layer_report(tracer, root, derived)
        tracer.dump(WORK_DIR / "traces" / f"search-{seed}.npz")

    check(repo, first, differ)
    f1 = table_query_f1(repo, corpus)
    shutil.rmtree(out_dir, ignore_errors=True)

    best: dict[tuple[Query, int], float] = {}
    for mix, lat in zip(rounds, latencies):
        for pair, ms in zip(mix, lat):
            best[pair] = min(best.get(pair, ms), ms)
    ok = [ms for ms in best.values() if ms != float("inf")]
    n = sum(len(lat) for lat in latencies)
    failed = sum(1 for lat in latencies for ms in lat if ms == float("inf"))
    qps = len(ok) / sum(ok) * 1000.0
    p50, p90, p99 = (percentile(list(best.values()), q) for q in (50, 90, 99))
    open_ms = percentile(opens, 50)
    return Outcome(
        end_to_end={
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "throughput_per_s": qps,
            "latency_p50_ms": p50,
        },
        named={
            "setup_s": (setup_s, "s"),
            "setup_clips_per_s": (repo.total_clips / setup_s,
                                  "clips/s synthesized, ingested and saved"),
            "peak_rss_mb": (rss, "MB"),
            "failed_share": (failed / n, "failed/attempted"),
            "open_ms": (open_ms, "ms"),
            "query_p50_ms": (p50, "ms"),
            "query_p90_ms": (p90, "ms"),
            "query_p99_ms": (p99, "ms"),
            "queries_per_s": (qps, "queries/s"),
            "table_query_f1": (f1, "F1"),
            "queries": (float(n), f"queries in {len(rounds)} rounds of "
                        f"{len(best)} pairs (1 closed-loop client)"),
            "repository": (float(repo.total_clips),
                           f"clips in {repo.n_videos} videos"),
        },
        attempted=n,
        failed=failed,
        layers=layers,
    )
