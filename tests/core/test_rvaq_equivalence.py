"""Equivalence suite for the vectorized offline top-K path.

The vectorized RVAQ/TBClip implementation must reproduce the reference
(pair-at-a-time, per-sequence-object) implementation *bit for bit* in
serial mode — same ranked tuples, same metered access counts, same
iteration count — and must keep the same result *set* under the relaxed
modes (batched iteration, skip disabled).

Contracts being pinned down (see DESIGN.md "Offline top-K pipeline"):

* Serial (``tbclip_batch=1``) runs are bit-identical to the reference.
* Batched runs may charge extra accesses (the skip set only grows between
  batches) but return sequences whose true scores match the serial run's.
* Within the returned top-k, *membership* is guaranteed; internal order
  follows the (lower, upper) bound sort and only matches true-score order
  when ``require_exact_scores`` is set — which the reference shares.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from repro.core.config import RankingConfig
from repro.core.query import Query
from repro.core.rvaq import RVAQ
from repro.core.scoring import MaxScoring, PaperScoring
from repro.storage.ingest import VideoIngest
from repro.storage.repository import VideoRepository
from repro.storage.table import ClipScoreTable
from repro.utils.intervals import IntervalSet
from tests.core.rvaq_reference import ReferenceRVAQ

QUERY = Query(objects=["car"], action="jumping")


def rand_repo(seed: int, n_videos: int = 4, n_clips: int = 40) -> VideoRepository:
    """A randomized multi-video repository with overlapping car/jumping
    runs; scores rounded to 3 decimals so bound ties actually occur."""
    rng = np.random.default_rng(seed)
    repo = VideoRepository()
    for v in range(n_videos):
        act_scores = np.round(rng.random(n_clips), 3)
        car_scores = np.round(rng.random(n_clips), 3)

        def spans() -> list[tuple[int, int]]:
            out, pos = [], 0
            while pos < n_clips:
                start = pos + int(rng.integers(0, 4))
                if start >= n_clips:
                    break
                end = min(n_clips - 1, start + int(rng.integers(0, 6)))
                out.append((start, end))
                pos = end + 2
            return out or [(0, n_clips - 1)]

        repo.add(
            VideoIngest(
                video_id=f"v{v}",
                n_clips=n_clips,
                object_tables={
                    "car": ClipScoreTable("car", list(enumerate(car_scores)))
                },
                action_tables={
                    "jumping": ClipScoreTable(
                        "jumping", list(enumerate(act_scores))
                    )
                },
                object_sequences={"car": IntervalSet(spans())},
                action_sequences={"jumping": IntervalSet(spans())},
            )
        )
    return repo


def true_score(repo, interval, scoring) -> float:
    act = repo.table(QUERY.action)
    objs = [repo.table(o) for o in QUERY.objects]
    return scoring.aggregate(
        scoring.clip_score(
            act.random_access(cid), [o.random_access(cid) for o in objs]
        )
        for cid in interval
    )


def score_multiset(repo, result, scoring) -> Counter:
    """The returned sequences' true scores, rounded to kill last-ulp
    fold-order noise — the mode-independent invariant."""
    return Counter(
        round(true_score(repo, r.interval, scoring), 9) for r in result.ranked
    )


def stats_tuple(result):
    s = result.stats
    return (s.sorted_accesses, s.reverse_accesses, s.random_accesses)


def ranked_tuples(result):
    return [
        (r.interval.start, r.interval.end, r.lower_bound, r.upper_bound)
        for r in result.ranked
    ]


class TestSerialBitIdentity:
    """tbclip_batch=1 must equal the reference implementation exactly."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_paper_scoring(self, seed, k):
        repo = rand_repo(seed)
        ref = ReferenceRVAQ(repo, PaperScoring(), RankingConfig()).top_k(QUERY, k)
        new = RVAQ(repo, PaperScoring(), RankingConfig()).top_k(QUERY, k)
        assert ranked_tuples(new) == ranked_tuples(ref)
        assert stats_tuple(new) == stats_tuple(ref)
        assert new.iterations == ref.iterations

    @pytest.mark.parametrize("seed", range(6))
    def test_max_scoring(self, seed):
        repo = rand_repo(seed)
        ref = ReferenceRVAQ(repo, MaxScoring(), RankingConfig()).top_k(QUERY, 5)
        new = RVAQ(repo, MaxScoring(), RankingConfig()).top_k(QUERY, 5)
        assert ranked_tuples(new) == ranked_tuples(ref)
        assert stats_tuple(new) == stats_tuple(ref)

    @pytest.mark.parametrize("seed", range(6))
    def test_require_exact_scores(self, seed):
        repo = rand_repo(seed)
        cfg = RankingConfig(require_exact_scores=True)
        ref = ReferenceRVAQ(repo, PaperScoring(), cfg).top_k(QUERY, 4)
        new = RVAQ(repo, PaperScoring(), cfg).top_k(QUERY, 4)
        assert ranked_tuples(new) == ranked_tuples(ref)
        assert stats_tuple(new) == stats_tuple(ref)
        assert new.iterations == ref.iterations

    @pytest.mark.parametrize("seed", range(4))
    def test_k_geq_candidates(self, seed):
        """k at least |P_q|: every candidate is returned, bounds exact."""
        repo = rand_repo(seed)
        ref = ReferenceRVAQ(repo, PaperScoring(), RankingConfig()).top_k(
            QUERY, 200
        )
        new = RVAQ(repo, PaperScoring(), RankingConfig()).top_k(QUERY, 200)
        assert ranked_tuples(new) == ranked_tuples(ref)
        assert stats_tuple(new) == stats_tuple(ref)
        assert len(new.ranked) == len(new.p_q)
        for r in new.ranked:
            assert r.lower_bound == r.upper_bound


class TestBatchedEquivalence:
    """Batched TBClip drains keep the ranked result; accesses may grow."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("batch", [4, 32])
    def test_same_score_multiset(self, seed, batch):
        repo = rand_repo(seed)
        scoring = PaperScoring()
        serial = RVAQ(repo, scoring, RankingConfig()).top_k(QUERY, 5)
        batched = RVAQ(
            repo, scoring, RankingConfig(tbclip_batch=batch)
        ).top_k(QUERY, 5)
        assert score_multiset(repo, batched, scoring) == score_multiset(
            repo, serial, scoring
        )
        # Access accounting legitimately differs in both directions:
        # within a batch the skip set is stale, so the iterator wastes
        # fewer sorted rounds stepping over freshly-skipped clips but
        # random-scores more of them — only the result set is invariant.

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_mode_scores(self, seed):
        """Exact mode: the decided top set's bounds equal true scores
        (up to fold-order ulps) at any batch size."""
        repo = rand_repo(seed)
        scoring = PaperScoring()
        cfg = RankingConfig(require_exact_scores=True, tbclip_batch=16)
        result = RVAQ(repo, scoring, cfg).top_k(QUERY, 4)
        for r in result.ranked:
            assert math.isclose(
                r.lower_bound,
                true_score(repo, r.interval, scoring),
                rel_tol=1e-9,
                abs_tol=1e-9,
            )

    def test_batch_validation(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            RankingConfig(tbclip_batch=0)


class TestSkipEquivalence:
    """enable_skip=False scans more but returns the same sequences."""

    @pytest.mark.parametrize("seed", range(8))
    def test_same_score_multiset(self, seed):
        repo = rand_repo(seed)
        scoring = PaperScoring()
        with_skip = RVAQ(repo, scoring, RankingConfig()).top_k(QUERY, 5)
        no_skip = RVAQ(
            repo, scoring, RankingConfig(), enable_skip=False
        ).top_k(QUERY, 5)
        assert score_multiset(repo, no_skip, scoring) == score_multiset(
            repo, with_skip, scoring
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_membership_matches_brute_force(self, seed):
        """Top-k membership (by true score, ties broken arbitrarily) is
        guaranteed even though within-top-k order is bound-driven."""
        repo = rand_repo(seed)
        scoring = PaperScoring()
        k = 5
        result = RVAQ(repo, scoring, RankingConfig()).top_k(QUERY, k)
        truth = sorted(
            (round(true_score(repo, iv, scoring), 9) for iv in result.p_q),
            reverse=True,
        )[:k]
        assert sorted(
            score_multiset(repo, result, scoring).elements(), reverse=True
        ) == truth
