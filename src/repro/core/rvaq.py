"""RVAQ — ranked top-K video action queries over a pre-processed store
(Algorithm 4).

Given the per-label individual sequences and clip score tables produced at
ingestion (§4.2), RVAQ

1. intersects the individual sequences into the query's result sequences
   ``P_q`` (Eq. 12, an interval sweep);
2. maintains, per sequence, upper and lower score bounds refined by each
   ``(c_top, c_btm)`` pair the TBClip iterator yields (Eqs. 13–14);
3. tracks the decision frontier with the two priority sets
   ``PQ_lo^K`` / ``PQ_up^¬K`` and stops as soon as the K best lower bounds
   dominate every other sequence's upper bound (Eq. 15);
4. grows the skip set ``C_skip`` with the clips of sequences decided either
   way, sparing TBClip any further work on them (§4.3).

Execution strategy (the vectorised offline path): sequence bounds live in
NumPy columns, one slot per sequence of ``P_q``.  Each TBClip pair is
folded into the (at most two) touched slots with the scalar ⊙, and the
Eq. 13–14 refresh plus the whole ``PQ_lo^K`` / ``PQ_up^¬K`` frontier —
``b_lo^K`` as a k-th order statistic, ``b_up^¬K`` as a masked maximum, the
decided-in/out sweeps as boolean masks — run as array kernels instead of a
Python re-sort per pair.  The kernels perform the same IEEE operations per
element as the scalar path (see :mod:`repro.core.scoring`), so serial
results — ranked tuples, ``AccessStats``, ``iterations`` — are
bit-identical to the original row-at-a-time implementation, kept as the
test oracle ``ReferenceRVAQ`` in ``tests/core/rvaq_reference.py`` and
enforced by the equivalence suite in ``tests/core/test_rvaq_equivalence.py``.

``C_skip`` is interval-backed (:class:`~repro.utils.intervals.IntervalSkipSet`)
— membership by binary search over runs instead of a point set over nearly
the whole repository (the oracle keeps the point set).

``RankingConfig.tbclip_batch`` drains B certified pairs per iterator call.
``B = 1`` (the default) is exactly the serial algorithm; with ``B > 1``
the skip set grows only between batches, so access counts may exceed the
serial ones while the ranked output is unchanged — ``iterations`` still
counts processed pairs, not iterator calls.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.core.config import RankingConfig
from repro.core.query import Query
from repro.core.scoring import PaperScoring, ScoringScheme
from repro.core.tbclip import TBClipIterator
from repro.errors import QueryError
from repro.storage.access import AccessStats
from repro.storage.repository import VideoRepository
from repro.utils.intervals import (
    Interval,
    IntervalSet,
    IntervalSkipSet,
    intersect_all,
)


@dataclass(frozen=True)
class RankedSequence:
    """One answer sequence with its (possibly bounded) score."""

    interval: Interval
    lower_bound: float
    upper_bound: float

    @property
    def exact(self) -> bool:
        return self.lower_bound == self.upper_bound

    @property
    def score(self) -> float:
        """The ranking score: the proven lower bound (exact when closed)."""
        return self.lower_bound


@dataclass(frozen=True)
class TopKResult:
    """Output of one RVAQ (or baseline) execution."""

    query: Query
    ranked: tuple[RankedSequence, ...]
    stats: AccessStats
    p_q: IntervalSet
    iterations: int = 0

    @property
    def sequences(self) -> IntervalSet:
        return IntervalSet(r.interval for r in self.ranked)


class _BoundColumns:
    """Per-sequence bound state as aligned NumPy columns.

    Slot ``i`` tracks sequence ``i`` of ``P_q`` (in start order):
    ``up_partial`` / ``lo_partial`` are the aggregated scores of the clips
    folded from the top / bottom walks (``S_up`` / ``S_lo``),
    ``up_missing`` / ``lo_missing`` the clips each bound has not yet
    counted (``L_up`` / ``L_lo``), and ``upper`` / ``lower`` the current
    Eq. 13–14 bounds.  ``live`` is True while the sequence is undecided;
    decided slots keep their frozen bounds and are masked out of every
    refresh.
    """

    __slots__ = (
        "intervals",
        "starts",
        "up_partial",
        "lo_partial",
        "up_missing",
        "lo_missing",
        "upper",
        "lower",
        "live",
    )

    def __init__(self, p_q: IntervalSet, identity: float) -> None:
        self.intervals: list[Interval] = list(p_q)
        self.starts: list[int] = [iv.start for iv in self.intervals]
        n = len(self.intervals)
        lengths = np.asarray([len(iv) for iv in self.intervals], dtype=np.int64)
        self.up_partial = np.full(n, identity, dtype=np.float64)
        self.lo_partial = np.full(n, identity, dtype=np.float64)
        self.up_missing = lengths.copy()
        self.lo_missing = lengths.copy()
        self.upper = np.full(n, np.inf, dtype=np.float64)
        self.lower = np.full(n, -np.inf, dtype=np.float64)
        self.live = np.ones(n, dtype=bool)

    def __len__(self) -> int:
        return len(self.intervals)

    def locate(self, cid: int) -> int | None:
        """Slot of the sequence containing a clip id (binary search)."""
        pos = bisect_right(self.starts, cid) - 1
        if pos >= 0 and cid in self.intervals[pos]:
            return pos
        return None


class RVAQ:
    """Algorithm 4 over a :class:`VideoRepository`."""

    def __init__(
        self,
        repository: VideoRepository,
        scoring: ScoringScheme | None = None,
        config: RankingConfig | None = None,
        *,
        enable_skip: bool = True,
    ) -> None:
        self._repo = repository
        self._scoring = scoring or PaperScoring()
        self._config = config or RankingConfig()
        self._enable_skip = enable_skip

    # -- public API ----------------------------------------------------------------

    @staticmethod
    def _split_labels(query: Query) -> tuple[str, list[str]]:
        """The primary action plus every other predicate label.

        Extra actions (the footnote-3 multi-action extension) rank through
        the same machinery as object predicates: their per-clip scores
        enter ``g`` alongside the object scores, and their individual
        sequences join the Eq. 12 intersection.
        """
        if not query.actions:
            raise QueryError("RVAQ expects at least one action predicate")
        primary, *extra = query.actions
        return primary, [*extra, *query.objects, *query.relationships]

    def result_sequences(self, query: Query) -> IntervalSet:
        """``P_q = P_a ⊗ P_o1 ⊗ … ⊗ P_oI`` (Eq. 12) in global clip ids."""
        primary, others = self._split_labels(query)
        sets = [self._repo.sequences(primary)]
        sets.extend(self._repo.sequences(label) for label in others)
        return intersect_all(sets)

    def top_k(self, query: Query, k: int | None = None) -> TopKResult:
        """The K highest-scoring result sequences (Algorithm 4)."""
        if k is None:
            k = self._config.default_k
        if k <= 0:
            raise QueryError(f"k must be positive; got {k}")
        scoring = self._scoring
        p_q = self.result_sequences(query)
        stats = AccessStats()
        if not p_q:
            return TopKResult(query=query, ranked=(), stats=stats, p_q=p_q)

        cols = _BoundColumns(p_q, scoring.identity)

        # C_skip starts as every repository clip outside P_q (§4.3).
        skip = IntervalSkipSet(self._repo.all_clips().difference(p_q))
        primary, others = self._split_labels(query)
        iterator = TBClipIterator(
            action_table=self._repo.table(primary),
            object_tables=[self._repo.table(label) for label in others],
            scoring=scoring,
            skip=skip,
            stats=stats,
            # With K >= |P_q| membership is settled and only score
            # exactness remains, which the top drain alone provides.
            need_bottom=len(cols) > k,
        )

        batch = self._config.tbclip_batch
        iterations = 0
        running = True
        while running:
            pairs, done = iterator.next_batch(batch)
            last = len(pairs) - 1
            for idx, (c_top, s_top, c_btm, s_btm) in enumerate(pairs):
                iterations += 1
                if done and idx == last:
                    running = False  # every clip of P_q processed: exact
                    break
                if c_top is not None:
                    self._fold_top(cols, c_top, s_top)
                if c_btm is not None:
                    self._fold_bottom(cols, c_btm, s_btm)
                self._refresh_bounds(cols, s_top, s_btm, c_top, c_btm)
                if self._apply_decisions(cols, skip, k):
                    running = False
                    break

        lower, upper = cols.lower, cols.upper
        ranked = sorted(
            range(len(cols)),
            key=lambda i: (lower[i], upper[i]),
            reverse=True,
        )[:k]
        return TopKResult(
            query=query,
            ranked=tuple(
                RankedSequence(
                    interval=cols.intervals[i],
                    lower_bound=float(lower[i]),
                    upper_bound=float(upper[i]),
                )
                for i in ranked
            ),
            stats=stats,
            p_q=p_q,
            iterations=iterations,
        )

    # -- bound maintenance ----------------------------------------------------------

    def _fold_top(self, cols: _BoundColumns, cid: int, score: float) -> None:
        pos = cols.locate(cid)
        if pos is None:
            return
        cols.up_partial[pos] = self._scoring.combine(
            float(cols.up_partial[pos]), score
        )
        cols.up_missing[pos] -= 1

    def _fold_bottom(self, cols: _BoundColumns, cid: int, score: float) -> None:
        pos = cols.locate(cid)
        if pos is None:
            return
        cols.lo_partial[pos] = self._scoring.combine(
            float(cols.lo_partial[pos]), score
        )
        cols.lo_missing[pos] -= 1

    def _refresh_bounds(
        self,
        cols: _BoundColumns,
        s_top: float,
        s_btm: float,
        c_top: int | None,
        c_btm: int | None,
    ) -> None:
        """Eqs. 13–14, plus the sub-sequence dominance strengthening.

        Upper bound: every clip not yet seen from the top scores at most
        ``s_top`` (Eq. 13).  Lower bound: the best of

        * Eq. 14 — every clip not yet seen from the bottom scores at least
          ``s_btm``;
        * the aggregate of the clips already folded from either direction —
          a *sub-sequence* of the sequence, whose score the full sequence
          dominates by the §4.1 contract.  This makes the leader's lower
          bound grow with the fast top walk instead of waiting for the
          bottom walk to reach its (high-scoring) clips, which is what lets
          ``C_skip`` prune losing sequences early.

        All terms are evaluated over the full columns and masked onto the
        ``live`` slots, leaving decided sequences' bounds frozen.
        """
        scoring = self._scoring
        live = cols.live
        if c_top is not None:
            cand_upper = scoring.combine_block(
                scoring.repeat_block(s_top, cols.up_missing), cols.up_partial
            )
            np.copyto(cols.upper, cand_upper, where=live)
        exact_up = cols.up_missing == 0
        np.copyto(cols.upper, cols.up_partial, where=live & exact_up)
        # The sub-sequence dominance terms; a separate lo_missing == 0 case
        # is not needed — it would re-apply the lo_partial floor already in
        # this maximum.
        cand = np.maximum(cols.up_partial, cols.lo_partial)
        if c_btm is not None:
            cand = np.maximum(
                cand,
                scoring.combine_block(
                    scoring.repeat_block(s_btm, cols.lo_missing),
                    cols.lo_partial,
                ),
            )
        cand = np.where(exact_up, cols.upper, cand)  # all folded: exact
        np.copyto(cols.lower, np.maximum(cols.lower, cand), where=live)

    # -- decision frontier ---------------------------------------------------------------

    def _apply_decisions(
        self,
        cols: _BoundColumns,
        skip: IntervalSkipSet,
        k: int,
        floor: float = float("-inf"),
    ) -> bool:
        """Maintain ``PQ_lo^K`` / ``PQ_up^¬K``, grow ``C_skip`` and test the
        stopping condition (Eq. 15).

        ``PQ_lo^K`` materialises as the k-th order statistic ``b_lo^K``
        (one ``np.partition``) plus the membership mask of the current top
        set; ``PQ_up^¬K`` as the masked maximum ``b_up^¬K`` over the rest.
        Ties on ``b_lo^K`` resolve to the lowest slot indices — exactly the
        stable descending sort of the scalar implementation.

        ``floor`` is an *external* proven lower bound on the global K-th
        answer score — the scatter-gather coordinator's composed bound
        (:mod:`repro.core.distributed`).  Sequences whose upper bound falls
        strictly below ``max(b_lo^K, floor)`` are decided out; with the
        default ``-inf`` the behaviour (and the single-repository results)
        are untouched.
        """
        lower, upper = cols.lower, cols.upper
        n = len(cols)
        if n >= k:
            b_lo_k = float(np.partition(lower, n - k)[n - k])
        else:
            b_lo_k = float("-inf")
        top_mask = lower > b_lo_k
        short = k - int(top_mask.sum())
        if short > 0:
            top_mask[np.flatnonzero(lower == b_lo_k)[:short]] = True
        if n > k:
            b_up_not_k = float(upper.max(where=~top_mask, initial=-np.inf))
        else:
            b_up_not_k = float("-inf")

        if self._enable_skip:
            live = cols.live
            out_new = live & (upper < max(b_lo_k, floor))
            if (
                n > k
                and not self._config.require_exact_scores
            ):
                in_new = live & ~out_new & top_mask & (lower > b_up_not_k)
            else:
                in_new = np.zeros(n, dtype=bool)
            decided = out_new | in_new
            if decided.any():
                cols.live = live & ~decided
                for i in np.flatnonzero(decided):
                    skip.add(cols.intervals[i])

        if n <= k:
            # Every sequence is in the answer; keep refining until scores
            # are exact — this is why RVAQ converges to Pq-Traverse as K
            # approaches the number of result sequences (Table 8's last
            # column).
            return bool((lower == upper).all())
        if b_lo_k < b_up_not_k:
            return False
        if self._config.require_exact_scores:
            # Membership is decided; keep refining the winners until their
            # scores (and hence their order) are exact.
            return bool((lower[top_mask] == upper[top_mask]).all())
        return True
