"""TBClip — the top/bottom clip iterator (Algorithm 5).

Each invocation returns the unprocessed clip of ``P_q`` with the highest
overall score (``c_top``) and the one with the lowest (``c_btm``), found by

1. *parallel sorted access*: one row per query table per round from the top
   (and, mirrored, from the bottom) until the best seen candidate provably
   dominates everything unseen;
2. *random accesses* completing the scores of newly seen clips, combined
   with the clip score function ``g``.

Differences from the paper's listing, both conservative:

* scores fetched by random access are memoised, so each (table, clip) pair
  is charged exactly one random access however many iterations look at it;
* the classic threshold guarantee of TA-style algorithms is enforced — a
  candidate is only returned as ``c_top`` once its score is at least the
  frontier bound ``g`` applied to the last sorted-access row of every
  table (every clip unseen in *all* tables scores below that bound), so
  the returned order is exactly score-descending, mirrored for ``c_btm``.
  Without this, a clip ranked high in one table but unseen in another
  could be returned out of order and silently corrupt RVAQ's bounds.

Clips in the caller's ``skip`` set (RVAQ's ``C_skip``) are passed over
during sorted access and never randomly accessed; clips skipped *after*
they were scored are discarded lazily from the candidate heaps.

Execution strategy (the vectorised offline path): instead of fetching one
``(cid, score)`` tuple per table per round, the iterator prefetches each
direction's row columns once via :meth:`ClipScoreTable.sorted_block` /
:meth:`~ClipScoreTable.reverse_block` and precomputes the whole per-round
frontier-bound column with one vectorised ``g`` application
(:meth:`ScoringScheme.clip_score_block`).  Rounds then consume plain
array slots and the meter is charged per consumed row, so the access
accounting — and every returned pair — is bit-identical to the
row-at-a-time execution (kept as the test oracle
``ReferenceTBClipIterator`` in ``tests/core/rvaq_reference.py``).

:meth:`next_batch` drains several certified pairs per call for callers
that amortise their per-pair work; see the method docs for the (small,
documented) way batching interacts with a concurrently growing skip set.
"""

from __future__ import annotations

import heapq
from typing import Container

from repro.core.scoring import ScoringScheme
from repro.errors import ConfigurationError, StorageError
from repro.storage.access import AccessStats
from repro.storage.table import ClipScoreTable

#: One drained pair: ``(c_top, S_top, c_btm, S_btm)``.
Pair = tuple[int | None, float, int | None, float]


class TBClipIterator:
    """Iterator over the clips of ``P_q`` in score order from both ends."""

    def __init__(
        self,
        action_table: ClipScoreTable,
        object_tables: list[ClipScoreTable],
        scoring: ScoringScheme,
        skip: Container[int],
        stats: AccessStats,
        bottom_rounds_per_call: int = 8,
        need_bottom: bool = True,
    ) -> None:
        """``bottom_rounds_per_call`` bounds the reverse-access work per
        invocation: the bottom of the tables is dominated by skipped
        (non-``P_q``) clips whose rows keep the reverse frontier too low to
        certify any candidate, so an unbounded walk would stream — and
        eagerly random-access — far ahead of what the caller's bounds
        need.  When the budget runs out before a candidate qualifies, the
        call reports ``c_btm = None`` for this round and resumes next call;
        RVAQ's Eq. 14 refinement simply skips that round.

        ``need_bottom=False`` disables the bottom direction entirely: when
        every sequence is already known to be in the answer (K >= |P_q|),
        lower bounds are only needed for exactness, which the top drain
        provides by itself — the reverse walk would be pure overhead.

        ``skip`` may be any membership container — a plain ``set`` or the
        interval-backed :class:`repro.utils.intervals.IntervalSkipSet`."""
        self._tables: list[ClipScoreTable] = [action_table, *object_tables]
        #: Rounds available per direction — tables are immutable, so the
        #: shortest table's length is fixed for the iterator's lifetime.
        self._n = min(len(t) for t in self._tables)
        self._scoring = scoring
        self._skip = skip  # live reference — RVAQ grows it while iterating
        self._stats = stats
        self._bottom_budget = max(1, bottom_rounds_per_call)
        self._need_bottom = need_bottom

        self._stamp_top = 0
        self._stamp_btm = 0
        self._seen_top: set[int] = set()
        self._seen_btm: set[int] = set()
        self._processed_top: set[int] = set()
        self._processed_btm: set[int] = set()
        self._heap_top: list[tuple[float, int]] = []  # (-score, cid)
        self._heap_btm: list[tuple[float, int]] = []  # (score, cid)
        self._score_cache: dict[int, float] = {}

        # Lazily materialised per-direction row columns (one list of clip
        # ids per table, in access order) and the vectorised per-round
        # frontier bound; see module docs.
        self._cids_top: list[list[int]] | None = None
        self._cids_btm: list[list[int]] | None = None
        self._frontier_top: list[float] | None = None
        self._frontier_btm: list[float] | None = None
        #: Per-table ``cid -> score`` maps backing the memoised
        #: random-access completion (built on first use).
        self._lookups: list[dict[int, float]] | None = None

    # -- public API ------------------------------------------------------------

    def next_pair(self) -> Pair:
        """``(c_top, S_top, c_btm, S_btm)``; a ``None`` clip id means that
        direction is exhausted (every non-skipped clip already returned)."""
        c_top, s_top = self._next_extreme(top=True)
        if self._need_bottom:
            c_btm, s_btm = self._next_extreme(top=False)
        else:
            c_btm, s_btm = None, 0.0
        if c_top is not None:
            self._processed_top.add(c_top)
        if c_btm is not None:
            self._processed_btm.add(c_btm)
        return c_top, s_top, c_btm, s_btm

    def next_batch(self, budget: int) -> tuple[list[Pair], bool]:
        """Drain up to ``budget`` certified pairs in one call.

        Returns ``(pairs, done)``; ``done`` is True when the last drained
        pair is the exhaustion marker (both directions drained of every
        eligible clip, bounds exact), evaluated *at drain time* so the
        caller never mistakes a budget stall for exhaustion.

        With ``budget > 1`` the caller's skip set grows only *between*
        batches, so a sequence decided mid-batch may still have a few of
        its clips drained (and their accesses charged) before the next
        drain observes the larger skip set.  ``budget=1`` is exactly the
        serial algorithm.
        """
        if budget <= 0:
            raise ConfigurationError(f"batch budget must be positive; got {budget}")
        pairs: list[Pair] = []
        for _ in range(budget):
            pair = self.next_pair()
            pairs.append(pair)
            if pair[0] is None and pair[2] is None and self.exhausted:
                return pairs, True
        return pairs, False

    @property
    def exhausted(self) -> bool:
        """True when both active directions have returned every eligible
        clip."""
        if not self._direction_done(True):
            return False
        return not self._need_bottom or self._direction_done(False)

    # -- internals ----------------------------------------------------------------

    def _heap(self, top: bool) -> list[tuple[float, int]]:
        return self._heap_top if top else self._heap_btm

    def _clean_heap(self, top: bool) -> tuple[float, int] | None:
        """Drop processed/now-skipped entries; return the live head."""
        heap = self._heap(top)
        processed = self._processed_top if top else self._processed_btm
        while heap:
            _, cid = heap[0]
            if cid in processed or cid in self._skip:
                heapq.heappop(heap)
                continue
            return heap[0]
        return None

    def _direction_done(self, top: bool) -> bool:
        stamp = self._stamp_top if top else self._stamp_btm
        if stamp < self._n:
            return False
        return self._clean_heap(top) is None

    def _materialise(self, top: bool) -> None:
        """Prefetch one direction's row columns and precompute its whole
        frontier-bound column with one vectorised ``g`` pass."""
        n = self._n
        cid_cols: list[list[int]] = []
        score_cols = []
        for table in self._tables:
            cids, scores = (
                table.sorted_block(0, n) if top else table.reverse_block(0, n)
            )
            cid_cols.append(cids.tolist())
            score_cols.append(scores)
        frontier = self._scoring.clip_score_block(
            score_cols[0], score_cols[1:]
        ).tolist()
        if top:
            self._cids_top, self._frontier_top = cid_cols, frontier
        else:
            self._cids_btm, self._frontier_btm = cid_cols, frontier

    def _frontier_bound(self, top: bool) -> float:
        """Monotone bound on the score of any clip not yet seen in every
        table, from the most recent sorted (or reverse) access rows."""
        stamp = self._stamp_top if top else self._stamp_btm
        if stamp == 0:
            return float("inf") if top else float("-inf")
        frontier = self._frontier_top if top else self._frontier_btm
        return frontier[stamp - 1]

    def _advance(self, top: bool) -> bool:
        """One round of parallel sorted (or reverse) access; False when the
        tables are exhausted in this direction."""
        stamp = self._stamp_top if top else self._stamp_btm
        if stamp >= self._n:
            return False
        if (self._cids_top if top else self._cids_btm) is None:
            self._materialise(top)
        cid_cols = self._cids_top if top else self._cids_btm
        seen = self._seen_top if top else self._seen_btm
        heap = self._heap_top if top else self._heap_btm
        skip = self._skip
        full_score = self._full_score
        push = heapq.heappush
        for col in cid_cols:
            cid = col[stamp]
            if cid in seen:
                continue
            seen.add(cid)
            if cid in skip:
                # Accessed once during sorted access, then excluded from all
                # further (random-access) processing — §4.3.
                continue
            full = full_score(cid)
            push(heap, (-full, cid) if top else (full, cid))
        if top:
            self._stats.charge_sorted(len(self._tables))
            self._stamp_top += 1
        else:
            self._stats.charge_reverse(len(self._tables))
            self._stamp_btm += 1
        return True

    def _full_score(self, cid: int) -> float:
        """Score of one clip under ``g``, completing via random accesses
        (memoised: each table row is charged once across the whole run)."""
        cached = self._score_cache.get(cid)
        if cached is not None:
            return cached
        if self._lookups is None:
            self._lookups = [
                dict(zip(t._cids.tolist(), t._scores.tolist()))
                for t in self._tables
            ]
        scores: list[float] = []
        for table, lookup in zip(self._tables, self._lookups):
            value = lookup.get(cid)
            if value is None:
                # Tables already consulted were charged; this one was not.
                self._stats.charge_random(len(scores))
                raise StorageError(f"clip {cid} not in table {table.label!r}")
            scores.append(value)
        self._stats.charge_random(len(scores))
        score = self._scoring.clip_score(scores[0], scores[1:])
        self._score_cache[cid] = score
        return score

    def _next_extreme(self, top: bool) -> tuple[int | None, float]:
        heap = self._heap(top)
        rounds = 0
        while True:
            head = self._clean_heap(top)
            if head is not None:
                key, cid = head
                score = -key if top else key
                frontier = self._frontier_bound(top)
                beats = score >= frontier if top else score <= frontier
                if beats or self._stamp_at_end(top):
                    heapq.heappop(heap)
                    return cid, score
            if not top and rounds >= self._bottom_budget:
                return None, 0.0  # budget spent; resume next invocation
            if not self._advance(top):
                head = self._clean_heap(top)
                if head is not None:
                    key, cid = heapq.heappop(heap)
                    return cid, (-key if top else key)
                return None, 0.0
            rounds += 1

    def _stamp_at_end(self, top: bool) -> bool:
        stamp = self._stamp_top if top else self._stamp_btm
        return stamp >= self._n


def build_tbclip(
    tables_by_label: dict[str, ClipScoreTable],
    action_label: str,
    object_labels: list[str],
    scoring: ScoringScheme,
    skip: Container[int],
    stats: AccessStats,
) -> TBClipIterator:
    """Convenience constructor resolving tables by label."""
    try:
        action_table = tables_by_label[action_label]
        object_tables = [tables_by_label[label] for label in object_labels]
    except KeyError as exc:  # pragma: no cover - defensive
        raise StorageError(f"missing clip score table for {exc}") from exc
    return TBClipIterator(action_table, object_tables, scoring, skip, stats)
