"""Dynamic background-probability management shared by SVAQD and dynamic
compound queries.

One :class:`QuotaManager` owns, per query predicate, a kernel rate
estimator (§3.3) plus the critical-value tables for the detection quota
(Eq. 5 at ``alpha``) and the lenient background quota (at
``alpha_background``).  The update policy — which clips count as null data
— is documented on :meth:`QuotaManager.update`; conjunctive (Algorithm 3)
and compound sessions drive it identically.

The estimators live in a :class:`repro.scanstats.kernel.KernelRateBank`
(columnar NumPy state, one vectorised Eq. 6 pass per chunk) with
:class:`~repro.scanstats.kernel.BankedRateEstimator` views in each
tracker, and quota refresh is *incremental*: every tracker remembers the
open probability interval of its last quantised bucket and skips the
``log10``/table pass entirely while its rate stays strictly inside —
``refresh_all`` is O(labels-that-moved) per clip instead of O(labels).
Both changes are bit-identical to the scalar reference path (the
equivalence suites pin this).

A manager normally owns a private bank; a
:class:`repro.core.ratebook.SharedRateBook` can instead allocate its rows
inside one fleet-wide bank and register itself as the manager's *sink*, in
which case :meth:`update` enqueues the composed per-clip arrays for the
book's single end-of-clip flush rather than applying them immediately.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Protocol, cast

import numpy as np

from repro.core.config import OnlineConfig
from repro.core.context import STAGE_ESTIMATOR, STAGE_REFRESH
from repro.core.indicators import PredicateOutcome
from repro.errors import ConfigurationError
from repro.scanstats.critical import CriticalValueTable
from repro.scanstats.kernel import (
    BankedRateEstimator,
    KernelRateBank,
    KernelRateEstimator,
)
from repro.utils.validation import require_keys
from repro.video.model import VideoGeometry
from repro._typing import StateDict

if TYPE_CHECKING:
    from repro.core.context import ExecutionContext


class RateUpdateSink(Protocol):
    """Receiver for deferred per-clip estimator updates.

    A fleet-level rate book implements this to collect every member
    manager's composed update arrays and fold them into the shared bank in
    one vectorised pass per clip (after all sessions have read the
    pre-update quotas — the same read-then-update cadence a serial session
    has).
    """

    def enqueue(
        self,
        manager: "QuotaManager",
        counts: np.ndarray,
        units: np.ndarray,
        fold: np.ndarray,
    ) -> None: ...

    def resync(self, manager: "QuotaManager") -> None:
        """Adopt ``manager``'s bucket-skip memo after it reloads state."""


@dataclass
class PredicateTracker:
    """Estimator + critical-value tables for one predicate.

    ``table`` yields the detection quota ``k_crit``; ``bg_table`` yields
    the lenient background quota ``k_bg`` below which a clip's counts are
    trusted as null data for the estimator.
    """

    estimator: KernelRateEstimator | BankedRateEstimator
    table: CriticalValueTable
    bg_table: CriticalValueTable
    k_crit: int = 0
    k_bg: int = 0

    def refresh(self) -> None:
        rate = self.estimator.rate
        self.k_crit = self.table.lookup(rate)
        self.k_bg = self.bg_table.lookup(rate)


class QuotaManager:
    """Per-predicate dynamic quotas for one streaming run."""

    #: Not checkpointed (RL002): rebuilt from constructor arguments — the
    #: caller reconstructs the manager with the same labels/geometry/config
    #: before ``load_state_dict``, and the tracker list, bank wiring,
    #: bucket-skip memo and accounting hooks are all derived state.  The
    #: estimator payload itself rides in ``state_dict()["estimators"]``.
    _CHECKPOINT_EXCLUDE = frozenset(
        {
            "_config",
            "_tracker_list",
            "_uniform_buckets",
            "_bank",
            "_row0",
            "_private_bank",
            "_label_index",
            "_sink",
            "_context",
            "_rate_lo",
            "_rate_hi",
            "refresh_skipped",
        }
    )

    def __init__(
        self,
        frame_labels: Iterable[str],
        action_labels: Iterable[str],
        geometry: VideoGeometry,
        config: OnlineConfig,
        *,
        bank: KernelRateBank | None = None,
    ) -> None:
        self._config = config
        frames_per_clip = geometry.frames_per_clip
        shots_per_clip = geometry.shots_per_clip
        shot_horizon = max(
            shots_per_clip, config.horizon_ou // geometry.frames_per_shot
        )
        shot_bandwidth = max(
            1.0, config.kernel_bandwidth_ou / geometry.frames_per_shot
        )
        self._trackers: dict[str, PredicateTracker] = {}
        for label in frame_labels:
            self._trackers[label] = self._make_tracker(
                bandwidth=config.kernel_bandwidth_ou,
                initial_p=config.object_p0,
                w=frames_per_clip,
                n=config.horizon_ou,
            )
        for label in action_labels:
            self._trackers[label] = self._make_tracker(
                bandwidth=shot_bandwidth,
                initial_p=config.action_p0,
                w=shots_per_clip,
                n=shot_horizon,
            )
        self._tracker_list = list(self._trackers.values())
        self._label_index = {
            label: i for i, label in enumerate(self._trackers)
        }
        # The vectorised refresh quantises every rate in one pass, which is
        # only valid when all tables share one bucketing (they do, unless a
        # caller swaps in tables with custom resolution/p_floor).
        quantisations = {
            (t.resolution, t.p_floor)
            for tracker in self._tracker_list
            for t in (tracker.table, tracker.bg_table)
        }
        self._uniform_buckets = len(quantisations) <= 1
        # Move the estimators into a bank: a private one by default, or the
        # caller's shared bank (fleet rate sharing).  Trackers keep live
        # row views, so `tracker.estimator` stays a full estimator API.
        self._private_bank = bank is None
        self._bank = bank if bank is not None else KernelRateBank()
        rows = self._bank.extend(
            cast(
                "list[KernelRateEstimator]",
                [t.estimator for t in self._tracker_list],
            )
        )
        self._row0 = rows.start
        for offset, tracker in enumerate(self._tracker_list):
            tracker.estimator = BankedRateEstimator(
                self._bank, self._row0 + offset
            )
        self._sink: RateUpdateSink | None = None
        self._context: "ExecutionContext | None" = None
        #: Open interval of each tracker's last quantised bucket; a rate
        #: strictly inside skips the ``log10``/table pass on refresh.
        #: Plain lists — per-manager tracker counts are small, and scalar
        #: reads beat NumPy indexing at this size.
        self._rate_lo: list[float] = [math.inf] * len(self._tracker_list)
        self._rate_hi: list[float] = [-math.inf] * len(self._tracker_list)
        #: Label lookups skipped by the bucket-skip fast path (observable
        #: per manager; also mirrored into the attached context).
        self.refresh_skipped = 0
        self.refresh_all()

    def _make_tracker(
        self, bandwidth: float, initial_p: float, w: int, n: int
    ) -> PredicateTracker:
        burstiness = self._config.markov_burstiness
        return PredicateTracker(
            estimator=KernelRateEstimator(bandwidth=bandwidth, initial_p=initial_p),
            table=CriticalValueTable(
                w=w, n=n, alpha=self._config.alpha, burstiness=burstiness
            ),
            bg_table=CriticalValueTable(
                w=w, n=n, alpha=self._config.alpha_background,
                burstiness=burstiness,
            ),
        )

    # -- wiring ------------------------------------------------------------------

    @property
    def bank(self) -> KernelRateBank:
        """The bank holding this manager's estimator rows."""
        return self._bank

    @property
    def bank_rows(self) -> range:
        """This manager's row span inside :attr:`bank`."""
        return range(self._row0, self._row0 + len(self._tracker_list))

    def set_sink(
        self,
        sink: RateUpdateSink | None,
        *,
        skip_bounds: tuple[list[float], list[float]] | None = None,
    ) -> None:
        """Defer updates to ``sink`` (``None`` = apply immediately).

        While deferred, quota refresh belongs to the sink, so switching
        modes resets the local bucket-skip memo: to ``skip_bounds`` when
        the sink hands back its own memo for these rows, else to "recompute
        everything".
        """
        self._sink = sink
        if skip_bounds is None:
            self._invalidate_skip()
        else:
            self._rate_lo, self._rate_hi = skip_bounds

    @property
    def skip_bounds(self) -> tuple[list[float], list[float]]:
        """The bucket-skip memo: each tracker's open rate interval."""
        return list(self._rate_lo), list(self._rate_hi)

    def set_context(self, context: "ExecutionContext | None") -> None:
        """Attach the execution context charged for estimator/refresh time."""
        self._context = context

    def _invalidate_skip(self) -> None:
        n = len(self._tracker_list)
        self._rate_lo = [math.inf] * n
        self._rate_hi = [-math.inf] * n

    # -- queries -----------------------------------------------------------------

    def quotas(self) -> dict[str, int]:
        """Current ``k_crit`` per predicate label."""
        return {label: t.k_crit for label, t in self._trackers.items()}

    def rates(self) -> dict[str, float]:
        """Current background-probability estimates per label."""
        return {label: t.estimator.rate for label, t in self._trackers.items()}

    def tracker(self, label: str) -> PredicateTracker:
        return self._trackers[label]

    def refresh_all(self) -> None:
        """Refresh every tracker's quotas from its current rate estimate.

        The fast path is incremental: a tracker whose rate is still
        strictly inside its last bucket's safe interval
        (:meth:`~repro.scanstats.critical.CriticalValueTable.bucket_bounds`)
        keeps its quotas without touching ``log10`` or the table memo —
        the same values ``tracker.refresh()`` would produce, because
        within a bucket the table is constant by construction.  Managers
        with non-uniform table quantisation take the per-tracker
        reference path on live tracker state.
        """
        trackers = self._tracker_list
        if not self._uniform_buckets:
            for tracker in trackers:
                tracker.refresh()
            # Quotas may have come from swapped-in tables; the skip memo
            # no longer describes them.
            self._invalidate_skip()
            return
        rate_lo = self._rate_lo
        rate_hi = self._rate_hi
        skipped = 0
        for i, tracker in enumerate(trackers):
            rate = tracker.estimator.rate
            if rate_lo[i] < rate < rate_hi[i]:
                skipped += 1
                continue
            bucket = tracker.table.bucket_of(rate)
            tracker.k_crit = tracker.table.lookup_bucket(bucket)
            tracker.k_bg = tracker.bg_table.lookup_bucket(bucket)
            rate_lo[i], rate_hi[i] = tracker.table.bucket_bounds(bucket)
        self.refresh_skipped += skipped
        if self._context is not None:
            self._context.refresh_skipped += skipped

    def labels(self) -> tuple[str, ...]:
        """Tracked predicate labels, in registration order."""
        return tuple(self._trackers)

    # -- checkpointing -----------------------------------------------------------

    def state_dict(self) -> StateDict:
        """JSON-serialisable snapshot of every estimator.

        Each entry carries the :class:`KernelRateEstimator` class tag
        alongside its state; bank rows serialise through their views in
        the scalar interchange format.
        """
        return {
            "estimators": {
                label: {
                    "class": _ESTIMATOR_TAG,
                    "state": tracker.estimator.state_dict(),
                }
                for label, tracker in self._trackers.items()
            }
        }

    def load_state_dict(self, state: StateDict) -> None:
        """Restore estimator states from :meth:`state_dict` output.

        The checkpoint must hold one entry per label of this manager, each
        tagged :class:`KernelRateEstimator`; anything else raises
        :class:`~repro.errors.ConfigurationError` before a row is touched.
        The states land back in the bank rows.
        """
        entries = require_keys(
            state["estimators"], frozenset(self._trackers), "estimator checkpoint"
        )
        for label, entry in entries.items():
            require_keys(entry, _ENTRY_KEYS, f"estimator entry {label!r}")
            if entry["class"] != _ESTIMATOR_TAG:
                raise ConfigurationError(
                    f"estimator {label!r} is tagged {entry['class']!r}; this "
                    f"build restores only {_ESTIMATOR_TAG!r}"
                )
        for label, entry in entries.items():
            self._bank.load_row(
                self._row0 + self._label_index[label], entry["state"]
            )
        self._invalidate_skip()
        self.refresh_all()
        if self._sink is not None:
            self._sink.resync(self)

    # -- updates -----------------------------------------------------------------

    def update(
        self,
        outcomes: Mapping[str, PredicateOutcome],
        *,
        positive: bool,
        in_guard_band: bool,
    ) -> None:
        """Fold one clip into the estimators and refresh quotas.

        Under the default ``update_on="negative"`` policy a predicate's
        counts feed its estimator only when the clip is credibly null data
        (§3.2 defines the background over stretches where the query
        predicates are not satisfied): the clip is query-negative and not
        adjacent to a detection (``in_guard_band``).  Everything else —
        including short-circuit-skipped predicates — advances the
        estimator clock with rate-preserving imputation.

        With a sink attached the composed update is enqueued for the
        sink's end-of-clip flush instead of applied here.
        """
        counts, units, fold = self._compose_update(
            outcomes, positive=positive, in_guard_band=in_guard_band
        )
        if self._sink is not None:
            self._sink.enqueue(self, counts, units, fold)
            return
        self._apply_and_refresh(counts, units, fold)

    def _compose_update(
        self,
        outcomes: Mapping[str, PredicateOutcome],
        *,
        positive: bool,
        in_guard_band: bool,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One clip's outcomes as per-tracker (counts, units, fold) arrays."""
        policy = self._config.update_on
        n = len(self._tracker_list)
        counts = np.zeros(n, dtype=np.int64)
        units = np.zeros(n, dtype=np.int64)
        fold_arr = np.zeros(n, dtype=bool)
        for i, (label, tracker) in enumerate(self._trackers.items()):
            outcome = outcomes.get(label)
            if outcome is not None and outcome.evaluated:
                units[i] = outcome.units
                if outcome.degraded:
                    # hold_last_estimate: replayed counts are not fresh
                    # evidence — a flapping detector must not poison the
                    # background estimate (Eq. 6), so the clock advances
                    # with rate-preserving imputation instead.
                    continue
                if policy == "all":
                    fold = True
                elif policy == "positive":
                    fold = positive
                else:
                    fold = not in_guard_band and not positive
                if fold:
                    fold_arr[i] = True
                    counts[i] = outcome.count
            else:
                units[i] = tracker.table.w
        return counts, units, fold_arr

    def _apply_and_refresh(
        self, counts: np.ndarray, units: np.ndarray, fold: np.ndarray
    ) -> None:
        """Apply one composed update to this manager's rows and refresh."""
        start = time.perf_counter()
        if self._private_bank:
            self._bank.apply(counts, units, fold)
        else:
            # Immediate mode on a shared bank (post-seal / detached
            # stragglers): touch only this manager's row span.
            row0 = self._row0
            for i in range(len(self._tracker_list)):
                total = int(units[i])
                if total == 0:
                    continue
                if fold[i]:
                    self._bank.observe_batch_row(row0 + i, int(counts[i]), total)
                else:
                    self._bank.advance_row(row0 + i, total)
        mid = time.perf_counter()
        self.refresh_all()
        if self._context is not None:
            self._context.add_stage_time(STAGE_ESTIMATOR, mid - start)
            self._context.add_stage_time(
                STAGE_REFRESH, time.perf_counter() - mid
            )


#: Class tag of every estimator entry a checkpoint carries.
_ESTIMATOR_TAG = f"{KernelRateEstimator.__module__}:{KernelRateEstimator.__qualname__}"

#: The exact key set of one estimator entry.
_ENTRY_KEYS = frozenset({"class", "state"})
