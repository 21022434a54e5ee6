"""The unified, resumable streaming session.

Every online algorithm in the paper — SVAQ (Alg. 1+2), SVAQD (Alg. 3) and
footnote-3/4 compound queries — is one conceptual pipeline::

    evaluate clip  →  update quotas  →  assemble sequences

:class:`StreamSession` implements that pipeline once, incrementally,
parameterised along the two axes the algorithms actually differ on:

* a **quota policy** (:mod:`repro.core.policies`) — static critical values
  (SVAQ) or kernel-estimated dynamic ones (SVAQD);
* a **clip predicate** (:mod:`repro.core.predicates`) — conjunctive
  Algorithm-2 evaluation or CNF clause evaluation.

Every online entry point — ``SVAQ.run``, ``SVAQD.run``,
``OnlineEngine.run`` and ``run_queries``, the ingest phase and the
streaming service — advances sessions of this class through
:class:`repro.core.scheduler.FleetRun` (a single query is a fleet of
one).  Because the session is the single execution path, the
cross-cutting machinery lives here exactly once: checkpoint/resume
(:meth:`state_dict` / :meth:`load_state_dict`) works for *all* online
algorithms, per-stage accounting flows into one
:class:`~repro.core.context.ExecutionContext`, probe clips keep dynamic
estimators fed, and the selectivity-sorted evaluation order (footnote 5)
is computed in one place.

A surveillance deployment runs for days; the process will restart.  Feed
clips one at a time, checkpoint the complete dynamic state to a
JSON-serialisable dict at any clip boundary, and resume later (possibly in
a new process) with bit-identical behaviour — the resumed stream produces
exactly the sequences the uninterrupted run would have::

    session = StreamSession.for_query(zoo, query, video, config)
    while not stream.end():
        session.process(stream.next())
        if time_to_checkpoint:
            save(json.dumps(session.state_dict()))
    result = session.finish()

:class:`SvaqdSession` survives as the historical name for the dynamic
conjunctive configuration.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from repro.core.config import OnlineConfig
from repro.core.context import (
    STAGE_ASSEMBLE,
    STAGE_EVALUATE,
    STAGE_QUOTAS,
    ExecutionContext,
)
from repro.core.indicators import ClipEvaluation
from repro.core.optimizer import ConjunctOptimizer
from repro.core.policies import (
    DynamicQuotaPolicy,
    QuotaPolicy,
    StaticQuotaPolicy,
    policy_from_state_dict,
)
from repro.core.predicates import (
    CnfPredicate,
    ConjunctivePredicate,
    cnf_label_kinds,
)
from repro.core.query import CompoundQuery, Query
from repro.core.results import degraded_sequence_spans
from repro.core.sequences import SequenceAssembler
from repro.detectors.cache import DetectionScoreCache
from repro.detectors.zoo import ModelZoo
from repro.errors import ConfigurationError
from repro.utils.intervals import Interval
from repro.utils.validation import require_keys
from repro.video.model import ClipView
from repro.video.synthesis import LabeledVideo
from repro._typing import StateDict

if TYPE_CHECKING:
    from repro.core.ratebook import SharedRateBook

#: Format tag written into checkpoints; bump on any key change.  Only
#: the current version loads.
CHECKPOINT_VERSION = 5

#: The exact key set of a :meth:`StreamSession.state_dict` checkpoint.
_STATE_KEYS = frozenset(
    {
        "version", "clip_index", "prev_positive", "pending", "policy",
        "assembler", "optimizer", "trace", "cache", "degraded_clips", "held",
    }
)

#: Session lifecycle states.  A session is born RUNNING; the service layer
#: marks it DRAINING when no further clips will arrive (cancel requested or
#: stream exhausted, finish pending), SNAPSHOTTED when its state was
#: captured into a migration bundle (the local instance is then frozen —
#: the resumed copy elsewhere is the live one), and CLOSED once
#: :meth:`StreamSession.finish` has built the result.
SESSION_RUNNING = "running"
SESSION_DRAINING = "draining"
SESSION_SNAPSHOTTED = "snapshotted"
SESSION_CLOSED = "closed"


class StreamSession:
    """Incremental execution of one online query over one video stream."""

    #: Not checkpointed (RL002).  The deterministic components are
    #: reconstructed by the caller (see :meth:`load_state_dict`): the
    #: video/config/context handles and everything derived from them
    #: (``_labels``/``_n_labels``/``_armed``/``_chunkable``) come from
    #: building the session the same way the checkpointed one was built.
    #: ``_evaluations`` is per-clip trace data, deliberately *not* part of
    #: resumable state — a resumed session records only post-resume
    #: evaluations (contract pinned by ``test_session.py``), while
    #: sequences/stats do round-trip.  ``_record_trace`` is a constructor
    #: flag and ``_final_stats`` only exists after finish (finished
    #: sessions refuse to checkpoint).  ``_lifecycle`` is process-local: a
    #: restored session is by definition RUNNING (DRAINING/SNAPSHOTTED/
    #: CLOSED are terminal states of *this* instance, not of the logical
    #: query), and ``_on_emit`` is transient subscription wiring the
    #: service re-attaches after a resume.
    _CHECKPOINT_EXCLUDE = frozenset(
        {
            "_video",
            "_config",
            "_context",
            "_labels",
            "_n_labels",
            "_armed",
            "_chunkable",
            "_adaptive",
            "_epoch_clips",
            "_evaluations",
            "_record_trace",
            "_final_stats",
            "_lifecycle",
            "_on_emit",
        }
    )

    #: The declared state machine (RL007).  Only the methods named here
    #: may assign ``self._lifecycle``, each guarded on the current state;
    #: the values document the states a transition may fire from.
    _LIFECYCLE_ATTR = "_lifecycle"
    _LIFECYCLE_TRANSITIONS = {
        "drain": (SESSION_RUNNING, SESSION_DRAINING),
        "mark_snapshotted": (SESSION_RUNNING, SESSION_DRAINING),
        "finish": (SESSION_RUNNING, SESSION_DRAINING, SESSION_CLOSED),
    }

    def __init__(
        self,
        video: LabeledVideo,
        predicate: Any,
        policy: QuotaPolicy,
        config: OnlineConfig | None = None,
        *,
        record_trace: bool = False,
        context: ExecutionContext | None = None,
    ) -> None:
        self._video = video
        self._predicate = predicate
        self._policy = policy
        self._config = config or OnlineConfig()
        self._context = context if context is not None else ExecutionContext()
        predicate.attach_context(self._context)
        policy.attach_context(self._context)
        # Static quotas never move, so the per-clip dict build is hoisted
        # out of the hot loop (dynamic policies still read per clip).
        self._static_quotas = None if policy.dynamic else policy.quotas()
        self._labels = tuple(predicate.labels)
        self._n_labels = len(self._labels)
        # Static quotas freeze Algorithm 2's inputs for whole cache chunks,
        # so conjunctive sessions with a cache evaluate chunk-at-a-time
        # through a buffer (SVAQD moves quotas per clip and stays serial).
        # Armed fault tolerance needs the per-clip retry/degradation path,
        # so it also disables chunking.
        self._armed = self._config.fault_tolerant
        self._chunkable = (
            not policy.dynamic
            and not self._armed
            and getattr(predicate, "supports_chunking", False)
            and predicate.cache is not None
        )
        self._degraded_clips: list[int] = []
        self._chunk_buffer: list[tuple[Any, tuple]] = []
        self._buffer_pos = 0
        self._buffer_short_circuit: bool | None = None
        self._lifecycle = SESSION_RUNNING
        self._on_emit: Callable[[Interval], None] | None = None
        self._assembler = SequenceAssembler()
        self._evaluations: list[Any] = []
        self._pending: Any | None = None
        self._pending_map: Mapping[str, Any] | None = None
        self._prev_positive = False
        self._clip_index = 0
        self._finished = False
        self._record_trace = record_trace
        self._trace: list[dict[str, int]] = []
        self._final_stats = None
        # The conjunct optimizer owns the probe selectivity statistics
        # (footnote 5) and, under predicate_order="selective"/"cost",
        # ranks the conjuncts by firing rate / expected cost-to-falsify.
        # Probes evaluate every predicate, so the rates are unbiased by
        # the evaluation order itself.
        self._adaptive = (
            self._config.predicate_order != "user"
            and getattr(predicate, "supports_ordering", False)
        )
        cost_fn = getattr(predicate, "unit_cost_ms", None)
        self._optimizer = ConjunctOptimizer(
            predicate.labels, self._config.predicate_order, cost_fn=cost_fn
        )
        self._reorders_seen = 0
        # Static adaptive sessions refresh their order on cache-chunk
        # boundaries (the epoch), chunked or not, so the serial reference
        # path stays bit-identical to the chunked fast path.
        self._epoch_clips = (
            getattr(predicate, "chunk_clips", 0) if self._adaptive else 0
        )

    # -- construction ------------------------------------------------------------

    @classmethod
    def for_query(
        cls,
        zoo: ModelZoo,
        query: Query,
        video: LabeledVideo,
        config: OnlineConfig | None = None,
        *,
        dynamic: bool = True,
        k_crit_overrides: Mapping[str, int] | None = None,
        record_trace: bool = False,
        context: ExecutionContext | None = None,
        cache: DetectionScoreCache | None = None,
        rate_book: "SharedRateBook | None" = None,
        share_key: tuple[str, object] | None = None,
    ) -> "StreamSession":
        """A session over a canonical conjunctive query.

        ``dynamic=True`` is SVAQD (Algorithm 3); ``dynamic=False`` is SVAQ
        (Algorithm 1) with critical values fixed from the configured ``p₀``
        or pinned per label via ``k_crit_overrides``.  ``cache`` attaches a
        shared :class:`~repro.detectors.cache.DetectionScoreCache` so many
        sessions over one stream score each clip at most once (a
        :class:`~repro.core.scheduler.FleetRun` passes one per video).  ``rate_book`` plus a
        ``share_key`` of ``(member name, group key)`` analogously attaches
        the fleet's shared rate estimators: dynamic sessions admitted under
        the same group key share one rate series and quota refresh.
        """
        config = config or OnlineConfig()
        predicate = ConjunctivePredicate(zoo, query, video, config, cache=cache)
        policy = cls._build_policy(
            predicate.frame_labels,
            predicate.action_labels,
            video,
            config,
            dynamic=dynamic,
            k_crit_overrides=k_crit_overrides,
            rate_book=rate_book,
            share_key=share_key,
        )
        return cls(
            video, predicate, policy, config,
            record_trace=record_trace, context=context,
        )

    @classmethod
    def for_compound(
        cls,
        zoo: ModelZoo,
        compound: CompoundQuery,
        video: LabeledVideo,
        config: OnlineConfig | None = None,
        *,
        dynamic: bool = True,
        k_crit_overrides: Mapping[str, int] | None = None,
        record_trace: bool = False,
        context: ExecutionContext | None = None,
        cache: DetectionScoreCache | None = None,
        rate_book: "SharedRateBook | None" = None,
        share_key: tuple[str, object] | None = None,
    ) -> "StreamSession":
        """A session over a CNF compound query (footnotes 3–4)."""
        config = config or OnlineConfig()
        predicate = CnfPredicate(zoo, compound, video, config, cache=cache)
        frame_labels, action_labels = cnf_label_kinds(compound)
        policy = cls._build_policy(
            frame_labels, action_labels, video, config,
            dynamic=dynamic, k_crit_overrides=k_crit_overrides,
            rate_book=rate_book, share_key=share_key,
        )
        return cls(
            video, predicate, policy, config,
            record_trace=record_trace, context=context,
        )

    @staticmethod
    def _build_policy(
        frame_labels: Iterable[str],
        action_labels: Iterable[str],
        video: LabeledVideo,
        config: OnlineConfig,
        *,
        dynamic: bool,
        k_crit_overrides: Mapping[str, int] | None,
        rate_book: "SharedRateBook | None" = None,
        share_key: tuple[str, object] | None = None,
    ) -> QuotaPolicy:
        geometry = video.meta.geometry
        if dynamic:
            if rate_book is not None and share_key is not None:
                name, group_key = share_key
                return rate_book.admit(
                    group_key, name, frame_labels, action_labels,
                    geometry, config,
                )
            return DynamicQuotaPolicy.from_config(
                frame_labels, action_labels, geometry, config
            )
        return StaticQuotaPolicy.from_config(
            frame_labels, action_labels, geometry, config,
            overrides=k_crit_overrides,
        )

    # -- introspection -----------------------------------------------------------

    @property
    def clip_index(self) -> int:
        """Number of clips processed so far (= the next expected clip id)."""
        return self._clip_index

    @property
    def context(self) -> ExecutionContext:
        """The execution counters this session charges its work to."""
        return self._context

    @property
    def policy(self) -> QuotaPolicy:
        return self._policy

    @property
    def cache(self) -> DetectionScoreCache | None:
        """The session's detection score cache (None = serial path)."""
        return self._predicate.cache

    @property
    def lifecycle(self) -> str:
        """Current lifecycle state: RUNNING/DRAINING/SNAPSHOTTED/CLOSED."""
        return self._lifecycle

    # -- lifecycle ---------------------------------------------------------------

    def drain(self) -> None:
        """Announce that no further clips will arrive.

        DRAINING sits between the last :meth:`process` and :meth:`finish`
        — a cancelled or exhausted query that still owes its final result.
        Idempotent from RUNNING/DRAINING; a frozen or closed session
        cannot re-enter the pipeline.
        """
        if self._lifecycle in (SESSION_SNAPSHOTTED, SESSION_CLOSED):
            raise ConfigurationError(
                f"cannot drain a {self._lifecycle} session"
            )
        self._lifecycle = SESSION_DRAINING

    def mark_snapshotted(self) -> None:
        """Freeze this instance after its state was captured for migration.

        The snapshot is the live copy from here on: a frozen session
        refuses :meth:`process` and :meth:`finish`, so two instances can
        never both advance the same logical query.
        """
        if self._lifecycle == SESSION_CLOSED:
            raise ConfigurationError("cannot snapshot a finished session")
        self._lifecycle = SESSION_SNAPSHOTTED

    def set_emit_callback(
        self, on_emit: Callable[[Interval], None] | None
    ) -> None:
        """Subscribe to result sequences the moment they close.

        The callback fires for sequences closed by :meth:`process` and for
        the final open run closed by :meth:`finish`; sequences restored
        from a checkpoint are not re-emitted.  The service layer uses this
        to push results incrementally instead of waiting for end-of-stream.
        """
        self._on_emit = on_emit
        self._assembler.on_emit = on_emit

    def quotas(self) -> dict[str, int]:
        """Current per-predicate critical values."""
        return self._policy.quotas()

    def evaluation_order(self) -> list[str] | None:
        """The predicate order the next clip will be evaluated in.

        ``config.predicate_order = "selective"`` sorts predicates by their
        empirical clip-level selectivity (ascending firing rate — the
        predicate most likely to fail first) once at least three probe
        clips have been observed; ``"cost"`` ranks by expected model
        cost-to-falsify (cheapest likely-to-fail predicate first, sharing
        degrees included); before selectivity converges, and under
        ``"user"``, the query's own order stands (footnote 5).  CNF
        predicates fix their own clause order and return ``None``.
        """
        if not self._predicate.supports_ordering:
            return None
        override = self._order_override()
        return override if override is not None else list(self._predicate.labels)

    def _order_override(self, clip_id: int | None = None) -> list[str] | None:
        """The optimizer's order, or None when the user order stands — the
        hot loop passes None through so the evaluator can take its
        precomputed fast path (identical semantics to the user order).

        Dynamic sessions refresh per clip; static adaptive sessions pass
        the clip id and refresh once per chunk-aligned epoch, so the
        serial and chunked paths reorder on identical boundaries.
        """
        if not self._adaptive:
            return None
        if clip_id is not None and not self._policy.dynamic and self._epoch_clips:
            order = self._optimizer.order_for_epoch(clip_id // self._epoch_clips)
        else:
            order = self._optimizer.current_order()
        return list(order) if order is not None else None

    def _sync_reorders(self) -> None:
        """Mirror newly-counted order changes into the execution stats."""
        reorders = self._optimizer.reorders
        if reorders != self._reorders_seen:
            self._context.conjunct_reorders += reorders - self._reorders_seen
            self._reorders_seen = reorders

    def selectivity_estimates(self) -> dict[str, float | None]:
        """Empirical per-predicate firing rates from probe clips.

        ``None`` (not NaN) for labels no probe has observed yet, so the
        payload stays valid under strict JSON (``--stats-json``, the
        service health endpoint)."""
        return self._optimizer.selectivity_estimates()

    @property
    def chunkable(self) -> bool:
        """Whether this session runs the chunked static-quota fast path
        (adaptive ordering composes with it rather than disabling it)."""
        return self._chunkable

    @property
    def predicate_labels(self) -> tuple[str, ...]:
        """All predicate labels, in the user's order (for fleet planning)."""
        return self._labels

    def set_label_sharing(self, degrees: Mapping[str, int]) -> None:
        """Receive the fleet's label → live-query-count map; shared labels
        rank cheaper under cost ordering (their fresh inference amortises
        across sessions through the shared detection cache)."""
        self._optimizer.set_sharing(degrees)

    # -- streaming --------------------------------------------------------------

    def process(
        self, clip: ClipView, *, short_circuit: bool = True
    ) -> ClipEvaluation | None:
        """Evaluate one clip and fold it into the session state.

        Stage timing is inlined as ``perf_counter`` pairs: this method
        runs once per clip per session, where a context-manager timer was
        a measurable share of it.
        """
        if self._finished:
            raise ConfigurationError("session already finished")
        if self._lifecycle != SESSION_RUNNING:
            raise ConfigurationError(
                f"cannot process clips in a {self._lifecycle} session"
            )
        context = self._context
        if self._chunkable:
            # Static quotas: the whole pipeline reduces to consuming the
            # chunk buffer plus a few counter increments, so this branch
            # stays deliberately lean (one timing pair, charged to the
            # evaluate stage).  Adaptive ordering composes with it — the
            # order is decided at chunk-materialisation time, once per
            # epoch, and probe rows are marked inside the chunk.
            quotas = self._static_quotas
            if self._record_trace:
                self._trace.append(dict(quotas))
            start = time.perf_counter()
            clip_id = clip.clip_id
            buffer = self._chunk_buffer
            pos = self._buffer_pos
            if (
                pos >= len(buffer)
                or buffer[pos][0].clip_id != clip_id
                or self._buffer_short_circuit != short_circuit
            ):
                if pos < len(buffer):
                    # Mid-chunk invalidation: the unconsumed suffix was
                    # charged at materialisation time and is about to be
                    # re-materialised (and re-charged) — refund it first
                    # so the meter matches the per-clip path exactly.
                    self._predicate.reconcile_chunk(buffer[pos][0].clip_id)
                order = None
                probe_every = 0
                if self._adaptive:
                    probe_every = self._config.probe_every
                    order = self._order_override(clip_id)
                    self._sync_reorders()
                self._chunk_buffer = buffer = list(zip(
                    *self._predicate.evaluate_chunk(
                        clip_id, quotas, short_circuit=short_circuit,
                        order=order, probe_every=probe_every,
                        probe_offset=self._clip_index,
                    )
                ))
                self._buffer_short_circuit = short_circuit
                pos = 0
            evaluation, chunk_stats = buffer[pos]
            self._buffer_pos = pos + 1
            if self._adaptive:
                probe_every = self._config.probe_every
                if (
                    probe_every > 0
                    and self._clip_index % probe_every == 0
                ):
                    context.probe_clips += 1
                    for outcome in evaluation.outcomes:
                        if outcome.evaluated and not outcome.degraded:
                            self._optimizer.observe(
                                outcome.label, outcome.indicator
                            )
            evaluated_n, obj_fresh, obj_cached, act_fresh, act_cached = (
                chunk_stats
            )
            # Meter charges landed at chunk-evaluation time; the logical
            # per-session invocation counters land here, per clip.
            context.detector_invocations += obj_fresh + obj_cached
            context.detector_cache_hits += obj_cached
            context.recognizer_invocations += act_fresh + act_cached
            context.recognizer_cache_hits += act_cached
            self._clip_index += 1
            context.clips_processed += 1
            context.predicates_evaluated += evaluated_n
            context.predicates_skipped += self._n_labels - evaluated_n
            self._evaluations.append(evaluation)
            emitted = self._assembler.push(clip_id, evaluation.positive)
            if emitted is not None:
                context.sequences_emitted += 1
            pending = self._pending
            if pending is not None:
                # Static quotas never move (the policy update is a no-op
                # by design); only the guard-band lookahead is tracked.
                self._prev_positive = pending.positive
            self._pending = evaluation
            context.add_stage_time(
                STAGE_EVALUATE, time.perf_counter() - start
            )
            return evaluation
        dynamic = self._policy.dynamic
        probe_every = self._config.probe_every
        # Adaptive static sessions probe too — their selectivity estimates
        # need unbiased observations just like the dynamic estimators do.
        probing = (
            (dynamic or self._adaptive)
            and probe_every > 0
            and self._clip_index % probe_every == 0
        )
        quotas = (
            self._static_quotas
            if self._static_quotas is not None
            else self._policy.quotas()
        )
        if self._record_trace:
            self._trace.append(dict(quotas))
        order = self._order_override(clip.clip_id)
        if self._adaptive:
            self._sync_reorders()
        start = time.perf_counter()
        evaluation = self._predicate.evaluate(
            clip.clip_id,
            quotas,
            short_circuit=short_circuit and not probing,
            order=order,
        )
        context.add_stage_time(STAGE_EVALUATE, time.perf_counter() - start)
        outcome_map = self._predicate.outcome_map(evaluation)
        evaluated_n = 0
        for outcome in outcome_map.values():
            if outcome.evaluated:
                evaluated_n += 1
        if probing:
            context.probe_clips += 1
            for outcome in outcome_map.values():
                # Degraded outcomes carry no fresh model evidence, so they
                # must not teach the selectivity estimator.
                if outcome.evaluated and not outcome.degraded:
                    self._optimizer.observe(outcome.label, outcome.indicator)
        self._clip_index += 1
        context.clips_processed += 1
        context.predicates_evaluated += evaluated_n
        context.predicates_skipped += self._n_labels - evaluated_n
        if self._armed and evaluation.degraded:
            context.clips_degraded += 1
            self._degraded_clips.append(clip.clip_id)
        self._evaluations.append(evaluation)
        start = time.perf_counter()
        emitted = self._assembler.push(clip.clip_id, evaluation.positive)
        context.add_stage_time(STAGE_ASSEMBLE, time.perf_counter() - start)
        if emitted is not None:
            context.sequences_emitted += 1
        pending = self._pending
        if dynamic:
            start = time.perf_counter()
            if pending is not None:
                self._policy.update(
                    self._pending_map,
                    positive=pending.positive,
                    in_guard_band=self._prev_positive or evaluation.positive,
                )
                context.quota_refreshes += 1
                self._prev_positive = pending.positive
            context.add_stage_time(STAGE_QUOTAS, time.perf_counter() - start)
        elif pending is not None:
            # Static quotas never move (the policy update is a no-op by
            # design), so the quotas stage reduces to guard-band tracking.
            self._prev_positive = pending.positive
        self._pending = evaluation
        self._pending_map = outcome_map
        return evaluation

    def finish(self) -> Any:
        """Close the stream and return the run's result."""
        if self._lifecycle == SESSION_SNAPSHOTTED:
            raise ConfigurationError(
                "a snapshotted session is frozen; resume the captured "
                "state in a new instance instead"
            )
        if not self._finished:
            start = time.perf_counter()
            if self._pending is not None:
                if self._policy.dynamic:
                    self._policy.update(
                        self._pending_map
                        if self._pending_map is not None
                        else self._predicate.outcome_map(self._pending),
                        positive=self._pending.positive,
                        in_guard_band=self._prev_positive,
                    )
                    self._context.quota_refreshes += 1
                self._pending = None
                self._pending_map = None
            self._context.add_stage_time(
                STAGE_QUOTAS, time.perf_counter() - start
            )
            start = time.perf_counter()
            emitted = self._assembler.finish()
            self._context.add_stage_time(
                STAGE_ASSEMBLE, time.perf_counter() - start
            )
            if emitted is not None:
                self._context.sequences_emitted += 1
            if self._degraded_clips:
                self._context.sequences_degraded += len(
                    degraded_sequence_spans(
                        self._assembler.result(),
                        tuple(self._degraded_clips),
                    )
                )
            self._finished = True
            self._lifecycle = SESSION_CLOSED
            self._final_stats = self._context.snapshot()
        return self._predicate.build_result(
            video_id=self._video.video_id,
            sequences=self._assembler.result(),
            evaluations=tuple(self._evaluations),
            final_rates=self._policy.rates(),
            k_crit_trace=tuple(self._trace) if self._record_trace else (),
            stats=self._final_stats,
            degraded_clips=tuple(self._degraded_clips),
            selectivity=self.selectivity_estimates(),
        )

    # -- checkpointing -------------------------------------------------------------

    def state_dict(self) -> StateDict:
        """Complete dynamic state, JSON-serialisable.

        Captures everything that influences future decisions: the quota
        policy's state (estimators or static quotas), the open result run,
        the guard-band lookahead and the probe counter.  Already-emitted
        sequences are included so the resumed session's final result is
        the full stream's.  The detection score cache's charge
        bookkeeping rides along, so a resumed session keeps metering
        already-charged clips as cache hits rather than re-charging fresh
        model units.
        """
        if self._finished:
            raise ConfigurationError("cannot checkpoint a finished session")
        cache = self._predicate.cache
        return {
            "version": CHECKPOINT_VERSION,
            "clip_index": self._clip_index,
            "prev_positive": self._prev_positive,
            "pending": (
                self._predicate.evaluation_to_dict(self._pending)
                if self._pending is not None
                else None
            ),
            "policy": self._policy.state_dict(),
            "assembler": self._assembler.state_dict(),
            # The conjunct optimizer's full state (probe statistics,
            # reorder counter, stored epoch order).
            "optimizer": self._optimizer.state_dict(),
            "trace": list(self._trace),
            "cache": cache.state_dict() if cache is not None else None,
            # Fault-tolerance state.  The degraded-clip list feeds the
            # final result/stats; the held estimates make a resumed
            # ``hold_last_estimate`` session replay the same counts the
            # uninterrupted run would.
            "degraded_clips": list(self._degraded_clips),
            "held": (
                self._predicate.held_state()
                if hasattr(self._predicate, "held_state")
                else {}
            ),
        }

    def load_state_dict(self, state: StateDict) -> "StreamSession":
        """Restore the dynamic state captured by :meth:`state_dict`.

        The deterministic components (models, video, query, config) are
        reconstructed by the caller — build the session exactly as the
        checkpointed one was built, then load.  Returns ``self``.

        Reads exactly what :meth:`state_dict` writes: a checkpoint of
        another version, or with a missing or unknown key, raises
        :class:`~repro.errors.ConfigurationError` rather than loading
        with defaults.
        """
        require_keys(state, _STATE_KEYS, "session checkpoint")
        if state["version"] != CHECKPOINT_VERSION:
            raise ConfigurationError(
                f"unsupported checkpoint version {state['version']!r}; this "
                f"build reads version {CHECKPOINT_VERSION}"
            )
        self._clip_index = int(state["clip_index"])
        self._prev_positive = bool(state["prev_positive"])
        pending = state["pending"]
        self._pending = (
            self._predicate.evaluation_from_dict(pending)
            if pending is not None
            else None
        )
        self._pending_map = (
            self._predicate.outcome_map(self._pending)
            if self._pending is not None
            else None
        )
        self._chunk_buffer = []
        self._buffer_pos = 0
        self._buffer_short_circuit = None
        self._lifecycle = SESSION_RUNNING
        self._finished = False
        self._policy = policy_from_state_dict(state["policy"], self._policy)
        if not self._policy.dynamic:
            self._static_quotas = self._policy.quotas()
        cache_state = state["cache"]
        cache = self._predicate.cache
        if cache_state is not None and cache is not None:
            cache.load_state_dict(cache_state)
        self._assembler = SequenceAssembler.from_state_dict(
            state["assembler"], on_emit=self._on_emit
        )
        self._degraded_clips = [int(c) for c in state["degraded_clips"]]
        held = state["held"]
        if held and hasattr(self._predicate, "load_held_state"):
            self._predicate.load_held_state(held)
        self._optimizer.load_state_dict(state["optimizer"])
        self._reorders_seen = self._optimizer.reorders
        self._trace = [
            {label: int(k) for label, k in entry.items()}
            for entry in state["trace"]
        ]
        return self


class SvaqdSession(StreamSession):
    """Incremental SVAQD over one video stream — the historical name for
    ``StreamSession.for_query(..., dynamic=True)``, kept for its
    positional ``(zoo, query, video, config)`` constructor."""

    def __init__(
        self,
        zoo: ModelZoo,
        query: Query,
        video: LabeledVideo,
        config: OnlineConfig | None = None,
        *,
        record_trace: bool = False,
        context: ExecutionContext | None = None,
    ) -> None:
        config = config or OnlineConfig()
        predicate = ConjunctivePredicate(zoo, query, video, config)
        policy = DynamicQuotaPolicy.from_config(
            predicate.frame_labels,
            predicate.action_labels,
            video.meta.geometry,
            config,
        )
        super().__init__(
            video, predicate, policy, config,
            record_trace=record_trace, context=context,
        )

    def process(
        self, clip: ClipView, *, short_circuit: bool = True
    ) -> ClipEvaluation:
        return super().process(clip, short_circuit=short_circuit)

    @classmethod
    def from_state_dict(
        cls,
        state: StateDict,
        zoo: ModelZoo,
        query: Query,
        video: LabeledVideo,
        config: OnlineConfig | None = None,
    ) -> "SvaqdSession":
        """Rebuild a session from :meth:`StreamSession.state_dict` output."""
        session = cls(zoo, query, video, config)
        session.load_state_dict(state)
        return session
