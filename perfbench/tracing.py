"""In-memory span tracer that wraps layer functions from outside ``src/``.

The program under test carries no instrumentation of its own yet, so the
traced run installs wrappers around the public functions and methods at
each layer boundary (``LAYERS`` below), records one span per call —
name, start, end, parent — in flat in-memory columns, and restores the
originals when the run ends.  Spans are written to disk only after the
measured work is over.

A layer's *busy* time is the summed duration of its outermost spans (a
layer re-entering itself is not counted twice); its *self* time is the
time inside its spans not covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

#: (layer, "module:Class.method" or "module:function") wrapped by the
#: traced run.  A layer may name several targets; their spans pool.
LAYERS: tuple[tuple[str, str], ...] = (
    ("storage.ingest_many", "repro.storage.ingest:ingest_many"),
    ("storage.ingest_video", "repro.storage.ingest:ingest_video"),
    ("core.svaqd_run", "repro.core.svaqd:SVAQD.run"),
    ("detectors.tracker", "repro.detectors.tracker:SimulatedTracker.tracks_in_clip"),
    ("detectors.recognizer",
     "repro.detectors.simulated:SimulatedActionRecognizer.score_video"),
    ("storage.save", "repro.storage.repository:VideoRepository.save"),
    ("storage.load", "repro.storage.repository:VideoRepository.load"),
    ("storage.table", "repro.storage.repository:VideoRepository.table"),
    ("sql.parse_plan", "repro.sql:parse"),
    ("sql.parse_plan", "repro.sql:plan"),
    ("core.rvaq.top_k", "repro.core.rvaq:RVAQ.top_k"),
    ("core.result_sequences", "repro.core.rvaq:RVAQ.result_sequences"),
    ("core.tbclip.next_batch", "repro.core.tbclip:TBClipIterator.next_batch"),
    ("core.session.process", "repro.core.session:StreamSession.process"),
    ("core.session.process", "repro.core.session:SvaqdSession.process"),
    ("core.evaluator.evaluate", "repro.core.indicators:ClipEvaluator.evaluate"),
    ("core.evaluator.evaluate_chunk",
     "repro.core.indicators:ClipEvaluator.evaluate_chunk"),
    ("core.fleet.advance", "repro.core.scheduler:FleetRun.advance"),
    ("core.fleet.register", "repro.core.scheduler:FleetRun.register"),
    ("core.fleet.cancel", "repro.core.scheduler:FleetRun.cancel"),
    ("core.rate_book.flush", "repro.core.ratebook:SharedRateBook.flush"),
    ("scanstats.rate_bank", "repro.scanstats.kernel:KernelRateBank.*"),
    ("detectors.cache", "repro.detectors.cache:DetectionScoreCache.lookup"),
    ("detectors.cache", "repro.detectors.cache:DetectionScoreCache.counts_block"),
    ("detectors.cache", "repro.detectors.cache:DetectionScoreCache.counts"),
    ("service.step", "repro.service.service:QueryService.step"),
    ("service.register", "repro.service.service:QueryService.register"),
    ("service.cancel", "repro.service.service:QueryService.cancel"),
    ("service.health", "repro.service.service:QueryService.health"),
)


class Tracer:
    """Nested spans kept in flat columns; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_idx: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self._restore: list[Callable[[], None]] = []

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name: str) -> int:
        """Start a span; pair with :meth:`close` (spans must nest)."""
        span = len(self.start)
        self.name_idx.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(time.perf_counter())
        return span

    def close(self, span: int) -> None:
        self.end[span] = time.perf_counter()
        popped = self._stack.pop()
        if popped != span:
            raise RuntimeError(f"span {span} closed out of order ({popped})")

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        name_id = self._name_id(name)
        name_idx, parent, start, end, stack = (
            self.name_idx, self.parent, self.start, self.end, self._stack,
        )
        clock = time.perf_counter

        # open()/close() inlined: this runs once per call of a wrapped
        # function, up to a million times in one traced run.
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = len(start)
            name_idx.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()

        return traced

    # -- installation ------------------------------------------------------------

    def install(self, layers: Iterable[tuple[str, str]] = LAYERS) -> None:
        """Wrap every target in ``layers``; :meth:`uninstall` undoes it."""
        for layer, target in layers:
            module_name, _, attr_path = target.partition(":")
            module = importlib.import_module(module_name)
            if "." not in attr_path:
                self._patch(module, attr_path, layer)
                continue
            cls_name, _, method = attr_path.partition(".")
            cls = getattr(module, cls_name)
            if method == "*":
                methods = [
                    name for name, value in vars(cls).items()
                    if not name.startswith("_") and inspect.isfunction(value)
                ]
            else:
                methods = [method]
            for name in methods:
                self._patch(cls, name, layer)

    def _patch(self, owner: Any, attr: str, layer: str) -> None:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            patched: Any = classmethod(self.wrap(layer, raw.__func__))
        elif isinstance(raw, staticmethod):
            patched = staticmethod(self.wrap(layer, raw.__func__))
        else:
            patched = self.wrap(layer, raw)
        had_own = attr in vars(owner) if inspect.isclass(owner) else True
        setattr(owner, attr, patched)

        def restore() -> None:
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

        self._restore.append(restore)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- analysis -----------------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        n = len(self.end)
        return {
            "name": np.asarray(self.name_idx[:n], dtype=np.int32),
            "start": np.asarray(self.start[:n], dtype=np.float64),
            "end": np.asarray(self.end[:n], dtype=np.float64),
            "parent": np.asarray(self.parent[:n], dtype=np.int64),
        }

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: outermost ``calls``, busy ``s``, ``self_s`` and
        the longest single call ``max_s``."""
        cols = self.columns()
        names, parent = cols["name"], cols["parent"]
        dur = cols["end"] - cols["start"]
        n = len(dur)
        # Outermost = no ancestor with the same name.  Parents precede
        # children, so one forward pass resolves each span's answer.
        outer = np.ones(n, dtype=bool)
        nearest: dict[tuple[int, int], bool] = {}
        for i in range(n):
            p = int(parent[i])
            if p >= 0:
                own = int(names[i])
                key = (p, own)
                hit = nearest.get(key)
                if hit is None:
                    q, hit = p, False
                    while q >= 0:
                        if names[q] == own:
                            hit = True
                            break
                        q = int(parent[q])
                    nearest[key] = hit
                outer[i] = not hit
        # Time each span spends inside its direct children; summed over
        # every span of a name this leaves the time exclusive to it.
        child = np.zeros(n)
        has_parent = parent >= 0
        idx = np.nonzero(has_parent)[0]
        if len(idx):
            np.add.at(child, parent[idx], dur[idx])
        stats: dict[str, dict[str, float]] = {}
        for name_id, name in enumerate(self.names):
            mask = names == name_id
            if not mask.any():
                continue
            sel = mask & outer
            stats[name] = {
                "calls": float(sel.sum()),
                "s": float(dur[sel].sum()),
                "self_s": float((dur[mask] - child[mask]).sum()),
                "max_s": float(dur[sel].max()) if sel.any() else 0.0,
            }
        return stats

    def top_level_s(self, root: int) -> float:
        """Summed duration of the direct children of span ``root``."""
        cols = self.columns()
        kids = cols["parent"] == root
        return float((cols["end"][kids] - cols["start"][kids]).sum())

    def dump(self, path: Path) -> None:
        """Write every span (columnar, names interned) to ``path`` and the
        per-name statistics of :meth:`layer_stats` next to it as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.asarray(self.names), **self.columns())
        path.with_suffix(".json").write_text(
            json.dumps(self.layer_stats(), indent=1, sort_keys=True) + "\n"
        )


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._id = -1

    def __enter__(self) -> int:
        self._id = self._tracer.open(self._name)
        return self._id

    def __exit__(self, *exc: object) -> None:
        self._tracer.close(self._id)
