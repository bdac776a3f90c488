"""Phase tracing: accumulated wall-clock per pipeline stage, plus the facade.

:class:`Telemetry` is the object the rest of the codebase holds — it bundles
a :class:`~repro.obs.registry.MetricsRegistry`, an
:class:`~repro.obs.events.EventRing`, and a set of **phase timers**.
``telemetry.phase("assign")`` returns a reusable context manager (usable as
a decorator too) that adds elapsed ``perf_counter`` seconds and a call count
to that phase's slot in a preallocated array.

Instrumentation granularity is deliberately coarse: phases wrap whole batch
chunks / maintenance passes, so the enabled overhead on batch-256 ingest
stays within the 5% budget enforced by ``BENCH_obs.json``.  The one
per-point phase is ``dependency``: in ``EDMStream.learn_one`` it wraps the
dependency update of every absorb into an active cell, one enter/exit pair
per point, as the paper's Figure 11 times exactly that work.

The disabled path is :data:`NULL_TELEMETRY` — a singleton whose ``phase()``
returns one shared no-op context manager and whose registry/event ring are
the null variants.  Code is wired as ``self.obs = NULL_TELEMETRY`` by
default, so "telemetry off" costs an attribute lookup and an empty method
call at each instrumentation point and is bit-identical
to the un-instrumented behaviour: telemetry only observes, it never steers.

Phase contexts are reused per name and therefore **must not self-nest**
(``with obs.phase("x"): ... with obs.phase("x")``); distinct phases nest
fine.  All wired phases are non-reentrant by construction.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional, Sequence

import numpy as np

from repro.obs.events import NULL_EVENT_RING, EventRing
from repro.obs.registry import NULL_INSTRUMENT, NULL_REGISTRY, MetricsRegistry

__all__ = ["PHASES", "Telemetry", "NullTelemetry", "NULL_TELEMETRY", "enable_telemetry"]

# Canonical phase catalog (docs/ARCHITECTURE.md "Observability" documents
# each).  Unknown names are accepted and appended dynamically; these are the
# ones the wired pipeline emits.
PHASES = (
    "assign",  # batch nearest-seed assignment (BatchIngestor._assign_chunk)
    "assign_scan",  # inside assign: the screened scan over the old seeds
    "assign_create",  # inside assign: choosing and creating the chunk's new cells
    "absorb",  # closed-form decay + absorption (BatchIngestor._apply_absorptions)
    "dependency",  # DP-Tree links: batch relink per chunk, learn_one's update per absorb
    "maintenance",  # periodic cell activation/deactivation + cap enforcement
    "tau_search",  # adaptive tau re-optimisation
    "snapshot_publish",  # ClusterSnapshot construction/publication
    "sketch_evict",  # BoundedCellStore eviction-to-sketch sweeps
    "sketch_revive",  # sketch-backed revival of returning cells
)


class _PhaseContext:
    """Reusable timer for one phase; ``with`` block or ``@`` decorator."""

    __slots__ = ("name", "_seconds", "_counts", "_index", "_t0")

    def __init__(self, name: str, seconds: np.ndarray, counts: np.ndarray, index: int):
        self.name = name
        self._seconds = seconds
        self._counts = counts
        self._index = index
        self._t0 = 0.0

    def __enter__(self) -> "_PhaseContext":
        self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        index = self._index
        self._seconds[index] += perf_counter() - self._t0
        self._counts[index] += 1

    def __call__(self, fn):
        """Decorator form: time every call of ``fn`` under this phase."""

        def wrapped(*args, **kwargs):
            with self:
                return fn(*args, **kwargs)

        wrapped.__name__ = getattr(fn, "__name__", "wrapped")
        wrapped.__doc__ = fn.__doc__
        return wrapped


class Telemetry:
    """Live telemetry facade: registry + event ring + phase timers."""

    enabled = True

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        events: Optional[EventRing] = None,
        phases: Sequence[str] = PHASES,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.events = events if events is not None else EventRing()
        capacity = max(len(phases) * 2, 16)
        self._phase_seconds = np.zeros(capacity, dtype=np.float64)
        self._phase_counts = np.zeros(capacity, dtype=np.int64)
        self._contexts: Dict[str, _PhaseContext] = {}
        for name in phases:
            self._register_phase(name)

    def _register_phase(self, name: str) -> _PhaseContext:
        index = len(self._contexts)
        if index == len(self._phase_seconds):
            self._phase_seconds = np.concatenate(
                [self._phase_seconds, np.zeros_like(self._phase_seconds)]
            )
            self._phase_counts = np.concatenate(
                [self._phase_counts, np.zeros_like(self._phase_counts)]
            )
            for context in self._contexts.values():
                context._seconds = self._phase_seconds
                context._counts = self._phase_counts
        context = _PhaseContext(name, self._phase_seconds, self._phase_counts, index)
        self._contexts[name] = context
        return context

    def phase(self, name: str) -> _PhaseContext:
        """Reusable timing context for phase ``name`` (created on demand)."""
        context = self._contexts.get(name)
        if context is None:
            context = self._register_phase(name)
        return context

    # Convenience pass-throughs so call sites need only hold the facade.
    def counter(self, name: str):
        """Registry counter pass-through."""
        return self.registry.counter(name)

    def gauge(self, name: str):
        """Registry gauge pass-through."""
        return self.registry.gauge(name)

    def histogram(self, name: str, buckets=None):
        """Registry histogram pass-through."""
        if buckets is None:
            return self.registry.histogram(name)
        return self.registry.histogram(name, buckets)

    def record_event(self, kind: str, time: float = 0.0, **fields) -> None:
        """Push one structured event into the ring."""
        self.events.push(kind, time=time, **fields)

    def phase_totals(self) -> Dict[str, Dict[str, float]]:
        """``{phase: {"seconds": ..., "count": ...}}`` for every known phase."""
        return {
            name: {
                "seconds": float(self._phase_seconds[context._index]),
                "count": int(self._phase_counts[context._index]),
            }
            for name, context in self._contexts.items()
        }

    def snapshot(self) -> Dict[str, object]:
        """Full copy-out snapshot: metrics, phases, event counts + tail."""
        return {
            "metrics": self.registry.snapshot(),
            "phases": self.phase_totals(),
            "event_counts": self.events.counts(),
            "events": self.events.snapshot(),
        }


class _NullPhaseContext:
    """Shared no-op timing context (and pass-through decorator)."""

    __slots__ = ()

    name = "null"

    def __enter__(self) -> "_NullPhaseContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def __call__(self, fn):
        return fn


_NULL_PHASE = _NullPhaseContext()


class NullTelemetry:
    """Disabled-path facade: every operation is a shared no-op.

    ``phase()`` always returns the one shared null context, ``registry`` and
    ``events`` are the null variants, and ``record_event`` is an empty
    method — so instrumented code runs unchanged with zero observable
    side effects and (near-)zero cost.
    """

    __slots__ = ()

    enabled = False
    registry = NULL_REGISTRY
    events = NULL_EVENT_RING

    def phase(self, name: str) -> _NullPhaseContext:
        """Return the shared no-op context."""
        return _NULL_PHASE

    def counter(self, name: str):
        """Return the shared null instrument."""
        return NULL_INSTRUMENT

    def gauge(self, name: str):
        """Return the shared null instrument."""
        return NULL_INSTRUMENT

    def histogram(self, name: str, buckets=None):
        """Return the shared null instrument."""
        return NULL_INSTRUMENT

    def record_event(self, kind: str, time: float = 0.0, **fields) -> None:
        """Do nothing."""

    def phase_totals(self) -> Dict[str, Dict[str, float]]:
        """Always empty."""
        return {}

    def snapshot(self) -> Dict[str, object]:
        """Empty snapshot in the enabled-path shape."""
        return {"metrics": {}, "phases": {}, "event_counts": {}, "events": []}


NULL_TELEMETRY = NullTelemetry()


def enable_telemetry(model) -> Telemetry:
    """Attach a fresh :class:`Telemetry` to ``model`` and return it.

    Works on any object using the ``self.obs`` convention (``EDMStream``
    and the subsystems it wires).  Used by the serving publisher to turn
    telemetry on for factory-built models without changing the factory.
    """
    telemetry = Telemetry()
    model.obs = telemetry
    bounded = getattr(model, "_bounded", None)
    if bounded is not None:
        bounded.obs = telemetry
    return telemetry
