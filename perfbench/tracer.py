"""Spans recorded around calls into the library's layers, from outside it.

Nothing inside ``src/`` is instrumented.  :class:`Tracer` swaps each public
entry point listed in :data:`LAYERS` for a wrapper that logs an open and a
close event (layer, time) and the layer's work counts, and puts the
originals back on :meth:`Tracer.uninstall`.  Module-level functions are
swapped at every ``repro`` module that imported them, so a call made through
any import site is seen.

The event log is kept in memory; :meth:`Tracer.round_metrics` turns a
round's events into spans (name, start, end, parent, root — the root span
identifies the update or read call a span belongs to), and
:meth:`Tracer.save` writes every span out once, at the end of the run.  A
layer's *self time* is the duration of its spans minus the time covered by
their traced child spans.

The distance kernel is a leaf that the scan, the dependency repair and the
snapshot all call.  Its wrapper times and counts every call but opens no
span, so kernel time stays in the self time of the layer that asked for the
distances, and ``distance.kernel_s`` gives its total across layers.

Every layer reports its metrics even when its wrapper never fired (zero
calls), and a target that no longer exists is reported as missing rather
than dropped, so a later change that moves a call shows up as a gap in the
trace instead of a silently absent metric.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

Counter = Callable[[Dict[str, float], tuple, Any], None]


def _count_union_scan(counts, args, result):
    # nearest_over_slots(arrays, slots, ids, queries, ...)
    counts["cellstore.cells_scanned"] += len(args[1]) * np.shape(args[3])[0]


def _count_store_scan(counts, args, result):
    # CellStore.distances_to(self, point): one query against every seed.
    counts["cellstore.cells_scanned"] += len(result)


def _count_kernel(counts, args, result):
    counts["distance.evals"] += result.size


def _count_events(counts, args, result):
    counts["evolution.events"] += len(result)


def _count_pruned(counts, args, result):
    counts["reservoir.pruned"] += len(result)


def _count_publish(counts, args, result):
    # request_clustering returns the cached snapshot when nothing changed;
    # only a new version is a publication.
    if result.version != counts["_version"]:
        counts["_version"] = result.version
        counts["snapshot.publish_calls"] += 1


@dataclass(frozen=True)
class Layer:
    """One wrapped entry point ``module:qualname`` feeding layer ``name``."""

    name: str
    module: str
    qualname: str
    count: Optional[Counter] = None
    #: False for a leaf timed and counted without a span of its own.
    span: bool = True


#: Every wrapped entry point.  Several targets may feed one layer.
LAYERS: Tuple[Layer, ...] = (
    Layer("edmstream.update", "repro.core.edmstream", "EDMStream.learn_one"),
    Layer("edmstream.update", "repro.core.edmstream", "EDMStream.learn_many"),
    Layer("cellstore.scan", "repro.core.cellstore", "nearest_over_slots", _count_union_scan),
    Layer("cellstore.scan", "repro.core.cellstore", "CellStore.distances_to", _count_store_scan),
    Layer("soa.create", "repro.core.soa", "CellArrays.create"),
    Layer("distance.kernel", "repro.distance.metrics", "pairwise_euclidean", _count_kernel,
          span=False),
    Layer("adaptive_tau.optimize", "repro.core.adaptive_tau", "TauOptimizer.optimize"),
    Layer("evolution.observe", "repro.core.evolution", "EvolutionTracker.observe", _count_events),
    Layer("reservoir.prune", "repro.core.reservoir", "OutlierReservoir.prune_outdated",
          _count_pruned),
    Layer("snapshot.publish", "repro.core.edmstream", "EDMStream.request_clustering",
          _count_publish),
    Layer("snapshot.predict", "repro.api.snapshot", "ClusterSnapshot.predict_many"),
)

#: Layer names with spans, in the order their spans are reported.
SPAN_NAMES = tuple(dict.fromkeys(layer.name for layer in LAYERS if layer.span))

#: Span counts reported as ``<metric>``: the number of spans of a layer.
CALL_METRICS = {
    "edmstream.update": "edmstream.update_calls",
    "cellstore.scan": "cellstore.scan_calls",
    "soa.create": "soa.cells_created",
    "adaptive_tau.optimize": "adaptive_tau.optimize_calls",
    "snapshot.predict": "snapshot.predict_calls",
}

#: Work counters fed by the wrappers, zero when nothing fired.
COUNTERS = (
    "cellstore.cells_scanned",
    "distance.kernel_s",
    "distance.kernel_calls",
    "distance.evals",
    "evolution.events",
    "reservoir.pruned",
    "snapshot.publish_calls",
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        # Event log: +(id + 1) opens a span of layer ``id``, -(id + 1)
        # closes the innermost open one.
        self.codes = array("i")
        self.times = array("d")
        self.counts: Dict[str, Any] = {}
        self.spans: List[np.ndarray] = []
        self._patched: List[Tuple[Any, str, Any]] = []
        #: ``module:qualname`` of targets that could not be found.
        self.missing: List[str] = []
        #: ``layer name -> [patched sites]`` from the last install.
        self.sites: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------ #
    # wrappers
    # ------------------------------------------------------------------ #
    def _wrap(self, fn: Callable, layer: Layer) -> Callable:
        count = layer.count
        counts = self.counts

        if not layer.span:
            seconds, calls = f"{layer.name}_s", f"{layer.name}_calls"

            @functools.wraps(fn)
            def timed(*args, **kwargs):
                t0 = perf_counter()
                result = fn(*args, **kwargs)
                counts[seconds] += perf_counter() - t0
                counts[calls] += 1
                count(counts, args, result)
                return result

            return timed

        code = self.name_ids[layer.name] + 1
        log_code, log_time = self.codes.append, self.times.append

        if count is None:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                log_code(code)
                log_time(perf_counter())
                try:
                    return fn(*args, **kwargs)
                finally:
                    log_time(perf_counter())
                    log_code(-code)

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                log_code(code)
                log_time(perf_counter())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    log_time(perf_counter())
                    log_code(-code)
                count(counts, args, result)
                return result

        return traced

    def install(self, published_version: int) -> None:
        """Swap every target in :data:`LAYERS` for its traced wrapper.

        ``published_version`` is the model's latest snapshot version, so
        only a newer one counts as a publication.
        """
        self.counts["_version"] = published_version
        self.missing = []
        self.sites = {layer.name: [] for layer in LAYERS}
        for layer in LAYERS:
            owner_name, _, attr = layer.qualname.rpartition(".")
            module = importlib.import_module(layer.module)
            owner = getattr(module, owner_name, None) if owner_name else module
            original = None if owner is None else owner.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{layer.module}:{layer.qualname}")
                continue
            wrapper = self._wrap(original, layer)
            if owner_name:
                self._patch(owner, attr, original, wrapper)
                self.sites[layer.name].append(f"{layer.module}:{layer.qualname}")
                continue
            # A module-level function: swap it wherever a repro module bound
            # it, so calls through every import site are traced.
            for mod_name, mod in sorted(sys.modules.items()):
                if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                if mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, original, wrapper)
                    self.sites[layer.name].append(f"{mod_name}:{attr}")

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Callable) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # rounds and aggregation
    # ------------------------------------------------------------------ #
    def begin_round(self) -> None:
        """Start a round: empty event log, zero counters."""
        del self.codes[:]
        del self.times[:]
        self.counts.clear()
        self.counts.update({name: 0 for name in COUNTERS})

    def _round_spans(self) -> np.ndarray:
        """The round's event log as span rows (name, parent, root, start, end)."""
        names, parents, roots, starts = [], [], [], []
        ends = [0.0] * (len(self.codes) // 2)
        stack: List[int] = []
        for code, when in zip(self.codes, self.times):
            if code > 0:
                index = len(names)
                names.append(code - 1)
                parents.append(stack[-1] if stack else -1)
                roots.append(stack[0] if stack else index)
                starts.append(when)
                stack.append(index)
            else:
                ends[stack.pop()] = when
        spans = np.empty(
            len(names),
            dtype=[("name", "i4"), ("parent", "i4"), ("root", "i4"),
                   ("start", "f8"), ("end", "f8")],
        )
        spans["name"], spans["parent"], spans["root"] = names, parents, roots
        spans["start"], spans["end"] = starts, ends
        return spans

    def round_metrics(self) -> Dict[str, float]:
        """Per-layer seconds and counts of the round's spans.

        ``<layer>_s`` is the time spent inside the layer's calls, including
        the traced layers they call (a span nested in one of its own layer
        counts once); ``<layer>_self_s`` excludes those child spans.
        """
        spans = self._round_spans()
        offset = sum(len(s) for s in self.spans)
        stored = spans.copy()
        has_parent = stored["parent"] >= 0
        stored["parent"][has_parent] += offset
        stored["root"] += offset
        self.spans.append(stored)

        names, parents = spans["name"], spans["parent"]
        durations = spans["end"] - spans["start"]
        has_parent = parents >= 0
        child_time = np.bincount(
            parents[has_parent], weights=durations[has_parent], minlength=names.size
        )
        outermost = ~has_parent
        outermost[has_parent] = names[parents[has_parent]] != names[has_parent]
        n_names = len(SPAN_NAMES)
        total = np.bincount(names[outermost], weights=durations[outermost], minlength=n_names)
        self_time = np.bincount(names, weights=durations - child_time, minlength=n_names)
        calls = np.bincount(names, minlength=n_names)
        metrics: Dict[str, float] = {}
        for name, index in self.name_ids.items():
            metrics[f"{name}_s"] = float(total[index])
            metrics[f"{name}_self_s"] = float(self_time[index])
            if name in CALL_METRICS:
                metrics[CALL_METRICS[name]] = float(calls[index])
        for name in COUNTERS:
            metrics[name] = float(self.counts[name])
        return metrics

    def save(self, path) -> None:
        """Write every recorded span (and the patched sites) to ``path`` (.npz)."""
        np.savez(
            path,
            spans=np.concatenate(self.spans) if self.spans else np.empty(0),
            names=np.asarray(SPAN_NAMES),
            sites=np.asarray(
                [f"{name} {site}" for name, sites in self.sites.items() for site in sites]
            ),
            missing=np.asarray(self.missing, dtype=str),
        )
