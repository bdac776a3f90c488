"""Telemetry export: JSON dump, Prometheus-style text, live-stats CLI.

Three consumers, one module:

* :func:`to_json` — serialise a :class:`~repro.obs.timing.Telemetry`
  snapshot (or any snapshot dict) for ``telemetry.json`` run artifacts.
* :func:`to_prometheus` — Prometheus text exposition (``# TYPE`` headers,
  ``_total`` counter suffixes, ``le``-labelled histogram buckets) so a
  scrape endpoint can be bolted on without reformatting.
* :func:`stats_main` — the ``python -m repro stats <token>`` command: it
  attaches **read-only** to a live serving cluster's shared-memory stats
  block (:class:`repro.serving.stats.StatsBlock`), takes two samples
  ``--interval`` seconds apart, and prints per-worker QPS / p50 / p99 /
  snapshot staleness plus the publisher's ingest phase breakdown.  The
  workers are never touched — no pipes, no signals, just two lock-free
  shared-memory reads.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List

from repro.obs.registry import quantile_from_buckets

__all__ = ["to_json", "to_prometheus", "sample_stats", "stats_report", "render_stats", "stats_main"]


def _as_snapshot(telemetry_or_snapshot) -> Dict[str, object]:
    if isinstance(telemetry_or_snapshot, dict):
        return telemetry_or_snapshot
    return telemetry_or_snapshot.snapshot()


def to_json(telemetry_or_snapshot, indent: int = 2) -> str:
    """Serialise a telemetry snapshot (sorted keys, trailing newline)."""
    snapshot = _as_snapshot(telemetry_or_snapshot)
    return json.dumps(snapshot, indent=indent, sort_keys=True) + "\n"


def _sanitize(name: str) -> str:
    return "".join(c if (c.isalnum() or c == "_") else "_" for c in name)


def to_prometheus(telemetry_or_snapshot, prefix: str = "repro") -> str:
    """Render a telemetry snapshot in the Prometheus text format."""
    snapshot = _as_snapshot(telemetry_or_snapshot)
    lines: List[str] = []
    for name in sorted(snapshot.get("metrics", {})):
        data = snapshot["metrics"][name]
        metric = f"{prefix}_{_sanitize(name)}"
        kind = data["kind"]
        if kind == "counter":
            total = metric if metric.endswith("_total") else f"{metric}_total"
            lines.append(f"# TYPE {total} counter")
            lines.append(f"{total} {data['value']:.10g}")
        elif kind == "gauge":
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {data['value']:.10g}")
        else:  # histogram
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0.0
            for bound, count in zip(data["buckets"], data["bucket_counts"]):
                cumulative += count
                lines.append(f'{metric}_bucket{{le="{bound:.10g}"}} {cumulative:.10g}')
            cumulative += data["bucket_counts"][-1] if data["bucket_counts"] else 0.0
            lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative:.10g}')
            lines.append(f"{metric}_sum {data['sum']:.10g}")
            lines.append(f"{metric}_count {data['count']:.10g}")
    phases = snapshot.get("phases", {})
    if phases:
        lines.append(f"# TYPE {prefix}_phase_seconds_total counter")
        for phase in sorted(phases):
            lines.append(
                f'{prefix}_phase_seconds_total{{phase="{_sanitize(phase)}"}} '
                f"{phases[phase]['seconds']:.10g}"
            )
        lines.append(f"# TYPE {prefix}_phase_calls_total counter")
        for phase in sorted(phases):
            lines.append(
                f'{prefix}_phase_calls_total{{phase="{_sanitize(phase)}"}} '
                f"{phases[phase]['count']:.10g}"
            )
    event_counts = snapshot.get("event_counts", {})
    if event_counts:
        lines.append(f"# TYPE {prefix}_events_total counter")
        for kind in sorted(event_counts):
            lines.append(
                f'{prefix}_events_total{{kind="{_sanitize(kind)}"}} {event_counts[kind]:d}'
            )
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------- #
# live serving stats (python -m repro stats)
# ---------------------------------------------------------------------- #
def sample_stats(token: str) -> Dict[str, object]:
    """One read-only sample of a serving token's stats segment."""
    from repro.serving.stats import StatsBlock  # deferred: keeps obs core light

    block = StatsBlock.attach(token)
    try:
        sample = block.read()
    finally:
        block.close()
    sample["sampled_at"] = time.time()
    return sample


def stats_report(
    first: Dict[str, object], second: Dict[str, object], interval_s: float
) -> Dict[str, object]:
    """Derive rates and quantiles from two stats samples ``interval_s`` apart."""
    interval_s = max(interval_s, 1e-9)
    buckets = second["latency_buckets_s"]
    first_workers = {w["slot"]: w for w in first["workers"]}
    now = second.get("sampled_at", time.time())
    workers = []
    for worker in second["workers"]:
        slot = worker["slot"]
        previous = first_workers.get(slot)
        queries_delta = worker["queries"] - (previous["queries"] if previous else 0.0)
        # Quantiles from the *delta* of bucket counts: the latency profile
        # over the sampling window, not over the worker's whole lifetime.
        if previous is not None:
            delta_counts = [
                max(0.0, b - a)
                for a, b in zip(
                    previous["latency_bucket_counts"], worker["latency_bucket_counts"]
                )
            ]
        else:
            delta_counts = worker["latency_bucket_counts"]
        window = delta_counts if sum(delta_counts) > 0 else worker["latency_bucket_counts"]
        workers.append(
            {
                "slot": slot,
                "pid": worker["pid"],
                "alive": (now - worker["heartbeat"]) < max(5.0, 5 * interval_s),
                "qps": queries_delta / interval_s,
                "queries_total": worker["queries"],
                "batches_total": worker["batches"],
                "p50_s": quantile_from_buckets(buckets, window, 0.50),
                "p99_s": quantile_from_buckets(buckets, window, 0.99),
                "mean_s": (
                    worker["latency_sum_s"] / worker["latency_count"]
                    if worker["latency_count"]
                    else 0.0
                ),
                "snapshot_version": worker["snapshot_version"],
                "snapshot_staleness_s": worker["snapshot_staleness_s"],
            }
        )
    pub_first, pub_second = first["publisher"], second["publisher"]
    points_delta = pub_second["points_ingested"] - pub_first["points_ingested"]
    publisher = {
        "points_ingested": pub_second["points_ingested"],
        "points_per_s": points_delta / interval_s,
        "publishes": pub_second["publishes"],
        "last_publish_age_s": (
            max(0.0, now - pub_second["last_published_at"])
            if pub_second["last_published_at"]
            else None
        ),
        "phases": pub_second["phases"],
    }
    return {
        "token_segment": second["token_segment"],
        "interval_s": interval_s,
        "publisher": publisher,
        "workers": workers,
    }


def render_stats(report: Dict[str, object]) -> str:
    """Human-readable rendering of :func:`stats_report` output."""
    lines = [f"serving stats — {report['token_segment']} (window {report['interval_s']:.2f}s)"]
    publisher = report["publisher"]
    age = publisher["last_publish_age_s"]
    lines.append(
        "publisher: "
        f"{publisher['points_ingested']:.0f} points "
        f"({publisher['points_per_s']:.0f} pts/s), "
        f"{publisher['publishes']:.0f} publishes"
        + (f", last publish {age:.2f}s ago" if age is not None else "")
    )
    phases = publisher["phases"]
    if phases:
        total = sum(p["seconds"] for p in phases.values()) or 1.0
        lines.append("ingest phase breakdown:")
        for phase, data in sorted(phases.items(), key=lambda kv: -kv[1]["seconds"]):
            lines.append(
                f"  {phase:<18} {data['seconds']:9.3f}s  {100.0 * data['seconds'] / total:5.1f}%"
                f"  ({data['count']} calls)"
            )
    if report["workers"]:
        lines.append(
            f"{'worker':>6} {'pid':>7} {'alive':>5} {'qps':>10} {'p50':>9} "
            f"{'p99':>9} {'stale':>8} {'version':>8}"
        )
        for worker in report["workers"]:
            lines.append(
                f"{worker['slot']:>6} {worker['pid']:>7} "
                f"{'yes' if worker['alive'] else 'no':>5} "
                f"{worker['qps']:>10.0f} "
                f"{1e3 * worker['p50_s']:>8.2f}m "
                f"{1e3 * worker['p99_s']:>8.2f}m "
                f"{worker['snapshot_staleness_s']:>7.2f}s "
                f"{worker['snapshot_version']:>8}"
            )
    else:
        lines.append("no active worker slots")
    return "\n".join(lines)


def stats_main(
    token: str,
    interval_s: float = 1.0,
    as_json: bool = False,
    _print=print,
    sleep=time.sleep,
) -> int:
    """Body of ``python -m repro stats``: sample twice, derive, print."""
    try:
        first = sample_stats(token)
    except FileNotFoundError:
        _print(
            f"no stats segment for token {token!r} — is a ServingCluster "
            "running with this token?"
        )
        return 1
    sleep(max(0.0, interval_s))
    second = sample_stats(token)
    elapsed = second["sampled_at"] - first["sampled_at"]
    report = stats_report(first, second, elapsed if elapsed > 0 else interval_s)
    if as_json:
        _print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _print(render_stats(report))
    return 0
