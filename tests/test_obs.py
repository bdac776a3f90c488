"""Observability-tier tests (ISSUE 10): metrics, phases, events, stats.

The contracts under test:

* **registry round-trip** — counters/gauges/histograms registered by name
  read back exactly what was recorded, survive array growth, and reject
  kind conflicts;
* **null path is free** — with ``telemetry=None`` the model clusters
  bit-identically to a never-instrumented build, and the null registry's
  ``inc`` allocates nothing (measured with ``sys.getallocatedblocks``);
* **instrumented path is observational only** — telemetry on and off
  produce the identical clustering, while the on-path records per-phase
  wall clock, lifetime counters, and MONIC evolution events;
* **stats block** — the serving tier's shared-memory stats segment
  round-trips publisher/worker counters, and ``python -m repro stats``
  renders rates/quantiles from two reads without touching the writers.
"""

import gc
import json
import sys

import pytest

from repro.core import EDMStream
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS_S,
    NULL_REGISTRY,
    NULL_TELEMETRY,
    EventRing,
    MetricsRegistry,
    NullTelemetry,
    Telemetry,
    enable_telemetry,
    quantile_from_buckets,
)
from repro.obs.export import stats_main, stats_report, to_prometheus, write_telemetry_json
from repro.streams import SDSGenerator


def make_stream(n_points=4000, seed=7):
    return SDSGenerator(n_points=n_points, rate=1000.0, seed=seed).generate()


def make_model(telemetry=None, **kwargs):
    return EDMStream(
        radius=0.3, beta=0.0021, stream_rate=1000.0, telemetry=telemetry, **kwargs
    )


def canonical_partition(model):
    seed_of = {cid: tuple(model.tree.get(cid).seed) for cid in model.tree.ids()}
    return {
        seed_of[root]: frozenset(seed_of[member] for member in members)
        for root, members in model.partition_snapshot().items()
    }


class TestRegistry:
    def test_counter_gauge_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("points").inc()
        registry.counter("points").inc(41.0)
        registry.gauge("depth").set(7.0)
        registry.gauge("depth").inc(-2.0)
        assert registry.counter("points").value == 42.0
        assert registry.gauge("depth").value == 5.0
        snapshot = registry.snapshot()
        assert snapshot["points"] == {"kind": "counter", "value": 42.0}
        assert snapshot["depth"] == {"kind": "gauge", "value": 5.0}

    def test_histogram_buckets_and_quantiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.002, 0.002, 0.05, 5.0):
            hist.observe(value)
        assert hist.count == 5
        assert hist.sum == pytest.approx(5.0545)
        assert hist.bucket_counts() == [1.0, 2.0, 1.0, 1.0]  # last = overflow
        # The median lands in the (0.001, 0.01] bucket.
        assert 0.001 <= hist.quantile(0.5) <= 0.01
        # Overflow observations clamp to the last finite bound.
        assert hist.quantile(1.0) == pytest.approx(0.1)

    def test_quantile_from_buckets_empty(self):
        assert quantile_from_buckets((0.1, 1.0), [0.0, 0.0, 0.0], 0.5) == 0.0

    def test_same_name_same_instrument_and_kind_conflicts(self):
        registry = MetricsRegistry()
        counter = registry.counter("a")
        assert registry.counter("a") is counter
        with pytest.raises(ValueError):
            registry.gauge("a")
        with pytest.raises(ValueError):
            registry.histogram("a")

    def test_growth_keeps_old_instruments_live(self):
        registry = MetricsRegistry(capacity=2)
        first = registry.counter("c0")
        first.inc(3.0)
        for i in range(50):  # force several array regrowths
            registry.counter(f"extra{i}").inc()
        first.inc()
        assert registry.counter("c0").value == 4.0
        assert registry.counter("extra49").value == 1.0

    def test_default_latency_buckets_cover_serving_range(self):
        assert DEFAULT_LATENCY_BUCKETS_S[0] == pytest.approx(1e-5)
        assert DEFAULT_LATENCY_BUCKETS_S[-1] > 0.1
        assert list(DEFAULT_LATENCY_BUCKETS_S) == sorted(DEFAULT_LATENCY_BUCKETS_S)


class TestEventRing:
    def test_bounded_ring_drops_oldest(self):
        ring = EventRing(capacity=4)
        for i in range(10):
            ring.push("cluster_split", time=float(i), index=i)
        assert len(ring) == 4
        assert ring.total == 10
        assert ring.dropped == 6
        snapshot = ring.snapshot()
        assert [event["index"] for event in snapshot] == [6, 7, 8, 9]
        assert snapshot[0]["kind"] == "cluster_split"

    def test_counts_survive_eviction(self):
        ring = EventRing(capacity=2)
        for _ in range(5):
            ring.push("cell_evicted")
        ring.push("worker_restart")
        assert ring.counts() == {"cell_evicted": 5, "worker_restart": 1}


class TestTelemetry:
    def test_phase_accumulation_and_totals(self):
        telemetry = Telemetry()
        for _ in range(3):
            with telemetry.phase("assign"):
                pass
        totals = telemetry.phase_totals()
        assert totals["assign"]["count"] == 3
        assert totals["assign"]["seconds"] >= 0.0
        assert totals["maintenance"]["count"] == 0

    def test_unknown_phase_registered_on_demand(self):
        telemetry = Telemetry()
        with telemetry.phase("custom_stage"):
            pass
        assert telemetry.phase_totals()["custom_stage"]["count"] == 1

    def test_phase_decorator_form(self):
        telemetry = Telemetry()

        @telemetry.phase("assign")
        def work(x):
            return x + 1

        assert work(1) == 2
        assert telemetry.phase_totals()["assign"]["count"] == 1

    def test_snapshot_bundles_metrics_phases_events(self):
        telemetry = Telemetry()
        telemetry.counter("n").inc()
        with telemetry.phase("absorb"):
            pass
        telemetry.record_event("cluster_merge", time=1.0, old_clusters=2)
        snapshot = telemetry.snapshot()
        assert snapshot["metrics"]["n"]["value"] == 1.0
        assert snapshot["phases"]["absorb"]["count"] == 1
        assert snapshot["event_counts"] == {"cluster_merge": 1}
        assert snapshot["events"][0]["old_clusters"] == 2

    def test_null_telemetry_is_disabled_and_inert(self):
        assert NULL_TELEMETRY.enabled is False
        with NULL_TELEMETRY.phase("assign"):
            pass
        NULL_TELEMETRY.counter("x").inc()
        NULL_TELEMETRY.record_event("cluster_split")
        assert NULL_TELEMETRY.snapshot()["metrics"] == {}
        assert NULL_TELEMETRY.phase_totals() == {}
        # The null phase context is shared, not allocated per call.
        assert NULL_TELEMETRY.phase("a") is NULL_TELEMETRY.phase("b")
        assert isinstance(NullTelemetry(), NullTelemetry)

    def test_null_increment_is_allocation_free(self):
        counter = NULL_REGISTRY.counter("anything")
        counter.inc()  # warm any lazy state
        deltas = []
        gc.disable()
        try:
            for _ in range(3):
                before = sys.getallocatedblocks()
                for _ in range(1000):
                    counter.inc()
                deltas.append(sys.getallocatedblocks() - before)
        finally:
            gc.enable()
        # The loop itself may jitter a few blocks; 1000 incs must not
        # allocate per call.
        assert min(deltas) <= 5


class TestModelIntegration:
    def test_telemetry_off_is_bit_identical(self):
        off = make_model(telemetry=None)
        off.learn_many(make_stream(), batch_size=256)
        on = make_model(telemetry=Telemetry())
        on.learn_many(make_stream(), batch_size=256)
        assert canonical_partition(on) == canonical_partition(off)
        assert on.n_clusters == off.n_clusters
        assert on._tau == off._tau
        off_summary, on_summary = off.summary(), on.summary()
        on_summary.pop("telemetry")
        assert "telemetry" not in off_summary
        assert on_summary == off_summary

    def test_enabled_path_records_phases_counters_events(self):
        telemetry = Telemetry()
        model = make_model(telemetry=telemetry)
        stream = make_stream()
        model.learn_many(stream, batch_size=256)
        model.request_clustering()
        totals = telemetry.phase_totals()
        assert totals["assign"]["count"] > 0
        assert totals["maintenance"]["count"] > 0
        assert totals["snapshot_publish"]["count"] >= 1
        assert telemetry.registry.counter("ingest_points_total").value == len(stream)
        assert telemetry.registry.counter("ingest_batches_total").value > 0
        counts = telemetry.events.counts()
        assert counts.get("cluster_emerge", 0) >= 1
        assert counts.get("snapshot_publish", 0) >= 1

    def test_enable_telemetry_after_construction_counts_learn_one(self):
        """The serving publisher turns telemetry on after building the model."""
        model = make_model(telemetry=None)
        telemetry = enable_telemetry(model)
        points = list(make_stream(n_points=15))
        for point in points[:10]:
            model.learn_one(point.values, timestamp=point.timestamp)
        model.learn_many(points[10:], batch_size=256)
        assert telemetry.registry.counter("ingest_points_total").value == 15

    def test_telemetry_true_builds_fresh_instance(self):
        model = make_model(telemetry=True)
        assert model.obs.enabled
        assert model.obs is not NULL_TELEMETRY

    def test_config_rejects_junk_telemetry(self):
        with pytest.raises(ValueError):
            make_model(telemetry=object())

    def test_sketch_tier_counters_and_events_flow_through(self):
        telemetry = Telemetry()
        model = make_model(telemetry=telemetry, memory_cap_bytes=40_000)
        model.learn_many(make_stream(6000), batch_size=256)
        memory = model.summary()["memory"]
        # Satellite: the bounded tier's counters are part of the public
        # summary and snapshot surfaces.
        assert memory["evictions"] > 0
        assert memory["revivals"] > 0
        assert memory["cap_overflows"] >= 0
        snap_memory = model.snapshot().metadata["memory"]
        for key in ("evictions", "revivals", "cap_overflows", "memory_cap_bytes"):
            assert key in snap_memory
        assert telemetry.registry.counter("cells_evicted_total").value > 0
        assert telemetry.registry.counter("cells_revived_total").value > 0
        counts = telemetry.events.counts()
        assert counts.get("cell_evicted", 0) > 0
        assert counts.get("cell_revived", 0) > 0
        totals = telemetry.phase_totals()
        assert totals["sketch_evict"]["count"] > 0


class TestExport:
    def test_prometheus_rendering(self):
        telemetry = Telemetry()
        telemetry.counter("ingest_points_total").inc(5)
        telemetry.gauge("depth").set(3.0)
        telemetry.histogram("lat", (0.001, 0.01)).observe(0.002)
        with telemetry.phase("assign"):
            pass
        telemetry.record_event("cluster_split", time=1.0)
        text = to_prometheus(telemetry)
        assert "repro_ingest_points_total 5" in text
        assert "repro_ingest_points_total_total" not in text
        assert 'repro_depth 3' in text
        assert 'repro_lat_bucket{le="0.01"} 1' in text
        assert 'repro_lat_bucket{le="+Inf"} 1' in text
        assert 'repro_phase_calls_total{phase="assign"} 1' in text
        assert 'repro_events_total{kind="cluster_split"} 1' in text

    def test_json_round_trip_and_file_dump(self, tmp_path):
        telemetry = Telemetry()
        telemetry.counter("n").inc()
        path = tmp_path / "telemetry.json"
        write_telemetry_json(path, telemetry, extra={"run": "t"})
        payload = json.loads(path.read_text())
        assert payload["telemetry"]["metrics"]["n"]["value"] == 1.0
        assert payload["run"] == "t"


class TestStatsBlock:
    @pytest.fixture
    def token(self):
        import uuid

        from repro.serving import cleanup_segments

        token = f"obstest{uuid.uuid4().hex[:8]}"
        yield token
        cleanup_segments(token)

    def test_round_trip_and_report(self, token):
        from repro.serving import StatsBlock

        block, created = StatsBlock.create_or_attach(token)
        assert created
        try:
            block.publisher_update(
                1000, 4, 123.0, {"assign": {"seconds": 0.5, "count": 10}}
            )
            slot = block.claim_worker_slot(4242, preferred=0)
            assert slot == 0
            for _ in range(20):
                block.record_worker_batch(slot, 64, 0.002, 0.01, 3)
            first = block.read()
            assert first["publisher"]["points_ingested"] == 1000.0
            assert first["publisher"]["publishes"] == 4.0
            assert first["publisher"]["phases"]["assign"]["count"] == 10
            worker = first["workers"][0]
            assert worker["pid"] == 4242.0
            assert worker["queries"] == 20 * 64
            assert worker["snapshot_version"] == 3.0

            block.publisher_update(
                3000, 6, 125.0, {"assign": {"seconds": 0.6, "count": 12}}
            )
            block.record_worker_batch(slot, 64, 0.002, 0.01, 3)
            second = block.read()
            second["sampled_at"] = first.get("sampled_at", 0.0) + 2.0
            report = stats_report(first, second, 2.0)
            assert report["publisher"]["points_per_s"] == pytest.approx(1000.0)
            slot_report = report["workers"][0]
            assert slot_report["qps"] == pytest.approx(32.0)
            # All observations landed in the 0.002s bucket region.
            assert 0.001 < slot_report["p50_s"] < 0.005
            assert slot_report["snapshot_version"] == 3.0
        finally:
            block.close()

    def test_slot_claim_release_and_reuse(self, token):
        from repro.serving import StatsBlock

        block, _ = StatsBlock.create_or_attach(token)
        try:
            a = block.claim_worker_slot(100)
            b = block.claim_worker_slot(200)
            assert a != b
            block.release_worker_slot(a)
            c = block.claim_worker_slot(300, preferred=a)
            assert c == a
        finally:
            block.close()

    def test_attach_requires_existing_segment(self, token):
        from repro.serving import StatsBlock

        with pytest.raises(FileNotFoundError):
            StatsBlock.attach(token)

    def test_stats_main_renders_live_rates(self, token):
        from repro.serving import StatsBlock

        block, _ = StatsBlock.create_or_attach(token)
        try:
            block.publisher_update(500, 2, 10.0, {"assign": {"seconds": 0.1, "count": 2}})
            slot = block.claim_worker_slot(777, preferred=0)
            block.record_worker_batch(slot, 10, 0.001, 0.05, 1)

            lines = []

            def fake_sleep(_):
                block.publisher_update(
                    700, 3, 11.0, {"assign": {"seconds": 0.2, "count": 3}}
                )
                block.record_worker_batch(slot, 30, 0.001, 0.05, 2)

            code = stats_main(token, interval_s=0.5, _print=lines.append, sleep=fake_sleep)
            assert code == 0
            output = "\n".join(lines)
            assert "serving stats" in output
            assert "publisher:" in output
            assert "assign" in output
            assert "777" in output
        finally:
            block.close()

    def test_stats_main_without_segment_fails_cleanly(self):
        lines = []
        code = stats_main("nosuchtoken123", _print=lines.append, sleep=lambda _: None)
        assert code == 1
        assert "no stats segment" in lines[0]
