"""Tests for EDMStream model persistence (save / load round trips)."""

import json

import numpy as np
import pytest

from repro.core import EDMStream
from repro.core.persistence import (
    FORMAT_VERSION,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from repro.obs import Telemetry
from repro.streams.point import StreamPoint
from repro.streams.synthetic import SDSGenerator


def trained_model(stream, **kwargs):
    """Feed a stream into a fresh EDMStream model."""
    params = dict(radius=0.5, beta=0.001, stream_rate=stream.rate, init_size=100)
    params.update(kwargs)
    model = EDMStream(**params)
    for point in stream:
        model.learn_one(point.values, timestamp=point.timestamp, label=point.label)
    return model


class TestRoundTrip:
    def test_dict_round_trip_preserves_clustering(self, two_blob_stream):
        model = trained_model(two_blob_stream)
        restored = model_from_dict(model_to_dict(model))

        assert restored.n_points == model.n_points
        assert restored.n_active_cells == model.n_active_cells
        assert restored.n_inactive_cells == model.n_inactive_cells
        assert restored.tau == pytest.approx(model.tau)
        assert restored.alpha == pytest.approx(model.alpha)
        assert restored.n_clusters == model.n_clusters
        assert restored.clusters() == model.clusters()

    def test_round_trip_preserves_predictions(self, two_blob_stream):
        model = trained_model(two_blob_stream)
        restored = model_from_dict(model_to_dict(model))
        queries = [(0.0, 0.0), (6.0, 6.0), (3.0, 3.0), (100.0, 100.0)]
        for query in queries:
            assert restored.predict_one(query) == model.predict_one(query)

    def test_round_trip_is_json_serialisable(self, two_blob_stream):
        model = trained_model(two_blob_stream)
        payload = json.dumps(model_to_dict(model))
        restored = model_from_dict(json.loads(payload))
        assert restored.n_active_cells == model.n_active_cells

    def test_file_round_trip(self, two_blob_stream, tmp_path):
        model = trained_model(two_blob_stream)
        path = save_model(model, tmp_path / "snapshots" / "model.json")
        assert path.exists()
        restored = load_model(path)
        assert restored.clusters() == model.clusters()

    def test_restored_model_keeps_learning(self, two_blob_stream):
        model = trained_model(two_blob_stream)
        restored = model_from_dict(model_to_dict(model))
        rng = np.random.default_rng(0)
        t = restored.now
        for i in range(200):
            point = rng.normal((0.0, 0.0), 0.3, size=2)
            t += 1e-3
            restored.learn_one(tuple(point), timestamp=t)
        assert restored.n_points == model.n_points + 200
        assert restored.n_clusters >= 1

    def test_new_cells_do_not_collide_with_restored_ids(self, two_blob_stream):
        model = trained_model(two_blob_stream)
        snapshot = model_to_dict(model)
        restored = model_from_dict(snapshot)
        existing_ids = {c["cell_id"] for c in snapshot["active_cells"]}
        existing_ids |= {c["cell_id"] for c in snapshot["inactive_cells"]}
        # Force a brand-new cell far away from everything else.
        new_cell_id = restored.learn_one((500.0, 500.0), timestamp=restored.now + 0.001)
        assert new_cell_id not in existing_ids

    def test_dependency_structure_preserved(self, two_blob_stream):
        model = trained_model(two_blob_stream)
        restored = model_from_dict(model_to_dict(model))
        for cell in model.tree.cells():
            restored_cell = restored.tree.get(cell.cell_id)
            assert restored_cell.dependency == cell.dependency
            assert restored_cell.delta == pytest.approx(cell.delta)


    def test_restored_snapshot_rows_keep_their_order(self, tmp_path):
        """Each population is saved in store order, so snapshot rows line up."""
        stream = SDSGenerator(n_points=8000, rate=1000.0, seed=1).generate()
        model = EDMStream(radius=0.3, beta=0.0021, stream_rate=1000.0)
        model.learn_many(stream)
        restored = load_model(save_model(model, tmp_path / "model.json"))
        saved, loaded = model.request_clustering(), restored.request_clustering()
        assert loaded.cell_ids.tolist() == saved.cell_ids.tolist()
        assert loaded.labels.tolist() == saved.labels.tolist()
        assert np.array_equal(loaded.seeds, saved.seeds)
        assert restored._active.ids() == model._active.ids()
        assert restored._inactive.ids() == model._inactive.ids()


class TestUninitialisedAndEdgeCases:
    def test_empty_model_round_trip(self):
        model = EDMStream(radius=1.0)
        restored = model_from_dict(model_to_dict(model))
        assert restored.n_points == 0
        assert restored.n_active_cells == 0
        assert not restored.initialized

    def test_uninitialised_model_round_trip(self, two_blob_stream):
        model = EDMStream(radius=0.5, init_size=10_000)  # never initialises
        for point in two_blob_stream.prefix(50):
            model.learn_one(point.values, timestamp=point.timestamp)
        restored = model_from_dict(model_to_dict(model))
        assert not restored.initialized
        assert restored.n_inactive_cells == model.n_inactive_cells

    @pytest.mark.parametrize("version", [1, FORMAT_VERSION + 1])
    def test_unsupported_version_rejected(self, two_blob_stream, version):
        """Version 1 stored ``density``/``last_update`` per cell, not ``key``."""
        model = trained_model(two_blob_stream)
        payload = model_to_dict(model)
        payload["format_version"] = version
        if version == 1:
            for cell in payload["active_cells"] + payload["inactive_cells"]:
                del cell["key"]
                cell.update(density=1.0, last_update=cell["last_absorb"])
        with pytest.raises(ValueError, match="unsupported snapshot format version"):
            model_from_dict(payload)

    def test_config_round_trip(self, two_blob_stream):
        model = trained_model(
            two_blob_stream, enable_triangle_filter=False, maintenance_interval=2.5
        )
        restored = model_from_dict(model_to_dict(model))
        assert restored.config.enable_triangle_filter is False
        assert restored.config.maintenance_interval == 2.5

    @pytest.mark.parametrize("label", ["normal", 0.5])
    @pytest.mark.parametrize("batch_size", [256, None])
    def test_non_integer_labels_survive_reload(self, two_blob_stream, tmp_path, label, batch_size):
        """Labels are ignored, so no label value can break a reload."""
        model = EDMStream(radius=0.5, beta=0.001, stream_rate=1000.0, init_size=100)
        model.learn_many(
            [StreamPoint(p.values, p.timestamp, label=label) for p in two_blob_stream],
            batch_size=batch_size,
        )
        restored = load_model(save_model(model, tmp_path / "model.json"))
        assert restored.clusters() == model.clusters()
        restored.learn_one((0.0, 0.0), timestamp=restored.now + 0.001, label=label)
        assert restored.n_points == model.n_points + 1

    def test_snapshot_with_label_votes_loads(self, two_blob_stream):
        """Cells saved with a ``label_votes`` histogram (older files) still load."""
        model = trained_model(two_blob_stream)
        payload = json.loads(json.dumps(model_to_dict(model)))
        for cell in payload["active_cells"] + payload["inactive_cells"]:
            assert "label_votes" not in cell
            cell["label_votes"] = {"0": 3, "1": 1}
        restored = model_from_dict(payload)
        assert restored.clusters() == model.clusters()
        assert restored.tau == model.tau


class TestSnapshotCompatibilityAndSafety:
    def test_shared_telemetry_instance_round_trips(self, two_blob_stream, tmp_path):
        model = trained_model(two_blob_stream, telemetry=Telemetry())
        restored = load_model(save_model(model, tmp_path / "model.json"))
        assert restored.config.telemetry is True
        assert isinstance(restored.obs, Telemetry)
        assert restored.clusters() == model.clusters()

    def test_telemetry_off_persists_as_false(self, two_blob_stream):
        payload = model_to_dict(trained_model(two_blob_stream))
        assert payload["config"]["telemetry"] is False

    def test_failed_save_leaves_previous_snapshot_loadable(self, two_blob_stream, tmp_path):
        path = tmp_path / "model.json"
        good = trained_model(two_blob_stream)
        save_model(good, path)
        before = path.read_bytes()
        broken = trained_model(two_blob_stream)
        broken.config.outlier_label = object()  # not JSON-serialisable
        with pytest.raises(TypeError):
            save_model(broken, path)
        assert path.read_bytes() == before
        assert load_model(path).clusters() == good.clusters()

    def test_snapshot_with_retired_sketch_keys_loads(self, two_blob_stream):
        """Snapshots written while the sketch geometry was configurable still load."""
        model = trained_model(two_blob_stream, memory_cap_bytes=1 << 20)
        payload = json.loads(json.dumps(model_to_dict(model)))
        payload["config"].update(
            sketch_width=4096,
            sketch_depth=4,
            sketch_bloom_capacity=100_000,
            sketch_bloom_error_rate=0.01,
            sketch_revive_min=0.05,
            telemetry=None,
        )
        restored = model_from_dict(payload)
        assert restored.config.memory_cap_bytes == 1 << 20
        assert not hasattr(restored.config, "sketch_width")
        assert restored.clusters() == model.clusters()


@pytest.fixture(scope="module")
def sds_12k():
    return list(SDSGenerator(n_points=12_000, rate=1000.0, seed=1).generate())


def seed_keyed_state(model):
    """Every cell by seed, the seed-keyed partition, τ and α (ids differ between models)."""
    cells = sorted(
        (
            tuple(cell.seed),
            cell.cell_id in model.tree,
            cell.key,
            cell.last_absorb,
            cell.points_absorbed,
        )
        for cell in list(model.tree.cells()) + list(model.reservoir.cells())
    )
    seed_of = {cell.cell_id: tuple(cell.seed) for cell in model.tree.cells()}
    partition = frozenset(
        frozenset(seed_of[member] for member in members) for members in model.clusters().values()
    )
    return cells, partition, model.tau, model.alpha


class TestMidStreamRestore:
    """A model saved mid-stream and restored continues exactly like the original."""

    @pytest.mark.parametrize(
        ("split", "batch_size", "dtype"),
        [
            (split, batch_size, "float64")
            for split in (300, 3001, 6000, 9137)
            for batch_size in (256, None)
        ]
        + [(6000, 256, "float32")],
    )
    def test_restored_model_continues_exactly(self, sds_12k, tmp_path, split, batch_size, dtype):
        model = EDMStream(radius=0.3, beta=0.0021, stream_rate=1000.0, dtype=dtype)
        model.learn_many(sds_12k[:split], batch_size=batch_size)
        restored = load_model(save_model(model, tmp_path / "model.json"))
        assert restored.initialized == (split >= model.config.init_size)
        model.learn_many(sds_12k[split:], batch_size=batch_size)
        restored.learn_many(sds_12k[split:], batch_size=batch_size)
        assert seed_keyed_state(restored) == seed_keyed_state(model)
