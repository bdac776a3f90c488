"""Tests for the stream abstractions (StreamPoint, DataStream)."""

import pytest

from repro.streams import StreamPoint, stream_from_arrays
from repro.streams.stream import DataStream


class TestStreamPoint:
    def test_from_sequence_copies_to_tuple(self):
        point = StreamPoint.from_sequence([1, 2, 3], timestamp=0.5, label=2)
        assert point.values == (1.0, 2.0, 3.0)
        assert point.timestamp == 0.5
        assert point.label == 2
        assert point.dimension == 3

    def test_as_tuple(self):
        point = StreamPoint(values=(1.5, 2.5), timestamp=0.0)
        assert point.as_tuple() == (1.5, 2.5)

    def test_dimension_of_non_numeric_payload(self):
        point = StreamPoint(values=object(), timestamp=0.0)
        assert point.dimension == 0

    def test_points_are_frozen(self):
        point = StreamPoint(values=(1.0,), timestamp=0.0)
        with pytest.raises(AttributeError):
            point.timestamp = 5.0


class TestStreamFromArrays:
    def test_timestamps_follow_the_rate(self):
        stream = stream_from_arrays([[0.0], [1.0], [2.0]], rate=10.0)
        assert [p.timestamp for p in stream] == pytest.approx([0.0, 0.1, 0.2])
        assert stream.rate == 10.0

    def test_labels_attached(self):
        stream = stream_from_arrays([[0.0], [1.0]], labels=[5, 6])
        assert stream.labels() == [5, 6]

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            stream_from_arrays([[0.0]], labels=[1, 2])

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            DataStream(points=[], rate=0.0)


class TestDataStream:
    @pytest.fixture
    def stream(self):
        return stream_from_arrays(
            [[float(i), 0.0] for i in range(10)], labels=list(range(10)), rate=2.0
        )

    def test_len_iter_getitem(self, stream):
        assert len(stream) == 10
        assert stream[0].values == (0.0, 0.0)
        assert [p.label for p in stream][:3] == [0, 1, 2]

    def test_slice_returns_stream(self, stream):
        prefix = stream[:4]
        assert isinstance(prefix, DataStream)
        assert len(prefix) == 4

    def test_prefix(self, stream):
        assert len(stream.prefix(3)) == 3

    def test_dimension_and_duration(self, stream):
        assert stream.dimension == 2
        assert stream.duration == pytest.approx(4.5)

    def test_values_matrix(self, stream):
        matrix = stream.values_matrix()
        assert matrix.shape == (10, 2)
        assert matrix[3, 0] == 3.0

    def test_with_rate_rescales_timestamps(self, stream):
        fast = stream.with_rate(10.0)
        assert fast.rate == 10.0
        assert fast[1].timestamp - fast[0].timestamp == pytest.approx(0.1)
        assert [p.values for p in fast] == [p.values for p in stream]
        with pytest.raises(ValueError):
            stream.with_rate(0.0)

    def test_shuffled_preserves_content(self, stream):
        shuffled = stream.shuffled(seed=1)
        assert sorted(p.values for p in shuffled) == sorted(p.values for p in stream)
        assert shuffled[1].timestamp > shuffled[0].timestamp

    def test_empty_stream_properties(self):
        empty = DataStream(points=[], rate=1.0)
        assert empty.dimension == 0
        assert empty.duration == 0.0
