"""CSV series/score files and the JSON label/window documents."""

import json
from datetime import datetime, timedelta

import pytest

from htmpm.errors import DataError, StreamError
from htmpm.nab import AnomalyWindow
from htmpm.series import (parse_timestamp, read_labels, read_scores,
                          read_series, write_labels, write_scores,
                          write_series, write_windows)

T0 = datetime(2021, 3, 1, 12, 0, 0)


def sample_records(n=5):
    return [(T0 + timedelta(minutes=i), float(i) * 1.5) for i in range(n)]


class TestTimestamps:
    def test_iso_parse(self):
        assert parse_timestamp("2021-03-01T12:00:00") == T0

    def test_timezone_normalized_to_utc(self):
        assert parse_timestamp("2021-03-01T14:00:00+02:00") == T0

    def test_fractional_seconds_preserved(self):
        ts = parse_timestamp("2021-03-01T12:00:00.250")
        assert ts.microsecond == 250000

    def test_bad_timestamp(self):
        with pytest.raises(DataError):
            parse_timestamp("yesterday")


class TestSeriesRoundTrip:
    def test_write_read_identity(self, tmp_path):
        path = tmp_path / "s.csv"
        records = sample_records()
        write_series(path, records)
        assert read_series(path) == records

    def test_rewrite_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        records = [(T0, 0.1), (T0 + timedelta(minutes=1), 1 / 3)]
        write_series(a, records)
        write_series(b, read_series(a))
        assert a.read_bytes() == b.read_bytes()

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,value\n2021-03-01T12:00:00,1.0\n")
        with pytest.raises(DataError, match="time,value"):
            read_series(path)

    def test_malformed_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,value\n2021-03-01T12:00:00,1.0\noops\n")
        with pytest.raises(DataError, match="bad.csv:3"):
            read_series(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,value\n2021-03-01T12:00:00,abc\n")
        with pytest.raises(DataError):
            read_series(path)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_value_rejected(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(f"timestamp,value\n2021-03-01T12:00:00,1.0\n2021-03-01T12:01:00,{text}\n")
        with pytest.raises(DataError, match="bad.csv:3"):
            read_series(path)

    def test_out_of_order_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,value\n"
                        "2021-03-01T12:01:00,1.0\n"
                        "2021-03-01T12:00:00,2.0\n")
        with pytest.raises(StreamError):
            read_series(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("timestamp,value\n")
        with pytest.raises(DataError):
            read_series(path)


class TestScores:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scores.csv"
        records = sample_records(3)
        write_scores(path, records, [0.0, 0.25, 1.0])
        rows = read_scores(path)
        assert [(t, v) for t, v, _ in rows] == records
        assert [s for _, _, s in rows] == [0.0, 0.25, 1.0]

    def test_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(DataError):
            write_scores(tmp_path / "x.csv", sample_records(3), [0.5])

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("timestamp,value\n2021-03-01T12:00:00,1.0\n")
        with pytest.raises(DataError):
            read_scores(path)

    def test_out_of_order_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,value,anomaly_score\n"
                        "2021-03-01T12:01:00,1.0,0.5\n"
                        "2021-03-01T12:00:00,2.0,0.5\n")
        with pytest.raises(StreamError, match="bad.csv:3"):
            read_scores(path)

    def test_equal_timestamps_accepted(self, tmp_path):
        path = tmp_path / "s.csv"
        write_scores(path, [(T0, 1.0), (T0, 2.0)], [0.5, 0.5])
        assert [t for t, _, _ in read_scores(path)] == [T0, T0]


class TestLabelsAndWindows:
    def test_labels_round_trip(self, tmp_path):
        path = tmp_path / "labels.json"
        labels = {"a.csv": [T0, T0 + timedelta(hours=1)], "b.csv": []}
        write_labels(path, labels)
        assert read_labels(path) == labels

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text("not json")
        with pytest.raises(DataError):
            read_labels(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text("[1, 2]")
        with pytest.raises(DataError):
            read_labels(path)

    @pytest.mark.parametrize("doc", [
        {"a.csv": 5},
        {"a.csv": [5]},
        {"a.csv": "2021-03-01T12:00:00"},
        {"a.csv": ["2021-03-01T12:00:00", None]},
    ])
    def test_malformed_instants_rejected(self, tmp_path, doc):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="a.csv"):
            read_labels(path)

    def test_windows_document_shape(self, tmp_path):
        path = tmp_path / "windows.json"
        write_windows(path, {
            "a.csv": [AnomalyWindow(T0, T0 + timedelta(minutes=10))],
        })
        doc = json.loads(path.read_text())
        assert doc == {
            "a.csv": [["2021-03-01T12:00:00", "2021-03-01T12:10:00"]],
        }
