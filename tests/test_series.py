"""CSV series/score files and the JSON label/window documents."""

import json
import random
import re
from datetime import datetime, timedelta, timezone
from math import isfinite
from pathlib import Path

import numpy as np
import pytest

from htmpm.errors import DataError, StreamError
from htmpm.nab import AnomalyWindow
from htmpm.series import (SCORES_HEADER, SERIES_HEADER, Columns,
                          parse_timestamp, read_columns, read_labels, read_scores, read_series,
                          write_labels, write_scores, write_series,
                          write_windows)
from records import EPOCH, as_columns, micros

T0 = datetime(2021, 3, 1, 12, 0, 0)


def sample_records(n=5):
    return [(T0 + timedelta(minutes=i), float(i) * 1.5) for i in range(n)]


# Line-by-line readers: the reference the column parser is tested against.

def reference_stamp(path, lineno, text):
    try:
        return parse_timestamp(text)
    except DataError as exc:
        raise DataError(f"{path}:{lineno}: {exc}") from None


def reference_read_series(path):
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != SERIES_HEADER:
        found = lines[0] if lines else "<empty file>"
        raise DataError(f"{path}: expected header {SERIES_HEADER!r}, found {found!r}")
    records = []
    prev_ts = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise DataError(f"{path}:{lineno}: malformed row {line!r}")
        ts = reference_stamp(path, lineno, parts[0])
        try:
            value = float(parts[1])
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad value {parts[1]!r}") from None
        if not isfinite(value):
            raise DataError(f"{path}:{lineno}: non-finite value {parts[1]!r}")
        if prev_ts is not None and ts < prev_ts:
            raise StreamError(f"{path}:{lineno}: timestamps out of order")
        prev_ts = ts
        records.append((ts, value))
    if not records:
        raise DataError(f"{path}: no data rows")
    return records


def reference_read_scores(path):
    """Rows of (timestamp, value, score)."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != SCORES_HEADER:
        found = lines[0] if lines else "<empty file>"
        raise DataError(f"{path}: expected header {SCORES_HEADER!r}, found {found!r}")
    rows = []
    prev_ts = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: malformed row {line!r}")
        ts = reference_stamp(path, lineno, parts[0])
        try:
            value, score = float(parts[1]), float(parts[2])
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad number in {line!r}") from None
        if not isfinite(value):
            raise DataError(f"{path}:{lineno}: non-finite value {parts[1]!r}")
        if not 0.0 <= score <= 1.0:
            raise DataError(f"{path}:{lineno}: score {parts[2]!r} outside [0, 1]")
        if prev_ts is not None and ts < prev_ts:
            raise StreamError(f"{path}:{lineno}: timestamps out of order")
        prev_ts = ts
        rows.append((ts, value, score))
    if not rows:
        raise DataError(f"{path}: no data rows")
    return rows


# Row-at-a-time writers: the reference the column writer is tested against.

def reference_format_timestamp(ts):
    if ts.tzinfo is not None:
        ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
    return ts.isoformat()


def reference_write_series(path, records):
    lines = [SERIES_HEADER]
    lines += [f"{reference_format_timestamp(ts)},{value!r}" for ts, value in records]
    Path(path).write_text("\n".join(lines) + "\n")


def reference_write_scores(path, records, scores):
    lines = [SCORES_HEADER]
    lines += [
        f"{reference_format_timestamp(ts)},{value!r},{score!r}"
        for (ts, value), score in zip(records, scores)
    ]
    Path(path).write_text("\n".join(lines) + "\n")


AWKWARD_FLOATS = [0.0, -0.0, 5e-324, 2.5e-310, 1e16, 1e-05, 1e22, 0.1, 1 / 3,
                  123456789.0, -2.5, 1.7976931348623157e308]
AWKWARD_SCORES = [0.0, -0.0, 1.0, 5e-324, 1e-05, 0.5, 1 / 3, 0.9999999999999999]


def random_records(rng, n):
    """Non-decreasing instants near year 1, 2021 or year 9999, some on a
    whole second, some tz-aware; awkward and random floats."""
    instant = rng.choice([datetime(1, 1, 2), datetime(9999, 12, 30),
                          datetime(2021, 1, 1) + timedelta(seconds=rng.randrange(10**8))])
    records = []
    for _ in range(n):
        instant += rng.choice([
            timedelta(0), timedelta(seconds=rng.randrange(1, 5)), timedelta(microseconds=1),
            timedelta(microseconds=rng.randrange(10**7)),
            timedelta(microseconds=(10**6 - instant.microsecond) % 10**6)])
        offset = rng.choice([None, None, timedelta(0), timedelta(hours=2),
                             timedelta(hours=-5, minutes=-30)])
        ts = instant if offset is None else (instant + offset).replace(tzinfo=timezone(offset))
        value = rng.choice(AWKWARD_FLOATS + [rng.gauss(0, 5), rng.gauss(0, 1e-300)])
        records.append((ts, value))
    return records


def pairs(columns):
    """``read_series``' columns as (naive UTC datetime, float) pairs."""
    return [(EPOCH + timedelta(microseconds=t), v)
            for t, v in zip(columns.times.tolist(), columns.values.tolist())]


def read_both(path, scores):
    """The parser's and the reference's outcome: ("ok", records) or
    ("error", type, message). Score columns are compared bit for bit."""
    def outcome(read, as_records):
        try:
            return "ok", as_records(read(path))
        except DataError as exc:
            return "error", type(exc), str(exc)

    def bits(values):
        return np.asarray(values, dtype=float).tobytes()

    if not scores:
        return (outcome(read_series, pairs), outcome(reference_read_series, list))
    return (
        outcome(read_scores, lambda c: (c.times.dtype, c.times.tolist(),
                                        bits(c.values), bits(c.scores))),
        outcome(reference_read_scores, lambda rows: (
            np.dtype(np.int64), [micros(t) for t, _, _ in rows],
            bits([v for _, v, _ in rows]), bits([s for _, _, s in rows]))),
    )


def random_stamp(rng, instant, timespec):
    """``instant`` (naive UTC) in one of the ISO-8601 spellings files use."""
    offset = rng.choice([None, None, timedelta(0), timedelta(hours=2),
                         timedelta(hours=-5, minutes=-30)])
    t = instant if offset is None else (instant + offset).replace(tzinfo=timezone(offset))
    text = t.isoformat(sep=rng.choice("T "), timespec=timespec)
    return text.replace("+00:00", "Z") if rng.random() < 0.5 else text


def random_rows(rng, n, scores):
    """Data lines with non-decreasing instants, some equal, written with
    0, 3 or 6 fractional digits."""
    instant = shown = datetime(2021, 1, 1) + timedelta(microseconds=rng.randrange(10**12))
    rows = []
    for _ in range(n):
        instant += rng.choice([timedelta(0), timedelta(milliseconds=20),
                               timedelta(microseconds=rng.randrange(1, 10**7))])
        timespec, unit = rng.choice([("seconds", 10**6), ("milliseconds", 10**3),
                                     ("microseconds", 1)])
        truncated = instant.replace(microsecond=instant.microsecond // unit * unit)
        if truncated < shown:
            timespec, truncated = "microseconds", instant
        shown = truncated
        value = rng.choice([repr(rng.gauss(0, 5)), str(rng.randrange(-9, 10)), "-0.0", "1e-05"])
        fields = [random_stamp(rng, shown, timespec), value]
        if scores:
            fields.append(rng.choice(["0.0", "1.0", "1", repr(rng.random())]))
        rows.append(",".join(fields))
    return rows


def write_file(path, header, rows, rng):
    """Rows with blank or whitespace-only lines between them and mixed
    LF/CRLF line ends."""
    lines = [header]
    for row in rows:
        while rng.random() < 0.15:
            lines.append(rng.choice(["", "   ", "\t"]))
        lines.append(row)
    path.write_bytes("".join(line + rng.choice(["\n", "\r\n"]) for line in lines).encode())


def inject_fault(rng, row):
    """``row`` with one fault of a line-by-line reader's checks."""
    fields = row.split(",")
    k = rng.randrange(len(fields))
    number = rng.randrange(1, len(fields)) if len(fields) > 1 else 0
    fault = rng.randrange(7)
    if fault == 0:
        fields.append("7")
    elif fault == 1:
        del fields[k]
    elif fault == 2:
        fields[k] = ""
    elif fault == 3:
        fields[0] = rng.choice(["yesterday", "2021", "NaT", "2021-13-01T00:00:00"])
    elif fault == 4:
        fields[number] = rng.choice(["abc", "1.0.0", "0x10"])
    elif fault == 5:
        fields[number] = rng.choice(["nan", "inf", "-inf", "1.5", "-1"])
    else:
        fields[0] = "2020-12-31T00:00:00"
    return ",".join(fields)


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
        assert pairs(read_series(path)) == records

    def test_rewrite_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        records = [(T0, 0.1), (T0 + timedelta(minutes=1), 1 / 3)]
        write_series(a, records)
        write_series(b, read_columns(a))  # no rows: the formatter writes b
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


class TestColumnParserMatchesReference:
    @pytest.mark.parametrize("scores", [False, True], ids=["series", "scores"])
    @pytest.mark.parametrize("seed", range(15))
    def test_random_files(self, tmp_path, seed, scores):
        rng = random.Random(seed)
        path = tmp_path / "f.csv"
        rows = random_rows(rng, rng.randrange(1, 80), scores)
        write_file(path, SCORES_HEADER if scores else SERIES_HEADER, rows, rng)
        got, want = read_both(path, scores)
        assert want[0] == "ok"
        assert got == want

    @pytest.mark.parametrize("scores", [False, True], ids=["series", "scores"])
    @pytest.mark.parametrize("stamp, accepted", [
        # numpy's datetime64 parser takes the first two and rejects the rest
        ("NaT", False), ("2021", False),
        ("20210101T000000", True), ("2021-W01-1", True),
        ("2021-01-01T00:00:00,5", False),
    ])
    def test_fixed_stamps(self, tmp_path, scores, stamp, accepted):
        path = tmp_path / "f.csv"
        header = SCORES_HEADER if scores else SERIES_HEADER
        row = f"{stamp},1.0,0.5" if scores else f"{stamp},1.0"
        path.write_text(f"{header}\n2020-12-31T00:00:00{row[len(stamp):]}\n{row}\n")
        got, want = read_both(path, scores)
        assert got == want
        assert (want[0] == "ok") == accepted

    @pytest.mark.parametrize("scores, bad_row, message", [
        (False, "2021-03-01T12:02:00,1.0,9", "bad.csv:4: malformed row"),
        (False, ",1.0", "bad.csv:4: malformed row"),
        (False, "2021-03-01T12:02:00,", "bad.csv:4: malformed row"),
        (False, "noon,1.0", "bad timestamp 'noon'"),
        (False, "2021-03-01T12:02:00,1.o", "bad.csv:4: bad value '1.o'"),
        (False, "2021-03-01T12:02:00,inf", "bad.csv:4: non-finite value 'inf'"),
        (False, "2021-03-01T11:00:00,1.0", "bad.csv:4: timestamps out of order"),
        (True, "2021-03-01T12:02:00,1.0,0.5,9", "bad.csv:4: malformed row"),
        (True, "2021-03-01T12:02:00,1.0", "bad.csv:4: malformed row"),
        (True, ",1.0,0.5", "bad timestamp ''"),
        (True, "noon,1.0,0.5", "bad timestamp 'noon'"),
        (True, "2021-03-01T12:02:00,,0.5", "bad.csv:4: bad number in"),
        (True, "2021-03-01T12:02:00,1.0,1.o", "bad.csv:4: bad number in"),
        (True, "2021-03-01T12:02:00,-inf,0.5", "bad.csv:4: non-finite value '-inf'"),
        (True, "2021-03-01T12:02:00,1.0,nan", "bad.csv:4: score 'nan' outside [0, 1]"),
        (True, "2021-03-01T11:00:00,1.0,0.5", "bad.csv:4: timestamps out of order"),
        # two faults in one row: the first check a line-by-line reader
        # applies names it
        (False, "noon,inf", "bad timestamp 'noon'"),
        (True, "noon,1.o,0.5", "bad timestamp 'noon'"),
        (True, "2021-03-01T12:02:00,inf,1.5", "bad.csv:4: non-finite value 'inf'"),
        (True, "2021-03-01T11:00:00,1.0,1.5", "bad.csv:4: score '1.5' outside [0, 1]"),
    ])
    def test_malformed(self, tmp_path, scores, bad_row, message):
        # the bad row follows a blank line, so its line number counts it
        path = tmp_path / "bad.csv"
        header = SCORES_HEADER if scores else SERIES_HEADER
        good = "2021-03-01T12:00:00,1.0,0.5" if scores else "2021-03-01T12:00:00,1.0"
        path.write_text(f"{header}\n{good}\n\n{bad_row}\n{good}\n")
        got, want = read_both(path, scores)
        assert want[0] == "error"
        assert got == want
        assert message in got[2]
        assert got[2].startswith(f"{path}:4: ")

    @pytest.mark.parametrize("scores", [False, True], ids=["series", "scores"])
    def test_random_faults(self, tmp_path, scores):
        """Up to three faults in one file: both name the first bad line and
        the first of its checks that fails."""
        path = tmp_path / "f.csv"
        for seed in range(200):
            rng = random.Random(seed)
            rows = random_rows(rng, rng.randrange(2, 40), scores)
            for _ in range(rng.randrange(1, 4)):
                i = rng.randrange(len(rows))
                rows[i] = inject_fault(rng, rows[i])
            write_file(path, SCORES_HEADER if scores else SERIES_HEADER, rows, rng)
            got, want = read_both(path, scores)
            assert got == want, f"seed {seed}"


# stamps whose UTC offset carries them before year 1 or past year 9999
OUT_OF_RANGE_STAMPS = ["0001-01-01T00:00:00+01:00", "9999-12-31T23:00:00-05:00"]


class TestOutOfRangeUtcNormalization:
    """A stamp that names a valid local time but no UTC instant in the
    years 1 to 9999 is a bad timestamp, not a crash."""

    @pytest.mark.parametrize("stamp", OUT_OF_RANGE_STAMPS)
    def test_parse_timestamp(self, stamp):
        with pytest.raises(DataError, match=re.escape(
                f"bad timestamp {stamp!r}: date value out of range")):
            parse_timestamp(stamp)

    @pytest.mark.parametrize("scores", [False, True], ids=["series", "scores"])
    @pytest.mark.parametrize("stamp", OUT_OF_RANGE_STAMPS)
    def test_data_file(self, tmp_path, scores, stamp):
        path = tmp_path / "f.csv"
        header, tail = (SCORES_HEADER, ",1.0,0.5") if scores else (SERIES_HEADER, ",1.0")
        path.write_text(f"{header}\n{stamp}{tail}\n2021-03-01T12:00:00{tail}\n")
        for read in (read_scores if scores else read_series, read_columns):
            with pytest.raises(DataError) as refused:
                read(path)
            assert str(refused.value) == (
                f"{path}:2: bad timestamp {stamp!r}: date value out of range")


class TestColumnWriterMatchesReference:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_records(self, tmp_path, seed):
        rng = random.Random(seed)
        records = random_records(rng, rng.randrange(1, 60))
        scores = [rng.choice(AWKWARD_SCORES + [rng.random()]) for _ in records]
        for name, write, given, reference, args in [
            ("s", write_series, (records,), reference_write_series, (records,)),
            ("c", write_scores, (as_columns(records), scores),
             reference_write_scores, (records, scores)),
        ]:
            got, want = tmp_path / f"{name}.csv", tmp_path / f"{name}_ref.csv"
            write(got, *given)
            reference(want, *args)
            assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_columns_write_as_pairs(self, tmp_path, seed):
        rng = random.Random(seed)
        records = random_records(rng, rng.randrange(1, 60))
        write_series(tmp_path / "a.csv", as_columns(records))
        reference_write_series(tmp_path / "b.csv", records)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_edge_stamps(self, tmp_path):
        stamps = [datetime(1, 1, 1), datetime(1, 1, 1, 0, 0, 0, 1), datetime(1969, 12, 31, 23, 59, 59),
                  datetime(1969, 12, 31, 23, 59, 59, 999999), datetime(1970, 1, 1),
                  datetime(2000, 2, 29, 12, 0, 0, 500000), datetime(9999, 12, 31, 23, 59, 59),
                  datetime(9999, 12, 31, 23, 59, 59, 999999)]
        records = [(t, 1.0) for t in stamps]
        write_series(tmp_path / "a.csv", records)
        reference_write_series(tmp_path / "b.csv", records)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_empty_records(self, tmp_path):
        for records in ([], as_columns([])):
            write_series(tmp_path / "a.csv", records)
            assert (tmp_path / "a.csv").read_text() == SERIES_HEADER + "\n"
        write_scores(tmp_path / "b.csv", as_columns([]), [])
        assert (tmp_path / "b.csv").read_text() == SCORES_HEADER + "\n"


class TestWriterRefusesUnreadableRecords:
    @pytest.mark.parametrize("value, message", [
        (float("nan"), "x.csv: record 2: non-finite value nan"),
        (float("inf"), "x.csv: record 2: non-finite value inf"),
        (float("-inf"), "x.csv: record 2: non-finite value -inf"),
    ])
    def test_non_finite_value(self, tmp_path, value, message):
        records = sample_records(4)
        records[2] = (records[2][0], value)
        path = tmp_path / "x.csv"
        for write in (lambda: write_series(path, records),
                      lambda: write_series(path, as_columns(records)),
                      lambda: write_scores(path, as_columns(records), [0.5] * 4)):
            with pytest.raises(DataError, match=re.escape(message)):
                write()
            assert not path.exists()

    @pytest.mark.parametrize("score", [1.5, -0.5, float("nan"), float("inf")])
    def test_score_outside_unit_interval(self, tmp_path, score):
        with pytest.raises(DataError, match=re.escape(f"x.csv: record 1: score {score!r} outside [0, 1]")):
            write_scores(tmp_path / "x.csv", as_columns(sample_records(3)), [0.0, score, 0.5])
        assert not (tmp_path / "x.csv").exists()

    def test_out_of_order(self, tmp_path):
        records = sample_records(4)
        records[1], records[2] = records[2], records[1]
        for given in (records, as_columns(records)):
            with pytest.raises(StreamError, match="x.csv: record 2: timestamps out of order"):
                write_series(tmp_path / "x.csv", given)
        assert not (tmp_path / "x.csv").exists()

    def test_out_of_order_after_tz_normalisation(self, tmp_path):
        # 12:30+02:00 is 10:30 UTC, before the first record
        records = [(T0, 1.0), (T0.replace(minute=30, tzinfo=timezone(timedelta(hours=2))), 2.0)]
        with pytest.raises(StreamError, match="record 1"):
            write_series(tmp_path / "x.csv", records)

    @pytest.mark.parametrize("micro", [micros(datetime.min) - 1, micros(datetime.max) + 1])
    def test_stamp_outside_datetime_range(self, tmp_path, micro):
        columns = Columns(np.array([0, micro], dtype=np.int64), np.array([1.0, 2.0]))
        with pytest.raises(DataError, match="x.csv: record 1: timestamp outside the years 1 to 9999"):
            write_series(tmp_path / "x.csv", columns)
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("scores", [False, True], ids=["series", "scores"])
    def test_refused_exactly_when_the_reader_fails(self, tmp_path, scores):
        """One fault per file: the writer refuses the records exactly when
        the reference writer writes a file the reader refuses, with the
        same exception type, and names the record on the reader's line."""
        for seed in range(100):
            rng = random.Random(seed)
            records = random_records(rng, rng.randrange(2, 30))
            record_scores = [rng.random() for _ in records]
            i = rng.randrange(len(records))
            fault = rng.randrange(3 if scores else 2)
            if fault == 0:
                records[i] = (records[i][0], rng.choice([float("nan"), float("inf"), -float("inf")]))
            elif fault == 1 and i:
                records[i] = (records[i - 1][0] - timedelta(microseconds=rng.randrange(1, 10**7)),
                              records[i][1])
            elif fault == 2:
                record_scores[i] = rng.choice([1.5, -0.25, float("nan")])
            args = (records, record_scores) if scores else (records,)
            given = (as_columns(records), record_scores) if scores else args
            write, reference, read = ((write_scores, reference_write_scores, read_scores) if scores
                                      else (write_series, reference_write_series, read_series))
            reference(tmp_path / "ref.csv", *args)
            try:
                read(tmp_path / "ref.csv")
            except DataError as exc:
                with pytest.raises(type(exc)) as refused:
                    write(tmp_path / "x.csv", *given)
                assert f"x.csv: record {int(str(exc).split(':')[1]) - 2}:" in str(refused.value)
                assert not (tmp_path / "x.csv").exists()
            else:
                write(tmp_path / "x.csv", *given)
                assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
                (tmp_path / "x.csv").unlink()


class TestScores:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scores.csv"
        records = sample_records(3)
        write_scores(path, as_columns(records), [0.0, 0.25, 1.0])
        columns = read_scores(path)
        assert len(columns) == 3
        assert columns.times.tolist() == [micros(t) for t, _ in records]
        assert columns.values.tolist() == [v for _, v in records]
        assert columns.scores.tolist() == [0.0, 0.25, 1.0]
        assert columns.span() == (records[0][0], records[-1][0])

    def test_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(DataError):
            write_scores(tmp_path / "x.csv", as_columns(sample_records(3)), [0.5])

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
        write_scores(path, as_columns([(T0, 1.0), (T0, 2.0)]), [0.5, 0.5])
        assert read_scores(path).times.tolist() == [micros(T0)] * 2

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf", "1.5", "-0.5"])
    def test_score_outside_unit_interval_rejected(self, tmp_path, score):
        path = tmp_path / "bad.csv"
        path.write_text(f"{SCORES_HEADER}\n2021-03-01T12:00:00,1.0,0.5\n\n"
                        f"2021-03-01T12:01:00,1.0,{score}\n")
        with pytest.raises(DataError, match=rf"bad.csv:4: score '{score}' outside \[0, 1\]"):
            read_scores(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"{SCORES_HEADER}\n2021-03-01T12:00:00,{value},0.5\n")
        with pytest.raises(DataError, match=f"bad.csv:2: non-finite value '{value}'"):
            read_scores(path)


class TestRows:
    ROWS = ["2021-03-01T14:00:00+02:00,1.50", "2021-03-01 12:01:00Z,2", "2021-03-01T12:02:00,-0.0"]

    def write_source(self, path):
        path.write_text("\n".join([SERIES_HEADER, *self.ROWS]) + "\n")
        return read_series(path)

    def test_read_series_keeps_rows(self, tmp_path):
        series = self.write_source(tmp_path / "s.csv")
        assert series.rows == self.ROWS
        assert series.times.tolist() == [micros(T0 + timedelta(minutes=i)) for i in range(3)]
        assert series.values.tolist() == [1.5, 2.0, -0.0]

    def test_scores_repeat_rows(self, tmp_path):
        series = self.write_source(tmp_path / "s.csv")
        write_scores(tmp_path / "x.csv", series, [0.0, 0.25, 1 / 3])
        assert (tmp_path / "x.csv").read_text().splitlines() == [
            SCORES_HEADER, f"{self.ROWS[0]},0.0", f"{self.ROWS[1]},0.25",
            f"{self.ROWS[2]},{1 / 3!r}"]

    @pytest.mark.parametrize("score", [float("nan"), 1.5, -0.5])
    def test_bad_score_refused_before_open(self, tmp_path, score):
        series = self.write_source(tmp_path / "s.csv")
        with pytest.raises(DataError, match="x.csv: record 1: score"):
            write_scores(tmp_path / "x.csv", series, [0.0, score, 0.5])
        assert not (tmp_path / "x.csv").exists()

    def test_slice_keeps_rows(self, tmp_path):
        series = self.write_source(tmp_path / "s.csv")[::2]
        assert series.rows == self.ROWS[::2]
        assert series.values.tolist() == [1.5, -0.0]
        with pytest.raises(TypeError):
            series[0]


class TestReadColumns:
    def test_series_file(self, tmp_path):
        path = tmp_path / "s.csv"
        write_series(path, sample_records(4))
        columns = read_columns(path)
        assert columns.scores is None
        assert columns.values.tolist() == [v for _, v in sample_records(4)]

    def test_score_file(self, tmp_path):
        path = tmp_path / "s.csv"
        write_scores(path, as_columns(sample_records(2)), [0.0, 1.0])
        assert read_columns(path).scores.tolist() == [0.0, 1.0]

    def test_score_header_checked(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("timestamp,anomaly_score\n2021-03-01T12:00:00,0.5\n")
        with pytest.raises(DataError, match="expected header 'timestamp,value,anomaly_score'"):
            read_columns(path)


class TestUnreadableFiles:
    @pytest.mark.parametrize("read", [read_series, read_scores, read_columns, read_labels])
    def test_missing_file(self, tmp_path, read):
        with pytest.raises(DataError, match="nope: cannot read"):
            read(tmp_path / "nope")

    @pytest.mark.parametrize("read", [read_series, read_scores, read_labels])
    def test_directory(self, tmp_path, read):
        with pytest.raises(DataError, match="cannot read"):
            read(tmp_path)


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

    @pytest.mark.parametrize("instant", ["noon", "", *OUT_OF_RANGE_STAMPS])
    def test_bad_instant_names_file_and_series(self, tmp_path, instant):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"a.csv": ["2021-03-01T12:00:00"], "b.csv": [instant]}))
        with pytest.raises(DataError, match=re.escape(
                f"labels.json: labels of 'b.csv': bad timestamp {instant!r}")):
            read_labels(path)

    def test_instants_written_as_isoformat(self, tmp_path):
        """Labels and windows write each instant as ``isoformat`` writes its
        naive UTC form: years 1, 999 and 9999, fractions, before 1970 and
        with a UTC offset."""
        plus2 = timezone(timedelta(hours=2))
        instants = [datetime(1, 1, 1), datetime(999, 5, 6, 7, 8, 9, 10),
                    datetime(1969, 12, 31, 23, 59, 59, 500000),
                    datetime(9999, 12, 31, 23, 59, 59, 999999),
                    datetime(2021, 3, 1, 14, 0, 0, 250000, tzinfo=plus2),
                    datetime(2021, 3, 1, 14, 0, 1, tzinfo=plus2)]
        texts = [reference_format_timestamp(t) for t in instants]
        assert texts[0] == "0001-01-01T00:00:00" and texts[4] == "2021-03-01T12:00:00.250000"
        write_labels(tmp_path / "labels.json", {"a.csv": instants})
        write_windows(tmp_path / "windows.json", {
            "a.csv": [AnomalyWindow(*pair) for pair in zip(instants[::2], instants[1::2])],
        })
        assert json.loads((tmp_path / "labels.json").read_text()) == {"a.csv": texts}
        assert json.loads((tmp_path / "windows.json").read_text()) == {
            "a.csv": [list(pair) for pair in zip(texts[::2], texts[1::2])],
        }

    def test_windows_document_shape(self, tmp_path):
        path = tmp_path / "windows.json"
        write_windows(path, {
            "a.csv": [AnomalyWindow(T0, T0 + timedelta(minutes=10))],
        })
        doc = json.loads(path.read_text())
        assert doc == {
            "a.csv": [["2021-03-01T12:00:00", "2021-03-01T12:10:00"]],
        }
