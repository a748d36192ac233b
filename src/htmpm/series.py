"""CSV series / score files and the JSON labels and windows documents.

Series files carry the exact header ``timestamp,value``; score files carry
``timestamp,value,anomaly_score``. Timestamps are ISO-8601, normalized to
UTC and stored naive; fractional seconds are preserved. Floats are written
with shortest round-trip repr so reruns are byte-identical.

Both kinds go through one parser in two phases. Phase 1, on every file,
checks whole columns: each row's comma count (and, in a series file, that
no field is empty), one ``map`` of ``datetime.fromisoformat`` over the
timestamps and of ``float`` over each number column, finiteness, the
score range [0, 1] and the timestamp order. Only a file phase 1 refuses
goes on to phase 2, ``_refuse_first_fault``, the one place a read fault is
worded: it reads the data lines one at a time and raises the first fault,
checking a line's fields in the order they are read. A timestamp whose
UTC offset carries it outside the years 1 to 9999 is a bad timestamp.
Blank lines are skipped, but an error still names ``path:line`` counting
them. Every reader returns ``Columns``: ``times`` as int64 microseconds
since 1970-01-01 (naive UTC), and ``values`` and ``scores`` as float64
arrays. ``read_series`` also keeps ``rows``, each record's text exactly as
read (line end stripped), which the detectors do not need but the score
file repeats; the scorer uses ``read_scores``' columns as they are.

Past the readers, records are ``Columns`` and nothing else:
``detectors.run_file`` steps them, ``write_scores`` takes them with a
score array and the scorer takes their ``times`` and ``scores``. Only
``write_series`` also takes ``(datetime, float)`` pairs, which become
columns first.

Both kinds are written by one column writer. Records that carry their
``rows`` are written as those rows, so a score file repeats its series
file's records as they were read, each followed by ``,`` and the score's
repr. Otherwise the timestamps are formatted from int64 microseconds by
``np.datetime_as_string``, with a whole second written without a fraction
as ``datetime.isoformat`` writes it, and each number column is one
``map(repr, ...)`` over Python floats; the file is one join. Records the
readers would refuse are refused before the file is opened, naming the
path and the record's index: a non-finite value or a score outside [0, 1]
(``DataError``), a timestamp outside the years 1 to 9999 (``DataError``)
and timestamps out of order (``StreamError``). Rows were checked when
they were read, so only their scores are checked again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from itertools import repeat
from math import isfinite
from operator import attrgetter, itemgetter
from pathlib import Path

import numpy as np

from .errors import DataError, StreamError

SERIES_HEADER = "timestamp,value"
SCORES_HEADER = "timestamp,value,anomaly_score"

_EPOCH = datetime(1970, 1, 1)
_TZINFO = attrgetter("tzinfo")


def _naive_utc(ts: datetime) -> datetime:
    if ts.tzinfo is not None:
        ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
    return ts


def parse_timestamp(text: str) -> datetime:
    """An ISO-8601 timestamp as a naive UTC datetime; a text that is not
    one, or whose UTC offset carries it outside the years 1 to 9999, is a
    data error."""
    try:
        return _naive_utc(datetime.fromisoformat(text))
    except (ValueError, OverflowError) as exc:
        raise DataError(f"bad timestamp {text!r}: {exc}") from None


def format_timestamp(ts: datetime) -> str:
    return _naive_utc(ts).isoformat()


def _micros(stamps) -> np.ndarray:
    """Naive datetimes as int64 microseconds since 1970-01-01, by exact
    integer arithmetic on the fields of their offsets from the epoch: one
    map per field costs half as much as dividing each offset by a
    microsecond."""
    n = len(stamps)
    offsets = list(map(_EPOCH.__rsub__, stamps))
    days, seconds, micros = (np.fromiter(map(attrgetter(f), offsets), np.int64, n)
                             for f in ("days", "seconds", "microseconds"))
    return (days * 86400 + seconds) * 1_000_000 + micros


_FIRST_US, _LAST_US = _micros([datetime.min, datetime.max])


@dataclass(frozen=True, eq=False)
class Columns:
    """A CSV file's records as columns: ``times`` int64 microseconds since
    1970-01-01 (naive UTC), ``values`` and ``scores`` float64; ``scores`` is
    None for a series file. ``rows``, when given, holds each record's text
    as read, which the writer repeats instead of formatting ``times`` and
    ``values``. ``len`` is the record count; a slice of the records is
    ``Columns`` too."""

    times: np.ndarray
    values: np.ndarray
    scores: np.ndarray | None = None
    rows: list[str] | None = None

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, index: slice) -> Columns:
        if not isinstance(index, slice):
            raise TypeError("Columns take a slice of records, not a single record")
        return Columns(*(None if c is None else c[index]
                         for c in (self.times, self.values, self.scores, self.rows)))

    def span(self) -> tuple[datetime, datetime]:
        """The first and the last timestamp."""
        first, last = (_EPOCH + timedelta(microseconds=int(t))
                       for t in (self.times[0], self.times[-1]))
        return first, last


def _read_text(path) -> str:
    """A file's text as UTF-8; an unreadable file or undecodable bytes are
    a data error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror or exc}") from None


def _checked_columns(rows: list[str], scores: bool):
    """Phase 1 of the parser, for every file: the rows' timestamps and
    number columns, each parsed and checked whole, or None when any row is
    bad."""
    width = 3 if scores else 2
    if set(map(str.count, rows, repeat(","))) != {width - 1}:
        return None
    fields = ",".join(rows).split(",")
    if not scores and "" in fields:  # both fields of a series row are required
        return None
    try:
        stamps = list(map(datetime.fromisoformat, fields[::width]))
        if any(map(_TZINFO, stamps)):
            stamps = list(map(_naive_utc, stamps))
        columns = [np.array(list(map(float, fields[k::width]))) for k in range(1, width)]
    except (ValueError, OverflowError):
        return None
    times = _micros(stamps)
    good = np.isfinite(columns[0]).all() and not (times[1:] < times[:-1]).any()
    if scores:
        good = good and ((columns[1] >= 0.0) & (columns[1] <= 1.0)).all()
    return (times, columns) if good else None


def _refuse_first_fault(path, lines: list[str], scores: bool) -> None:
    """Phase 2 of the parser, for a file phase 1 refused: read the data
    lines one at a time and raise the first fault, checking a line's fields
    in the order they are read. The one place a read fault is worded."""
    previous = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        at = f"{path}:{lineno}: "
        fields = line.split(",")
        if len(fields) != (3 if scores else 2) or (not scores and "" in fields):
            raise DataError(f"{at}malformed row {line!r}")
        try:
            ts = parse_timestamp(fields[0])
        except DataError as exc:
            raise DataError(f"{at}{exc}") from None
        try:
            numbers = list(map(float, fields[1:]))
        except ValueError:
            raise DataError(at + (f"bad number in {line!r}" if scores
                                  else f"bad value {fields[1]!r}")) from None
        if not isfinite(numbers[0]):
            raise DataError(f"{at}non-finite value {fields[1]!r}")
        if scores and not 0.0 <= numbers[1] <= 1.0:
            raise DataError(f"{at}score {fields[2]!r} outside [0, 1]")
        if previous is not None and ts < previous:
            raise StreamError(f"{at}timestamps out of order")
        previous = ts


def _parse(path, header=None) -> tuple[list[str], np.ndarray, list[np.ndarray]]:
    """The one CSV parser: a series or score file's record texts, its
    timestamps (int64 microseconds, naive UTC) and its number columns
    (float64). With no ``header`` given, a header naming ``anomaly_score``
    marks a score file.
    """
    path = Path(path)
    lines = _read_text(path).splitlines()
    if header is None:
        header = SCORES_HEADER if lines and "anomaly_score" in lines[0] else SERIES_HEADER
    if not lines or lines[0] != header:
        found = lines[0] if lines else "<empty file>"
        raise DataError(f"{path}: expected header {header!r}, found {found!r}")
    scores = header == SCORES_HEADER
    rows = list(filter(str.strip, lines[1:]))
    if not rows:
        raise DataError(f"{path}: no data rows")
    parsed = _checked_columns(rows, scores)
    if parsed is None:
        _refuse_first_fault(path, lines, scores)
    return rows, *parsed


def read_series(path) -> Columns:
    """A series file as columns, with each record's text in ``rows``."""
    rows, times, (values,) = _parse(path, SERIES_HEADER)
    return Columns(times, values, rows=rows)


def read_scores(path) -> Columns:
    _, times, (values, scores) = _parse(path, SCORES_HEADER)
    return Columns(times, values, scores)


def read_columns(path) -> Columns:
    """A series or a score file, told apart by its header, as columns."""
    _, times, columns = _parse(path)
    return Columns(times, *columns)


def _as_columns(records) -> Columns:
    """``(datetime, float)`` pairs as columns; ``Columns`` as they are."""
    if isinstance(records, Columns):
        return records
    records = list(records)
    stamps = list(map(itemgetter(0), records))
    if any(map(_TZINFO, stamps)):
        stamps = list(map(_naive_utc, stamps))
    values = np.fromiter(map(itemgetter(1), records), float, len(records))
    return Columns(_micros(stamps), values)


def _refuse(path, mask: np.ndarray, error, template: str, column: np.ndarray) -> None:
    """Raise ``error`` for the first record flagged in ``mask``."""
    hits = np.flatnonzero(mask)
    if len(hits):
        i = int(hits[0])
        raise error(f"{path}: record {i}: " + template.format(column[i].item()))


def _write_columns(path, columns: Columns) -> None:
    """The one CSV writer: a series file, or a score file when ``columns``
    has scores. Records with ``rows`` are written as those rows, which
    their reader checked; others are formatted from ``times`` and
    ``values``. A record the matching reader would refuse is refused
    before the file is opened."""
    times, values, scores, rows = columns.times, columns.values, columns.scores, columns.rows
    if rows is None:
        _refuse(path, ~np.isfinite(values), DataError, "non-finite value {!r}", values)
        _refuse(path, (times < _FIRST_US) | (times > _LAST_US), DataError,
                "timestamp outside the years 1 to 9999", times)
        _refuse(path, np.r_[False, times[1:] < times[:-1]], StreamError,
                "timestamps out of order", times)
        instants = times.astype("datetime64[us]")
        stamps = np.datetime_as_string(instants, unit="us")
        whole = times % 1_000_000 == 0  # isoformat omits a zero fraction
        stamps[whole] = np.datetime_as_string(instants[whole].astype("datetime64[s]"), unit="s")
        # repr of Python floats: numpy 2 spells a float64's repr np.float64(...)
        rows = map(",".join, zip(stamps.tolist(), map(repr, values.tolist())))
    if scores is not None:
        _refuse(path, ~((scores >= 0.0) & (scores <= 1.0)), DataError,
                "score {!r} outside [0, 1]", scores)
        rows = map(",".join, zip(rows, map(repr, scores.tolist())))
    header = SERIES_HEADER if scores is None else SCORES_HEADER
    Path(path).write_text("\n".join([header, *rows]) + "\n")


def write_series(path, records) -> None:
    """``(datetime, float)`` pairs, or ``Columns``, as a series file."""
    _write_columns(path, _as_columns(records))


def write_scores(path, records: Columns, scores) -> None:
    """Records, and one score per record, as a score file: each row is the
    record's row, as read when the records carry ``rows``, then ``,`` and
    the score's repr."""
    if len(records) != len(scores):
        raise DataError(f"{len(scores)} scores for {len(records)} records")
    _write_columns(path, replace(records, scores=np.asarray(scores, dtype=float)))


def read_json(path):
    """The document in a UTF-8 JSON file; bad JSON, like a fault reading the file,
    is a data error."""
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from None


def read_labels(path) -> dict[str, list[datetime]]:
    """JSON map: file name -> list of anomaly instants."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise DataError(f"{path}: labels document must be a JSON object")
    for name, instants in doc.items():
        if not isinstance(instants, list) or not all(isinstance(t, str) for t in instants):
            raise DataError(f"{path}: labels of {name!r} must be a list of timestamp strings")
    labels = {}
    for name, instants in doc.items():
        try:
            labels[name] = list(map(parse_timestamp, instants))
        except DataError as exc:
            raise DataError(f"{path}: labels of {name!r}: {exc}") from None
    return labels


def write_labels(path, labels: dict) -> None:
    doc = {
        name: [format_timestamp(t) for t in instants]
        for name, instants in sorted(labels.items())
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def write_windows(path, windows_by_file: dict) -> None:
    """JSON map: file name -> list of [start, end] pairs."""
    doc = {
        name: [[format_timestamp(w.start), format_timestamp(w.end)] for w in windows]
        for name, windows in sorted(windows_by_file.items())
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
