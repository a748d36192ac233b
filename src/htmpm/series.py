"""CSV series / score files and the JSON labels and windows documents.

Series files carry the exact header ``timestamp,value``; score files carry
``timestamp,value,anomaly_score``. Timestamps are ISO-8601, normalized to
UTC and stored naive; fractional seconds are preserved. Floats are written
with shortest round-trip repr so reruns are byte-identical.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from math import isfinite
from pathlib import Path

from .errors import DataError, StreamError

SERIES_HEADER = "timestamp,value"
SCORES_HEADER = "timestamp,value,anomaly_score"


def parse_timestamp(text: str) -> datetime:
    try:
        ts = datetime.fromisoformat(text)
    except ValueError as exc:
        raise DataError(f"bad timestamp {text!r}: {exc}") from None
    if ts.tzinfo is not None:
        ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
    return ts


def format_timestamp(ts: datetime) -> str:
    if ts.tzinfo is not None:
        ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
    return ts.isoformat()


def _read_text(path) -> str:
    """A file's text as UTF-8; undecodable bytes are a data error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None


def read_series(path) -> list[tuple[datetime, float]]:
    path = Path(path)
    lines = _read_text(path).splitlines()
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
        ts = parse_timestamp(parts[0])
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


def write_series(path, records) -> None:
    lines = [SERIES_HEADER]
    lines += [f"{format_timestamp(ts)},{value!r}" for ts, value in records]
    Path(path).write_text("\n".join(lines) + "\n")


def write_scores(path, records, scores) -> None:
    if len(records) != len(scores):
        raise DataError(f"{len(scores)} scores for {len(records)} records")
    lines = [SCORES_HEADER]
    lines += [
        f"{format_timestamp(ts)},{value!r},{score!r}"
        for (ts, value), score in zip(records, scores)
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def read_scores(path) -> list[tuple[datetime, float, float]]:
    path = Path(path)
    lines = _read_text(path).splitlines()
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
        ts = parse_timestamp(parts[0])
        try:
            rows.append((ts, float(parts[1]), float(parts[2])))
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad number in {line!r}") from None
        if prev_ts is not None and ts < prev_ts:
            raise StreamError(f"{path}:{lineno}: timestamps out of order")
        prev_ts = ts
    if not rows:
        raise DataError(f"{path}: no data rows")
    return rows


def read_labels(path) -> dict[str, list[datetime]]:
    """JSON map: file name -> list of anomaly instants."""
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: labels document must be a JSON object")
    for name, instants in doc.items():
        if not isinstance(instants, list) or not all(isinstance(t, str) for t in instants):
            raise DataError(f"{path}: labels of {name!r} must be a list of timestamp strings")
    return {
        name: [parse_timestamp(t) for t in instants]
        for name, instants in doc.items()
    }


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
