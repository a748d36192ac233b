"""Datetime test fixtures as the columns that htmpm takes past its CSV
reader, converted by timedelta arithmetic, independently of
``series._micros``."""

from datetime import datetime, timedelta, timezone

import numpy as np

from htmpm.series import Columns

EPOCH = datetime(1970, 1, 1)


def micros(t: datetime) -> int:
    """A datetime, naive or aware (taken to UTC), as microseconds since
    1970-01-01."""
    if t.tzinfo is not None:
        t = t.astimezone(timezone.utc).replace(tzinfo=None)
    return (t - EPOCH) // timedelta(microseconds=1)


def as_columns(records, scores=None) -> Columns:
    """(datetime, value) pairs, and optionally one score each, as columns."""
    return Columns(np.array([micros(t) for t, _ in records], dtype=np.int64),
                   np.array([v for _, v in records], dtype=float),
                   None if scores is None else np.array(scores, dtype=float))
