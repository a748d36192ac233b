"""Run configuration: plain key-value config files plus CLI overrides.

Grammar, one entry per line:

    # comment
    key = value
    detector.kind = htm_hd
    detector.param.n_columns = 1024

Keys are dotted paths. ``detector.param.*`` entries feed the detector's
kind-specific parameter map; everything else is a top-level run setting.
A value from the file, from a flag or from ``--param`` stays text until
it is parsed, once, where it is read: ``from_entries`` parses the
top-level numbers, and the detector parses each of its parameters as the
integer or number it takes.

``htmpm run`` builds one entry map and hands it to ``from_entries``: the
config file's entries, then the flags laid over them (``--corpus``,
``--output``, ``--detector``, ``--seed``, ``--train-fraction``,
``--subsample``; a flag not given, or an empty path, leaves the file's
value), then each ``--param KEY=VALUE`` laid over them as
``detector.param.KEY``. So a flag beats the file, and ``--param`` beats a
``detector.param.*`` entry of the file. The file is read as UTF-8 through
``series``; one that cannot be read or decoded, or has a bad line, is a
validation error naming the file.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from pathlib import Path

from .detectors import DetectorConfig, _integer, _number
from .errors import DataError, ValidationError
from .series import _read_text

KNOWN_KEYS = {
    "corpus_dir", "output_dir", "train_fraction", "seed", "detector.kind",
    "subsample",
}


def parse_config_text(text: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValidationError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ValidationError(f"config line {lineno}: empty key")
        if key in entries:
            raise ValidationError(f"config line {lineno}: duplicate key {key!r}")
        if key not in KNOWN_KEYS and not key.startswith("detector.param."):
            raise ValidationError(f"config line {lineno}: unknown key {key!r}")
        entries[key] = value
    return entries


@dataclass
class RunConfig:
    corpus_dir: Path
    output_dir: Path
    detector: DetectorConfig
    train_fraction: float = 0.15
    seed: int = 0
    subsample: int = 1

    def __post_init__(self):
        if not 0.0 <= self.train_fraction < 1.0:
            raise ValidationError(
                f"train_fraction must be in [0, 1), got {self.train_fraction}"
            )
        if self.subsample < 1:
            raise ValidationError("subsample step must be >= 1")
        # the manifest records and hashes this seed, the detector runs with
        # its own (which DetectorConfig checks): they must be the same integer
        if not isinstance(self.seed, numbers.Integral) or isinstance(self.seed, bool):
            raise ValidationError(f"seed must be an integer, got {self.seed!r}")
        if self.seed != self.detector.seed:
            raise ValidationError(
                f"seed {self.seed} differs from the detector's seed {self.detector.seed}"
            )

    @classmethod
    def from_entries(cls, entries: dict[str, str]) -> "RunConfig":
        params = {
            key[len("detector.param."):]: value
            for key, value in entries.items()
            if key.startswith("detector.param.")
        }
        seed = _integer("seed", entries.get("seed", 0))
        kind = entries.get("detector.kind")
        if not kind:
            raise ValidationError("no detector kind configured (detector.kind)")
        corpus, output = entries.get("corpus_dir"), entries.get("output_dir")
        if not corpus or not output:
            raise ValidationError("corpus_dir and output_dir are required")
        return cls(
            corpus_dir=Path(corpus),
            output_dir=Path(output),
            detector=DetectorConfig(kind=kind, parameters=params, seed=seed),
            train_fraction=_number("train_fraction", entries.get("train_fraction", 0.15)),
            seed=seed,
            subsample=_integer("subsample", entries.get("subsample", 1)),
        )


def load_config(path) -> dict[str, str]:
    try:
        return parse_config_text(_read_text(path))
    except ValidationError as exc:  # a malformed line
        raise ValidationError(f"config file {path}: {exc}") from None
    except DataError as exc:  # a fault reading the file, which is configuration
        raise ValidationError(f"config file {exc}") from None
