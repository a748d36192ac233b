"""Run configuration: plain key-value config files plus CLI overrides.

Grammar, one entry per line:

    # comment
    key = value
    detector.kind = htm_hd
    detector.param.n_columns = 2048

Keys are dotted paths. ``detector.param.*`` entries feed the detector's
kind-specific parameter map; everything else is a top-level run setting.
``RunConfig.from_entries`` coerces every ``detector.param.*`` value to an
int, a float or a bool where its text reads as one (``_coerce``), and the
detector checks it; a top-level value stays text until ``from_entries``
checks it as the number that setting takes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .detectors import DetectorConfig, _integer, _number
from .errors import ValidationError

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


def _coerce(value: str):
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            pass
    if value.lower() in ("true", "false"):
        return value.lower() == "true"
    return value


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

    @classmethod
    def from_entries(cls, entries: dict[str, str], **overrides) -> "RunConfig":
        params = {
            key[len("detector.param."):]: _coerce(value)
            for key, value in entries.items()
            if key.startswith("detector.param.")
        }
        seed = overrides.get("seed")
        if seed is None:
            seed = entries.get("seed", 0)
        seed = _integer("seed", seed)
        kind = overrides.get("detector_kind") or entries.get("detector.kind")
        if not kind:
            raise ValidationError("no detector kind configured (detector.kind)")
        corpus = overrides.get("corpus_dir") or entries.get("corpus_dir")
        output = overrides.get("output_dir") or entries.get("output_dir")
        if not corpus or not output:
            raise ValidationError("corpus_dir and output_dir are required")
        train_fraction = overrides.get("train_fraction")
        if train_fraction is None:
            train_fraction = entries.get("train_fraction", 0.15)
        subsample = overrides.get("subsample")
        if subsample is None:
            subsample = entries.get("subsample", 1)
        return cls(
            corpus_dir=Path(corpus),
            output_dir=Path(output),
            detector=DetectorConfig(kind=kind, parameters=params, seed=seed),
            train_fraction=_number("train_fraction", train_fraction),
            seed=seed,
            subsample=_integer("subsample", subsample),
        )


def load_config(path) -> dict[str, str]:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"config file not found: {path}")
    return parse_config_text(path.read_text())
