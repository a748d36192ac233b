"""Key-value config grammar and run-configuration assembly."""

import pytest

from htmpm.cli import main
from htmpm.config import RunConfig, load_config, parse_config_text
from htmpm.errors import ValidationError


class TestGrammar:
    def test_basic_entries(self):
        entries = parse_config_text(
            "# run setup\n"
            "corpus_dir = data/corpus\n"
            "output_dir = out\n"
            "detector.kind = htm_hd\n"
            "detector.param.n_columns = 1024\n"
            "\n"
        )
        assert entries["corpus_dir"] == "data/corpus"
        assert entries["detector.param.n_columns"] == "1024"

    def test_comments_and_blank_lines_ignored(self):
        assert parse_config_text("# only a comment\n\n") == {}

    def test_missing_equals_rejected(self):
        with pytest.raises(ValidationError, match="line 1"):
            parse_config_text("corpus_dir data\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown key"):
            parse_config_text("detector_kind = null\n")

    def test_values_may_contain_equals(self):
        entries = parse_config_text("detector.param.feature = a=b\n")
        assert entries["detector.param.feature"] == "a=b"


class TestRunConfig:
    def base_entries(self):
        return {
            "corpus_dir": "corpus",
            "output_dir": "out",
            "detector.kind": "threshold",
            "detector.param.threshold": "2.5",
            "detector.param.feature": "abs",
            "seed": "3",
        }

    def test_assembly_and_coercion(self):
        cfg = RunConfig.from_entries(self.base_entries())
        assert cfg.detector.kind == "threshold"
        # parameters stay text; the detector parses each as it reads it
        assert cfg.detector.parameters == {"threshold": "2.5", "feature": "abs"}
        assert cfg.seed == 3 and cfg.detector.seed == 3
        assert cfg.train_fraction == 0.15
        assert cfg.subsample == 1

    def test_overrides_win(self):
        cfg = RunConfig.from_entries({**self.base_entries(),
                                      "train_fraction": "0.2", "subsample": "4"})
        assert cfg.train_fraction == 0.2
        assert cfg.subsample == 4

    def test_detector_kind_override(self):
        entries = {"corpus_dir": "c", "output_dir": "o",
                   "detector.kind": "null"}
        cfg = RunConfig.from_entries({**entries, "detector.kind": "random"})
        assert cfg.detector.kind == "random"

    def test_missing_detector_kind_rejected(self):
        entries = self.base_entries()
        del entries["detector.kind"]
        with pytest.raises(ValidationError, match="detector.kind"):
            RunConfig.from_entries(entries)

    def test_missing_paths_rejected(self):
        entries = self.base_entries()
        del entries["output_dir"]
        with pytest.raises(ValidationError):
            RunConfig.from_entries(entries)

    def test_train_fraction_bounds(self):
        with pytest.raises(ValidationError):
            RunConfig.from_entries({**self.base_entries(), "train_fraction": "1.0"})

    def test_subsample_bounds(self):
        with pytest.raises(ValidationError):
            RunConfig.from_entries({**self.base_entries(), "subsample": "0"})

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            RunConfig.from_entries({**self.base_entries(), "seed": "-1"})

    def test_scoring_keys_rejected(self, tmp_path, capsys):
        # labels and profiles belong to `score` (--labels, --profiles)
        for key in ("labels_path", "profiles"):
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"corpus_dir = c\noutput_dir = o\n"
                           f"detector.kind = null\n{key} = standard\n")
            assert main(["run", "--config", str(cfg)]) == 1
            assert f"unknown key '{key}'" in capsys.readouterr().err


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("corpus_dir = c\noutput_dir = o\ndetector.kind = null\n")
        entries = load_config(path)
        assert entries["detector.kind"] == "null"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            load_config(tmp_path / "absent.cfg")
