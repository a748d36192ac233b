"""End-to-end harness: run, score, synth, inspect."""

import json
import pickle
import tracemalloc
import warnings
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

import numpy as np

from htmpm.cli import _sample_times, cmd_run, cmd_score, cmd_synth_generate, main
from htmpm.config import RunConfig
from htmpm.series import (Columns, read_scores, read_series, write_labels,
                          write_scores, write_series)

T0 = datetime(2021, 1, 1)

# Non-canonical spellings the readers accept: offsets, Z, a space
# separator, a fraction, and values not in shortest repr
NON_CANONICAL_ROWS = [
    "2021-01-01T05:30:00+05:30,1.50",
    "2021-01-01T00:00:01Z,2",
    "2021-01-01 00:00:02,-0.250",
    "2021-01-01T00:00:03.500000,1e-05",
    "2021-01-01T01:00:04+01:00,3.0",
    "2021-01-01T00:00:05.000Z,2",
]


def make_corpus(root, n_files=2, n_records=60, spike_at=40):
    """Tiny corpus with one labeled spike per file."""
    corpus = root / "corpus"
    corpus.mkdir()
    labels = {}
    for i in range(n_files):
        records = []
        for j in range(n_records):
            value = 10.0 if j == spike_at else 1.0 + 0.01 * (j % 3)
            records.append((T0 + timedelta(minutes=j), value))
        name = f"series_{i}.csv"
        write_series(corpus / name, records)
        labels[name] = [T0 + timedelta(minutes=spike_at)]
    write_labels(root / "labels.json", labels)
    return corpus, root / "labels.json"


class TestRunCommand:
    def test_run_writes_scores_and_manifest(self, tmp_path):
        corpus, _ = make_corpus(tmp_path)
        out = tmp_path / "out"
        rc = main(["run", "--corpus", str(corpus), "--output", str(out),
                   "--detector", "null"])
        assert rc == 0
        rows = read_scores(out / "series_0.csv")
        assert len(rows) == 60
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["detector"] == "null"
        assert manifest["files"]["series_0.csv"]["records"] == 60
        assert "records_per_second" in manifest["files"]["series_0.csv"]

    def test_training_prefix_suppressed(self, tmp_path):
        corpus, _ = make_corpus(tmp_path)
        out = tmp_path / "out"
        main(["run", "--corpus", str(corpus), "--output", str(out),
              "--detector", "null"])
        scores = read_scores(out / "series_0.csv").scores.tolist()
        assert scores[:9] == [0.0] * 9 and scores[9] == 0.5

    def test_rerun_is_byte_identical(self, tmp_path):
        corpus, _ = make_corpus(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        args = ["--corpus", str(corpus), "--detector", "random", "--seed", "5"]
        main(["run", *args, "--output", str(out1)])
        main(["run", *args, "--output", str(out2)])
        for name in ("series_0.csv", "series_1.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_param_overrides(self, tmp_path):
        corpus, _ = make_corpus(tmp_path)
        out = tmp_path / "out"
        rc = main(["run", "--corpus", str(corpus), "--output", str(out),
                   "--detector", "threshold", "--param", "threshold=5.0"])
        assert rc == 0
        scores = read_scores(out / "series_0.csv").scores.tolist()
        assert scores[40] == 1.0 and sum(scores) == 1.0

    def test_config_file_drives_run(self, tmp_path):
        corpus, _ = make_corpus(tmp_path)
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"corpus_dir = {corpus}\noutput_dir = {out}\n"
            "detector.kind = threshold\ndetector.param.threshold = 5.0\n"
        )
        assert main(["run", "--config", str(cfg)]) == 0
        assert (out / "series_1.csv").exists()

    def test_precedence_file_then_flags_then_params(self, tmp_path):
        corpus, _ = make_corpus(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"corpus_dir = {corpus}\noutput_dir = {tmp_path / 'file_out'}\n"
            "detector.kind = null\nseed = 9\ntrain_fraction = 0.5\n"
            "detector.param.threshold = 100\n"
        )
        # flags beat the file; an empty --corpus leaves the file's corpus
        flags = ["--corpus", "", "--detector", "threshold", "--train-fraction", "0.15"]
        out = tmp_path / "flag_out"
        assert main(["run", "--config", str(cfg), "--output", str(out), *flags]) == 0
        assert not (tmp_path / "file_out").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["detector"], manifest["seed"], manifest["train_fraction"]) == (
            "threshold", 9, 0.15)
        assert sum(read_scores(out / "series_0.csv").scores.tolist()) == 0.0
        # --param beats the file's detector.param entry
        assert main(["run", "--config", str(cfg), "--output", str(out), *flags,
                     "--param", "threshold=5.0"]) == 0
        scores = read_scores(out / "series_0.csv").scores.tolist()
        assert scores[40] == 1.0 and sum(scores) == 1.0

    def test_subsample(self, tmp_path):
        corpus, _ = make_corpus(tmp_path)
        out = tmp_path / "out"
        main(["run", "--corpus", str(corpus), "--output", str(out),
              "--detector", "null", "--subsample", "2"])
        assert len(read_scores(out / "series_0.csv")) == 30

    def test_workers_match_serial_output(self, tmp_path):
        corpus, _ = make_corpus(tmp_path)
        serial, parallel = tmp_path / "s", tmp_path / "p"
        args = ["--corpus", str(corpus), "--detector", "random", "--seed", "3"]
        main(["run", *args, "--output", str(serial)])
        main(["run", *args, "--output", str(parallel), "--workers", "2"])
        serial_files = json.loads((serial / "manifest.json").read_text())["files"]
        parallel_files = json.loads((parallel / "manifest.json").read_text())["files"]
        assert list(serial_files) == list(parallel_files) == ["series_0.csv", "series_1.csv"]
        for name in ("series_0.csv", "series_1.csv"):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()
            assert serial_files[name]["records"] == parallel_files[name]["records"] == 60

    @staticmethod
    def staging_dirs(root):
        return sorted(root.rglob(".htmpm-run-*"))

    def test_run_leaves_no_staging_directory(self, tmp_path):
        corpus, _ = make_corpus(tmp_path)
        out = tmp_path / "new" / "scores"
        for _ in range(2):  # into a path that does not exist, then into it again
            assert main(["run", "--corpus", str(corpus), "--output", str(out),
                         "--detector", "null"]) == 0
            assert sorted(p.name for p in out.iterdir()) == [
                "manifest.json", "series_0.csv", "series_1.csv"]
        assert self.staging_dirs(tmp_path) == []

    @staticmethod
    def corrupt_second_of_three(root):
        corpus, _ = make_corpus(root, n_files=3)
        path = corpus / "series_1.csv"
        lines = path.read_text().splitlines()
        lines[5] = lines[5].split(",")[0] + ",abc"
        path.write_text("\n".join(lines) + "\n")
        return corpus

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("output", ["out", "nested/a/scores"])
    def test_refused_run_leaves_nothing(self, tmp_path, capsys, workers, output):
        corpus = self.corrupt_second_of_three(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        rc = main(["run", "--corpus", str(corpus), "--output", str(tmp_path / output),
                   "--detector", "null", "--workers", workers])
        assert rc == 2
        assert "series_1.csv" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before
        assert self.staging_dirs(tmp_path) == []

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_refused_run_keeps_existing_output_directory(self, tmp_path, workers):
        corpus = self.corrupt_second_of_three(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("keep me\n")
        (out / "series_2.csv").write_text("an older score file\n")
        rc = main(["run", "--corpus", str(corpus), "--output", str(out),
                   "--detector", "null", "--workers", workers])
        assert rc == 2
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "series_2.csv"]
        assert (out / "notes.txt").read_text() == "keep me\n"
        assert (out / "series_2.csv").read_text() == "an older score file\n"
        assert self.staging_dirs(tmp_path) == []

    @pytest.mark.parametrize("output", ["file.txt", "file.txt/scores"])
    def test_output_under_a_file_exits_2(self, tmp_path, capsys, output):
        corpus, _ = make_corpus(tmp_path)
        (tmp_path / "file.txt").write_text("x\n")
        rc = main(["run", "--corpus", str(corpus), "--output", str(tmp_path / output),
                   "--detector", "null"])
        assert rc == 2
        assert "cannot write" in capsys.readouterr().err
        assert (tmp_path / "file.txt").read_text() == "x\n"
        assert self.staging_dirs(tmp_path) == []

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("output", ["corpus", "corpus/../corpus", "link"])
    def test_output_into_its_own_corpus_exits_1(self, tmp_path, capsys, workers, output):
        """Each score file would replace the series file it scores, and the
        next run on the corpus would find score files."""
        corpus, _ = make_corpus(tmp_path)
        (tmp_path / "link").symlink_to(corpus)
        before = {p.name: p.read_bytes() for p in corpus.iterdir()}
        rc = main(["run", "--corpus", str(corpus), "--output", str(tmp_path / output),
                   "--detector", "null", "--seed", "1", "--workers", workers])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "is the corpus directory" in err
        assert {p.name: p.read_bytes() for p in corpus.iterdir()} == before
        assert self.staging_dirs(tmp_path) == []

    def test_run_memory_does_not_grow_with_the_corpus(self, tmp_path):
        # each score file is written as soon as it is scored, so the peak
        # is one file's, however many files the corpus holds
        peaks = {}
        for n_files in (2, 8):
            corpus = tmp_path / f"corpus{n_files}"
            cmd_synth_generate(corpus, n_files, duration=40.0, sample_rate=50.0, seed=5)
            cfg = RunConfig.from_entries({
                "corpus_dir": str(corpus), "output_dir": str(tmp_path / f"out{n_files}"),
                "detector.kind": "null"})
            tracemalloc.start()
            try:
                cmd_run(cfg)
                peaks[n_files] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(read_scores(tmp_path / f"out{n_files}" / "degradation_00.csv")) == 2000
        assert peaks[8] <= 1.25 * peaks[2], peaks

    def test_bad_header_exits_2(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "bad.csv").write_text("time,value\n2021-01-01T00:00:00,1\n")
        rc = main(["run", "--corpus", str(corpus),
                   "--output", str(tmp_path / "out"), "--detector", "null"])
        assert rc == 2

    def test_non_utf8_series_exits_2(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "bad.csv").write_bytes(b"timestamp,value\n2021-01-01T00:00:00,\xff\n")
        rc = main(["run", "--corpus", str(corpus),
                   "--output", str(tmp_path / "out"), "--detector", "null"])
        assert rc == 2

    @pytest.mark.parametrize("detector", ["windowed_gaussian", "htm_hd"])
    @pytest.mark.parametrize("text", ["nan", "inf"])
    def test_non_finite_value_exits_2(self, tmp_path, detector, text):
        corpus, _ = make_corpus(tmp_path, n_files=1)
        path = corpus / "series_0.csv"
        lines = path.read_text().splitlines()
        lines[30] = lines[30].split(",")[0] + "," + text
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        rc = main(["run", "--corpus", str(corpus), "--output", str(out),
                   "--detector", detector])
        assert rc == 2
        assert not (out / "series_0.csv").exists()

    @pytest.mark.parametrize("stamp", ["noon", "2021-13-01T00:00:00",
                                       # UTC offsets that carry the stamp
                                       # before year 1 and past year 9999
                                       "0001-01-01T00:00:00+01:00",
                                       "9999-12-31T23:00:00-05:00"])
    def test_bad_timestamp_names_file_and_line(self, tmp_path, capsys, stamp):
        corpus, _ = make_corpus(tmp_path, n_files=1)
        path = corpus / "series_0.csv"
        lines = path.read_text().splitlines()
        lines[30] = stamp + "," + lines[30].split(",")[1]
        path.write_text("\n".join(lines) + "\n")
        rc = main(["run", "--corpus", str(corpus), "--output", str(tmp_path / "out"),
                   "--detector", "null"])
        assert rc == 2
        assert f"series_0.csv:31: bad timestamp {stamp!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("detector, code, message", [
        (["threshold"], 2, "data error: {}: threshold detector cannot calibrate on empty prefix"),
        (["htm_hd", "--param", "n_columns=64", "--param", "k_active=4"], 2,
         "data error: {}: cannot calibrate encoder on an empty training prefix"),
    ], ids=["threshold", "htm_hd"])
    def test_run_error_names_its_file(self, tmp_path, capsys, workers, detector, code,
                                      message):
        """The detector's error is raised again as the same type, so the
        exit code stays."""
        corpus, _ = make_corpus(tmp_path)
        rc = main(["run", "--corpus", str(corpus), "--output", str(tmp_path / "out"),
                   "--train-fraction", "0", "--workers", workers, "--detector", *detector])
        assert rc == code
        assert capsys.readouterr().err == message.format(corpus / "series_0.csv") + "\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_run_error_names_the_file_that_raised_it(self, tmp_path, capsys, workers):
        # only the second file's training prefix overflows float64
        corpus, _ = make_corpus(tmp_path)
        path = corpus / "series_1.csv"
        lines = path.read_text().splitlines()
        for i, value in [(3, "1e308"), (6, "-1e308")]:
            lines[i] = lines[i].split(",")[0] + "," + value
        path.write_text("\n".join(lines) + "\n")
        rc = main(["run", "--corpus", str(corpus), "--output", str(tmp_path / "out"),
                   "--detector", "htm_hd", "--param", "n_columns=64", "--param", "k_active=4",
                   "--workers", workers])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: the training prefix's range ")
        assert not (tmp_path / "out").exists()

    def test_empty_corpus_exits_2(self, tmp_path):
        (tmp_path / "corpus").mkdir()
        rc = main(["run", "--corpus", str(tmp_path / "corpus"),
                   "--output", str(tmp_path / "out"), "--detector", "null"])
        assert rc == 2

    def test_missing_detector_exits_1(self, tmp_path):
        corpus, _ = make_corpus(tmp_path)
        rc = main(["run", "--corpus", str(corpus),
                   "--output", str(tmp_path / "out")])
        assert rc == 1

    def test_htm_without_training_prefix_or_range_exits_2(self, tmp_path):
        # the same data error, and exit code, as the threshold detector's below
        corpus, _ = make_corpus(tmp_path, n_files=1, n_records=5)
        rc = main(["run", "--corpus", str(corpus), "--output", str(tmp_path / "out"),
                   "--detector", "htm_hd", "--train-fraction", "0",
                   "--param", "n_columns=64", "--param", "k_active=4"])
        assert rc == 2

    def test_threshold_without_training_prefix_or_level_exits_2(self, tmp_path):
        corpus, _ = make_corpus(tmp_path, n_files=1)
        rc = main(["run", "--corpus", str(corpus), "--output", str(tmp_path / "out"),
                   "--detector", "threshold", "--train-fraction", "0"])
        assert rc == 2

    @pytest.mark.parametrize("param", [
        "tm_max_segments_per_cell=0", "tm_initial_permanence=-0.5",
        "tm_initial_permanence=1.5", "tm_connect_threshold=1.5",
        "n_columns=abc", "tm_sample_size=abc", "likelihood_capacity=abc",
        "encoder_width=abc", "m_cells=2.5", "m_cells=true",
        "sp_perm_inc=nan", "tm_perm_inc=inf",
        # no segment of the default 40 synapses can exceed these
        "tm_activation_threshold=40", "tm_activation_threshold=100",
    ])
    def test_bad_htm_parameter_exits_1(self, tmp_path, capsys, param):
        corpus, _ = make_corpus(tmp_path, n_files=1)
        out = tmp_path / "out"
        rc = main(["run", "--corpus", str(corpus), "--output", str(out),
                   "--detector", "htm_hd", "--param", param])
        err = capsys.readouterr().err
        assert rc == 1
        # the temporal memory names its own parameter, without the tm_ prefix
        assert err.startswith("error: ") and param.partition("=")[0].removeprefix("tm_") in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("detector", ["htm_hd", "random"])
    def test_negative_seed_exits_1(self, tmp_path, capsys, detector):
        corpus, _ = make_corpus(tmp_path, n_files=1)
        out = tmp_path / "out"
        rc = main(["run", "--corpus", str(corpus), "--output", str(out),
                   "--detector", detector, "--seed", "-1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "seed" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("params", [["value_min=-1"], ["value_max=1"],
                                        ["value_min=-inf"]])
    def test_lone_encoder_bound_exits_1(self, tmp_path, capsys, params):
        corpus, _ = make_corpus(tmp_path, n_files=1)
        rc = main(["run", "--corpus", str(corpus), "--output", str(tmp_path / "out"),
                   "--detector", "htm_hd", *(f"--param={p}" for p in params)])
        err = capsys.readouterr().err
        assert rc == 1
        missing = "value_max" if params[0].startswith("value_min") else "value_min"
        assert err.startswith("error: ") and missing in err
        assert "Traceback" not in err

    def test_both_encoder_bounds_run(self, tmp_path):
        corpus, _ = make_corpus(tmp_path, n_files=1)
        rc = main(["run", "--corpus", str(corpus), "--output", str(tmp_path / "out"),
                   "--detector", "htm_hd", "--param", "value_min=-1",
                   "--param", "value_max=12", "--param", "n_columns=256"])
        assert rc == 0
        assert len(read_scores(tmp_path / "out" / "series_0.csv")) == 60

    def test_encoder_range_wider_than_float64_exits_1(self, tmp_path, capsys):
        # the width of [-1e308, 1e308] overflows to inf, which would encode
        # every value to the first block
        corpus, _ = make_corpus(tmp_path, n_files=1)
        out = tmp_path / "out"
        rc = main(["run", "--corpus", str(corpus), "--output", str(out),
                   "--detector", "htm_hd", "--param", "value_min=-1e308",
                   "--param", "value_max=1e308"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "value_max - value_min" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_training_range_wider_than_float64_exits_2(self, tmp_path, capsys, workers):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        values = [1.0] * 60
        values[2], values[5] = 1e308, -1e308
        write_series(corpus / "series_0.csv",
                     [(T0 + timedelta(minutes=j), v) for j, v in enumerate(values)])
        out = tmp_path / "out"
        rc = main(["run", "--corpus", str(corpus), "--output", str(out),
                   "--detector", "htm_hd", "--workers", workers])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("data error: ") and "training prefix" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_training_range_wider_than_float64_with_stated_bounds_exits_2(self, tmp_path,
                                                                          capsys):
        # the stated width is finite, but the prefix's noise estimate is not
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        values = [1.0] * 60
        values[2], values[5] = 1e308, -1e308
        write_series(corpus / "series_0.csv",
                     [(T0 + timedelta(minutes=j), v) for j, v in enumerate(values)])
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["run", "--corpus", str(corpus), "--output", str(out),
                       "--detector", "htm_hd", "--param", "value_min=-2",
                       "--param", "value_max=2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("data error: ") and "training prefix's range" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("bounds", [[], ["--param", "value_min=-2", "--param", "value_max=2"]],
                             ids=["range_free", "stated"])
    @pytest.mark.parametrize("value", ["1e308", "-1e308"])
    def test_huge_scored_value_is_encoded(self, tmp_path, capsys, bounds, value):
        # value / resolution overflows float64; the encoder saturates it
        corpus, _ = make_corpus(tmp_path, n_files=1)
        path = corpus / "series_0.csv"
        lines = path.read_text().splitlines()
        lines[50] = lines[50].split(",")[0] + "," + value
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        rc = main(["run", "--corpus", str(corpus), "--output", str(out),
                   "--detector", "htm_hd", "--param", "n_columns=256", *bounds])
        assert rc == 0, capsys.readouterr().err
        rows = read_scores(out / "series_0.csv")
        assert len(rows) == 60 and rows.values[49] == float(value)

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_1(self, tmp_path, capsys, workers):
        corpus, _ = make_corpus(tmp_path, n_files=1)
        out = tmp_path / "out"
        rc = main(["run", "--corpus", str(corpus), "--output", str(out),
                   "--detector", "null", f"--workers={workers}"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "--workers" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("entry", ["seed = abc", "train_fraction = x", "subsample = 1.5"])
    def test_bad_config_number_exits_1(self, tmp_path, capsys, entry):
        corpus, _ = make_corpus(tmp_path, n_files=1)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"corpus_dir = {corpus}\noutput_dir = {tmp_path / 'out'}\n"
                       f"detector.kind = null\n{entry}\n")
        rc = main(["run", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and entry.partition(" ")[0] in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, key, value", [
        ("--seed", "seed", "abc"), ("--train-fraction", "train_fraction", "x"),
        ("--subsample", "subsample", "1.5"),
    ])
    def test_bad_flag_number_exits_1_as_in_a_config_file(
            self, tmp_path, capsys, flag, key, value):
        """A flag's value reaches the run configuration as text, as the
        same entry of a config file does, and fails the same way."""
        corpus, _ = make_corpus(tmp_path, n_files=1)
        out = tmp_path / "out"
        rc = main(["run", "--corpus", str(corpus), "--output", str(out),
                   "--detector", "null", flag, value])
        err = capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"corpus_dir = {corpus}\noutput_dir = {out}\n"
                       f"detector.kind = null\n{key} = {value}\n")
        assert main(["run", "--config", str(cfg)]) == rc == 1
        assert capsys.readouterr().err == err
        assert err.startswith("error: ") and key in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("make", [Path.mkdir, lambda p: p.write_bytes(b"seed = \xff\n")],
                             ids=["directory", "not-utf8"])
    def test_unreadable_config_exits_1(self, tmp_path, capsys, make):
        """A config file is configuration: one that cannot be read or
        decoded is a validation error naming it, not a traceback."""
        cfg = tmp_path / "run.cfg"
        make(cfg)
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg}: ") and err.count("\n") == 1

    def test_bad_config_line_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("corpus_dir c\n")
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg}: config line 1: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("workers", ["x", "1.5"])
    def test_non_integer_workers_exit_1(self, tmp_path, capsys, workers):
        corpus, _ = make_corpus(tmp_path, n_files=1)
        out = tmp_path / "out"
        rc = main(["run", "--corpus", str(corpus), "--output", str(out),
                   "--detector", "null", "--workers", workers])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: --workers must be an integer")
        assert not out.exists()


class TestRunEchoesSeriesRows:
    """A score row is its series row as read, then ``,`` and the score."""

    @pytest.mark.parametrize("detector", ["null", "windowed_gaussian", "htm_hd"])
    def test_synth_corpus_matches_pair_writer(self, tmp_path, detector):
        corpus, out = tmp_path / "corpus", tmp_path / "out"
        cmd_synth_generate(corpus, n_files=2, duration=8.0, sample_rate=50.0, seed=3)
        assert main(["run", "--corpus", str(corpus), "--output", str(out),
                     "--detector", detector, "--seed", "1"]) == 0
        for path in sorted(corpus.glob("*.csv")):
            series = read_series(path)
            scores = read_scores(out / path.name).scores.tolist()
            # without rows, the writer formats the times and values anew
            write_scores(tmp_path / "ref.csv", Columns(series.times, series.values), scores)
            assert (out / path.name).read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def non_canonical_corpus(self, root):
        """One series file of NON_CANONICAL_ROWS on five days, with a blank
        line and CRLF line ends, and a label in its middle; its rows."""
        corpus = root / "corpus"
        corpus.mkdir()
        rows = [row.replace("2021-01-01", f"2021-01-{day:02d}")
                for day in range(1, 6) for row in NON_CANONICAL_ROWS]
        lines = ["timestamp,value", *rows[:7], "", *rows[7:]]
        (corpus / "odd.csv").write_bytes("".join(line + "\r\n" for line in lines).encode())
        write_labels(root / "labels.json", {"odd.csv": [datetime(2021, 1, 3)]})
        return corpus, rows

    @pytest.mark.parametrize("subsample", [1, 2])
    def test_non_canonical_rows_echoed(self, tmp_path, subsample):
        corpus, rows = self.non_canonical_corpus(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--corpus", str(corpus), "--output", str(out),
                     "--detector", "windowed_gaussian", "--train-fraction", "0.1",
                     "--subsample", str(subsample)]) == 0
        scored = read_scores(out / "odd.csv")
        lines = (out / "odd.csv").read_text().splitlines()
        assert lines[0] == "timestamp,value,anomaly_score"
        assert lines[1:] == [f"{row},{score!r}" for row, score
                             in zip(rows[::subsample], scored.scores.tolist(), strict=True)]
        series = read_series(corpus / "odd.csv")[::subsample]
        assert np.array_equal(scored.times, series.times)
        assert np.array_equal(scored.values, series.values)
        assert main(["score", "--scores", str(out), "--labels", str(tmp_path / "labels.json"),
                     "--output", str(tmp_path / "results")]) == 0


class TestScoreCommand:
    def run_and_score(self, tmp_path, detector, extra_run=()):
        corpus, labels = make_corpus(tmp_path)
        scores_dir = tmp_path / "scores"
        main(["run", "--corpus", str(corpus), "--output", str(scores_dir),
              "--detector", detector, *extra_run])
        results_dir = tmp_path / "results"
        rc = main(["score", "--scores", str(scores_dir),
                   "--labels", str(labels), "--output", str(results_dir),
                   "--name", detector])
        return rc, results_dir

    def test_null_detector_normalizes_to_zero(self, tmp_path):
        rc, results_dir = self.run_and_score(tmp_path, "null")
        assert rc == 0
        results = json.loads((results_dir / "results.json").read_text())
        assert len(results) == 3
        for row in results:
            assert row["normalized_score"] == pytest.approx(0.0, abs=1e-9)
        assert (results_dir / "windows.json").exists()

    def test_threshold_detector_beats_null_here(self, tmp_path):
        rc, results_dir = self.run_and_score(
            tmp_path, "threshold", ("--param", "threshold=5.0"))
        assert rc == 0
        results = json.loads((results_dir / "results.json").read_text())
        assert all(row["normalized_score"] > 90.0 for row in results)

    def test_unknown_profile_exits_1(self, tmp_path):
        corpus, labels = make_corpus(tmp_path)
        scores_dir = tmp_path / "scores"
        main(["run", "--corpus", str(corpus), "--output", str(scores_dir),
              "--detector", "null"])
        rc = main(["score", "--scores", str(scores_dir),
                   "--labels", str(labels),
                   "--output", str(tmp_path / "r"), "--profiles", "bogus"])
        assert rc == 1

    def test_repeated_profile_exits_1(self, tmp_path, capsys):
        # refused before the labels, which do not exist, are read
        scores_dir = tmp_path / "scores"
        scores_dir.mkdir()
        results_dir = tmp_path / "r"
        rc = main(["score", "--scores", str(scores_dir),
                   "--labels", str(tmp_path / "labels.json"),
                   "--output", str(results_dir), "--profiles", "standard,low_fp,standard"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: profile(s) ['standard'] given more than once")
        assert "Traceback" not in err
        assert not results_dir.exists()

    def test_non_numeric_budget_exits_1(self, tmp_path, capsys):
        corpus, labels = make_corpus(tmp_path)
        scores_dir = tmp_path / "scores"
        main(["run", "--corpus", str(corpus), "--output", str(scores_dir),
              "--detector", "null"])
        rc = main(["score", "--scores", str(scores_dir), "--labels", str(labels),
                   "--output", str(tmp_path / "r"), "--budget", "x"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: --budget must be")

    @pytest.mark.parametrize("make_dir", [False, True], ids=["missing", "empty"])
    def test_no_score_files_exit_2(self, tmp_path, capsys, make_dir):
        scores_dir = tmp_path / "scores"
        if make_dir:
            scores_dir.mkdir()
        (tmp_path / "labels.json").write_text("{}")
        rc = main(["score", "--scores", str(scores_dir),
                   "--labels", str(tmp_path / "labels.json"),
                   "--output", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("data error: ") and str(scores_dir) in err
        assert "Traceback" not in err

    def test_missing_score_file_exits_2(self, tmp_path):
        corpus, labels = make_corpus(tmp_path)
        scores_dir = tmp_path / "scores"
        scores_dir.mkdir()
        rc = main(["score", "--scores", str(scores_dir),
                   "--labels", str(labels), "--output", str(tmp_path / "r")])
        assert rc == 2

    def test_out_of_order_score_file_exits_2(self, tmp_path):
        corpus, labels = make_corpus(tmp_path)
        scores_dir = tmp_path / "scores"
        main(["run", "--corpus", str(corpus), "--output", str(scores_dir),
              "--detector", "null"])
        path = scores_dir / "series_0.csv"
        header, first, second, *rest = path.read_text().splitlines()
        path.write_text("\n".join([header, second, first, *rest]) + "\n")
        rc = main(["score", "--scores", str(scores_dir),
                   "--labels", str(labels), "--output", str(tmp_path / "r")])
        assert rc == 2

    def test_non_utf8_score_file_exits_2(self, tmp_path):
        corpus, labels = make_corpus(tmp_path)
        scores_dir = tmp_path / "scores"
        main(["run", "--corpus", str(corpus), "--output", str(scores_dir),
              "--detector", "null"])
        with open(scores_dir / "series_0.csv", "ab") as f:
            f.write(b"2021-01-02T00:00:00,1.0,\xff\n")
        rc = main(["score", "--scores", str(scores_dir),
                   "--labels", str(labels), "--output", str(tmp_path / "r")])
        assert rc == 2

    def test_non_utf8_labels_exit_2(self, tmp_path):
        corpus, labels = make_corpus(tmp_path)
        scores_dir = tmp_path / "scores"
        main(["run", "--corpus", str(corpus), "--output", str(scores_dir),
              "--detector", "null"])
        labels.write_bytes(b'{"series_0.csv": ["\xff"]}')
        rc = main(["score", "--scores", str(scores_dir),
                   "--labels", str(labels), "--output", str(tmp_path / "r")])
        assert rc == 2

    @pytest.mark.parametrize("doc", ['{"series_0.csv": 5}', '{"series_0.csv": [5]}'])
    def test_malformed_labels_exit_2(self, tmp_path, doc):
        corpus, labels = make_corpus(tmp_path)
        scores_dir = tmp_path / "scores"
        main(["run", "--corpus", str(corpus), "--output", str(scores_dir),
              "--detector", "null"])
        labels.write_text(doc)
        rc = main(["score", "--scores", str(scores_dir),
                   "--labels", str(labels), "--output", str(tmp_path / "r")])
        assert rc == 2

    def test_bad_label_instant_names_labels_file_and_series(self, tmp_path, capsys):
        corpus, labels = make_corpus(tmp_path)
        scores_dir = tmp_path / "scores"
        main(["run", "--corpus", str(corpus), "--output", str(scores_dir),
              "--detector", "null"])
        labels.write_text('{"series_1.csv": ["2021-01-01T00:40:00", "noon"]}')
        rc = main(["score", "--scores", str(scores_dir),
                   "--labels", str(labels), "--output", str(tmp_path / "r")])
        assert rc == 2
        assert "labels.json: labels of 'series_1.csv': bad timestamp 'noon'" in capsys.readouterr().err

    @pytest.mark.parametrize("stamp", ["0001-01-01T00:00:00+01:00",
                                       "9999-12-31T23:00:00-05:00"])
    def test_out_of_range_label_instant_exits_2(self, tmp_path, capsys, stamp):
        corpus, labels = make_corpus(tmp_path)
        scores_dir = tmp_path / "scores"
        main(["run", "--corpus", str(corpus), "--output", str(scores_dir),
              "--detector", "null"])
        labels.write_text(json.dumps({"series_1.csv": ["2021-01-01T00:40:00", stamp]}))
        rc = main(["score", "--scores", str(scores_dir),
                   "--labels", str(labels), "--output", str(tmp_path / "r")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"data error: {labels}: labels of 'series_1.csv': "
            f"bad timestamp {stamp!r}: date value out of range\n")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("records, label, fault", [
        (60, "2030-01-01T00:00:00", "label 2030-01-01 00:00:00 outside file span"),
        (1, "2021-01-01T00:00:00",
         "degenerate file span 2021-01-01 00:00:00..2021-01-01 00:00:00"),
    ], ids=["outside-span", "one-record"])
    def test_unplaceable_label_names_labels_file_and_series(self, tmp_path, capsys, records,
                                                            label, fault):
        corpus, labels = make_corpus(tmp_path)
        scores_dir = tmp_path / "scores"
        main(["run", "--corpus", str(corpus), "--output", str(scores_dir),
              "--detector", "null"])
        path = scores_dir / "series_1.csv"
        path.write_text("\n".join(path.read_text().splitlines()[:records + 1]) + "\n")
        labels.write_text(json.dumps({"series_1.csv": [label]}))
        rc = main(["score", "--scores", str(scores_dir),
                   "--labels", str(labels), "--output", str(tmp_path / "r")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"data error: {labels}: labels of 'series_1.csv': {fault}\n")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf", "1.5"])
    def test_score_outside_unit_interval_exits_2(self, tmp_path, capsys, score):
        corpus, labels = make_corpus(tmp_path)
        scores_dir = tmp_path / "scores"
        main(["run", "--corpus", str(corpus), "--output", str(scores_dir),
              "--detector", "null"])
        path = scores_dir / "series_1.csv"
        lines = path.read_text().splitlines()
        lines[20] = lines[20].rsplit(",", 1)[0] + "," + score
        path.write_text("\n".join(lines) + "\n")
        rc = main(["score", "--scores", str(scores_dir),
                   "--labels", str(labels), "--output", str(tmp_path / "r")])
        assert rc == 2
        assert "series_1.csv:21: score" in capsys.readouterr().err
        assert not (tmp_path / "r" / "results.json").exists()

    def test_missing_labels_exit_2(self, tmp_path, capsys):
        corpus, _ = make_corpus(tmp_path)
        scores_dir = tmp_path / "scores"
        main(["run", "--corpus", str(corpus), "--output", str(scores_dir),
              "--detector", "null"])
        rc = main(["score", "--scores", str(scores_dir),
                   "--labels", str(tmp_path / "nope.json"), "--output", str(tmp_path / "r")])
        assert rc == 2
        assert "nope.json: cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [{}, {"degradation_00.csv": []}])
    def test_labels_without_a_window_exit_2(self, tmp_path, capsys, doc):
        """Labels are data: with no window, the null detector and the oracle
        score alike and there is nothing to normalize against."""
        corpus, scores_dir = tmp_path / "corpus", tmp_path / "scores"
        cmd_synth_generate(corpus, n_files=2, duration=8.0, sample_rate=50.0, seed=3)
        assert main(["run", "--corpus", str(corpus), "--output", str(scores_dir),
                     "--detector", "null"]) == 0
        (tmp_path / "labels.json").write_text(json.dumps(doc))
        rc = main(["score", "--scores", str(scores_dir), "--labels",
                   str(tmp_path / "labels.json"), "--output", str(tmp_path / "results")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "no scored file has an anomaly window" in err
        assert not (tmp_path / "results").exists()

    def test_table_printed(self, tmp_path, capsys):
        self.run_and_score(tmp_path, "null")
        out = capsys.readouterr().out
        assert "Profile" in out and "standard" in out

    @pytest.mark.parametrize("output", ["file.txt", "file.txt/results"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, output):
        corpus, labels = make_corpus(tmp_path)
        scores_dir = tmp_path / "scores"
        main(["run", "--corpus", str(corpus), "--output", str(scores_dir),
              "--detector", "null"])
        (tmp_path / "file.txt").write_text("x\n")
        rc = main(["score", "--scores", str(scores_dir), "--labels", str(labels),
                   "--output", str(tmp_path / output)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"data error: {tmp_path / output}: cannot write: ")
        assert (tmp_path / "file.txt").read_text() == "x\n"

    def test_score_memory_per_record(self, tmp_path):
        # each record's columns are held once, in their narrowest exact
        # types, and no sweep keeps a full-size temporary: about 50 bytes a
        # record, where holding the read columns beside the scorer's and
        # the sweeps' chained copies took about 100
        corpus, scores_dir = tmp_path / "corpus", tmp_path / "scores"
        cmd_synth_generate(corpus, 20, duration=40.0, sample_rate=50.0, seed=5)
        cmd_run(RunConfig.from_entries({
            "corpus_dir": str(corpus), "output_dir": str(scores_dir),
            "detector.kind": "windowed_gaussian"}))
        records = 20 * 2000
        tracemalloc.start()
        try:
            cmd_score(scores_dir, corpus / "labels.json", ["standard", "low_fp", "low_fn"],
                      tmp_path / "results")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(read_scores(scores_dir / "degradation_19.csv")) == 2000
        assert peak <= 70 * records, peak / records


class TestSynthCommand:
    def test_generate_writes_corpus_and_labels(self, tmp_path):
        out = tmp_path / "synth"
        rc = main(["synth", "--mode", "generate", "--output", str(out),
                   "--files", "3", "--duration", "10", "--sample-rate", "20",
                   "--seed", "4"])
        assert rc == 0
        csvs = sorted(out.glob("*.csv"))
        assert len(csvs) == 3
        labels = json.loads((out / "labels.json").read_text())
        assert all(len(v) == 3 for v in labels.values())

    def test_generate_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["synth", "--mode", "generate", "--files", "1",
                "--duration", "5", "--sample-rate", "20", "--seed", "9"]
        main([*args, "--output", str(a)])
        main([*args, "--output", str(b)])
        assert ((a / "degradation_00.csv").read_bytes()
                == (b / "degradation_00.csv").read_bytes())

    @pytest.mark.parametrize("rate", [50.0, 0.3, 44100 / 997, 2e6, 4e6, 2e6 / 3])
    @pytest.mark.parametrize("start", [
        T0, datetime(2021, 5, 6, 7, 8, 9, 123457),
        datetime(2021, 1, 1, 5, 30, tzinfo=timezone(timedelta(hours=5, minutes=30))),
    ], ids=["whole", "micros", "tz"])
    def test_sample_times_match_per_row_timedelta(self, rate, start):
        # at 2e6, 4e6 and 2e6/3 Hz many offsets fall halfway between two
        # microseconds, where timedelta rounds to even
        n = 20_000
        utc = start.astimezone(timezone.utc).replace(tzinfo=None) if start.tzinfo else start
        want = [(utc + timedelta(seconds=j / rate) - datetime(1970, 1, 1)) // timedelta(microseconds=1)
                for j in range(n)]
        assert _sample_times(start, n, rate).tolist() == want

    @pytest.mark.parametrize("rate, start", [
        (44100 / 997, datetime(2021, 5, 6, 7, 8, 9, 123457)), (2e6 / 3, T0)])
    def test_generate_writes_per_row_stamps(self, tmp_path, rate, start):
        cmd_synth_generate(tmp_path / "c", 1, 3000 / rate, rate, 3, start_time=start)
        path = tmp_path / "c" / "degradation_00.csv"
        records = read_series(path)
        per_row = [(start + timedelta(seconds=j / rate), v)
                   for j, v in enumerate(records.values.tolist())]
        write_series(tmp_path / "per_row.csv", per_row)
        assert path.read_bytes() == (tmp_path / "per_row.csv").read_bytes()

    def test_map_identity_on_stationary_bearing(self, tmp_path):
        n = 600
        records = [(T0 + timedelta(seconds=i), 1.0) for i in range(n)]
        bearing = tmp_path / "bearing.csv"
        write_series(bearing, records)
        import math
        target_records = [
            (T0 + timedelta(seconds=i), math.sin(2 * math.pi * 5 * i / 50.0))
            for i in range(n)
        ]
        target = tmp_path / "target.csv"
        write_series(target, target_records)
        out = tmp_path / "mapped.csv"
        rc = main(["synth", "--mode", "map", "--bearing", str(bearing),
                   "--target", str(target), "--output", str(out),
                   "--sample-rate", "50", "--taper", "rect",
                   "--hop", "256"])
        assert rc == 0
        mapped = read_series(out).values.tolist()
        for got, (_, want) in zip(mapped, target_records):
            assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("args", [
        ["--mode", "generate", "--files", "1", "--duration", "8", "--output", "file.txt"],
        ["--mode", "generate", "--files", "1", "--duration", "8", "--output", "file.txt/corpus"],
        ["--mode", "map", "--window-len", "16", "--output", "corpus"],
        ["--mode", "map", "--window-len", "16", "--output", "file.txt/mapped.csv"],
    ])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, args):
        corpus, _ = make_corpus(tmp_path)
        (tmp_path / "file.txt").write_text("x\n")
        series = str(corpus / "series_0.csv")
        output = tmp_path / args[-1]
        rc = main(["synth", *args[:-1], str(output), "--bearing", series, "--target", series])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"data error: {output}: cannot write: ")
        assert (tmp_path / "file.txt").read_text() == "x\n"

    def test_map_requires_inputs(self, tmp_path):
        rc = main(["synth", "--mode", "map", "--output", str(tmp_path / "o")])
        assert rc == 1

    @pytest.mark.parametrize("args", [
        ["--sample-rate", "-50"], ["--duration", "nan"], ["--sample-rate", "nan"],
        ["--sample-rate", "0"], ["--files", "-2"], ["--files", "0"],
        ["--duration", "1e-9"], ["--seed", "-1"],
        ["--duration", "1e300", "--sample-rate", "1e300"],
    ])
    def test_bad_generate_numbers_exit_1(self, tmp_path, capsys, args):
        out = tmp_path / "synth"
        rc = main(["synth", "--mode", "generate", "--output", str(out), *args])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("mode, flag, value", [
        ("generate", "--files", "1.5"), ("generate", "--seed", "x"),
        ("generate", "--duration", "x"), ("generate", "--sample-rate", "fast"),
        ("map", "--window-len", "x"), ("map", "--hop", "2.5"),
        ("map", "--bin-size", "x"),
    ])
    def test_non_numeric_flag_exits_1(self, tmp_path, capsys, mode, flag, value):
        series = tmp_path / "series.csv"
        write_series(series, [(T0 + timedelta(seconds=i), float(i % 7)) for i in range(600)])
        out = tmp_path / "out"
        rc = main(["synth", "--mode", mode, "--bearing", str(series),
                   "--target", str(series), "--output", str(out), flag, value])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {flag} must be") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["--window-len", "0"], ["--window-len", "-4"], ["--sample-rate", "nan"],
        ["--bin-size", "nan"], ["--bin-size", "0"],
    ])
    def test_bad_map_numbers_exit_1(self, tmp_path, capsys, args):
        series = tmp_path / "series.csv"
        write_series(series, [(T0 + timedelta(seconds=i), float(i % 7)) for i in range(600)])
        out = tmp_path / "mapped.csv"
        rc = main(["synth", "--mode", "map", "--bearing", str(series),
                   "--target", str(series), "--output", str(out), *args])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    def test_zero_hop_exits_1(self, tmp_path, capsys):
        """``--hop 0`` is a hop of 0, not a request for the default."""
        series = tmp_path / "series.csv"
        write_series(series, [(T0 + timedelta(seconds=i), float(i % 7)) for i in range(600)])
        out = tmp_path / "mapped.csv"
        rc = main(["synth", "--mode", "map", "--bearing", str(series),
                   "--target", str(series), "--output", str(out), "--hop", "0"])
        assert rc == 1
        assert capsys.readouterr().err == "error: need 0 < hop <= window_len\n"
        assert not out.exists()


class TestInspectCommand:
    def test_inspect_series(self, tmp_path, capsys):
        corpus, _ = make_corpus(tmp_path)
        rc = main(["inspect", str(corpus / "series_0.csv")])
        assert rc == 0
        assert "60 rows" in capsys.readouterr().out

    def test_inspect_run_output(self, tmp_path, capsys):
        corpus, _ = make_corpus(tmp_path)
        out = tmp_path / "out"
        main(["run", "--corpus", str(corpus), "--output", str(out), "--detector", "null"])
        capsys.readouterr()
        assert main(["inspect", str(out / "series_0.csv")]) == 0
        assert capsys.readouterr().out == (
            f"{out / 'series_0.csv'}: 60 rows, span 2021-01-01 00:00:00 .. "
            "2021-01-01 00:59:00, value range [1.0, 10.0]\n")

    def test_inspect_scores(self, tmp_path, capsys):
        # time zones, fractions, a blank line and a CRLF line end
        path = tmp_path / "scores.csv"
        path.write_bytes(b"timestamp,value,anomaly_score\n"
                         b"2021-01-01T00:00:00.250+02:00,0.0,0.0\n\n"
                         b"2020-12-31T22:00:01,-0.0,1.0\r\n"
                         b"2020-12-31T22:00:01.5,-2.5,0.5\n"
                         b"2020-12-31T22:00:02Z,1e-05,0.25\n"
                         b"2020-12-31 22:00:03.000001,3,1\n")
        assert main(["inspect", str(path)]) == 0
        assert capsys.readouterr().out == (
            f"{path}: 5 rows, span 2020-12-31 22:00:00.250000 .. "
            "2020-12-31 22:00:03.000001, value range [-2.5, 3.0]\n")

    @pytest.mark.parametrize("header, tail", [("timestamp,value", ",1.0"),
                                              ("timestamp,value,anomaly_score", ",1.0,0.5")],
                             ids=["series", "scores"])
    @pytest.mark.parametrize("stamp", ["0001-01-01T00:00:00+01:00",
                                       "9999-12-31T23:00:00-05:00"])
    def test_out_of_range_utc_normalization_exits_2(self, tmp_path, capsys, header, tail,
                                                    stamp):
        path = tmp_path / "f.csv"
        path.write_text(f"{header}\n{stamp}{tail}\n")
        assert main(["inspect", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {path}:2: bad timestamp {stamp!r}: date value out of range\n")

    @pytest.mark.parametrize("name", ["nope.csv", "nope.json"])
    def test_missing_file_exits_2(self, tmp_path, capsys, name):
        assert main(["inspect", str(tmp_path / name)]) == 2
        assert f"{name}: cannot read" in capsys.readouterr().err

    def test_directory_exits_2(self, tmp_path):
        (tmp_path / "d.csv").mkdir()
        assert main(["inspect", str(tmp_path / "d.csv")]) == 2

    def test_inspect_labels(self, tmp_path, capsys):
        _, labels = make_corpus(tmp_path)
        rc = main(["inspect", str(labels)])
        assert rc == 0
        assert "2 top-level entries" in capsys.readouterr().out

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"series_0.csv": [')
        assert main(["inspect", str(path)]) == 2

    def test_utf16_json_exits_2(self, tmp_path, capsys):
        """JSON is read as UTF-8, as every input is."""
        path = tmp_path / "labels.json"
        path.write_text('{"series_0.csv": []}', encoding="utf-16")
        assert main(["inspect", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"data error: {path}: not UTF-8 text: ")

    def test_json_scalar_exits_2(self, tmp_path):
        path = tmp_path / "scalar.json"
        path.write_text("5\n")
        assert main(["inspect", str(path)]) == 2

    @pytest.mark.parametrize("suffix", [".pkl", ".bin", ".model", ".txt"])
    def test_other_suffixes_exit_2_without_unpickling(self, tmp_path, suffix):
        # unpickling this payload would create the marker file
        marker = tmp_path / "marker"
        path = tmp_path / f"model{suffix}"
        path.write_bytes(pickle.dumps(_CreatesFileWhenUnpickled(str(marker))))
        assert main(["inspect", str(path)]) == 2
        assert not marker.exists()

    def test_payload_would_create_marker(self, tmp_path):
        marker = tmp_path / "marker"
        pickle.loads(pickle.dumps(_CreatesFileWhenUnpickled(str(marker)))).close()
        assert marker.exists()


class TestCommandLine:
    @pytest.mark.parametrize("argv", [
        ["run", "--corpus", "c", "--output", "o", "--detector", "bogus"],
        ["score", "--scores", "s", "--output", "o"],
        ["synth", "--mode", "bogus", "--output", "o"],
        ["inspect", "f.csv", "--bogus"],
        ["--bogus"],
        [],
    ], ids=["run-choice", "score-required", "synth-choice", "unknown-flag", "top-level-flag",
            "no-command"])
    def test_usage_error_exits_1(self, capsys, argv):
        """A command line the parser refuses is a validation error: one
        error line and exit code 1, not a usage banner and exit code 2."""
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_unknown_top_level_flag_is_named(self, capsys):
        """argparse names an unknown flag before any missing command."""
        assert main(["--bogus"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--bogus" in err and err.count("\n") == 1

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--help"])
        assert exc.value.code == 0
        assert "--sample-rate" in capsys.readouterr().out


class _CreatesFileWhenUnpickled:
    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))
