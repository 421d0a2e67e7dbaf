import errno
import hashlib
import json
import math
import platform
import re
from pathlib import Path

import numpy as np
import pytest

from ssrlab import (OPEN_SET, NoisyDataset, cli, load_embeddings, load_pool,
                    ssrd)
from ssrlab.cli import CSV_COLUMNS, TIMING_COLUMNS, _run_dir, main
from ssrlab.config import parse_config_dict
from ssrlab.data import TRAIN_PARAMS
from ssrlab.errors import ConfigError


BASE_CONFIG = {
    "epochs": 2,
    "k_neighbours": 5,
    "batch_size": 32,
    "synth": {"num_classes": 3, "per_class": 30, "dim": 8,
              "separation": 4.0, "seed": 0, "ood_classes": 2},
    "noise": {"kind": "symmetric", "total_ratio": 0.3, "seed": 0},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return path


# --- config parsing ----------------------------------------------------------

def test_empty_config_gives_defaults():
    parsed = parse_config_dict({})
    assert parsed.train.theta_s == 1.0
    assert parsed.train.theta_r == 0.9
    assert parsed.train.k_neighbours == 100
    assert parsed.train.lambda_fc == 1.0
    assert parsed.train.seed == 0
    assert parsed.noise is None and parsed.synth is None


def test_out_of_range_value():
    with pytest.raises(ConfigError) as exc:
        parse_config_dict({"theta_r": 1.5})
    assert exc.value.code == "RANGE_ERROR"


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config_dict({"thata_s": 1.0})
    assert exc.value.code == "UNKNOWN_KEY"


def test_removed_persistent_relabel_key_rejected():
    for key in ("persistent_relabel", "record_timings", "use_mixup",
                "proj_dim", "fc_distance", "stop_gradient"):
        with pytest.raises(ConfigError) as exc:
            parse_config_dict({key: True})
        assert exc.value.code == "UNKNOWN_KEY"


def test_combined_noise_section():
    parsed = parse_config_dict({"noise": {"kind": "combined",
                                          "total_ratio": 0.3,
                                          "open_ratio": 0.5}})
    assert parsed.noise.kind == "combined"
    assert parsed.noise.total_ratio == 0.3
    assert parsed.noise.open_ratio == 0.5


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"theta_s": }')
    from ssrlab.config import parse_config
    with pytest.raises(ConfigError) as exc:
        parse_config(path)
    assert exc.value.code == "PARSE_ERROR"
    assert ":1:" in str(exc.value)


def test_echo_contains_all_defaults():
    echo = parse_config_dict({"synth": {}}).echo()
    assert echo["train"]["theta_s"] == 1.0
    assert echo["synth"]["num_classes"] == 4


# --- synth / inject ----------------------------------------------------------

def test_synth_writes_files(tmp_path, config_path):
    out = tmp_path / "data"
    assert main(["synth", "-c", str(config_path), "-o", str(out)]) == 0
    train = load_embeddings(out / "train.ssrd")
    assert train.n_samples == 90
    assert load_embeddings(out / "test.ssrd").n_samples == 9
    assert load_pool(out / "ood.ssrd").shape == (60, 8)
    assert json.loads((out / "synth.json").read_text())["train"]["epochs"] == 2


def test_inject_applies_noise(tmp_path, config_path):
    data = tmp_path / "data"
    main(["synth", "-c", str(config_path), "-o", str(data)])
    noisy_path = tmp_path / "noisy.ssrd"
    assert main(["inject", "-c", str(config_path),
                 "-i", str(data / "train.ssrd"), "-o", str(noisy_path)]) == 0
    clean = load_embeddings(data / "train.ssrd")
    noisy = load_embeddings(noisy_path)
    changed = (clean.observed_labels != noisy.observed_labels).sum()
    assert 0 < changed <= 27
    assert np.array_equal(clean.features, noisy.features)


def test_inject_draws_open_set_vectors_from_the_pool(tmp_path, config_path):
    config = {**BASE_CONFIG, "noise": {"kind": "combined", "total_ratio": 0.3,
                                       "open_ratio": 0.5, "seed": 0}}
    config_path.write_text(json.dumps(config))
    data = tmp_path / "data"
    main(["synth", "-c", str(config_path), "-o", str(data)])
    noisy_path = tmp_path / "noisy.ssrd"
    assert main(["inject", "-c", str(config_path), "-i",
                 str(data / "train.ssrd"), "--ood", str(data / "ood.ssrd"),
                 "-o", str(noisy_path)]) == 0
    clean = load_embeddings(data / "train.ssrd")
    noisy = load_embeddings(noisy_path)
    swapped = noisy.true_labels == OPEN_SET
    assert swapped.sum() == 13   # int(0.5 * int(0.3 * 90))
    assert np.array_equal(noisy.features[~swapped], clean.features[~swapped])
    pool = load_pool(data / "ood.ssrd")
    assert all((pool == row).all(axis=1).any() for row in noisy.features[swapped])


def test_inject_refuses_a_pool_of_another_width(tmp_path, config_path,
                                               caplog):
    config = {**BASE_CONFIG, "noise": {"kind": "combined", "total_ratio": 0.3,
                                       "open_ratio": 0.5, "seed": 0}}
    config_path.write_text(json.dumps(config))
    data = tmp_path / "data"
    main(["synth", "-c", str(config_path), "-o", str(data)])
    narrow = tmp_path / "pool6.ssrd"
    ssrd.write_pool(narrow, np.ones((60, 6)))
    noisy_path = tmp_path / "noisy.ssrd"
    assert main(["inject", "-c", str(config_path), "-i",
                 str(data / "train.ssrd"), "--ood", str(narrow),
                 "-o", str(noisy_path)]) == 3
    assert ("SHAPE_MISMATCH: the open-set pool has 6 features, the dataset 8"
            in caplog.text)
    assert not noisy_path.exists()


def test_run_verbs_have_no_ood_flag(capsys):
    for verb in ("run", "grid", "compare-modes"):
        with pytest.raises(SystemExit):
            main([verb, "--help"])
        assert "--ood" not in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["inject", "--help"])
    assert "--ood" in capsys.readouterr().out


@pytest.mark.parametrize("verb", ["run", "inject"])
def test_non_finite_feature_is_refused_on_load(tmp_path, config_path, caplog,
                                                verb):
    feats = np.random.default_rng(0).normal(size=(12, 3))
    feats[4, 1] = np.nan
    labels = np.arange(12) % 3
    bad = tmp_path / "nan.ssrd"
    # written without a NoisyDataset, which refuses the NaN
    ssrd._write(bad, feats, labels, 3, labels)
    out = tmp_path / "o"
    assert main([verb, "-c", str(config_path), "-i", str(bad),
                 "-o", str(out)]) == 4
    assert "NON_FINITE_INPUT: feature row 4 is not finite" in caplog.text
    # no run directory, no noisy file
    assert not out.exists()


# --- run ---------------------------------------------------------------------

def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def run_dir_of(root):
    runs = [p for p in root.iterdir() if p.is_dir() and p.name.startswith("run_")]
    assert len(runs) == 1
    return runs[0]


def test_run_dir_takes_the_next_free_suffix(tmp_path, monkeypatch):
    # runs started in the same second with the same seed get _1, _2, ...
    monkeypatch.setattr("ssrlab.cli.time.strftime",
                        lambda fmt: "20260101-000000")
    dirs = [_run_dir(tmp_path / "out", 3) for _ in range(3)]
    assert [d.name for d in dirs] == ["run_20260101-000000_s3",
                                      "run_20260101-000000_s3_1",
                                      "run_20260101-000000_s3_2"]
    assert all(d.is_dir() for d in dirs)


def test_run_emits_artifacts(tmp_path, config_path):
    out = tmp_path / "out"
    assert main(["run", "-c", str(config_path), "-o", str(out)]) == 0
    run_dir = run_dir_of(out)
    header, rows = read_csv(run_dir / "metrics.csv")
    assert header == CSV_COLUMNS
    assert len(rows) == 2
    record = json.loads((run_dir / "record.json").read_text())
    assert len(record["epochs"]) == 2
    for row, epoch in zip(rows, record["epochs"]):
        for col in CSV_COLUMNS:
            assert abs(float(row[col]) - float(epoch[col])) < 1e-9
    # fscore column is the harmonic mean of the precision/recall columns
    for row in rows:
        p, r = float(row["sel_precision"]), float(row["sel_recall"])
        expect = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        assert math.isclose(float(row["sel_fscore"]), expect, abs_tol=1e-12)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["seed"] == 0
    assert manifest["finished"] >= manifest["started"]
    header, rows = read_csv(run_dir / "timings.csv")
    assert header == TIMING_COLUMNS == ["epoch", "relabel_s", "select_s",
                                        "train_s", "eval_s"]
    assert [row["epoch"] for row in rows] == ["0", "1"]
    for row in rows:
        assert all(float(row[c]) >= 0.0 for c in header[1:])
    assert not (run_dir / "plots").exists()
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "manifest.json", "metrics.csv", "record.json", "timings.csv"]


def test_default_run_is_byte_identical(tmp_path, config_path):
    dirs = []
    for name in ("a", "b"):
        assert main(["run", "-c", str(config_path),
                     "-o", str(tmp_path / name)]) == 0
        dirs.append(run_dir_of(tmp_path / name))
    for fname in ("metrics.csv", "record.json"):
        assert (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes()


@pytest.mark.parametrize("source", ["synth", "ssrd"])
def test_run_reruns_from_its_record(tmp_path, source):
    # record.json's config, written back as a config file (the train keys at
    # the root, beside its noise and synth sections), repeats the run
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        **BASE_CONFIG, "theta_s": 0.9,
        "synth": {"num_classes": 3, "class_counts": [50, 40, 30], "dim": 8,
                  "ood_classes": 0},
        "noise": {"kind": "asymmetric", "total_ratio": 0.3,
                  "pair_map": [1, 2, 0], "seed": 2}}))
    inputs = []
    if source == "ssrd":
        data = tmp_path / "data"
        assert main(["synth", "-c", str(config), "-o", str(data)]) == 0
        assert main(["inject", "-c", str(config), "-i",
                     str(data / "train.ssrd"), "-o", str(data / "noisy.ssrd")]) == 0
        inputs = ["-i", str(data / "noisy.ssrd"),
                  "--test", str(data / "test.ssrd")]
    dirs = []
    for name in ("first", "again"):
        assert main(["run", "-c", str(config), "-o", str(tmp_path / name),
                     *inputs]) == 0
        dirs.append(run_dir_of(tmp_path / name))
        echo = json.loads((dirs[-1] / "record.json").read_text())["config"]
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({**echo.pop("train"), **echo}))
        # and manifest.json names the input files
        manifest = json.loads((dirs[-1] / "manifest.json").read_text())
        inputs = [arg for flag, key in (("-i", "input_path"),
                                        ("--test", "test_path"))
                  if manifest[key] is not None for arg in (flag, manifest[key])]
    for fname in ("metrics.csv", "record.json"):
        assert (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes()


@pytest.mark.parametrize("source", ["synth", "ssrd"])
def test_manifest_names_its_inputs(tmp_path, config_path, monkeypatch, source):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    data = tmp_path / "data"
    assert main(["synth", "-c", str(config_path), "-o", str(data)]) == 0
    files = {"input": data / "train.ssrd", "test": data / "test.ssrd"}
    inputs = ["-i", str(files["input"]), "--test", str(files["test"])]
    out = tmp_path / "o"
    assert main(["run", "-c", str(config_path), "-o", str(out),
                 *(inputs if source == "ssrd" else [])]) == 0
    manifest = json.loads((run_dir_of(out) / "manifest.json").read_text())
    for name, path in files.items():
        if source == "synth":
            assert manifest[f"{name}_path"] is manifest[f"{name}_sha256"] is None
        else:
            assert manifest[f"{name}_path"] == str(path)
            assert (manifest[f"{name}_sha256"]
                    == hashlib.sha256(path.read_bytes()).hexdigest())
    assert manifest["numpy_version"] == np.__version__
    assert manifest["python_version"] == platform.python_version()
    assert manifest["blas_threads"] == {"OPENBLAS_NUM_THREADS": None,
                                        "OMP_NUM_THREADS": "2",
                                        "MKL_NUM_THREADS": None}


def test_grid_point_reruns_from_its_record(tmp_path, config_path):
    # one point's record.json config, written back as a config file (the
    # train keys at the root), repeats that point as a run
    grid = tmp_path / "grid"
    assert main(["grid", "-c", str(config_path), "-o", str(grid),
                 "--param", "theta_s", "--values", "0.5,1.0"]) == 0
    point = grid / "theta_s_0.5"
    echo = json.loads((point / "record.json").read_text())["config"]
    config = tmp_path / "point.json"
    config.write_text(json.dumps({**echo.pop("train"), **echo}))
    out = tmp_path / "run"
    assert main(["run", "-c", str(config), "-o", str(out)]) == 0
    for fname in ("metrics.csv", "record.json"):
        assert ((run_dir_of(out) / fname).read_bytes()
                == (point / fname).read_bytes())


@pytest.mark.parametrize("verb", ["run", "grid", "compare-modes"])
def test_train_values_come_only_from_the_config(tmp_path, config_path, capsys,
                                                verb):
    with pytest.raises(SystemExit):
        main([verb, "--help"])
    help_text = capsys.readouterr().out
    assert not [key for key in TRAIN_PARAMS
                if f"--{key.replace('_', '-')} " in help_text]
    out = tmp_path / "o"
    args = [verb, "-c", str(config_path), "-o", str(out), "--epochs", "3"]
    if verb == "grid":
        args += ["--param", "theta_s", "--values", "0.5,1.0"]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "unrecognized arguments: --epochs 3" in capsys.readouterr().err
    assert not out.exists()


def test_refused_run_makes_no_directory(tmp_path, caplog):
    # theta_r 0.2 is a valid config value, but below 1/M for M = 3; the run
    # raises before epoch 0, and its directory is made only after it succeeds
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**BASE_CONFIG, "theta_r": 0.2}))
    out = tmp_path / "o"
    assert main(["run", "-c", str(config_path), "-o", str(out)]) == 2
    assert "theta_r=0.2 is below 1/M = 1/3" in caplog.text
    assert not out.exists()


def test_run_with_input_files(tmp_path, config_path):
    data = tmp_path / "data"
    main(["synth", "-c", str(config_path), "-o", str(data)])
    out = tmp_path / "out"
    assert main(["run", "-c", str(config_path), "-o", str(out),
                 "-i", str(data / "train.ssrd"),
                 "--test", str(data / "test.ssrd")]) == 0
    _, rows = read_csv(run_dir_of(out) / "metrics.csv")
    assert len(rows) == 2
    # the config's synth and noise sections were not applied to -i data, so
    # record.json does not echo them (a synth run does, see compare-modes)
    record = json.loads((run_dir_of(out) / "record.json").read_text())
    assert sorted(record["config"]) == ["train"]


@pytest.mark.parametrize("verb", ["run", "grid", "compare-modes"])
def test_test_set_without_input_is_refused(tmp_path, config_path, caplog,
                                           verb):
    data = tmp_path / "data"
    main(["synth", "-c", str(config_path), "-o", str(data)])
    out = tmp_path / "o"
    args = [verb, "-c", str(config_path), "-o", str(out),
            "--test", str(data / "test.ssrd")]
    if verb == "grid":
        args += ["--param", "theta_s", "--values", "0.5,1.0"]
    assert main(args) == 2
    assert "RANGE_ERROR: --test needs -i" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("verb", ["run", "grid", "compare-modes"])
@pytest.mark.parametrize("dim, m", [(6, 3), (8, 5)])
def test_test_set_of_another_shape_is_refused(tmp_path, config_path, caplog,
                                              monkeypatch, verb, dim, m):
    data = tmp_path / "data"
    main(["synth", "-c", str(config_path), "-o", str(data)])
    labels = np.arange(10) % m
    test = tmp_path / "test.ssrd"
    ssrd.write_dataset(test, NoisyDataset(np.ones((10, dim)), labels, m,
                                          labels.copy()))
    out = tmp_path / "o"
    args = [verb, "-c", str(config_path), "-o", str(out),
            "-i", str(data / "train.ssrd"), "--test", str(test)]
    runs = []
    if verb == "grid":
        args += ["--param", "theta_s", "--values", "0.5,1.0"]
        # grid's pre-flight refuses the test set before any point runs
        real = cli.run_experiment

        def spy(*a, **kw):
            runs.append(a)
            return real(*a, **kw)

        monkeypatch.setattr(cli, "run_experiment", spy)
    assert main(args) == 3
    assert (f"SHAPE_MISMATCH: the test set has {dim} features and {m} "
            "classes, the training set 8 and 3") in caplog.text
    assert not out.exists()
    assert runs == []


def test_run_without_test_set_records_no_test_accuracy(tmp_path, config_path,
                                                      caplog):
    caplog.set_level("INFO")
    data = tmp_path / "data"
    main(["synth", "-c", str(config_path), "-o", str(data)])
    out = tmp_path / "out"
    assert main(["run", "-c", str(config_path), "-o", str(out),
                 "-i", str(data / "train.ssrd")]) == 0
    run_dir = run_dir_of(out)
    _, rows = read_csv(run_dir / "metrics.csv")
    assert [row["test_acc"] for row in rows] == ["", ""]
    record = json.loads((run_dir / "record.json").read_text())
    assert [e["test_acc"] for e in record["epochs"]] == [None, None]
    assert record["best_test_acc"] is None and record["last_test_acc"] is None
    assert "run finished: no test set ->" in caplog.text


# --- grid --------------------------------------------------------------------

def test_grid_three_points(tmp_path, config_path):
    out = tmp_path / "grid"
    assert main(["grid", "-c", str(config_path), "-o", str(out),
                 "--param", "theta_s", "--values", "0.0,0.5,1.0"]) == 0
    for v in ["0.0", "0.5", "1.0"]:
        assert (out / f"theta_s_{v}" / "metrics.csv").exists()
    lines = (out / "summary.csv").read_text().strip().split("\n")
    assert lines[0] == "theta_s,best_test_acc,last_test_acc"
    assert len(lines) == 4


def test_grid_rejects_bad_values(tmp_path, config_path):
    code = main(["grid", "-c", str(config_path), "-o", str(tmp_path / "g"),
                 "--param", "theta_s", "--values", "oops"])
    assert code == 2


# the failing value of each sweep; theta_r = 0.2 is below 1/M for M = 3,
# a limit of the data and not of the config alone
_GRID_BAD_VALUE = {"0.5,1.5": "1.5", "5,0": "0", "0.9,0.2,0.5": "0.2"}


@pytest.mark.parametrize("param, values", [("theta_s", "0.5,1.5"),
                                           ("k_neighbours", "5,0"),
                                           ("theta_r", "0.9,0.2,0.5")])
def test_grid_checks_every_point_before_the_first_runs(tmp_path, config_path,
                                                       caplog, param, values):
    out = tmp_path / "g"
    assert main(["grid", "-c", str(config_path), "-o", str(out),
                 "--param", param, "--values", values]) == 2
    assert f"RANGE_ERROR: {param}={_GRID_BAD_VALUE[values]}" in caplog.text
    # no point directory, no summary.csv, no manifest: not even the directory
    assert not out.exists()


@pytest.mark.parametrize("param, values", [("theta_r", "0.9,0.90,0.5"),
                                           ("k_neighbours", "5,7,05")])
def test_grid_rejects_a_repeated_value(tmp_path, config_path, caplog, param,
                                       values):
    # a repeat would run twice into one directory and add a summary row
    out = tmp_path / "g"
    assert main(["grid", "-c", str(config_path), "-o", str(out),
                 "--param", param, "--values", values]) == 2
    assert f"RANGE_ERROR: sweep values {values!r} repeat a value" in caplog.text
    assert not out.exists()


def test_grid_without_test_set_leaves_accuracy_cells_empty(tmp_path,
                                                           config_path):
    data = tmp_path / "data"
    main(["synth", "-c", str(config_path), "-o", str(data)])
    out = tmp_path / "grid"
    assert main(["grid", "-c", str(config_path), "-o", str(out), "-i",
                 str(data / "train.ssrd"), "--param", "theta_s",
                 "--values", "0.5,1.0"]) == 0
    _, rows = read_csv(out / "summary.csv")
    assert [(r["theta_s"], r["best_test_acc"], r["last_test_acc"])
            for r in rows] == [("0.5", "", ""), ("1.0", "", "")]


def test_grid_checks_k_against_the_data_before_the_first_runs(
        tmp_path, config_path, caplog):
    # k = 500 is a valid config value, but not below N = 90
    out = tmp_path / "g"
    assert main(["grid", "-c", str(config_path), "-o", str(out),
                 "--param", "k_neighbours", "--values", "5,500"]) == 3
    assert "K_TOO_LARGE: k_neighbours=500" in caplog.text
    assert not out.exists()


def test_grid_keeps_the_points_before_a_failing_one(tmp_path, config_path,
                                                   caplog):
    # learning rate 30 diverges in the second point's epoch 0
    out = tmp_path / "g"
    assert main(["grid", "-c", str(config_path), "-o", str(out),
                 "--param", "learning_rate", "--values", "0.02,30"]) == 4
    # the message's magnitude moves with any change to the step's arithmetic
    assert re.search(r"DIVERGED: epoch 0 step 2: .* after the pass",
                     caplog.text)
    # the first point is whole; no summary.csv, no manifest.json
    assert [p.name for p in out.iterdir()] == ["learning_rate_0.02"]
    assert sorted(p.name for p in (out / "learning_rate_0.02").iterdir()) == [
        "metrics.csv", "record.json", "timings.csv"]


def test_grid_sweeps_the_int_and_float_train_keys(tmp_path, config_path,
                                                 capsys):
    out = tmp_path / "g"
    for key in ("oversample", "hidden_dims"):
        with pytest.raises(SystemExit) as exc:
            main(["grid", "-c", str(config_path), "-o", str(out),
                  "--param", key, "--values", "0,1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --param: invalid choice: '{key}'" in err
        choices = set(re.findall(r"\w+", err.split("choose from")[1]))
        # a bool key would be cast by bool(), and bool("false") is True
        assert choices == set(TRAIN_PARAMS) - {"hidden_dims", "balance_voting",
                                                "oversample"}
    assert not out.exists()


@pytest.mark.parametrize("verb", ["run", "grid", "synth"])
def test_features_past_float32_are_refused_before_training(
        tmp_path, caplog, monkeypatch, verb):
    # centres 1e39 apart are finite in float64, but inf in SSRD's float32
    # and in the float32 model
    def no_init(*args, **kwargs):
        raise AssertionError("model initialised before the range check")
    monkeypatch.setattr("ssrlab.pipeline.init_model", no_init)
    path = tmp_path / "far.json"
    path.write_text(json.dumps(
        dict(BASE_CONFIG, synth=dict(BASE_CONFIG["synth"], separation=1e39))))
    out = tmp_path / "o"
    args = [verb, "-c", str(path), "-o", str(out)]
    if verb == "grid":
        args += ["--param", "theta_s", "--values", "0.5,1.0"]
    assert main(args) == 4
    assert ("NON_FINITE_INPUT: feature row 0 is not finite in float32"
            in caplog.text)
    assert not out.exists()


# --- compare-modes -----------------------------------------------------------

def test_compare_modes_outputs(tmp_path, config_path):
    out = tmp_path / "cmp"
    assert main(["compare-modes", "-c", str(config_path),
                 "-o", str(out)]) == 0
    lines = (out / "comparison.csv").read_text().strip().split("\n")
    assert lines[0] == "mode,best_test_acc,last_test_acc"
    assert len(lines) == 7
    assert (out / "npk_automatic" / "metrics.csv").exists()


def test_compare_modes_record_states_the_config_it_ran(tmp_path, config_path):
    # the comparison turns relabelling, mixup, jitter and the consistency
    # loss off; record.json shows that, beside the noise and synth echo
    out = tmp_path / "cmp"
    assert main(["compare-modes", "-c", str(config_path),
                 "-o", str(out)]) == 0
    config = json.loads((out / "npk_automatic" / "record.json").read_text())[
        "config"]
    assert config["train"]["theta_r"] == 1.0
    assert config["train"]["lambda_fc"] == 0.0
    assert config["train"]["mixup_alpha"] == 0.0
    assert config["train"]["k_neighbours"] == BASE_CONFIG["k_neighbours"]
    assert config["noise"]["total_ratio"] == 0.3
    assert config["synth"]["per_class"] == 30


def test_compare_modes_needs_true_labels(tmp_path, config_path, caplog):
    data = tmp_path / "data"
    assert main(["synth", "-c", str(config_path), "-o", str(data)]) == 0
    train = load_embeddings(data / "train.ssrd")
    plain = tmp_path / "plain.ssrd"
    ssrd.write_dataset(plain, NoisyDataset(train.features, train.observed_labels,
                                           train.num_classes))
    out = tmp_path / "cmp"
    assert main(["compare-modes", "-c", str(config_path), "-o", str(out),
                 "-i", str(plain)]) == 3
    assert "MISSING_GROUND_TRUTH" in caplog.text
    # no mode directory, no comparison.csv, no manifest: not even the directory
    assert not out.exists()


def test_compare_modes_refuses_a_noise_rate_of_one(tmp_path, caplog):
    # every label flips, so the measured rate leaves no tau in [0, 1)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        **BASE_CONFIG,
        "synth": {**BASE_CONFIG["synth"], "per_class": 40, "ood_classes": 0},
        "noise": {"kind": "asymmetric", "total_ratio": 1.0,
                  "pair_map": [1, 2, 0], "seed": 0}}))
    out = tmp_path / "cmp"
    assert main(["compare-modes", "-c", str(config), "-o", str(out)]) == 2
    assert "RANGE_ERROR: measured noise rate 1.0" in caplog.text
    assert not out.exists()


# --- exit codes --------------------------------------------------------------

# (section, key, raw JSON value[, other keys of the section]): each probe
# changes one key of BASE_CONFIG, after the other keys it needs
CONFIG_PROBES = [
    (None, "hidden_dims", "[1.5]"), (None, "k_neighbours", "2.5"),
    (None, "epochs", "1.5"), (None, "batch_size", "7.5"),
    (None, "seed", "1.5"), (None, "seed", "-1"), ("noise", "seed", "-3"),
    (None, "theta_s", "true"), (None, "theta_s", '"0.5"'),
    (None, "theta_s", "NaN"), (None, "lambda_fc", "1e300"),
    (None, "learning_rate", "1e300"), (None, "weight_decay", "1e300"),
    (None, "mixup_alpha", "NaN"), (None, "learning_rate", "NaN"),
    (None, "learning_rate", "1e400"), (None, "weight_decay", "1e400"),
    (None, "sigma_strong", "NaN"), (None, "sigma_strong", "1e300"),
    (None, "sigma_weak", "1e300"), ("synth", "per_class", "30.5"),
    ("synth", "separation", "NaN"), ("synth", "dim", "0"),
    ("synth", "dim", "2"), (None, "noise", "null"), (None, "noise", "5"),
    (None, "synth", '"ab"'), (None, "hidden_dims", "[]"),
    ("noise", "pair_map", "[1.5, 0, 1]"), (None, "balance_voting", "0"),
    (None, "oversample", "null"), ("noise", "kind", '"asymmetric"'),
    ("noise", "pair_map", "[1, 0]", {"kind": "asymmetric"}),
    ("noise", "pair_map", "[1, 2, 2]", {"kind": "asymmetric"}),
    ("noise", "pair_map", "[1, 2, 3]", {"kind": "asymmetric"}),
]


@pytest.mark.parametrize("section, key, raw, others",
                         [(*p, {})[:4] for p in CONFIG_PROBES],
                         ids=[f"{p[0]}.{p[1]}={p[2]}" if p[0] else f"{p[1]}={p[2]}"
                              for p in CONFIG_PROBES])
def test_exit_code_bad_config_value(tmp_path, caplog, section, key, raw, others):
    config = json.loads(json.dumps(BASE_CONFIG))
    target = config[section] if section else config
    target.update(others)
    target[key] = "@PROBE@"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config).replace('"@PROBE@"', raw))
    out = tmp_path / "o"
    assert main(["run", "-c", str(bad), "-o", str(out)]) == 2
    named = f"{key} section" if key in ("noise", "synth") else f"{key}="
    assert named in caplog.text
    assert not out.exists()


def test_exit_code_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"theta_r": 1.5}))
    assert main(["run", "-c", str(bad), "-o", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "config root must be a JSON object"),
    (None, "cannot read")])
def test_exit_code_unusable_config_file(tmp_path, caplog, text, message):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    assert main(["run", "-c", str(path), "-o", str(tmp_path / "o")]) == 2
    assert f"PARSE_ERROR: {message}" in caplog.text


@pytest.mark.parametrize("verb", ["run", "grid", "synth"])
@pytest.mark.parametrize("old, new, key", [
    ('"epochs": 2', '"epochs": 2, "epochs": 3', "epochs"),
    ('"seed": 0, "ood_classes"', '"seed": 0, "seed": 4, "ood_classes"',
     "synth.seed"),
    ('"seed": 0}', '"seed": 0, "seed": 1}', "noise.seed")],
    ids=["root", "synth", "noise"])
def test_a_config_key_given_twice_is_refused(tmp_path, caplog, verb, old, new,
                                             key):
    # json.loads alone would keep the last value; seed is a key of the
    # root, of noise and of synth, so a section's repeat names its section
    text = json.dumps(BASE_CONFIG)
    assert text.count(old) == 1
    path = tmp_path / "config.json"
    path.write_text(text.replace(old, new))
    out = tmp_path / "o"
    args = [verb, "-c", str(path), "-o", str(out)]
    if verb == "grid":
        args += ["--param", "theta_s", "--values", "0.5,1.0"]
    assert main(args) == 2
    assert f"PARSE_ERROR: key '{key}' is given twice" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("verb, section, message", [
    ("run", "synth", "no input file given and no synth section in config"),
    ("synth", "synth", "config has no synth section"),
    ("inject", "noise", "config has no noise section")])
def test_exit_code_missing_config_section(tmp_path, caplog, verb, section,
                                          message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({k: v for k, v in BASE_CONFIG.items()
                                if k != section}))
    out = tmp_path / "o"
    args = [verb, "-c", str(path), "-o", str(out)]
    if verb == "inject":   # the section is checked before the input is read
        args += ["-i", str(tmp_path / "absent.ssrd")]
    assert main(args) == 2
    assert f"RANGE_ERROR: {message}" in caplog.text
    assert not out.exists()


def test_exit_code_data_error(tmp_path, config_path):
    fake = tmp_path / "fake.ssrd"
    fake.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
    assert main(["run", "-c", str(config_path), "-o", str(tmp_path / "o"),
                 "-i", str(fake)]) == 3


def test_exit_code_numeric_error(tmp_path, config_path):
    # all-zero features give zero-norm embeddings in the selection phase
    import struct
    n, d = 8, 2
    blob = struct.pack("<4sHIIIB", b"SSRD", 1, n, d, 2, 0)
    blob += np.zeros(n * d, dtype="<f4").tobytes()
    blob += np.array([0, 1] * 4, dtype="<u4").tobytes()
    bad = tmp_path / "zero.ssrd"
    bad.write_bytes(blob)
    assert main(["run", "-c", str(config_path), "-o", str(tmp_path / "o"),
                 "-i", str(bad)]) == 4


@pytest.mark.parametrize("verb", ["run", "inject"])
def test_exit_code_missing_input(tmp_path, config_path, caplog, verb):
    missing = tmp_path / "absent.ssrd"
    assert main([verb, "-c", str(config_path), "-o", str(tmp_path / "o"),
                 "-i", str(missing)]) == 3
    assert f"IO_ERROR: {missing}: No such file or directory" in caplog.text


def test_exit_code_missing_output_directory(tmp_path, config_path, caplog):
    data = tmp_path / "data"
    assert main(["synth", "-c", str(config_path), "-o", str(data)]) == 0
    target = tmp_path / "missing_dir" / "x.ssrd"
    assert main(["inject", "-c", str(config_path), "-i",
                 str(data / "train.ssrd"), "-o", str(target)]) == 3
    # the target is named, not the temp file beside it
    assert f"IO_ERROR: {target}: No such file or directory" in caplog.text
    assert ".x.ssrd." not in caplog.text


# --- atomic artifacts --------------------------------------------------------

def cut_writes(monkeypatch, name):
    """Every write of a file called `name` stops half way, as on a full disk."""
    real_open = open

    class HalfWrite:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    def cut_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return HalfWrite(fh) if Path(path).name.startswith(f".{name}.") else fh

    monkeypatch.setattr(ssrd, "open", cut_open, raising=False)


def tree(root):
    return {p.relative_to(root): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


# (verb and its arguments after -c CONFIG -o OUT, a file it writes)
ARTIFACTS = [
    (["synth"], "train.ssrd"),
    (["synth"], "ood.ssrd"),
    (["synth"], "synth.json"),
    (["inject", "-i", "{data}/train.ssrd"], "noisy.ssrd"),
    (["grid", "--param", "theta_s", "--values", "0.5"], "metrics.csv"),
    (["grid", "--param", "theta_s", "--values", "0.5"], "record.json"),
    (["grid", "--param", "theta_s", "--values", "0.5"], "timings.csv"),
    (["grid", "--param", "theta_s", "--values", "0.5"], "summary.csv"),
    (["grid", "--param", "theta_s", "--values", "0.5"], "manifest.json"),
    (["compare-modes"], "comparison.csv"),
]


@pytest.mark.parametrize("verb, name", ARTIFACTS)
def test_interrupted_write_leaves_no_partial_file(tmp_path, config_path,
                                                  monkeypatch, verb, name):
    data = tmp_path / "data"
    assert main(["synth", "-c", str(config_path), "-o", str(data)]) == 0
    verb = [a.format(data=data) for a in verb]

    def call(out):
        # inject writes one file, the others a directory
        target = out / name if verb[0] == "inject" else out
        return main([verb[0], "-c", str(config_path), "-o", str(target),
                     *verb[1:]])

    fresh, kept = tmp_path / "fresh", tmp_path / "kept"
    fresh.mkdir()
    kept.mkdir()
    assert call(kept) == 0
    before = tree(kept)
    assert any(p.name == name for p in before)
    cut_writes(monkeypatch, name)
    for out in (fresh, kept):
        assert call(out) == 3
    assert not [p for p in tree(fresh) if p.name == name]
    after = tree(kept)
    assert {p: after[p] for p in after if p.name == name} == \
        {p: before[p] for p in before if p.name == name}
    leftovers = [p for root in (fresh, kept) for p in tree(root)
                 if p.name.endswith(".tmp")]
    assert leftovers == []
