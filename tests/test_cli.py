import errno
import json
import math
from pathlib import Path

import numpy as np
import pytest

from ssrlab import NoisyDataset, load_embeddings, load_pool, ssrd
from ssrlab.cli import CSV_COLUMNS, TIMING_COLUMNS, main
from ssrlab.config import parse_config_dict
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
                "proj_dim"):
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


def test_run_flag_overrides_config(tmp_path, config_path):
    out = tmp_path / "out"
    assert main(["run", "-c", str(config_path), "-o", str(out),
                 "--epochs", "3", "--seed", "7"]) == 0
    run_dir = run_dir_of(out)
    _, rows = read_csv(run_dir / "metrics.csv")
    assert len(rows) == 3
    record = json.loads((run_dir / "record.json").read_text())
    assert record["config"]["train"]["seed"] == 7
    assert run_dir.name.endswith("_s7")


def test_override_flags_state_their_range(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    for flag, expect in [("--theta-s THETA_S", "float in [0, 1]"),
                         ("--theta-r THETA_R", "float in (0, 1]"),
                         ("--epochs EPOCHS", "int in [1, inf)"),
                         ("--seed SEED", "int in [0, inf)")]:
        assert f"{flag} {expect}" in help_text


def test_run_flag_out_of_range(tmp_path, config_path, caplog):
    assert main(["run", "-c", str(config_path), "-o", str(tmp_path / "o"),
                 "--theta-s", "nan"]) == 2
    assert "theta_s=nan, expected float in [0, 1]" in caplog.text


def test_run_with_input_files(tmp_path, config_path):
    data = tmp_path / "data"
    main(["synth", "-c", str(config_path), "-o", str(data)])
    out = tmp_path / "out"
    assert main(["run", "-c", str(config_path), "-o", str(out),
                 "-i", str(data / "train.ssrd"),
                 "--test", str(data / "test.ssrd")]) == 0
    _, rows = read_csv(run_dir_of(out) / "metrics.csv")
    assert len(rows) == 2


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


@pytest.mark.parametrize("param, values", [("theta_s", "0.5,1.5"),
                                           ("k_neighbours", "5,0")])
def test_grid_checks_every_point_before_the_first_runs(tmp_path, config_path,
                                                       caplog, param, values):
    out = tmp_path / "g"
    assert main(["grid", "-c", str(config_path), "-o", str(out),
                 "--param", param, "--values", values]) == 2
    assert f"RANGE_ERROR: {param}=" in caplog.text
    # no point directory, no summary.csv, no manifest: not even the directory
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


# --- exit codes --------------------------------------------------------------

# (section, key, raw JSON value[, other keys of the section]): each probe
# changes one key of BASE_CONFIG, after the other keys it needs
CONFIG_PROBES = [
    (None, "hidden_dims", "[1.5]"), (None, "k_neighbours", "2.5"),
    (None, "epochs", "1.5"), (None, "batch_size", "7.5"),
    (None, "seed", "1.5"), (None, "seed", "-1"), ("noise", "seed", "-3"),
    (None, "theta_s", "true"), (None, "theta_s", '"0.5"'),
    (None, "mixup_alpha", "NaN"), (None, "learning_rate", "NaN"),
    (None, "learning_rate", "1e400"), (None, "weight_decay", "1e400"),
    (None, "sigma_strong", "NaN"), ("synth", "per_class", "30.5"),
    ("synth", "separation", "NaN"), ("synth", "dim", "0"),
    ("synth", "dim", "2"), (None, "noise", "null"), (None, "noise", "5"),
    (None, "synth", '"ab"'), (None, "hidden_dims", "[]"),
    ("noise", "pair_map", "[1.5, 0, 1]"), (None, "balance_voting", "0"),
    (None, "fc_distance", "null"), ("noise", "kind", '"asymmetric"'),
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
