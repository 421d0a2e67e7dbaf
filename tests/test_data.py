import numpy as np
import pytest

from oracles import initial_state
from ssrlab import OPEN_SET, LabelState, NoisyDataset, TrainConfig, validate
from ssrlab.errors import ConfigError, DataError


def make_ds(n=4, d=3, m=2, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, m, n)
    return NoisyDataset(rng.normal(size=(n, d)), labels, m, labels.copy())


def test_validate_ok():
    ds = NoisyDataset(np.ones((2, 3)), [0, 1], 2)
    validate(ds)


def test_validate_label_out_of_range():
    ds = NoisyDataset(np.ones((3, 2)), [0, 4, 1], 3)
    with pytest.raises(DataError) as exc:
        validate(ds)
    assert exc.value.code == "LABEL_OUT_OF_RANGE"
    assert "index 1" in str(exc.value)


def test_validate_empty():
    ds = NoisyDataset(np.ones((0, 3)), [], 2)
    with pytest.raises(DataError) as exc:
        validate(ds)
    assert exc.value.code == "EMPTY_DATASET"


def test_validate_shape_mismatch():
    ds = NoisyDataset(np.ones((2, 3)), [0, 1, 0], 2)
    with pytest.raises(DataError) as exc:
        validate(ds)
    assert exc.value.code == "SHAPE_MISMATCH"


def test_open_set_true_label_allowed():
    ds = NoisyDataset(np.ones((2, 2)), [0, 1], 2, [OPEN_SET, 1])
    validate(ds)
    assert ds.is_noisy.tolist() == [True, False]


def test_initial_state_no_relabels():
    ds = make_ds(n=50, m=4)
    state = initial_state(ds.observed_labels, ds.num_classes)
    assert not state.relabel_mask.any()
    assert state.class_counts.sum() == ds.n_samples


def test_class_counts_match_recount():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(2, 6))
        working = rng.integers(0, m, int(rng.integers(1, 40)))
        observed = rng.integers(0, m, working.size)
        state = LabelState.from_working(working, observed, m)
        recount = np.bincount(working, minlength=m)
        assert np.array_equal(state.class_counts, recount)
        assert np.array_equal(state.relabel_mask, working != observed)


@pytest.mark.parametrize("kwargs", [
    {"theta_s": 1.2}, {"theta_r": 0.0}, {"theta_r": 1.5}, {"k_neighbours": 0},
    {"lambda_fc": -1}, {"mixup_alpha": -0.5}, {"epochs": 0},
    {"fc_distance": "manhattan"}, {"momentum": 1.0},
])
def test_config_range_errors(kwargs):
    with pytest.raises(ConfigError) as exc:
        TrainConfig(**kwargs)
    assert exc.value.code == "RANGE_ERROR"


def test_config_defaults():
    cfg = TrainConfig()
    assert cfg.theta_s == 1.0
    assert cfg.theta_r == 0.9
    assert cfg.k_neighbours == 100
    assert cfg.lambda_fc == 1.0
    assert cfg.seed == 0
