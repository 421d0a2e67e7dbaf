import numpy as np
import pytest

from oracles import initial_state
from ssrlab import OPEN_SET, LabelState, NoisyDataset, TrainConfig
from ssrlab.errors import ConfigError, DataError


def make_ds(n=4, d=3, m=2, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, m, n)
    return NoisyDataset(rng.normal(size=(n, d)), labels, m, labels.copy())


def test_validate_ok():
    # a dataset checks itself when built
    ds = NoisyDataset(np.ones((2, 3)), [0, 1], 2)
    assert ds.true_labels is None and ds.is_noisy is None


def test_validate_label_out_of_range():
    with pytest.raises(DataError) as exc:
        NoisyDataset(np.ones((3, 2)), [0, 4, 1], 3)
    assert exc.value.code == "LABEL_OUT_OF_RANGE"
    assert str(exc.value) == ("LABEL_OUT_OF_RANGE: observed label 4 at index 1 "
                              "not in [0, 3)")


def test_validate_empty():
    with pytest.raises(DataError) as exc:
        NoisyDataset(np.ones((0, 3)), [], 2)
    assert exc.value.code == "EMPTY_DATASET"
    assert str(exc.value) == "EMPTY_DATASET: dataset has no samples"


def test_validate_shape_mismatch():
    with pytest.raises(DataError) as exc:
        NoisyDataset(np.ones((2, 3)), [0, 1, 0], 2)
    assert exc.value.code == "SHAPE_MISMATCH"
    assert str(exc.value) == ("SHAPE_MISMATCH: observed_labels shape (3,) "
                              "!= (2,)")


def test_open_set_true_label_allowed():
    ds = NoisyDataset(np.ones((2, 2)), [0, 1], 2, [OPEN_SET, 1])
    assert ds.is_noisy.tolist() == [True, False]


@pytest.mark.parametrize("args, code, message", [
    ((np.ones(3), [0, 1, 0], 2), "SHAPE_MISMATCH",
     "features must be 2-D, got ndim=1"),
    ((np.ones((2, 0)), [0, 1], 2), "SHAPE_MISMATCH", "feature dimension is 0"),
    ((np.ones((2, 2)), [0, 0], 1), "SHAPE_MISMATCH",
     "num_classes must be >= 2, got 1"),
    ((np.ones((2, 2)), [0, -1], 2), "LABEL_OUT_OF_RANGE",
     "observed label -1 at index 1 not in [0, 2)"),
    ((np.ones((2, 2)), [0, 1], 2, [0]), "SHAPE_MISMATCH",
     "true_labels shape (1,) != (2,)"),
    ((np.ones((3, 2)), [0, 1, 0], 2, [0, OPEN_SET, 2]), "LABEL_OUT_OF_RANGE",
     "true label 2 at index 2 not in [0, 2)"),
    # the checks run in order: the empty features are reported, not the
    # labels that do not match them
    ((np.ones((0, 2)), [5], 2), "EMPTY_DATASET", "dataset has no samples"),
], ids=["ndim", "no_columns", "one_class", "negative_label", "true_shape",
        "true_range", "order"])
def test_constructor_checks_in_order(args, code, message):
    with pytest.raises(DataError) as exc:
        NoisyDataset(*args)
    assert str(exc.value) == f"{code}: {message}"


def test_is_noisy_is_derived_and_read_only():
    ds = NoisyDataset(np.ones((4, 2)), [0, 1, 1, 0], 2, [0, 0, 1, OPEN_SET])
    assert ds.is_noisy.tolist() == [False, True, False, True]
    with pytest.raises(AttributeError):
        ds.is_noisy = np.zeros(4, dtype=bool)
    with pytest.raises(TypeError):
        NoisyDataset(np.ones((2, 2)), [0, 1], 2, [0, 1],
                     is_noisy=np.zeros(2, dtype=bool))


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
