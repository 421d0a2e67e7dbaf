import numpy as np
import pytest

from oracles import initial_state
from ssrlab import OPEN_SET, NoisyDataset, relabel
from ssrlab.relabel import relabel_metrics
from ssrlab.data import LabelState
from ssrlab.errors import ConfigError, DataError, NumericError


def test_confident_row_is_relabelled():
    state = relabel([[0.95, 0.05]], [1], 0.9)
    assert state.working_labels.tolist() == [0]
    assert state.relabel_mask.tolist() == [True]


def test_unconfident_row_keeps_observed():
    state = relabel([[0.6, 0.4]], [1], 0.9)
    assert state.working_labels.tolist() == [1]
    assert not state.relabel_mask.any()


def test_theta_one_disables_relabelling():
    rng = np.random.default_rng(0)
    probs = rng.dirichlet(np.ones(4), size=50)
    observed = rng.integers(0, 4, 50)
    state = relabel(probs, observed, 1.0)
    assert np.array_equal(state.working_labels, observed)


def test_confidence_exactly_at_threshold_not_relabelled():
    state = relabel([[0.9, 0.1]], [1], 0.9)
    assert state.working_labels.tolist() == [1]


def test_argmax_tie_lowest_class():
    state = relabel([[0.5, 0.5]], [1], 0.4)
    assert state.working_labels.tolist() == [0]


def test_invalid_probability_row():
    with pytest.raises(DataError) as exc:
        relabel([[0.7, 0.7]], [0], 0.9)
    assert exc.value.code == "INVALID_PROBABILITY_ROW"


@pytest.mark.parametrize("row", [[np.nan, np.nan], [np.inf, 0.0],
                                 [0.5, -np.inf]])
def test_non_finite_row_raises_non_finite_input(row):
    # NaN fails both range comparisons, so only the finiteness test stops it
    with pytest.raises(NumericError) as exc:
        relabel(np.array([[0.5, 0.5], row]), [0, 0], 0.9)
    assert exc.value.code == "NON_FINITE_INPUT"
    assert "row 1" in str(exc.value)


def test_bad_threshold():
    with pytest.raises(ConfigError):
        relabel([[1.0, 0.0]], [0], 0.0)


def test_relabel_is_pure():
    rng = np.random.default_rng(1)
    probs = rng.dirichlet(np.ones(3), size=40)
    observed = rng.integers(0, 3, 40)
    a = relabel(probs, observed, 0.8)
    b = relabel(probs, observed, 0.8)
    assert np.array_equal(a.working_labels, b.working_labels)
    assert np.array_equal(a.relabel_mask, b.relabel_mask)
    assert np.array_equal(a.class_counts, b.class_counts)


def test_relabel_monotone_conservative():
    rng = np.random.default_rng(2)
    probs = rng.dirichlet(np.full(3, 0.3), size=200)
    observed = rng.integers(0, 3, 200)
    prev = None
    for theta in [0.4, 0.6, 0.8, 0.95, 1.0]:
        mask = relabel(probs, observed, theta).relabel_mask
        if prev is not None:
            assert not (mask & ~prev).any()
        prev = mask


def test_class_counts_sum_to_n():
    rng = np.random.default_rng(3)
    probs = rng.dirichlet(np.ones(5), size=77)
    state = relabel(probs, rng.integers(0, 5, 77), 0.5)
    assert state.class_counts.sum() == 77


def test_metrics_empty_mask():
    ds = NoisyDataset(np.ones((3, 2)), [0, 1, 0], 2, [0, 1, 0])
    state = initial_state(ds.observed_labels, 2)
    out = relabel_metrics(state, ds)
    assert out == {"relabelled_fraction": 0.0, "relabel_accuracy": 0.0,
                   "relabelled_count": 0}


def test_metrics_fraction_and_accuracy():
    n = 20
    observed = np.zeros(n, dtype=np.int64)
    true = np.ones(n, dtype=np.int64)
    working = observed.copy()
    working[:10] = 1   # 10 relabels matching the true label
    working[10] = 2    # one relabel to a wrong class
    ds = NoisyDataset(np.ones((n, 2)), observed, 3, true)
    state = LabelState.from_working(working, observed, 3)
    out = relabel_metrics(state, ds)
    assert out["relabelled_fraction"] == 11 / 20
    assert out["relabelled_count"] == 11
    assert abs(out["relabel_accuracy"] - 10 / 11) < 1e-12


def test_open_set_relabel_counts_incorrect():
    ds = NoisyDataset(np.ones((2, 2)), [0, 0], 2, [OPEN_SET, 0])
    state = LabelState.from_working([1, 0], [0, 0], 2)
    out = relabel_metrics(state, ds)
    assert out["relabelled_fraction"] == 0.5
    assert out["relabel_accuracy"] == 0.0


def test_metrics_missing_ground_truth():
    # the counts need no true labels; the accuracy is missing without them
    ds = NoisyDataset(np.ones((2, 2)), [0, 1], 2)
    state = LabelState.from_working([1, 1], [0, 1], 2)
    out = relabel_metrics(state, ds)
    assert out == {"relabelled_fraction": 0.5, "relabel_accuracy": None,
                   "relabelled_count": 1}
