import csv
import dataclasses
import json
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ssrlab import (NoiseSpec, NoisyDataset, SynthSpec, TrainConfig,
                    apply_noise, build_neighbour_index, compare_selection_modes,
                    make_gaussian_dataset, pipeline, run_experiment)
from oracles import initial_state, macro_f1
from ssrlab.cli import emit_metrics
from ssrlab.errors import ConfigError, DataError, NumericError, SsrError
from ssrlab.model import forward, init_model
from ssrlab.pipeline import selection_metrics
from ssrlab.selector import baseline_small_loss_predefined, compute_selection
from test_config import HUGE_INTS, json_values


def small_config(**kwargs):
    defaults = dict(k_neighbours=10, epochs=3, batch_size=32, seed=0)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def small_noisy():
    synth = make_gaussian_dataset(SynthSpec(num_classes=3, per_class=60,
                                            dim=8, separation=4.0, seed=0,
                                            ood_classes=0))
    noisy = apply_noise(synth.train, NoiseSpec("symmetric", 0.4, seed=0))
    return noisy, synth.test


# --- metric helpers ----------------------------------------------------------

def test_selection_metrics_perfect():
    labels = np.array([0, 1, 0, 1])
    true = np.array([0, 1, 1, 1])
    ds = NoisyDataset(np.ones((4, 2)), labels, 2, true)
    state = initial_state(labels, 2)
    out = selection_metrics(np.array([True, True, False, True]), state, ds)
    assert out == {"sel_precision": 1.0, "sel_recall": 1.0, "sel_fscore": 1.0,
                   "selected_count": 3}


def test_selection_metrics_select_everything():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 3, 50)
    true = labels.copy()
    true[:20] = (true[:20] + 1) % 3
    ds = NoisyDataset(np.ones((50, 2)), labels, 3, true)
    state = initial_state(labels, 3)
    out = selection_metrics(np.ones(50, dtype=bool), state, ds)
    assert out["sel_precision"] == 30 / 50
    assert out["sel_recall"] == 1.0
    assert out["selected_count"] == 50


def test_selection_metrics_empty_selection():
    labels = np.array([0, 1])
    ds = NoisyDataset(np.ones((2, 2)), labels, 2, labels.copy())
    state = initial_state(labels, 2)
    out = selection_metrics(np.zeros(2, dtype=bool), state, ds)
    assert out == {"sel_precision": 0.0, "sel_recall": 0.0, "sel_fscore": 0.0,
                   "selected_count": 0}


def test_selection_metrics_need_ground_truth():
    # the scores are missing without true labels; the count is not
    labels = np.array([0, 1])
    ds = NoisyDataset(np.ones((2, 2)), labels, 2)
    out = selection_metrics(np.array([True, False]),
                            initial_state(labels, 2), ds)
    assert out == {"sel_precision": None, "sel_recall": None,
                   "sel_fscore": None, "selected_count": 1}


def test_macro_f1_perfect_and_degenerate():
    y = np.array([0, 1, 2, 0])
    assert macro_f1(y, y, 3) == 1.0
    assert macro_f1(np.zeros(4, dtype=int), y, 3) < 0.5


# --- run_experiment ----------------------------------------------------------

def test_same_seed_identical_record(small_noisy):
    noisy, test = small_noisy
    cfg = small_config()
    a = run_experiment(noisy, cfg, test=test).record
    b = run_experiment(noisy, cfg, test=test).record
    assert [dataclasses.asdict(e) for e in a.epochs] == \
           [dataclasses.asdict(e) for e in b.epochs]
    assert a.best_test_acc == b.best_test_acc


def test_zero_noise_high_recall():
    synth = make_gaussian_dataset(SynthSpec(num_classes=3, per_class=60,
                                            dim=8, separation=4.0, seed=0,
                                            ood_classes=0))
    out = run_experiment(synth.train, small_config(epochs=4), test=synth.test)
    for epoch in out.record.epochs[2:]:
        assert epoch.sel_recall >= 0.95


def test_best_last_and_ranges(small_noisy):
    noisy, test = small_noisy
    start = time.perf_counter()
    out = run_experiment(noisy, small_config(), test=test)
    wall = time.perf_counter() - start
    record = out.record
    accs = [e.test_acc for e in record.epochs]
    assert record.best_test_acc == max(accs)
    assert record.last_test_acc == accs[-1]
    for e in record.epochs:
        for v in (e.relabelled_fraction, e.relabel_accuracy, e.sel_precision,
                  e.sel_recall, e.sel_fscore, e.test_acc):
            assert 0.0 <= v <= 1.0
        assert type(e.relabelled_count) is int
        assert e.relabelled_count == round(e.relabelled_fraction * noisy.n_samples)
        if e.relabelled_count == 0:
            assert e.relabel_accuracy == 0.0
    assert [t.epoch for t in record.timings] == [e.epoch for e in record.epochs]
    # each phase is a duration, and together they fit in the run's wall time
    phases = [(t.relabel_s, t.select_s, t.train_s, t.eval_s)
              for t in record.timings]
    assert all(v >= 0.0 for p in phases for v in p)
    assert sum(map(sum, phases)) <= wall


def test_relabel_counts_need_no_ground_truth():
    # criterion 10's data with theta_r=0.6, where later epochs relabel
    synth = make_gaussian_dataset(SynthSpec(num_classes=3, per_class=80,
                                            dim=8, seed=0))
    noisy = apply_noise(synth.train, NoiseSpec("symmetric", 0.4, seed=0))
    blind = NoisyDataset(noisy.features, noisy.observed_labels,
                         noisy.num_classes)
    cfg = TrainConfig(epochs=5, k_neighbours=20, theta_r=0.6)
    seen = run_experiment(noisy, cfg).record.epochs
    unseen = run_experiment(blind, cfg).record.epochs
    assert max(e.relabelled_count for e in seen) > 0
    for a, b in zip(seen, unseen):
        assert b.relabelled_count == a.relabelled_count
        assert b.relabelled_fraction == a.relabelled_fraction
        assert b.selected_count == a.selected_count
        assert b.relabel_accuracy is None


def criterion_10_data():
    synth = make_gaussian_dataset(SynthSpec(num_classes=3, per_class=80,
                                            dim=8, seed=0))
    return apply_noise(synth.train, NoiseSpec("symmetric", 0.4, seed=0)), \
        synth.test


SCORED = ("relabel_accuracy", "sel_precision", "sel_recall", "sel_fscore")


def test_scores_without_ground_truth_are_missing(tmp_path):
    noisy, test = criterion_10_data()
    blind = NoisyDataset(noisy.features, noisy.observed_labels,
                         noisy.num_classes)
    cfg = TrainConfig(epochs=5, k_neighbours=20, theta_r=0.6)
    seen = run_experiment(noisy, cfg, test=test).record
    unseen = run_experiment(blind, cfg, test=test).record
    emit_metrics(unseen, tmp_path)
    rows = list(csv.DictReader((tmp_path / "metrics.csv").open()))
    epochs = json.loads((tmp_path / "record.json").read_text())["epochs"]
    for a, b, row, rec in zip(seen.epochs, unseen.epochs, rows, epochs):
        for name in SCORED:
            assert getattr(a, name) is not None
            assert getattr(b, name) is None
            assert row[name] == ""
            assert rec[name] is None
        assert b.selected_count == a.selected_count
        assert b.test_acc == a.test_acc
    assert len(rows) == 5


def test_diverged_run_raises():
    # lr 1e12 on criterion 10's data: the loss stays finite, but the
    # parameters pass the bound in the first pass
    noisy, test = criterion_10_data()
    cfg = TrainConfig(epochs=5, k_neighbours=20, learning_rate=1e12)
    with np.errstate(all="ignore"), pytest.raises(NumericError) as exc:
        run_experiment(noisy, cfg, test=test)
    assert exc.value.code == "DIVERGED"
    assert "epoch 0 step" in str(exc.value)


@pytest.mark.parametrize("lr", [1e4, 1e8])
def test_slow_divergence_raises(lr):
    # finite losses and parameters that would finish at chance accuracy
    noisy, test = criterion_10_data()
    cfg = TrainConfig(epochs=5, k_neighbours=20, learning_rate=lr)
    with np.errstate(all="ignore"), pytest.raises(NumericError) as exc:
        run_experiment(noisy, cfg, test=test)
    assert exc.value.code == "DIVERGED"
    assert "epoch 0 step" in str(exc.value)
    assert "max |parameter|" in str(exc.value)


@pytest.mark.parametrize("lr, epoch, cls", [(2, 2, 2), (3, 1, 2), (10, 1, 2),
                                           (30, 1, 0)])
def test_label_collapse_raises_diverged(lr, epoch, cls):
    # the first passes leave every softmax row confident in one class, and
    # relabelling then moves every sample there: a run at chance accuracy
    noisy, test = criterion_10_data()
    cfg = TrainConfig(epochs=5, k_neighbours=20, learning_rate=lr)
    with np.errstate(all="ignore"), pytest.raises(NumericError) as exc:
        run_experiment(noisy, cfg, test=test)
    assert exc.value.code == "DIVERGED"
    assert str(exc.value).endswith(
        f"epoch {epoch}: relabelling put all 240 samples in class {cls}")


def test_healthy_run_keeps_its_classes():
    noisy, test = criterion_10_data()
    cfg = TrainConfig(epochs=5, k_neighbours=20, learning_rate=0.02)
    assert len(run_experiment(noisy, cfg, test=test).record.epochs) == 5


def test_single_class_observed_labels_are_no_collapse():
    # nothing to collapse from: every observed label is class 1
    feats = np.random.default_rng(0).normal(size=(40, 4))
    ds = NoisyDataset(feats, np.ones(40, dtype=np.int64), 2)
    out = run_experiment(ds, small_config(epochs=2, learning_rate=10.0))
    assert len(out.record.epochs) == 2


def m_class_data(m):
    labels = np.arange(40) % m
    return NoisyDataset(np.random.default_rng(0).normal(size=(40, 4)), labels, m)


@pytest.mark.parametrize("m", [3, 4])
def test_theta_r_below_one_over_m_is_rejected_before_init(monkeypatch, m):
    def no_init(*args, **kwargs):
        raise AssertionError("model initialised before theta_r was checked")
    monkeypatch.setattr("ssrlab.pipeline.init_model", no_init)
    cfg = small_config(theta_r=float(np.nextafter(1.0 / m, 0.0)), epochs=1)
    with pytest.raises(ConfigError) as exc:
        run_experiment(m_class_data(m), cfg)
    assert exc.value.code == "RANGE_ERROR"
    assert f"1/M = 1/{m}" in str(exc.value)


@pytest.mark.parametrize("m", [3, 4])
def test_theta_r_of_one_over_m_is_valid(m):
    # the untrained model's confidence 1/M is not above it, so epoch 0
    # keeps every observed label
    out = run_experiment(m_class_data(m), small_config(theta_r=1.0 / m, epochs=1))
    assert out.record.epochs[0].relabelled_count == 0


def spoil_forward_after_first(monkeypatch, key, spoil):
    """Every forward after the first returns spoil(out[key]) as out[key]."""
    real = pipeline.forward
    calls = []

    def spoiled(model, x):
        out = real(model, x)
        calls.append(x)
        if len(calls) > 1:
            out[key] = spoil(out[key])
        return out

    monkeypatch.setattr(pipeline, "forward", spoiled)


def test_overflowing_embeddings_after_training_raise_diverged(small_noisy,
                                                              monkeypatch):
    # embeddings that overflow once a pass has run: the selector's
    # NON_FINITE_INPUT is re-raised as DIVERGED, naming the epoch
    noisy, _ = small_noisy
    spoil_forward_after_first(monkeypatch, "embeddings", lambda e: e * 1e300)
    with np.errstate(over="ignore"), pytest.raises(NumericError) as exc:
        run_experiment(noisy, small_config())
    assert exc.value.code == "DIVERGED"
    assert "epoch 1: the trained model's outputs overflow" in str(exc.value)


def test_non_finite_probabilities_after_training_raise_diverged(small_noisy,
                                                                monkeypatch):
    # a softmax that is NaN once a pass has run: relabelling's
    # NON_FINITE_INPUT is re-raised as DIVERGED, as the selector's is
    noisy, _ = small_noisy
    spoil_forward_after_first(monkeypatch, "probs",
                              lambda p: np.full_like(p, np.nan))
    with pytest.raises(NumericError) as exc:
        run_experiment(noisy, small_config())
    assert exc.value.code == "DIVERGED"
    assert "epoch 1: the trained model's outputs overflow" in str(exc.value)
    assert "NON_FINITE_INPUT" in str(exc.value)


def test_non_finite_loss_raises_diverged(small_noisy, monkeypatch):
    noisy, _ = small_noisy
    real = pipeline.total_loss_grads
    calls = []

    def nan_at_third_step(*args, **kwargs):
        loss, grads, parts = real(*args, **kwargs)
        calls.append(loss)
        return (np.nan if len(calls) == 3 else loss), grads, parts

    monkeypatch.setattr(pipeline, "total_loss_grads", nan_at_third_step)
    with pytest.raises(NumericError) as exc:
        run_experiment(noisy, small_config())
    assert exc.value.code == "DIVERGED"
    assert "epoch 0 step 2: loss is nan" in str(exc.value)


def test_non_finite_parameter_raises_diverged(small_noisy, monkeypatch):
    # without the consistency loss no loss reads the predictor, so only the
    # parameter check can see it turn non-finite
    noisy, _ = small_noisy
    real = pipeline.sgd_step

    def inf_predictor(model, *args):
        real(model, *args)
        model.predictor[1][0] = np.inf

    monkeypatch.setattr(pipeline, "sgd_step", inf_predictor)
    with np.errstate(invalid="ignore"), pytest.raises(NumericError) as exc:
        run_experiment(noisy, small_config(lambda_fc=0.0))
    assert exc.value.code == "DIVERGED"
    assert "epoch 0 step" in str(exc.value)
    assert "parameter is non-finite" in str(exc.value)


def test_unknown_selection_mode(small_noisy, monkeypatch):
    def no_init(*args, **kwargs):
        raise AssertionError("model initialised before the mode was checked")
    monkeypatch.setattr("ssrlab.pipeline.init_model", no_init)
    noisy, _ = small_noisy
    # a name outside SELECTORS, and a value that is no name at all
    for bad in ("magic", ["npk_automatic"]):
        with pytest.raises(ConfigError) as exc:
            run_experiment(noisy, small_config(), selection_mode=bad)
        assert exc.value.code == "RANGE_ERROR"
        assert f"selection_mode={bad!r}, expected one of" in str(exc.value)
        for mode in pipeline.SELECTORS:
            assert repr(mode) in str(exc.value)


@pytest.mark.parametrize("tau, mode", [
    *((t, m) for t in (None, 1.0, -0.1)
      for m in ("npk_predefined", "pmc_predefined")),
    # the GMM mode runs without tau, but a given tau is its fallback ratio
    (1.0, "pmc_gmm_automatic"), (-0.1, "pmc_gmm_automatic"),
    (1.0, "npk_automatic"),
    # a string or a bool is no noise rate: False would keep every sample
    *((t, m) for t in ("0.5", False, True, [0.5])
      for m in ("pmc_predefined", "npk_automatic"))])
def test_predefined_modes_need_tau_in_range(small_noisy, monkeypatch, mode, tau):
    def no_init(*args, **kwargs):
        raise AssertionError("model initialised before tau was checked")
    monkeypatch.setattr("ssrlab.pipeline.init_model", no_init)
    noisy, _ = small_noisy
    with pytest.raises(ConfigError) as exc:
        run_experiment(noisy, small_config(), selection_mode=mode, tau=tau)
    assert exc.value.code == "RANGE_ERROR"
    # a tau out of range or of another kind is named, whatever mode reads it
    expected = (f"selection mode {mode!r} needs tau" if tau is None
                else f"tau={tau!r}, expected float in [0, 1)")
    assert exc.value.message == expected


LIBRARY_VALUES = json_values(HUGE_INTS)


@settings(max_examples=100, deadline=None)
@given(mode=LIBRARY_VALUES | st.sampled_from(list(pipeline.SELECTORS)),
       tau=LIBRARY_VALUES | st.floats(0, 1),
       k=LIBRARY_VALUES | st.integers(0, 12), balance=LIBRARY_VALUES)
def test_any_json_argument_is_an_ssr_error_or_runs(small_noisy, mode, tau, k,
                                                   balance):
    # the library arguments that are no config key: selection_mode and tau
    # of a run, k of the index, balance of the vote, tau of the fixed ratio
    noisy, test = small_noisy
    labels = noisy.observed_labels
    state = initial_state(labels, noisy.num_classes)
    counts = build_neighbour_index(noisy.features, 5, state)
    for call in (lambda: run_experiment(noisy, small_config(epochs=1), test=test,
                                        selection_mode=mode, tau=tau),
                 lambda: build_neighbour_index(noisy.features, k, state),
                 lambda: compute_selection(counts, state, 1.0, balance=balance),
                 lambda: baseline_small_loss_predefined(labels, tau)):
        try:
            call()
        except SsrError:
            pass


def test_gmm_selector_reraises_other_numeric_errors():
    # only DEGENERATE_FIT falls back to the predefined selector; a NaN
    # softmax row gives a non-finite loss, which is raised as it is
    labels = np.array([0, 1, 0, 1])
    probs = np.array([[0.9, 0.1], [0.2, 0.8], [np.nan, np.nan], [0.5, 0.5]])
    with pytest.raises(NumericError) as exc:
        pipeline._gmm(None, initial_state(labels, 2), {"probs": probs}, None,
                      0.3)
    assert exc.value.code == "NON_FINITE_INPUT"


def test_gmm_fallback_warning_gives_the_reason(caplog):
    # a zero head gives every sample the same loss, as at epoch 0 of a
    # pmc_gmm_automatic run; the warning names why the fit degenerated
    labels = np.array([0, 1, 0, 1, 1])
    probs = np.full((5, 2), 0.5)
    mask = pipeline._gmm(None, initial_state(labels, 2), {"probs": probs},
                         None, 0.4)
    assert mask.tolist() == [True, True, True, False, False]
    assert ("GMM fit degenerate (loss variance collapsed); falling back to "
            "predefined tau=0.4") in caplog.text


@pytest.mark.parametrize("tau, kept", [(0.25, 135), (None, 90)])
def test_loss_modes_keep_the_first_rows_at_epoch_0(small_noisy, caplog, tau,
                                                  kept):
    # at epoch 0 the zero head gives every sample the loss log M, so the
    # stable sort keeps the first ceil((1 - tau) N) rows by index; synthetic
    # rows are sorted by class, so whole classes are kept. The GMM fit is
    # degenerate and falls back to the same rows at the tau it is given (0.5
    # without one): compare_selection_modes gives it the measured noise rate.
    # ROADMAP item 15's fix is meant to change what this test pins.
    noisy, _ = small_noisy
    assert (np.diff(noisy.true_labels) >= 0).all()
    model = init_model(noisy.dim, noisy.num_classes, (64, 32),
                       np.random.default_rng(0)).astype(pipeline.TRAIN_DTYPE)
    fwd = forward(model, noisy.features)
    state = initial_state(noisy.observed_labels, noisy.num_classes)
    first = (np.arange(noisy.n_samples) < kept).tolist()
    fallback = 0.5 if tau is None else tau
    gmm = pipeline.SELECTORS["pmc_gmm_automatic"](noisy, state, fwd,
                                                  small_config(), tau)
    assert gmm.tolist() == first
    assert ("GMM fit degenerate (loss variance collapsed); falling back to "
            f"predefined tau={fallback}") in caplog.text
    predefined = pipeline.SELECTORS["pmc_predefined"](noisy, state, fwd,
                                                      small_config(), fallback)
    assert predefined.tolist() == first


def test_gmm_mode_runs_without_tau(small_noisy):
    noisy, _ = small_noisy
    record = run_experiment(noisy, small_config(epochs=1),
                            selection_mode="pmc_gmm_automatic").record
    assert len(record.epochs) == 1


@pytest.mark.parametrize("mode", ["npk_automatic", "npk_predefined"])
def test_index_modes_check_k_before_init(small_noisy, monkeypatch, mode):
    def no_init(*args, **kwargs):
        raise AssertionError("model initialised before k was checked")
    monkeypatch.setattr("ssrlab.pipeline.init_model", no_init)
    noisy, _ = small_noisy
    cfg = small_config(k_neighbours=noisy.n_samples)
    with pytest.raises(DataError) as exc:
        run_experiment(noisy, cfg, selection_mode=mode, tau=0.5)
    assert exc.value.code == "K_TOO_LARGE"


def test_clean_subset_needs_is_noisy_before_init(small_noisy, monkeypatch):
    def no_init(*args, **kwargs):
        raise AssertionError("model initialised before is_noisy was checked")
    monkeypatch.setattr("ssrlab.pipeline.init_model", no_init)
    noisy, _ = small_noisy
    bare = NoisyDataset(noisy.features, noisy.observed_labels,
                        noisy.num_classes)
    with pytest.raises(DataError) as exc:
        run_experiment(bare, small_config(), selection_mode="clean_subset")
    assert exc.value.code == "MISSING_GROUND_TRUTH"


def test_empty_selection_skips_training():
    # two tight clusters whose labels disagree with every neighbour vote: no
    # sample is self-consistent, and the fresh model is not confident either
    feats = np.array([[1.0, 0.0], [1.0, 0.01],
                      [0.0, 1.0], [0.0, 1.01]])
    labels = np.array([0, 1, 0, 1])
    ds = NoisyDataset(feats, labels, 2, labels.copy())
    cfg = small_config(k_neighbours=1, epochs=1, lambda_fc=0.0)
    out = run_experiment(ds, cfg)
    assert out.record.epochs[0].selected_count == 0


def spy_on_steps(monkeypatch):
    """Patch pipeline.total_loss_grads to record each call's keyword
    arguments; returns the list they are appended to."""
    real = pipeline.total_loss_grads
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "total_loss_grads", spy)
    return calls


def test_no_earlier_gradient_buffer_alive_at_a_step(small_noisy, monkeypatch):
    # each step's parameter-sized buffer is freed once sgd_step has used it
    noisy, _ = small_noisy
    real = pipeline.total_loss_grads
    refs, alive = [], []

    def spy(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        out = real(*args, **kwargs)
        refs.append(weakref.ref(out[1].flat))
        return out

    monkeypatch.setattr(pipeline, "total_loss_grads", spy)
    run_experiment(noisy, small_config(epochs=2))
    assert len(alive) > 2 and not any(alive)


def test_forced_empty_selection_at_epoch_0_trains_nothing(small_noisy,
                                                          monkeypatch):
    # the zero head gives uniform softmax rows, so no sample is above
    # theta_r and the fallback has nothing to train on
    noisy, _ = small_noisy
    monkeypatch.setitem(pipeline.SELECTORS, "npk_automatic",
                        lambda ds, *rest: np.zeros(ds.n_samples, dtype=bool))
    steps = spy_on_steps(monkeypatch)
    cfg = small_config(epochs=2)
    out = run_experiment(noisy, cfg)
    fresh = init_model(noisy.dim, noisy.num_classes, cfg.hidden_dims,
                       np.random.default_rng(cfg.seed))
    assert steps == []
    # run_experiment trains a float32 copy of the initialised model
    assert out.model.flat.tobytes() == fresh.flat.astype(np.float32).tobytes()
    assert [e.selected_count for e in out.record.epochs] == [0, 0]


def test_fc_first_view_is_strong_and_second_weak(small_noisy, monkeypatch):
    # with sigma_weak = 0 the second view is the raw rows rounded to float32,
    # and the strong jitter moves every row of the first view off them
    noisy, _ = small_noisy
    steps = spy_on_steps(monkeypatch)
    run_experiment(noisy, small_config(epochs=1, sigma_strong=0.1,
                                       sigma_weak=0.0))
    rows = {r.tobytes() for r in noisy.features.astype(np.float32)}
    assert steps
    for kw in steps:
        assert all(r.tobytes() in rows for r in kw["fc_view2"])
        assert not any(r.tobytes() in rows for r in kw["fc_view1"])


class OnesNormal:
    """A generator whose standard_normal returns ones; every other draw is
    the wrapped generator's."""

    def __init__(self, rng):
        self._rng = rng

    def standard_normal(self, size):
        return np.ones(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_jitter_is_sigma_times_the_per_dimension_std(monkeypatch):
    # with unit normal draws each jittered row is a raw row plus sigma times
    # the per-dimension std, which is not 1 in any dimension here, added in
    # float64 and rounded once to the float32 model's dtype
    labels = np.repeat(np.arange(3), 20)
    feats = (np.random.default_rng(4).normal(size=(60, 4))
             * np.array([0.5, 2.0, 3.0, 7.0]))
    ds = NoisyDataset(feats, labels, 3, labels.copy())
    cfg = small_config(epochs=1, mixup_alpha=0.0, sigma_strong=0.1,
                       sigma_weak=0.02)
    real, steps = pipeline.total_loss_grads, []

    def spy(model, batch, *args, **kwargs):
        steps.append((batch.inputs, kwargs["fc_view1"], kwargs["fc_view2"]))
        return real(model, batch, *args, **kwargs)

    monkeypatch.setattr(pipeline, "total_loss_grads", spy)
    rng = np.random.default_rng(cfg.seed)
    model = init_model(ds.dim, ds.num_classes, cfg.hidden_dims,
                       rng).astype(np.float32)
    feat_std = feats.std(axis=0)
    pipeline._epoch(0, model, np.zeros_like(model.flat), OnesNormal(rng), ds,
                    None, cfg, pipeline.SELECTORS["whole_dataset"], None,
                    *pipeline.check_experiment(ds, cfg, "whole_dataset"))
    strong = {(x + cfg.sigma_strong * feat_std).astype(np.float32).tobytes()
              for x in feats}
    weak = {(x + cfg.sigma_weak * feat_std).astype(np.float32).tobytes()
            for x in feats}
    assert steps
    for inputs, view1, view2 in steps:
        assert all(r.tobytes() in strong for r in [*inputs, *view1])
        assert all(r.tobytes() in weak for r in view2)


def test_check_experiment_returns_sigma_times_the_per_dimension_std():
    # the scales the run trains with are the ones the float32 bound checked;
    # a constant dimension has std 0, which counts as 1
    labels = np.repeat(np.arange(3), 10)
    feats = (np.random.default_rng(5).normal(size=(30, 3))
             * np.array([2.0, 0.0, 0.5]))
    ds = NoisyDataset(feats, labels, 3, labels.copy())
    cfg = small_config(sigma_strong=0.1, sigma_weak=0.02)
    strong, weak = pipeline.check_experiment(ds, cfg)
    std = feats.std(axis=0)
    std[1] = 1.0
    assert np.array_equal(strong, 0.1 * std)
    assert np.array_equal(weak, 0.02 * std)


def test_fc_views_visit_every_sample_once_before_the_reshuffle(monkeypatch):
    # whole_dataset over equal classes trains N = 96 rows in three full
    # batches of 32, so one pass uses exactly one shuffle of the FC order;
    # with both sigmas 0 the views are the raw rows rounded to float32
    labels = np.repeat(np.arange(3), 32)
    ds = NoisyDataset(np.random.default_rng(3).normal(size=(96, 8)), labels,
                      3, labels.copy())
    steps = spy_on_steps(monkeypatch)
    run_experiment(ds, small_config(epochs=1, sigma_strong=0.0,
                                    sigma_weak=0.0),
                   selection_mode="whole_dataset")
    assert len(steps) == 3
    for view in ("fc_view1", "fc_view2"):
        seen = sorted(r.tobytes() for kw in steps for r in kw[view])
        assert seen == sorted(r.tobytes()
                              for r in ds.features.astype(np.float32))


@pytest.mark.parametrize("mixup_alpha", [0.0, 1.0])
def test_train_step_runs_in_float32(small_noisy, monkeypatch, mixup_alpha):
    # one float64 operand, such as a float64 one-hot, would promote every
    # GEMM of the step to float64
    noisy, _ = small_noisy
    real, seen = pipeline.total_loss_grads, []

    def spy(model, batch, *args, **kwargs):
        out = real(model, batch, *args, **kwargs)
        seen.append({model.flat.dtype, batch.inputs.dtype,
                     batch.soft_labels.dtype, kwargs["fc_view1"].dtype,
                     kwargs["fc_view2"].dtype, out[1].flat.dtype})
        return out

    monkeypatch.setattr(pipeline, "total_loss_grads", spy)
    run_experiment(noisy, small_config(epochs=1, mixup_alpha=mixup_alpha))
    assert seen and all(dtypes == {np.dtype(np.float32)} for dtypes in seen)


@pytest.mark.parametrize("dim, m", [(6, 3), (8, 5)])
def test_test_set_of_another_shape_is_refused_before_init(small_noisy,
                                                          monkeypatch, dim, m):
    # a narrower test set would fail in the first test forward, and one with
    # more classes would be scored against another label space
    def no_init(*args, **kwargs):
        raise AssertionError("model initialised before the test set's shape "
                             "was checked")
    monkeypatch.setattr("ssrlab.pipeline.init_model", no_init)
    noisy, _ = small_noisy
    labels = np.arange(10) % m
    test = NoisyDataset(np.ones((10, dim)), labels, m, labels.copy())
    with pytest.raises(DataError) as exc:
        run_experiment(noisy, small_config(), test=test)
    assert str(exc.value) == (f"SHAPE_MISMATCH: the test set has {dim} "
                              f"features and {m} classes, the training set "
                              "8 and 3")


@pytest.mark.parametrize("which", ["training", "test"])
def test_features_past_float32_are_rejected_before_init(small_noisy,
                                                        monkeypatch, which):
    # finite in float64, but inf once rounded to the model's float32: the
    # dataset refuses it when it is built, so no run can start on it
    def no_init(*args, **kwargs):
        raise AssertionError("model initialised before the range check")
    monkeypatch.setattr("ssrlab.pipeline.init_model", no_init)
    noisy, test = small_noisy
    data = {"training": noisy, "test": test}
    feats = data[which].features.copy()
    feats[7, 2] = -1e39
    with pytest.raises(NumericError) as exc:
        data[which] = dataclasses.replace(data[which], features=feats)
        run_experiment(data["training"], small_config(), test=data["test"])
    assert str(exc.value) == ("NON_FINITE_INPUT: feature row 7 is not finite "
                              "in float32")


def test_lambda_zero_runs_without_views(small_noisy):
    noisy, test = small_noisy
    out = run_experiment(noisy, small_config(lambda_fc=0.0), test=test)
    assert len(out.record.epochs) == 3


# --- every train setting has an effect ---------------------------------------

# one value per TrainConfig field, each unlike FLIP_BASE's: a field with no
# entry fails test_every_train_field_has_a_flip, and one whose flip leaves
# the trained parameters as they were fails test_every_train_flip_changes_a_run
FLIP_BASE = TrainConfig(epochs=4, k_neighbours=10)
FLIPS = {
    "theta_s": 0.5, "theta_r": 0.6, "k_neighbours": 20, "lambda_fc": 0.5,
    "mixup_alpha": 1.0, "learning_rate": 0.05, "momentum": 0.5,
    "weight_decay": 1e-3, "epochs": 5, "batch_size": 64, "seed": 1,
    "hidden_dims": (64, 16), "sigma_strong": 0.2, "sigma_weak": 0.05,
    "balance_voting": False, "oversample": False,
}


@pytest.fixture(scope="module")
def flip_runs():
    synth = make_gaussian_dataset(SynthSpec(
        num_classes=3, class_counts=(60, 40, 20), dim=8, ood_classes=0))
    noisy = apply_noise(synth.train, NoiseSpec("symmetric", 0.4))

    def flat(config):
        return run_experiment(noisy, config).model.flat.tobytes()

    return flat(FLIP_BASE), flat


def test_every_train_field_has_a_flip(flip_runs):
    assert set(FLIPS) == {f.name for f in dataclasses.fields(TrainConfig)}
    base, flat = flip_runs
    assert flat(FLIP_BASE) == base   # so a changed byte comes from the flip


@pytest.mark.parametrize("key", FLIPS)
def test_every_train_flip_changes_a_run(flip_runs, key):
    base, flat = flip_runs
    assert FLIPS[key] != getattr(FLIP_BASE, key)
    assert flat(dataclasses.replace(FLIP_BASE, **{key: FLIPS[key]})) != base


# --- compare_selection_modes -------------------------------------------------

@pytest.fixture(scope="module")
def comparison(small_noisy):
    noisy, test = small_noisy
    return compare_selection_modes(noisy, small_config(epochs=6), test=test)


def test_comparison_contains_all_modes(comparison):
    assert set(comparison) == {"npk_automatic", "pmc_gmm_automatic",
                               "npk_predefined", "pmc_predefined",
                               "whole_dataset", "clean_subset"}


def test_comparison_relabels_nothing(comparison):
    # compare-modes sets theta_r=1.0, and no softmax confidence exceeds 1
    for record in comparison.values():
        for e in record.epochs:
            assert e.relabelled_count == 0
            assert e.relabelled_fraction == 0.0
            assert e.relabel_accuracy == 0.0


def test_clean_reference_beats_whole_dataset(comparison):
    assert comparison["clean_subset"].last_test_acc >= \
        comparison["whole_dataset"].last_test_acc


def test_whole_dataset_equals_degenerate_thresholds(comparison, small_noisy):
    noisy, test = small_noisy
    cfg = dataclasses.replace(small_config(epochs=6), theta_s=0.0, theta_r=1.0,
                              lambda_fc=0.0, sigma_strong=0.0, sigma_weak=0.0,
                              mixup_alpha=0.0)
    plain = run_experiment(noisy, cfg, test=test).record
    whole = comparison["whole_dataset"]
    assert [dataclasses.asdict(e) for e in plain.epochs] == \
           [dataclasses.asdict(e) for e in whole.epochs]


def test_comparison_needs_ground_truth():
    labels = np.array([0, 1] * 10)
    ds = NoisyDataset(np.random.default_rng(0).normal(size=(20, 4)),
                      labels, 2)
    with pytest.raises(DataError):
        compare_selection_modes(ds, small_config())


# the reduced digests, twice in one process, as one JSON line
_DIGESTS_CHILD = """
import json
from digests import digests
print(json.dumps([digests(full=False), digests(full=False)]))
"""


def test_determinism_across_blas_threads():
    # the neighbour ids of a tiled index and of every tie kind, a 2-block
    # forward at float64 and at float32, criterion 10's metrics.csv and
    # model.flat, and the CLI's output trees, at 1 and 2 BLAS threads
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(p for p in path if p))
        child = subprocess.run([sys.executable, "-c", _DIGESTS_CHILD], env=env,
                               check=True, capture_output=True, text=True,
                               timeout=300)
        runs.extend(json.loads(child.stdout))
    assert all(run == runs[0] for run in runs)
    assert set(runs[0]) == {"index", "forward", "forward_float32", "ties",
                            "runs", "trees"}
    assert runs[0]["runs"]["criterion_10"]["model.flat"]
