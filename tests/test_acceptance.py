"""End-to-end acceptance gate.

Each test prints a single CRITERION line so the gate can be audited from the
captured output. The heavy experiment configurations are pinned: 4 Gaussian
classes, 500 samples each, 16 dimensions, centre separation 4 sigma.
"""
import dataclasses
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import numeric_grad, rel_err
from oracles import full_sort_oracle, macro_f1
from ssrlab import (NoiseSpec, SynthSpec, TrainConfig, apply_noise,
                    compare_selection_modes, make_gaussian_dataset,
                    run_experiment)
from ssrlab.cli import emit_metrics
from ssrlab.model import (MiniBatch, classification_grads,
                          feature_consistency_loss, init_model, mixup_pair,
                          total_loss_grads, trunk_forward)
from ssrlab.selector import build_neighbour_index, exact_top_mask, select_clean
from ssrlab.ssrd import load_embeddings, write_dataset


def report(n, ok, detail):
    line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


BASE_SYNTH = SynthSpec(num_classes=4, per_class=500, dim=16, separation=4.0,
                       seed=0, ood_classes=4)


@pytest.fixture(scope="module")
def sym50_run():
    synth = make_gaussian_dataset(BASE_SYNTH)
    noisy = apply_noise(synth.train, NoiseSpec("symmetric", 0.5, seed=0))
    out = run_experiment(noisy, TrainConfig(), test=synth.test)
    return noisy, out.record


@pytest.fixture(scope="module")
def sym80_data():
    synth = make_gaussian_dataset(BASE_SYNTH)
    noisy = apply_noise(synth.train, NoiseSpec("symmetric", 0.8, seed=0))
    return noisy, synth.test


# --- criterion 1: exhaustive KNN oracle --------------------------------------

def test_criterion_1_knn_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    mismatches = 0
    for trial in range(50):
        n = int(rng.integers(25, 501))
        d = int(rng.integers(2, 17))
        k = [1, 5, 20][trial % 3]
        feats = rng.normal(size=(n, d))
        ids = build_neighbour_index(feats, k)
        if not np.array_equal(ids, full_sort_oracle(feats, k)):
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(1, mismatches == 0 and elapsed < 10.0,
           f"50 datasets, {mismatches} mismatches, {elapsed:.2f}s")


# --- criterion 2: gradient verification --------------------------------------

def fc_loss_frozen_h2(model, v1, h2):
    """Independent re-evaluation of the consistency loss with the second
    branch held constant, as the stop-gradient semantics dictate."""
    emb1, _ = trunk_forward(model, v1)
    h1 = (emb1 @ model.projector[0] + model.projector[1]) \
        @ model.predictor[0] + model.predictor[1]
    u = h1 / np.linalg.norm(h1, axis=1, keepdims=True)
    v = h2 / np.linalg.norm(h2, axis=1, keepdims=True)
    return float(-(u * v).sum(axis=1).mean())


def test_criterion_2_gradients():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    checks = 0
    instances = 0
    trial = 0
    while instances < 20 and trial < 100:
        trial += 1
        d = int(rng.integers(3, 8))
        m = int(rng.integers(2, 5))
        b = int(rng.integers(2, 5))
        hidden = (int(rng.integers(3, 8)), int(rng.integers(3, 8)))
        model = init_model(d, m, hidden_dims=hidden, rng=rng)
        model.head[0][:] = rng.normal(0, 0.5, model.head[0].shape)
        # the odd trials weight the loss by 2: the gradient of its
        # normalised-L2 form, 2 - 2*cos, at weight 1
        lam = 1.0 if trial % 2 == 0 else 2.0
        x = rng.normal(size=(b, d))
        batch = mixup_pair(MiniBatch(x, np.eye(m)[rng.integers(0, m, b)]),
                           4.0, rng)
        v1 = rng.normal(size=(b, d))
        v2 = rng.normal(size=(b, d))
        try:
            h2_base = trunk_forward(model, v2)[0] @ model.projector[0] \
                + model.projector[1]
            if min(np.linalg.norm(h2_base, axis=1).min(),
                   1.0) < 1e-6:
                continue

            # (a) cross-entropy with mixup soft labels, trunk + head
            g = model.zeros()
            classification_grads(model, batch.inputs, batch.soft_labels, g)
            num = numeric_grad(
                lambda: classification_grads(model, batch.inputs,
                                             batch.soft_labels, model.zeros()),
                [model.flat])
            worst = max(worst, rel_err([g.flat], num))
            checks += 1

            # (b) consistency loss, stop-gradient branch held frozen
            g = model.zeros()
            feature_consistency_loss(model, v1, v2, g)
            num = numeric_grad(
                lambda: fc_loss_frozen_h2(model, v1, h2_base),
                [model.flat])
            worst = max(worst, rel_err([g.flat], num))
            checks += 1

            # (c) full composite objective
            _, g, _ = total_loss_grads(model, batch, lam, fc_view1=v1,
                                       fc_view2=v2)
            num = numeric_grad(
                lambda: classification_grads(model, batch.inputs,
                                             batch.soft_labels, model.zeros())
                + lam * fc_loss_frozen_h2(model, v1, h2_base),
                [model.flat])
            worst = max(worst, rel_err([g.flat], num))
            checks += 1
            instances += 1
        except Exception:  # dead-ReLU zero embeddings: draw another instance
            continue
    elapsed = time.perf_counter() - start
    report(2, instances >= 20 and worst < 1e-4 and elapsed < 30.0,
           f"{instances} instances, {checks} gradient checks, "
           f"worst rel err {worst:.2e}, {elapsed:.2f}s")


# --- criterion 3: consistency exactness --------------------------------------

def test_criterion_3_exactness():
    rng = np.random.default_rng(303)
    total = 0
    agree = 0
    for group in range(100):
        m = int(rng.integers(2, 7))
        k = int(rng.integers(1, 21))
        rows = 1000
        counts = rng.multinomial(k, rng.dirichlet(np.ones(m)), size=rows)
        pi = np.maximum(counts.max(axis=0), 1) + rng.integers(0, 50, m)
        labels = rng.integers(0, m, rows)
        got = exact_top_mask(counts, pi, labels)
        for i in range(rows):
            q = [Fraction(int(counts[i, j]), int(pi[j])) for j in range(m)]
            expect = q[labels[i]] == max(q)
            agree += got[i] == expect
            total += 1
    mono_ok = True
    for _ in range(50):
        c = rng.random(200)
        prev = None
        for theta in sorted(rng.random(6)):
            mask = select_clean(c, theta)
            if prev is not None and (mask & ~prev).any():
                mono_ok = False
            prev = mask
    report(3, agree == total and total == 100_000 and mono_ok,
           f"{agree}/{total} predicate agreements, monotone={mono_ok}")


# --- criteria 4 and 6: relabelling dynamics and selection quality ------------

def test_criterion_4_relabelling_dynamics(sym50_run):
    noisy, record = sym50_run
    wrong = float(noisy.is_noisy.mean())
    final = record.epochs[-1]
    ok = (final.relabel_accuracy >= 0.90
          and final.relabelled_fraction >= 0.5 * wrong)
    report(4, ok,
           f"relabel_accuracy={final.relabel_accuracy:.3f}, "
           f"relabelled_fraction={final.relabelled_fraction:.3f} "
           f"(need >= {0.5 * wrong:.3f})")


def test_criterion_6_selection_quality(sym50_run):
    _, record = sym50_run
    worst = min(e.sel_fscore for e in record.epochs[5:])
    report(6, worst >= 0.90, f"min F-score from epoch 5 on = {worst:.3f}")


# --- criterion 5: open-set conservatism --------------------------------------

def test_criterion_5_open_set_conservatism():
    synth = make_gaussian_dataset(BASE_SYNTH)
    noisy = apply_noise(synth.train,
                        NoiseSpec("combined", 0.3, open_ratio=1.0, seed=0),
                        synth.ood_pool)
    record = run_experiment(noisy, TrainConfig(), test=synth.test).record
    peak = max(e.relabelled_fraction for e in record.epochs)
    report(5, peak < 0.05, f"max relabelled_fraction over epochs = {peak:.4f}")


# --- criterion 7: ablation directionality ------------------------------------

def test_criterion_7_ablations(sym80_data):
    noisy80, test = sym80_data
    with_sel = run_experiment(noisy80, TrainConfig(theta_s=1.0),
                              test=test).record.last_test_acc
    no_sel = run_experiment(noisy80, TrainConfig(theta_s=0.0),
                            test=test).record.last_test_acc

    synth = make_gaussian_dataset(BASE_SYNTH)
    asym40 = apply_noise(synth.train,
                         NoiseSpec("asymmetric", 0.4, pair_map=(1, 2, 3, 0),
                                   seed=0))
    k1 = run_experiment(asym40, TrainConfig(k_neighbours=1),
                        test=synth.test).record.last_test_acc
    k100 = run_experiment(asym40, TrainConfig(k_neighbours=100),
                          test=synth.test).record.last_test_acc

    accs = [with_sel if theta_r == 0.9 else
            run_experiment(noisy80, TrainConfig(theta_r=theta_r),
                           test=test).record.last_test_acc
            for theta_r in (0.7, 0.8, 0.9)]
    spread = max(accs) - min(accs)

    ok = (with_sel - no_sel >= 0.10) and (k1 < k100) and (spread < 0.05)
    report(7, ok,
           f"theta_s 1 vs 0: {with_sel:.3f}/{no_sel:.3f}; "
           f"K 1 vs 100: {k1:.3f}/{k100:.3f}; theta_r spread {spread:.3f}")


# --- criterion 8: selection-mode ordering ------------------------------------

def test_criterion_8_mode_comparison(sym80_data):
    noisy80, test = sym80_data
    votes = 0
    details = []
    for seed in (0, 1, 2):
        runs = compare_selection_modes(noisy80, TrainConfig(seed=seed),
                                       test=test)
        last = {name: r.record.last_test_acc for name, r in runs}
        ordered = (last["clean_subset"] > last["npk_automatic"]
                   >= last["pmc_gmm_automatic"] > last["whole_dataset"])
        votes += ordered
        details.append(f"s{seed}:"
                       f"{last['clean_subset']:.2f}/{last['npk_automatic']:.2f}"
                       f"/{last['pmc_gmm_automatic']:.2f}"
                       f"/{last['whole_dataset']:.2f}={'Y' if ordered else 'N'}")
    report(8, votes >= 2, f"ordering holds on {votes}/3 seeds; " +
           " ".join(details))


# --- criterion 9: balancing ablation -----------------------------------------

def test_criterion_9_balancing():
    diffs = []
    for seed in (0, 1, 2):
        synth = make_gaussian_dataset(
            dataclasses.replace(BASE_SYNTH, seed=seed,
                                class_counts=(500, 400, 60, 50)))
        noisy = apply_noise(synth.train,
                            NoiseSpec("asymmetric", 0.4,
                                      pair_map=(1, 0, 3, 2), seed=seed))
        scores = {}
        for balanced in (True, False):
            cfg = TrainConfig(seed=seed, balance_voting=balanced,
                                oversample=balanced)
            out = run_experiment(noisy, cfg, test=synth.test)
            from ssrlab.model import forward
            pred = forward(out.model,
                           synth.test.features)["probs"].argmax(axis=1)
            scores[balanced] = macro_f1(pred, synth.test.observed_labels, 4)
        diffs.append(scores[True] - scores[False])
    mean_diff = float(np.mean(diffs))
    report(9, mean_diff >= 0.0,
           "macro-F1 balanced minus unbalanced per seed: "
           + ", ".join(f"{d:+.3f}" for d in diffs)
           + f"; mean {mean_diff:+.3f}")


# --- criterion 10: determinism and format ------------------------------------

def test_criterion_10_determinism(tmp_path):
    synth = make_gaussian_dataset(SynthSpec(num_classes=3, per_class=80,
                                            dim=8, seed=0))
    noisy = apply_noise(synth.train, NoiseSpec("symmetric", 0.4, seed=0))
    cfg = TrainConfig(epochs=5, k_neighbours=20)
    blobs = []
    for name in ("a", "b"):
        record = run_experiment(noisy, cfg, test=synth.test).record
        emit_metrics(record, tmp_path / name)
        blobs.append((tmp_path / name / "metrics.csv").read_bytes())
    identical = blobs[0] == blobs[1]

    feats = noisy.features.astype(np.float32).astype(np.float64)
    from ssrlab import NoisyDataset
    ds = NoisyDataset(feats, noisy.observed_labels, noisy.num_classes,
                      noisy.true_labels)
    write_dataset(tmp_path / "rt.ssrd", ds)
    back = load_embeddings(tmp_path / "rt.ssrd")
    round_trip = (np.array_equal(back.features, ds.features)
                  and np.array_equal(back.observed_labels, ds.observed_labels)
                  and np.array_equal(back.true_labels, ds.true_labels))
    report(10, identical and round_trip,
           f"byte-identical metrics.csv={identical}, "
           f"SSRD round-trip exact={round_trip}")
