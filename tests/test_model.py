import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import numeric_grad, rel_err
from oracles import sgd_step_per_pair
from ssrlab import model as model_module
from ssrlab.errors import DataError, NumericError
from ssrlab.model import (MiniBatch, PmcModel, classification_grads,
                          cosine_lr, cross_entropy_loss,
                          feature_consistency_loss, forward, init_model,
                          mixup_pair, oversample_balanced, sample_beta,
                          sgd_step, softmax, total_loss_grads, trunk_forward)


# --- forward pass ------------------------------------------------------------

def test_fresh_model_uniform_probs():
    model = init_model(4, 3, hidden_dims=(5,), rng=0)
    out = forward(model, np.random.default_rng(0).normal(size=(6, 4)))
    assert np.allclose(out["probs"], 1 / 3)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(5, 4))
    shifted = logits + rng.normal(size=(5, 1))
    assert np.allclose(softmax(logits), softmax(shifted), atol=1e-12)
    assert np.allclose(softmax(logits).sum(axis=1), 1.0, atol=1e-6)


def test_single_layer_hand_softmax():
    w = np.array([[1.0, -1.0], [0.5, 2.0]])
    b = np.array([0.1, -0.2])
    model = PmcModel(trunk=[(np.eye(2), np.zeros(2))], head=(w, b),
                     projector=(np.eye(2), np.zeros(2)),
                     predictor=(np.eye(2), np.zeros(2)))
    x = np.array([[0.3, -0.7]])
    logits = x @ w + b
    expect = np.exp(logits) / np.exp(logits).sum()
    assert np.allclose(forward(model, x)["probs"], expect, atol=1e-12)


def test_forward_rejects_non_finite():
    model = init_model(3, 2, hidden_dims=(4,), rng=0)
    with pytest.raises(NumericError) as exc:
        forward(model, np.array([[1.0, np.nan, 0.0]]))
    assert exc.value.code == "NON_FINITE_INPUT"


def test_trunk_forward_holds_one_array_per_layer():
    # each layer's output is one new array (bias and ReLU in place), so the
    # peak is the hidden activations themselves, N * sum(hidden) float64s
    n, hidden = 10000, (64, 32)
    model = init_model(16, 4, hidden_dims=hidden, rng=0)
    x = np.random.default_rng(1).normal(size=(n, 16))
    x_before = x.copy()
    tracemalloc.start()
    try:
        emb, cache = trunk_forward(model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = n * sum(hidden) * 8
    assert peak <= 1.25 * bound, f"peak {peak / bound:.2f} x N*sum(hidden)*8"
    assert np.array_equal(x, x_before)
    assert len(cache) == 2 and cache[0] is x
    (w1, b1), (w2, b2) = model.trunk
    assert np.array_equal(cache[1], np.maximum(x @ w1 + b1, 0.0))
    assert np.array_equal(emb, cache[1] @ w2 + b2)


# --- forward in row blocks ---------------------------------------------------

def exact_model_and_inputs(n, d=6, hidden=(8, 5), m=3):
    """A model and inputs of small multiples of 1/4: every product and sum
    of the forward pass is exact in any order, so a row block's GEMM gives
    the single call's bits whatever BLAS kernel it takes."""
    rng = np.random.default_rng(0)
    dims = [d, *hidden]
    trunk = [(rng.integers(-2, 3, (a, b)) / 2.0, rng.integers(-2, 3, b) / 2.0)
             for a, b in zip(dims[:-1], dims[1:])]
    head = (rng.integers(-2, 3, (dims[-1], m)) / 4.0, rng.integers(-2, 3, m) / 4.0)
    eye = (np.eye(dims[-1]), np.zeros(dims[-1]))
    return PmcModel(trunk, head, eye, eye), rng.integers(-3, 4, (n, d)) * 1.0


@pytest.mark.parametrize("rows", [1, 7, 299, 300])
def test_blocked_forward_equals_single_call(rows):
    n = 300
    model, x = exact_model_and_inputs(n)
    emb = trunk_forward(model, x)[0]
    whole = {"probs": softmax(emb @ model.head[0] + model.head[1]),
             "embeddings": emb}
    blocks = []

    def spy(model, x, **kw):
        blocks.append(x.shape[0])
        return trunk_forward(model, x, **kw)

    with mock.patch.object(model_module, "_FORWARD_ROWS", rows), \
            mock.patch.object(model_module, "trunk_forward", spy):
        blocked = forward(model, x)
    # equal blocks of at most `rows` rows: 299 gives two of 150, 300 one
    assert sum(blocks) == n and max(blocks) <= rows
    assert len(blocks) == -(-n // rows) and max(blocks) - min(blocks) <= 1
    assert blocked.keys() == whole.keys()
    for key, value in whole.items():
        assert np.array_equal(blocked[key], value), key


def test_forward_of_no_rows_is_empty():
    model = init_model(4, 3, hidden_dims=(5, 2), rng=0)
    out = forward(model, np.zeros((0, 4)))
    assert out.keys() == {"probs", "embeddings"}
    assert out["probs"].shape == (0, 3)
    assert out["embeddings"].shape == (0, 2)


def test_blocked_forward_never_holds_n_by_hidden():
    # one trunk call holds the (N, 256) first layer, 20 MB at N = 10k; the
    # blocks hold the (N, e) and (N, M) outputs and one block's activations
    n, hidden = 10000, (256, 32)
    model = init_model(16, 4, hidden_dims=hidden, rng=0)
    x = np.random.default_rng(1).normal(size=(n, 16))
    tracemalloc.start()
    try:
        out = forward(model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = n * hidden[0] * 8
    assert peak < bound, f"peak {peak / bound:.2f} x N*hidden*8"
    assert out["embeddings"].shape == (n, hidden[-1])


# --- cross entropy -----------------------------------------------------------

def test_ce_perfect_prediction():
    one_hot = np.eye(3)
    loss, _ = cross_entropy_loss(one_hot, one_hot)
    assert loss <= 1e-10


def test_ce_uniform_probs():
    probs = np.full((4, 10), 0.1)
    labels = np.eye(10)[:4]
    loss, _ = cross_entropy_loss(probs, labels)
    assert abs(loss - np.log(10)) < 1e-12


def test_ce_grad_matches_finite_differences():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(3, 4))
    labels = rng.dirichlet(np.ones(4), size=3)
    _, grad = cross_entropy_loss(softmax(logits), labels)
    num = numeric_grad(lambda: cross_entropy_loss(softmax(logits), labels)[0],
                       [logits])
    assert rel_err([grad], num) < 1e-5


# --- mixup -------------------------------------------------------------------

class _FixedBetaRng:
    """Generator whose two gamma draws are fixed, so sample_beta returns
    g1 / (g1 + g2) exactly; partner draws come from a real generator."""

    def __init__(self, g1, g2, seed):
        self._gammas = iter((g1, g2))
        self._rng = np.random.default_rng(seed)

    def standard_gamma(self, alpha):
        return next(self._gammas)

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)


def test_mixup_gamma_one_is_identity():
    batch = MiniBatch(np.random.default_rng(3).normal(size=(5, 3)), np.eye(5))
    out = mixup_pair(batch, 4.0, _FixedBetaRng(1.0, 0.0, seed=3))
    assert np.array_equal(out.inputs, batch.inputs)
    assert np.array_equal(out.soft_labels, batch.soft_labels)


def test_mixup_half_mixes_labels():
    batch = MiniBatch(np.array([[1.0], [3.0]]), np.eye(2))
    out = mixup_pair(batch, 4.0, _FixedBetaRng(1.0, 1.0, seed=0))
    partner_differs = out.soft_labels.max(axis=1) < 1.0
    assert np.all(out.soft_labels[partner_differs] == 0.5)
    assert np.allclose(out.soft_labels.sum(axis=1), 1.0)


def test_mixup_replays_seeded_formula():
    # the coefficient is one Beta(alpha, alpha) draw folded to >= 1/2, then
    # one uniform partner per row, all from the caller's generator
    batch = MiniBatch(np.random.default_rng(3).normal(size=(5, 3)), np.eye(5))
    folded = 0
    for seed in range(20):
        for alpha in (0.5, 4.0):
            out = mixup_pair(batch, alpha, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            raw = sample_beta(alpha, rng)
            gam = max(raw, 1.0 - raw)
            folded += raw < 0.5
            partner = rng.integers(0, 5, size=5)
            assert np.array_equal(out.inputs, gam * batch.inputs
                                  + (1.0 - gam) * batch.inputs[partner])
            assert np.array_equal(out.soft_labels, gam * batch.soft_labels
                                  + (1.0 - gam) * batch.soft_labels[partner])
    assert folded > 0


def test_beta_draws_that_underflow_mean_no_mixing():
    # for a small alpha both gamma draws can underflow to 0
    assert sample_beta(1e-300, _FixedBetaRng(0.0, 0.0, seed=0)) == 1.0
    batch = MiniBatch(np.random.default_rng(3).normal(size=(5, 3)), np.eye(5))
    out = mixup_pair(batch, 1e-300, _FixedBetaRng(0.0, 0.0, seed=3))
    assert np.array_equal(out.inputs, batch.inputs)
    assert np.array_equal(out.soft_labels, batch.soft_labels)


def test_beta_mean_monte_carlo():
    rng = np.random.default_rng(4)
    draws = [sample_beta(4.0, rng) for _ in range(100_000)]
    assert abs(np.mean(draws) - 0.5) < 0.01


def test_mixup_coefficient_folded_above_half():
    rng = np.random.default_rng(5)
    batch = MiniBatch(np.array([[0.0], [1.0]]), np.eye(2))
    for _ in range(50):
        out = mixup_pair(batch, 0.5, rng)
        # each output row is dominated by its own sample
        assert np.all(out.soft_labels.max(axis=1) >= 0.5)


# --- feature consistency loss ------------------------------------------------

def head_outputs(model, v1, v2):
    wp, bp = model.projector
    wq, bq = model.predictor
    h1 = (trunk_forward(model, v1)[0] @ wp + bp) @ wq + bq
    h2 = trunk_forward(model, v2)[0] @ wp + bp
    return h1, h2


def test_fc_parallel_views_cosine_minimum(tiny_model):
    v = np.random.default_rng(0).normal(size=(3, 5))
    loss = feature_consistency_loss(tiny_model, v, v, tiny_model.zeros())
    h1, h2 = head_outputs(tiny_model, v, v)
    cos = (h1 * h2).sum(1) / (np.linalg.norm(h1, axis=1)
                              * np.linalg.norm(h2, axis=1))
    assert abs(loss + cos.mean()) < 1e-12
    # identical predictor/projector outputs give the -1 minimum
    ident = PmcModel(trunk=[(np.eye(2), np.zeros(2))],
                     head=(np.zeros((2, 2)), np.zeros(2)),
                     projector=(np.eye(2), np.zeros(2)),
                     predictor=(np.eye(2), np.zeros(2)))
    same = np.array([[1.0, 2.0]])
    loss = feature_consistency_loss(ident, same, same, ident.zeros())
    assert abs(loss + 1.0) < 1e-12


def test_fc_orthogonal_views():
    ident = PmcModel(trunk=[(np.eye(2), np.zeros(2))],
                     head=(np.zeros((2, 2)), np.zeros(2)),
                     projector=(np.eye(2), np.zeros(2)),
                     predictor=(np.eye(2), np.zeros(2)))
    v1 = np.array([[1.0, 0.0]])
    v2 = np.array([[0.0, 1.0]])
    cos_loss = feature_consistency_loss(ident, v1, v2, ident.zeros())
    assert abs(cos_loss) < 1e-12


def test_fc_zero_norm_embedding():
    ident = PmcModel(trunk=[(np.eye(2), np.zeros(2))],
                     head=(np.zeros((2, 2)), np.zeros(2)),
                     projector=(np.zeros((2, 2)), np.zeros(2)),
                     predictor=(np.eye(2), np.zeros(2)))
    with pytest.raises(NumericError) as exc:
        feature_consistency_loss(ident, np.ones((1, 2)), np.ones((1, 2)),
                                 ident.zeros())
    assert exc.value.code == "ZERO_NORM_EMBEDDING"


def test_stop_gradient_blocks_second_branch(tiny_model):
    rng = np.random.default_rng(7)
    v1 = rng.normal(size=(3, 5))
    v2 = rng.normal(size=(3, 5))
    g_stop, g_full = tiny_model.zeros(), tiny_model.zeros()
    feature_consistency_loss(tiny_model, v1, v2, g_stop, stop_gradient=True)
    feature_consistency_loss(tiny_model, v1, v2, g_full, stop_gradient=False)
    # the predictor sits only on the view1 branch: identical either way
    assert np.array_equal(g_stop.predictor[0], g_full.predictor[0])
    # the shared trunk/projector do receive extra gradient without the block
    assert not np.allclose(g_stop.projector[0], g_full.projector[0])
    assert not np.allclose(g_stop.trunk[0][0], g_full.trunk[0][0])


# --- composite loss ----------------------------------------------------------

def test_total_loss_lambda_zero_is_pure_ce(tiny_model):
    rng = np.random.default_rng(8)
    batch = MiniBatch(rng.normal(size=(3, 5)), np.eye(3))
    # no views supplied: with lambda = 0 the consistency branch must not run
    total, _, parts = total_loss_grads(tiny_model, batch, 0.0)
    assert total == parts["ce"]
    assert parts["fc"] == 0.0


def test_total_loss_weighted_sum(tiny_model):
    # the one-buffer sum rounds as ce + fl(lam * fc): addition commutes
    rng = np.random.default_rng(9)
    batch = MiniBatch(rng.normal(size=(3, 5)), np.eye(3))
    v1 = rng.normal(size=(3, 5))
    v2 = rng.normal(size=(3, 5))
    ce_grads = total_loss_grads(tiny_model, batch, 0.0)[1]
    for stop in (True, False):
        fc_grads = tiny_model.zeros()
        feature_consistency_loss(tiny_model, v1, v2, fc_grads, stop)
        for lam in (0.7, 1.0, 2.0):
            total, grads, parts = total_loss_grads(
                tiny_model, batch, lam, fc_view1=v1, fc_view2=v2,
                stop_gradient=stop)
            assert abs(total - (parts["ce"] + lam * parts["fc"])) < 1e-12
            assert np.array_equal(grads.flat,
                                  ce_grads.flat + lam * fc_grads.flat)


def test_total_loss_makes_one_gradient_buffer(tiny_model, monkeypatch):
    rng = np.random.default_rng(9)
    batch = MiniBatch(rng.normal(size=(3, 5)), np.eye(3))
    real, made = PmcModel.zeros, []

    def counted(self):
        made.append(real(self))
        return made[-1]

    monkeypatch.setattr(PmcModel, "zeros", counted)
    grads = total_loss_grads(tiny_model, batch, 0.7,
                             fc_view1=rng.normal(size=(3, 5)),
                             fc_view2=rng.normal(size=(3, 5)))[1]
    assert made == [grads]


def test_branch_gradients_add_into_the_given_buffer(tiny_model):
    # each parameter takes one addition per branch, so adding into a buffer
    # that holds g0 gives g0 + the branch's own gradient bit for bit
    rng = np.random.default_rng(9)
    x, v1, v2 = (rng.normal(size=(3, 5)) for _ in range(3))
    g0 = tiny_model.zeros()
    g0.flat[:] = rng.normal(size=g0.flat.size)
    for branch in (lambda grads: classification_grads(
                       tiny_model, x, np.eye(3), grads),
                   lambda grads: feature_consistency_loss(
                       tiny_model, v1, v2, grads)):
        own = tiny_model.zeros()
        branch(own)
        into = tiny_model.zeros()
        into.flat[:] = g0.flat
        assert type(branch(into)) is float
        assert np.array_equal(into.flat, g0.flat + own.flat)


# --- optimizer ---------------------------------------------------------------

def scalar_model(theta=0.0):
    return PmcModel(trunk=[(np.array([[theta]]), np.zeros(1))],
                    head=(np.zeros((1, 1)), np.zeros(1)),
                    projector=(np.zeros((1, 1)), np.zeros(1)),
                    predictor=(np.zeros((1, 1)), np.zeros(1)))


def unit_grads(model):
    g = model.zeros()
    g.trunk[0][0][:] = 1.0
    return g


def test_sgd_zero_grad_no_change(tiny_model):
    velocity = np.zeros_like(tiny_model.flat)
    before = tiny_model.flat.copy()
    sgd_step(tiny_model, tiny_model.zeros(), velocity, 0.1, 0.9, 0.0)
    assert np.array_equal(before, tiny_model.flat)


def test_sgd_single_step():
    model = scalar_model(0.0)
    velocity = np.zeros_like(model.flat)
    sgd_step(model, unit_grads(model), velocity, 0.1, 0.0, 0.0)
    assert abs(model.trunk[0][0][0, 0] + 0.1) < 1e-15


def test_sgd_momentum_two_steps():
    model = scalar_model(0.0)
    velocity = np.zeros_like(model.flat)
    sgd_step(model, unit_grads(model), velocity, 0.1, 0.9, 0.0)
    sgd_step(model, unit_grads(model), velocity, 0.1, 0.9, 0.0)
    assert abs(model.trunk[0][0][0, 0] + 0.29) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(2, 5),
       st.lists(st.integers(1, 7), min_size=1, max_size=3),
       st.floats(0.0, 0.99), st.floats(0.0, 1e-2), st.floats(1e-4, 1.0),
       st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 7, 64, 1 << 15]))
def test_flat_sgd_matches_per_pair_reference(dim, classes, hidden,
                                             momentum, wd, lr, seed, chunk):
    # small chunks put chunk edges and a partial last chunk inside the model
    rng = np.random.default_rng(seed)
    model = init_model(dim, classes, tuple(hidden), rng)
    model.flat[:] = rng.normal(size=model.flat.size)
    ref = model.zeros()
    ref.flat[:] = model.flat
    flat_velocity = np.zeros_like(model.flat)
    velocity = [np.zeros_like(a) for pair in [*ref.trunk, ref.head,
                                             ref.projector, ref.predictor]
                for a in pair]
    for _ in range(4):
        grads = model.zeros()
        grads.flat[:] = rng.normal(size=grads.flat.size)
        with mock.patch.object(model_module, "_SGD_CHUNK", chunk):
            sgd_step(model, grads, flat_velocity, lr, momentum, wd)
        sgd_step_per_pair(ref, grads, velocity, lr, momentum, wd)
        assert np.array_equal(model.flat, ref.flat)
    assert np.array_equal(flat_velocity,
                          np.concatenate([v.ravel() for v in velocity]))


def test_cosine_annealing_schedule():
    assert cosine_lr(0.02, 0, 30) == 0.02
    assert abs(cosine_lr(0.02, 15, 30) - 0.01) < 1e-15
    assert abs(cosine_lr(0.02, 30, 30)) < 1e-15


# --- oversampling ------------------------------------------------------------

def test_oversample_already_balanced():
    rng = np.random.default_rng(10)
    sel = np.arange(6)
    labels = np.array([0, 0, 0, 1, 1, 1])
    out = oversample_balanced(sel, labels, rng)
    assert sorted(out.tolist()) == sel.tolist()


def test_oversample_minority_repeated():
    rng = np.random.default_rng(11)
    labels = np.array([0, 0, 0, 0, 1])
    out = oversample_balanced(np.arange(5), labels, rng)
    assert out.size == 8
    assert (labels[out] == 0).sum() == 4
    assert (out == 4).sum() == 4  # the single minority index repeated


def test_oversample_tops_up_a_class_short_by_one():
    labels = np.array([0, 0, 0, 1, 1])
    out = oversample_balanced(np.arange(5), labels, np.random.default_rng(13))
    assert np.array_equal(np.bincount(labels[out]), [3, 3])


def test_oversample_three_classes():
    rng = np.random.default_rng(12)
    labels = np.array([0] * 5 + [1] * 2 + [2])
    out = oversample_balanced(np.arange(8), labels, rng)
    assert out.size == 15
    assert np.array_equal(np.bincount(labels[out]), [5, 5, 5])


def test_oversample_empty_selection():
    with pytest.raises(DataError) as exc:
        oversample_balanced(np.array([], dtype=np.int64), np.array([0]), None)
    assert exc.value.code == "EMPTY_SELECTION"
