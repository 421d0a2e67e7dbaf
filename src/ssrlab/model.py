"""Small MLP classifier with hand-derived gradients.

Encoder trunk (ReLU hidden layers, linear embedding output), softmax head,
and linear projector/predictor heads for the feature-consistency loss.
Training uses SGD with momentum, weight decay, and cosine-annealed learning
rate; mixup interpolates inputs and soft labels within each batch.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError, NumericError

_NORM_EPS = 1e-12
_PROB_CLAMP = 1e-12
_FORWARD_ROWS = 2048   # rows of one trunk block in forward, at most
_SGD_CHUNK = 1 << 15   # values of one sgd_step chunk: 256 KB per buffer


class PmcModel:
    """Encoder trunk, softmax head, projector and predictor.

    Every parameter lives in one float64 buffer, ``flat``; each (W, b) pair
    is a view into it, in ``[*trunk, head, projector, predictor]`` order.
    The constructor copies the given arrays into a new buffer.
    """

    def __init__(self, trunk, head, projector, predictor):
        pairs = [*trunk, head, projector, predictor]
        self._shapes = [np.shape(w) for w, _ in pairs]
        self._n_trunk = len(trunk)
        self._bind(np.concatenate([np.ravel(a) for pair in pairs for a in pair],
                                  dtype=np.float64))

    def _bind(self, flat: np.ndarray) -> "PmcModel":
        self.flat, pairs, pos = flat, [], 0
        for d_in, d_out in self._shapes:
            pairs.append((flat[pos:pos + d_in * d_out].reshape(d_in, d_out),
                          flat[pos + d_in * d_out:pos + (d_in + 1) * d_out]))
            pos += (d_in + 1) * d_out
        self.trunk = pairs[:self._n_trunk]   # [(W, b)] chaining d -> ... -> e
        self.head, self.projector, self.predictor = pairs[self._n_trunk:]
        return self

    def zeros(self) -> "PmcModel":
        """A model of the same layout with every parameter zero, used to
        hold gradients."""
        return copy.copy(self)._bind(np.zeros_like(self.flat))


def init_model(dim: int, num_classes: int, hidden_dims, rng) -> PmcModel:
    """He-initialised trunk d -> *hidden_dims, zero head, and e x e projector
    and predictor, where e is the last hidden width."""
    rng = np.random.default_rng(rng)
    dims = [dim, *hidden_dims]
    trunk = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        w = rng.normal(0.0, math.sqrt(2.0 / d_in), size=(d_in, d_out))
        trunk.append((w, np.zeros(d_out)))
    e = dims[-1]
    # zero head: the untrained classifier starts at uniform confidence, so
    # epoch-0 relabelling stays inert
    head = (np.zeros((e, num_classes)), np.zeros(num_classes))
    projector = (rng.normal(0.0, math.sqrt(1.0 / e), size=(e, e)), np.zeros(e))
    predictor = (rng.normal(0.0, math.sqrt(1.0 / e), size=(e, e)), np.zeros(e))
    return PmcModel(trunk, head, projector, predictor)


def trunk_forward(model: PmcModel, x: np.ndarray, out=None):
    """Returns (embeddings, cache) where cache is the list of per-layer
    inputs for the backward pass; bias and ReLU are applied in place. The
    embeddings are written into ``out`` when it is given."""
    acts, h = [], x
    last = len(model.trunk) - 1
    for i, (w, b) in enumerate(model.trunk):
        acts.append(h)
        h = np.matmul(h, w, out=out if i == last else None)
        h += b
        if i < last:
            np.maximum(h, 0.0, out=h)
    return h, acts


def trunk_backward(model: PmcModel, cache, grad_emb: np.ndarray,
                   grads: PmcModel) -> None:
    """Adds the trunk gradients to what ``grads.trunk`` holds."""
    g = grad_emb
    for i in range(len(model.trunk) - 1, -1, -1):
        gw, gb = grads.trunk[i]
        gw += cache[i].T @ g
        gb += g.sum(axis=0)
        if i > 0:
            # cache[i] = relu(z) of layer i - 1, and relu(z) > 0 iff z > 0
            g = g @ model.trunk[i][0].T
            g *= cache[i] > 0


def softmax(logits: np.ndarray) -> np.ndarray:
    e = logits - logits.max(axis=1, keepdims=True)   # the one new array
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def forward(model: PmcModel, inputs: np.ndarray) -> dict:
    """Softmax predictions and trunk embeddings of every input row.

    Every input runs the trunk in ceil(N / _FORWARD_ROWS) equal row blocks,
    each block's last layer written straight into the preallocated (N, e)
    embeddings, so one block's hidden activations exist at a time; equal
    blocks leave no remainder of a few rows, whose GEMM may take another
    BLAS kernel (one row takes gemv) and other bits. An input of at most
    _FORWARD_ROWS rows is one block, the GEMM of a single trunk call. The
    head and the softmax run once over all the embeddings: their outputs are
    (N, M), and a row block of a GEMM only a few columns wide (2, 3 or 10 on
    OpenBLAS) need not keep the bits of the single call.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise NumericError("NON_FINITE_INPUT", "inputs contain non-finite values")
    n = x.shape[0]
    blocks = -(-n // _FORWARD_ROWS)
    rows = -(-n // blocks) if blocks else 1   # 0 rows: no block, no call
    emb = np.empty((n, model.head[0].shape[0]))
    for lo in range(0, n, rows):
        trunk_forward(model, x[lo:lo + rows], out=emb[lo:lo + rows])
    wh, bh = model.head
    return {"probs": softmax(emb @ wh + bh), "embeddings": emb}


def cross_entropy_loss(probs: np.ndarray, soft_labels: np.ndarray):
    """Mean cross-entropy against soft labels; gradient is w.r.t. the logits."""
    b = probs.shape[0]
    loss = float(-(soft_labels * np.log(np.maximum(probs, _PROB_CLAMP))).sum() / b)
    grad_logits = (probs - soft_labels) / b
    return loss, grad_logits


@dataclass
class MiniBatch:
    inputs: np.ndarray           # (B, d)
    soft_labels: np.ndarray      # (B, M), rows sum to 1


def sample_beta(alpha: float, rng) -> float:
    """Beta(alpha, alpha) via two gamma draws from the given generator; 1 when
    both underflow to 0, as they can for a small alpha, whose mass nears 0 and 1."""
    g1 = rng.standard_gamma(alpha)
    g2 = rng.standard_gamma(alpha)
    return float(g1 / (g1 + g2)) if g1 + g2 > 0 else 1.0


def mixup_pair(batch: MiniBatch, alpha: float, rng) -> MiniBatch:
    """Interpolate each row with a uniformly drawn partner row using a single
    Beta(alpha, alpha) coefficient for the batch.

    The drawn coefficient is folded to max(gamma, 1-gamma) so each output row
    stays dominated by its own sample.
    """
    gam = sample_beta(alpha, rng)
    gam = max(gam, 1.0 - gam)
    b = batch.inputs.shape[0]
    partner = rng.integers(0, b, size=b)
    mixed_x = gam * batch.inputs + (1.0 - gam) * batch.inputs[partner]
    mixed_y = gam * batch.soft_labels + (1.0 - gam) * batch.soft_labels[partner]
    return MiniBatch(mixed_x, mixed_y)


def classification_grads(model: PmcModel, inputs: np.ndarray,
                         soft_labels: np.ndarray, grads: PmcModel) -> float:
    """Cross-entropy loss; its trunk and head gradients are added to what
    ``grads`` holds."""
    emb, cache = trunk_forward(model, inputs)
    wh, bh = model.head
    probs = softmax(emb @ wh + bh)
    loss, grad_logits = cross_entropy_loss(probs, soft_labels)
    grads.head[0][:] += emb.T @ grad_logits
    grads.head[1][:] += grad_logits.sum(axis=0)
    trunk_backward(model, cache, grad_logits @ wh.T, grads)
    return loss


def _fc_head_grad(h1, h2, stop_gradient: bool):
    """Per-batch negative cosine loss, d(loss)/d(h1) and d(loss)/d(h2); the
    last is None under stop_gradient, whose h2 branch takes no gradient."""
    b = h1.shape[0]
    n1 = np.linalg.norm(h1, axis=1)
    n2 = np.linalg.norm(h2, axis=1)
    if n1.min() < _NORM_EPS or n2.min() < _NORM_EPS:
        raise NumericError("ZERO_NORM_EMBEDDING",
                           "consistency-loss embedding has zero norm")
    u = h1 / n1[:, None]
    v = h2 / n2[:, None]
    cos = (u * v).sum(axis=1)
    # -1.0 * (v - cos * u) / n1 / b, one operation at a time in one array
    gh1 = cos[:, None] * u
    np.subtract(v, gh1, out=gh1)
    gh1 *= -1.0
    gh1 /= n1[:, None]
    gh1 /= b
    gh2 = None
    if not stop_gradient:
        gh2 = -1.0 * (u - cos[:, None] * v) / n2[:, None] / b
    return float(-cos.mean()), gh1, gh2


def feature_consistency_loss(model: PmcModel, view1: np.ndarray, view2: np.ndarray,
                             grads: PmcModel, stop_gradient: bool = True) -> float:
    """Consistency between predictor(projector(f(view1))) and projector(f(view2));
    its gradients are added to what ``grads`` holds.

    With stop_gradient (the default) the view2 branch is treated as a constant:
    its trunk and projector activations receive no gradient.
    """
    wp, bp = model.projector
    wq, bq = model.predictor
    emb1, cache1 = trunk_forward(model, view1)
    z1 = emb1 @ wp
    z1 += bp
    h1 = z1 @ wq
    h1 += bq
    emb2, cache2 = trunk_forward(model, view2)
    h2 = emb2 @ wp
    h2 += bp
    loss, gh1, gh2 = _fc_head_grad(h1, h2, stop_gradient)

    grads.predictor[0][:] += z1.T @ gh1
    grads.predictor[1][:] += gh1.sum(axis=0)
    gz1 = gh1 @ wq.T
    grads.projector[0][:] += emb1.T @ gz1
    grads.projector[1][:] += gz1.sum(axis=0)
    trunk_backward(model, cache1, gz1 @ wp.T, grads)
    if not stop_gradient:
        grads.projector[0][:] += emb2.T @ gh2
        grads.projector[1][:] += gh2.sum(axis=0)
        trunk_backward(model, cache2, gh2 @ wp.T, grads)
    return loss


def total_loss_grads(model: PmcModel, batch: MiniBatch, lambda_fc: float,
                     fc_view1: Optional[np.ndarray] = None,
                     fc_view2: Optional[np.ndarray] = None,
                     stop_gradient: bool = True):
    """Composite objective: cross-entropy plus lambda_fc times the consistency
    loss. With lambda_fc = 0 the consistency branch is never evaluated.

    Both gradients go into one buffer: the consistency branch's, scaled by
    lambda_fc in place, then the cross-entropy branch's added to it. Each
    value rounds as ce + fl(lambda_fc * fc) does, since addition commutes."""
    grads = model.zeros()
    fc = 0.0
    if lambda_fc > 0:
        fc = feature_consistency_loss(model, fc_view1, fc_view2, grads,
                                      stop_gradient)
        grads.flat *= lambda_fc
    ce = classification_grads(model, batch.inputs, batch.soft_labels, grads)
    return ce + lambda_fc * fc, grads, {"ce": ce, "fc": fc}


def cosine_lr(base_lr: float, epoch: int, total_epochs: int) -> float:
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * epoch / total_epochs))


def sgd_step(model: PmcModel, grads: PmcModel, velocity: np.ndarray,
             lr: float, momentum: float, weight_decay: float) -> None:
    """In-place SGD update of ``model.flat`` and the equal-length velocity
    buffer: v <- mu*v + g + wd*theta; theta <- theta - lr*v.

    The buffers are walked in chunks of _SGD_CHUNK values through one
    chunk-sized scratch, so a chunk's six passes run in cache; each value
    takes the same operations in the same order as whole-buffer passes."""
    theta, g = model.flat, grads.flat
    scratch = np.empty(min(_SGD_CHUNK, theta.size))
    for lo in range(0, theta.size, _SGD_CHUNK):
        p = theta[lo:lo + _SGD_CHUNK]
        v = velocity[lo:lo + _SGD_CHUNK]
        u = scratch[:p.size]
        np.multiply(weight_decay, p, out=u)
        u += g[lo:lo + _SGD_CHUNK]
        v *= momentum
        v += u
        np.multiply(lr, v, out=u)
        p -= u


def oversample_balanced(selected_indices: np.ndarray, working_labels: np.ndarray,
                        rng) -> np.ndarray:
    """Repeat minority-class indices (with replacement) until every class in
    the selection appears as often as the largest one, then shuffle."""
    sel = np.asarray(selected_indices, dtype=np.int64)
    if sel.size == 0:
        raise DataError("EMPTY_SELECTION", "no samples to oversample")
    labels = np.asarray(working_labels, dtype=np.int64)[sel]
    classes = np.unique(labels)
    target = int(np.bincount(labels).max())
    parts = []
    for cls in classes:
        members = sel[labels == cls]
        parts.append(members)
        short = target - members.size
        if short > 0:
            parts.append(rng.choice(members, size=short, replace=True))
    out = np.concatenate(parts)
    rng.shuffle(out)
    return out
