"""Reference implementations the tests check the package against.

None of these is used by the package itself: they are slow or scalar
restatements of quantities the pipeline computes in bulk, or evaluation
helpers the acceptance gate needs.
"""
import numpy as np

from ssrlab.data import LabelState
from ssrlab.errors import NumericError
from ssrlab.selector import _GMM_MAX_ITER, _GMM_TOL, neighbour_label_counts


def dense_cosine(feats) -> np.ndarray:
    """Full N x N cosine matrix, clipped to [-1, 1], with -inf on the diagonal."""
    feats = np.asarray(feats, dtype=np.float64)
    unit = feats / np.linalg.norm(feats, axis=1, keepdims=True)
    sims = np.clip(unit @ unit.T, -1.0, 1.0)
    np.fill_diagonal(sims, -np.inf)
    return sims


def topk_lexsort(sims, k) -> np.ndarray:
    """Row-wise top-k column indices by (descending value, ascending index)."""
    idx = np.broadcast_to(np.arange(sims.shape[1]), sims.shape)
    return np.lexsort((idx, -sims), axis=1)[:, :k]


def full_sort_oracle(feats, k) -> np.ndarray:
    """Exhaustive O(N^2) top-k neighbour ids by (descending cosine, ascending
    index), self excluded."""
    return topk_lexsort(dense_cosine(feats), k)


def initial_state(observed_labels, num_classes: int) -> LabelState:
    """Label state before any relabelling: working labels are the observed."""
    return LabelState.from_working(observed_labels, observed_labels, num_classes)


def neighbour_votes_per_row(neighbour_ids, working_labels, num_classes) -> np.ndarray:
    """(N, M) neighbour label counts, one np.bincount per row."""
    labels = np.asarray(working_labels)[np.asarray(neighbour_ids)]
    votes = np.zeros((labels.shape[0], num_classes), dtype=np.int64)
    for i, row in enumerate(labels):
        votes[i] = np.bincount(row, minlength=num_classes)
    return votes


def neighbour_label_distribution(ids, state) -> np.ndarray:
    """Normalised neighbour label distribution (rows sum to 1)."""
    return neighbour_label_counts(ids, state) / ids.shape[1]


def macro_f1(predicted: np.ndarray, true: np.ndarray, num_classes: int) -> float:
    """Unweighted mean of the per-class F1 scores."""
    scores = []
    for cls in range(num_classes):
        tp = int(((predicted == cls) & (true == cls)).sum())
        fp = int(((predicted == cls) & (true != cls)).sum())
        fn = int(((predicted != cls) & (true == cls)).sum())
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        scores.append(0.0 if p + r == 0 else 2.0 * p * r / (p + r))
    return float(np.mean(scores))


def sgd_step_per_pair(model, grads, velocity, lr, momentum, weight_decay):
    """The momentum/weight-decay update applied one (W, b) array at a time;
    ``velocity`` holds one array per model parameter array."""
    pairs = [*model.trunk, model.head, model.projector, model.predictor]
    grad_pairs = [*grads.trunk, grads.head, grads.projector, grads.predictor]
    params = [a for pair in pairs for a in pair]
    grad_arrays = [a for pair in grad_pairs for a in pair]
    for p, g, v in zip(params, grad_arrays, velocity):
        v *= momentum
        v += g + weight_decay * p
        p -= lr * v


def gmm_em_row_major(x):
    """The EM of baseline_gmm_loss on sample-major (N, 2) arrays: (mask,
    weights, means, variances). Its M-step sums are ``.sum(axis=0)`` of a
    C-contiguous (N, 2) array, which adds the rows in index order: it fixes
    the row-order sums that the package's running sums must repeat bit for
    bit."""
    var0 = float(x.var())
    if var0 < 1e-8:
        raise NumericError("DEGENERATE_FIT", "loss variance collapsed")
    mu = np.percentile(x, [10.0, 90.0])
    var = np.array([var0, var0])
    w = np.array([0.5, 0.5])
    prev_ll = -np.inf
    for _ in range(_GMM_MAX_ITER):
        log_pdf = (np.log(w)[None, :]
                   - 0.5 * np.log(2.0 * np.pi * var)[None, :]
                   - (x[:, None] - mu[None, :]) ** 2 / (2.0 * var)[None, :])
        lse = np.logaddexp(log_pdf[:, 0], log_pdf[:, 1])
        resp = np.exp(log_pdf - lse[:, None])
        ll = float(lse.mean())
        nk = resp.sum(axis=0)
        if not nk.min() > 0:
            raise NumericError("DEGENERATE_FIT", "a mixture component is empty")
        w = nk / x.size
        mu = (resp * x[:, None]).sum(axis=0) / nk
        var = (resp * (x[:, None] - mu[None, :]) ** 2).sum(axis=0) / nk
        if not var.min() >= 1e-8:   # nan too
            raise NumericError("DEGENERATE_FIT", "component variance collapsed")
        if abs(ll - prev_ll) < _GMM_TOL:
            break
        prev_ll = ll
    low = int(np.argmin(mu))
    return resp[:, low] > 0.5, w, mu, var
