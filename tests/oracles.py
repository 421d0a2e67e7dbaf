"""Reference implementations the tests check the package against.

None of these is used by the package itself: they are slow or scalar
restatements of quantities the pipeline computes in bulk, or evaluation
helpers the acceptance gate needs.
"""
import numpy as np

from ssrlab.data import LabelState
from ssrlab.selector import neighbour_label_counts


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
