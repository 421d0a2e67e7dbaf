"""Clean-sample selection: neighbour index, balanced voting, consistency.

The non-parametric neighbour classifier votes with the working labels of each
sample's K nearest neighbours under cosine similarity; the vote is rebalanced
by the inverse class counts and compared against the sample's own label. Also
hosts the two loss-based baseline selectors used for comparison runs.
"""
from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .data import TRAIN_PARAMS, LabelState, Param
from .errors import DataError, NumericError

_NORM_EPS = 1e-12
# a similarity tile of build_neighbour_index is at most _TILE_ROWS rows and
# _TILE_ELEMS values: each tile GEMM packs the whole (N, d) operand, and about
# 100 rows amortise that, so larger tiles at N < 4096 only add memory. Not
# 128 rows: glibc trims its heap past twice the largest block it has
# unmapped, and with 2 MB tiles (N = 2000) the epochs' freed arrays went back
# to the kernel and were faulted in again (36k minor faults per 30-epoch run
# against 3), making runs 5-24% slower; 4 MB tiles do not
_TILE_ROWS = 256
_TILE_ELEMS = 1 << 20
_KEY_ELEMS = 1 << 17    # tile values keyed and partitioned at a time
_GMM_MAX_ITER = 100     # EM iterations of baseline_gmm_loss, at most
_GMM_TOL = 1e-6         # EM stops when the mean log-likelihood moves less
TAU = Param(float, "[0, 1)")   # the noisy fraction the predefined modes drop


def check_k(k: int, n: int) -> None:
    """Raise RANGE_ERROR unless k is an int, and K_TOO_LARGE unless each of n
    samples has k neighbours besides itself."""
    Param(int).check("k", k)
    if not 1 <= k <= n - 1:
        raise DataError("K_TOO_LARGE", f"k_neighbours={k} must be in [1, {n - 1}]")


def build_neighbour_index(features: np.ndarray, k: int,
                          state: LabelState | None = None) -> np.ndarray:
    """Exhaustive cosine top-K: the (N, K) int64 neighbour ids of each
    sample, sorted by descending similarity, self excluded, ties broken by
    ascending sample index; deterministic for fixed input. Given the epoch's
    ``state``, it returns instead the (N, M) int64 neighbour label counts,
    ``neighbour_label_counts`` of those ids, counted one tile at a time, so
    no (N, K) array is ever held.

    Similarities exist one tile of rows at a time, so memory grows as the
    output plus one tile of at most _TILE_ROWS rows and _TILE_ELEMS values,
    not as N*N. Each similarity is keyed in the tile itself: its float64 bit
    pattern with the low bits replaced by its column is an int64 key, and one
    int64 partition per row gives the neighbours of every row the key
    settles. The others are re-sorted from the float64 values of the tile
    remade by the same GEMM; only a row whose K-th similarity is <= +0 sorts
    its whole row (see _tile_topk).
    The speed comes from NumPy's SIMD int64 partition (NumPy >= 2); the ids
    are the same on any supported NumPy (>= 1.24).
    """
    feats = np.asarray(features, dtype=np.float64)
    n = feats.shape[0]
    check_k(k, n)
    norms = np.linalg.norm(feats, axis=1)
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        raise NumericError("NON_FINITE_INPUT",
                           f"feature row {bad[0]} has a non-finite norm")
    bad = np.flatnonzero(norms < _NORM_EPS)
    if bad.size:
        raise NumericError("ZERO_NORM_VECTOR", f"feature row {bad[0]} has zero norm")
    unit = feats / norms[:, None]
    # the input's references go, so an input handed over as the only one is
    # freed before the first tile (CPython >= 3.11 moves call arguments off
    # the caller's stack)
    del features, feats
    width = k if state is None else state.class_counts.shape[0]
    out = np.empty((n, width), dtype=np.int64)
    rows = min(_TILE_ROWS, max(1, _TILE_ELEMS // n))
    for lo in range(0, n, rows):
        ids = _tile_topk(lambda: unit[lo:lo + rows] @ unit.T, lo, k, state is None)
        out[lo:lo + rows] = ids if state is None else neighbour_label_counts(ids, state)
    return out


def _tile_topk(make_tile: Callable[[], np.ndarray], lo: int, k: int,
               ordered: bool) -> np.ndarray:
    """Top-k ids of the unclipped cosine rows lo, lo+1, ... of the tile that
    `make_tile()` returns, by (descending clipped value, ascending column)
    with self at -inf; in that order if `ordered`, else in any order.

    With m = 2^16 - 1 (2^32 - 1 past 65 536 columns), the key of column c is
    the bit pattern of its value y with the low 16 (32) bits replaced by
    m - c, written into the tile; for y > 0 the high bits are monotone in y.
    An int64 partition of a few rows at a time leaves a row's k + 1 largest
    keys, the (k + 1)-th first, and they give the winners as m - (key & m)
    when the smallest winner's high bits are > 0 (negative keys, in reverse
    order, rank below every winner) and the largest winner is below 1.0 (no
    clipping), and the cut orders the values strictly: unordered, when the
    smallest winner's high bits differ from the (k + 1)-th key's; ordered,
    when the k + 1 keys, sorted, have pairwise distinct high bits. The other
    rows' candidates take one stable lexsort by (row, descending clipped
    value) in the tile remade by `make_tile`: the columns with
    y >= min(L, 1), L <= y_k the float of the smallest winner's high bits,
    or every column but self when y_k <= +0, the one case that sorts a
    whole row.
    """
    tile = make_tile()
    r, n = tile.shape
    np.fill_diagonal(tile[:, lo:], -np.inf)
    field = np.dtype(np.uint16 if n <= 1 << 16 else np.uint32)
    m = int(np.iinfo(field).max)
    per = 8 // field.itemsize
    low = 0 if sys.byteorder == "little" else per - 1
    col = (m - np.arange(n)).astype(field)
    keys = tile.view(np.int64)
    step = max(1, _KEY_ELEMS // n)
    top = np.empty((r, k + 1), dtype=np.int64)
    for a in range(0, r, step):
        key = keys[a:a + step]
        key.view(field)[:, low::per] = col
        key.partition(n - k - 1, axis=1)
        top[a:a + step] = key[:, n - k - 1:]
    if ordered:
        top.sort(axis=1)
        ids = m - (top[:, :0:-1] & m)
    else:
        ids = m - (top[:, 1:] & m)
    high = top & ~m
    kth = high[:, 1:].min(axis=1)   # the high bits of the smallest winner
    settled = (kth > 0) & (high[:, 1:].max(axis=1).view(np.float64) < 1.0)
    settled &= (np.all(high[:, 1:] != high[:, :-1], axis=1) if ordered
                else kth != high[:, 0])
    redo = np.flatnonzero(~settled)
    if redo.size:
        # candidates y >= thr: none in settled rows, all but self if y_k <= +0
        thr = np.where(kth > 0, np.minimum(kth.view(np.float64), 1.0),
                       np.nextafter(-np.inf, 0.0))
        thr[settled] = np.inf
        # the keyed tile goes before its remake, so a re-sort holds one tile
        del tile, keys, key
        tile = make_tile()
        np.fill_diagonal(tile[:, lo:], -np.inf)
        a, b = redo[0], redo[-1] + 1
        cand = np.flatnonzero(tile[a:b] >= thr[a:b, None]) + a * n
        # by row, then by descending clipped value; stable, so ties keep
        # ascending columns, and each row starts where it did in cand
        order = np.lexsort((-np.clip(tile.ravel()[cand], -1.0, 1.0), cand // n))
        at = np.searchsorted(cand, redo * n)[:, None] + np.arange(k)
        ids[redo] = cand[order[at]] % n
    return ids


def neighbour_label_counts(ids: np.ndarray, state: LabelState) -> np.ndarray:
    """(R, M) integer matrix: votes for class j among the K neighbour ids of
    row i of the (R, K) ``ids``, any R rows of the index."""
    cells = state.working_labels[ids]
    n, m = cells.shape[0], state.class_counts.shape[0]
    cells += np.arange(0, n * m, m)[:, None]
    return np.bincount(cells.ravel(), minlength=n * m).reshape(n, m)


def balance_distribution(q_raw: np.ndarray, class_counts: np.ndarray) -> np.ndarray:
    """Divide each column by its class count; columns with zero count stay zero."""
    pi = np.asarray(class_counts, dtype=np.float64)
    out = np.zeros_like(q_raw, dtype=np.float64)
    np.divide(q_raw, pi[None, :], out=out, where=pi[None, :] > 0)
    return out


def exact_top_mask(counts: np.ndarray, class_counts: np.ndarray,
                   working_labels: np.ndarray) -> np.ndarray:
    """True where the sample's label attains the row maximum of the vote
    balanced by class_counts, decided by integer cross-multiplication (no
    float equality). Class counts of 1 give the unbalanced vote."""
    counts = np.asarray(counts, dtype=np.int64)
    pi = np.asarray(class_counts, dtype=np.int64)
    n = counts.shape[0]
    lab = np.asarray(working_labels, dtype=np.int64)
    count_l = counts[np.arange(n), lab]
    # count_l / pi_l >= count_j / pi_j  <=>  count_l*pi_j >= count_j*pi_l
    lhs = count_l[:, None] * pi[None, :]
    rhs = counts * pi[lab][:, None]
    return np.all(lhs >= rhs, axis=1)


@dataclass(frozen=True)
class SelectionResult:
    consistency: np.ndarray   # (N,) in [0, 1]; exactly 1.0 iff label attains row max
    clean_mask: np.ndarray    # (N,) bool


def compute_selection(counts: np.ndarray, state: LabelState, theta_s: float,
                      balance: bool = True) -> SelectionResult:
    """Consistency of each sample's label with the vote of its K neighbours,
    from the (N, M) neighbour label counts that ``build_neighbour_index``
    returns given ``state``; each row sums to K. Without ``balance`` every
    class count is taken as 1; dividing by 1 is exact, so one path serves
    both votes."""
    Param(bool).check("balance", balance)
    pi = state.class_counts if balance else np.ones_like(state.class_counts)
    q = balance_distribution(counts / counts[0].sum(), pi)
    lab = state.working_labels
    # each row has K >= 1 votes for classes of count >= 1, so its max is > 0
    c = q[np.arange(counts.shape[0]), lab] / q.max(axis=1)
    exact = exact_top_mask(counts, pi, lab)
    # Pin c to exactly 1.0 iff the integer predicate holds, so thresholding at
    # theta_s = 1 is an exact argmax-membership test rather than a float compare.
    c = np.where(exact, 1.0, np.minimum(c, np.nextafter(1.0, 0.0)))
    return SelectionResult(c, select_clean(c, theta_s))


def select_clean(consistency: np.ndarray, theta_s: float) -> np.ndarray:
    TRAIN_PARAMS["theta_s"].check("theta_s", theta_s)
    return np.asarray(consistency, dtype=np.float64) >= theta_s


def baseline_small_loss_predefined(losses: np.ndarray, tau: float) -> np.ndarray:
    """Select the ceil((1-tau)*N) smallest-loss samples, the product rounded to
    9 decimals so that tau = k/N keeps N - k; ties by ascending index."""
    TAU.check("tau", tau)
    losses = np.asarray(losses, dtype=np.float64)
    n = losses.shape[0]
    m = math.ceil(round((1.0 - tau) * n, 9))
    order = np.argsort(losses, kind="stable")
    mask = np.zeros(n, dtype=bool)
    mask[order[:m]] = True
    return mask


def baseline_gmm_loss(losses: np.ndarray) -> np.ndarray:
    """Two-component 1-D Gaussian mixture on the loss values via EM, started
    at their 10th and 90th percentiles; selects the samples whose posterior
    under the lower-mean component exceeds 0.5. Losses spread so far that
    the fit's arithmetic overflows are a DEGENERATE_FIT too."""
    x = np.asarray(losses, dtype=np.float64)
    if x.shape[0] < 2:
        raise DataError("EMPTY_DATASET", "need at least 2 losses for a mixture fit")
    if not np.all(np.isfinite(x)):
        raise NumericError("NON_FINITE_INPUT", "losses contain non-finite values")
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _gmm_em(x)[0]
    except FloatingPointError as exc:
        raise NumericError("DEGENERATE_FIT",
                           f"the loss spread overflows ({exc})") from None


def _gmm_em(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                    np.ndarray]:
    """The EM of baseline_gmm_loss: (mask, weights, means, variances).

    Each iteration works on component-major (2, N) buffers allocated once.
    An M-step sum is the last column of a running sum along the samples,
    which adds them in index order as ``.sum(axis=0)`` of an (N, 2) array
    does; a contiguous ``.sum(axis=1)`` is pairwise and gives other bits.
    """
    var0 = float(x.var())
    if var0 < 1e-8:
        raise NumericError("DEGENERATE_FIT", "loss variance collapsed")
    mu = np.percentile(x, [10.0, 90.0])
    var = np.array([var0, var0])
    w = np.array([0.5, 0.5])
    dev = np.empty((2, x.size))    # x - mu, then an M-step product
    resp = np.empty((2, x.size))   # log densities, then responsibilities
    run = np.empty((2, x.size))    # running sums
    lse = np.empty(x.size)
    prev_ll = -np.inf
    for _ in range(_GMM_MAX_ITER):
        np.subtract(x, mu[:, None], out=dev)
        np.square(dev, out=resp)
        resp /= (2.0 * var)[:, None]
        np.subtract((np.log(w) - 0.5 * np.log(2.0 * np.pi * var))[:, None],
                    resp, out=resp)
        np.logaddexp(resp[0], resp[1], out=lse)
        resp -= lse
        np.exp(resp, out=resp)
        ll = float(lse.mean())
        nk = np.cumsum(resp, axis=1, out=run)[:, -1].copy()
        if not nk.min() > 0:
            raise NumericError("DEGENERATE_FIT", "a mixture component is empty")
        w = nk / x.size
        np.multiply(resp, x, out=dev)
        mu = np.cumsum(dev, axis=1, out=run)[:, -1] / nk
        np.subtract(x, mu[:, None], out=dev)
        np.square(dev, out=dev)
        dev *= resp
        var = np.cumsum(dev, axis=1, out=run)[:, -1] / nk
        if not var.min() >= 1e-8:   # nan too
            raise NumericError("DEGENERATE_FIT", "component variance collapsed")
        if abs(ll - prev_ll) < _GMM_TOL:
            break
        prev_ll = ll
    return resp[int(np.argmin(mu))] > 0.5, w, mu, var
