import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (dense_cosine, full_sort_oracle,
                     neighbour_label_distribution, neighbour_votes_per_row,
                     topk_lexsort)
from ssrlab import LabelState, build_neighbour_index, selector
from ssrlab.errors import ConfigError, DataError, NumericError
from ssrlab.selector import (_tile_topk, balance_distribution,
                             baseline_gmm_loss, baseline_small_loss_predefined,
                             compute_selection, exact_top_mask,
                             neighbour_label_counts, select_clean)


# --- build_neighbour_index ---------------------------------------------------

def index_sims(feats, index):
    """The oracle's similarities at the index's neighbour ids."""
    return np.take_along_axis(dense_cosine(feats), index, axis=1)


def test_index_identical_vectors_tie_break():
    feats = np.tile([1.0, 2.0], (3, 1))
    index = build_neighbour_index(feats, 2)
    assert index.tolist() == [[1, 2], [0, 2], [0, 1]]
    assert np.allclose(index_sims(feats, index), 1.0)


def test_index_basis_vectors_k1():
    feats = np.eye(3)
    index = build_neighbour_index(feats, 1)
    assert index.tolist() == [[1], [0], [0]]
    assert np.allclose(index_sims(feats, index), 0.0)


def test_index_matches_full_sort_oracle():
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(200, 8))
    index = build_neighbour_index(feats, 10)
    ids = full_sort_oracle(feats, 10)
    assert np.array_equal(index, ids)
    assert np.array_equal(index_sims(feats, index),
                          np.take_along_axis(dense_cosine(feats), ids, axis=1))


@st.composite
def exact_tie_heavy_features(draw):
    """Rows drawn from a small pool of patterns with entries in {0, +-1, +-2}
    and squared norm 4 (one +-2 or four +-1), each times a power of two: the
    unit vectors have entries in {0, +-1/2, +-1}, so every dot product is
    exact in any summation order and equal similarities tie exactly."""
    d = draw(st.integers(4, 6))
    pool = []
    for single, perm, signs in draw(st.lists(st.tuples(
            st.booleans(), st.permutations(range(d)),
            st.lists(st.sampled_from((-1.0, 1.0)), min_size=4, max_size=4)),
            min_size=1, max_size=6)):
        row = np.zeros(d)
        if single:
            row[perm[0]] = 2.0 * signs[0]
        else:
            row[list(perm[:4])] = signs
        pool.append(row)
    n = draw(st.integers(2, 40))
    pick = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    power = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    feats = np.array([pool[p] for p in pick]) * np.exp2(power)[:, None]
    return feats, draw(st.integers(1, n - 1)), draw(st.integers(1, 2 * n * n))


def tile_rows(draw, feats):
    """A row cap for the index's tiles, so that tiles limited by rows and
    tiles limited by values both occur; drawn apart from the case, whose
    draws the tie digests of tests/digests.py replay."""
    return draw(st.integers(1, len(feats)))


@settings(max_examples=200, deadline=None)
@given(exact_tie_heavy_features(), st.data())
def test_tiled_index_equals_dense_oracle(case, data):
    # tile sizes range from one row per tile to the whole matrix in one tile
    feats, k, tile_elems = case
    with mock.patch.object(selector, "_TILE_ELEMS", tile_elems), \
            mock.patch.object(selector, "_TILE_ROWS", tile_rows(data.draw, feats)):
        index = build_neighbour_index(feats, k)
    ids = full_sort_oracle(feats, k)
    assert np.array_equal(index, ids)
    assert np.array_equal(index_sims(feats, index),
                          np.take_along_axis(dense_cosine(feats), ids, axis=1))


@st.composite
def quantised_matrix_slice(draw):
    """A matrix of few distinct values (zeros of both signs, duplicated rows,
    -1 and 1), at least as wide as tall, a row slice of it and a k below its
    width."""
    n = draw(st.integers(1, 30))
    m = draw(st.integers(max(2, n), 40))
    values = st.sampled_from((-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0))
    base = draw(st.lists(st.lists(values, min_size=m, max_size=m),
                         min_size=1, max_size=n))
    pick = draw(st.lists(st.integers(0, len(base) - 1), min_size=n, max_size=n))
    sims = np.array([base[p] for p in pick])
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo + 1, n))
    return sims, lo, hi, draw(st.integers(1, m - 1))


def tile_topk(sims, lo, k):
    """_tile_topk on a copy of the rows of sims from lo, whose selves are
    the columns lo, lo + 1, ..."""
    tile = np.array(sims, dtype=np.float64)
    return _tile_topk(tile, lo, k, np.empty(tile.size, dtype=np.int64))


@settings(max_examples=200, deadline=None)
@given(quantised_matrix_slice())
def test_tile_topk_on_row_slices_equals_lexsort(case):
    sims, lo, hi, k = case
    expect = sims.copy()
    expect[np.arange(expect.shape[0]), np.arange(expect.shape[0])] = -np.inf
    assert np.array_equal(tile_topk(sims[lo:hi], lo, k),
                          topk_lexsort(expect, k)[lo:hi])


@st.composite
def settle_tile(draw):
    """Rows of a tile, their self columns from lo, and a k, with values a
    few units in the last place from 1, 0.5 and zeros of both signs: equal
    in the key's high bits or not, above 1 so that they clip together, and
    signed zeros or subnormals at the K-th place."""
    n = draw(st.integers(2, 20))
    r = draw(st.integers(1, n))
    cells = draw(st.lists(st.tuples(st.sampled_from((1.0, 0.5, 0.0, -0.0)),
                                    st.integers(-40, 40)),
                          min_size=r * n, max_size=r * n))
    sims = np.array([b + o * np.spacing(b) for b, o in cells]).reshape(r, n)
    return sims, draw(st.integers(0, n - r)), draw(st.integers(1, n - 1))


@settings(max_examples=300, deadline=None)
@given(settle_tile())
def test_tile_topk_settle_conditions_equal_lexsort(case):
    sims, lo, k = case
    expect = np.clip(sims, -1.0, 1.0)
    own = np.arange(len(sims))
    expect[own, lo + own] = -np.inf
    assert np.array_equal(tile_topk(sims, lo, k), topk_lexsort(expect, k))


def test_tile_topk_straddling_tie_hand_case():
    # three entries tie at 0.5 across position k=2; the lowest index wins
    # (self is the last column)
    sims = [[1.0, 0.5, 0.5, 0.5, 0.0, 1.0]]
    assert tile_topk(sims, 5, 2).tolist() == [[0, 1]]


class SortSpy:
    """Stands in for numpy inside selector and counts the needles of each
    searchsorted: one per row the key does not settle, whose candidates
    are re-sorted."""

    def __init__(self):
        self.rows = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def searchsorted(self, a, v, *args, **kwargs):
        self.rows += np.size(v)
        return np.searchsorted(a, v, *args, **kwargs)


def resorted_rows(feats, k):
    """Rows that build_neighbour_index re-sorts from their candidates; its
    ids are checked against the oracle."""
    spy = SortSpy()
    with mock.patch.object(selector, "np", spy):
        index = build_neighbour_index(feats, k)
    assert np.array_equal(index, full_sort_oracle(feats, k))
    return spy.rows


def test_tie_path_skipped_without_ties():
    feats = np.random.default_rng(13).normal(size=(2000, 16))
    assert resorted_rows(feats, 100) == 0


def test_tie_path_taken_by_every_straddling_row():
    # each row has n - 1 = k + 1 neighbours at similarity 1: the smallest
    # straddling tie group, so every row must take the candidate re-sort
    feats = np.tile([1.0, 2.0], (5, 1))
    assert resorted_rows(feats, 3) == 5
    assert build_neighbour_index(feats, 3).tolist() == \
        [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2], [0, 1, 2]]


# --- the int64 order key -------------------------------------------------------

KEY_EDGE_KINDS = ("collide", "above_one", "antipodal", "k_max", "small_tile",
                  "dup_groups", "settle")


@st.composite
def key_edge_case(draw, kind):
    """Features that stress the int64 key of _tile_topk, and a k:
    - collide: near-duplicate rows, closer than 2^-30;
    - above_one: exact duplicates whose cosine rounds above 1, so clipped
      winners tie;
    - antipodal: duplicates of both signs, whose cosines clip at -1;
    - k_max: k = n - 1, where the k-th value is each row's minimum;
    - small_tile: the exact tie-heavy features with tiles and key chunks of
      a few values, so that tile GEMMs of any shape give the oracle's values
      (the oracle test also caps the tiles' rows);
    - dup_groups: exact duplicates of the exact tie-heavy rows in groups
      larger than k, so every row re-sorts a large tie group at 1;
    - settle: the conditions that let a row skip the re-sort. Signed basis
      vectors give cosines of exactly 1, -1 and +0, often at the K-th
      place, and copies of normal rows at odd scales round to unit vectors
      a few bits apart, so their cosines differ only in the low bits the
      key replaces, inside the top K and across its boundary. The BLAS
      gives neither -0.0 nor cosines far enough past 1 to differ in the
      key's high bits; settle_tile puts those into a tile directly.
    The last two values are _TILE_ELEMS and _KEY_ELEMS.
    """
    if kind == "small_tile":
        feats, k, tile_elems = draw(exact_tie_heavy_features())
        return feats, k, tile_elems, draw(st.integers(1, 2 * len(feats) ** 2))
    if kind == "dup_groups":
        rows = draw(exact_tie_heavy_features())[0][:draw(st.integers(1, 5))]
        k = draw(st.integers(1, 40))
        reps = draw(st.lists(st.integers(k + 1, k + 60), min_size=len(rows),
                             max_size=len(rows)))
        feats = np.repeat(rows, reps, axis=0)
        return feats, k, selector._TILE_ELEMS, selector._KEY_ELEMS
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "settle":
        d = draw(st.integers(2, 64))
        basis = np.eye(d)[rng.integers(0, d, draw(st.integers(0, 6)))]
        normal = np.repeat(rng.normal(size=(draw(st.integers(1, 3)), d)),
                           draw(st.integers(2, 6)), axis=0)
        basis *= rng.choice((-1.0, 1.0, 4.0), (len(basis), 1))
        normal *= rng.choice((1.0, 3.0, 5.0, 7.0), (len(normal), 1))
        feats = np.concatenate([basis, normal])
        feats = feats[rng.permutation(len(feats))]
        return (feats, draw(st.integers(1, len(feats) - 1)),
                selector._TILE_ELEMS, selector._KEY_ELEMS)
    d = draw(st.integers(2, 8))
    m = draw(st.integers(2 if kind == "above_one" else 1, 8))
    reps = draw(st.lists(st.integers(2 if kind == "above_one" else 1, 6),
                         min_size=m, max_size=m))
    feats = np.repeat(rng.normal(size=(m, d)), reps, axis=0)
    assume(feats.shape[0] >= 2)
    if kind == "collide":
        feats += rng.normal(size=feats.shape) * 2.0 ** -draw(st.integers(32, 48))
    if kind == "antipodal":
        feats *= rng.choice((-1.0, 1.0), size=(feats.shape[0], 1))
    n = feats.shape[0]
    k = n - 1 if kind == "k_max" else draw(st.integers(1, n - 1))
    if kind == "above_one":
        unit = feats / np.linalg.norm(feats, axis=1, keepdims=True)
        sims = unit @ unit.T
        np.fill_diagonal(sims, -np.inf)
        assume(sims.max() > 1.0)
    return feats, k, selector._TILE_ELEMS, selector._KEY_ELEMS


@pytest.mark.parametrize("kind", KEY_EDGE_KINDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_key_edge_cases_equal_full_sort_oracle(kind, data):
    feats, k, tile_elems, key_elems = data.draw(key_edge_case(kind))
    rows = (tile_rows(data.draw, feats) if kind == "small_tile"
            else selector._TILE_ROWS)
    with mock.patch.object(selector, "_TILE_ELEMS", tile_elems), \
            mock.patch.object(selector, "_KEY_ELEMS", key_elems), \
            mock.patch.object(selector, "_TILE_ROWS", rows):
        resorted = resorted_rows(feats, k)
    if kind == "dup_groups" and k > 1:
        # at least k candidates, all equal at 1
        assert resorted == len(feats)


def test_exact_path_skipped_on_normal_features():
    feats = np.random.default_rng(13).normal(size=(2000, 16))
    assert resorted_rows(feats, 100) == 0


def test_exact_path_takes_every_colliding_row():
    # 30 rows within 2^-40 of one direction: every row's candidates hold
    # all 29 others, more than k
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(1, 8)) + rng.normal(size=(30, 8)) * 2.0**-40
    assert resorted_rows(feats, 10) == 30


def test_duplicate_groups_are_resorted_from_candidates():
    # 10 groups of 200 duplicates, k = 100: every row's candidates are the
    # 199 others of its group
    feats = np.repeat(np.random.default_rng(0).normal(size=(10, 16)), 200,
                      axis=0)
    assert resorted_rows(feats, 100) == 2000


@pytest.mark.parametrize("feats, k, rows", [
    # every row's k-th value is 0: row 0 has two winners equal at 0, rows 1
    # and 2 a winner at 1 and one at 0
    (np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]), 2, 3),
    # every row's k-th value is <= 0: rows 0 and 1 have the k-th at -1, and
    # row 2 has two winners equal at 0
    (np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]), 2, 3),
    # rows 0, 1 and 2 have two winners equal at 1, and row 3 has three
    # columns at 0
    (np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), 2, 4),
])
def test_exact_path_takes_rows_with_tied_or_unit_winners(feats, k, rows):
    assert resorted_rows(feats, k) == rows


def test_index_memory_grows_with_n_times_k():
    # a dense N x N index peaks near 370 MB at this size; the tiled one holds
    # the (N, K) outputs plus one tile of similarities and its temporaries
    feats = np.random.default_rng(12).normal(size=(4000, 16))
    tracemalloc.start()
    try:
        build_neighbour_index(feats, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_index_tile_is_capped_in_rows():
    # sym50_n2k's build: a tile of 2^20 values would be 524 rows, 8 MB, and
    # the whole build peaked at 11.4 MB; 256 rows hold it near 6.4 MB
    n, m = 2000, 4
    rng = np.random.default_rng(14)
    feats = rng.normal(size=(n, 32))
    labels = rng.integers(0, m, n)
    state = LabelState.from_working(labels, labels, m)
    tracemalloc.start()
    try:
        build_neighbour_index(feats, 100, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_index_self_excluded():
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(40, 5))
    index = build_neighbour_index(feats, 39)
    for i in range(40):
        assert i not in index[i]


def test_index_rows_sorted_descending():
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(60, 6))
    index = build_neighbour_index(feats, 20)
    diffs = np.diff(index_sims(feats, index), axis=1)
    assert (diffs <= 0).all()


def test_index_scale_invariance():
    rng = np.random.default_rng(6)
    feats = rng.normal(size=(50, 8))
    base = build_neighbour_index(feats, 5)
    scaled = feats.copy()
    scaled[7] *= 2.0  # power of two keeps the unit vector bit-identical
    again = build_neighbour_index(scaled, 5)
    assert np.array_equal(base, again)


def test_index_k_too_large():
    with pytest.raises(DataError) as exc:
        build_neighbour_index(np.eye(3), 3)
    assert exc.value.code == "K_TOO_LARGE"


def test_index_zero_norm_row():
    feats = np.eye(3)
    feats[1] = 0.0
    with pytest.raises(NumericError) as exc:
        build_neighbour_index(feats, 1)
    assert exc.value.code == "ZERO_NORM_VECTOR"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_index_non_finite_row(value):
    feats = np.eye(4)
    feats[2, 1] = value
    with pytest.raises(NumericError) as exc:
        build_neighbour_index(feats, 2)
    assert exc.value.code == "NON_FINITE_INPUT"


# --- voting and balancing ----------------------------------------------------

def ring_index(n, k):
    """Frozen index where row i holds the first k other indices ascending."""
    ids = np.array([[j for j in range(n) if j != i][:k] for i in range(n)])
    return ids.astype(np.int64)


def test_distribution_unanimous():
    labels = [0, 1, 1, 1, 1]
    state = LabelState.from_working(labels, labels, 3)
    q = neighbour_label_distribution(ring_index(5, 4), state)
    assert q[0].tolist() == [0.0, 1.0, 0.0]


def test_distribution_hand_count():
    labels = [0, 0, 0, 1, 2]
    state = LabelState.from_working(labels, labels, 3)
    q = neighbour_label_distribution(ring_index(5, 4), state)
    assert q[0].tolist() == [0.5, 0.25, 0.25]


def test_distribution_rows_sum_to_one():
    rng = np.random.default_rng(8)
    labels = rng.integers(0, 4, 30)
    state = LabelState.from_working(labels, labels, 4)
    q = neighbour_label_distribution(ring_index(30, 7), state)
    assert np.allclose(q.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(np.isin(np.round(q * 7), np.arange(8)))


def test_distribution_class_permutation():
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 4, 20)
    perm = np.array([2, 0, 3, 1])
    index = ring_index(20, 5)
    q = neighbour_label_distribution(
        index, LabelState.from_working(labels, labels, 4))
    qp = neighbour_label_distribution(
        index, LabelState.from_working(perm[labels], perm[labels], 4))
    # permuting class ids by perm moves column j to column perm[j]
    assert np.array_equal(q, qp[:, perm])


@st.composite
def vote_case(draw):
    """Any (N, K) neighbour ids and working labels over M classes."""
    n = draw(st.integers(1, 30))
    k = draw(st.integers(1, 12))
    m = draw(st.integers(1, 6))
    ids = draw(st.lists(st.integers(0, n - 1), min_size=n * k, max_size=n * k))
    labels = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    return (np.array(ids, dtype=np.int64).reshape(n, k),
            LabelState.from_working(labels, labels, m))


@settings(max_examples=200, deadline=None)
@given(vote_case())
def test_vote_counts_equal_per_row_bincount(case):
    ids, state = case
    counts = neighbour_label_counts(ids, state)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, neighbour_votes_per_row(
        ids, state.working_labels, state.class_counts.shape[0]))


@st.composite
def counts_case(draw):
    """Features, a k, small tile and key sizes, a tile row cap, and working
    labels over 2 to 6 classes, for the index's counts path."""
    kind = draw(st.sampled_from(("tie_heavy", "dup_groups", "settle")))
    if kind == "tie_heavy":
        feats, k, tile_elems = draw(exact_tie_heavy_features())
    else:
        feats, k, _, _ = draw(key_edge_case(kind))
        tile_elems = draw(st.integers(1, 2 * len(feats) ** 2))
    n = len(feats)
    m = draw(st.integers(2, 6))
    labels = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, m, n)
    return (feats, k, tile_elems, draw(st.integers(1, 2 * n * n)),
            tile_rows(draw, feats), LabelState.from_working(labels, labels, m))


@settings(max_examples=150, deadline=None)
@given(counts_case())
def test_index_counts_equal_counts_of_index_ids(case):
    feats, k, tile_elems, key_elems, rows, state = case
    with mock.patch.object(selector, "_TILE_ELEMS", tile_elems), \
            mock.patch.object(selector, "_KEY_ELEMS", key_elems), \
            mock.patch.object(selector, "_TILE_ROWS", rows):
        ids = build_neighbour_index(feats, k)
        counts = build_neighbour_index(feats, k, state)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, neighbour_label_counts(ids, state))


def test_index_counts_never_hold_n_by_k_ids():
    # the ids of one tile are counted and dropped: with tiles far below the
    # (N, K) ids, the peak is the unit rows, one tile, its keys and the
    # (N, M) counts, below the N*K*8 bytes that the ids alone would take
    n, k, m = 4000, 100, 4
    rng = np.random.default_rng(12)
    feats = rng.normal(size=(n, 16))
    labels = rng.integers(0, m, n)
    state = LabelState.from_working(labels, labels, m)
    with mock.patch.object(selector, "_TILE_ELEMS", 1 << 16):
        tracemalloc.start()
        try:
            counts = build_neighbour_index(feats, k, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < n * k * 8, f"peak {peak / (n * k * 8):.2f} x N*K*8"
    assert counts.shape == (n, m) and (counts.sum(axis=1) == k).all()


def test_vote_holds_one_n_by_k_array():
    # the gathered labels become the bincount cells in place: the vote's
    # peak is one (N, K) int64 array plus the (N, M) counts and N offsets
    n, k, m = 10000, 100, 4
    rng = np.random.default_rng(13)
    ids = rng.integers(0, n, size=(n, k))
    labels = rng.integers(0, m, size=n)
    state = LabelState.from_working(labels, labels, m)
    ids_before = ids.copy()
    tracemalloc.start()
    try:
        counts = neighbour_label_counts(ids, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * n * k * 8, f"peak {peak / (n * k * 8):.2f} x N*K*8"
    assert np.array_equal(ids, ids_before)
    assert np.array_equal(counts, neighbour_votes_per_row(ids, labels, m))


def test_balance_uniform_counts():
    q = np.array([[0.25, 0.5, 0.25], [0.6, 0.2, 0.2]])
    out = balance_distribution(q, [10, 10, 10])
    assert np.allclose(out, q / 10.0)
    assert np.array_equal(out.argmax(axis=1), q.argmax(axis=1))


def test_balance_flips_argmax_to_minority():
    out = balance_distribution(np.array([[0.5, 0.5]]), [100, 50])
    assert np.allclose(out, [[0.005, 0.01]])
    assert out.argmax(axis=1)[0] == 1


def test_balance_zero_count_column():
    out = balance_distribution(np.array([[0.5, 0.5, 0.0]]), [4, 4, 0])
    assert out[0].tolist() == [0.125, 0.125, 0.0]


def test_balance_duplication_invariance():
    # duplicating class j scales both its vote counts and pi_j, leaving the
    # balanced argmax unchanged
    rng = np.random.default_rng(12)
    for _ in range(20):
        m = 4
        counts = rng.integers(0, 6, size=(10, m)).astype(float)
        pi = rng.integers(1, 30, size=m).astype(float)
        j = int(rng.integers(0, m))
        r = int(rng.integers(1, 5))
        base = balance_distribution(counts, pi)
        scaled_counts = counts.copy()
        scaled_counts[:, j] *= (r + 1)
        pi2 = pi.copy()
        pi2[j] *= (r + 1)
        dup = balance_distribution(scaled_counts, pi2)
        assert np.array_equal(base.argmax(axis=1), dup.argmax(axis=1))


# --- selection ----------------------------------------------------------------

def test_select_theta_zero_selects_all():
    c = np.array([0.0, 0.3, 1.0])
    assert select_clean(c, 0.0).all()


def test_select_monotone_in_threshold():
    rng = np.random.default_rng(13)
    c = rng.random(100)
    prev = None
    for theta in [0.0, 0.2, 0.5, 0.9, 1.0]:
        mask = select_clean(c, theta)
        if prev is not None:
            assert not (mask & ~prev).any()
        prev = mask


def test_select_bad_threshold():
    with pytest.raises(ConfigError):
        select_clean(np.array([0.5]), 1.5)


def test_tie_with_row_max_is_selected():
    ids = np.array([[1, 2], [0, 2], [0, 1], [4, 5], [3, 5], [3, 4]],
                   dtype=np.int64)
    labels = [0, 1, 0, 1, 1, 1]
    state = LabelState.from_working(labels, labels, 2)
    result = compute_selection(neighbour_label_counts(ids, state), state,
                               theta_s=1.0)
    # sample 0: neighbour votes tie after balancing; its label is in the
    # argmax set, so c is exactly 1 and it is selected
    assert result.consistency[0] == 1.0
    assert result.clean_mask[0]
    # sample 1: zero votes for its own label
    assert result.consistency[1] == 0.0
    assert not result.clean_mask[1]


def test_consistency_never_rounds_up_to_one():
    rng = np.random.default_rng(14)
    for _ in range(30):
        n, k, m = 20, 5, 3
        ids = np.array([rng.choice([j for j in range(n) if j != i], k,
                                   replace=False) for i in range(n)])
        labels = rng.integers(0, m, n)
        state = LabelState.from_working(labels, labels, m)
        counts = neighbour_label_counts(ids, state)
        result = compute_selection(counts, state, theta_s=1.0)
        exact = exact_top_mask(counts, state.class_counts, labels)
        assert np.array_equal(result.consistency == 1.0, exact)
        assert np.array_equal(result.clean_mask, exact)


@st.composite
def unbalanced_vote_case(draw):
    """Neighbour ids and working labels with few classes and small K, so
    votes tie often; labels above a drawn class are never used, so those
    classes have a zero count."""
    n = draw(st.integers(1, 30))
    k = draw(st.integers(1, 8))
    m = draw(st.integers(1, 6))
    used = draw(st.integers(0, m - 1))
    ids = draw(st.lists(st.integers(0, n - 1), min_size=n * k, max_size=n * k))
    labels = draw(st.lists(st.integers(0, used), min_size=n, max_size=n))
    return (np.array(ids, dtype=np.int64).reshape(n, k),
            LabelState.from_working(labels, labels, m))


@settings(max_examples=200, deadline=None)
@given(unbalanced_vote_case())
def test_unbalanced_selection_equals_raw_vote_oracle(case):
    ids, state = case
    counts = neighbour_votes_per_row(ids, state.working_labels,
                                     state.class_counts.shape[0])
    own = counts[np.arange(ids.shape[0]), state.working_labels]
    top = counts.max(axis=1)
    result = compute_selection(counts, state, theta_s=1.0, balance=False)
    assert np.array_equal(result.clean_mask, own == top)
    assert np.allclose(result.consistency, own / top, rtol=1e-12, atol=0.0)


# --- loss-based baselines ----------------------------------------------------

def test_predefined_tau_zero():
    assert baseline_small_loss_predefined(np.array([3.0, 1.0]), 0.0).all()


def test_predefined_hand_case():
    mask = baseline_small_loss_predefined(np.array([0.1, 0.9, 0.2, 0.8]), 0.5)
    assert mask.tolist() == [True, False, True, False]


def test_predefined_tie_break():
    mask = baseline_small_loss_predefined(np.ones(4), 0.5)
    assert mask.tolist() == [True, True, False, False]


def test_predefined_tau_k_over_n_keeps_n_minus_k():
    # compare_selection_modes passes the noisy fraction k/N as tau; the
    # unrounded ceil((1 - k/N) * N) is N - k + 1 for 1 in 5 such pairs with
    # N < 600, (7, 6) and (9, 3) the first
    for n in range(1, 301):
        losses = np.arange(n, dtype=np.float64)
        for k in range(n):
            tau = float((np.arange(n) < k).mean())
            kept = baseline_small_loss_predefined(losses, tau)
            assert kept.sum() == n - k, (n, k)


@pytest.mark.parametrize("tau", [-0.1, 1.0, np.nan])
def test_predefined_tau_out_of_range(tau):
    with pytest.raises(ConfigError) as exc:
        baseline_small_loss_predefined(np.ones(4), tau)
    assert exc.value.code == "RANGE_ERROR"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.25, 0.5, np.nextafter(1.0, 0.0), 1.0]),
                min_size=1, max_size=60),
       st.floats(0.0, 1.0, exclude_max=True))
def test_predefined_on_negated_consistency_matches_lexsort(values, tau):
    # the fixed-ratio consistency selector keeps the ceil((1-tau)*N) most
    # consistent samples, the product rounded to 9 decimals, ties by
    # ascending index
    c = np.array(values)
    n = c.size
    order = np.lexsort((np.arange(n), -c))
    expect = np.zeros(n, dtype=bool)
    expect[order[:math.ceil(round((1.0 - tau) * n, 9))]] = True
    assert np.array_equal(baseline_small_loss_predefined(-c, tau), expect)


def test_gmm_separated_clusters():
    rng = np.random.default_rng(15)
    low = rng.normal(0.1, 0.02, 120)
    high = rng.normal(2.0, 0.1, 80)
    losses = np.concatenate([low, high])
    mask = baseline_gmm_loss(losses)
    assert mask[:120].all()
    assert not mask[120:].any()


def test_gmm_degenerate_fit():
    with pytest.raises(NumericError) as exc:
        baseline_gmm_loss(np.full(50, 0.3))
    assert exc.value.code == "DEGENERATE_FIT"


def test_gmm_empty_component_is_degenerate(monkeypatch):
    # a mean far past every loss takes no responsibility (nk = 0); the fit
    # stops before it divides by nk, so no RuntimeWarning comes first. The
    # percentile start never puts a mean there, so the start is patched
    rng = np.random.default_rng(17)
    losses = np.concatenate([rng.gamma(2.0, 0.1, 100), rng.gamma(20.0, 0.1, 100)])
    monkeypatch.setattr(np, "percentile", lambda x, q: np.array([0.5, 1e6]))
    with pytest.raises(NumericError) as exc:
        baseline_gmm_loss(losses)
    assert exc.value.code == "DEGENERATE_FIT"
    assert "component is empty" in str(exc.value)


def test_gmm_component_variance_collapse_is_degenerate():
    # the losses' variance is 0.09, but EM shrinks the low component onto
    # the nine equal losses
    with pytest.raises(NumericError) as exc:
        baseline_gmm_loss(np.array([0.0] * 9 + [1.0]))
    assert exc.value.code == "DEGENERATE_FIT"
    assert "component variance collapsed" in str(exc.value)


@pytest.mark.parametrize("losses", [
    [0.0] * 5 + [1e200] * 5, [0.0, 1e155, 2.0, 3.0],
    [-8e153, 8e153]])   # a finite variance, but EM's squares overflow
def test_gmm_loss_overflow_is_degenerate(losses):
    # the suite turns a RuntimeWarning into an error, so none may come first
    with pytest.raises(NumericError) as exc:
        baseline_gmm_loss(np.array(losses))
    assert exc.value.code == "DEGENERATE_FIT"
    assert "the loss spread overflows" in str(exc.value)


@pytest.mark.parametrize("losses, error, code", [
    ([], DataError, "EMPTY_DATASET"), ([0.3], DataError, "EMPTY_DATASET"),
    ([0.1, np.nan, 2.0], NumericError, "NON_FINITE_INPUT"),
    ([0.1, 2.0, -np.inf], NumericError, "NON_FINITE_INPUT")])
def test_gmm_rejects_bad_losses(losses, error, code):
    with pytest.raises(error) as exc:
        baseline_gmm_loss(np.array(losses))
    assert exc.value.code == code


def test_gmm_init_order_invariance(monkeypatch):
    # the low component is the one with the lower mean, not the first one:
    # started from the 90th and then the 10th percentile, the same samples win
    rng = np.random.default_rng(16)
    losses = np.concatenate([rng.normal(0.2, 0.05, 100),
                             rng.normal(1.8, 0.05, 100)])
    mask = baseline_gmm_loss(losses)
    percentile = np.percentile
    monkeypatch.setattr(np, "percentile", lambda x, q: percentile(x, q[::-1]))
    swapped = baseline_gmm_loss(losses)
    assert np.array_equal(mask, swapped)
