import numpy as np
import pytest

from ssrlab import (OPEN_SET, NoiseSpec, NoisyDataset, SynthSpec, apply_noise,
                    make_gaussian_dataset)
from ssrlab.errors import ConfigError, DataError


def one_nn_accuracy(train, test):
    d2 = ((test.features[:, None, :] - train.features[None, :, :]) ** 2).sum(-1)
    pred = train.observed_labels[d2.argmin(axis=1)]
    return float((pred == test.observed_labels).mean())


# --- synthetic generation ----------------------------------------------------

def test_same_seed_bitwise_identical():
    spec = SynthSpec(num_classes=3, per_class=40, dim=8, seed=5)
    a = make_gaussian_dataset(spec)
    b = make_gaussian_dataset(spec)
    assert np.array_equal(a.train.features, b.train.features)
    assert np.array_equal(a.test.features, b.test.features)
    assert np.array_equal(a.ood_pool, b.ood_pool)


def test_zero_separation_chance_level():
    spec = SynthSpec(num_classes=4, per_class=500, dim=16, separation=0.0,
                     seed=0)
    synth = make_gaussian_dataset(spec)
    acc = one_nn_accuracy(synth.train, synth.test)
    assert abs(acc - 0.25) < 0.05


def test_large_separation_separable():
    spec = SynthSpec(num_classes=2, per_class=100, dim=16, separation=10.0,
                     seed=0, ood_classes=0)
    synth = make_gaussian_dataset(spec)
    assert one_nn_accuracy(synth.train, synth.test) >= 0.99


def test_centre_distances_match_separation():
    from ssrlab.noise import _simplex_centres
    centres = _simplex_centres(4, 8, 3.0)
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(np.linalg.norm(centres[i] - centres[j]) - 3.0) < 1e-12


def test_dim_too_small_for_centres():
    # every class and open-set cluster needs its own simplex axis
    for kwargs in (dict(num_classes=4, dim=3, ood_classes=0),
                   dict(num_classes=3, dim=4, ood_classes=2)):
        with pytest.raises(ConfigError) as exc:
            SynthSpec(per_class=5, **kwargs)
        assert exc.value.code == "RANGE_ERROR"
        assert str(exc.value) == (
            f"RANGE_ERROR: dim={kwargs['dim']} is below num_classes + "
            f"ood_classes = {kwargs['num_classes'] + kwargs['ood_classes']}")
    assert SynthSpec(num_classes=3, dim=5, ood_classes=2).dim == 5


def test_class_counts_override():
    spec = SynthSpec(num_classes=3, per_class=10, dim=8,
                     class_counts=(30, 20, 10), ood_classes=0)
    synth = make_gaussian_dataset(spec)
    assert np.bincount(synth.train.observed_labels).tolist() == [30, 20, 10]


def test_open_set_pool_is_the_last_draw():
    # the pool draws after the train and test sets, max(class_counts) rows
    # per open-set cluster, and none without open-set clusters
    def synth(ood_classes):
        return make_gaussian_dataset(SynthSpec(
            num_classes=3, dim=8, seed=2, class_counts=(30, 20, 10),
            ood_classes=ood_classes))
    with_pool, without = synth(2), synth(0)
    assert np.array_equal(with_pool.train.features, without.train.features)
    assert np.array_equal(with_pool.test.features, without.test.features)
    assert with_pool.ood_pool.shape == (60, 8)
    assert without.ood_pool.shape == (0, 8)


# --- symmetric: combined noise with no open set ------------------------------

def test_symmetric_zero_ratio_identity():
    synth = make_gaussian_dataset(SynthSpec(num_classes=3, per_class=30, dim=8))
    out = apply_noise(synth.train, NoiseSpec("symmetric", 0.0, seed=0))
    assert np.array_equal(out.observed_labels, synth.train.observed_labels)
    assert not out.is_noisy.any()


def test_symmetric_full_ratio_uniform_redraw():
    rng = np.random.default_rng(1)
    n, m = 10_000, 10
    labels = rng.integers(0, m, n)
    ds = NoisyDataset(rng.normal(size=(n, 4)), labels, m, labels.copy())
    out = apply_noise(ds, NoiseSpec("symmetric", 1.0, seed=2))
    match = (out.observed_labels == out.true_labels).mean()
    assert abs(match - 1 / m) < 0.02


def test_symmetric_noisy_count_bounded():
    synth = make_gaussian_dataset(SynthSpec(num_classes=4, per_class=50, dim=8))
    for ratio in [0.1, 0.3, 0.5, 0.9]:
        out = apply_noise(synth.train, NoiseSpec("symmetric", ratio, seed=3))
        assert out.is_noisy.sum() <= int(ratio * out.n_samples)


# --- asymmetric --------------------------------------------------------------

def test_asymmetric_per_class_flip_counts():
    synth = make_gaussian_dataset(SynthSpec(num_classes=4, per_class=103, dim=8))
    pair = (1, 2, 3, 0)
    out = apply_noise(synth.train,
                      NoiseSpec("asymmetric", 0.4, pair_map=pair, seed=4))
    for cls in range(4):
        members = synth.train.observed_labels == cls
        flipped = (out.observed_labels[members] != cls).sum()
        assert flipped == int(0.4 * members.sum())
        changed = out.observed_labels[members & out.is_noisy]
        assert np.all(changed == pair[cls])


def test_asymmetric_zero_ratio_identity():
    synth = make_gaussian_dataset(SynthSpec(num_classes=3, per_class=20, dim=8))
    out = apply_noise(synth.train,
                      NoiseSpec("asymmetric", 0.0, pair_map=(1, 2, 0), seed=0))
    assert np.array_equal(out.observed_labels, synth.train.observed_labels)


def test_asymmetric_flips_always_noisy():
    synth = make_gaussian_dataset(SynthSpec(num_classes=3, per_class=40, dim=8))
    out = apply_noise(synth.train,
                      NoiseSpec("asymmetric", 0.5, pair_map=(1, 2, 0), seed=5))
    assert out.is_noisy.sum() == sum(int(0.5 * c) for c in
                                     np.bincount(synth.train.observed_labels))


def test_asymmetric_missing_or_bad_pair_map():
    synth = make_gaussian_dataset(SynthSpec(num_classes=3, per_class=10, dim=8))
    # no map, or a negative partner, is refused when the spec is built
    for pair_map in [None, (1, 2, -1)]:
        with pytest.raises(ConfigError) as exc:
            NoiseSpec("asymmetric", 0.4, pair_map=pair_map)
        assert exc.value.code == "RANGE_ERROR"
    # the class count is known only here; a partner past int64 is out of
    # range too, not an OverflowError
    for pair_map in [(0, 1, 2), (2**63, 2, 0), (10**30, 2, 0)]:
        with pytest.raises(DataError) as exc:
            apply_noise(synth.train,
                        NoiseSpec("asymmetric", 0.4, pair_map=pair_map))
        assert exc.value.code == "MISSING_PAIR_MAP"


# --- combined ----------------------------------------------------------------

def test_combined_all_open():
    synth = make_gaussian_dataset(SynthSpec(num_classes=4, per_class=250,
                                            dim=16, seed=1))
    out = apply_noise(synth.train,
                      NoiseSpec("combined", 0.3, open_ratio=1.0, seed=6),
                      synth.ood_pool)
    assert (out.true_labels == OPEN_SET).sum() == 300
    # observed labels untouched: open-set noise keeps the in-vocabulary label
    assert np.array_equal(out.observed_labels, synth.train.observed_labels)
    swapped = out.true_labels == OPEN_SET
    assert not np.array_equal(out.features[swapped],
                              synth.train.features[swapped])
    assert np.array_equal(out.features[~swapped],
                          synth.train.features[~swapped])


def test_combined_half_open():
    synth = make_gaussian_dataset(SynthSpec(num_classes=4, per_class=250,
                                            dim=16, seed=2))
    out = apply_noise(synth.train,
                      NoiseSpec("combined", 0.3, open_ratio=0.5, seed=7),
                      synth.ood_pool)
    n_open = (out.true_labels == OPEN_SET).sum()
    assert n_open == 150
    n_closed_flips = ((out.observed_labels != synth.train.observed_labels)
                      & (out.true_labels != OPEN_SET)).sum()
    assert n_closed_flips <= 150  # uniform redraw may coincide
    changed_feats = (out.features != synth.train.features).any(axis=1)
    assert changed_feats.sum() == 150


def test_combined_open_zero_reduces_to_symmetric():
    synth = make_gaussian_dataset(SynthSpec(num_classes=3, per_class=100,
                                            dim=8, seed=3))
    sym = apply_noise(synth.train, NoiseSpec("symmetric", 0.4, seed=9))
    comb = apply_noise(synth.train,
                       NoiseSpec("combined", 0.4, open_ratio=0.0, seed=9),
                       synth.ood_pool)
    assert np.array_equal(sym.observed_labels, comb.observed_labels)
    assert np.array_equal(sym.features, comb.features)
    assert np.array_equal(sym.true_labels, comb.true_labels)


def test_combined_pool_too_small():
    synth = make_gaussian_dataset(SynthSpec(num_classes=3, per_class=100,
                                            dim=8))
    for pool, size in [(np.ones((5, 8)), 5), (None, 0)]:
        with pytest.raises(DataError) as exc:
            apply_noise(synth.train, NoiseSpec("combined", 0.5, open_ratio=1.0),
                        pool)
        assert str(exc.value) == ("OOD_POOL_TOO_SMALL: need 150 pool vectors, "
                                  f"have {size}")


def test_combined_pool_of_another_width():
    synth = make_gaussian_dataset(SynthSpec(num_classes=3, per_class=100,
                                            dim=8))
    with pytest.raises(DataError) as exc:
        apply_noise(synth.train, NoiseSpec("combined", 0.5, open_ratio=1.0),
                    np.ones((150, 6)))
    assert str(exc.value) == ("SHAPE_MISMATCH: the open-set pool has 6 "
                              "features, the dataset 8")


def test_combined_without_open_set_needs_no_ground_truth():
    synth = make_gaussian_dataset(SynthSpec(num_classes=3, per_class=30, dim=8))
    blind = NoisyDataset(synth.train.features, synth.train.observed_labels, 3)
    spec = NoiseSpec("combined", 0.5, seed=0)
    out = apply_noise(blind, spec)
    assert out.true_labels is None
    ref = apply_noise(synth.train, spec)
    assert np.array_equal(out.observed_labels, ref.observed_labels)
    with pytest.raises(DataError) as exc:
        apply_noise(blind, NoiseSpec("combined", 0.5, open_ratio=0.5),
                    synth.ood_pool)
    assert exc.value.code == "MISSING_GROUND_TRUTH"


@pytest.mark.parametrize("kind, total, open_ratio", [
    ("asymmetric", 1.5, 0.0), ("asymmetric", -0.5, 0.0),
    ("combined", 0.5, 2.0), ("combined", 1.5, 0.0), ("combined", -0.1, 0.0),
], ids=["asym_above_1", "asym_below_0", "open_above_1", "total_above_1",
        "total_below_0"])
def test_injectors_range_check_their_ratios(kind, total, open_ratio):
    # apply_noise draws only from a NoiseSpec, which checks every ratio
    with pytest.raises(ConfigError) as exc:
        NoiseSpec(kind, total, open_ratio=open_ratio,
                  pair_map=(1, 2, 0) if kind == "asymmetric" else None)
    assert exc.value.code == "RANGE_ERROR"


# --- spec validation and shared invariants -----------------------------------

def test_noise_spec_open_ratio_requires_combined():
    with pytest.raises(ConfigError):
        NoiseSpec("symmetric", 0.3, open_ratio=0.5)


def test_noise_spec_unknown_kind():
    with pytest.raises(ConfigError):
        NoiseSpec("saltpepper", 0.3)


def test_injectors_preserve_shape_and_features():
    synth = make_gaussian_dataset(SynthSpec(num_classes=4, per_class=60,
                                            dim=8, seed=4))
    for spec in [NoiseSpec("symmetric", 0.5, seed=1),
                 NoiseSpec("asymmetric", 0.4, pair_map=(1, 2, 3, 0), seed=1)]:
        out = apply_noise(synth.train, spec)
        assert out.features.shape == synth.train.features.shape
        assert np.array_equal(out.features, synth.train.features)
        assert out.is_noisy.mean() <= spec.total_ratio
