import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ssrlab import (OPEN_SET, NoisyDataset, load_embeddings, load_pool,
                    write_dataset, write_pool)
from ssrlab.errors import DataError
from ssrlab.ssrd import _HEADER, MAGIC, _read


def f32_dataset(seed=0, n=25, d=6, m=3, with_truth=True):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, d)).astype(np.float32).astype(np.float64)
    obs = rng.integers(0, m, n)
    true = None
    if with_truth:
        true = obs.copy()
        true[:3] = (obs[:3] + 1) % m
        true[3] = OPEN_SET
    return NoisyDataset(feats, obs, m, true)


def test_round_trip_exact(tmp_path):
    ds = f32_dataset()
    path = tmp_path / "data.ssrd"
    write_dataset(path, ds)
    back = load_embeddings(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.observed_labels, ds.observed_labels)
    assert back.num_classes == ds.num_classes
    assert np.array_equal(back.true_labels, ds.true_labels)
    assert np.array_equal(back.is_noisy, ds.is_noisy)


def test_round_trip_without_truth(tmp_path):
    ds = f32_dataset(with_truth=False)
    path = tmp_path / "plain.ssrd"
    write_dataset(path, ds)
    back = load_embeddings(path)
    assert back.true_labels is None
    assert back.is_noisy is None
    assert np.array_equal(back.features, ds.features)


def test_pool_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    pool = rng.normal(size=(12, 4)).astype(np.float32).astype(np.float64)
    path = tmp_path / "pool.ssrd"
    write_pool(path, pool)
    assert np.array_equal(load_pool(path), pool)


def test_pool_and_dataset_not_interchangeable(tmp_path):
    ds_path = tmp_path / "d.ssrd"
    pool_path = tmp_path / "p.ssrd"
    write_dataset(ds_path, f32_dataset())
    write_pool(pool_path, np.ones((3, 2)))
    with pytest.raises(DataError) as exc:
        load_embeddings(pool_path)
    assert exc.value.code == "SHAPE_MISMATCH"
    with pytest.raises(DataError):
        load_pool(ds_path)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.ssrd"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(DataError) as exc:
        load_embeddings(path)
    assert exc.value.code == "BAD_MAGIC"


def test_unsupported_version(tmp_path):
    path = tmp_path / "v9.ssrd"
    path.write_bytes(struct.pack("<4sHIIIB", b"SSRD", 9, 1, 1, 2, 0) + b"\x00" * 8)
    with pytest.raises(DataError) as exc:
        load_embeddings(path)
    assert exc.value.code == "BAD_MAGIC"


def test_truncated_payload(tmp_path):
    path = tmp_path / "cut.ssrd"
    write_dataset(path, f32_dataset())
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(DataError) as exc:
        load_embeddings(path)
    assert exc.value.code == "TRUNCATED_FILE"


def test_loaded_dataset_validates(tmp_path):
    # a file with a label >= M must be rejected at load time
    ds = f32_dataset()
    path = tmp_path / "corrupt.ssrd"
    write_dataset(path, ds)
    blob = bytearray(path.read_bytes())
    # observed labels start right after the feature block
    off = 19 + ds.n_samples * ds.dim * 4
    blob[off:off + 4] = struct.pack("<I", 99)
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError) as exc:
        load_embeddings(path)
    assert exc.value.code == "LABEL_OUT_OF_RANGE"


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "tail.ssrd"
    write_dataset(path, f32_dataset())
    path.write_bytes(path.read_bytes() + b"garbage")
    with pytest.raises(DataError) as exc:
        load_embeddings(path)
    assert exc.value.code == "TRAILING_BYTES"


def test_unknown_flag_bit_rejected(tmp_path):
    path = tmp_path / "flags.ssrd"
    write_dataset(path, f32_dataset())
    blob = bytearray(path.read_bytes())
    blob[_HEADER.size - 1] |= 0x80   # flags are the last header byte
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError) as exc:
        load_embeddings(path)
    assert exc.value.code == "BAD_FLAGS"


def test_written_file_has_no_mask_section(tmp_path):
    ds = f32_dataset()
    path = tmp_path / "data.ssrd"
    write_dataset(path, ds)
    blob = path.read_bytes()
    assert blob[_HEADER.size - 1] == 0x01
    n, d = ds.n_samples, ds.dim
    assert len(blob) == _HEADER.size + 4 * n * d + 4 * n + 4 * n


def legacy_blob(ds, flags=0x03):
    """ds in the layout of earlier writers: flags 0x03, the true labels, then
    the noisy mask, one byte per sample; flags 0x02 leaves out the labels."""
    n, d = ds.features.shape
    parts = [_HEADER.pack(MAGIC, 1, n, d, ds.num_classes, flags),
             ds.features.astype("<f4").tobytes(),
             ds.observed_labels.astype("<u4").tobytes()]
    if flags & 0x01:
        parts.append(ds.true_labels.astype("<i4").tobytes())
    parts.append(ds.is_noisy.astype(np.uint8).tobytes())
    return b"".join(parts)


def test_file_with_mask_section_loads(tmp_path):
    ds = f32_dataset()
    path = tmp_path / "old.ssrd"
    path.write_bytes(legacy_blob(ds))
    back = load_embeddings(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.observed_labels, ds.observed_labels)
    assert np.array_equal(back.true_labels, ds.true_labels)
    assert back.is_noisy.tolist() == [True] * 4 + [False] * 21


# sample 0 is noisy and sample 24 clean; earlier writers wrote only 0 and 1
@pytest.mark.parametrize("index, byte", [(0, 0), (24, 1), (0, 2)])
def test_bad_mask_byte_rejected(tmp_path, index, byte):
    ds = f32_dataset()
    blob = bytearray(legacy_blob(ds))
    blob[len(blob) - ds.n_samples + index] = byte
    path = tmp_path / "flip.ssrd"
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError) as exc:
        load_embeddings(path)
    assert "noisy mask" in str(exc.value)


def test_mask_without_true_labels_rejected(tmp_path):
    path = tmp_path / "mask_only.ssrd"
    path.write_bytes(legacy_blob(f32_dataset(), flags=0x02))
    with pytest.raises(DataError) as exc:
        load_embeddings(path)
    assert "noisy mask needs true labels" in str(exc.value)


def _payload_size(n, d, flags):
    return 4 * n * d + 4 * n + 4 * n * (flags & 1) + n * ((flags >> 1) & 1)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(version=st.sampled_from([1, 1, 1, 0, 2]),
       n=st.one_of(st.integers(0, 8), st.integers(0, 2**32 - 1)),
       d=st.one_of(st.integers(0, 5), st.integers(0, 2**32 - 1)),
       m=st.integers(0, 2**32 - 1),
       flags=st.integers(0, 255),
       exact=st.booleans(),
       noise=st.binary(max_size=64),
       cut=st.one_of(st.none(), st.integers(0, 400)))
def test_read_fuzz_raises_only_data_error(tmp_path, version, n, d, m, flags,
                                          exact, noise, cut):
    """Random headers, flags and payload lengths: _read either raises
    DataError or returns arrays that fill the file exactly."""
    size = _payload_size(n, d, flags)
    body = (bytes(size) if exact and size <= 4096 else b"") + noise
    blob = _HEADER.pack(MAGIC, version, n, d, m, flags) + body
    if cut is not None:
        blob = blob[:cut]
    path = tmp_path / "fuzz.ssrd"
    path.write_bytes(blob)
    try:
        raw = _read(path)
    except DataError:
        return
    assert version == 1 and flags & ~0x03 == 0
    assert len(blob) == _HEADER.size + size
    assert raw["features"].shape == (n, d)
    assert raw["observed_labels"].shape == (n,)
    assert (raw["true_labels"] is not None) == bool(flags & 0x01)
