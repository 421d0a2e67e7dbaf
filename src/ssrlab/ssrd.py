"""SSRD binary embedding format.

Layout (little-endian): magic "SSRD", u16 version, u32 N, u32 d, u32 M,
u8 flags (bit0 = has true labels), then N*d float32 features row-major,
N u32 observed labels and optionally N int32 true labels (-1 = open-set
sentinel); pools have M = 0. Other flag bits and trailing bytes are errors.
"""
from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .data import NoisyDataset
from .errors import DataError

MAGIC = b"SSRD"
VERSION = 1
_HEADER = struct.Struct("<4sHIIIB")

FLAG_TRUE_LABELS = 0x01


def write_atomic(path, payload: bytes) -> None:
    """Write payload to a temp file beside path, then os.replace it onto
    path: an interrupted write leaves path as it was (absent, or the old
    file) and removes the temp file. An OSError names path, not the temp
    file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            exc.filename = str(path)
        raise


def write_dataset(path, dataset: NoisyDataset) -> None:
    _write(path, dataset.features, dataset.observed_labels, dataset.num_classes,
           dataset.true_labels)


def write_pool(path, features: np.ndarray) -> None:
    feats = np.asarray(features, dtype=np.float64)
    _write(path, feats, np.zeros(feats.shape[0], dtype=np.int64), 0, None)


def _write(path, features, observed_labels, num_classes, true_labels) -> None:
    n, d = features.shape
    flags = 0 if true_labels is None else FLAG_TRUE_LABELS
    parts = [_HEADER.pack(MAGIC, VERSION, n, d, num_classes, flags),
             np.ascontiguousarray(features, dtype="<f4").tobytes(),
             np.ascontiguousarray(observed_labels, dtype="<u4").tobytes()]
    if true_labels is not None:
        parts.append(np.ascontiguousarray(true_labels, dtype="<i4").tobytes())
    write_atomic(path, b"".join(parts))


def _read(path) -> dict:
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size or data[:4] != MAGIC:
        raise DataError("BAD_MAGIC", f"{path} is not an SSRD file")
    magic, version, n, d, m, flags = _HEADER.unpack_from(data)
    if version != VERSION:
        raise DataError("BAD_MAGIC", f"unsupported SSRD version {version}")
    if flags & ~FLAG_TRUE_LABELS:
        raise DataError("BAD_FLAGS", f"{path} sets unknown flag bits "
                        f"{flags & ~FLAG_TRUE_LABELS:#04x}")
    off = _HEADER.size

    def take(dtype, count):
        nonlocal off
        nbytes = np.dtype(dtype).itemsize * count
        if off + nbytes > len(data):
            raise DataError("TRUNCATED_FILE",
                            f"{path} ends before its declared payload")
        arr = np.frombuffer(data, dtype=dtype, count=count, offset=off)
        off += nbytes
        return arr

    feats = take("<f4", n * d).reshape(n, d).astype(np.float64)
    obs = take("<u4", n).astype(np.int64)
    true = take("<i4", n).astype(np.int64) if flags & FLAG_TRUE_LABELS else None
    if off != len(data):
        raise DataError("TRAILING_BYTES", f"{path} has {len(data) - off} bytes "
                        "past its declared payload")
    return {"features": feats, "observed_labels": obs, "num_classes": int(m),
            "true_labels": true}


def load_embeddings(path) -> NoisyDataset:
    """Read a dataset file, which the NoisyDataset checks. Files without true
    labels load fine; evaluation metrics are simply unavailable for them."""
    raw = _read(path)
    if raw["num_classes"] == 0:
        raise DataError("SHAPE_MISMATCH",
                        f"{path} is a pool file (M = 0), not a dataset")
    return NoisyDataset(**raw)


def load_pool(path) -> np.ndarray:
    raw = _read(path)
    if raw["num_classes"] != 0:
        raise DataError("SHAPE_MISMATCH", f"{path} is a dataset, not a pool")
    return raw["features"]
