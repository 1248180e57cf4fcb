"""Versioned binary snapshots of named tensors.

Layout, all little-endian:

    magic   4 bytes  b"PRPT"
    version u32      currently 1
    count   u32      number of tensors
    manifest, one entry per tensor in sorted-name order:
        name_len u16, name utf-8, dtype code u8, ndim u8, dims u32 * ndim
    payloads: raw buffers in manifest order
    crc32   u32      over every preceding byte

Sorted names make the encoding canonical: saving, loading, and saving
again yields a byte-identical file.
"""

from __future__ import annotations

import math
import struct
import zlib
from pathlib import Path

import numpy as np

MAGIC = b"PRPT"
VERSION = 1

_DTYPE_CODES = {np.dtype("<f4"): 0, np.dtype("<f8"): 1, np.dtype("<i8"): 2}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


class CheckpointError(ValueError):
    """Bad magic, version, checksum, or tensor mismatch against a model."""


def save_tensors(path, tensors: dict) -> None:
    """Write a name -> ndarray mapping; see module docstring for the layout."""
    chunks = [MAGIC, struct.pack("<II", VERSION, len(tensors))]
    payloads = []
    for name in sorted(tensors):
        arr = np.asarray(tensors[name])
        if not arr.flags.c_contiguous:  # ascontiguousarray would promote 0-d to 1-d
            arr = np.ascontiguousarray(arr)
        dtype = arr.dtype.newbyteorder("<")
        if np.dtype(dtype) not in _DTYPE_CODES:
            raise CheckpointError(f"tensor {name!r}: unsupported dtype {arr.dtype}")
        encoded = name.encode()
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<BB", _DTYPE_CODES[np.dtype(dtype)], arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        payloads.append(arr.astype(dtype, copy=False).tobytes())
    blob = b"".join(chunks) + b"".join(payloads)
    blob += struct.pack("<I", zlib.crc32(blob))
    Path(path).write_bytes(blob)


def load_tensors(path) -> dict:
    blob = Path(path).read_bytes()
    if len(blob) < 16 or blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    (stored_crc,) = struct.unpack("<I", blob[-4:])
    if zlib.crc32(blob[:-4]) != stored_crc:
        raise CheckpointError(f"{path}: CRC32 mismatch, file is corrupt")
    version, count = struct.unpack("<II", blob[4:12])
    if version != VERSION:
        raise CheckpointError(f"{path}: version {version} unsupported (expected {VERSION})")
    body = memoryview(blob)[:-4]  # no read below passes the start of the CRC
    offset = 12
    manifest = []
    for i in range(count):
        try:
            (name_len,) = struct.unpack_from("<H", body, offset)
            name, code, ndim = struct.unpack_from(f"<{name_len}sBB", body, offset + 2)
            offset += 4 + name_len
            shape = struct.unpack_from(f"<{ndim}I", body, offset)
            name = name.decode()
        except (struct.error, UnicodeDecodeError):
            raise CheckpointError(f"{path}: manifest entry {i} of {count} runs past the "
                                  "payloads or has a name that is not UTF-8") from None
        offset += 4 * ndim
        if code not in _CODE_DTYPES:
            raise CheckpointError(f"{path}: tensor {name!r} has unknown dtype code {code}")
        manifest.append((name, _CODE_DTYPES[code], shape))
    tensors = {}
    for name, dtype, shape in manifest:
        n_bytes = math.prod(shape) * dtype.itemsize
        if offset + n_bytes > len(body):
            raise CheckpointError(f"{path}: tensor {name!r} of shape {shape} needs {n_bytes} "
                                  f"payload bytes, but {len(body) - offset} remain")
        tensors[name] = np.frombuffer(body[offset:offset + n_bytes], dtype).reshape(shape).copy()
        offset += n_bytes
    if offset != len(body):
        raise CheckpointError(f"{path}: payload length mismatch at byte {offset}")
    return tensors


def save_training_state(path, model, velocities: dict, epoch: int, seed: int,
                        best_acc: float = -1.0, history=()) -> None:
    """Snapshot parameters, BN running stats, optimizer velocities, RNG seed,
    the best test accuracy so far and the per-epoch history, one
    (epoch, train_loss, train_acc, test_acc) row per finished epoch."""
    tensors = dict(model.store.state_arrays())
    for name, v in velocities.items():
        tensors[f"opt.velocity.{name}"] = v
    tensors["meta.epoch"] = np.asarray(epoch, dtype=np.int64)
    tensors["meta.seed"] = np.asarray(seed, dtype=np.int64)
    tensors["meta.best_acc"] = np.asarray(best_acc, dtype=np.float64)
    tensors["meta.history"] = np.asarray(history, dtype=np.float64).reshape(-1, 4)
    save_tensors(path, tensors)


def load_training_state(path, model) -> dict:
    """Restore a snapshot into a model; returns velocities and metadata.

    Every model tensor must be present with the exact shape, and so must
    ``meta.epoch`` and ``meta.seed``; mismatches raise naming the offending
    tensor.
    """
    tensors = load_tensors(path)
    for name in (*model.store.names(), "meta.epoch", "meta.seed"):
        if name not in tensors:
            raise CheckpointError(f"{path}: tensor {name!r} missing from checkpoint")
    for name, entry in model.store.items():
        arr = tensors[name]
        if tuple(arr.shape) != entry.value.shape:
            raise CheckpointError(
                f"{path}: tensor {name!r} shape {tuple(arr.shape)} does not match "
                f"model shape {entry.value.shape}"
            )
        model.store.set_value(name, arr.astype(model.store.dtype, copy=False))
    velocities = {}
    prefix = "opt.velocity."
    for name, arr in tensors.items():
        if name.startswith(prefix):
            velocities[name[len(prefix):]] = arr.astype(model.store.dtype, copy=False).copy()
    return {
        "velocities": velocities,
        "epoch": int(tensors["meta.epoch"]),
        "seed": int(tensors["meta.seed"]),
        # absent from checkpoints written before they were recorded
        "best_acc": float(tensors.get("meta.best_acc", -1.0)),
        "history": tensors.get("meta.history", np.zeros((0, 4))),
    }
