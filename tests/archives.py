"""CIFAR archive writers in the exact binary layouts, shared by the fixtures in
``conftest.py`` and by the acceptance suite, and a writer of malformed
checkpoints for the loader's tests."""

import struct
import zlib

import numpy as np

from propmod.checkpoint import save_tensors

# byte offsets in a checkpoint holding the one tensor "w" of rank 1
CKPT_VERSION_AT, CKPT_COUNT_AT, CKPT_DTYPE_AT, CKPT_DIM_AT, CKPT_CRC_AT = 4, 8, 15, 17, 25


def write_patched_checkpoint(path, at: int, patch: bytes):
    """A CRC-valid checkpoint of one float32 tensor "w" of shape (1,), with
    ``patch`` written over its bytes from ``at`` on (at ``CKPT_CRC_AT`` it
    lands after the payload) and the CRC recomputed."""
    save_tensors(path, {"w": np.ones(1, dtype=np.float32)})
    raw = bytearray(path.read_bytes()[:-4])
    raw[at:at + len(patch)] = patch
    path.write_bytes(bytes(raw) + struct.pack("<I", zlib.crc32(raw)))
    return path


def write_overrunning_checkpoint(path, at: int, value: int):
    """The checkpoint of :func:`write_patched_checkpoint` with the u32 at byte
    ``at`` set to ``value``: its count or its one dimension, so the manifest
    claims more than the file holds."""
    return write_patched_checkpoint(path, at, struct.pack("<I", value))


def link_archives(source, root):
    """A directory at ``root`` holding symlinks to the ``.bin`` archives of
    ``source``, and nothing else."""
    root.mkdir(parents=True)
    for archive in sorted(source.glob("*.bin")):
        (root / archive.name).symlink_to(archive)
    return root


def write_cifar10_archives(root, train_per_file=40, test_count=20, seed=0):
    """Write archives in the exact CIFAR-10 binary layout (3073-byte records)."""
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)
    for i in range(1, 6):
        _write_record_file(root / f"data_batch_{i}.bin", train_per_file, 10, rng, coarse=False)
    _write_record_file(root / "test_batch.bin", test_count, 10, rng, coarse=False)
    return root


def write_cifar100_archives(root, train_count=60, test_count=20, seed=0, bad_label_at=None,
                            truncate=0):
    """Write archives in the exact CIFAR-100 binary layout (3074-byte records).

    ``bad_label_at`` sets that record's fine label byte of ``train.bin`` to 123,
    and ``truncate`` cuts that many bytes off its end; a ``train_count`` above
    10,000 puts either fault in a later block of the loader's reads."""
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)
    train = root / "train.bin"
    _write_record_file(train, train_count, 100, rng, coarse=True)
    _write_record_file(root / "test.bin", test_count, 100, rng, coarse=True)
    if bad_label_at is not None or truncate:
        raw = bytearray(train.read_bytes())
        if bad_label_at is not None:
            raw[bad_label_at * 3074 + 1] = 123
        train.write_bytes(bytes(raw[:len(raw) - truncate]))
    return root


def _write_record_file(path, count, num_classes, rng, coarse):
    rows = []
    for i in range(count):
        label = i % num_classes
        pixels = rng.integers(0, 256, size=3072, dtype=np.uint8)
        if coarse:
            head = np.array([label % 20, label], dtype=np.uint8)
        else:
            head = np.array([label], dtype=np.uint8)
        rows.append(np.concatenate([head, pixels]))
    path.write_bytes(np.concatenate(rows).tobytes())
