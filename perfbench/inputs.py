"""Benchmark inputs as pure functions of the workload seed.

The library never sees the seed of a workload's inputs, only what is made
here: CIFAR-10 archives in the exact binary layout (3073-byte records,
10,000 per file), and the small double-precision batch the gradient oracle
uses.
"""

from __future__ import annotations

import zlib
from pathlib import Path

import numpy as np

CIFAR10_RECORD = 3073
CIFAR10_PER_FILE = 10_000
CIFAR10_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR10_TEST_FILE = "test_batch.bin"


def rng_for(seed: int, label: str) -> np.random.Generator:
    """Independent stream per (seed, purpose)."""
    return np.random.default_rng([seed, zlib.crc32(label.encode())])


def cifar10_records(seed: int, name: str, count: int = CIFAR10_PER_FILE) -> bytes:
    """One archive file's bytes: a label byte (0-9) then 3x1024 channel-planar pixels."""
    rng = rng_for(seed, "cifar10/" + name)
    records = np.empty((count, CIFAR10_RECORD), dtype=np.uint8)
    records[:, 0] = rng.integers(0, 10, size=count, dtype=np.uint8)
    records[:, 1:] = rng.integers(0, 256, size=(count, CIFAR10_RECORD - 1), dtype=np.uint8)
    return records.tobytes()


def write_cifar10(root, seed: int, per_file: int = CIFAR10_PER_FILE) -> Path:
    """Write the five train archives and the test archive under ``root``."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for name in CIFAR10_TRAIN_FILES + [CIFAR10_TEST_FILE]:
        (root / name).write_bytes(cifar10_records(seed, name, per_file))
    return root


def normal_batch(seed: int, label: str, shape=(2, 3, 8, 8), num_classes: int = 10):
    """Standard-normal float64 images with uniform labels; (2, 3, 8, 8) is the
    acceptance gradient oracle's input shape."""
    rng = rng_for(seed, label)
    x = rng.standard_normal(shape)
    labels = rng.integers(0, num_classes, size=shape[0])
    return x, labels
