"""CIFAR archive writers in the exact binary layouts, shared by the fixtures in
``conftest.py`` and by the acceptance suite."""

import numpy as np


def write_cifar10_archives(root, train_per_file=40, test_count=20, seed=0):
    """Write archives in the exact CIFAR-10 binary layout (3073-byte records)."""
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)
    for i in range(1, 6):
        _write_record_file(root / f"data_batch_{i}.bin", train_per_file, 10, rng, coarse=False)
    _write_record_file(root / "test_batch.bin", test_count, 10, rng, coarse=False)
    return root


def write_cifar100_archives(root, train_count=60, test_count=20, seed=0):
    """Write archives in the exact CIFAR-100 binary layout (3074-byte records)."""
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)
    _write_record_file(root / "train.bin", train_count, 100, rng, coarse=True)
    _write_record_file(root / "test.bin", test_count, 100, rng, coarse=True)
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
