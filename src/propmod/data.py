"""CIFAR-10/100 binary ingestion, augmentation, subsetting, synthetic data.

The binary layouts are fixed: CIFAR-10 records are 3073 bytes (label byte
plus 3x1024 channel-planar pixels), CIFAR-100 records are 3074 bytes
(coarse label, fine label, pixels); the fine label is what training uses.
Pixels scale to [0, 1] and are then channel-normalized with constants
computed once from the training split and cached beside the archives,
since no canonical values ship with the data. The cache is renamed into
place whole, so concurrent runs never read a partial one, and a cache that
cannot be read as three means and three stds raises :class:`DataError`
naming it.

Everything downstream is a pure function of (seed, epoch, index): batch
composition and augmentation never depend on timing.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autograd import seeded_rng

DATA_DIR_ENV = "PRPT_DATA_DIR"

CIFAR10_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR10_TEST_FILES = ["test_batch.bin"]
CIFAR100_TRAIN_FILES = ["train.bin"]
CIFAR100_TEST_FILES = ["test.bin"]

_SUBDIRS = {"cifar10": "cifar-10-batches-bin", "cifar100": "cifar-100-binary"}
_RECORD_LEN = {"cifar10": 3073, "cifar100": 3074}  # label byte(s) + pixels


class DataError(ValueError):
    """Malformed archive: truncation (with byte offset) or bad label byte."""


@dataclass
class DatasetHandle:
    source: str                  # cifar10 | cifar100 | synthetic
    split: str                   # train | test
    images: np.ndarray           # (N, 3, 32, 32) float32, already normalized
    labels: np.ndarray           # (N,) int64
    num_classes: int
    mean: np.ndarray             # per-channel constants used
    std: np.ndarray

    def __len__(self):
        return len(self.labels)


def resolve_data_dir(path=None) -> Path:
    if path is not None:
        return Path(path)
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return Path(env)
    return Path("data")


def _base_dir(root: Path, which: str) -> Path:
    base = root / _SUBDIRS[which]
    return base if base.is_dir() else root


def _archive_paths(root: Path, which: str, split: str) -> list:
    files = {
        ("cifar10", "train"): CIFAR10_TRAIN_FILES,
        ("cifar10", "test"): CIFAR10_TEST_FILES,
        ("cifar100", "train"): CIFAR100_TRAIN_FILES,
        ("cifar100", "test"): CIFAR100_TEST_FILES,
    }[(which, split)]
    base = _base_dir(root, which)
    paths = [base / f for f in files]
    missing = [str(p) for p in paths if not p.is_file()]
    if missing:
        raise DataError(f"missing {which} {split} archive(s): {', '.join(missing)}")
    return paths


def _read_records(path: Path, record_len: int):
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size == 0 or raw.size % record_len != 0:
        good = (raw.size // record_len) * record_len
        raise DataError(
            f"{path}: truncated archive, size {raw.size} is not a multiple of "
            f"{record_len}-byte records (truncation at byte offset {good})"
        )
    return raw.reshape(-1, record_len)


def _decode(records: np.ndarray, which: str):
    """Validated (uint8 pixel rows, int64 labels) of one archive's records."""
    if which == "cifar10":
        labels = records[:, 0].astype(np.int64)
        if labels.max(initial=0) > 9:
            bad = int(np.argmax(labels > 9))
            raise DataError(f"record {bad}: label byte {labels[bad]} out of range [0, 10)")
        pixels = records[:, 1:]
    else:
        coarse = records[:, 0].astype(np.int64)
        labels = records[:, 1].astype(np.int64)
        if coarse.max(initial=0) > 19:
            bad = int(np.argmax(coarse > 19))
            raise DataError(f"record {bad}: coarse label byte {coarse[bad]} out of range [0, 20)")
        if labels.max(initial=0) > 99:
            bad = int(np.argmax(labels > 99))
            raise DataError(f"record {bad}: fine label byte {labels[bad]} out of range [0, 100)")
        pixels = records[:, 2:]
    return pixels, labels


def _read_split(root: Path, which: str, split: str):
    """Every record of one split: (N, 3, 32, 32) images in [0, 1] and (N,) labels."""
    parts = [_decode(_read_records(p, _RECORD_LEN[which]), which)
             for p in _archive_paths(root, which, split)]
    images = np.concatenate([px for px, _ in parts]).reshape(-1, 3, 32, 32).astype(np.float32)
    images /= np.float32(255.0)
    return images, np.concatenate([lb for _, lb in parts])


def compute_norm_stats(images: np.ndarray):
    """Per-channel float64 mean and std, one channel at a time: the float64
    temporaries then span one channel, not the whole split."""
    planes = [images[:, ch] for ch in range(images.shape[1])]
    mean = np.array([p.mean(dtype=np.float64) for p in planes])
    std = np.array([p.std(dtype=np.float64) for p in planes])
    return mean.astype(np.float32), std.astype(np.float32)


def load_or_compute_norm_stats(root: Path, which: str, train_images=None) -> tuple:
    """Per-channel mean/std from the training split, cached beside the data;
    ``train_images``, the split's images if the caller has read them, spare a reread."""
    stats_path = _base_dir(root, which) / f"normalization-{which}.json"
    if stats_path.is_file():
        try:
            stats = json.loads(stats_path.read_text())
            mean, std = (np.asarray(stats[k], dtype=np.float32) for k in ("mean", "std"))
        except (OSError, ValueError, KeyError, TypeError) as err:
            raise DataError(f"{stats_path}: unreadable normalization cache ({err})") from None
        if mean.shape != (3,) or std.shape != (3,):
            raise DataError(f"{stats_path}: normalization cache holds mean of shape "
                            f"{mean.shape} and std of shape {std.shape}, expected (3,)")
        return mean, std
    if train_images is None:
        train_images, _ = _read_split(root, which, "train")
    mean, std = compute_norm_stats(train_images)
    tmp = stats_path.with_name(f"{stats_path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps({"mean": mean.tolist(), "std": std.tolist()}))
        os.replace(tmp, stats_path)  # a concurrent reader sees no cache or a whole one
    except OSError:  # read-only data dir: recompute next time
        with contextlib.suppress(OSError):
            tmp.unlink()
    return mean, std


def _apply_subset(images, labels, subset):
    if subset is None:
        return images, labels
    count, seed = subset
    if count < 1:
        raise ValueError(f"subset of {count} samples: the count must be at least 1")
    if count > len(labels):
        raise DataError(f"subset of {count} exceeds dataset size {len(labels)}")
    idx = seeded_rng(seed, "subset").permutation(len(labels))[:count]
    idx.sort()
    return images[idx], labels[idx]


def load_cifar(path=None, which: str = "cifar10", split: str = "train",
               subset: tuple | None = None) -> DatasetHandle:
    """Load CIFAR binary archives into a normalized, ready-to-train handle."""
    if which not in ("cifar10", "cifar100"):
        raise ValueError(f"unknown dataset {which!r}")
    if split not in ("train", "test"):
        raise ValueError(f"unknown split {split!r}")
    root = resolve_data_dir(path)
    images, labels = _read_split(root, which, split)
    mean, std = load_or_compute_norm_stats(root, which, images if split == "train" else None)
    images, labels = _apply_subset(images, labels, subset)
    images = (images - mean[None, :, None, None]) / std[None, :, None, None]
    return DatasetHandle(
        source=which, split=split, images=images, labels=labels,
        num_classes=10 if which == "cifar10" else 100, mean=mean, std=std,
    )


def make_synthetic(num_classes: int = 10, count: int = 100, seed: int = 0,
                   split: str = "train") -> DatasetHandle:
    """Class-conditional Gaussian blobs, linearly separable by construction.

    Labels are stratified exactly: sample i gets class i mod num_classes.
    """
    if count < 1:
        raise ValueError(f"synthetic dataset of {count} samples: the count must be at least 1")
    rng = seeded_rng(seed, "synthetic", split)
    prototypes = rng.standard_normal((num_classes, 3, 32, 32)).astype(np.float32)
    labels = (np.arange(count) % num_classes).astype(np.int64)
    noise = rng.standard_normal((count, 3, 32, 32)).astype(np.float32)
    images = prototypes[labels] + np.float32(0.25) * noise
    return DatasetHandle(
        source="synthetic", split=split, images=images, labels=labels,
        num_classes=num_classes,
        mean=np.zeros(3, dtype=np.float32), std=np.ones(3, dtype=np.float32),
    )


# -- augmentation ---------------------------------------------------------------


def hflip(image: np.ndarray) -> np.ndarray:
    """Horizontal mirror; applying it twice restores the input."""
    return image[:, :, ::-1].copy()


def pad_crop(image: np.ndarray, offset_y: int, offset_x: int, pad: int = 4) -> np.ndarray:
    """Zero-pad by ``pad`` on every side, then crop back to the original size
    starting at (offset_y, offset_x); offsets of (pad, pad) are the identity."""
    c, h, w = image.shape
    padded = np.pad(image, ((0, 0), (pad, pad), (pad, pad)))
    return padded[:, offset_y:offset_y + h, offset_x:offset_x + w].copy()


def augment_image(image: np.ndarray, rng: np.random.Generator, pad: int = 4) -> np.ndarray:
    oy = int(rng.integers(0, 2 * pad + 1))
    ox = int(rng.integers(0, 2 * pad + 1))
    out = pad_crop(image, oy, ox, pad)
    if rng.integers(0, 2) == 1:
        out = hflip(out)
    return out


def augmentation_rng(seed: int, epoch: int, index: int) -> np.random.Generator:
    return seeded_rng(seed, "augment", epoch, index)


def epoch_order(handle: DatasetHandle, seed: int, epoch: int) -> np.ndarray:
    return seeded_rng(seed, "shuffle", epoch).permutation(len(handle))


def make_batch(handle: DatasetHandle, indices: np.ndarray, seed: int, epoch: int,
               augment: bool = True) -> tuple:
    """Assemble one minibatch; content depends only on (seed, epoch, indices)."""
    if augment and handle.split == "train":
        images = np.stack([
            augment_image(handle.images[i], augmentation_rng(seed, epoch, int(i)))
            for i in indices
        ])
    else:
        images = handle.images[indices]
    return images, handle.labels[indices]


def iter_batches(handle: DatasetHandle, batch_size: int, seed: int, epoch: int,
                 augment: bool = True):
    """Yield (images, labels) minibatches in the epoch's shuffled order."""
    order = epoch_order(handle, seed, epoch)
    for i in range(0, len(order), batch_size):
        yield make_batch(handle, order[i:i + batch_size], seed, epoch, augment)
