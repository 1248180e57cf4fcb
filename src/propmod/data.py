"""CIFAR-10/100 binary ingestion, augmentation, subsetting, synthetic data.

The binary layouts are fixed: CIFAR-10 records are 3073 bytes (label byte
plus 3x1024 channel-planar pixels), CIFAR-100 records are 3074 bytes
(coarse label, fine label, pixels); the fine label is what training uses.
Archives are read one block of at most 10,000 records at a time; each block's
labels are checked, and only the records a subset keeps are copied out.
Pixels scale to [0, 1] and are then channel-normalized with constants
computed once from the training split and cached beside the archives,
since no canonical values ship with the data. The constants come from exact
per-channel counts of the 256 pixel values, so computing them builds no
array of the split. The cache is renamed into place whole, so concurrent
runs never read a partial one, and a cache that cannot be read as three
means and three stds raises :class:`DataError` naming it.

Everything downstream is a pure function of (seed, epoch, index): batch
composition and augmentation never depend on timing.
"""

from __future__ import annotations

import contextlib
import json
import math
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
# each record's label bytes and their bounds, then 3072 pixel bytes; the last
# label byte is the one training uses
_LABEL_BYTES = {"cifar10": [("label", 10)],
                "cifar100": [("coarse label", 20), ("fine label", 100)]}
_RECORD_LEN = {which: len(labels) + 3072 for which, labels in _LABEL_BYTES.items()}
_BLOCK_RECORDS = 10_000  # records read at once: a CIFAR-10 archive, a fifth of CIFAR-100's train
_COUNT_ROWS = 128  # records per np.bincount call, which widens its input to intp (8 bytes a pixel)


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


def _record_count(path: Path, record_len: int) -> int:
    """Records in one archive, read from its size: it must hold at least one
    record and no partial one."""
    size = path.stat().st_size
    if size == 0:
        raise DataError(f"{path}: empty archive, it holds no {record_len}-byte records")
    if size % record_len != 0:
        good = (size // record_len) * record_len
        raise DataError(
            f"{path}: truncated archive, size {size} is not a multiple of "
            f"{record_len}-byte records (truncation at byte offset {good})"
        )
    return size // record_len


def _decode(records: np.ndarray, which: str, start: int):
    """Validated (uint8 pixel rows, int64 labels) of a block of records whose
    first is record ``start`` of its archive."""
    label_bytes = _LABEL_BYTES[which]
    for col, (name, limit) in enumerate(label_bytes):
        column = records[:, col]
        if column.max(initial=0) >= limit:
            bad = int(np.argmax(column >= limit))
            raise DataError(f"record {start + bad}: {name} byte {column[bad]} "
                            f"out of range [0, {limit})")
    return records[:, len(label_bytes):], records[:, len(label_bytes) - 1].astype(np.int64)


def _blocks(paths: list, which: str):
    """Every record of ``paths``, validated, in blocks of at most ``_BLOCK_RECORDS``:
    yields (split-wide index of the block's first record, uint8 pixel rows, int64
    labels). Archives are checked in order, so the first fault in them is
    reported. The pixel rows view one buffer, which the next block overwrites."""
    record_len = _RECORD_LEN[which]
    buffer = np.empty((_BLOCK_RECORDS, record_len), dtype=np.uint8)
    first = 0
    for path in paths:
        total = _record_count(path, record_len)
        with open(path, "rb") as f:
            for start in range(0, total, _BLOCK_RECORDS):
                records = buffer[:min(_BLOCK_RECORDS, total - start)]
                if f.readinto(records) != records.nbytes:
                    raise DataError(f"{path}: archive shrank while being read")
                pixels, labels = _decode(records, which, start)
                yield first + start, pixels, labels
        first += total


def _count_pixels(counts: np.ndarray, pixels: np.ndarray) -> None:
    """Add each channel's counts of the 256 pixel values in ``pixels`` (rows of
    3x1024 bytes) into ``counts`` (3, 256)."""
    planes = pixels.reshape(len(pixels), 3, 1024)
    for lo in range(0, len(planes), _COUNT_ROWS):
        for ch in range(3):
            counts[ch] += np.bincount(planes[lo:lo + _COUNT_ROWS, ch].ravel(), minlength=256)


def _norm_stats(counts: np.ndarray):
    """Per-channel mean and std of the float32 pixel values v / 255, from their
    counts: sums of 256 exact products, each rounded once (``math.fsum``)."""
    values = (np.arange(256, dtype=np.float32) / np.float32(255.0)).tolist()
    mean, std = [], []
    for channel in counts.tolist():
        n = sum(channel)
        m = math.fsum(c * v for c, v in zip(channel, values)) / n
        var = math.fsum(c * (v - m) ** 2 for c, v in zip(channel, values)) / n
        mean.append(m)
        std.append(math.sqrt(var))
    return np.array(mean, dtype=np.float32), np.array(std, dtype=np.float32)


def _stats_path(root: Path, which: str) -> Path:
    return _base_dir(root, which) / f"normalization-{which}.json"


def load_or_compute_norm_stats(root: Path, which: str, counts=None) -> tuple:
    """Per-channel mean/std from the training split, cached beside the data;
    ``counts``, the split's pixel-value counts if the caller has taken them,
    spare a pass over the archives."""
    stats_path = _stats_path(root, which)
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
    if counts is None:
        counts = np.zeros((3, 256), dtype=np.int64)
        for _, pixels, _ in _blocks(_archive_paths(root, which, "train"), which):
            _count_pixels(counts, pixels)
    mean, std = _norm_stats(counts)
    tmp = stats_path.with_name(f"{stats_path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps({"mean": mean.tolist(), "std": std.tolist()}))
        os.replace(tmp, stats_path)  # a concurrent reader sees no cache or a whole one
    except OSError:  # read-only data dir: recompute next time
        with contextlib.suppress(OSError):
            tmp.unlink()
    return mean, std


def _subset_rows(total: int, subset) -> np.ndarray:
    """Sorted split-wide indices of the records to keep; none for a count above
    ``total``, which is reported once the archives have been checked."""
    if subset is None:
        return np.arange(total)
    count, seed = subset
    if count < 1:
        raise ValueError(f"subset of {count} samples: the count must be at least 1")
    if count > total:
        return np.arange(0)
    idx = seeded_rng(seed, "subset").permutation(total)[:count]
    idx.sort()
    return idx


def _read_rows(paths: list, which: str, rows: np.ndarray, counts):
    """The records at split-wide indices ``rows`` (sorted) as (len(rows), 3, 32, 32)
    float32 pixel bytes and int64 labels; every record's pixel values are
    counted into ``counts`` unless it is None."""
    images = np.empty((len(rows), 3, 32, 32), dtype=np.float32)
    labels = np.empty(len(rows), dtype=np.int64)
    for first, pixels, block_labels in _blocks(paths, which):
        if counts is not None:
            _count_pixels(counts, pixels)
        lo, hi = np.searchsorted(rows, [first, first + len(pixels)])
        kept = rows[lo:hi] - first
        images[lo:hi] = pixels[kept].reshape(-1, 3, 32, 32)
        labels[lo:hi] = block_labels[kept]
    return images, labels


def load_cifar(path=None, which: str = "cifar10", split: str = "train",
               subset: tuple | None = None) -> DatasetHandle:
    """Load CIFAR binary archives into a normalized, ready-to-train handle."""
    if which not in ("cifar10", "cifar100"):
        raise ValueError(f"unknown dataset {which!r}")
    if split not in ("train", "test"):
        raise ValueError(f"unknown split {split!r}")
    root = resolve_data_dir(path)
    paths = _archive_paths(root, which, split)
    total = sum(p.stat().st_size // _RECORD_LEN[which] for p in paths)
    rows = _subset_rows(total, subset)
    counts = (np.zeros((3, 256), dtype=np.int64)
              if split == "train" and not _stats_path(root, which).is_file() else None)
    images, labels = _read_rows(paths, which, rows, counts)
    mean, std = load_or_compute_norm_stats(root, which, counts)
    if subset is not None and subset[0] > total:
        raise DataError(f"subset of {subset[0]} exceeds dataset size {total}")
    images /= np.float32(255.0)
    images -= mean[None, :, None, None]
    images /= std[None, :, None, None]
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
