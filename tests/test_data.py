"""Binary ingestion, augmentation determinism, synthetic data."""

import json
import tracemalloc

import numpy as np
import pytest

from propmod import DataError, load_cifar, make_synthetic
from propmod import data as data_module
from propmod.data import (augment_image, augmentation_rng, compute_norm_stats, epoch_order,
                          hflip, iter_batches, load_or_compute_norm_stats, make_batch,
                          pad_crop)


class TestCifarLoader:
    def test_counts_and_label_ranges(self, cifar10_dir):
        train = load_cifar(cifar10_dir, "cifar10", "train")
        test = load_cifar(cifar10_dir, "cifar10", "test")
        assert len(train) == 200 and len(test) == 20
        assert train.labels.min() >= 0 and train.labels.max() <= 9
        assert train.images.shape == (200, 3, 32, 32)
        assert train.images.dtype == np.float32

    def test_cifar100_uses_fine_labels(self, cifar100_dir):
        train = load_cifar(cifar100_dir, "cifar100", "train")
        assert train.num_classes == 100
        assert train.labels.max() > 19  # fine labels, not the 20 coarse ones

    def test_truncated_file_reports_offset(self, cifar10_dir):
        victim = cifar10_dir / "data_batch_3.bin"
        victim.write_bytes(victim.read_bytes()[:-10])
        with pytest.raises(DataError) as err:
            load_cifar(cifar10_dir, "cifar10", "train")
        assert "data_batch_3" in str(err.value)
        assert str(39 * 3073) in str(err.value)  # offset where the partial record begins

    def test_zero_length_file_rejected(self, cifar10_dir):
        (cifar10_dir / "test_batch.bin").write_bytes(b"")
        with pytest.raises(DataError):
            load_cifar(cifar10_dir, "cifar10", "test")

    def test_label_out_of_range_rejected(self, cifar10_dir):
        victim = cifar10_dir / "data_batch_1.bin"
        raw = bytearray(victim.read_bytes())
        raw[0] = 17
        victim.write_bytes(bytes(raw))
        with pytest.raises(DataError) as err:
            load_cifar(cifar10_dir, "cifar10", "train")
        assert "17" in str(err.value)

    def test_missing_archive(self, tmp_path):
        with pytest.raises(DataError):
            load_cifar(tmp_path, "cifar10", "train")

    def test_full_bright_pixels_scale_to_one(self, tmp_path):
        # one record, all pixel bytes 255: image must be exactly 1.0 pre-normalization
        root = tmp_path / "bright"
        root.mkdir()
        record = bytes([1]) + b"\xff" * 3072
        for i in range(1, 6):
            (root / f"data_batch_{i}.bin").write_bytes(record)
        (root / "test_batch.bin").write_bytes(record)
        # pin stats so normalization is the identity
        (root / "normalization-cifar10.json").write_text(
            json.dumps({"mean": [0.0, 0.0, 0.0], "std": [1.0, 1.0, 1.0]}))
        handle = load_cifar(root, "cifar10", "train")
        np.testing.assert_array_equal(handle.images, 1.0)

    def test_norm_stats_cached_beside_data(self, cifar10_dir):
        load_cifar(cifar10_dir, "cifar10", "train")
        stats_file = cifar10_dir / "normalization-cifar10.json"
        assert stats_file.is_file()
        mean, std = load_or_compute_norm_stats(cifar10_dir, "cifar10")
        assert mean.shape == (3,) and std.shape == (3,)

    def test_norm_stats_make_no_split_sized_float64_copy(self):
        images = np.random.default_rng(0).random((2000, 3, 32, 32), dtype=np.float32)
        tracemalloc.start()
        try:
            compute_norm_stats(images)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < images.nbytes, f"peak {peak} bytes for {images.nbytes} bytes of images"

    def test_train_split_reads_each_archive_once(self, cifar10_dir, monkeypatch):
        # no normalization cache yet: the statistics come from the records
        # already read for the split, not from a second pass over the archives
        assert not (cifar10_dir / "normalization-cifar10.json").exists()
        reads = []
        read_records = data_module._read_records

        def counting(path, record_len):
            reads.append(path.name)
            return read_records(path, record_len)

        monkeypatch.setattr(data_module, "_read_records", counting)
        load_cifar(cifar10_dir, "cifar10", "train", subset=(50, 0))
        assert sorted(reads) == [f"data_batch_{i}.bin" for i in range(1, 6)]
        assert (cifar10_dir / "normalization-cifar10.json").is_file()

    def test_normalized_train_mean_near_zero(self, cifar10_dir):
        train = load_cifar(cifar10_dir, "cifar10", "train")
        assert np.abs(train.images.mean(axis=(0, 2, 3))).max() < 1e-3

    def test_subset_deterministic(self, cifar10_dir):
        a = load_cifar(cifar10_dir, "cifar10", "train", subset=(50, 7))
        b = load_cifar(cifar10_dir, "cifar10", "train", subset=(50, 7))
        c = load_cifar(cifar10_dir, "cifar10", "train", subset=(50, 8))
        assert len(a) == 50
        np.testing.assert_array_equal(a.images, b.images)
        assert not np.array_equal(a.labels, c.labels)

    def test_subset_larger_than_dataset(self, cifar10_dir):
        with pytest.raises(DataError):
            load_cifar(cifar10_dir, "cifar10", "train", subset=(10_000, 0))


class TestSynthetic:
    def test_exact_stratification(self):
        handle = make_synthetic(10, 100, seed=0)
        counts = np.bincount(handle.labels, minlength=10)
        np.testing.assert_array_equal(counts, 10)

    def test_deterministic(self):
        a = make_synthetic(10, 64, seed=3)
        b = make_synthetic(10, 64, seed=3)
        np.testing.assert_array_equal(a.images, b.images)

    def test_shapes_and_finite(self):
        handle = make_synthetic(10, 32, seed=1)
        assert handle.images.shape == (32, 3, 32, 32)
        assert np.isfinite(handle.images).all()


class TestAugmentation:
    def test_flip_is_involution(self):
        img = np.random.default_rng(0).standard_normal((3, 32, 32)).astype(np.float32)
        np.testing.assert_array_equal(hflip(hflip(img)), img)

    def test_center_crop_is_identity(self):
        img = np.random.default_rng(1).standard_normal((3, 32, 32)).astype(np.float32)
        np.testing.assert_array_equal(pad_crop(img, 4, 4), img)

    def test_shape_and_label_preserved(self):
        handle = make_synthetic(10, 16, seed=0)
        images, labels = make_batch(handle, np.arange(16), seed=0, epoch=0, augment=True)
        assert images.shape == handle.images.shape
        np.testing.assert_array_equal(labels, handle.labels)

    def test_deterministic_per_seed_epoch_index(self):
        img = np.random.default_rng(2).standard_normal((3, 32, 32)).astype(np.float32)
        a = augment_image(img, augmentation_rng(5, 2, 11))
        b = augment_image(img, augmentation_rng(5, 2, 11))
        c = augment_image(img, augmentation_rng(5, 3, 11))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_batches_bit_identical_across_runs(self):
        handle = make_synthetic(10, 40, seed=0)
        runs = []
        for _ in range(2):
            runs.append([img.copy() for img, _ in iter_batches(handle, 16, seed=9, epoch=4)])
        for x, y in zip(*runs):
            np.testing.assert_array_equal(x, y)

    def test_epoch_order_is_seeded_shuffle(self):
        handle = make_synthetic(10, 32, seed=0)
        a = epoch_order(handle, seed=1, epoch=0)
        b = epoch_order(handle, seed=1, epoch=1)
        assert sorted(a) == list(range(32))
        assert not np.array_equal(a, b)
