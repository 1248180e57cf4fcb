"""Binary ingestion, augmentation determinism, synthetic data."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from propmod import DataError, load_cifar, make_synthetic
from propmod import data as data_module
from propmod.data import (augment_image, augmentation_rng, epoch_order, hflip, iter_batches,
                          load_or_compute_norm_stats, make_batch, pad_crop)

from archives import link_archives, write_cifar100_archives

BLOCK = data_module._BLOCK_RECORDS


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
        with pytest.raises(DataError) as err:
            load_cifar(cifar10_dir, "cifar10", "test")
        assert str(err.value) == (f"{cifar10_dir / 'test_batch.bin'}: empty archive, "
                                  f"it holds no 3073-byte records")

    def test_label_out_of_range_rejected(self, cifar10_dir):
        victim = cifar10_dir / "data_batch_1.bin"
        raw = bytearray(victim.read_bytes())
        raw[0] = 17
        victim.write_bytes(bytes(raw))
        with pytest.raises(DataError) as err:
            load_cifar(cifar10_dir, "cifar10", "train")
        assert "17" in str(err.value)

    def test_label_fault_wins_over_a_later_truncated_archive(self, cifar10_dir):
        # archives are checked in order: data_batch_1's label before data_batch_3's size
        victim = cifar10_dir / "data_batch_1.bin"
        raw = bytearray(victim.read_bytes())
        raw[5 * 3073] = 12
        victim.write_bytes(bytes(raw))
        later = cifar10_dir / "data_batch_3.bin"
        later.write_bytes(later.read_bytes()[:-10])
        with pytest.raises(DataError, match=r"^record 5: label byte 12 out of range \[0, 10\)$"):
            load_cifar(cifar10_dir, "cifar10", "train", subset=(50, 0))

    @pytest.mark.parametrize("fault, message", [
        (dict(bad_label_at=2), "record 2: fine label byte 123 out of range [0, 100)"),
        (dict(bad_label_at=BLOCK + 1),
         f"record {BLOCK + 1}: fine label byte 123 out of range [0, 100)"),
        (dict(truncate=10), f"train.bin: truncated archive, size {(BLOCK + 3) * 3074 - 10} is "
                            f"not a multiple of 3074-byte records (truncation at byte offset "
                            f"{(BLOCK + 2) * 3074})"),
    ], ids=["first-block-label", "later-block-label", "later-block-truncation"])
    def test_cifar100_faults_name_archive_record_and_offset(self, tmp_path, fault, message):
        # train.bin spans two blocks; indices and offsets stay archive-relative
        root = write_cifar100_archives(tmp_path / "c100", train_count=BLOCK + 3, **fault)
        with pytest.raises(DataError) as err:
            load_cifar(root, "cifar100", "train", subset=(8, 0))
        assert str(err.value).endswith(message)

    def test_cifar100_coarse_label_checked_before_fine(self, cifar100_dir):
        victim = cifar100_dir / "train.bin"
        raw = bytearray(victim.read_bytes())
        raw[1 * 3074 + 1] = 100  # fine label of record 1
        raw[3 * 3074] = 20  # coarse label of record 3
        victim.write_bytes(bytes(raw))
        with pytest.raises(DataError,
                           match=r"^record 3: coarse label byte 20 out of range \[0, 20\)$"):
            load_cifar(cifar100_dir, "cifar100", "train")

    def test_archive_shrinking_after_its_size_was_read_rejected(self, cifar10_dir, monkeypatch):
        # sizes are read before the records: a short read must not leave the
        # previous block's bytes in place
        record_count = data_module._record_count
        monkeypatch.setattr(data_module, "_record_count", lambda *a: record_count(*a) + 1)
        with pytest.raises(DataError, match="data_batch_1.bin: archive shrank while being read"):
            load_cifar(cifar10_dir, "cifar10", "train")

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

    def test_norm_cache_is_moved_into_place_whole(self, cifar10_dir, monkeypatch):
        # written beside the cache and renamed over it, so a concurrent reader
        # sees either no cache or the whole one
        stats_file = cifar10_dir / "normalization-cifar10.json"
        moves = []
        replace = data_module.os.replace

        def watching(src, dst):
            moves.append((Path(dst), stats_file.exists(), json.loads(Path(src).read_text())))
            replace(src, dst)

        monkeypatch.setattr(data_module.os, "replace", watching)
        mean, std = load_or_compute_norm_stats(cifar10_dir, "cifar10")
        assert moves == [(stats_file, False, {"mean": mean.tolist(), "std": std.tolist()})]
        assert [p.name for p in cifar10_dir.iterdir() if p.suffix != ".bin"] == [stats_file.name]

    def test_norm_cache_skipped_when_data_dir_is_read_only(self, cifar10_dir, monkeypatch):
        def refuse(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(Path, "write_text", refuse)
        mean, std = load_or_compute_norm_stats(cifar10_dir, "cifar10")
        assert mean.shape == (3,) and std.shape == (3,)
        assert all(p.suffix == ".bin" for p in cifar10_dir.iterdir())

    def test_norm_stats_make_no_split_sized_float64_copy(self, cifar10_full_archives, tmp_path):
        # counted block by block: no float32 or float64 array of the split
        root = link_archives(cifar10_full_archives, tmp_path / "cold")
        tracemalloc.start()
        try:
            load_or_compute_norm_stats(root, "cifar10")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        plane = 50000 * 1024 * 8  # one channel of the split in float64
        assert peak < plane // 4, f"peak {peak} bytes for a {plane}-byte float64 plane"

    def test_train_split_reads_each_archive_once(self, cifar10_dir, monkeypatch):
        # no normalization cache yet: the statistics come from the records
        # already read for the split, not from a second pass over the archives
        assert not (cifar10_dir / "normalization-cifar10.json").exists()
        passes = []
        blocks = data_module._blocks

        def counting(paths, which):
            passes.append([p.name for p in paths])
            return blocks(paths, which)

        monkeypatch.setattr(data_module, "_blocks", counting)
        load_cifar(cifar10_dir, "cifar10", "train", subset=(50, 0))
        assert passes == [[f"data_batch_{i}.bin" for i in range(1, 6)]]
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

    @pytest.mark.parametrize("count", [0, -5])
    def test_subset_below_one_rejected(self, cifar10_dir, count):
        # a negative count would slice the permutation from its end, zero would leave it empty
        with pytest.raises(ValueError, match=f"subset of {count} samples"):
            load_cifar(cifar10_dir, "cifar10", "train", subset=(count, 0))


def reference_norm_stats(pixels):
    """The constants as float32 pixels / 255, then a float64 mean and std per
    channel; ``pixels`` are a split's (N, 3072) uint8 pixel rows."""
    mean, std = [], []
    for ch in range(3):
        plane = pixels[:, ch * 1024:(ch + 1) * 1024].astype(np.float32)
        plane /= np.float32(255.0)
        mean.append(plane.mean(dtype=np.float64))
        std.append(plane.std(dtype=np.float64))
    return np.array(mean).astype(np.float32), np.array(std).astype(np.float32)


def archive_pixels(paths, record_len):
    raw = np.concatenate([np.fromfile(p, dtype=np.uint8) for p in paths])
    return raw.reshape(-1, record_len)[:, record_len - 3072:]


class TestNormConstants:
    """Constants from pixel-value counts against the float reference."""

    def check(self, root, which):
        names, record_len = (([f"data_batch_{i}.bin" for i in range(1, 6)], 3073)
                             if which == "cifar10" else (["train.bin"], 3074))
        want = reference_norm_stats(archive_pixels([root / n for n in names], record_len))
        got = load_or_compute_norm_stats(root, which)
        for a, b in zip(got, want):
            assert a.dtype == np.float32
            np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32))

    def test_fixtures(self, cifar10_dir, cifar100_dir):
        self.check(cifar10_dir, "cifar10")
        self.check(cifar100_dir, "cifar100")

    def test_full_size_archives(self, cifar10_full_archives, tmp_path):
        self.check(link_archives(cifar10_full_archives, tmp_path / "cold"), "cifar10")

    @pytest.mark.parametrize("seed", range(8))
    def test_random_archives_with_constant_planes(self, tmp_path, seed):
        rng = np.random.default_rng([seed, 19])
        which = ("cifar10", "cifar100")[seed % 2]
        count = int(rng.integers(5, 6000))
        record_len = 3073 if which == "cifar10" else 3074
        records = rng.integers(0, 256, size=(count, record_len), dtype=np.uint8)
        records[:, :record_len - 3072] = 0  # label bytes in range
        constant = rng.integers(0, 3, size=seed % 3 + 1)  # one or more whole channels
        for ch in constant:
            start = record_len - 3072 + int(ch) * 1024
            records[:, start:start + 1024] = rng.choice([0, 255, int(rng.integers(1, 255))])
        root = tmp_path / which
        root.mkdir()
        if which == "cifar10":
            for i, part in enumerate(np.array_split(records, 5), start=1):
                (root / f"data_batch_{i}.bin").write_bytes(part.tobytes())
        else:
            (root / "train.bin").write_bytes(records.tobytes())
        self.check(root, which)


class TestStreamingMemory:
    """tracemalloc peaks of loads from full-size archives (50,000 train records)."""

    @staticmethod
    def peak(fn):
        tracemalloc.start()
        try:
            result = fn()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    def test_subset_load_peaks_near_one_block_plus_output(self, cifar10_full_archives,
                                                          tmp_path):
        # measured: about 2.5 MB above one block and the output, cold or warm
        root = link_archives(cifar10_full_archives, tmp_path / "data")
        block = BLOCK * 3073
        for cache in ("cold", "warm"):
            peak, handle = self.peak(lambda: load_cifar(root, "cifar10", "train",
                                                        subset=(2048, 3)))
            output = handle.images.nbytes + handle.labels.nbytes
            assert peak < block + output + 8 * 2**20, (cache, peak)

    def test_full_split_load_builds_no_second_split_sized_array(self, cifar10_full_archives,
                                                                 tmp_path):
        root = link_archives(cifar10_full_archives, tmp_path / "data")
        peak, handle = self.peak(lambda: load_cifar(root, "cifar10", "train"))
        assert len(handle) == 50000
        raw_split = 50000 * 3072  # the smallest array of the whole split
        assert peak - handle.images.nbytes < raw_split, peak


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

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one_rejected(self, count):
        with pytest.raises(ValueError, match=f"synthetic dataset of {count} samples"):
            make_synthetic(10, count, seed=0)


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
