import numpy as np
import pytest

from vesseldistill.data import (
    PGMMagicError, PGMMaxvalError, PGMTruncatedError, batches,
    generate_synthetic, load_pgm, load_sample_dir, save_pgm, save_sample_dir,
    split,
)


class TestPGMLoad:
    def test_binary_two_pixel(self, tmp_path):
        p = tmp_path / "two.pgm"
        p.write_bytes(b"P5 2 1 255\n" + bytes([0, 255]))
        np.testing.assert_array_equal(load_pgm(p), [[0.0, 1.0]])

    def test_ascii_variant(self, tmp_path):
        p = tmp_path / "ascii.pgm"
        p.write_text("P2\n# a comment\n2 2\n255\n0 255\n128 64\n")
        got = load_pgm(p)
        np.testing.assert_allclose(got, [[0, 1], [128 / 255, 64 / 255]])

    def test_comment_inside_binary_header(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# width then height\n1 1\n255\n\x7f")
        np.testing.assert_allclose(load_pgm(p), [[127 / 255]])

    def test_nonstandard_maxval_rescales(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P5 1 1 100\n" + bytes([50]))
        np.testing.assert_allclose(load_pgm(p), [[0.5]])

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "rgb.ppm"
        p.write_bytes(b"P6 1 1 255\nabc")
        with pytest.raises(PGMMagicError):
            load_pgm(p)

    def test_maxval_too_large(self, tmp_path):
        p = tmp_path / "wide.pgm"
        p.write_bytes(b"P5 1 1 65535\n\x00\x00")
        with pytest.raises(PGMMaxvalError):
            load_pgm(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "short.pgm"
        p.write_bytes(b"P5 4 4 255\n\x00\x01")
        with pytest.raises(PGMTruncatedError):
            load_pgm(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "hdr.pgm"
        p.write_bytes(b"P5 4")
        with pytest.raises(PGMTruncatedError):
            load_pgm(p)

    def test_roundtrip_quantization_bound(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.uniform(size=(9, 7))
        path = tmp_path / "rt.pgm"
        save_pgm(img, path)
        back = load_pgm(path)
        assert back.shape == (9, 7)
        assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12

    def test_binary_mask_roundtrips_exactly(self, tmp_path):
        mask = (np.random.default_rng(1).uniform(size=(8, 8)) < 0.4).astype(float)
        path = tmp_path / "mask.pgm"
        save_pgm(mask, path)
        np.testing.assert_array_equal(load_pgm(path), mask)


class TestSampleDirs:
    def test_roundtrip(self, tmp_path):
        samples = generate_synthetic(seed=3, count=4, size=32)
        save_sample_dir(samples, tmp_path)
        back = load_sample_dir(tmp_path)
        assert [s.id for s in back] == sorted(s.id for s in samples)
        by_id = {s.id: s for s in samples}
        for s in back:
            np.testing.assert_array_equal(s.mask.data, by_id[s.id].mask.data)
            assert np.max(np.abs(s.image.data - by_id[s.id].image.data)) <= 0.5 / 255 + 1e-12

    def test_missing_mask_raises(self, tmp_path):
        save_sample_dir(generate_synthetic(seed=4, count=1, size=32), tmp_path)
        next((tmp_path / "masks").iterdir()).unlink()
        with pytest.raises(FileNotFoundError):
            load_sample_dir(tmp_path)

    def test_empty_dir_raises(self, tmp_path):
        (tmp_path / "images").mkdir()
        (tmp_path / "masks").mkdir()
        with pytest.raises(FileNotFoundError):
            load_sample_dir(tmp_path)


class TestGenerator:
    def test_deterministic(self):
        a = generate_synthetic(seed=7, count=3, size=32)
        b = generate_synthetic(seed=7, count=3, size=32)
        for s, t in zip(a, b):
            np.testing.assert_array_equal(s.image.data, t.image.data)
            np.testing.assert_array_equal(s.mask.data, t.mask.data)

    def test_seeds_differ(self):
        a = generate_synthetic(seed=7, count=1, size=32)[0]
        b = generate_synthetic(seed=8, count=1, size=32)[0]
        assert not np.array_equal(a.image.data, b.image.data)

    def test_shapes_ranges_binary_masks(self):
        for s in generate_synthetic(seed=9, count=5, size=64):
            assert s.image.data.shape == (1, 64, 64)
            assert s.mask.data.shape == (1, 64, 64)
            assert np.all(s.image.data >= 0) and np.all(s.image.data <= 1)
            assert set(np.unique(s.mask.data)) <= {0.0, 1.0}

    def test_foreground_fraction_band(self):
        # vessels should be sparse but present; wide band, many samples
        fracs = [s.mask.data.mean()
                 for s in generate_synthetic(seed=0, count=100, size=64)]
        assert all(0.01 <= f <= 0.35 for f in fracs)
        assert 0.05 <= float(np.mean(fracs)) <= 0.20

    def test_vessels_darker_than_background(self):
        for s in generate_synthetic(seed=11, count=5, size=64):
            fg = s.image.data[s.mask.data > 0.5].mean()
            bg = s.image.data[s.mask.data < 0.5].mean()
            assert fg < bg

    def test_bad_count(self):
        with pytest.raises(ValueError):
            generate_synthetic(seed=0, count=0)


class TestSplit:
    def test_ten_samples_split_7_1_2(self):
        s = split(list(range(10)), ratios=(7, 1, 2), seed=0)
        assert (len(s.train), len(s.val), len(s.test)) == (7, 1, 2)

    def test_134_samples_split_94_13_27(self):
        s = split(list(range(134)), ratios=(7, 1, 2), seed=0)
        assert (len(s.train), len(s.val), len(s.test)) == (94, 13, 27)

    def test_partition_is_exact(self):
        items = list(range(53))
        s = split(items, seed=3)
        combined = sorted(s.train + s.val + s.test)
        assert combined == items

    def test_seeded_and_shuffled(self):
        items = list(range(40))
        a = split(items, seed=1)
        b = split(items, seed=1)
        c = split(items, seed=2)
        assert a.train == b.train and a.test == b.test
        assert a.train != c.train
        assert a.train != items[:len(a.train)]  # actually shuffled

    def test_bad_ratios(self):
        with pytest.raises(ValueError):
            split([1, 2, 3], ratios=(1, 2))
        with pytest.raises(ValueError):
            split([1, 2, 3], ratios=(-1, 1, 1))
        with pytest.raises(ValueError):
            split([], ratios=(7, 1, 2))


class TestBatches:
    def test_sizes_with_remainder(self):
        got = [len(b) for b in batches(list(range(10)), 4, seed=0, epoch=1)]
        assert got == [4, 4, 2]

    def test_each_sample_once(self):
        items = list(range(11))
        seen = [x for b in batches(items, 3, seed=5, epoch=2) for x in b]
        assert sorted(seen) == items

    def test_reshuffled_per_epoch_and_deterministic(self):
        items = list(range(20))
        e1 = [x for b in batches(items, 4, seed=9, epoch=1) for x in b]
        e2 = [x for b in batches(items, 4, seed=9, epoch=2) for x in b]
        e1_again = [x for b in batches(items, 4, seed=9, epoch=1) for x in b]
        assert e1 != e2
        assert e1 == e1_again

    def test_distinct_seed_epoch_pairs_shuffle_differently(self):
        # seed ^ epoch maps (0, 3) and (1, 2) to the same generator seed
        items = list(range(20))
        orders = {(seed, epoch): [x for b in batches(items, 4, seed, epoch) for x in b]
                  for seed in range(4) for epoch in range(1, 5)}
        assert len({tuple(o) for o in orders.values()}) == len(orders)

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            list(batches([1], 0, seed=0, epoch=1))
