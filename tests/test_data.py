import math

import numpy as np
import pytest

from vesseldistill import data
from vesseldistill.data import (
    batches, generate_synthetic, load_pgm, load_sample_dir, save_pgm, save_sample_dir, split,
)


class TestPGMLoad:
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

    def test_a_refused_save_writes_no_file(self, tmp_path):
        with pytest.raises(ValueError):
            save_pgm(np.zeros((2, 3, 3)), tmp_path / "two.pgm")
        assert not (tmp_path / "two.pgm").exists()

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


# Reference generator for the rasterizer: every path step ORs its own disk
# into the mask at once, with no disk list and no grouping.

def draw_disk_oracle(mask, cy, cx, radius):
    h, w = mask.shape
    r = int(math.ceil(radius))
    y0, y1 = max(0, int(cy) - r), min(h, int(cy) + r + 2)
    x0, x1 = max(0, int(cx) - r), min(w, int(cx) + r + 2)
    if y0 >= y1 or x0 >= x1:
        return
    yy, xx = np.mgrid[y0:y1, x0:x1]
    mask[y0:y1, x0:x1] |= (yy - cy) ** 2 + (xx - cx) ** 2 <= radius ** 2


def grow_branch_oracle(mask, rng, y, x, angle, width, length, depth):
    h, w = mask.shape
    for _ in range(int(length)):
        draw_disk_oracle(mask, y, x, width / 2.0)
        angle += rng.normal(0.0, 0.18)
        y += math.sin(angle)
        x += math.cos(angle)
        if not (-width <= y < h + width and -width <= x < w + width):
            break
    if depth > 0 and width > 1.0:
        for _ in range(rng.integers(1, 3)):
            child_angle = angle + rng.uniform(0.4, 1.0) * rng.choice([-1.0, 1.0])
            child_len = length * rng.uniform(0.5, 0.8)
            grow_branch_oracle(mask, rng, y, x, child_angle, max(1.0, width * 0.7),
                               child_len, depth - 1)


def vessel_mask_oracle(rng, size):
    mask = np.zeros((size, size), dtype=bool)
    for _ in range(int(rng.integers(1, 4))):
        side = rng.integers(0, 4)
        pos = rng.uniform(0.2, 0.8) * size
        if side == 0:
            y, x, angle = 0.0, pos, math.pi / 2
        elif side == 1:
            y, x, angle = float(size - 1), pos, -math.pi / 2
        elif side == 2:
            y, x, angle = pos, 0.0, 0.0
        else:
            y, x, angle = pos, float(size - 1), math.pi
        angle += rng.normal(0.0, 0.3)
        width = rng.uniform(2.5, 4.5) * size / 64.0
        depth = int(rng.integers(2, 5))
        grow_branch_oracle(mask, rng, y, x, angle, width,
                           size * rng.uniform(0.5, 0.9), depth)
    return mask


def generate_oracle(seed, count, size):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        mask = vessel_mask_oracle(rng, size)
        out.append((data._render_image(rng, mask, size), mask))
    return out


class TestRasterizer:
    @pytest.mark.parametrize("seed,size", [(seed, size) for size in (1, 2, 8, 16, 33, 64)
                                           for seed in range(20)]
                             + [(0, 256), (605, 256)])
    def test_bitwise_equal_to_per_step_oracle(self, seed, size):
        count = 1 if size == 256 else 3
        samples = generate_synthetic(seed=seed, count=count, size=size)
        for idx, (s, (image, mask)) in enumerate(zip(samples, generate_oracle(seed, count, size))):
            assert s.id == f"synthetic-{seed}-{idx:04d}"
            assert s.mask.data.tobytes() == mask[None].astype(np.float64).tobytes()
            assert s.image.data.tobytes() == image[None].tobytes()

    def test_hand_built_disks_match_the_oracle(self):
        size = 12
        disks = [
            (-2.5, 3.0, 2.0), (-0.3, -0.7, 1.2), (4.0, -1.9, 2.4),     # negative centres
            (size + 1.5, 4.0, 2.5), (6.0, size + 0.4, 1.0),           # beyond the far edge
            (5.0, 5.0, 2.0), (6.0, 8.0, 3.0),                          # integer radius on a pixel
            (2.0, 9.0, 0.5), (9.2, 2.0, 0.25), (9.5, 9.5, 0.5), (1.5, 1.5, 0.3),  # radius <= 0.5
        ]
        expected = np.zeros((size, size), dtype=bool)
        for disk in disks:
            draw_disk_oracle(expected, *disk)
        mask = data._rasterize(disks, size)
        assert mask.dtype == bool and mask.shape == (size, size)
        assert mask.tobytes() == expected.tobytes()
        # the <= boundary: pixels at distance exactly 2 and 3 are inside
        assert mask[5, 3] and mask[5, 7] and mask[3, 5] and mask[7, 5] and mask[9, 8]
        assert not mask[3, 3]  # distance sqrt(8) from (5, 5), sqrt(34) from (6, 8)
        assert mask[2, 9] and not mask[2, 10] and not mask[1, 9]  # radius 0.5 on a pixel
        assert mask[9, 2] and not mask[10, 2]
        assert not mask[9:11, 9:11].any() and not mask[1:3, 1:3].any()  # covers no pixel centre

    def test_disks_outside_the_image_leave_it_empty(self):
        disks = [(-5.0, 4.0, 2.0), (4.0, -3.1, 2.9), (20.0, 20.0, 3.5), (4.0, 16.5, 0.5)]
        assert not data._rasterize(disks, 16).any()
        assert not data._rasterize([], 16).any()


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
