import itertools
import os
import re
import subprocess
import sys
import weakref

import numpy as np
import pytest

from vesseldistill import tensor as T
from vesseldistill.tensor import GraphError, ShapeError, Tensor, gradcheck


def rand_tensor(rng, shape, lo=-1.0, hi=1.0, grad=True):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=grad)


def assert_matches_oracle(out, x, k, b):
    """conv2d's output against nested float64 loops, within the rounding
    bound of its dtype."""
    (c_out, c_in), (h, w) = k.shape[:2], x.shape[1:]
    expected = np.zeros((c_out, h, w))
    magnitude = np.zeros((c_out, h, w))
    padded = np.pad(x.astype(np.float64), ((0, 0), (1, 1), (1, 1)))
    for co in range(c_out):
        for i in range(h):
            for j in range(w):
                acc = float(b[co])
                mag = abs(acc)
                for ci in range(c_in):
                    for di in range(3):
                        for dj in range(3):
                            term = float(k[co, ci, di, dj]) * padded[ci, i + di, j + dj]
                            acc += term
                            mag += abs(term)
                expected[co, i, j] = acc
                magnitude[co, i, j] = mag
    # standard bound for a sum of n rounded products, with room for the
    # oracle's own float64 rounding
    n = c_in * 9 + 1
    bound = 2 * n * np.finfo(out.dtype).eps * magnitude
    assert np.all(np.abs(out - expected) <= bound)


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.uniform(size=(2, 6, 6)))
        k = np.zeros((2, 2, 3, 3))
        k[0, 0, 1, 1] = 1.0
        k[1, 1, 1, 1] = 1.0
        out = T.conv2d(x, Tensor(k), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, x.data)

    def test_all_ones_kernel_counts_neighbors(self):
        x = Tensor(np.ones((1, 3, 3)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        out = T.conv2d(x, k, Tensor(np.zeros(1)))
        assert out.data[0, 1, 1] == 9.0
        for i, j in [(0, 0), (0, 2), (2, 0), (2, 2)]:
            assert out.data[0, i, j] == 4.0

    # C_in and C_out fall on both sides of the contraction width at which
    # conv2d switches from a column copy to GEMMs on shifted views
    CHANNELS = [(1, 1), (1, 3), (2, 1), (2, 3), (24, 1), (24, 3), (2, 16)]
    SHAPES = [(5, 5), (4, 7)]

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("h,w", SHAPES)
    @pytest.mark.parametrize("c_in,c_out", CHANNELS)
    def test_matches_nested_loop_oracle(self, c_in, c_out, h, w, dtype):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(c_in, h, w)).astype(dtype)
        k = rng.normal(size=(c_out, c_in, 3, 3)).astype(dtype)
        b = rng.normal(size=c_out).astype(dtype)
        out = T.conv2d(Tensor(x), Tensor(k), Tensor(b))
        assert out.data.dtype == dtype
        assert_matches_oracle(out.data, x, k, b)

    @pytest.mark.parametrize("h,w", SHAPES)
    @pytest.mark.parametrize("c_in,c_out", CHANNELS)
    def test_gradient_vs_finite_differences(self, c_in, c_out, h, w):
        rng = np.random.default_rng(7)
        x = rand_tensor(rng, (c_in, h, w))
        k = rand_tensor(rng, (c_out, c_in, 3, 3), lo=-0.5, hi=0.5)
        b = rand_tensor(rng, (c_out,), lo=-0.5, hi=0.5)
        ok, _ = gradcheck(
            lambda x, k, b: T.tsum(T.sigmoid(T.conv2d(x, k, b))), (x, k, b),
            rtol=1e-4)
        assert ok

    # with either limit at 1 (the block budget or the small-GEMM one) every
    # conv runs in 64-column blocks, on the column path (C_in < 16) and the
    # view path alike; both shapes end in a short block, and (6, 29) puts
    # block boundaries inside output rows
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("h,w", [(13, 17), (6, 29)])
    @pytest.mark.parametrize("c_in", [1, 2, 8, 16, 24])
    def test_column_blocks_match_nested_loop_oracle(self, c_in, h, w, dtype, monkeypatch):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(c_in, h, w)).astype(dtype)
        k = rng.normal(size=(3, c_in, 3, 3)).astype(dtype)
        b = rng.normal(size=3).astype(dtype)
        for limit in ("_BLOCK_BUDGET", "_SMALL_GEMM"):
            with monkeypatch.context() as patch:
                patch.setattr(T, limit, 1)
                out = T.conv2d(Tensor(x), Tensor(k), Tensor(b))
            assert out.data.dtype == dtype
            assert_matches_oracle(out.data, x, k, b)

    @pytest.mark.parametrize("c_in,c_out", [(1, 1), (2, 3), (8, 2), (16, 3), (24, 2)])
    def test_gradient_through_column_blocks(self, c_in, c_out, monkeypatch):
        """Forward and input gradient both run in 64-column blocks, on
        either conv path, whichever limit forces them."""
        rng = np.random.default_rng(9)
        x = rand_tensor(rng, (c_in, 6, 29))
        k = rand_tensor(rng, (c_out, c_in, 3, 3), lo=-0.5, hi=0.5)
        b = rand_tensor(rng, (c_out,), lo=-0.5, hi=0.5)
        for limit in ("_BLOCK_BUDGET", "_SMALL_GEMM"):
            with monkeypatch.context() as patch:
                patch.setattr(T, limit, 1)
                ok, _ = gradcheck(
                    lambda x, k, b: T.tsum(T.sigmoid(T.conv2d(x, k, b))), (x, k, b),
                    rtol=1e-4)
            assert ok, limit

    @pytest.mark.parametrize("h,w", SHAPES)
    @pytest.mark.parametrize("c_in,c_out", CHANNELS)
    def test_float32_gradients_match_float64(self, c_in, c_out, h, w):
        """float32 runs the same code paths as the gradchecked float64."""
        rng = np.random.default_rng(8)
        arrays = (rng.uniform(-1, 1, size=(c_in, h, w)),
                  rng.uniform(-0.5, 0.5, size=(c_out, c_in, 3, 3)),
                  rng.uniform(-0.5, 0.5, size=c_out))
        g = rng.normal(size=(c_out, h, w))
        grads = {}
        for dtype in (np.float32, np.float64):
            inputs = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
            T.tsum(T.conv2d(*inputs) * Tensor(g.astype(dtype))).backward()
            grads[dtype] = [t.grad for t in inputs]
        for g32, g64 in zip(grads[np.float32], grads[np.float64]):
            assert g32.dtype == np.float32
            np.testing.assert_allclose(g32, g64, rtol=1e-4, atol=1e-4)

    def test_preserves_spatial_shape(self):
        rng = np.random.default_rng(1)
        for h, w in [(1, 1), (1, 7), (4, 4), (5, 9)]:
            x = Tensor(rng.normal(size=(1, h, w)))
            k = Tensor(rng.normal(size=(2, 1, 3, 3)))
            out = T.conv2d(x, k, Tensor(np.zeros(2)))
            assert out.data.shape == (2, h, w)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((3, 4, 4)))
        k = Tensor(np.zeros((2, 2, 3, 3)))
        with pytest.raises(ShapeError, match="channels"):
            T.conv2d(x, k, Tensor(np.zeros(2)))


def upsample_oracle(src, factor):
    """Scalar reference for half-pixel-center bilinear sampling with edge clamp."""
    h, w = src.shape
    out = np.zeros((h * factor, w * factor))
    for i in range(h * factor):
        for j in range(w * factor):
            sy = min(max((i + 0.5) / factor - 0.5, 0.0), h - 1.0)
            sx = min(max((j + 0.5) / factor - 0.5, 0.0), w - 1.0)
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            wy, wx = sy - y0, sx - x0
            out[i, j] = ((1 - wy) * (1 - wx) * src[y0, x0]
                         + (1 - wy) * wx * src[y0, x1]
                         + wy * (1 - wx) * src[y1, x0]
                         + wy * wx * src[y1, x1])
    return out


class TestBilinearUpsample:
    def test_constant_input(self):
        x = Tensor(np.full((1, 3, 3), 0.7))
        for factor in (1, 2, 4):
            out = T.bilinear_upsample(x, factor)
            np.testing.assert_allclose(out.data, 0.7)

    def test_single_pixel(self):
        out = T.bilinear_upsample(Tensor(np.full((1, 1, 1), 2.5)), 4)
        assert out.data.shape == (1, 4, 4)
        np.testing.assert_allclose(out.data, 2.5)

    def test_2x2_against_sampling_formula(self):
        src = np.array([[0.0, 1.0], [0.0, 1.0]])
        out = T.bilinear_upsample(Tensor(src[None]), 2)
        np.testing.assert_allclose(out.data[0], upsample_oracle(src, 2), rtol=1e-12)

    def test_random_against_oracle(self):
        rng = np.random.default_rng(11)
        src = rng.normal(size=(3, 4))
        out = T.bilinear_upsample(Tensor(src[None]), 4)
        np.testing.assert_allclose(out.data[0], upsample_oracle(src, 4), rtol=1e-12)

    def test_identity_at_factor_1(self):
        x = Tensor(np.arange(6.0).reshape(1, 2, 3))
        np.testing.assert_array_equal(T.bilinear_upsample(x, 1).data, x.data)

    def test_bad_factor_raises(self):
        with pytest.raises(ValueError):
            T.bilinear_upsample(Tensor(np.zeros((1, 2, 2))), 0)

    def test_gradient(self):
        rng = np.random.default_rng(5)
        x = rand_tensor(rng, (2, 3, 3))
        ok, _ = gradcheck(
            lambda x: T.tsum(T.sigmoid(T.bilinear_upsample(x, 2))), (x,), rtol=1e-4)
        assert ok


# every upsample of the two benchmark workloads, as (channels, input side,
# factor): the smoke shape's decoders and side-output heads, then a 256x256
# forward's decoders
WORKLOAD_UPSAMPLES = [(32, 16, 2), (16, 32, 2), (1, 32, 2), (1, 16, 4),
                      (32, 64, 2), (16, 128, 2)]


def dense_upsample(x, factor):
    """The dense products bilinear_upsample runs by bands: wh @ x @ ww.T."""
    wh = T._interp_matrix(x.shape[1], factor, x.dtype)
    ww = T._interp_matrix(x.shape[2], factor, x.dtype)
    return wh @ x @ ww.T


def dense_upsample_grad(g, factor):
    """... and their adjoint: wh.T @ g @ ww."""
    wh = T._interp_matrix(g.shape[1] // factor, factor, g.dtype)
    ww = T._interp_matrix(g.shape[2] // factor, factor, g.dtype)
    return wh.T @ g @ ww


def two_pass_upsample(x, factor):
    """The banded product as two passes, all rows then all columns: how
    bilinear_upsample's forward ran before it wrote a band at a time."""
    return T._interp_cols(T._interp_rows(T._interp_bands(x.shape[1], factor, x.dtype, False), x),
                          T._interp_bands(x.shape[2], factor, x.dtype, False))


def two_pass_upsample_grad(g, factor):
    """... and the adjoint's two passes, which bilinear_upsample's backward runs."""
    h, w = g.shape[1] // factor, g.shape[2] // factor
    return T._interp_cols(T._interp_rows(T._interp_bands(h, factor, g.dtype, True), g),
                          T._interp_bands(w, factor, g.dtype, True))


def upsample_and_grad(x, g, factor):
    """bilinear_upsample's output for x and the gradient it passes back for g."""
    xt = Tensor(x, requires_grad=True)
    y = T.bilinear_upsample(xt, factor)
    T.tsum(y * Tensor(g)).backward()
    return y.data, xt.grad


class TestBandedUpsample:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("channels, side, factor", WORKLOAD_UPSAMPLES)
    def test_equals_the_dense_product_bit_for_bit(self, channels, side, factor, dtype):
        rng = np.random.default_rng(channels * side * factor)
        x = rng.normal(size=(channels, side, side)).astype(dtype)
        g = rng.normal(size=(channels, side * factor, side * factor)).astype(dtype)
        y, gx = upsample_and_grad(x, g, factor)
        assert y.dtype == gx.dtype == dtype
        np.testing.assert_array_equal(y, dense_upsample(x, factor))
        np.testing.assert_array_equal(gx, dense_upsample_grad(g, factor))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("channels, side, factor", [
        (4, 25, 2), (4, 50, 2), (4, 100, 2), (2, 150, 2), (2, 75, 4),
        (2, 256, 2), (2, 128, 4)])  # the last two 512 out
    def test_within_ulps_of_the_dense_product_elsewhere(self, channels, side, factor, dtype):
        # positive data, so no sum cancels and an ulp bound is a tight one
        rng = np.random.default_rng(side)
        x = rng.uniform(0.5, 1.0, size=(channels, side, side)).astype(dtype)
        g = rng.uniform(0.5, 1.0, size=(channels, side * factor, side * factor)).astype(dtype)
        y, gx = upsample_and_grad(x, g, factor)
        np.testing.assert_array_max_ulp(y, dense_upsample(x, factor), maxulp=4)
        np.testing.assert_array_max_ulp(gx, dense_upsample_grad(g, factor), maxulp=4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("factor", [2, 4, 8])
    def test_the_band_at_a_time_forward_equals_the_two_passes_bit_for_bit(self, factor, dtype):
        for side, channels in itertools.product((1, 3, 16, 25, 75, 128), (1, 16)):
            rng = np.random.default_rng(side * factor + channels)
            x = rng.normal(size=(channels, side, side + 2)).astype(dtype)
            y = T.bilinear_upsample(Tensor(x), factor).data
            assert y.tobytes() == two_pass_upsample(x, factor).tobytes(), (side, channels)

    def test_non_square_and_non_contiguous_input(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 3, 70)).transpose(1, 0, 2)  # [3, 40, 70], strided
        y = T.bilinear_upsample(Tensor(x), 2).data
        np.testing.assert_allclose(y, dense_upsample(x, 2), rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(y[1], upsample_oracle(x[1], 2), rtol=1e-12, atol=1e-12)


class TestUpsampleConcat:
    """upsample_concat(x, skip) is concat([bilinear_upsample(x, 2), skip]) in
    the padded layout, values and gradients bit for bit."""

    @pytest.mark.parametrize("skip", ["bordered", "callers"])
    @pytest.mark.parametrize("side", [64, 256, 100, 300, 512])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_pair_bit_for_bit(self, dtype, side, skip):
        # a bordered skip is a conv's output, its buffer copied whole; a
        # caller's array is copied into the interior
        rng = np.random.default_rng(side)
        x = rng.normal(size=(16, side // 2, side // 2)).astype(dtype)
        s = rng.normal(size=(1 if skip == "bordered" else 8, side, side)).astype(dtype)
        k = rng.normal(size=(8, 1, 3, 3)).astype(dtype)
        g = rng.normal(size=(24, side, side)).astype(dtype)

        def run(join):
            xt, st = Tensor(x.copy(), requires_grad=True), Tensor(s.copy(), requires_grad=True)
            skip_t = T.conv2d(st, Tensor(k), Tensor(np.zeros(8, dtype))) if skip == "bordered" else st
            y = join(xt, skip_t)
            T.tsum(y * Tensor(g)).backward()
            return y, [y.data.tobytes(), xt.grad.tobytes(), st.grad.tobytes()]

        y, fused = run(T.upsample_concat)
        _, pair = run(lambda a, b: T.concat([T.bilinear_upsample(a, 2), b], axis=0))
        assert y.data.dtype == dtype
        assert fused == pair
        assert T._pad_of(y).tobytes() == T._pad_flat(y.data).tobytes()

    @pytest.mark.parametrize("x_shape, skip_shape", [
        ((4, 8, 8), (3, 16, 17)), ((4, 8, 8), (3, 8, 8)), ((4, 8, 8), (16, 16)),
        ((8, 8), (3, 16, 16))])
    def test_a_mismatched_skip_is_refused_naming_both_shapes(self, x_shape, skip_shape):
        with pytest.raises(ShapeError, match=re.escape(
                f"upsample_concat: input {x_shape} upsampled by 2 cannot join skip {skip_shape}")):
            T.upsample_concat(Tensor(np.zeros(x_shape)), Tensor(np.zeros(skip_shape)))


class TestSigmoid:
    def test_zero_maps_to_half(self):
        assert T.sigmoid(Tensor(np.zeros(3))).data[0] == 0.5

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=10) * 5
        total = T.sigmoid(Tensor(x)).data + T.sigmoid(Tensor(-x)).data
        np.testing.assert_allclose(total, 1.0, rtol=1e-12)

    def test_no_overflow_on_extreme_inputs(self):
        out = T.sigmoid(Tensor(np.array([-1e4, 1e4]))).data
        assert np.all(np.isfinite(out))
        assert 0.0 <= out[0] < 1e-10 and 1.0 - 1e-10 < out[1] <= 1.0

    def test_gradient(self):
        rng = np.random.default_rng(4)
        x = rand_tensor(rng, (3, 3), lo=-3, hi=3)
        ok, _ = gradcheck(lambda x: T.tsum(T.sigmoid(x)), (x,), rtol=1e-4)
        assert ok

    @pytest.mark.parametrize("dtype, points", [
        (np.float64, [0.0, -0.0, 1e-8, -1e-8, 80.0, -80.0, 700.0, -700.0]),
        (np.float32, [0.0, -0.0, 1e-8, -1e-8, 80.0, -80.0]),
    ])
    def test_bitwise_equal_to_split_by_sign_formula(self, dtype, points):
        def split_by_sign(x):
            pos = x >= 0
            s = np.empty_like(x)
            s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            s[~pos] = ex / (1.0 + ex)
            return s

        rng = np.random.default_rng(5)
        # the listed points, then lengths that leave every SIMD tail width
        inputs = [np.array(points, dtype=dtype)] + [
            (rng.normal(size=n) * 20).astype(dtype) for n in (1, 7, 16, 33, 1000)]
        for x in inputs:
            assert T.sigmoid(Tensor(x)).data.tobytes() == split_by_sign(x).tobytes()


class TestRelu:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_value_and_gradient_match_mask_reference(self, dtype):
        x = Tensor(np.array([-2.0, -1e-30, -0.0, 0.0, 1e-30, 3.0], dtype=dtype),
                   requires_grad=True)
        y = T.relu(x)
        assert y.data.dtype == dtype
        assert y.data.tobytes() == np.where(x.data > 0, x.data, 0.0).tobytes()
        g = np.arange(1.0, 7.0, dtype=dtype)
        T.tsum(y * Tensor(g)).backward()
        assert x.grad.tobytes() == (g * (x.data > 0)).tobytes()

    def test_nan_propagates(self):
        y = T.relu(Tensor(np.array([np.nan, -1.0, 1.0])))
        assert np.isnan(y.data[0])
        np.testing.assert_array_equal(y.data[1:], [0.0, 1.0])


def maxpool_reference(x, g):
    """Pooled values and input gradient of an argmax max-pool (first max wins)."""
    c, h, w = x.shape
    windows = x.reshape(c, h // 2, 2, w // 2, 2).transpose(0, 1, 3, 2, 4)
    windows = windows.reshape(c, h // 2, w // 2, 4)
    idx = windows.argmax(axis=-1)
    pooled = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
    gw = np.zeros((c, h // 2, w // 2, 4), dtype=x.dtype)
    np.put_along_axis(gw, idx[..., None], g[..., None], axis=-1)
    gx = gw.reshape(c, h // 2, w // 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(c, h, w)
    return pooled, gx


class TestMaxpool:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("low, high", [(0.0, 1.0), (-2.0, -1.0), (-0.0, 0.0), (0.0, -0.0)])
    def test_every_tie_pattern_matches_argmax_reference(self, dtype, low, high):
        # one window per choice of which of its 4 entries hold the maximum:
        # single maxima, pairs, triples and all-equal windows (low == high
        # in value for the signed-zero cases, so all of those are ties)
        patterns = list(itertools.product((low, high), repeat=4))
        x = np.empty((2, 2, 2 * len(patterns)), dtype=dtype)
        for k, pat in enumerate(patterns):
            x[:, :, 2 * k:2 * k + 2] = np.array(pat, dtype=dtype).reshape(2, 2)
        g = np.arange(1.0, 1.0 + x.size // 4, dtype=dtype).reshape(2, 1, len(patterns))

        xt = Tensor(x.copy(), requires_grad=True)
        y = T.maxpool2x2(xt)
        T.tsum(y * Tensor(g)).backward()
        ref_pooled, ref_grad = maxpool_reference(x, g)
        assert y.data.dtype == dtype
        assert y.data.tobytes() == ref_pooled.tobytes()
        assert xt.grad.tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_output_matches_argmax_reference(self, dtype):
        rng = np.random.default_rng(6)
        x = T.relu(Tensor(rng.normal(size=(3, 8, 12)).astype(dtype)))
        g = rng.normal(size=(3, 4, 6)).astype(dtype)
        xt = Tensor(x.data.copy(), requires_grad=True)
        y = T.maxpool2x2(xt)
        T.tsum(y * Tensor(g)).backward()
        ref_pooled, ref_grad = maxpool_reference(x.data, g)
        assert y.data.tobytes() == ref_pooled.tobytes()
        assert xt.grad.tobytes() == ref_grad.tobytes()


def conv_reference(x, k, b):
    """conv2d's forward as a fresh pad, _correlate3 and the crop plus bias."""
    c_out, (h, w) = k.shape[0], x.shape[1:]
    wide = np.empty((c_out, h * (w + 2)), np.result_type(x, k))
    T._correlate3(T._pad_flat(x), k, h, w, wide)
    return wide.reshape(c_out, h, w + 2)[:, :, :w] + b[:, None, None]


def conv_reference_grads(x, k, g):
    """Input, kernel and bias gradients of conv_reference, from a fresh pad of
    x and g, for the output gradient g."""
    (c_out, c_in), (h, w) = k.shape[:2], x.shape[1:]
    n = h * (w + 2)
    flat, g_flat = T._pad_flat(x), T._pad_flat(g)
    g_wide = g_flat[:, w + 3:w + 3 + n]
    gk = np.stack([g_wide @ flat[:, off:off + n].T for off in T._tap_offsets(w)])
    gx = np.empty((c_in, n), g.dtype)
    T._correlate3(g_flat, k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), h, w, gx)
    return (gx.reshape(c_in, h, w + 2)[:, :, :w],
            gk.reshape(3, 3, c_out, c_in).transpose(2, 3, 0, 1), g.sum(axis=(1, 2)))


def lookalike(rng, c, h, w, dtype):
    """A caller's [C,H,W] view laid out as a padded buffer's interior, with
    a nonzero border around it."""
    buf = (rng.normal(size=(c, (h + 2) * (w + 2) + 2)) + 5.0).astype(dtype)
    return buf[:, :(h + 2) * (w + 2)].reshape(c, h + 2, w + 2)[:, 1:h + 1, 1:w + 1]


class TestPaddedLayout:
    """conv2d, relu, maxpool2x2 and upsample_concat pass activations on in the
    zero-bordered layout conv reads; every value and gradient stays that of a
    fresh pad of each conv input."""

    @pytest.mark.parametrize("side", [64, 256, 100, 300])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("join", ["maxpool", "concat"])
    def test_chain_matches_fresh_padding_bit_for_bit(self, side, dtype, join):
        # conv -> relu -> conv -> relu -> (maxpool | a decoder's join) -> conv:
        # the second and third convs read bordered inputs, the first a
        # caller's array; the join upsamples a caller's array in front of the
        # bordered r2 (upsample_concat); 8 input channels take the column
        # path, 16 and 20 the view path; 100 and 300 end in a ragged block
        rng = np.random.default_rng(side)
        x = rng.uniform(size=(1, side, side)).astype(dtype)
        extra = rng.normal(size=(4, side // 2, side // 2)).astype(dtype)
        c_last = 16 if join == "maxpool" else 20
        shapes = [(8, 1), (16, 8), (4, c_last)]
        ks = [(rng.normal(size=(o, i, 3, 3)) / np.sqrt(9 * i)).astype(dtype) for o, i in shapes]
        bs = [rng.normal(size=o).astype(dtype) for o, _ in shapes]
        out_side = side // 2 if join == "maxpool" else side
        weights = rng.normal(size=(4, out_side, out_side)).astype(dtype)

        leaves = [Tensor(a.copy(), requires_grad=True) for a in (x, extra, *ks, *bs)]
        xt, extra_t, (ka, kb, kc), (ba, bb, bc) = leaves[0], leaves[1], leaves[2:5], leaves[5:]
        r1 = T.relu(T.conv2d(xt, ka, ba))
        r2 = T.relu(T.conv2d(r1, kb, bb))
        joined = T.maxpool2x2(r2) if join == "maxpool" else T.upsample_concat(extra_t, r2)
        out = T.conv2d(joined, kc, bc)
        T.tsum(out * Tensor(weights)).backward()

        r1_ref = np.maximum(conv_reference(x, ks[0], bs[0]), 0)
        r2_ref = np.maximum(conv_reference(r1_ref, ks[1], bs[1]), 0)
        if join == "maxpool":
            joined_ref = maxpool_reference(r2_ref, np.zeros((16, out_side, out_side), dtype))[0]
        else:
            joined_ref = np.concatenate([two_pass_upsample(extra, 2), r2_ref])
        assert out.data.tobytes() == conv_reference(joined_ref, ks[2], bs[2]).tobytes()

        g_joined, gkc, gbc = conv_reference_grads(joined_ref, ks[2], weights)
        if join == "maxpool":
            g_r2, g_extra = maxpool_reference(r2_ref, g_joined)[1], None
        else:
            g_extra, g_r2 = two_pass_upsample_grad(g_joined[:4], 2), g_joined[4:]
        g_r1, gkb, gbb = conv_reference_grads(r1_ref, ks[1], g_r2 * (r2_ref > 0))
        gx, gka, gba = conv_reference_grads(x, ks[0], g_r1 * (r1_ref > 0))
        expected = [gx, g_extra, gka, gkb, gkc, gba, gbb, gbc]
        for leaf, ref in zip(leaves, expected):
            if ref is None:
                assert leaf.grad is None
            else:
                assert leaf.grad.tobytes() == np.ascontiguousarray(ref).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_each_output_is_marked_and_bordered_with_zeros(self, dtype):
        rng = np.random.default_rng(31)
        x = Tensor(rng.normal(size=(2, 6, 10)).astype(dtype))
        k = Tensor(rng.normal(size=(3, 2, 3, 3)).astype(dtype))
        b = Tensor(rng.normal(size=3).astype(dtype))
        conv = T.conv2d(x, k, b)
        relu = T.relu(conv)
        outputs = [conv, relu, T.maxpool2x2(relu), T.maxpool2x2(x),
                   T.upsample_concat(T.maxpool2x2(x), x), T.upsample_concat(Tensor(x.data[:, :3, :5]), relu)]
        for y in outputs:
            assert T._pad_of(y) is y.data.base
            assert T._pad_of(y).tobytes() == T._pad_flat(y.data).tobytes()
        # a caller's array, a relu of one, a concat and a detached view are not marked
        for y in (x, T.relu(x), T.concat([relu, relu], axis=0), relu.detach()):
            assert T._pad_of(y) is None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_callers_lookalike_array_is_padded_afresh(self, dtype):
        rng = np.random.default_rng(32)
        view = lookalike(rng, 16, 8, 6, dtype)
        k = rng.normal(size=(2, 16, 3, 3)).astype(dtype)
        b = rng.normal(size=2).astype(dtype)
        other = rng.normal(size=(3, 4, 3)).astype(dtype)

        def run(data):
            xt, kt, bt = (Tensor(a, requires_grad=True) for a in (data, k, b))
            outs = [T.conv2d(xt, kt, bt), T.relu(xt), T.maxpool2x2(xt),
                    T.upsample_concat(Tensor(other), xt)]
            loss = sum(T.tsum(T.sigmoid(o)) for o in outs[1:])
            T.tsum(outs[0] * outs[0] + loss).backward()
            return [o.data.tobytes() for o in outs] + [t.grad.tobytes() for t in (xt, kt, bt)]

        assert run(view) == run(view.copy())

    @pytest.mark.parametrize("c_in", [3, 16])  # the column path, the view path
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_callers_array_is_padded_once(self, c_in, dtype, monkeypatch):
        # forward pads the input and keeps that buffer for the kernel
        # gradient; backward pads only g
        rng = np.random.default_rng(35)
        x, k = (rng.normal(size=s).astype(dtype) for s in ((c_in, 10, 12), (4, c_in, 3, 3)))
        b, g = rng.normal(size=4).astype(dtype), rng.normal(size=(4, 10, 12)).astype(dtype)
        pad_flat, padded = T._pad_flat, []
        monkeypatch.setattr(T, "_pad_flat", lambda arr: padded.append(arr.shape) or pad_flat(arr))
        xt, kt, bt = (Tensor(a.copy(), requires_grad=True) for a in (x, k, b))
        T.tsum(T.conv2d(xt, kt, bt) * Tensor(g)).backward()
        assert padded == [x.shape, g.shape]
        for leaf, ref in zip((xt, kt, bt), conv_reference_grads(x, k, g)):
            assert leaf.grad.tobytes() == np.ascontiguousarray(ref).tobytes()

    def test_a_marked_tensor_whose_data_is_replaced_is_padded_afresh(self):
        rng = np.random.default_rng(33)
        k = Tensor(rng.normal(size=(16, 16, 3, 3)))
        b = Tensor(rng.normal(size=16))
        y = T.relu(T.conv2d(Tensor(rng.normal(size=(16, 8, 8))), k, b))
        y.data = lookalike(rng, 16, 8, 8, np.float64)
        assert T._pad_of(y) is None
        fresh = T.conv2d(Tensor(y.data.copy()), k, b)
        assert T.conv2d(y, k, b).data.tobytes() == fresh.data.tobytes()

    def test_a_wider_bias_widens_the_output_as_numpy_would(self):
        rng = np.random.default_rng(34)
        x, k = (rng.normal(size=s).astype(np.float32) for s in ((3, 6, 6), (2, 3, 3, 3)))
        b = rng.normal(size=2)
        out = T.conv2d(Tensor(x), Tensor(k), Tensor(b))
        assert out.data.dtype == np.float64
        assert out.data.tobytes() == conv_reference(x, k, b).tobytes()


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        for n in (2, 4, 8):
            p = T.softmax(Tensor(np.full(n, 3.3)), tau=2.0).data
            np.testing.assert_allclose(p, 1.0 / n, rtol=1e-12)

    def test_closed_form_two_logits(self):
        p = T.softmax(Tensor(np.array([1.0, 0.0])), tau=1.0).data
        e = np.e
        np.testing.assert_allclose(p, [e / (e + 1), 1 / (e + 1)], rtol=1e-12)
        np.testing.assert_allclose(p, [0.7311, 0.2689], atol=1e-4)

    def test_huge_logits_stay_finite(self):
        # against an arbitrary-precision oracle
        import mpmath
        logits = np.array([10000.0, 0.0])
        p = T.softmax(Tensor(logits), tau=3.0).data
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-9)
        exact = [mpmath.exp(z / 3) for z in logits]
        total = sum(exact)
        expected = np.array([float(v / total) for v in exact])
        np.testing.assert_allclose(p, expected, atol=1e-12)

    def test_sums_to_one_positive_entries(self):
        rng = np.random.default_rng(9)
        for tau in (0.1, 1.0, 3.0, 100.0):
            for _ in range(20):
                z = rng.normal(size=8) * rng.uniform(0.1, 50)
                p = T.softmax(Tensor(z), tau=tau).data
                assert abs(p.sum() - 1.0) < 1e-9
                assert np.all(p > 0)

    def test_bad_tau_raises(self):
        with pytest.raises(ValueError):
            T.softmax(Tensor(np.ones(2)), tau=0.0)

    def test_gradient(self):
        rng = np.random.default_rng(6)
        z = rand_tensor(rng, (6,), lo=-2, hi=2)
        w = Tensor(np.arange(6.0))
        ok, _ = gradcheck(lambda z: T.tsum(T.softmax(z, tau=3.0) * w), (z,), rtol=1e-4)
        assert ok


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        T.tsum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_sum_sigmoid_closed_form(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=8), requires_grad=True)
        T.tsum(T.sigmoid(x)).backward()
        s = 1 / (1 + np.exp(-x.data))
        np.testing.assert_allclose(x.grad, s * (1 - s), rtol=1e-12)

    def test_fanout_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x + x * 3.0
        T.tsum(y).backward()
        np.testing.assert_allclose(x.grad, [2 * 2.0 + 3.0])

    def test_repeated_backward_is_idempotent(self):
        x = Tensor(np.ones(4), requires_grad=True)
        loss = T.tsum(x * x)
        loss.backward()
        first = x.grad.copy()
        loss.backward()
        np.testing.assert_array_equal(x.grad, first)

    def test_non_scalar_loss_raises(self):
        x = Tensor(np.ones(4), requires_grad=True)
        with pytest.raises(GraphError):
            (x * 2.0).backward()

    def test_leaf_backward_raises(self):
        with pytest.raises(GraphError):
            Tensor(np.ones(1), requires_grad=True).backward()

    def test_no_grad_records_nothing_and_restores_after_exception(self):
        x = Tensor(np.ones(4), requires_grad=True)
        with pytest.raises(RuntimeError, match="inside"):
            with T.no_grad():
                y = T.tsum(x * 2.0)
                assert not y.requires_grad and y._backward is None
                raise RuntimeError("inside")
        loss = T.tsum(x * 2.0)
        assert loss.requires_grad
        loss.backward()
        np.testing.assert_array_equal(x.grad, np.full(4, 2.0))


class TestGraphContract:
    """The graph keeps only what backward reads, and backward leaves
    gradients on leaves only."""

    @staticmethod
    def unet_block(x, k, b, hold):
        """conv -> relu -> pool -> upsample -> concat with the skip, as a
        decoder level does; returns the loss, weak references to the conv
        output's and the upsample output's arrays, and the held tensors."""
        pre = T.conv2d(x, k, b)
        skip = T.relu(pre)
        up = T.bilinear_upsample(T.maxpool2x2(skip), 2)
        cat = T.concat([up, skip], axis=0)
        weights = Tensor(np.arange(cat.data.size, dtype=np.float64).reshape(cat.data.shape))
        loss = T.tsum(cat * weights)
        refs = weakref.ref(pre.data), weakref.ref(up.data)
        return loss, refs, (pre, up) if hold else ()

    def test_op_output_nobody_holds_is_freed_after_forward(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(2, 8, 8)))
        k = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)

        loss, (pre_ref, up_ref), held = self.unet_block(x, k, b, hold=True)
        loss.backward()
        expected = k.grad.copy(), b.grad.copy()
        assert pre_ref() is not None and up_ref() is not None
        del held

        loss, (pre_ref, up_ref), _ = self.unet_block(x, k, b, hold=False)
        # neither relu nor concat reads its operand's values in backward
        assert pre_ref() is None
        assert up_ref() is None
        loss.backward()
        assert k.grad.tobytes() == expected[0].tobytes()
        assert b.grad.tobytes() == expected[1].tobytes()

    def test_only_leaves_keep_grads_after_backward(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(size=(1, 4, 4)), requires_grad=True)
        k = Tensor(rng.normal(size=(2, 1, 3, 3)), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        constant = Tensor(rng.normal(size=(2, 4, 4)))
        h = T.relu(T.conv2d(x, k, b))
        s = T.sigmoid(h * constant)
        loss = T.tmean(s)
        loss.backward()
        for t in (h, s, loss):
            assert t.grad is None
        assert constant.grad is None
        for leaf in (x, k, b):
            assert leaf.grad is not None
            assert leaf.grad.shape == leaf.data.shape
            assert leaf.grad.dtype == leaf.data.dtype

    def test_backward_reads_operands_as_of_forward(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.array([1.0, 2.0, 3.0]))
        loss = T.tsum(a * b)
        old = b.data
        b.data = b.data * 2.0
        loss.backward()
        np.testing.assert_array_equal(a.grad, old)


class TestMiscPrimitives:
    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    @pytest.mark.parametrize("call, message", [
        (lambda: T.conv2d(np.zeros((4, 4)), np.zeros((2, 1, 3, 3)), np.zeros(2)),
         r"conv2d: expected input \[C,H,W\], got \(4, 4\)"),
        (lambda: T.conv2d(np.zeros((1, 4, 4)), np.zeros((2, 1, 5, 5)), np.zeros(2)),
         r"conv2d: expected kernel \[C_out,C_in,3,3\], got \(2, 1, 5, 5\)"),
        (lambda: T.conv2d(np.zeros((1, 4, 4)), np.zeros((2, 1, 3, 3)), np.zeros(3)),
         r"conv2d: bias shape \(3,\) != \(2,\)"),
        (lambda: T.maxpool2x2(np.zeros((4, 4))),
         r"maxpool2x2: expected \[C,H,W\], got \(4, 4\)"),
        (lambda: T.bilinear_upsample(np.zeros((4, 4)), 2),
         r"bilinear_upsample: expected \[C,h,w\], got \(4, 4\)"),
        (lambda: T.softmax(np.zeros((2, 2))),
         r"softmax: expected a 1-D vector, got \(2, 2\)"),
    ], ids=["conv2d-input", "conv2d-kernel", "conv2d-bias", "maxpool2x2",
            "bilinear_upsample", "softmax"])
    def test_a_malformed_shape_is_refused_by_name(self, call, message):
        with pytest.raises(ShapeError, match=message):
            call()

    @pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.div])
    @pytest.mark.parametrize("size_1_first", [True, False])
    def test_gradient_of_a_size_1_operand_against_an_array(self, op, size_1_first):
        """A tracked size-1 operand's gradient sums over the array it met."""
        rng = np.random.default_rng(16)
        one = rand_tensor(rng, (1,), lo=0.5, hi=1.5)
        array = rand_tensor(rng, (2, 3), lo=0.5, hi=1.5)
        operands = (one, array) if size_1_first else (array, one)
        ok, _ = gradcheck(lambda a, b: T.tsum(T.sigmoid(op(a, b))), operands)
        assert ok
        assert one.grad.shape == (1,)

    def test_maxpool_values_and_odd_shape(self):
        x = Tensor(np.arange(16.0).reshape(1, 4, 4))
        out = T.maxpool2x2(x)
        np.testing.assert_array_equal(out.data, [[[5, 7], [13, 15]]])
        with pytest.raises(ShapeError):
            T.maxpool2x2(Tensor(np.zeros((1, 3, 4))))

    def test_clamp_bounds_and_gradient_mask(self):
        x = Tensor(np.array([-2.0, 0.0, 2.0]), requires_grad=True)
        out = T.clamp(x, -1.0, 1.0)
        np.testing.assert_array_equal(out.data, [-1.0, 0.0, 1.0])
        T.tsum(out * out.detach()).backward()
        assert x.grad[0] == 0.0 and x.grad[2] == 0.0

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            T.log(Tensor(np.array([1.0, 0.0])))

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(2, 4, 4)) * 100)
        for out in [
            T.relu(x), T.sigmoid(x), T.clamp(x, -5, 5), T.tsum(x), T.tmean(x),
            T.maxpool2x2(x), T.bilinear_upsample(x, 2),
        ]:
            assert np.all(np.isfinite(out.data))

    def test_concat_and_reshape_roundtrip_gradients(self):
        rng = np.random.default_rng(14)
        a = rand_tensor(rng, (1, 2, 2))
        b = rand_tensor(rng, (2, 2, 2))
        ok, _ = gradcheck(
            lambda a, b: T.tsum(T.sigmoid(T.concat([a, b], axis=0).reshape((3, 4)))),
            (a, b), rtol=1e-4)
        assert ok


def test_allocator_left_as_the_environment_tunes_it():
    """Importing tensor sets no glibc malloc thresholds when the user set
    one of glibc's own malloc tuning variables."""
    src = os.path.dirname(os.path.dirname(T.__file__))
    env = dict(os.environ, MALLOC_TOP_PAD_="131072", PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "from vesseldistill import tensor; print(tensor._HEAP_KEPT)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.skipif(not T._HEAP_KEPT or not os.path.exists("/proc/self/status"),
                    reason="glibc's mallopt is unavailable or tuned from the environment")
def test_arrays_of_8_mib_and_more_go_back_to_the_os_when_freed():
    """In a fresh process, whose heap has no room for it, a 16 MiB array is
    mapped on its own rather than cut from the kept heap, so freeing it
    leaves no hole that later arrays fit or miss depending on the run."""
    src = os.path.dirname(os.path.dirname(T.__file__))
    code = (
        "import numpy as np\n"
        "from vesseldistill import tensor\n"
        "def rss_kib():\n"
        "    with open('/proc/self/status') as f:\n"
        "        return next(int(l.split()[1]) for l in f if l.startswith('VmRSS:'))\n"
        "a = np.ones(16 << 17)\n"  # 16 MiB of float64, every page touched
        "held = rss_kib()\n"
        "del a\n"
        "print(held - rss_kib())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert int(out.stdout) >= 15 << 10
