"""Small statistics used by the benchmark: percentiles and computed conv work."""

from __future__ import annotations

import math

TAIL_SAMPLES = 10  # a reported percentile must have at least this many samples beyond it


def _rank(p, n):
    """ceil(p/100 * n), with p*n/100 rounded first so 99.9% of 10000 is 9990."""
    return math.ceil(round(p * n / 100.0, 9))


def percentile(samples, p):
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(samples)
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(samples, p):
    """percentile(samples, p), refusing a p without TAIL_SAMPLES samples beyond it.

    With nearest-rank, percentile p of n samples leaves n - ceil(p/100 * n)
    samples strictly beyond its rank.
    """
    if len(samples) - _rank(p, len(samples)) < TAIL_SAMPLES:
        raise ValueError(
            f"p{p:g} of {len(samples)} samples has fewer than {TAIL_SAMPLES} samples beyond it")
    return percentile(samples, p)


def conv3x3_flops(c_in, c_out, h, w):
    """Forward FLOPs of a same-padded 3x3 convolution as one GEMM.

    [C_out, C_in*9] @ [C_in*9, H*W] costs 2*C_out*C_in*9*H*W multiply-adds
    counted as two FLOPs each; the bias add is not counted.
    """
    return 2 * c_out * c_in * 9 * h * w


def conv3x3_backward_flops(c_in, c_out, h, w):
    """Backward FLOPs: the kernel-gradient GEMM plus the input-gradient GEMM."""
    return 2 * conv3x3_flops(c_in, c_out, h, w)


def im2col_bytes(c_in, h, w, itemsize):
    """Size of the [C_in*9, H*W] column buffer conv2d builds for one input."""
    return c_in * 9 * h * w * itemsize
