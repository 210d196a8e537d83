"""Dense tensors with reverse-mode automatic differentiation.

The primitive set is deliberately small: exactly the operations the
segmentation network and its losses need (element-wise arithmetic, relu,
sigmoid, log, clamp, reductions, 2x2 max-pool, 3x3 same-padding
convolution, bilinear upsampling, a decoder's upsample-and-concat join,
temperature softmax, concat/reshape).
Gradients are computed by replaying closures over a topologically sorted
computation graph, numpy arrays underneath.

The graph is made of small nodes that hold no values. A tracked tensor
gets a private `_Node` with its gradient, its operands' nodes, its
backward closure, and its shape and dtype. Every primitive hands `_make`
its output array, its operands and one closure `backward(g, *nodes)`
that maps the output's gradient `g` onto the operands' nodes (None for
an untracked operand). The closure saves only the arrays its backward
reads, never an operand Tensor: relu and sigmoid keep their outputs;
concat, reshape, tsum, tmean, bilinear_upsample and upsample_concat keep
no operand values. So an op output that nobody holds, such as a conv
pre-activation under relu or an upsample output under concat, is freed
right after forward. `_make` stores the closure as the node's zero-argument
`_backward`, which reads `g` through a weak reference to the node, so a
graph has no reference cycles and is freed by reference counting alone.
`Tensor.backward` drops each intermediate gradient once it has been
passed on; only leaves keep `.grad`. Inside `with no_grad():` no graph
is recorded at all, which is how inference on a trainable network runs.

The 3x3 convolution correlates a flat, zero-padded copy of its input
(rows W+2 wide, the two junk columns per output row cropped): as 9 GEMMs
on shifted views of that buffer when the contraction is wide, otherwise
as GEMMs over a 9x column copy. Both paths fill the output a block of
whole 64-column units at a time: each block's workspace (its column
matrix, or its input columns, accumulator and tap product) within about
1 MiB, half a per-core L2 cache, so the GEMM operands stay in cache and
memory does not grow with the image; each GEMM at most 100^3
multiply-adds, which OpenBLAS runs on its faster small-matrix kernels.
The view path sums a block's tap products in a contiguous accumulator
and writes the output once (adding into a strided slice of it cost
3-4x). Where H*(W+2) is a multiple of 64, such blocks keep OpenBLAS's
GEMM bits; its sgemv picks a kernel by length, so a one-output-channel
conv on the view path, a GEMV per tap, stays one block.
The input gradient is the same correlation of the output gradient with
the flipped, transposed kernel, blocked the same way.

Activations stay in that zero-padded layout between convs, so nothing is
padded twice. conv2d writes its W+2-wide rows straight into a new padded
buffer from offset W+3, where each row's two junk columns fall on border
cells, adds the bias in place and zeroes the border; relu maps a padded
buffer whole, and maxpool2x2 and upsample_concat write into one
(upsample_concat upsamples into its first channels and copies the skip's
padded buffer whole behind them). The tensor's data is
the buffer's interior view, and the primitive marks the tensor with that
very array (_pad_of), so a caller's array, whatever its strides, is
padded afresh. One rule, _padded, gives every padded input: a marked
input's buffer as is, any other input padded once. conv2d keeps that one
buffer for the kernel gradient, so no input is padded twice. No 9x
column buffer is ever kept. Gradients stay contiguous [C,H,W] arrays, and
the GEMMs see the same operands as with a fresh pad, so the bits do not move.

Bilinear upsampling multiplies by the 1-D interpolation matrices, rows
then columns, as GEMMs. Each matrix row has at most two non-zero taps, so
every GEMM covers one band: a block of 32 output rows (or columns) and only
the inputs they read, about 32 / factor + 2 of them. The cost then grows
with the output's size, not with it times the input side: the dense
product took about 6 of 44 ms in a float32 256x256 forward on one BLAS
thread, the bands 1.5. The taps a band leaves out are exact zeros and BLAS
still does the multiply-adds, so the rounding stays the GEMM's: on
OpenBLAS the bands give the dense product's bits, forward and backward,
from power-of-two sides of 1 and more in up to 256 out; other sides, and
the gradient at 512 out, can move in the last bit. One routine,
_banded_product, runs both directions one band of 32 output rows at a
time: its row GEMMs into a [C,32,m] scratch, then its column GEMMs
straight into the output, which for upsample_concat's forward is the
padded buffer the next conv reads. So no full-size upsampled map or
row-pass intermediate is ever held: a float32 [16,256,256] input's
gradient peaks at 1.25x its result, where two whole passes (all rows,
then all columns) held 3x. Each output is the dot product over the same
taps as in those two passes. On OpenBLAS the forward keeps their bits,
and so does the gradient at square power-of-two sides of 4 and more in
up to 512 out; of 268 gradient shapes tried (factors 2, 4 and 8, square
and 2-wider inputs of sides 1-256, 1 and 16 channels, float32 and
float64), 20 moved in the last bit, all with 16 channels: sides 1 and 2,
where the bands give the dense bits and two passes did not, and sides 3,
25, 75 and 150.

On glibc, importing this module makes the allocator keep freed heap
pages mapped, so repeated forwards reuse their pages instead of
page-faulting them in afresh: arrays under 8 MiB (all of a float32 256x256
forward's) come from the heap, and up to 64 MiB of freed heap stays
resident. A larger array is mapped on its own (at 32 MiB, float64 256x256
forwards after float32 ones peaked at 124-138 MB). The kept heap can still
have holes that unrelated objects' sizes move. On 2 vCPUs and one BLAS
thread, the infer_256 benchmark peaked at 84.9-85.2 MB with PYTHONHASHSEED
0-5 and in 24 runs with random hash seeds.
Setting any of glibc's MALLOC_MMAP_THRESHOLD_, MALLOC_TRIM_THRESHOLD_ or
MALLOC_TOP_PAD_ leaves the allocator as the environment configures it.

relu, sigmoid and 2x2 max-pool keep no masks or index arrays: relu's
and sigmoid's backward read their own outputs, and max-pool's backward
compares the input's four stride-2 views with the pooled output to
route each window's gradient to its first maximum.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import weakref

import numpy as np


def _keep_freed_heap():
    """Set glibc's mmap and trim thresholds (see the module docstring);
    True if both took.

    Both are needed: a trim threshold alone also freezes glibc's dynamic
    mmap threshold where it stands (128 KiB at start), and page faults per
    forward more than triple. It keeps pages mapped, not the heap free of holes.
    """
    tuned = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_")
    if any(name in os.environ for name in tuned):
        return False
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (ValueError, OSError, AttributeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # glibc's malloc.h
    return bool(mallopt(m_mmap_threshold, 8 << 20) and mallopt(m_trim_threshold, 64 << 20))


_HEAP_KEPT = _keep_freed_heap()


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class GraphError(RuntimeError):
    """Raised on invalid backward calls (non-scalar loss, leaf tensor)."""


class _Node:
    """The graph bookkeeping of one tracked tensor; it holds no values.

    `grad` is the gradient accumulated so far, `prev` the nodes of the
    tracked operands, `backward` the zero-argument closure that passes
    `grad` on to them (None on a leaf), and `shape`/`dtype` those of the
    tensor's data, which every gradient reaching the node is given.
    """

    __slots__ = ("grad", "prev", "backward", "shape", "dtype", "__weakref__")

    def __init__(self, shape, dtype, prev=()):
        self.grad = None
        self.prev = prev
        self.backward = None
        self.shape = shape
        self.dtype = dtype


class Tensor:
    """A dense real array with optional gradient tracking."""

    __slots__ = ("data", "requires_grad", "_node", "_padded")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._node = None
        self._padded = None  # see _pad_of

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value):
        if self._node is None:
            if value is None:
                return
            self._node = _Node(self.data.shape, self.data.dtype)
        self._node.grad = value

    @property
    def _backward(self):
        return None if self._node is None else self._node.backward

    @_backward.setter
    def _backward(self, fn):
        self._node.backward = fn

    def item(self):
        return float(self.data)

    def detach(self):
        """A view of the same values with no graph history."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # ---- backward ----

    def backward(self):
        """Populate .grad on every leaf requiring grad that reaches this scalar loss.

        Grads are zeroed across the graph first, so repeated backward
        calls after the same forward pass are idempotent. An intermediate
        gradient is dropped once it has been passed on, so afterwards
        only leaves have a .grad.
        """
        if self.data.size != 1:
            raise GraphError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        if self._node is None or not self._node.prev:
            raise GraphError("backward called on a tensor with no recorded forward pass")

        root = self._node
        topo = []
        visited = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if node in visited:
                continue
            visited.add(node)
            stack.append((node, True))
            for child in node.prev:
                if child not in visited:
                    stack.append((child, False))

        for node in topo:
            node.grad = None
        root.grad = np.ones(root.shape, dtype=root.dtype)
        for node in reversed(topo):
            if node.backward is not None:
                node.backward()
                node.grad = None

    # ---- operator sugar ----

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def sum(self, axis=None):
        return tsum(self, axis=axis)

    def mean(self):
        return tmean(self)

    def reshape(self, shape):
        return reshape(self, shape)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _pair(a, b):
    """Coerce a Tensor/scalar operand pair without upcasting float32 data."""
    if isinstance(a, Tensor) and not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.data.dtype))
    elif isinstance(b, Tensor) and not isinstance(a, Tensor):
        a = Tensor(np.asarray(a, dtype=b.data.dtype))
    return _as_tensor(a), _as_tensor(b)


def _node_of(t):
    """The node gradients flow into for operand t, or None if t is untracked."""
    node = t._node
    if node is not None and node.prev:
        return node
    if not t.requires_grad:
        return None
    if node is None:
        node = t._node = _Node(t.data.shape, t.data.dtype)
    else:  # a leaf whose data may have been reassigned since its last use
        node.shape, node.dtype = t.data.shape, t.data.dtype
    return node


def _accumulate(node, g):
    if node is None:
        return
    g = np.asarray(g, dtype=node.dtype)
    if g.shape != node.shape:
        # scalar operand paired with an array one
        g = g.sum().reshape(node.shape)
    node.grad = g if node.grad is None else node.grad + g


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block: outputs are plain, untracked tensors."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _make(data, operands, backward):
    """Wrap an op's output; record backward(g, *nodes) if any operand is tracked.

    `nodes` are the operands' nodes in order, None for an untracked one
    (so a one-operand backward always gets a node).
    The recorded closure reaches the output's node only through a weak
    reference, so a graph holds no reference cycle and is freed as soon
    as its last tensor is dropped.
    """
    out = Tensor(data)
    if not _grad_enabled:
        return out
    nodes = tuple(_node_of(t) for t in operands)
    tracked = tuple(n for n in nodes if n is not None)
    if tracked:
        out.requires_grad = True
        node = out._node = _Node(out.data.shape, out.data.dtype, tracked)
        ref = weakref.ref(node)
        node.backward = lambda: backward(ref().grad, *nodes)
    return out


def _check_elementwise(a, b, op):
    if a.data.shape != b.data.shape and a.data.size != 1 and b.data.size != 1:
        raise ShapeError(
            f"{op}: operand shapes {a.data.shape} and {b.data.shape} do not match"
        )


# ---- element-wise arithmetic ----

def add(a, b):
    a, b = _pair(a, b)
    _check_elementwise(a, b, "add")

    def backward(g, na, nb):
        _accumulate(na, g)
        _accumulate(nb, g)

    return _make(a.data + b.data, (a, b), backward)


def sub(a, b):
    a, b = _pair(a, b)
    _check_elementwise(a, b, "sub")

    def backward(g, na, nb):
        _accumulate(na, g)
        _accumulate(nb, -g)

    return _make(a.data - b.data, (a, b), backward)


def mul(a, b):
    a, b = _pair(a, b)
    _check_elementwise(a, b, "mul")
    ad, bd = a.data, b.data

    def backward(g, na, nb):
        _accumulate(na, g * bd)
        _accumulate(nb, g * ad)

    return _make(ad * bd, (a, b), backward)


def div(a, b):
    a, b = _pair(a, b)
    _check_elementwise(a, b, "div")
    ad, bd = a.data, b.data

    def backward(g, na, nb):
        _accumulate(na, g / bd)
        _accumulate(nb, -g * ad / (bd * bd))

    return _make(ad / bd, (a, b), backward)


# ---- element-wise nonlinearities ----

def relu(x):
    """max(x, 0); a zero-bordered input gives a zero-bordered output (_pad_of)."""
    x = _as_tensor(x)
    flat = _pad_of(x)
    if flat is None:
        y = np.maximum(x.data, 0)  # NaN propagates; -0.0 maps to +0.0
    else:  # the whole buffer at once: its zero border stays zero
        y = _interior(np.maximum(flat, 0), *x.data.shape[1:])

    def backward(g, nx):
        _accumulate(nx, g * (y > 0))

    return _make(y, (x,), backward) if flat is None else _make_padded(y, (x,), backward)


def sigmoid(x):
    x = _as_tensor(x)
    # exp of -|x| never overflows; each sign takes its stable form
    e = np.exp(-np.abs(x.data))
    s = np.where(x.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(g, nx):
        _accumulate(nx, g * s * (1.0 - s))

    return _make(s, (x,), backward)


def log(x):
    x = _as_tensor(x)
    xd = x.data
    if np.any(xd <= 0):
        raise ValueError("log: input must be strictly positive (clamp first)")

    def backward(g, nx):
        _accumulate(nx, g / xd)

    return _make(np.log(xd), (x,), backward)


def clamp(x, lo, hi):
    x = _as_tensor(x)
    inside = (x.data >= lo) & (x.data <= hi)

    def backward(g, nx):
        _accumulate(nx, g * inside)

    return _make(np.clip(x.data, lo, hi), (x,), backward)


# ---- reductions / reshaping ----

def tsum(x, axis=None):
    x = _as_tensor(x)

    def backward(g, nx):
        if axis is None:
            _accumulate(nx, np.broadcast_to(g, nx.shape))
        else:
            _accumulate(nx, np.broadcast_to(np.expand_dims(g, axis), nx.shape))

    return _make(x.data.sum(axis=axis), (x,), backward)


def tmean(x):
    x = _as_tensor(x)
    n = x.data.size

    def backward(g, nx):
        _accumulate(nx, np.broadcast_to(g / n, nx.shape))

    return _make(x.data.mean(), (x,), backward)


def reshape(x, shape):
    x = _as_tensor(x)

    def backward(g, nx):
        _accumulate(nx, g.reshape(nx.shape))

    return _make(x.data.reshape(shape), (x,), backward)


def concat(tensors, axis=0):
    """Join along `axis` (np.concatenate)."""
    tensors = [_as_tensor(t) for t in tensors]
    splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def backward(g, *nodes):
        pieces = np.split(g, splits, axis=axis)
        for node, piece in zip(nodes, pieces):
            _accumulate(node, piece)

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


# ---- structured primitives ----

def maxpool2x2(x):
    """2x2 max-pool, stride 2, over a [C,H,W] tensor with even H and W;
    the output is a zero-bordered buffer's interior (_pad_of).

    The gradient goes to the first maximum of each window in the order
    (0,0), (0,1), (1,0), (1,1); ties are common, since relu zeros fill
    whole windows.
    """
    x = _as_tensor(x)
    if x.data.ndim != 3:
        raise ShapeError(f"maxpool2x2: expected [C,H,W], got {x.data.shape}")
    c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2x2: spatial dims must be even, got {h}x{w}")
    rows = x.data.reshape(c, h // 2, 2, w)
    taps = [rows[:, :, i, j::2] for i in (0, 1) for j in (0, 1)]
    # np.maximum returns its second operand on a tie, so the earlier tap
    # goes second: the pooled value is the first maximum, sign of zero included
    pooled = _interior(_bordered(c, h // 2, w // 2, x.data.dtype), h // 2, w // 2)
    np.maximum(np.maximum(taps[3], taps[2]), np.maximum(taps[1], taps[0]), out=pooled)

    def backward(g, nx):
        gx = np.zeros((c, h // 2, 2, w), dtype=pooled.dtype)
        free = np.ones(pooled.shape, dtype=bool)  # windows not yet routed
        for (i, j), tap in zip(((0, 0), (0, 1), (1, 0)), taps):
            hit = tap == pooled
            hit &= free
            np.copyto(gx[:, :, i, j::2], g, where=hit)
            free &= ~hit
        np.copyto(gx[:, :, 1, 1::2], g, where=free)
        _accumulate(nx, gx.reshape(c, h, w))

    return _make_padded(pooled, (x,), backward)


# contraction width from which 9 GEMMs on shifted views of the padded input
# beat one GEMM over a 9x column copy; below it the per-tap GEMMs are too
# thin (numpy's matmul with contraction 1 is ~10x slower than the copy)
_VIEW_MIN_CONTRACTION = 16

# bytes of conv workspace per block, about half of a 2 MiB per-core L2: the
# column path's 9x column matrix, or the view path's input columns with its
# accumulator and tap-product blocks. Blocks of whole 64-column units keep
# one GEMM's bits on OpenBLAS (blocks of whole rows do not); a ragged last
# block may not
_BLOCK_BUDGET = 1 << 20

# multiply-adds per conv GEMM (C_out * contraction * block columns) at or
# under which OpenBLAS (0.3.31, SkylakeX, one thread) runs its unpacked
# small-matrix kernels, at about half the cost per column: a float32
# [8,72]@[72,m] took 16 ns per column at m = 1728 and 26-28 from m = 1792
_SMALL_GEMM = 100 ** 3


def _pad_flat(arr):
    """[C,H,W] -> [C, (H+2)*(W+2) + 2]: zero padding 1, rows flattened.

    Output pixel (i, j) reads tap (di, dj) at flat index
    i*(W+2) + j + di*(W+2) + dj, so every tap is one contiguous window of
    H*(W+2) entries; the two trailing zeros keep the last window in bounds.
    """
    c, h, w = arr.shape
    flat = np.zeros((c, (h + 2) * (w + 2) + 2), dtype=arr.dtype)
    _interior(flat, h, w)[...] = arr
    return flat


def _interior(flat, h, w):
    """The [C,H,W] view of a _pad_flat-shaped buffer's unpadded pixels."""
    return flat[:, :(h + 2) * (w + 2)].reshape(-1, h + 2, w + 2)[:, 1:h + 1, 1:w + 1]


def _zero_border(flat, h, w):
    """Zero everything of a _pad_flat-shaped buffer but its interior."""
    grid = flat[:, :(h + 2) * (w + 2)].reshape(-1, h + 2, w + 2)
    grid[:, 0] = grid[:, -1] = 0
    grid[:, 1:-1, 0] = grid[:, 1:-1, -1] = 0
    flat[:, -2:] = 0


def _bordered(c, h, w, dtype):
    """A _pad_flat-shaped buffer with its border zeroed, its interior unset."""
    flat = np.empty((c, (h + 2) * (w + 2) + 2), dtype)
    _zero_border(flat, h, w)
    return flat


def _make_padded(data, operands, backward):
    """_make for an output whose data is the _interior view of a zero-bordered
    buffer this primitive allocated; marks the output for _pad_of."""
    out = _make(data, operands, backward)
    out._padded = out.data
    return out


def _pad_of(x):
    """x's zero-bordered _pad_flat buffer if x.data is still the very array
    _make_padded marked, else None.

    The check is the array's identity, never its shape or strides, so a
    caller's array, even a view into a buffer of the same layout, and a
    marked tensor whose data has since been replaced are padded afresh.
    """
    return x.data.base if x._padded is x.data else None


def _padded(x):
    """x's zero-bordered _pad_flat buffer: _pad_of(x), else a fresh _pad_flat."""
    flat = _pad_of(x)
    return _pad_flat(x.data) if flat is None else flat


def _tap_offsets(w):
    return [di * (w + 2) + dj for di in range(3) for dj in range(3)]


def _correlate3(flat, kernel, h, w, out):
    """3x3 correlation of a _pad_flat buffer with a [C_out,C,3,3] kernel.

    Rows come out W+2 wide, into `out`, a [C_out, H*(W+2)] array or view
    whose rows are contiguous; the two junk columns per row are for the
    caller to crop, or to land on a _pad_flat buffer's border when `out`
    is that buffer's window from offset W+3.
    """
    c = flat.shape[0]
    c_out = kernel.shape[0]
    n = h * (w + 2)
    view = c >= _VIEW_MIN_CONTRACTION
    if view and c_out == 1:
        # a one-row GEMM runs as a GEMV, and OpenBLAS's sgemv picks its
        # kernel by length, so the view path's one-channel heads stay whole
        step = n
    else:
        col_bytes = (c + 2 * c_out if view else 9 * c) * flat.itemsize
        madds = c_out * (c if view else 9 * c)  # per GEMM output column
        # as few blocks as both limits allow, of equal whole 64-column units
        units = max(min(_BLOCK_BUDGET // col_bytes, _SMALL_GEMM // madds) // 64, 1)
        blocks = -(-n // (64 * units))
        step = -(-n // (64 * blocks)) * 64
    if view:
        # contiguous per-tap matrices: a kernel[:, :, di, dj] slice is not BLAS-able
        taps = np.ascontiguousarray(kernel.transpose(2, 3, 0, 1)).reshape(9, c_out, c)
        offsets = _tap_offsets(w)
        # reused by every block, and contiguous for a ragged last one too
        acc, tmp = np.empty((2, c_out * step), np.result_type(kernel, flat))
        for lo in range(0, n, step):
            m = min(step, n - lo)
            block, prod = acc[:c_out * m].reshape(c_out, m), tmp[:c_out * m].reshape(c_out, m)
            np.matmul(taps[0], flat[:, lo:lo + m], out=block)
            for tap, off in zip(taps[1:], offsets[1:]):
                np.matmul(tap, flat[:, off + lo:off + lo + m], out=prod)
                block += prod
            out[:, lo:lo + m] = block
    else:
        s_c, s = flat.strides
        cols = np.lib.stride_tricks.as_strided(
            flat, shape=(c, 3, 3, n), strides=(s_c, (w + 2) * s, s, s))
        kmat = kernel.reshape(c_out, c * 9)
        buf = np.empty(c * 9 * step, flat.dtype)  # reused by every block
        for lo in range(0, n, step):
            m = min(step, n - lo)
            block = buf[:c * 9 * m].reshape(c, 3, 3, m)
            np.copyto(block, cols[..., lo:lo + m])
            np.matmul(kmat, block.reshape(c * 9, m), out=out[:, lo:lo + m])


def conv2d(x, kernel, bias):
    """Same-size 3x3 cross-correlation with zero padding 1.

    x: [C_in,H,W], kernel: [C_out,C_in,3,3], bias: [C_out].
    """
    x, kernel, bias = _as_tensor(x), _as_tensor(kernel), _as_tensor(bias)
    if x.data.ndim != 3:
        raise ShapeError(f"conv2d: expected input [C,H,W], got {x.data.shape}")
    if kernel.data.ndim != 4 or kernel.data.shape[2:] != (3, 3):
        raise ShapeError(f"conv2d: expected kernel [C_out,C_in,3,3], got {kernel.data.shape}")
    c_in, h, w = x.data.shape
    c_out = kernel.data.shape[0]
    if kernel.data.shape[1] != c_in:
        raise ShapeError(
            f"conv2d: kernel expects {kernel.data.shape[1]} input channels, input has {c_in}"
        )
    if bias.data.shape != (c_out,):
        raise ShapeError(f"conv2d: bias shape {bias.data.shape} != ({c_out},)")

    k = kernel.data
    n = h * (w + 2)
    y_flat = np.empty((c_out, (h + 2) * (w + 2) + 2), np.result_type(x.data, k, bias.data))
    wide = y_flat[:, w + 3:w + 3 + n]
    x_flat = _padded(x)
    _correlate3(x_flat, k, h, w, wide)
    wide += bias.data[:, None]
    _zero_border(y_flat, h, w)  # the junk columns, bias added, included

    def backward(g, nx, nk, nb):
        g_flat = _pad_flat(g)
        if nk is not None:
            # g on the W+2-wide output grid: its two junk columns per row
            # fall on g_flat's zero padding
            g_wide = g_flat[:, w + 3:w + 3 + n]
            gk = np.stack([g_wide @ x_flat[:, off:off + n].T for off in _tap_offsets(w)])
            _accumulate(nk, gk.reshape(3, 3, c_out, c_in).transpose(2, 3, 0, 1))
        if nb is not None:
            # over g itself: numpy's pairwise sum follows the memory layout,
            # so a strided view of g_flat would round differently
            _accumulate(nb, g.sum(axis=(1, 2)))
        if nx is not None:
            # adjoint of correlation: correlate g with the flipped, transposed kernel
            flipped = k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            gx = np.empty((c_in, n), np.result_type(flipped, g_flat))
            _correlate3(g_flat, flipped, h, w, gx)
            _accumulate(nx, gx.reshape(c_in, h, w + 2)[:, :, :w])

    return _make_padded(_interior(y_flat, h, w), (x, kernel, bias), backward)


# output rows (or columns) per GEMM of the banded interpolation product. In a
# float32 256x256 forward on one BLAS thread, upsampling took 1.5 ms with 32,
# 1.5-1.9 with 16 and 2.9 with 64 (the dense product 6.4)
_BAND_ROWS = 32


def _interp_matrix(n_in, factor, dtype):
    """Dense 1-D bilinear interpolation matrix, half-pixel centers, edge clamp.

    Each row has at most two non-zero taps; bilinear_upsample multiplies
    by it one band at a time (_interp_bands).
    """
    n_out = n_in * factor
    src = (np.arange(n_out, dtype=np.float64) + 0.5) / factor - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(np.intp)
    i1 = np.minimum(i0 + 1, n_in - 1)
    w1 = src - i0
    mat = np.zeros((n_out, n_in), dtype=dtype)
    rows = np.arange(n_out)
    np.add.at(mat, (rows, i0), 1.0 - w1)
    np.add.at(mat, (rows, i1), w1)
    return mat


@functools.lru_cache(maxsize=64)
def _interp_bands(n_in, factor, dtype, adjoint):
    """The interpolation matrix, or its transpose if adjoint, as bands.

    One (r0, r1, k0, k1, band, band_t) per block of _BAND_ROWS rows, where
    columns k0:k1 hold every non-zero tap of rows r0:r1, band is
    mat[r0:r1, k0:k1] and band_t its transpose, both contiguous and, as
    every caller shares them through the cache, read-only.
    """
    mat = _interp_matrix(n_in, factor, dtype)
    if adjoint:
        mat = mat.T
    bands = []
    for r0 in range(0, mat.shape[0], _BAND_ROWS):
        r1 = min(r0 + _BAND_ROWS, mat.shape[0])
        taps = np.flatnonzero(np.any(mat[r0:r1] != 0, axis=0))
        k0, k1 = int(taps[0]), int(taps[-1]) + 1
        band = np.ascontiguousarray(mat[r0:r1, k0:k1])
        band_t = np.ascontiguousarray(band.T)
        band.setflags(write=False)
        band_t.setflags(write=False)
        bands.append((r0, r1, k0, k1, band, band_t))
    return tuple(bands)


def _banded_product(x, rows, cols, out):
    """rows @ x @ cols.T for x [C,n,m] and two interpolation matrices given as
    bands (_interp_bands), into `out`, an array or view whose rows are
    contiguous, one band of _BAND_ROWS output rows at a time: the band's row
    GEMMs into a small [C, _BAND_ROWS, m] scratch, then its column GEMMs, one
    per channel and column band, straight into `out`."""
    scratch = np.empty((x.shape[0], _BAND_ROWS, x.shape[2]), x.dtype)  # reused by every band
    for r0, r1, k0, k1, band, _ in rows:
        part = scratch[:, :r1 - r0]
        np.matmul(band, x[:, k0:k1], out=part)
        for q0, q1, j0, j1, _, band_t in cols:
            np.matmul(part[:, :, j0:j1], band_t, out=out[:, r0:r1, q0:q1])
    return out


def _upsample_into(x, factor, out):
    """wh @ x @ ww.T for x [C,h,w] into `out` [C, h*factor, w*factor]."""
    _banded_product(x, _interp_bands(x.shape[1], factor, x.dtype, False),
                    _interp_bands(x.shape[2], factor, x.dtype, False), out)


def _upsample_grad(g, h, w, factor, dtype):
    """The gradient wh.T @ g @ ww that an upsample of a [C,h,w] `dtype` input
    passes back for g."""
    return _banded_product(g, _interp_bands(h, factor, dtype, True),
                           _interp_bands(w, factor, dtype, True),
                           np.empty((g.shape[0], h, w), g.dtype))


def bilinear_upsample(x, factor):
    """Upsample a [C,h,w] tensor by an integer factor (1 = identity).

    wh @ x @ ww.T (_upsample_into), and wh.T @ g @ ww for the gradient, with
    each GEMM over one band of an interpolation matrix: the taps it leaves out
    are exact zeros, so the GEMM's rounding is the dense product's (module
    docstring).
    """
    x = _as_tensor(x)
    if not isinstance(factor, (int, np.integer)) or isinstance(factor, bool) or factor < 1:
        raise ValueError(f"bilinear_upsample: factor must be a positive integer, got {factor}")
    if x.data.ndim != 3:
        raise ShapeError(f"bilinear_upsample: expected [C,h,w], got {x.data.shape}")
    if factor == 1:
        return reshape(x, x.data.shape)
    c, h, w = x.data.shape
    dtype = x.data.dtype
    y = np.empty((c, h * factor, w * factor), dtype)
    _upsample_into(x.data, factor, y)

    def backward(g, nx):
        _accumulate(nx, _upsample_grad(g, h, w, factor, dtype))

    return _make(y, (x,), backward)


def upsample_concat(x, skip):
    """concat([bilinear_upsample(x, 2), skip], axis=0), the join of a decoder
    level, for x [C,h,w] and skip [S,2h,2w], as a zero-bordered buffer's
    interior (_pad_of).

    x is upsampled straight into the buffer's first C channels
    (_upsample_into), so the upsampled map is never held on its own, and the
    skip's padded buffer (_padded) is copied whole behind it. For operands
    of one dtype the values and gradients are the pair's, bit for bit.
    """
    x, skip = _as_tensor(x), _as_tensor(skip)
    if x.data.ndim != 3 or skip.data.ndim != 3 or skip.data.shape[1:] != tuple(
            2 * n for n in x.data.shape[1:]):
        raise ShapeError(f"upsample_concat: input {x.data.shape} upsampled by 2 "
                         f"cannot join skip {skip.data.shape}")
    c, h, w = x.data.shape
    dtype = x.data.dtype
    flat = _bordered(c + skip.data.shape[0], 2 * h, 2 * w, np.result_type(x.data, skip.data))
    _upsample_into(x.data, 2, _interior(flat[:c], 2 * h, 2 * w))
    flat[c:] = _padded(skip)

    def backward(g, nx, ns):
        if nx is not None:
            _accumulate(nx, _upsample_grad(g[:c], h, w, 2, dtype))
        _accumulate(ns, g[c:])

    return _make_padded(_interior(flat, 2 * h, 2 * w), (x, skip), backward)


def softmax(logits, tau=1.0):
    """Temperature softmax over a 1-D logit vector, max-subtracted for stability."""
    logits = _as_tensor(logits)
    if logits.data.ndim != 1:
        raise ShapeError(f"softmax: expected a 1-D vector, got {logits.data.shape}")
    if not tau > 0:  # NaN too
        raise ValueError(f"softmax: temperature must be positive, got {tau}")
    z = logits.data / tau
    z = z - z.max()
    e = np.exp(z)
    p = e / e.sum()
    # floor underflowed entries so the output is strictly positive
    p = np.maximum(p, np.finfo(p.dtype).tiny)
    p = p / p.sum()

    def backward(g, nl):
        _accumulate(nl, (p * (g - np.dot(g, p))) / tau)

    return _make(p, (logits,), backward)


# ---- gradient checking ----

def gradcheck(fn, inputs, h=1e-4, rtol=1e-3, atol=1e-5, max_per_input=None, seed=0):
    """Compare analytic gradients of a scalar-valued fn against central differences.

    inputs: tensors passed positionally to fn; only those with
    requires_grad are perturbed. max_per_input limits how many
    coordinates of each input are probed (chosen deterministically from
    seed); None probes all of them. Returns (ok, worst_abs_error).
    """
    for t in inputs:
        t.grad = None  # inputs unreachable from the loss keep stale grads otherwise
    loss = fn(*inputs)
    loss.backward()
    analytic = [
        (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        if t.requires_grad else None
        for t in inputs
    ]
    rng = np.random.default_rng(seed)

    ok = True
    worst = 0.0
    for t, g in zip(inputs, analytic):
        if g is None:
            continue
        gflat = g.reshape(-1)
        flat = t.data.reshape(-1)
        if max_per_input is not None and flat.size > max_per_input:
            coords = rng.choice(flat.size, size=max_per_input, replace=False)
        else:
            coords = range(flat.size)
        f0 = None
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            fp = float(fn(*inputs).data)
            flat[i] = orig - h
            fm = float(fn(*inputs).data)
            flat[i] = orig
            numeric = (fp - fm) / (2 * h)
            err = abs(gflat[i] - numeric)
            if err <= atol + rtol * abs(numeric):
                worst = max(worst, err)
                continue
            # central difference straddling a relu kink is not a valid
            # derivative estimate; if the one-sided slopes disagree the
            # point is non-smooth, and the analytic gradient need only
            # match one side (looser tolerance: one-sided error is O(h))
            if f0 is None:
                f0 = float(fn(*inputs).data)
            s_plus = (fp - f0) / h
            s_minus = (f0 - fm) / h
            kink = abs(s_plus - s_minus) > atol + rtol * (abs(s_plus) + abs(s_minus))
            one_sided = min(abs(gflat[i] - s_plus), abs(gflat[i] - s_minus))
            if kink and one_sided <= 10 * (atol + rtol * abs(gflat[i])):
                worst = max(worst, one_sided)
                continue
            worst = max(worst, err)
            ok = False
    return ok, worst
