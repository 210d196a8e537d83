"""Dense tensors with reverse-mode automatic differentiation.

The primitive set is deliberately small: exactly the operations the
segmentation network and its losses need (element-wise arithmetic, relu,
sigmoid, log, clamp, reductions, 2x2 max-pool, 3x3 same-padding
convolution, bilinear upsampling, temperature softmax, concat/reshape).
Gradients are computed by replaying closures over a topologically sorted
computation graph, numpy arrays underneath.

The graph is made of small nodes that hold no values. A tracked tensor
gets a private `_Node` with its gradient, its operands' nodes, its
backward closure, and its shape and dtype. Every primitive hands `_make`
its output array, its operands and one closure `backward(g, *nodes)`
that maps the output's gradient `g` onto the operands' nodes (None for
an untracked operand). The closure saves only the arrays its backward
reads, never an operand Tensor: relu and sigmoid keep their outputs;
concat, reshape, tsum, tmean and bilinear_upsample keep no operand
values. So an op output that nobody holds, such as a conv pre-activation
under relu or an upsample output under concat, is freed right after
forward. `_make` stores the closure as the node's zero-argument
`_backward`, which reads `g` through a weak reference to the node, so a
graph has no reference cycles and is freed by reference counting alone.
`Tensor.backward` drops each intermediate gradient once it has been
passed on; only leaves keep `.grad`. Inside `with no_grad():` no graph
is recorded at all, which is how inference on a trainable network runs.

The 3x3 convolution correlates a flat, zero-padded copy of its input
(rows W+2 wide, the two junk columns per output row cropped): as 9 GEMMs
on shifted views of that buffer when the contraction is wide, otherwise
as GEMMs over a 9x column copy. Both paths fill the output a block of
whole 64-column units at a time, each block's workspace (its column
matrix, or its input columns, output and tap product) within about
1 MiB, half a per-core L2 cache, so the GEMM operands stay in cache and
memory does not grow with the image. Where H*(W+2) is a multiple of 64,
such blocks keep OpenBLAS's GEMM bits; its sgemv picks a kernel by
length, so a one-output-channel conv on the view path, a GEMV per tap,
stays one block.
The input gradient is the same correlation of the output gradient with
the flipped, transposed kernel, blocked the same way. The graph keeps the
unpadded input, which backward pads again for the kernel gradient, and
never a padded copy or a 9x column buffer.

On glibc, importing this module makes the allocator keep freed heap
pages mapped, so repeated forwards reuse their pages instead of
page-faulting them in afresh: arrays under 32 MiB come from the heap, and
up to 64 MiB of freed heap stays resident instead of going back to the
OS. Larger arrays are still mapped and unmapped one by one. Setting any of
glibc's MALLOC_MMAP_THRESHOLD_, MALLOC_TRIM_THRESHOLD_ or MALLOC_TOP_PAD_
leaves the allocator as the environment configures it.

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
    forward more than triple.
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
    return bool(mallopt(m_mmap_threshold, 32 << 20) and mallopt(m_trim_threshold, 64 << 20))


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

    __slots__ = ("data", "requires_grad", "_node")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._node = None

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
    x = _as_tensor(x)
    y = np.maximum(x.data, 0)  # NaN propagates; -0.0 maps to +0.0

    def backward(g, nx):
        _accumulate(nx, g * (y > 0))

    return _make(y, (x,), backward)


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
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g, *nodes):
        pieces = np.split(g, splits, axis=axis)
        for node, piece in zip(nodes, pieces):
            _accumulate(node, piece)

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


# ---- structured primitives ----

def maxpool2x2(x):
    """2x2 max-pool, stride 2, over a [C,H,W] tensor with even H and W.

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
    pooled = np.maximum(np.maximum(taps[3], taps[2]), np.maximum(taps[1], taps[0]))

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

    return _make(pooled, (x,), backward)


# contraction width from which 9 GEMMs on shifted views of the padded input
# beat one GEMM over a 9x column copy; below it the per-tap GEMMs are too
# thin (numpy's matmul with contraction 1 is ~10x slower than the copy)
_VIEW_MIN_CONTRACTION = 16

# bytes of conv workspace per block, about half of a 2 MiB per-core L2: the
# column path's 9x column matrix, or the view path's input columns with its
# output and tap-product blocks. Blocks of whole 64-column units keep one
# GEMM's bits on OpenBLAS (blocks of whole rows do not); a ragged last
# block may not
_BLOCK_BUDGET = 1 << 20


def _pad_flat(arr):
    """[C,H,W] -> [C, (H+2)*(W+2) + 2]: zero padding 1, rows flattened.

    Output pixel (i, j) reads tap (di, dj) at flat index
    i*(W+2) + j + di*(W+2) + dj, so every tap is one contiguous window of
    H*(W+2) entries; the two trailing zeros keep the last window in bounds.
    """
    c, h, w = arr.shape
    flat = np.zeros((c, (h + 2) * (w + 2) + 2), dtype=arr.dtype)
    flat[:, :(h + 2) * (w + 2)].reshape(c, h + 2, w + 2)[:, 1:h + 1, 1:w + 1] = arr
    return flat


def _tap_offsets(w):
    return [di * (w + 2) + dj for di in range(3) for dj in range(3)]


def _correlate3(flat, kernel, h, w):
    """3x3 correlation of a _pad_flat buffer with a [C_out,C,3,3] kernel.

    Rows come out W+2 wide; the two junk columns per row are cropped, so
    the result is a [C_out,H,W] view.
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
        # as few blocks as the budget allows, of equal whole 64-column units
        units = max(_BLOCK_BUDGET // (col_bytes * 64), 1)
        blocks = -(-n // (64 * units))
        step = -(-n // (64 * blocks)) * 64
    out = np.empty((c_out, n), np.result_type(kernel, flat))
    if view:
        # contiguous per-tap matrices: a kernel[:, :, di, dj] slice is not BLAS-able
        taps = np.ascontiguousarray(kernel.transpose(2, 3, 0, 1)).reshape(9, c_out, c)
        offsets = _tap_offsets(w)
        tmp = np.empty((c_out, step), out.dtype)  # reused by every block
        for lo in range(0, n, step):
            m = min(step, n - lo)
            block = out[:, lo:lo + m]
            np.matmul(taps[0], flat[:, lo:lo + m], out=block)
            for tap, off in zip(taps[1:], offsets[1:]):
                np.matmul(tap, flat[:, off + lo:off + lo + m], out=tmp[:, :m])
                block += tmp[:, :m]
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
    return out.reshape(c_out, h, w + 2)[:, :, :w]


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

    xd, k = x.data, kernel.data
    y = _correlate3(_pad_flat(xd), k, h, w) + bias.data[:, None, None]

    def backward(g, nx, nk, nb):
        g_flat = _pad_flat(g)
        if nk is not None:
            # g on the W+2-wide output grid: its two junk columns per row
            # fall on g_flat's zero padding
            n = h * (w + 2)
            g_wide = g_flat[:, w + 3:w + 3 + n]
            flat = _pad_flat(xd)  # re-padded here rather than kept from forward
            gk = np.stack([g_wide @ flat[:, off:off + n].T for off in _tap_offsets(w)])
            del flat  # before the input gradient allocates its buffers
            _accumulate(nk, gk.reshape(3, 3, c_out, c_in).transpose(2, 3, 0, 1))
        if nb is not None:
            _accumulate(nb, g.sum(axis=(1, 2)))
        if nx is not None:
            # adjoint of correlation: correlate g with the flipped, transposed kernel
            flipped = k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            _accumulate(nx, _correlate3(g_flat, flipped, h, w))

    return _make(y, (x, kernel, bias), backward)


@functools.lru_cache(maxsize=64)
def _interp_matrix(n_in, factor, dtype):
    """Dense 1-D bilinear interpolation matrix, half-pixel centers, edge clamp."""
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
    mat.setflags(write=False)  # shared by every caller through the cache
    return mat


def bilinear_upsample(x, factor):
    """Upsample a [C,h,w] tensor by an integer factor (1 = identity)."""
    x = _as_tensor(x)
    if not isinstance(factor, (int, np.integer)) or factor < 1:
        raise ValueError(f"bilinear_upsample: factor must be a positive integer, got {factor}")
    if x.data.ndim != 3:
        raise ShapeError(f"bilinear_upsample: expected [C,h,w], got {x.data.shape}")
    if factor == 1:
        return reshape(x, x.data.shape)
    _, h, w = x.data.shape
    wh = _interp_matrix(h, factor, x.data.dtype)
    ww = _interp_matrix(w, factor, x.data.dtype)
    y = wh @ x.data @ ww.T

    def backward(g, nx):
        _accumulate(nx, wh.T @ g @ ww)

    return _make(y, (x,), backward)


def softmax(logits, tau=1.0):
    """Temperature softmax over a 1-D logit vector, max-subtracted for stability."""
    logits = _as_tensor(logits)
    if logits.data.ndim != 1:
        raise ShapeError(f"softmax: expected a 1-D vector, got {logits.data.shape}")
    if tau <= 0:
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
