"""Dense tensors with reverse-mode automatic differentiation.

The primitive set is deliberately small: exactly the operations the
segmentation network and its losses need (element-wise arithmetic, relu,
sigmoid, log, clamp, reductions, 2x2 max-pool, 3x3 same-padding
convolution, bilinear upsampling, temperature softmax, concat/reshape).
Gradients are computed by replaying closures over a topologically sorted
computation graph, numpy arrays underneath.

Every primitive hands `_make` its output array, its operands and one
closure `backward(g)` that maps the output's gradient `g` onto its
operands. `_make` stores it as the node's zero-argument `_backward`,
which reads `g` through a weak reference to the output, so a graph has
no reference cycles and is freed by reference counting alone. Inside
`with no_grad():` no graph is recorded at all, which is how inference
on a trainable network runs.

The 3x3 convolution correlates a flat, zero-padded copy of its input
(rows W+2 wide, the two junk columns per output row cropped): as 9 GEMMs
on shifted views of that buffer when the contraction is wide, otherwise
as one GEMM over a strided column copy. The input gradient is the same
correlation of the output gradient with the flipped, transposed kernel,
and the graph keeps only the padded input, never a 9x column buffer.

relu, sigmoid and 2x2 max-pool keep no masks or index arrays: relu's
and sigmoid's backward read their own outputs, and max-pool's backward
compares the input's four stride-2 views with the pooled output to
route each window's gradient to its first maximum.
"""

from __future__ import annotations

import contextlib
import functools
import weakref

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class GraphError(RuntimeError):
    """Raised on invalid backward calls (non-scalar loss, leaf tensor)."""


class Tensor:
    """A dense real array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward", "__weakref__")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype)
        elif arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._prev = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def detach(self):
        """A view of the same values with no graph history."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # ---- backward ----

    def backward(self):
        """Populate .grad on every tensor reachable from this scalar loss.

        Grads are zeroed across the graph first, so repeated backward
        calls after the same forward pass are idempotent.
        """
        if self.data.size != 1:
            raise GraphError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        if not self._prev:
            raise GraphError("backward called on a tensor with no recorded forward pass")

        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for child in node._prev:
                if id(child) not in visited:
                    stack.append((child, False))

        for node in topo:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward()

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


def _needs_grad(t):
    return t.requires_grad or bool(t._prev)


def _accumulate(t, g):
    if not _needs_grad(t):
        return
    g = np.asarray(g, dtype=t.data.dtype)
    if g.shape != t.data.shape:
        # scalar operand paired with an array one
        g = g.sum().reshape(t.data.shape)
    t.grad = g if t.grad is None else t.grad + g


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


def _make(data, prev, backward):
    """Wrap an op's output; record backward(g) if any operand is tracked.

    The stored closure reaches the output only through a weak reference,
    so a graph holds no reference cycle and is freed as soon as its last
    tensor is dropped.
    """
    out = Tensor(data)
    if not _grad_enabled:
        return out
    tracked = tuple(p for p in prev if p.requires_grad or p._prev)
    if tracked:
        out.requires_grad = True
        out._prev = tracked
        ref = weakref.ref(out)
        out._backward = lambda: backward(ref().grad)
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

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _make(a.data + b.data, (a, b), backward)


def sub(a, b):
    a, b = _pair(a, b)
    _check_elementwise(a, b, "sub")

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return _make(a.data - b.data, (a, b), backward)


def mul(a, b):
    a, b = _pair(a, b)
    _check_elementwise(a, b, "mul")

    def backward(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _make(a.data * b.data, (a, b), backward)


def div(a, b):
    a, b = _pair(a, b)
    _check_elementwise(a, b, "div")

    def backward(g):
        _accumulate(a, g / b.data)
        _accumulate(b, -g * a.data / (b.data * b.data))

    return _make(a.data / b.data, (a, b), backward)


# ---- element-wise nonlinearities ----

def relu(x):
    x = _as_tensor(x)
    y = np.maximum(x.data, 0)  # NaN propagates; -0.0 maps to +0.0

    def backward(g):
        _accumulate(x, g * (y > 0))

    return _make(y, (x,), backward)


def sigmoid(x):
    x = _as_tensor(x)
    # exp of -|x| never overflows; each sign takes its stable form
    e = np.exp(-np.abs(x.data))
    s = np.where(x.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(g):
        _accumulate(x, g * s * (1.0 - s))

    return _make(s, (x,), backward)


def log(x):
    x = _as_tensor(x)
    if np.any(x.data <= 0):
        raise ValueError("log: input must be strictly positive (clamp first)")

    def backward(g):
        _accumulate(x, g / x.data)

    return _make(np.log(x.data), (x,), backward)


def clamp(x, lo, hi):
    x = _as_tensor(x)
    inside = (x.data >= lo) & (x.data <= hi)

    def backward(g):
        _accumulate(x, g * inside)

    return _make(np.clip(x.data, lo, hi), (x,), backward)


# ---- reductions / reshaping ----

def tsum(x, axis=None):
    x = _as_tensor(x)

    def backward(g):
        if axis is None:
            _accumulate(x, np.broadcast_to(g, x.data.shape))
        else:
            _accumulate(x, np.broadcast_to(np.expand_dims(g, axis), x.data.shape))

    return _make(x.data.sum(axis=axis), (x,), backward)


def tmean(x):
    x = _as_tensor(x)
    n = x.data.size

    def backward(g):
        _accumulate(x, np.broadcast_to(g / n, x.data.shape))

    return _make(x.data.mean(), (x,), backward)


def reshape(x, shape):
    x = _as_tensor(x)

    def backward(g):
        _accumulate(x, g.reshape(x.data.shape))

    return _make(x.data.reshape(shape), (x,), backward)


def concat(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        pieces = np.split(g, splits, axis=axis)
        for t, piece in zip(tensors, pieces):
            _accumulate(t, piece)

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), backward)


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

    def backward(g):
        gx = np.zeros((c, h // 2, 2, w), dtype=x.data.dtype)
        free = np.ones(pooled.shape, dtype=bool)  # windows not yet routed
        for (i, j), tap in zip(((0, 0), (0, 1), (1, 0)), taps):
            hit = tap == pooled
            hit &= free
            np.copyto(gx[:, :, i, j::2], g, where=hit)
            free &= ~hit
        np.copyto(gx[:, :, 1, 1::2], g, where=free)
        _accumulate(x, gx.reshape(c, h, w))

    return _make(pooled, (x,), backward)


# contraction width from which 9 GEMMs on shifted views of the padded input
# beat one GEMM over a 9x column copy; below it the per-tap GEMMs are too
# thin (numpy's matmul with contraction 1 is ~10x slower than the copy)
_VIEW_MIN_CONTRACTION = 16


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
    if c >= _VIEW_MIN_CONTRACTION:
        # contiguous per-tap matrices: a kernel[:, :, di, dj] slice is not BLAS-able
        taps = np.ascontiguousarray(kernel.transpose(2, 3, 0, 1)).reshape(9, c_out, c)
        offsets = _tap_offsets(w)
        out = taps[0] @ flat[:, :n]
        tmp = np.empty_like(out)
        for tap, off in zip(taps[1:], offsets[1:]):
            np.matmul(tap, flat[:, off:off + n], out=tmp)
            out += tmp
    else:
        s_c, s = flat.strides
        cols = np.lib.stride_tricks.as_strided(
            flat, shape=(c, 3, 3, n), strides=(s_c, (w + 2) * s, s, s))
        out = kernel.reshape(c_out, c * 9) @ cols.reshape(c * 9, n)
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

    k = kernel.data
    flat = _pad_flat(x.data)
    y = _correlate3(flat, k, h, w) + bias.data[:, None, None]

    def backward(g):
        g_flat = _pad_flat(g)
        if _needs_grad(kernel):
            # g on the W+2-wide output grid: its two junk columns per row
            # fall on g_flat's zero padding
            n = h * (w + 2)
            g_wide = g_flat[:, w + 3:w + 3 + n]
            gk = np.stack([g_wide @ flat[:, off:off + n].T for off in _tap_offsets(w)])
            _accumulate(kernel, gk.reshape(3, 3, c_out, c_in).transpose(2, 3, 0, 1))
        if _needs_grad(bias):
            _accumulate(bias, g.sum(axis=(1, 2)))
        if _needs_grad(x):
            # adjoint of correlation: correlate g with the flipped, transposed kernel
            flipped = k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            _accumulate(x, _correlate3(g_flat, flipped, h, w))

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

    def backward(g):
        _accumulate(x, wh.T @ g @ ww)

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

    def backward(g):
        _accumulate(logits, (p * (g - np.dot(g, p))) / tau)

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
