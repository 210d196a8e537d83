"""Synthetic vessel images, PGM I/O, dataset splitting, and batching.

The synthetic generator is a stand-in for real angiography data. Each
sample's mask is made in two phases: grow a procedural vessel tree (1-3
root curves entering from the borders, recursive branching with shrinking
width) as a list of (y, x, radius) disks, one per path step, then
rasterize the union of the disks in one vectorized pass. The mask is
rendered as dark vessels over a smooth random background with blur and
noise. The blur, `_blur`, gives scipy.ndimage.gaussian_filter's bits, which
the generator used before, so every seed's dataset and every run trained on
it stay what they were, with numpy the one dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .metrics import _foreground
from .network import _check_int
from .tensor import Tensor


class PGMError(ValueError):
    """Base class for PGM parsing failures."""


class PGMMagicError(PGMError):
    """Unsupported or missing magic number."""


class PGMTruncatedError(PGMError):
    """Header or pixel payload ends prematurely."""


class PGMMaxvalError(PGMError):
    """Maxval outside the supported 1..255 range, or a pixel value outside 0..maxval."""


@dataclass
class ImageSample:
    """An image and its vessel mask, both [1,H,W].

    The package's samples hold a float32 image in [0,1] and a bool mask.
    A mask given as a Tensor or a non-bool array is stored as _foreground
    of its values; a bool array is kept uncopied.
    """
    image: Tensor
    mask: np.ndarray
    id: str

    def __post_init__(self):
        mask = self.mask.data if isinstance(self.mask, Tensor) else np.asarray(self.mask)
        self.mask = mask if mask.dtype == bool else _foreground(mask)


# ---- synthetic generation ----

def _grow_branch(disks, size, rng, y, x, angle, width, length, depth):
    """Append the (y, x, radius) disk of every step of one branch and its children."""
    step = 1.0
    for _ in range(int(length)):
        disks.append((y, x, width / 2.0))
        angle += rng.normal(0.0, 0.18)
        y += step * math.sin(angle)
        x += step * math.cos(angle)
        if not (-width <= y < size + width and -width <= x < size + width):
            break
    if depth > 0 and width > 1.0:
        n_children = rng.integers(1, 3)
        for _ in range(n_children):
            child_angle = angle + rng.uniform(0.4, 1.0) * (-1.0, 1.0)[rng.integers(2)]
            child_len = length * rng.uniform(0.5, 0.8)
            _grow_branch(disks, size, rng, y, x, child_angle, max(1.0, width * 0.7),
                         child_len, depth - 1)


def _rasterize(disks, size):
    """[size,size] bool mask of the union of the (y, x, radius) disks.

    A disk of radius r covers pixel (i, j) when (i - y)**2 + (j - x)**2 <= r**2.
    Its candidate pixels are the (2*ceil(r) + 2)**2 box from int(y) - ceil(r)
    and int(x) - ceil(r), so the disks are grouped by ceil(r) and each group
    is tested in one broadcast pass.
    """
    mask = np.zeros((size, size), dtype=bool)
    if not disks:  # a branch shorter than one step draws none
        return mask
    cy, cx, radius = (np.array(column) for column in zip(*disks))
    r2 = np.array([r ** 2 for _, _, r in disks])  # Python float powers
    ceil_r = np.ceil(radius).astype(np.int64)
    for r in np.unique(ceil_r):
        group = ceil_r == r
        offsets = np.arange(2 * r + 2)
        # int() truncates toward zero; so does the cast
        yy = (cy[group].astype(np.int64) - r)[:, None] + offsets
        xx = (cx[group].astype(np.int64) - r)[:, None] + offsets
        dy2 = (yy - cy[group][:, None]) ** 2
        dx2 = (xx - cx[group][:, None]) ** 2
        hit = dy2[:, :, None] + dx2[:, None, :] <= r2[group][:, None, None]
        hit &= ((yy >= 0) & (yy < size))[:, :, None] & ((xx >= 0) & (xx < size))[:, None, :]
        k, i, j = np.nonzero(hit)
        mask[yy[k, i], xx[k, j]] = True
    return mask


def _vessel_mask(rng, size):
    disks = []
    n_roots = int(rng.integers(1, 4))
    for _ in range(n_roots):
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
        _grow_branch(disks, size, rng, y, x, angle, width, length=size * rng.uniform(0.5, 0.9),
                     depth=depth)
    return _rasterize(disks, size)


def _blur(a, sigma):
    """scipy.ndimage.gaussian_filter(a, sigma) of a 2-D float64 array, to the bit.

    Its kernel and border, and its loop for a symmetric kernel: the weights
    exp(-x**2 / (2 sigma**2)) / sum over |x| <= int(4 sigma + 0.5), the border
    reflected (d c b a | a b c d | d c b a, again for a line shorter than the
    radius), axis 0 and then axis 1, each output x[i] w_0 plus
    (x[i-j] + x[i+j]) w_j for j from the radius down to 1.
    """
    r = int(4 * sigma + 0.5)
    w = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w = w / w.sum()
    x = np.pad(a, r, mode="symmetric")
    for _ in range(2):  # filter axis 0, then transpose so that axis 1 is next
        n = len(x) - 2 * r
        out = x[r:r + n] * w[r]
        for j in range(r, 0, -1):
            out += (x[r - j:r - j + n] + x[r + j:r + j + n]) * w[r + j]
        x = out.T
    return np.ascontiguousarray(x)


def _render_image(rng, mask, size):
    # smooth random background from an upsampled coarse grid
    coarse = rng.uniform(0.45, 0.75, size=(5, 5))
    zoom = size / 5.0
    yy = np.clip((np.arange(size) + 0.5) / zoom - 0.5, 0, 4)
    i0 = np.floor(yy).astype(int)
    i1 = np.minimum(i0 + 1, 4)
    wy = (yy - i0)[:, None]
    wx = (yy - i0)[None, :]
    bg = ((1 - wy) * (1 - wx) * coarse[np.ix_(i0, i0)]
          + (1 - wy) * wx * coarse[np.ix_(i0, i1)]
          + wy * (1 - wx) * coarse[np.ix_(i1, i0)]
          + wy * wx * coarse[np.ix_(i1, i1)])
    vessels = _blur(mask.astype(np.float64), 0.7)
    img = bg - 0.35 * vessels
    img = _blur(img, 0.5)
    img = img + rng.normal(0.0, 0.03, size=img.shape)
    return np.clip(img, 0.0, 1.0)


def _check_seed(seed):
    _check_int("seed", seed)
    if seed < 0:  # numpy seeds no generator with it
        raise ValueError(f"seed must be >= 0, got {seed}")


def generate_synthetic(seed, count, size=64):
    """Deterministically generate `count` vessel samples of shape [1,size,size],
    each image the float32 of its float64 render.

    The call fills one float32 [count,1,size,size] image block and one bool
    mask block; each sample holds views of its row, so any one sample keeps
    both whole blocks alive.
    """
    _check_seed(seed)
    _check_int("count", count)
    _check_int("size", size)
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if size < 1:
        raise ValueError(f"size must be positive, got {size}")
    rng = np.random.default_rng(seed)
    images = np.empty((count, 1, size, size), dtype=np.float32)
    masks = np.empty((count, 1, size, size), dtype=bool)
    for idx in range(count):
        masks[idx, 0] = _vessel_mask(rng, size)
        images[idx, 0] = _render_image(rng, masks[idx, 0], size)
    return [ImageSample(image=Tensor(images[idx]), mask=masks[idx],
                        id=f"synthetic-{seed}-{idx:04d}") for idx in range(count)]


# ---- PGM I/O ----

def _read_tokens(data, n):
    """Read n whitespace-separated header tokens, skipping # comments; fewer
    if the data ends first."""
    tokens = []
    i = 0
    while len(tokens) < n and i < len(data):
        c = data[i:i + 1]
        if c == b"#":
            j = data.find(b"\n", i)
            i = len(data) if j < 0 else j + 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j:j + 1].isspace() and data[j:j + 1] != b"#":
                j += 1
            tokens.append(data[i:j])
            i = j
    return tokens, i


def load_pgm(path):
    """Load a P2/P5 PGM as a float array in [0,1] of shape [H,W].

    A pixel value outside 0..maxval raises PGMMaxvalError, and a width or
    height below 1 or a P2 pixel value that is not a decimal integer raises
    PGMError.
    """
    data = Path(path).read_bytes()
    if len(data) < 2:
        raise PGMTruncatedError(f"{path}: file too short for a magic number")
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise PGMMagicError(f"{path}: unsupported magic {magic!r} (expected P2 or P5)")
    tokens, offset = _read_tokens(data[2:], 3)
    if len(tokens) < 3:
        raise PGMTruncatedError(f"{path}: unexpected end of file in header")
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise PGMTruncatedError(f"{path}: non-numeric header fields {tokens}") from None
    if width < 1 or height < 1:
        raise PGMError(f"{path}: width {width} and height {height} are not both >= 1")
    if not 1 <= maxval <= 255:
        raise PGMMaxvalError(f"{path}: maxval {maxval} outside supported range 1..255")
    n_pixels = width * height
    if magic == b"P5":
        payload = data[2 + offset + 1:]  # single whitespace byte after maxval
        if len(payload) < n_pixels:
            raise PGMTruncatedError(
                f"{path}: payload holds {len(payload)} bytes, expected {n_pixels}")
        pixels = np.frombuffer(payload[:n_pixels], dtype=np.uint8).astype(np.float64)
    else:
        values = data[2 + offset:].split()
        if len(values) < n_pixels:
            raise PGMTruncatedError(
                f"{path}: payload holds {len(values)} values, expected {n_pixels}")
        try:
            pixels = np.array([int(v) for v in values[:n_pixels]], dtype=np.float64)
        except ValueError:
            token = next(v for v in values if not v.lstrip(b"+-").isdigit())
            raise PGMError(f"{path}: pixel value {token.decode(errors='replace')!r} "
                           "is not a decimal integer") from None
    bad = (pixels < 0) | (pixels > maxval)
    if bad.any():
        raise PGMMaxvalError(
            f"{path}: pixel value {int(pixels[bad][0])} outside 0..maxval {maxval}")
    return (pixels / maxval).reshape(height, width)


def save_pgm(image, path):
    """Write a [H,W] or [1,H,W] array in [0,1] as binary P5 with maxval 255."""
    arr = np.asarray(image)
    if arr.ndim == 3 and arr.shape[0] == 1:
        arr = arr[0]
    if arr.ndim != 2:
        raise ValueError(f"save_pgm: expected [H,W] or [1,H,W], got {arr.shape}")
    q = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
    h, w = q.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(q.tobytes())


def load_sample_dir(root):
    """Load `images/*.pgm` with parallel `masks/*.pgm` matched by stem, as samples of
    a float32 image and the bool _foreground of the mask file; ValueError naming the
    mask file if its shape differs from its image's."""
    root = Path(root)
    samples = []
    for img_path in sorted((root / "images").glob("*.pgm")):
        mask_path = root / "masks" / img_path.name
        if not mask_path.exists():
            raise FileNotFoundError(f"no mask for {img_path.name} under {root / 'masks'}")
        img = load_pgm(img_path).astype(np.float32)
        mask = load_pgm(mask_path)  # ImageSample keeps its _foreground
        if mask.shape != img.shape:
            raise ValueError(f"{mask_path}: mask is {mask.shape[1]}x{mask.shape[0]}, "
                             f"but its image is {img.shape[1]}x{img.shape[0]}")
        samples.append(ImageSample(
            image=Tensor(img[None]), mask=mask[None], id=img_path.stem))
    if not samples:
        raise FileNotFoundError(f"no .pgm images under {root / 'images'}")
    return samples


def save_sample_dir(samples, root):
    root = Path(root)
    (root / "images").mkdir(parents=True, exist_ok=True)
    (root / "masks").mkdir(parents=True, exist_ok=True)
    for s in samples:
        save_pgm(s.image.data, root / "images" / f"{s.id}.pgm")
        save_pgm(s.mask, root / "masks" / f"{s.id}.pgm")


# ---- splitting and batching ----

@dataclass
class DatasetSplit:
    train: list
    val: list
    test: list


def split(samples, ratios=(7, 1, 2), seed=0):
    """Seeded shuffle then partition; remainder goes to train."""
    _check_seed(seed)
    if not samples:
        raise ValueError("cannot split an empty sample list")
    # written as negations so that NaN fails them too
    if len(ratios) != 3 or any(not r >= 0 for r in ratios):
        raise ValueError(f"ratios must be three non-negative numbers, got {ratios}")
    total = sum(ratios)
    if not 0 < total < math.inf or abs(total - round(total)) > 1e-9:
        raise ValueError(f"ratios must sum to a positive whole number, got {ratios}")
    order = np.random.default_rng(seed).permutation(len(samples))
    shuffled = [samples[i] for i in order]
    n = len(samples)
    n_val = int(n * ratios[1] / total + 0.5)
    n_test = int(n * ratios[2] / total + 0.5)
    n_train = n - n_val - n_test
    return DatasetSplit(
        train=shuffled[:n_train],
        val=shuffled[n_train:n_train + n_val],
        test=shuffled[n_train + n_val:],
    )


def batches(samples, batch_size, seed, epoch):
    """Yield reshuffled batches; the shuffle is a pure function of seed and epoch."""
    _check_int("batch_size", batch_size)
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = np.random.default_rng([seed, epoch]).permutation(len(samples))
    for start in range(0, len(samples), batch_size):
        yield [samples[i] for i in order[start:start + batch_size]]
