"""Encoder-decoder segmentation network with per-depth side-output heads.

A plain U-Net-style backbone: each encoder level is two 3x3 conv+relu
blocks followed by a 2x2 max-pool (none at the bottleneck); each decoder
level upsamples by 2, concatenates the same-resolution encoder skip, and
applies two 3x3 conv+relu blocks. Every decoder depth i carries a head
convolution to one channel; projecting, upsampling by 2^(i-1), and
applying a sigmoid yields the side output at full input resolution. The
depth-1 head doubles as the final prediction head.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, asdict, fields

import numpy as np

from . import tensor as T
from .tensor import Tensor, ShapeError


@dataclass(frozen=True)
class NetworkConfig:
    depth: int = 3
    base_channels: int = 8
    in_channels: int = 1
    height: int = 64
    width: int = 64

    def __post_init__(self):
        _check_field_types(self)
        if self.depth < 2:
            raise ValueError(f"depth must be >= 2, got {self.depth}")
        if self.base_channels < 4:
            raise ValueError(f"base_channels must be >= 4, got {self.base_channels}")
        _check_input_shape(self, (self.in_channels, self.height, self.width))

    def channels(self, level):
        """Feature channels at encoder/decoder level (1 = shallowest)."""
        return self.base_channels * 2 ** (level - 1)


# postponed annotation -> (the types a value may have, what the error says it
# must be); a float field takes an int, as JSON writes 1.0 as 1
_FIELD_TYPES = {"int": (int, "an int"), "float": ((int, float), "a number"),
                "bool": (bool, "true or false"), "str": (str, "a string")}


def _check_field_types(cfg):
    """ValueError naming the first int, float, bool or str field of the dataclass
    `cfg` whose value is not of that type; a bool is neither an int nor a float."""
    for f in fields(cfg):
        types, must_be = _FIELD_TYPES.get(f.type, (object, None))
        value = getattr(cfg, f.name)
        if not isinstance(value, types) or isinstance(value, bool) and f.type in ("int", "float"):
            raise ValueError(f"{f.name} must be {must_be}, got {value!r}")


def _param_shapes(config):
    """(name, shape) of every parameter of a net with this config, in declared order."""
    shapes = []
    d = config.depth

    def conv(name, c_in, c_out):
        shapes.append((f"{name}.w", (c_out, c_in, 3, 3)))
        shapes.append((f"{name}.b", (c_out,)))

    for k in range(1, d + 1):
        c_in = config.in_channels if k == 1 else config.channels(k - 1)
        conv(f"enc{k}.conv1", c_in, config.channels(k))
        conv(f"enc{k}.conv2", config.channels(k), config.channels(k))
    for k in range(d - 1, 0, -1):
        conv(f"dec{k}.conv1", config.channels(k + 1) + config.channels(k), config.channels(k))
        conv(f"dec{k}.conv2", config.channels(k), config.channels(k))
    for k in range(1, d + 1):
        conv(f"head{k}", config.channels(k), 1)
    return shapes


def _check_input_shape(config, shape):
    """ShapeError unless `shape` is [in_channels,H,W] with H and W divisible
    by 2^(depth-1): the inputs a net with this config can forward."""
    stride = 2 ** (config.depth - 1)
    if len(shape) != 3 or shape[0] != config.in_channels or shape[1] % stride \
            or shape[2] % stride:
        raise ShapeError(
            f"input shape {shape} is not [{config.in_channels},H,W] "
            f"with H and W divisible by 2^(depth-1) = {stride}"
        )


class SegNetwork:
    """Segmentation network; parameters are autodiff tensors in a fixed order."""

    def __init__(self, config: NetworkConfig, seed=0, dtype=np.float64,
                 trainable=True):
        """A randomly initialised net: He-normal kernels, zero biases."""
        rng = np.random.default_rng(seed)
        arrays = {
            name: rng.normal(0.0, np.sqrt(2.0 / (shape[1] * 9)), size=shape)
            if name.endswith(".w") else np.zeros(shape)
            for name, shape in _param_shapes(config)
        }
        self._adopt(config, arrays, dtype, trainable)

    @classmethod
    def from_arrays(cls, config, arrays, dtype=np.float64, trainable=True):
        """A net holding copies of `arrays` (name -> array); draws no initialisation."""
        net = cls.__new__(cls)
        net._adopt(config, arrays, dtype, trainable)
        return net

    def _adopt(self, config, arrays, dtype, trainable):
        self.config = config
        self.dtype = np.dtype(dtype)
        self.trainable = trainable
        # name -> Tensor, insertion order is the declared order
        self._params = {name: Tensor(self._checked_copy(name, arrays[name], shape),
                                     requires_grad=trainable)
                        for name, shape in _param_shapes(config)}

    def _checked_copy(self, name, arr, shape):
        if np.shape(arr) != shape:
            raise ShapeError(
                f"parameter {name}: stored shape {np.shape(arr)} != expected {shape}")
        return np.array(arr, dtype=self.dtype)

    # ---- parameter access ----

    def parameters(self):
        return list(self._params.values())

    def named_parameters(self):
        return dict(self._params)

    def state_arrays(self):
        """Parameter values by name, copied out of the graph."""
        return {name: p.data.copy() for name, p in self._params.items()}

    def load_state_arrays(self, arrays):
        """Overwrite every parameter with a copy of arrays[name]; clears gradients."""
        for name, p in self._params.items():
            p.data = self._checked_copy(name, arrays[name], p.data.shape)
            p.grad = None

    # ---- forward ----

    def _block(self, x, name):
        x = T.relu(T.conv2d(x, self._params[f"{name}.conv1.w"], self._params[f"{name}.conv1.b"]))
        x = T.relu(T.conv2d(x, self._params[f"{name}.conv2.w"], self._params[f"{name}.conv2.b"]))
        return x

    def forward(self, x):
        """Run the network; returns (prediction [1,H,W], decoder features).

        Being fully convolutional, the net takes any [in_channels,H,W]
        input whose H and W are divisible by 2^(depth-1), not only the
        training size in its config. An input of another dtype is cast to
        the net's; a Tensor of the net's dtype is used uncopied.

        decoder_features[i-1] is the depth-i map, index 0 at full
        resolution, the last entry being the bottleneck output.
        """
        if isinstance(x, Tensor):
            x = x if x.dtype == self.dtype else Tensor(x.data.astype(self.dtype))
        else:
            x = Tensor(np.asarray(x, dtype=self.dtype))
        _check_input_shape(self.config, x.data.shape)

        d = self.config.depth
        skips = []
        h = x
        for k in range(1, d + 1):
            h = self._block(h, f"enc{k}")
            skips.append(h)
            if k < d:
                h = T.maxpool2x2(h)

        features = [None] * d
        h = features[d - 1] = skips.pop()  # bottleneck
        for k in range(d - 1, 0, -1):
            # the upsampled map and the skip are held only by the concat's
            # inputs, so both are freed before the decoder block runs
            h = self._block(T.concat([T.bilinear_upsample(h, 2), skips.pop()], axis=0),
                            f"dec{k}")
            features[k - 1] = h

        prediction = self.side_output(features[0], 1)
        return prediction, features

    def side_output(self, feature, depth):
        """Project a depth-i decoder map to a full-resolution probability map."""
        d = self.config.depth
        if not 1 <= depth <= d:
            raise ValueError(f"side_output: depth {depth} outside 1..{d}")
        h = T.conv2d(feature, self._params[f"head{depth}.w"], self._params[f"head{depth}.b"])
        h = T.bilinear_upsample(h, 2 ** (depth - 1))
        return T.sigmoid(h)

    def side_outputs(self, features, prediction):
        """All side outputs, shallowest first, from the prediction and
        decoder features one `forward` returned. The depth-1 side output is
        that prediction itself, so the depth-1 head runs once."""
        return [prediction] + [self.side_output(f, i) for i, f in enumerate(features[1:], 2)]

    # ---- snapshots ----

    def snapshot(self, epoch=0):
        return TeacherSnapshot(self.config, self.state_arrays(), epoch, str(self.dtype))


class TeacherSnapshot:
    """Immutable copy of all network parameters frozen at an epoch boundary."""

    def __init__(self, config, arrays, epoch, dtype="float64"):
        self.config = config
        self._arrays = {k: np.array(v, copy=True) for k, v in arrays.items()}
        self.epoch = int(epoch)
        self.dtype = dtype

    def arrays(self):
        return {k: v.copy() for k, v in self._arrays.items()}

    def restore(self, trainable=False):
        """Rebuild a network with these exact parameter values.

        The default is a frozen (gradient-free) teacher; pass
        trainable=True to resume training from the stored weights.
        """
        return SegNetwork.from_arrays(self.config, self._arrays, dtype=self.dtype,
                                      trainable=trainable)


# ---- checkpoint I/O ----

def save_checkpoint(path, net, epoch, extras=None):
    """Write a lossless .npz checkpoint: config, parameters, epoch.

    The file holds a JSON "meta" member (config, dtype, epoch, parameter
    order) and one flat "params" array, every parameter raveled in that
    order; the config gives their shapes. extras: optional dict of
    additional arrays (e.g. optimizer moments), stored under an "extra:"
    prefix. The file is written under a temporary name and renamed over
    `path`, so a crash mid-write leaves any previous checkpoint at `path`
    intact.
    """
    meta = {
        "config": asdict(net.config),
        "dtype": str(net.dtype),
        "epoch": int(epoch),
        "param_order": list(net.named_parameters().keys()),
    }
    payload = {
        "meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        "params": np.concatenate([p.data.ravel() for p in net.parameters()]),
    }
    if extras:
        for k, v in extras.items():
            payload[f"extra:{k}"] = np.asarray(v)
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"  # the name np.savez writes
    tmp = path[:-len(".npz")] + ".tmp.npz"
    try:
        np.savez(tmp, **payload)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


class Checkpoint:
    def __init__(self, config, params, epoch, dtype, extras):
        self.config = config
        self.params = params
        self.epoch = epoch
        self.dtype = dtype
        self.extras = extras

    def to_network(self, trainable=True):
        return SegNetwork.from_arrays(self.config, self.params, dtype=self.dtype,
                                      trainable=trainable)


def _split_params(path, flat, config, order):
    """Slice a flat "params" array into name -> array, shapes from the config."""
    shapes = dict(_param_shapes(config))
    sizes = [math.prod(shapes[name]) for name in order]
    if flat.size != sum(sizes):
        raise ValueError(
            f"{os.fspath(path)}: params holds {flat.size} values, but the config's "
            f"{len(sizes)} parameters need {sum(sizes)}")
    offsets = np.cumsum([0] + sizes)
    return {name: flat[lo:hi].reshape(shapes[name])
            for name, lo, hi in zip(order, offsets[:-1], offsets[1:])}


def load_checkpoint(path, extras=True):
    """Read a checkpoint written by save_checkpoint.

    extras=False decodes only the "meta" and "params" members, which is
    all inference needs, and leaves Checkpoint.extras empty. A file
    without a flat "params" array raises ValueError.
    """
    with np.load(path) as z:
        if "params" not in z.files:
            raise ValueError(f"{os.fspath(path)}: no flat params array, "
                             "so not a checkpoint save_checkpoint wrote")
        meta = json.loads(bytes(z["meta"]).decode())
        config = NetworkConfig(**meta["config"])
        params = _split_params(path, z["params"], config, meta["param_order"])
        stored = {k[len("extra:"):]: z[k] for k in z.files
                  if extras and k.startswith("extra:")}
    return Checkpoint(config, params, meta["epoch"], meta["dtype"], stored)
