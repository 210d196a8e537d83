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
import zipfile
from dataclasses import dataclass, asdict, fields

import numpy as np

from . import tensor as T
from .tensor import Tensor, ShapeError


@dataclass(frozen=True)
class NetworkConfig:
    depth: int = 3
    base_channels: int = 8
    height: int = 64
    width: int = 64

    def __post_init__(self):
        _check_field_types(self)
        if self.depth < 2:
            raise ValueError(f"depth must be >= 2, got {self.depth}")
        if self.base_channels < 4:
            raise ValueError(f"base_channels must be >= 4, got {self.base_channels}")
        _check_input_shape(self, (1, self.height, self.width))

    def channels(self, level):
        """Feature channels at encoder/decoder level (1 = shallowest)."""
        return self.base_channels * 2 ** (level - 1)


# postponed annotation -> (the types a value may have, what the error says it
# must be); a float field takes an int, as JSON writes 1.0 as 1
_FIELD_TYPES = {"int": (int, "an int"), "float": ((int, float), "a number"),
                "bool": (bool, "true or false"), "str": (str, "a string")}


def _check_field_types(cfg):
    """ValueError naming the first field of the dataclass `cfg` whose value is not
    of its type: int, float, bool or str by annotation, or the class that is its
    default_factory. A bool is neither an int nor a float."""
    for f in fields(cfg):
        if isinstance(f.default_factory, type):
            types, must_be = f.default_factory, f"a {f.default_factory.__name__}"
        else:
            types, must_be = _FIELD_TYPES.get(f.type, (object, None))
        value = getattr(cfg, f.name)
        if not isinstance(value, types) or isinstance(value, bool) and f.type in ("int", "float"):
            raise ValueError(f"{f.name} must be {must_be}, got {value!r}")


def _check_known(cls, values, refusal="unknown config field {}"):
    """ValueError refusal.format(key, value) for the first key of `values` that is no
    field of the dataclass cls."""
    names = {f.name for f in fields(cls)}
    for key, value in values.items():
        if key not in names:
            raise ValueError(refusal.format(key, value))


def _param_shapes(config):
    """(name, shape) of every parameter of a net with this config, in declared order."""
    shapes = []
    d = config.depth

    def conv(name, c_in, c_out):
        shapes.append((f"{name}.w", (c_out, c_in, 3, 3)))
        shapes.append((f"{name}.b", (c_out,)))

    for k in range(1, d + 1):
        c_in = 1 if k == 1 else config.channels(k - 1)
        conv(f"enc{k}.conv1", c_in, config.channels(k))
        conv(f"enc{k}.conv2", config.channels(k), config.channels(k))
    for k in range(d - 1, 0, -1):
        conv(f"dec{k}.conv1", config.channels(k + 1) + config.channels(k), config.channels(k))
        conv(f"dec{k}.conv2", config.channels(k), config.channels(k))
    for k in range(1, d + 1):
        conv(f"head{k}", config.channels(k), 1)
    return shapes


def _check_input_shape(config, shape):
    """ShapeError unless `shape` is [1,H,W] (one channel, as angiograms have) with H
    and W divisible by 2^(depth-1): the inputs a net with this config can forward."""
    stride = 2 ** (config.depth - 1)
    if len(shape) != 3 or shape[0] != 1 or shape[1] % stride or shape[2] % stride:
        raise ShapeError(f"input shape {shape} is not [1,H,W] "
                         f"with H and W divisible by 2^(depth-1) = {stride}")


def _views(flat, config):
    """name -> view of `flat` in that parameter's shape, for the layout of every flat
    weight, moment and gradient array: each parameter raveled in `_param_shapes` order."""
    views, lo = {}, 0
    for name, shape in _param_shapes(config):
        views[name] = flat[lo:lo + math.prod(shape)].reshape(shape)
        lo += math.prod(shape)
    return views


def _check_flat(flat, need, what, whose):
    """`flat` as an array, unless it is not 1-D of `need` values: then ValueError
    "<what> holds N values, but <whose> need M", with its shape if not 1-D."""
    flat = np.asarray(flat)
    if flat.shape != (need,):
        dims = "" if flat.ndim == 1 else f" in shape {flat.shape}"
        raise ValueError(f"{what} holds {flat.size} values{dims}, but {whose} need {need}")
    return flat


def _check_float(dtype, what=None, *, by_name=False):
    """np.dtype(dtype), unless `dtype` is no name, numpy type or dtype of float32 or float64,
    or with by_name (as a config stores it) no name: then ValueError naming `what`, the
    array whose dtype it is, or else the argument dtype."""
    if dtype not in ("float32", "float64", np.float32, np.float64) or (
            by_name and not isinstance(dtype, str)):
        raise ValueError(f"dtype must be float32 or float64, got {dtype!r}" if what is None
                         else f"{what} has dtype {dtype}, not float32 or float64")
    return np.dtype(dtype)


class SegNetwork:
    """Segmentation network whose parameters are autodiff tensors over views of one
    flat array, `weights`: what every copy, send, optimizer step and save reads or writes."""

    def __init__(self, config: NetworkConfig, seed=0, *, dtype, trainable=True):
        """A float32 or float64 net (else ValueError) of He-normal kernels and zero biases."""
        self._adopt(config, dtype, trainable)
        rng = np.random.default_rng(seed)
        for name, p in self._params.items():
            if name.endswith(".w"):
                p.data[...] = rng.normal(0.0, np.sqrt(2.0 / (p.data.shape[1] * 9)),
                                         size=p.data.shape)

    @classmethod
    def from_arrays(cls, config, flat, *, trainable=True):
        """A net holding a copy of the flat weight array `flat` in its dtype, float32 or
        float64 (else ValueError); draws no initialisation."""
        flat = np.asarray(flat)
        net = cls.__new__(cls)
        net._adopt(config, flat.dtype, trainable, "the weight array")
        net.load_state_arrays(flat)
        return net

    def _adopt(self, config, dtype, trainable, what=None):
        self.config = config
        self.dtype = _check_float(dtype, what)
        self.trainable = trainable
        self.weights = np.zeros(sum(math.prod(s) for _, s in _param_shapes(config)), self.dtype)
        # name -> Tensor over a view of weights, insertion order is the declared order
        self._params = {name: Tensor(view, requires_grad=trainable)
                        for name, view in _views(self.weights, config).items()}

    # ---- parameter access ----

    def parameters(self):
        return list(self._params.values())

    def named_parameters(self):
        return dict(self._params)

    def state_arrays(self):
        """A copy of the flat weight array."""
        return self.weights.copy()

    def load_state_arrays(self, flat):
        """Overwrite the weights with the flat array `flat`, cast to the net's dtype;
        clears gradients. ValueError unless `flat` is 1-D and of the weights' length."""
        self.weights[...] = _check_flat(flat, self.weights.size, "the weight array",
                                        f"the config's {len(self._params)} parameters")
        for p in self._params.values():
            p.grad = None

    # ---- forward ----

    def _block(self, x, name):
        x = T.relu(T.conv2d(x, self._params[f"{name}.conv1.w"], self._params[f"{name}.conv1.b"]))
        x = T.relu(T.conv2d(x, self._params[f"{name}.conv2.w"], self._params[f"{name}.conv2.b"]))
        return x

    def forward(self, x):
        """Run the network; returns (prediction [1,H,W], decoder features).

        Being fully convolutional, the net takes any [1,H,W]
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
        return TeacherSnapshot(self.config, self.weights, epoch)


# ---- checkpoint I/O ----

def save_checkpoint(path, net, epoch, extras=None, run=None):
    """Write a lossless .npz checkpoint: config, parameters, epoch, run record.

    The file holds a JSON "meta" member (config, epoch, and `run`: None or
    train()'s {"train_config": ..., "logs": [...]}) and the net's flat weight
    array, in its dtype, as "params": every parameter raveled in the order and
    shapes the config gives. extras: optional dict of additional arrays (the
    optimizer's t, m and v), stored under an "extra:" prefix. The file is written
    under a temporary name and renamed over `path`, so a crash mid-write
    leaves any previous checkpoint at `path` intact.
    """
    meta = {"config": asdict(net.config), "epoch": int(epoch), "run": run}
    payload = {"meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
               "params": net.weights}
    payload.update({f"extra:{k}": np.asarray(v) for k, v in (extras or {}).items()})
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
    """A loaded checkpoint; params maps each parameter's name to a view of its flat weights."""

    def __init__(self, config, weights, epoch, extras, run=None):
        self.config = config
        self.weights = weights
        self.params = _views(weights, config)
        self.epoch = epoch
        self.extras = extras
        self.run = run

    def to_network(self, trainable=True):
        return SegNetwork.from_arrays(self.config, self.weights, trainable=trainable)


class TeacherSnapshot(Checkpoint):
    """Immutable copy of a net's flat weight array frozen at an epoch boundary."""

    def __init__(self, config, flat, epoch):
        super().__init__(config, np.array(flat, copy=True), int(epoch), {})

    def restore(self, trainable=False):
        """Rebuild a network with these exact parameter values: a frozen
        (gradient-free) teacher by default, a trainable net with trainable=True."""
        return self.to_network(trainable)


def load_checkpoint(path, extras=True):
    """Read a checkpoint written by save_checkpoint; its run record is Checkpoint.run.

    extras=False decodes only the "meta" and "params" members, which is
    all inference needs, and leaves Checkpoint.extras empty. Any other file
    is refused with ValueError naming it: one that is no .npz archive, has
    no JSON object "meta" holding a config object and an int epoch, has a
    run record that is neither null nor an object holding a train_config
    object and a logs list, has no flat float32 or float64 "params" array of
    the config's length, or stores a config NetworkConfig cannot take. Older
    files load: their stored in_channels of 1, dtype, parameter order and
    extra:train_config and extra:logs members are ignored, and a meta
    without a run record gives run None.
    """
    try:
        return _read_checkpoint(path, extras)
    except ValueError as exc:  # what a file save_checkpoint did not write raises
        raise ValueError(f"{os.fspath(path)}: {exc}") from None


def _holds(value, types):
    """Whether `value` is a dict whose value at each key k of `types` is a types[k]."""
    return isinstance(value, dict) and all(isinstance(value.get(k), t) for k, t in types.items())


def _read_checkpoint(path, extras):
    """load_checkpoint without the file's name in its ValueErrors."""
    try:
        z = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile):  # what np.load raises for other bytes
        z = None
    if not isinstance(z, np.lib.npyio.NpzFile):  # e.g. an .npy array
        raise ValueError("not an .npz archive, so not a checkpoint save_checkpoint wrote")
    with z:
        for member, what in (("meta", "no meta member"), ("params", "no flat params array")):
            if member not in z.files:
                raise ValueError(f"{what}, so not a checkpoint save_checkpoint wrote")
        try:
            meta = json.loads(z["meta"].tobytes())
        except ValueError:  # an object array, or bytes that are no UTF-8 JSON
            meta = None
        if not _holds(meta, {"config": dict, "epoch": int}):
            raise ValueError("meta is no JSON object holding a config object and an int epoch")
        run = meta.get("run")  # None in files written before the record moved to meta
        if run is not None and not _holds(run, {"train_config": dict, "logs": list}):
            raise ValueError("its run record is neither null nor an object holding a "
                             "train_config object and a logs list")
        if meta["config"].get("in_channels") == 1:  # the one input channel, as older files say
            del meta["config"]["in_channels"]
        _check_known(NetworkConfig, meta["config"],
                     "its config stores {} {!r}, but NetworkConfig has no such field")
        config = NetworkConfig(**meta["config"])
        shapes = _param_shapes(config)
        weights = _check_flat(z["params"], sum(math.prod(s) for _, s in shapes),
                              "params", f"the config's {len(shapes)} parameters")
        _check_float(weights.dtype, "params")
        stored = {k[len("extra:"):]: z[k] for k in z.files
                  if extras and k.startswith("extra:")}
    return Checkpoint(config, weights, meta["epoch"], stored, run)
