"""Spans around vesseldistill's public calls, and the per-layer metrics they give.

Every wrapper is installed where its caller looks the name up: callers
write `T.conv2d(...)`, so `vesseldistill.tensor.conv2d` is wrapped; `train`
imports `batches` by name, so `vesseldistill.train.batches` is wrapped, and
so on. Nothing under src/ changes, and uninstall() puts every original back.

Layers are the package modules: tensor, network, distill, optim, data,
metrics, train and cli. `checks` (gradcheck) serves no user traffic and is
left unmeasured.
"""

from __future__ import annotations

import gc
import importlib
import os
import statistics
import time
from collections import Counter

import numpy as np

import stats
from spans import self_times

from vesseldistill import cli, data, distill, network, optim
from vesseldistill import tensor as T

# the package re-exports the function train() under the module's name
train = importlib.import_module("vesseldistill.train")

OP_GROUPS = ("conv2d", "bilinear_upsample", "maxpool2x2", "relu", "sigmoid",
             "concat", "elementwise")
# every other primitive that builds a graph node, reported together
ELEMENTWISE_OPS = ("add", "sub", "mul", "div", "log", "clamp", "tsum", "tmean",
                   "reshape", "softmax")
CONV_LAYERS = ("enc1.conv1", "enc1.conv2", "enc2.conv1", "enc2.conv2",
               "enc3.conv1", "enc3.conv2", "dec2.conv1", "dec2.conv2",
               "dec1.conv1", "dec1.conv2", "head1", "head2", "head3")

# (module, attribute, span name) for plain calls; one name may be bound in
# several modules because callers import it by name
CALL_SPANS = (
    (distill, "loss_terms", "distill.loss_terms"),
    (distill, "ddl", "distill.ddl"),
    (distill, "psdl", "distill.psdl"),
    (distill, "dice_loss", "distill.dice"),
    (train, "evaluate_pairs", "metrics.evaluate_pairs"),
    (train, "load_checkpoint", "network.checkpoint_load"),
    (network, "load_checkpoint", "network.checkpoint_load"),
    (train, "save_pgm", "data.pgm_save"),
    (data, "save_pgm", "data.pgm_save"),
    (data, "load_pgm", "data.pgm_load"),
    (data, "generate_synthetic", "data.generate"),
    (cli, "generate_synthetic", "data.generate"),
    (cli, "save_sample_dir", "data.save_sample_dir"),
    (data, "load_sample_dir", "data.load_sample_dir"),
    (train, "evaluate", "train.evaluate"),
    (train, "predict_to_file", "train.predict_to_file"),
    (train, "write_epoch_csv", "train.write_csv"),
    (cli, "main", "cli.main"),
)
METHOD_SPANS = (
    (network.SegNetwork, "side_output", "network.side_output"),
    (network.SegNetwork, "snapshot", "network.snapshot"),
    (network.TeacherSnapshot, "restore", "network.snapshot"),
    (T.Tensor, "backward", "tensor.backward"),
    (optim.AdamW, "step", "optim.step"),
)

_DONE = object()


class Instrumentation:
    """Installs the spans on a Tracer and derives per-layer metrics from them."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.kernel_names = {}                 # id(kernel tensor) -> conv layer name
        self.conv_flops = Counter()            # (layer, "fwd"|"bwd") -> FLOPs
        self.im2col_bytes = 0
        self.checkpoint_sizes = []
        self.in_epoch = False
        self._epoch_span = None
        self.gc_gen2 = 0
        self.gc_collected = 0
        self.gc_pause_s = 0.0
        self._gc_start = None

    # ---- installation ----

    def install(self):
        tr = self.tracer
        for name in OP_GROUPS[:-1] + ELEMENTWISE_OPS:
            wrap = self._conv2d if name == "conv2d" else self._primitive
            tr.patch(T, name, wrap(getattr(T, name), name))
        for module, attribute, span in CALL_SPANS:
            tr.patch(module, attribute, tr.traced(getattr(module, attribute), span))
        for cls, attribute, span in METHOD_SPANS:
            tr.patch(cls, attribute, tr.traced(cls.__dict__[attribute], span))
        tr.patch(network.SegNetwork, "forward", self._forward(network.SegNetwork.forward))
        tr.patch(train, "train", self._train(train.train))
        tr.patch(train, "save_checkpoint", self._save_checkpoint(train.save_checkpoint))
        tr.patch(network, "save_checkpoint", self._save_checkpoint(network.save_checkpoint))
        tr.patch(train, "batches", self._batches(train.batches))
        gc.callbacks.append(self._gc_callback)

    def uninstall(self):
        self.tracer.restore()
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    # ---- wrappers ----

    def _traced_backward(self, fn, name, tag=None, flops=0):
        tr = self.tracer

        def backward():
            if not tr.enabled:
                return fn()
            idx = tr.open(name, tag)
            try:
                return fn()
            finally:
                tr.close(idx)
                if flops:
                    self.conv_flops[tag, "bwd"] += flops
        return backward

    def _primitive(self, fn, op):
        tr = self.tracer
        fwd, bwd = f"tensor.{op}.fwd", f"tensor.{op}.bwd"

        def wrapper(*args, **kwargs):
            if not tr.enabled:
                return fn(*args, **kwargs)
            idx = tr.open(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.close(idx)
            if out._backward is not None:
                out._backward = self._traced_backward(out._backward, bwd)
            return out
        return wrapper

    def _conv2d(self, fn, op):
        tr = self.tracer

        def conv2d(x, kernel, bias):
            if not tr.enabled:
                return fn(x, kernel, bias)
            layer = self.kernel_names.get(id(kernel), "unnamed")
            idx = tr.open("tensor.conv2d.fwd", layer)
            try:
                out = fn(x, kernel, bias)
            finally:
                tr.close(idx)
            c_out, c_in = kernel.data.shape[:2]
            x_data = np.asarray(getattr(x, "data", x))
            _, h, w = x_data.shape
            self.conv_flops[layer, "fwd"] += stats.conv3x3_flops(c_in, c_out, h, w)
            self.im2col_bytes += stats.im2col_bytes(c_in, h, w, x_data.dtype.itemsize)
            if out._backward is not None:
                out._backward = self._traced_backward(
                    out._backward, "tensor.conv2d.bwd", layer,
                    stats.conv3x3_backward_flops(c_in, c_out, h, w))
            return out
        return conv2d

    def _forward(self, fn):
        tr = self.tracer

        def forward(net, x):
            if not tr.enabled:
                return fn(net, x)
            for name, p in net.named_parameters().items():
                if name.endswith(".w"):
                    self.kernel_names[id(p)] = name[:-2]
            frozen_in_training = self.in_epoch and not net.trainable
            idx = tr.open("network.teacher_forward" if frozen_in_training else "network.forward")
            try:
                return fn(net, x)
            finally:
                tr.close(idx)
        return forward

    def _train(self, fn):
        tr = self.tracer
        traced_train = tr.traced(fn, "train.train")

        def train_with_epoch_spans(*args, epoch_start_hook=None, epoch_end_hook=None, **kwargs):
            if not tr.enabled:
                return fn(*args, epoch_start_hook=epoch_start_hook,
                          epoch_end_hook=epoch_end_hook, **kwargs)

            def start(t, teacher_net):
                self._epoch_span = tr.open("train.epoch")
                self.in_epoch = True
                if epoch_start_hook is not None:
                    epoch_start_hook(t, teacher_net)

            def end(t, net, teacher_net, log):
                # the epoch ends where the caller's hook begins, as callers time it
                self.in_epoch = False
                tr.close(self._epoch_span)
                if epoch_end_hook is not None:
                    epoch_end_hook(t, net, teacher_net, log)

            return traced_train(*args, epoch_start_hook=start, epoch_end_hook=end, **kwargs)
        return train_with_epoch_spans

    def _save_checkpoint(self, fn):
        traced_save = self.tracer.traced(fn, "network.checkpoint_save")

        def save_checkpoint(path, *args, **kwargs):
            traced_save(path, *args, **kwargs)
            if self.tracer.enabled:
                self.checkpoint_sizes.append(os.path.getsize(path))
        return save_checkpoint

    def _batches(self, fn):
        tr = self.tracer

        def timed(gen):
            while True:
                idx = tr.open("data.batch_wait")
                try:
                    batch = next(gen, _DONE)
                finally:
                    tr.close(idx)
                if batch is _DONE:
                    return
                yield batch

        def batches(*args, **kwargs):
            gen = fn(*args, **kwargs)
            return timed(gen) if tr.enabled else gen
        return batches

    def _gc_callback(self, phase, info):
        if not self.tracer.enabled:
            return
        if phase == "start":
            self._gc_start = self.tracer.clock()
        elif self._gc_start is not None:
            self.gc_pause_s += self.tracer.clock() - self._gc_start
            self.gc_collected += info["collected"]
            self.gc_gen2 += info["generation"] == 2
            self._gc_start = None

    # ---- per-layer metrics ----

    def metrics(self):
        """Per-layer metrics over everything recorded; times are totals in seconds."""
        tr = self.tracer
        names = tr.names()
        arr = tr.arrays()
        duration = arr["end"] - arr["start"]
        own = self_times(arr["start"], arr["end"], arr["parent"])
        tags = np.asarray([t or "" for t in tr.tag], dtype=object)
        span_name = np.asarray(names, dtype=object)[arr["name_id"]] if names else np.array([])

        def mask(name):
            return span_name == name

        def total(name):
            return float(duration[mask(name)].sum())

        def self_total(name):
            return float(own[mask(name)].sum())

        def calls(name):
            return int(mask(name).sum())

        m = {}
        for group in OP_GROUPS:
            ops = ELEMENTWISE_OPS if group == "elementwise" else (group,)
            m[f"tensor.{group}.fwd_s"] = sum(self_total(f"tensor.{op}.fwd") for op in ops)
            m[f"tensor.{group}.bwd_s"] = sum(self_total(f"tensor.{op}.bwd") for op in ops)
            m[f"tensor.{group}.calls"] = sum(calls(f"tensor.{op}.fwd") for op in ops)

        conv_flops = sum(self.conv_flops.values())
        conv_s = total("tensor.conv2d.fwd") + total("tensor.conv2d.bwd")
        m["tensor.conv2d.flops"] = conv_flops
        m["tensor.conv2d.im2col_bytes"] = self.im2col_bytes
        m["tensor.conv2d.gflops"] = _rate(conv_flops, conv_s)
        for layer in CONV_LAYERS:
            for kind in ("fwd", "bwd"):
                layer_s = float(duration[mask(f"tensor.conv2d.{kind}") & (tags == layer)].sum())
                m[f"tensor.conv.{layer}.{kind}_gflops"] = _rate(self.conv_flops[layer, kind], layer_s)

        m["tensor.backward.self_s"] = self_total("tensor.backward")
        backward_ids = np.flatnonzero(mask("tensor.backward"))
        children = Counter(arr["parent"][np.isin(arr["parent"], backward_ids)].tolist())
        m["tensor.graph_nodes_per_step"] = (
            float(statistics.median([children[i] for i in backward_ids.tolist()]))
            if backward_ids.size else 0.0)

        m["network.forward_s"] = total("network.forward")
        m["network.teacher_forward_s"] = total("network.teacher_forward")
        m["network.side_output.calls"] = calls("network.side_output")
        m["network.side_output_s"] = total("network.side_output")
        m["network.snapshot_s"] = total("network.snapshot")
        m["network.checkpoint_save_s"] = total("network.checkpoint_save")
        m["network.checkpoint_load_s"] = total("network.checkpoint_load")
        m["network.checkpoint_bytes"] = (
            float(np.mean(self.checkpoint_sizes)) if self.checkpoint_sizes else 0.0)

        m["distill.loss_terms_s"] = total("distill.loss_terms")
        m["distill.ddl_s"] = total("distill.ddl")
        m["distill.psdl_s"] = total("distill.psdl")
        m["distill.dice_s"] = total("distill.dice")

        m["optim.step_s"] = total("optim.step")
        m["optim.step.calls"] = calls("optim.step")

        m["data.generate_s"] = total("data.generate")
        m["data.batch_wait_s"] = total("data.batch_wait")
        m["data.pgm_load_s"] = total("data.pgm_load")
        m["data.pgm_save_s"] = total("data.pgm_save")

        m["metrics.evaluate_pairs_s"] = total("metrics.evaluate_pairs")

        m["train.epoch_s"] = total("train.epoch")
        m["train.evaluate_s"] = total("train.evaluate")
        m["train.loop_self_s"] = self_total("train.epoch")

        m["cli.self_s"] = self_total("cli.main")

        m["gc.gen2_collections"] = self.gc_gen2
        m["gc.collected_objects"] = self.gc_collected
        m["gc.pause_s"] = self.gc_pause_s

        m["trace.uncovered_share"] = tr.uncovered_share()
        m["trace.spans"] = len(duration)
        return m


def _rate(flops, seconds):
    """GFLOP/s, or 0 where the layer did not run."""
    return flops / seconds / 1e9 if seconds > 0 else 0.0


def sgemm_peak_gflops(n=512, repeats=20):
    """Median GFLOP/s of an n^3 float32 matrix product on this machine."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    a @ b  # warm-up: thread pool and page faults
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t)
    return 2 * n ** 3 / statistics.median(times) / 1e9


def unit_of(name):
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_gflops") or name.endswith(".gflops"):
        return "GFLOP/s"
    if name.endswith(".flops"):
        return "FLOP"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"
