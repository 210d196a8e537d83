"""Self-distillation training loop, evaluation, and sweep harness.

Epoch 1 optimizes dice only. At the end of every epoch the just-updated
weights are frozen as the teacher for all batches of the next epoch, so
from epoch 2 on each batch runs a gradient-free teacher forward and the
full three-term objective with a linearly ramped soft-label weight.

Training splits every batch across min(CPUs, batch size) processes: this
one and workers forked when training starts (one process without fork).
Each process runs forward, loss and backward one sample at a time, its
terms scaled by 1/len(batch). This process sums the samples' term values
and gradients in sample order, in the net's dtype, then steps the
optimizer, so the numbers are bitwise the same for any process count.
Each process runs OpenBLAS on one thread while training, however many
there are: a float32 GEMV's bits depend on each BLAS thread's share of it.
"""

from __future__ import annotations

import csv
import ctypes
import dataclasses
import json
import math
import multiprocessing
import os
import signal
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import distill
from .data import DatasetSplit, batches, save_pgm
from .metrics import MetricReport, evaluate_pairs
from .network import NetworkConfig, SegNetwork, load_checkpoint, save_checkpoint
from .optim import AdamW, lr_at
from .tensor import Tensor, no_grad


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 4
    learning_rate: float = 1e-3
    weight_decay: float = 1e-5
    lr_step_every: int = 10
    lr_gamma: float = 0.3
    distill: distill.DistillConfig = field(default_factory=distill.DistillConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    seed: int = 0
    out_dir: str = "runs/default"
    dtype: str = "float32"
    dice_only: bool = False  # baseline control: skip distillation entirely

    def validate(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        try:
            dtype = np.dtype(self.dtype)
        except TypeError:
            dtype = None
        if dtype not in (np.float32, np.float64):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")
        # written as negations so that NaN fails them too
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.lr_step_every < 1:
            raise ValueError(f"lr_step_every must be >= 1, got {self.lr_step_every}")
        if not 0 < self.lr_gamma <= 1:  # the step schedule decays
            raise ValueError(f"lr_gamma must be in (0, 1], got {self.lr_gamma}")
        distill.PatchGrid.for_shape(self.network.height, self.network.width,
                                    self.distill.grid_g)

    @staticmethod
    def from_dict(d):
        d = dict(d)
        if "distill" in d:
            d["distill"] = distill.DistillConfig(**d["distill"])
        if "network" in d:
            d["network"] = NetworkConfig(**d["network"])
        return TrainConfig(**d)

    def to_dict(self):
        return dataclasses.asdict(self)


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    ddl: float
    psdl: float
    dice: float
    val_dsc: float
    val_acc: float
    val_sen: float
    val_iou: float
    alpha: float
    lr: float

    FIELDS = ("epoch", "train_loss", "ddl", "psdl", "dice",
              "val_dsc", "val_acc", "val_sen", "val_iou", "alpha", "lr")

    def row(self):
        return [getattr(self, f) for f in self.FIELDS]


def write_epoch_csv(logs, path):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(EpochLog.FIELDS)
        for log in logs:
            writer.writerow(log.row())


@dataclass
class TrainResult:
    final_path: Path
    best_path: Path
    logs: list
    best_val_dsc: float


def _predict(net, sample):
    pred, _ = net.forward(Tensor(sample.image.data.astype(net.dtype)))
    return pred


def evaluate(net, samples, threshold=0.5, average="macro"):
    """Macro (default) or micro averaged metrics over a sample list."""
    with no_grad():
        pairs = [(_predict(net, s).data, s.mask.data) for s in samples]
    return evaluate_pairs(pairs, threshold=threshold, average=average)


_TERMS = ("ddl", "psdl", "dice")


def _sample_step(net, teacher_net, sample, cfg, t, scale):
    """Forward, loss and backward of one sample, its terms scaled by `scale`.

    Returns the scaled ddl, psdl and dice values and the parameter
    gradients (None for a parameter outside the graph). The deeper side
    outputs are built only when there is a teacher for the DDL to read.
    """
    x = Tensor(sample.image.data.astype(net.dtype))
    y = Tensor(sample.mask.data.astype(net.dtype))
    pred, feats = net.forward(x)
    if teacher_net is None:
        sides = t_pred = t_sides = None
    else:
        sides = net.side_outputs(feats, pred)
        t_pred, t_feats = teacher_net.forward(x)
        t_sides = teacher_net.side_outputs(t_feats, t_pred)
    terms = distill.loss_terms(pred, sides, t_pred, t_sides, y, cfg.distill, t, cfg.epochs)
    terms = [terms[k] * scale for k in _TERMS]
    (terms[0] + terms[1] + terms[2]).backward()
    grads = []
    for p in net.parameters():
        grads.append(p.grad)
        p.grad = None
    return [v.data for v in terms], grads


def _sum_in_order(results):
    """Sum per-sample (values, grads) results in the order given."""
    values, grads = results[0]
    for v, g in results[1:]:
        values = [a + b for a, b in zip(values, v)]
        grads = [None if a is None else a + b for a, b in zip(grads, g)]
    return [float(v) for v in values], grads


def _process_count(batch_size):
    """Processes a batch is split across: min(usable CPUs, batch size)."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, batch_size)


def _share_steps(net, teacher_net, batch, cfg, t, rank, size):
    """Step results for process `rank`'s contiguous share of a batch split `size` ways."""
    lo, hi = (math.ceil(len(batch) * r / size) for r in (rank, rank + 1))
    return [_sample_step(net, teacher_net, s, cfg, t, 1.0 / len(batch)) for s in batch[lo:hi]]


def _openblas_threads():
    """The loaded OpenBLAS's thread-count (getter, setter), or None if none is found."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas{}64_", "scipy_openblas{}", "openblas{}64_", "openblas{}"):
            get = getattr(lib, name.format("_get_num_threads"), None)
            put = getattr(lib, name.format("_set_num_threads"), None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


def _worker(conn, inherited, net, samples, cfg, rank, size):
    """Compute this worker's share of each batch the main process announces.

    It reads the batch order from `batches`, as the main process does,
    and answers every batch with its samples' step results or the
    exception one of them raised, with its traceback.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the main process stops us
    for c in inherited:
        c.close()  # so this worker sees EOF when the main process is gone
    teacher = SegNetwork.from_arrays(cfg.network, net.state_arrays(), dtype=net.dtype,
                                     trainable=False)
    try:
        while (msg := conn.recv()) is not None:
            if msg[0] == "epoch":
                _, epoch, t, teacher_arrays = msg
                order = batches(samples, cfg.batch_size, cfg.seed, epoch)
                if teacher_arrays is not None:
                    teacher.load_state_arrays(teacher_arrays)
                step_teacher = None if teacher_arrays is None else teacher
                continue
            net.load_state_arrays(msg[1])
            batch = next(order)
            try:
                reply = ("ok", _share_steps(net, step_teacher, batch, cfg, t, rank, size))
            except Exception as exc:
                reply = ("error", (exc, traceback.format_exc()))
            conn.send(reply)
    except (EOFError, OSError):
        pass  # the main process is gone; there is no one left to answer


class _Workers:
    """Forked processes computing ranks 1..size-1 of each batch; rank 0 is this one."""

    def __init__(self, size, net, samples, cfg):
        self.size = size
        self.conns, self.procs = [], []
        # one BLAS thread per process, for any process count (see the module
        # docstring); the workers inherit it, this process gets its own back on close
        self.blas = _openblas_threads()
        if self.blas is not None:
            self.blas_threads = self.blas[0]()
            self.blas[1](1)
        try:
            ctx = multiprocessing.get_context("fork") if size > 1 else None
            for rank in range(1, size):
                ours, theirs = ctx.Pipe()
                proc = ctx.Process(target=_worker, daemon=True, args=(
                    theirs, self.conns + [ours], net, samples, cfg, rank, size))
                proc.start()
                theirs.close()
                self.conns.append(ours)
                self.procs.append(proc)
        except BaseException:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def send(self, *msg):
        try:
            for conn in self.conns:
                conn.send(msg)
        except OSError as exc:
            raise RuntimeError("a training worker exited unexpectedly") from exc

    def gather(self):
        """The workers' step results for the current batch, in rank order."""
        results = []
        for conn in self.conns:
            try:
                status, payload = conn.recv()
            except (EOFError, OSError) as exc:
                raise RuntimeError("a training worker exited unexpectedly") from exc
            if status == "error":
                exc, worker_traceback = payload
                raise exc from RuntimeError(f"in a training worker:\n{worker_traceback}")
            results += payload
        return results

    def close(self):
        for conn in self.conns:
            try:
                conn.send(None)
            except OSError:
                pass  # already gone
            conn.close()
        for proc in self.procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join()
        if self.blas is not None:
            self.blas[1](self.blas_threads)


def _save(path, net, opt, epoch, best_dsc, logs, cfg):
    extras = dict(opt.state_arrays())
    extras["best_dsc"] = np.array(best_dsc)
    extras["logs"] = np.frombuffer(
        json.dumps([log.row() for log in logs]).encode(), dtype=np.uint8)
    extras["train_config"] = np.frombuffer(
        json.dumps(cfg.to_dict()).encode(), dtype=np.uint8)
    save_checkpoint(path, net, epoch, extras=extras)


def _flat_config(d, prefix=""):
    flat = {}
    for k, v in d.items():
        if isinstance(v, dict):
            flat.update(_flat_config(v, f"{prefix}{k}."))
        else:
            flat[prefix + k] = v
    return flat


def _check_resumable(path, ckpt, cfg):
    """Refuse a resume from a file _save did not write, or whose config
    differs from the checkpointed run's, out_dir aside."""
    missing = [k for k in ("t", "m", "v", "best_dsc", "logs", "train_config")
               if k not in ckpt.extras]
    if missing:
        raise ValueError(f"cannot resume from {os.fspath(path)}: "
                         f"it stores no {', '.join(missing)}")
    stored = _flat_config(json.loads(bytes(ckpt.extras["train_config"]).decode()))
    current = _flat_config(cfg.to_dict())
    differing = sorted(k for k in stored.keys() | current.keys()
                       if k != "out_dir" and stored.get(k) != current.get(k))
    if differing:
        raise ValueError(f"cannot resume from {os.fspath(path)}: config differs from "
                         f"the checkpointed run in {', '.join(differing)}")


def train(cfg: TrainConfig, dataset: DatasetSplit, resume_from=None,
          epoch_start_hook=None, epoch_end_hook=None,
          keep_epoch_checkpoints=False):
    """Run the full training loop; returns checkpoint paths and the epoch log.

    resume_from: path to a checkpoint written by this function; training
    continues from the next epoch with the optimizer state restored,
    reproducing the uninterrupted run exactly. The config must match the
    checkpointed run's in every field but out_dir, and the file must hold
    the flat optimizer moments, or ValueError naming the file is raised.

    A non-finite ddl, psdl or dice term raises FloatingPointError naming
    the epoch, the batch and the term, before that batch's optimizer step
    and before the epoch writes any checkpoint.

    epoch_start_hook(t, teacher_net) runs before epoch t and
    epoch_end_hook(t, net, teacher_net, log) after it. teacher_net is the
    frozen teacher for epoch t (for t + 1 in the end hook), or None at the
    start of epoch 1. It is one object for the whole run, refilled in place
    at the end of every epoch, so a hook that keeps one epoch's teacher
    keeps a copy of teacher_net.state_arrays(), not teacher_net itself.

    Batches are split across min(CPUs, batch size) processes (see the
    module docstring); hooks, checkpoints and evaluation run in this one.
    """
    cfg.validate()
    if not dataset.train:
        raise ValueError("dataset has no training samples")
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dtype = np.dtype(cfg.dtype)

    logs = []
    best_dsc = -1.0
    start_epoch = 1
    if resume_from is None:
        net = SegNetwork(cfg.network, seed=cfg.seed, dtype=dtype)
        opt = AdamW(net.parameters(), lr=cfg.learning_rate,
                    weight_decay=cfg.weight_decay)
    else:
        ckpt = load_checkpoint(resume_from)
        _check_resumable(resume_from, ckpt, cfg)
        net = ckpt.to_network(trainable=True)
        opt = AdamW(net.parameters(), lr=cfg.learning_rate,
                    weight_decay=cfg.weight_decay)
        opt.load_state_arrays(ckpt.extras)
        best_dsc = float(ckpt.extras["best_dsc"])
        for row in json.loads(bytes(ckpt.extras["logs"]).decode()):
            logs.append(EpochLog(int(row[0]), *row[1:]))
        start_epoch = ckpt.epoch + 1
    # the one frozen teacher, refilled from net at the end of every epoch; on
    # resume its first weights are exactly the checkpointed ones
    teacher = SegNetwork.from_arrays(cfg.network, net.state_arrays(), dtype=dtype,
                                     trainable=False)
    teacher_net = None if resume_from is None else teacher

    best_path = out_dir / "best.npz"
    final_path = out_dir / "last.npz"

    with _Workers(_process_count(cfg.batch_size), net, dataset.train, cfg) as workers:
        for t in range(start_epoch, cfg.epochs + 1):
            if epoch_start_hook is not None:
                epoch_start_hook(t, teacher_net)
            lr = lr_at(t, cfg.learning_rate, cfg.lr_gamma, cfg.lr_step_every)
            use_teacher = teacher_net is not None and not cfg.dice_only and t >= 2
            step_teacher = teacher_net if use_teacher else None
            loss_t = t if use_teacher else 1
            workers.send("epoch", t, loss_t,
                         step_teacher.state_arrays() if use_teacher else None)
            term_sums = dict.fromkeys(_TERMS, 0.0)
            n_batches = 0
            for batch in batches(dataset.train, cfg.batch_size, cfg.seed, t):
                workers.send("batch", net.state_arrays())
                ours = _share_steps(net, step_teacher, batch, cfg, loss_t, 0, workers.size)
                values, grads = _sum_in_order(ours + workers.gather())
                for k, v in zip(_TERMS, values):
                    if not math.isfinite(v):
                        raise FloatingPointError(
                            f"epoch {t}, batch {n_batches}: {k} loss is {v}")
                for p, g in zip(net.parameters(), grads):
                    p.grad = g
                opt.step(lr=lr)
                for k, v in zip(_TERMS, values):
                    term_sums[k] += v
                n_batches += 1

            val = evaluate(net, dataset.val) if dataset.val else MetricReport(0, 0, 0, 0)
            alpha = distill.alpha_at(t, cfg.epochs, cfg.distill.alpha_T) if t >= 2 else 0.0
            means = {k: v / n_batches for k, v in term_sums.items()}
            log = EpochLog(
                epoch=t,
                # the sum of the logged means, so train_loss == ddl + psdl + dice exactly
                train_loss=means["ddl"] + means["psdl"] + means["dice"],
                **means,
                val_dsc=val.dsc, val_acc=val.acc, val_sen=val.sen, val_iou=val.iou,
                alpha=alpha, lr=lr,
            )
            logs.append(log)

            teacher.load_state_arrays(net.state_arrays())
            teacher_net = teacher
            _save(final_path, net, opt, t, max(best_dsc, val.dsc), logs, cfg)
            if keep_epoch_checkpoints:
                _save(out_dir / f"epoch_{t:03d}.npz", net, opt, t,
                      max(best_dsc, val.dsc), logs, cfg)
            if val.dsc > best_dsc:
                best_dsc = val.dsc
                _save(best_path, net, opt, t, best_dsc, logs, cfg)
            if epoch_end_hook is not None:
                epoch_end_hook(t, net, teacher_net, log)

    if not best_path.exists():
        _save(best_path, net, opt, cfg.epochs, best_dsc, logs, cfg)
    write_epoch_csv(logs, out_dir / "epochs.csv")
    return TrainResult(final_path=final_path, best_path=best_path, logs=logs,
                       best_val_dsc=best_dsc)


def predict_to_file(checkpoint_path, image, out_path, threshold=0.5):
    """Forward an image through a checkpoint and write a binary P5 mask."""
    net = load_checkpoint(checkpoint_path, extras=False).to_network(trainable=False)
    arr = image.data if isinstance(image, Tensor) else np.asarray(image)
    if arr.ndim == 2:
        arr = arr[None]
    pred, _ = net.forward(Tensor(arr.astype(net.dtype)))
    mask = (pred.data[0] >= threshold).astype(np.float64)
    save_pgm(mask, out_path)
    return mask


def sweep(axis, values, base_cfg: TrainConfig, dataset: DatasetSplit):
    """Train once per value of tau / n / alpha; returns test-set metric rows."""
    if axis not in ("tau", "n", "alpha"):
        raise ValueError(f"unknown sweep axis {axis!r} (expected tau, n, or alpha)")
    rows = []
    for value in values:
        dcfg = base_cfg.distill
        if axis == "tau":
            dcfg = dataclasses.replace(dcfg, tau=float(value))
        elif axis == "n":
            g = int(round(float(value) ** 0.5))
            if g * g != int(value):
                raise ValueError(f"patch count {value} is not a perfect square")
            dcfg = dataclasses.replace(dcfg, grid_g=g)
        else:
            dcfg = dataclasses.replace(dcfg, alpha_T=float(value))
        cfg = dataclasses.replace(
            base_cfg, distill=dcfg,
            out_dir=str(Path(base_cfg.out_dir) / f"{axis}_{value}"))
        result = train(cfg, dataset)
        net = load_checkpoint(result.best_path, extras=False).to_network(trainable=False)
        report = evaluate(net, dataset.test)
        rows.append({axis: value, **report.as_dict()})
    return rows


def write_metrics_csv(rows, path):
    if not rows:
        raise ValueError("no metric rows to write")
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
