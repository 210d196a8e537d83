"""Self-distillation training loop, evaluation, and sweep harness.

Epoch 1 optimizes dice only. At the end of every epoch the just-updated
weights are frozen as the teacher for all batches of the next epoch, so
from epoch 2 on each batch runs a gradient-free teacher forward and the
full three-term objective with a linearly ramped soft-label weight α.
`train` decides each epoch's teacher (None in epoch 1 and dice_only runs)
and α (0.0 without a teacher) once, and logs that α.

The epoch log is the run's one record: checkpoints store it in meta, epochs.csv
is rewritten from it after every epoch, and one rule, _best, reads the best
epoch from it for best.npz, the result and a resume.

Training splits every batch across min(CPUs, batch size) processes: this one
and workers forked when training starts (one process without fork). This
process orders and splits the batches. A worker keeps no state between
batches: a request carries the student's and the teacher's (or None) flat
weight arrays, sample indices, α and loss scale 1/len(batch). Each process
runs forward, loss and backward one sample at a time, one flat gradient of
all the weights per sample. This process sums the samples' term values and
gradients in sample order, in the net's dtype, then steps the optimizer, so
the numbers are bitwise the same for any process count. Each process runs
OpenBLAS on one thread while training, however many there are: a float32
GEMV's bits depend on each BLAS thread's share of it.
"""

from __future__ import annotations

import csv
import ctypes
import dataclasses
import math
import multiprocessing
import numbers
import os
import shutil
import signal
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import distill
from .data import DatasetSplit, _check_seed, batches, save_pgm
from .metrics import MetricReport, _foreground, evaluate_pairs
from .network import (NetworkConfig, SegNetwork, _check_field_types, _check_float,
                      _check_input_shape, _check_known, load_checkpoint, save_checkpoint)
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

    def __post_init__(self):
        # checked first, so np.float32 gets this message too: checkpoints store the name
        _check_float(self.dtype, by_name=True)
        _check_field_types(self)
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        # written as negations so that NaN fails them too
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.lr_step_every < 1:
            raise ValueError(f"lr_step_every must be >= 1, got {self.lr_step_every}")
        if not 0 < self.lr_gamma <= 1:  # the step schedule decays
            raise ValueError(f"lr_gamma must be in (0, 1], got {self.lr_gamma}")
        _check_seed(self.seed)
        if not self.out_dir:  # Path("") would be the current directory
            raise ValueError(f"out_dir must name a directory, got {self.out_dir!r}")
        try:
            distill._patch_side(self.network.height, self.network.width, self.distill.grid_g)
        except ValueError as exc:  # named by its fields, as _check_samples names a sample
            raise ValueError(f"distill.grid_g, network.height and network.width: {exc}") from None

    @staticmethod
    def from_dict(d):
        """A TrainConfig from plain values; each nested section is a mapping of its fields.
        ValueError names an unknown or refused field by its dotted path (`network.foo`)."""
        d = dict(d)
        _check_known(TrainConfig, d)
        for f in dataclasses.fields(TrainConfig):
            if isinstance(f.default_factory, type) and f.name in d:
                if not isinstance(d[f.name], dict):
                    raise ValueError(f"{f.name} must be a mapping of "
                                     f"{f.default_factory.__name__} fields, got {d[f.name]!r}")
                _check_known(f.default_factory, d[f.name], f"unknown config field {f.name}.{{}}")
                try:
                    d[f.name] = f.default_factory(**d[f.name])
                except ValueError as exc:  # named by its dotted path, as an unknown field is
                    raise ValueError(f"{f.name}.{exc}") from None
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

    def row(self):  # in field order, for perfbench; dataclasses.asdict(log) is the stored form
        return [getattr(self, f.name) for f in dataclasses.fields(self)]


def write_metrics_csv(rows, path):
    if not rows:
        raise ValueError("no metric rows to write")
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def write_epoch_csv(logs, path):
    write_metrics_csv([dataclasses.asdict(log) for log in logs], path)


@dataclass
class TrainResult:
    final_path: Path
    best_path: Path
    logs: list
    best_val_dsc: float


def evaluate(net, samples):
    """Metrics over a sample list (see evaluate_pairs), averaged over the images.
    ValueError names a sample the net cannot take (see _check_samples)."""
    _check_samples(samples, net.config)
    with no_grad():
        pairs = [(net.forward(s.image)[0].data, s.mask.data) for s in samples]
    return evaluate_pairs(pairs)


_TERMS = ("ddl", "psdl", "dice")


def _sample_step(net, teacher_net, sample, cfg, alpha, scale):
    """Forward, loss and backward of one sample, its terms scaled by `scale`.

    Returns the scaled ddl, psdl and dice values and the flat gradient of
    all the weights (see _take_grad). The deeper side outputs are built
    only when there is a teacher for the DDL to read.
    """
    y = Tensor(sample.mask.data.astype(net.dtype))
    pred, feats = net.forward(sample.image)
    if teacher_net is None:
        sides, t_sides = [pred], None
    else:
        sides = net.side_outputs(feats, pred)
        t_pred, t_feats = teacher_net.forward(sample.image)
        t_sides = teacher_net.side_outputs(t_feats, t_pred)
    terms = distill.loss_terms(sides, t_sides, y, cfg.distill, alpha)
    terms = [terms[k] * scale for k in _TERMS]
    (terms[0] + terms[1] + terms[2]).backward()
    return [v.data for v in terms], _take_grad(net)


def _take_grad(net):
    """Clear the parameters' gradients and return them as one flat array of net.weights'
    layout, zero for a parameter outside the loss's graph (heads 2..depth without a teacher)."""
    grad, lo = np.zeros_like(net.weights), 0
    for p in net.parameters():
        if p.grad is not None:
            grad[lo:lo + p.data.size], p.grad = p.grad.ravel(), None
        lo += p.data.size
    return grad


def _sum_in_order(results):
    """Sum per-sample (values, grad) results in the order given."""
    values, grad = results[0]
    for v, g in results[1:]:
        values, grad = [a + b for a, b in zip(values, v)], grad + g
    return [float(v) for v in values], grad


def _process_count(batch_size):
    """Processes a batch is split across: min(usable CPUs, batch size)."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    if not hasattr(os, "sched_getaffinity"):  # e.g. macOS
        return min(os.cpu_count() or 1, batch_size)
    return min(len(os.sched_getaffinity(0)), batch_size)


def _openblas(name, restype, argtypes):
    """The loaded OpenBLAS's function openblas_<name>, under any of its builds'
    spellings (scipy_ prefix, 64_ suffix), or None if none is found."""
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
        for spelling in ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_",
                         "openblas_{}"):
            fn = getattr(lib, spelling.format(name), None)
            if fn is not None:
                fn.restype, fn.argtypes = restype, argtypes
                return fn
    return None


def _answer(request, samples, cfg):
    """A request's step results, or the exception that stopped them and its traceback."""
    student, teacher, indices, alpha, scale = request
    try:
        net = SegNetwork.from_arrays(cfg.network, student)
        if teacher is not None:
            teacher = SegNetwork.from_arrays(cfg.network, teacher, trainable=False)
        return "ok", [_sample_step(net, teacher, samples[i], cfg, alpha, scale)
                      for i in indices]
    except Exception as exc:
        return "error", (exc, traceback.format_exc())


def _worker(conn, inherited, samples, cfg):
    """Answer step requests (see _Workers.send) until the main process sends
    None or is gone; a request's nets go with its reply, so none outlives it."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the main process stops us
    for c in inherited:
        c.close()  # so this worker sees EOF when the main process is gone
    try:
        while (request := conn.recv()) is not None:
            conn.send(_answer(request, samples, cfg))
    except (EOFError, OSError):
        pass  # the main process is gone; there is no one left to answer


class _Workers:
    """Forked processes answering requests for shares 1..size-1; share 0 is this one's."""

    def __init__(self, size, samples, cfg):
        self.size = size
        self.conns, self.procs = [], []
        # one BLAS thread per process, for any process count (see the module
        # docstring); the workers inherit it, this process gets its own back on close
        self.set_blas = _openblas("set_num_threads", None, [ctypes.c_int])
        if self.set_blas is not None:
            self.blas_threads = _openblas("get_num_threads", ctypes.c_int, [])()
            self.set_blas(1)
        try:
            ctx = multiprocessing.get_context("fork") if size > 1 else None
            for _ in range(size - 1):
                ours, theirs = ctx.Pipe()
                proc = ctx.Process(target=_worker, daemon=True, args=(
                    theirs, self.conns + [ours], samples, cfg))
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

    def send(self, net, teacher, shares, alpha, scale):
        """Ask each worker for the step results of its share of sample indices:
        a request is (student weights, teacher weights or None, share, alpha,
        scale), each net's flat weight array sent uncopied, as a send pickles it at once."""
        weights = None if teacher is None else teacher.weights
        try:
            for conn, share in zip(self.conns, shares):
                conn.send((net.weights, weights, share, alpha, scale))
        except OSError as exc:
            raise RuntimeError("a training worker exited unexpectedly") from exc

    def gather(self):
        """The workers' step results for the current batch, in share order."""
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
        if self.set_blas is not None:
            self.set_blas(self.blas_threads)


def _save(path, net, opt, epoch, logs, cfg):
    run = {"train_config": cfg.to_dict(), "logs": [dataclasses.asdict(log) for log in logs]}
    save_checkpoint(path, net, epoch, extras=opt.state_arrays(), run=run)


def _flat_config(d, prefix=""):
    flat = {}
    for k, v in d.items():
        if isinstance(v, dict):
            flat.update(_flat_config(v, f"{prefix}{k}."))
        else:
            flat[prefix + k] = v
    return flat


def _check_resumable(path, ckpt, cfg):
    """The checkpointed run's epoch logs; ValueError naming the file if _save did not
    write it, a logged row is no EpochLog, or its config differs from cfg, out_dir aside."""
    refuse = f"cannot resume from {os.fspath(path)}:"
    missing = [k for k in ("t", "m", "v") if k not in ckpt.extras]
    if ckpt.run is None:
        missing.append("run record (train_config and logs)")
    if missing:
        raise ValueError(f"{refuse} it stores no {', '.join(missing)}")
    logs = []
    for i, row in enumerate(ckpt.run["logs"], 1):
        try:
            logs.append(EpochLog(**row))
            _check_field_types(logs[-1])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{refuse} its logged row {i} is no epoch log: {exc}") from None
    if not logs or [log.epoch for log in logs] != list(range(1, ckpt.epoch + 1)):
        raise ValueError(f"{refuse} its logged epochs are not 1 to its epoch, {ckpt.epoch}")
    stored = _flat_config(ckpt.run["train_config"])
    current = _flat_config(cfg.to_dict())
    differing = sorted(k for k in stored.keys() | current.keys()
                       if k != "out_dir" and stored.get(k) != current.get(k))
    if differing:
        raise ValueError(f"{refuse} config differs from "
                         f"the checkpointed run in {', '.join(differing)}")
    return logs


def _best(logs, has_val):
    """The best epoch's log: the first with the top val DSC, or without val samples the last."""
    return max(logs, key=lambda log: log.val_dsc) if has_val else logs[-1]


def _best_file(path, logs, has_val):
    """The file holding the best of `path`'s logged epochs: `path` or the best.npz beside
    it, which must hold that epoch and the rows up to it, or ValueError naming that file."""
    best = _best(logs, has_val)
    if best is logs[-1]:
        return Path(path)
    best_file = Path(path).with_name("best.npz")
    if best_file.exists():
        stored = load_checkpoint(best_file, extras=False)
        rows = stored.run["logs"] if stored.run else []
        if stored.epoch == best.epoch and rows == list(map(dataclasses.asdict, logs[:best.epoch])):
            return best_file
    raise ValueError(f"cannot resume from {os.fspath(path)}: its run's best epoch so far, "
                     f"{best.epoch}, is not the one {os.fspath(best_file)} holds")


def _check_samples(samples, network, grid_g=None):
    """ValueError naming the first sample whose mask shape is not its image's, or whose
    image a net of config `network` cannot forward or, given grid_g, the DDL's grid tile."""
    for s in samples:
        shape = s.image.data.shape
        try:
            if s.mask.data.shape != shape:
                raise ValueError(f"mask shape {s.mask.data.shape} differs from its image's {shape}")
            _check_input_shape(network, shape)
            if grid_g is not None:
                distill._patch_side(shape[1], shape[2], grid_g)
        except ValueError as exc:
            raise ValueError(f"sample {s.id!r}: {exc}") from None


def _check_run(cfg, dataset):
    """ValueError unless dataset has training samples of shapes cfg takes: see train()."""
    if not dataset.train:
        raise ValueError("dataset has no training samples")
    _check_samples([*dataset.train, *dataset.val], cfg.network, cfg.distill.grid_g)


def train(cfg: TrainConfig, dataset: DatasetSplit, resume_from=None,
          epoch_start_hook=None, epoch_end_hook=None):
    """Run the full training loop; returns checkpoint paths and the epoch log.

    Each epoch saves last.npz, then best.npz if _best picks it, then rewrites
    epochs.csv from the log, so a run stopped in epoch t leaves epochs 1..t-1.

    resume_from: path to a checkpoint written by this function; training
    continues from the next epoch with the optimizer state restored,
    reproducing the uninterrupted run exactly, best.npz and epochs.csv
    included, both written before that epoch. The file must hold the flat
    optimizer moments and a run record of epochs 1 to its own whose config
    matches cfg in every field but out_dir, and unless its epoch is its run's
    best so far by the logged rows, the best.npz beside it must hold that best
    epoch and the rows up to it; otherwise ValueError naming the file is raised.

    cfg is valid by construction. Before any epoch or file write, ValueError
    is raised for an empty training split or a sample _check_samples refuses
    under cfg's network and patch grid. A non-finite ddl, psdl or dice term
    raises FloatingPointError naming the epoch, the batch and the term, before
    that batch's optimizer step and before the epoch writes any checkpoint.

    epoch_start_hook(t, teacher_net) runs before epoch t and
    epoch_end_hook(t, net, teacher_net, log) after it. teacher_net holds the
    previous epoch's frozen weights (epoch t's in the end hook; unused when
    dice_only), or None at the start of epoch 1. It is one object for the
    whole run, its weights refilled in place at the end of every epoch as
    net's are stepped at every batch, so a hook keeps an epoch's weights as
    teacher_net.state_arrays() (or net's), not as the net or a parameter's data.

    Batches are split across min(CPUs, batch size) processes (see the
    module docstring); hooks, checkpoints and evaluation run in this one.
    """
    _check_run(cfg, dataset)
    out_dir = Path(cfg.out_dir)
    best_path = out_dir / "best.npz"
    final_path = out_dir / "last.npz"
    csv_path = out_dir / "epochs.csv"
    has_val = bool(dataset.val)

    logs = []
    if resume_from is None:
        net = SegNetwork(cfg.network, seed=cfg.seed, dtype=cfg.dtype)
    else:
        ckpt = load_checkpoint(resume_from)
        logs = _check_resumable(resume_from, ckpt, cfg)
        net = ckpt.to_network(trainable=True)
        best_source = _best_file(resume_from, logs, has_val)
    out_dir.mkdir(parents=True, exist_ok=True)
    opt = AdamW(net.weights, lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
    if resume_from is not None:
        opt.load_state_arrays(ckpt.extras)
        if best_source.resolve() != best_path.resolve():  # best.npz as of that epoch
            shutil.copyfile(best_source, best_path)
        write_epoch_csv(logs, csv_path)
    # the one frozen teacher, refilled from net at the end of every epoch; on
    # resume (never at epoch 1) its first weights are exactly the checkpointed ones
    teacher = SegNetwork.from_arrays(cfg.network, net.weights, trainable=False)

    with _Workers(_process_count(cfg.batch_size), dataset.train, cfg) as workers:
        for t in range(len(logs) + 1, cfg.epochs + 1):
            if epoch_start_hook is not None:
                epoch_start_hook(t, None if t == 1 else teacher)
            lr = lr_at(t, cfg.learning_rate, cfg.lr_gamma, cfg.lr_step_every)
            # the one fact that decides whether this epoch's steps distill,
            # and the epoch's one soft-label weight
            step_teacher = None if t == 1 or cfg.dice_only else teacher
            alpha = (0.0 if step_teacher is None
                     else distill.alpha_at(t, cfg.epochs, cfg.distill.alpha_T))
            term_sums = dict.fromkeys(_TERMS, 0.0)
            n_batches = 0
            for batch in batches(range(len(dataset.train)), cfg.batch_size, cfg.seed, t):
                ours, *theirs = np.array_split(batch, workers.size)
                scale = 1.0 / len(batch)
                workers.send(net, step_teacher, theirs, alpha, scale)
                results = [_sample_step(net, step_teacher, dataset.train[i], cfg, alpha, scale)
                           for i in ours]
                values, grad = _sum_in_order(results + workers.gather())
                for k, v in zip(_TERMS, values):
                    if not math.isfinite(v):
                        raise FloatingPointError(
                            f"epoch {t}, batch {n_batches}: {k} loss is {v}")
                opt.step(grad, lr=lr)
                for k, v in zip(_TERMS, values):
                    term_sums[k] += v
                n_batches += 1

            val = evaluate(net, dataset.val) if has_val else MetricReport(0, 0, 0, 0)
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

            teacher.load_state_arrays(net.weights)
            _save(final_path, net, opt, t, logs, cfg)
            if _best(logs, has_val) is log:
                _save(best_path, net, opt, t, logs, cfg)
            write_epoch_csv(logs, csv_path)
            if epoch_end_hook is not None:
                epoch_end_hook(t, net, teacher, log)

    return TrainResult(final_path=final_path, best_path=best_path, logs=logs,
                       best_val_dsc=_best(logs, has_val).val_dsc)


def predict_to_file(checkpoint_path, image, out_path):
    """Forward an [H,W] or [1,H,W] image through a checkpoint; write the binarized P5 mask."""
    net = load_checkpoint(checkpoint_path, extras=False).to_network(trainable=False)
    arr = image.data if isinstance(image, Tensor) else np.asarray(image)
    pred, _ = net.forward(arr[None] if arr.ndim == 2 else arr)
    mask = _foreground(pred.data[0]).astype(np.float64)
    save_pgm(mask, out_path)
    return mask


def sweep(axis, values, base_cfg: TrainConfig, dataset: DatasetSplit):
    """Train once per value of tau / n / alpha; returns test-set metric rows.

    Before the first run trains, every run is checked as train() checks it,
    and ValueError names a value that is a bool or no real number, and is
    raised for an empty test split or (naming the sample) a test sample
    evaluate would refuse.
    """
    field = {"tau": "tau", "n": "grid_g", "alpha": "alpha_T"}.get(axis)
    if field is None:
        raise ValueError(f"unknown sweep axis {axis!r} (expected tau, n, or alpha)")
    if not dataset.test:
        raise ValueError("dataset has no test samples to score the runs on")
    _check_samples(dataset.test, base_cfg.network)
    cfgs = []
    for value in values:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{axis} value {value!r} is not a number")
        setting = float(value)
        if axis == "n":
            g = math.isqrt(int(setting)) if setting >= 1 and setting.is_integer() else 0
            if g == 0 or g * g != setting:
                raise ValueError(f"patch count {value!r} is not a positive whole perfect square")
            setting = g
        cfg = dataclasses.replace(
            base_cfg, distill=dataclasses.replace(base_cfg.distill, **{field: setting}),
            out_dir=str(Path(base_cfg.out_dir) / f"{axis}_{value}"))
        _check_run(cfg, dataset)
        cfgs.append(cfg)
    rows = []
    for value, cfg in zip(values, cfgs):
        result = train(cfg, dataset)
        net = load_checkpoint(result.best_path, extras=False).to_network(trainable=False)
        report = evaluate(net, dataset.test)
        rows.append({axis: value, **report.as_dict()})
    return rows
