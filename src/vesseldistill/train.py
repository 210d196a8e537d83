"""Self-distillation training loop, evaluation, and sweep harness.

Epoch 1 optimizes dice only. At the end of every epoch the just-updated
weights are frozen as the teacher for all batches of the next epoch, so
from epoch 2 on each batch runs a gradient-free teacher forward and the
full three-term objective with a linearly ramped soft-label weight.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
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


def _batch_terms(net, teacher_net, batch, cfg, t):
    """Mean loss terms over one batch, as graph tensors."""
    sums = None
    for sample in batch:
        dtype = net.dtype
        x = Tensor(sample.image.data.astype(dtype))
        y = Tensor(sample.mask.data.astype(dtype))
        pred, feats = net.forward(x)
        sides = net.side_outputs(feats)
        if teacher_net is None:
            t_pred, t_sides = None, None
        else:
            t_pred, t_sides = teacher_net.forward(x)
            t_sides = teacher_net.side_outputs(t_sides)
        terms = distill.loss_terms(pred, sides, t_pred, t_sides, y,
                                   cfg.distill, t, cfg.epochs)
        sums = terms if sums is None else {k: sums[k] + terms[k] for k in sums}
    scale = 1.0 / len(batch)
    return {k: v * scale for k, v in sums.items()}


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


def _check_resume_config(ckpt, cfg):
    """Refuse a resume whose config differs from the checkpointed run's, out_dir aside."""
    if "train_config" not in ckpt.extras:
        raise ValueError("cannot resume: the checkpoint stores no train_config to check against")
    stored = _flat_config(json.loads(bytes(ckpt.extras["train_config"]).decode()))
    current = _flat_config(cfg.to_dict())
    differing = sorted(k for k in stored.keys() | current.keys()
                       if k != "out_dir" and stored.get(k) != current.get(k))
    if differing:
        raise ValueError(
            f"cannot resume: config differs from the checkpointed run in {', '.join(differing)}")


def train(cfg: TrainConfig, dataset: DatasetSplit, resume_from=None,
          epoch_start_hook=None, epoch_end_hook=None,
          keep_epoch_checkpoints=False):
    """Run the full training loop; returns checkpoint paths and the epoch log.

    resume_from: path to a checkpoint written by this function; training
    continues from the next epoch with the optimizer state restored,
    reproducing the uninterrupted run exactly. The config must match the
    checkpointed run's in every field but out_dir, or ValueError is raised.

    A non-finite ddl, psdl or dice term raises FloatingPointError naming
    the epoch, the batch and the term, before that batch's backward pass
    and before the epoch writes any checkpoint.
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
        teacher_net = None
    else:
        ckpt = load_checkpoint(resume_from)
        _check_resume_config(ckpt, cfg)
        net = ckpt.to_network(trainable=True)
        opt = AdamW(net.parameters(), lr=cfg.learning_rate,
                    weight_decay=cfg.weight_decay)
        opt.load_state_arrays(ckpt.extras)
        best_dsc = float(ckpt.extras["best_dsc"])
        for row in json.loads(bytes(ckpt.extras["logs"]).decode()):
            logs.append(EpochLog(int(row[0]), *row[1:]))
        start_epoch = ckpt.epoch + 1
        # the teacher for the next epoch is exactly the checkpointed weights
        teacher_net = net.snapshot(ckpt.epoch).restore(trainable=False)

    best_path = out_dir / "best.npz"
    final_path = out_dir / "last.npz"

    for t in range(start_epoch, cfg.epochs + 1):
        if epoch_start_hook is not None:
            epoch_start_hook(t, teacher_net)
        lr = lr_at(t, cfg.learning_rate, cfg.lr_gamma, cfg.lr_step_every)
        use_teacher = teacher_net is not None and not cfg.dice_only and t >= 2
        term_sums = {"ddl": 0.0, "psdl": 0.0, "dice": 0.0}
        n_batches = 0
        for batch in batches(dataset.train, cfg.batch_size, cfg.seed, t):
            terms = _batch_terms(net, teacher_net if use_teacher else None,
                                 batch, cfg, t if use_teacher or t == 1 else 1)
            values = {k: terms[k].item() for k in term_sums}
            for k, v in values.items():
                if not math.isfinite(v):
                    raise FloatingPointError(
                        f"epoch {t}, batch {n_batches}: {k} loss is {v}")
            total = terms["ddl"] + terms["psdl"] + terms["dice"]
            total.backward()
            opt.step(lr=lr)
            for k in term_sums:
                term_sums[k] += values[k]
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

        teacher_net = net.snapshot(t).restore(trainable=False)
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


def write_metrics_csv(rows, path, key=None):
    if not rows:
        raise ValueError("no metric rows to write")
    fields = list(rows[0].keys()) if key is None else key
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
