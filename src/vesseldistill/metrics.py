"""Confusion-matrix statistics and segmentation quality metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, ShapeError


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self):
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricReport:
    dsc: float
    acc: float
    sen: float
    iou: float
    degenerate: bool = False

    def as_dict(self):
        return {"DSC": self.dsc, "ACC": self.acc, "SEN": self.sen, "IOU": self.iou}


def _foreground(values):
    """The foreground cells of a probability map or mask, for every binarization."""
    return values >= 0.5


def confusion(pred, gt):
    """Binarize pred and gt (see _foreground) and tally cells: tp and each
    mask's foreground are counted, fp, fn and tn follow from them."""
    p = pred.data if isinstance(pred, Tensor) else np.asarray(pred)
    y = gt.data if isinstance(gt, Tensor) else np.asarray(gt)
    if p.shape != y.shape:
        raise ShapeError(f"confusion: shapes differ, {p.shape} vs {y.shape}")
    pb = _foreground(p)
    yb = _foreground(y)
    tp = int(np.count_nonzero(pb & yb))
    predicted, true = int(np.count_nonzero(pb)), int(np.count_nonzero(yb))
    fp, fn = predicted - tp, true - tp
    return ConfusionCounts(tp=tp, tn=p.size - tp - fp - fn, fp=fp, fn=fn)


def compute_metrics(c: ConfusionCounts) -> MetricReport:
    """Dice, accuracy, sensitivity, and IoU from confusion counts.

    Both masks empty -> all four are 1.0 with the degeneracy flag set;
    empty ground truth with a non-empty prediction reports SEN as 0,
    also flagged.
    """
    gt_empty = c.tp + c.fn == 0
    pred_empty = c.tp + c.fp == 0
    if gt_empty and pred_empty:
        return MetricReport(1.0, 1.0, 1.0, 1.0, degenerate=True)
    acc = (c.tp + c.tn) / c.total
    dsc = 2 * c.tp / (2 * c.tp + c.fp + c.fn)
    iou = c.tp / (c.tp + c.fp + c.fn)
    if gt_empty:
        return MetricReport(dsc, acc, 0.0, iou, degenerate=True)
    sen = c.tp / (c.tp + c.fn)
    return MetricReport(dsc, acc, sen, iou)


def evaluate_pairs(pairs):
    """Each metric of every (pred, gt) pair, both binarized by confusion,
    averaged over the pairs; the report is degenerate when any pair's is."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no prediction/ground-truth pairs to evaluate")
    reports = [compute_metrics(confusion(p, y)) for p, y in pairs]
    columns = zip(*[(r.dsc, r.acc, r.sen, r.iou) for r in reports])
    return MetricReport(*[float(np.mean(c)) for c in columns],
                        degenerate=any(r.degenerate for r in reports))
