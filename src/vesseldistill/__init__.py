"""Hierarchical self-distillation training for binary vessel segmentation.

A small numpy library: a reverse-mode autodiff tensor, an encoder-decoder
segmentation network with per-depth side outputs, distillation losses
(patch-distribution KL plus soft-label cross entropy plus dice), synthetic
vessel data with PGM I/O, evaluation metrics, and a training loop where the
teacher is the previous epoch's weights.
"""

from .tensor import Tensor, ShapeError, GraphError, gradcheck
from .network import NetworkConfig, SegNetwork, TeacherSnapshot, load_checkpoint, save_checkpoint
from .distill import (
    DistillConfig, alpha_at, ddl, dice_loss, kl_div, patch_counts,
    prob_vector, psdl, soften_label,
)
from .data import DatasetSplit, ImageSample, batches, generate_synthetic, load_pgm, save_pgm, split
from .metrics import ConfusionCounts, MetricReport, compute_metrics, confusion, evaluate_pairs
from .optim import AdamW, lr_at
from .train import EpochLog, TrainConfig, evaluate, sweep, train

__version__ = "0.1.0"

__all__ = [
    "Tensor", "ShapeError", "GraphError", "gradcheck",
    "NetworkConfig", "SegNetwork", "TeacherSnapshot", "load_checkpoint", "save_checkpoint",
    "DistillConfig", "alpha_at", "ddl", "dice_loss", "kl_div",
    "patch_counts", "prob_vector", "psdl", "soften_label",
    "DatasetSplit", "ImageSample", "batches", "generate_synthetic",
    "load_pgm", "save_pgm", "split",
    "ConfusionCounts", "MetricReport", "compute_metrics", "confusion", "evaluate_pairs",
    "AdamW", "lr_at",
    "EpochLog", "TrainConfig", "evaluate", "sweep", "train",
]
