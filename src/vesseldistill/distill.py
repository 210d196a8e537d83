"""Distillation loss mathematics.

Three terms make up the training objective:

* a hierarchical distribution loss: each side output is cut into a g x g
  grid of patches, per-patch foreground/background masses form a 2n-logit
  vector, a temperature softmax turns it into a probability vector, and
  the student's vector is pulled toward the frozen teacher's by KL
  divergence, summed over all decoder depths;
* a pixel-wise distillation loss: binary cross entropy between the
  student prediction and a soft label blending the teacher prediction
  with the ground truth at weight alpha, ramped up linearly over epochs;
* a soft dice loss against the ground truth.

The objective is the unweighted sum of the terms loss_terms returns. A
prediction is its net's depth-1 side output, so a teacher is one list of
side outputs. Without a teacher (epoch 1, which has none yet, and the
dice-only control) the objective is dice alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .network import _check_field_types
from .tensor import Tensor, ShapeError

_EPS = 1e-7  # keeps the logs of kl_div and psdl finite and dice's ratio defined


@dataclass(frozen=True)
class PatchGrid:
    """A g x g partition of an H x W map into n = g^2 patches of side s."""
    g: int
    s: int

    @property
    def n(self):
        return self.g * self.g

    @staticmethod
    def for_shape(height, width, g):
        if height % g or width % g or height // g != width // g:
            raise ValueError(
                f"grid {g}x{g} does not evenly tile {height}x{width} into square patches"
            )
        return PatchGrid(g=g, s=height // g)


@dataclass(frozen=True)
class DistillConfig:
    tau: float = 3.0
    grid_g: int = 4
    alpha_T: float = 0.5

    def __post_init__(self):
        _check_field_types(self)
        # written as negations so that NaN fails them too
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not self.grid_g >= 1:
            raise ValueError(f"grid_g must be >= 1, got {self.grid_g}")
        if not 0.0 <= self.alpha_T <= 1.0:
            raise ValueError(f"alpha_T must be in [0,1], got {self.alpha_T}")


def patch_counts(side_output, grid: PatchGrid):
    """Per-patch [foreground, background] probability mass matrix, shape [n, 2]."""
    y = T._as_tensor(side_output)
    if y.data.ndim != 3 or y.data.shape[0] != 1:
        raise ShapeError(f"patch_counts: expected [1,H,W], got {y.data.shape}")
    _, h, w = y.data.shape
    if h != grid.g * grid.s or w != grid.g * grid.s:
        raise ValueError(f"grid {grid.g}x{grid.g} of {grid.s}x{grid.s} patches "
                         f"does not tile {h}x{w}")
    if np.any(y.data < 0) or np.any(y.data > 1):
        raise ValueError("patch_counts: values must lie in [0,1]")
    g, s = grid.g, grid.s
    fg = T.tsum(y.reshape((g, s, g, s)), axis=3)
    fg = T.tsum(fg, axis=1).reshape((grid.n, 1))
    bg = float(s * s) - fg
    return T.concat([fg, bg], axis=1)


def prob_vector(counts, tau):
    """Flatten an [n,2] count matrix and apply a temperature softmax.

    The counts are divided by the patch area first so the logits stay
    O(1) at any resolution; the flat order is
    [p_{1,fg}, p_{1,bg}, p_{2,fg}, ...].
    """
    z = T._as_tensor(counts)
    if z.data.ndim != 2 or z.data.shape[1] != 2:
        raise ShapeError(f"prob_vector: expected [n,2] counts, got {z.data.shape}")
    if tau <= 0:
        raise ValueError(f"prob_vector: tau must be positive, got {tau}")
    z = z / float(z.data[0].sum())
    return T.softmax(z.reshape((z.data.shape[0] * 2,)), tau=tau)


def kl_div(p_first, p_second):
    """KL(p_first || p_second); gradient flows into p_first only."""
    p = T._as_tensor(p_first)
    q = T._as_tensor(p_second).detach()
    if p.data.shape != q.data.shape:
        raise ShapeError(f"kl_div: lengths differ, {p.data.shape} vs {q.data.shape}")
    log_ratio = T.log(T.clamp(p, _EPS, 1.0)) - T.log(T.clamp(q, _EPS, 1.0))
    return T.tsum(p * log_ratio)


def ddl(student_sides, teacher_sides, cfg: DistillConfig):
    """Distribution loss summed over all decoder depths."""
    if len(student_sides) != len(teacher_sides):
        raise ShapeError(
            f"ddl: depth mismatch, student {len(student_sides)} vs teacher {len(teacher_sides)}"
        )
    total = None
    for ys, yt in zip(student_sides, teacher_sides):
        _, h, w = ys.data.shape
        grid = PatchGrid.for_shape(h, w, cfg.grid_g)
        ps = prob_vector(patch_counts(ys, grid), cfg.tau)
        yt = T._as_tensor(yt).detach()
        pt = prob_vector(patch_counts(yt, grid), cfg.tau)
        term = kl_div(ps, pt)
        total = term if total is None else total + term
    return total


def alpha_at(t, total_epochs, alpha_T):
    """Linear ramp of the soft-label blend weight: alpha_T * t / T."""
    if total_epochs < 1:
        raise ValueError(f"total_epochs must be >= 1, got {total_epochs}")
    if not 1 <= t <= total_epochs:
        raise ValueError(f"epoch {t} outside 1..{total_epochs}")
    return alpha_T * t / total_epochs


def soften_label(teacher_pred, ground_truth, alpha):
    """Convex blend alpha * teacher + (1 - alpha) * ground truth."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0,1], got {alpha}")
    yt = T._as_tensor(teacher_pred).detach()
    y = T._as_tensor(ground_truth)
    if yt.data.shape != y.data.shape:
        raise ShapeError(f"soften_label: shapes differ, {yt.data.shape} vs {y.data.shape}")
    return alpha * yt + (1.0 - alpha) * y


def psdl(student_pred, soft_label):
    """Pixel-mean cross entropy of the student prediction against a soft label."""
    p = T._as_tensor(student_pred)
    target = T._as_tensor(soft_label).detach()
    if p.data.shape != target.data.shape:
        raise ShapeError(f"psdl: shapes differ, {p.data.shape} vs {target.data.shape}")
    p = T.clamp(p, _EPS, 1.0 - _EPS)
    return -T.tmean(target * T.log(p) + (1.0 - target) * T.log(1.0 - p))


def dice_loss(pred, ground_truth):
    """Soft dice complement: 1 - (2*overlap + eps) / (mass(pred) + mass(gt) + eps)."""
    p = T._as_tensor(pred)
    y = T._as_tensor(ground_truth)
    if p.data.shape != y.data.shape:
        raise ShapeError(f"dice_loss: shapes differ, {p.data.shape} vs {y.data.shape}")
    overlap = T.tsum(p * y)
    return 1.0 - (2.0 * overlap + _EPS) / (T.tsum(p) + T.tsum(y) + _EPS)


def loss_terms(sides, teacher_sides, ground_truth, cfg: DistillConfig, alpha):
    """The three objective terms as a dict of scalar tensors.

    sides and teacher_sides are side outputs, shallowest first, so [0] is
    the prediction. The teacher's presence is the only switch: with
    teacher_sides None, only sides[0] is read, the distribution and
    pixel-wise terms are zero and the objective is dice alone; with them
    the soft label blends in teacher_sides[0] at weight alpha.
    """
    pred = sides[0]
    dice = dice_loss(pred, ground_truth)
    if teacher_sides is None:
        zero = Tensor(np.zeros((), dtype=dice.data.dtype))
        return {"ddl": zero, "psdl": zero, "dice": dice}

    soft = soften_label(teacher_sides[0], ground_truth, alpha)
    return {
        "ddl": ddl(sides, teacher_sides, cfg),
        "psdl": psdl(pred, soft),
        "dice": dice,
    }
