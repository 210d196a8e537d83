"""Distillation loss mathematics.

Three terms make up the training objective:

* a hierarchical distribution loss: each side output is cut into a g x g
  grid of patches, per-patch foreground/background masses form a 2n-logit
  vector, a temperature softmax turns it into a probability vector, and
  the student's vector is pulled toward the frozen teacher's by KL
  divergence, summed over all decoder depths;
* a pixel-wise distillation loss: binary cross entropy between the
  student prediction and a soft label blending the teacher prediction
  with the ground truth, with the blend weight ramped up linearly over
  epochs;
* a soft dice loss against the ground truth.

At epoch 1 there is no teacher yet and the objective is dice only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
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
        # written as negations so that NaN fails them too
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not self.grid_g >= 1:
            raise ValueError(f"grid_g must be >= 1, got {self.grid_g}")
        if not 0.0 <= self.alpha_T <= 1.0:
            raise ValueError(f"alpha_T must be in [0,1], got {self.alpha_T}")


def patch_counts(side_output, grid: PatchGrid):
    """Per-patch [foreground, background] probability mass matrix, shape [n, 2]."""
    y = side_output if isinstance(side_output, Tensor) else Tensor(side_output)
    if y.data.ndim != 3 or y.data.shape[0] != 1:
        raise ShapeError(f"patch_counts: expected [1,H,W], got {y.data.shape}")
    _, h, w = y.data.shape
    if h % grid.g or w % grid.g:
        raise ValueError(f"grid {grid.g}x{grid.g} does not divide {h}x{w}")
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
    z = counts if isinstance(counts, Tensor) else Tensor(counts)
    if z.data.ndim != 2 or z.data.shape[1] != 2:
        raise ShapeError(f"prob_vector: expected [n,2] counts, got {z.data.shape}")
    if tau <= 0:
        raise ValueError(f"prob_vector: tau must be positive, got {tau}")
    z = z / float(z.data[0].sum())
    return T.softmax(z.reshape((z.data.shape[0] * 2,)), tau=tau)


def kl_div(p_first, p_second):
    """KL(p_first || p_second); gradient flows into p_first only."""
    p = p_first if isinstance(p_first, Tensor) else Tensor(p_first)
    q = p_second if isinstance(p_second, Tensor) else Tensor(p_second)
    if p.data.shape != q.data.shape:
        raise ShapeError(f"kl_div: lengths differ, {p.data.shape} vs {q.data.shape}")
    q = q.detach()
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
        yt = yt.detach() if isinstance(yt, Tensor) else Tensor(yt)
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
    yt = teacher_pred.detach() if isinstance(teacher_pred, Tensor) else Tensor(teacher_pred)
    y = ground_truth if isinstance(ground_truth, Tensor) else Tensor(ground_truth)
    if yt.data.shape != y.data.shape:
        raise ShapeError(f"soften_label: shapes differ, {yt.data.shape} vs {y.data.shape}")
    return alpha * yt + (1.0 - alpha) * y


def psdl(student_pred, soft_label):
    """Pixel-mean cross entropy of the student prediction against a soft label."""
    p = student_pred if isinstance(student_pred, Tensor) else Tensor(student_pred)
    target = soft_label.detach() if isinstance(soft_label, Tensor) else Tensor(soft_label)
    if p.data.shape != target.data.shape:
        raise ShapeError(f"psdl: shapes differ, {p.data.shape} vs {target.data.shape}")
    p = T.clamp(p, _EPS, 1.0 - _EPS)
    return -T.tmean(target * T.log(p) + (1.0 - target) * T.log(1.0 - p))


def dice_loss(pred, ground_truth):
    """Soft dice complement: 1 - (2*overlap + eps) / (mass(pred) + mass(gt) + eps)."""
    p = pred if isinstance(pred, Tensor) else Tensor(pred)
    y = ground_truth if isinstance(ground_truth, Tensor) else Tensor(ground_truth)
    if p.data.shape != y.data.shape:
        raise ShapeError(f"dice_loss: shapes differ, {p.data.shape} vs {y.data.shape}")
    overlap = T.tsum(p * y)
    return 1.0 - (2.0 * overlap + _EPS) / (T.tsum(p) + T.tsum(y) + _EPS)


def loss_terms(student_pred, student_sides, teacher_pred, teacher_sides,
               ground_truth, cfg: DistillConfig, t, total_epochs):
    """The three objective terms for epoch t as a dict of scalar tensors.

    Epoch 1 has no teacher: distribution and pixel-wise terms are zero
    and the objective is dice alone.
    """
    has_teacher = teacher_pred is not None or teacher_sides is not None
    if t == 1 and has_teacher:
        raise ValueError("epoch 1 takes no teacher (dice-only branch)")
    if t >= 2 and not (teacher_pred is not None and teacher_sides is not None):
        raise ValueError(f"epoch {t} requires a teacher prediction and side outputs")

    dice = dice_loss(student_pred, ground_truth)
    if t == 1:
        zero = Tensor(np.zeros((), dtype=dice.data.dtype))
        return {"ddl": zero, "psdl": zero, "dice": dice}

    alpha = alpha_at(t, total_epochs, cfg.alpha_T)
    soft = soften_label(teacher_pred, ground_truth, alpha)
    return {
        "ddl": ddl(student_sides, teacher_sides, cfg),
        "psdl": psdl(student_pred, soft),
        "dice": dice,
    }


def total_loss(student_pred, student_sides, teacher_pred, teacher_sides,
               ground_truth, cfg: DistillConfig, t, total_epochs):
    """Unweighted sum of the distribution, pixel-wise, and dice terms."""
    terms = loss_terms(student_pred, student_sides, teacher_pred, teacher_sides,
                       ground_truth, cfg, t, total_epochs)
    return terms["ddl"] + terms["psdl"] + terms["dice"]
