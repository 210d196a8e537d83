"""Tour of the three training-loss components on a toy network.

Shows how a side output is reduced to a patch-level foreground/background
distribution, how student and teacher distributions are compared with a
temperature-softened KL term, how the soft-label weight ramps over epochs,
and what each loss term contributes to the total. A teacher is passed as
its list of side outputs, whose first entry is its prediction.
"""

import numpy as np

from vesseldistill.checks import toy_setup
from vesseldistill.distill import (
    DistillConfig, alpha_at, ddl, dice_loss, loss_terms, patch_counts,
    prob_vector, psdl, soften_label,
)

cfg = DistillConfig(grid_g=2)
student, teacher, x, y = toy_setup(seed=0)

pred, feats = student.forward(x)
sides = student.side_outputs(feats, pred)
t_pred, t_feats = teacher.forward(x)
t_sides = teacher.side_outputs(t_feats, t_pred)

# 1. A side output becomes a 2x2 grid of [fg mass, bg mass] rows ...
counts = patch_counts(sides[0], cfg.grid_g)
print("patch count matrix (rows sum to s^2 = 16):")
print(np.round(counts.data, 3))

# 2. ... flattened and softened into a probability vector.
p = prob_vector(counts, tau=cfg.tau)
print(f"\nprobability vector (sums to {p.data.sum():.6f}):")
print(np.round(p.data, 4))

# 3. The distribution loss sums student-vs-teacher KL across depths.
print(f"\nL_DDL student vs teacher: {ddl(sides, t_sides, cfg).item():.6f}")
print(f"L_DDL student vs itself:  {ddl(sides, sides, cfg).item():.2e} (fixed point)")

# 4. The soft-label weight grows linearly with the epoch.
print("\nalpha ramp over a 10-epoch run (alpha_T = 0.5):")
print(" ".join(f"{alpha_at(t, 10, 0.5):.2f}" for t in range(1, 11)))

# 5. Pixel-wise distillation: cross entropy against a teacher/target blend.
alpha = alpha_at(3, 10, cfg.alpha_T)
soft = soften_label(t_pred, y, alpha)
print(f"\nL_PSDL at epoch 3: {psdl(pred, soft).item():.6f}")
print(f"L_DICE:            {dice_loss(pred, y).item():.6f}")

# 6. loss_terms gives all three at once, from the student's and the
#    teacher's side outputs and the epoch's alpha; the objective is their sum.
terms = loss_terms(sides, t_sides, y, cfg, alpha)
total = terms["ddl"] + terms["psdl"] + terms["dice"]
print(f"L_total:           {total.item():.6f} (unweighted sum of the three)")
dice_only = loss_terms(sides, None, y, cfg, 0.0)
print(f"without a teacher: ddl {dice_only['ddl'].item()}, psdl {dice_only['psdl'].item()}, "
      f"dice {dice_only['dice'].item():.6f}")
