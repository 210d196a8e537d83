"""Generate a synthetic vessel dataset and round-trip it through PGM files.

The generator grows branching vessel trees procedurally and renders them
as dark curves over a smooth noisy background; images and binary masks are
written as binary P5 graymaps, the same format the CLI consumes.
"""

import tempfile
from pathlib import Path

import numpy as np

from vesseldistill.data import (
    generate_synthetic, load_pgm, load_sample_dir, save_sample_dir, split,
)

samples = generate_synthetic(seed=7, count=12, size=64)
fracs = [s.mask.mean() for s in samples]
print(f"generated {len(samples)} samples, vessel coverage "
      f"{min(fracs):.1%} .. {max(fracs):.1%}")

s = samples[0]
fg = s.image.data[s.mask].mean()
bg = s.image.data[~s.mask].mean()
print(f"sample {s.id}: vessel intensity {fg:.3f} vs background {bg:.3f}")

# crude terminal rendering of the first mask (every other row/column)
art = s.mask[0][::4, ::2]
print("\nmask sketch:")
for row in art:
    print("".join("#" if v else "." for v in row))

with tempfile.TemporaryDirectory() as tmp:
    save_sample_dir(samples, tmp)
    n_files = len(list(Path(tmp, "images").glob("*.pgm")))
    back = load_sample_dir(tmp)
    err = max(np.max(np.abs(a.image.data - b.image.data))
              for a, b in zip(sorted(samples, key=lambda s: s.id), back))
    print(f"\nwrote {n_files} P5 files; reload error {err:.5f} "
          f"(<= half a quantization step, {0.5 / 255:.5f})")

ds = split(samples, ratios=(7, 1, 2), seed=0)
print(f"7:1:2 split -> {len(ds.train)} train / {len(ds.val)} val / "
      f"{len(ds.test)} test")
