"""Print sha256 fingerprints of a smoke-shape training run.

Trains depth 3, base 8, 64x64, float32, batch 4 on 200 synthetic samples split
7:1:2, then prints one line for epochs.csv and one per last.npz and best.npz
member, with the out_dir in meta's run record masked. Two trees train bitwise
alike when they print the same lines on one machine (the bits depend on the
OpenBLAS core):

    PYTHONPATH=src python tools/fingerprint.py --seed 1 --epochs 2

With --resume-at K the run is stopped at the start of epoch K+1, resumed from
its last.npz into a new directory, and the resumed run's lines are printed; a
resume that reproduces the uninterrupted run prints the same lines.
"""

import argparse
import dataclasses
import hashlib
import importlib
import json
import tempfile
from pathlib import Path

import numpy as np

from vesseldistill.data import generate_synthetic, split
from vesseldistill.network import NetworkConfig

train = importlib.import_module("vesseldistill.train")  # the package exports train()


class Stop(Exception):
    """Raised by the epoch-start hook that interrupts a --resume-at run."""


def member_digest(name, array):
    if name == "meta":
        meta = json.loads(array.tobytes())
        if meta["run"] is not None:
            meta["run"]["train_config"]["out_dir"] = "<masked>"
        array = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    head = f"{array.dtype.str} {array.shape} ".encode()
    return hashlib.sha256(head + array.tobytes()).hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="data and training seed")
    parser.add_argument("--epochs", type=int, default=4)
    parser.add_argument("--dice-only", action="store_true")
    parser.add_argument("--one-process", action="store_true", help="fork no training workers")
    parser.add_argument("--resume-at", type=int, metavar="K",
                        help="stop the run at the start of epoch K+1 and resume it from "
                             "its last.npz into a new directory")
    args = parser.parse_args()
    if args.resume_at is not None and not 1 <= args.resume_at < args.epochs:
        parser.error(f"--resume-at must be in 1..{args.epochs - 1}")
    if args.one_process:
        train._process_count = lambda batch_size: 1
    dataset = split(generate_synthetic(seed=args.seed, count=200, size=64),
                    ratios=(7, 1, 2), seed=args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "run")
        net = NetworkConfig(depth=3, base_channels=8, height=64, width=64)
        cfg = train.TrainConfig(epochs=args.epochs, batch_size=4, network=net, seed=args.seed,
                                dtype="float32", dice_only=args.dice_only, out_dir=str(out))
        if args.resume_at is None:
            train.train(cfg, dataset)
        else:
            # the stopped run has the full run's config, as a resume requires
            def stop(t, teacher_net):
                if t == args.resume_at + 1:
                    raise Stop

            stopped = Path(tmp, "stopped")
            try:
                train.train(dataclasses.replace(cfg, out_dir=str(stopped)), dataset,
                            epoch_start_hook=stop)
            except Stop:
                pass
            train.train(cfg, dataset, resume_from=stopped / "last.npz")
        print("epochs.csv", hashlib.sha256((out / "epochs.csv").read_bytes()).hexdigest())
        for file in ("last.npz", "best.npz"):
            with np.load(out / file) as z:
                for name in sorted(z.files):
                    print(f"{file}:{name}", member_digest(name, z[name]))


if __name__ == "__main__":
    main()
