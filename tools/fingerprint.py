"""Print sha256 fingerprints of a smoke-shape training run.

Trains depth 3, base 8, 64x64, float32, batch 4 on 200 synthetic samples split
7:1:2, then prints one line for epochs.csv and one per last.npz and best.npz
member, with train_config's out_dir masked. Two trees train bitwise alike when
they print the same lines on one machine (the bits depend on the OpenBLAS core):

    PYTHONPATH=src python tools/fingerprint.py --seed 1 --epochs 2
"""

import argparse
import hashlib
import importlib
import json
import tempfile
from pathlib import Path

import numpy as np

from vesseldistill.data import generate_synthetic, split
from vesseldistill.network import NetworkConfig

train = importlib.import_module("vesseldistill.train")  # the package exports train()


def member_digest(name, array):
    if name == "extra:train_config":
        config = json.loads(bytes(array).decode())
        config["out_dir"] = "<masked>"
        array = np.frombuffer(json.dumps(config).encode(), dtype=np.uint8)
    head = f"{array.dtype.str} {array.shape} ".encode()
    return hashlib.sha256(head + array.tobytes()).hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="data and training seed")
    parser.add_argument("--epochs", type=int, default=4)
    parser.add_argument("--dice-only", action="store_true")
    parser.add_argument("--one-process", action="store_true", help="fork no training workers")
    args = parser.parse_args()
    if args.one_process:
        train._process_count = lambda batch_size: 1
    dataset = split(generate_synthetic(seed=args.seed, count=200, size=64),
                    ratios=(7, 1, 2), seed=args.seed)
    with tempfile.TemporaryDirectory() as out:
        net = NetworkConfig(depth=3, base_channels=8, height=64, width=64)
        cfg = train.TrainConfig(epochs=args.epochs, batch_size=4, network=net, seed=args.seed,
                                dtype="float32", dice_only=args.dice_only, out_dir=out)
        train.train(cfg, dataset)
        print("epochs.csv", hashlib.sha256(Path(out, "epochs.csv").read_bytes()).hexdigest())
        for file in ("last.npz", "best.npz"):
            with np.load(Path(out, file)) as z:
                for name in sorted(z.files):
                    print(f"{file}:{name}", member_digest(name, z[name]))


if __name__ == "__main__":
    main()
