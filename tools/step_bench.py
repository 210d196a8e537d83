"""Print the median ms of the forward, evaluate and the training step per image size.

For each side it builds a depth 3, base 8, float32 net (the smoke shape's, at
that side) and one synthetic sample, then times, after one warm-up call each:

- forward: a frozen net's forward of the sample image;
- evaluate: `train.evaluate` of the trainable net on that one sample;
- step: one `train._sample_step` with a teacher, forward, losses and backward.

forward_peak_mib is the tracemalloc peak of one more frozen forward, made
apart from the timed calls, as tracing slows every allocation.

    PYTHONPATH=src python tools/step_bench.py --sides 64 256 512 --repeats 5

One BLAS thread is pinned before numpy loads, as perfbench pins it, and the
thread count the loaded OpenBLAS reports is printed first. Standard library
and numpy only.

Medians from separate invocations drift by 30-50% on a 2-vCPU virtual
machine (one tree's 64x64 forward read 2.1-3.4 ms across back-to-back
processes), so do not compare two trees by running this tool once on each.
Compare them inside one process instead, importing both and alternating
their calls round by round, and count the rounds each side wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

from vesseldistill.data import generate_synthetic  # noqa: E402
from vesseldistill.network import NetworkConfig, SegNetwork  # noqa: E402

train = importlib.import_module("vesseldistill.train")  # the package exports train()


def median_ms(fn, repeats):
    fn()  # warm caches and the allocator
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def peak_mib(fn):
    """The tracemalloc peak of one call of fn, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def bench(side, repeats):
    """(forward, evaluate, step) median ms and the forward's peak MiB at one side."""
    network = NetworkConfig(depth=3, base_channels=8, height=side, width=side)
    cfg = train.TrainConfig(epochs=2, network=network)
    net = SegNetwork(network, seed=0, dtype=np.float32)
    frozen = SegNetwork(network, seed=0, dtype=np.float32, trainable=False)
    teacher = SegNetwork.from_arrays(network, net.weights, trainable=False)  # as train() builds it
    sample = generate_synthetic(seed=side, count=1, size=side)[0]
    image = sample.image.data.astype(np.float32)
    return (median_ms(lambda: frozen.forward(image), repeats),
            median_ms(lambda: train.evaluate(net, [sample]), repeats),
            median_ms(lambda: train._sample_step(net, teacher, sample, cfg, 0.25, 0.25),
                      repeats),
            peak_mib(lambda: frozen.forward(image)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sides", type=int, nargs="+", default=[64, 256, 512],
                        help="image sides, each divisible by 4")
    parser.add_argument("--repeats", type=int, default=5, help="timed calls per median")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    threads = train._openblas("get_num_threads", ctypes.c_int, [])  # None: cannot be asked
    print(f"blas_threads {None if threads is None else threads()}")
    print(f"{'side':>6}{'forward_ms':>12}{'evaluate_ms':>13}{'step_ms':>10}"
          f"{'forward_peak_mib':>18}")
    for side in args.sides:
        forward, evaluate, step, peak = bench(side, args.repeats)
        print(f"{side:>6}{forward:>12.2f}{evaluate:>13.2f}{step:>10.2f}{peak:>18.2f}",
              flush=True)


if __name__ == "__main__":
    main()
