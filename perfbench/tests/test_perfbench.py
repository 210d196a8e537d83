"""Tests for the benchmark's own helpers.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import layers  # noqa: E402
import stats  # noqa: E402
from spans import NO_PARENT, Tracer, self_times  # noqa: E402

from vesseldistill import distill, network, tensor as T  # noqa: E402
from vesseldistill.data import generate_synthetic, split  # noqa: E402
from vesseldistill.network import NetworkConfig, SegNetwork  # noqa: E402

train_module = layers.train


# ---- percentiles ----

def test_percentile_is_nearest_rank():
    samples = list(range(100, 0, -1))  # 1..100, unordered
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 90) == 90
    assert sum(v > stats.percentile(samples, 90) for v in samples) == 10


@pytest.mark.parametrize("n, p, ok", [(99, 90, False), (100, 90, True), (999, 99, False),
                                      (1000, 99, True), (19, 50, False), (20, 50, True)])
def test_tail_percentile_keeps_ten_samples_beyond(n, p, ok):
    samples = list(range(n))
    if not ok:
        with pytest.raises(ValueError):
            stats.tail_percentile(samples, p)
        return
    value = stats.tail_percentile(samples, p)
    assert value == stats.percentile(samples, p)
    assert sum(v > value for v in samples) >= stats.TAIL_SAMPLES


def test_tail_percentile_refuses_a_thin_tail():
    assert stats.tail_percentile(list(range(100)), 90) == 89
    with pytest.raises(ValueError):
        stats.tail_percentile(list(range(99)), 90)


# ---- spans ----

def fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_subtracts_only_direct_children():
    #  a: 0..10 { b: 1..5 { c: 2..4 }, d: 6..7 }
    tr = Tracer(clock=fake_clock([0, 1, 2, 4, 5, 6, 7, 10]))
    a = tr.open("a")
    b = tr.open("b")
    c = tr.open("c")
    tr.close(c)
    tr.close(b)
    d = tr.open("d")
    tr.close(d)
    tr.close(a)
    arr = tr.arrays()
    assert arr["parent"].tolist() == [NO_PARENT, a, b, a]
    own = self_times(arr["start"], arr["end"], arr["parent"])
    assert own.tolist() == [10 - 4 - 1, 4 - 2, 2, 1]


def test_uncovered_share_leaves_out_time_with_recording_off():
    # on 0..2 and 5..7; span a 1..6 is open while recording is off 2..5
    tr = Tracer(clock=fake_clock([0, 1, 2, 5, 6, 7]))
    tr.enable()
    a = tr.open("a")
    tr.disable()
    tr.enable()
    tr.close(a)
    tr.disable()
    assert tr.enabled_s == 4
    assert tr.uncovered_share() == 1 - (5 - 3) / 4


def test_spans_must_close_in_order():
    tr = Tracer()
    a = tr.open("a")
    tr.open("b")
    with pytest.raises(RuntimeError):
        tr.close(a)


# ---- computed conv work ----

def test_conv_flops_match_a_hand_count():
    # enc1.conv2 of the smoke network: 8 -> 8 channels at 64x64. Each output
    # value is 8 channels x 9 taps = 72 multiply-adds = 144 FLOPs.
    assert stats.conv3x3_flops(8, 8, 64, 64) == 144 * 8 * 64 * 64 == 4_718_592
    assert stats.conv3x3_backward_flops(8, 8, 64, 64) == 2 * 4_718_592
    assert stats.im2col_bytes(8, 64, 64, 4) == 72 * 4096 * 4


def test_traced_conv_counts_its_layer_flops():
    tr = Tracer()
    inst = layers.Instrumentation(tr)
    inst.install()
    try:
        net = SegNetwork(NetworkConfig(depth=2, base_channels=4, height=16, width=16),
                         dtype=np.float32)
        tr.enable()
        pred, _ = net.forward(np.zeros((1, 16, 16), dtype=np.float32))
        pred.sum().backward()
        tr.disable()
    finally:
        inst.uninstall()
    # enc1.conv2: 4 -> 4 channels at 16x16
    assert inst.conv_flops["enc1.conv2", "fwd"] == stats.conv3x3_flops(4, 4, 16, 16)
    assert inst.conv_flops["enc1.conv2", "bwd"] == stats.conv3x3_backward_flops(4, 4, 16, 16)
    m = inst.metrics()
    assert m["tensor.conv2d.calls"] == 7  # 4 encoder, 2 decoder, 1 head
    assert m["tensor.conv.enc1.conv2.fwd_gflops"] > 0
    assert m["tensor.conv.enc3.conv1.fwd_gflops"] == 0  # no such layer at depth 2


# ---- tracing leaves the program unchanged ----

PATCHED = [(T, name) for name in layers.OP_GROUPS[:-1] + layers.ELEMENTWISE_OPS]
PATCHED += [(module, attr) for module, attr, _ in layers.CALL_SPANS]
PATCHED += [(cls, attr) for cls, attr, _ in layers.METHOD_SPANS]
PATCHED += [(network.SegNetwork, "forward"), (train_module, "train"),
            (train_module, "save_checkpoint"), (network, "save_checkpoint"),
            (train_module, "batches")]


def _tiny_train(out_dir):
    dataset = split(generate_synthetic(seed=3, count=10, size=16), seed=0)
    cfg = train_module.TrainConfig(
        epochs=3, network=NetworkConfig(depth=2, base_channels=4, height=16, width=16),
        distill=distill.DistillConfig(grid_g=2), seed=0, out_dir=str(out_dir))
    result = train_module.train(cfg, dataset)
    return network.load_checkpoint(result.final_path).params, result.logs


def test_traced_training_is_bitwise_identical_and_wrappers_are_restored(tmp_path):
    originals = [owner.__dict__[attr] for owner, attr in PATCHED]
    plain_weights, plain_logs = _tiny_train(tmp_path / "plain")

    tr = Tracer()
    inst = layers.Instrumentation(tr)
    inst.install()
    try:
        assert all(owner.__dict__[attr] is not orig
                   for (owner, attr), orig in zip(PATCHED, originals))
        tr.enable()
        traced_weights, traced_logs = _tiny_train(tmp_path / "traced")
        tr.disable()
    finally:
        inst.uninstall()

    assert plain_weights.keys() == traced_weights.keys()
    for name in plain_weights:
        assert np.array_equal(plain_weights[name], traced_weights[name]), name
    assert [log.row() for log in plain_logs] == [log.row() for log in traced_logs]
    assert all(owner.__dict__[attr] is orig for (owner, attr), orig in zip(PATCHED, originals))
    assert layers.gc.callbacks.count(inst._gc_callback) == 0

    m = inst.metrics()
    assert m["train.epoch_s"] > 0 and m["optim.step.calls"] > 0
    assert m["distill.ddl_s"] > 0 and m["network.teacher_forward_s"] > 0
    assert m["tensor.graph_nodes_per_step"] > 0
    assert 0 <= m["trace.uncovered_share"] < 0.5


def test_every_reported_per_layer_metric_is_declared():
    import json
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    tr = Tracer()
    inst = layers.Instrumentation(tr)
    reported = set(inst.metrics()) | {"tensor.sgemm_peak_gflops", "trace.overhead_share"}
    assert {m["name"] for m in declared} == reported
    assert all(m["unit"] == layers.unit_of(m["name"]) for m in declared)
