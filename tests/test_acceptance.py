"""Acceptance gate: one test per criterion, each reporting a PASS/FAIL line.

Every criterion is checked against a pinned tolerance; the verdict lines
are printed in a dedicated section at the end of the run (see conftest).
"""

import dataclasses
import math
import shutil
import time

import numpy as np
import pytest

from vesseldistill import checks, distill
from vesseldistill.data import (
    PGMMagicError, PGMMaxvalError, PGMTruncatedError, generate_synthetic,
    load_pgm, save_pgm, split,
)
from vesseldistill.distill import (
    DistillConfig, alpha_at, ddl, kl_div, patch_counts, prob_vector,
    psdl,
)
from vesseldistill.metrics import ConfusionCounts, compute_metrics, evaluate_pairs
from vesseldistill.network import NetworkConfig, SegNetwork, load_checkpoint
from vesseldistill.optim import lr_at
from vesseldistill.tensor import Tensor
from vesseldistill.train import TrainConfig, evaluate, train


def check(record, num, name, ok, detail=""):
    suffix = f"  ({detail})" if detail else ""
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}{suffix}"
    record(line)
    assert ok, line


# ---- independent scalar oracle for the distribution loss (criterion 2) ----

def _ddl_oracle(student_sides, teacher_sides, cfg):
    total = 0.0
    for ys, yt in zip(student_sides, teacher_sides):
        s = ys.shape[1] // cfg.grid_g
        vectors = []
        for plane in (ys[0], yt[0]):
            flat = []
            for pi in range(cfg.grid_g):
                for pj in range(cfg.grid_g):
                    fg = 0.0
                    for i in range(s):
                        for j in range(s):
                            fg += plane[pi * s + i, pj * s + j]
                    flat.extend([fg / (s * s), 1.0 - fg / (s * s)])
            exps = [math.exp(v / cfg.tau) for v in flat]
            z = sum(exps)
            vectors.append([e / z for e in exps])
        for a, b in zip(*vectors):
            total += a * math.log(max(a, 1e-7) / max(b, 1e-7))
    return total


def test_criterion_1_gradient_integrity(acceptance_record):
    start = time.perf_counter()
    results = checks.run_suite(seeds=range(10))
    elapsed = time.perf_counter() - start
    failures = [r for r in results if not r["ok"]]
    ok = not failures and elapsed < 60.0
    check(acceptance_record, 1, "gradient integrity", ok,
          f"{len(results) - len(failures)}/{len(results)} checks, {elapsed:.1f}s")


def test_criterion_2_ddl_oracle_equivalence(acceptance_record):
    rng = np.random.default_rng(0)
    cfg = DistillConfig(grid_g=2)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        sides_s = [rng.uniform(size=(1, 8, 8)), rng.uniform(size=(1, 4, 4))]
        sides_t = [rng.uniform(size=(1, 8, 8)), rng.uniform(size=(1, 4, 4))]
        got = ddl([Tensor(a) for a in sides_s],
                  [Tensor(a) for a in sides_t], cfg).item()
        worst = max(worst, abs(got - _ddl_oracle(sides_s, sides_t, cfg)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 10.0
    check(acceptance_record, 2, "distribution-loss oracle equivalence", ok,
          f"worst |diff| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_self_distillation_fixed_point(acceptance_record):
    cfg = DistillConfig(grid_g=2)
    worst_ddl = 0.0
    worst_psdl = 0.0
    for seed in range(10):
        net, _, x, _ = checks.toy_setup(seed)
        pred, feats = net.forward(x)
        sides = net.side_outputs(feats, pred)
        worst_ddl = max(worst_ddl, abs(ddl(sides, sides, cfg).item()))
        # alpha=1 with teacher == student: the soft label is the prediction
        # itself, so the cross entropy collapses to the self-entropy
        soft = distill.soften_label(pred.detach(), Tensor(np.zeros_like(pred.data)), 1.0)
        p = pred.data
        entropy = float(-(p * np.log(p) + (1 - p) * np.log(1 - p)).mean())
        worst_psdl = max(worst_psdl, abs(psdl(pred, soft).item() - entropy))
    ok = worst_ddl <= 1e-9 and worst_psdl < 1e-9
    check(acceptance_record, 3, "self-distillation fixed point", ok,
          f"worst ddl {worst_ddl:.2e}, worst entropy |diff| {worst_psdl:.2e}")


def test_criterion_4_kl_softmax_invariants(acceptance_record):
    rng = np.random.default_rng(1)
    sums_ok = True
    for _ in range(200):
        z = rng.uniform(0, 16, size=(rng.integers(1, 17), 2))
        tau = float(rng.choice([0.1, 1.0, 3.0, 100.0]))
        p = prob_vector(Tensor(z), tau=tau).data
        sums_ok &= abs(p.sum() - 1.0) < 1e-9 and bool(np.all(p > 0))
    kl_ok = True
    for _ in range(1000):
        a = rng.uniform(0.001, 1, size=8)
        b = rng.uniform(0.001, 1, size=8)
        kl_ok &= kl_div(Tensor(a / a.sum()), Tensor(b / b.sum())).item() >= 0
    p = rng.uniform(0.1, 1, size=8)
    p /= p.sum()
    self_kl = abs(kl_div(Tensor(p), Tensor(p.copy())).item())
    ok = sums_ok and kl_ok and self_kl <= 1e-12
    check(acceptance_record, 4, "KL/softmax invariants", ok,
          f"self-KL {self_kl:.2e}")


def test_criterion_5_schedule_conformance(acceptance_record):
    alpha_ok = all(
        alpha_at(t, T, a) == a * t / T
        for T in (30, 100) for a in (0.5, 0.7) for t in range(1, T + 1))
    table = {t: 1e-3 for t in range(1, 11)}
    table.update({t: 3e-4 for t in range(11, 21)})
    table.update({t: 9e-5 for t in range(21, 31)})
    cfg = TrainConfig()  # the paper's schedule is the default one
    lr_ok = all(abs(lr_at(t, cfg.learning_rate, cfg.lr_gamma, cfg.lr_step_every) - lr) < 1e-18
                for t, lr in table.items())
    check(acceptance_record, 5, "alpha/lr schedule conformance",
          alpha_ok and lr_ok)


def test_criterion_6_training_loop_conformance(acceptance_record, tmp_path):
    dataset = split(generate_synthetic(seed=1, count=20, size=32), seed=0)
    probe = Tensor(dataset.val[0].image.data.astype(np.float32))
    cfg = TrainConfig(
        epochs=3, network=NetworkConfig(depth=2, base_channels=4,
                                        height=32, width=32),
        distill=DistillConfig(grid_g=4), seed=0, out_dir=str(tmp_path / "run"))

    teacher_probe = {}
    grads_clean = []

    def on_start(t, teacher):
        if teacher is not None:
            teacher_probe[t] = teacher.forward(probe)[0].data.copy()
            grads_clean.append(all(p.grad is None for p in teacher.parameters()))

    def on_end(t, net, teacher, log):
        grads_clean.append(all(p.grad is None for p in teacher.parameters()))
        # last.npz is saved before this hook runs
        shutil.copyfile(tmp_path / "run" / "last.npz", tmp_path / "run" / f"epoch_{t:03d}.npz")

    result = train(cfg, dataset, epoch_start_hook=on_start, epoch_end_hook=on_end)

    first = result.logs[0]
    epoch1_ok = (first.ddl == 0.0 and first.psdl == 0.0
                 and first.train_loss == first.dice)
    bitwise_ok = True
    for t in (2, 3):
        ckpt_net = load_checkpoint(
            tmp_path / "run" / f"epoch_{t - 1:03d}.npz").to_network()
        bitwise_ok &= np.array_equal(teacher_probe[t],
                                     ckpt_net.forward(probe)[0].data)
    ok = epoch1_ok and bitwise_ok and all(grads_clean)
    check(acceptance_record, 6, "training-loop (teacher/epoch-1) conformance",
          ok, f"epoch1 {epoch1_ok}, teacher bitwise {bitwise_ok}, "
              f"teacher grad-free {all(grads_clean)}")


def test_criterion_7_metrics_oracle(acceptance_record):
    rng = np.random.default_rng(2)
    exact = True
    for _ in range(1000):
        pred = rng.uniform(size=(16, 16))
        gt = (rng.uniform(size=(16, 16)) < rng.uniform(0, 0.6)).astype(float)
        p = {i for i, v in enumerate(pred.ravel()) if v >= 0.5}
        y = {i for i, v in enumerate(gt.ravel()) if v >= 0.5}
        tp, fp, fn = len(p & y), len(p - y), len(y - p)
        tn = 256 - tp - fp - fn
        r = evaluate_pairs([(pred, gt)])
        want = compute_metrics(ConfusionCounts(tp, tn, fp, fn))
        exact &= (r.dsc, r.acc, r.sen, r.iou) == (want.dsc, want.acc,
                                                  want.sen, want.iou)
    w = compute_metrics(ConfusionCounts(tp=2, tn=12, fp=1, fn=1))
    worked = (abs(w.dsc - 0.6667) < 5e-5 and abs(w.acc - 0.8750) < 5e-5
              and abs(w.sen - 0.6667) < 5e-5 and abs(w.iou - 0.5000) < 5e-5)
    check(acceptance_record, 7, "metrics oracle", exact and worked,
          f"worked example DSC {w.dsc:.4f} ACC {w.acc:.4f} "
          f"SEN {w.sen:.4f} IOU {w.iou:.4f}")


def test_criterion_8_smoke_training(acceptance_record, tmp_path):
    start = time.perf_counter()
    dataset = split(generate_synthetic(seed=42, count=200, size=64), seed=0)
    cfg = TrainConfig(
        epochs=30,
        network=NetworkConfig(depth=3, base_channels=8, height=64, width=64),
        seed=0, out_dir=str(tmp_path / "full"))
    full = train(cfg, dataset)
    full_net = load_checkpoint(full.best_path).to_network()
    full_dsc = evaluate(full_net, dataset.test).dsc

    control_cfg = dataclasses.replace(cfg, dice_only=True,
                                      out_dir=str(tmp_path / "dice"))
    control = train(control_cfg, dataset)
    control_net = load_checkpoint(control.best_path).to_network()
    control_dsc = evaluate(control_net, dataset.test).dsc
    elapsed = time.perf_counter() - start

    ok = full_dsc >= 0.80 and control_dsc <= full_dsc + 0.02 and elapsed < 1800
    check(acceptance_record, 8, "smoke training", ok,
          f"full DSC {full_dsc:.4f}, dice-only DSC {control_dsc:.4f}, "
          f"{elapsed / 60:.1f} min")


def test_criterion_9_determinism_and_persistence(acceptance_record, tmp_path):
    dataset = split(generate_synthetic(seed=1, count=20, size=32), seed=0)

    def cfg(name, epochs=4):
        return TrainConfig(
            epochs=epochs,
            network=NetworkConfig(depth=2, base_channels=4, height=32, width=32),
            distill=DistillConfig(grid_g=4), seed=0,
            out_dir=str(tmp_path / name))

    def keep_epoch(t, net, teacher, log):
        shutil.copyfile(tmp_path / "a" / "last.npz", tmp_path / "a" / f"epoch_{t:03d}.npz")

    a = train(cfg("a"), dataset, epoch_end_hook=keep_epoch)
    b = train(cfg("b"), dataset)
    logs_ok = all(x.row() == y.row() for x, y in zip(a.logs, b.logs))

    ckpt = load_checkpoint(a.final_path)
    restored = ckpt.to_network()
    orig = load_checkpoint(b.final_path).to_network().named_parameters()
    roundtrip_ok = all(
        np.array_equal(p.data, orig[name].data)
        for name, p in restored.named_parameters().items())

    resumed = train(cfg("c"), dataset, resume_from=tmp_path / "a" / "epoch_002.npz")
    resume_ok = all(x.row() == y.row() for x, y in zip(a.logs, resumed.logs))
    w_a = load_checkpoint(a.final_path).to_network().named_parameters()
    w_c = load_checkpoint(resumed.final_path).to_network().named_parameters()
    resume_ok &= all(np.array_equal(w_a[n].data, w_c[n].data) for n in w_a)

    ok = logs_ok and roundtrip_ok and resume_ok
    check(acceptance_record, 9, "determinism, persistence, resume", ok,
          f"logs {logs_ok}, roundtrip {roundtrip_ok}, resume {resume_ok}")


def test_criterion_10_pgm_io_conformance(acceptance_record, tmp_path):
    p5 = tmp_path / "a.pgm"
    p5.write_bytes(b"P5 2 1 255\n" + bytes([0, 255]))
    p2 = tmp_path / "b.pgm"
    p2.write_text("P2\n# comment\n2 1\n255\n0 255\n")
    fixtures_ok = (np.array_equal(load_pgm(p5), [[0.0, 1.0]])
                   and np.array_equal(load_pgm(p2), [[0.0, 1.0]]))

    img = np.random.default_rng(3).uniform(size=(12, 10))
    rt = tmp_path / "rt.pgm"
    save_pgm(img, rt)
    roundtrip_err = float(np.max(np.abs(load_pgm(rt) - img)))

    errors_ok = True
    bad_magic = tmp_path / "m.pgm"
    bad_magic.write_bytes(b"P6 1 1 255\nabc")
    try:
        load_pgm(bad_magic)
        errors_ok = False
    except PGMMagicError:
        pass
    bad_maxval = tmp_path / "v.pgm"
    bad_maxval.write_bytes(b"P5 1 1 65535\n\x00\x00")
    try:
        load_pgm(bad_maxval)
        errors_ok = False
    except PGMMaxvalError:
        pass
    truncated = tmp_path / "t.pgm"
    truncated.write_bytes(b"P5 4 4 255\n\x00")
    try:
        load_pgm(truncated)
        errors_ok = False
    except PGMTruncatedError:
        pass

    ok = fixtures_ok and roundtrip_err <= 1 / 255 and errors_ok
    check(acceptance_record, 10, "PGM I/O conformance", ok,
          f"roundtrip err {roundtrip_err:.5f} <= 1/255, "
          f"structured errors {errors_ok}")
