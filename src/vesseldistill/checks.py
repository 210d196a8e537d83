"""Finite-difference gradient checks over primitives and full losses."""

from __future__ import annotations

import numpy as np

from . import distill, tensor as T
from .network import NetworkConfig, SegNetwork
from .tensor import Tensor, gradcheck


def _rand(rng, shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


def _nudge_off(t, kinks, margin=0.01):
    """Push values off non-differentiable points so finite differences are valid."""
    for k in kinks:
        close = np.abs(t.data - k) < margin
        t.data = np.where(close, k + margin * np.sign(t.data - k + 1e-12), t.data)
    return t


def primitive_checks(seed):
    """One (name, fn, inputs) triple per differentiable primitive."""
    rng = np.random.default_rng(seed)
    x = _rand(rng, (2, 4, 4))
    y = _rand(rng, (2, 4, 4))
    pos = _rand(rng, (3, 5), lo=0.1, hi=2.0)
    conv_in = _rand(rng, (2, 5, 5))
    kernel = _rand(rng, (3, 2, 3, 3), lo=-0.5, hi=0.5)
    bias = _rand(rng, (3,), lo=-0.5, hi=0.5)
    logits = _rand(rng, (8,), lo=-2.0, hi=2.0)
    pool_in = _rand(rng, (1, 4, 4))
    # distinct values keep max-pool subgradients unambiguous under perturbation
    pool_in.data = rng.permutation(16).astype(np.float64).reshape(1, 4, 4) * 0.37

    return [
        ("add", lambda a, b: T.tsum(T.sigmoid(a + b)), (x, y)),
        ("sub", lambda a, b: T.tsum(T.sigmoid(a - b)), (x, y)),
        ("mul", lambda a, b: T.tsum(T.sigmoid(a * b)), (x, y)),
        ("div", lambda a, b: T.tsum(T.sigmoid(a / (b + 3.0))), (x, y)),
        ("scalar_mul", lambda a: T.tsum(T.sigmoid(2.5 * a)), (x,)),
        ("relu", lambda a: T.tsum(T.sigmoid(T.relu(a))), (_nudge_off(_rand(rng, (2, 4, 4)), [0.0]),)),
        ("sigmoid", lambda a: T.tsum(T.sigmoid(a)), (x,)),
        ("log", lambda a: T.tsum(T.log(a)), (pos,)),
        ("clamp", lambda a: T.tsum(T.sigmoid(T.clamp(a, -0.5, 0.5))),
         (_nudge_off(_rand(rng, (2, 4, 4)), [-0.5, 0.5]),)),
        ("sum_axis", lambda a: T.tsum(T.sigmoid(T.tsum(a, axis=1))), (x,)),
        ("mean", lambda a: T.tmean(T.sigmoid(a)), (x,)),
        ("maxpool2x2", lambda a: T.tsum(T.sigmoid(T.maxpool2x2(a))), (pool_in,)),
        ("conv2d", lambda a, k, b: T.tsum(T.sigmoid(T.conv2d(a, k, b))),
         (conv_in, kernel, bias)),
        ("bilinear_upsample", lambda a: T.tsum(T.sigmoid(T.bilinear_upsample(a, 2))), (x,)),
        ("softmax_tau", lambda z: T.tsum(T.softmax(z, tau=3.0) * Tensor(np.arange(8.0))),
         (logits,)),
        ("concat", lambda a, b: T.tsum(T.sigmoid(T.concat([a, b], axis=0))), (x, y)),
        ("reshape", lambda a: T.tsum(T.sigmoid(a.reshape((4, 8)))), (x,)),
    ]


def toy_setup(seed):
    """A small 8x8 network plus a frozen teacher and a random binary target."""
    rng = np.random.default_rng(seed)
    cfg = NetworkConfig(depth=2, base_channels=4, height=8, width=8)
    student = SegNetwork(cfg, seed=seed, dtype=np.float64)
    teacher = SegNetwork(cfg, seed=seed + 1000, dtype=np.float64, trainable=False)
    # fresh networks have zero biases, which pins relu inputs of dead
    # patches exactly onto the kink; check gradients at a generic point
    for net in (student, teacher):
        for name, p in net.named_parameters().items():
            if name.endswith(".b"):
                p.data = rng.normal(0.0, 0.05, size=p.data.shape)
    x = Tensor(rng.uniform(0.0, 1.0, size=(1, 8, 8)))
    y = Tensor((rng.uniform(size=(1, 8, 8)) < 0.3).astype(np.float64))
    return student, teacher, x, y


def loss_checks(seed):
    """(name, fn, params) triples for each loss term on a toy network."""
    dcfg = distill.DistillConfig(grid_g=2)
    student, teacher, x, y = toy_setup(seed)
    params = tuple(student.parameters())

    def student_outputs():
        pred, feats = student.forward(x)
        return pred, student.side_outputs(feats, pred)

    t_pred, t_feats = teacher.forward(x)
    t_sides = teacher.side_outputs(t_feats, t_pred)

    def ddl_loss(*_):
        _, sides = student_outputs()
        return distill.ddl(sides, t_sides, dcfg)

    def psdl_loss(*_):
        pred, _ = student_outputs()
        soft = distill.soften_label(t_pred, y, 0.25)
        return distill.psdl(pred, soft)

    def dice(*_):
        pred, _ = student_outputs()
        return distill.dice_loss(pred, y)

    def total(*_):
        pred, sides = student_outputs()
        return distill.total_loss(pred, sides, t_pred, t_sides, y, dcfg, t=2,
                                  total_epochs=4)

    return [
        ("L_DDL", ddl_loss, params),
        ("L_PSDL", psdl_loss, params),
        ("L_DICE", dice, params),
        ("L_total", total, params),
    ]


def run_suite(seeds=range(10)):
    """Run every check across seeds, at gradcheck's default tolerances;
    returns a list of result dicts.

    Primitive checks probe every coordinate; loss checks probe 6 random
    coordinates per parameter tensor (a full sweep of every weight would
    dominate the runtime budget without changing what is verified).
    """
    results = []
    for seed in seeds:
        for name, fn, inputs in primitive_checks(seed):
            ok, worst = gradcheck(fn, inputs)
            results.append({"seed": seed, "name": name, "ok": ok, "worst_abs_err": worst})
        for name, fn, inputs in loss_checks(seed):
            ok, worst = gradcheck(fn, inputs, max_per_input=6, seed=seed)
            results.append({"seed": seed, "name": name, "ok": ok, "worst_abs_err": worst})
    return results
