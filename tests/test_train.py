import copy
import ctypes
import dataclasses
import gc
import importlib
import json
import multiprocessing
import os
import pathlib
import select
import shutil
import signal
import subprocess
import sys
import time
import tracemalloc
from multiprocessing.connection import Connection
from multiprocessing.reduction import ForkingPickler
from types import SimpleNamespace

import numpy as np
import pytest

from vesseldistill import distill
from vesseldistill import tensor as T
from vesseldistill.data import ImageSample, batches, generate_synthetic, load_pgm, split
from vesseldistill.distill import DistillConfig
from vesseldistill.metrics import evaluate_pairs
from vesseldistill.optim import AdamW, lr_at
from vesseldistill.network import (NetworkConfig, SegNetwork, _views, load_checkpoint,
                                   save_checkpoint)
from vesseldistill.tensor import Tensor
from vesseldistill.train import TrainConfig, evaluate, predict_to_file, sweep, train

from _checkpoints import rewrite

train_module = importlib.import_module("vesseldistill.train")


def tiny_cfg(out_dir, epochs=3, **kw):
    return TrainConfig(
        epochs=epochs,
        batch_size=4,
        network=NetworkConfig(depth=2, base_channels=4, height=32, width=32),
        distill=DistillConfig(grid_g=4),
        seed=0,
        out_dir=str(out_dir),
        **kw,
    )


@pytest.fixture(scope="module")
def tiny_dataset():
    return split(generate_synthetic(seed=1, count=20, size=32), seed=0)


def keep_epochs(out_dir):
    """An epoch_end_hook that copies each epoch's last.npz, saved before the
    hook runs, to epoch_NNN.npz."""
    out_dir = pathlib.Path(out_dir)
    return lambda t, net, teacher, log: shutil.copyfile(out_dir / "last.npz",
                                                        out_dir / f"epoch_{t:03d}.npz")


def views_of_its_weights(net):
    return all(np.shares_memory(p.data, net.weights) for p in net.named_parameters().values())


def recorded(cfg, dataset, resume_from=None):
    """train(cfg) with what its hooks saw: `start[t]` holds epoch t's teacher, its
    weights and the epochs.csv bytes as epoch t starts; `end[t]` the teacher, whether
    no teacher parameter holds a gradient, whether net and teacher are views of their
    flat weights, and both weights. Each epoch's last.npz is kept as epoch_NNN.npz."""
    out = pathlib.Path(cfg.out_dir)
    start, end = {}, {}

    def on_start(t, teacher):
        csv = out / "epochs.csv"
        start[t] = SimpleNamespace(teacher=teacher,
                                   weights=None if teacher is None else teacher.weights.copy(),
                                   csv=csv.read_bytes() if csv.exists() else None)

    def on_end(t, net, teacher, log):
        shutil.copyfile(out / "last.npz", out / f"epoch_{t:03d}.npz")
        end[t] = SimpleNamespace(
            teacher=teacher, grad_free=all(p.grad is None for p in teacher.parameters()),
            views=views_of_its_weights(net) and views_of_its_weights(teacher),
            weights=net.weights.copy(), teacher_weights=teacher.weights.copy())

    result = train(cfg, dataset, resume_from=resume_from, epoch_start_hook=on_start,
                   epoch_end_hook=on_end)
    return SimpleNamespace(cfg=cfg, out=out, resume_from=resume_from, result=result,
                           logs=result.logs, start=start, end=end)


@pytest.fixture(scope="module")
def full(tiny_dataset, tmp_path_factory):
    """tiny_cfg's 4 epochs, recorded."""
    return recorded(tiny_cfg(tmp_path_factory.mktemp("full"), epochs=4), tiny_dataset)


@pytest.fixture(scope="module")
def dice(tiny_dataset, tmp_path_factory):
    """The dice-only control of `full`, recorded."""
    return recorded(tiny_cfg(tmp_path_factory.mktemp("dice"), epochs=4, dice_only=True),
                    tiny_dataset)


@pytest.fixture(scope="module")
def resumed(full, tiny_dataset, tmp_path_factory):
    """`full` resumed from its epoch-2 checkpoint into a new directory, recorded."""
    cfg = dataclasses.replace(full.cfg, out_dir=str(tmp_path_factory.mktemp("resumed")))
    return recorded(cfg, tiny_dataset, resume_from=full.out / "epoch_002.npz")


class TestLoop:
    def test_distillation_active_from_epoch2(self, full):
        second = full.logs[1]
        assert second.ddl > 0.0 and second.psdl > 0.0
        assert second.alpha > 0.0

    def test_logged_total_is_exact_sum_of_logged_terms(self, tiny_dataset, tmp_path):
        # per-batch sums of the three terms drift from the sum of the
        # per-term means by an ulp on some epochs of this run
        cfg = dataclasses.replace(tiny_cfg(tmp_path / "c2", epochs=4), batch_size=2, seed=1)
        result = train(cfg, tiny_dataset)
        for log in result.logs:
            assert log.train_loss == log.ddl + log.psdl + log.dice

    @pytest.mark.parametrize("run", ["full", "dice", "resumed"])
    def test_teacher_is_previous_epoch_checkpoint(self, request, run):
        """The teacher seen at the start of epoch t holds the end-of-epoch t-1
        checkpoint's weights, bitwise, on a resume too."""
        run = request.getfixturevalue(run)
        for t, seen in run.start.items():
            if t > 1:
                saved = (run.out / f"epoch_{t - 1:03d}.npz" if t - 1 in run.end
                         else run.resume_from)
                assert seen.weights.tobytes() == load_checkpoint(saved).weights.tobytes(), t

    @pytest.mark.parametrize("run", ["full", "dice", "resumed"])
    def test_teacher_is_one_object_refilled_each_epoch(self, request, run):
        run = request.getfixturevalue(run)
        assert all((seen.teacher is None) == (t == 1) for t, seen in run.start.items())
        teachers = [seen.teacher for seen in [*run.start.values(), *run.end.values()]
                    if seen.teacher is not None]
        assert len({id(teacher) for teacher in teachers}) == 1
        for t, seen in run.end.items():
            assert seen.teacher_weights.tobytes() == seen.weights.tobytes(), t
            assert seen.grad_free, t

    def test_dice_only_mode_never_distills(self, dice):
        for log in dice.logs:
            assert log.ddl == 0.0 and log.psdl == 0.0

    def test_logged_alpha_is_zero_in_every_epoch_without_a_teacher(self, full, dice):
        assert [log.alpha for log in full.logs] == [0.0, 0.25, 0.375, 0.5]
        assert [log.alpha for log in dice.logs] == [0.0] * 4

    @pytest.mark.parametrize("dice_only", [False, True])
    def test_logged_alpha_is_the_alpha_every_step_received(self, tiny_dataset, tmp_path,
                                                           monkeypatch, dice_only):
        monkeypatch.setattr(train_module, "_process_count", lambda batch_size: 1)
        received = {}
        loss_terms = distill.loss_terms

        def recording(sides, teacher_sides, y, cfg, alpha):
            received[epoch].append(alpha)
            return loss_terms(sides, teacher_sides, y, cfg, alpha)

        def start(t, teacher):
            nonlocal epoch
            epoch = t
            received[t] = []

        epoch = None
        monkeypatch.setattr(distill, "loss_terms", recording)
        result = train(tiny_cfg(tmp_path / "r", epochs=3, dice_only=dice_only), tiny_dataset,
                       epoch_start_hook=start)
        n = len(tiny_dataset.train)
        assert received == {log.epoch: [log.alpha] * n for log in result.logs}
        assert received[1] == [0.0] * n

    def test_best_is_the_epoch_with_the_highest_validation_dsc(self, full):
        dscs = [log.val_dsc for log in full.logs]
        assert load_checkpoint(full.result.best_path).epoch == 1 + dscs.index(max(dscs))
        assert full.result.best_val_dsc == max(dscs)

    def test_best_is_the_last_epoch_without_validation_samples(self, tiny_dataset, tmp_path):
        no_val = dataclasses.replace(tiny_dataset, val=[])
        result = train(tiny_cfg(tmp_path / "nv", epochs=3), no_val)
        best, last = load_checkpoint(result.best_path), load_checkpoint(result.final_path)
        assert best.epoch == last.epoch == 3
        assert best.weights.tobytes() == last.weights.tobytes()

    def test_logged_lr_follows_schedule(self, tiny_dataset, tmp_path):
        cfg = tiny_cfg(tmp_path / "h", epochs=4)
        cfg = dataclasses.replace(cfg, lr_step_every=2)
        result = train(cfg, tiny_dataset)
        lrs = [log.lr for log in result.logs]
        np.testing.assert_allclose(lrs, [1e-3, 1e-3, 3e-4, 3e-4])

    def test_column_budget_leaves_smoke_training_bitwise_unchanged(self, tmp_path,
                                                                    monkeypatch):
        """At the smoke shape the convs are split by the block budget (the
        8-channel convs' column matrices are 1.2 MB in float32) and by the
        small-GEMM limit, and blocks of whole 64-column units keep
        OpenBLAS's bits, so training matches unbounded single GEMMs bit for
        bit."""
        dataset = split(generate_synthetic(seed=6, count=16, size=64), seed=0)
        cfg = TrainConfig(
            epochs=3, network=NetworkConfig(depth=3, base_channels=8, height=64, width=64),
            seed=0, out_dir=str(tmp_path / "bounded"))
        bounded = train(cfg, dataset)
        monkeypatch.setattr(T, "_BLOCK_BUDGET", 1 << 62)
        monkeypatch.setattr(T, "_SMALL_GEMM", 1 << 62)
        unbounded = train(dataclasses.replace(cfg, out_dir=str(tmp_path / "unbounded")),
                          dataset)
        assert ((tmp_path / "bounded" / "epochs.csv").read_bytes()
                == (tmp_path / "unbounded" / "epochs.csv").read_bytes())
        w1 = load_checkpoint(bounded.final_path).to_network().named_parameters()
        w2 = load_checkpoint(unbounded.final_path).to_network().named_parameters()
        for name in w1:
            np.testing.assert_array_equal(w1[name].data, w2[name].data)

    def test_artifacts_written(self, full):
        assert full.result.final_path.exists()
        assert full.result.best_path.exists()
        header = (full.out / "epochs.csv").read_text().splitlines()[0]
        assert header.startswith("epoch,train_loss,ddl,psdl,dice")


class TestResume:
    def test_resume_matches_uninterrupted(self, full, resumed):
        assert len(resumed.logs) == len(full.logs) == 4
        assert list(map(dataclasses.asdict, resumed.logs)) == list(map(dataclasses.asdict,
                                                                       full.logs))
        assert (load_checkpoint(resumed.result.final_path).weights.tobytes()
                == load_checkpoint(full.result.final_path).weights.tobytes())

    def test_training_checkpoint_has_five_members(self, full):
        # no best_dsc: the logged rows fix the best epoch and its DSC; the run
        # record is part of meta, and params carry the dtype
        for path in (full.result.best_path, full.result.final_path):
            with np.load(path) as z:
                assert sorted(z.files) == sorted(["meta", "params", "extra:t", "extra:m",
                                                  "extra:v"])
                meta = json.loads(z["meta"].tobytes())
        assert sorted(meta) == ["config", "epoch", "run"]  # last.npz's
        assert meta["run"] == {"train_config": full.cfg.to_dict(),
                               "logs": [dataclasses.asdict(log) for log in full.logs]}
        assert load_checkpoint(full.result.final_path, extras=False).run == meta["run"]

    @staticmethod
    def assert_same_best(a, b):
        """Two runs' best.npz hold the same epoch, logged rows and weights, bit for bit."""
        best_a, best_b = load_checkpoint(a.best_path), load_checkpoint(b.best_path)
        assert best_b.epoch == best_a.epoch
        assert best_b.run["logs"] == best_a.run["logs"]
        assert b.best_val_dsc == a.best_val_dsc
        assert best_b.weights.tobytes() == best_a.weights.tobytes()

    def test_resume_at_the_best_epoch_into_a_new_directory_keeps_it_best(self, tiny_dataset,
                                                                         tmp_path):
        # seed 1's best epoch is 2 (val DSC 0.211; epoch 4 scores 0.023), and
        # best.npz used to get epoch 4's weights with epoch 2's DSC
        cfg = dataclasses.replace(tiny_cfg(tmp_path / "full", epochs=4), seed=1)
        full = train(cfg, tiny_dataset, epoch_end_hook=keep_epochs(tmp_path / "full"))
        assert load_checkpoint(full.best_path).epoch == 2
        resumed = train(dataclasses.replace(cfg, out_dir=str(tmp_path / "resumed")),
                        tiny_dataset, resume_from=tmp_path / "full" / "epoch_002.npz")
        self.assert_same_best(full, resumed)

    def test_resume_past_the_best_epoch_copies_it(self, tiny_dataset, tmp_path):
        # seed 3's best epoch is 1, before the checkpoint
        cfg = dataclasses.replace(tiny_cfg(tmp_path / "full", epochs=4), seed=3)
        full = train(cfg, tiny_dataset, epoch_end_hook=keep_epochs(tmp_path / "full"))
        assert load_checkpoint(full.best_path).epoch == 1
        # older checkpoints also stored a best_dsc member, which is not read
        rewrite(tmp_path / "full" / "epoch_002.npz", tmp_path / "full" / "old.npz",
                lambda payload, meta: payload.update({"extra:best_dsc": 0.99}))
        for name, checkpoint in (("resumed", "epoch_002.npz"), ("resumed_old", "old.npz")):
            resumed = train(dataclasses.replace(cfg, out_dir=str(tmp_path / name)),
                            tiny_dataset, resume_from=tmp_path / "full" / checkpoint)
            self.assert_same_best(full, resumed)
            assert (tmp_path / name / "epochs.csv").read_bytes() \
                == (tmp_path / "full" / "epochs.csv").read_bytes()

    def test_a_resume_writes_its_runs_log_before_its_first_epoch(self, full, resumed):
        """A run stopped in epoch 3 leaves epochs 1 and 2 in epochs.csv, and a resume
        from its epoch-2 checkpoint into a new directory holds the same before epoch 3."""
        assert len(full.start[3].csv.splitlines()) == 3  # the header and epochs 1 and 2
        assert resumed.start[3].csv == full.start[3].csv


class TestFlatWeights:
    def test_parameters_stay_views_of_the_one_flat_weight_array(self, full, dice, resumed,
                                                                 tmp_path):
        cfg = full.cfg
        net = SegNetwork(cfg.network, seed=1, dtype=np.float32)
        initial = net.state_arrays()
        AdamW(net.weights, lr=0.1).step(np.ones_like(net.weights))
        assert views_of_its_weights(net) and not np.array_equal(net.weights, initial)
        # a save after the step writes the stepped values
        save_checkpoint(tmp_path / "stepped.npz", net, epoch=1)
        ckpt = load_checkpoint(tmp_path / "stepped.npz")
        assert ckpt.weights.tobytes() == net.weights.tobytes()
        for name, p in net.named_parameters().items():
            assert ckpt.params[name].tobytes() == p.data.tobytes()
            assert np.shares_memory(ckpt.params[name], ckpt.weights)

        net.load_state_arrays(initial)
        assert views_of_its_weights(net) and np.array_equal(net.weights, initial)
        assert views_of_its_weights(SegNetwork.from_arrays(cfg.network, initial))
        assert views_of_its_weights(ckpt.to_network())

        # in training, a resumed one too, and each epoch's last.npz holds the net's weights
        for run in (full, dice, resumed):
            for t, seen in run.end.items():
                saved = load_checkpoint(run.out / f"epoch_{t:03d}.npz", extras=False)
                assert seen.views and saved.weights.tobytes() == seen.weights.tobytes(), t
        assert list(resumed.end) == [3, 4]


class TestDeeperHeads:
    """Heads 2..depth join the loss at the first epoch with a teacher and
    never leave it. Until then their moments are zero, so the zero gradient
    _take_grad gives them leaves them as decay alone would."""

    @staticmethod
    def deeper_heads(flat, cfg):
        return {name: view for name, view in _views(flat, cfg.network).items()
                if name.startswith("head") and not name.startswith("head1.")}

    def test_deeper_heads_only_decay_until_a_teacher_joins(self, tiny_dataset, tmp_path):
        # a weight decay large enough to move float32 weights at every step
        full = dataclasses.replace(
            tiny_cfg(tmp_path / "full", epochs=2), weight_decay=0.1,
            network=NetworkConfig(depth=3, base_channels=4, height=32, width=32))
        dice = dataclasses.replace(full, epochs=3, dice_only=True, out_dir=str(tmp_path / "dice"))
        for cfg in (full, dice):
            train(cfg, tiny_dataset, epoch_end_hook=keep_epochs(cfg.out_dir))

        initial = self.deeper_heads(
            SegNetwork(full.network, seed=full.seed, dtype=np.float32).weights, full)

        def decayed(cfg, epochs):
            """The deeper heads' initial weights after every step of `epochs`
            epochs, by decay alone."""
            heads = {name: w.copy() for name, w in initial.items()}
            for t in range(1, epochs + 1):
                lr = lr_at(t, cfg.learning_rate, cfg.lr_gamma, cfg.lr_step_every)
                for _ in batches(range(len(tiny_dataset.train)), cfg.batch_size, cfg.seed, t):
                    for w in heads.values():
                        w -= lr * cfg.weight_decay * w
            return heads

        for cfg, epoch in [(full, 1), (dice, 1), (dice, 2), (dice, 3)]:
            ckpt = load_checkpoint(pathlib.Path(cfg.out_dir) / f"epoch_{epoch:03d}.npz")
            for kind in ("m", "v"):
                moments = self.deeper_heads(ckpt.extras[kind], cfg).values()
                assert not any(a.any() for a in moments), (cfg.dice_only, epoch, kind)
            want = decayed(cfg, epoch)
            for name, w in self.deeper_heads(ckpt.weights, cfg).items():
                assert w.tobytes() == want[name].tobytes(), (cfg.dice_only, epoch, name)
                if name.endswith(".w"):  # the biases start, and stay, at zero
                    assert w.tobytes() != initial[name].tobytes(), (cfg.dice_only, epoch, name)

        after_teacher = load_checkpoint(tmp_path / "full" / "epoch_002.npz")
        for kind in ("m", "v"):
            for name, a in self.deeper_heads(after_teacher.extras[kind], full).items():
                assert a.any(), (kind, name)


class TestValidation:
    def test_accepts_the_boundaries(self):
        tiny_cfg("unused", dtype="float64", weight_decay=0.0, lr_step_every=1,
                 lr_gamma=1.0)
        # a float field takes an int, as JSON writes 1.0 as 1
        tiny_cfg("unused", learning_rate=1, weight_decay=0, lr_gamma=1,
                 dice_only=True)

    def test_sweep_takes_numpy_scalars(self, tiny_dataset, tmp_path):
        cfg = tiny_cfg(tmp_path / "sweep", epochs=1)
        rows = sweep("tau", [np.float64(2.0), np.int64(3)], cfg, tiny_dataset)
        assert [row["tau"] for row in rows] == [2.0, 3]

    def test_evaluate_returns_report(self, tiny_dataset, full):
        net = load_checkpoint(full.result.final_path).to_network()
        report = evaluate(net, tiny_dataset.test)
        assert 0.0 <= report.dsc <= 1.0
        assert set(report.as_dict()) == {"DSC", "ACC", "SEN", "IOU"}

    def test_evaluate_matches_predict_on_float32_net(self, tiny_dataset, full, tmp_path,
                                                     monkeypatch):
        """evaluate computes at the net's precision, as predict_to_file does."""
        net = load_checkpoint(full.result.final_path).to_network()
        assert net.dtype == np.float32
        seen = []

        def capture(pairs, **kwargs):
            seen.extend(pairs)
            return evaluate_pairs(pairs, **kwargs)

        monkeypatch.setattr(train_module, "evaluate_pairs", capture)
        evaluate(net, tiny_dataset.test)
        assert len(seen) == len(tiny_dataset.test)
        for i, ((pred, _), sample) in enumerate(zip(seen, tiny_dataset.test)):
            assert pred.dtype == np.float32
            mask = predict_to_file(full.result.final_path, sample.image, tmp_path / f"m{i}.pgm")
            np.testing.assert_array_equal(pred[0] >= 0.5, mask.astype(bool))

    def test_float64_image_through_a_float32_net(self, tiny_dataset, monkeypatch):
        """forward casts the image to the net's dtype, so a float64 image
        gives the float32 prediction evaluate thresholds, bit for bit."""
        net = SegNetwork(tiny_cfg("unused").network, seed=1, dtype=np.float32)
        mask = tiny_dataset.test[0].mask  # a sample's image is float32, so build one
        image = np.random.default_rng(0).uniform(size=mask.shape)
        sample = ImageSample(image=Tensor(image), mask=mask, id="float64")
        assert sample.image.dtype == np.float64
        seen = []

        def capture(pairs, **kwargs):
            seen.extend(pairs)
            return evaluate_pairs(pairs, **kwargs)

        monkeypatch.setattr(train_module, "evaluate_pairs", capture)
        evaluate(net, [sample])
        for image in (sample.image, sample.image.data):
            pred, feats = net.forward(image)
            assert pred.dtype == np.float32
            assert all(f.dtype == np.float32 for f in feats)
            np.testing.assert_array_equal(pred.data, seen[0][0])
        pred32, _ = net.forward(Tensor(image.astype(np.float32)))
        np.testing.assert_array_equal(pred32.data, seen[0][0])

    def test_predict_writes_the_full_load_mask(self, tiny_dataset, full, tmp_path):
        image = tiny_dataset.test[0].image
        net = load_checkpoint(full.result.final_path).to_network(trainable=False)
        pred, _ = net.forward(Tensor(image.data.astype(net.dtype)))
        expected = (pred.data[0] >= 0.5).astype(np.float64)
        mask = predict_to_file(full.result.final_path, image, tmp_path / "mask.pgm")
        np.testing.assert_array_equal(mask, expected)
        np.testing.assert_array_equal(load_pgm(tmp_path / "mask.pgm"), expected)

    def test_predict_on_another_image_size(self, tmp_path):
        net = SegNetwork(NetworkConfig(depth=3, base_channels=4, height=64, width=64),
                         dtype=np.float32)
        save_checkpoint(tmp_path / "net.npz", net, epoch=1)
        image = np.random.default_rng(0).uniform(size=(96, 128))
        mask = predict_to_file(tmp_path / "net.npz", image, tmp_path / "mask.pgm")
        assert mask.shape == (96, 128)
        assert load_pgm(tmp_path / "mask.pgm").shape == (96, 128)

    @pytest.mark.parametrize("size", [300, 512])  # DCA1's and XCAD's frames
    def test_inference_at_the_papers_image_sizes(self, size, tmp_path):
        """The benchmark's two inference checks at the paper's sizes: a
        float32 prediction within 1e-4 of a float64 forward of the same
        weights, and predict_to_file's mask equal to the thresholded
        prediction wherever that is more than 1e-4 from the threshold. At
        300 the upsampling runs over 75 -> 150 -> 300, bands of no
        power-of-two side."""
        cfg = NetworkConfig(depth=3, base_channels=8, height=size, width=size)
        net = SegNetwork(cfg, seed=2, dtype=np.float32, trainable=False)
        save_checkpoint(tmp_path / "net.npz", net, epoch=1)
        reference = SegNetwork(cfg, dtype=np.float64, trainable=False)
        reference.load_state_arrays(net.state_arrays())
        image = generate_synthetic(seed=4, count=1, size=size)[0].image

        pred = net.forward(image)[0].data[0]
        assert pred.dtype == np.float32
        assert np.max(np.abs(pred - reference.forward(image)[0].data[0])) <= 1e-4
        mask = predict_to_file(tmp_path / "net.npz", image, tmp_path / "mask.pgm")
        decided = np.abs(pred - 0.5) > 1e-4
        assert 0 < np.count_nonzero(mask[decided]) < np.count_nonzero(decided)
        np.testing.assert_array_equal(mask[decided], (pred >= 0.5)[decided])
        np.testing.assert_array_equal(load_pgm(tmp_path / "mask.pgm"), mask)


class TestNonFiniteLoss:
    def test_a_run_stopped_in_epoch_2_leaves_epoch_1s_log(self, tiny_dataset, full, tmp_path,
                                                          monkeypatch):
        # one process, so the hook's poisoned pixel reaches the training step
        monkeypatch.setattr(train_module, "_process_count", lambda batch_size: 1)
        poisoned = copy.deepcopy(tiny_dataset)

        def poison_in_epoch_2(t, teacher):
            if t == 2:
                poisoned.train[3].image.data[0, 5, 7] = np.nan

        with pytest.raises(FloatingPointError, match=r"^epoch 2, batch \d+: \w+ loss is nan"):
            train(tiny_cfg(tmp_path / "stopped", epochs=2), poisoned,
                  epoch_start_hook=poison_in_epoch_2)
        assert (tmp_path / "stopped" / "epochs.csv").read_bytes() == full.start[2].csv


class TestGraphLifetime:
    def test_training_step_leaves_no_cyclic_garbage(self, tiny_dataset):
        """A sample step's graph is freed by reference counting, with no
        cycles left for the collector."""
        cfg = tiny_cfg("unused", epochs=2)
        net = SegNetwork(cfg.network, dtype=np.float32)
        teacher = net.snapshot(1).restore(trainable=False)
        gc.collect()
        gc.disable()
        try:
            for sample in tiny_dataset.train[:2]:
                train_module._sample_step(net, teacher, sample, cfg, 0.25, 0.5)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_training_step_peak_memory(self):
        """One smoke-shape sample step with a teacher (64x64, depth 3,
        base 8, float32) peaks under 6 MB: the graph keeps only what
        backward reads and backward drops each intermediate gradient once
        passed on (8.4 MB when it kept them)."""
        cfg = TrainConfig(epochs=2, network=NetworkConfig(depth=3, base_channels=8,
                                                          height=64, width=64))
        net = SegNetwork(cfg.network, dtype=np.float32)
        teacher = net.snapshot(1).restore(trainable=False)
        sample = generate_synthetic(seed=3, count=1, size=64)[0]
        train_module._sample_step(net, teacher, sample, cfg, 0.25, 0.5)  # warm caches
        tracemalloc.start()
        try:
            train_module._sample_step(net, teacher, sample, cfg, 0.25, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20

    def test_evaluate_builds_no_graph(self, tmp_path):
        cfg = NetworkConfig(depth=3, base_channels=8, height=64, width=64)
        trainable = SegNetwork(cfg, dtype=np.float32)
        frozen = SegNetwork(cfg, dtype=np.float32, trainable=False)
        sample = generate_synthetic(seed=3, count=1, size=64)

        def peak(net):
            evaluate(net, sample)  # warm caches outside the measurement
            tracemalloc.start()
            try:
                evaluate(net, sample)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(trainable) <= 1.2 * peak(frozen)


def single_graph_batch_grads(net, teacher, batch, cfg, alpha):
    """The batch gradient as one graph over all samples: the sum of each
    sample's terms, scaled by 1/len(batch), and one backward."""
    sums = None
    for sample in batch:
        y = Tensor(sample.mask.astype(net.dtype))
        pred, feats = net.forward(sample.image)
        t_pred, t_feats = teacher.forward(sample.image)
        terms = distill.loss_terms(net.side_outputs(feats, pred),
                                   teacher.side_outputs(t_feats, t_pred), y, cfg.distill, alpha)
        sums = terms if sums is None else {k: sums[k] + terms[k] for k in sums}
    scale = 1.0 / len(batch)
    (sums["ddl"] * scale + sums["psdl"] * scale + sums["dice"] * scale).backward()
    grads = [p.grad for p in net.parameters()]
    for p in net.parameters():
        p.grad = None
    return grads


@pytest.fixture(scope="module")
def one_process(tiny_dataset, tmp_path_factory):
    """A 3-epoch tiny run in one process."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(train_module, "_process_count", lambda batch_size: 1)
        return train(tiny_cfg(tmp_path_factory.mktemp("one"), epochs=3), tiny_dataset)


class TestWorkers:
    def run(self, tiny_dataset, out, monkeypatch, processes, **kw):
        monkeypatch.setattr(train_module, "_process_count", lambda batch_size: processes)
        return train(tiny_cfg(out, **kw), tiny_dataset)

    @pytest.mark.parametrize("processes", [2, 3])
    def test_results_do_not_depend_on_the_process_count(self, tiny_dataset, one_process,
                                                        tmp_path, monkeypatch, processes):
        # 14 training samples: batches of 4, 4, 4 and 2, so 3 processes
        # also get uneven and empty shares
        many = self.run(tiny_dataset, tmp_path, monkeypatch, processes, epochs=3)
        assert ((one_process.final_path.parent / "epochs.csv").read_bytes()
                == (tmp_path / "epochs.csv").read_bytes())
        assert (load_checkpoint(one_process.final_path).weights.tobytes()
                == load_checkpoint(many.final_path).weights.tobytes())

    def test_no_worker_outlives_train(self, tiny_dataset, tmp_path, monkeypatch):
        self.run(tiny_dataset, tmp_path / "a", monkeypatch, 2, epochs=2)
        assert not multiprocessing.active_children()

    def test_blas_threads_are_restored(self, tiny_dataset, tmp_path, monkeypatch):
        threads = train_module._openblas("get_num_threads", ctypes.c_int, [])
        if threads is None:
            pytest.skip("no OpenBLAS found in this process")
        before = threads()
        self.run(tiny_dataset, tmp_path / "a", monkeypatch, 2, epochs=1)
        assert threads() == before

    def test_openblas_is_opened_once_per_process(self, tiny_dataset, tmp_path, monkeypatch):
        """After this process's first lookup, a run forking a pool every epoch
        opens no library again, however many epochs it has."""
        if train_module._openblas("get_num_threads", ctypes.c_int, []) is None:
            pytest.skip("no OpenBLAS found in this process")
        opened, cdll = [], ctypes.CDLL

        def counting_cdll(path, *args, **kw):
            opened.append(path)
            return cdll(path, *args, **kw)

        monkeypatch.setattr(ctypes, "CDLL", counting_cdll)
        self.run(tiny_dataset, tmp_path, monkeypatch, 2, epochs=3)
        assert opened == []

    def test_one_process_trains_on_one_blas_thread(self, tmp_path, monkeypatch):
        """At 344x344 a float32 one-channel head's GEMV is long enough for
        OpenBLAS to split it across threads and switch kernel, so a single
        process that kept the default thread count would end with other
        weights than two processes on one thread each."""
        samples = generate_synthetic(seed=3, count=2, size=344)
        dataset = train_module.DatasetSplit(train=samples, val=[], test=[])
        cfg = TrainConfig(epochs=2, batch_size=2, network=NetworkConfig(
            depth=3, base_channels=8, height=344, width=344), seed=0)
        weights = []
        for processes in (1, 2):
            monkeypatch.setattr(train_module, "_process_count", lambda batch_size: processes)
            out = str(tmp_path / str(processes))
            result = train(dataclasses.replace(cfg, out_dir=out), dataset)
            weights.append(load_checkpoint(result.final_path).weights.tobytes())
        assert weights[0] == weights[1]

    def test_sample_order_sum_matches_the_single_graph_batch_gradient(self, tiny_dataset):
        cfg = tiny_cfg("unused", epochs=3)
        net = SegNetwork(cfg.network, seed=2, dtype=np.float32)
        teacher = SegNetwork(cfg.network, seed=3, dtype=np.float32, trainable=False)
        batch = tiny_dataset.train[:4]
        alpha = distill.alpha_at(2, cfg.epochs, cfg.distill.alpha_T)
        want = single_graph_batch_grads(net, teacher, batch, cfg, alpha)
        results = [train_module._sample_step(net, teacher, s, cfg, alpha, 1.0 / len(batch))
                   for s in batch]
        _, got = train_module._sum_in_order(results)
        assert got.shape == net.weights.shape  # a teacher's step: every parameter in the graph
        for g, w in zip(_views(got, cfg.network).values(), want):
            assert g.dtype == np.float32
            np.testing.assert_allclose(g, w, rtol=1e-5, atol=1e-6 * np.abs(w).max())

    @pytest.mark.parametrize("dice_only", [False, True])
    def test_deeper_heads_run_only_for_the_ddl(self, tiny_dataset, tmp_path, monkeypatch,
                                               dice_only):
        depths = []
        side_output = SegNetwork.side_output

        def counted(net, feature, depth):
            depths.append(depth)
            return side_output(net, feature, depth)

        monkeypatch.setattr(SegNetwork, "side_output", counted)
        starts = {}
        monkeypatch.setattr(train_module, "_process_count", lambda batch_size: 1)
        train(tiny_cfg(tmp_path / "c", epochs=2, dice_only=dice_only), tiny_dataset,
              epoch_start_hook=lambda t, teacher: starts.setdefault(t, len(depths)))
        n = len(tiny_dataset.train)
        epoch1 = depths[starts[1]:starts[2]]
        epoch2 = depths[starts[2]:]
        assert 2 not in epoch1
        # epoch 2: the student's and the teacher's depth-2 heads, once per sample
        assert epoch2.count(2) == (0 if dice_only else 2 * n)
        assert epoch2.count(1) == (1 if dice_only else 2) * n + len(tiny_dataset.val)

    def test_only_the_main_process_orders_batches(self, tiny_dataset, tmp_path, monkeypatch):
        main_pid = os.getpid()
        ordered = train_module.batches

        def main_only(*args, **kwargs):
            if os.getpid() != main_pid:
                raise AssertionError("a worker ordered the batches")
            return ordered(*args, **kwargs)

        monkeypatch.setattr(train_module, "batches", main_only)
        one = self.run(tiny_dataset, tmp_path / "one", monkeypatch, 1, epochs=2)
        two = self.run(tiny_dataset, tmp_path / "two", monkeypatch, 2, epochs=2)
        assert list(map(dataclasses.asdict, one.logs)) == list(map(dataclasses.asdict, two.logs))

    def test_a_request_carries_only_the_student(self, tiny_dataset, tmp_path, monkeypatch):
        """The workers inherit the epoch's teacher and α when forked, so a distilling
        epoch's request is the student's weights, a share and a loss scale alone."""
        main_pid, send, sizes, starts = os.getpid(), Connection.send, [], {}

        def measured(conn, obj):
            if os.getpid() == main_pid and obj is not None:  # None closes a worker
                sizes.append(len(ForkingPickler.dumps(obj)))
            return send(conn, obj)

        monkeypatch.setattr(Connection, "send", measured)
        monkeypatch.setattr(train_module, "_process_count", lambda batch_size: 2)
        result = train(tiny_cfg(tmp_path, epochs=2), tiny_dataset,
                       epoch_start_hook=lambda t, teacher: starts.setdefault(t, len(sizes)))
        student = load_checkpoint(result.final_path).weights.nbytes
        epoch2 = sizes[starts[2]:]
        assert epoch2 and max(epoch2) <= student + 1024, (student, epoch2)

    def test_workers_exit_when_the_main_process_is_killed(self, tmp_path):
        """SIGKILL gives the main process no chance to send the workers
        None; each must see its pipe close and exit on its own."""
        if "fork" not in multiprocessing.get_all_start_methods() or not os.path.isdir("/proc"):
            pytest.skip("needs fork and /proc")
        src = os.path.dirname(os.path.dirname(train_module.__file__))
        main = subprocess.Popen([sys.executable, "-c", KILLED_MAIN, str(tmp_path)],
                                stdout=subprocess.PIPE, text=True,
                                env=dict(os.environ, PYTHONPATH=src))
        try:
            assert select.select([main.stdout], [], [], 60)[0], "no epoch 2 within 60 s"
            workers = [int(pid) for pid in main.stdout.readline().split()]
        finally:
            main.kill()  # mid-training: the run has hundreds of epochs left
            main.wait()
            main.stdout.close()
        assert workers
        deadline = time.monotonic() + 10
        while (alive := [pid for pid in workers if running(pid)]) and time.monotonic() < deadline:
            time.sleep(0.05)
        for pid in alive:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        assert not alive


# trains with 2 processes in a fresh interpreter, prints its workers' pids
# at the start of epoch 2 and sleeps there, so those pids are epoch 2's pool
KILLED_MAIN = """
import importlib, multiprocessing, sys, time
from vesseldistill.data import generate_synthetic, split
from vesseldistill.distill import DistillConfig
from vesseldistill.network import NetworkConfig
train_module = importlib.import_module("vesseldistill.train")
train_module._process_count = lambda batch_size: 2

def announce(t, teacher):
    if t == 2:
        print(*(p.pid for p in multiprocessing.active_children()), flush=True)
        time.sleep(60)  # so the kill lands while these are the live workers

train_module.train(train_module.TrainConfig(
    epochs=500, network=NetworkConfig(depth=2, base_channels=4, height=32, width=32),
    distill=DistillConfig(grid_g=4), out_dir=sys.argv[1],
), split(generate_synthetic(seed=1, count=20, size=32), seed=0), epoch_start_hook=announce)
"""


def running(pid):
    """Whether process `pid` still runs; a zombie has exited."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
