import copy
import dataclasses
import gc
import importlib
import tracemalloc

import numpy as np
import pytest

from vesseldistill.data import generate_synthetic, load_pgm, split
from vesseldistill.distill import DistillConfig
from vesseldistill.metrics import evaluate_pairs
from vesseldistill.network import NetworkConfig, SegNetwork, load_checkpoint, save_checkpoint
from vesseldistill.tensor import Tensor
from vesseldistill.train import TrainConfig, evaluate, predict_to_file, train

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


class TestLoop:
    def test_epoch1_distillation_terms_are_zero(self, tiny_dataset, tmp_path):
        result = train(tiny_cfg(tmp_path / "a", epochs=2), tiny_dataset)
        first = result.logs[0]
        assert first.ddl == 0.0 and first.psdl == 0.0
        assert first.train_loss == first.dice
        assert first.alpha == 0.0

    def test_distillation_active_from_epoch2(self, tiny_dataset, tmp_path):
        result = train(tiny_cfg(tmp_path / "b", epochs=2), tiny_dataset)
        second = result.logs[1]
        assert second.ddl > 0.0 and second.psdl > 0.0
        assert second.alpha > 0.0

    def test_total_is_sum_of_terms(self, tiny_dataset, tmp_path):
        result = train(tiny_cfg(tmp_path / "c", epochs=3), tiny_dataset)
        for log in result.logs:
            parts = log.ddl + log.psdl + log.dice
            assert abs(log.train_loss - parts) < 1e-9

    def test_logged_total_is_exact_sum_of_logged_terms(self, tiny_dataset, tmp_path):
        # per-batch sums of the three terms drift from the sum of the
        # per-term means by an ulp on some epochs of this run
        cfg = dataclasses.replace(tiny_cfg(tmp_path / "c2", epochs=4), batch_size=2, seed=1)
        result = train(cfg, tiny_dataset)
        for log in result.logs:
            assert log.train_loss == log.ddl + log.psdl + log.dice

    def test_deterministic_reruns(self, tiny_dataset, tmp_path):
        r1 = train(tiny_cfg(tmp_path / "d1", epochs=2), tiny_dataset)
        r2 = train(tiny_cfg(tmp_path / "d2", epochs=2), tiny_dataset)
        for a, b in zip(r1.logs, r2.logs):
            assert a.row() == b.row()
        w1 = load_checkpoint(r1.final_path).to_network().named_parameters()
        w2 = load_checkpoint(r2.final_path).to_network().named_parameters()
        for name in w1:
            np.testing.assert_array_equal(w1[name].data, w2[name].data)

    def test_teacher_is_previous_epoch_checkpoint(self, tiny_dataset, tmp_path):
        """The teacher seen at the start of epoch t equals the end-of-epoch
        t-1 checkpoint, bitwise."""
        teachers = {}

        def on_start(t, teacher):
            if teacher is not None:
                teachers[t] = {k: p.data.copy()
                               for k, p in teacher.named_parameters().items()}

        out = tmp_path / "e"
        train(tiny_cfg(out, epochs=3), tiny_dataset,
              epoch_start_hook=on_start, keep_epoch_checkpoints=True)
        for t in (2, 3):
            saved = load_checkpoint(out / f"epoch_{t - 1:03d}.npz")
            params = saved.to_network().named_parameters()
            for name, arr in teachers[t].items():
                np.testing.assert_array_equal(arr, params[name].data)

    def test_teacher_never_accumulates_gradients(self, tiny_dataset, tmp_path):
        seen = []

        def on_end(t, net, teacher, log):
            seen.append(all(p.grad is None for p in teacher.parameters()))

        train(tiny_cfg(tmp_path / "f", epochs=3), tiny_dataset,
              epoch_end_hook=on_end)
        assert seen and all(seen)

    def test_dice_only_mode_never_distills(self, tiny_dataset, tmp_path):
        result = train(tiny_cfg(tmp_path / "g", epochs=3, dice_only=True),
                       tiny_dataset)
        for log in result.logs:
            assert log.ddl == 0.0 and log.psdl == 0.0

    def test_logged_lr_follows_schedule(self, tiny_dataset, tmp_path):
        cfg = tiny_cfg(tmp_path / "h", epochs=4)
        cfg = dataclasses.replace(cfg, lr_step_every=2)
        result = train(cfg, tiny_dataset)
        lrs = [log.lr for log in result.logs]
        np.testing.assert_allclose(lrs, [1e-3, 1e-3, 3e-4, 3e-4])

    def test_artifacts_written(self, tiny_dataset, tmp_path):
        out = tmp_path / "i"
        result = train(tiny_cfg(out, epochs=2), tiny_dataset)
        assert result.final_path.exists()
        assert result.best_path.exists()
        assert (out / "epochs.csv").exists()
        header = (out / "epochs.csv").read_text().splitlines()[0]
        assert header.startswith("epoch,train_loss,ddl,psdl,dice")


class TestResume:
    def test_resume_matches_uninterrupted(self, tiny_dataset, tmp_path):
        full_cfg = tiny_cfg(tmp_path / "full", epochs=4)
        full = train(full_cfg, tiny_dataset, keep_epoch_checkpoints=True)

        # restart from the interrupted run's epoch-2 checkpoint
        resumed_cfg = dataclasses.replace(full_cfg, out_dir=str(tmp_path / "resumed"))
        resumed = train(resumed_cfg, tiny_dataset,
                        resume_from=tmp_path / "full" / "epoch_002.npz")

        assert len(resumed.logs) == len(full.logs) == 4
        for a, b in zip(full.logs, resumed.logs):
            np.testing.assert_allclose(a.row(), b.row(), rtol=0, atol=0)
        w_full = load_checkpoint(full.final_path).to_network().named_parameters()
        w_res = load_checkpoint(resumed.final_path).to_network().named_parameters()
        for name in w_full:
            np.testing.assert_array_equal(w_full[name].data, w_res[name].data)

    def test_resume_refuses_a_different_config(self, tiny_dataset, tmp_path):
        cfg = tiny_cfg(tmp_path / "r1", epochs=1)
        result = train(cfg, tiny_dataset)
        started = []
        changed = dataclasses.replace(cfg, learning_rate=2e-3, out_dir=str(tmp_path / "r2"))
        with pytest.raises(ValueError, match="learning_rate"):
            train(changed, tiny_dataset, resume_from=result.final_path,
                  epoch_start_hook=lambda t, teacher: started.append(t))
        assert not started

    def test_resume_refuses_a_checkpoint_without_config(self, tiny_dataset, tmp_path):
        cfg = tiny_cfg(tmp_path / "r3", epochs=2)
        path = tmp_path / "bare.npz"
        save_checkpoint(path, SegNetwork(cfg.network, dtype=np.float32), epoch=1)
        with pytest.raises(ValueError, match="train_config"):
            train(cfg, tiny_dataset, resume_from=path)

    def test_checkpoint_carries_config(self, tiny_dataset, tmp_path):
        import json
        cfg = tiny_cfg(tmp_path / "cfgchk", epochs=1)
        result = train(cfg, tiny_dataset)
        ckpt = load_checkpoint(result.final_path)
        stored = json.loads(bytes(ckpt.extras["train_config"]).decode())
        assert stored["epochs"] == 1
        assert stored["network"]["depth"] == 2


class TestValidation:
    def test_rejects_empty_train_split(self, tmp_path):
        ds = split(generate_synthetic(seed=2, count=3, size=32), ratios=(0, 1, 2))
        with pytest.raises(ValueError):
            train(tiny_cfg(tmp_path / "v"), ds)

    def test_rejects_indivisible_patch_grid(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "w")
        cfg = dataclasses.replace(cfg, distill=DistillConfig(grid_g=5))
        with pytest.raises(ValueError):
            cfg.validate()

    def test_rejects_non_square_patches(self, tmp_path):
        # 16x32 is divisible by grid 4 but its patches would be 4x8
        cfg = dataclasses.replace(
            tiny_cfg(tmp_path / "w2"),
            network=NetworkConfig(depth=2, base_channels=4, height=16, width=32))
        with pytest.raises(ValueError, match="square patches"):
            cfg.validate()

    def test_evaluate_returns_report(self, tiny_dataset, tmp_path):
        result = train(tiny_cfg(tmp_path / "x", epochs=1), tiny_dataset)
        net = load_checkpoint(result.final_path).to_network()
        report = evaluate(net, tiny_dataset.test)
        assert 0.0 <= report.dsc <= 1.0
        assert set(report.as_dict()) == {"DSC", "ACC", "SEN", "IOU"}

    def test_evaluate_matches_predict_on_float32_net(self, tiny_dataset, tmp_path, monkeypatch):
        """evaluate computes at the net's precision, as predict_to_file does."""
        result = train(tiny_cfg(tmp_path / "y", epochs=1), tiny_dataset)
        net = load_checkpoint(result.final_path).to_network()
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
            mask = predict_to_file(result.final_path, sample.image, tmp_path / f"m{i}.pgm")
            np.testing.assert_array_equal(pred[0] >= 0.5, mask.astype(bool))

    def test_predict_writes_the_full_load_mask(self, tiny_dataset, tmp_path):
        result = train(tiny_cfg(tmp_path / "p", epochs=2), tiny_dataset)
        image = tiny_dataset.test[0].image
        full = load_checkpoint(result.final_path).to_network(trainable=False)
        pred, _ = full.forward(Tensor(image.data.astype(full.dtype)))
        expected = (pred.data[0] >= 0.5).astype(np.float64)
        mask = predict_to_file(result.final_path, image, tmp_path / "mask.pgm")
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


class TestNonFiniteLoss:
    def test_nan_pixel_stops_training_naming_the_term(self, tiny_dataset, tmp_path):
        poisoned = copy.deepcopy(tiny_dataset)
        poisoned.train[3].image.data[0, 5, 7] = np.nan
        out = tmp_path / "nan"
        with pytest.raises(FloatingPointError, match=r"epoch 1, batch \d+: dice loss is nan"):
            train(tiny_cfg(out, epochs=2), poisoned)
        assert not list(out.glob("*.npz"))


class TestGraphLifetime:
    def test_training_step_leaves_no_cyclic_garbage(self, tiny_dataset):
        """A step's graph is freed by reference counting, with no cycles
        left for the collector."""
        cfg = tiny_cfg("unused", epochs=2)
        net = SegNetwork(cfg.network, dtype=np.float32)
        teacher = net.snapshot(1).restore(trainable=False)
        batch = tiny_dataset.train[:2]
        gc.collect()
        gc.disable()
        try:
            terms = train_module._batch_terms(net, teacher, batch, cfg, 2)
            (terms["ddl"] + terms["psdl"] + terms["dice"]).backward()
            del terms
            assert gc.collect() == 0
        finally:
            gc.enable()

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
