import tracemalloc

import numpy as np
import pytest

from vesseldistill import distill
from vesseldistill.network import (
    NetworkConfig, SegNetwork, load_checkpoint, save_checkpoint,
)
from vesseldistill.tensor import ShapeError, Tensor


def small_net(seed=0, depth=3, size=32, base=8):
    cfg = NetworkConfig(depth=depth, base_channels=base, height=size, width=size)
    return SegNetwork(cfg, seed=seed)


def rand_input(seed, size=32, channels=1):
    return Tensor(np.random.default_rng(seed).uniform(size=(channels, size, size)))


class TestConfig:
    def test_rejects_shallow_depth(self):
        with pytest.raises(ValueError):
            NetworkConfig(depth=1, height=32, width=32)

    def test_rejects_indivisible_size(self):
        with pytest.raises(ValueError):
            NetworkConfig(depth=4, height=36, width=36)

    def test_parameter_count_is_config_function(self):
        a = small_net(seed=1)
        b = small_net(seed=2)
        assert [p.data.shape for p in a.parameters()] == \
            [p.data.shape for p in b.parameters()]


class TestForward:
    def test_prediction_shape_and_range(self):
        net = small_net()
        pred, _ = net.forward(rand_input(0))
        assert pred.data.shape == (1, 32, 32)
        assert np.all(pred.data > 0) and np.all(pred.data < 1)

    def test_decoder_feature_resolutions(self):
        net = small_net(depth=3, size=32)
        _, feats = net.forward(rand_input(1))
        assert [f.data.shape[1:] for f in feats] == [(32, 32), (16, 16), (8, 8)]

    def test_deterministic(self):
        x = rand_input(2)
        p1, _ = small_net(seed=5).forward(x)
        p2, _ = small_net(seed=5).forward(x)
        np.testing.assert_array_equal(p1.data, p2.data)

    def test_forward_graph_retains_no_column_buffers(self):
        """A trainable forward graph keeps activations and padded inputs
        only, not 9x-sized conv column buffers (13.4 MB when it did)."""
        cfg = NetworkConfig(depth=3, base_channels=8, height=64, width=64)
        net = SegNetwork(cfg, seed=0, dtype=np.float32)
        x = Tensor(np.random.default_rng(0).uniform(size=(1, 64, 64)).astype(np.float32))
        tracemalloc.start()
        try:
            graph = net.forward(x)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert graph[0].requires_grad
        assert retained <= 6 * 2**20

    def test_shape_mismatch_raises(self):
        net = small_net(depth=3, size=32)
        with pytest.raises(ShapeError, match=r"2\^\(depth-1\) = 4"):
            net.forward(rand_input(0, size=18))
        with pytest.raises(ShapeError, match=r"\[1,H,W\]"):
            net.forward(rand_input(0, size=32, channels=2))


class TestSideOutputs:
    def test_depth1_is_identity_upsample(self):
        net = small_net()
        _, feats = net.forward(rand_input(3))
        side = net.side_output(feats[0], 1)
        assert side.data.shape == (1, 32, 32)

    def test_deep_side_reaches_full_resolution(self):
        net = small_net(depth=3, size=32)
        _, feats = net.forward(rand_input(4))
        assert feats[2].data.shape[1:] == (8, 8)
        side = net.side_output(feats[2], 3)
        assert side.data.shape == (1, 32, 32)

    def test_zero_head_gives_constant_half(self):
        net = small_net()
        net._params["head2.w"].data[:] = 0.0
        net._params["head2.b"].data[:] = 0.0
        _, feats = net.forward(rand_input(5))
        side = net.side_output(feats[1], 2)
        np.testing.assert_allclose(side.data, 0.5)

    def test_count_and_range(self):
        for depth in (2, 3):
            net = small_net(depth=depth)
            _, feats = net.forward(rand_input(6))
            sides = net.side_outputs(feats)
            assert len(sides) == depth
            for s in sides:
                assert s.data.shape == (1, 32, 32)
                assert np.all(s.data > 0) and np.all(s.data < 1)

    def test_depth_out_of_range(self):
        net = small_net()
        _, feats = net.forward(rand_input(7))
        with pytest.raises(ValueError):
            net.side_output(feats[0], 4)


class TestGradientFlow:
    def test_no_dead_parameters_under_total_loss(self):
        net = small_net(seed=3, depth=2, size=16, base=4)
        teacher = small_net(seed=4, depth=2, size=16, base=4)
        for p in teacher.parameters():
            p.requires_grad = False
        x = rand_input(8, size=16)
        y = Tensor((np.random.default_rng(9).uniform(size=(1, 16, 16)) < 0.3)
                   .astype(np.float64))
        pred, feats = net.forward(x)
        t_pred, t_feats = teacher.forward(x)
        loss = distill.total_loss(
            pred, net.side_outputs(feats), t_pred, teacher.side_outputs(t_feats),
            y, distill.DistillConfig(), t=2, total_epochs=10)
        loss.backward()
        for name, p in net.named_parameters().items():
            assert p.grad is not None, f"no grad on {name}"
            assert np.any(p.grad != 0), f"all-zero grad on {name}"

    def test_teacher_forward_never_populates_grads(self):
        teacher = small_net(seed=0).snapshot(epoch=3).restore()
        pred, feats = teacher.forward(rand_input(10))
        assert not pred.requires_grad
        for p in teacher.parameters():
            assert p.grad is None


class TestSnapshots:
    def test_restore_is_bitwise(self):
        net = small_net(seed=7)
        x = rand_input(11)
        before, _ = net.forward(x)
        snap = net.snapshot(epoch=2)
        restored, _ = snap.restore().forward(x)
        np.testing.assert_array_equal(before.data, restored.data)

    def test_snapshot_isolated_from_live_updates(self):
        net = small_net(seed=8)
        x = rand_input(12)
        snap = net.snapshot(epoch=1)
        frozen_before, _ = snap.restore().forward(x)
        for p in net.parameters():
            p.data = p.data + 0.1
        frozen_after, _ = snap.restore().forward(x)
        np.testing.assert_array_equal(frozen_before.data, frozen_after.data)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "last.npz"
        save_checkpoint(path, small_net(seed=1), epoch=1)

        def crash_mid_write(file, **arrays):
            with open(file, "wb") as f:
                f.write(b"PK\x03\x04 truncated")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", crash_mid_write)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, small_net(seed=2), epoch=2)
        monkeypatch.undo()
        assert load_checkpoint(path).epoch == 1
        assert [p.name for p in tmp_path.iterdir()] == ["last.npz"]

    def test_parameters_only_load_matches_full_load(self, tmp_path):
        net = SegNetwork(NetworkConfig(depth=2, base_channels=4, height=16, width=16),
                         seed=3, dtype=np.float32)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, net, epoch=4,
                        extras={"m0": np.ones(3), "logs": np.arange(5, dtype=np.uint8)})
        full = load_checkpoint(path)
        lean = load_checkpoint(path, extras=False)
        assert set(full.extras) == {"m0", "logs"}
        assert lean.extras == {}
        assert (lean.config, lean.epoch, lean.dtype) == (full.config, full.epoch, full.dtype)
        assert lean.params.keys() == full.params.keys()
        for name, arr in full.params.items():
            assert lean.params[name].dtype == arr.dtype
            assert lean.params[name].tobytes() == arr.tobytes()

    def test_checkpoint_roundtrip_bitwise(self, tmp_path):
        net = small_net(seed=9)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, net, epoch=5)
        ckpt = load_checkpoint(path)
        assert ckpt.epoch == 5
        assert ckpt.config == net.config
        restored = ckpt.to_network()
        for name, p in net.named_parameters().items():
            np.testing.assert_array_equal(p.data, restored.named_parameters()[name].data)
