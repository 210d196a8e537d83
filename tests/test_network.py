import tracemalloc

import numpy as np
import pytest

from vesseldistill import distill, network
from vesseldistill import tensor as T
from vesseldistill.network import (
    NetworkConfig, SegNetwork, TeacherSnapshot, load_checkpoint, save_checkpoint,
)
from vesseldistill.tensor import Tensor


def small_net(seed=0, depth=3, size=32, base=8):
    cfg = NetworkConfig(depth=depth, base_channels=base, height=size, width=size)
    return SegNetwork(cfg, seed=seed, dtype=np.float64)


def rand_input(seed, size=32):
    return Tensor(np.random.default_rng(seed).uniform(size=(1, size, size)))


class TestConfig:
    def test_takes_one_input_channel_by_rule(self):
        with pytest.raises(TypeError, match="in_channels"):
            NetworkConfig(in_channels=1)
        shapes = dict(network._param_shapes(NetworkConfig()))
        assert shapes["enc1.conv1.w"] == (8, 1, 3, 3)

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

    def test_forward_graph_keeps_only_what_backward_reads(self):
        """A trainable 64x64 forward retains the arrays its backward reads:
        no conv pre-activations under relu, no upsample outputs under
        concat, no padded conv inputs (3.9 MB when it kept them)."""
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
        assert retained <= 2 * 2**20

    def test_frozen_256_forward_peak_memory(self):
        """A frozen float64 256x256 forward peaks under 56 MiB: conv2d
        builds its column matrices a bounded block at a time (65.4 MiB when
        each full-resolution 8-channel conv copied a whole 38 MB one)."""
        cfg = NetworkConfig(depth=3, base_channels=8, height=256, width=256)
        net = SegNetwork(cfg, seed=0, dtype=np.float64, trainable=False)
        x = Tensor(np.random.default_rng(0).uniform(size=(1, 256, 256)))
        net.forward(x)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            net.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 56 * 2**20

    def test_frozen_256_float32_forward_never_holds_an_upsampled_map(self):
        """A frozen float32 256x256 forward peaks under 11 MiB (10.0 MiB): each
        decoder level upsamples straight into its join's padded buffer, and a
        block's input is freed before its first relu allocates (13.7 MiB when
        the upsampled map and the join were held side by side)."""
        cfg = NetworkConfig(depth=3, base_channels=8, height=256, width=256)
        net = SegNetwork(cfg, seed=0, dtype=np.float32, trainable=False)
        x = Tensor(np.random.default_rng(0).uniform(size=(1, 256, 256)).astype(np.float32))
        net.forward(x)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            net.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 11 * 2**20

    @pytest.mark.skipif(not T._HEAP_KEPT,
                        reason="glibc's mallopt is unavailable or tuned from the environment")
    def test_warm_256_forward_page_faults(self):
        """Freed heap pages stay mapped between forwards, so a warm frozen
        float32 256x256 forward takes almost no minor page faults (5-7k
        when each forward's arrays were mapped afresh)."""
        import resource

        cfg = NetworkConfig(depth=3, base_channels=8, height=256, width=256)
        net = SegNetwork(cfg, seed=0, dtype=np.float32, trainable=False)
        x = Tensor(np.random.default_rng(0).uniform(size=(1, 256, 256)).astype(np.float32))
        for _ in range(2):
            net.forward(x)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        net.forward(x)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 500

    def test_frozen_256_float32_forward_keeps_whole_gemm_bits(self, monkeypatch):
        """infer_256's net splits every conv GEMM into blocks of whole
        64-column units for cache and for OpenBLAS's small-matrix kernels,
        and its float32 256x256 forward is bitwise that of unsplit GEMMs."""
        cfg = NetworkConfig(depth=3, base_channels=8, height=256, width=256)
        net = SegNetwork(cfg, seed=0, dtype=np.float32, trainable=False)
        x = Tensor(np.random.default_rng(0).uniform(size=(1, 256, 256)).astype(np.float32))
        blocked, features = net.forward(x)
        monkeypatch.setattr(T, "_BLOCK_BUDGET", 1 << 62)
        monkeypatch.setattr(T, "_SMALL_GEMM", 1 << 62)
        whole, whole_features = net.forward(x)
        np.testing.assert_array_equal(blocked.data, whole.data)
        for a, b in zip(features, whole_features):
            np.testing.assert_array_equal(a.data, b.data)

    def test_input_of_the_nets_dtype_is_used_uncopied(self, monkeypatch):
        net = small_net()
        x = rand_input(0)
        assert x.dtype == net.dtype
        first_inputs = []
        conv2d = T.conv2d

        def recording(a, *rest):
            first_inputs.append(a)
            return conv2d(a, *rest)

        monkeypatch.setattr(T, "conv2d", recording)
        net.forward(x)
        assert first_inputs[0] is x


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
            pred, feats = net.forward(rand_input(6))
            sides = net.side_outputs(feats, pred)
            assert len(sides) == depth
            for s in sides:
                assert s.data.shape == (1, 32, 32)
                assert np.all(s.data > 0) and np.all(s.data < 1)

    def test_prediction_is_reused_as_the_depth1_output(self):
        net = small_net(depth=3)
        pred, feats = net.forward(rand_input(6))
        reused = net.side_outputs(feats, pred)
        assert reused[0] is pred
        for depth, (a, f) in enumerate(zip(reused, feats), 1):
            np.testing.assert_array_equal(a.data, net.side_output(f, depth).data)


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
        terms = distill.loss_terms(
            net.side_outputs(feats, pred), teacher.side_outputs(t_feats, t_pred),
            y, distill.DistillConfig(), distill.alpha_at(2, 10, 0.5))
        (terms["ddl"] + terms["psdl"] + terms["dice"]).backward()
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
            p.data += 0.1
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
        run = {"train_config": {"seed": 2}, "logs": [{"epoch": 1}]}
        save_checkpoint(path, net, epoch=4, extras={"m0": np.ones(3), "v": np.ones(3)}, run=run)
        full = load_checkpoint(path)
        lean = load_checkpoint(path, extras=False)
        assert set(full.extras) == {"m0", "v"}
        assert lean.extras == {}
        assert (lean.config, lean.epoch, lean.run) == (full.config, full.epoch, run)
        assert lean.weights.dtype == full.weights.dtype
        assert lean.weights.tobytes() == full.weights.tobytes()

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


class TestWeightsToNetwork:
    def test_from_arrays_copies_its_input(self):
        net = small_net(seed=6)
        flat = net.state_arrays().astype(np.float32)
        built = SegNetwork.from_arrays(net.config, flat, trainable=False)
        assert built.dtype == np.float32
        assert all(p.data.dtype == np.float32 and not p.requires_grad
                   for p in built.parameters())
        flat[-1] = 7.0  # head3.b, the last parameter
        assert not np.any(built.named_parameters()["head3.b"].data == 7.0)

    def test_state_arrays_is_a_copy_of_the_one_flat_weight_array(self):
        net = small_net(seed=6)
        flat = net.state_arrays()
        assert flat.shape == net.weights.shape and not np.shares_memory(flat, net.weights)
        assert flat.tobytes() == net.weights.tobytes()
        lo = 0
        for name, shape in network._param_shapes(net.config):
            p = net.named_parameters()[name]
            assert p.data.shape == shape and p.data.flags.c_contiguous
            np.testing.assert_array_equal(p.data.ravel(), flat[lo:lo + p.data.size])
            lo += p.data.size
        assert lo == flat.size

    def test_weights_to_net_draws_no_initialisation(self, tmp_path, monkeypatch):
        net = small_net(seed=5)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, net, epoch=1)
        ckpt = load_checkpoint(path)
        snap = net.snapshot(epoch=1)

        def no_rng(*args, **kwargs):
            raise AssertionError("drew a random initialisation")

        monkeypatch.setattr(network.np.random, "default_rng", no_rng)
        for restored in (ckpt.to_network(), snap.restore()):
            for name, p in net.named_parameters().items():
                np.testing.assert_array_equal(p.data, restored.named_parameters()[name].data)


    def test_a_net_has_no_default_dtype(self):
        # TrainConfig.dtype holds the one default; a random net used to default to
        # float64, and a net built from weights takes theirs
        cfg = NetworkConfig(depth=2, base_channels=4, height=8, width=8)
        with pytest.raises(TypeError, match="dtype"):
            SegNetwork(cfg)
        for dtype in (np.float32, np.float64):
            arrays = SegNetwork(cfg, dtype=dtype).state_arrays()
            assert SegNetwork.from_arrays(cfg, arrays).dtype == dtype
            assert TeacherSnapshot(cfg, arrays, 1).restore().dtype == dtype


class TestCheckpointLayout:
    def test_parameters_only_load_decodes_only_meta_and_params(self, tmp_path, monkeypatch):
        net = small_net(seed=4)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, net, epoch=2,
                        extras={f"m{i}": np.ones(3) for i in range(len(net.parameters()))})
        decoded = []
        getitem = np.lib.npyio.NpzFile.__getitem__

        def recording(z, key):
            decoded.append(key)
            return getitem(z, key)

        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", recording)
        ckpt = load_checkpoint(path, extras=False)
        assert sorted(decoded) == ["meta", "params"]
        assert ckpt.weights.tobytes() == net.weights.tobytes()
