import math

import numpy as np
import pytest

from vesseldistill.network import NetworkConfig, SegNetwork
from vesseldistill.optim import AdamW, lr_at
from vesseldistill.tensor import Tensor


def param(values):
    return Tensor(np.array(values, dtype=np.float64), requires_grad=True)


class TestAdamW:
    def test_decay_only_when_grad_absent(self):
        p = param([2.0])
        opt = AdamW([p], lr=0.1, weight_decay=0.01)
        opt.step()
        np.testing.assert_allclose(p.data, 2.0 * (1 - 0.1 * 0.01), rtol=1e-15)

    def test_first_step_moves_by_lr(self):
        # bias correction makes |update| ~= lr regardless of grad magnitude
        for g in (1e-3, 1.0, 250.0):
            p = param([0.0])
            p.grad = np.array([g])
            opt = AdamW([p], lr=0.05, weight_decay=0.0)
            opt.step()
            np.testing.assert_allclose(p.data, [-0.05], rtol=1e-4)

    def test_scalar_reference_trajectory(self):
        """Five steps on f(w) = w^2 against a straight-line recomputation."""
        lr, wd, b1, b2, eps = 0.1, 0.01, 0.9, 0.999, 1e-8
        p = param([1.5])
        opt = AdamW([p], lr=lr, weight_decay=wd)

        w = 1.5
        m = v = 0.0
        for t in range(1, 6):
            p.grad = np.array([2.0 * p.data[0]])
            g = 2.0 * w
            opt.step()

            w = w - lr * wd * w
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            w = w - lr * m_hat / (math.sqrt(v_hat) + eps)
            assert abs(p.data[0] - w) < 1e-12

    def test_decay_decoupled_from_gradient(self):
        # with zero grad the adaptive term is exactly zero; only decay acts
        p = param([3.0])
        p.grad = np.zeros(1)
        opt = AdamW([p], lr=0.2, weight_decay=0.05)
        opt.step()
        np.testing.assert_allclose(p.data, 3.0 * (1 - 0.2 * 0.05), rtol=1e-15)

    def test_state_roundtrip(self):
        p = param([1.0, -2.0])
        opt = AdamW([p], lr=0.01)
        for _ in range(3):
            p.grad = np.array([0.5, -0.25])
            opt.step()
        state = opt.state_arrays()

        q = param([1.0, -2.0])
        opt2 = AdamW([q], lr=0.01)
        opt2.load_state_arrays(state)
        assert opt2.t == opt.t
        np.testing.assert_array_equal(opt2.m[0], opt.m[0])
        np.testing.assert_array_equal(opt2.v[0], opt.v[0])

        p.grad = np.array([0.1, 0.1])
        q.data = p.data.copy()
        q.grad = p.grad.copy()
        opt.step()
        opt2.step()
        np.testing.assert_array_equal(p.data, q.data)

    def test_state_packs_each_moment_kind_into_one_flat_array(self):
        params = [param(np.arange(6.0).reshape(2, 3)), param([4.0]), param(np.ones((2, 2)))]
        opt = AdamW(params, lr=0.01)
        for k in range(2):
            for i, p in enumerate(params):
                p.grad = np.full(p.data.shape, 0.5 + i - k)
            opt.step()
        state = opt.state_arrays()
        assert sorted(state) == ["m", "t", "v"]
        np.testing.assert_array_equal(state["m"], np.concatenate([m.ravel() for m in opt.m]))
        np.testing.assert_array_equal(state["v"], np.concatenate([v.ravel() for v in opt.v]))

        opt2 = AdamW([param(p.data) for p in params], lr=0.01)
        opt2.load_state_arrays(state)
        assert opt2.t == 2
        for a, b in zip(opt2.m + opt2.v, opt.m + opt.v):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

        # the older per-parameter layout is not read
        per_parameter = {"t": state["t"]}
        for i in range(len(params)):
            per_parameter[f"m{i}"] = opt.m[i]
            per_parameter[f"v{i}"] = opt.v[i]
        with pytest.raises(KeyError, match="'m'"):
            AdamW([param(p.data) for p in params]).load_state_arrays(per_parameter)

        state["v"] = state["v"][:-1]
        with pytest.raises(ValueError, match="'v' holds 10 values.*need 11"):
            AdamW([param(p.data) for p in params]).load_state_arrays(state)

    def test_gradient_is_not_reapplied_to_a_parameter_left_out_of_the_graph(self):
        net = SegNetwork(NetworkConfig(depth=2, base_channels=4, height=8, width=8),
                         dtype=np.float64)
        x = Tensor(np.random.default_rng(0).uniform(size=(1, 8, 8)))
        opt = AdamW(net.parameters(), lr=0.1, weight_decay=0.01)
        head2 = net.named_parameters()["head2.w"]

        pred, feats = net.forward(x)
        (pred.sum() + net.side_output(feats[1], 2).sum()).backward()
        opt.step()
        before = head2.data.copy()
        pred, _ = net.forward(x)
        pred.sum().backward()  # head2 takes no part in this loss
        opt.step()
        np.testing.assert_array_equal(head2.data, before - 0.1 * 0.01 * before)

    def test_converges_on_quadratic(self):
        p = param([4.0])
        opt = AdamW([p], lr=0.1, weight_decay=0.0)
        for _ in range(300):
            p.grad = 2.0 * p.data
            opt.step()
        assert abs(p.data[0]) < 1e-3


class TestLRSchedule:
    def test_thirty_epoch_table(self):
        expected = {range(1, 11): 1e-3, range(11, 21): 3e-4, range(21, 31): 9e-5}
        for window, lr in expected.items():
            for t in window:
                assert abs(lr_at(t, 1e-3, 0.3, 10) - lr) < 1e-18, f"epoch {t}"

    def test_boundaries(self):
        assert lr_at(10, 1e-3, 0.3, 10) == 1e-3
        assert abs(lr_at(11, 1e-3, 0.3, 10) - 3e-4) < 1e-18

    def test_custom_gamma_and_window(self):
        assert abs(lr_at(7, 1.0, gamma=0.5, step_every=3) - 0.25) < 1e-15

    def test_bad_epoch(self):
        with pytest.raises(ValueError):
            lr_at(0, 1e-3, 0.3, 10)
