import math

import numpy as np
import pytest

from vesseldistill.network import NetworkConfig, SegNetwork, _views
from vesseldistill.optim import _BETA1, _BETA2, _EPS, AdamW, lr_at
from vesseldistill.tensor import Tensor
from vesseldistill.train import _take_grad


def flat(values):
    return np.array(values, dtype=np.float64)


class ReferenceAdamW:
    """The per-parameter AdamW step the flat one replaced, kept as its oracle:
    one m and one v per parameter tensor, each parameter stepped on its own,
    and a parameter without a gradient decayed only."""

    def __init__(self, params, lr, weight_decay):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        bc1 = 1.0 - _BETA1 ** self.t
        bc2 = 1.0 - _BETA2 ** self.t
        for i, p in enumerate(self.params):
            # decay is decoupled: applied even when the gradient is zero/absent
            p.data = p.data - self.lr * self.weight_decay * p.data
            if p.grad is None:
                continue
            g = p.grad
            self.m[i] = _BETA1 * self.m[i] + (1.0 - _BETA1) * g
            self.v[i] = _BETA2 * self.v[i] + (1.0 - _BETA2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + _EPS)
            p.grad = None  # consumed: a later graph without p must not reapply it


class TestAdamW:
    def test_decay_only_when_grad_absent(self):
        # a weight outside the loss's graph gets a zero gradient; with zero
        # moments it decays only and its moments stay zero, beside one that steps
        w = flat([2.0, 1.0])
        opt = AdamW(w, lr=0.1, weight_decay=0.01)
        opt.step(flat([0.0, 0.5]))
        assert w[0] == 2.0 - 0.1 * 0.01 * 2.0 and opt.m[0] == opt.v[0] == 0.0
        assert w[1] < 1.0 - 0.1 * 0.01 * 1.0 and opt.m[1] and opt.v[1]

    def test_first_step_moves_by_lr(self):
        # bias correction makes |update| ~= lr regardless of grad magnitude
        for g in (1e-3, 1.0, 250.0):
            w = flat([0.0])
            opt = AdamW(w, lr=0.05, weight_decay=0.0)
            opt.step(flat([g]))
            np.testing.assert_allclose(w, [-0.05], rtol=1e-4)

    def test_scalar_reference_trajectory(self):
        """Five steps on f(w) = w^2 against a straight-line recomputation."""
        lr, wd, b1, b2, eps = 0.1, 0.01, 0.9, 0.999, 1e-8
        weights = flat([1.5])
        opt = AdamW(weights, lr=lr, weight_decay=wd)

        w = 1.5
        m = v = 0.0
        for t in range(1, 6):
            g = 2.0 * w
            opt.step(2.0 * weights)

            w = w - lr * wd * w
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            w = w - lr * m_hat / (math.sqrt(v_hat) + eps)
            assert abs(weights[0] - w) < 1e-12

    def test_decay_decoupled_from_gradient(self):
        # with zero grad the adaptive term is exactly zero; only decay acts
        w = flat([3.0])
        opt = AdamW(w, lr=0.2, weight_decay=0.05)
        opt.step(np.zeros(1))
        np.testing.assert_allclose(w, 3.0 * (1 - 0.2 * 0.05), rtol=1e-15)

    def test_state_roundtrip(self):
        w = flat([1.0, -2.0])
        opt = AdamW(w, lr=0.01)
        for _ in range(3):
            opt.step(flat([0.5, -0.25]))
        state = opt.state_arrays()

        q = flat([1.0, -2.0])
        opt2 = AdamW(q, lr=0.01)
        opt2.load_state_arrays(state)
        assert opt2.t == opt.t
        np.testing.assert_array_equal(opt2.m, opt.m)
        np.testing.assert_array_equal(opt2.v, opt.v)

        q[...] = w
        opt.step(flat([0.1, 0.1]))
        opt2.step(flat([0.1, 0.1]))
        np.testing.assert_array_equal(w, q)

    def test_state_packs_each_moment_kind_into_one_flat_array(self):
        w = np.arange(11.0)
        opt = AdamW(w, lr=0.01)
        for k in range(2):
            opt.step(np.linspace(-1.0, 1.0, 11) - k)
        state = opt.state_arrays()
        assert sorted(state) == ["m", "t", "v"]
        for kind in ("m", "v"):  # copies, which later steps leave alone
            assert state[kind].tobytes() == getattr(opt, kind).tobytes()
            assert not np.shares_memory(state[kind], getattr(opt, kind))

        opt2 = AdamW(w.copy(), lr=0.01)
        opt2.load_state_arrays(state)
        assert opt2.t == 2
        for a, b in ((opt2.m, opt.m), (opt2.v, opt.v)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

        # the older per-parameter layout is not read
        per_parameter = {"t": state["t"]}
        for i, (lo, hi) in enumerate([(0, 6), (6, 7), (7, 11)]):
            per_parameter[f"m{i}"] = opt.m[lo:hi]
            per_parameter[f"v{i}"] = opt.v[lo:hi]
        with pytest.raises(KeyError, match="'m'"):
            AdamW(w.copy()).load_state_arrays(per_parameter)

    @pytest.mark.parametrize("dtype,t", [(np.float64, np.int64(0)), (np.float32, np.uint8(7))])
    def test_state_at_the_edges_of_the_rule_is_loaded(self, dtype, t):
        # t == 0 (an optimizer that never stepped), an unsigned t and float32
        # moments of float32 weights load; the misuse matrix's resume rows hold
        # the refused side of the same rule
        state = {"t": np.asarray(t), "m": np.full(4, 0.5, dtype), "v": np.full(4, 0.25, dtype)}
        opt = AdamW(np.arange(4, dtype=dtype))
        opt.load_state_arrays(state)
        assert type(opt.t) is int and opt.t == int(t)
        for kind in ("m", "v"):
            moment = getattr(opt, kind)
            assert moment.dtype == dtype and moment.tobytes() == state[kind].tobytes()

    def test_gradient_is_not_reapplied_to_a_parameter_left_out_of_the_graph(self):
        net = SegNetwork(NetworkConfig(depth=2, base_channels=4, height=8, width=8),
                         dtype=np.float64)
        x = Tensor(np.random.default_rng(0).uniform(size=(1, 8, 8)))
        opt = AdamW(net.weights, lr=0.1, weight_decay=0.01)
        head2 = net.named_parameters()["head2.w"]

        pred, feats = net.forward(x)
        (pred.sum() + net.side_output(feats[1], 2).sum()).backward()
        opt.step(_take_grad(net))
        m, v = (_views(a, net.config)["head2.w"].copy() for a in (opt.m, opt.v))
        assert m.any() and v.any()
        pred, _ = net.forward(x)
        pred.sum().backward()  # head2 takes no part in this loss
        grad = _take_grad(net)
        assert grad.shape == net.weights.shape and head2.grad is None
        assert not _views(grad, net.config)["head2.w"].any()  # zero, not the stale gradient
        opt.step(grad)
        # textbook Adam: the zero gradient decays head2's moments, which keep moving it
        assert _views(opt.m, net.config)["head2.w"].tobytes() == (_BETA1 * m).tobytes()
        assert _views(opt.v, net.config)["head2.w"].tobytes() == (_BETA2 * v).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_flat_step_is_bitwise_the_per_parameter_step(self, dtype):
        """25 steps over a depth-3 net's parameter shapes, heads 2 and 3
        outside the graph for the first 9, as in epoch 1, which has no
        teacher: the per-parameter step decays them only, and the flat step
        gets zeros for them, as _take_grad gives."""
        net = SegNetwork(NetworkConfig(depth=3, base_channels=8), seed=1, dtype=dtype)
        params = [Tensor(p.data.copy(), requires_grad=True) for p in net.parameters()]
        reference = ReferenceAdamW(params, lr=1e-3, weight_decay=1e-5)
        opt = AdamW(net.weights, lr=1e-3, weight_decay=1e-5)
        names = list(net.named_parameters())
        rng = np.random.default_rng(2)
        for step in range(25):
            grad = rng.normal(0.0, 10.0 ** rng.uniform(-4, 1), net.weights.size).astype(dtype)
            for name, p, g in zip(names, params, _views(grad, net.config).values()):
                if step < 9 and name.startswith(("head2.", "head3.")):
                    g[...], p.grad = 0, None
                else:
                    p.grad = g
            reference.step()
            opt.step(grad)
            got = _views(net.weights, net.config).values()
            assert all(p.data.tobytes() == w.tobytes() for p, w in zip(params, got)), step
            for per_param, flat_moment in ((reference.m, opt.m), (reference.v, opt.v)):
                got = _views(flat_moment, net.config).values()
                assert all(a.tobytes() == b.tobytes() for a, b in zip(per_param, got)), step

    def test_take_grad_is_zero_for_every_parameter_outside_the_graph(self):
        net = SegNetwork(NetworkConfig(depth=2, base_channels=4, height=8, width=8),
                         dtype=np.float64)
        _, feats = net.forward(np.random.default_rng(0).uniform(size=(1, 8, 8)))
        net.side_output(Tensor(feats[1].data), 2).sum().backward()  # a graph of head2 alone
        grad = _views(_take_grad(net), net.config)
        assert grad["head2.w"].any() and grad["head2.b"].any()
        assert not any(g.any() for name, g in grad.items() if not name.startswith("head2."))
        assert all(p.grad is None for p in net.parameters())

    def test_a_refused_gradient_changes_nothing(self):
        w = np.arange(6.0)
        opt = AdamW(w, lr=0.1)
        for bad in (np.zeros(5), np.zeros(7), np.zeros((1, 6)), np.zeros((6, 1))):
            with pytest.raises(ValueError):
                opt.step(bad)
        assert opt.t == 0 and not opt.m.any() and not opt.v.any()
        assert w.tobytes() == np.arange(6.0).tobytes()

    def test_converges_on_quadratic(self):
        w = flat([4.0])
        opt = AdamW(w, lr=0.1, weight_decay=0.0)
        for _ in range(300):
            opt.step(2.0 * w)
        assert abs(w[0]) < 1e-3


class TestLRSchedule:
    def test_boundaries(self):
        assert lr_at(10, 1e-3, 0.3, 10) == 1e-3
        assert abs(lr_at(11, 1e-3, 0.3, 10) - 3e-4) < 1e-18

    def test_custom_gamma_and_window(self):
        assert abs(lr_at(7, 1.0, gamma=0.5, step_every=3) - 0.25) < 1e-15
