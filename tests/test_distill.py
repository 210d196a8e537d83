import math

import numpy as np

from vesseldistill.checks import toy_setup
from vesseldistill.distill import (
    DistillConfig, alpha_at, ddl, dice_loss, kl_div, loss_terms,
    patch_counts, prob_vector, psdl, soften_label,
)
from vesseldistill.tensor import Tensor, gradcheck

from test_acceptance import _ddl_oracle


def outputs(net, x):
    """A net's side outputs for x, its prediction first."""
    pred, feats = net.forward(x)
    return net.side_outputs(feats, pred)


def total_loss(sides, teacher_sides, y, cfg, alpha):
    """The objective: the unweighted sum of loss_terms' three terms."""
    terms = loss_terms(sides, teacher_sides, y, cfg, alpha)
    return terms["ddl"] + terms["psdl"] + terms["dice"]


def hard_counts_oracle(plane, g):
    """Patch fg/bg counts of a plane thresholded at 0.5, by explicit loops."""
    s = plane.shape[0] // g
    rows = []
    for pi in range(g):
        for pj in range(g):
            fg = sum(1.0 for i in range(s) for j in range(s)
                     if plane[pi * s + i, pj * s + j] >= 0.5)
            rows.append([fg, s * s - fg])
    return rows


class TestPatchCounts:
    def test_saturated_foreground(self):
        z = patch_counts(Tensor(np.ones((1, 8, 8))), 2)
        np.testing.assert_allclose(z.data, [[16.0, 0.0]] * 4)

    def test_checkerboard(self):
        board = np.indices((4, 4)).sum(axis=0) % 2
        z = patch_counts(Tensor(board[None].astype(float)), 2)
        np.testing.assert_allclose(z.data, [[2.0, 2.0]] * 4)

    def test_soft_constant_half(self):
        z = patch_counts(Tensor(np.full((1, 4, 4), 0.5)), 2)
        np.testing.assert_allclose(z.data, [[2.0, 2.0]] * 4)

    def test_soft_equals_hard_on_binary_maps(self):
        rng = np.random.default_rng(1)
        plane = (rng.uniform(size=(8, 8)) < 0.3).astype(float)
        soft = patch_counts(Tensor(plane[None]), 2)
        np.testing.assert_allclose(soft.data, hard_counts_oracle(plane, 2))

    def test_rows_sum_to_patch_area(self):
        rng = np.random.default_rng(2)
        z = patch_counts(Tensor(rng.uniform(size=(1, 8, 8))), 4)
        np.testing.assert_allclose(z.data.sum(axis=1), 4.0, atol=1e-9)


class TestProbVector:
    def test_uniform_on_equal_counts(self):
        z = Tensor(np.full((4, 2), 8.0))
        p = prob_vector(z, tau=3.0).data
        np.testing.assert_allclose(p, 1.0 / 8)

    def test_closed_form_single_patch(self):
        p = prob_vector(Tensor(np.array([[1.0, 0.0]])), tau=1.0).data
        np.testing.assert_allclose(p, [0.7311, 0.2689], atol=1e-4)

    def test_paper_scale_counts_stay_finite(self):
        # raw counts up to 128*128 per patch; normalization keeps logits O(1)
        z = np.array([[16384.0, 0.0], [9000.0, 7384.0]])
        p = prob_vector(Tensor(z), tau=3.0).data
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-9)


class TestKLDiv:
    def test_near_onehot_vs_uniform(self):
        eps = 1e-7
        p = Tensor(np.array([1 - eps, eps]))
        q = Tensor(np.array([0.5, 0.5]))
        assert abs(kl_div(p, q).item() - math.log(2)) < 1e-4

    def test_gradient_flows_into_first_argument_only(self):
        p = Tensor(np.array([0.3, 0.7]), requires_grad=True)
        q = Tensor(np.array([0.6, 0.4]), requires_grad=True)
        kl_div(p, q).backward()
        assert p.grad is not None
        assert q.grad is None


class TestDDL:
    def test_identical_networks_give_zero(self):
        cfg = DistillConfig(grid_g=2)
        student, _, x, _ = toy_setup(0)
        sides = outputs(student, x)
        assert abs(ddl(sides, sides, cfg).item()) < 1e-9

    def test_single_depth_reduces_to_kl(self):
        cfg = DistillConfig(grid_g=2)
        rng = np.random.default_rng(6)
        ys = Tensor(rng.uniform(size=(1, 4, 4)))
        yt = Tensor(rng.uniform(size=(1, 4, 4)))
        expected = kl_div(
            prob_vector(patch_counts(ys, 2), cfg.tau),
            prob_vector(patch_counts(yt, 2), cfg.tau)).item()
        assert abs(ddl([ys], [yt], cfg).item() - expected) < 1e-12

    def test_soft_mode_gradient_vs_finite_differences(self):
        cfg = DistillConfig(grid_g=2)
        rng = np.random.default_rng(8)
        ys = Tensor(rng.uniform(0.1, 0.9, size=(1, 4, 4)), requires_grad=True)
        yt = Tensor(rng.uniform(0.1, 0.9, size=(1, 4, 4)))
        ok, _ = gradcheck(lambda ys: ddl([ys], [yt], cfg), (ys,))
        assert ok


class TestDistillConfig:
    def test_a_float_field_takes_an_int(self):
        assert DistillConfig(tau=3, alpha_T=1).tau == 3


class TestSoftenLabel:
    def test_alpha_zero_is_ground_truth(self):
        yt = Tensor(np.full((1, 2, 2), 0.8))
        y = Tensor(np.array([[[1.0, 0.0], [0.0, 1.0]]]))
        np.testing.assert_array_equal(soften_label(yt, y, 0.0).data, y.data)

    def test_alpha_one_is_teacher(self):
        yt = Tensor(np.full((1, 2, 2), 0.8))
        y = Tensor(np.ones((1, 2, 2)))
        np.testing.assert_allclose(soften_label(yt, y, 1.0).data, yt.data)

    def test_halfway_blend(self):
        yt = Tensor(np.full((1, 1, 1), 0.8))
        y = Tensor(np.ones((1, 1, 1)))
        assert abs(soften_label(yt, y, 0.5).data[0, 0, 0] - 0.9) < 1e-15

    def test_output_between_inputs(self):
        rng = np.random.default_rng(10)
        yt = rng.uniform(size=(1, 4, 4))
        y = (rng.uniform(size=(1, 4, 4)) < 0.5).astype(float)
        out = soften_label(Tensor(yt), Tensor(y), 0.3).data
        assert np.all(out >= np.minimum(yt, y) - 1e-12)
        assert np.all(out <= np.maximum(yt, y) + 1e-12)


class TestPSDL:
    def test_half_on_half_is_log2(self):
        half = Tensor(np.full((1, 4, 4), 0.5))
        assert abs(psdl(half, half).item() - math.log(2)) < 1e-12

    def test_confident_correct_approaches_zero(self):
        ones = Tensor(np.ones((1, 2, 2)))
        pred = Tensor(np.full((1, 2, 2), 1.0 - 1e-7))
        assert psdl(pred, ones).item() < 1e-5

    def test_minimized_at_target_mean(self):
        rng = np.random.default_rng(11)
        target = rng.uniform(size=(1, 4, 4))
        mean = target.mean()
        losses = {
            p: psdl(Tensor(np.full((1, 4, 4), p)), Tensor(target)).item()
            for p in np.linspace(0.05, 0.95, 19)
        }
        best = min(losses, key=losses.get)
        assert abs(best - mean) <= 0.05 + 1e-12

    def test_gradient_into_prediction_only(self):
        rng = np.random.default_rng(12)
        p = Tensor(rng.uniform(0.1, 0.9, size=(1, 2, 2)), requires_grad=True)
        target = Tensor(rng.uniform(size=(1, 2, 2)), requires_grad=True)
        psdl(p, target).backward()
        assert p.grad is not None
        assert target.grad is None


class TestDiceLoss:
    def test_perfect_overlap(self):
        y = Tensor((np.random.default_rng(13).uniform(size=(1, 4, 4)) < 0.5)
                   .astype(float))
        assert y.data.sum() > 0
        assert abs(dice_loss(y, y).item()) < 1e-6

    def test_no_overlap_near_one(self):
        y = Tensor(np.ones((1, 4, 4)))
        pred = Tensor(np.zeros((1, 4, 4)))
        assert dice_loss(pred, y).item() > 1.0 - 1e-5

    def test_half_prediction_half_mask(self):
        y = np.zeros((1, 4, 4))
        y[0, :2, :] = 1.0  # exactly half set
        pred = Tensor(np.full((1, 4, 4), 0.5))
        assert abs(dice_loss(pred, Tensor(y)).item() - 0.5) < 1e-6

    def test_range(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            pred = Tensor(rng.uniform(size=(1, 4, 4)))
            y = Tensor((rng.uniform(size=(1, 4, 4)) < 0.5).astype(float))
            v = dice_loss(pred, y).item()
            assert 0.0 <= v <= 1.0


class TestTotalLoss:
    def test_epoch1_is_dice_only(self):
        student, _, x, y = toy_setup(2)
        pred = student.forward(x)[0]
        cfg = DistillConfig(grid_g=2)
        total = total_loss([pred], None, y, cfg, 0.0)
        assert abs(total.item() - dice_loss(pred, y).item()) < 1e-12

    def test_identical_teacher_small_alpha(self):
        student, _, x, y = toy_setup(3)
        cfg = DistillConfig(grid_g=2, alpha_T=0.01)
        sides = outputs(student, x)
        t_sides = [s.detach() for s in outputs(student, x)]
        alpha = alpha_at(2, 100, 0.01)
        total = total_loss(sides, t_sides, y, cfg, alpha)
        soft = soften_label(t_sides[0], y, alpha)
        expected = psdl(sides[0], soft).item() + dice_loss(sides[0], y).item()
        assert abs(total.item() - expected) < 1e-9

    def test_matches_term_by_term_oracle(self):
        student, teacher, x, y = toy_setup(4)
        cfg = DistillConfig(grid_g=2)
        sides = outputs(student, x)
        t_sides = outputs(teacher, x)
        total = total_loss(sides, t_sides, y, cfg, alpha_at(2, 4, cfg.alpha_T))

        # independent scalar recomputation of all three terms, the DDL by criterion 2's oracle
        want = _ddl_oracle([s.data for s in sides], [s.data for s in t_sides], cfg)
        alpha = 0.5 * 2 / 4
        pred = sides[0]
        soft = alpha * t_sides[0].data + (1 - alpha) * y.data
        p = np.clip(pred.data, 1e-7, 1 - 1e-7)
        want += float(-(soft * np.log(p) + (1 - soft) * np.log(1 - p)).mean())
        num = 2 * float((pred.data * y.data).sum()) + 1e-7
        den = float(pred.data.sum() + y.data.sum()) + 1e-7
        want += 1 - num / den
        assert abs(total.item() - want) < 1e-9

    def test_teacher_presence_is_the_only_switch(self):
        """Without a teacher the loss is dice alone, whatever alpha is."""
        student, _, x, y = toy_setup(5)
        sides = outputs(student, x)
        cfg = DistillConfig(grid_g=2)
        dice = dice_loss(sides[0], y).item()
        for alpha in (0.0, 0.25, 1.0):
            terms = loss_terms(sides, None, y, cfg, alpha)
            assert terms["ddl"].item() == 0.0 and terms["psdl"].item() == 0.0
            assert terms["dice"].item() == dice
            assert total_loss(sides, None, y, cfg, alpha).item() == dice
