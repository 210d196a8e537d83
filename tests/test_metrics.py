import numpy as np
import pytest

from vesseldistill.metrics import (
    ConfusionCounts, compute_metrics, confusion, evaluate_pairs,
)
from vesseldistill.tensor import ShapeError, Tensor


class TestConfusion:
    def test_all_four_cells(self):
        pred = np.array([[0.9, 0.2], [0.8, 0.1]])
        gt = np.array([[1.0, 1.0], [0.0, 0.0]])
        c = confusion(pred, gt)
        assert (c.tp, c.fn, c.fp, c.tn) == (1, 1, 1, 1)

    def test_threshold_boundary_is_foreground(self):
        c = confusion(np.array([0.5]), np.array([1.0]))
        assert c.tp == 1

    def test_accepts_tensors(self):
        c = confusion(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))))
        assert c.tp == 4 and c.total == 4

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            confusion(np.ones((2, 2)), np.ones((2, 3)))

    @pytest.mark.parametrize("masks", ["random", "empty", "full", "empty-vs-full"])
    def test_equals_the_four_count_formula(self, masks):
        rng = np.random.default_rng(7)
        shape = (1, 17, 23)
        pred, gt = rng.uniform(size=shape), rng.uniform(size=shape)
        pred[0, 0, 0], gt[0, 0, 0] = 0.5, np.nan  # the threshold itself, and no number
        if masks != "random":
            pred = np.full(shape, 0.0 if masks.startswith("empty") else 1.0)
            gt = np.full(shape, 1.0 if masks.endswith("full") else 0.0)
        pb, yb = pred >= 0.5, gt >= 0.5
        expected = (np.count_nonzero(pb & yb), np.count_nonzero(~pb & ~yb),
                    np.count_nonzero(pb & ~yb), np.count_nonzero(~pb & yb))
        c = confusion(pred, gt)
        assert (c.tp, c.tn, c.fp, c.fn) == expected
        assert all(type(n) is int for n in (c.tp, c.tn, c.fp, c.fn))


class TestComputeMetrics:
    def test_worked_example(self):
        r = compute_metrics(ConfusionCounts(tp=2, tn=12, fp=1, fn=1))
        assert abs(r.dsc - 0.6667) < 5e-5
        assert abs(r.acc - 0.8750) < 5e-5
        assert abs(r.sen - 0.6667) < 5e-5
        assert abs(r.iou - 0.5000) < 5e-5
        assert not r.degenerate

    def test_perfect(self):
        r = compute_metrics(ConfusionCounts(tp=5, tn=11, fp=0, fn=0))
        assert (r.dsc, r.acc, r.sen, r.iou) == (1.0, 1.0, 1.0, 1.0)

    def test_both_empty_degenerate(self):
        r = compute_metrics(ConfusionCounts(tp=0, tn=16, fp=0, fn=0))
        assert (r.dsc, r.acc, r.sen, r.iou) == (1.0, 1.0, 1.0, 1.0)
        assert r.degenerate

    def test_empty_gt_nonempty_pred(self):
        r = compute_metrics(ConfusionCounts(tp=0, tn=12, fp=4, fn=0))
        assert r.sen == 0.0
        assert r.dsc == 0.0
        assert r.degenerate

    def test_dice_iou_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 50, size=4))
            if tp + fp + fn == 0:
                continue
            r = compute_metrics(ConfusionCounts(tp, tn, fp, fn))
            assert abs(r.dsc - 2 * r.iou / (1 + r.iou)) < 1e-12


class TestEvaluatePairs:
    @staticmethod
    def set_oracle(pred, gt):
        """Independent reference via index-set arithmetic."""
        p = {i for i, v in enumerate(np.asarray(pred).ravel()) if v >= 0.5}
        y = {i for i, v in enumerate(np.asarray(gt).ravel()) if v >= 0.5}
        n = np.asarray(pred).size
        tp = len(p & y)
        fp = len(p - y)
        fn = len(y - p)
        tn = n - tp - fp - fn
        if tp + fn == 0 and tp + fp == 0:
            return 1.0, 1.0, 1.0, 1.0
        dsc = 2 * tp / (2 * tp + fp + fn)
        acc = (tp + tn) / n
        sen = 0.0 if tp + fn == 0 else tp / (tp + fn)
        iou = tp / (tp + fp + fn)
        return dsc, acc, sen, iou

    def test_macro_matches_set_oracle_1000_pairs(self):
        rng = np.random.default_rng(1)
        pairs = []
        oracle = np.zeros(4)
        for _ in range(1000):
            pred = rng.uniform(size=(16, 16))
            gt = (rng.uniform(size=(16, 16)) < rng.uniform(0.0, 0.6)).astype(float)
            pairs.append((pred, gt))
            oracle += self.set_oracle(pred, gt)
        r = evaluate_pairs(pairs)
        np.testing.assert_allclose(
            [r.dsc, r.acc, r.sen, r.iou], oracle / 1000, atol=1e-12)

    def test_as_dict_keys(self):
        r = evaluate_pairs([(np.ones(4), np.ones(4))])
        assert list(r.as_dict().keys()) == ["DSC", "ACC", "SEN", "IOU"]

    def test_empty_input(self):
        with pytest.raises(ValueError):
            evaluate_pairs([])
