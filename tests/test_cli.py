import json

import numpy as np
import pytest

from vesseldistill import cli
from vesseldistill.cli import main
from vesseldistill.data import load_pgm, load_sample_dir, split
from vesseldistill.network import NetworkConfig, SegNetwork, save_checkpoint
from vesseldistill.train import TrainConfig

from _checkpoints import older_layout, rewrite


TINY = [
    "network.depth=2", "network.base_channels=4",
    "network.height=32", "network.width=32",
    "epochs=2", "distill.grid_g=4",
]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    assert main(["generate-data", "--out", str(d), "--count", "10",
                 "--size", "32", "--seed", "5"]) == 0
    return d


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("run")
    code = main(["train", "--data", str(data_dir),
                 f"out_dir={out}", *TINY])
    assert code == 0
    return out


class TestGenerateData:
    def test_writes_matched_images_and_masks(self, data_dir):
        samples = load_sample_dir(data_dir)
        assert len(samples) == 10
        for s in samples:
            assert s.image.data.shape == (1, 32, 32)

    def test_deterministic_across_invocations(self, data_dir, tmp_path):
        assert main(["generate-data", "--out", str(tmp_path), "--count", "10",
                     "--size", "32", "--seed", "5"]) == 0
        a = load_sample_dir(data_dir)
        b = load_sample_dir(tmp_path)
        for s, t in zip(a, b):
            np.testing.assert_array_equal(s.image.data, t.image.data)


class TestTrain:
    def test_writes_checkpoints_and_log(self, run_dir):
        assert (run_dir / "last.npz").exists()
        assert (run_dir / "best.npz").exists()
        assert (run_dir / "epochs.csv").exists()

    def test_config_file_plus_override(self, data_dir, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "epochs": 3,
            "network": {"depth": 2, "base_channels": 4,
                        "height": 32, "width": 32},
            "distill": {"grid_g": 4},
            "out_dir": str(tmp_path / "run"),
        }))
        code = main(["train", "--data", str(data_dir),
                     "--config", str(cfg_file), "epochs=1"])
        assert code == 0
        assert "trained 1 epochs" in capsys.readouterr().out

    def test_dotted_override_reaches_nested_section(self):
        from vesseldistill.cli import _apply_overrides
        d = _apply_overrides({}, ["distill.tau=4.5", "seed=3", "lr_gamma=0.5"])
        cfg = TrainConfig.from_dict(d)
        assert cfg.distill.tau == 4.5
        assert cfg.seed == 3
        assert cfg.lr_gamma == 0.5

    def test_an_override_is_key_value_only(self, data_dir, tmp_path, capsys):
        # --epochs=1 is no option, and after a -- separator it is no key either
        out = tmp_path / "dashed"
        assert main(["train", "--data", str(data_dir), f"out_dir={out}", *TINY,
                     "--epochs=1"]) == 1
        assert main(["train", "--data", str(data_dir), f"out_dir={out}", *TINY,
                     "--", "--epochs=1"]) == 1
        assert "--epochs" in capsys.readouterr().err
        assert not out.exists()

    def test_a_bug_inside_training_propagates(self, data_dir, tmp_path, monkeypatch):
        def broken(cfg, dataset):
            raise TypeError("a bug")

        monkeypatch.setattr(cli, "train", broken)
        with pytest.raises(TypeError, match="^a bug$"):
            main(["train", "--data", str(data_dir), f"out_dir={tmp_path / 'bug'}", *TINY])


class TestEvaluate:
    def test_prints_all_metrics(self, data_dir, run_dir, capsys):
        code = main(["evaluate", "--checkpoint", str(run_dir / "best.npz"),
                     "--data", str(data_dir), "--split", "test"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("DSC", "ACC", "SEN", "IOU"):
            assert name in out

    def test_writes_csv(self, data_dir, run_dir, tmp_path):
        csv_path = tmp_path / "m.csv"
        code = main(["evaluate", "--checkpoint", str(run_dir / "best.npz"),
                     "--data", str(data_dir), "--csv", str(csv_path)])
        assert code == 0
        header = csv_path.read_text().splitlines()[0]
        assert header == "DSC,ACC,SEN,IOU"

    def test_split_seed_defaults_to_the_training_seed(self, data_dir, tmp_path, monkeypatch):
        out = tmp_path / "seed3"
        assert main(["train", "--data", str(data_dir), f"out_dir={out}", *TINY, "seed=3"]) == 0
        evaluated = []

        def capture(net, samples, **kwargs):
            evaluated.append([s.id for s in samples])
            return evaluate(net, samples, **kwargs)

        evaluate = cli.evaluate
        monkeypatch.setattr(cli, "evaluate", capture)
        for seed in ([], ["--seed", "3"], ["--seed", "0"]):
            assert main(["evaluate", "--checkpoint", str(out / "best.npz"),
                         "--data", str(data_dir), "--split", "test", *seed]) == 0
        samples = load_sample_dir(data_dir)
        trained_with = [s.id for s in split(samples, seed=3).test]
        other = [s.id for s in split(samples, seed=0).test]
        assert trained_with != other
        assert evaluated == [trained_with, trained_with, other]

    def test_split_needs_a_seed_when_the_checkpoint_stores_none(self, data_dir, tmp_path,
                                                                 capsys):
        path = tmp_path / "bare.npz"
        net = SegNetwork(NetworkConfig(depth=2, base_channels=4, height=32, width=32),
                         dtype=np.float32)
        save_checkpoint(path, net, epoch=0)
        assert main(["evaluate", "--checkpoint", str(path), "--data", str(data_dir),
                     "--split", "test"]) == 1
        assert f"{path} stores no training config" in capsys.readouterr().err
        for args in (["--split", "test", "--seed", "0"], ["--split", "all"]):
            assert main(["evaluate", "--checkpoint", str(path), "--data", str(data_dir),
                         *args]) == 0


class TestPredict:
    def test_writes_binary_p5_mask(self, data_dir, run_dir, tmp_path):
        image = sorted((data_dir / "images").glob("*.pgm"))[0]
        out = tmp_path / "pred.pgm"
        code = main(["predict", "--checkpoint", str(run_dir / "best.npz"),
                     "--image", str(image), "--out", str(out)])
        assert code == 0
        mask = load_pgm(out)
        assert mask.shape == (32, 32)
        assert set(np.unique(mask)) <= {0.0, 1.0}

    def test_a_checkpoint_of_the_older_layout_predicts_and_evaluates_the_same(
            self, data_dir, run_dir, tmp_path, capsys):
        """A file written before the run record moved into meta is read as before
        for inference (test_misuse's no-run-record row refuses to split by it or to
        resume from it)."""
        old = tmp_path / "old.npz"
        rewrite(run_dir / "last.npz", old, older_layout)
        image = sorted((data_dir / "images").glob("*.pgm"))[0]
        outputs = []
        for name, checkpoint in (("new", run_dir / "last.npz"), ("old", old)):
            assert main(["predict", "--checkpoint", str(checkpoint), "--image", str(image),
                         "--out", str(tmp_path / f"{name}.pgm")]) == 0
            capsys.readouterr()
            assert main(["evaluate", "--checkpoint", str(checkpoint), "--data", str(data_dir),
                         "--seed", "0"]) == 0
            outputs.append(((tmp_path / f"{name}.pgm").read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]


class TestGradcheck:
    def test_passes_and_prints_per_check_lines(self, capsys):
        code = main(["gradcheck", "--seeds", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("[ok]") >= 2 * 17
        assert "checks passed" in out


class TestSweep:
    def test_tau_axis_end_to_end(self, data_dir, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", "--axis", "tau", "--values", "1,3",
                     "--data", str(data_dir), "epochs=1",
                     f"out_dir={out}", *TINY[:-2]])
        assert code == 0
        csv = (out / "sweep_tau.csv").read_text().splitlines()
        assert csv[0] == "tau,DSC,ACC,SEN,IOU"
        assert len(csv) == 3


def a_dir(tmp_path):
    (tmp_path / "dir").mkdir()
    return tmp_path / "dir"


def in_no_dir(tmp_path):
    return tmp_path / "missing" / "out"


class TestBadPaths:
    @pytest.mark.parametrize("argv", [
        lambda path, data, run: ["evaluate", "--checkpoint", str(run / "best.npz"),
                                 "--data", str(data), "--csv", str(path)],
        lambda path, data, run: ["predict", "--checkpoint", str(run / "best.npz"), "--image",
                                 str(next((data / "images").iterdir())), "--out", str(path)],
    ], ids=["evaluate-csv", "predict-out"])
    @pytest.mark.parametrize("make", [a_dir, in_no_dir], ids=["dir", "in-no-dir"])
    def test_an_output_path_is_refused_before_the_checkpoint_is_read(
            self, data_dir, run_dir, tmp_path, capsys, monkeypatch, argv, make):
        def work(*args, **kwargs):
            raise AssertionError("the checkpoint was read before the output path was checked")

        monkeypatch.setattr(cli, "load_checkpoint", work)
        monkeypatch.setattr(cli, "predict_to_file", work)
        path = make(tmp_path)
        assert main(argv(path, data_dir, run_dir)) == 1
        option = "--csv" if "--csv" in argv(path, data_dir, run_dir) else "--out"
        assert capsys.readouterr().err == (f"error: {option} {path} names no file "
                                           "in an existing directory\n")


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_flag_is_usage_error(self):
        assert main(["gradcheck", "--bogus"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("option, command", [
        ("--seed", ["gradcheck"]),  # once read as --seeds: seeds 0-2 ran
        ("--cou", ["generate-data", "--out", "{out}"]),
    ], ids=["gradcheck-seed", "generate-data-cou"])
    def test_an_option_prefix_is_refused_and_runs_nothing(self, option, command, tmp_path,
                                                          capsys, monkeypatch):
        out = tmp_path / "out"
        monkeypatch.setattr(cli.checks, "run_suite", lambda *a, **k: pytest.fail("ran"))
        argv = [a.format(out=out) for a in command] + [option, "3"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {option} 3" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["evaluate", "--checkpoint", "c.npz", "--data", "d"],
        ["predict", "--checkpoint", "c.npz", "--image", "i.pgm", "--out", "o.pgm"],
    ], ids=["evaluate", "predict"])
    def test_threshold_is_no_option(self, command, capsys):
        # foreground is a value >= 0.5, for the metrics and masks alike
        assert main([*command, "--threshold", "0.3"]) == 1
        assert "unrecognized arguments: --threshold 0.3" in capsys.readouterr().err
