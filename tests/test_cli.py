import json

import numpy as np
import pytest

from vesseldistill import cli
from vesseldistill.cli import main
from vesseldistill.data import load_pgm, load_sample_dir, split
from vesseldistill.network import NetworkConfig, SegNetwork, save_checkpoint
from vesseldistill.train import TrainConfig


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

    def test_empty_size_is_usage_error_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "empty"
        assert main(["generate-data", "--out", str(out), "--count", "2",
                     "--size", "0"]) == 1
        assert "size must be positive, got 0" in capsys.readouterr().err
        assert not out.exists()


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

    def test_malformed_override_is_usage_error(self, data_dir):
        assert main(["train", "--data", str(data_dir), "epochs"]) == 1

    def test_an_override_is_key_value_only(self, data_dir, tmp_path, capsys):
        # --epochs=1 is no option, and after a -- separator it is no key either
        out = tmp_path / "dashed"
        assert main(["train", "--data", str(data_dir), f"out_dir={out}", *TINY,
                     "--epochs=1"]) == 1
        assert main(["train", "--data", str(data_dir), f"out_dir={out}", *TINY,
                     "--", "--epochs=1"]) == 1
        assert "--epochs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("content", ["[1]", '"x"', '{"epochs": 1,\n'],
                             ids=["list", "string", "truncated"])
    def test_config_file_that_holds_no_object_is_usage_error(self, data_dir, tmp_path,
                                                            capsys, content):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(content)
        out = tmp_path / "run"
        assert main(["train", "--data", str(data_dir), "--config", str(cfg_file),
                     f"out_dir={out}", *TINY]) == 1
        assert (f"{cfg_file} must hold a JSON object of TrainConfig fields"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_bad_dtype_is_usage_error_and_trains_nothing(self, data_dir, tmp_path, capsys):
        out = tmp_path / "int"
        assert main(["train", "--data", str(data_dir), f"out_dir={out}",
                     *TINY, "dtype=int32"]) == 1
        assert "dtype must be float32 or float64, got 'int32'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("override, message", [
        # not JSON, so the override arrives as the string "False"
        ("dice_only=False", "dice_only must be true or false, got 'False'"),
        ("epochs=2.5", "epochs must be an int, got 2.5"),
        ("network.depth=2.0", "depth must be an int, got 2.0"),
        ("distill.grid_g=2.0", "grid_g must be an int, got 2.0"),
        # a whole section used to fail in a ** unpacking that named no field
        ("network=5", "network must be a mapping of NetworkConfig fields, got 5"),
        ("distill=[1]", "distill must be a mapping of DistillConfig fields, got [1]"),
    ])
    def test_wrong_typed_override_is_usage_error_and_trains_nothing(
            self, data_dir, tmp_path, capsys, override, message):
        out = tmp_path / "typed"
        assert main(["train", "--data", str(data_dir), f"out_dir={out}",
                     *TINY, override]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, message", [
        (["network=5", "network.depth=3"],
         "network must be a mapping to set network.depth, got 5"),
        (["distill=[1]", "distill.tau=2"],
         "distill must be a mapping to set distill.tau, got [1]"),
    ])
    def test_dotted_override_into_a_non_mapping_names_the_section(
            self, data_dir, tmp_path, capsys, overrides, message):
        out = tmp_path / "walked"
        assert main(["train", "--data", str(data_dir), f"out_dir={out}",
                     *TINY, *overrides]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("override, message", [
        ("distill.grid_g=0", "grid_g must be >= 1, got 0"),
        ("distill.tau=NaN", "tau must be positive, got nan"),
    ])
    def test_bad_patch_grid_or_temperature_trains_nothing(self, data_dir, tmp_path, capsys,
                                                          override, message):
        out = tmp_path / "bad"
        assert main(["train", "--data", str(data_dir), f"out_dir={out}",
                     *TINY, override]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_config_setting_the_removed_epsilon_is_usage_error(self, data_dir, tmp_path):
        cfg_file = tmp_path / "eps.json"
        out = tmp_path / "eps"
        cfg_file.write_text(json.dumps({"distill": {"grid_g": 4, "eps": 1e-7},
                                        "out_dir": str(out)}))
        assert main(["train", "--data", str(data_dir), "--config", str(cfg_file)]) == 1
        assert not out.exists()

    def test_missing_data_dir_is_usage_error(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nowhere"), *TINY]) == 1


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

    def test_bad_checkpoint_path(self, data_dir, tmp_path):
        assert main(["evaluate", "--checkpoint", str(tmp_path / "no.npz"),
                     "--data", str(data_dir)]) == 1

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

    def test_non_numeric_pixel_exits_1_naming_file_and_token(self, run_dir, tmp_path, capsys):
        image = tmp_path / "word.pgm"
        image.write_text("P2 2 1 255\n0 x\n")
        code = main(["predict", "--checkpoint", str(run_dir / "best.npz"),
                     "--image", str(image), "--out", str(tmp_path / "pred.pgm")])
        assert code == 1
        assert "word.pgm: pixel value 'x' is not a decimal integer" in capsys.readouterr().err


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

    def test_non_square_patch_count_is_error(self, data_dir, tmp_path):
        code = main(["sweep", "--axis", "n", "--values", "5",
                     "--data", str(data_dir), "epochs=1",
                     f"out_dir={tmp_path}", *TINY[:-2]])
        assert code == 1

    @pytest.mark.parametrize("bad", ["16.5", "-4", "0"])
    def test_patch_count_that_is_no_positive_whole_square_trains_nothing(
            self, data_dir, tmp_path, capsys, bad):
        out = tmp_path / "sweep"
        code = main(["sweep", "--axis", "n", "--values", f"4,{bad}",
                     "--data", str(data_dir), "epochs=1",
                     f"out_dir={out}", *TINY[:-2]])
        assert code == 1
        assert f"patch count {bad} is not a positive whole perfect square" \
            in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_flag_is_usage_error(self):
        assert main(["gradcheck", "--bogus"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("command", [
        ["evaluate", "--checkpoint", "c.npz", "--data", "d"],
        ["predict", "--checkpoint", "c.npz", "--image", "i.pgm", "--out", "o.pgm"],
    ], ids=["evaluate", "predict"])
    def test_threshold_is_no_option(self, command, capsys):
        # foreground is a value >= 0.5, for the metrics and masks alike
        assert main([*command, "--threshold", "0.3"]) == 1
        assert "unrecognized arguments: --threshold 0.3" in capsys.readouterr().err
