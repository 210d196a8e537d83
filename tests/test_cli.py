import json
import re
import shutil

import numpy as np
import pytest

from vesseldistill import cli
from vesseldistill.cli import main
from vesseldistill.data import load_pgm, load_sample_dir, save_pgm, split
from vesseldistill.network import NetworkConfig, SegNetwork, save_checkpoint
from vesseldistill.train import TrainConfig, train


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


def json_bytes(value):
    return np.frombuffer(json.dumps(value).encode(), np.uint8)


def rewrite(source, path, edit):
    """Copy the checkpoint `source` to `path`, after edit(payload, meta) has changed
    its members and its decoded meta in place."""
    with np.load(source) as z:
        payload = {k: z[k] for k in z.files}
    meta = json.loads(payload.pop("meta").tobytes())
    edit(payload, meta)
    payload.setdefault("meta", json_bytes(meta))  # unless edit set the member itself
    np.savez(path, **payload)


def in_the_older_layout(payload, meta):
    """As files were written before the run record moved into meta: meta names the
    dtype and holds no run, and extra:train_config and extra:logs hold the record as
    JSON bytes, each logged row a list of values in field order."""
    run = meta.pop("run")
    meta["dtype"] = str(payload["params"].dtype)
    payload["extra:train_config"] = json_bytes(run["train_config"])
    payload["extra:logs"] = json_bytes([list(row.values()) for row in run["logs"]])


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

    def test_negative_seed_is_usage_error_naming_it(self, tmp_path, capsys):
        out = tmp_path / "negative"
        assert main(["generate-data", "--out", str(out), "--count", "2",
                     "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

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

    def test_a_mask_of_another_shape_is_usage_error_naming_it(self, data_dir, tmp_path,
                                                             capsys):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        mask = sorted((data / "masks").glob("*.pgm"))[3]
        save_pgm(np.zeros((16, 16)), mask)
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), f"out_dir={out}", *TINY]) == 1
        assert (capsys.readouterr().err
                == f"error: {mask}: mask is 16x16, but its image is 32x32\n")
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

    @pytest.mark.parametrize("override", ["foo=1", "network.foo=1", "distill.eps=1e-7"])
    def test_an_unknown_field_is_named_by_its_dotted_path(self, data_dir, tmp_path, capsys,
                                                          override):
        out = tmp_path / "unknown"
        assert main(["train", "--data", str(data_dir), f"out_dir={out}",
                     *TINY, override]) == 1
        field = override.split("=")[0]
        assert capsys.readouterr().err == f"error: unknown config field {field}\n"
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

    def test_an_image_the_net_cannot_take_is_usage_error_naming_the_sample(
            self, run_dir, tmp_path, capsys):
        for part in ("images", "masks"):
            (tmp_path / part).mkdir()
            save_pgm(np.zeros((7, 7)), tmp_path / part / "odd.pgm")
        assert main(["evaluate", "--checkpoint", str(run_dir / "best.npz"),
                     "--data", str(tmp_path), "--split", "all"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: sample 'odd': input shape (1, 7, 7) is not [1,H,W]")

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

    def test_a_checkpoint_without_meta_exits_1_naming_it(self, data_dir, run_dir, tmp_path,
                                                         capsys):
        with np.load(run_dir / "best.npz") as z:
            payload = {k: z[k] for k in z.files if k != "meta"}
        bare = tmp_path / "bare.npz"
        np.savez(bare, **payload)
        image = sorted((data_dir / "images").glob("*.pgm"))[0]
        code = main(["predict", "--checkpoint", str(bare), "--image", str(image),
                     "--out", str(tmp_path / "pred.pgm")])
        assert code == 1
        assert f"error: {bare}: no meta member" in capsys.readouterr().err

    @pytest.mark.parametrize("make, refusal", [
        (lambda path, source: path.write_bytes(b"garbage"), "not an .npz archive"),
        (lambda path, source: save_pgm(np.zeros((4, 4)), path), "not an .npz archive"),
        (lambda path, source: np.save(open(path, "wb"), np.zeros(3)), "not an .npz archive"),
        (lambda path, source: rewrite(source, path, lambda payload, meta: payload.update(
            meta=json_bytes([meta]))), "meta is no JSON object holding a config object"),
        (lambda path, source: rewrite(source, path, lambda payload, meta: payload.update(
            meta=np.frombuffer(b"{", np.uint8))), "meta is no JSON object"),
        (lambda path, source: rewrite(source, path, lambda payload, meta: meta.pop("config")),
         "meta is no JSON object holding a config object and an int epoch"),
        (lambda path, source: rewrite(source, path, lambda payload, meta: meta.pop("epoch")),
         "meta is no JSON object holding a config object and an int epoch"),
        (lambda path, source: rewrite(source, path, lambda payload, meta: payload.update(
            params=payload["params"].astype(np.int32))),
         "params has dtype int32, not float32 or float64"),
        (lambda path, source: rewrite(source, path, lambda payload, meta: meta.update(
            run=[1])), "its run record is neither null nor an object holding"),
        (lambda path, source: rewrite(source, path, lambda payload, meta: meta["run"].pop(
            "logs")), "its run record is neither null nor an object holding"),
    ], ids=["garbage", "pgm", "npy", "meta-list", "meta-not-json", "no-config", "no-epoch",
            "int-params", "run-list", "run-without-logs"])
    def test_a_file_save_checkpoint_did_not_write_exits_1_naming_it(
            self, data_dir, run_dir, tmp_path, capsys, make, refusal):
        path = tmp_path / "ckpt.npz"
        make(path, run_dir / "best.npz")
        image = sorted((data_dir / "images").glob("*.pgm"))[0]
        code = main(["predict", "--checkpoint", str(path), "--image", str(image),
                     "--out", str(tmp_path / "pred.pgm")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {refusal}")
        assert not (tmp_path / "pred.pgm").exists()

    def test_a_checkpoint_of_the_older_layout_predicts_and_evaluates_the_same(
            self, data_dir, run_dir, tmp_path, capsys):
        """A file written before the run record moved into meta is read as before
        for inference; it has no record to split by or to resume from."""
        old = tmp_path / "old.npz"
        rewrite(run_dir / "last.npz", old, in_the_older_layout)
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

        assert main(["evaluate", "--checkpoint", str(old), "--data", str(data_dir)]) == 1
        assert capsys.readouterr().err.endswith("; pass --seed\n")
        cfg = TrainConfig.from_dict(cli._apply_overrides({}, [f"out_dir={tmp_path}", *TINY]))
        with pytest.raises(ValueError, match=f"^cannot resume from {re.escape(str(old))}: "
                                             "it stores no run record"):
            train(cfg, split(load_sample_dir(data_dir), seed=0), resume_from=old)

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

    @pytest.mark.parametrize("csv", ["missing/sweep.csv", "dir"])
    def test_a_csv_path_it_cannot_write_trains_nothing(self, data_dir, tmp_path, capsys,
                                                       csv):
        (tmp_path / "dir").mkdir()
        out = tmp_path / "sweep"
        code = main(["sweep", "--axis", "tau", "--values", "1,2", "--csv", str(tmp_path / csv),
                     "--data", str(data_dir), "epochs=1", f"out_dir={out}", *TINY[:-2]])
        assert code == 1
        assert capsys.readouterr().err == (f"error: --csv {tmp_path / csv} names no file "
                                           "in an existing directory\n")
        assert not out.exists()

    @pytest.mark.parametrize("values, item", [("1,x", "'x'"), ("1,,2", "''"), ("", "''")])
    def test_a_values_item_that_is_no_number_is_named(self, data_dir, tmp_path, capsys,
                                                      monkeypatch, values, item):
        monkeypatch.setattr(cli, "load_sample_dir", None)  # reading the data would fail
        out = tmp_path / "sweep"
        code = main(["sweep", "--axis", "tau", "--values", values,
                     "--data", str(data_dir), "epochs=1", f"out_dir={out}", *TINY[:-2]])
        assert code == 1
        assert capsys.readouterr().err == f"error: --values item {item} is not a number\n"
        assert not out.exists()

    @pytest.mark.parametrize("item, named", [
        ("true", "True"), ("null", "None"), ("[1]", "[1]"), ('"x"', "'x'")])
    def test_a_values_item_that_is_json_but_no_number_is_named(self, data_dir, tmp_path,
                                                               capsys, item, named):
        out = tmp_path / "sweep"
        code = main(["sweep", "--axis", "tau", "--values", f"1,{item}",
                     "--data", str(data_dir), "epochs=1", f"out_dir={out}", *TINY[:-2]])
        assert code == 1
        assert capsys.readouterr().err == f"error: tau value {named} is not a number\n"
        assert not out.exists()


def a_dir(tmp_path):
    (tmp_path / "dir").mkdir()
    return tmp_path / "dir"


def a_file(tmp_path):
    (tmp_path / "file").write_text("")
    return tmp_path / "file"


class TestBadPaths:
    # (argv for the path, the data dir and the trained run's dir; the path to make)
    @pytest.mark.parametrize("argv, make", [
        (lambda path, data, run: ["predict", "--checkpoint", str(run / "best.npz"), "--image",
                                  str(path), "--out", str(path.parent / "mask.pgm")], a_dir),
        (lambda path, data, run: ["predict", "--checkpoint", str(path), "--image",
                                  str(next((data / "images").iterdir())),
                                  "--out", str(path.parent / "mask.pgm")], a_dir),
        (lambda path, data, run: ["predict", "--checkpoint", str(run / "best.npz"), "--image",
                                  str(next((data / "images").iterdir())), "--out", str(path)],
         a_dir),
        (lambda path, data, run: ["train", "--data", str(data), f"out_dir={path}", *TINY],
         a_file),
        (lambda path, data, run: ["train", "--data", str(data), "--config", str(path)], a_dir),
        (lambda path, data, run: ["train", "--data", str(path / "nowhere"), *TINY], a_dir),
        (lambda path, data, run: ["generate-data", "--out", str(path), "--count", "1"], a_file),
        (lambda path, data, run: ["evaluate", "--checkpoint", str(run / "best.npz"),
                                  "--data", str(data), "--csv", str(path)], a_dir),
        (lambda path, data, run: ["evaluate", "--checkpoint", str(path / "no.npz"),
                                  "--data", str(data)], a_dir),
    ], ids=["predict-image-dir", "predict-checkpoint-dir", "predict-out-dir",
            "train-out-dir-file", "train-config-dir", "train-data-missing",
            "generate-data-out-file", "evaluate-csv-dir", "evaluate-checkpoint-missing"])
    def test_a_bad_path_exits_1_with_one_error_line_naming_it(self, data_dir, run_dir,
                                                              tmp_path, capsys, argv, make):
        path = make(tmp_path)
        assert main(argv(path, data_dir, run_dir)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(path) in err


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
