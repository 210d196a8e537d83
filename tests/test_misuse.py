"""The misuse matrix: every bad input, at every entry point, from one table.

Rows are classes of bad input. Columns are the CLI's six subcommands, each
with the argument the input is given to, plus a config built directly (the
dataclass) and through `TrainConfig.from_dict`. A CLI cell runs `cli.main` and
asserts exit 1, exactly one stderr line `error: ...` matching the cell's
expected text, which names the offending path, option, dotted config field or
sample, nothing on stdout, and nothing created in the cell's directory. A
config cell asserts the ValueError's message. argparse's own refusals print
a usage line as well; they are in test_cli.py's TestExitCodes.
"""

import dataclasses
import json
import re
import shutil
from types import SimpleNamespace

import numpy as np
import pytest

from vesseldistill.cli import main
from vesseldistill.data import generate_synthetic, save_pgm, save_sample_dir
from vesseldistill.distill import DistillConfig
from vesseldistill.network import _FIELD_TYPES, NetworkConfig, SegNetwork, save_checkpoint
from vesseldistill.train import TrainConfig

# a depth-3 net takes sides divisible by 4; every command line trains (if it
# got that far) one epoch of it on 32x32 images
BASE = ["network.depth=3", "network.base_channels=4", "network.height=32",
        "network.width=32", "distill.grid_g=4", "epochs=1"]
SHAPE = "is not [1,H,W] with H and W divisible by 2^(depth-1) = 4"


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    """The good inputs every cell starts from: a 10-sample 32x32 dataset, one of its
    images, and a depth-3 checkpoint whose run record holds its split seed."""
    root = tmp_path_factory.mktemp("good")
    save_sample_dir(generate_synthetic(seed=5, count=10, size=32), root / "data")
    cfg = TrainConfig.from_dict({"network": {"depth": 3, "base_channels": 4,
                                             "height": 32, "width": 32}})
    save_checkpoint(root / "ckpt.npz", SegNetwork(cfg.network, dtype=np.float32), 1,
                    run={"train_config": cfg.to_dict(), "logs": []})
    return SimpleNamespace(data=root / "data", ckpt=root / "ckpt.npz",
                           image=next((root / "data" / "images").iterdir()))


GOOD = {  # a command line of each subcommand that runs, as option -> value
    "generate-data": lambda ctx, tmp: {"out": tmp / "gen", "count": 2, "size": 32},
    "train": lambda ctx, tmp: {"data": ctx.data},
    "evaluate": lambda ctx, tmp: {"checkpoint": ctx.ckpt, "data": ctx.data},
    "predict": lambda ctx, tmp: {"checkpoint": ctx.ckpt, "image": ctx.image,
                                 "out": tmp / "mask.pgm"},
    "gradcheck": lambda ctx, tmp: {"seeds": 1},
    "sweep": lambda ctx, tmp: {"axis": "tau", "values": 1, "data": ctx.data},
}


def command(name, ctx, tmp, *overrides, **options):
    """GOOD's command line for `name` with `options` replacing or adding options,
    then, for train and sweep, out_dir in `tmp`, BASE and `overrides`."""
    opts = {**GOOD[name](ctx, tmp), **options}
    argv = [name] + [str(a) for k, v in opts.items() for a in (f"--{k}", v)]
    if name in ("train", "sweep"):
        argv += [f"out_dir={tmp / 'run'}", *BASE, *overrides]
    return argv


# ---- bad paths and files: each maker builds one in the cell's directory and
# returns it with the regex its refusal must match

def missing(ctx, tmp):
    return tmp / "missing", re.escape(str(tmp / "missing"))


def a_dir(ctx, tmp):
    (tmp / "dir").mkdir()
    return tmp / "dir", re.escape(str(tmp / "dir"))


def a_file(ctx, tmp):
    (tmp / "file").write_text("")
    return tmp / "file", re.escape(str(tmp / "file"))


def in_no_dir(ctx, tmp):
    path = tmp / "missing" / "out"
    return path, re.escape(f"{path} names no file in an existing directory")


def empty_data(ctx, tmp):
    for part in ("images", "masks"):
        (tmp / "data" / part).mkdir(parents=True)
    return tmp / "data", re.escape(f"no .pgm images under {tmp / 'data' / 'images'}")


def data_with(edit):
    """A maker of a copy of the good dataset after edit(its root) -> (path, text)."""
    def make(ctx, tmp):
        shutil.copytree(ctx.data, tmp / "data")
        return tmp / "data", edit(tmp / "data")
    return make


def image_file(content, refusal):
    """Makers of an image file holding `content`, and of a dataset whose first image it
    is; either is refused naming the file and saying `refusal`."""
    def write(path):
        path.write_bytes(content)
        return re.escape(f"{path}: {refusal}")

    def image(ctx, tmp):
        return tmp / "image.pgm", write(tmp / "image.pgm")

    def data(root):
        return write(sorted((root / "images").iterdir())[0])
    return image, data_with(data)


def other_mask(root):
    mask = sorted((root / "masks").iterdir())[3]
    save_pgm(np.zeros((16, 16)), mask)
    return re.escape(f"{mask}: mask is 16x16, but its image is 32x32")


def odd_size_data(ctx, tmp):
    save_sample_dir(generate_synthetic(seed=5, count=10, size=30), tmp / "data")
    shape = re.escape(f"input shape (1, 30, 30) {SHAPE}")
    return tmp / "data", rf"sample 'synthetic-5-\d{{4}}': {shape}"


def odd_size_image(ctx, tmp):
    save_pgm(np.zeros((30, 30)), tmp / "image.pgm")
    return tmp / "image.pgm", re.escape(f"--image {tmp / 'image.pgm'}: input shape (1, 30, 30) "
                                        f"{SHAPE}")


def two_samples(ctx, tmp):
    # split 7:1:2, two samples all go to train
    save_sample_dir(generate_synthetic(seed=5, count=2, size=32), tmp / "data")
    return tmp / "data", re.escape(f"--data {tmp / 'data'} holds no test samples")


def no_checkpoint(ctx, tmp):
    (tmp / "ckpt.npz").write_bytes(b"garbage")
    return tmp / "ckpt.npz", re.escape(f"{tmp / 'ckpt.npz'}: not an .npz archive")


def no_run_record(ctx, tmp):
    net = SegNetwork(NetworkConfig(depth=3, base_channels=4, height=32, width=32),
                     dtype=np.float32)
    save_checkpoint(tmp / "ckpt.npz", net, epoch=0)
    return tmp / "ckpt.npz", re.escape(f"{tmp / 'ckpt.npz'} stores no training config to take "
                                       "the split seed from; pass --seed")


NOT_PGM = image_file(b"garbage", "unsupported magic b'ga' (expected P2 or P5)")
TRUNCATED = image_file(b"P5\n32 32\n255\n" + bytes(10), "payload holds 10 bytes, expected 1024")
BAD_PIXEL = image_file(b"P2 2 1 255\n0 x\n", "pixel value 'x' is not a decimal integer")
DATA_COLUMNS = [("train", "data"), ("evaluate", "data"), ("sweep", "data")]

PATH_ROWS = {  # row -> (its maker, the (subcommand, argument) columns it applies to)
    "missing": (missing, [("train", "data"), ("train", "config"), ("evaluate", "checkpoint"),
                          ("evaluate", "data"), ("predict", "checkpoint"),
                          ("predict", "image"), ("sweep", "data"), ("sweep", "config")]),
    "dir-for-file": (a_dir, [("train", "config"), ("evaluate", "checkpoint"),
                             ("evaluate", "csv"), ("predict", "checkpoint"), ("predict", "image"),
                             ("predict", "out"), ("sweep", "config"), ("sweep", "csv")]),
    "file-for-dir": (a_file, [("generate-data", "out"), *DATA_COLUMNS]),
    "file-as-out_dir": (a_file, [("train", "out_dir"), ("sweep", "out_dir")]),
    "out-in-no-dir": (in_no_dir, [("evaluate", "csv"), ("predict", "out"), ("sweep", "csv")]),
    "empty-data": (empty_data, DATA_COLUMNS),
    "not-pgm": (NOT_PGM[1], DATA_COLUMNS),
    "truncated-pgm": (TRUNCATED[1], DATA_COLUMNS),
    "bad-pixel": (BAD_PIXEL[1], DATA_COLUMNS),
    "not-pgm-image": (NOT_PGM[0], [("predict", "image")]),
    "truncated-image": (TRUNCATED[0], [("predict", "image")]),
    "bad-pixel-image": (BAD_PIXEL[0], [("predict", "image")]),
    "other-mask-shape": (data_with(other_mask), DATA_COLUMNS),
    "size-the-net-cannot-take": (odd_size_data, DATA_COLUMNS),
    "image-the-net-cannot-take": (odd_size_image, [("predict", "image")]),
    "no-test-samples": (two_samples, [("evaluate", "data"), ("sweep", "data")]),
    "no-checkpoint": (no_checkpoint, [("evaluate", "checkpoint"), ("predict", "checkpoint")]),
    "no-run-record": (no_run_record, [("evaluate", "checkpoint")]),
}


def path_cell(make, name, option):
    def cell(ctx, tmp):
        path, text = make(ctx, tmp)
        if option == "out_dir":
            return command(name, ctx, tmp, f"out_dir={path}"), text
        return command(name, ctx, tmp, **{option: path}), text
    return cell


def config_file(name, content):
    def cell(ctx, tmp):
        (tmp / "cfg.json").write_text(content)
        must = f"{tmp / 'cfg.json'} must hold a JSON object of TrainConfig fields"
        return command(name, ctx, tmp, config=tmp / "cfg.json"), re.escape(must)
    return cell


def values_cell(name, text, *overrides, **options):
    return lambda ctx, tmp: (command(name, ctx, tmp, *overrides, **options), re.escape(text))


VALUE_CELLS = {  # cell id -> cell
    "seeds-0-gradcheck": values_cell("gradcheck", "--seeds must be at least 1, got 0", seeds=0),
    "seeds-negative-gradcheck": values_cell("gradcheck", "--seeds must be at least 1, got -2",
                                            seeds=-2),
    "count-0-generate-data": values_cell("generate-data", "count must be positive, got 0",
                                         count=0),
    "size-0-generate-data": values_cell("generate-data", "size must be positive, got 0", size=0),
    "seed-negative-generate-data": values_cell("generate-data", "seed must be >= 0, got -1",
                                               seed=-1),
    "values-x-sweep": values_cell("sweep", "--values item 'x' is not a number", values="1,x"),
    "values-empty-item-sweep": values_cell("sweep", "--values item '' is not a number",
                                           values="1,,2"),
    "values-bool-sweep": values_cell("sweep", "tau value True is not a number", values="1,true"),
    "axis-n-5-sweep": values_cell("sweep", "patch count 5 is not a positive whole perfect square",
                                  axis="n", values=5),
    **{f"{row}-{name}": cell for name in ("train", "sweep") for row, cell in {
        "override-no-key-value": values_cell(name, "override 'epochs' is not key=value", "epochs"),
        "override-into-no-mapping": values_cell(
            name, "network must be a mapping to set network.depth, got 5",
            "network=5", "network.depth=3"),
        "config-file-list": config_file(name, "[1]"),
        "config-file-not-json": config_file(name, '{"epochs": 1,\n'),
    }.items()},
}

CLI_CELLS = {
    **{f"{row}-{name}--{option}": path_cell(make, name, option)
       for row, (make, columns) in PATH_ROWS.items() for name, option in columns},
    **VALUE_CELLS,
}


def refused(argv, pattern, tmp, capsys):
    """Assert that `argv` exits 1 with one error line matching `pattern`, no stdout,
    and nothing created under `tmp`."""
    before = sorted(tmp.rglob("*"))
    assert main([str(a) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert re.search(pattern, err), (pattern, err)
    assert sorted(tmp.rglob("*")) == before


@pytest.mark.parametrize("cell", CLI_CELLS.values(), ids=CLI_CELLS.keys())
def test_a_bad_input_is_refused_naming_it(ctx, tmp_path, capsys, cell):
    argv, pattern = cell(ctx, tmp_path)
    refused(argv, pattern, tmp_path, capsys)


# ---- config rows: every leaf of TrainConfig, by its dotted path

def _leaves(cls=TrainConfig, prefix=""):
    for f in dataclasses.fields(cls):
        if isinstance(f.default_factory, type):
            yield from _leaves(f.default_factory, f"{f.name}.")
        else:
            yield prefix + f.name, f.type


LEAVES = dict(_leaves())
# a value of another type than each annotation (see network._check_field_types),
# and the type it must be; dtype is refused by its own rule first
WRONG_TYPE = {"int": 2.5, "float": "x", "bool": "False", "str": 3}
MUST_BE = {"dtype": "float32 or float64"}
OUT_OF_RANGE = {  # leaf -> (a value its type takes and its range does not, the rule)
    "epochs": (0, "must be >= 1"),
    "batch_size": (0, "must be >= 1"),
    "learning_rate": (0.0, "must be > 0"),
    "weight_decay": (-1.0, "must be >= 0"),
    "lr_step_every": (0, "must be >= 1"),
    "lr_gamma": (1.5, "must be in (0, 1]"),
    "seed": (-1, "must be >= 0"),
    "dtype": ("float16", "must be float32 or float64"),
    "distill.tau": (0.0, "must be positive"),
    "distill.grid_g": (0, "must be >= 1"),
    "distill.alpha_T": (1.5, "must be in [0,1]"),
    "network.depth": (1, "must be >= 2"),
    "network.base_channels": (3, "must be >= 4"),
    "network.height": (31, "must be a positive multiple of 2^(depth-1)"),
    "network.width": (0, "must be a positive multiple of 2^(depth-1)"),
}
NO_RANGE = {"out_dir", "dice_only"}  # any string names a directory, either bool is a setting
SECTIONS = {"network": (NetworkConfig, 5), "distill": (DistillConfig, [1])}


def test_the_range_table_covers_every_leaf():
    assert len(LEAVES) == 17
    assert set(OUT_OF_RANGE) | NO_RANGE == set(LEAVES)
    assert set(LEAVES.values()) <= set(WRONG_TYPE)


CONFIG_ROWS = {  # row id -> (dotted path, value, its refusal by dotted path or None)
    **{f"mistyped-{leaf}": (leaf, WRONG_TYPE[t],
                            f"must be {MUST_BE.get(leaf, _FIELD_TYPES[t][1])}")
       for leaf, t in LEAVES.items()},
    **{f"out-of-range-{leaf}": (leaf, value, rule) for leaf, (value, rule) in OUT_OF_RANGE.items()},
    **{f"unknown-{leaf}": (leaf, 1, None) for leaf in ("foo", "network.foo", "distill.eps")},
    **{f"section-{name}": (name, value, f"must be a mapping of {cls.__name__} fields")
       for name, (cls, value) in SECTIONS.items()},
}


def _refusal(leaf, value, rule):
    if rule is None:
        return f"unknown config field {leaf}"
    return f"{leaf} {rule}, got {value!r}"


def _nested(leaf, value):
    section, _, name = leaf.rpartition(".")
    return {section: {name: value}} if section else {name: value}


def build_directly(leaf, value):
    section, _, name = leaf.rpartition(".")
    cls = SECTIONS[section][0] if section else TrainConfig
    cls(**{name: value})


CONFIG_CELLS = {f"{row}-{column}": (column, *spec) for row, spec in CONFIG_ROWS.items()
                for column in ("dataclass", "from_dict", "train", "sweep")
                # an unknown keyword is the constructor's TypeError
                if not (column == "dataclass" and spec[2] is None)}


@pytest.mark.parametrize("column, leaf, value, rule", CONFIG_CELLS.values(),
                         ids=CONFIG_CELLS.keys())
def test_a_bad_config_value_is_refused_naming_its_field(ctx, tmp_path, capsys, column,
                                                        leaf, value, rule):
    if column == "dataclass":
        name = leaf.rpartition(".")[2]
        if name in SECTIONS:  # a section built directly must be its config class
            rule = f"must be a {SECTIONS[name][0].__name__}"
        with pytest.raises(ValueError) as refusal:
            build_directly(leaf, value)
        assert str(refusal.value) == _refusal(name, value, rule)
    elif column == "from_dict":
        with pytest.raises(ValueError) as refusal:
            TrainConfig.from_dict(_nested(leaf, value))
        assert str(refusal.value) == _refusal(leaf, value, rule)
    else:
        argv = command(column, ctx, tmp_path, f"{leaf}={json.dumps(value)}")
        refused(argv, f"^error: {re.escape(_refusal(leaf, value, rule))}\n$", tmp_path, capsys)
