"""The misuse matrix: every refusal, at every entry point, from one table.

A CLI cell runs `cli.main` on a command line of one of the six subcommands
given one bad path, file, option value, config field or checkpoint. It asserts
exit 1, exactly one stderr line `error: ...` matching the cell's expected
text, which names the offending path, option, dotted config field or sample,
nothing on stdout, and nothing created in the cell's directory. argparse's own
refusals print a usage line as well; they are in test_cli.py's TestExitCodes.

A row (ROWS) is a Python call given one bad input, with its exception's type
and whole message: a library function, a config, a checkpoint file loaded or
resumed from, `train` and `sweep` refusing before they train, and `train`
stopped inside an epoch. A call runs in an empty directory of its own, may read
`ctx`, the module's trained run, and asserts what its refusal leaves behind. A
`raise` outside cli.py that no row reaches fails test_every_library_raise_has_a_row;
`main` catches cli.py's, so the CLI cells assert them there, and one in cli.py that
no cell reaches fails test_every_cli_raise_has_a_cell.
"""

import ast
import dataclasses
import functools
import importlib
import json
import multiprocessing
import os
import pathlib
import re
import shutil
import signal
import sys
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import vesseldistill
from vesseldistill import tensor as T
from vesseldistill.cli import main
from vesseldistill.data import (ImageSample, PGMError, PGMMagicError, PGMMaxvalError,
                                PGMTruncatedError, batches, generate_synthetic, load_pgm,
                                load_sample_dir, save_pgm, save_sample_dir, split)
from vesseldistill.distill import (DistillConfig, alpha_at, ddl, dice_loss, kl_div, loss_terms,
                                   patch_counts, prob_vector, psdl, soften_label)
from vesseldistill.metrics import confusion, evaluate_pairs
from vesseldistill.network import (_FIELD_TYPES, NetworkConfig, SegNetwork, _param_shapes, _views,
                                   load_checkpoint)
from vesseldistill.optim import AdamW, lr_at
from vesseldistill.tensor import GraphError, ShapeError, Tensor
from vesseldistill.train import EpochLog, TrainConfig, sweep, train, write_metrics_csv

from _checkpoints import older_layout, rewrite

train_module = importlib.import_module("vesseldistill.train")

# a depth-3 net takes sides divisible by 4; every command line trains (if it
# got that far) one epoch of it on 32x32 images
NET = {"depth": 3, "base_channels": 4, "height": 32, "width": 32}
BASE = [*(f"network.{k}={v}" for k, v in NET.items()), "distill.grid_g=4", "epochs=1"]
SHAPE = "is not [1,H,W] with H and W divisible by 2^(depth-1) = 4"


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    """The good inputs every cell starts from: a 10-sample 32x32 dataset, one of its
    images, and the last checkpoint of a 2-epoch run of BASE's net on it, with that
    run's config and split to resume it."""
    root = tmp_path_factory.mktemp("good")
    save_sample_dir(generate_synthetic(seed=5, count=10, size=32), root / "data")
    cfg = TrainConfig.from_dict({"epochs": 2, "network": NET, "distill": {"grid_g": 4},
                                 "out_dir": str(root / "run")})
    dataset = split(load_sample_dir(root / "data"), seed=cfg.seed)
    return SimpleNamespace(data=root / "data", ckpt=train(cfg, dataset).final_path, cfg=cfg,
                           dataset=dataset, image=next((root / "data" / "images").iterdir()))


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
    return tmp / "missing" / "out", None  # see OUT_FILES


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


NOT_PGM = image_file(b"garbage", "unsupported magic b'ga' (expected P2 or P5)")
TRUNCATED = image_file(b"P5\n32 32\n255\n" + bytes(10), "payload holds 10 bytes, expected 1024")
BAD_PIXEL = image_file(b"P2 2 1 255\n0 x\n", "pixel value 'x' is not a decimal integer")
SHORT_HEADER = image_file(b"P5 2 1", "unexpected end of file in header")
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
    "short-header": (SHORT_HEADER[1], DATA_COLUMNS),
    "not-pgm-image": (NOT_PGM[0], [("predict", "image")]),
    "truncated-image": (TRUNCATED[0], [("predict", "image")]),
    "bad-pixel-image": (BAD_PIXEL[0], [("predict", "image")]),
    "short-header-image": (SHORT_HEADER[0], [("predict", "image")]),
    "other-mask-shape": (data_with(other_mask), DATA_COLUMNS),
    "size-the-net-cannot-take": (odd_size_data, DATA_COLUMNS),
    "image-the-net-cannot-take": (odd_size_image, [("predict", "image")]),
    "no-test-samples": (two_samples, [("evaluate", "data"), ("sweep", "data")]),
}


# the files a command writes: each is refused in one message, whether it names a
# directory or a file in none
OUT_FILES = {("evaluate", "csv"), ("predict", "out"), ("sweep", "csv")}


def path_cell(make, name, option):
    def cell(ctx, tmp):
        path, text = make(ctx, tmp)
        if (name, option) in OUT_FILES:
            text = re.escape(f"--{option} {path} names no file in an existing directory")
            text = f"^error: {text}\n$"
        if option == "out_dir":
            return command(name, ctx, tmp, f"out_dir={path}"), text
        return command(name, ctx, tmp, **{option: path}), text
    return cell


def config_file(name, content):
    def cell(ctx, tmp):
        (tmp / "cfg.json").write_text(content)
        must = f"{tmp / 'cfg.json'} must hold a JSON object of TrainConfig fields"
        return command(name, ctx, tmp, config=tmp / "cfg.json"), f"^error: {re.escape(must)}[,;]"
    return cell


def values_cell(name, text, *overrides, **options):
    return lambda ctx, tmp: (command(name, ctx, tmp, *overrides, **options),
                             f"^error: {re.escape(text)}\n$")


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
    "values-empty-sweep": values_cell("sweep", "--values item '' is not a number", values=""),
    "values-bool-sweep": values_cell("sweep", "tau value True is not a number", values="1,true"),
    **{f"values-{item}-sweep": values_cell("sweep", f"tau value {named} is not a number",
                                          values=f"1,{item}")
       for item, named in (("null", "None"), ("[1]", "[1]"), ('"x"', "'x'"))},
    **{f"axis-n-{n}-sweep": values_cell(
        "sweep", f"patch count {n} is not a positive whole perfect square", axis="n", values=n)
       for n in (5, 16.5, -4, 0)},
    **{f"{row}-{name}": cell for name in ("train", "sweep") for row, cell in {
        "override-no-key-value": values_cell(name, "override 'epochs' is not key=value", "epochs"),
        "override-into-no-mapping": values_cell(
            name, "network must be a mapping to set network.depth, got 5",
            "network=5", "network.depth=3"),
        "override-into-a-list": values_cell(
            name, "distill must be a mapping to set distill.tau, got [1]",
            "distill=[1]", "distill.tau=2"),
        "config-file-list": config_file(name, "[1]"),
        "config-file-string": config_file(name, '"x"'),
        "config-file-not-json": config_file(name, '{"epochs": 1,\n'),
    }.items()},
}


# ---- checkpoint rows: each maker writes a bad checkpoint file at `path`, most by
# editing ctx's; its refusal is a template of the file's name

def edited(edit):
    """A maker of ctx's checkpoint after edit(payload, meta); see _checkpoints.rewrite."""
    return lambda ctx, path: rewrite(ctx.ckpt, path, edit)


def written(save):
    """A maker of a file that save(its open handle) wrote."""
    def make(ctx, path):
        with open(path, "wb") as f:
            save(f)
    return make


def without_meta(ctx, path):
    with np.load(ctx.ckpt) as z:
        np.savez(path, **{k: z[k] for k in z.files if k != "meta"})


def param_members(payload, meta):
    """As files stored the weights before the flat layout: a param:<name> member each."""
    views = _views(payload.pop("params"), NetworkConfig(**meta["config"]))
    payload.update({f"param:{name}": a for name, a in views.items()})


def moment_members(payload, meta):
    """As files stored the optimizer moments before they were packed: an extra:m<i>
    and extra:v<i> member per parameter."""
    for kind in ("extra:m", "extra:v"):
        views = _views(payload.pop(kind), NetworkConfig(**meta["config"]))
        payload.update({f"{kind}{i}": a for i, a in enumerate(views.values())})


def net_only(payload, meta):
    """As save_checkpoint writes a net without a run: meta and params alone."""
    meta.pop("run")
    for kind in ("t", "m", "v"):
        payload.pop(f"extra:{kind}")


def stored(section=None, **values):
    """An edit of the run record's train_config, or of its `section`, by update(values)."""
    def edit(payload, meta):
        config = meta["run"]["train_config"]
        (config[section] if section else config).update(values)
    return edit


def of_logs(change):
    return lambda payload, meta: change(meta["run"]["logs"])


def of_extra(kind, change):
    """An edit of the optimizer state's member `kind` to change(it)."""
    member = f"extra:{kind}"
    return lambda payload, meta: payload.update({member: change(payload[member])})


def best_is_epoch_1(best=None):
    """A maker of ctx's checkpoint with epoch 1 logged as its run's best, beside a best.npz
    that the maker `best` writes, if given."""
    def make(ctx, path):
        rewrite(ctx.ckpt, path, of_logs(lambda logs: logs[0].update(val_dsc=1.0)))
        if best is not None:
            best(ctx, pathlib.Path(path).with_name("best.npz"))
    return make


CHECKPOINT_COLUMNS = ("load_checkpoint", "load_checkpoint-no-extras", "predict--checkpoint",
                      "evaluate--checkpoint", "resume_from")
SHAPES = _param_shapes(NetworkConfig(**NET))
PARAMS = sum(int(np.prod(shape)) for _, shape in SHAPES)
RESUME = "cannot resume from {}: "


def everywhere(refusal):
    """A file every entry point refuses as load_checkpoint does, naming it."""
    return dict.fromkeys(CHECKPOINT_COLUMNS, "{}: " + refusal)


def not_saved(what):
    return everywhere(f"{what}, so not a checkpoint save_checkpoint wrote")


def python_refusal(call):
    """The text of call()'s TypeError: Python's own wording, which its versions may change."""
    with pytest.raises(TypeError) as raised:
        call()
    return str(raised.value)


LOG_FIELDS = [field.name for field in dataclasses.fields(EpochLog)]
NO_SEED = "{} stores no training config to take the split seed from; pass --seed"
NO_RUN = "run record (train_config and logs)"
META = "meta is no JSON object holding a config object and an int epoch"
RUN = "its run record is neither null nor an object holding a train_config object and a logs list"
CHECKPOINT_ROWS = {  # row -> (its maker, {column: refusal})
    "no-checkpoint": (written(lambda f: f.write(b"garbage")), not_saved("not an .npz archive")),
    "pgm-checkpoint": (written(lambda f: f.write(b"P5 2 2 255\n" + bytes(4))),
                       not_saved("not an .npz archive")),
    "npy-checkpoint": (written(lambda f: np.save(f, np.zeros(3))),
                       not_saved("not an .npz archive")),
    "no-meta": (without_meta, not_saved("no meta member")),
    "meta-list": (edited(lambda payload, meta: payload.update(
        meta=np.frombuffer(json.dumps([meta]).encode(), np.uint8))), everywhere(META)),
    "meta-not-json": (edited(lambda payload, meta: payload.update(
        meta=np.frombuffer(b"{", np.uint8))), everywhere(META)),
    "meta-without-config": (edited(lambda payload, meta: meta.pop("config")), everywhere(META)),
    "meta-without-epoch": (edited(lambda payload, meta: meta.pop("epoch")), everywhere(META)),
    **{f"meta-epoch-{name}": (edited(lambda payload, meta, epoch=epoch: meta.update(epoch=epoch)),
                              everywhere(f"meta stores epoch {epoch!r}, which is no int >= 0"))
       for name, epoch in {"true": True, "-1": -1}.items()},
    "int-params": (edited(lambda payload, meta: payload.update(
        params=payload["params"].astype(np.int32))),
        everywhere("params has dtype int32, not float32 or float64")),
    "short-params": (edited(lambda payload, meta: payload.update(params=payload["params"][:-5])),
                     everywhere(f"params holds {PARAMS - 5} values, but the config's "
                                f"{len(SHAPES)} parameters need {PARAMS}")),
    "param-members": (edited(param_members), not_saved("no flat params array")),
    "run-list": (edited(lambda payload, meta: meta.update(run=[1])), everywhere(RUN)),
    "run-without-logs": (edited(lambda payload, meta: meta["run"].pop("logs")), everywhere(RUN)),
    "in-channels-3": (edited(lambda payload, meta: meta["config"].update(in_channels=3)),
                      everywhere("its config stores in_channels 3, but NetworkConfig has no "
                                 "such field")),
    "unknown-network-field": (edited(lambda payload, meta: meta["config"].update(kernel_size=5)),
                              everywhere("its config stores kernel_size 5, but NetworkConfig "
                                         "has no such field")),
    # what follows loads; only evaluate's split seed or a resume reads the run record
    "no-run-record": (edited(older_layout), {"evaluate--checkpoint": NO_SEED,
                                             "resume_from": RESUME + "it stores no " + NO_RUN}),
    "net-only": (edited(net_only), {"evaluate--checkpoint": NO_SEED,
                                    "resume_from": RESUME + "it stores no t, m, v, " + NO_RUN}),
    **{f"stored-seed-{name}": (edited(stored(seed=seed)), {
        "evaluate--checkpoint": f"{{}} stores split seed {seed!r}, which is no int >= 0; "
                                "pass --seed"})
       for name, seed in {"x": "x", "2.5": 2.5, "null": None, "-1": -1, "true": True}.items()},
    **{row: (edited(edit), {"resume_from": RESUME + refusal}) for row, edit, refusal in [
        ("moment-members", moment_members, "it stores no m, v"),
        ("short-m", of_extra("m", lambda m: m[:-5]),
         f"optimizer state 'm' holds {PARAMS - 5} values, but the weights need {PARAMS}"),
        ("int32-m", of_extra("m", lambda m: m.astype(np.int32)),
         "optimizer state 'm' has dtype int32, but the weights float32"),
        ("t-of-shape-3", of_extra("t", lambda t: np.array([1, 2, 3])),
         "optimizer state 't' is array([1, 2, 3]), not a 0-d integer array >= 0"),
        ("str-t", of_extra("t", lambda t: np.array("x")),
         "optimizer state 't' is array('x', dtype='<U1'), not a 0-d integer array >= 0"),
        ("stored-distill.eps", stored("distill", eps=1e-7),
         "config differs from the checkpointed run in distill.eps"),
        ("stored-network.in_channels", stored("network", in_channels=1),
         "config differs from the checkpointed run in network.in_channels"),
        ("other-config", stored(learning_rate=2e-3),
         "config differs from the checkpointed run in learning_rate"),
        ("logged-row-missing-field", of_logs(lambda logs: logs[0].pop("val_dsc")),
         "its logged row 1 is no epoch log: " + python_refusal(
             lambda: EpochLog(**{f: 0 for f in LOG_FIELDS if f != "val_dsc"}))),
        ("logged-row-unknown-field", of_logs(lambda logs: logs[0].update(momentum=0.9)),
         "its logged row 1 is no epoch log: " + python_refusal(
             lambda: EpochLog(**dict.fromkeys(LOG_FIELDS, 0), momentum=0.9))),
        ("logged-row-str-epoch", of_logs(lambda logs: logs[1].update(epoch="2")),
         "its logged row 2 is no epoch log: epoch must be an int, got '2'"),
        ("logged-row-null-dsc", of_logs(lambda logs: logs[1].update(val_dsc=None)),
         "its logged row 2 is no epoch log: val_dsc must be a number, got None"),
        ("logged-row-list", of_logs(lambda logs: logs.__setitem__(0, [1, 0.5])),
         "its logged row 1 is no epoch log: " + python_refusal(lambda: EpochLog(**[1, 0.5]))),
        ("logged-row-missing", of_logs(lambda logs: logs.pop()),
         "its logged epochs are not 1 to its epoch, 2"),
        ("logged-rows-out-of-order", of_logs(lambda logs: logs.reverse()),
         "its logged epochs are not 1 to its epoch, 2"),
    ]},
    # a resume past its run's best epoch needs the best.npz beside it to hold that epoch
    **{f"best-npz-{name}": (best_is_epoch_1(best), {
        "resume_from": RESUME + "its run's best epoch so far, 1, is not the one best.npz holds"})
       for name, best in {
           "missing": None,
           "of-epoch-2": edited(lambda payload, meta: None),
           "of-other-rows": edited(lambda payload, meta: (meta.update(epoch=1),
                                                          meta["run"]["logs"].pop())),
           "without-run-record": edited(lambda payload, meta: meta.update(epoch=1, run=None)),
       }.items()},
}


def checkpoint_cell(make, name, refusal):
    def cell(ctx, tmp):
        make(ctx, tmp / "ckpt.npz")
        argv = command(name, ctx, tmp, checkpoint=tmp / "ckpt.npz")
        return argv, f"^error: {re.escape(refusal.format(tmp / 'ckpt.npz'))}\n$"
    return cell


def checkpoint_call(column, make, refusal):
    """A row's call of `column`, a library column, on the file make() writes as ckpt.npz.
    A file that only a resume refuses still loads."""
    def call(ctx):
        make(ctx, "ckpt.npz")
        if column != "resume_from":
            return load_checkpoint("ckpt.npz", extras=column == "load_checkpoint")
        try:
            training(ctx, resume_from="ckpt.npz")
        finally:
            if refusal.startswith(RESUME):
                assert load_checkpoint("ckpt.npz", extras=False).epoch == ctx.cfg.epochs
    return call


# ---- config rows: every leaf of TrainConfig, by its dotted path

def _leaves(cls=TrainConfig, prefix=""):
    for f in dataclasses.fields(cls):
        if isinstance(f.default_factory, type):
            yield from _leaves(f.default_factory, f"{f.name}.")
        else:
            yield prefix + f.name, f.type


LEAVES = dict(_leaves())
# values of another type than each annotation (see network._check_field_types),
# and the type each must be; dtype is refused by its own rule first, numpy's float
# types too, as a config stores the name
WRONG_TYPES = {"int": [2.5, 2.0, True, "2", np.int64(2)], "float": ["0.5", True, None],
               "bool": ["False", "no", 0, 1, None], "str": [3, None, pathlib.Path("runs/x")],
               "dtype": [np.float32, np.dtype("float32"), np.float64]}
MUST_BE = {"dtype": "float32 or float64"}
NAN = float("nan")  # fails every comparison, so each float range is written to refuse it
OUT_OF_RANGE = {  # leaf -> (values its type takes and its range does not, the rule)
    "epochs": ([0], "must be >= 1"),
    "batch_size": ([0], "must be >= 1"),
    "learning_rate": ([0.0, -1.0, NAN], "must be > 0"),
    "weight_decay": ([-1.0, -1e-9, NAN], "must be >= 0"),
    "lr_step_every": ([0, -3], "must be >= 1"),
    "lr_gamma": ([1.5, 0.0, -0.5, NAN], "must be in (0, 1]"),
    "seed": ([-1], "must be >= 0"),
    "dtype": (["float16", "int32", "complex64", "bogus"], "must be float32 or float64"),
    "out_dir": ([""], "must name a directory"),
    "distill.tau": ([0.0, -1.0, NAN], "must be positive"),
    "distill.grid_g": ([0, -4], "must be >= 1"),
    "distill.alpha_T": ([1.5, -0.5, NAN], "must be in [0,1]"),
    "network.depth": ([1], "must be >= 2"),
    "network.base_channels": ([3], "must be >= 4"),
    "network.height": ([31], "must be a positive multiple of 2^(depth-1)"),
    "network.width": ([0], "must be a positive multiple of 2^(depth-1)"),
}
NO_RANGE = {"dice_only"}  # either bool is a setting
SECTIONS = {"network": (NetworkConfig, 5), "distill": (DistillConfig, [1])}


def test_the_range_table_covers_every_leaf():
    assert len(LEAVES) == 17
    assert set(OUT_OF_RANGE) | NO_RANGE == set(LEAVES)
    assert set(LEAVES.values()) <= set(WRONG_TYPES)


def _named(kind, leaf, values):
    """(row id, value) for each value; the first value's row is named by the leaf alone."""
    return [(f"{kind}-{leaf}" + (f"-{getattr(v, '__name__', repr(v))}" if i else ""), v)
            for i, v in enumerate(values)]


CONFIG_ROWS = {  # row id -> (dotted path, value, its refusal by dotted path or None)
    **{row: (leaf, value, f"must be {MUST_BE.get(leaf, _FIELD_TYPES[t][1])}")
       for leaf, t in LEAVES.items()
       for row, value in _named("mistyped", leaf, WRONG_TYPES[t] + WRONG_TYPES.get(leaf, []))},
    **{row: (leaf, value, rule) for leaf, (values, rule) in OUT_OF_RANGE.items()
       for row, value in _named("out-of-range", leaf, values)},
    **{f"unknown-{leaf}": (leaf, 1, None) for leaf in ("foo", "network.foo", "distill.eps")},
    **{f"section-{name}": (name, value, f"must be a mapping of {cls.__name__} fields")
       for name, (cls, value) in SECTIONS.items()},
}


def _refusal(leaf, value, rule):
    return f"unknown config field {leaf}" if rule is None else f"{leaf} {rule}, got {value!r}"


def _nested(leaf, value):
    section, _, name = leaf.rpartition(".")
    return {section: {name: value}} if section else {name: value}


def build_directly(leaf, value):
    section, _, name = leaf.rpartition(".")
    (SECTIONS[section][0] if section else TrainConfig)(**{name: value})


def _directly(leaf, value, rule):
    """build_directly's refusal: it names the field alone, and a section must be its class."""
    name = leaf.rpartition(".")[2]
    if name in SECTIONS:
        rule = f"must be a {SECTIONS[name][0].__name__}"
    return _refusal(name, value, rule)


def _json(value):
    try:
        return json.dumps(value)
    except TypeError:
        return None


UNTILED = {"indivisible": (32, 32, 5), "non-square": (16, 32, 4)}  # 4x8 patches


def untiled(h, w, g):
    return (f"distill.grid_g, network.height and network.width: grid {g}x{g} does not evenly "
            f"tile {h}x{w} into square patches")


CLI_CELLS = {
    **{f"{row}-{name}--{option}": path_cell(make, name, option)
       for row, (make, columns) in PATH_ROWS.items() for name, option in columns},
    **VALUE_CELLS,
    **{f"{row}-{column}": checkpoint_cell(make, column.partition("--")[0], refusal)
       for row, (make, refusals) in CHECKPOINT_ROWS.items()
       for column, refusal in refusals.items() if "--" in column},
    **{f"{row}-{name}": values_cell(name, _refusal(leaf, value, rule), f"{leaf}={_json(value)}")
       for row, (leaf, value, rule) in CONFIG_ROWS.items() for name in ("train", "sweep")
       if _json(value) is not None},  # JSON holds no numpy scalar, type or dtype and no Path
    **{f"{row}-{name}": values_cell(name, untiled(h, w, g), f"network.height={h}",
                                    f"network.width={w}", f"distill.grid_g={g}")
       for row, (h, w, g) in UNTILED.items() for name in ("train", "sweep")},
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
    argv, text = cell(ctx, tmp_path)
    refused(argv, text, tmp_path, capsys)


# ---- rows: a Python call given a bad input, and the exception it must raise, its
# type and whole message. Every refusing `raise` outside cli.py is reached by a row
# (test_every_library_raise_has_a_row). A row runs in an empty directory of its own

def loading(load, path, files):
    """A load(path) after writing `files`, path -> bytes."""
    def call(ctx):
        for name, content in files.items():
            pathlib.Path(name).parent.mkdir(parents=True, exist_ok=True)
            pathlib.Path(name).write_bytes(content)
        load(path)
    return call


def optimizer_state(**bad):
    """Load into an AdamW of NET's weights a state of theirs, `bad` replacing members."""
    state = {"t": np.array(2), "m": np.zeros(PARAMS), "v": np.zeros(PARAMS), **bad}
    AdamW(np.zeros(PARAMS)).load_state_arrays(state)


def zeros(*shapes):
    return [np.zeros(shape) for shape in shapes]


def sample(h, w, mask=None):
    """A sample 'odd' of a blank h x w image and a blank mask of its shape, or of `mask`."""
    return ImageSample(Tensor(np.zeros((1, h, w))), Tensor(np.zeros(mask or (1, h, w))), "odd")


def adding(ctx, part, s):
    """ctx's split with the sample s appended to its `part`."""
    return dataclasses.replace(ctx.dataset, **{part: [*getattr(ctx.dataset, part), s]})


def in_first_batch(ctx, position, **change):
    """ctx's split with `change` made to the training sample at `position` of epoch 1's first
    batch; in two processes, positions 0 and 1 fall to this one's share, 2 and 3 to the other's."""
    train = list(ctx.dataset.train)
    i = next(batches(range(len(train)), ctx.cfg.batch_size, ctx.cfg.seed, epoch=1))[position]
    train[i] = dataclasses.replace(train[i], **change)
    return dataclasses.replace(ctx.dataset, train=train)


def training(ctx, dataset=None, t=0, hook=None, resume_from=None, **patches):
    """train() of ctx's config into ./run in two processes on ctx's split or `dataset`, with
    train.py's `patches`, hook() run as epoch t starts. It must stop in epoch t (0: before
    epoch 1), leaving no child process and no checkpoint of epoch t: for t 0, no out_dir."""
    def on_start(epoch, teacher):
        assert epoch <= t, f"epoch {epoch} started"
        if epoch == t and hook is not None:
            hook()

    with mock.patch.multiple(train_module, _process_count=lambda batch_size: 2, **patches):
        try:
            train(dataclasses.replace(ctx.cfg, out_dir="run"), dataset or ctx.dataset,
                  resume_from=resume_from, epoch_start_hook=on_start)
        finally:
            assert not multiprocessing.active_children()
            run = pathlib.Path("run")
            assert t or not run.exists()
            assert all(load_checkpoint(path, extras=False).epoch < t for path in run.glob("*.npz"))
            assert t < 2 or (load_checkpoint(run / "last.npz", extras=False).epoch == t - 1
                             and (run / "best.npz").exists())


def kill_workers():
    for child in multiprocessing.active_children():
        os.kill(child.pid, signal.SIGKILL)
        child.join(timeout=10)


def worker_dies_mid_batch(ctx):
    """A worker that exits inside its share's step in epoch 2, after the request reached
    it, is found when its reply is read: an EOFError, not a failed send."""
    main_pid, step = os.getpid(), train_module._sample_step

    def dying_step(net, teacher_net, *args):
        if teacher_net is not None and os.getpid() != main_pid:
            os._exit(1)
        return step(net, teacher_net, *args)

    try:
        training(ctx, t=2, _sample_step=dying_step)
    except RuntimeError as exc:
        assert isinstance(exc.__cause__, EOFError), exc.__cause__
        raise


def failing_sample(position):
    """A call training on a mask of another shape than its image past train()'s check of it;
    a worker's exception carries the worker's traceback as its cause."""
    def call(ctx):
        try:
            training(ctx, in_first_batch(ctx, position, mask=Tensor(np.zeros((1, 16, 16)))), 1,
                     _check_run=lambda cfg, dataset: None)
        except ShapeError as exc:
            assert position < 2 or "in dice_loss" in str(exc.__cause__), exc.__cause__
            raise
    return call


def sweeping(axis, values, dataset=None):
    """A call of sweep() over ctx's config and split, or dataset(ctx), which must raise
    before a run trains or its out_dir is made."""
    def call(ctx):
        with mock.patch.object(train_module, "train", side_effect=AssertionError("a run trained")):
            try:
                sweep(axis, values, dataclasses.replace(ctx.cfg, out_dir="sweep"),
                      ctx.dataset if dataset is None else dataset(ctx))
            finally:
                assert not pathlib.Path("sweep").exists()
    return call


net = functools.partial(SegNetwork, NetworkConfig(**NET), dtype=np.float64)
HALF, GRID_2 = Tensor(np.full((1, 4, 4), 0.5)), DistillConfig(grid_g=2)
PGM_4x4, PGM_3x2 = b"P5 4 4 255\n" + bytes(16), b"P5 3 2 255\n" + bytes(6)
FLAT = {  # a flat array of NET's weights' length, or not -> what it holds, as refused
    "long": (np.zeros(PARAMS + 3), f"{PARAMS + 3} values"),
    "short": (np.zeros(PARAMS - 1), f"{PARAMS - 1} values"),
    "row": (np.zeros((1, PARAMS)), f"{PARAMS} values in shape (1, {PARAMS})"),
    "column": (np.zeros((PARAMS, 1)), f"{PARAMS} values in shape ({PARAMS}, 1)"),
    "scalar": (np.float64(1.0), "1 values in shape ()"),
}
FLAT_LOADS = {  # entry point -> (its load of a flat array, what it refuses, whose need)
    "load_state_arrays": (lambda bad: net().load_state_arrays(bad), "the weight array",
                          f"the config's {len(SHAPES)} parameters"),
    "from_arrays": (lambda bad: SegNetwork.from_arrays(NetworkConfig(**NET), bad),
                    "the weight array", f"the config's {len(SHAPES)} parameters"),
    **{f"optimizer-{kind}": (lambda bad, kind=kind: optimizer_state(**{kind: bad}),
                             f"optimizer state {kind!r}", "the weights") for kind in "mv"},
}
ODD = "sample 'odd': "
ROWS = {  # row -> (a call of ctx, its exception's type, its message)
    # tensor
    "backward-non-scalar": (lambda ctx: (Tensor(np.ones(4), requires_grad=True) * 2.0).backward(),
                            GraphError, "backward requires a scalar loss, got shape (4,)"),
    "backward-leaf": (lambda ctx: Tensor(np.ones(1), requires_grad=True).backward(), GraphError,
                      "backward called on a tensor with no recorded forward pass"),
    "add-shapes": (lambda ctx: T.add(*zeros(3, 4)), ShapeError,
                   "add: operand shapes (3,) and (4,) do not match"),
    "log-zero": (lambda ctx: T.log(np.array([1.0, 0.0])), ValueError,
                 "log: input must be strictly positive (clamp first)"),
    "maxpool2x2-odd": (lambda ctx: T.maxpool2x2(np.zeros((1, 3, 4))), ShapeError,
                       "maxpool2x2: spatial dims must be even, got 3x4"),
    **{f"{name}-{shape}": (call, ShapeError, f"{name}: expected {what}, got {shape}")
       for name, call, what, shape in [
           ("maxpool2x2", lambda ctx: T.maxpool2x2(np.zeros((4, 4))), "[C,H,W]", (4, 4)),
           ("conv2d", lambda ctx: T.conv2d(*zeros((4, 4), (2, 1, 3, 3), 2)), "input [C,H,W]",
            (4, 4)),
           ("conv2d", lambda ctx: T.conv2d(*zeros((1, 4, 4), (2, 1, 5, 5), 2)),
            "kernel [C_out,C_in,3,3]", (2, 1, 5, 5)),
           ("bilinear_upsample", lambda ctx: T.bilinear_upsample(np.zeros((4, 4)), 2), "[C,h,w]",
            (4, 4)),
           ("softmax", lambda ctx: T.softmax(np.zeros((2, 2))), "a 1-D vector", (2, 2)),
           ("patch_counts", lambda ctx: patch_counts(np.zeros((2, 4, 4)), 2), "[1,H,W]",
            (2, 4, 4)),
           ("prob_vector", lambda ctx: prob_vector(np.ones((4, 3)), 3.0), "[n,2] counts",
            (4, 3))]},
    "conv2d-channels": (lambda ctx: T.conv2d(*zeros((3, 4, 4), (2, 2, 3, 3), 2)), ShapeError,
                        "conv2d: kernel expects 2 input channels, input has 3"),
    "conv2d-bias": (lambda ctx: T.conv2d(*zeros((1, 4, 4), (2, 1, 3, 3), 3)), ShapeError,
                    "conv2d: bias shape (3,) != (2,)"),
    **{f"bilinear_upsample-factor-{f}": (
        lambda ctx, f=f: T.bilinear_upsample(np.zeros((1, 2, 2)), f), ValueError,
        f"bilinear_upsample: factor must be a positive integer, got {f}") for f in (0, 2.0, True)},
    **{f"upsample_concat-{x}-{skip}": (
        lambda ctx, x=x, skip=skip: T.upsample_concat(*zeros(x, skip)), ShapeError,
        f"upsample_concat: input {x} upsampled by 2 cannot join skip {skip}")
       for x, skip in [((4, 8, 8), (3, 16, 17)), ((4, 8, 8), (3, 8, 8)),
                       ((4, 8, 8), (16, 16)), ((8, 8), (3, 16, 16))]},
    **{f"{name}-tau-{tau}": (lambda ctx, call=call, tau=tau: call(tau), ValueError,
                             f"{name}: {what} must be positive, got {tau}")
       for name, call, what in [
           ("softmax", lambda tau: T.softmax(np.ones(2), tau), "temperature"),
           ("prob_vector", lambda tau: prob_vector(np.ones((2, 2)), tau), "tau")]
       for tau in (0.0, -1.0, NAN)},
    # distill
    **{f"patch_counts-untiled-{h}x{w}": (
        lambda ctx, h=h, w=w, g=g: patch_counts(np.full((1, h, w), 0.5), g), ValueError,
        f"grid {g}x{g} does not evenly tile {h}x{w} into square patches")
       for h, w, g in [(6, 6, 4), (8, 16, 2)]},  # 8x16 into 4x8 patches
    "patch_counts-above-1": (lambda ctx: patch_counts(np.full((1, 4, 4), 1.5), 2), ValueError,
                             "patch_counts: values must lie in [0,1]"),
    "kl_div-lengths": (lambda ctx: kl_div(np.ones(2) / 2, np.ones(3) / 3), ShapeError,
                       "kl_div: lengths differ, (2,) vs (3,)"),
    "ddl-depths": (lambda ctx: ddl([HALF], [HALF] * 2, GRID_2), ShapeError,
                   "ddl: depth mismatch, student 1 vs teacher 2"),
    "loss_terms-depths": (lambda ctx: loss_terms([HALF] * 2, [HALF], HALF, GRID_2, 0.25),
                          ShapeError, "ddl: depth mismatch, student 2 vs teacher 1"),
    "ddl-sides": (lambda ctx: ddl([Tensor(np.full((1, 8, 8), 0.5))], [HALF], GRID_2), ShapeError,
                  "ddl: side outputs differ, (1, 8, 8) vs (1, 4, 4)"),
    **{f"alpha_at-{t}-of-{total}": (lambda ctx, t=t, total=total: alpha_at(t, total, 0.5),
                                    ValueError, refusal)
       for t, total, refusal in [(0, 10, "epoch 0 outside 1..10"),
                                 (11, 10, "epoch 11 outside 1..10"),
                                 (1, 0, "total_epochs must be >= 1, got 0")]},
    "soften_label-alpha": (lambda ctx: soften_label(*zeros((1, 1, 1), (1, 1, 1)), 1.5),
                           ValueError, "alpha must be in [0,1], got 1.5"),
    **{f"{name}-shapes": (lambda ctx, call=call: call(*zeros((1, 2, 2), (1, 2, 3))), ShapeError,
                          f"{name}: shapes differ, (1, 2, 2) vs (1, 2, 3)")
       for name, call in [("soften_label", lambda *pair: soften_label(*pair, 0.5)),
                          ("psdl", psdl), ("dice_loss", dice_loss), ("confusion", confusion)]},
    # data
    "generate_synthetic-count-0": (lambda ctx: generate_synthetic(seed=0, count=0), ValueError,
                                   "count must be positive, got 0"),
    **{f"generate_synthetic-size-{size}": (
        lambda ctx, size=size: generate_synthetic(seed=0, count=1, size=size), ValueError,
        f"size must be positive, got {size}") for size in (0, -3)},
    # a count is an int: a bool, a float and NaN are none, though Python compares them
    **{f"{name}-{value}": (lambda ctx, call=call, value=value: call(value), ValueError,
                           f"{argument} must be an int, got {value!r}")
       for name, argument, call in [
           ("generate_synthetic-count", "count", lambda n: generate_synthetic(seed=0, count=n)),
           ("generate_synthetic-size", "size",
            lambda n: generate_synthetic(seed=0, count=1, size=n)),
           ("batches-size", "batch_size", lambda n: next(batches([1, 2], n, seed=0, epoch=1)))]
       for value in (True, 2.5, NAN)},
    **{f"{name}-seed-{seed!r}": (lambda ctx, call=call, seed=seed: call(seed), ValueError,
                                 refusal)
       for name, call, negative in [
           ("generate_synthetic", lambda seed: generate_synthetic(seed, count=1), -1),
           ("split", lambda seed: split([1, 2, 3], seed=seed), -3)]
       for seed, refusal in [(negative, f"seed must be >= 0, got {negative}"),
                             *((seed, f"seed must be an int, got {seed!r}")
                               for seed in (True, 2.5, np.True_))]},
    **{f"load_pgm-{row}": (loading(load_pgm, "image.pgm", {"image.pgm": content}), kind,
                           f"image.pgm: {refusal}") for row, content, kind, refusal in [
        ("one-byte", b"P", PGMTruncatedError, "file too short for a magic number"),
        ("magic", b"P6 1 1 255\n\0", PGMMagicError, "unsupported magic b'P6' (expected P2 or P5)"),
        ("header-P5-4", b"P5 4", PGMTruncatedError, "unexpected end of file in header"),
        ("header-P5-2-1", b"P5 2 1", PGMTruncatedError, "unexpected end of file in header"),
        ("header-x", b"P5 4 x 255\n\0", PGMTruncatedError,
         "non-numeric header fields [b'4', b'x', b'255']"),
        ("width--2", b"P5 -2 1 255\n", PGMError, "width -2 and height 1 are not both >= 1"),
        ("width-0", b"P5 0 5 255\n", PGMError, "width 0 and height 5 are not both >= 1"),
        ("sizes--1--2", b"P2 -1 -2 255\n", PGMError, "width -1 and height -2 are not both >= 1"),
        ("maxval-256", b"P5 1 1 256\n\0", PGMMaxvalError,
         "maxval 256 outside supported range 1..255"),
        ("short-P5", b"P5 2 2 255\n\0", PGMTruncatedError, "payload holds 1 bytes, expected 4"),
        ("short-P2", b"P2 2 2 255\n0 1 2\n", PGMTruncatedError,
         "payload holds 3 values, expected 4"),
        ("word-pixel", b"P2 3 1 255\n-1 x 7\n", PGMError,
         "pixel value 'x' is not a decimal integer"),
        ("P5-pixel-over", b"P5 2 1 100\n" + bytes([50, 200]), PGMMaxvalError,
         "pixel value 200 outside 0..maxval 100"),
        ("P2-pixel-under", b"P2\n2 1\n100\n-5 50\n", PGMMaxvalError,
         "pixel value -5 outside 0..maxval 100")]},
    "save_pgm-channels": (lambda ctx: save_pgm(np.zeros((2, 3, 3)), "image.pgm"), ValueError,
                          "save_pgm: expected [H,W] or [1,H,W], got (2, 3, 3)"),
    **{f"load_sample_dir-{row}": (loading(load_sample_dir, "data", files), kind, refusal)
       for row, files, kind, refusal in [
        ("no-mask", {"data/images/0.pgm": PGM_4x4}, FileNotFoundError,
         "no mask for 0.pgm under data/masks"),
        ("mask-shape", {"data/images/0.pgm": PGM_4x4, "data/masks/0.pgm": PGM_3x2}, ValueError,
         "data/masks/0.pgm: mask is 3x2, but its image is 4x4"),
        ("empty", {}, FileNotFoundError, "no .pgm images under data/images")]},
    "split-empty": (lambda ctx: split([]), ValueError, "cannot split an empty sample list"),
    **{f"split-ratios-{ratios}": (lambda ctx, ratios=ratios: split([1, 2, 3], ratios),
                                  ValueError, f"ratios must {rule}, got {ratios}")
       for ratios, rule in [((1, 2), "be three non-negative numbers"),
                            ((-1, 1, 1), "be three non-negative numbers"),
                            ((NAN, 1, 1), "be three non-negative numbers"),
                            ((7, 1, NAN), "be three non-negative numbers"),
                            ((1, 1, 0.5), "sum to a positive whole number"),
                            ((0, 0, 0), "sum to a positive whole number"),
                            ((float("inf"), 1, 1), "sum to a positive whole number")]},
    "batches-size-0": (lambda ctx: next(batches([1], 0, seed=0, epoch=1)), ValueError,
                       "batch_size must be >= 1, got 0"),
    # metrics
    "evaluate_pairs-none": (lambda ctx: evaluate_pairs([]), ValueError,
                            "no prediction/ground-truth pairs to evaluate"),
    # optim
    **{f"step-gradient-{shape}": (
        lambda ctx, shape=shape: AdamW(np.zeros(6)).step(np.zeros(shape)), ValueError,
        f"gradient of shape {shape} does not match the weights' shape (6,)")
       for shape in [(5,), (7,), (1, 6), (6, 1)]},
    **{f"load_state_arrays-t-{t!r}": (lambda ctx, t=t: optimizer_state(t=t), ValueError,
                                      f"optimizer state 't' is {t!r}, not a 0-d integer array "
                                      ">= 0")
       for t in [np.array([1, 2, 3]), np.array(-1), np.array(True), np.array(2.0)]},
    "load_state_arrays-float32-m": (lambda ctx: optimizer_state(m=np.zeros(PARAMS, np.float32)),
                                    ValueError, "optimizer state 'm' has dtype float32, but the "
                                    "weights float64"),
    "lr_at-epoch-0": (lambda ctx: lr_at(0, 1e-3, 0.3, 10), ValueError,
                      "epoch must be >= 1, got 0"),
    **{f"lr_at-step_every-{n}": (lambda ctx, n=n: lr_at(3, 1e-3, 0.5, n), ValueError,
                                 f"step_every must be >= 1, got {n}") for n in (0, -3, NAN)},
    **{f"lr_at-step_every-{n}": (lambda ctx, n=n: lr_at(3, 1e-3, 0.5, n), ValueError,
                                 f"step_every must be an int, got {n!r}") for n in (True, 2.5)},
    # network
    **{f"forward-{shape}": (lambda ctx, shape=shape: net().forward(np.zeros(shape)), ShapeError,
                            f"input shape {shape} {SHAPE}")
       for shape in [(1, 18, 18), (2, 32, 32), (3, 64, 64), (32, 32)]},
    **{f"{entry}-{row}": (lambda ctx, load=load, bad=bad: load(bad), ValueError,
                          f"{what} holds {held}, but {whose} need {PARAMS}")
       for row, (bad, held) in FLAT.items() for entry, (load, what, whose) in FLAT_LOADS.items()},
    **{f"net-dtype-{dtype!r}": (lambda ctx, dtype=dtype: net(dtype=dtype), ValueError,
                                f"dtype must be float32 or float64, got {dtype!r}")
       for dtype in [np.int32, "float16", "f4", None]},
    **{f"from_arrays-dtype-{np.dtype(dtype)}": (
        lambda ctx, dtype=dtype: SegNetwork.from_arrays(NetworkConfig(**NET),
                                                        np.zeros(PARAMS, dtype)),
        ValueError, f"the weight array has dtype {np.dtype(dtype)}, not float32 or float64")
       for dtype in [np.int64, np.float16, np.uint8]},
    **{f"side_output-depth-{depth}": (lambda ctx, depth=depth: net().side_output(None, depth),
                                      ValueError, f"side_output: depth {depth} outside 1..3")
       for depth in (0, 4)},
    # configs, built directly (an unknown keyword is the constructor's TypeError) and
    # through from_dict
    **{f"{row}-dataclass": (lambda ctx, leaf=leaf, value=value: build_directly(leaf, value),
                            ValueError, _directly(leaf, value, rule))
       for row, (leaf, value, rule) in CONFIG_ROWS.items() if rule is not None},
    # a section built directly must be its config class, not a mapping or the other class
    **{f"section-{name}-{type(value).__name__}-dataclass": (
        lambda ctx, name=name, value=value: TrainConfig(**{name: value}), ValueError,
        f"{name} must be a {SECTIONS[name][0].__name__}, got {value!r}")
       for name, value in [("network", {"depth": 3}), ("network", DistillConfig()),
                           ("distill", {"tau": 3.0}), ("distill", None)]},
    **{f"{row}-from_dict": (lambda ctx, leaf=leaf, value=value: TrainConfig.from_dict(
        _nested(leaf, value)), ValueError, _refusal(leaf, value, rule))
       for row, (leaf, value, rule) in CONFIG_ROWS.items()},
    **{f"{row}-dataclass": (lambda ctx, h=h, w=w, g=g: TrainConfig(
        network=NetworkConfig(**{**NET, "height": h, "width": w}), distill=DistillConfig(grid_g=g)),
        ValueError, untiled(h, w, g)) for row, (h, w, g) in UNTILED.items()},
    **{f"{row}-from_dict": (lambda ctx, h=h, w=w, g=g: TrainConfig.from_dict(
        {"network": {**NET, "height": h, "width": w}, "distill": {"grid_g": g}}),
        ValueError, untiled(h, w, g)) for row, (h, w, g) in UNTILED.items()},
    # checkpoint files, loaded and resumed from
    **{f"{row}-{column}": (checkpoint_call(column, make, refusal), ValueError,
                           refusal.format("ckpt.npz"))
       for row, (make, refusals) in CHECKPOINT_ROWS.items()
       for column, refusal in refusals.items() if "--" not in column},
    # train, refusing a split before epoch 1 and stopped inside an epoch
    "train-no-training-samples": (
        lambda ctx: training(ctx, dataclasses.replace(ctx.dataset, train=[])), ValueError,
        "dataset has no training samples"),
    **{f"train-{part}-mask-16x16": (
        lambda ctx, part=part: training(ctx, adding(ctx, part, sample(32, 32, (1, 16, 16)))),
        ValueError, ODD + "mask shape (1, 16, 16) differs from its image's (1, 32, 32)")
       for part in ("train", "val")},
    "train-image-34x34": (lambda ctx: training(ctx, adding(ctx, "train", sample(34, 34))),
                          ValueError, ODD + f"input shape (1, 34, 34) {SHAPE}"),
    # the DDL's grid: epoch 1 has no teacher, so this used to fail in epoch 2
    "train-image-32x64": (lambda ctx: training(ctx, adding(ctx, "val", sample(32, 64))),
                          ValueError, ODD + "grid 4x4 does not evenly tile 32x64 into square "
                          "patches"),
    **{f"train-nan-image-at-{position}": (lambda ctx, position=position: training(
        ctx, in_first_batch(ctx, position, image=Tensor(np.full((1, 32, 32), np.nan))), 1),
        FloatingPointError, "epoch 1, batch 0: dice loss is nan") for position in (0, 2)},
    "train-worker-killed": (lambda ctx: training(ctx, t=2, hook=kill_workers),
                            RuntimeError, "a training worker exited unexpectedly"),
    "train-worker-dies-mid-batch": (worker_dies_mid_batch, RuntimeError,
                                    "a training worker exited unexpectedly"),
    **{f"train-failing-sample-at-{position}": (
        failing_sample(position), ShapeError, "dice_loss: shapes differ, (1, 32, 32) vs "
        "(1, 16, 16)") for position in (0, 2)},
    "write_metrics_csv-no-rows": (lambda ctx: write_metrics_csv([], "metrics.csv"), ValueError,
                                  "no metric rows to write"),
    # sweep, refusing before any run trains
    "sweep-axis-x": (sweeping("x", [1.0]), ValueError,
                     "unknown sweep axis 'x' (expected tau, n, or alpha)"),
    "sweep-no-test-samples": (
        sweeping("tau", [1.0], lambda ctx: dataclasses.replace(ctx.dataset, test=[])),
        ValueError, "dataset has no test samples to score the runs on"),
    **{f"sweep-{part}-image-{side}x{side}": (
        sweeping("tau", [1.0], lambda ctx, part=part, side=side: adding(
            ctx, part, sample(side, side))), ValueError,
        ODD + f"input shape (1, {side}, {side}) {SHAPE}") for part, side in [("test", 31),
                                                                           ("train", 34)]},
    "sweep-alpha-True": (sweeping("alpha", [0.5, True]), ValueError,
                         "alpha value True is not a number"),
    "sweep-n-5": (sweeping("n", [4, 5]), ValueError,
                  "patch count 5 is not a positive whole perfect square"),
}


@pytest.mark.parametrize("call, kind, message", ROWS.values(), ids=ROWS.keys())
def test_a_bad_library_argument_is_refused_naming_it(ctx, tmp_path, monkeypatch, call, kind,
                                                     message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(kind) as raised:
        call(ctx)
    assert type(raised.value) is kind and str(raised.value) == message, raised.value


LIBRARY = pathlib.Path(vesseldistill.__file__).parent
SOURCES = sorted(LIBRARY.glob("*.py"))
# the modules whose every raise a row must reach: all but cli.py, whose refusals
# `main` catches and the CLI cells reach (test_every_cli_raise_has_a_cell)
CLI = LIBRARY / "cli.py"
SCANNED = [path for path in SOURCES if path != CLI]


def raise_statements(paths=SCANNED):
    """module:line -> the (file, line) pairs it spans, of each `raise` statement in
    `paths` that raises an exception rather than re-raising one."""
    found = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc:
                lines = range(node.lineno, node.end_lineno + 1)
                found[f"{path.name}:{node.lineno}"] = {(path, line) for line in lines}
    return found


def test_every_library_raise_has_a_row(ctx, tmp_path, monkeypatch):
    raise_lines = set().union(*raise_statements(SOURCES).values())
    reached, foreign = set(), []
    for i, (row, (call, _, _)) in enumerate(ROWS.items()):
        (tmp_path / str(i)).mkdir()
        monkeypatch.chdir(tmp_path / str(i))
        with pytest.raises(Exception) as raised:
            call(ctx)
        exc, sites = raised.value, []
        # where it was raised, then each raised exception in its cause/context chain
        while exc is not None and exc.__traceback__ is not None:
            tb = exc.__traceback__
            while tb.tb_next:
                tb = tb.tb_next
            sites.append((pathlib.Path(tb.tb_frame.f_code.co_filename), tb.tb_lineno))
            exc = exc.__cause__ or exc.__context__
        if sites[0] not in raise_lines:
            foreign.append(f"{row}: %s:%d" % sites[0])
        reached.update(sites)
    assert not foreign, f"raised by no library `raise`: {foreign}"
    unreached = [at for at, lines in raise_statements().items() if not lines & reached]
    assert not unreached, f"reached by no row: {unreached}"


def test_every_cli_raise_has_a_cell(ctx, tmp_path, capsys):
    """`main` catches what cli.py raises, so no traceback is left to read; a
    tracer on cli.py's frames records each line an exception starts from."""
    reached = set()

    def in_cli(frame, event, arg):
        if event == "exception" and arg[2].tb_next is None:  # raised here, not passed on
            reached.add((CLI, frame.f_lineno))
        return in_cli

    def on_call(frame, event, arg):
        return in_cli if frame.f_code.co_filename == str(CLI) else None

    previous = sys.gettrace()
    for i, cell in enumerate(CLI_CELLS.values()):
        tmp = tmp_path / str(i)
        tmp.mkdir()
        argv, text = cell(ctx, tmp)
        sys.settrace(on_call)
        try:
            refused(argv, text, tmp, capsys)
        finally:
            sys.settrace(previous)
    unreached = [at for at, lines in raise_statements([CLI]).items() if not lines & reached]
    assert not unreached, f"reached by no CLI cell: {unreached}"
