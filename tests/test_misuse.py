"""The misuse matrix: every bad input, at every entry point, from one table.

Rows are classes of bad input. Columns are the CLI's six subcommands, each
with the argument the input is given to, plus a config built directly (the
dataclass) and through `TrainConfig.from_dict`, and for checkpoint files
`load_checkpoint` with and without extras and `train(resume_from=)`. A CLI cell
runs `cli.main` and asserts exit 1, exactly one stderr line `error: ...`
matching the cell's expected text, which names the offending path, option,
dotted config field or sample, nothing on stdout, and nothing created in the
cell's directory. A config or checkpoint cell asserts the ValueError's
message; a resume cell also asserts that no epoch started and no out_dir was
made. argparse's own refusals print a usage line as well; they are in
test_cli.py's TestExitCodes.
"""

import dataclasses
import json
import pathlib
import re
import shutil
from types import SimpleNamespace

import numpy as np
import pytest

from vesseldistill.cli import main
from vesseldistill.data import (generate_synthetic, load_sample_dir, save_pgm, save_sample_dir,
                                split)
from vesseldistill.distill import DistillConfig
from vesseldistill.network import (_FIELD_TYPES, NetworkConfig, _param_shapes, _views,
                                   load_checkpoint)
from vesseldistill.train import TrainConfig, train

from _checkpoints import older_layout, rewrite

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
# editing ctx's; its refusal is a template of the file's name, "…" standing for any text

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
        ("stored-distill.eps", stored("distill", eps=1e-7),
         "config differs from the checkpointed run in distill.eps"),
        ("stored-network.in_channels", stored("network", in_channels=1),
         "config differs from the checkpointed run in network.in_channels"),
        ("other-config", stored(learning_rate=2e-3),
         "config differs from the checkpointed run in learning_rate"),
        ("logged-row-missing-field", of_logs(lambda logs: logs[0].pop("val_dsc")),
         "its logged row 1 is no epoch log: …'val_dsc'"),
        ("logged-row-unknown-field", of_logs(lambda logs: logs[0].update(momentum=0.9)),
         "its logged row 1 is no epoch log: …'momentum'"),
        ("logged-row-str-epoch", of_logs(lambda logs: logs[1].update(epoch="2")),
         "its logged row 2 is no epoch log: epoch must be an int, got '2'"),
        ("logged-row-null-dsc", of_logs(lambda logs: logs[1].update(val_dsc=None)),
         "its logged row 2 is no epoch log: val_dsc must be a number, got None"),
        ("logged-row-list", of_logs(lambda logs: logs.__setitem__(0, [1, 0.5])),
         "its logged row 1 is no epoch log: …"),
        ("logged-row-missing", of_logs(lambda logs: logs.pop()),
         "its logged epochs are not 1 to its epoch, 2"),
        ("logged-rows-out-of-order", of_logs(lambda logs: logs.reverse()),
         "its logged epochs are not 1 to its epoch, 2"),
    ]},
}


def regex(refusal, path):
    return ".*".join(re.escape(part.format(path)) for part in refusal.split("…"))


def checkpoint_cell(make, name, refusal):
    def cell(ctx, tmp):
        make(ctx, tmp / "ckpt.npz")
        argv = command(name, ctx, tmp, checkpoint=tmp / "ckpt.npz")
        return argv, f"^error: {regex(refusal, tmp / 'ckpt.npz')}\n$"
    return cell


CLI_CELLS = {
    **{f"{row}-{name}--{option}": path_cell(make, name, option)
       for row, (make, columns) in PATH_ROWS.items() for name, option in columns},
    **VALUE_CELLS,
    **{f"{row}-{column}": checkpoint_cell(make, column.partition("--")[0], refusal)
       for row, (make, refusals) in CHECKPOINT_ROWS.items()
       for column, refusal in refusals.items() if "--" in column},
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


LIBRARY_CELLS = {f"{row}-{column}": (column, make, refusal)
                 for row, (make, refusals) in CHECKPOINT_ROWS.items()
                 for column, refusal in refusals.items() if "--" not in column}


@pytest.mark.parametrize("column, make, refusal", LIBRARY_CELLS.values(),
                         ids=LIBRARY_CELLS.keys())
def test_a_bad_checkpoint_is_refused_naming_it(ctx, tmp_path, column, make, refusal):
    path, started = tmp_path / "ckpt.npz", []
    make(ctx, path)
    with pytest.raises(ValueError) as raised:
        if column == "resume_from":
            train(dataclasses.replace(ctx.cfg, out_dir=str(tmp_path / "run")), ctx.dataset,
                  resume_from=path, epoch_start_hook=lambda t, teacher: started.append(t))
        else:
            load_checkpoint(path, extras=column == "load_checkpoint")
    assert re.fullmatch(regex(refusal, path), str(raised.value)), raised.value
    assert not started and not (tmp_path / "run").exists()
    if refusal.startswith(RESUME):  # a file that loads, whose run a resume refuses
        assert load_checkpoint(path, extras=False).epoch == ctx.cfg.epochs


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


def _json(value):
    try:
        return json.dumps(value)
    except TypeError:
        return None


CONFIG_CELLS = {f"{row}-{column}": (column, *spec) for row, spec in CONFIG_ROWS.items()
                for column in ("dataclass", "from_dict", "train", "sweep")
                # an unknown keyword is the constructor's TypeError
                if not (column == "dataclass" and spec[2] is None)
                # JSON holds no numpy scalar, type or dtype and no Path
                and not (column in ("train", "sweep") and _json(spec[1]) is None)}


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
        argv = command(column, ctx, tmp_path, f"{leaf}={_json(value)}")
        refused(argv, f"^error: {re.escape(_refusal(leaf, value, rule))}\n$", tmp_path, capsys)


UNTILED = ("distill.grid_g, network.height and network.width: grid {g}x{g} does not evenly "
           "tile {h}x{w} into square patches")


@pytest.mark.parametrize("column", ["dataclass", "from_dict", "train", "sweep"])
@pytest.mark.parametrize("h, w, g", [(32, 32, 5), (16, 32, 4)],
                         ids=["indivisible", "non-square"])  # 4x8 patches
def test_a_patch_grid_that_does_not_tile_the_size_is_refused_naming_its_fields(
        ctx, tmp_path, capsys, column, h, w, g):
    untiled = UNTILED.format(h=h, w=w, g=g)
    if column in ("train", "sweep"):
        argv = command(column, ctx, tmp_path, f"network.height={h}", f"network.width={w}",
                       f"distill.grid_g={g}")
        return refused(argv, f"^error: {re.escape(untiled)}\n$", tmp_path, capsys)
    net = {**NET, "height": h, "width": w}
    with pytest.raises(ValueError) as refusal:
        if column == "dataclass":
            TrainConfig(network=NetworkConfig(**net), distill=DistillConfig(grid_g=g))
        else:
            TrainConfig.from_dict({"network": net, "distill": {"grid_g": g}})
    assert str(refusal.value) == untiled
