"""Command-line front-end.

Subcommands: generate-data, train, evaluate, predict, gradcheck, sweep.
Configuration comes from an optional JSON file plus positional key=value
overrides (dotted keys reach nested sections, e.g. distill.tau=4).

Exit codes: 0 success, 1 usage or validation error (a ValueError or OSError,
printed as one line), 2 gradient-check failure. Any other exception
propagates with its traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import checks
from .data import generate_synthetic, load_pgm, load_sample_dir, save_sample_dir, split
from .network import ShapeError, load_checkpoint
from .train import TrainConfig, evaluate, predict_to_file, sweep, train, write_metrics_csv

USAGE_ERROR = 1
CHECK_FAILURE = 2


def _apply_overrides(config_dict, overrides):
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config_dict
        parts = key.split(".")
        for i, part in enumerate(parts[:-1]):
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValueError(f"{'.'.join(parts[:i + 1])} must be a mapping to set "
                                 f"{key}, got {node!r}")
        node[parts[-1]] = value
    return config_dict


def _check_out_path(option, path):
    """Refuse a file to write that is a directory or in no existing directory,
    before any work rather than after all of it."""
    if Path(path).is_dir() or not Path(path).parent.is_dir():
        raise ValueError(f"{option} {path} names no file in an existing directory")


def _load_train_config(args):
    config_dict = {}
    if args.config:
        must = f"{args.config} must hold a JSON object of TrainConfig fields"
        try:
            config_dict = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{must}; it is not valid JSON: {exc}") from None
        if not isinstance(config_dict, dict):
            raise ValueError(f"{must}, got {config_dict!r}")
    return TrainConfig.from_dict(_apply_overrides(config_dict, args.overrides))


def cmd_generate_data(args):
    samples = generate_synthetic(seed=args.seed, count=args.count, size=args.size)
    save_sample_dir(samples, args.out)
    print(f"wrote {len(samples)} samples ({args.size}x{args.size}) to {args.out}")
    return 0


def cmd_train(args):
    cfg = _load_train_config(args)
    result = train(cfg, split(load_sample_dir(args.data), seed=cfg.seed))
    last = result.logs[-1]
    print(f"trained {cfg.epochs} epochs; best val DSC {result.best_val_dsc:.4f}; "
          f"final train loss {last.train_loss:.4f}")
    print(f"checkpoints: {result.final_path} (last), {result.best_path} (best)")
    print(f"epoch log: {Path(cfg.out_dir) / 'epochs.csv'}")
    return 0


def cmd_evaluate(args):
    if args.csv:
        _check_out_path("--csv", args.csv)
    ckpt = load_checkpoint(args.checkpoint, extras=False)
    seed = args.seed
    if args.split != "all" and seed is None:  # split as train did, with its seed
        if ckpt.run is None or "seed" not in ckpt.run["train_config"]:
            raise ValueError(f"{args.checkpoint} stores no training config to take the "
                             "split seed from; pass --seed")
        seed = ckpt.run["train_config"]["seed"]
    samples = load_sample_dir(args.data)
    if args.split != "all":
        samples = getattr(split(samples, seed=seed), args.split)
    if not samples:
        raise ValueError(f"--data {args.data} holds no {args.split} samples")
    report = evaluate(ckpt.to_network(trainable=False), samples)
    print(f"{'metric':<8}{'value':>10}")
    for name, value in report.as_dict().items():
        print(f"{name:<8}{value:>10.4f}")
    if report.degenerate:
        print("note: at least one image had a degenerate (empty-mask) metric")
    if args.csv:
        write_metrics_csv([report.as_dict()], args.csv)
        print(f"wrote {args.csv}")
    return 0


def cmd_predict(args):
    _check_out_path("--out", args.out)
    try:
        predict_to_file(args.checkpoint, load_pgm(args.image), args.out)
    except ShapeError as exc:  # an image the checkpoint's net cannot take
        raise ValueError(f"--image {args.image}: {exc}") from None
    print(f"wrote {args.out}")
    return 0


def cmd_gradcheck(args):
    if args.seeds < 1:
        raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
    results = checks.run_suite(seeds=range(args.seeds))
    failures = [r for r in results if not r["ok"]]
    for r in results:
        status = "ok" if r["ok"] else "FAIL"
        print(f"[{status}] seed={r['seed']} {r['name']} "
              f"worst_abs_err={r['worst_abs_err']:.3e}")
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    return 0 if not failures else CHECK_FAILURE


def cmd_sweep(args):
    try:
        values = [json.loads(v) for v in args.values.split(",")]
    except json.JSONDecodeError as exc:
        raise ValueError(f"--values item {exc.doc!r} is not a number") from None
    if args.csv:
        _check_out_path("--csv", args.csv)
    cfg = _load_train_config(args)
    dataset = split(load_sample_dir(args.data), seed=cfg.seed)
    if not dataset.test:
        raise ValueError(f"--data {args.data} holds no test samples to score the runs on")
    rows = sweep(args.axis, values, cfg, dataset)
    out = args.csv or str(Path(cfg.out_dir) / f"sweep_{args.axis}.csv")
    write_metrics_csv(rows, out)
    header = [args.axis, "DSC", "ACC", "SEN", "IOU"]
    print("  ".join(f"{h:>8}" for h in header))
    for row in rows:
        print("  ".join(f"{row[h]:>8.4f}" if isinstance(row[h], float) else f"{row[h]:>8}"
                        for h in header))
    print(f"wrote {out}")
    return 0


def build_parser():
    # allow_abbrev=False on every parser: a prefix of an option is refused, not
    # taken for the one option it begins (gradcheck --seed 3 for --seeds 3)
    parser = argparse.ArgumentParser(
        prog="vesseldistill", allow_abbrev=False,
        description="Hierarchical self-distillation training for vessel segmentation")
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("generate-data", help="write a synthetic PGM dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate_data)

    def add_config_args(p):
        p.add_argument("--config", help="JSON file with TrainConfig fields")
        p.add_argument("overrides", nargs="*", metavar="key=value",
                       help="config overrides, dotted keys for nested sections")

    p = add_parser("train", help="run the full training loop")
    p.add_argument("--data", required=True, help="dataset dir (images/ + masks/)")
    add_config_args(p)
    p.set_defaults(func=cmd_train)

    p = add_parser("evaluate", help="report metrics for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=["train", "val", "test", "all"], default="test")
    p.add_argument("--seed", type=int,
                   help="split seed (default: the seed the checkpoint was trained with)")
    p.add_argument("--csv", help="also write a machine-readable CSV")
    p.set_defaults(func=cmd_evaluate)

    p = add_parser("predict", help="write a binarized P5 mask for one image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = add_parser("gradcheck", help="run the finite-difference gradient suite")
    p.add_argument("--seeds", type=int, default=10)
    p.set_defaults(func=cmd_gradcheck)

    p = add_parser("sweep", help="train once per hyperparameter value")
    p.add_argument("--axis", choices=["tau", "n", "alpha"], required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--data", required=True)
    p.add_argument("--csv")
    add_config_args(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    # what bad input raises; any other exception is a bug, shown with its traceback
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
