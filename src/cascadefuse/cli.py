"""Command-line entry point.

Subcommands: validate, simulate, generate-synthetic, infectiousness,
train, eval, ablate, sweep, import.

`train` writes one checkpoint with model.save_checkpoint: the parameters
(.npz) and a JSON manifest with the model config, the tf-idf vocabulary,
the user and temporal scalers and the label set. `eval` scores with exactly
those, whatever dataset it is given.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

from . import data as dat
from . import features as feat
from . import model as mdl
from . import pointprocess as pp
from .errors import CascadeFuseError


def cmd_validate(args):
    manifest = dat.load_dataset(args.input)
    print(f"{len(manifest.stories)} stories, label set {list(manifest.label_set)}")
    return 0


def cmd_simulate(args):
    story = dat.SyntheticProfile(horizon_days=args.horizon_days).cascade(
        "true" if args.profile == "real" else "fake", args.seed, f"sim-{args.seed}")
    dat.save_dataset(dat.DatasetManifest(stories=[story], label_set=dat.BINARY_LABELS), args.out)
    print(f"simulated cascade with {len(story.posts)} posts -> {args.out}")
    return 0


def cmd_generate_synthetic(args):
    spec = dat.SyntheticProfile(shared_text=args.shared_text,
                                horizon_days=args.horizon_days)
    manifest = dat.split_dataset(dat.generate_synthetic(args.n_per_class, seed=args.seed,
                                                        profile_spec=spec), args.seed)
    dat.save_dataset(manifest, args.out)
    dat.save_split(manifest.split, args.out)
    print(f"{len(manifest.stories)} synthetic stories -> {args.out}")
    return 0


def cmd_infectiousness(args):
    manifest = dat.load_dataset(args.input)
    grid = pp.default_grid(args.grid_hours)
    with open(args.out, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["story_id"] + [f"h{int(h)}" for h in grid])
        for story in manifest.stories:
            values = pp.infectiousness_series(story, grid).values
            w.writerow([story.id] + [f"{v:.10g}" for v in values])
    print(f"wrote {len(manifest.stories)} series -> {args.out}")
    return 0


def _load_split(args, manifest, seed=0):
    """The split of --split (which must exist), else of the input's sidecar, else a fresh
    one made with --seed if it is given, else with seed."""
    split_path = args.split or dat.split_path(args.input)
    if args.split is None and not os.path.exists(split_path):
        return dat.split_dataset(manifest, seed if args.seed is None else args.seed)
    manifest.split = dat.load_split(split_path, [s.id for s in manifest.stories])
    return manifest


def _prepare(args):
    """Setup of train, ablate and sweep: the config (--config file, then flags;
    vocab_size as the vocabulary built fixes it), the split, made with the config's seed if
    the input has no sidecar, and the featurizer fit on train."""
    values = mdl.config_fields(dat.read_json_object(args.config), args.config) \
        if args.config else {}
    # CLI flags override file values
    for name in ("variant", "seed", "seq_len", "max_epochs", "vocab_size"):
        v = getattr(args, name)
        if v is not None:
            values[name] = v
    config = mdl.ModelConfig(**values)
    manifest = _load_split(args, dat.load_dataset(args.input), config.seed)
    splits = manifest.by_split()
    train_stories = splits.get("train", [])
    vocab = feat.build_vocabulary(train_stories, K=config.vocab_size)
    scaler = feat.fit_user_scaler(train_stories)
    return manifest, splits, vocab, scaler, dataclasses.replace(config, vocab_size=vocab.size)


def cmd_train(args):
    manifest, splits, vocab, scaler, config = _prepare(args)
    bundles = feat.build_bundles({k: splits.get(k, []) for k in ("train", "val")}, vocab,
                                 scaler, config)
    params, history, tscaler = mdl.train(bundles["train"], bundles["val"], config,
                                         label_set=manifest.label_set)
    mdl.save_checkpoint(args.out, params, config, vocab, scaler, tscaler, manifest.label_set)
    with open(mdl.checkpoint_base(args.out) + ".history.json", "w", encoding="utf-8") as f:
        json.dump(history.to_dict(), f, indent=2)
    print(f"trained {config.variant}: best epoch {history.best_epoch}, "
          f"val loss {min(history.val_loss):.4f} -> {args.out}")
    return 0


def cmd_eval(args):
    dataset = dat.load_dataset(args.input)
    params, config, vocab, scaler, tscaler, label_set = mdl.load_checkpoint(args.checkpoint)
    # without a sidecar, split as train did: with the checkpoint's seed unless --seed is given
    test = {"test": _load_split(args, dataset, config.seed).by_split().get("test", [])}
    report = mdl.evaluate(feat.build_bundles(test, vocab, scaler, config)["test"], params,
                          config, label_set=label_set, scaler=tscaler)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(report.to_dict(), f, indent=2)
    print(f"accuracy {report.accuracy:.4f} -> {args.out}")
    return 0


def cmd_ablate(args):
    manifest, splits, vocab, scaler, base = _prepare(args)
    configs = [dataclasses.replace(base, variant=variant) for variant in feat.VARIANTS]
    reports = mdl.train_and_test(splits, vocab, scaler, configs, manifest.label_set)
    out = {}
    for variant, report in zip(feat.VARIANTS, reports):
        out[variant] = report.to_dict()
        print(f"{variant}: accuracy {report.accuracy:.4f}")
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=2)
    return 0


def cmd_sweep(args):
    manifest, splits, vocab, scaler, config = _prepare(args)
    rows = mdl.timeframe_sweep(splits, vocab, scaler, args.days, config,
                               label_set=manifest.label_set)
    with open(args.out, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["days", "accuracy"])
        for d, acc in rows:
            w.writerow([d, f"{acc:.6f}"])
    for d, acc in rows:
        print(f"days={d}: accuracy {acc:.4f}")
    return 0


def cmd_import(args):
    manifest = dat.import_tree_dataset(args.input)
    dat.save_dataset(manifest, args.out)
    print(f"imported {len(manifest.stories)} stories -> {args.out}")
    return 0


def _seed(text: str) -> int:
    """argparse type for --seed: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer seed, got {text!r}")
    return int(text)


def _day_counts(text: str) -> list[int]:
    """argparse type for --days: a comma list of non-negative integers."""
    parts = [d.strip() for d in text.split(",")]
    if not all(d.isdecimal() for d in parts):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated non-negative day counts, got {text!r}")
    return [int(d) for d in parts]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cascadefuse")
    sub = ap.add_subparsers(dest="command", required=True)

    def dataset_options(p):
        p.add_argument("--input", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=_seed, default=None)
        p.add_argument("--split", default=None)

    def model_options(p):
        dataset_options(p)
        p.add_argument("--config", default=None)
        p.add_argument("--variant", default=None)
        p.add_argument("--seq-len", dest="seq_len", type=int, default=None)
        p.add_argument("--max-epochs", dest="max_epochs", type=int, default=None)
        p.add_argument("--vocab-size", dest="vocab_size", type=int, default=None)

    p = sub.add_parser("validate", help="parse and validate a JSONL dataset")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="simulate a single Hawkes cascade")
    p.add_argument("--profile", choices=("real", "fake"), default="real")
    p.add_argument("--horizon-days", type=float, default=dat.SyntheticProfile.horizon_days)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("generate-synthetic", help="generate a labeled synthetic dataset")
    p.add_argument("--n-per-class", type=int, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--horizon-days", type=float, default=dat.SyntheticProfile.horizon_days)
    p.add_argument("--shared-text", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate_synthetic)

    p = sub.add_parser("infectiousness", help="per-story hourly infectiousness CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--grid-hours", type=int, default=pp.DEFAULT_GRID_HOURS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_infectiousness)

    p = sub.add_parser("train", help="train a model variant")
    model_options(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    dataset_options(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train and evaluate all four variants")
    model_options(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="time-frame sweep over day counts")
    model_options(p)
    p.add_argument("--days", type=_day_counts, default=list(range(7)))
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("import", help="import a public tree-layout dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_import)

    return ap


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CascadeFuseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
