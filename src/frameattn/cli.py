"""Command-line interface.

Subcommands: train, eval, cv, synth, visualize. Machine-readable JSON goes
to stdout, progress lines to stderr. Exit codes: 0 success, 1 usage, 2
data/format/config problems, 3 numeric failure, 141 (128 + SIGPIPE) when
the reader of stdout closed it early, with no message. Every command is
deterministic given identical inputs, flags, and seed. The `frameattn`
console script calls main, and `python -m frameattn.cli` runs the same;
both exit with its code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from . import __version__
from .data import (SynthConfig, atomic_open, build_folds, load_feature_file,
                   open_feature_file, synth_generate, write_feature_file)
from .errors import ConfigError, FrameAttnError, NumericError
from .evaluation import cross_validate, evaluate, export_attention
from .model import Mode
from .training import (
    TrainConfig,
    afew_config,
    ckplus_config,
    history_lines,
    load_checkpoint,
    save_checkpoint,
    synth_default_config,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_PIPE = 141  # 128 + SIGPIPE: what a shell reports for a writer the signal killed

_PRESETS = {
    "ck+": ckplus_config,
    "afew": afew_config,
    "synth-default": synth_default_config,
}

# the synth flags that are not named after their SynthConfig field
_SYNTH_FLAGS = {"num_classes": "classes", "peak_frames": "peaks", "subject_count": "subjects"}


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")
    sys.stdout.flush()  # so that a closed pipe is raised inside main


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _train_config(args) -> TrainConfig:
    # every TrainConfig field has a flag of that dest; the unset ones are None
    given = {f.name: getattr(args, f.name) for f in fields(TrainConfig)
             if getattr(args, f.name) is not None}
    return _PRESETS[args.preset](**{**given, "mode": Mode(args.mode.replace("-", "_"))})


def _load_data(args):
    if args.data is not None:
        return load_feature_file(args.data)
    if args.preset == "synth-default":
        _log("no --data given; generating the default synthetic dataset")
        return synth_generate(SynthConfig(seed=args.seed))
    raise ConfigError(f"--data is required with preset '{args.preset}'")


def cmd_train(args) -> int:
    config = _train_config(args)
    # an output that cannot be written is refused before any data work
    for flag, path in (("--out", args.out), ("--history", args.history)):
        if path is not None and (not os.path.basename(path) or os.path.isdir(path)
                                 or not os.path.isdir(os.path.dirname(path) or ".")):
            raise ConfigError(f"{flag} must name a file in an existing directory, got {path!r}")
    dataset = _load_data(args)

    def on_epoch(stats):
        _log(f"epoch {stats.epoch} lr={stats.lr:g} loss={stats.loss:.6f} "
             f"train_acc={stats.train_accuracy:.4f}")

    params, history = train(dataset, config, on_epoch=on_epoch)
    save_checkpoint(params, args.out)
    if args.history is not None:
        with atomic_open(args.history, "w") as f:
            f.write("\n".join(history_lines(history)) + "\n")
    _emit({
        "checkpoint": args.out,
        "mode": config.mode.value,
        "epochs": len(history),
        "final_loss": history[-1].loss if history else None,
        "final_train_accuracy": history[-1].train_accuracy if history else None,
    })
    return EXIT_OK


def cmd_eval(args) -> int:
    params = load_checkpoint(args.checkpoint)
    dataset = open_feature_file(args.data)
    report = evaluate(params, dataset, frame_mode=args.frames,
                      k=args.k, seed=args.seed)
    result = {"mode": params.mode.value, **report.to_dict()}
    if args.per_instance:
        # the predictions the report tallied, in dataset order
        result["instances"] = [
            {"video_id": inst.video_id, "label": inst.label, "prediction": pred}
            for inst, pred in zip(dataset.instances, report.predictions.tolist())
        ]
    _emit(result)
    return EXIT_OK


def cmd_cv(args) -> int:
    config = _train_config(args)
    dataset = load_feature_file(args.data)
    plan = build_folds(dataset, args.folds)
    reports, pooled = cross_validate(dataset, config, plan)
    _emit({
        "folds": [
            {
                "fold": i,
                "subjects": sorted(plan.subjects_in(i)),
                "report": r.to_dict(),
            }
            for i, r in enumerate(reports)
        ],
        "fold_mean_accuracy": sum(r.accuracy for r in reports) / len(reports),
        "pooled": pooled.to_dict(),
    })
    return EXIT_OK


def cmd_synth(args) -> int:
    # the parser holds only the flags given, each under its field's name;
    # SynthConfig supplies the rest
    config = SynthConfig(**{f.name: getattr(args, f.name) for f in fields(SynthConfig)
                            if hasattr(args, f.name)})
    dataset = synth_generate(config)
    write_feature_file(dataset, args.out)
    _emit({
        "path": args.out,
        "instances": len(dataset.instances),
        "dim": dataset.dim,
        "classes": dataset.num_classes,
        "subjects": len(dataset.subjects()),
        "bytes": os.path.getsize(args.out),
    })
    return EXIT_OK


def cmd_visualize(args) -> int:
    params = load_checkpoint(args.checkpoint)
    dataset = open_feature_file(args.data)
    csv_path, json_path = export_attention(params, dataset, args.out)
    _emit({"csv": csv_path, "json": json_path, "videos": len(dataset.instances)})
    return EXIT_OK


def _add_train_flags(p) -> None:
    """The train and cv settings; each flag's dest is its TrainConfig field."""
    p.add_argument("--preset", choices=sorted(_PRESETS), default="synth-default")
    p.add_argument("--mode", choices=["full", "self-only", "self_only"],
                   default="full")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--epochs", dest="total_epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--lr", dest="schedule", type=lambda rate: [(0, float(rate))],
                   metavar="LR", help="replace the preset schedule with a constant rate")
    p.add_argument("--momentum", type=float)
    p.add_argument("--weight-decay", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="frameattn",
                     description="Train and evaluate attention-weighted "
                                 "frame aggregation models")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--data", help="feature file; omit to generate the "
                                  "synthetic default")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--history", help="also write per-epoch stats to this file")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a feature file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--frames", choices=["all", "sampled"], default="all")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--per-instance", action="store_true",
                   help="include per-video predictions in the JSON report")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("cv", help="person-independent cross-validation")
    p.add_argument("--data", required=True)
    p.add_argument("--folds", type=int, default=10)
    _add_train_flags(p)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("synth", help="generate a planted-peak feature file",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--out", required=True)
    for f in fields(SynthConfig):  # each flag's dest is its field
        flag = "--" + _SYNTH_FLAGS.get(f.name, f.name).replace("_", "-")
        if isinstance(f.default, bool):
            p.add_argument(flag, dest=f.name, action="store_true",
                           help="place peaks at the end of each video")
        else:
            p.add_argument(flag, dest=f.name, type=type(f.default))
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("visualize",
                       help="export per-frame attention weights as CSV/JSON")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_visualize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except NumericError as e:
        _log(f"numeric error: {e}")
        return EXIT_NUMERIC
    except BrokenPipeError:
        # the reader of stdout is gone, which is no data error: stop with no
        # message, and point stdout's descriptor at devnull so that the
        # interpreter's last flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except (FrameAttnError, OSError) as e:
        _log(f"error: {e}")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
