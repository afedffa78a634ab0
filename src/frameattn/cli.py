"""Command-line interface.

Subcommands: train, eval, cv, gradcheck, synth, visualize. Machine-readable
JSON goes to stdout, progress lines to stderr. Exit codes: 0 success,
1 usage, 2 data/format/config problems, 3 numeric failure. Every command is
deterministic given identical inputs, flags, and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .data import (SynthConfig, atomic_open, build_folds, load_feature_file,
                   open_feature_file, synth_generate, write_feature_file)
from .errors import ConfigError, FrameAttnError, NumericError
from .evaluation import cross_validate, evaluate, export_attention
from .model import Mode, gradient_pair, init_params, locate
from .numerics import COUNT_MAX, relative_errors, require_integer, require_real
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
    dataset = _load_data(args)

    def on_epoch(stats):
        val = "" if stats.val_accuracy is None else f" val_acc={stats.val_accuracy:.4f}"
        _log(f"epoch {stats.epoch} lr={stats.lr:g} loss={stats.loss:.6f} "
             f"train_acc={stats.train_accuracy:.4f}{val}")

    params, history = train(dataset, config, on_epoch=on_epoch)
    save_checkpoint(params, args.out)
    if args.history:
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


def cmd_gradcheck(args) -> int:
    for flag, value in (("--eps", args.eps), ("--tol", args.tol)):
        require_real(flag, value)
        if value <= 0:
            raise ConfigError(f"{flag} must be positive, got {value}")
    for flag, value in (("--configs", args.configs), ("--d", args.d),
                        ("--n", args.n), ("--c", args.c)):
        if value is not None:
            require_integer(flag, value, 1, maximum=COUNT_MAX)
    require_integer("--seed", args.seed, 0)
    rng = np.random.default_rng(args.seed)
    results = []
    for i in range(args.configs):
        d = args.d if args.d is not None else int(rng.choice([4, 8, 16]))
        n = args.n if args.n is not None else int(rng.integers(1, 7))
        c = args.c if args.c is not None else int(rng.choice([3, 7]))
        mode = Mode.FULL if i % 2 == 0 else Mode.SELF_ONLY
        features = rng.standard_normal((n, d))
        params = init_params(d, c, mode, seed=int(rng.integers(0, 2**31)))
        label = int(rng.integers(0, c))

        analytic, fd = gradient_pair(features, params, label, args.eps)
        if args.corrupt:
            analytic[0] += 1.0
        errs = relative_errors(analytic, fd)
        err = float(np.max(errs))
        name, pos = locate(params.blocks, int(np.argmax(errs)))
        worst = f"{name}[{pos}]"
        ok = err < args.tol
        results.append({"config": i, "mode": mode.value, "d": d, "n": n, "c": c,
                        "max_rel_err": err, "worst": worst, "ok": ok})
        _log(f"config {i}: mode={mode.value} d={d} n={n} c={c} "
             f"max_rel_err={err:.3e} {'ok' if ok else 'FAIL at ' + worst}")
    failures = [r for r in results if not r["ok"]]
    _emit({"tol": args.tol, "eps": args.eps, "configs": results,
           "passed": not failures})
    for r in failures:
        _log(f"FAIL config {r['config']}: {r['worst']} rel_err={r['max_rel_err']:.3e}")
    return EXIT_NUMERIC if failures else EXIT_OK


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

    p = sub.add_parser("gradcheck",
                       help="check analytic gradients against finite differences")
    p.add_argument("--configs", type=int, default=20)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--d", type=int, help="pin the feature dimension")
    p.add_argument("--n", type=int, help="pin the frame count")
    p.add_argument("--c", type=int, help="pin the class count")
    p.add_argument("--corrupt", action="store_true",
                   help="negative control: perturb the analytic gradient "
                        "and expect failure")
    p.set_defaults(func=cmd_gradcheck)

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
    except (FrameAttnError, OSError) as e:
        _log(f"error: {e}")
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
