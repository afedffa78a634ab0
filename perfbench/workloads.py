"""The three workloads: their inputs, one timed round each, and their checks.

Every input is generated from the workload seed, so the same seed gives the
same inputs and the same quality figures. A round is a fixed sequence of
calls into frameattn's public API and CLI; a run repeats whole rounds.

train  The planted-peak ablation as users run it: ``frameattn train
       --preset synth-default`` in full and in self-only mode (800 videos,
       4 classes, D=16, 8-16 frames, K=3, batch 48, 60 epochs), then both
       checkpoints scored on a fresh set of the same make-up drawn with
       another seed.
cv     The CK+ protocol on a CK+-shaped file: 327 videos, 7 classes, 118
       subjects, 10-60 frames, D=512, the last 4 frames of each video carry
       the class signal (neutral to apex). Loaded from FANF, 10-fold
       person-independent cross_validate under the ck+ preset cut to 8
       epochs, and the score-fusion baseline on every fold.
score  AFEW-shaped scoring, no training: 385 videos, 7 classes, D=512,
       8-128 frames, one planted peak per video. A hand-built full-mode head
       is scored with ``frameattn eval`` (all frames), ``eval --frames
       sampled`` and ``frameattn visualize``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
import traceback
from pathlib import Path

import numpy as np

import checks

FRESH_SEED_OFFSET = 10_007   # train: the scoring set's seed is seed + this
CV_FOLDS = 10
CV_EPOCHS = 8
HEAD_SCALE = 0.3             # score: slope of both attention kernels
INPUT = "input.fanf"

# Make-up of each workload's generated file. train's is the make-up of the
# default synthetic set that ``frameattn train`` draws for itself. cv has
# CK+'s 327 sequences of 118 subjects, with balanced classes: with CK+'s own
# counts (18 to 83 per class) the small classes are mostly missed in 8
# epochs, and pooled accuracy moves from seed to seed with them.
INPUTS = {
    "train": dict(classes=4, videos=800, frames=(8, 16), subjects=30, dim=16,
                  signal=8.0, noise=1.0, terminal=False),
    "cv": dict(classes=7, videos=327, frames=(10, 60), subjects=118, dim=512,
               signal=1.5, noise=0.05, terminal=True),
    "score": dict(classes=7, videos=385, frames=(8, 128), subjects=100, dim=512,
                  signal=10.0, noise=1.0, terminal=False),
}


def planted_set(fa, seed, classes, videos, frames, subjects, dim, signal, noise,
                terminal):
    """Videos of Gaussian noise whose peak frames add `signal` along their
    class axis: the last 4 frames when `terminal`, else one random frame.

    Labels are balanced and lengths evenly spread over `frames`; the seed
    only shuffles them, so every seed gives the same amount of work. Features
    are rounded to float32, the storage precision, so a FANF round trip is
    lossless. Returns the dataset and each video's peak positions.
    """
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(videos) % classes)
    lengths = rng.permutation(np.linspace(*frames, videos).round().astype(int))
    instances, peaks = [], {}
    for i, (label, n) in enumerate(zip(labels, lengths)):
        feats = noise * rng.standard_normal((n, dim))
        peak = list(range(n - 4, n)) if terminal else [int(rng.integers(n))]
        feats[peak, label] += signal
        video_id = f"v{i:04d}"
        instances.append(fa.VideoInstance(video_id, f"s{i % subjects:03d}", int(label),
                                          feats.astype(np.float32).astype(np.float64)))
        peaks[video_id] = peak
    return fa.Dataset(instances, dim, classes, [f"class_{c}" for c in range(classes)]), peaks


def hand_built_head(fa, dim, classes):
    """Full-mode head whose kernels and classifier rows point at the planted
    class directions (the first `classes` coordinate axes).

    With u_i the sum of frame i's class coordinates, alpha_i =
    sigmoid(s u_i) and beta_i = sigmoid(s u_i) (the anchor half of q1 is
    zero), so every final weight rises with u_i and the heaviest frame is
    the one with the largest u_i. Class c's logit is the attention-weighted
    mean of coordinate c.
    """
    u = np.zeros(dim)
    u[:classes] = HEAD_SCALE
    class_w = np.zeros((classes, 2 * dim))
    class_w[np.arange(classes), np.arange(classes)] = 1.0
    return fa.FanParams(u, np.concatenate([u, np.zeros(dim)]), class_w,
                        np.zeros(classes), fa.Mode.FULL)


def make_inputs(fa, workload: str, seed: int, work: Path) -> None:
    """Generate and write one workload's inputs into `work`."""
    if workload == "train":
        seed += FRESH_SEED_OFFSET
    ds, peaks = planted_set(fa, seed, **INPUTS[workload])
    fa.write_feature_file(ds, str(work / INPUT))
    (work / "peaks.json").write_text(json.dumps(peaks))
    if workload == "score":
        fa.save_checkpoint(hand_built_head(fa, ds.dim, ds.num_classes),
                           str(work / "head.fanp"))


class Ops:
    """Counts the calls a round makes into frameattn and those that fail."""

    def __init__(self, cli):
        self._cli = cli
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def cli(self, *argv) -> str:
        """Run one frameattn command in-process; returns its stdout."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self._cli.main([str(a) for a in argv])
        if code != 0:
            self.failed += 1
            sys.stderr.write(f"frameattn {argv[0]} exited {code}\n{err.getvalue()}")
        return out.getvalue()


class Workload:
    """Inputs loaded before timing, the timed round, quality and checks."""

    def __init__(self, fa, cli, seed: int, work: Path, root: Path):
        self.fa = fa
        self.seed = seed
        self.work = work
        self.root = root
        self.ops = Ops(cli)

    def prepare(self) -> None:
        pass


class Train(Workload):
    def prepare(self):
        self.fresh = self.fa.load_feature_file(str(self.work / INPUT))
        peaks = json.loads((self.work / "peaks.json").read_text())
        self.peaks = [peaks[inst.video_id] for inst in self.fresh.instances]
        self.ckpts = {"full": self.work / "full.fanp", "self-only": self.work / "self.fanp"}

    def round(self):
        fa, ops = self.fa, self.ops
        for mode, path in self.ckpts.items():
            ops.cli("train", "--preset", "synth-default", "--seed", self.seed,
                    "--mode", mode, "--out", path)
        params = {m: ops.call(fa.load_checkpoint, str(p)) for m, p in self.ckpts.items()}
        reports = {m: ops.call(fa.evaluate, p, self.fresh) for m, p in params.items()}
        weights = ops.call(lambda: [fa.forward(inst.features, params["full"])[1].final_weights
                                    for inst in self.fresh.instances])
        return {"params": params, "reports": reports, "weights": weights}

    def quality(self, out):
        return {"accuracy": out["reports"]["full"].accuracy,
                "localization": checks.share_on_peaks(out["weights"], self.peaks)}

    def check(self, out, quality):
        fa = self.fa
        chance = 1.0 / self.fresh.num_classes
        # Localization has no floor: a single seed's training finds the peaks
        # of whole classes only, any number of the 4 (0.25 on seed 22), and
        # the acceptance suite's 0.80 holds only for the median over seeds.
        failures = (checks.at_least("full-mode accuracy", quality["accuracy"], 0.90)
                    + checks.at_least("self-only accuracy",
                                      out["reports"]["self-only"].accuracy, 2 * chance)
                    + checks.weights_normalised("full-mode final weights", out["weights"]))
        for mode, path in self.ckpts.items():
            resaved = self.work / f"resaved-{path.name}"
            fa.save_checkpoint(fa.load_checkpoint(str(path)), str(resaved))
            failures += checks.same_bytes(f"{mode} checkpoint reload",
                                          path.read_bytes(), resaved.read_bytes())
        oracle = _scalar_oracle(self.root)
        for mode, params in out["params"].items():
            self_only = params.mode is fa.Mode.SELF_ONLY
            for inst in self.fresh.instances[::50]:
                failures += checks.close(
                    f"{mode} logits of {inst.video_id} vs scalar oracle",
                    fa.forward(inst.features, params)[0],
                    oracle.forward_logits(inst.features.tolist(), params.q0.tolist(),
                                          params.q1.tolist(), params.class_w.tolist(),
                                          params.class_b.tolist(), self_only=self_only),
                    atol=1e-10)
            for inst in self.fresh.instances[:3]:
                failures += gradient_failures(fa, params, inst.features[::4], inst.label,
                                              f"{mode} gradient of {inst.video_id}")
        return failures


def gradient_failures(fa, params, features, label, name, perturb=0.0):
    """Analytic gradient against this module's own central differences.
    `perturb` is added to the first analytic entry (negative control)."""
    dim, classes, mode = params.feature_dim, params.num_classes, params.mode

    def loss(flat):
        candidate = fa.FanParams.from_flat(flat, dim, classes, mode)
        return checks.log_softmax_xent(fa.forward(features, candidate)[0], label)

    analytic = fa.backward(features, params, label)[1].flatten()
    analytic[0] += perturb
    return checks.gradient_matches(name, analytic,
                                   checks.central_differences(loss, params.flatten()))


class CrossValidation(Workload):
    def round(self):
        fa, ops = self.fa, self.ops
        ds = ops.call(fa.load_feature_file, str(self.work / INPUT))
        plan = ops.call(fa.build_folds, ds, CV_FOLDS)
        config = fa.ckplus_config(seed=self.seed, total_epochs=CV_EPOCHS)
        reports, pooled = ops.call(fa.cross_validate, ds, config, plan)
        baselines = []
        for fold in range(CV_FOLDS):
            train_idx, test_idx = fa.split_by_fold(ds, plan, fold)
            baselines.append(ops.call(fa.score_fusion_baseline, ds, config,
                                      train_idx, test_idx))
        return {"dataset": ds, "plan": plan, "reports": reports, "pooled": pooled,
                "baselines": baselines}

    def quality(self, out):
        tally = np.sum([b.confusion for b in out["baselines"]], axis=0)
        return {"accuracy": out["pooled"].accuracy,
                "baseline_accuracy": float(np.trace(tally)) / float(tally.sum())}

    def check(self, out, quality):
        fa, ds = self.fa, out["dataset"]
        chance = 1.0 / ds.num_classes
        splits = [fa.split_by_fold(ds, out["plan"], f) for f in range(CV_FOLDS)]
        sizes = [len(test) for _, test in splits]
        videos = len(ds.instances)
        return (checks.folds_person_independent(
                    [inst.subject_id for inst in ds.instances], splits)
                + checks.pooled_matches_folds(
                    [r.confusion for r in out["reports"]], out["pooled"].confusion,
                    out["pooled"].accuracy, sizes, videos)
                + checks.pooled_matches_folds(
                    [b.confusion for b in out["baselines"]],
                    np.sum([b.confusion for b in out["baselines"]], axis=0),
                    quality["baseline_accuracy"], sizes, videos)
                + checks.at_least("FAN pooled accuracy", quality["accuracy"], 3.5 * chance)
                + checks.at_least("baseline pooled accuracy",
                                  quality["baseline_accuracy"], 2 * chance))


class Score(Workload):
    def prepare(self):
        self.data = self.work / INPUT
        self.head = self.work / "head.fanp"
        self.export = self.work / "weights.csv"
        self.sampled = []   # stdout of every sampled evaluation

    def _sampled_eval(self):
        self.sampled.append(self.ops.cli(
            "eval", "--checkpoint", self.head, "--data", self.data,
            "--frames", "sampled", "--seed", self.seed))

    def round(self):
        ops = self.ops
        out = ops.cli("eval", "--checkpoint", self.head, "--data", self.data)
        self._sampled_eval()
        ops.cli("visualize", "--checkpoint", self.head, "--data", self.data,
                "--out", self.export)
        return out

    def quality(self, out):
        summary = json.loads(self.export.with_suffix(".json").read_text())
        peaks = json.loads((self.work / "peaks.json").read_text())
        videos = summary["videos"]
        self.weights = [v["final_weights"] for v in videos]
        return {"accuracy": json.loads(out)["accuracy"],
                "localization": checks.share_on_peaks(
                    self.weights, [peaks[v["video_id"]] for v in videos])}

    def check(self, out, quality):
        fa = self.fa
        ds = fa.load_feature_file(str(self.data))
        params = fa.load_checkpoint(str(self.head))
        classes = ds.num_classes
        failures = checks.weights_normalised("exported final weights", self.weights)

        with open(self.export, newline="") as f:
            rows = list(csv.reader(f))[1:]
        failures += checks.export_rows_match(
            rows, [(inst.video_id, fa.forward(inst.features, params)[1].final_weights)
                   for inst in ds.instances])

        # the construction fixes the heaviest frame: the one whose class
        # coordinates sum highest
        scores = [inst.features[:, :classes].sum(axis=1) for inst in ds.instances]
        failures += checks.top_weight_on_top_score("final weights", self.weights, scores)

        # all-frame accuracy against the scalar oracle, which sees only the
        # coordinates the head reads (every other weight is zero)
        oracle = _scalar_oracle(self.root)
        d = ds.dim
        cols = np.r_[0:classes, d:d + classes]
        correct = 0
        for inst in ds.instances:
            logits = oracle.forward_logits(
                inst.features[:, :classes].tolist(), params.q0[:classes].tolist(),
                params.q1[cols].tolist(), params.class_w[:, cols].tolist(),
                params.class_b.tolist())
            correct += int(np.argmax(logits)) == inst.label
        failures += checks.close("all-frame accuracy vs scalar oracle",
                                 quality["accuracy"], correct / len(ds.instances), atol=0.0)

        resaved = self.work / "resaved.fanf"
        fa.write_feature_file(ds, str(resaved))
        failures += checks.same_bytes("FANF write-load-write", self.data.read_bytes(),
                                      resaved.read_bytes())
        if len(self.sampled) < 2:
            self._sampled_eval()
        for i, other in enumerate(self.sampled[1:], start=1):
            failures += checks.same_bytes(f"sampled evaluation {i} vs 0",
                                          self.sampled[0].encode(), other.encode())
        return (failures
                + checks.at_least("hand-built head accuracy", quality["accuracy"], 0.80)
                + checks.at_least("hand-built head localization",
                                  quality["localization"], 0.80))


def _scalar_oracle(root: Path):
    """The repository's independent scalar-loop forward (tests/scalar_oracle.py),
    imported as it is."""
    import importlib.util
    path = root / "tests" / "scalar_oracle.py"
    spec = importlib.util.spec_from_file_location("scalar_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = {"train": Train, "cv": CrossValidation, "score": Score}
