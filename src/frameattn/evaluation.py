"""Accuracy evaluation, cross-validation, the score-fusion baseline, and
attention-weight export.

evaluate and export_attention take the dataset's packed frames
(Dataset.packed) and hand them to model.score, which matches the head to it and
scores the selected videos in equal-length buckets gathered from the
packed frames, each stack's working set near model.SCORE_CHUNK_BYTES,
keeping their labels, logits and frame weights. The frames of a dataset
opened in place (data.open_feature_file) are read from its file as each
stack is gathered, and each video's frames are checked then, so a
non-finite value or a file cut short since it was opened raises from the
call that reads it, and scoring holds one stack, not the file. Every
selection, the training and test splits too, is read by
PackedFrames.select, which refuses an empty one before any work.

The baseline trains an affine per-frame classifier through the attention
head's own loop (training.fit), on the same minibatches and optimizer
settings, and fuses a video's decision by summing its per-frame logits.
One function scores and checks its frames, for its training step and as
the head that model.score's walk (model.equal_length_stacks) runs on its
held-out videos' stacks; both heads' decisions, the exported ones too, go
through one tally (_tally).
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import model, sampling
from .data import Dataset, FoldPlan, atomic_open, split_by_fold
from .errors import ConfigError, FrameAttnError, NumericError
from .model import FanParams
from .numerics import COUNT_MAX, _shown, _xent, require_integer
from .training import TrainConfig, fit, train


@dataclass
class EvalReport:
    """Accuracy summary over one evaluation pass. `evaluate` and the
    baseline also keep the predicted class of each video they tallied, in
    the order of their selection; pooled reports have none."""

    accuracy: float
    per_class_accuracy: list[float]
    confusion: np.ndarray  # (C, C) counts, rows = true class
    count: int
    predictions: np.ndarray | None = None  # (count,) class indices

    def to_dict(self) -> dict:
        """The fields as JSON values, in field order, without the predictions."""
        out = asdict(self)
        del out["predictions"]
        return {**out, "confusion": self.confusion.tolist()}


def _report_from_confusion(confusion: np.ndarray, predictions=None) -> EvalReport:
    total = int(confusion.sum())
    row_sums = confusion.sum(axis=1)
    diag = np.diag(confusion)
    return EvalReport(
        accuracy=float(diag.sum() / total),
        per_class_accuracy=np.divide(diag, row_sums, out=np.zeros(len(diag)),
                                     where=row_sums > 0).tolist(),
        confusion=confusion,
        count=total,
        predictions=predictions,
    )


def _tally(labels: np.ndarray, scores: np.ndarray, num_classes: int) -> EvalReport:
    """The report of videos with these labels and (n, C) scores: each
    decision is its row's argmax (the lowest class on a tie)."""
    preds = np.argmax(scores, axis=1)
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    return _report_from_confusion(confusion, preds)


def evaluate(params: FanParams, dataset: Dataset, frame_mode: str = "all",
             k: int = 3, seed: int = 0,
             indices: list[int] | None = None) -> EvalReport:
    """Classify the selected videos (every one by default) in one scoring
    pass (model.score) and tally a confusion matrix; the report keeps the
    predictions, in the order of `indices`.

    frame_mode "all" uses every frame (deterministic); "sampled" draws k
    frames per video with the segment sampler, from one (seed, index)
    stream per video; only it reads the seed.
    """
    if frame_mode not in ("all", "sampled"):
        raise ConfigError(f"unknown frame_mode '{_shown(frame_mode, str)}'")
    picks = None
    packed = dataset.packed
    if frame_mode == "sampled":
        require_integer("k", k, 1, maximum=COUNT_MAX)
        require_integer("seed", seed, 0)
        indices = packed.select(indices)
        picks = np.array([sampling.sample_training(n, k, sampling.stream(seed, i))
                          for n, i in zip(packed.lengths(indices).tolist(), indices.tolist())],
                         dtype=np.int64).reshape(len(indices), k)
    scored = model.score(params, packed, indices, picks)
    return _tally(scored.labels, scored.logits, packed.num_classes)


def cross_validate(
    dataset: Dataset, config: TrainConfig, fold_plan: FoldPlan,
) -> tuple[list[EvalReport], EvalReport]:
    """Person-independent k-fold: train with each fold's subjects held out,
    evaluate on them, and pool the confusion counts over all instances.

    The pooled accuracy is instance-weighted (total correct / total count),
    not the mean of fold accuracies. Before any fold trains, a fold_count
    that is not an integer of at least 2 raises ConfigError naming no
    fold; the config was checked when it was made. A
    fold without test instances raises ConfigError "fold N has no test
    instances" before it trains. An error that a fold's train or evaluate
    raises (an empty training split, a NumericError) is raised again, with
    the same class, as "fold N: message".
    """
    require_integer("fold_count", fold_plan.fold_count, 2)
    reports = []
    for fold in range(fold_plan.fold_count):
        train_idx, test_idx = split_by_fold(dataset, fold_plan, fold)
        if not test_idx:
            raise ConfigError(f"fold {fold} has no test instances")
        try:
            params, _ = train(dataset, config, train_indices=train_idx)
            reports.append(evaluate(params, dataset, indices=test_idx))
        except FrameAttnError as e:
            raise type(e)(f"fold {fold}: {e}") from e
    return reports, _report_from_confusion(sum(r.confusion for r in reports))


def score_fusion_baseline(
    dataset: Dataset,
    config: TrainConfig,
    train_indices: list[int] | None = None,
    test_indices: list[int] | None = None,
) -> EvalReport:
    """Train the per-frame classifier and fuse per-frame logits by summation.

    Training is training.fit on one flat vector of weights and bias: each
    sampled frame is an independent sample, and batch gradients are averaged
    over the batch's B*k frames. test_indices defaults to the training split
    (in-sample report); both are read by PackedFrames.select on the
    dataset's packed frames (Dataset.packed), taken once, when the run
    starts, so an empty one raises ConfigError before the first epoch, and
    the held-out pass scores those frames too. One closure,
    frame_scores, gives a stack's per-frame scores for the training step
    and is the head model.equal_length_stacks runs on the held-out videos'
    stacks, one at a time. Their decisions are tallied as evaluate tallies,
    and the report keeps the predictions, in the order of test_indices. The
    decision is invariant to any positive scaling of a video's frame
    scores. A non-finite frame score raises NumericError naming the
    dataset index: in training, with the epoch and batch (training.fit
    names it); in the held-out pass, of the first bad video in length
    order (the walk names it, as for model.score).
    """
    packed = dataset.packed
    train_indices = packed.select(train_indices, "training split")
    test_indices = (train_indices if test_indices is None
                    else packed.select(test_indices, "test split"))

    d, c = packed.dim, packed.num_classes
    blocks = model.blocks_of([("baseline_w", (c, d)), ("baseline_b", (c,))])
    params = model.init_flat(blocks, config.seed)
    w = params[blocks[0].slice].reshape(c, d)
    b = params[blocks[1].slice]
    grads = np.empty_like(params)

    def frame_scores(stack):
        """The (B*K, C) scores of a (B, K, D) stack's frames, video after
        video; a non-finite one raises NumericError whose row is its video's."""
        scores = stack.reshape(-1, d) @ w.T + b
        if not np.isfinite(scores).all():  # finite frames, but weights grown past range
            row = int(np.argmin(np.isfinite(scores).all(axis=1))) // stack.shape[1]
            raise NumericError("baseline produced non-finite scores", row=row)
        return scores

    def step(stack, labels):
        logits = frame_scores(stack)
        labels = np.repeat(labels, config.k)
        losses, g = _xent(logits, labels)
        g /= len(logits)
        grads[blocks[0].slice] = (g.T @ stack.reshape(-1, d)).ravel()
        grads[blocks[1].slice] = g.sum(axis=0)
        return float(losses.sum()), int((logits.argmax(axis=1) == labels).sum()), grads

    for _ in fit(packed, config, train_indices, params, blocks, step):
        pass
    scores = np.empty((len(test_indices), c))
    for pos, s in model.equal_length_stacks(packed, test_indices, packed.lengths(test_indices),
                                            frame_scores):
        scores[pos] = s.reshape(len(pos), -1, c).sum(axis=1)
    return _tally(packed.labels[test_indices], scores, c)


def _csv_field(text: str) -> str:
    """text as csv.writer writes it as one field of a row of several."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[:-3]


# The export's JSON, as json.dump(summary, indent=2) lays it out; the
# numbers go in as repr, which is how json writes ints and finite floats.
# These templates and the CSV f-strings write the same bytes as csv.writer
# and json.dump in a third of the time: 51 against 155 ms for the 26,180
# frames of the AFEW-shaped benchmark file (2-core x86-64 host, Python 3.11).
_JSON_HEAD = '{\n  "mode": %s,\n  "count": %d,\n  "accuracy": %r,\n  "videos": ['
_JSON_VIDEO = ('    {\n      "video_id": %s,\n      "label": %d,\n      "prediction": %d,\n'
               '      "frame_indices": [\n        %s\n      ],\n'
               '      "alpha": [\n        %s\n      ],\n'
               '      "final_weights": [\n        %s\n      ]\n    }')
_JSON_ITEM = ",\n        "


def export_attention(params: FanParams, dataset: Dataset, path: str,
                     indices: list[int] | None = None) -> tuple[str, str]:
    """Write per-frame attention weights for plotting; returns the CSV and
    JSON paths.

    Produces two files: a CSV at `path` (one row per frame: video_id,
    frame_index, alpha, final_weight, label, prediction), with ".csv"
    appended unless present, and a JSON summary next to it with the
    per-video sequences and overall accuracy. path is a str or path-like.
    No rendering happens here; the output is plot-ready data.

    The videos are scored in one pass (model.score), which keeps each
    frame's alpha and final weight (16 bytes a frame), and their decisions
    tallied as evaluate tallies them; an empty selection raises
    ConfigError before any file is opened. Both files are then written
    together, video by video. Their bytes are those of csv.writer
    and json.dump(summary, indent=2) on the same numbers. The numbers can
    differ from per-video model.forward in the last digits, from the order
    of the sums.
    """
    path = os.fspath(path)
    csv_path = path if path.endswith(".csv") else path + ".csv"
    json_path = os.path.splitext(csv_path)[0] + ".json"

    packed = dataset.packed
    scored = model.score(params, packed, indices)
    report = _tally(scored.labels, scored.logits, packed.num_classes)
    bounds = scored.offsets.tolist()
    with atomic_open(csv_path, "w", newline="") as fc, atomic_open(json_path, "w") as fj:
        fc.write("video_id,frame_index,alpha,final_weight,label,prediction\r\n")
        fj.write(_JSON_HEAD % (json.dumps(params.mode.value), report.count,
                               report.accuracy))
        sep = "\n"
        for j, (i, label, pred) in enumerate(zip(scored.indices.tolist(),
                                                 scored.labels.tolist(),
                                                 report.predictions.tolist())):
            video_id = dataset.instances[i].video_id
            lo, hi = bounds[j], bounds[j + 1]
            frame_ids = range(hi - lo)
            a = list(map(repr, scored.alpha[lo:hi].tolist()))
            w = list(map(repr, scored.final_weights[lo:hi].tolist()))
            head, tail = _csv_field(video_id), f",{label},{pred}\r\n"
            fc.write("".join([f"{head},{n},{x},{y}{tail}"
                              for n, x, y in zip(frame_ids, a, w)]))
            fj.write(sep + _JSON_VIDEO % (
                json.dumps(video_id), label, pred,
                _JSON_ITEM.join(map(str, frame_ids)),
                _JSON_ITEM.join(a), _JSON_ITEM.join(w)))
            sep = ",\n"
        fj.write("\n  ]\n}\n")
    return csv_path, json_path
