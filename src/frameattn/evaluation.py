"""Accuracy evaluation, cross-validation, the score-fusion baseline, and
attention-weight export.

The baseline trains an affine per-frame classifier with the same optimizer
settings as the attention model and fuses a video's decision by summing its
per-frame scores. Summation is over raw logits by default; pass
fusion="probs" to sum softmax probabilities instead (the argmax can differ).
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from . import model, sampling
from .data import Dataset, FoldPlan, split_by_fold
from .errors import ConfigError, DimensionError, NumericError
from .model import FanParams
from .numerics import softmax, softmax_cross_entropy
from .training import TrainConfig, lr_at, minibatches, train


@dataclass
class EvalReport:
    """Accuracy summary over one evaluation pass."""

    accuracy: float
    per_class_accuracy: list[float]
    confusion: np.ndarray  # (C, C) counts, rows = true class
    count: int

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "per_class_accuracy": self.per_class_accuracy,
            "confusion": self.confusion.tolist(),
            "count": self.count,
        }


def _report_from_confusion(confusion: np.ndarray) -> EvalReport:
    total = int(confusion.sum())
    if total == 0:
        raise ConfigError("evaluation saw no instances")
    row_sums = confusion.sum(axis=1)
    diag = np.diag(confusion)
    per_class = [
        float(diag[c] / row_sums[c]) if row_sums[c] > 0 else 0.0
        for c in range(confusion.shape[0])
    ]
    return EvalReport(
        accuracy=float(diag.sum() / total),
        per_class_accuracy=per_class,
        confusion=confusion,
        count=total,
    )


def _check_compat(params: FanParams, dataset: Dataset) -> None:
    if params.feature_dim != dataset.dim:
        raise DimensionError(
            f"params dim {params.feature_dim} != dataset dim {dataset.dim}")
    if params.num_classes != dataset.num_classes:
        raise DimensionError(
            f"params classes {params.num_classes} != dataset classes "
            f"{dataset.num_classes}")


def evaluate(params: FanParams, dataset: Dataset, frame_mode: str = "all",
             k: int = 3, seed: int = 0,
             indices: list[int] | None = None) -> EvalReport:
    """Classify each instance and tally a confusion matrix.

    frame_mode "all" uses every frame (deterministic); "sampled" draws k
    frames per video with the segment sampler, seeded per instance.
    """
    if frame_mode not in ("all", "sampled"):
        raise ConfigError(f"unknown frame_mode '{frame_mode}'")
    dataset.validate()
    _check_compat(params, dataset)
    if indices is None:
        indices = list(range(len(dataset.instances)))
    confusion = np.zeros((dataset.num_classes, dataset.num_classes), dtype=np.int64)
    for idx in indices:
        inst = dataset.instances[idx]
        n = inst.features.shape[0]
        if frame_mode == "sampled":
            frames = sampling.sample_training(n, k, sampling.stream(seed, idx))
        else:
            frames = sampling.frames_for_eval(n)
        logits, _ = model.forward(inst.features[frames], params)
        confusion[inst.label, model.predict(logits)] += 1
    return _report_from_confusion(confusion)


def cross_validate(
    dataset: Dataset, config: TrainConfig, fold_plan: FoldPlan,
) -> tuple[list[EvalReport], EvalReport]:
    """Person-independent k-fold: train with each fold's subjects held out,
    evaluate on them, and pool the confusion counts over all instances.

    The pooled accuracy is instance-weighted (total correct / total count),
    not the mean of fold accuracies.
    """
    dataset.validate()
    reports = []
    pooled = np.zeros((dataset.num_classes, dataset.num_classes), dtype=np.int64)
    for fold in range(fold_plan.fold_count):
        train_idx, test_idx = split_by_fold(dataset, fold_plan, fold)
        if not test_idx:
            raise ConfigError(f"fold {fold} has no test instances")
        if not train_idx:
            raise ConfigError(f"fold {fold} has no training instances")
        train_subjects = {dataset.instances[i].subject_id for i in train_idx}
        test_subjects = {dataset.instances[i].subject_id for i in test_idx}
        if train_subjects & test_subjects:
            raise ConfigError(f"fold {fold} shares subjects between splits")
        params, _ = train(dataset, config, train_indices=train_idx)
        report = evaluate(params, dataset, indices=test_idx)
        reports.append(report)
        pooled += report.confusion
    return reports, _report_from_confusion(pooled)


def _train_frame_classifier(
    dataset: Dataset, config: TrainConfig, train_indices: list[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Affine per-frame classifier trained with the shared optimizer settings.

    It steps through the attention trainer's minibatches (training.minibatches),
    so each epoch uses the same (seed, epoch) draw: every instance contributes
    its k segment-sampled frames, each frame is an independent sample, and
    batch gradients are averaged over the batch's B*k frames.
    """
    d, c = dataset.dim, dataset.num_classes
    rng = np.random.default_rng(config.seed)
    limit = np.sqrt(6.0 / (d + c))
    w = rng.uniform(-limit, limit, size=(c, d))
    b = np.zeros(c)
    vw = np.zeros_like(w)
    vb = np.zeros_like(b)

    for epoch in range(config.total_epochs):
        lr = lr_at(config.schedule, epoch)
        for _, stack, labels in minibatches(dataset, train_indices, config, epoch):
            frames = stack.reshape(-1, d)
            _, g = softmax_cross_entropy(frames @ w.T + b,
                                         np.repeat(labels, config.k))
            g /= len(frames)
            vw *= config.momentum
            vw += g.T @ frames + config.weight_decay * w
            vb *= config.momentum
            vb += g.sum(axis=0)
            w -= lr * vw
            b -= lr * vb
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise NumericError("baseline parameters became non-finite")
    return w, b


def score_fusion_baseline(
    dataset: Dataset,
    config: TrainConfig,
    train_indices: list[int] | None = None,
    test_indices: list[int] | None = None,
    fusion: str = "logits",
) -> EvalReport:
    """Train the per-frame classifier and fuse per-frame scores by summation.

    test_indices defaults to the training split (in-sample report). The
    decision is invariant to any positive scaling of a video's frame scores.
    """
    if fusion not in ("logits", "probs"):
        raise ConfigError(f"unknown fusion '{fusion}'")
    config.validate()
    dataset.validate()
    if train_indices is None:
        train_indices = list(range(len(dataset.instances)))
    if not train_indices:
        raise ConfigError("training split is empty")
    if test_indices is None:
        test_indices = list(train_indices)

    w, b = _train_frame_classifier(dataset, config, train_indices)
    confusion = np.zeros((dataset.num_classes, dataset.num_classes), dtype=np.int64)
    for idx in test_indices:
        inst = dataset.instances[idx]
        frame_logits = inst.features @ w.T + b
        if fusion == "probs":
            scores = np.array([softmax(row) for row in frame_logits]).sum(axis=0)
        else:
            scores = frame_logits.sum(axis=0)
        confusion[inst.label, int(np.argmax(scores))] += 1
    return _report_from_confusion(confusion)


def export_attention(params: FanParams, dataset: Dataset, path: str,
                     indices: list[int] | None = None) -> None:
    """Write per-frame attention weights for plotting.

    Produces two files: a CSV at `path` (one row per frame: video_id,
    frame_index, alpha, final_weight, label, prediction) and a JSON summary
    next to it with the per-video sequences and overall accuracy. No
    rendering happens here; the output is plot-ready data.
    """
    dataset.validate()
    _check_compat(params, dataset)
    if indices is None:
        indices = list(range(len(dataset.instances)))
    csv_path = path if path.endswith(".csv") else path + ".csv"
    json_path = os.path.splitext(csv_path)[0] + ".json"

    videos = []
    correct = 0
    rows = []
    for idx in indices:
        inst = dataset.instances[idx]
        logits, trace = model.forward(inst.features, params)
        pred = model.predict(logits)
        correct += pred == inst.label
        frame_ids = sampling.frames_for_eval(inst.features.shape[0])
        for i in frame_ids:
            rows.append([inst.video_id, i, repr(float(trace.alpha[i])),
                         repr(float(trace.final_weights[i])), inst.label, pred])
        videos.append({
            "video_id": inst.video_id,
            "label": inst.label,
            "prediction": pred,
            "frame_indices": frame_ids,
            "alpha": [float(a) for a in trace.alpha],
            "final_weights": [float(wt) for wt in trace.final_weights],
        })

    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["video_id", "frame_index", "alpha", "final_weight",
                         "label", "prediction"])
        writer.writerows(rows)
    summary = {
        "mode": params.mode.value,
        "count": len(indices),
        "accuracy": correct / len(indices) if indices else 0.0,
        "videos": videos,
    }
    with open(json_path, "w") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")
