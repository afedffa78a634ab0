"""Correctness checks made apart from the program under test.

Each check takes plain values (numbers, arrays, parsed output) and returns
a list of failure messages; an empty list means the check passed. None of
them compares against a stored copy of earlier output: every expected value
is either computed here, independently of frameattn, or is a property the
method must have. ``test_checks.py`` feeds each check a deliberately broken
input to show that it can fail.
"""

from __future__ import annotations

import numpy as np


def at_least(name: str, value: float, floor: float) -> list[str]:
    if value >= floor:
        return []
    return [f"{name} = {value:.4f}, below {floor:.4f}"]


def close(name: str, got, want, atol: float) -> list[str]:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    return [] if err <= atol else [f"{name}: max abs difference {err:.3e} > {atol:.0e}"]


def same_bytes(name: str, a: bytes, b: bytes) -> list[str]:
    if a == b:
        return []
    if len(a) != len(b):
        return [f"{name}: {len(a)} bytes != {len(b)} bytes"]
    first = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
    return [f"{name}: first difference at byte {first}"]


def log_softmax_xent(logits, label: int) -> float:
    """Cross-entropy of softmax(logits) at label, written out here so the
    finite-difference side shares no loss code with the program."""
    z = np.asarray(logits, dtype=np.float64)
    m = float(np.max(z))
    return m + float(np.log(np.sum(np.exp(z - m)))) - float(z[label])


def central_differences(loss, x, eps: float = 1e-6) -> np.ndarray:
    """(loss(x + eps e_j) - loss(x - eps e_j)) / 2 eps for every coordinate j."""
    x = np.array(x, dtype=np.float64)
    grad = np.empty_like(x)
    for j in range(x.size):
        saved = x[j]
        x[j] = saved + eps
        up = loss(x)
        x[j] = saved - eps
        down = loss(x)
        x[j] = saved
        grad[j] = (up - down) / (2.0 * eps)
    return grad


def gradient_matches(name: str, analytic, numeric,
                     atol: float = 1e-7, rtol: float = 1e-5) -> list[str]:
    analytic, numeric = np.asarray(analytic), np.asarray(numeric)
    excess = np.abs(analytic - numeric) - (atol + rtol * np.abs(numeric))
    worst = int(np.argmax(excess))
    if excess[worst] <= 0:
        return []
    return [f"{name}: coordinate {worst} analytic {analytic[worst]:.10g} "
            f"vs central difference {numeric[worst]:.10g}"]


def weights_normalised(name: str, weights: list, tol: float = 1e-12) -> list[str]:
    """Every video's final frame weights are positive and sum to one."""
    failures = []
    for i, w in enumerate(weights):
        w = np.asarray(w, dtype=np.float64)
        if w.size == 0 or np.any(w <= 0) or abs(float(np.sum(w)) - 1.0) > tol:
            failures.append(f"{name}: video {i} weights not positive or "
                            f"sum {float(np.sum(w))!r} != 1")
    return failures[:3]


def export_rows_match(rows: list[list[str]], videos: list) -> list[str]:
    """The attention CSV has one row per frame, video by video in frame
    order, carrying the final weights of a direct forward pass.

    rows are the CSV's data rows (video_id, frame_index, alpha,
    final_weight, ...); videos pairs each video id with its weights.
    """
    frames = sum(len(w) for _, w in videos)
    if len(rows) != frames:
        return [f"CSV has {len(rows)} rows for {frames} frames"]
    failures, offset = [], 0
    for video_id, weights in videos:
        block = rows[offset:offset + len(weights)]
        offset += len(weights)
        if ([r[0] for r in block] != [video_id] * len(weights)
                or [int(r[1]) for r in block] != list(range(len(weights)))):
            failures.append(f"CSV rows of {video_id} out of place")
        else:
            failures += close(f"CSV weights of {video_id}",
                              [float(r[3]) for r in block], weights, atol=1e-12)
    return failures[:3]


def top_weight_on_top_score(name: str, weights: list, scores: list,
                            tol: float = 1e-9) -> list[str]:
    """Where each frame weight rises monotonically with a known frame score,
    the heaviest frame must carry the highest score (ties within tol)."""
    failures = []
    for i, (w, s) in enumerate(zip(weights, scores)):
        s = np.asarray(s, dtype=np.float64)
        top = int(np.argmax(w))
        if s[top] < float(np.max(s)) - tol * max(1.0, abs(float(np.max(s)))):
            failures.append(f"{name}: video {i} heaviest frame {top} does not "
                            f"carry the top score")
    return failures[:3]


def share_on_peaks(weights: list, peaks: list) -> float:
    """Share of videos whose heaviest frame is one of its planted peaks."""
    hits = sum(int(np.argmax(w)) in set(p) for w, p in zip(weights, peaks))
    return hits / len(weights)


def folds_person_independent(subjects: list[str],
                             splits: list[tuple[list[int], list[int]]]) -> list[str]:
    """Folds share no subject, and every video is tested exactly once.

    subjects[i] is video i's subject; splits holds each fold's (train, test)
    video indices.
    """
    failures = []
    tested = np.zeros(len(subjects), dtype=np.int64)
    owner: dict[str, int] = {}
    for fold, (train_idx, test_idx) in enumerate(splits):
        tested[list(test_idx)] += 1
        test_subjects = {subjects[i] for i in test_idx}
        leaked = test_subjects & {subjects[i] for i in train_idx}
        if leaked:
            failures.append(f"fold {fold}: subject {sorted(leaked)[0]} in train and test")
        for s in test_subjects:
            if owner.setdefault(s, fold) != fold:
                failures.append(f"subject {s} tested in folds {owner[s]} and {fold}")
    if np.any(tested != 1):
        failures.append(f"{int(np.sum(tested != 1))} videos not tested exactly once")
    return failures


def pooled_matches_folds(fold_confusions: list, pooled_confusion, pooled_accuracy: float,
                         fold_sizes: list[int], videos: int) -> list[str]:
    """Pooled counts are the sum of the folds', and the pooled accuracy is
    this sum's diagonal over its total."""
    failures = []
    tally = np.sum([np.asarray(c, dtype=np.int64) for c in fold_confusions], axis=0)
    for fold, (c, size) in enumerate(zip(fold_confusions, fold_sizes)):
        if int(np.sum(c)) != size:
            failures.append(f"fold {fold}: {int(np.sum(c))} scored, {size} held out")
    if not np.array_equal(tally, np.asarray(pooled_confusion)):
        failures.append("pooled confusion differs from the sum of the folds'")
    if int(tally.sum()) != videos:
        failures.append(f"pooled count {int(tally.sum())} != {videos} videos")
    expect = float(np.trace(tally)) / float(tally.sum())
    if pooled_accuracy != expect:
        failures.append(f"pooled accuracy {pooled_accuracy!r} != tally {expect!r}")
    return failures
