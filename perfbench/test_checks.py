"""Negative controls: each benchmark check passes on a correct input and
fails on a deliberately broken one.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import frameattn as fa  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def test_accuracy_floor_catches_permuted_classifier_rows():
    ds, _ = workloads.planted_set(fa, 3, classes=7, videos=70, frames=(8, 40),
                                  subjects=70, dim=24, signal=10.0, noise=1.0,
                                  terminal=False)
    head = workloads.hand_built_head(fa, ds.dim, ds.num_classes)
    assert not checks.at_least("accuracy", fa.evaluate(head, ds).accuracy, 0.80)
    head.class_w = np.roll(head.class_w, 1, axis=0)
    assert checks.at_least("accuracy", fa.evaluate(head, ds).accuracy, 0.80)


def test_gradient_check_catches_a_1e3_perturbation():
    rng = np.random.default_rng(0)
    for mode in (fa.Mode.FULL, fa.Mode.SELF_ONLY):
        params = fa.init_params(6, 3, mode, seed=2)
        features = rng.standard_normal((4, 6))
        assert not workloads.gradient_failures(fa, params, features, 1, "gradient")
        assert workloads.gradient_failures(fa, params, features, 1, "gradient",
                                           perturb=1e-3)


def test_oracle_comparison_catches_a_1e9_logit_error():
    oracle = workloads._scalar_oracle(ROOT)
    params = fa.init_params(5, 3, seed=4)
    features = np.random.default_rng(1).standard_normal((6, 5))
    want = oracle.forward_logits(features.tolist(), params.q0.tolist(),
                                 params.q1.tolist(), params.class_w.tolist(),
                                 params.class_b.tolist())
    logits = fa.forward(features, params)[0]
    assert not checks.close("logits", logits, want, atol=1e-10)
    logits[1] += 1e-9
    assert checks.close("logits", logits, want, atol=1e-10)


def test_byte_comparison_catches_one_flipped_byte(tmp_path):
    path = tmp_path / "head.fanp"
    fa.save_checkpoint(fa.init_params(4, 2, seed=5), str(path))
    raw = path.read_bytes()
    fa.save_checkpoint(fa.load_checkpoint(str(path)), str(tmp_path / "again.fanp"))
    assert not checks.same_bytes("reload", raw, (tmp_path / "again.fanp").read_bytes())
    flipped = bytearray(raw)
    flipped[-1] ^= 1
    assert checks.same_bytes("reload", raw, bytes(flipped))
    assert checks.same_bytes("reload", raw, raw[:-1])


def test_fold_check_catches_a_leaked_subject():
    ds = fa.synth_generate(fa.SynthConfig(videos_per_class=10, subject_count=20, seed=1))
    subjects = [inst.subject_id for inst in ds.instances]
    plan = fa.build_folds(ds, 10)
    splits = [fa.split_by_fold(ds, plan, f) for f in range(10)]
    assert not checks.folds_person_independent(subjects, splits)

    # one held-out video of fold 0 also trains fold 0
    train, test = splits[0]
    leaky = [(train + [test[0]], test)] + splits[1:]
    assert checks.folds_person_independent(subjects, leaky)

    # one subject's video moves to fold 1's test split
    moved = test[0]
    leaky = ([(train, test[1:]), (splits[1][0], splits[1][1] + [moved])]
             + splits[2:])
    assert checks.folds_person_independent(subjects, leaky)


def test_pooled_check_catches_a_wrong_tally():
    folds = [np.array([[3, 1], [0, 2]]), np.array([[2, 0], [1, 3]])]
    pooled = folds[0] + folds[1]
    accuracy = 10 / 12
    assert not checks.pooled_matches_folds(folds, pooled, accuracy, [6, 6], 12)
    bad = pooled.copy()
    bad[0, 0] -= 1
    bad[0, 1] += 1
    assert checks.pooled_matches_folds(folds, bad, accuracy, [6, 6], 12)
    assert checks.pooled_matches_folds(folds, pooled, accuracy + 1e-12, [6, 6], 12)
    assert checks.pooled_matches_folds(folds, pooled, accuracy, [6, 5], 11)


def test_weight_checks_catch_unnormalised_or_misplaced_weights():
    w = np.array([0.1, 0.2, 0.6, 0.1])
    assert not checks.weights_normalised("w", [w])
    assert checks.weights_normalised("w", [w * (1 + 1e-9)])
    assert checks.weights_normalised("w", [np.array([0.0, 0.4, 0.6])])
    assert not checks.top_weight_on_top_score("w", [w], [[0.0, 1.0, 5.0, 2.0]])
    assert checks.top_weight_on_top_score("w", [w], [[0.0, 1.0, 5.0, 6.0]])


def test_export_check_catches_a_missing_row_or_a_wrong_weight():
    videos = [("a", [0.25, 0.75]), ("b", [1.0])]
    rows = [["a", "0", "0.5", "0.25"], ["a", "1", "0.5", "0.75"], ["b", "0", "0.5", "1.0"]]
    assert not checks.export_rows_match(rows, videos)
    assert checks.export_rows_match(rows[:-1], videos)
    assert checks.export_rows_match([rows[1], rows[0], rows[2]], videos)
    wrong = [r[:] for r in rows]
    wrong[1][3] = repr(0.75 + 1e-9)
    assert checks.export_rows_match(wrong, videos)
