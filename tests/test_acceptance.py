"""Acceptance suite.

One test per release criterion; each prints a single PASS/FAIL line (run
pytest with -s to see them alongside the test results). The synthetic
planted-peak experiment is trained once per session and shared between the
accuracy and localization criteria.
"""

import itertools
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from frameattn.cli import EXIT_OK, main
from frameattn.data import (
    Dataset,
    SynthConfig,
    VideoInstance,
    build_folds,
    load_feature_file,
    split_by_fold,
    synth_generate,
    synth_peak_positions,
    write_feature_file,
)
from frameattn.errors import DataError, FormatError
from frameattn.evaluation import evaluate, score_fusion_baseline
from frameattn.model import Mode, forward, init_params
from frameattn.sampling import _segment_bounds, sample_training, stream
from frameattn.training import (
    afew_config,
    ckplus_config,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    synth_default_config,
    train,
)

from gradcheck import gradient_check
from scalar_oracle import forward_logits as oracle_logits

EXPERIMENT_SEEDS = [7, 8, 9, 10, 11]


def report(criterion: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}")
    for f in failures:
        print(f"  - {f}")
    assert not failures


@pytest.fixture(scope="session")
def planted_peak_experiment():
    """Train full / self-only / baseline models on 5 seeds, held-out fold 0."""
    t0 = time.monotonic()
    acc = {"full": [], "self_only": [], "baseline": [], "localization": []}
    for seed in EXPERIMENT_SEEDS:
        cfg = SynthConfig(seed=seed)
        ds = synth_generate(cfg)
        peaks = synth_peak_positions(cfg)
        train_idx, test_idx = split_by_fold(ds, build_folds(ds, 10), 0)

        params_full, _ = train(ds, synth_default_config(seed=seed),
                               train_indices=train_idx)
        params_self, _ = train(ds, synth_default_config(seed=seed,
                                                        mode=Mode.SELF_ONLY),
                               train_indices=train_idx)
        acc["full"].append(
            evaluate(params_full, ds, indices=test_idx).accuracy)
        acc["self_only"].append(
            evaluate(params_self, ds, indices=test_idx).accuracy)
        acc["baseline"].append(
            score_fusion_baseline(ds, synth_default_config(seed=seed),
                                  train_idx, test_idx).accuracy)
        hits = 0
        for i in test_idx:
            inst = ds.instances[i]
            _, trace = forward(inst.features, params_full)
            hits += int(np.argmax(trace.final_weights) in peaks[inst.video_id])
        acc["localization"].append(hits / len(test_idx))
    acc["elapsed"] = time.monotonic() - t0
    return acc


def gradient_sweep(corrupt=False):
    """Criterion 1's 24 configurations, each as (description, max relative
    error of the analytic gradient against central differences)."""
    rng = np.random.default_rng(2024)
    combos = list(itertools.product((4, 8, 16), (3, 7),
                                    (Mode.FULL, Mode.SELF_ONLY)))
    for repeat in range(2):
        for i, (d, c, mode) in enumerate(combos):
            n = (i + repeat * 3) % 6 + 1
            features = rng.standard_normal((n, d))
            params = init_params(d, c, mode, seed=int(rng.integers(10_000)))
            label = int(rng.integers(c))
            yield (f"config d={d} n={n} c={c} mode={mode.value}",
                   gradient_check(features, params, label, eps=1e-5, corrupt=corrupt))


def test_criterion_1_gradient_correctness():
    t0 = time.monotonic()
    errors = list(gradient_sweep())
    elapsed = time.monotonic() - t0
    failures = [f"{name}: rel err {err:.3e}" for name, err in errors if err >= 1e-4]
    if len(errors) < 20:
        failures.append(f"only {len(errors)} configurations checked")
    if elapsed >= 60:
        failures.append(f"gradient sweep took {elapsed:.1f}s (budget 60s)")
    print(f"  [criterion 1] {len(errors)} configs, "
          f"max rel err {max(err for _, err in errors):.3e}, {elapsed:.1f}s")
    report("1 gradient-correctness", failures)


def test_criterion_1_fails_on_a_corrupted_gradient():
    # the negative control: with 1 added to the analytic gradient's first
    # entry, every configuration of the sweep reaches the tolerance
    errors = list(gradient_sweep(corrupt=True))
    assert len(errors) == 24
    assert [name for name, err in errors if err < 1e-4] == []


def test_criterion_2_oracle_equivalence():
    failures = []
    rng = np.random.default_rng(515)
    worst = 0.0
    for i in range(100):
        d = int(rng.choice([3, 4, 6]))
        n = int(rng.integers(1, 7))
        c = int(rng.integers(2, 6))
        mode = Mode.FULL if i % 2 == 0 else Mode.SELF_ONLY
        features = rng.standard_normal((n, d))
        params = init_params(d, c, mode, seed=int(rng.integers(10_000)))
        logits, _ = forward(features, params)
        expect = oracle_logits(features.tolist(), params.q0.tolist(),
                               params.q1.tolist(), params.class_w.tolist(),
                               params.class_b.tolist(),
                               self_only=mode is Mode.SELF_ONLY)
        diff = float(np.max(np.abs(logits - np.array(expect))))
        worst = max(worst, diff)
        if diff >= 1e-10:
            failures.append(f"input {i}: max logit deviation {diff:.3e}")
    print(f"  [criterion 2] 100 inputs, max deviation {worst:.3e}")
    report("2 oracle-equivalence", failures)


def test_criterion_3_symmetry_suite():
    failures = []
    rng = np.random.default_rng(99)
    for trial in range(20):
        d = int(rng.choice([3, 5, 8]))
        n = int(rng.integers(2, 8))
        c = int(rng.integers(2, 6))
        features = rng.standard_normal((n, d))
        params = init_params(d, c, Mode.FULL, seed=trial)
        base, trace = forward(features, params)

        perm_logits, _ = forward(features[rng.permutation(n)], params)
        if np.max(np.abs(perm_logits - base)) >= 1e-9:
            failures.append(f"trial {trial}: permutation deviation")
        rep_logits, _ = forward(np.tile(features, (3, 1)), params)
        if np.max(np.abs(rep_logits - base)) >= 1e-9:
            failures.append(f"trial {trial}: replication deviation")
        if np.max(np.abs(trace.aggregate[d:] - trace.anchor)) > 1e-12:
            failures.append(f"trial {trial}: anchor half differs from anchor")
        if abs(float(trace.final_weights.sum()) - 1.0) > 1e-12:
            failures.append(f"trial {trial}: final weights sum != 1")

        row = features[:1]
        single_logits, single_trace = forward(row, params)
        if not np.array_equal(single_trace.final_weights, [1.0]):
            failures.append(f"trial {trial}: single-frame weight not exactly 1")
        if not np.array_equal(single_trace.aggregate,
                              np.concatenate([row[0], row[0]])):
            failures.append(f"trial {trial}: single-frame aggregate not [f:f]")
    report("3 symmetry-suite", failures)


def test_criterion_4_synthetic_experiment(planted_peak_experiment):
    acc = planted_peak_experiment
    failures = []
    med_full = float(np.median(acc["full"]))
    med_self = float(np.median(acc["self_only"]))
    med_base = float(np.median(acc["baseline"]))
    if med_full < 0.90:
        failures.append(f"median full accuracy {med_full:.3f} < 0.90")
    if med_full - med_base < 0.05:
        failures.append(
            f"full-baseline margin {med_full - med_base:.3f} < 0.05")
    if not med_full >= med_self >= med_base:
        failures.append(
            f"ordering violated: {med_full:.3f} / {med_self:.3f} / {med_base:.3f}")
    if acc["elapsed"] >= 300:
        failures.append(f"experiment took {acc['elapsed']:.0f}s (budget 300s)")
    print(f"  [criterion 4] medians: full={med_full:.3f} "
          f"self_only={med_self:.3f} baseline={med_base:.3f} "
          f"({acc['elapsed']:.0f}s)")
    report("4 synthetic-experiment", failures)


def test_criterion_5_attention_localization(planted_peak_experiment):
    acc = planted_peak_experiment
    failures = []
    med_loc = float(np.median(acc["localization"]))
    if med_loc < 0.80:
        failures.append(f"median peak-argmax rate {med_loc:.3f} < 0.80")
    print(f"  [criterion 5] localization per seed: "
          f"{[round(v, 2) for v in acc['localization']]} median {med_loc:.2f}")
    report("5 attention-localization", failures)


def test_criterion_6_protocol_fidelity():
    failures = []

    lab = ckplus_config()
    for epoch in range(60):
        expect = 0.1 if epoch < 30 else 0.02
        if lr_at(lab.schedule, epoch) != expect:
            failures.append(f"lab schedule wrong at epoch {epoch}")
    if lab.total_epochs != 60:
        failures.append("lab preset epoch count != 60")

    wild = afew_config()
    for epoch in range(180):
        expect = 4e-6 if epoch < 60 else (8e-7 if epoch < 120 else 1.6e-7)
        if lr_at(wild.schedule, epoch) != expect:
            failures.append(f"wild schedule wrong at epoch {epoch}")
    if wild.total_epochs != 180:
        failures.append("wild preset epoch count != 180")

    for n in range(1, 201):
        for k in range(1, 11):
            lo, hi = _segment_bounds(np.array([n]), k)
            bounds = list(zip(lo[0].tolist(), hi[0].tolist()))
            if bounds[0][0] != 0 or bounds[-1][1] != n or any(
                    a1 != b0 for (_, a1), (b0, _) in zip(bounds, bounds[1:])):
                failures.append(f"segment plan broken for n={n} k={k}")
                continue
            picks = sample_training(n, k, stream(n, k))
            if len(picks) != k or any(p < 0 or p >= n for p in picks):
                failures.append(f"sample out of range for n={n} k={k}")
            if n >= k:
                if any(not (lo <= p < hi) for p, (lo, hi) in zip(picks, bounds)):
                    failures.append(f"sample outside its segment n={n} k={k}")
                if any(a >= b for a, b in zip(picks, picks[1:])):
                    failures.append(f"sample not increasing n={n} k={k}")
            elif any(a > b for a, b in zip(picks, picks[1:])):
                failures.append(f"short-video sample decreasing n={n} k={k}")

    subjects = [f"s{i:03d}" for i in range(25)]
    ds = Dataset([VideoInstance(f"v{i}", s, 0, np.ones((1, 2)))
                  for i, s in enumerate(subjects)], 2, 1, ["only"])
    plan = build_folds(ds, 10)
    sizes = [len(plan.subjects_in(f)) for f in range(10)]
    if sizes != [3, 3, 3, 3, 3, 2, 2, 2, 2, 2]:
        failures.append(f"fold sizes {sizes}")
    assigned = list(plan.assignment.values())
    if sorted(plan.assignment) != subjects or len(assigned) != 25:
        failures.append("fold assignment incomplete")
    report("6 protocol-fidelity", failures)


def test_criterion_7_format_round_trips(tmp_path):
    failures = []

    ds = synth_generate(SynthConfig(videos_per_class=4, frames_min=2,
                                    frames_max=5, dim=6, num_classes=3,
                                    subject_count=10, seed=21))
    f1, f2 = str(tmp_path / "a.fanf"), str(tmp_path / "b.fanf")
    write_feature_file(ds, f1)
    write_feature_file(load_feature_file(f1), f2)
    if Path(f1).read_bytes() != Path(f2).read_bytes():
        failures.append("feature file round trip is not bit-exact")

    for mode in (Mode.FULL, Mode.SELF_ONLY):
        p = init_params(5, 3, mode, seed=13)
        c1 = str(tmp_path / f"{mode.value}.fanp")
        c2 = c1 + ".again"
        save_checkpoint(p, c1)
        save_checkpoint(load_checkpoint(c1), c2)
        if Path(c1).read_bytes() != Path(c2).read_bytes():
            failures.append(f"checkpoint round trip not bit-exact ({mode.value})")

    corrupt = str(tmp_path / "corrupt.fanf")
    raw = bytearray(Path(f1).read_bytes())
    raw[:4] = b"XXXX"
    Path(corrupt).write_bytes(bytes(raw))
    try:
        load_feature_file(corrupt)
        failures.append("corrupted feature header accepted")
    except FormatError:
        pass

    corrupt_ckpt = str(tmp_path / "corrupt.fanp")
    raw = bytearray((tmp_path / "full.fanp").read_bytes())
    raw[:4] = b"XXXX"
    Path(corrupt_ckpt).write_bytes(bytes(raw))
    try:
        load_checkpoint(corrupt_ckpt)
        failures.append("corrupted checkpoint header accepted")
    except FormatError:
        pass

    nan_file = str(tmp_path / "nan.fanf")
    parts = [b"FANF", struct.pack("<III", 1, 2, 1), struct.pack("<Q", 1),
             struct.pack("<H", 1), b"x",
             struct.pack("<H", 2), b"v0", struct.pack("<H", 2), b"s0",
             struct.pack("<II", 0, 1), np.array([np.nan, 0.0], "<f4").tobytes()]
    Path(nan_file).write_bytes(b"".join(parts))
    try:
        load_feature_file(nan_file)
        failures.append("NaN feature payload accepted")
    except DataError:
        pass

    nan_ckpt = str(tmp_path / "nan.fanp")
    raw = bytearray((tmp_path / "full.fanp").read_bytes())
    raw[-8:] = np.array([np.nan]).tobytes()
    Path(nan_ckpt).write_bytes(bytes(raw))
    try:
        load_checkpoint(nan_ckpt)
        failures.append("NaN checkpoint payload accepted")
    except DataError:
        pass

    report("7 format-round-trips", failures)


def test_criterion_8_cli_determinism(tmp_path, capsys):
    failures = []
    outputs = []
    for name in ("run1", "run2"):
        ckpt = str(tmp_path / f"{name}.fanp")
        hist = str(tmp_path / f"{name}.csv")
        code = main(["train", "--preset", "synth-default", "--seed", "7",
                     "--out", ckpt, "--history", hist])
        capsys.readouterr()
        if code != EXIT_OK:
            failures.append(f"{name} exited {code}")
            continue
        outputs.append((Path(ckpt).read_bytes(), Path(hist).read_bytes()))
    if len(outputs) == 2:
        if outputs[0][0] != outputs[1][0]:
            failures.append("checkpoints differ between identical runs")
        if outputs[0][1] != outputs[1][1]:
            failures.append("history files differ between identical runs")
    report("8 determinism", failures)
