"""A dataset keeps its frames in float32: one made in memory from float64
arrays holds their float32 rounding, which is what its saved FANF file
holds. Everything computed from the frames is float64, widened exactly, so
a dataset and its saved file give identical results."""

from pathlib import Path

import numpy as np
import pytest

from frameattn import model
from frameattn.data import (
    Dataset,
    SynthConfig,
    VideoInstance,
    build_folds,
    load_feature_file,
    open_feature_file,
    synth_generate,
    write_feature_file,
)
from frameattn.errors import DataError
from frameattn.evaluation import (
    cross_validate,
    evaluate,
    export_attention,
    score_fusion_baseline,
)
from frameattn.model import Mode, init_params
from frameattn.training import minibatches, save_checkpoint, synth_default_config, train


def wide_arrays():
    """Float64 frames that float32 cannot hold exactly: synthetic videos
    with small float64 noise added."""
    synth = synth_generate(SynthConfig(videos_per_class=8, frames_min=1, frames_max=9, dim=6,
                                       num_classes=3, subject_count=6, seed=11))
    rng = np.random.default_rng(3)
    return [VideoInstance(inst.video_id, inst.subject_id, inst.label,
                          inst.features + 1e-3 * rng.standard_normal(inst.features.shape))
            for inst in synth.instances], synth.class_names


@pytest.fixture()
def pair(tmp_path):
    """The same videos twice: a dataset made in memory from float64 arrays,
    and its FANF file loaded."""
    path = str(tmp_path / "d.fanf")
    videos, names = wide_arrays()
    wide = Dataset(videos, 6, 3, names)
    write_feature_file(wide, path)
    return load_feature_file(path), wide


def head(ds, mode):
    params = init_params(ds.dim, ds.num_classes, mode, seed=5)
    params.q0 = np.linspace(-1.5, 2.0, ds.dim)
    params.q1 = np.linspace(1.0, -2.0, 2 * ds.dim)
    return params


def test_loaded_and_memory_frames_are_float32_views(pair):
    for ds in pair:
        frames = ds.packed.frames
        assert frames.dtype == np.float32
        for inst in ds.instances:
            assert inst.features.dtype == np.float32 and inst.features.base is frames
    assert pair[0].packed.frames.tobytes() == pair[1].packed.frames.tobytes()


def test_frames_are_rounded_to_float32_where_they_enter():
    videos, names = wide_arrays()
    ds = Dataset(videos, 6, 3, names)
    for given, inst in zip(videos, ds.instances):
        assert inst.features.tobytes() == given.features.astype(np.float32).tobytes()
        assert not np.array_equal(inst.features, given.features)
    stored = Dataset([VideoInstance("v", "s", 0, [[0.1]])], 1, 1, ["a"]).packed.frames[0, 0]
    assert stored.dtype == np.float32 and float(stored) == float(np.float32(0.1)) != 0.1
    with pytest.raises(DataError, match="^instance 'v': feature overflows single precision$"):
        Dataset([VideoInstance("v", "s", 0, [[0.1], [-3.5e38]])], 1, 1, ["a"])


def test_nan_written_in_place_is_caught_by_train_and_evaluate(pair, tmp_path):
    # into the file of an opened dataset, which reads its frames from there
    loaded, _ = pair
    path = tmp_path / "d.fanf"
    opened = open_feature_file(str(path))
    raw = bytearray(path.read_bytes())
    first = raw.index(loaded.instances[0].features.tobytes())
    raw[first + 4:first + 8] = np.float32(np.nan).tobytes()
    with open(path, "r+b") as f:
        f.write(raw)
    message = "^instance 'c0v00000': non-finite feature value$"
    with pytest.raises(DataError, match=message):
        train(opened, synth_default_config(total_epochs=1, seed=1))
    with pytest.raises(DataError, match=message):
        evaluate(head(opened, Mode.FULL), opened)
    with pytest.raises(DataError, match=message):
        write_feature_file(opened, str(tmp_path / "out.fanf"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.fanf"]


def test_training_batches_and_scoring_chunks_are_widened_once(pair, monkeypatch):
    loaded, _ = pair
    config = synth_default_config(batch_size=5, seed=1)
    buffer = np.empty((5, config.k, loaded.dim))
    stacks = minibatches(loaded.packed, loaded.packed.select(), config, 0, buffer)
    assert {(stack.dtype, stack.base is buffer) for _, stack, _ in stacks} == {
        (np.dtype(np.float64), True)}
    seen = []
    kernel = model._kernel
    monkeypatch.setattr(model, "_kernel",
                        lambda f, *args: (seen.append(f.dtype), kernel(f, *args))[1])
    params = head(loaded, Mode.FULL)
    # one stack per distinct length: the 24 videos have 1 to 9 frames, each
    # length present; the two sampled videos have k = 3 each
    evaluate(params, loaded)
    evaluate(params, loaded, frame_mode="sampled", indices=[4, 2])
    assert len(seen) == 9 + 1 and set(seen) == {np.dtype(np.float64)}


@pytest.mark.parametrize("budget", [model.SCORE_CHUNK_BYTES, 3000])
@pytest.mark.parametrize("mode", [Mode.FULL, Mode.SELF_ONLY])
def test_scoring_and_export_match_float64(pair, tmp_path, monkeypatch, mode, budget):
    monkeypatch.setattr(model, "SCORE_CHUNK_BYTES", budget)
    loaded, wide = pair
    params = head(loaded, mode)
    for kwargs in ({}, {"frame_mode": "sampled", "k": 2, "seed": 3},
                   {"indices": [7, 1, 4, 20, 3]},
                   {"frame_mode": "sampled", "k": 1, "indices": [5, 6, 0]}):
        a, b = evaluate(params, loaded, **kwargs), evaluate(params, wide, **kwargs)
        assert a.to_dict() == b.to_dict()
        assert a.predictions.tolist() == b.predictions.tolist()
    outputs = []
    for name, ds in (("loaded", loaded), ("wide", wide)):
        csv_path, json_path = export_attention(params, ds, str(tmp_path / name))
        outputs.append((Path(csv_path).read_bytes(), Path(json_path).read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("mode", [Mode.FULL, Mode.SELF_ONLY])
def test_training_matches_float64(pair, tmp_path, mode):
    loaded, wide = pair
    config = synth_default_config(total_epochs=5, batch_size=7, seed=2, mode=mode)
    for name, ds in (("loaded", loaded), ("wide", wide)):
        params, _ = train(ds, config, val_indices=[0, 5, 9])
        save_checkpoint(params, str(tmp_path / f"{name}.fanp"))
    assert ((tmp_path / "loaded.fanp").read_bytes()
            == (tmp_path / "wide.fanp").read_bytes())


def test_cross_validation_and_baseline_match_float64(pair):
    loaded, wide = pair
    config = synth_default_config(total_epochs=3, seed=4)
    plan = build_folds(loaded, 3)
    runs = [cross_validate(ds, config, plan) for ds in (loaded, wide)]
    for a, b in zip(runs[0][0] + [runs[0][1]], runs[1][0] + [runs[1][1]]):
        assert a.confusion.tolist() == b.confusion.tolist()
    a, b = (score_fusion_baseline(ds, config, list(range(0, 24, 2)), list(range(1, 24, 2)))
            for ds in (loaded, wide))
    assert a.to_dict() == b.to_dict()
