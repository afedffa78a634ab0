"""A loaded FANF file keeps its frames in float32; everything computed from
them is float64 and equals what the same frames give held as float64."""

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
    synth_generate,
    write_feature_file,
)
from frameattn.errors import DataError, NumericError
from frameattn.evaluation import (
    cross_validate,
    evaluate,
    export_attention,
    score_fusion_baseline,
)
from frameattn.model import Mode, init_params
from frameattn.training import minibatches, save_checkpoint, synth_default_config, train


@pytest.fixture()
def pair(tmp_path):
    """The same videos twice: loaded from a FANF file (float32 frames) and
    rebuilt in memory from float64 copies of them."""
    path = str(tmp_path / "d.fanf")
    write_feature_file(synth_generate(SynthConfig(
        videos_per_class=8, frames_min=1, frames_max=9, dim=6, num_classes=3,
        subject_count=6, seed=11)), path)
    loaded = load_feature_file(path)
    wide = Dataset([VideoInstance(inst.video_id, inst.subject_id, inst.label,
                                  inst.features.astype(np.float64))
                    for inst in loaded.instances],
                   loaded.dim, loaded.num_classes, list(loaded.class_names))
    return loaded, wide


def head(ds, mode):
    params = init_params(ds.dim, ds.num_classes, mode, seed=5)
    params.q0 = np.linspace(-1.5, 2.0, ds.dim)
    params.q1 = np.linspace(1.0, -2.0, 2 * ds.dim)
    return params


def test_loaded_frames_are_float32_views_and_memory_frames_float64(pair):
    loaded, wide = pair
    frames = loaded.packed().frames
    assert frames.dtype == np.float32
    for inst in loaded.instances:
        assert inst.features.dtype == np.float32 and inst.features.base is frames
    assert wide.packed().frames.dtype == np.float64


def test_in_place_write_is_rounded_to_float32(pair):
    loaded, _ = pair
    loaded.instances[2].features[0, 1] = 0.1
    stored = loaded.packed().frames[loaded.packed().offsets[2], 1]
    assert stored.dtype == np.float32 and float(stored) == float(np.float32(0.1)) != 0.1


def test_nan_written_in_place_is_caught_by_train_and_evaluate(pair, tmp_path):
    loaded, _ = pair
    loaded.instances[0].features[:] = np.nan
    with pytest.raises(NumericError, match=r"^epoch 0, batch \d+, dataset index 0: "
                                           "forward pass produced non-finite logits"):
        train(loaded, synth_default_config(total_epochs=1, seed=1))
    with pytest.raises(NumericError,
                       match="^dataset index 0: forward pass produced non-finite logits"):
        evaluate(head(loaded, Mode.FULL), loaded)
    with pytest.raises(DataError, match="non-finite feature value"):
        write_feature_file(loaded, str(tmp_path / "out.fanf"))


def test_training_batches_and_scoring_chunks_are_widened_once(pair, monkeypatch):
    loaded, _ = pair
    stacks = minibatches(loaded.packed(), loaded.packed().select(),
                         synth_default_config(batch_size=5, seed=1), 0)
    assert {stack.dtype for _, stack, _ in stacks} == {np.dtype(np.float64)}
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
