"""Frames are checked once, where they enter a Dataset. Training and scoring
read the checked packed frames without scanning them again, and a
non-finite value written into them in place is reported by the kernel, with
the dataset index of its video."""

import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameattn import numerics
from frameattn.data import (
    Dataset,
    SynthConfig,
    VideoInstance,
    build_folds,
    load_feature_file,
    synth_generate,
    write_feature_file,
)
from frameattn.errors import NumericError
from frameattn.evaluation import cross_validate, evaluate, export_attention
from frameattn.model import Mode, init_params
from frameattn.training import TrainConfig, minibatches, train


def test_checked_frames_are_not_scanned_again(monkeypatch):
    # nothing is scanned: not the frames, and not the (B, C) logit blocks,
    # which the kernel checks itself before its unchecked cross-entropy
    ds = synth_generate(SynthConfig(videos_per_class=6, frames_min=3, frames_max=5,
                                    dim=6, num_classes=3, subject_count=12, seed=1))
    ds.packed()
    widths = []
    real = numerics.first_nonfinite_row

    def counting(arr):
        widths.append(arr.shape[-1])
        return real(arr)

    for name, module in list(sys.modules.items()):
        if name.startswith("frameattn") and hasattr(module, "first_nonfinite_row"):
            monkeypatch.setattr(module, "first_nonfinite_row", counting)
    config = TrainConfig(total_epochs=2, k=2, batch_size=4)
    params, _ = train(ds, config, val_indices=[0, 5])
    cross_validate(ds, config, build_folds(ds, 3))
    evaluate(params, ds)
    evaluate(params, ds, "sampled", k=2, indices=[4, 1, 4])
    with tempfile.TemporaryDirectory() as out:
        export_attention(params, ds, os.path.join(out, "w"))
    assert widths == []


BAD = st.sampled_from([np.nan, np.inf, -np.inf])
PROPS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def ragged(seed, lengths, d, c):
    rng = np.random.default_rng(seed)
    instances = [VideoInstance(f"v{i}", f"s{i}", i % c, rng.standard_normal((n, d)))
                 for i, n in enumerate(lengths)]
    return Dataset(instances, d, c, [f"c{j}" for j in range(c)])


def packed_copy(ds, loaded, where):
    """ds itself (float64 frames) or ds written out and loaded (float32)."""
    if not loaded:
        ds.packed()
        return ds
    path = os.path.join(where, "d.fanf")
    write_feature_file(ds, path)
    return load_feature_file(path)


@PROPS
@given(seed=st.integers(0, 2**32 - 1), lengths=st.lists(st.integers(1, 6), min_size=2,
                                                        max_size=8),
       d=st.integers(1, 5), c=st.integers(2, 3), mode=st.sampled_from(list(Mode)),
       loaded=st.booleans(), bad=BAD, data=st.data())
def test_value_written_in_place_is_named_by_scoring(seed, lengths, d, c, mode, loaded,
                                                    bad, data):
    video = data.draw(st.integers(0, len(lengths) - 1))
    frame = data.draw(st.integers(0, lengths[video] - 1))
    column = data.draw(st.integers(0, d - 1))
    params = init_params(d, c, mode, seed=seed % 1000)
    with tempfile.TemporaryDirectory() as where:
        ds = packed_copy(ragged(seed, lengths, d, c), loaded, where)
        ds.instances[video].features[frame, column] = bad
        out = os.path.join(where, "export")
        os.mkdir(out)
        match = f"^dataset index {video}: forward pass produced non-finite logits"
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(NumericError, match=match):
                evaluate(params, ds)
            with pytest.raises(NumericError, match=match):
                export_attention(params, ds, os.path.join(out, "w"))
        assert os.listdir(out) == []


@PROPS
@given(seed=st.integers(0, 2**32 - 1), lengths=st.lists(st.integers(1, 6), min_size=2,
                                                        max_size=12),
       d=st.integers(1, 5), c=st.integers(2, 3), mode=st.sampled_from(list(Mode)),
       loaded=st.booleans(), bad=BAD, batch_size=st.integers(1, 5), data=st.data())
def test_video_written_in_place_is_named_by_training(seed, lengths, d, c, mode, loaded,
                                                     bad, batch_size, data):
    video = data.draw(st.integers(0, len(lengths) - 1))
    config = TrainConfig(batch_size=batch_size, k=2, total_epochs=1, seed=seed % 1000,
                         mode=mode)
    with tempfile.TemporaryDirectory() as where:
        ds = packed_copy(ragged(seed, lengths, d, c), loaded, where)
        ds.instances[video].features[:] = bad
        batches = minibatches(ds.packed(), ds.packed().select(), config, 0,
                              np.empty((batch_size, 2, d)))
        number = next(n for n, (batch, _, _) in enumerate(batches) if video in batch)
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(
                NumericError, match=f"^epoch 0, batch {number}, dataset index {video}: "
                                    "forward pass produced non-finite logits"):
            train(ds, config)
