"""Frames are checked once, where they enter a Dataset, and training and
scoring read the checked packed frames without scanning them again. An
opened dataset's frames enter as each stack reads them from its file, so
a non-finite value written into that file in place is refused then,
naming its video, as loading the file refuses it."""

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
    open_feature_file,
    synth_generate,
    write_feature_file,
)
from frameattn.errors import DataError
from frameattn.evaluation import cross_validate, evaluate, export_attention
from frameattn.model import Mode, init_params
from frameattn.training import TrainConfig, train


def test_checked_frames_are_not_scanned_again(monkeypatch):
    # nothing is scanned: not the frames, and not the (B, C) logit blocks,
    # which the kernel checks itself before its unchecked cross-entropy
    ds = synth_generate(SynthConfig(videos_per_class=6, frames_min=3, frames_max=5,
                                    dim=6, num_classes=3, subject_count=12, seed=1))
    widths = []
    real = numerics.first_nonfinite_row

    def counting(arr):
        widths.append(arr.shape[-1])
        return real(arr)

    for name, module in list(sys.modules.items()):
        if name.startswith("frameattn") and hasattr(module, "first_nonfinite_row"):
            monkeypatch.setattr(module, "first_nonfinite_row", counting)
    config = TrainConfig(total_epochs=2, k=2, batch_size=4)
    params, _ = train(ds, config)
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


def opened_then_written(ds, where, video, values, bad):
    """ds written to a FANF file and opened; then, in place, the values at
    flat positions `values` of `video`'s frames set to `bad` in the file.
    Loading the file now refuses it as the opened dataset will."""
    path = os.path.join(where, "d.fanf")
    write_feature_file(ds, path)
    opened = open_feature_file(path)
    with open(path, "r+b") as f:
        raw = f.read()
        start = raw.index(ds.instances[video].features.tobytes())
        for value in values:
            f.seek(start + 4 * value)
            f.write(np.float32(bad).tobytes())
    with pytest.raises(DataError, match=f"^instance 'v{video}': non-finite feature value$"):
        load_feature_file(path)
    return opened


@PROPS
@given(seed=st.integers(0, 2**32 - 1), lengths=st.lists(st.integers(1, 6), min_size=2,
                                                        max_size=8),
       d=st.integers(1, 5), c=st.integers(2, 3), mode=st.sampled_from(list(Mode)),
       bad=BAD, data=st.data())
def test_value_written_in_place_is_named_by_scoring(seed, lengths, d, c, mode, bad, data):
    video = data.draw(st.integers(0, len(lengths) - 1))
    value = data.draw(st.integers(0, lengths[video] * d - 1))
    params = init_params(d, c, mode, seed=seed % 1000)
    with tempfile.TemporaryDirectory() as where:
        ds = opened_then_written(ragged(seed, lengths, d, c), where, video, [value], bad)
        out = os.path.join(where, "export")
        os.mkdir(out)
        match = f"^instance 'v{video}': non-finite feature value$"
        for call in (lambda: evaluate(params, ds),
                     lambda: evaluate(params, ds, "sampled", k=2),
                     lambda: export_attention(params, ds, os.path.join(out, "w"))):
            with pytest.raises(DataError, match=match):
                call()
        assert os.listdir(out) == []


@PROPS
@given(seed=st.integers(0, 2**32 - 1), lengths=st.lists(st.integers(1, 6), min_size=2,
                                                        max_size=12),
       d=st.integers(1, 5), c=st.integers(2, 3), mode=st.sampled_from(list(Mode)),
       bad=BAD, batch_size=st.integers(1, 5), data=st.data())
def test_video_written_in_place_is_named_by_training(seed, lengths, d, c, mode, bad,
                                                     batch_size, data):
    video = data.draw(st.integers(0, len(lengths) - 1))
    config = TrainConfig(batch_size=batch_size, k=2, total_epochs=1, seed=seed % 1000,
                         mode=mode)
    with tempfile.TemporaryDirectory() as where:
        ds = opened_then_written(ragged(seed, lengths, d, c), where, video,
                                 range(lengths[video] * d), bad)
        with pytest.raises(DataError,
                           match=f"^instance 'v{video}': non-finite feature value$"):
            train(ds, config)
