"""Feature files opened in place (data.open_feature_file): the frames stay
in the file and a stack reads them, so every result equals that of the
loaded file, bit for bit, while scoring holds one stack of frames at a
time. Also opening's record scan, which loading follows with one read
per record; the descriptor an opened dataset holds; and writing an
opened dataset one video at a time."""

import gc
import io
import os
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from frameattn.cli import main
from frameattn.data import (Dataset, SynthConfig, VideoInstance, _read_exact,
                            load_feature_file, open_feature_file, synth_generate,
                            write_feature_file)
from frameattn.errors import DataError, FormatError, SchemaError
from frameattn.evaluation import evaluate, export_attention
from frameattn.model import SCORE_CHUNK_BYTES, Mode, init_params, score
from frameattn.training import TrainConfig, save_checkpoint, train


@pytest.fixture
def synth_file(tmp_path):
    """A planted-peak file of 24 videos of 3 to 9 frames, D=8, 4 classes."""
    path = tmp_path / "synth.fanf"
    write_feature_file(synth_generate(SynthConfig(videos_per_class=6, frames_min=3,
                                                  frames_max=9, dim=8, seed=5)), str(path))
    return path


def head(mode=Mode.FULL, dim=8, classes=4):
    return init_params(dim, classes, mode, seed=2)


def fanf_bytes(dim, classes, records):
    """A FANF file of raw (video id, label, frame count, float32 values) records."""
    out = b"FANF" + struct.pack("<IIIQ", 1, dim, classes, len(records))
    out += b"".join(struct.pack("<H", 1) + b"c" for _ in range(classes))
    for video_id, label, n, values in records:
        out += (struct.pack("<H", len(video_id)) + video_id.encode() + struct.pack("<H", 1)
                + b"s" + struct.pack("<II", label, n) + np.asarray(values, "<f4").tobytes())
    return out


def same_report(a, b):
    assert (a.accuracy, a.per_class_accuracy, a.count) == (b.accuracy, b.per_class_accuracy,
                                                          b.count)
    np.testing.assert_array_equal(a.confusion, b.confusion)
    np.testing.assert_array_equal(a.predictions, b.predictions)


@pytest.mark.parametrize("mode", [Mode.FULL, Mode.SELF_ONLY])
@pytest.mark.parametrize("call", [
    dict(),
    dict(frame_mode="sampled", k=5, seed=3),   # k above the shortest video's 3 frames
    dict(indices=[4, -1, 4, 0, -24, 4]),
    dict(frame_mode="sampled", k=4, seed=1, indices=[-2, 7, 7]),
], ids=["all", "sampled", "indices", "sampled-indices"])
def test_evaluate_reports_equal_the_loaded_files(synth_file, mode, call):
    params = head(mode)
    same_report(evaluate(params, open_feature_file(str(synth_file)), **call),
                evaluate(params, load_feature_file(str(synth_file)), **call))


def test_scores_exports_and_training_equal_the_loaded_files(synth_file, tmp_path):
    opened, loaded = open_feature_file(str(synth_file)), load_feature_file(str(synth_file))
    params = head()
    picks = np.tile([0, 2, 1], (3, 1))
    for indices, frames in ((None, None), ([5, -1, 5], picks)):
        for a, b in zip(score(params, opened.packed, indices, frames),
                        score(params, loaded.packed, indices, frames)):
            np.testing.assert_array_equal(a, b)

    written = [export_attention(params, ds, tmp_path / name)
               for ds, name in ((opened, "opened"), (loaded, "loaded"))]
    for a, b in zip(*written):
        assert Path(a).read_bytes() == Path(b).read_bytes()

    config = TrainConfig(batch_size=5, total_epochs=3, seed=4)
    (a, _), (b, _) = (train(ds, config, train_indices=list(range(18)), val_indices=[20, 21])
                      for ds in (opened, loaded))
    np.testing.assert_array_equal(a.flat, b.flat)


def test_opened_videos_read_as_loaded_ones_and_write_the_same_bytes(synth_file, tmp_path):
    opened, loaded = open_feature_file(str(synth_file)), load_feature_file(str(synth_file))
    for a, b in zip(opened.instances, loaded.instances):
        assert (a.video_id, a.subject_id, a.label) == (b.video_id, b.subject_id, b.label)
        frames = np.asarray(a.features)
        assert frames.dtype == np.float32 and a.features.dtype == np.float32
        np.testing.assert_array_equal(frames, b.features)
    write_feature_file(opened, str(tmp_path / "back.fanf"))
    assert (tmp_path / "back.fanf").read_bytes() == synth_file.read_bytes()

    # a dataset made of its instances reads every video into its own matrix
    made = Dataset(opened.instances, opened.dim, opened.num_classes, opened.class_names)
    np.testing.assert_array_equal(made.packed.frames, loaded.packed.frames)
    assert made.packed.frames.dtype == np.float32


def test_shapes_are_known_without_reading(synth_file, monkeypatch):
    opened, loaded = open_feature_file(str(synth_file)), load_feature_file(str(synth_file))

    def no_read(*args):
        raise AssertionError("read the file")

    monkeypatch.setattr(os, "preadv", no_read)
    assert ([inst.features.shape for inst in opened.instances]
            == [inst.features.shape for inst in loaded.instances])
    packed = opened.packed
    assert packed.dim == 8 and packed.frames is None
    np.testing.assert_array_equal(packed.lengths(np.arange(24)),
                                  loaded.packed.lengths(np.arange(24)))


def test_record_fields_are_checked_before_any_frame(tmp_path):
    # record v0 holds a NaN and record v1 a label of the class count: the
    # scan refuses v1's header before v0's frames are read
    path = tmp_path / "two_defects.fanf"
    path.write_bytes(fanf_bytes(2, 2, [("v0", 0, 1, [np.nan, 1.0]),
                                       ("v1", 2, 1, [1.0, 2.0])]))
    for reader in (load_feature_file, open_feature_file):
        with pytest.raises(SchemaError, match="^instance 'v1': label 2 out of range$"):
            reader(str(path))


def test_non_finite_frames_are_found_when_read(tmp_path):
    path = tmp_path / "nan.fanf"
    path.write_bytes(fanf_bytes(2, 2, [("v0", 0, 2, [1.0, 2.0, 3.0, 4.0]),
                                       ("v1", 1, 1, [np.nan, 1.0])]))
    opened = open_feature_file(str(path))
    params = init_params(2, 2, seed=0)
    assert evaluate(params, opened, indices=[0]).count == 1
    for call in (lambda: evaluate(params, opened),
                 lambda: evaluate(params, opened, "sampled", k=1, indices=[1]),
                 lambda: export_attention(params, opened, tmp_path / "w.csv")):
        with pytest.raises(DataError, match="^instance 'v1': non-finite feature value$"):
            call()
    assert not (tmp_path / "w.csv").exists()


def test_the_file_opened_is_read_even_if_its_path_is_replaced_or_cut(synth_file, tmp_path):
    opened = open_feature_file(str(synth_file))
    params = head()
    before = evaluate(params, opened)
    write_feature_file(synth_generate(SynthConfig(videos_per_class=6, frames_min=3,
                                                  frames_max=9, dim=8, seed=6)),
                       str(synth_file))  # atomic_open replaces the path
    same_report(evaluate(params, opened), before)
    assert not np.array_equal(np.asarray(opened.instances[0].features),
                              load_feature_file(str(synth_file)).instances[0].features)

    cut = open_feature_file(str(synth_file))
    last = cut.instances[-1].video_id
    os.truncate(synth_file, os.path.getsize(synth_file) - 4)
    message = f"^file truncated while reading features of record '{last}'$"
    with pytest.raises(SchemaError, match=message):
        evaluate(params, cut)
    with pytest.raises(SchemaError, match=message):
        np.asarray(cut.instances[-1].features)


def test_a_short_read_after_the_size_was_taken_is_refused():
    # a file that shrinks after its size was taken: fewer bytes than declared
    with pytest.raises(SchemaError, match="^file truncated while reading header$"):
        _read_exact(io.BytesIO(b"FAN"), 8, "header", 100)


def open_descriptors():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_dropping_an_opened_dataset_closes_its_file(synth_file, tmp_path):
    bad = tmp_path / "bad.fanf"
    bad.write_bytes(b"FANX" + synth_file.read_bytes()[4:])
    gc.collect()
    before = open_descriptors()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(FormatError):
            open_feature_file(str(bad))
        assert open_descriptors() == before
        opened = open_feature_file(str(synth_file))
        packed = opened.packed
        features = opened.instances[0].features
        evaluate(head(), opened)
        assert open_descriptors() == before + 1
        del opened, packed
        assert open_descriptors() == before + 1  # a video's frames still hold it
        del features
        assert open_descriptors() == before
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_loading_closes_the_file_it_opens(synth_file, tmp_path):
    nan = tmp_path / "nan.fanf"
    nan.write_bytes(fanf_bytes(2, 2, [("v0", 0, 1, [1.0, 2.0]), ("v1", 1, 1, [np.nan, 1.0])]))
    gc.collect()
    before = open_descriptors()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        loaded = load_feature_file(str(synth_file))
        assert open_descriptors() == before
        with pytest.raises(DataError, match="^instance 'v1': non-finite feature value$"):
            load_feature_file(str(nan))
        assert open_descriptors() == before
        del loaded
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_kept_error_holds_no_descriptor(synth_file, tmp_path):
    # the frames on a failure's traceback outlive the call while the error
    # is kept; none of them may hold the file open
    nan = tmp_path / "nan.fanf"
    nan.write_bytes(fanf_bytes(2, 2, [("v0", 0, 1, [1.0, 2.0]), ("v1", 1, 1, [np.nan, 1.0])]))
    cut = tmp_path / "cut.fanf"
    cut.write_bytes(synth_file.read_bytes()[:-4])  # inside the last record's frames
    gc.collect()
    before = open_descriptors()
    kept = []
    for reader, path in ((load_feature_file, nan), (open_feature_file, cut),
                         (load_feature_file, cut)):
        for _ in range(3):
            with pytest.raises((DataError, SchemaError)) as caught:
                reader(str(path))
            kept.append(caught.value)
    assert open_descriptors() == before
    assert len(kept) == 9


def afew_like_file(path, megabytes):
    """An AFEW-shaped file of about `megabytes` MB of frames: D=512, 7
    classes, videos of 8 to 120 frames."""
    rng = np.random.default_rng(megabytes)
    lengths, total = [], 0
    while 2048 * total < megabytes * 1e6:
        lengths.append(8 + 16 * (len(lengths) % 8))
        total += lengths[-1]
    write_feature_file(Dataset(
        [VideoInstance(f"v{i:03d}", f"s{i % 5}", i % 7,
                       rng.standard_normal((n, 512), dtype=np.float32))
         for i, n in enumerate(lengths)], 512, 7, [f"c{c}" for c in range(7)]), str(path))


@pytest.mark.parametrize("megabytes", [4, 8])
def test_scoring_a_file_holds_one_stack_not_the_file(tmp_path, megabytes, capsys):
    data, ckpt = tmp_path / "afew.fanf", tmp_path / "head.fanp"
    afew_like_file(data, megabytes)
    save_checkpoint(init_params(512, 7, seed=1), str(ckpt))
    common = ["--checkpoint", str(ckpt), "--data", str(data)]
    for argv in (["eval", *common], ["eval", *common, "--frames", "sampled"],
                 ["visualize", *common, "--out", str(tmp_path / "w.csv")]):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * SCORE_CHUNK_BYTES, (argv[0], peak / SCORE_CHUNK_BYTES)
    capsys.readouterr()


def test_writing_an_opened_file_holds_one_video(tmp_path):
    # the bound of test_data's test_memory_is_bounded_by_the_largest_video:
    # the check pass keeps no video, and the write pass reads each again
    source, copy = tmp_path / "afew.fanf", tmp_path / "copy.fanf"
    afew_like_file(source, 8)
    opened = open_feature_file(str(source))
    largest = max(inst.features.shape[0] for inst in opened.instances) * 512 * 4
    tracemalloc.start()
    try:
        write_feature_file(opened, str(copy))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * largest + 64 * 1024, peak / largest
    assert copy.read_bytes() == source.read_bytes()
