import hashlib
import mmap
import os
import re
import struct
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from frameattn.data import (
    Dataset,
    SynthConfig,
    VideoInstance,
    atomic_open,
    build_folds,
    load_feature_file,
    open_feature_file,
    split_by_fold,
    synth_generate,
    synth_peak_positions,
    write_feature_file,
)
from frameattn.cli import EXIT_DATA, main
from frameattn.errors import ConfigError, DataError, FormatError, SchemaError
from frameattn.evaluation import (cross_validate, evaluate, export_attention,
                                  score_fusion_baseline)
from frameattn.model import FanParams, Mode, backward, forward, init_params, score
from frameattn.numerics import as_matrix
from frameattn.training import TrainConfig, save_checkpoint, train
from mapped_frames import mapped_frames


def tiny_dataset():
    rng = np.random.default_rng(0)
    instances = [
        VideoInstance(f"v{i:03d}", f"s{i % 4:02d}", i % 3,
                      rng.standard_normal((2 + i % 3, 5)).astype(np.float32).astype(np.float64))
        for i in range(8)
    ]
    return Dataset(instances, 5, 3, ["neg", "neu", "pos"])


class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        # a user's float64 arrays enter as a Dataset and come back as their
        # float32 rounding, as the tiny dataset's float32-exact values do
        rng = np.random.default_rng(4)
        arrays = Dataset([VideoInstance(f"a{i}", f"s{i % 3}", i % 2,
                                        rng.standard_normal((1 + i % 4, 5)))
                          for i in range(6)], 5, 2, ["x", "y"])
        for ds in (tiny_dataset(), arrays):
            path = str(tmp_path / "t.fanf")
            write_feature_file(ds, path)
            back = load_feature_file(path)
            assert back.dim == ds.dim and back.num_classes == ds.num_classes
            assert back.class_names == ds.class_names
            assert len(back.instances) == len(ds.instances)
            for a, b in zip(ds.instances, back.instances):
                assert (a.video_id, a.subject_id, a.label) == (b.video_id, b.subject_id,
                                                                b.label)
                assert b.features.dtype == np.float32
                np.testing.assert_array_equal(b.features, a.features.astype(np.float32))

    def test_write_deterministic(self, tmp_path):
        ds = tiny_dataset()
        p1, p2 = str(tmp_path / "a.fanf"), str(tmp_path / "b.fanf")
        write_feature_file(ds, p1)
        write_feature_file(ds, p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_empty_dataset_header_only(self, tmp_path):
        ds = Dataset([], 4, 2, ["a", "b"])
        path = str(tmp_path / "empty.fanf")
        write_feature_file(ds, path)
        back = load_feature_file(path)
        assert back.instances == ()
        assert back.dim == 4 and back.class_names == ("a", "b")

    def test_exact_byte_length(self, tmp_path):
        # header 4+12+8 + names (2+1)*2, record (2+2)+(2+2)+4+4 + 4*1*2 = 54
        ds = Dataset([VideoInstance("v0", "s0", 1, np.ones((1, 2)))],
                     2, 2, ["a", "b"])
        path = str(tmp_path / "one.fanf")
        write_feature_file(ds, path)
        assert len(Path(path).read_bytes()) == 54

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.fanf")
        write_feature_file(tiny_dataset(), path)
        raw = bytearray(Path(path).read_bytes())
        raw[:4] = b"NOPE"
        Path(path).write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_feature_file(path)

    def test_bad_version(self, tmp_path):
        path = str(tmp_path / "bad.fanf")
        write_feature_file(tiny_dataset(), path)
        raw = bytearray(Path(path).read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        Path(path).write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_feature_file(path)

    def test_truncated_file(self, tmp_path):
        path = str(tmp_path / "trunc.fanf")
        write_feature_file(tiny_dataset(), path)
        raw = Path(path).read_bytes()
        Path(path).write_bytes(raw[:-5])
        with pytest.raises(SchemaError):
            load_feature_file(path)

    def test_trailing_bytes(self, tmp_path):
        path = str(tmp_path / "trail.fanf")
        write_feature_file(tiny_dataset(), path)
        with open(path, "ab") as f:
            f.write(b"x")
        with pytest.raises(SchemaError):
            load_feature_file(path)

    def test_nan_payload_names_record(self, tmp_path):
        # craft bytes by hand; the writer refuses to produce NaN itself
        parts = [b"FANF", struct.pack("<III", 1, 2, 2), struct.pack("<Q", 1),
                 struct.pack("<H", 1), b"a", struct.pack("<H", 1), b"b",
                 struct.pack("<H", 4), b"vbad", struct.pack("<H", 2), b"s0",
                 struct.pack("<II", 0, 1),
                 np.array([1.0, np.nan], "<f4").tobytes()]
        path = str(tmp_path / "nan.fanf")
        Path(path).write_bytes(b"".join(parts))
        with pytest.raises(DataError, match="vbad"):
            load_feature_file(path)

    def test_label_out_of_range(self, tmp_path):
        parts = [b"FANF", struct.pack("<III", 1, 2, 2), struct.pack("<Q", 1),
                 struct.pack("<H", 1), b"a", struct.pack("<H", 1), b"b",
                 struct.pack("<H", 2), b"v0", struct.pack("<H", 2), b"s0",
                 struct.pack("<II", 5, 1),
                 np.array([1.0, 2.0], "<f4").tobytes()]
        path = str(tmp_path / "lbl.fanf")
        Path(path).write_bytes(b"".join(parts))
        with pytest.raises(SchemaError):
            load_feature_file(path)

    def test_hostile_header_sizes_rejected_before_reading(self, tmp_path):
        # 41 bytes declaring dim = n = 2^32-1: the record claims 4*n*dim
        # feature bytes and the file has none left
        big = 2**32 - 1
        parts = [b"FANF", struct.pack("<III", 1, big, 1), struct.pack("<Q", 1),
                 struct.pack("<H", 1), b"x",
                 struct.pack("<H", 1), b"v", struct.pack("<H", 1), b"s",
                 struct.pack("<II", 0, big)]
        path = str(tmp_path / "hostile.fanf")
        Path(path).write_bytes(b"".join(parts))
        assert len(Path(path).read_bytes()) == 41
        with pytest.raises(SchemaError):
            load_feature_file(path)

        ckpt = str(tmp_path / "head.fanp")
        save_checkpoint(init_params(2, 1, seed=0), ckpt)
        assert main(["eval", "--checkpoint", ckpt, "--data", path]) == EXIT_DATA

    def test_writer_rejects_nan(self, tmp_path):
        # no Dataset holds a NaN; an opened file's record is checked as the
        # writer reads it, and the failed write leaves no file
        with pytest.raises(DataError, match="^instance 'v0': non-finite feature value$"):
            Dataset([VideoInstance("v0", "s0", 0, np.array([[np.nan, 1.0]]))], 2, 1, ["x"])
        path = tmp_path / "nan.fanf"
        path.write_bytes(b"FANF" + struct.pack("<IIIQ", 1, 2, 1, 1) + struct.pack("<H", 1)
                         + b"x" + fanf_record("v0", 0, 1, [np.nan, 1.0]))
        opened = open_feature_file(str(path))
        with pytest.raises(DataError, match="^instance 'v0': non-finite feature value$"):
            write_feature_file(opened, str(tmp_path / "no.fanf"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["nan.fanf"]


def dataset_with_subjects(subjects):
    instances = [VideoInstance(f"v{i}", s, 0, np.ones((1, 2)))
                 for i, s in enumerate(subjects)]
    return Dataset(instances, 2, 1, ["only"])


class TestFolds:
    def test_round_robin_sizes(self):
        ds = dataset_with_subjects([f"s{i:03d}" for i in range(25)])
        plan = build_folds(ds, 10)
        sizes = [len(plan.subjects_in(f)) for f in range(10)]
        assert sizes == [3, 3, 3, 3, 3, 2, 2, 2, 2, 2]

    @pytest.mark.parametrize("folds", [1, 0, -1])
    def test_fewer_than_two_folds_rejected(self, folds):
        ds = dataset_with_subjects([f"s{i}" for i in range(10)])
        with pytest.raises(ConfigError, match=f"^fold_count must be at least 2, got {folds}$"):
            build_folds(ds, folds)

    def test_fold_count_that_is_not_an_integer_rejected(self):
        ds = dataset_with_subjects([f"s{i}" for i in range(10)])
        with pytest.raises(ConfigError, match=r"^fold_count must be an integer, got 2\.5$"):
            build_folds(ds, 2.5)

    def test_one_subject_per_fold(self):
        ds = dataset_with_subjects([f"s{i}" for i in range(10)])
        plan = build_folds(ds, 10)
        assert all(len(plan.subjects_in(f)) == 1 for f in range(10))

    def test_sorted_assignment(self):
        ds = dataset_with_subjects(["S011", "S005", "S010", *[f"T{i:02d}" for i in range(8)]])
        plan = build_folds(ds, 10)
        assert plan.assignment["S005"] == 0
        assert plan.assignment["S010"] == 1
        assert plan.assignment["S011"] == 2

    def test_disjoint_and_complete(self):
        subjects = [f"s{i:03d}" for i in range(37)]
        ds = dataset_with_subjects(subjects)
        plan = build_folds(ds, 10)
        seen = set()
        for f in range(10):
            fold_subjects = plan.subjects_in(f)
            assert not (seen & fold_subjects)
            seen |= fold_subjects
        assert seen == set(subjects)

    def test_invariant_to_instance_order(self):
        subjects = [f"s{i:03d}" for i in range(15)]
        a = build_folds(dataset_with_subjects(subjects), 10)
        b = build_folds(dataset_with_subjects(subjects[::-1]), 10)
        assert a.assignment == b.assignment

    @pytest.mark.parametrize("subjects, message", [
        ([None, "a"], "instance 0: subject id must be a str, got None"),
        (["s000", 5], "instance 1: subject id must be a str, got 5"),
        ([5, 6], "instance 0: subject id must be a str, got 5"),
    ], ids=["None", "int-after-str", "all-int"])
    def test_subject_id_that_is_not_a_str_is_refused(self, subjects, message):
        # ids FANF cannot store; mixed types would not sort
        with pytest.raises(SchemaError, match=f"^{message}$"):
            build_folds(dataset_with_subjects(subjects), 2)

    def test_too_few_subjects(self):
        with pytest.raises(ConfigError):
            build_folds(dataset_with_subjects(["s0", "s1"]), 10)

    def test_split_by_fold(self):
        ds = dataset_with_subjects([f"s{i}" for i in range(10)])
        plan = build_folds(ds, 10)
        train, test = split_by_fold(ds, plan, 0)
        assert len(train) + len(test) == 10
        test_subjects = {ds.instances[i].subject_id for i in test}
        train_subjects = {ds.instances[i].subject_id for i in train}
        assert not (test_subjects & train_subjects)


def case(field, value, message, id=None):
    """One refused setting and its whole message, named field-value."""
    return pytest.param(field, value, message, id=id or f"{field}-{value}")


class TestSynth:
    def test_videos_are_float32_views_of_the_packed_frames(self):
        ds = synth_generate(SynthConfig(videos_per_class=3, seed=4))
        frames = ds.packed.frames
        assert frames.dtype == np.float32
        for inst in ds.instances:
            assert inst.features.base is frames

    def test_memory_is_bounded_by_the_frames(self):
        # the drawn videos and the packed matrix, both float32, together
        # hold the frames' float64 bytes; a float64 matrix sized for
        # frames_max would alone be 4/3 of them here. D=256 makes the
        # frames outweigh the per-video objects; the warm-up takes the
        # first call's one-off allocations (about 0.75 MB) out of the peak
        config = SynthConfig(dim=256, videos_per_class=50)
        synth_generate(SynthConfig(dim=256, videos_per_class=1))
        with mapped_frames() as mapped:
            tracemalloc.start()
            try:
                ds = synth_generate(config)
                peak = tracemalloc.get_traced_memory()[1] + sum(mapped)
            finally:
                tracemalloc.stop()
        wide = 8 * ds.packed.frames.size
        assert peak < 1.1 * wide + 64 * 1024, peak / wide

    @pytest.mark.parametrize("field, value, message", [
        case("dim", 6.5, "dim must be an integer, got 6.5"),
        case("videos_per_class", 2.5, "videos_per_class must be an integer, got 2.5"),
        case("frames_max", 9.5, "frames_max must be an integer, got 9.5"),
        case("seed", 1.5, "seed must be an integer, got 1.5"),
        case("signal", "8", "signal must be a real number, got '8'"),
        case("noise", False, "noise must be a real number, got False"),
        case("terminal_peak", "no", "terminal_peak must be a bool, got 'no'"),
        # too large for a float: math.isfinite would raise OverflowError
        case("signal", 10**400, "signal must be finite, got 1" + "0" * 400,
             "signal-too-large-for-a-float"),
        case("dim", 0, "dim must be at least 1, got 0"),
        case("noise", -0.5, "noise must be non-negative, got -0.5"),
        # str() refuses an int of over 4300 digits: the message names its type
        case("seed", -10**5000, "seed must be non-negative, got int with over 4300 digits",
             "seed-too-long-to-print"),
        case("num_classes", 10**5000, "need num_classes <= dim for orthogonal class "
             "directions (int with over 4300 digits > 16)", "num_classes-too-long-to-print")])
    def test_fields_of_the_wrong_kind_refused(self, field, value, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            synth_generate(SynthConfig(**{field: value}))

    def test_bit_reproducible(self):
        cfg = SynthConfig(videos_per_class=3, seed=99)
        a = synth_generate(cfg)
        b = synth_generate(cfg)
        assert len(a.instances) == len(b.instances) == 12
        for x, y in zip(a.instances, b.instances):
            assert x.video_id == y.video_id and x.subject_id == y.subject_id
            np.testing.assert_array_equal(x.features, y.features)

    def test_noise_zero_gives_exact_directions(self):
        cfg = SynthConfig(videos_per_class=2, noise=0.0, peak_frames=1, seed=5)
        ds = synth_generate(cfg)
        peaks = synth_peak_positions(cfg)
        for inst in ds.instances:
            pk = peaks[inst.video_id]
            direction = np.zeros(cfg.dim)
            direction[inst.label] = cfg.signal
            for i in range(inst.features.shape[0]):
                if i in pk:
                    np.testing.assert_array_equal(inst.features[i], direction)
                else:
                    np.testing.assert_array_equal(inst.features[i], np.zeros(cfg.dim))

    def test_directions_orthogonal(self):
        cfg = SynthConfig(videos_per_class=1, noise=0.0, seed=1)
        ds = synth_generate(cfg)
        peaks = synth_peak_positions(cfg)
        dirs = {}
        for inst in ds.instances:
            dirs[inst.label] = inst.features[peaks[inst.video_id][0]]
        labels = sorted(dirs)
        for a in labels:
            for b in labels:
                expect = cfg.signal**2 if a == b else 0.0
                assert float(dirs[a] @ dirs[b]) == expect

    def test_default_frame_norms_match_expectation(self):
        cfg = SynthConfig()
        ds = synth_generate(cfg)
        peaks = synth_peak_positions(cfg)
        nonpeak_sq, peak_sq = [], []
        for inst in ds.instances:
            pk = set(peaks[inst.video_id])
            for i in range(inst.features.shape[0]):
                (peak_sq if i in pk else nonpeak_sq).append(
                    float(inst.features[i] @ inst.features[i]))
        # noise frames: E||f||^2 = D*noise^2 = 16; peaks add signal^2 = 64
        assert abs(np.mean(nonpeak_sq) - 16.0) < 0.5
        assert abs(np.mean(peak_sq) - 80.0) < 3.0

    def test_signal_zero_removes_class_information(self):
        cfg = SynthConfig(videos_per_class=4, signal=0.0, seed=3)
        ds = synth_generate(cfg)
        peaks = synth_peak_positions(cfg)
        # peak rows are plain noise: same distributional scale as the rest
        for inst in ds.instances[:4]:
            pk = peaks[inst.video_id][0]
            assert float(np.abs(inst.features[pk]).max()) < 6.0

    def test_terminal_peak_option(self):
        cfg = SynthConfig(videos_per_class=2, terminal_peak=True, peak_frames=2, seed=4)
        peaks = synth_peak_positions(cfg)
        ds = synth_generate(cfg)
        for inst in ds.instances:
            n = inst.features.shape[0]
            assert peaks[inst.video_id] == [n - 2, n - 1]

    def test_peak_positions_consistent(self):
        cfg = SynthConfig(videos_per_class=2, seed=8)
        ds = synth_generate(cfg)
        peaks = synth_peak_positions(cfg)
        assert set(peaks) == {i.video_id for i in ds.instances}
        for inst in ds.instances:
            pk = peaks[inst.video_id]
            assert len(pk) == cfg.peak_frames
            assert all(0 <= p < inst.features.shape[0] for p in pk)
            # the planted coordinate is visibly elevated at the peak
            assert inst.features[pk[0], inst.label] > 3.0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            synth_generate(SynthConfig(num_classes=20, dim=16))
        with pytest.raises(ConfigError):
            synth_generate(SynthConfig(peak_frames=9, frames_min=8))
        with pytest.raises(ConfigError):
            synth_generate(SynthConfig(frames_min=10, frames_max=9))
        with pytest.raises(ConfigError):
            synth_generate(SynthConfig(signal=-1.0))
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            synth_generate(SynthConfig(seed=-1))

    def test_subjects_support_folds(self):
        ds = synth_generate(SynthConfig(videos_per_class=10, seed=2))
        assert len(ds.subjects()) >= 10
        build_folds(ds, 10)


class TestDatasetValidation:
    def test_label_out_of_range(self):
        with pytest.raises(SchemaError):
            Dataset([VideoInstance("v", "s", 5, np.ones((1, 2)))], 2, 3, list("abc"))
        for label in (10**5000, -10**5000):  # too long for str()
            with pytest.raises(SchemaError, match="^instance 'v': label int with over 4300 "
                                                  "digits out of range$"):
                Dataset([VideoInstance("v", "s", label, np.ones((1, 2)))], 2, 3, list("abc"))

    @pytest.mark.parametrize("label", [1.5, "1"])
    def test_label_that_is_not_an_integer(self, label):
        message = f"^instance 'v': label must be an integer, got {re.escape(repr(label))}$"
        with pytest.raises(SchemaError, match=message):
            Dataset([VideoInstance("v", "s", label, np.ones((1, 2)))], 2, 3, list("abc"))

    def test_class_name_count_must_be_the_class_count(self):
        with pytest.raises(SchemaError, match="^expected 2 class names, got 1$"):
            Dataset([VideoInstance("v", "s", 0, np.ones((1, 2)))], 2, 2, ["a"])

    def test_numpy_integer_label_is_an_integer(self, tmp_path):
        ds = Dataset([VideoInstance("v", "s", np.uint8(2), np.ones((1, 2)))], 2, 3, list("abc"))
        assert ds.packed.labels.tolist() == [2]
        write_feature_file(ds, str(tmp_path / "d.fanf"))
        assert load_feature_file(str(tmp_path / "d.fanf")).instances[0].label == 2

    @pytest.mark.parametrize("dim, classes, message", [
        (2.0, 1, "dim must be an integer, got 2.0"),
        (2, "1", "num_classes must be an integer, got '1'"),
        (0, 1, "dim must be at least 1, got 0")])
    def test_header_of_the_wrong_kind(self, dim, classes, message):
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            Dataset([VideoInstance("v", "s", 0, np.ones((1, 2)))], dim, classes, ["a"])

    def test_dim_mismatch(self):
        with pytest.raises(SchemaError):
            Dataset([VideoInstance("v", "s", 0, np.ones((1, 4)))], 2, 1, ["a"])

    def test_nonfinite(self):
        with pytest.raises(DataError):
            Dataset([VideoInstance("v", "s", 0, np.array([[np.inf, 0.0]]))], 2, 1, ["a"])

    NOT_REAL = {
        "text": [["1.0", "2.0"]],
        "None in an object array": np.array([[None, 1.0]], dtype=object),
        "ragged rows": [[1.0, 2.0], [3.0]],
        "complex": np.array([[1.0 + 2.0j, 0.5]]),
    }

    @pytest.mark.parametrize("kind", list(NOT_REAL))
    def test_features_that_are_not_real_numbers(self, kind):
        videos = [VideoInstance("ok", "s", 0, np.ones((2, 2))),
                  VideoInstance("bad", "s", 0, self.NOT_REAL[kind])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # complex parts are not dropped with a warning
            with pytest.raises(SchemaError, match="^instance 'bad': features"):
                Dataset(videos, 2, 1, ["a"])

    @pytest.mark.parametrize("kind", list(NOT_REAL))
    def test_arrays_that_are_not_real_numbers_refused_by_the_head(self, kind):
        # the same rule (numerics.real_array) guards every array entry point,
        # with DataError naming the array
        bad = self.NOT_REAL[kind]
        full = init_params(2, 1, Mode.FULL, seed=0)
        calls = [("features", lambda: forward(bad, full)),
                 ("features", lambda: backward(bad, full, 0)),
                 ("matrix", lambda: as_matrix(bad)),
                 ("q0", lambda: FanParams(bad, full.q1, full.class_w, full.class_b, Mode.FULL)),
                 ("class_w", lambda: FanParams(full.q0, full.q1, bad, full.class_b, Mode.FULL))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # complex parts are not dropped with a warning
            for name, call in calls:
                with pytest.raises(DataError, match=f"^{name}[: ]"):
                    call()

    @pytest.mark.parametrize("dtype", [bool, np.int32, np.uint8, np.float16, np.float32,
                                       np.float64])
    def test_real_dtypes_are_packed(self, dtype):
        # beside a float32 video: every video is rounded to float32 as it enters
        ds = Dataset([VideoInstance("v", "s", 0, np.ones((2, 2), dtype=dtype)),
                      VideoInstance("w", "s", 0, np.ones((1, 2), dtype=np.float32))],
                     2, 1, ["a"])
        frames = ds.packed.frames
        np.testing.assert_array_equal(frames, np.ones((3, 2)))
        assert frames.dtype == np.float32


def fanf_record(video_id, label, n, values):
    """One FANF record: ids, label, declared frame count and raw float32s."""
    return (struct.pack("<H", len(video_id)) + video_id.encode()
            + struct.pack("<H", 2) + b"s0" + struct.pack("<II", label, n)
            + np.asarray(values, "<f4").tobytes())


class TestPackedFrames:
    def test_loaded_features_are_views_of_one_matrix(self, tmp_path):
        path = str(tmp_path / "t.fanf")
        write_feature_file(tiny_dataset(), path)
        ds = load_feature_file(path)
        packed = ds.packed
        lengths = [inst.features.shape[0] for inst in ds.instances]
        assert packed.frames.shape == (sum(lengths), ds.dim)
        assert packed.offsets.tolist() == np.r_[0, np.cumsum(lengths)].tolist()
        assert packed.labels.tolist() == [inst.label for inst in ds.instances]
        for inst, lo, hi in zip(ds.instances, packed.offsets, packed.offsets[1:]):
            assert inst.features.base is packed.frames
            assert np.shares_memory(inst.features, packed.frames[lo:hi])
            np.testing.assert_array_equal(inst.features, packed.frames[lo:hi])

    @pytest.mark.parametrize("source", ["loaded", "synthetic", "float64", "empty"])
    def test_packed_matrix_is_a_read_only_mapping_of_its_own(self, tmp_path, source):
        if source == "loaded":
            write_feature_file(tiny_dataset(), str(tmp_path / "t.fanf"))
            ds = load_feature_file(str(tmp_path / "t.fanf"))
        else:
            ds = {"synthetic": lambda: synth_generate(SynthConfig(videos_per_class=2)),
                  "float64": ragged_dataset,
                  "empty": lambda: Dataset([], 2, 2, ["a", "b"])}[source]()
        frames = ds.packed.frames
        assert not frames.flags.writeable
        assert isinstance(frames.base, mmap.mmap)
        assert all(inst.features.base is frames for inst in ds.instances)

    def test_in_memory_dataset_is_packed_on_first_use(self):
        ds = tiny_dataset()
        originals = [inst.features for inst in ds.instances]
        frames = ds.packed.frames
        for inst, before in zip(ds.instances, originals):
            assert inst.features.base is frames
            np.testing.assert_array_equal(inst.features, before)

    @pytest.mark.parametrize("loaded", [True, False], ids=["loaded float32", "float64"])
    def test_lengths_and_stack_gather_each_videos_frames(self, tmp_path, loaded):
        ds = ragged_dataset()
        if loaded:
            write_feature_file(ds, str(tmp_path / "r.fanf"))
            ds = load_feature_file(str(tmp_path / "r.fanf"))
        packed = ds.packed
        assert packed.frames.dtype == np.float32
        everything = packed.select()
        assert packed.lengths(everything).tolist() == [len(i.features) for i in ds.instances]
        videos = packed.select([3, -1, 3, 0, -12, 7, 7])
        lengths = packed.lengths(videos)
        assert lengths.tolist() == [len(ds.instances[i].features) for i in videos]
        rng = np.random.default_rng(5)
        picks = np.array([rng.integers(0, n, size=4) for n in lengths.tolist()])
        out = np.empty((7, 4, ds.dim))
        assert packed.stack(videos, picks, out) is out
        want = np.stack([ds.instances[i].features[p] for i, p in zip(videos, picks)])
        assert out.tobytes() == want.astype(np.float64).tobytes()
        # the first frame of every video, into a buffer of its own shape
        first = np.stack([ds.instances[i].features[:1] for i in videos])
        assert packed.stack(videos, np.zeros((7, 1), int), np.empty((7, 1, ds.dim))).tobytes() \
            == first.astype(np.float64).tobytes()

    def test_select_takes_integers_only(self):
        packed = ragged_dataset().packed  # 12 videos
        assert packed.select().tolist() == list(range(12))
        # refused after the shape checks, before the integer and bounds checks
        for empty in ([], np.array([]), np.zeros(0, np.int32)):
            with pytest.raises(ConfigError, match="^selection is empty$"):
                packed.select(empty)
        with pytest.raises(ConfigError, match="^test split is empty$"):
            packed.select([], "test split")
        with pytest.raises(IndexError, match="^indices must be one-dimensional"):
            packed.select([[]])
        with pytest.raises(ConfigError, match="^selection is empty$"):
            Dataset([], 4, 2, ["a", "b"]).packed.select()  # no videos to default to
        assert packed.select([11, -1, 0]).tolist() == [11, 11, 0]
        assert packed.select(np.array([2, -2], np.int32)).tolist() == [2, 10]
        assert packed.select(np.array([3], np.uint64)).tolist() == [3]
        # numpy makes [2**64 - 1] a uint64 array, and would wrap it to -1
        for bad in ([12], [-13], [2**64 - 1], np.array([2**64 - 1], np.uint64)):
            with pytest.raises(IndexError, match="out of bounds"):
                packed.select(bad)
        for bad in ([1.0], [True], ["1"], [10**30], np.array([0.5])):
            with pytest.raises(IndexError, match="^indices must be integers, got "):
                packed.select(bad)

    def test_select_takes_one_dimensional_selections_only(self):
        packed = ragged_dataset().packed
        for bad, shape in (([[0, 1]], (1, 2)), (np.zeros((2, 1), np.int64), (2, 1)),
                           (np.array(3), ()), ([[]], (1, 0))):
            with pytest.raises(IndexError, match=re.escape(
                    f"indices must be one-dimensional, got shape {shape}")):
                packed.select(bad)

    @pytest.mark.parametrize("entry", [
        lambda ds, params, path: evaluate(params, ds, indices=[[0, 1]]),
        lambda ds, params, path: evaluate(params, ds, "sampled", indices=[[0, 1]]),
        lambda ds, params, path: train(ds, TrainConfig(total_epochs=1), train_indices=[[0, 1]]),
        lambda ds, params, path: train(ds, TrainConfig(total_epochs=1), val_indices=[[0, 1]]),
        lambda ds, params, path: score_fusion_baseline(ds, TrainConfig(total_epochs=1),
                                                       test_indices=[[0, 1]]),
        lambda ds, params, path: export_attention(params, ds, path, indices=[[0, 1]]),
    ], ids=["evaluate", "sampled evaluate", "train_indices", "val_indices",
            "baseline test split", "export_attention"])
    def test_entry_points_refuse_a_nested_selection(self, entry, tmp_path):
        # numpy would index with the (1, 2) array and fail later, or not at all
        ds = ragged_dataset()
        params = init_params(ds.dim, ds.num_classes)
        with pytest.raises(IndexError, match=re.escape(
                "indices must be one-dimensional, got shape (1, 2)")):
            entry(ds, params, str(tmp_path / "attention.csv"))
        assert list(tmp_path.iterdir()) == []

    RAGGED = "indices must be flat, got a ragged selection"

    def test_select_refuses_a_ragged_selection_before_any_other_check(self):
        # np.asarray raises ValueError on these; an out-of-bounds or float
        # entry does not change which error the caller sees
        packed = ragged_dataset().packed
        for bad in ([[0], [1, 2]], [0, [1]], [[0], [1, 99]], [0.5, [1]]):
            with pytest.raises(IndexError, match=f"^{self.RAGGED}$"):
                packed.select(bad)

    @pytest.mark.parametrize("ragged", [[[0], [1, 2]], [0, [1]]], ids=["rows", "mixed"])
    @pytest.mark.parametrize("entry", [
        lambda ds, params, path, sel: evaluate(params, ds, indices=sel),
        lambda ds, params, path, sel: evaluate(params, ds, "sampled", indices=sel),
        lambda ds, params, path, sel: train(ds, TrainConfig(total_epochs=1), train_indices=sel),
        lambda ds, params, path, sel: train(ds, TrainConfig(total_epochs=1), val_indices=sel),
        lambda ds, params, path, sel: score_fusion_baseline(ds, TrainConfig(total_epochs=1),
                                                            test_indices=sel),
        lambda ds, params, path, sel: export_attention(params, ds, path, indices=sel),
        lambda ds, params, path, sel: score(params, ds.packed, sel),
    ], ids=["evaluate", "sampled evaluate", "train_indices", "val_indices",
            "baseline test split", "export_attention", "model.score"])
    def test_entry_points_refuse_a_ragged_selection(self, entry, ragged, tmp_path):
        ds = ragged_dataset()
        params = init_params(ds.dim, ds.num_classes)
        with pytest.raises(IndexError, match=f"^{self.RAGGED}$"):
            entry(ds, params, str(tmp_path / "attention.csv"), ragged)
        assert list(tmp_path.iterdir()) == []

    def test_a_dataset_cannot_be_changed(self, tmp_path):
        ds = tiny_dataset()
        write_feature_file(ds, str(tmp_path / "t.fanf"))
        for made in (ds, load_feature_file(str(tmp_path / "t.fanf"))):
            frames = made.packed.frames.copy()
            with pytest.raises(ValueError, match="read-only"):
                made.instances[0].features[:] = np.inf
            for name in ("video_id", "subject_id", "label", "features"):
                with pytest.raises(FrozenInstanceError):
                    setattr(made.instances[1], name, None)
            for name in ("instances", "dim", "num_classes", "class_names", "packed"):
                with pytest.raises(FrozenInstanceError):
                    setattr(made, name, None)
            with pytest.raises(TypeError):
                made.instances[0] = made.instances[1]
            assert made.packed.frames.tobytes() == frames.tobytes()

    @pytest.mark.parametrize("source", ["made", "loaded", "opened"])
    def test_the_packed_arrays_cannot_be_written(self, tmp_path, source):
        ds = tiny_dataset()
        if source != "made":
            write_feature_file(ds, str(tmp_path / "t.fanf"))
            ds = {"loaded": load_feature_file, "opened": open_feature_file}[source](
                str(tmp_path / "t.fanf"))
        packed = ds.packed
        arrays = {"offsets": packed.offsets, "labels": packed.labels}
        if source != "opened":  # an opened dataset's frames stay in its file
            arrays["frames"] = packed.frames
        before = {name: a.copy() for name, a in arrays.items()}
        for name, a in arrays.items():
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
            np.testing.assert_array_equal(a, before[name])

    def test_the_callers_instances_and_arrays_are_left_as_they_were(self):
        videos = tiny_dataset().instances[:3]
        arrays = [np.array(inst.features, np.float64) for inst in videos]
        given = [VideoInstance(inst.video_id, inst.subject_id, inst.label, a)
                 for inst, a in zip(videos, arrays)]
        copies = [a.copy() for a in arrays]
        first = Dataset(given, 5, 3, ["neg", "neu", "pos"])
        second = Dataset(iter(given[1:]), 5, 3, ["neg", "neu", "pos"])  # read once
        assert len(second.instances) == len(second.packed.labels) == 2
        for inst, a, copy in zip(given, arrays, copies):
            assert inst.features is a and a.flags.writeable and a.dtype == np.float64
            assert a.tobytes() == copy.tobytes()
        # each dataset holds its own instances, views of its own matrix
        assert first.instances[1] is not second.instances[0]
        assert all(inst.features.base is first.packed.frames for inst in first.instances)
        assert all(inst.features.base is second.packed.frames for inst in second.instances)

    def test_each_dataset_packs_once_and_nothing_else_packs(self, tmp_path):
        ds = ragged_dataset()
        path = str(tmp_path / "r.fanf")
        with mapped_frames() as mapped:
            made = Dataset(ds.instances, ds.dim, ds.num_classes, ds.class_names)
            assert mapped == [made.packed.frames.nbytes]
            write_feature_file(made, path)
            loaded = load_feature_file(path)
            opened = open_feature_file(path)
            assert mapped == [made.packed.frames.nbytes] * 2
            config = TrainConfig(total_epochs=1, k=1, batch_size=4)
            folds = build_folds(made, 3)
            for each in (made, loaded, opened):
                params, _ = train(each, config)
                evaluate(params, each)
                evaluate(params, each, "sampled", k=2)
                export_attention(params, each, str(tmp_path / "w"))
                write_feature_file(each, str(tmp_path / "again.fanf"))
                score_fusion_baseline(each, config)
                each.validate()
            cross_validate(made, config, folds)
            assert mapped == [made.packed.frames.nbytes] * 2

    def test_later_oversized_record_rejected_before_allocation(self, tmp_path):
        # record 0 holds a NaN, record 1 declares 2^31 frames of which the
        # file holds one: the header pass raises before any features are read
        head = [b"FANF", struct.pack("<III", 1, 2, 1), struct.pack("<Q", 2),
                struct.pack("<H", 1), b"a"]
        path = tmp_path / "big.fanf"
        path.write_bytes(b"".join(head + [fanf_record("v0", 0, 1, [np.nan, 1.0]),
                                          fanf_record("v1", 0, 2**31, [1.0, 2.0])]))
        with mapped_frames() as mapped:
            with pytest.raises(SchemaError, match="v1"):
                load_feature_file(str(path))
            assert mapped == []
            # the same file made whole maps its two frames' 16 bytes, once
            path.write_bytes(b"".join(head + [fanf_record("v0", 0, 1, [0.5, 1.0]),
                                              fanf_record("v1", 0, 1, [1.0, 2.0])]))
            load_feature_file(str(path))
        assert mapped == [16]

    @pytest.mark.parametrize("label, n, values, error", [
        (2, 1, [1.0, 2.0], SchemaError), (0, 0, [], SchemaError),
        (0, 1, [np.nan, 1.0], DataError)], ids=["label", "no frames", "nan"])
    def test_loader_checks_each_record_as_packing_does(self, tmp_path,
                                                       label, n, values, error):
        # a record the header pass accepts: the loader raises what packing
        # the same video raises, naming it
        parts = [b"FANF", struct.pack("<IIIQ", 1, 2, 2, 2),
                 struct.pack("<H", 1), b"a", struct.pack("<H", 1), b"b",
                 fanf_record("v0", 1, 1, [0.5, 1.0]), fanf_record("v1", label, n, values)]
        path = tmp_path / "bad.fanf"
        path.write_bytes(b"".join(parts))
        with pytest.raises(error, match="^instance 'v1': ") as loaded:
            load_feature_file(str(path))
        video = VideoInstance("v1", "s0", label, np.array(values, np.float32).reshape(n, 2))
        with pytest.raises(error) as packed:
            Dataset([video], 2, 2, ["a", "b"])
        assert str(loaded.value) == str(packed.value)

    def test_loader_memory_is_bounded_by_the_payload(self, tmp_path):
        # 8 MB of float32 frames in 200 records: the loaded dataset holds
        # them once, as read, and loading allocates little beside them
        rng = np.random.default_rng(3)
        dim, count, n = 256, 200, 40
        with open(tmp_path / "big.fanf", "wb") as f:
            f.write(b"FANF" + struct.pack("<IIIQ", 1, dim, 2, count)
                    + struct.pack("<H", 1) + b"a" + struct.pack("<H", 1) + b"b")
            for i in range(count):
                f.write(fanf_record(f"v{i}", i % 2, n,
                                    rng.standard_normal((n, dim), dtype=np.float32)))
        payload = 4 * count * n * dim
        with mapped_frames() as mapped:
            tracemalloc.start()
            try:
                ds = load_feature_file(str(tmp_path / "big.fanf"))
                peak = tracemalloc.get_traced_memory()[1] + sum(mapped)
            finally:
                tracemalloc.stop()
        assert peak < 1.2 * payload, peak / payload
        assert ds.packed.frames.nbytes == payload


def ragged_dataset(seed=11):
    """12 float64 videos of 1 to 5 frames, not rounded to float32."""
    rng = np.random.default_rng(seed)
    return Dataset([VideoInstance(f"v{i:02d}", f"s{i % 3}", i % 3,
                                  rng.standard_normal((1 + i % 5, 6)))
                    for i in range(12)], 6, 3, ["a", "b", "c"])


class TestWriter:
    # the bytes of ragged_dataset(), pinned before the writer stopped packing
    RAGGED_SHA256 = "1bee33d1c23abe5816443a2f392686373f18106e1e4ec945ae29b9ad24a5f609"

    def sha256(self, ds, path):
        write_feature_file(ds, str(path))
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_bytes_pinned_for_float64_loaded_and_packed_datasets(self, tmp_path):
        assert self.sha256(ragged_dataset(), tmp_path / "a.fanf") == self.RAGGED_SHA256
        loaded = load_feature_file(str(tmp_path / "a.fanf"))
        assert loaded.packed.frames.dtype == np.float32
        assert self.sha256(loaded, tmp_path / "b.fanf") == self.RAGGED_SHA256
        packed = ragged_dataset()
        packed.validate()
        assert self.sha256(packed, tmp_path / "c.fanf") == self.RAGGED_SHA256

    def test_features_objects_are_left_as_they_were(self, tmp_path):
        ds = ragged_dataset()
        before = [inst.features for inst in ds.instances]
        write_feature_file(ds, str(tmp_path / "a.fanf"))
        assert all(inst.features is f for inst, f in zip(ds.instances, before))
        loaded = load_feature_file(str(tmp_path / "a.fanf"))
        views = [inst.features for inst in loaded.instances]
        write_feature_file(loaded, str(tmp_path / "b.fanf"))
        assert all(inst.features is f for inst, f in zip(loaded.instances, views))

    # A text field FANF cannot hold is refused where its Dataset is made, so
    # the writer is never given one.
    def test_string_too_long_for_its_length_field_is_refused(self):
        ds = tiny_dataset()
        with pytest.raises(SchemaError, match="^instance 3: video id is 70000 bytes long, "
                                              "more than the 65535 a FANF string holds$"):
            Dataset([replace(inst, video_id="x" * 70_000) if i == 3 else inst  # u16: 65535
                     for i, inst in enumerate(ds.instances)], 5, 3, ds.class_names)
        longest = Dataset([replace(ds.instances[0], video_id="x" * 65_535)], 5, 3,
                          ds.class_names)
        assert longest.instances[0].video_id == "x" * 65_535

    @pytest.mark.parametrize("field,value,message", [
        ("video_id", 5, "instance 3: video id must be a str, got 5"),
        ("subject_id", None, "instance 3: subject id must be a str, got None"),
        ("class name", 2, "class name 1 must be a str, got 2"),
        ("video_id", "\ud800", "instance 3: video id '\\ud800' cannot be encoded as UTF-8"),
        ("subject_id", "s\udfff", "instance 3: subject id 's\\udfff' cannot be encoded"),
        ("class name", "\ud800", "class name 1 '\\ud800' cannot be encoded as UTF-8"),
    ], ids=["int video id", "None subject", "int class name", "surrogate video id",
            "surrogate subject", "surrogate class name"])
    def test_string_field_that_is_no_utf8_text_is_refused(self, field, value, message):
        ds = tiny_dataset()
        names = list(ds.class_names)
        if field == "class name":
            names[1] = value
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}"):
            Dataset([replace(inst, **{field: value}) if i == 3 and field != "class name"
                     else inst for i, inst in enumerate(ds.instances)], 5, 3, names)

    def test_memory_is_bounded_by_the_largest_video(self, tmp_path):
        # 4 MB of float32 frames in 100 videos of 20 to 59 frames: writing
        # copies none of them
        rng = np.random.default_rng(5)
        dim = 256
        ds = Dataset([VideoInstance(f"v{i}", "s", i % 2,
                                    rng.standard_normal((20 + i % 40, dim)))
                      for i in range(100)], dim, 2, ["a", "b"])
        largest = max(inst.features.nbytes for inst in ds.instances)
        tracemalloc.start()
        try:
            write_feature_file(ds, str(tmp_path / "big.fanf"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * largest + 64 * 1024, peak / largest
        assert len(load_feature_file(str(tmp_path / "big.fanf")).instances) == 100

    def test_each_video_is_checked_and_rounded_in_turn(self):
        # video 0 overflows float32 and video 1's label is out of range:
        # each video is checked and rounded before the next one, so video 0
        # is named, with no RuntimeWarning of the cast (pytest makes one an
        # error); once video 0 is finite, video 1 is named
        v0 = VideoInstance("v0", "s", 0, np.array([[1e39, 0.0]]))
        v1 = VideoInstance("v1", "s", 5, np.ones((1, 2)))
        with pytest.raises(DataError, match="^instance 'v0': feature overflows single precision$"):
            Dataset([v0, v1], 2, 2, ["a", "b"])
        with pytest.raises(SchemaError, match="'v1'"):
            Dataset([replace(v0, features=np.array([[3e38, 0.0]])), v1], 2, 2, ["a", "b"])
        with pytest.raises(DataError, match="^instance 'v0': non-finite feature value$"):
            Dataset([replace(v0, features=np.array([[1e39, np.nan]])), v1], 2, 2, ["a", "b"])

    def test_finite_rows_whose_float32_sum_overflows_load_and_score(self, tmp_path):
        ds = Dataset([VideoInstance("v0", "s", 0, np.array([[3e38, 3e38, 1.0]] * 2)),
                      VideoInstance("v1", "s", 1, np.array([[-3e38, -3e38, 0.0]]))],
                     3, 2, ["a", "b"])
        path = str(tmp_path / "big.fanf")
        write_feature_file(ds, path)
        loaded = load_feature_file(path)
        assert loaded.packed.frames.dtype == np.float32
        with np.errstate(over="ignore"):
            assert not np.all(np.isfinite(loaded.packed.frames.sum(axis=1)))
        params = init_params(3, 2, seed=1)
        assert evaluate(params, loaded).count == 2
        assert evaluate(params, loaded, indices=[1, 0]).count == 2
        assert evaluate(params, loaded, frame_mode="sampled", k=2).count == 2


class TestAtomicWrite:
    def test_failed_write_keeps_target_and_removes_temp(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with atomic_open(str(path)) as f:
                f.write(b"new")
                raise RuntimeError("interrupted")
        assert path.read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]

    def test_unrelated_tmp_file_survives(self, tmp_path):
        path = tmp_path / "model.fanp"
        bystander = tmp_path / "model.fanp.tmp"
        bystander.write_bytes(b"keep")
        save_checkpoint(init_params(3, 2), str(path))
        assert bystander.read_bytes() == b"keep"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.fanp",
                                                             "model.fanp.tmp"]

    def test_concurrent_writers_use_distinct_temps(self, tmp_path):
        path = tmp_path / "out.bin"
        with atomic_open(str(path)) as first, atomic_open(str(path)) as second:
            assert first.name != second.name
            first.write(b"first")
            second.write(b"second")
        assert path.read_bytes() == b"first"   # the outer block finishes last
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]

    def test_written_file_gets_default_permissions(self, tmp_path):
        umask = os.umask(0)
        os.umask(umask)
        path = tmp_path / "out.bin"
        with atomic_open(str(path)) as f:
            f.write(b"x")
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask
