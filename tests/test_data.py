import struct

import numpy as np
import pytest

from frameattn.data import (
    Dataset,
    SynthConfig,
    VideoInstance,
    build_folds,
    load_feature_csv,
    load_feature_file,
    split_by_fold,
    synth_generate,
    synth_peak_positions,
    write_feature_file,
)
from frameattn.cli import EXIT_DATA, main
from frameattn.errors import ConfigError, DataError, FormatError, SchemaError
from frameattn.model import init_params
from frameattn.training import save_checkpoint


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
        ds = tiny_dataset()
        path = str(tmp_path / "t.fanf")
        write_feature_file(ds, path)
        back = load_feature_file(path)
        assert back.dim == ds.dim and back.num_classes == ds.num_classes
        assert back.class_names == ds.class_names
        assert len(back.instances) == len(ds.instances)
        for a, b in zip(ds.instances, back.instances):
            assert (a.video_id, a.subject_id, a.label) == (b.video_id, b.subject_id, b.label)
            np.testing.assert_array_equal(a.features, b.features)

    def test_write_deterministic(self, tmp_path):
        ds = tiny_dataset()
        p1, p2 = str(tmp_path / "a.fanf"), str(tmp_path / "b.fanf")
        write_feature_file(ds, p1)
        write_feature_file(ds, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_empty_dataset_header_only(self, tmp_path):
        ds = Dataset([], 4, 2, ["a", "b"])
        path = str(tmp_path / "empty.fanf")
        write_feature_file(ds, path)
        back = load_feature_file(path)
        assert back.instances == []
        assert back.dim == 4 and back.class_names == ["a", "b"]

    def test_exact_byte_length(self, tmp_path):
        # header 4+12+8 + names (2+1)*2, record (2+2)+(2+2)+4+4 + 4*1*2 = 54
        ds = Dataset([VideoInstance("v0", "s0", 1, np.ones((1, 2)))],
                     2, 2, ["a", "b"])
        path = str(tmp_path / "one.fanf")
        write_feature_file(ds, path)
        assert len(open(path, "rb").read()) == 54

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.fanf")
        write_feature_file(tiny_dataset(), path)
        raw = bytearray(open(path, "rb").read())
        raw[:4] = b"NOPE"
        open(path, "wb").write(bytes(raw))
        with pytest.raises(FormatError):
            load_feature_file(path)

    def test_bad_version(self, tmp_path):
        path = str(tmp_path / "bad.fanf")
        write_feature_file(tiny_dataset(), path)
        raw = bytearray(open(path, "rb").read())
        raw[4:8] = struct.pack("<I", 99)
        open(path, "wb").write(bytes(raw))
        with pytest.raises(FormatError):
            load_feature_file(path)

    def test_truncated_file(self, tmp_path):
        path = str(tmp_path / "trunc.fanf")
        write_feature_file(tiny_dataset(), path)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-5])
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
        open(path, "wb").write(b"".join(parts))
        with pytest.raises(DataError, match="vbad"):
            load_feature_file(path)

    def test_label_out_of_range(self, tmp_path):
        parts = [b"FANF", struct.pack("<III", 1, 2, 2), struct.pack("<Q", 1),
                 struct.pack("<H", 1), b"a", struct.pack("<H", 1), b"b",
                 struct.pack("<H", 2), b"v0", struct.pack("<H", 2), b"s0",
                 struct.pack("<II", 5, 1),
                 np.array([1.0, 2.0], "<f4").tobytes()]
        path = str(tmp_path / "lbl.fanf")
        open(path, "wb").write(b"".join(parts))
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
        open(path, "wb").write(b"".join(parts))
        assert len(open(path, "rb").read()) == 41
        with pytest.raises(SchemaError):
            load_feature_file(path)

        ckpt = str(tmp_path / "head.fanp")
        save_checkpoint(init_params(2, 1, seed=0), ckpt)
        assert main(["eval", "--checkpoint", ckpt, "--data", path]) == EXIT_DATA

    def test_writer_rejects_nan(self, tmp_path):
        ds = Dataset([VideoInstance("v0", "s0", 0, np.array([[np.nan, 1.0]]))],
                     2, 1, ["x"])
        with pytest.raises(DataError):
            write_feature_file(ds, str(tmp_path / "no.fanf"))


class TestCsvImport:
    def test_import_matches_binary(self, tmp_path):
        ds = tiny_dataset()
        lines = []
        for inst in ds.instances:
            for i, row in enumerate(inst.features):
                vals = ",".join(repr(float(v)) for v in row)
                lines.append(f"{inst.video_id},{inst.subject_id},{inst.label},{i},{vals}")
        path = tmp_path / "t.csv"
        path.write_text("\n".join(lines) + "\n")
        back = load_feature_csv(str(path), class_names=ds.class_names)
        assert back.dim == ds.dim and back.num_classes == 3
        by_id = {i.video_id: i for i in back.instances}
        for inst in ds.instances:
            got = by_id[inst.video_id]
            assert got.subject_id == inst.subject_id and got.label == inst.label
            np.testing.assert_array_equal(got.features, inst.features)

    def test_inferred_classes(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("v0,s0,2,0,1.0,2.0\n")
        ds = load_feature_csv(str(path))
        assert ds.num_classes == 3 and ds.class_names == ["class_0", "class_1", "class_2"]

    def test_inconsistent_video_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("v0,s0,1,0,1.0\nv0,s1,1,1,2.0\n")
        with pytest.raises(SchemaError):
            load_feature_csv(str(path))

    def test_dim_mismatch_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("v0,s0,0,0,1.0,2.0\nv1,s0,0,0,1.0\n")
        with pytest.raises(SchemaError):
            load_feature_csv(str(path))


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


class TestSynth:
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

    def test_subjects_support_folds(self):
        ds = synth_generate(SynthConfig(videos_per_class=10, seed=2))
        assert len(ds.subjects()) >= 10
        build_folds(ds, 10)


class TestDatasetValidation:
    def test_label_out_of_range(self):
        ds = Dataset([VideoInstance("v", "s", 5, np.ones((1, 2)))], 2, 3, list("abc"))
        with pytest.raises(SchemaError):
            ds.validate()

    def test_dim_mismatch(self):
        ds = Dataset([VideoInstance("v", "s", 0, np.ones((1, 4)))], 2, 1, ["a"])
        with pytest.raises(SchemaError):
            ds.validate()

    def test_nonfinite(self):
        ds = Dataset([VideoInstance("v", "s", 0, np.array([[np.inf, 0.0]]))],
                     2, 1, ["a"])
        with pytest.raises(DataError):
            ds.validate()
