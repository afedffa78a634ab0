"""Dataset container, feature-file formats, fold construction, synthetic data.

Canonical on-disk format ("FANF", little-endian throughout):

    magic           4 bytes  b"FANF"
    version         u32      currently 1
    feature dim D   u32
    class count C   u32
    instance count  u64
    class names     C x (u16 byte length + UTF-8 bytes)
    per instance:
        video id    u16 length + UTF-8
        subject id  u16 length + UTF-8
        label       u32          (must be < C)
        frame count u32          (must be >= 1)
        features    n*D float32, row-major

Features are stored in single precision. A loaded file keeps them in
float32 (exactly the stored values, at half the memory); a dataset built in
memory (synth_generate, load_feature_csv, user code) holds float64. Every
computation widens the frames it reads to float64, which is exact, so both
give the same results. Writing is canonical: equal datasets produce
identical bytes. The writer checks every video as packing does, then writes
each one's float32 bytes; it neither packs nor rebinds `features`. A
plain-text CSV import (one frame per line) is provided for
interoperability; the binary form is the canonical one.

In memory a checked dataset holds all of its frames once, in one packed
(sum n, D) matrix: video i's frames are rows offsets[i]:offsets[i+1], and
its `features` is a view of exactly those rows (Dataset.packed). The loader
reads each record's features straight into its rows of a float32 matrix; a
dataset built in memory is packed into a float64 matrix, and its videos
copied in, the first time it is checked (as is a loaded dataset whose
instances were replaced since).
"""

from __future__ import annotations

import contextlib
import csv
import math
import operator
import os
import struct
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, FormatError, SchemaError
from .numerics import first_nonfinite_row

_MAGIC = b"FANF"
_VERSION = 1
_FEATURES = operator.attrgetter("features")
_LABEL = operator.attrgetter("label")


@dataclass
class VideoInstance:
    """One video: identity, subject, class label, and its n x D features."""

    video_id: str
    subject_id: str
    label: int
    features: np.ndarray


@dataclass(frozen=True)
class PackedFrames:
    """Every frame of a dataset in one matrix.

    Video i's frames are rows offsets[i]:offsets[i + 1] of `frames` and its
    class is labels[i].
    """

    frames: np.ndarray   # (sum n, D): float32 when loaded, else float64
    offsets: np.ndarray  # (N + 1,) int64, offsets[0] = 0
    labels: np.ndarray   # (N,) int64

    def select(self, indices=None) -> np.ndarray:
        """Video indices as an int64 array: every video by default;
        negative ones count from the end, as list indexing does, and out of
        range ones raise IndexError."""
        everything = np.arange(len(self.labels))
        return everything if indices is None else everything[
            np.asarray(indices, dtype=np.int64)]


@dataclass
class Dataset:
    """A list of videos sharing one feature dimension and class list.

    Its frames live in one packed matrix (see `packed`). The first use
    checks every video and copies it into the matrix, then rebinds each
    instance's `features` to its view of it, so the frames are held once.
    Later uses cost O(videos) while the dataset is unchanged. Replacing the
    instance list, an instance, its `features` object or its label makes
    the next use repack and recheck, into a float64 matrix. Frames are
    checked only where they enter: training and scoring read them as they
    are. Writing into `features` in place changes the packed frames
    directly, in their dtype (a loaded dataset's are float32, so the value
    written is rounded to float32), and is not rechecked: a non-finite
    value written that way is reported by the kernel (NumericError, naming
    the dataset index) or by write_feature_file (DataError).
    Take a subset by passing indices (train, evaluate and the splits all
    do), not by building a second Dataset from some of these instances:
    two datasets that share VideoInstance objects rebind each other's
    instances when they pack, so using them in turn repacks each time.
    """

    instances: list[VideoInstance]
    dim: int
    num_classes: int
    class_names: list[str]
    _packed: PackedFrames | None = field(
        default=None, init=False, repr=False, compare=False)
    _stamp: tuple = field(default=(), init=False, repr=False, compare=False)

    def validate(self) -> None:
        """Raise SchemaError or DataError unless every video is well formed
        (see _checked_videos)."""
        self.packed()

    def packed(self) -> PackedFrames:
        """The checked packed frames, offsets and labels of every instance;
        packs (and checks) the dataset first if it has changed since."""
        if self._packed is None or not self._unchanged():
            self._pack()
        return self._packed

    def _header(self) -> tuple:
        return self.dim, self.num_classes, len(self.class_names)

    def _unchanged(self) -> bool:
        """Whether the header, the instances' features objects and their
        labels are those of the last pack: one `is` per video."""
        header, views, labels = self._stamp
        insts = self.instances
        return (header == self._header() and len(insts) == len(views)
                and all(map(operator.is_, map(_FEATURES, insts), views))
                and list(map(_LABEL, insts)) == labels)

    def _checked_videos(self) -> list[np.ndarray]:
        """Every instance's frames as an array, once the header and then each
        video in turn pass the rules: D columns, at least one frame, finite
        values and a label in range. Packing and the writer check here."""
        if self.dim < 1 or self.num_classes < 1:
            raise SchemaError("dim and num_classes must be positive")
        if len(self.class_names) != self.num_classes:
            raise SchemaError(f"expected {self.num_classes} class names, "
                              f"got {len(self.class_names)}")
        videos = []
        for inst in self.instances:
            f = np.asarray(inst.features)
            if f.ndim != 2 or f.shape[0] < 1 or f.shape[1] != self.dim:
                raise SchemaError(f"instance '{inst.video_id}': feature shape {f.shape} "
                                  f"inconsistent with dim {self.dim}")
            if first_nonfinite_row(f) is not None:
                raise DataError(f"instance '{inst.video_id}': non-finite feature value")
            if not 0 <= inst.label < self.num_classes:
                raise SchemaError(f"instance '{inst.video_id}': label {inst.label} out of range")
            videos.append(f)
        return videos

    def _pack(self) -> None:
        videos = self._checked_videos()
        offsets = np.zeros(len(videos) + 1, dtype=np.int64)
        np.cumsum([len(f) for f in videos], out=offsets[1:])
        frames = np.empty((int(offsets[-1]), self.dim))
        for f, lo, hi in zip(videos, offsets.tolist(), offsets[1:].tolist()):
            frames[lo:hi] = f
        self._adopt(frames, offsets)

    def _adopt(self, frames: np.ndarray, offsets: np.ndarray) -> None:
        """Make checked packed frames the dataset's storage: rebind every
        instance's features to its rows of `frames`."""
        for inst, lo, hi in zip(self.instances, offsets.tolist(), offsets[1:].tolist()):
            inst.features = frames[lo:hi]
        labels = [inst.label for inst in self.instances]
        self._packed = PackedFrames(frames, offsets, np.array(labels, dtype=np.int64))
        self._stamp = (self._header(),
                       tuple(inst.features for inst in self.instances), labels)

    def subjects(self) -> list[str]:
        """Distinct subject ids, sorted ascending."""
        return sorted({inst.subject_id for inst in self.instances})


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise SchemaError(f"string too long to encode: {len(raw)} bytes")
    return struct.pack("<H", len(raw)) + raw


def _check_left(f, nbytes: int, what: str, size: int) -> None:
    """Raise SchemaError unless a file of `size` bytes holds nbytes more."""
    left = size - f.tell()
    if nbytes > left:
        raise SchemaError(
            f"file truncated while reading {what}: {nbytes} bytes declared, "
            f"{left} left")


def _read_exact(f, nbytes: int, what: str, size: int) -> bytes:
    """Read nbytes of a file of `size` bytes; a size the file declares is
    checked against the bytes left before anything is allocated for it."""
    _check_left(f, nbytes, what, size)
    buf = f.read(nbytes)
    if len(buf) != nbytes:
        raise SchemaError(f"file truncated while reading {what}")
    return buf


def _read_str(f, what: str, size: int) -> str:
    (length,) = struct.unpack("<H", _read_exact(f, 2, what, size))
    try:
        return _read_exact(f, length, what, size).decode("utf-8")
    except UnicodeDecodeError as e:
        raise SchemaError(f"{what} is not UTF-8: {e}") from None


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "wb", **kwargs):
    """Open a uniquely named temporary file beside `path` for writing.

    When the block completes the file replaces `path`, so readers see the
    old content or the new, never a partial write, and concurrent writers
    never share a temporary. If the block raises, the temporary is removed
    and `path` is left as it was.
    """
    directory, name = os.path.split(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=name + ".", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, mode, **kwargs) as f:
            yield f
        # mkstemp creates the file private; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_feature_file(dataset: Dataset, path: str) -> None:
    """Serialize a dataset to the canonical binary form (deterministic bytes).
    Every video is checked first (Dataset._checked_videos), then each one is
    rounded to float32 and written on its own. The dataset is not packed:
    every instance keeps its `features` object."""
    videos = dataset._checked_videos()
    with atomic_open(path) as f:
        f.write(_MAGIC)
        f.write(struct.pack("<III", _VERSION, dataset.dim, dataset.num_classes))
        f.write(struct.pack("<Q", len(dataset.instances)))
        for name in dataset.class_names:
            f.write(_pack_str(name))
        for inst, frames in zip(dataset.instances, videos):
            feats = np.ascontiguousarray(frames, dtype="<f4")
            if first_nonfinite_row(feats) is not None:
                raise DataError(
                    f"instance '{inst.video_id}': feature overflows single precision"
                )
            f.write(_pack_str(inst.video_id))
            f.write(_pack_str(inst.subject_id))
            f.write(struct.pack("<II", inst.label, feats.shape[0]))
            f.write(feats)


def load_feature_file(path: str) -> Dataset:
    """Parse a canonical binary feature file, verifying every invariant.

    Two passes: the first reads and checks every record header, seeking
    past the features, so the packed matrix is sized only from frame counts
    whose bytes the file holds. The second reads each record's features
    straight into its rows of that matrix and checks them. The matrix is
    float32, as stored; each instance's `features` is a view of its rows.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        magic = f.read(4)
        if magic != _MAGIC:
            raise FormatError(f"bad magic bytes {magic!r}, expected {_MAGIC!r}")
        version, dim, num_classes = struct.unpack(
            "<III", _read_exact(f, 12, "header", size))
        if version != _VERSION:
            raise FormatError(f"unsupported format version {version}")
        if dim < 1 or num_classes < 1:
            raise SchemaError("header dim and class count must be positive")
        (count,) = struct.unpack("<Q", _read_exact(f, 8, "header", size))
        class_names = [_read_str(f, "class name", size) for _ in range(num_classes)]

        instances = []
        records = []   # (frame count, file position of the features)
        for _ in range(count):
            video_id = _read_str(f, "video id", size)
            subject_id = _read_str(f, "subject id", size)
            label, n = struct.unpack(
                "<II", _read_exact(f, 8, f"record '{video_id}'", size))
            if label >= num_classes:
                raise SchemaError(f"record '{video_id}': label {label} >= {num_classes}")
            if n < 1:
                raise SchemaError(f"record '{video_id}': zero frames")
            _check_left(f, 4 * n * dim, f"features of record '{video_id}'", size)
            instances.append(VideoInstance(video_id, subject_id, int(label), None))
            records.append((n, f.tell()))
            f.seek(4 * n * dim, os.SEEK_CUR)
        if f.read(1):
            raise SchemaError("trailing bytes after final record")

        offsets = np.zeros(len(records) + 1, dtype=np.int64)
        np.cumsum([n for n, _ in records], out=offsets[1:])
        frames = np.empty((int(offsets[-1]), dim), dtype="<f4")
        for inst, (n, start), lo in zip(instances, records, offsets.tolist()):
            rows = frames[lo:lo + n]
            f.seek(start)
            if f.readinto(memoryview(rows).cast("B")) != rows.nbytes:
                raise SchemaError(
                    f"file truncated while reading features of record '{inst.video_id}'")
            if first_nonfinite_row(rows) is not None:
                raise DataError(f"record '{inst.video_id}': non-finite feature value")

    ds = Dataset(instances, dim, num_classes, class_names)
    ds._adopt(frames, offsets)
    return ds


def load_feature_csv(path: str, class_names: list[str] | None = None) -> Dataset:
    """Import the plain-text interchange form.

    One frame per line: video_id, subject_id, label, frame_index, then D
    feature values. Frames of a video may appear in any order; they are
    sorted by frame_index. When class_names is omitted the class count is
    inferred from the labels present, and may not exceed the file's size in
    bytes. The file must be UTF-8.
    """
    rows: dict[str, dict] = {}
    dim = None
    try:
        with open(path, newline="", encoding="utf-8") as f:
            size = os.fstat(f.fileno()).st_size
            for lineno, parts in enumerate(csv.reader(f), start=1):
                if not parts:
                    continue
                if len(parts) < 5:
                    raise SchemaError(f"line {lineno}: expected at least 5 fields")
                video_id, subject_id = parts[0].strip(), parts[1].strip()
                try:
                    label = int(parts[2])
                    index = int(parts[3])
                    values = [float(v) for v in parts[4:]]
                except ValueError as e:
                    raise SchemaError(f"line {lineno}: {e}") from None
                if dim is None:
                    dim = len(values)
                elif len(values) != dim:
                    raise SchemaError(
                        f"line {lineno}: {len(values)} values, expected {dim}"
                    )
                rec = rows.setdefault(
                    video_id, {"subject": subject_id, "label": label, "frames": {}}
                )
                if rec["subject"] != subject_id or rec["label"] != label:
                    raise SchemaError(
                        f"line {lineno}: video '{video_id}' has inconsistent "
                        "subject or label"
                    )
                if index in rec["frames"]:
                    raise SchemaError(f"line {lineno}: duplicate frame {index}")
                rec["frames"][index] = values
    except UnicodeDecodeError as e:
        raise SchemaError(f"CSV is not UTF-8 text: {e}") from None
    except csv.Error as e:
        raise SchemaError(f"malformed CSV: {e}") from None

    if not rows:
        raise SchemaError("CSV contains no frames")

    if class_names is None:
        num_classes = max(rec["label"] for rec in rows.values()) + 1
        # one name is made per class: bound their count by the input's size
        if num_classes > size:
            raise SchemaError(f"label {num_classes - 1} implies {num_classes} classes, "
                              f"more than the file's {size} bytes")
        class_names = [f"class_{c}" for c in range(num_classes)]
    instances = [
        VideoInstance(
            video_id,
            rec["subject"],
            rec["label"],
            np.array([rec["frames"][i] for i in sorted(rec["frames"])], dtype=np.float64),
        )
        for video_id, rec in rows.items()
    ]
    ds = Dataset(instances, dim, len(class_names), list(class_names))
    ds.validate()
    return ds


@dataclass
class FoldPlan:
    """Subject-to-fold assignment for person-independent cross-validation."""

    fold_count: int
    assignment: dict[str, int]

    def subjects_in(self, fold: int) -> set[str]:
        return {s for s, f in self.assignment.items() if f == fold}


def build_folds(dataset: Dataset, fold_count: int = 10) -> FoldPlan:
    """Round-robin folds over subjects sorted ascending by id.

    The subject at sorted position p goes to fold p mod fold_count, so each
    fold takes every fold_count-th subject starting from its offset. Subject
    ids are compared lexicographically; use zero-padded ids for numeric order.
    """
    if fold_count < 2:  # one fold holds every subject out
        raise ConfigError(f"need at least 2 folds, got {fold_count}")
    subjects = dataset.subjects()
    if len(subjects) < fold_count:
        raise ConfigError(
            f"need at least {fold_count} distinct subjects, have {len(subjects)}"
        )
    return FoldPlan(fold_count, {s: p % fold_count for p, s in enumerate(subjects)})


def split_by_fold(dataset: Dataset, plan: FoldPlan, fold: int) -> tuple[list[int], list[int]]:
    """Instance indices (train, test) with the given fold's subjects held out."""
    test = [i for i, inst in enumerate(dataset.instances)
            if plan.assignment.get(inst.subject_id) == fold]
    train = [i for i, inst in enumerate(dataset.instances)
             if plan.assignment.get(inst.subject_id) != fold]
    return train, test


@dataclass
class SynthConfig:
    """Planted-peak synthetic task.

    Every frame is isotropic Gaussian noise; each video's designated peak
    frames additionally carry that class's signal direction. The class
    directions are the first num_classes coordinate axes scaled by `signal`,
    so they are exactly orthogonal and only peak frames are informative.
    Mean pooling dilutes the planted signal by the frame count, while
    correct attention recovers it, which is what makes attention quality
    measurable on this task.
    """

    videos_per_class: int = 200
    frames_min: int = 8
    frames_max: int = 16
    dim: int = 16
    num_classes: int = 4
    peak_frames: int = 1
    signal: float = 8.0
    noise: float = 1.0
    seed: int = 7
    subject_count: int = 30
    terminal_peak: bool = False

    def validate(self) -> None:
        if min(self.videos_per_class, self.frames_min, self.frames_max,
               self.dim, self.num_classes, self.peak_frames, self.subject_count) < 1:
            raise ConfigError("all synthetic counts must be positive")
        if self.frames_max < self.frames_min:
            raise ConfigError("frames_max must be >= frames_min")
        if self.peak_frames > self.frames_min:
            raise ConfigError("peak_frames cannot exceed frames_min")
        for name, value in (("signal", self.signal), ("noise", self.noise)):
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.signal < 0 or self.noise < 0:
            raise ConfigError("signal and noise magnitudes cannot be negative")
        if self.num_classes > self.dim:
            raise ConfigError(
                f"need num_classes <= dim for orthogonal class directions "
                f"({self.num_classes} > {self.dim})"
            )


def _synth_videos(config: SynthConfig):
    """Deterministic generator of (instance, peak positions) pairs."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    index = 0
    for label in range(config.num_classes):
        for _ in range(config.videos_per_class):
            n = int(rng.integers(config.frames_min, config.frames_max + 1))
            feats = config.noise * rng.standard_normal((n, config.dim))
            if config.terminal_peak:
                peaks = list(range(n - config.peak_frames, n))
            else:
                peaks = sorted(
                    int(p) for p in rng.choice(n, size=config.peak_frames, replace=False)
                )
            feats[peaks, label] += config.signal
            # quantize to storage precision so file round-trips are lossless
            feats = feats.astype(np.float32).astype(np.float64)
            inst = VideoInstance(
                video_id=f"c{label}v{index:05d}",
                subject_id=f"s{index % config.subject_count:03d}",
                label=label,
                features=feats,
            )
            yield inst, peaks
            index += 1


def synth_generate(config: SynthConfig) -> Dataset:
    """Generate the planted-peak dataset for the given configuration.

    Each video goes into the packed matrix as soon as it is drawn, so the
    frames are never held twice. The matrix is sized for videos of
    frames_max frames, then shrunk in place to the frames drawn.
    """
    config.validate()
    count = config.num_classes * config.videos_per_class
    frames = np.empty((count * config.frames_max, config.dim))
    offsets = np.zeros(count + 1, dtype=np.int64)
    instances = []
    for i, (inst, _) in enumerate(_synth_videos(config)):
        if first_nonfinite_row(inst.features) is not None:
            raise DataError(f"instance '{inst.video_id}': non-finite feature value")
        offsets[i + 1] = offsets[i] + len(inst.features)
        frames[offsets[i]:offsets[i + 1]] = inst.features
        inst.features = None
        instances.append(inst)
    # no view of the matrix exists yet, so nothing can see it move
    frames.resize((int(offsets[-1]), config.dim), refcheck=False)
    ds = Dataset(instances, config.dim, config.num_classes,
                 [f"class_{c}" for c in range(config.num_classes)])
    ds._adopt(frames, offsets)
    return ds


def synth_peak_positions(config: SynthConfig) -> dict[str, list[int]]:
    """Ground-truth peak frame positions, keyed by video id.

    Replays the same deterministic generation as synth_generate, so it is
    consistent with any dataset produced from an equal config.
    """
    return {inst.video_id: peaks for inst, peaks in _synth_videos(config)}
