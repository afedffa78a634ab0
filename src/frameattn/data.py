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

Features are stored in single precision. A dataset packs its frames into
float32 when every video is float32 (a loaded file, synth_generate) and
into float64 otherwise (load_feature_csv, most user code). Every
computation widens the frames it reads to float64, which is exact, so both
give the same results. Writing is canonical: equal datasets produce
identical bytes. The writer checks every video as packing does, then
writes each one's float32 bytes; it neither packs nor rebinds `features`.
A plain-text CSV import (one frame per line) is provided for
interoperability; the binary form is the canonical one. Every video
passes one rule, _checked_video (numerics.real_array frames, an integer
label: SchemaError or DataError naming the instance); SynthConfig and
build_folds raise ConfigError naming the field. Every size a file
declares is read through one bounded reader, _read_exact. FANF and FANP
(training) share one header writer and reader, _write_header and
_read_header, which checks the magic and version (FormatError).

In memory a checked dataset holds all of its frames once, in one packed
(sum n, D) matrix: video i's frames are rows offsets[i]:offsets[i+1], and
its `features` is a view of exactly those rows (Dataset.packed). The loader
reads each record's features straight into its rows of a float32 matrix
and checks them there; any other dataset is packed, its videos copied in,
the first time it is checked (as is a loaded one whose instances were
replaced since); both lay it out through _empty_pack. Other modules
select videos with PackedFrames.select, gather their frames with .lengths
and .stack (the one gather) and read the selection's classes from
.labels; the scoring walk also takes the width D of .frames. None of them
reads the offsets or indexes .frames itself.
"""

from __future__ import annotations

import contextlib
import csv
import os
import struct
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, FormatError, SchemaError
from .numerics import _shown, first_nonfinite_row, real_array, require_integer, require_real

_MAGIC = b"FANF"
_VERSION = 1


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

    frames: np.ndarray   # (sum n, D): float32 if every video is, else float64
    offsets: np.ndarray  # (N + 1,) int64, offsets[0] = 0
    labels: np.ndarray   # (N,) int64

    def select(self, indices=None) -> np.ndarray:
        """Video indices as an int64 array: every video by default;
        negative ones count from the end, as list indexing does. Indices
        that are not integers (floats, text, bools) or are outside [-N, N)
        for N videos (a uint64 index too), and a selection that is not
        one-dimensional (a nested list, a 0-d or 2-d array), raise IndexError."""
        n = len(self.labels)
        everything = np.arange(n)
        picked = everything if indices is None else np.asarray(indices)
        if picked.ndim != 1:
            raise IndexError(f"indices must be one-dimensional, got shape {picked.shape}")
        if picked.size and picked.dtype.kind not in "iu":
            raise IndexError(f"indices must be integers, got {picked.dtype} values")
        # bounded before indexing, which would wrap a uint64 index modulo 2**64
        if picked.size and not -n <= picked.min() <= picked.max() < n:
            raise IndexError(f"indices {picked.min()}..{picked.max()} out of bounds: {n} videos")
        # an empty list makes a float64 array, which numpy does not index with
        return everything[picked] if picked.size else everything[:0]

    def lengths(self, videos: np.ndarray) -> np.ndarray:
        """The frame counts of the videos at dataset indices `videos`."""
        return self.offsets[videos + 1] - self.offsets[videos]

    def stack(self, videos: np.ndarray, picks) -> np.ndarray:
        """The (B, K, D) float64 stack whose row b holds frames picks[b]
        (positions within the video) of video videos[b]; (K,) picks take
        the same positions of every video. Widened after the gather."""
        return self.frames[self.offsets[videos, None] + picks].astype(np.float64, copy=False)


@dataclass
class Dataset:
    """A list of videos sharing one feature dimension and class list.

    Its frames live in one packed matrix (see `packed`). The first use
    checks every video and copies it into the matrix, then rebinds each
    instance's `features` to its view of it, so the frames are held once.
    Later uses cost one `is` and one label comparison a video
    (_unchanged) while the dataset is unchanged. Replacing the
    instance list, an instance, its `features` object or its label makes
    the next use repack and recheck (into float32 if every video is
    float32, else float64). Frames are checked only where they enter:
    training and scoring read them as they are. Writing into `features` in
    place changes the packed frames directly, in their dtype (rounded to
    float32 in a float32 matrix), and is not rechecked: a non-finite value
    written that way is reported by the kernel (NumericError, naming the
    dataset index) or by write_feature_file (DataError).
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
        (see _checked_videos): packed(), its result dropped."""
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
                and all(inst.features is view for inst, view in zip(insts, views))
                and [inst.label for inst in insts] == labels)

    def _checked_videos(self) -> list[np.ndarray]:
        """Every instance's frames as an array, once the header and then each
        video in turn pass the rules (_checked_video)."""
        require_integer("dim", self.dim, 1, SchemaError)
        require_integer("num_classes", self.num_classes, 1, SchemaError)
        if len(self.class_names) != self.num_classes:
            raise SchemaError(f"expected {self.num_classes} class names, "
                              f"got {len(self.class_names)}")
        return [_checked_video(inst, self.dim, self.num_classes) for inst in self.instances]

    def _pack(self) -> None:
        videos = self._checked_videos()
        dtype = np.float32 if all(f.dtype == np.float32 for f in videos) else np.float64
        frames, offsets, rows = _empty_pack([len(f) for f in videos], self.dim, dtype)
        for row, f in zip(rows, videos):
            row[...] = f
        self._adopt(frames, offsets, rows)

    def _adopt(self, frames: np.ndarray, offsets: np.ndarray, rows) -> None:
        """Make checked packed frames the dataset's storage: rebind every
        instance's features to its rows of `frames`."""
        for inst, row in zip(self.instances, rows):
            inst.features = row
        labels = [inst.label for inst in self.instances]
        self._packed = PackedFrames(frames, offsets, np.array(labels, dtype=np.int64))
        self._stamp = (self._header(),
                       tuple(inst.features for inst in self.instances), labels)

    def subjects(self) -> list[str]:
        """Distinct subject ids, sorted ascending."""
        return sorted({inst.subject_id for inst in self.instances})


def _empty_pack(counts, dim: int, dtype):
    """An uninitialized packed matrix for videos of `counts` frames: the
    (sum n, dim) frames, their (N + 1,) offsets and each video's rows."""
    offsets = np.cumsum([0] + counts, dtype=np.int64)
    frames = np.empty((int(offsets[-1]), dim), dtype)
    # slices at Python ints: np.split(frames, offsets[1:-1]) takes 3-4x as
    # long (385 videos: 100 against 397 us on a 2-core x86-64 host)
    bounds = offsets.tolist()
    return frames, offsets, [frames[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _checked_video(inst: VideoInstance, dim: int, num_classes: int) -> np.ndarray:
    """inst's frames as an array, once they pass the rules every video meets
    (packing, the writer and the loader check here): real numbers in `dim`
    columns, at least one frame, all finite, and an integer label < C."""
    f = real_array(inst.features, f"instance '{inst.video_id}': features", SchemaError)
    if f.ndim != 2 or f.shape[0] < 1 or f.shape[1] != dim:
        raise SchemaError(f"instance '{inst.video_id}': feature shape {f.shape} "
                          f"inconsistent with dim {dim}")
    if first_nonfinite_row(f) is not None:
        raise DataError(f"instance '{inst.video_id}': non-finite feature value")
    require_integer(f"instance '{inst.video_id}': label", inst.label, error=SchemaError)
    if not 0 <= inst.label < num_classes:
        raise SchemaError(f"instance '{inst.video_id}': label {_shown(inst.label, str)} "
                          "out of range")
    return f


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise SchemaError(f"string too long to encode: {len(raw)} bytes")
    return struct.pack("<H", len(raw)) + raw


def _write_header(f, magic: bytes, fmt: str, *fields) -> None:
    """Write a binary file's magic bytes, then its fixed header fields (the
    version first) packed as the struct format `fmt`."""
    f.write(magic + struct.pack(fmt, *fields))


def _read_header(f, magic: bytes, version: int, fmt: str, kind: str, what: str):
    """Read the start of a header _write_header wrote: FormatError, naming
    `kind`, unless the file starts with `magic` and the first of the `fmt`
    fields is `version`. Returns the file's size and the other `fmt` fields."""
    size = os.fstat(f.fileno()).st_size
    got = f.read(len(magic))
    if got != magic:
        raise FormatError(f"bad magic bytes {got!r}, expected {magic!r}")
    fields = struct.unpack(fmt, _read_exact(f, struct.calcsize(fmt), what, size))
    if fields[0] != version:
        raise FormatError(f"unsupported {kind} version {fields[0]}")
    return size, fields[1:]


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
        _write_header(f, _MAGIC, "<IIIQ", _VERSION, dataset.dim, dataset.num_classes,
                      len(dataset.instances))
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
    straight into its rows of that float32 matrix, as stored, and checks the
    video as packing does; each instance's `features` is a view of its rows.
    """
    with open(path, "rb") as f:
        # the count, the header's last field, is read once dim and C pass
        size, (dim, num_classes) = _read_header(f, _MAGIC, _VERSION, "<III", "format", "header")
        if dim < 1 or num_classes < 1:
            raise SchemaError("header dim and class count must be positive")
        (count,) = struct.unpack("<Q", _read_exact(f, 8, "header", size))
        class_names = [_read_str(f, "class name", size) for _ in range(num_classes)]

        records = []   # (video id, subject id, label, frame count, file position)
        for _ in range(count):
            video_id = _read_str(f, "video id", size)
            subject_id = _read_str(f, "subject id", size)
            label, n = struct.unpack(
                "<II", _read_exact(f, 8, f"record '{video_id}'", size))
            _check_left(f, 4 * n * dim, f"features of record '{video_id}'", size)
            records.append((video_id, subject_id, label, n, f.tell()))
            f.seek(4 * n * dim, os.SEEK_CUR)
        if f.read(1):
            raise SchemaError("trailing bytes after final record")

        frames, offsets, rows = _empty_pack([n for _, _, _, n, _ in records], dim, "<f4")
        instances = []
        for (video_id, subject_id, label, _, start), row in zip(records, rows):
            inst = VideoInstance(video_id, subject_id, label, row)
            f.seek(start)
            if f.readinto(row) != row.nbytes:
                raise SchemaError(
                    f"file truncated while reading features of record '{video_id}'")
            _checked_video(inst, dim, num_classes)
            instances.append(inst)

    ds = Dataset(instances, dim, num_classes, class_names)
    ds._adopt(frames, offsets, rows)
    return ds


def load_feature_csv(path: str, class_names: list[str] | None = None) -> Dataset:
    """Import the plain-text interchange form.

    One frame per line: video_id, subject_id, label, frame_index, then D
    feature values. Frames of a video may appear in any order; they are
    sorted by frame_index. When class_names is omitted the class count is
    inferred from the labels present, and may not exceed the number of
    fields read. The file must be UTF-8.
    """
    rows: dict[str, dict] = {}
    dim = None
    fields = 0
    try:
        with open(path, newline="", encoding="utf-8") as f:
            for lineno, parts in enumerate(csv.reader(f), start=1):
                if not parts:
                    continue
                if len(parts) < 5:
                    raise SchemaError(f"line {lineno}: expected at least 5 fields")
                fields += len(parts)
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
        # one name is made per class: bound their count by the fields read
        if num_classes > fields:
            raise SchemaError(f"label {num_classes - 1} implies {num_classes} classes, "
                              f"more than the {fields} fields read; pass class_names")
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
    ds.packed()
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
    require_integer("fold_count", fold_count, 2)  # one fold holds every subject out
    subjects = dataset.subjects()
    if len(subjects) < fold_count:
        raise ConfigError(
            f"need at least {_shown(fold_count, str)} distinct subjects, have {len(subjects)}"
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
        for name in ("videos_per_class", "frames_min", "frames_max", "dim", "num_classes",
                     "peak_frames", "subject_count"):
            require_integer(name, getattr(self, name), 1)
        require_integer("seed", self.seed, 0)
        require_real("signal", self.signal, 0)
        require_real("noise", self.noise, 0)
        if not isinstance(self.terminal_peak, (bool, np.bool_)):
            raise ConfigError(f"terminal_peak must be a bool, got {_shown(self.terminal_peak)}")
        if self.frames_max < self.frames_min:
            raise ConfigError("frames_max must be >= frames_min")
        if self.peak_frames > self.frames_min:
            raise ConfigError("peak_frames cannot exceed frames_min")
        if self.num_classes > self.dim:
            raise ConfigError(
                f"need num_classes <= dim for orthogonal class directions "
                f"({_shown(self.num_classes, str)} > {_shown(self.dim, str)})"
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
            feats = feats.astype(np.float32)
            inst = VideoInstance(
                video_id=f"c{label}v{index:05d}",
                subject_id=f"s{index % config.subject_count:03d}",
                label=label,
                features=feats,
            )
            yield inst, peaks
            index += 1


def synth_generate(config: SynthConfig) -> Dataset:
    """Generate the planted-peak dataset for the given configuration. Its
    videos are float32, the values a file stores, so it packs into float32."""
    ds = Dataset([inst for inst, _ in _synth_videos(config)], config.dim,
                 config.num_classes, [f"class_{c}" for c in range(config.num_classes)])
    ds.packed()
    return ds


def synth_peak_positions(config: SynthConfig) -> dict[str, list[int]]:
    """Ground-truth peak frame positions, keyed by video id.

    Replays the same deterministic generation as synth_generate, so it is
    consistent with any dataset produced from an equal config.
    """
    return {inst.video_id: peaks for inst, peaks in _synth_videos(config)}
