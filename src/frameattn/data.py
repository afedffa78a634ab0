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
into float64 otherwise (videos built from a user's float64 arrays). Every
computation widens the frames it reads to float64, which is exact, so both
give the same results. Writing is canonical: equal datasets produce
identical bytes. The writer checks every video as packing does, keeping
none, then takes each again and writes its float32 bytes, so it holds one
video at a time; it neither packs nor rebinds `features`.
FANF is the one input format: frames from elsewhere enter as
VideoInstances in a Dataset, which write_feature_file stores. Every video
passes one rule, _checked_video (numerics.real_array frames, an integer
label: SchemaError or DataError naming the instance); SynthConfig and
build_folds raise ConfigError naming the field. Every size a file
declares is read through one bounded reader, _read_exact. FANF and FANP
(training) share one header writer and reader, _write_header and
_read_header, which checks the magic and version (FormatError).

FANF has one reader. Opening a file (open_feature_file) is one record
scan (_scan_records), which checks every record header and gives each
instance a StoredFrames handle of its record, read through one
descriptor the dataset holds; loading (load_feature_file) is opening,
then one read per record (StoredFrames.read_into) into its rows of the
packed matrix, each video checked there.

In memory a checked dataset holds all of its frames once, in one packed
(sum n, D) matrix: video i's frames are rows offsets[i]:offsets[i+1], and
its `features` is a view of exactly those rows (Dataset.packed). A loaded
file's matrix is float32, filled as above; any other dataset is packed,
its videos copied in, the first time it is checked (as is a loaded one
whose instances were replaced since); both lay it out through
_empty_pack. An opened dataset leaves its frames in the file: its packed
frames read a stack's videos through its descriptor, checking each
video's frames as they are read. Other modules select videos with
PackedFrames.select, gather their frames with .lengths and .stack (the one
gather) and read the selection's classes from .labels; training and
scoring also take the width .dim and .num_classes. None of them reads the
offsets or .frames. A stack is gathered into a float64 buffer its caller
owns, when it passes one (`out`): training.fit owns one for its whole run
and each scoring walk (model.equal_length_stacks) one for the walk, and
each gathers stack after stack into it, so no head may keep a stack past
its call. Without `out`, as minibatches' other callers have it, every
stack is a new array.
"""

from __future__ import annotations

import collections
import contextlib
import os
import struct
import tempfile
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, FormatError, SchemaError
from .numerics import (COUNT_MAX, _shown, first_nonfinite_row, real_array, require_integer,
                       require_real)

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
    class is labels[i], one of the num_classes classes its labels were
    checked against; every frame has `dim` values. An opened dataset's
    packed frames (_FilePackedFrames) hold no matrix: they read each
    video's frames from its file when a stack takes them, and check them
    then.
    """

    frames: np.ndarray | None  # (sum n, D): float32 if every video is, else float64;
                               # None for an opened file (_FilePackedFrames)
    offsets: np.ndarray  # (N + 1,) int64, offsets[0] = 0
    labels: np.ndarray   # (N,) int64
    num_classes: int
    dim: int

    def select(self, indices=None, what: str = "selection") -> np.ndarray:
        """Video indices as an int64 array: every video by default;
        negative ones count from the end, as list indexing does. A ragged
        selection (such as [[0], [1, 2]] or [0, [1]]) and one that is not
        one-dimensional (a nested list, a 0-d or 2-d array) raise
        IndexError; then an empty one, the default of a dataset without
        videos too, raises ConfigError("{what} is empty"), `what` naming
        the split; then indices that are not integers (floats, text, bools)
        or are outside [-N, N) for N videos (a uint64 index too) raise
        IndexError."""
        n = len(self.labels)
        everything = np.arange(n)
        try:
            picked = everything if indices is None else np.asarray(indices)
        except (ValueError, TypeError):
            raise IndexError("indices must be flat, got a ragged selection") from None
        if picked.ndim != 1:
            raise IndexError(f"indices must be one-dimensional, got shape {picked.shape}")
        if not picked.size:
            raise ConfigError(f"{what} is empty")
        if picked.dtype.kind not in "iu":
            raise IndexError(f"indices must be integers, got {picked.dtype} values")
        # bounded before indexing, which would wrap a uint64 index modulo 2**64
        if not -n <= picked.min() <= picked.max() < n:
            raise IndexError(f"indices {picked.min()}..{picked.max()} out of bounds: {n} videos")
        return everything[picked]

    def lengths(self, videos: np.ndarray) -> np.ndarray:
        """The frame counts of the videos at dataset indices `videos`."""
        return self.offsets[videos + 1] - self.offsets[videos]

    def stack(self, videos: np.ndarray, picks, out: np.ndarray | None = None) -> np.ndarray:
        """The (B, K, D) float64 stack whose row b holds frames picks[b]
        (positions within the video) of video videos[b]; (K,) picks take
        the same positions of every video, and picks None every frame of
        videos of one length K. Widened after the gather: into `out`, a
        float64 array of that shape, which is returned, or else into a new
        array. The caller that passes `out` owns it, and the next stack it
        gathers there overwrites this one (training.fit and the scoring
        walk, model.equal_length_stacks, each own one)."""
        if picks is None:
            picks = np.arange(self.lengths(videos[:1])[0])
        gathered = self.frames[self.offsets[videos, None] + picks]
        if out is None:
            return gathered.astype(np.float64, copy=False)
        out[...] = gathered
        return out


@dataclass(frozen=True)
class _FilePackedFrames(PackedFrames):
    """The packed frames of an opened dataset: `videos` holds each video's
    StoredFrames, read when a stack takes the video; `frames` is None;
    `longest` is the frame count of the file's longest video."""

    videos: tuple
    longest: int

    def stack(self, videos: np.ndarray, picks, out: np.ndarray | None = None) -> np.ndarray:
        """As PackedFrames.stack, reading each video whole, one at a time,
        into one float32 read buffer that holds the file's longest video,
        and checking it there (_checked_video) before its picked frames are
        taken (all of them, with picks None, as they are: no copy of them
        is made): SchemaError if the file has lost its bytes, DataError if
        one is not finite."""
        every = picks is None
        if every:
            picks = np.arange(self.lengths(videos[:1])[0])
        picks = np.broadcast_to(picks, (len(videos), np.shape(picks)[-1]))
        if out is None:
            out = np.empty((len(videos), picks.shape[1], self.dim))
        # one read buffer of one size for every stack, and no copy of a
        # video's frames when the stack takes all of them: such copies grow
        # along the scoring walk's ascending lengths, and with them the
        # first all-frame score of the AFEW-shaped benchmark file in a
        # process took 10,952 minor faults, against 367 without them and
        # 885 reading an array per video (2-core x86-64 host)
        read = np.empty((self.longest, self.dim), StoredFrames.dtype)
        for row, v, frame_ids in zip(out, videos.tolist(), picks):
            stored = self.videos[v]
            frames = _checked_video(stored.video_id, stored.read_into(read[:stored.shape[0]]),
                                    self.labels[v], self.dim, self.num_classes)
            row[...] = frames if every else frames[frame_ids]
        return out


class _OpenFile:
    """A descriptor of an opened feature file, closed once nothing refers
    to it (the dataset, its instances' StoredFrames and its packed frames
    all do), or by close(), which a failing load calls. It closes once."""

    def __init__(self, fd: int):
        self.fd = fd
        self.close = weakref.finalize(self, os.close, fd)


class StoredFrames:
    """One video's (n, D) float32 frames, left where an opened feature file
    holds them (open_feature_file). `shape` and `dtype` are known without
    reading anything; np.asarray (or read_into) reads the frames, unchecked,
    and raises SchemaError naming the record if the file no longer holds
    them all."""

    dtype = np.dtype("<f4")

    def __init__(self, file: _OpenFile, video_id: str, start: int, shape: tuple):
        self._file, self.video_id, self._start, self.shape = file, video_id, start, shape

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        frames = self.read_into(np.empty(self.shape, self.dtype))
        return frames if dtype is None else frames.astype(dtype, copy=False)

    def read_into(self, out: np.ndarray) -> np.ndarray:
        """Fill `out`, a C-contiguous array of `shape` and `dtype`, with the
        record's stored bytes, and return it."""
        view, start = memoryview(out).cast("B"), self._start
        while view:
            got = os.preadv(self._file.fd, [view], start)
            if not got:  # the file has shrunk since it was scanned
                raise SchemaError(
                    f"file truncated while reading features of record '{self.video_id}'")
            view, start = view[got:], start + got
        return out


@dataclass
class Dataset:
    """A list of videos sharing one feature dimension and class list.

    Its frames live in one packed matrix (see `packed`), or, for a dataset
    opened with open_feature_file, stay in the file until a stack reads
    them. The first use checks every video and copies it into the matrix,
    then rebinds each instance's `features` to its view of it, so the
    frames are held once. Later uses cost one `is` and one label
    comparison a video (_unchanged) while the dataset is unchanged.
    Replacing the instance list, an instance, its `features` object or its
    label makes the next use repack and recheck (into float32 if every
    video is float32, else float64; an opened dataset reads every video
    from its file to repack). Frames are checked only where they enter:
    training and scoring read them as they are. An opened dataset's
    frames enter whenever a stack reads them, so each video's frames are
    checked then, every time they are read; its record fields were
    checked when it was opened. Writing into `features` in
    place changes the packed frames directly, in their dtype (rounded to
    float32 in a float32 matrix), and is not rechecked: a non-finite value
    written that way is reported by the kernel (NumericError, naming the
    dataset index) or by write_feature_file (DataError).
    Each public call that trains or scores (training.train, the
    score-fusion baseline, evaluation.evaluate, export_attention) resolves
    the dataset once, when it starts, and works on the packed frames it
    took then (model.score takes those, not the dataset), so a change made
    during a run, to its training or its validation, applies at the next
    run.
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
        (see _checked_videos): packed(), its result dropped. An opened
        dataset's frames are checked when they are read, not here."""
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

    def _checked_videos(self):
        """Check the header now, and return an iterator of every instance's
        frames as an array, each yielded once it passes the rules
        (_checked_video), in instance order."""
        require_integer("dim", self.dim, 1, SchemaError)
        require_integer("num_classes", self.num_classes, 1, SchemaError)
        if len(self.class_names) != self.num_classes:
            raise SchemaError(f"expected {self.num_classes} class names, "
                              f"got {len(self.class_names)}")
        return (_checked_video(inst.video_id, inst.features, inst.label, self.dim,
                               self.num_classes) for inst in self.instances)

    def _pack(self) -> None:
        videos = list(self._checked_videos())
        dtype = np.float32 if all(f.dtype == np.float32 for f in videos) else np.float64
        frames, offsets, rows = _empty_pack([len(f) for f in videos], self.dim, dtype)
        for inst, row, f in zip(self.instances, rows, videos):
            row[...] = f
            inst.features = row
        self._adopt(PackedFrames, frames, offsets)

    def _adopt(self, kind, frames, offsets: np.ndarray, *more) -> None:
        """Make checked frames the dataset's storage: packed frames of `kind`
        (PackedFrames, or _FilePackedFrames and its `more` fields for an
        opened file), each instance's features being its video of them."""
        labels = [inst.label for inst in self.instances]
        self._packed = kind(frames, offsets, np.array(labels, np.int64), self.num_classes,
                            self.dim, *more)
        self._stamp = (self._header(), tuple(inst.features for inst in self.instances), labels)

    def subjects(self) -> list[str]:
        """Distinct subject ids, sorted ascending."""
        return sorted({inst.subject_id for inst in self.instances})


def _offsets(counts) -> np.ndarray:
    """The (N + 1,) int64 offsets of videos of `counts` frames packed in turn."""
    return np.cumsum([0] + counts, dtype=np.int64)


def _empty_pack(counts, dim: int, dtype):
    """An uninitialized packed matrix for videos of `counts` frames: the
    (sum n, dim) frames, their (N + 1,) offsets and each video's rows."""
    offsets = _offsets(counts)
    frames = np.empty((int(offsets[-1]), dim), dtype)
    # slices at Python ints: np.split(frames, offsets[1:-1]) takes 3-4x as
    # long (385 videos: 100 against 397 us on a 2-core x86-64 host)
    bounds = offsets.tolist()
    return frames, offsets, [frames[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _checked_video(video_id: str, frames, label, dim: int, num_classes: int) -> np.ndarray:
    """A video's frames as an array, once they pass the rules every video
    meets (packing, the writer, the loader and an opened dataset's stacks
    check here): real numbers, the fields a record header holds
    (_check_fields), then every value finite."""
    f = real_array(frames, f"instance '{video_id}': features", SchemaError)
    _check_fields(video_id, f.shape, label, dim, num_classes)
    if first_nonfinite_row(f) is not None:
        raise DataError(f"instance '{video_id}': non-finite feature value")
    return f


def _check_fields(video_id: str, shape: tuple, label, dim: int, num_classes: int) -> None:
    """Raise SchemaError naming the video unless its frames' shape is (n, dim)
    with n >= 1 and its label an integer < num_classes: the rules on what a
    FANF record header holds, which the record scan checks before any
    frame is read."""
    if len(shape) != 2 or shape[0] < 1 or shape[1] != dim:
        raise SchemaError(f"instance '{video_id}': feature shape {shape} "
                          f"inconsistent with dim {dim}")
    require_integer(f"instance '{video_id}': label", label, error=SchemaError)
    if not 0 <= label < num_classes:
        raise SchemaError(f"instance '{video_id}': label {_shown(label, str)} out of range")


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
    Every video is checked first (Dataset._checked_videos), and none is
    kept; then each one is taken again (an opened dataset's read from its
    file again), rounded to float32 and written on its own, so writing holds
    one video at a time. The dataset is not packed: every instance keeps
    its `features` object."""
    collections.deque(dataset._checked_videos(), maxlen=0)  # keeps no video
    with atomic_open(path) as f:
        _write_header(f, _MAGIC, "<IIIQ", _VERSION, dataset.dim, dataset.num_classes,
                      len(dataset.instances))
        for name in dataset.class_names:
            f.write(_pack_str(name))
        for inst in dataset.instances:
            feats = np.ascontiguousarray(np.asarray(inst.features), dtype="<f4")
            if first_nonfinite_row(feats) is not None:
                raise DataError(
                    f"instance '{inst.video_id}': feature overflows single precision"
                )
            f.write(_pack_str(inst.video_id))
            f.write(_pack_str(inst.subject_id))
            f.write(struct.pack("<II", inst.label, feats.shape[0]))
            f.write(feats)
            del feats  # before the next video is taken


def _scan_records(f):
    """Read and check a FANF file's header and every record header, seeking
    past the features, so nothing is sized by a frame count whose bytes the
    file does not hold. Each record's frame count and label pass
    _check_fields in record order, before any frame is read. Returns dim,
    the class count, the class names and the instances, each instance's
    `features` a StoredFrames handle of its record, read through one
    duplicate of f's descriptor, taken once the scan has passed."""
    # the count, the header's last field, is read once dim and C pass
    size, (dim, num_classes) = _read_header(f, _MAGIC, _VERSION, "<III", "format", "header")
    if dim < 1 or num_classes < 1:
        raise SchemaError("header dim and class count must be positive")
    (count,) = struct.unpack("<Q", _read_exact(f, 8, "header", size))
    class_names = [_read_str(f, "class name", size) for _ in range(num_classes)]
    records = []
    for _ in range(count):
        video_id = _read_str(f, "video id", size)
        subject_id = _read_str(f, "subject id", size)
        label, n = struct.unpack("<II", _read_exact(f, 8, f"record '{video_id}'", size))
        _check_fields(video_id, (n, dim), label, dim, num_classes)
        _check_left(f, 4 * n * dim, f"features of record '{video_id}'", size)
        records.append((video_id, subject_id, label, f.tell(), n))
        f.seek(4 * n * dim, os.SEEK_CUR)
    if f.read(1):
        raise SchemaError("trailing bytes after final record")
    file = _OpenFile(os.dup(f.fileno()))
    return dim, num_classes, class_names, [
        VideoInstance(video_id, subject_id, label, StoredFrames(file, video_id, start, (n, dim)))
        for video_id, subject_id, label, start, n in records]


def open_feature_file(path: str) -> Dataset:
    """Open a canonical binary feature file as a dataset whose frames stay
    in the file.

    The record scan (_scan_records) checks the header and every record
    header, and no frame is read. Each instance's `features` is a
    StoredFrames handle of its record, whose shape is known without
    reading. The dataset's packed frames read the videos of each stack
    when they are gathered, through one descriptor of the file taken here,
    and check their frames then: a non-finite value raises DataError, and
    a file that has lost bytes since SchemaError, each naming the record,
    from the call that reads it. The descriptor pins the file opened, so
    replacing `path` changes nothing the dataset reads; it is closed once
    the dataset, its instances and its packed frames are all dropped.
    Scoring an opened dataset (evaluation.evaluate, export_attention)
    holds one stack of frames at a time, not the file; training reads
    every video of each batch from the file.
    """
    with open(path, "rb") as f:
        dim, num_classes, class_names, instances = _scan_records(f)
    counts = [inst.features.shape[0] for inst in instances]
    ds = Dataset(instances, dim, num_classes, class_names)
    ds._adopt(_FilePackedFrames, None, _offsets(counts),
              tuple(inst.features for inst in instances), max(counts, default=0))
    return ds


def load_feature_file(path: str) -> Dataset:
    """Parse a canonical binary feature file, verifying every invariant.

    Loading is opening the file (open_feature_file, whose record scan
    checks every record header, so the packed matrix is sized only from
    frame counts whose bytes the file holds), then reading each record, in
    order, straight into its rows of one float32 matrix, as stored, and
    checking it there as packing checks a video. Each instance's
    `features` becomes a view of its rows, and the opened file's
    descriptor is closed before this returns or raises, even while the
    exception is kept.
    """
    ds = open_feature_file(path)
    frames, offsets, rows = _empty_pack([inst.features.shape[0] for inst in ds.instances],
                                        ds.dim, "<f4")
    try:
        for inst, row in zip(ds.instances, rows):
            inst.features = _checked_video(inst.video_id, inst.features.read_into(row),
                                           inst.label, ds.dim, ds.num_classes)
    except BaseException:
        inst.features._file.close()  # the traceback's frames still refer to it
        raise
    ds._adopt(PackedFrames, frames, offsets)
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
            # the counts that size arrays: dim and frames_max here, and
            # num_classes, frames_min and peak_frames through them below
            bounded = name in ("dim", "frames_max")
            require_integer(name, getattr(self, name), 1, maximum=COUNT_MAX if bounded else None)
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
