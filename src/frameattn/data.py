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

Features are stored in single precision; everything is float64 in memory.
Writing is canonical: equal datasets produce identical bytes. A plain-text
CSV import (one frame per line) is provided for interoperability; the
binary form is the canonical one.
"""

from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, FormatError, SchemaError

_MAGIC = b"FANF"
_VERSION = 1


@dataclass
class VideoInstance:
    """One video: identity, subject, class label, and its n x D features."""

    video_id: str
    subject_id: str
    label: int
    features: np.ndarray


@dataclass
class Dataset:
    instances: list[VideoInstance]
    dim: int
    num_classes: int
    class_names: list[str]

    def validate(self) -> None:
        if self.dim < 1 or self.num_classes < 1:
            raise SchemaError("dim and num_classes must be positive")
        if len(self.class_names) != self.num_classes:
            raise SchemaError(
                f"expected {self.num_classes} class names, got {len(self.class_names)}"
            )
        for inst in self.instances:
            f = np.asarray(inst.features)
            if f.ndim != 2 or f.shape[0] < 1 or f.shape[1] != self.dim:
                raise SchemaError(
                    f"instance '{inst.video_id}': feature shape {f.shape} "
                    f"inconsistent with dim {self.dim}"
                )
            if not np.all(np.isfinite(f)):
                raise DataError(f"instance '{inst.video_id}': non-finite feature value")
            if not 0 <= inst.label < self.num_classes:
                raise SchemaError(
                    f"instance '{inst.video_id}': label {inst.label} out of range"
                )

    def subjects(self) -> list[str]:
        """Distinct subject ids, sorted ascending."""
        return sorted({inst.subject_id for inst in self.instances})


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise SchemaError(f"string too long to encode: {len(raw)} bytes")
    return struct.pack("<H", len(raw)) + raw


def _read_exact(f, nbytes: int, what: str, size: int) -> bytes:
    """Read nbytes of a file of `size` bytes; a size the file declares is
    checked against the bytes left before anything is allocated for it."""
    left = size - f.tell()
    if nbytes > left:
        raise SchemaError(
            f"file truncated while reading {what}: {nbytes} bytes declared, "
            f"{left} left")
    buf = f.read(nbytes)
    if len(buf) != nbytes:
        raise SchemaError(f"file truncated while reading {what}")
    return buf


def _read_str(f, what: str, size: int) -> str:
    (length,) = struct.unpack("<H", _read_exact(f, 2, what, size))
    return _read_exact(f, length, what, size).decode("utf-8")


def _atomic_write(path: str, payload: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(payload)
    os.replace(tmp, path)


def write_feature_file(dataset: Dataset, path: str) -> None:
    """Serialize a dataset to the canonical binary form (deterministic bytes)."""
    dataset.validate()
    parts = [
        _MAGIC,
        struct.pack("<III", _VERSION, dataset.dim, dataset.num_classes),
        struct.pack("<Q", len(dataset.instances)),
    ]
    parts.extend(_pack_str(name) for name in dataset.class_names)
    for inst in dataset.instances:
        feats = np.ascontiguousarray(inst.features, dtype=np.float32)
        if not np.all(np.isfinite(feats)):
            raise DataError(
                f"instance '{inst.video_id}': feature overflows single precision"
            )
        parts.append(_pack_str(inst.video_id))
        parts.append(_pack_str(inst.subject_id))
        parts.append(struct.pack("<II", inst.label, feats.shape[0]))
        parts.append(feats.tobytes())
    _atomic_write(path, b"".join(parts))


def load_feature_file(path: str) -> Dataset:
    """Parse a canonical binary feature file, verifying every invariant."""
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
        for _ in range(count):
            video_id = _read_str(f, "video id", size)
            subject_id = _read_str(f, "subject id", size)
            label, n = struct.unpack(
                "<II", _read_exact(f, 8, f"record '{video_id}'", size))
            if label >= num_classes:
                raise SchemaError(f"record '{video_id}': label {label} >= {num_classes}")
            if n < 1:
                raise SchemaError(f"record '{video_id}': zero frames")
            raw = _read_exact(f, 4 * n * dim, f"features of record '{video_id}'",
                              size)
            feats = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(n, dim)
            if not np.all(np.isfinite(feats)):
                raise DataError(f"record '{video_id}': non-finite feature value")
            instances.append(VideoInstance(video_id, subject_id, int(label), feats))
        if f.read(1):
            raise SchemaError("trailing bytes after final record")

    ds = Dataset(instances, dim, num_classes, class_names)
    ds.validate()
    return ds


def load_feature_csv(path: str, class_names: list[str] | None = None) -> Dataset:
    """Import the plain-text interchange form.

    One frame per line: video_id, subject_id, label, frame_index, then D
    feature values. Frames of a video may appear in any order; they are
    sorted by frame_index. When class_names is omitted the class count is
    inferred from the labels present.
    """
    rows: dict[str, dict] = {}
    dim = None
    with open(path, newline="") as f:
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
    if not rows:
        raise SchemaError("CSV contains no frames")

    if class_names is None:
        num_classes = max(rec["label"] for rec in rows.values()) + 1
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
    """Generate the planted-peak dataset for the given configuration."""
    instances = [inst for inst, _ in _synth_videos(config)]
    ds = Dataset(
        instances,
        config.dim,
        config.num_classes,
        [f"class_{c}" for c in range(config.num_classes)],
    )
    ds.validate()
    return ds


def synth_peak_positions(config: SynthConfig) -> dict[str, list[int]]:
    """Ground-truth peak frame positions, keyed by video id.

    Replays the same deterministic generation as synth_generate, so it is
    consistent with any dataset produced from an equal config.
    """
    return {inst.video_id: peaks for inst, peaks in _synth_videos(config)}
