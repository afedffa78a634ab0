"""Mini-batch SGD training loop with momentum and a step learning-rate schedule.

The update per batch is the classic momentum form with decay folded into
the gradient:

    g <- grad + weight_decay * param     (decay skipped for the bias)
    v <- momentum * v + g
    param <- param - lr * v

Gradients are averaged (not summed) over the batch so the learning rate
keeps its meaning across batch sizes, and each batch goes through the head
as one (B, K, D) stack (model._stack_kernel), gathered from the dataset's
checked packed frames and not checked again. Everything is
deterministic given the config seed: each epoch draws, from its one
(seed, epoch) stream, first the shuffle and then the K segment-sampled
frames of every instance in shuffled order (sampling.training_draw). The
score-fusion baseline trains on the same minibatches.

Checkpoint format ("FANP", little-endian): magic, version u32 = 1, D u32,
C u32, mode u32 (0 full, 1 self-only), then the parameters as float64:
FanParams.flatten(), the blocks of model.layout in order (q0, q1, class_w
row-major, class_b).
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import model, sampling
from .data import Dataset, atomic_open
from .errors import ConfigError, FormatError, NumericError, SchemaError
from .model import FanParams, Mode

_CKPT_MAGIC = b"FANP"
_CKPT_VERSION = 1
_MODE_TAGS = {Mode.FULL: 0, Mode.SELF_ONLY: 1}
_TAG_MODES = {v: k for k, v in _MODE_TAGS.items()}

Schedule = list[tuple[int, float]]


@dataclass
class TrainConfig:
    batch_size: int = 48
    k: int = 3
    momentum: float = 0.9
    weight_decay: float = 1e-4
    schedule: Schedule = field(default_factory=lambda: [(0, 0.1)])
    total_epochs: int = 60
    seed: int = 0
    mode: Mode = Mode.FULL

    def validate(self) -> None:
        if self.batch_size < 1 or self.k < 1 or self.total_epochs < 0:
            raise ConfigError("batch_size, k must be >= 1 and total_epochs >= 0")
        if not self.schedule:
            raise ConfigError("schedule must have at least one step")
        starts = [s for s, _ in self.schedule]
        if starts[0] != 0 or any(b <= a for a, b in zip(starts, starts[1:])):
            raise ConfigError("schedule epochs must increase strictly from 0")
        for name, value in [("momentum", self.momentum), ("weight_decay", self.weight_decay),
                            *(("learning rate", lr) for _, lr in self.schedule)]:
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if any(lr < 0 for _, lr in self.schedule):
            raise ConfigError("learning rates cannot be negative")


def ckplus_config(**overrides) -> TrainConfig:
    """Published protocol for the lab-recorded dataset: lr 0.1 dropping to
    0.02 at epoch 30, 60 epochs total."""
    cfg = TrainConfig(schedule=[(0, 0.1), (30, 0.02)], total_epochs=60)
    return _override(cfg, overrides)


def afew_config(**overrides) -> TrainConfig:
    """Published protocol for the in-the-wild dataset: lr 4e-6, then 8e-7 at
    epoch 60 and 1.6e-7 at epoch 120, 180 epochs total."""
    cfg = TrainConfig(schedule=[(0, 4e-6), (60, 8e-7), (120, 1.6e-7)],
                      total_epochs=180)
    return _override(cfg, overrides)


def synth_default_config(**overrides) -> TrainConfig:
    """Training preset for the synthetic planted-peak harness.

    The stronger weight decay matters: it purges initialization noise from
    the attention kernels so the learned frame weights localize the planted
    peaks, not just classify well.
    """
    cfg = TrainConfig(schedule=[(0, 0.1), (40, 0.02)], total_epochs=60,
                      weight_decay=1e-2)
    return _override(cfg, overrides)


def _override(cfg: TrainConfig, overrides: dict) -> TrainConfig:
    for key, value in overrides.items():
        if not hasattr(cfg, key):
            raise ConfigError(f"unknown TrainConfig field '{key}'")
        setattr(cfg, key, value)
    cfg.validate()
    return cfg


def lr_at(schedule: Schedule, epoch: int) -> float:
    """Learning rate of the latest schedule step at or before `epoch`."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    lr = schedule[0][1]
    for start, rate in schedule:
        if start <= epoch:
            lr = rate
    return lr


def sgd_step(params: np.ndarray, grads: np.ndarray, velocity: np.ndarray,
             lr: float, momentum: float, weight_decay: float, blocks) -> None:
    """One in-place momentum update of a flat parameter vector and its velocity.

    params, grads and velocity are flat vectors laid out as `blocks`
    (model.layout for the head). Weight decay applies to every block but the
    last, the bias. A non-finite result raises NumericError naming the first
    block that holds one.
    """
    step = weight_decay * params
    step[blocks[-1].slice] = 0.0
    step += grads
    velocity *= momentum
    velocity += step
    params -= lr * velocity
    if not np.all(np.isfinite(params)):
        name, _ = model.locate(blocks, int(np.argmin(np.isfinite(params))))
        raise NumericError(f"parameter '{name}' became non-finite during update")


@dataclass
class EpochStats:
    epoch: int
    lr: float
    loss: float
    train_accuracy: float
    val_accuracy: float | None = None


TrainHistory = list[EpochStats]


def minibatches(dataset: Dataset, indices, config: TrainConfig, epoch: int):
    """The minibatches of one training epoch, in order.

    Yields (dataset indices, frames, labels) per batch of at most
    config.batch_size instances: the indices as a (B,) array, each
    instance's config.k segment-sampled frames as a (B, K, D) stack, and
    the (B,) labels. The epoch's order and every frame index come from one
    sampling.training_draw, turned into rows of the dataset's packed frames
    (Dataset.packed) once per epoch; each batch's stack is one fancy index
    of those rows, taken only when the batch is reached, so one batch of
    frames is held at a time. The stack is float64: a loaded dataset's
    float32 frames are widened once per batch, after the gather.
    """
    packed = dataset.packed()
    indices = packed.select(indices)
    starts = packed.offsets[indices]
    order, picks = sampling.training_draw(
        config.seed, epoch, packed.offsets[indices + 1] - starts, config.k)
    indices = indices[order]
    rows = starts[order][:, None] + picks
    for lo in range(0, len(indices), config.batch_size):
        batch = indices[lo:lo + config.batch_size]
        stack = packed.frames[rows[lo:lo + config.batch_size]]
        yield batch, stack.astype(np.float64, copy=False), packed.labels[batch]


def train(
    dataset: Dataset,
    config: TrainConfig,
    train_indices: list[int] | None = None,
    val_indices: list[int] | None = None,
    on_epoch=None,
) -> tuple[FanParams, TrainHistory]:
    """Run the full training loop; returns final parameters and per-epoch stats.

    train_indices/val_indices select instances by position in
    dataset.instances; by default every instance is used for training and no
    validation accuracy is recorded. on_epoch, if given, is called with each
    EpochStats as it completes. Deterministic given config.seed. A NumericError
    names the epoch, the batch and, when one instance caused it, that
    instance's dataset index; a non-finite value written into the dataset's
    frames in place is reported so, as non-finite logits.
    """
    config.validate()
    dataset.packed()
    if train_indices is None:
        train_indices = list(range(len(dataset.instances)))
    if not train_indices:
        raise ConfigError("training split is empty")

    params = model.init_params(dataset.dim, dataset.num_classes,
                               config.mode, seed=config.seed)
    velocity = np.zeros_like(params.flat)
    history: TrainHistory = []

    for epoch in range(config.total_epochs):
        lr = lr_at(config.schedule, epoch)
        loss_sum = 0.0
        correct = 0
        batches = minibatches(dataset, train_indices, config, epoch)
        for number, (batch, stack, labels) in enumerate(batches):
            try:
                logits, trace, losses, grads = model._stack_kernel(stack, params, labels)
                del trace  # so that the step runs without this batch's trace
                grads.flat *= 1.0 / len(batch)
                sgd_step(params.flat, grads.flat, velocity, lr, config.momentum,
                         config.weight_decay, params.blocks)
            except NumericError as e:
                where = f"epoch {epoch}, batch {number}"
                if e.row is not None:
                    where += f", dataset index {int(batch[e.row])}"
                raise NumericError(f"{where}: {e}") from e
            loss_sum += float(losses.sum())
            correct += int(np.sum(np.argmax(logits, axis=1) == labels))

        val_acc = None
        if val_indices is not None:
            val_acc = _accuracy(dataset, params, val_indices, epoch)
        stats = EpochStats(
            epoch=epoch, lr=lr,
            loss=loss_sum / len(train_indices),
            train_accuracy=correct / len(train_indices),
            val_accuracy=val_acc,
        )
        history.append(stats)
        if on_epoch is not None:
            on_epoch(stats)
    return params, history


def _accuracy(dataset: Dataset, params: FanParams, indices, epoch: int) -> float:
    """Share of the videos at `indices` that the head classifies right,
    from one scoring pass (model.score); 0.0 for no videos."""
    packed = dataset.packed()
    correct = 0
    try:
        for s in model.score(params, packed, indices):
            correct += int(np.sum(np.argmax(s.logits, axis=1) == packed.labels[s.indices]))
    except NumericError as e:
        raise NumericError(f"epoch {epoch}, validation, {e}") from e
    return correct / len(indices) if len(indices) else 0.0


def history_lines(history: TrainHistory) -> list[str]:
    """Deterministic line-oriented rendering: epoch,lr,loss,train_acc,val_acc."""
    lines = ["epoch,lr,loss,train_accuracy,val_accuracy"]
    for s in history:
        val = "" if s.val_accuracy is None else repr(s.val_accuracy)
        lines.append(f"{s.epoch},{s.lr!r},{s.loss!r},{s.train_accuracy!r},{val}")
    return lines


def save_checkpoint(params: FanParams, path: str) -> None:
    """Write parameters in the FANP layout (deterministic bytes)."""
    with atomic_open(path) as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<IIII", _CKPT_VERSION, params.feature_dim,
                            params.num_classes, _MODE_TAGS[params.mode]))
        f.write(params.flat.astype("<f8").tobytes())


def load_checkpoint(path: str) -> FanParams:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != _CKPT_MAGIC:
            raise FormatError(f"bad magic bytes {magic!r}, expected {_CKPT_MAGIC!r}")
        header = f.read(16)
        if len(header) != 16:
            raise SchemaError("checkpoint truncated in header")
        version, dim, num_classes, tag = struct.unpack("<IIII", header)
        if version != _CKPT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        if tag not in _TAG_MODES:
            raise SchemaError(f"unknown mode tag {tag}")
        mode = _TAG_MODES[tag]
        expect = 8 * model.layout(dim, num_classes, mode)[-1].slice.stop
        # compared before reading, so that nothing is read into memory for
        # a file larger than its header implies
        size = os.fstat(f.fileno()).st_size - f.tell()
        if size != expect:
            raise SchemaError(f"checkpoint payload is {size} bytes, expected {expect}")
        raw = f.read(expect)
        if len(raw) != expect:
            raise SchemaError(f"checkpoint payload is {len(raw)} bytes, expected {expect}")
    flat = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return FanParams.from_flat(flat, dim, num_classes, mode)
