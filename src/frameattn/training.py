"""Mini-batch SGD training loop with momentum and a step learning-rate schedule.

The update per batch is the classic momentum form with decay folded into
the gradient:

    g <- grad + weight_decay * param     (decay skipped for the bias)
    v <- momentum * v + g
    param <- param - lr * v

Gradients are averaged (not summed) over the batch so the learning rate
keeps its meaning across batch sizes, and each batch goes through the head
as one (B, K, D) stack (model.forward_backward_batch). Everything is
deterministic given the config seed: each epoch draws, from its one
(seed, epoch) stream, first the shuffle and then the K segment-sampled
frames of every instance in shuffled order (sampling.training_draw). The
score-fusion baseline trains on the same minibatches.

Checkpoint format ("FANP", little-endian): magic, version u32 = 1, D u32,
C u32, mode u32 (0 full, 1 self-only), then the parameters as float64 in
flatten order (q0, q1, class_w row-major, class_b).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import model, sampling
from .data import Dataset, _atomic_write
from .errors import ConfigError, DataError, FormatError, NumericError, SchemaError
from .model import FanGradients, FanParams, Mode

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


@dataclass
class OptState:
    """Momentum velocity buffers, one per parameter field."""

    q0: np.ndarray
    q1: np.ndarray
    class_w: np.ndarray
    class_b: np.ndarray

    @classmethod
    def zeros(cls, params: FanParams) -> "OptState":
        return cls(np.zeros_like(params.q0), np.zeros_like(params.q1),
                   np.zeros_like(params.class_w), np.zeros_like(params.class_b))


# (field name, apply weight decay) -- decay is off for the bias
_PARAM_FIELDS = [("q0", True), ("q1", True), ("class_w", True), ("class_b", False)]


def sgd_step(params: FanParams, grads: FanGradients, state: OptState,
             lr: float, momentum: float, weight_decay: float) -> None:
    """One in-place momentum update of params and state."""
    for name, decay in _PARAM_FIELDS:
        p = getattr(params, name)
        g = getattr(grads, name) + (weight_decay * p if decay else 0.0)
        v = getattr(state, name)
        v *= momentum
        v += g
        p -= lr * v
        if not np.all(np.isfinite(p)):
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
    sampling.training_draw; each batch's stack is gathered only when it is
    reached, so one batch of frames is held at a time.
    """
    instances = dataset.instances
    indices = np.asarray(indices)
    order, picks = sampling.training_draw(
        config.seed, epoch, [instances[i].features.shape[0] for i in indices],
        config.k)
    indices = indices[order]
    for lo in range(0, len(indices), config.batch_size):
        batch = indices[lo:lo + config.batch_size]
        stack = np.stack([instances[i].features[p]
                          for i, p in zip(batch, picks[lo:lo + config.batch_size])])
        yield batch, stack, np.array([instances[i].label for i in batch])


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
    instance's dataset index.
    """
    config.validate()
    dataset.validate()
    if train_indices is None:
        train_indices = list(range(len(dataset.instances)))
    if not train_indices:
        raise ConfigError("training split is empty")

    params = model.init_params(dataset.dim, dataset.num_classes,
                               config.mode, seed=config.seed)
    state = OptState.zeros(params)
    history: TrainHistory = []

    for epoch in range(config.total_epochs):
        lr = lr_at(config.schedule, epoch)
        loss_sum = 0.0
        correct = 0
        batches = minibatches(dataset, train_indices, config, epoch)
        for number, (batch, stack, labels) in enumerate(batches):
            try:
                losses, logits, grads = model.forward_backward_batch(
                    stack, params, labels)
                grads.scale(1.0 / len(batch))
                sgd_step(params, grads, state, lr,
                         config.momentum, config.weight_decay)
            except NumericError as e:
                where = f"epoch {epoch}, batch {number}"
                if e.row is not None:
                    where += f", dataset index {int(batch[e.row])}"
                raise NumericError(f"{where}: {e}") from e
            loss_sum += float(losses.sum())
            correct += int(np.sum(np.argmax(logits, axis=1) == labels))

        val_acc = None
        if val_indices is not None:
            val_correct = sum(
                model.predict(model.forward(dataset.instances[i].features, params)[0])
                == dataset.instances[i].label
                for i in val_indices)
            val_acc = val_correct / len(val_indices) if val_indices else 0.0
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


def history_lines(history: TrainHistory) -> list[str]:
    """Deterministic line-oriented rendering: epoch,lr,loss,train_acc,val_acc."""
    lines = ["epoch,lr,loss,train_accuracy,val_accuracy"]
    for s in history:
        val = "" if s.val_accuracy is None else repr(s.val_accuracy)
        lines.append(f"{s.epoch},{s.lr!r},{s.loss!r},{s.train_accuracy!r},{val}")
    return lines


def save_checkpoint(params: FanParams, path: str) -> None:
    """Write parameters in the FANP layout (deterministic bytes)."""
    payload = b"".join([
        _CKPT_MAGIC,
        struct.pack("<IIII", _CKPT_VERSION, params.feature_dim,
                    params.num_classes, _MODE_TAGS[params.mode]),
        params.flatten().astype("<f8").tobytes(),
    ])
    _atomic_write(path, payload)


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
        in_dim = 2 * dim if mode is Mode.FULL else dim
        expect = dim + 2 * dim + num_classes * in_dim + num_classes
        raw = f.read()
        if len(raw) != 8 * expect:
            raise SchemaError(
                f"checkpoint payload is {len(raw)} bytes, expected {8 * expect}")
    flat = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if not np.all(np.isfinite(flat)):
        raise DataError("checkpoint contains non-finite parameters")
    return FanParams.from_flat(flat, dim, num_classes, mode)
