"""Mini-batch SGD training loop with momentum and a step learning-rate schedule.

The update per batch is the classic momentum form with decay folded into
the gradient:

    g <- grad + weight_decay * param     (decay skipped for the bias)
    v <- momentum * v + g
    param <- param - lr * v

Gradients are averaged (not summed) over the batch so the learning rate
keeps its meaning across batch sizes, and each batch goes through the head
as one (B, K, D) stack (model._kernel), gathered into the run's one
buffer from the dataset's checked packed frames (Dataset.packed), which
the run takes when it starts, and not checked again. Everything is
deterministic given the config seed: each epoch draws, from its one
(seed, epoch) stream, first the shuffle and then the K segment-sampled
frames of every instance in shuffled order (sampling.training_draw). The
score-fusion baseline trains in the same loop (fit), on the same minibatches.
A TrainConfig is checked once, when it is made: each field and schedule
step passes the number rules (numerics), momentum must lie in [0, 1) and
weight_decay be >= 0 (outside them an update can grow without bound), and
ConfigError names the field. A config is frozen, so a run does not check
it again.

Checkpoint format ("FANP", little-endian): magic, version u32 = 1, D u32,
C u32, mode u32 (0 full, 1 self-only), then the parameters as float64:
FanParams.flatten(), the blocks of model.layout in order (q0, q1, class_w
row-major, class_b). The header goes through data._write_header and
data._read_header; a payload whose size is not what the header implies
is refused before it is read.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np

from . import model, sampling
from .data import Dataset, PackedFrames, _read_exact, _read_header, _write_header, atomic_open
from .errors import ConfigError, DataError, NumericError, SchemaError
from .model import FanParams, Mode
from .numerics import COUNT_MAX, _shown, require_integer, require_real

_CKPT_MAGIC = b"FANP"
_CKPT_VERSION = 1
_MODE_TAGS = {Mode.FULL: 0, Mode.SELF_ONLY: 1}
_TAG_MODES = {v: k for k, v in _MODE_TAGS.items()}

Schedule = tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class TrainConfig:
    """A run's settings, checked when made (see above) and frozen. The
    schedule is kept as the tuple of (epoch, rate) pairs that was checked."""

    batch_size: int = 48
    k: int = 3
    momentum: float = 0.9
    weight_decay: float = 1e-4
    schedule: Schedule = ((0, 0.1),)
    total_epochs: int = 60
    seed: int = 0
    mode: Mode = Mode.FULL

    def __post_init__(self) -> None:
        for name, minimum, maximum in (("batch_size", 1, None), ("k", 1, COUNT_MAX),
                                       ("total_epochs", 0, None), ("seed", 0, None)):
            require_integer(name, getattr(self, name), minimum, maximum=maximum)
        require_real("momentum", self.momentum)
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        require_real("weight_decay", self.weight_decay, 0)
        if self.mode not in list(Mode):
            raise ConfigError(f"unknown mode {_shown(self.mode)}")
        try:
            steps = tuple((start, lr) for start, lr in self.schedule)
        except (TypeError, ValueError):
            raise ConfigError("schedule must be a list of (epoch, rate) pairs") from None
        for start, lr in steps:
            require_integer("schedule epoch", start)
            require_real("learning rate", lr, 0)
        starts = [s for s, _ in steps]
        if starts[:1] != [0] or any(b <= a for a, b in zip(starts, starts[1:])):
            raise ConfigError("schedule epochs must increase strictly from 0, "
                              f"got {_shown(starts)}")
        object.__setattr__(self, "schedule", steps)


def ckplus_config(**overrides) -> TrainConfig:
    """Published protocol for the lab-recorded dataset: lr 0.1 dropping to
    0.02 at epoch 30, 60 epochs total."""
    return _preset(overrides, schedule=((0, 0.1), (30, 0.02)), total_epochs=60)


def afew_config(**overrides) -> TrainConfig:
    """Published protocol for the in-the-wild dataset: lr 4e-6, then 8e-7 at
    epoch 60 and 1.6e-7 at epoch 120, 180 epochs total.

    These are the paper's rates for fine-tuning a whole network, CNN
    embedding included. A fresh head trained with them stays close to
    chance: on the default synthetic set (seed 7, fold 0 of 10 held out),
    held-out accuracy is 0.36 after 180 epochs, against 0.99 for
    ckplus_config, chance being 0.25. As fine-tuning they leave a head
    where it was: a ckplus_config head trained on perfbench's CK+-shaped
    set scores 0.846 / 0.744 / 0.795 (seeds 1-3) on fold 0 of 10 of its
    AFEW-shaped set, and the same after these 180 epochs on the other
    folds (no parameter moves by more than 3.4e-3), while ckplus_config's
    rates there drop it to 0.15-0.23 and a fresh head under either preset
    scores 0.10-0.21, chance being 0.14."""
    return _preset(overrides, schedule=((0, 4e-6), (60, 8e-7), (120, 1.6e-7)),
                   total_epochs=180)


def synth_default_config(**overrides) -> TrainConfig:
    """Training preset for the synthetic planted-peak harness.

    The stronger weight decay matters: it purges initialization noise from
    the attention kernels so the learned frame weights localize the planted
    peaks, not just classify well.
    """
    return _preset(overrides, schedule=((0, 0.1), (40, 0.02)), total_epochs=60,
                   weight_decay=1e-2)


def _preset(overrides: dict, **values) -> TrainConfig:
    """The config of a preset's field `values` with `overrides` in their
    place; ConfigError naming the first override that is no field."""
    names = {f.name for f in fields(TrainConfig)}
    for key in overrides:
        if key not in names:
            raise ConfigError(f"unknown TrainConfig field '{key}'")
    return TrainConfig(**{**values, **overrides})


def lr_at(schedule: Schedule, epoch: int) -> float:
    """Learning rate of the latest schedule step at or before `epoch`."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    lr = schedule[0][1]
    for start, rate in schedule:
        if start <= epoch:
            lr = rate
    return lr


@np.errstate(over="ignore", invalid="ignore")
def sgd_step(params: np.ndarray, grads: np.ndarray, velocity: np.ndarray,
             lr: float, momentum: float, weight_decay: float, blocks) -> None:
    """One in-place momentum update of a flat parameter vector and its velocity.

    params, grads and velocity are flat vectors laid out as `blocks`
    (model.layout for the head). Weight decay applies to every block but the
    last, the bias. A non-finite result raises NumericError naming the first
    block that holds one; that check sees every overflow, so numpy's
    warnings are silenced.
    """
    step = weight_decay * params
    step[blocks[-1].slice] = 0.0
    step += grads
    velocity *= momentum
    velocity += step
    params -= lr * velocity
    if not np.isfinite(params).all():
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


def minibatches(packed: PackedFrames, indices: np.ndarray, config: TrainConfig, epoch: int,
                out: np.ndarray):
    """The minibatches of one training epoch, in order.

    packed and indices are a run's packed frames and its checked int64
    selection (PackedFrames.select), resolved once when the run starts.
    Yields (dataset indices, frames, labels) per batch of at most
    config.batch_size instances: the indices as a (B,) array, each
    instance's config.k segment-sampled frames as a (B, K, D) stack, and
    the (B,) labels. The epoch's order and every frame index come from one
    sampling.training_draw; each batch's stack is gathered from the
    packed frames (PackedFrames.stack) only when the batch is reached, so
    one batch of frames is held at a time. Each batch is gathered into the
    first rows of `out`, a float64 (B', config.k, D) buffer the caller
    owns (fit owns one for its run) for some B' of at least the batch size
    (or the selection's size, if smaller), and float32 frames (a loaded or
    synthetic dataset's) are widened there: a stack is good until the next
    batch is gathered over it.
    """
    order, picks = sampling.training_draw(config.seed, epoch, packed.lengths(indices), config.k)
    indices = indices[order]
    for lo in range(0, len(indices), config.batch_size):
        batch = indices[lo:lo + config.batch_size]
        yield (batch, packed.stack(batch, picks[lo:lo + config.batch_size], out[:len(batch)]),
               packed.labels[batch])


def fit(packed: PackedFrames, config: TrainConfig, indices, flat: np.ndarray, blocks, step):
    """The SGD loop of both heads over a run's packed frames and checked
    selection (PackedFrames.select), resolved once when the run starts; yields
    (epoch, lr, loss sum, correct count) as each epoch ends. Each
    minibatch goes through step(stack, labels) -> (loss sum, correct
    count, flat gradients laid out as `blocks`), then sgd_step updates
    `flat` in place. The run owns one float64 (min(N, batch_size), k, D)
    buffer, allocated when it starts, and minibatches gathers every batch
    into it, so step must not keep its stack past its call. A
    NumericError is raised again naming the epoch, the batch and the
    dataset index of its row, if it has one."""
    velocity = np.zeros_like(flat)
    buffer = np.empty((min(len(indices), config.batch_size), config.k, packed.dim))
    for epoch in range(config.total_epochs):
        lr = lr_at(config.schedule, epoch)
        loss_sum, correct = 0.0, 0
        batches = minibatches(packed, indices, config, epoch, buffer)
        for number, (batch, stack, labels) in enumerate(batches):
            try:
                loss, hits, grads = step(stack, labels)
                sgd_step(flat, grads, velocity, lr, config.momentum,
                         config.weight_decay, blocks)
            except NumericError as e:
                where = f"epoch {epoch}, batch {number}"
                if e.row is not None:
                    where += f", dataset index {int(batch[e.row])}"
                raise NumericError(f"{where}: {e}") from e
            loss_sum += loss
            correct += hits
        yield epoch, lr, loss_sum, correct


def train(
    dataset: Dataset,
    config: TrainConfig,
    train_indices: list[int] | None = None,
    val_indices: list[int] | None = None,
    on_epoch=None,
) -> tuple[FanParams, TrainHistory]:
    """Run the full training loop; returns final parameters and per-epoch stats.

    train_indices/val_indices select instances by position in
    dataset.instances, both read by PackedFrames.select before the first
    epoch; by default every instance is used for training and no
    validation accuracy is recorded. An empty split of either raises
    ConfigError. on_epoch, if given, is called with each EpochStats as it
    completes. The run reads the dataset's packed frames (Dataset.packed)
    and its training selection once, when it starts, and both trains and
    validates (model.score) every epoch on those packed frames.
    Deterministic given config.seed. A NumericError names the epoch, the
    batch and, when one instance caused it, that instance's dataset index.
    """
    packed = dataset.packed
    train_indices = packed.select(train_indices, "training split")
    val_indices = None if val_indices is None else packed.select(val_indices, "validation split")
    params = model.init_params(packed.dim, packed.num_classes,
                               config.mode, seed=config.seed)

    def step(stack, labels):
        logits, _, losses, grads = model._kernel(stack, params, labels)
        grads.flat *= 1.0 / len(labels)
        return float(losses.sum()), int((logits.argmax(axis=1) == labels).sum()), grads.flat

    history: TrainHistory = []
    for epoch, lr, loss_sum, correct in fit(packed, config, train_indices,
                                            params.flat, params.blocks, step):
        val = None if val_indices is None else _accuracy(packed, params, val_indices, epoch)
        stats = EpochStats(epoch, lr, loss_sum / len(train_indices),
                           correct / len(train_indices), val)
        history.append(stats)
        if on_epoch is not None:
            on_epoch(stats)
    return params, history


def _accuracy(packed: PackedFrames, params: FanParams, indices, epoch: int) -> float:
    """Share of the videos at `indices`, a run's checked non-empty
    validation split, that the head classifies right, from one scoring
    pass (model.score) over the run's packed frames."""
    try:
        scored = model.score(params, packed, indices)
    except NumericError as e:
        raise NumericError(f"epoch {epoch}, validation, {e}") from e
    return float(np.mean(np.argmax(scored.logits, axis=1) == scored.labels))


def history_lines(history: TrainHistory) -> list[str]:
    """Deterministic CSV lines: a header of EpochStats' field names, then
    one row per epoch holding the repr of each field, "" for None."""
    return [",".join(f.name for f in fields(EpochStats))] + [
        ",".join("" if v is None else repr(v) for v in astuple(s)) for s in history]


def save_checkpoint(params: FanParams, path: str) -> None:
    """Write parameters in the FANP layout (deterministic bytes). A
    non-finite entry (written into a block in place) raises DataError naming
    its block, and no file is written: load_checkpoint would refuse it."""
    if not np.isfinite(params.flat).all():
        name, _ = model.locate(params.blocks, int(np.argmin(np.isfinite(params.flat))))
        raise DataError(f"parameter '{name}' is not finite: its checkpoint could not be loaded")
    with atomic_open(path) as f:
        _write_header(f, _CKPT_MAGIC, "<IIII", _CKPT_VERSION, params.feature_dim,
                      params.num_classes, _MODE_TAGS[params.mode])
        f.write(params.flat.astype("<f8").tobytes())


def load_checkpoint(path: str) -> FanParams:
    with open(path, "rb") as f:
        size, (dim, num_classes, tag) = _read_header(
            f, _CKPT_MAGIC, _CKPT_VERSION, "<IIII", "checkpoint", "checkpoint header")
        if tag not in _TAG_MODES:
            raise SchemaError(f"unknown mode tag {tag}")
        mode = _TAG_MODES[tag]
        expect = 8 * model.layout(dim, num_classes, mode)[-1].slice.stop
        # compared before reading, so that nothing is read into memory for
        # a file larger than its header implies
        if size - f.tell() != expect:
            raise SchemaError(
                f"checkpoint payload is {size - f.tell()} bytes, expected {expect}")
        raw = _read_exact(f, expect, "checkpoint payload", size)
    flat = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return FanParams.from_flat(flat, dim, num_classes, mode)
