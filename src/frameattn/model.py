"""Frame-attention aggregation head with exact analytic gradients.

A video arrives as an n x D matrix of per-frame feature vectors (one row per
frame, produced by some external embedding). The head turns the set of rows
into one fixed-length vector in four steps:

  1. per-frame self-attention weights   alpha_i = sigmoid(f_i . q0)
  2. a global anchor                    a = sum(alpha_i f_i) / sum(alpha_i)
  3. relation-attention weights         beta_i = sigmoid([f_i : a] . q1)
  4. the aggregate                      v = sum(alpha_i beta_i [f_i : a])
                                            / sum(alpha_i beta_i)

followed by an affine classifier on v. The SELF_ONLY mode drops steps 3-4
and classifies on the anchor directly. All gradients are derived by hand;
nothing here depends on an autodiff framework, which is what makes the
finite-difference cross-check in the test suite meaningful.

Backward-pass bookkeeping (full mode), with F the feature matrix, u the
weighted mean in the top half of v, W = sum(alpha*beta), A = sum(alpha):

    dL/dw_i    = (f_i - u) . g_u / W          (w_i = alpha_i beta_i)
    dL/da      = g_v[D:] + sum_i g_t_i q1[D:] (direct + through beta)
    dL/dalpha_i = beta_i dL/dw_i + (f_i - a) . (dL/da) / A
    dq1        = [F^T g_t : sum(g_t) a],  dq0 = F^T g_s

where g_t, g_s are the pre-sigmoid cotangents of beta and alpha. The kernel
applies the sigmoid slopes as g_t_i = w_i/W (f_i - u).g_u (1 - beta_i) and
g_s_i = [w_i/W (f_i - u).g_u + alpha_i/A (f_i - a).(dL/da)] (1 - alpha_i):
only normalized weights appear, so saturated sigmoids, whose alpha and beta
can be tiny, never make a cotangent divide by a tiny sum. The w_i are direct
products unless one of a batch underflows; then _kernel scales them by powers
of two, which is exact, so both ways give the same bits where both apply.

One kernel computes all of this for packed frame rows: video i is rows
offsets[i]:offsets[i+1] of one (R, D) matrix. The forward formulas are
written once, over four per-video operations (sum, max, spread back to the
frames, weighted mean of the rows), which two kinds of segments supply:

  * equal lengths, B videos of K frames: per-frame values are (B, K) arrays
    reduced along axis 1, the means are one batched matmul. Training's
    minibatches and forward, backward and forward_backward on one video
    (B=1, K=n) take this path, and it alone computes gradients, summed
    over B.
  * unequal lengths: per-frame values stay (R,) vectors reduced per video
    by 1-D np.add.reduceat / np.maximum.reduceat, and each mean is one
    w[a:b] @ rows[a:b] per video. Scoring whole videos takes this path
    (score); its values match per-video forward up to reassociation.

score runs the head over the videos of a packed dataset in chunks of whole
videos whose working set is about SCORE_CHUNK_BYTES, so its memory does not
grow with the dataset.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, NumericError
from .numerics import (
    _xent,
    as_matrix,
    as_vector,
    finite_diff_gradient,
    relative_error,
    sigmoid,
    softmax_cross_entropy,
)


class Mode(str, enum.Enum):
    """Which aggregation the head applies."""

    FULL = "full"
    SELF_ONLY = "self_only"


class Block(NamedTuple):
    """One block of a flat parameter vector: its name, slice and shape."""

    name: str
    slice: slice
    shape: tuple


def blocks_of(shapes) -> tuple[Block, ...]:
    """Consecutive blocks of a flat vector, one per (name, shape), in order."""
    blocks, start = [], 0
    for name, shape in shapes:
        stop = start + math.prod(shape)
        blocks.append(Block(name, slice(start, stop), tuple(shape)))
        start = stop
    return tuple(blocks)


def layout(dim: int, num_classes: int, mode: Mode) -> tuple[Block, ...]:
    """The head's parameter layout for (D, C, mode), in flat order.

    q0 (D,) is the self-attention kernel, q1 (2D,) the relation-attention
    kernel, class_w (C, 2D) in full mode or (C, D) self-only the classifier
    weights (row-major), and class_b (C,) its bias. q1 is carried in both
    modes (unused, with zero gradient, in SELF_ONLY). Parameters, their
    gradients, the optimizer's velocity and the checkpoint payload all use
    this layout. The bias comes last: it is the one block weight decay skips.
    """
    if dim < 1 or num_classes < 1:
        raise DimensionError("dim and num_classes must be positive")
    in_dim = 2 * dim if Mode(mode) is Mode.FULL else dim
    return blocks_of([("q0", (dim,)), ("q1", (2 * dim,)),
                      ("class_w", (num_classes, in_dim)), ("class_b", (num_classes,))])


def locate(blocks, index: int) -> tuple[str, int]:
    """Name of the block that holds flat position `index`, and the position
    within that block."""
    block = next(b for b in blocks if index < b.slice.stop)
    return block.name, index - block.slice.start


class FanParams:
    """All trainable parameters of the head, held in one float64 vector.

    `flat` holds the blocks of `layout` in order, and q0, q1, class_w and
    class_b are views of their blocks: writing into one writes into `flat`,
    and assigning one copies the value into its block (its shape must
    match). flatten() returns a copy of `flat`. Gradients use the same
    layout: backward returns them as a FanParams.
    """

    def __init__(self, q0, q1, class_w, class_b, mode: Mode):
        mode = Mode(mode)
        parts = [as_vector(q0, "q0"), as_vector(q1, "q1"),
                 as_matrix(class_w, "class_w"), as_vector(class_b, "class_b")]
        blocks = layout(parts[0].shape[0], parts[3].shape[0], mode)
        for block, part in zip(blocks, parts):
            if part.shape != block.shape:
                raise DimensionError(f"{block.name} must have shape {block.shape} "
                                     f"in {mode.value} mode, got {part.shape}")
        self._bind(np.concatenate([part.ravel() for part in parts]), blocks, mode)

    def _bind(self, flat: np.ndarray, blocks, mode: Mode) -> None:
        self.__dict__.update(flat=flat, blocks=blocks, mode=mode,
                             **{b.name: flat[b.slice].reshape(b.shape) for b in blocks})

    @classmethod
    def _over(cls, flat: np.ndarray, blocks, mode: Mode) -> "FanParams":
        """Parameters whose storage is `flat` itself, unchecked."""
        params = cls.__new__(cls)
        params._bind(flat, blocks, mode)
        return params

    def __setattr__(self, name, value):
        if name in _BLOCK_NAMES:
            view = getattr(self, name)
            value = np.asarray(value, dtype=np.float64)
            if value.shape != view.shape:
                raise DimensionError(f"{name} must have shape {view.shape}, got {value.shape}")
            view[...] = value
        else:
            object.__setattr__(self, name, value)

    @property
    def feature_dim(self) -> int:
        return self.q0.shape[0]

    @property
    def num_classes(self) -> int:
        return self.class_b.shape[0]

    def copy(self) -> "FanParams":
        return FanParams._over(self.flat.copy(), self.blocks, self.mode)

    def flatten(self) -> np.ndarray:
        """A copy of the flat vector: q0, q1, class_w row-major, class_b."""
        return self.flat.copy()

    @classmethod
    def from_flat(cls, flat, dim: int, num_classes: int, mode: Mode) -> "FanParams":
        """Inverse of flatten for the given dimensions and mode. The result
        is stored in `flat` itself when that is a contiguous float64 vector."""
        mode = Mode(mode)
        blocks = layout(dim, num_classes, mode)
        flat = np.ascontiguousarray(flat, dtype=np.float64)
        if flat.shape != (blocks[-1].slice.stop,):
            raise DimensionError(f"flat parameter vector must have length "
                                 f"{blocks[-1].slice.stop}, got {flat.shape}")
        return cls._over(as_vector(flat, "parameter vector"), blocks, mode)


_BLOCK_NAMES = frozenset(b.name for b in layout(1, 1, Mode.FULL))


@dataclass
class AttentionTrace:
    """Per-frame weights and intermediate vectors from one forward pass.

    final_weights are the normalized alpha_i*beta_i (normalized alpha_i in
    self-only mode); they are nonnegative and sum to one. beta is all ones
    in self-only mode, where no relation weights exist.
    """

    alpha: np.ndarray          # (n,)
    beta: np.ndarray           # (n,)
    final_weights: np.ndarray  # (n,), sums to 1
    anchor: np.ndarray         # (D,)
    aggregate: np.ndarray      # (2D,) full mode, (D,) self-only


def init_params(dim: int, num_classes: int, mode: Mode = Mode.FULL,
                seed: int = 0) -> FanParams:
    """Seeded uniform init: each weight block drawn, in layout order, from
    +-sqrt(6/(fan_in+fan_out)); bias zero."""
    mode = Mode(mode)
    blocks = layout(dim, num_classes, mode)
    params = FanParams._over(np.zeros(blocks[-1].slice.stop), blocks, mode)
    rng = np.random.default_rng(seed)
    for name, _, shape in blocks[:-1]:
        # a kernel vector has fan_out 1, class_w is (fan_out, fan_in)
        fan_out = shape[0] if len(shape) == 2 else 1
        limit = np.sqrt(6.0 / (shape[-1] + fan_out))
        setattr(params, name, rng.uniform(-limit, limit, size=shape))
    return params


class _Even:
    """B videos of K frames each, the (B, K, D) stack f: per-frame values
    are (B, K) arrays."""

    def __init__(self, f: np.ndarray):
        self.f = f
        self.b, self.k = f.shape[:2]

    def frames(self, x):
        return x.reshape(self.b, self.k)

    def sum(self, x):
        return x.sum(axis=1)

    def max(self, x):
        return x.max(axis=1)

    def spread(self, v):
        return v[:, None]

    def mean(self, w, rows):
        return np.matmul(w[:, None, :], self.f)[:, 0, :]


class _Ragged:
    """Videos of unequal lengths: per-frame values are (R,) vectors in row
    order, reduced per video along their one axis."""

    def __init__(self, offsets: np.ndarray):
        self.starts = offsets[:-1]
        self.lengths = np.diff(offsets)
        self.bounds = list(zip(offsets[:-1].tolist(), offsets[1:].tolist()))

    def frames(self, x):
        return x

    def sum(self, x):
        return np.add.reduceat(x, self.starts)

    def max(self, x):
        return np.maximum.reduceat(x, self.starts)

    def spread(self, v):
        return np.repeat(v, self.lengths)

    def mean(self, w, rows):
        out = np.empty((len(self.bounds), rows.shape[1]))
        for i, (a, b) in enumerate(self.bounds):
            out[i] = w[a:b] @ rows[a:b]
        return out


def _segments(rows: np.ndarray, offsets: np.ndarray):
    """The videos rows[offsets[i]:offsets[i+1]]: _Even when they all have
    the same length, else _Ragged."""
    lengths = np.diff(offsets)
    if lengths.min() == lengths.max():
        return _Even(rows.reshape(len(lengths), int(lengths[0]), rows.shape[1]))
    return _Ragged(offsets)


def _kernel(rows: np.ndarray, seg, params: FanParams, labels=None):
    """The head on validated (R, D) frame rows cut into videos by `seg`
    (an _Even or a _Ragged).

    Returns the (B, C) logits and the attention trace: per-frame fields are
    (B, K) for _Even and (R,) for _Ragged, per-video fields (B, D) or
    (B, 2D). Given one label per instance (_Even only) it also returns the
    (B,) cross-entropy losses and the parameter gradients summed over B;
    otherwise those two are None. A non-finite value raises NumericError
    whose row is the position of the first bad instance.
    """
    d = rows.shape[1]

    # weights are normalized before averaging so that a single frame passes
    # through exactly (its weight is 1.0 bit-for-bit)
    alpha = seg.frames(sigmoid(rows @ params.q0))
    alpha_n = alpha / seg.spread(seg.sum(alpha))
    anchor = seg.mean(alpha_n, rows)

    if params.mode is Mode.FULL:
        beta = sigmoid(seg.frames(rows @ params.q1[:d])
                       + seg.spread(anchor @ params.q1[d:]))
        # w_i = alpha_i beta_i when no product underflows; else each video's
        # scaled by the power of two that brings its largest to [1/4, 1),
        # exponents added apart from mantissas: exact even if all underflow
        w = alpha * beta
        if not w.min() >= 2.0**-1022:  # the smallest normal float64
            ma, ea = np.frexp(alpha)
            mb, eb = np.frexp(beta)
            e = ea + eb
            w = np.ldexp(ma * mb, e - seg.spread(seg.max(e)))
        final = w / seg.spread(seg.sum(w))
        top = seg.mean(final, rows)
        agg = np.concatenate([top, anchor], axis=1)
    else:
        beta = np.ones_like(alpha)
        final = alpha_n
        agg = anchor

    logits = agg @ params.class_w.T + params.class_b
    if not np.isfinite(logits).all():
        raise NumericError("forward pass produced non-finite logits",
                           row=int(np.argmin(np.all(np.isfinite(logits), axis=1))))
    trace = AttentionTrace(alpha=alpha, beta=beta, final_weights=final,
                           anchor=anchor, aggregate=agg)
    if labels is None:
        return logits, trace, None, None

    f = seg.f
    losses, g_logits = _xent(logits, labels)
    g_agg = g_logits @ params.class_w
    grads = FanParams._over(np.zeros_like(params.flat), params.blocks, params.mode)

    if params.mode is Mode.FULL:
        g_top = g_agg[:, :d]
        # through the weighted mean: (f_i - top) . g_top, times w_i / W
        y = final * (np.matmul(f, g_top[:, :, None])[:, :, 0]
                     - (top * g_top).sum(axis=1, keepdims=True))
        g_t = y * (1.0 - beta)
        gt_sum = g_t.sum(axis=1)
        np.matmul(g_t.reshape(-1), rows, out=grads.q1[:d])
        np.matmul(gt_sum, anchor, out=grads.q1[d:])
        g_anchor = g_agg[:, d:] + gt_sum[:, None] * params.q1[d:]
    else:
        y = 0.0
        g_anchor = g_agg
    # through the anchor: (f_i - anchor) . g_anchor, times alpha_i / A
    g_s = (y + alpha_n * (np.matmul(f, g_anchor[:, :, None])[:, :, 0]
                          - (anchor * g_anchor).sum(axis=1, keepdims=True))
           ) * (1.0 - alpha)

    np.matmul(g_s.reshape(-1), rows, out=grads.q0)
    np.matmul(g_logits.T, agg, out=grads.class_w)
    g_logits.sum(axis=0, out=grads.class_b)
    if not np.isfinite(grads.flat).all():
        raise NumericError("backward pass produced non-finite gradients",
                           row=_first_bad_row(f, params, labels))
    return logits, trace, losses, grads


def _stack_kernel(f: np.ndarray, params: FanParams, labels=None):
    """_kernel on a validated (B, K, D) stack of B videos of K frames."""
    b, k, d = f.shape
    return _kernel(f.reshape(b * k, d), _Even(f), params, labels)


def _first_bad_row(f: np.ndarray, params: FanParams, labels) -> int | None:
    """Batch position of the first instance whose own gradients are not
    finite; None when each is finite and only their sum overflowed."""
    if len(f) == 1:
        return 0
    for r in range(len(f)):
        try:
            _stack_kernel(f[r:r + 1], params, labels[r:r + 1])
        except NumericError:
            return r
    return None


def _frames(x, params: FanParams) -> np.ndarray:
    """One video's checked (n, D) frame matrix, D the params' feature dim."""
    f = as_matrix(x, "features")
    if f.shape[1] != params.feature_dim:
        raise DimensionError(
            f"feature dim {f.shape[1]} != params dim {params.feature_dim}")
    return f


def forward(features, params: FanParams) -> tuple[np.ndarray, AttentionTrace]:
    """Logits plus the attention trace for one video's feature matrix."""
    logits, trace, _, _ = _stack_kernel(_frames(features, params)[None], params)
    return logits[0], AttentionTrace(**{k: v[0] for k, v in vars(trace).items()})


# score holds one chunk of whole videos at a time, sized to keep its working
# set within SCORE_CHUNK_BYTES: per frame, its D-wide float64 row (a slice
# that the kernel's passes read again from cache, or a copy: gathered,
# widened from float32, or both, when the 4-byte gather is held too) and
# _FRAME_TEMPS float64 temporaries of the kernel; per video, its D-wide
# means (anchor, top half, aggregate). A video over the budget on its own
# is a chunk of its own.
SCORE_CHUNK_BYTES = 1 << 20
_FRAME_TEMPS = 16


class Scored(NamedTuple):
    """One chunk of a scoring pass: the dataset indices of its n videos, the
    (n + 1,) offsets of their frames in the per-frame fields, their (n, C)
    logits, and each frame's alpha and final weight in row order."""

    indices: np.ndarray
    offsets: np.ndarray
    logits: np.ndarray
    alpha: np.ndarray
    final_weights: np.ndarray


def _chunks(costs: np.ndarray, budget: int):
    """(lo, hi) position ranges of consecutive videos whose costs add up to
    at most `budget`, or of one video whose cost alone is more."""
    ends = np.cumsum(costs)
    lo, done = 0, 0
    while lo < len(costs):
        hi = max(lo + 1, int(np.searchsorted(ends, done + budget, side="right")))
        yield lo, hi
        lo, done = hi, int(ends[hi - 1])


def score(params: FanParams, packed, indices=None, picks=None):
    """Run the head over whole videos of a data.PackedFrames, a chunk at a
    time.

    indices selects the videos, in order, as packed.select reads them
    (repeats are scored again); by default every video. With picks, an
    (len(indices), k) array, video j is scored on its frames picks[j] only.
    Yields one Scored per chunk, the videos in the order of indices.

    Consecutive indices are scored from slices of the packed frames; any
    other selection is gathered a chunk at a time. Each chunk's rows are
    widened to float64 (float32 frames of a loaded dataset), not checked
    again: the dataset checked its frames when they entered it. A
    non-finite logit, which a non-finite value written into them in place
    also gives, raises NumericError naming the dataset index of the first
    bad video.
    """
    frames, offsets = packed.frames, packed.offsets
    indices = packed.select(indices)
    d = frames.shape[1]
    if d != params.feature_dim:
        raise DimensionError(f"feature dim {d} != params dim {params.feature_dim}")
    starts = offsets[indices]
    if picks is None:
        lengths = offsets[indices + 1] - starts
        sliced = bool(np.all(np.diff(indices) == 1))
    else:
        lengths = np.full(len(indices), picks.shape[1])
        sliced = False
    row_bytes = 8 if sliced or frames.dtype == np.float64 else 8 + frames.itemsize
    costs = 8 * _FRAME_TEMPS * lengths + d * (8 * 4 + row_bytes * lengths)
    for lo, hi in _chunks(costs, SCORE_CHUNK_BYTES):
        chunk = indices[lo:hi]
        local = np.zeros(hi - lo + 1, dtype=np.int64)
        np.cumsum(lengths[lo:hi], out=local[1:])
        if sliced:
            rows = frames[starts[lo]:starts[lo] + local[-1]]
        elif picks is None:
            rows = frames[np.repeat(starts[lo:hi] - local[:-1], lengths[lo:hi])
                          + np.arange(local[-1])]
        else:
            rows = frames[(starts[lo:hi, None] + picks[lo:hi]).ravel()]
        scored = _score_chunk(rows, chunk, local, params)
        del rows  # so that the next chunk is gathered after this one is gone
        yield scored


def _score_chunk(rows: np.ndarray, chunk: np.ndarray, local: np.ndarray,
                 params: FanParams) -> Scored:
    """One chunk of score: the videos chunk, whose frames are rows, in
    their stored dtype, cut at the offsets local. A function of its own so
    that the chunk's trace is gone before the next chunk is gathered."""
    rows = rows.astype(np.float64, copy=False)
    try:
        logits, trace, _, _ = _kernel(rows, _segments(rows, local), params)
    except NumericError as e:
        raise NumericError(f"dataset index {chunk[e.row]}: {e}") from e
    return Scored(chunk, local, logits, trace.alpha.reshape(-1),
                  trace.final_weights.reshape(-1))


def predict(logits) -> int:
    """Index of the maximum logit; ties resolve to the lowest index."""
    return int(np.argmax(as_vector(logits, "logits")))


def backward(features, params: FanParams, label: int) -> tuple[float, FanParams]:
    """Softmax cross-entropy loss and its exact parameter gradients, in the
    parameters' layout."""
    loss, _, grads = forward_backward(features, params, label)
    return loss, grads


def forward_backward(features, params: FanParams, label: int):
    """Like backward but also returns the logits, for training-loop metrics."""
    f = _frames(features, params)
    if not 0 <= label < params.num_classes:  # the kernel takes labels unchecked
        raise IndexError(f"label out of range for {params.num_classes} logits")
    logits, _, losses, grads = _stack_kernel(f[None], params, np.array([label]))
    return float(losses[0]), logits[0], grads


def gradient_pair(features, params: FanParams, label: int,
                  eps: float = 1e-5) -> tuple[np.ndarray, np.ndarray]:
    """The analytic gradient of one video's loss and its central-difference
    estimate, both flat in the layout order.

    The finite-difference side rebuilds parameters from a flat vector and
    reruns the forward pass, so it shares no code with backward.
    """
    _, grads = backward(features, params, label)

    def loss_of(flat):
        candidate = FanParams.from_flat(flat, params.feature_dim,
                                        params.num_classes, params.mode)
        logits, _ = forward(features, candidate)
        return softmax_cross_entropy(logits, label)[0]

    return grads.flat, finite_diff_gradient(loss_of, params.flatten(), eps)


def gradient_check(features, params: FanParams, label: int,
                   eps: float = 1e-5) -> float:
    """Max relative error of the analytic gradient against central differences."""
    return relative_error(*gradient_pair(features, params, label, eps))
