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

Backward-pass bookkeeping (full mode). q0 and q1 reach the loss only
through each frame's projections p_i = f_i . q0, r_i = f_i . q1[:D] and
s_i = f_i . q1[D:]. With F the feature matrix, u the weighted mean in the
top half of v and a the anchor in its bottom half, g_u and g_a the halves
of dL/dv, W = sum(alpha*beta), A = sum(alpha) and a . q1[D:] =
sum_i alpha_i s_i / A, the cotangents of the projections are

    y_i   = w_i/W (f_i - u) . g_u               (w_i = alpha_i beta_i)
    g_r_i = y_i (1 - beta_i)                    (dL/dr_i, through beta)
    e_i   = (f_i - a) . g_a + sum(g_r) (s_i - a . q1[D:])
    g_p_i = (y_i + alpha_i/A e_i) (1 - alpha_i)  (dL/dp_i)
    g_s_i = sum(g_r) alpha_i/A                  (dL/ds_i)

and the D-wide gradients are two products: [dq0 : dq1] = G F, G the rows
g_p, g_r and g_s, and dclass_w = g_logits^T v. Each (f_i - m) . g for a mean m
is f_i . g less the weighted mean of those dot products, so F meets each
half of dL/dv once. Self-only mode keeps the row g_p with y = 0 and e_i =
(f_i - a) . dL/dv; q1's gradient is zero. Only normalized weights appear,
so saturated sigmoids, whose alpha and beta can be tiny, never make a
cotangent divide by a tiny sum. The w_i are direct products unless one of
a batch underflows; then _kernel scales them by powers of two, which is
exact, so both ways give the same bits where both apply.

One kernel (_kernel) computes all of this for a (B, K, D) stack of B videos
of K frames each: per-frame values are (B, K) arrays reduced along axis 1,
the projections are one product and both weighted means one batched
matmul. Training's minibatches, forward, backward and forward_backward on
one video (B=1, K=n) and the scoring pass all call it; with labels it also
returns the gradients, summed over B.

score runs the head over the videos of a data.PackedFrames, the view
that the calling run or evaluation resolved once from its dataset, in
equal-length buckets: the selection sorted by length, each run of one
length cut into stacks whose working set is about SCORE_CHUNK_BYTES, so
the frames held at a time do not grow with the dataset. That walk is one
generator, equal_length_stacks, which runs a head on each stack: _kernel
for score, the per-frame scorer of the score-fusion baseline's held-out
pass (evaluation.score_fusion_baseline). The walk owns one float64 buffer,
sized to the largest stack it cuts, and gathers every stack into it, so
no head may keep a stack (or a view of one) past its call; neither head
does. It names the dataset index of a failing video for both heads.
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
    as_array,
    as_matrix,
    as_vector,
    real_array,
    require_integer,
    sigmoid,
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
    require_integer("dim", dim, 1, DimensionError)
    require_integer("num_classes", num_classes, 1, DimensionError)
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
    and assigning one copies the value into its block. The constructor
    reads D from q0 and C from class_b and assigns all four blocks, so a
    block passes one rule however it is set: numerics.as_array (real,
    finite, non-empty, of the block's rank; DataError or DimensionError
    naming the block), then the block's shape in the mode (DimensionError).
    A refused assignment leaves `flat` unchanged. flatten() returns a copy
    of `flat`. Gradients use the same layout: backward returns them as a
    FanParams.
    """

    def __init__(self, q0, q1, class_w, class_b, mode: Mode):
        blocks = layout(len(as_vector(q0, "q0")), len(as_vector(class_b, "class_b")), mode)
        self._bind(np.zeros(blocks[-1].slice.stop), blocks, Mode(mode))
        self.q0, self.q1, self.class_w, self.class_b = q0, q1, class_w, class_b

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
            value = as_array(value, view.ndim, name)
            if value.shape != view.shape:
                raise DimensionError(f"{name} must have shape {view.shape} "
                                     f"in {self.mode.value} mode, got {value.shape}")
            view[...] = value
        else:
            object.__setattr__(self, name, value)

    @property
    def feature_dim(self) -> int:
        return self.q0.shape[0]

    @property
    def num_classes(self) -> int:
        return self.class_b.shape[0]

    def flatten(self) -> np.ndarray:
        """A copy of the flat vector: q0, q1, class_w row-major, class_b."""
        return self.flat.copy()

    @classmethod
    def from_flat(cls, flat, dim: int, num_classes: int, mode: Mode) -> "FanParams":
        """Inverse of flatten for the given dimensions and mode. The result
        is stored in `flat` itself when that is a contiguous float64 vector."""
        blocks = layout(dim, num_classes, mode)
        flat = np.ascontiguousarray(as_vector(flat, "parameter vector"))
        if flat.shape != (blocks[-1].slice.stop,):
            raise DimensionError(f"flat parameter vector must have length "
                                 f"{blocks[-1].slice.stop}, got {flat.shape}")
        return cls._over(flat, blocks, Mode(mode))


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


def init_flat(blocks, seed: int) -> np.ndarray:
    """Seeded uniform init of a flat vector laid out as `blocks`: each block
    but the last drawn, in order, from +-sqrt(6/(fan_in+fan_out)); the last,
    the bias, zero."""
    flat = np.zeros(blocks[-1].slice.stop)
    rng = np.random.default_rng(seed)
    for _, where, shape in blocks[:-1]:
        # a kernel vector has fan_out 1, a weight matrix is (fan_out, fan_in)
        fan_out = shape[0] if len(shape) == 2 else 1
        limit = np.sqrt(6.0 / (shape[-1] + fan_out))
        flat[where] = rng.uniform(-limit, limit, size=shape).ravel()
    return flat


def init_params(dim: int, num_classes: int, mode: Mode = Mode.FULL,
                seed: int = 0) -> FanParams:
    """init_flat on the head's layout for (dim, num_classes, mode)."""
    blocks = layout(dim, num_classes, mode)
    return FanParams._over(init_flat(blocks, seed), blocks, Mode(mode))


@np.errstate(over="ignore", invalid="ignore")
def _kernel(f: np.ndarray, params: FanParams, labels=None):
    """The head on a validated float64 (B, K, D) stack of B videos of K
    frames each.

    Returns the (B, C) logits and the attention trace: per-frame fields are
    (B, K), per-video fields (B, D) or (B, 2D). Given one label per video it
    also returns the (B,) cross-entropy losses and the parameter gradients
    summed over B; otherwise those two are None. A non-finite value raises
    NumericError whose row is the position of the first bad video; its own
    checks see every non-finite result, so numpy's warnings are silenced.
    """
    b, k, d = f.shape
    rows = f.reshape(b * k, d)
    full = params.mode is Mode.FULL
    # q0, q1[:D] and q1[D:] lead the flat vector: each frame's projections
    # on them (on q0 alone self-only) are one product
    kernels = params.flat[:(3 if full else 1) * d].reshape(-1, d)
    proj = (kernels @ rows.T).reshape(-1, b, k)
    alpha = sigmoid(proj[0])

    # weights[:, 0] averages the top half of the aggregate and weights[:, -1]
    # the anchor (one row self-only); they are normalized before averaging
    # so that a single frame passes through exactly (its weight is 1.0
    # bit-for-bit). The divisions write into one shared buffer, multiplied
    # once, rather than np.stack of the two rows: a (2, 128, 512) scoring
    # stack takes 97 us here against 159 us stacked (2-core x86-64 host,
    # numpy 2.4, one BLAS thread)
    weights = np.empty((b, 2 if full else 1, k))
    alpha_n = np.divide(alpha, alpha.sum(axis=1)[:, None], out=weights[:, -1])
    if full:
        anchor_s = (alpha_n * proj[2]).sum(axis=1)  # anchor . q1[D:]
        beta = sigmoid(proj[1] + anchor_s[:, None])
        # w_i = alpha_i beta_i when no product underflows; else each video's
        # scaled by the power of two that brings its largest to [1/4, 1),
        # exponents added apart from mantissas: exact even if all underflow.
        # The same bits either way; the guard skips frexp, which costs 6 us a
        # training batch and 12 us an (8, 35, 512) scoring stack
        w = alpha * beta
        if not w.min() >= 2.0**-1022:  # the smallest normal float64
            ma, ea = np.frexp(alpha)
            mb, eb = np.frexp(beta)
            e = ea + eb
            w = np.ldexp(ma * mb, e - e.max(axis=1)[:, None])
        final = np.divide(w, w.sum(axis=1)[:, None], out=weights[:, 0])
    else:
        beta, final = np.ones_like(alpha), alpha_n
    means = weights @ f  # (B, 2, D): top half and anchor; (B, 1, D) self-only
    agg = means.reshape(b, -1)

    logits = agg @ params.class_w.T + params.class_b
    if not np.isfinite(logits).all():
        raise NumericError("forward pass produced non-finite logits",
                           row=int(np.argmin(np.all(np.isfinite(logits), axis=1))))
    trace = AttentionTrace(alpha=alpha, beta=beta, final_weights=final,
                           anchor=means[:, -1], aggregate=agg)
    if labels is None:
        return logits, trace, None, None

    losses, g_logits = _xent(logits, labels)
    g_agg = g_logits @ params.class_w
    # (f_i - m) . g for each mean m and its half g of g_agg: f_i . g less
    # the weighted mean of those
    fg = g_agg.reshape(b, -1, d) @ f.transpose(0, 2, 1)
    fg -= (weights * fg).sum(axis=2, keepdims=True)
    cot = np.empty_like(proj)  # the cotangents g_p, g_r, g_s of the projections
    if full:
        y = final * fg[:, 0]
        g_r = np.multiply(y, 1.0 - beta, out=cot[1])
        gr_sum = g_r.sum(axis=1)
        np.multiply(gr_sum[:, None], alpha_n, out=cot[2])
        # (f_i - anchor) . dL/danchor, direct and through beta
        g_e = fg[:, 1] + gr_sum[:, None] * (proj[2] - anchor_s[:, None])
    else:
        y, g_e = 0.0, fg[:, 0]
    np.multiply(y + alpha_n * g_e, 1.0 - alpha, out=cot[0])

    grads = FanParams._over(np.zeros_like(params.flat), params.blocks, params.mode)
    grads.flat[:kernels.size] = (cot.reshape(len(kernels), -1) @ rows).ravel()
    np.matmul(g_logits.T, agg, out=grads.class_w)
    g_logits.sum(axis=0, out=grads.class_b)
    if not np.isfinite(grads.flat).all():
        name, _ = locate(params.blocks, int(np.argmin(np.isfinite(grads.flat))))
        raise NumericError(f"backward pass produced non-finite gradients in block '{name}'",
                           row=_first_bad_row(f, params, labels))
    return logits, trace, losses, grads


def _first_bad_row(f: np.ndarray, params: FanParams, labels) -> int | None:
    """Batch position of the first instance whose own gradients are not
    finite; None when each is finite and only their sum overflowed."""
    # the recursion's base case, not a fast path: without it a failing
    # single row would run this again on itself without end
    if len(f) == 1:
        return 0
    for r in range(len(f)):
        try:
            _kernel(f[r:r + 1], params, labels[r:r + 1])
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
    logits, trace, _, _ = _kernel(_frames(features, params)[None], params)
    return logits[0], AttentionTrace(**{k: v[0] for k, v in vars(trace).items()})


# equal_length_stacks cuts stacks of equal-length videos, sized to keep a
# working set within SCORE_CHUNK_BYTES: per frame, its D-wide row as gathered
# and widened to float64 (12 bytes an element whatever the stored dtype, so
# that float32 and float64 frames are cut into the same stacks and give the
# same bits) and the kernel's float64 temporaries, _FRAME_TEMPS at its
# peak (in full mode when the weight products underflow: the three
# projections, alpha, beta, both weight rows, the products and the scaled
# path's mantissas and exponents); per video, its two D-wide means (the top
# half and the anchor, of which the aggregate is a view). A video over the
# budget on its own is a stack of its own. The walk drops each stack once
# its head returns; the score-fusion baseline's head keeps C scores a frame.
# Bigger budgets score a little faster, from fewer stacks (an all-frame
# evaluate of the AFEW-shaped benchmark file took 57 ms at 1 MiB and 47 ms
# at 8 MiB on a 2-core x86-64 host), but hold more at once and raise the
# scoring run's peak RSS.
SCORE_CHUNK_BYTES = 1 << 20
_FRAME_TEMPS = 14


class Scored(NamedTuple):
    """A scoring pass: its n videos' dataset indices and labels, the (n + 1,)
    offsets of their frames in the per-frame fields, their (n, C) logits,
    and each frame's alpha and final weight, video after video."""

    indices: np.ndarray
    labels: np.ndarray
    offsets: np.ndarray
    logits: np.ndarray
    alpha: np.ndarray
    final_weights: np.ndarray


def score(params: FanParams, packed, indices=None, picks=None) -> Scored:
    """Run the head over whole videos of a data.PackedFrames, the view a
    call resolved from its dataset (Dataset.packed); score reads no
    Dataset.

    A head whose feature dim, then class count, is not that of the packed
    frames (their width, their num_classes) raises DimensionError. indices
    selects the videos, in order, as PackedFrames.select reads them
    (repeats are scored again); by default every video. select refuses an
    empty selection with ConfigError, before any work. With picks, an
    (len(indices), k) array (or nested lists) of frame positions, video j
    is scored on its frames picks[j] only; picks are checked once, on
    entry: ragged rows, values that are not real numbers, another shape or
    k = 0 raise DimensionError, and a position that is not an integer in
    [0, n) for its video's n frames raises IndexError.
    Returns one Scored, the videos in the order of indices; it holds 16
    bytes a frame and C logits a video of the selection.

    The videos are run through _kernel in buckets of one length, one stack
    at a time, as equal_length_stacks gathers them, and not checked again:
    the dataset checked its frames when they entered it (an opened one's
    stack checks each video's frames as it reads them). A non-finite
    logit, which a non-finite value written into them in place also gives,
    raises NumericError naming the dataset index of the first bad video in
    length order, not in the order of indices.
    """
    d, c = packed.dim, packed.num_classes
    if params.feature_dim != d:
        raise DimensionError(f"params dim {params.feature_dim} != dataset dim {d}")
    if params.num_classes != c:
        raise DimensionError(f"params classes {params.num_classes} != dataset classes {c}")
    indices = packed.select(indices)
    lengths = packed.lengths(indices)
    if picks is not None:
        picks = real_array(picks, "picks", DimensionError)
        if picks.ndim != 2 or len(picks) != len(indices) or not picks.shape[1]:
            raise DimensionError(f"picks shape {picks.shape} is not ({len(indices)}, k), k >= 1")
        if picks.dtype.kind not in "iu" or not ((0 <= picks) & (picks < lengths[:, None])).all():
            raise IndexError("picks must be integer frame positions within their videos")
        lengths = np.full(len(indices), picks.shape[1])
    local = np.concatenate(([0], np.cumsum(lengths)))
    logits = np.empty((len(indices), c))
    alpha, final = np.empty(local[-1]), np.empty(local[-1])
    for pos, (out, trace, _, _) in equal_length_stacks(
            packed, indices, lengths, lambda f: _kernel(f, params), picks):
        logits[pos] = out
        cells = local[pos, None] + np.arange(trace.alpha.shape[1])
        alpha[cells] = trace.alpha
        final[cells] = trace.final_weights
    return Scored(indices, packed.labels[indices], local, logits, alpha, final)


def equal_length_stacks(packed, indices: np.ndarray, lengths: np.ndarray, head, picks=None):
    """The walk of a scoring pass over the videos at dataset indices
    `indices` of a data.PackedFrames, `lengths` their frame counts (with
    picks, the pick count k of every video), running `head` on each stack.

    Yields (positions, head(stack)): the selection is sorted by length (a
    stable sort), each run of one length cut into stacks within
    SCORE_CHUNK_BYTES, and each stack gathered as float64
    (PackedFrames.stack) only when it is reached. positions index
    `indices`; stack row b holds every frame of video indices[positions[b]],
    or its frames picks[positions[b]]. Every stack is gathered into one
    float64 buffer that the walk allocates when it starts, sized to the
    largest stack it cuts (a buffer of SCORE_CHUNK_BYTES would be larger
    than most walks need): the next stack overwrites it, so head must not
    keep its stack, or a view of it, past its call. The walk keeps no
    stack object once its head returns, and holds one stack's frames at a
    time. A head's NumericError carries the stack row
    of its first bad video (both heads give one: _kernel without labels
    raises only its logit check, and the baseline's frame_scores always
    sets it); the walk raises it again as "dataset index {i}: {message}",
    i that video's dataset index.
    """
    d = packed.dim
    order = np.argsort(lengths, kind="stable")
    # the first position of each run of one length (every length is >= 1)
    firsts = np.flatnonzero(np.diff(lengths[order], prepend=0)).tolist()
    stacks = []  # (positions, k) of each stack, in walk order
    for lo, hi in zip(firsts, firsts[1:] + [len(order)]):
        k = int(lengths[order[lo]])
        cost = 8 * _FRAME_TEMPS * k + d * (8 * 2 + 12 * k)
        step = max(1, SCORE_CHUNK_BYTES // cost)
        stacks += [(order[at:min(at + step, hi)], k) for at in range(lo, hi, step)]
    buffer = np.empty(max(len(pos) * k for pos, k in stacks) * d)
    for pos, k in stacks:
        frame_ids = None if picks is None else picks[pos]
        try:
            out = head(packed.stack(indices[pos], frame_ids,
                                    buffer[:len(pos) * k * d].reshape(len(pos), k, d)))
        except NumericError as e:
            raise NumericError(f"dataset index {indices[pos[e.row]]}: {e}") from e
        yield pos, out


def backward(features, params: FanParams, label: int) -> tuple[float, FanParams]:
    """Softmax cross-entropy loss and its exact parameter gradients, in the
    parameters' layout."""
    loss, _, grads = forward_backward(features, params, label)
    return loss, grads


def forward_backward(features, params: FanParams, label: int):
    """Like backward but also returns the logits; one video's loss, logits
    and gradients (the training loop calls _kernel on whole minibatches)."""
    f = _frames(features, params)
    require_integer("label", label, error=IndexError)
    if not 0 <= label < params.num_classes:  # the kernel takes labels unchecked
        raise IndexError(f"label out of range for {params.num_classes} logits")
    logits, _, losses, grads = _kernel(f[None], params, np.array([label]))
    return float(losses[0]), logits[0], grads

