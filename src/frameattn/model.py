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
can be tiny, never make a cotangent divide by a tiny sum.

One kernel computes all of this for a (B, K, D) stack of B instances with K
frames each, and sums the gradients over B. Training steps whole minibatches
through it; forward, backward and forward_backward on one video's n x D
matrix are its B=1, K=n case, so ragged videos need no padding.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError, NumericError
from .numerics import (
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


@dataclass
class FanParams:
    """All trainable parameters of the head.

    q1 is carried in both modes (it is simply unused, with zero gradient,
    in SELF_ONLY) so checkpoints and flattening have one layout per (D, C).
    """

    q0: np.ndarray       # (D,) self-attention kernel
    q1: np.ndarray       # (2D,) relation-attention kernel
    class_w: np.ndarray  # (C, 2D) full mode, (C, D) self-only
    class_b: np.ndarray  # (C,)
    mode: Mode

    def __post_init__(self):
        self.q0 = as_vector(self.q0, "q0")
        self.q1 = as_vector(self.q1, "q1")
        self.class_w = as_matrix(self.class_w, "class_w")
        self.class_b = as_vector(self.class_b, "class_b")
        self.mode = Mode(self.mode)
        d = self.q0.shape[0]
        if self.q1.shape[0] != 2 * d:
            raise DimensionError(f"q1 must have length {2 * d}, got {self.q1.shape[0]}")
        expect_in = 2 * d if self.mode is Mode.FULL else d
        if self.class_w.shape[1] != expect_in:
            raise DimensionError(
                f"class_w must have {expect_in} columns in {self.mode.value} mode, "
                f"got {self.class_w.shape[1]}"
            )
        if self.class_b.shape[0] != self.class_w.shape[0]:
            raise DimensionError("class_b length must match class_w rows")

    @property
    def feature_dim(self) -> int:
        return self.q0.shape[0]

    @property
    def num_classes(self) -> int:
        return self.class_b.shape[0]

    def copy(self) -> "FanParams":
        return FanParams(self.q0.copy(), self.q1.copy(),
                         self.class_w.copy(), self.class_b.copy(), self.mode)

    def flatten(self) -> np.ndarray:
        """Fixed layout: q0, q1, class_w row-major, class_b."""
        return np.concatenate(
            [self.q0, self.q1, self.class_w.ravel(), self.class_b]
        )

    @classmethod
    def from_flat(cls, flat, dim: int, num_classes: int, mode: Mode) -> "FanParams":
        """Inverse of flatten for the given dimensions and mode."""
        mode = Mode(mode)
        flat = np.asarray(flat, dtype=np.float64)
        in_dim = 2 * dim if mode is Mode.FULL else dim
        sizes = [dim, 2 * dim, num_classes * in_dim, num_classes]
        if flat.shape != (sum(sizes),):
            raise DimensionError(
                f"flat parameter vector must have length {sum(sizes)}, got {flat.shape}"
            )
        q0, q1, w, b = np.split(flat, np.cumsum(sizes)[:-1])
        return cls(q0, q1, w.reshape(num_classes, in_dim), b, mode)


@dataclass
class FanGradients:
    """Cotangents for every FanParams field, same shapes."""

    q0: np.ndarray
    q1: np.ndarray
    class_w: np.ndarray
    class_b: np.ndarray

    @classmethod
    def zeros_like(cls, params: FanParams) -> "FanGradients":
        return cls(np.zeros_like(params.q0), np.zeros_like(params.q1),
                   np.zeros_like(params.class_w), np.zeros_like(params.class_b))

    def add(self, other: "FanGradients") -> None:
        self.q0 += other.q0
        self.q1 += other.q1
        self.class_w += other.class_w
        self.class_b += other.class_b

    def scale(self, k: float) -> None:
        self.q0 *= k
        self.q1 *= k
        self.class_w *= k
        self.class_b *= k

    def flatten(self) -> np.ndarray:
        return np.concatenate(
            [self.q0, self.q1, self.class_w.ravel(), self.class_b]
        )


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
    """Seeded uniform init: each weight block drawn from
    +-sqrt(6/(fan_in+fan_out)); bias zero."""
    mode = Mode(mode)
    if dim < 1 or num_classes < 1:
        raise DimensionError("dim and num_classes must be positive")
    rng = np.random.default_rng(seed)

    def block(fan_in, fan_out, shape):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape)

    in_dim = 2 * dim if mode is Mode.FULL else dim
    return FanParams(
        q0=block(dim, 1, dim),
        q1=block(2 * dim, 1, 2 * dim),
        class_w=block(in_dim, num_classes, (num_classes, in_dim)),
        class_b=np.zeros(num_classes),
        mode=mode,
    )


def self_attention(features, q0) -> np.ndarray:
    """Per-frame weights alpha_i = sigmoid(f_i . q0), each in (0, 1)."""
    f = as_matrix(features, "features")
    q = as_vector(q0, "q0")
    if f.shape[1] != q.shape[0]:
        raise DimensionError(f"feature dim {f.shape[1]} != q0 length {q.shape[0]}")
    return sigmoid(f @ q)


def global_anchor(features, alpha) -> np.ndarray:
    """Weighted mean of the frame rows: sum(alpha_i f_i) / sum(alpha_i).

    A convex combination, so the result lies in the hull of the rows.
    """
    f = as_matrix(features, "features")
    a = as_vector(alpha, "alpha")
    if a.shape[0] != f.shape[0]:
        raise DimensionError("alpha length must equal the number of frames")
    if np.any(a <= 0):
        raise ValueError("anchor weights must all be positive")
    # normalize first: for n=1 the weight is exactly 1.0, so the anchor is
    # the row itself bit-for-bit
    return (a / np.sum(a)) @ f


def relation_attention(features, anchor, q1) -> np.ndarray:
    """Per-frame weights beta_i = sigmoid([f_i : anchor] . q1)."""
    f = as_matrix(features, "features")
    a = as_vector(anchor, "anchor")
    q = as_vector(q1, "q1")
    d = f.shape[1]
    if a.shape[0] != d:
        raise DimensionError("anchor length must equal the feature dim")
    if q.shape[0] != 2 * d:
        raise DimensionError(f"q1 must have length {2 * d}, got {q.shape[0]}")
    logits = f @ q[:d] + float(a @ q[d:])
    return sigmoid(logits)


def aggregate(features, anchor, alpha, beta) -> np.ndarray:
    """Weighted mean of the concatenated rows [f_i : anchor].

    With w_i = alpha_i*beta_i, the top half is sum(w_i f_i)/sum(w_i) and the
    bottom half is the anchor itself (every row shares it, and the weights
    average to one).
    """
    f = as_matrix(features, "features")
    anc = as_vector(anchor, "anchor")
    a = as_vector(alpha, "alpha")
    b = as_vector(beta, "beta")
    if not (a.shape[0] == b.shape[0] == f.shape[0]):
        raise DimensionError("alpha/beta length must equal the number of frames")
    if anc.shape[0] != f.shape[1]:
        raise DimensionError("anchor length must equal the feature dim")
    w = a * b
    if np.any(w <= 0):
        raise ValueError("combined weights must all be positive")
    top = (w / np.sum(w)) @ f
    return np.concatenate([top, anc])


def aggregate_self_only(features, alpha) -> np.ndarray:
    """Ablation without relation weights: identical to global_anchor."""
    return global_anchor(features, alpha)


def _kernel(f: np.ndarray, params: FanParams, labels=None):
    """The head on a validated (B, K, D) stack: B instances of K frames each.

    Returns the (B, C) logits and the attention trace with a leading B axis
    on every field. Given one label per instance it also returns the (B,)
    cross-entropy losses and the parameter gradients summed over B;
    otherwise those two are None. A non-finite value raises NumericError
    whose row is the batch position of the first bad instance.
    """
    b, k, d = f.shape
    rows = f.reshape(b * k, d)

    # weights are normalized before averaging so that a single frame passes
    # through exactly (its weight is 1.0 bit-for-bit)
    alpha = sigmoid(rows @ params.q0).reshape(b, k)
    alpha_n = alpha / alpha.sum(axis=1, keepdims=True)
    anchor = np.matmul(alpha_n[:, None, :], f)[:, 0, :]

    if params.mode is Mode.FULL:
        beta = sigmoid((rows @ params.q1[:d]).reshape(b, k)
                       + (anchor @ params.q1[d:])[:, None])
        w = alpha * beta
        final = w / w.sum(axis=1, keepdims=True)
        top = np.matmul(final[:, None, :], f)[:, 0, :]
        agg = np.concatenate([top, anchor], axis=1)
    else:
        beta = np.ones_like(alpha)
        final = alpha_n
        agg = anchor

    logits = agg @ params.class_w.T + params.class_b
    if not np.all(np.isfinite(logits)):
        raise NumericError("forward pass produced non-finite logits",
                           row=int(np.argmin(np.all(np.isfinite(logits), axis=1))))
    trace = AttentionTrace(alpha=alpha, beta=beta, final_weights=final,
                           anchor=anchor, aggregate=agg)
    if labels is None:
        return logits, trace, None, None

    losses, g_logits = softmax_cross_entropy(logits, labels)
    g_agg = g_logits @ params.class_w

    if params.mode is Mode.FULL:
        g_top = g_agg[:, :d]
        # through the weighted mean: (f_i - top) . g_top, times w_i / W
        y = final * (np.matmul(f, g_top[:, :, None])[:, :, 0]
                     - np.sum(top * g_top, axis=1, keepdims=True))
        g_t = y * (1.0 - beta)
        gt_sum = g_t.sum(axis=1)
        d_q1 = np.concatenate([g_t.reshape(-1) @ rows, gt_sum @ anchor])
        g_anchor = g_agg[:, d:] + gt_sum[:, None] * params.q1[d:]
    else:
        y = 0.0
        g_anchor = g_agg
        d_q1 = np.zeros_like(params.q1)
    # through the anchor: (f_i - anchor) . g_anchor, times alpha_i / A
    g_s = (y + alpha_n * (np.matmul(f, g_anchor[:, :, None])[:, :, 0]
                          - np.sum(anchor * g_anchor, axis=1, keepdims=True))
           ) * (1.0 - alpha)

    grads = FanGradients(q0=g_s.reshape(-1) @ rows, q1=d_q1,
                         class_w=g_logits.T @ agg, class_b=g_logits.sum(axis=0))
    if not np.all(np.isfinite(grads.flatten())):
        raise NumericError("backward pass produced non-finite gradients",
                           row=_first_bad_row(f, params, labels))
    return logits, trace, losses, grads


def _first_bad_row(f: np.ndarray, params: FanParams, labels) -> int | None:
    """Batch position of the first instance whose own gradients are not
    finite; None when each is finite and only their sum overflowed."""
    if len(f) == 1:
        return 0
    for r in range(len(f)):
        try:
            _kernel(f[r:r + 1], params, labels[r:r + 1])
        except NumericError:
            return r
    return None


def _as_video(features, params: FanParams) -> np.ndarray:
    """One video's n x D features as a (1, n, D) stack."""
    f = as_matrix(features, "features")
    if f.shape[1] != params.feature_dim:
        raise DimensionError(
            f"feature dim {f.shape[1]} != params dim {params.feature_dim}")
    return f[None]


def forward(features, params: FanParams) -> tuple[np.ndarray, AttentionTrace]:
    """Logits plus the attention trace for one video's feature matrix."""
    logits, trace, _, _ = _kernel(_as_video(features, params), params)
    return logits[0], AttentionTrace(
        alpha=trace.alpha[0], beta=trace.beta[0],
        final_weights=trace.final_weights[0], anchor=trace.anchor[0],
        aggregate=trace.aggregate[0])


def predict(logits) -> int:
    """Index of the maximum logit; ties resolve to the lowest index."""
    return int(np.argmax(as_vector(logits, "logits")))


def backward(features, params: FanParams, label: int) -> tuple[float, FanGradients]:
    """Softmax cross-entropy loss and its exact parameter gradients."""
    loss, _, grads = forward_backward(features, params, label)
    return loss, grads


def forward_backward(features, params: FanParams, label: int):
    """Like backward but also returns the logits, for training-loop metrics."""
    logits, _, losses, grads = _kernel(_as_video(features, params), params,
                                       np.array([label]))
    return float(losses[0]), logits[0], grads


def forward_backward_batch(stack, params: FanParams, labels):
    """Losses, logits and summed gradients of a minibatch.

    stack is a (B, K, D) array holding K frames of each of B instances and
    labels their B class indices. Returns the (B,) per-instance losses, the
    (B, C) logits and the parameter gradients summed over the batch; each
    instance's share equals forward_backward on its own K frames.
    """
    f = np.asarray(stack, dtype=np.float64)
    if f.ndim != 3 or min(f.shape) < 1:
        raise DimensionError(
            f"stack must be a non-empty (B, K, D) array, got {f.shape}")
    if f.shape[2] != params.feature_dim:
        raise DimensionError(
            f"feature dim {f.shape[2]} != params dim {params.feature_dim}")
    if not np.all(np.isfinite(f)):
        raise DataError("stack contains non-finite entries")
    logits, _, losses, grads = _kernel(f, params, np.asarray(labels))
    return losses, logits, grads


def gradient_check(features, params: FanParams, label: int,
                   eps: float = 1e-5) -> float:
    """Max relative error of the analytic gradient against central differences.

    The finite-difference side rebuilds parameters from a flat vector and
    reruns the forward pass, so it shares no code with backward.
    """
    _, grads = backward(features, params, label)

    def loss_of(flat):
        candidate = FanParams.from_flat(flat, params.feature_dim,
                                        params.num_classes, params.mode)
        logits, _ = forward(features, candidate)
        return softmax_cross_entropy(logits, label)[0]

    fd = finite_diff_gradient(loss_of, params.flatten(), eps)
    return relative_error(grads.flatten(), fd)
