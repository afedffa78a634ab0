"""Dense numeric primitives shared by the model, trainer, and tests.

Everything here operates on float64. Vectors are 1-d numpy arrays with at
least one entry, matrices are 2-d arrays with at least one row and column;
both must be entirely finite. The finite-difference gradient lives here so
the analytic backward pass elsewhere can be checked against an oracle that
never shares its code path.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DataError, DimensionError, NumericError

# Open-interval bounds for the logistic: in float64 the exact formula
# saturates to 0.0 / 1.0 for |x| beyond ~37, which would break the
# strictly-in-(0,1) guarantee downstream code relies on.
_SIGMOID_LO = np.nextafter(0.0, 1.0)
_SIGMOID_HI = np.nextafter(1.0, 0.0)


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Validate and convert to a finite 1-d float64 array of length >= 1."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be 1-d, got shape {arr.shape}")
    if arr.size == 0:
        raise DimensionError(f"{name} must have at least one entry")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains non-finite entries")
    return arr


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a finite 2-d float64 array, rows/cols >= 1."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-d, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionError(f"{name} must have at least one row and column")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains non-finite entries")
    return arr


def sigmoid(x):
    """Numerically stable logistic, clamped into the open interval (0, 1).

    Uses e = exp(-|x|), so exp never sees a positive argument: 1/(1+e) for
    x >= 0 and e/(1+e) below. Accepts scalars or arrays and returns the
    matching kind.
    """
    arr = np.asarray(x, dtype=np.float64)
    ex = np.exp(-np.abs(arr))
    out = np.where(arr >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))
    # maximum/minimum rather than np.clip, whose call overhead dominates on
    # the few values of one video
    np.maximum(out, _SIGMOID_LO, out=out)
    np.minimum(out, _SIGMOID_HI, out=out)
    return float(out) if out.ndim == 0 else out


def dot(a, b) -> float:
    """Inner product of two equal-length vectors, accumulated in float64."""
    va = as_vector(a, "a")
    vb = as_vector(b, "b")
    if va.shape[0] != vb.shape[0]:
        raise DimensionError(f"dot length mismatch: {va.shape[0]} vs {vb.shape[0]}")
    return float(np.dot(va, vb))


def concat(a, b) -> np.ndarray:
    """Concatenate two vectors, a's entries first."""
    va = as_vector(a, "a")
    vb = as_vector(b, "b")
    return np.concatenate([va, vb])


def softmax(logits) -> np.ndarray:
    """Softmax with max-subtraction stabilization."""
    z = as_vector(logits, "logits")
    shifted = z - np.max(z)
    ez = np.exp(shifted)
    return ez / np.sum(ez)


def softmax_cross_entropy(logits, label):
    """Cross-entropy loss of softmax(logits) against integer labels.

    Takes one logit vector and one label, or (B, C) logits and B labels.
    Returns (loss, gradient) where gradient = softmax(logits) - onehot(label),
    per row; each gradient row sums to zero up to rounding. A single vector
    gives a float loss and a (C,) gradient, a batch (B,) losses and a (B, C)
    gradient.
    """
    single = np.ndim(logits) == 1
    z = as_vector(logits, "logits")[None] if single else as_matrix(logits, "logits")
    labels = np.atleast_1d(np.asarray(label))
    if labels.shape != (z.shape[0],):
        raise DimensionError(f"{labels.shape[0]} labels for {z.shape[0]} logit rows")
    if np.any((labels < 0) | (labels >= z.shape[1])):
        raise IndexError(f"label out of range for {z.shape[1]} logits")
    rows = np.arange(z.shape[0])
    shifted = z - np.max(z, axis=1, keepdims=True)
    logsumexp = np.log(np.sum(np.exp(shifted), axis=1))
    loss = logsumexp - shifted[rows, labels]
    grad = np.exp(shifted - logsumexp[:, None])
    grad[rows, labels] -= 1.0
    if single:
        return float(loss[0]), grad[0]
    return loss, grad


def finite_diff_gradient(
    loss_fn: Callable[[np.ndarray], float],
    params,
    eps: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector.

    Independent oracle for analytic gradients: (f(p + eps*e_j) - f(p - eps*e_j))
    / (2*eps) per coordinate. Raises NumericError if any probe evaluation is
    non-finite.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    p0 = as_vector(params, "params")
    grad = np.zeros_like(p0)
    for j in range(p0.shape[0]):
        probe = p0.copy()
        probe[j] = p0[j] + eps
        fplus = float(loss_fn(probe))
        probe[j] = p0[j] - eps
        fminus = float(loss_fn(probe))
        if not (np.isfinite(fplus) and np.isfinite(fminus)):
            raise NumericError(f"loss non-finite at finite-difference probe {j}")
        grad[j] = (fplus - fminus) / (2.0 * eps)
    return grad


def relative_error(a, b) -> float:
    """Max elementwise |a-b| / max(1e-8, |a|+|b|), the gradient-check metric."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = np.maximum(1e-8, np.abs(a) + np.abs(b))
    return float(np.max(np.abs(a - b) / denom))
