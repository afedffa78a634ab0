"""Dense numeric primitives shared by the model, trainer, and tests, and
the one rule for each kind of value that comes from outside the library:
require_integer (an int or numpy integer, not a bool, at least a minimum
and, for a count that sizes an array, at most COUNT_MAX),
require_real (a finite int or float, numpy's included, not a bool; an int
too large for a float is not finite) and real_array (an array of bool,
int, uint or float values: not text, objects, complex values or ragged
rows). require_real raises ConfigError; require_integer and real_array
raise the error class their caller gives. Each message names the field
and shows the value through _shown. as_array widens what real_array
accepts to float64, which is exact; first_nonfinite_row (one np.isfinite
pass) is the one finite check of input frames and, through as_array, of
parameter blocks.

Everything else operates on float64. Vectors are 1-d arrays with at least
one entry, matrices 2-d arrays with rows and columns; both must be entirely
finite. The finite-difference oracle that checks the analytic backward
pass is not here: it lives in the test suite (tests/gradcheck.py), so it
never shares a code path with what it checks.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DataError, DimensionError

# Open-interval bounds for the logistic: in float64 the exact formula
# saturates to 0.0 / 1.0 for |x| beyond ~37, which would break the
# strictly-in-(0,1) guarantee downstream code relies on.
_SIGMOID_LO = np.nextafter(0.0, 1.0)
_SIGMOID_HI = np.nextafter(1.0, 0.0)


# The largest count a setting that sizes an array may hold: the width of the
# FANF and FANP u32 header fields (dim, class count, frame count). Larger
# counts would otherwise reach numpy, which refuses them with a bare
# ValueError; a seed or an epoch count sizes nothing and has no bound.
COUNT_MAX = 2**32 - 1


def require_integer(name: str, value, minimum=None, error=ConfigError, maximum=None) -> None:
    """Raise `error` naming `name` unless value is an int or a numpy integer
    (a bool is not), at least `minimum` and at most `maximum` if given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {_shown(value)}")
    _require_at_least(name, value, minimum, error)
    if maximum is not None and value > maximum:
        raise error(f"{name} must be at most {maximum}, got {_shown(value, str)}")


def require_real(name: str, value, minimum=None) -> None:
    """Raise ConfigError naming `name` unless value is a finite int or
    float, numpy's included (a bool is not), at least `minimum` if one is
    given."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{name} must be a real number, got {_shown(value)}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise ConfigError(f"{name} must be finite, got {_shown(value, str)}")
    _require_at_least(name, value, minimum, ConfigError)


def _require_at_least(name: str, value, minimum, error) -> None:
    if minimum is not None and value < minimum:
        bound = "non-negative" if minimum == 0 else f"at least {minimum}"
        raise error(f"{name} must be {bound}, got {_shown(value, str)}")


def _shown(value, show=repr) -> str:
    """show(value) for a message; a value holding an int too long for
    Python to print (over 4300 digits) is named by its type instead."""
    try:
        return show(value)
    except ValueError:  # str refuses an int of over 4300 digits
        return f"{type(value).__name__} with over 4300 digits"


def real_array(x, name: str, error=DataError) -> np.ndarray:
    """x as an array, as given, if its values are bool, int, uint or float;
    ragged rows, text, objects and complex values raise `error` naming it."""
    try:
        arr = np.asarray(x)
    except (TypeError, ValueError) as e:  # ragged rows, for one
        raise error(f"{name}: {e}") from None
    if arr.dtype.kind not in "biuf":  # complex, text, objects...
        raise error(f"{name} of dtype {arr.dtype} are not real numbers")
    return arr


def as_array(x, ndim: int, name: str) -> np.ndarray:
    """Validate and convert to a finite, non-empty float64 array of `ndim`
    dimensions (real_array, widened)."""
    arr = real_array(x, name).astype(np.float64, copy=False)
    if arr.ndim != ndim or arr.size == 0:
        raise DimensionError(f"{name} must be a non-empty {ndim}-d array, got shape {arr.shape}")
    if first_nonfinite_row(arr.reshape(-1, arr.shape[-1])) is not None:
        raise DataError(f"{name} contains non-finite entries")
    return arr


def first_nonfinite_row(arr: np.ndarray) -> int | None:
    """Index of the first row of a 2-d array holding a NaN or an infinity,
    or None: one np.isfinite pass over its values, in their own dtype."""
    finite = np.isfinite(arr)
    return None if finite.all() else int(np.argmin(finite.all(axis=1)))


def as_vector(x, name: str = "vector") -> np.ndarray:
    """as_array for a 1-d vector."""
    return as_array(x, 1, name)


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """as_array for a 2-d matrix."""
    return as_array(x, 2, name)


def sigmoid(x):
    """Numerically stable logistic, clamped into the open interval (0, 1).

    Uses e = exp(-|x|), so exp never sees a positive argument: 1/(1+e) for
    x >= 0 and e/(1+e) below. Accepts scalars or arrays and returns the
    matching kind.
    """
    arr = np.asarray(x, dtype=np.float64)
    ex = np.exp(-np.abs(arr))
    out = np.where(arr >= 0, 1.0, ex)
    out /= 1.0 + ex
    # maximum/minimum rather than np.clip, whose call overhead dominates on
    # few values: 6.3 against 8.0 us on a (48, 3) training batch (2-core
    # x86-64 host, numpy 2.4)
    np.maximum(out, _SIGMOID_LO, out=out)
    np.minimum(out, _SIGMOID_HI, out=out)
    return float(out) if out.ndim == 0 else out


def softmax_cross_entropy(logits, label):
    """Cross-entropy loss of softmax(logits) against integer labels.

    Takes one logit vector and one label, or (B, C) logits and B labels.
    Returns (loss, gradient) where gradient = softmax(logits) - onehot(label),
    per row; each gradient row sums to zero up to rounding. A single vector
    gives a float loss and a (C,) gradient, a batch (B,) losses and a (B, C)
    gradient. It is the checks and a call to _xent, the one implementation.
    """
    single = np.ndim(logits) == 1
    z = as_vector(logits, "logits")[None] if single else as_matrix(logits, "logits")
    labels = np.atleast_1d(np.asarray(label))
    if labels.dtype.kind not in "iu":  # the integer rule, of every label
        raise IndexError(f"label must be an integer, got {_shown(label)}")
    if labels.shape != (z.shape[0],):
        raise DimensionError(f"{labels.shape[0]} labels for {z.shape[0]} logit rows")
    if np.any((labels < 0) | (labels >= z.shape[1])):
        raise IndexError(f"label out of range for {z.shape[1]} logits")
    loss, grad = _xent(z, labels)
    return (float(loss[0]), grad[0]) if single else (loss, grad)


def _xent(z: np.ndarray, labels: np.ndarray):
    """softmax_cross_entropy on (B, C) logits and B labels, unchecked: -1
    would pick class C-1, so labels are checked where they enter."""
    rows = np.arange(z.shape[0])
    shifted = z - z.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1))
    loss = logsumexp - shifted[rows, labels]
    grad = np.exp(shifted - logsumexp[:, None])
    grad[rows, labels] -= 1.0
    return loss, grad

