"""Independent finite-difference oracle for the head's analytic gradients.

Central differences over the flat parameter vector: every probe rebuilds the
parameters from a flat vector and reruns the forward pass, so the estimate
shares no code with the backward pass it checks. Acceptance criterion 1 and
the gradient tests of test_model and test_numerics import it from here, as
criterion 2 imports scalar_oracle.
"""

import numpy as np

from frameattn.errors import ConfigError, NumericError
from frameattn.model import FanParams, backward, forward
from frameattn.numerics import as_vector, require_real, softmax_cross_entropy


def finite_diff_gradient(loss_fn, params, eps=1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector:
    (f(p + eps*e_j) - f(p - eps*e_j)) / (2*eps) per coordinate. Raises
    NumericError if any probe evaluation is non-finite, and ConfigError
    naming eps unless it is a positive real."""
    require_real("eps", eps)
    if eps <= 0:
        raise ConfigError("eps must be positive")
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


def relative_errors(a, b) -> np.ndarray:
    """Elementwise |a-b| / max(1e-8, |a|+|b|), flattened."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    return np.abs(a - b) / np.maximum(1e-8, np.abs(a) + np.abs(b))


def gradient_pair(features, params: FanParams, label: int,
                  eps=1e-5) -> tuple[np.ndarray, np.ndarray]:
    """The analytic gradient of one video's loss and its central-difference
    estimate, both flat in the layout order."""
    _, grads = backward(features, params, label)

    def loss_of(flat):
        candidate = FanParams.from_flat(flat, params.feature_dim,
                                        params.num_classes, params.mode)
        logits, _ = forward(features, candidate)
        return softmax_cross_entropy(logits, label)[0]

    return grads.flat, finite_diff_gradient(loss_of, params.flatten(), eps)


def gradient_check(features, params: FanParams, label: int,
                   eps=1e-5, corrupt=False) -> float:
    """Max relative error of the analytic gradient against central
    differences. With corrupt, 1 is added to the analytic gradient's first
    entry first: a negative control that the check must fail."""
    analytic, fd = gradient_pair(features, params, label, eps)
    if corrupt:
        analytic[0] += 1.0
    return float(np.max(relative_errors(analytic, fd)))
