"""Properties of the head at random shapes (B <= 6 videos, K <= 5 frames,
D <= 8, C <= 4), in both modes: the batched kernel agrees with the
per-instance one, the head is a function of the set of frames, and
saturated sigmoids still give finite gradients."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from frameattn.model import Mode, _stack_kernel, forward, forward_backward, init_params

PROPS = settings(max_examples=80, deadline=None, derandomize=True, database=None)
TOL = dict(rtol=1e-12, atol=1e-12)

MODES = st.sampled_from([Mode.FULL, Mode.SELF_ONLY])
SEEDS = st.integers(0, 2**32 - 1)


def draw(seed, b, k, d, c, mode):
    """A (b, k, d) stack of frames, b labels and seeded parameters."""
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((b, k, d))
    labels = rng.integers(0, c, size=b)
    return stack, labels, init_params(d, c, mode, seed=int(rng.integers(2**31)))


@PROPS
@given(seed=SEEDS, b=st.integers(1, 6), k=st.integers(1, 5), d=st.integers(1, 8),
       c=st.integers(1, 4), mode=MODES)
def test_batch_matches_per_instance_and_sums_its_gradients(seed, b, k, d, c, mode):
    stack, labels, params = draw(seed, b, k, d, c, mode)
    logits, _, losses, grads = _stack_kernel(stack, params, labels)
    total = np.zeros_like(grads.flat)
    for i in range(b):
        loss, logit, grad = forward_backward(stack[i], params, int(labels[i]))
        np.testing.assert_allclose(losses[i], loss, **TOL)
        np.testing.assert_allclose(logits[i], logit, **TOL)
        total += grad.flat
    np.testing.assert_allclose(grads.flat, total, **TOL)


@PROPS
@given(seed=SEEDS, k=st.integers(1, 5), d=st.integers(1, 8), c=st.integers(1, 4),
       mode=MODES, data=st.data())
def test_permuting_frames_permutes_the_weights(seed, k, d, c, mode, data):
    stack, _, params = draw(seed, 1, k, d, c, mode)
    perm = np.array(data.draw(st.permutations(range(k))), dtype=np.int64)
    logits, trace = forward(stack[0], params)
    moved_logits, moved = forward(stack[0][perm], params)
    np.testing.assert_allclose(moved_logits, logits, **TOL)
    for field in ("alpha", "beta", "final_weights"):
        np.testing.assert_allclose(getattr(moved, field), getattr(trace, field)[perm],
                                   **TOL, err_msg=field)


@PROPS
@given(seed=SEEDS, k=st.integers(1, 5), d=st.integers(1, 8), c=st.integers(1, 4),
       mode=MODES)
def test_repeating_every_frame_twice_keeps_the_logits(seed, k, d, c, mode):
    stack, _, params = draw(seed, 1, k, d, c, mode)
    logits, _ = forward(stack[0], params)
    twice, trace = forward(np.repeat(stack[0], 2, axis=0), params)
    np.testing.assert_allclose(twice, logits, **TOL)
    np.testing.assert_allclose(trace.final_weights.sum(), 1.0, **TOL)


@PROPS
@given(seed=SEEDS, b=st.integers(1, 6), k=st.integers(1, 5), d=st.integers(1, 8),
       c=st.integers(1, 4), mode=MODES, reach=st.floats(800.0, 5000.0))
def test_saturated_sigmoids_give_finite_gradients(seed, b, k, d, c, mode, reach):
    stack, labels, params = draw(seed, b, k, d, c, mode)
    # move each frame along q0, away from the plane f . q0 = 0, until
    # |f . q0| >= reach: every alpha is pinned at the clamp
    side = np.where(stack @ params.q0 >= 0, 1.0, -1.0)
    stack += (side * reach / (params.q0 @ params.q0))[..., None] * params.q0
    assert np.all(np.abs(stack @ params.q0) >= reach * (1 - 1e-9))
    logits, _, losses, grads = _stack_kernel(stack, params, labels)
    assert np.all(np.isfinite(losses)) and np.all(np.isfinite(logits))
    assert np.all(np.isfinite(grads.flat))
