import numpy as np
import pytest

from frameattn.errors import DimensionError
from frameattn.numerics import finite_diff_gradient, relative_error
from frameattn.model import (
    FanGradients,
    FanParams,
    Mode,
    aggregate,
    aggregate_self_only,
    backward,
    forward,
    forward_backward,
    forward_backward_batch,
    global_anchor,
    gradient_check,
    init_params,
    predict,
    relation_attention,
    self_attention,
)

from scalar_oracle import forward_logits as oracle_logits

SIG1 = 0.7310585786300049
SIG2 = 0.8807970779778823


def random_params(d, c, mode, seed=0):
    return init_params(d, c, mode, seed=seed)


class TestSelfAttention:
    def test_zero_kernel(self):
        a = self_attention([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        np.testing.assert_allclose(a, [0.5, 0.5])

    def test_unit_kernel(self):
        a = self_attention([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
        np.testing.assert_allclose(a, [SIG1, 0.5], atol=1e-15)

    def test_cancelling_logit(self):
        a = self_attention([[2.0, 2.0]], [1.0, -1.0])
        np.testing.assert_allclose(a, [0.5])

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            self_attention([[1.0, 0.0]], [1.0, 0.0, 0.0])


class TestGlobalAnchor:
    def test_equal_weights_is_mean(self):
        a = global_anchor([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
        np.testing.assert_allclose(a, [0.5, 0.5])

    def test_single_row_any_weight(self):
        for w in (0.1, 0.9, 2.0):
            a = global_anchor([[3.0, -1.0]], [w])
            np.testing.assert_allclose(a, [3.0, -1.0])

    def test_hand_arithmetic(self):
        a = global_anchor([[2.0, 0.0], [0.0, 2.0]], [0.75, 0.25])
        np.testing.assert_allclose(a, [1.5, 0.5])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            global_anchor([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.0])

    def test_self_only_alias(self):
        f = [[2.0, 0.0], [0.0, 2.0]]
        np.testing.assert_array_equal(
            aggregate_self_only(f, [0.75, 0.25]), global_anchor(f, [0.75, 0.25]))

    def test_convex_hull(self):
        rng = np.random.default_rng(9)
        f = rng.standard_normal((5, 3))
        alpha = rng.uniform(0.1, 0.9, 5)
        a = global_anchor(f, alpha)
        w = alpha / alpha.sum()
        np.testing.assert_allclose(a, w @ f, atol=1e-15)
        assert np.all(w > 0) and abs(w.sum() - 1.0) < 1e-12


class TestRelationAttention:
    def test_zero_kernel(self):
        b = relation_attention([[1.0, 2.0], [3.0, 4.0]], [1.0, 1.0], [0.0] * 4)
        np.testing.assert_allclose(b, [0.5, 0.5])

    def test_known_value(self):
        b = relation_attention([[1.0, 0.0]], [1.0, 0.0], [1.0, 0.0, 1.0, 0.0])
        np.testing.assert_allclose(b, [SIG2], atol=1e-15)

    def test_identical_frames_identical_weights(self):
        rng = np.random.default_rng(2)
        row = rng.standard_normal(4)
        f = np.tile(row, (3, 1))
        q1 = rng.standard_normal(8)
        b = relation_attention(f, row, q1)
        assert b[0] == b[1] == b[2]


class TestAggregate:
    def test_uniform_weights(self):
        out = aggregate([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5])
        np.testing.assert_allclose(out, [0.5, 0.5, 0.5, 0.5])

    def test_single_frame(self):
        out = aggregate([[1.0, 2.0]], [7.0, 8.0], [0.3], [0.9])
        np.testing.assert_allclose(out, [1.0, 2.0, 7.0, 8.0])

    def test_hand_arithmetic(self):
        # alpha*beta proportional to [3, 1]
        out = aggregate([[4.0, 0.0], [0.0, 4.0]], [2.0, 2.0],
                        [0.75, 0.25], [0.8, 0.8])
        np.testing.assert_allclose(out, [3.0, 1.0, 2.0, 2.0])

    def test_anchor_half_exact(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((6, 5))
        anchor = rng.standard_normal(5)
        alpha = rng.uniform(0.1, 0.9, 6)
        beta = rng.uniform(0.1, 0.9, 6)
        out = aggregate(f, anchor, alpha, beta)
        np.testing.assert_array_equal(out[5:], anchor)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            aggregate([[1.0, 0.0]], [1.0, 0.0], [0.0], [0.5])


class TestForward:
    def test_all_zero_params(self):
        d, c = 3, 4
        params = FanParams(np.zeros(d), np.zeros(2 * d),
                           np.zeros((c, 2 * d)), np.zeros(c), Mode.FULL)
        logits, trace = forward(np.ones((5, d)), params)
        np.testing.assert_array_equal(logits, np.zeros(c))
        np.testing.assert_allclose(trace.alpha, 0.5)
        np.testing.assert_allclose(trace.beta, 0.5)

    def test_identical_frames_independent_of_n(self):
        rng = np.random.default_rng(8)
        row = rng.standard_normal(4)
        params = random_params(4, 3, Mode.FULL, seed=1)
        base, trace1 = forward(row[None, :], params)
        for n in (2, 5, 9):
            logits, trace = forward(np.tile(row, (n, 1)), params)
            np.testing.assert_allclose(logits, base, atol=1e-12)
        np.testing.assert_allclose(trace1.aggregate,
                                   np.concatenate([row, row]), atol=1e-12)

    @pytest.mark.parametrize("mode", [Mode.FULL, Mode.SELF_ONLY])
    def test_matches_scalar_oracle(self, mode):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n, d, c = 3, 4, 3
            f = rng.standard_normal((n, d))
            params = random_params(d, c, mode, seed=int(rng.integers(1000)))
            logits, _ = forward(f, params)
            expect = oracle_logits(
                f.tolist(), params.q0.tolist(), params.q1.tolist(),
                params.class_w.tolist(), params.class_b.tolist(),
                self_only=mode is Mode.SELF_ONLY)
            np.testing.assert_allclose(logits, expect, atol=1e-10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(21)
        f = rng.standard_normal((7, 5))
        params = random_params(5, 4, Mode.FULL, seed=2)
        base, _ = forward(f, params)
        for _ in range(5):
            perm = rng.permutation(7)
            logits, _ = forward(f[perm], params)
            assert np.max(np.abs(logits - base)) < 1e-9

    def test_replication_invariance(self):
        rng = np.random.default_rng(22)
        f = rng.standard_normal((4, 5))
        params = random_params(5, 3, Mode.FULL, seed=3)
        base, _ = forward(f, params)
        for k in (2, 3):
            logits, _ = forward(np.tile(f, (k, 1)), params)
            assert np.max(np.abs(logits - base)) < 1e-9

    def test_trace_invariants(self):
        rng = np.random.default_rng(23)
        for mode in (Mode.FULL, Mode.SELF_ONLY):
            f = rng.standard_normal((6, 4))
            params = random_params(4, 3, mode, seed=5)
            _, trace = forward(f, params)
            assert np.all(trace.alpha > 0) and np.all(trace.alpha < 1)
            assert np.all(trace.final_weights > 0)
            assert abs(trace.final_weights.sum() - 1.0) < 1e-12
            # anchor is the alpha-weighted convex combination of rows
            w = trace.alpha / trace.alpha.sum()
            np.testing.assert_allclose(trace.anchor, w @ f, atol=1e-12)
            if mode is Mode.FULL:
                np.testing.assert_array_equal(trace.aggregate[4:], trace.anchor)
            else:
                np.testing.assert_array_equal(trace.beta, np.ones(6))
                np.testing.assert_array_equal(trace.aggregate, trace.anchor)

    def test_single_frame_collapse(self):
        rng = np.random.default_rng(24)
        row = rng.standard_normal(4)
        params = random_params(4, 3, Mode.FULL, seed=6)
        _, trace = forward(row[None, :], params)
        np.testing.assert_array_equal(trace.final_weights, [1.0])
        np.testing.assert_array_equal(trace.aggregate,
                                      np.concatenate([row, trace.anchor]))
        np.testing.assert_array_equal(trace.anchor, row)

    def test_dim_mismatch(self):
        params = random_params(4, 3, Mode.FULL)
        with pytest.raises(DimensionError):
            forward(np.ones((2, 5)), params)


class TestPredict:
    def test_argmax(self):
        assert predict([0.1, 0.9, 0.3]) == 1

    def test_tie_breaks_low(self):
        assert predict([0.5, 0.5]) == 0

    def test_single_class(self):
        assert predict([-3.0]) == 0


class TestBackward:
    @pytest.mark.parametrize("mode", [Mode.FULL, Mode.SELF_ONLY])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_matches_finite_differences(self, mode, n):
        rng = np.random.default_rng(31)
        f = rng.standard_normal((n, 5))
        params = random_params(5, 3, mode, seed=n)
        assert gradient_check(f, params, label=1) < 1e-4

    def test_zero_classifier_bias_gradient(self):
        d, c = 4, 5
        rng = np.random.default_rng(32)
        params = init_params(d, c, Mode.FULL, seed=0)
        params.class_w[:] = 0.0
        params.class_b[:] = 0.0
        _, grads = backward(rng.standard_normal((3, d)), params, label=2)
        expect = np.full(c, 1 / c)
        expect[2] -= 1.0
        np.testing.assert_allclose(grads.class_b, expect, atol=1e-14)

    def test_duplication_leaves_loss_and_grads_unchanged(self):
        rng = np.random.default_rng(33)
        f = rng.standard_normal((3, 4))
        params = random_params(4, 3, Mode.FULL, seed=9)
        loss1, g1 = backward(f, params, label=0)
        loss2, g2 = backward(np.tile(f, (2, 1)), params, label=0)
        assert abs(loss1 - loss2) < 1e-10
        for a, b in zip(g1.flatten(), g2.flatten()):
            assert abs(a - b) < 1e-10


class TestBatchKernel:
    B = 48

    def batch(self, mode, seed, k=3, d=4, c=3, scale=1.0):
        rng = np.random.default_rng(seed)
        params = random_params(d, c, mode, seed=seed)
        stack = scale * rng.standard_normal((self.B, k, d))
        return stack, params, rng.integers(0, c, size=self.B)

    @pytest.mark.parametrize("mode", [Mode.FULL, Mode.SELF_ONLY])
    def test_logits_match_scalar_oracle(self, mode):
        stack, params, labels = self.batch(mode, 51)
        _, logits, _ = forward_backward_batch(stack, params, labels)
        expect = [oracle_logits(f.tolist(), params.q0.tolist(), params.q1.tolist(),
                                params.class_w.tolist(), params.class_b.tolist(),
                                self_only=mode is Mode.SELF_ONLY)
                  for f in stack]
        np.testing.assert_allclose(logits, expect, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", [Mode.FULL, Mode.SELF_ONLY])
    def test_summed_gradient_matches_finite_differences(self, mode):
        stack, params, labels = self.batch(mode, 52)
        _, _, grads = forward_backward_batch(stack, params, labels)

        def total_loss(flat):
            candidate = FanParams.from_flat(flat, params.feature_dim,
                                            params.num_classes, mode)
            return float(np.sum(forward_backward_batch(stack, candidate, labels)[0]))

        fd = finite_diff_gradient(total_loss, params.flatten())
        assert relative_error(grads.flatten(), fd) < 1e-4

    @pytest.mark.parametrize("mode", [Mode.FULL, Mode.SELF_ONLY])
    def test_batch_equals_sum_of_single_calls(self, mode):
        stack, params, labels = self.batch(mode, 53)
        losses, logits, grads = forward_backward_batch(stack, params, labels)
        total = FanGradients.zeros_like(params)
        for i in range(self.B):
            loss, lg, g = forward_backward(stack[i], params, labels[i])
            assert abs(loss - losses[i]) <= 1e-12
            np.testing.assert_allclose(lg, logits[i], rtol=0, atol=1e-12)
            total.add(g)
        np.testing.assert_allclose(grads.flatten(), total.flatten(),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode,low,high", [
        (Mode.FULL, 40.0, 300.0),
        (Mode.SELF_ONLY, 40.0, 300.0),
        # past 745 alpha sits at its clamp, the smallest subnormal, and a
        # video's sum of alphas is a few of them
        (Mode.SELF_ONLY, 750.0, 900.0),
    ])
    def test_saturated_sigmoids_keep_gradients_finite(self, mode, low, high):
        # every frame's f . q0 (and f . q1[:D]) has magnitude in [low, high],
        # far past 37 where the logistic rounds to 0 or 1
        rng = np.random.default_rng(54)
        d = 4
        params = random_params(d, 3, mode, seed=54)
        params.q0[:] = 1.0
        params.q1[:] = np.r_[np.ones(d), np.zeros(d)]
        signs = rng.choice([-1.0, 1.0], size=(self.B, 3))
        signs[0] = -1.0  # one video whose every alpha is tiny
        attention = signs * rng.uniform(low, high, size=(self.B, 3))
        stack = np.repeat(attention[:, :, None] / d, d, axis=2)
        labels = rng.integers(0, 3, size=self.B)
        _, _, grads = forward_backward_batch(stack, params, labels)
        assert np.all(np.isfinite(grads.flatten()))

    def test_shape_checks(self):
        params = random_params(4, 3, Mode.FULL)
        with pytest.raises(DimensionError):
            forward_backward_batch(np.ones((2, 3, 5)), params, [0, 1])
        with pytest.raises(DimensionError):
            forward_backward_batch(np.ones((3, 4)), params, [0, 1, 2])


class TestLearnedAttention:
    def test_peak_frames_get_higher_mean_weight_after_training(self, trained_full_model):
        # the qualitative claim, made testable: once trained on the planted
        # peak task, the final weights favor the informative frames
        exp = trained_full_model
        favored = 0
        for i in exp["test_indices"]:
            inst = exp["dataset"].instances[i]
            _, trace = forward(inst.features, exp["params"])
            mask = np.zeros(inst.features.shape[0], dtype=bool)
            mask[exp["peaks"][inst.video_id]] = True
            favored += float(trace.final_weights[mask].mean()) > \
                float(trace.final_weights[~mask].mean())
        assert favored / len(exp["test_indices"]) >= 0.80


class TestParams:
    def test_flatten_round_trip(self):
        for mode in (Mode.FULL, Mode.SELF_ONLY):
            p = init_params(5, 3, mode, seed=4)
            q = FanParams.from_flat(p.flatten(), 5, 3, mode)
            np.testing.assert_array_equal(p.q0, q.q0)
            np.testing.assert_array_equal(p.q1, q.q1)
            np.testing.assert_array_equal(p.class_w, q.class_w)
            np.testing.assert_array_equal(p.class_b, q.class_b)

    def test_init_deterministic(self):
        a = init_params(6, 4, Mode.FULL, seed=12)
        b = init_params(6, 4, Mode.FULL, seed=12)
        np.testing.assert_array_equal(a.flatten(), b.flatten())

    def test_init_bounds(self):
        p = init_params(8, 3, Mode.FULL, seed=1)
        assert np.all(np.abs(p.q0) <= np.sqrt(6 / 9))
        assert np.all(np.abs(p.q1) <= np.sqrt(6 / 17))
        assert np.all(p.class_b == 0.0)

    def test_self_only_classifier_shape(self):
        p = init_params(8, 3, Mode.SELF_ONLY, seed=1)
        assert p.class_w.shape == (3, 8)

    def test_inconsistent_shapes_rejected(self):
        with pytest.raises(DimensionError):
            FanParams(np.ones(4), np.ones(7), np.ones((3, 8)), np.ones(3), Mode.FULL)
        with pytest.raises(DimensionError):
            FanParams(np.ones(4), np.ones(8), np.ones((3, 4)), np.ones(3), Mode.FULL)

    def test_gradients_zeros_and_accumulate(self):
        p = init_params(3, 2, Mode.FULL, seed=0)
        g = FanGradients.zeros_like(p)
        assert np.all(g.flatten() == 0.0)
        _, g1 = backward(np.ones((2, 3)), p, 0)
        g.add(g1)
        g.scale(0.5)
        np.testing.assert_allclose(g.flatten(), 0.5 * g1.flatten())
