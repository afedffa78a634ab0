import hashlib
import re
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from frameattn import model
from frameattn.data import Dataset, VideoInstance
from frameattn.errors import ConfigError, DataError, DimensionError, NumericError
from frameattn.evaluation import score_fusion_baseline
from frameattn.numerics import as_matrix
from frameattn.model import (
    FanParams,
    Mode,
    Scored,
    backward,
    forward,
    forward_backward,
    init_params,
    layout,
    locate,
    score,
)

from frameattn.training import TrainConfig

from gradcheck import finite_diff_gradient, gradient_check, gradient_pair, relative_errors
from scalar_oracle import forward_logits as oracle_logits

SIG1 = 0.7310585786300049
SIG2 = 0.8807970779778823


def random_params(d, c, mode, seed=0):
    return init_params(d, c, mode, seed=seed)


def head(q0, q1=None, mode=Mode.FULL, c=2):
    """Given attention kernels and a zero classifier; q1 defaults to zero."""
    d = len(q0)
    in_dim = 2 * d if mode is Mode.FULL else d
    return FanParams(q0, np.zeros(2 * d) if q1 is None else q1,
                     np.zeros((c, in_dim)), np.zeros(c), mode)


def trace_of(features, params):
    return forward(np.asarray(features, dtype=np.float64), params)[1]


# sigmoid(ln 3) = 0.75 and sigmoid(-ln 3) = 0.25: q0 = (ln3/s, -ln3/s) gives
# the frames s*e_0 and s*e_1 those alphas
LN3 = np.log(3.0)


class TestSelfAttention:
    def test_zero_kernel(self):
        t = trace_of([[1.0, 0.0], [0.0, 1.0]], head([0.0, 0.0]))
        np.testing.assert_allclose(t.alpha, [0.5, 0.5])

    def test_unit_kernel(self):
        t = trace_of([[1.0, 0.0], [0.0, 1.0]], head([1.0, 0.0]))
        np.testing.assert_allclose(t.alpha, [SIG1, 0.5], atol=1e-15)

    def test_cancelling_logit(self):
        t = trace_of([[2.0, 2.0]], head([1.0, -1.0]))
        np.testing.assert_allclose(t.alpha, [0.5])

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            forward([[1.0, 0.0]], head([1.0, 0.0, 0.0]))


class TestGlobalAnchor:
    def test_equal_weights_is_mean(self):
        t = trace_of([[1.0, 0.0], [0.0, 1.0]], head([0.0, 0.0]))
        np.testing.assert_allclose(t.anchor, [0.5, 0.5])

    def test_single_row_any_weight(self):
        # a single frame passes through bit for bit, whatever its alpha
        for q in (-2.0, 0.3, 5.0):
            t = trace_of([[3.0, -1.0]], head([q, q]))
            np.testing.assert_array_equal(t.anchor, [3.0, -1.0])

    def test_hand_arithmetic(self):
        t = trace_of([[2.0, 0.0], [0.0, 2.0]], head([LN3 / 2, -LN3 / 2]))
        np.testing.assert_allclose(t.alpha, [0.75, 0.25])
        np.testing.assert_allclose(t.anchor, [1.5, 0.5])

    def test_self_only_alias(self):
        # self-only mode classifies on the anchor itself
        f = [[2.0, 0.0], [0.0, 2.0]]
        t = trace_of(f, head([LN3 / 2, -LN3 / 2], mode=Mode.SELF_ONLY))
        np.testing.assert_array_equal(t.aggregate, t.anchor)

    def test_convex_hull(self):
        rng = np.random.default_rng(9)
        f = rng.standard_normal((5, 3))
        t = trace_of(f, head(rng.standard_normal(3)))
        w = t.alpha / t.alpha.sum()
        np.testing.assert_allclose(t.anchor, w @ f, atol=1e-15)
        assert np.all(w > 0) and abs(w.sum() - 1.0) < 1e-12
        assert np.all(t.anchor >= f.min(axis=0)) and np.all(t.anchor <= f.max(axis=0))


class TestRelationAttention:
    def test_zero_kernel(self):
        t = trace_of([[1.0, 2.0], [3.0, 4.0]], head([0.5, -0.5]))
        np.testing.assert_allclose(t.beta, [0.5, 0.5])

    def test_known_value(self):
        # one frame [1, 0] is its own anchor: beta = sigmoid(1 + 1)
        t = trace_of([[1.0, 0.0]], head([0.0, 0.0], q1=[1.0, 0.0, 1.0, 0.0]))
        np.testing.assert_allclose(t.beta, [SIG2], atol=1e-15)

    def test_identical_frames_identical_weights(self):
        rng = np.random.default_rng(2)
        f = np.tile(rng.standard_normal(4), (3, 1))
        t = trace_of(f, head(rng.standard_normal(4), q1=rng.standard_normal(8)))
        assert t.beta[0] == t.beta[1] == t.beta[2]
        assert t.final_weights[0] == t.final_weights[1] == t.final_weights[2]


class TestAggregate:
    def test_uniform_weights(self):
        t = trace_of([[1.0, 0.0], [0.0, 1.0]], head([0.0, 0.0]))
        np.testing.assert_allclose(t.aggregate, [0.5, 0.5, 0.5, 0.5])

    def test_single_frame(self):
        t = trace_of([[1.0, 2.0]], head([0.3, -0.2], q1=[0.1, 0.7, -0.4, 0.9]))
        np.testing.assert_array_equal(t.aggregate, [1.0, 2.0, 1.0, 2.0])

    def test_hand_arithmetic(self):
        # alpha = [0.75, 0.25] and beta = 0.5, so alpha*beta is proportional
        # to [3, 1]; the anchor uses the same proportions
        t = trace_of([[4.0, 0.0], [0.0, 4.0]], head([LN3 / 4, -LN3 / 4]))
        np.testing.assert_allclose(t.aggregate, [3.0, 1.0, 3.0, 1.0])

    def test_anchor_half_exact(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((6, 5))
        t = trace_of(f, head(rng.standard_normal(5), q1=rng.standard_normal(10)))
        np.testing.assert_array_equal(t.aggregate[5:], t.anchor)


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

    def test_final_weights_are_normalized_products(self):
        # away from underflow the weights are w / sum(w), bit for bit
        rng = np.random.default_rng(25)
        f = 3.0 * rng.standard_normal((7, 4))
        _, trace = forward(f, random_params(4, 3, Mode.FULL, seed=8))
        w = trace.alpha * trace.beta
        np.testing.assert_array_equal(trace.final_weights, w / w.sum())

    def test_final_weights_survive_underflow_of_every_product(self):
        # f . q0 = f . q1[:D] = -400, -401, -402 (anchor half of q1 zero):
        # each alpha_i beta_i is about e^-800, below the smallest double,
        # while the weights themselves are softmax(-800, -802, -804)
        d = 2
        params = FanParams(np.ones(d), np.r_[np.ones(d), np.zeros(d)],
                           np.eye(2, 2 * d), np.zeros(2), Mode.FULL)
        f = np.repeat([[-400.0], [-401.0], [-402.0]], d, axis=1) / d
        logits, trace = forward(f, params)
        assert np.all(np.isfinite(logits))
        expect = np.exp(-2.0 * np.arange(3))
        np.testing.assert_allclose(trace.final_weights, expect / expect.sum(),
                                   rtol=1e-12, atol=0)
        assert abs(trace.final_weights.sum() - 1.0) <= 1e-12
        assert int(np.argmax(trace.final_weights)) == 0
        _, grads = backward(f, params, 1)
        assert np.all(np.isfinite(grads.flatten()))

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

    @pytest.mark.parametrize("label", [-1, 3, "1", 1.5, True, None, np.float64(1.0)])
    @pytest.mark.parametrize("mode", [Mode.FULL, Mode.SELF_ONLY])
    def test_label_out_of_range_raises_at_every_public_entry(self, label, mode):
        # the kernel takes labels unchecked: -1 would pick the last class
        f = np.random.default_rng(34).standard_normal((3, 4))
        params = random_params(4, 3, mode, seed=2)
        message = ("label out of range for 3 logits" if type(label) is int
                   else f"label must be an integer, got {label!r}")
        for entry in (backward, forward_backward, gradient_pair):
            with pytest.raises(IndexError, match=f"^{re.escape(message)}$"):
                entry(f, params, label)

    def test_duplication_leaves_loss_and_grads_unchanged(self):
        rng = np.random.default_rng(33)
        f = rng.standard_normal((3, 4))
        params = random_params(4, 3, Mode.FULL, seed=9)
        loss1, g1 = backward(f, params, label=0)
        loss2, g2 = backward(np.tile(f, (2, 1)), params, label=0)
        assert abs(loss1 - loss2) < 1e-10
        for a, b in zip(g1.flatten(), g2.flatten()):
            assert abs(a - b) < 1e-10


def scaled_final(alpha, beta):
    """Final weights of (B, K) alpha and beta from the products scaled per
    video by the power of two that brings the largest to [1/4, 1)."""
    ma, ea = np.frexp(alpha)
    mb, eb = np.frexp(beta)
    e = ea + eb
    w = np.ldexp(ma * mb, e - e.max(axis=1, keepdims=True))
    return w / w.sum(axis=1, keepdims=True)


class TestWeightProducts:
    """The kernel takes w = alpha * beta directly only when every product of
    the batch is a normal float; its final weights must then equal those of
    the scaled products bit for bit, and otherwise come from them."""

    TINY = np.finfo(np.float64).tiny

    def kernel_final(self, alpha, beta, monkeypatch):
        """The kernel's final weights when its two sigmoids, each taking a
        (B, K) block of per-frame projections, return alpha, then beta."""
        b, k = alpha.shape
        outs = iter([alpha, beta])

        def sigmoid(x):
            assert x.shape == (b, k)
            return next(outs)

        monkeypatch.setattr(model, "sigmoid", sigmoid)
        params = random_params(2, 3, Mode.FULL, seed=4)
        _, trace, _, _ = model._kernel(np.ones((b, k, 2)), params)
        return trace.final_weights

    def test_smallest_product_exactly_tiny_takes_the_direct_product(self, monkeypatch):
        alpha = np.array([[2.0**-500, 0.6, 0.3], [0.2, 0.9, 0.45]])
        beta = np.array([[2.0**-522, 0.8, 0.55], [0.35, 0.7, 0.99]])
        assert (alpha * beta).min() == self.TINY
        got = self.kernel_final(alpha, beta, monkeypatch)
        np.testing.assert_array_equal(got.view(np.int64),
                                      scaled_final(alpha, beta).view(np.int64))

    def test_one_subnormal_product_takes_the_scaled_path(self, monkeypatch):
        alpha = np.array([[0.7 * 2.0**-530, 0.1, 0.5], [0.2, 0.9, 0.45]])
        beta = np.array([[0.9 * 2.0**-535, 0.5, 0.1], [0.35, 0.7, 0.99]])
        w = alpha * beta
        assert 0.0 < w.min() < self.TINY
        # the direct product rounds the subnormal differently here, so only
        # the scaled path gives these bits
        direct = w / w.sum(axis=1, keepdims=True)
        assert not np.array_equal(direct, scaled_final(alpha, beta))
        got = self.kernel_final(alpha, beta, monkeypatch)
        np.testing.assert_array_equal(got.view(np.int64),
                                      scaled_final(alpha, beta).view(np.int64))


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
        logits, _, _, _ = model._kernel(stack, params, labels)
        expect = [oracle_logits(f.tolist(), params.q0.tolist(), params.q1.tolist(),
                                params.class_w.tolist(), params.class_b.tolist(),
                                self_only=mode is Mode.SELF_ONLY)
                  for f in stack]
        np.testing.assert_allclose(logits, expect, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", [Mode.FULL, Mode.SELF_ONLY])
    def test_summed_gradient_matches_finite_differences(self, mode):
        stack, params, labels = self.batch(mode, 52)
        grads = model._kernel(stack, params, labels)[3]

        def total_loss(flat):
            candidate = FanParams.from_flat(flat, params.feature_dim,
                                            params.num_classes, mode)
            return float(np.sum(model._kernel(stack, candidate, labels)[2]))

        fd = finite_diff_gradient(total_loss, params.flatten())
        assert relative_errors(grads.flatten(), fd).max() < 1e-4

    @pytest.mark.parametrize("mode", [Mode.FULL, Mode.SELF_ONLY])
    def test_batch_equals_sum_of_single_calls(self, mode):
        # D=512 and C=7 are the CK+- and AFEW-shaped workloads': K=3 frames a
        # training batch, 1 to 64 and more a scoring stack
        for k, d, c in [(3, 4, 3), (1, 512, 7), (3, 512, 7), (64, 512, 7)]:
            stack, params, labels = self.batch(mode, 53, k=k, d=d, c=c)
            logits, trace, losses, grads = model._kernel(stack, params, labels)
            total = np.zeros_like(params.flat)
            for i in range(self.B):
                loss, lg, g = forward_backward(stack[i], params, labels[i])
                assert abs(loss - losses[i]) <= 1e-12
                np.testing.assert_allclose(lg, logits[i], rtol=0, atol=1e-12)
                total += g.flat
            np.testing.assert_allclose(grads.flatten(), total, rtol=0, atol=1e-12)
            if k == 1:  # a single frame passes through exactly, in every half
                np.testing.assert_array_equal(trace.final_weights, 1.0)
                halves = 2 if mode is Mode.FULL else 1
                np.testing.assert_array_equal(trace.aggregate, np.tile(stack[:, 0], halves))

    @pytest.mark.parametrize("mode", [Mode.FULL, Mode.SELF_ONLY])
    def test_overflow_of_the_summed_gradients_has_no_row(self, mode):
        # zero kernels and a 1e-300 classifier: each one-frame video's
        # class_w gradient is about 0.5 * 1.5e308, the sum of three is not finite
        params = head(np.zeros(1), mode=mode)
        params.class_w = np.full(params.class_w.shape, 1e-300)
        stack, labels = np.full((3, 1, 1), 1.5e308), np.zeros(3, np.int64)
        for r in range(3):
            grads = model._kernel(stack[r:r + 1], params, labels[r:r + 1])[3]
            assert np.isfinite(grads.flat).all()
        with pytest.raises(NumericError, match="^backward pass produced non-finite "
                                               "gradients in block 'class_w'$") as raised:
            model._kernel(stack, params, labels)
        assert raised.value.row is None

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
        grads = model._kernel(stack, params, labels)[3]
        assert np.all(np.isfinite(grads.flatten()))


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

    @pytest.mark.parametrize("mode, seed, digest", [
        (Mode.FULL, 0, "1d26b426bce1c80252c8692c761e25462e0ac7dec2d74f4cc869a871b801f113"),
        (Mode.FULL, 7, "b7a30fa8b45c9ef4e7fc4d1ad523dc742b73573d67cec2511e0999df4bc41a13"),
        (Mode.SELF_ONLY, 0, "83bea8c0165f36a35e76f16cafa77a144944592454df3de3444c253152112564"),
        (Mode.SELF_ONLY, 7, "ad9efc02cc0851e1540f3426174820ce580694d21f5edc0e80f5c41584e0e65b"),
    ])
    def test_init_pinned(self, mode, seed, digest):
        # sha256 of the little-endian float64 vector, as init_params drew it
        # before init_flat was split out of it
        flat = init_params(5, 3, mode, seed=seed).flat
        assert hashlib.sha256(flat.astype("<f8").tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("d, c, seed", [(4, 3, 0), (7, 2, 5), (1, 1, 9)])
    def test_init_flat_draws_the_baseline_classifier_as_before(self, d, c, seed):
        # the score-fusion baseline drew its weights as c * d values and
        # appended a zero bias; init_flat draws them as one (c, d) block
        rng = np.random.default_rng(seed)
        limit = np.sqrt(6.0 / (d + c))
        before = np.concatenate([rng.uniform(-limit, limit, size=c * d), np.zeros(c)])
        blocks = model.blocks_of([("baseline_w", (c, d)), ("baseline_b", (c,))])
        assert model.init_flat(blocks, seed).tobytes() == before.tobytes()

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
        # gradients are a FanParams in the parameters' layout, summed and
        # scaled through their flat vectors
        p = init_params(3, 2, Mode.FULL, seed=0)
        g = FanParams.from_flat(np.zeros_like(p.flat), 3, 2, Mode.FULL)
        assert np.all(g.flatten() == 0.0)
        _, g1 = backward(np.ones((2, 3)), p, 0)
        assert isinstance(g1, FanParams) and g1.blocks == p.blocks
        g.flat += g1.flat
        g.flat *= 0.5
        np.testing.assert_allclose(g.flatten(), 0.5 * g1.flatten())
        np.testing.assert_array_equal(g.class_w, 0.5 * g1.class_w)

    @pytest.mark.parametrize("mode", [Mode.FULL, Mode.SELF_ONLY])
    def test_fields_are_views_of_flat(self, mode):
        p = init_params(3, 2, mode, seed=1)
        for name, sl, shape in p.blocks:
            view = getattr(p, name)
            assert view.shape == shape and np.shares_memory(view, p.flat)
            np.testing.assert_array_equal(view.ravel(), p.flat[sl])
        p.q1[1] = 7.0
        assert p.flat[p.blocks[1].slice][1] == 7.0

    def test_flatten_is_a_copy(self):
        p = init_params(3, 2, Mode.FULL, seed=1)
        before = p.flatten()
        assert not np.shares_memory(before, p.flat)
        p.q0[:] = 9.0
        assert np.all(before[:3] != 9.0)
        np.testing.assert_array_equal(p.flatten()[:3], 9.0)

    def test_field_assignment_writes_through(self):
        p = init_params(3, 2, Mode.FULL, seed=1)
        flat = p.flat
        rolled = np.roll(p.class_w, 1, axis=0)
        p.class_w = rolled
        assert p.flat is flat and np.shares_memory(p.class_w, flat)
        np.testing.assert_array_equal(p.class_w, rolled)
        p.class_b -= 1.0
        np.testing.assert_array_equal(flat[-2:], [-1.0, -1.0])
        with pytest.raises(DimensionError):
            p.class_w = np.ones((2, 3))
        np.testing.assert_array_equal(p.class_w, rolled)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_assignment_passes_the_constructors_rule(self, mode):
        p = init_params(3, 2, mode, seed=1)
        before = p.flatten()
        for name, bad in (("q0", [np.nan, 0.0, 0.0]), ("q1", np.full(6, np.inf)),
                          ("class_w", np.full(p.class_w.shape, -np.inf)),
                          ("class_b", [0.0, np.nan])):
            with pytest.raises(DataError, match=f"^{name} contains non-finite entries$"):
                setattr(p, name, bad)
            with pytest.raises(DataError, match=f"^{name} contains non-finite entries$"):
                FanParams(**{"q0": p.q0, "q1": p.q1, "class_w": p.class_w,
                             "class_b": p.class_b, name: bad}, mode=mode)
        assert p.flat.tobytes() == before.tobytes()
        in_dim = 6 if mode is Mode.FULL else 3
        message = (rf"^class_w must have shape \(2, {in_dim}\) in {mode.value} mode, "
                   rf"got \(2, 5\)$")
        with pytest.raises(DimensionError, match=message):
            p.class_w = np.ones((2, 5))
        with pytest.raises(DimensionError, match=message):
            FanParams(p.q0, p.q1, np.ones((2, 5)), p.class_b, mode)
        assert p.flat.tobytes() == before.tobytes()

    def test_layout_order_and_sizes(self):
        d, c = 3, 2
        for mode, in_dim in ((Mode.FULL, 2 * d), (Mode.SELF_ONLY, d)):
            blocks = layout(d, c, mode)
            assert [b.name for b in blocks] == ["q0", "q1", "class_w", "class_b"]
            assert [b.shape for b in blocks] == [(d,), (2 * d,), (c, in_dim), (c,)]
            assert blocks[0].slice.start == 0
            assert all(a.slice.stop == b.slice.start for a, b in zip(blocks, blocks[1:]))
            assert locate(blocks, 0) == ("q0", 0)
            assert locate(blocks, d + 2 * d + 1) == ("class_w", 1)
            assert locate(blocks, blocks[-1].slice.stop - 1) == ("class_b", c - 1)
        with pytest.raises(DimensionError):
            layout(0, 2, Mode.FULL)
        with pytest.raises(DimensionError, match="^dim must be an integer, got 2.5$"):
            init_params(2.5, 2, Mode.FULL)

    def test_from_flat_keeps_a_contiguous_float64_vector_as_its_storage(self):
        flat = init_params(3, 2, Mode.FULL, seed=1).flatten()
        p = FanParams.from_flat(flat, 3, 2, Mode.FULL)
        assert p.flat is flat and np.shares_memory(p.class_w, flat)
        strided = np.repeat(flat, 2)[::2]
        q = FanParams.from_flat(strided, 3, 2, Mode.FULL)
        assert q.flat.flags.c_contiguous and not np.shares_memory(q.flat, strided)
        np.testing.assert_array_equal(q.flat, flat)

    def test_from_flat_rejects_wrong_length_and_nonfinite(self):
        flat = init_params(3, 2, Mode.FULL, seed=1).flatten()
        with pytest.raises(DimensionError):
            FanParams.from_flat(flat[:-1], 3, 2, Mode.FULL)
        flat[4] = np.nan
        with pytest.raises(DataError):
            FanParams.from_flat(flat, 3, 2, Mode.FULL)


@pytest.mark.parametrize("dtype", [bool, np.int32, np.uint8, np.float16, np.float32])
@pytest.mark.parametrize("mode", [Mode.FULL, Mode.SELF_ONLY])
def test_real_dtypes_reach_the_head_as_the_same_float64_values(dtype, mode):
    # values every dtype holds exactly; numerics.real_array keeps the array
    # as given and as_array widens it, which is exact
    x = (np.arange(12).reshape(4, 3) % (2 if dtype is bool else 5)).astype(dtype)
    wide = x.astype(np.float64)
    params = random_params(3, 2, mode, seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        checked = as_matrix(x)
        logits, trace = forward(x, params)
        loss, grads = backward(x, params, 1)
    assert checked.dtype == np.float64 and checked.tobytes() == wide.tobytes()
    want_logits, want_trace = forward(wide, params)
    assert logits.tobytes() == want_logits.tobytes()
    for name, value in vars(want_trace).items():
        assert getattr(trace, name).tobytes() == value.tobytes(), name
    want_loss, want_grads = backward(wide, params, 1)
    assert loss == want_loss and grads.flat.tobytes() == want_grads.flat.tobytes()


def video_dataset(lengths, d, seed=0, c=3, overflowing=()):
    """A packed dataset of videos of the given lengths: random frames, and
    labels cycling over c classes. The videos at `overflowing` have their
    frames times 1e30, finite in float32, which the head of overflowing()
    takes past float64's range."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    frames = np.random.default_rng(seed).standard_normal((offsets[-1], d))
    return Dataset([VideoInstance(f"v{i}", f"s{i}", i % c,
                                  frames[lo:hi] * (1e30 if i in overflowing else 1.0))
                    for i, (lo, hi) in enumerate(zip(offsets, offsets[1:]))],
                   d, c, [f"c{j}" for j in range(c)])


def overflowing(d, c=3):
    """A full-mode head whose class weights of 1e300 score video_dataset's
    ordinary videos finitely and overflow the logits of its scaled ones."""
    params = random_params(d, c, Mode.FULL)
    params.class_w[:] = 1e300
    return params


class TestScore:
    """The scoring pass: the kernel over equal-length buckets of whole videos."""

    LENGTHS = [1, 5, 3, 1, 40, 2, 9, 1]
    D = 4

    def videos(self, params, ds, indices=None):
        """Per scored video: (dataset index, logits, alpha, final weights)."""
        s = score(params, ds.packed, indices)
        out = []
        for j, i in enumerate(s.indices.tolist()):
            a, b = s.offsets[j], s.offsets[j + 1]
            out.append((i, s.logits[j], s.alpha[a:b], s.final_weights[a:b]))
        return out

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("indices", [None, [6, 0, 3, 2], [-1, -8, 4, -4],
                                         [2, 2, 5, 2, 3, 3]])
    @pytest.mark.parametrize("budget", [1000, model.SCORE_CHUNK_BYTES])
    def test_matches_per_video_forward(self, mode, indices, budget, monkeypatch):
        # a 1000-byte budget holds a few short videos per chunk at D=4, and
        # the 40-frame video is over it on its own
        monkeypatch.setattr(model, "SCORE_CHUNK_BYTES", budget)
        ds = video_dataset(self.LENGTHS, self.D, seed=1)
        frames, offsets = ds.packed.frames, ds.packed.offsets
        params = random_params(self.D, 3, mode, seed=2)
        params.q0 *= 4.0  # spread the weights
        got = self.videos(params, ds, indices)
        count = len(self.LENGTHS)
        expect = range(count) if indices is None else [i % count for i in indices]
        assert [i for i, *_ in got] == list(expect)
        for i, logits, alpha, final in got:
            want_logits, trace = forward(frames[offsets[i]:offsets[i + 1]], params)
            np.testing.assert_allclose(logits, want_logits, rtol=0, atol=1e-12)
            np.testing.assert_allclose(alpha, trace.alpha, rtol=0, atol=1e-12)
            np.testing.assert_allclose(final, trace.final_weights, rtol=0, atol=1e-12)
            if len(final) == 1:
                assert final[0] == 1.0

    @pytest.mark.parametrize("budget", [1000, model.SCORE_CHUNK_BYTES])
    def test_buckets_hold_one_length_within_the_budget(self, budget, monkeypatch):
        # the three 1-frame videos, selected five times, need two stacks at
        # 1000 bytes; the 40-frame video is over it on its own
        monkeypatch.setattr(model, "SCORE_CHUNK_BYTES", budget)
        ds = video_dataset(self.LENGTHS, self.D)
        frames, offsets = ds.packed.frames, ds.packed.offsets
        params = random_params(self.D, 3, Mode.FULL)
        seen = []
        kernel = model._kernel
        monkeypatch.setattr(model, "_kernel",
                            lambda f, *args: (seen.append(f.copy()), kernel(f, *args))[1])
        indices = [3, 4, 0, 7, 2, 3, 6, 1, 0, 5, 2]
        score(params, ds.packed, indices)
        for f in seen:
            b, k, d = f.shape
            assert f.dtype == np.float64
            cost = 8 * model._FRAME_TEMPS * k + d * (8 * 2 + 12 * k)
            assert b == 1 or b * cost <= budget, (b, k)
        assert len(seen) == (8 if budget == 1000 else 6)
        # random frames tell the videos apart: every selected position,
        # repeats included, went through the kernel once
        scored = sorted(video.tobytes() for f in seen for video in f)
        selected = sorted(frames[offsets[i]:offsets[i + 1]].astype(np.float64).tobytes()
                          for i in indices)
        assert scored == selected

    def test_error_in_a_bucket_names_the_dataset_index(self):
        # the 3-frame videos at positions 0, 1 and 3 make one stack; video
        # 0 is its third row, and position 2 holds video 1
        params = overflowing(self.D)
        ds = video_dataset([3, 2, 3, 2, 3], self.D, overflowing=[0])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericError, match="^dataset index 0: forward pass"):
            score(params, ds.packed, [2, 4, 1, 0])
        # the first bad video in length order, not in the order of indices
        ds = video_dataset([3, 2, 3, 2, 3], self.D, overflowing=[0, 3])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericError, match="^dataset index 3: forward pass"):
            score(params, ds.packed, [0, 3])

    def test_walk_names_the_failing_video_and_keeps_no_stack(self):
        # positions 4, 2 and (0, 1, 3) make the stacks of lengths 1, 2 and
        # 3; row 1 of the last is position 1, dataset index 4
        ds = video_dataset([3, 2, 3, 2, 3, 1], self.D)
        packed = ds.packed
        indices = np.array([2, 4, 1, 0, 5])
        stacks, fail_at = [], None

        def head(stack):
            stacks.append(weakref.ref(stack))
            if stack.shape[1] == fail_at:
                raise NumericError("bad scores", row=1)
            return stack.shape

        walked = []
        for pos, shape in model.equal_length_stacks(packed, indices, packed.lengths(indices),
                                                    head):
            # each stack is gone once its head returned, so before the next
            assert [ref() for ref in stacks] == [None] * len(stacks)
            walked.append((pos.tolist(), shape))
        assert walked == [([4], (1, 1, self.D)), ([2], (1, 2, self.D)),
                          ([0, 1, 3], (3, 3, self.D))]
        stacks.clear()
        fail_at = 3
        with pytest.raises(NumericError, match="^dataset index 4: bad scores$"):
            list(model.equal_length_stacks(packed, indices, packed.lengths(indices), head))
        assert len(stacks) == 3

    def test_an_empty_index_list_is_refused(self):
        ds = video_dataset(self.LENGTHS, self.D)
        params = random_params(self.D, 3, Mode.FULL)
        for picks in (None, np.zeros((0, 2), np.int64)):
            with pytest.raises(ConfigError, match="^selection is empty$"):
                score(params, ds.packed, [], picks)

    @pytest.mark.parametrize("indices", [None, [-1, -8, 4, -4], [2, 2, 5, -6, 3, -5, 3]])
    def test_labels_follow_the_indices(self, indices):
        ds = video_dataset(self.LENGTHS, self.D)
        s = score(random_params(self.D, 3, Mode.FULL), ds.packed, indices)
        chosen = range(len(self.LENGTHS)) if indices is None else indices
        assert s.labels.dtype == np.int64
        assert s.labels.tolist() == [ds.instances[i].label for i in chosen]

    @pytest.mark.parametrize("d, c, message", [
        (5, 3, "^params dim 5 != dataset dim 4$"),
        (5, 2, "^params dim 5 != dataset dim 4$"),  # the dim is checked first
        (4, 2, "^params classes 2 != dataset classes 3$"),
    ])
    def test_head_is_matched_to_the_dataset_before_the_kernel(self, d, c, message,
                                                              monkeypatch):
        ds = video_dataset(self.LENGTHS, self.D)
        calls = []
        monkeypatch.setattr(model, "_kernel", lambda *args: calls.append(args))
        with pytest.raises(DimensionError, match=message):
            score(random_params(d, c, Mode.FULL), ds.packed, [0, 1])
        assert calls == []

    def test_packed_frames_carry_the_class_count_their_labels_were_checked_against(self):
        ds = video_dataset(self.LENGTHS, self.D)
        old = random_params(self.D, 3, Mode.FULL)
        before = ds.packed
        after = Dataset(ds.instances, ds.dim, 5, ds.class_names + ("c3", "c4")).packed
        assert (before.num_classes, after.num_classes) == (3, 5)
        with pytest.raises(DimensionError, match="^params classes 3 != dataset classes 5$"):
            score(old, after)
        assert score(random_params(self.D, 5, Mode.FULL), after).logits.shape == (8, 5)

    def test_sampled_frames_match_forward_on_the_picks(self):
        ds = video_dataset(self.LENGTHS, self.D, seed=3)
        frames, offsets = ds.packed.frames, ds.packed.offsets
        params = random_params(self.D, 3, Mode.FULL, seed=4)
        indices = np.array([4, 0, 6])
        picks = np.array([[0, 20, 39], [0, 0, 0], [1, 5, 8]])
        s = score(params, ds.packed, indices, picks)
        for j, i in enumerate(indices):
            want, _ = forward(frames[offsets[i] + picks[j]], params)
            np.testing.assert_allclose(s.logits[j], want, rtol=0, atol=1e-12)

    def test_picks_are_checked_against_each_video(self):
        # picks index frames within a video: position 5 of a 3-frame video
        # would be frame 2 of the next one; floats and wrong shapes are refused
        ds = video_dataset([3, 3, 3], self.D)
        params = random_params(self.D, 3, Mode.FULL)
        for picks in ([[0, 3]], [[0, 5]], [[-1, 0]], [[0.0, 1.0]], [[True, False]]):
            with pytest.raises(IndexError, match="^picks must be integer frame positions"):
                score(params, ds.packed, [0], np.array(picks))
        for picks in (np.array([0, 1]), np.zeros((1, 0), int), np.zeros((2, 1), int)):
            with pytest.raises(DimensionError, match="^picks shape "):
                score(params, ds.packed, [0], picks)
        s = score(params, ds.packed, [0, 2], np.array([[2, 0], [1, 1]]))
        assert s.logits.shape == (2, 3) and s.offsets.tolist() == [0, 2, 4]

    def test_picks_given_as_lists_pass_the_same_checks(self):
        ds = video_dataset([3, 3, 3], self.D, seed=5)
        params = random_params(self.D, 3, Mode.FULL, seed=5)
        got = score(params, ds.packed, [0, 2], [[2, 0], [1, 1]])
        want = score(params, ds.packed, [0, 2], np.array([[2, 0], [1, 1]]))
        for field in Scored._fields:
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
        for picks in ([[0, 3]], [[0.0, 1.0]], [[True, False]]):
            with pytest.raises(IndexError, match="^picks must be integer frame positions"):
                score(params, ds.packed, [0], picks)
        for picks in ([0, 1], [[]], [[0, 1], [2]], [[0, 1], [1, 2]], [["0", "1"]]):
            with pytest.raises(DimensionError, match="^picks"):
                score(params, ds.packed, [0], picks)

    def test_errors_name_the_dataset_index(self):
        ds = video_dataset(self.LENGTHS, self.D, overflowing=[5, 6])
        params = overflowing(self.D)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="dataset index 5: forward"):
                score(params, ds.packed, [0, 5, 6])
            with pytest.raises(NumericError, match="^dataset index 6: forward pass"):
                score(params, ds.packed, [6, 0])
        with pytest.raises(DimensionError):
            score(random_params(self.D + 1, 3, Mode.FULL), ds.packed)

    def test_finite_values_whose_sums_overflow_are_scored(self):
        # 3e38 is finite in float32, and two of them sum past its range
        ds = video_dataset([2, 3], 2, c=2)
        ds = Dataset([replace(inst, features=np.full_like(inst.features, 3e38))
                      for inst in ds.instances], 2, 2, ds.class_names)
        params = head(np.zeros(2))
        s = score(params, ds.packed)
        np.testing.assert_array_equal(s.final_weights, [0.5, 0.5, 1 / 3, 1 / 3, 1 / 3])

    @pytest.mark.parametrize("mode", list(Mode))
    def test_kernel_temporaries_are_the_count_the_budget_takes(self, mode):
        # at D=1 the per-frame arrays are all there is; frames far below
        # zero make every weight product underflow, the kernel's widest path
        b, k = 4, 5000
        params = head(np.ones(1), q1=[1.0, 0.0], mode=mode, c=3)
        f = -800.0 - np.random.default_rng(6).random((b, k, 1))
        tracemalloc.start()
        model._kernel(f, params)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 8 * model._FRAME_TEMPS * b * k + 4096, peak / (8 * b * k)

    @pytest.mark.parametrize("caller, d, videos, longest", [
        pytest.param("score", 16, 2000, 80, id="16-2000-80"),
        pytest.param("score", 512, 300, 40, id="512-300-40"),
        pytest.param("baseline", 16, 2000, 80, id="baseline-16-2000-80"),
        pytest.param("baseline", 512, 300, 40, id="baseline-512-300-40"),
    ])
    def test_memory_stays_within_a_fixed_bound(self, caller, d, videos, longest):
        # whole-dataset temporaries would be far larger: (frames,) vectors
        # are 0.7 MB at D=16, per-video D-wide means 4.9 MB and the frame
        # matrix 30 MB at D=512; both walks of equal_length_stacks (the head's
        # score and the baseline's held-out pass) hold one stack at a time
        rng = np.random.default_rng(5)
        ds = video_dataset(rng.integers(8, longest + 1, videos), d, c=7)
        params = random_params(d, 7, Mode.FULL)
        untrained = TrainConfig(total_epochs=0)
        run = {"score": lambda indices: score(params, ds.packed, indices),
               "baseline": lambda indices: score_fusion_baseline(
                   ds, untrained, test_indices=indices)}[caller]
        for indices in (None, np.arange(videos)[::-2]):
            tracemalloc.start()
            run(indices)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 3e6, (indices is None, peak)
