import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameattn.errors import ConfigError, DataError, DimensionError, NumericError
from frameattn.model import gradient_check, init_params
from frameattn.numerics import (
    COUNT_MAX,
    as_matrix,
    as_vector,
    finite_diff_gradient,
    first_nonfinite_row,
    relative_errors,
    require_integer,
    sigmoid,
    softmax_cross_entropy,
)


class TestSigmoid:
    def test_symmetry_point(self):
        assert sigmoid(0.0) == 0.5

    def test_unit_value(self):
        # 1/(1+e^-1), checked against an independent evaluation
        assert sigmoid(1.0) == pytest.approx(0.7310585786300049, abs=1e-15)

    def test_negative_branch_stays_positive(self):
        s = sigmoid(-50.0)
        assert s == pytest.approx(1.9287498479639178e-22, rel=1e-12)
        assert s > 0 and math.isfinite(s)

    def test_stable_to_700(self):
        for x in (700.0, -700.0, 710.0, -710.0):
            s = sigmoid(x)
            assert math.isfinite(s)
            assert 0.0 < s < 1.0

    def test_open_interval_for_any_finite_input(self):
        xs = np.array([-1e308, -745.0, -37.0, 0.0, 37.0, 745.0, 1e308])
        s = sigmoid(xs)
        assert np.all(s > 0.0) and np.all(s < 1.0)

    def test_complement_identity(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(-30, 30, size=1000)
        assert np.max(np.abs(sigmoid(xs) + sigmoid(-xs) - 1.0)) < 1e-15

    def test_array_in_scalar_out_kinds(self):
        assert isinstance(sigmoid(1.2), float)
        out = sigmoid(np.array([0.0, 1.0]))
        assert out.shape == (2,)

    def test_bit_equal_to_the_two_division_formula(self):
        # sigmoid divides the chosen numerator (1 or e) by 1 + e once; the
        # two-division form below, with the same clamps, must give each bit
        def two_divisions(x):
            ex = np.exp(-np.abs(x))
            out = np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))
            return np.minimum(np.maximum(out, np.nextafter(0.0, 1.0)),
                              np.nextafter(1.0, 0.0))

        tiny = np.finfo(np.float64).tiny
        edges = np.array([0.0, 36.7, 37.0, 745.0, 746.0, 1e308,
                          tiny, tiny / 3, 5e-324, np.inf])
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2**64, size=4000, dtype=np.uint64).view(np.float64)
        xs = np.concatenate([edges, -edges, bits[np.isfinite(bits)],
                             40.0 * rng.standard_normal(2000),
                             rng.uniform(-800.0, 800.0, 2000)])
        np.testing.assert_array_equal(sigmoid(xs).view(np.int64),
                                      two_divisions(xs).view(np.int64))
        for x in np.concatenate([edges, -edges]):
            assert sigmoid(x) == float(two_divisions(x))


class TestSoftmaxCrossEntropy:
    def test_uniform(self):
        loss, grad = softmax_cross_entropy([0.0, 0.0, 0.0], 1)
        assert loss == pytest.approx(1.0986122886681098, abs=1e-14)
        np.testing.assert_allclose(grad, [1 / 3, -2 / 3, 1 / 3], atol=1e-14)

    def test_stabilized_large_logits(self):
        loss, grad = softmax_cross_entropy([1000.0, 0.0], 0)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.isfinite(grad))

    def test_two_class_closed_form(self):
        # loss = ln(1+e); grad = softmax - onehot = [sigma(-1)-1, sigma(1)]
        # = [-sigma(1), sigma(1)], the only form whose entries sum to zero
        loss, grad = softmax_cross_entropy([1.0, 2.0], 0)
        assert loss == pytest.approx(1.3132616875182228, abs=1e-14)
        s = 0.7310585786300049
        np.testing.assert_allclose(grad, [-s, s], atol=1e-14)

    def test_grad_sums_to_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            c = int(rng.integers(2, 17))
            logits = rng.standard_normal(c) * 10
            _, grad = softmax_cross_entropy(logits, int(rng.integers(c)))
            assert abs(grad.sum()) < 1e-12

    def test_label_count_must_be_the_row_count(self):
        with pytest.raises(DimensionError, match="^2 labels for 3 logit rows$"):
            softmax_cross_entropy(np.zeros((3, 2)), [0, 1])

    def test_label_out_of_range(self):
        with pytest.raises(IndexError, match="^label out of range for 2 logits$"):
            softmax_cross_entropy([1.0, 2.0], 2)
        with pytest.raises(IndexError, match="^label out of range for 2 logits$"):
            softmax_cross_entropy([1.0, 2.0], -1)
        # labels of the wrong kind, which numpy would index with or refuse
        # with its own error
        for label in (1.5, 1.0, True, "1", None, 10**5000):
            with pytest.raises(IndexError, match="^label must be an integer, got "):
                softmax_cross_entropy([1.0, 2.0], label)
        with pytest.raises(IndexError, match="^label must be an integer, got "):
            softmax_cross_entropy([[1.0, 2.0], [0.0, 1.0]], [0.0, 1.0])
        loss, _ = softmax_cross_entropy([[1.0, 2.0], [0.0, 1.0]], np.array([0, 1], np.uint8))
        assert loss.shape == (2,)


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_gradient(lambda p: p[0] ** 2, np.array([3.0]), eps=1e-5)
        np.testing.assert_allclose(grad, [6.0], atol=1e-8)

    def test_logistic_quarter_slope(self):
        grad = finite_diff_gradient(lambda p: sigmoid(p[0]), np.array([0.0]), eps=1e-5)
        np.testing.assert_allclose(grad, [0.25], atol=1e-8)

    def test_matches_closed_form_on_analytic_functions(self):
        rng = np.random.default_rng(5)
        p = rng.standard_normal(6)
        fd = finite_diff_gradient(lambda q: float(np.sum(q**2)), p, eps=1e-5)
        np.testing.assert_allclose(fd, 2 * p, atol=1e-7)
        fd = finite_diff_gradient(lambda q: float(np.sum(sigmoid(q))), p, eps=1e-5)
        s = sigmoid(p)
        np.testing.assert_allclose(fd, s * (1 - s), atol=1e-7)

    def test_nonfinite_probe_raises(self):
        with pytest.raises(NumericError):
            finite_diff_gradient(lambda p: float("nan"), np.array([1.0]), eps=1e-5)

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda p: 0.0, np.array([1.0]), eps=0.0)
        # refused by the number rule before any probe, naming eps, also
        # where the head's gradient check passes it on
        for eps in ("x", None, True, float("nan"), float("inf"), -1e-5, 1j):
            with pytest.raises(ValueError, match="^eps must be"):
                finite_diff_gradient(lambda p: 0.0, np.array([1.0]), eps=eps)
            with pytest.raises(ValueError, match="^eps must be"):
                gradient_check(np.ones((2, 3)), init_params(3, 2), 0, eps=eps)


class TestValidation:
    def test_nonfinite_vector_rejected(self):
        with pytest.raises(DataError):
            as_vector([1.0, float("nan")])
        with pytest.raises(DataError):
            as_matrix([[1.0], [float("inf")]])

    def test_zero_length_rejected(self):
        # zero-length vectors and matrices without rows or columns
        with pytest.raises(DimensionError):
            as_vector([])
        for shape in ((0, 3), (3, 0)):
            with pytest.raises(DimensionError):
                as_matrix(np.ones(shape))

    def test_wrong_rank_rejected(self):
        with pytest.raises(DimensionError):
            as_vector([[1.0]])
        with pytest.raises(DimensionError):
            as_matrix([1.0, 2.0])

    @pytest.mark.parametrize("value", [COUNT_MAX, np.uint32(COUNT_MAX)], ids=["int", "uint32"])
    def test_a_count_may_fill_a_u32_field(self, value):
        require_integer("k", value, 1, maximum=COUNT_MAX)

    @pytest.mark.parametrize("value, shown", [
        (COUNT_MAX + 1, "4294967296"), (np.uint64(2**64 - 1), "18446744073709551615"),
        (10**5000, "int with over 4300 digits")], ids=["2**32", "uint64-max", "too-long-to-print"])
    def test_a_count_past_the_bound_names_its_field(self, value, shown):
        with pytest.raises(ConfigError, match=f"^k must be at most 4294967295, got {shown}$"):
            require_integer("k", value, 1, maximum=COUNT_MAX)

    def test_relative_error_metric(self):
        # |a-b| / max(1e-8, |a|+|b|), elementwise and flattened
        np.testing.assert_allclose(relative_errors([[1.0, 2.0], [0.0, 1e-9]],
                                                   [[1.0, 1.0], [0.0, 0.0]]),
                                   [0.0, 1 / 3, 0.0, 0.1], rtol=1e-15, atol=0)


def first_nonfinite_row_oracle(arr):
    """first_nonfinite_row row by row and value by value, with math.isfinite."""
    for r, row in enumerate(arr.tolist()):
        if not all(math.isfinite(v) for v in row):
            return r
    return None


class TestFirstNonfiniteRow:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(dtype=st.sampled_from([np.float16, np.float32, np.float64, np.int64, np.int8,
                                  np.uint16, np.bool_]),
           rows=st.integers(1, 8), cols=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_agrees_with_a_row_by_row_oracle(self, dtype, rows, cols, seed, data):
        rng = np.random.default_rng(seed)
        if dtype is np.bool_:
            arr = rng.random((rows, cols)) < 0.5
        elif np.dtype(dtype).kind in "iu":
            info = np.iinfo(dtype)
            arr = rng.integers(info.min, info.max, (rows, cols), endpoint=True).astype(dtype)
        else:
            # a row of large values of one sign is finite, but its sum is
            # not when it has two or more columns
            big = rng.random(rows) < 0.5
            scale = np.where(big, np.finfo(dtype).max, 1.0)[:, None]
            sign = np.where(rng.random(rows) < 0.5, -1.0, 1.0)[:, None]
            arr = (sign * scale * rng.uniform(0.6, 1.0, (rows, cols))).astype(dtype)
            planted = data.draw(st.lists(st.tuples(
                st.integers(0, rows - 1), st.integers(0, cols - 1),
                st.sampled_from([np.nan, np.inf, -np.inf])), max_size=3))
            for r, c, bad in planted:
                arr[r, c] = bad
        assert first_nonfinite_row(arr) == first_nonfinite_row_oracle(arr)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_names_the_first_bad_row(self, dtype, bad):
        for row in range(4):
            arr = np.ones((4, 3), dtype=dtype)
            arr[row, 1] = bad
            assert first_nonfinite_row(arr) == row
            arr[3, 2] = bad
            assert first_nonfinite_row(arr) == row

    def test_opposite_infinities_in_one_row(self):
        arr = np.zeros((3, 2), dtype=np.float32)
        arr[2] = [np.inf, -np.inf]
        assert first_nonfinite_row(arr) == 2

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_finite_rows_whose_sums_overflow_pass(self, dtype):
        big = np.finfo(dtype).max / 1.2
        arr = np.array([[big, big, 1.0], [0.0, -big, -big], [1.0, 2.0, 3.0]], dtype=dtype)
        with np.errstate(over="ignore"):
            assert not np.all(np.isfinite(arr @ np.ones(3, dtype=dtype)))
        assert first_nonfinite_row(arr) is None
        assert first_nonfinite_row(np.array([[3e38, 3e38]], dtype=np.float32)) is None
        arr[2, 0] = np.nan
        assert first_nonfinite_row(arr) == 2

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64, np.int32])
    def test_one_row_and_one_column(self, dtype):
        assert first_nonfinite_row(np.ones((1, 5), dtype=dtype)) is None
        assert first_nonfinite_row(np.ones((5, 1), dtype=dtype)) is None
        if np.dtype(dtype).kind == "f":
            row = np.ones((1, 5), dtype=dtype)
            row[0, 4] = np.nan
            assert first_nonfinite_row(row) == 0
            col = np.ones((5, 1), dtype=dtype)
            col[3, 0] = -np.inf
            assert first_nonfinite_row(col) == 3

    def test_integer_input_is_finite(self):
        # an integer sum may wrap around, but no integer is non-finite
        big = np.iinfo(np.int64).max
        assert first_nonfinite_row(np.array([[big, big], [1, 2]])) is None
        assert first_nonfinite_row(np.arange(12, dtype=np.int32).reshape(3, 4)) is None
