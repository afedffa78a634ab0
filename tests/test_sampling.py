import numpy as np
import pytest

from frameattn.sampling import (
    _segment_bounds,
    sample_segments,
    sample_training,
    stream,
    training_draw,
)


def segment_plan(n, k):
    """The (lo, hi) segments of one n-frame video, from _segment_bounds."""
    lo, hi = _segment_bounds(np.array([n]), k)
    return list(zip(lo[0].tolist(), hi[0].tolist()))


class TestPlanSegments:
    """The segment plan every sampler draws from, sampling._segment_bounds:
    segment s of n frames is [floor(s*n/k), floor((s+1)*n/k))."""

    def test_even_split(self):
        assert segment_plan(9, 3) == [(0, 3), (3, 6), (6, 9)]

    def test_singleton_segments(self):
        assert segment_plan(3, 3) == [(0, 1), (1, 2), (2, 3)]

    def test_floor_formula(self):
        assert segment_plan(7, 3) == [(0, 2), (2, 4), (4, 7)]

    def test_partition_property(self):
        # exhaustive over the supported verification range
        for n in range(1, 201):
            for k in range(1, 11):
                bounds = segment_plan(n, k)
                assert len(bounds) == k
                assert bounds[0][0] == 0 and bounds[-1][1] == n
                for (a0, a1), (b0, b1) in zip(bounds, bounds[1:]):
                    assert a1 == b0  # contiguous, non-overlapping, ordered
                assert all(lo <= hi for lo, hi in bounds)
                if n >= k:
                    assert all(hi > lo for lo, hi in bounds)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            segment_plan(3, 0)
        # a count that is not an integer is refused, not rounded
        for k in (2.5, "2", True, None):
            with pytest.raises(ValueError, match="must be an integer"):
                segment_plan(3, k)


class TestSampleTraining:
    def test_singleton_segments_any_seed(self):
        for seed in range(20):
            assert sample_training(3, 3, stream(seed)) == [0, 1, 2]

    def test_duplication_rule(self):
        for seed in range(20):
            assert sample_training(1, 3, stream(seed)) == [0, 0, 0]

    def test_golden_sample(self):
        # pinned once for the PCG64 stream; one index per segment of [0,9)
        assert sample_training(9, 3, stream(42)) == [0, 5, 7]

    def test_in_segment_and_increasing(self):
        for n in range(1, 60):
            for k in range(1, 11):
                if n < k:
                    continue
                picks = sample_training(n, k, stream(n * 100 + k))
                bounds = segment_plan(n, k)
                assert all(lo <= p < hi for p, (lo, hi) in zip(picks, bounds))
                assert all(a < b for a, b in zip(picks, picks[1:]))
                assert all(p < n for p in picks)

    def test_nondecreasing_when_short(self):
        for n in range(1, 10):
            for k in range(n + 1, 12):
                picks = sample_training(n, k, stream(n + k))
                assert len(picks) == k
                assert all(a <= b for a, b in zip(picks, picks[1:]))
                assert all(0 <= p < n for p in picks)

    def test_deterministic_given_seed(self):
        assert (sample_training(12, 3, stream(7, 3, 5))
                == sample_training(12, 3, stream(7, 3, 5)))

    def test_distinct_streams_differ(self):
        draws = {tuple(sample_training(100, 3, stream(7, e, 0))) for e in range(20)}
        assert len(draws) > 1


class TestSampleSegments:
    def test_rows_in_segment_and_ordered(self):
        rng = np.random.default_rng(3)
        for k in range(1, 11):
            lengths = rng.integers(1, 60, size=200)
            picks = sample_segments(lengths, k, stream(k))
            assert picks.shape == (200, k)
            for n, row in zip(lengths.tolist(), picks.tolist()):
                assert all(0 <= p < n for p in row)
                if n >= k:
                    bounds = segment_plan(n, k)
                    assert all(lo <= p < hi for p, (lo, hi) in zip(row, bounds))
                    assert all(a < b for a, b in zip(row, row[1:]))
                else:
                    assert all(a <= b for a, b in zip(row, row[1:]))

    def test_short_rows_follow_the_preceding_segment(self):
        # n < k: each non-empty segment holds one frame, its only choice; an
        # empty one repeats the sample before it, or the first sample when
        # none is before it. No draw is spent on such a row
        def oracle(n, k):
            row = [lo if hi > lo else None for lo, hi in segment_plan(n, k)]
            for s, p in enumerate(row):
                if p is None:
                    row[s] = row[s - 1] if s else next(q for q in row if q is not None)
            return row

        for k in range(2, 17):
            shorts = list(range(1, min(k, 13)))
            # the long video between the short ones spends the only draws
            rows = sample_segments(shorts + [k + 5] + shorts, k, stream(k)).tolist()
            for n, row in zip(shorts + shorts, rows[:len(shorts)] + rows[len(shorts) + 1:]):
                assert row == oracle(n, k), (n, k)
            for n in shorts:
                rng = stream(k, n)
                assert sample_segments([n], k, rng).tolist() == [oracle(n, k)], (n, k)
                assert rng.integers(1 << 62) == stream(k, n).integers(1 << 62)

    def test_rows_continue_one_stream(self):
        # N rows draw what N one-row calls on the same generator draw
        lengths = [9, 2, 17, 5, 1, 30]
        single = stream(5)
        rows = [sample_training(n, 4, single) for n in lengths]
        assert sample_segments(lengths, 4, stream(5)).tolist() == rows

    def test_bad_args(self):
        with pytest.raises(ValueError):
            sample_segments([3, 0], 3, stream(0))
        with pytest.raises(ValueError):
            sample_segments([3], 0, stream(0))
        for k in (2.5, "2", True, np.float64(2.0)):
            with pytest.raises(ValueError, match="^k must be an integer"):
                sample_segments([4], k, stream(0))
            with pytest.raises(ValueError, match="^k must be an integer"):
                sample_training(4, k, stream(0))
        # a frame count that is not an integer is refused, not cast
        for lengths in ([2.5], [2.9], np.array([True]), ["3"]):
            with pytest.raises(ValueError, match="^lengths must be integers, got "):
                sample_segments(lengths, 2, stream(0))
        assert sample_segments([True, 3], 2, stream(0)).shape == (2, 2)  # an int array


class TestTrainingDraw:
    def test_golden_epoch_draw(self):
        # pinned for the (seed, epoch) stream: the permutation first, then
        # each instance's segment samples in permuted order
        order, picks = training_draw(7, 2, [9, 4, 12, 2, 30], 3)
        assert order.tolist() == [0, 2, 1, 3, 4]
        assert picks.tolist() == [[1, 5, 7], [2, 7, 8], [0, 1, 2], [0, 0, 1],
                                  [2, 10, 21]]

