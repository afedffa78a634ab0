"""Segment-based frame selection.

Training instances use K frames drawn one-per-segment from a video split
into K contiguous index ranges; evaluation enumerates every frame. All
randomness comes through an explicit numpy Generator so samples are
reproducible. Training draws a whole epoch at once from one (seed, epoch)
stream; sampled evaluation uses one (seed, instance index) stream per video.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SegmentPlan:
    """K half-open index ranges covering [0, n), in order, non-overlapping."""

    n: int
    k: int
    boundaries: list[tuple[int, int]]


def stream(seed: int, *keys: int) -> np.random.Generator:
    """Independent PCG64 stream for a (seed, key...) tuple.

    The entropy is the full integer tuple, so streams for different epochs
    or instances never collide.
    """
    return np.random.default_rng([int(seed), *[int(k) for k in keys]])


def _segment_bounds(lengths: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(N, k) starts and ends of the floor-rounded segments of N videos:
    segment s of an n-frame video is [floor(s*n/k), floor((s+1)*n/k))."""
    edges = lengths[:, None] * np.arange(k + 1) // k
    return edges[:, :-1], edges[:, 1:]


def plan_segments(n: int, k: int) -> SegmentPlan:
    """Split [0, n) into k floor-rounded ranges; range s is
    [floor(s*n/k), floor((s+1)*n/k)). Ranges may be empty when n < k."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    lo, hi = _segment_bounds(np.array([n]), k)
    return SegmentPlan(n=n, k=k,
                       boundaries=list(zip(lo[0].tolist(), hi[0].tolist())))


def sample_segments(lengths, k: int, rng: np.random.Generator) -> np.ndarray:
    """One uniformly random frame index per segment for each of N videos.

    Returns an (N, k) integer array; row i samples a video of lengths[i]
    frames. Empty segments (only possible when n < k) repeat the nearest
    preceding segment's sample; empty segments before the first non-empty
    one copy the first sample instead, so every row is non-decreasing.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.ndim != 1 or k < 1 or (lengths.size and lengths.min() < 1):
        raise ValueError("lengths and k must be positive")
    lo, hi = _segment_bounds(lengths, k)
    # an empty segment's range [lo, lo+1) yields lo without drawing, so the
    # draws are one scalar rng.integers(lo, hi) per non-empty segment, row
    # by row, segment by segment
    picks = rng.integers(lo, np.maximum(hi, lo + 1))
    empty = hi == lo
    if empty.any():
        source = np.where(empty, -1, np.arange(k))
        np.maximum.accumulate(source, axis=1, out=source)
        source = np.where(source < 0, np.argmin(empty, axis=1)[:, None], source)
        picks = picks[np.arange(len(picks))[:, None], source]
    return picks


def sample_training(n: int, k: int, rng: np.random.Generator) -> list[int]:
    """One uniformly random frame index per segment, length exactly k: the
    one-video case of sample_segments."""
    return sample_segments([n], k, rng)[0].tolist()


def training_draw(seed: int, epoch: int, lengths,
                  k: int) -> tuple[np.ndarray, np.ndarray]:
    """One epoch's training draw, all from the (seed, epoch) stream.

    First a permutation of the N training instances, then each instance's k
    segment samples, in permuted order. Returns (order, picks): row i of the
    (N, k) picks belongs to instance order[i].
    """
    rng = stream(seed, epoch)
    order = rng.permutation(len(lengths))
    return order, sample_segments(np.asarray(lengths)[order], k, rng)


def frames_for_eval(n: int) -> list[int]:
    """Every frame index of an n-frame video, in order."""
    if n < 1:
        raise ValueError("n must be positive")
    return list(range(n))
