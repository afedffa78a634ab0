"""Segment-based frame selection.

Training instances use K frames drawn one-per-segment from a video split
into K contiguous index ranges; evaluation enumerates every frame. All
randomness comes through an explicit numpy Generator so samples are
reproducible. Training draws a whole epoch at once from one (seed, epoch)
stream; sampled evaluation uses one (seed, instance index) stream per video.
"""

from __future__ import annotations

import numpy as np

from .numerics import require_integer


def stream(seed: int, *keys: int) -> np.random.Generator:
    """Independent PCG64 stream for a (seed, key...) tuple.

    The entropy is the full integer tuple, so streams for different epochs
    or instances never collide.
    """
    return np.random.default_rng([int(seed), *[int(k) for k in keys]])


def _segment_bounds(lengths: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(N, k) starts and ends of the floor-rounded segments of N videos:
    segment s of an n-frame video is [floor(s*n/k), floor((s+1)*n/k)).
    A k that is not a positive integer raises ValueError."""
    require_integer("k", k, 1, ValueError)
    edges = lengths[:, None] * np.arange(k + 1) // k
    return edges[:, :-1], edges[:, 1:]


def sample_segments(lengths, k: int, rng: np.random.Generator) -> np.ndarray:
    """One uniformly random frame index per segment for each of N videos.

    Returns an (N, k) integer array; row i samples a video of lengths[i]
    frames. Empty segments (only possible when n < k) repeat the nearest
    preceding segment's sample; empty segments before the first non-empty
    one copy the first sample instead, so every row is non-decreasing. As
    every non-empty segment of such a video holds one frame, an empty
    segment starting at frame lo takes frame lo - 1, or frame 0 when lo
    is 0.
    lengths must be positive integers: floats, bools and text raise
    ValueError, not rounded or cast.
    """
    lengths = np.asarray(lengths)
    if lengths.size and lengths.dtype.kind not in "iu":
        raise ValueError(f"lengths must be integers, got {lengths.dtype} values")
    lengths = lengths.astype(np.int64)
    if lengths.ndim != 1 or (lengths.size and lengths.min() < 1):
        raise ValueError("lengths must be positive")
    lo, hi = _segment_bounds(lengths, k)
    # an empty segment [lo, lo) is drawn from [lo - 1, lo), or from [0, 1)
    # when lo is 0; a range of one yields its value without drawing, so the
    # draws are one scalar rng.integers(lo, hi) per non-empty segment, row
    # by row, segment by segment
    hi = np.maximum(hi, 1)
    return rng.integers(np.minimum(lo, hi - 1), hi)


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
