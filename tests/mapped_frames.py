"""The bytes of the packed frame matrices mapped inside a block.

A packed matrix is an anonymous mapping of its own (data._empty_pack), not
heap memory, so tracemalloc does not see it. A memory bound adds the bytes
recorded here to tracemalloc's peak, and a check that nothing was
allocated reads them as an empty list.
"""

import contextlib

from frameattn import data


@contextlib.contextmanager
def mapped_frames():
    """Yield a list that records the length of the mapping each
    data._empty_pack call makes while the block runs."""
    sizes = []
    real = data._empty_pack

    def recorded(*args):
        frames, offsets, rows = real(*args)
        sizes.append(len(frames.base))
        return frames, offsets, rows

    data._empty_pack = recorded
    try:
        yield sizes
    finally:
        data._empty_pack = real
