"""Fuzzing the FANF loader: every damaged file either loads, as a dataset
that writes back to the same bytes, or raises a FrameAttnError; and no
damaged header makes the loader allocate more than the file could hold."""

import struct
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from frameattn.data import Dataset, VideoInstance, load_feature_file, write_feature_file
from frameattn.errors import FrameAttnError
from mapped_frames import mapped_frames

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)
# what loading a file of a few hundred bytes may allocate beyond a few
# times its size: the Python objects of its records and of an exception
SLACK = 64 * 1024

# D=2, two classes, records of 1, 3 and 2 frames, holding a negative zero
# and a float32 subnormal, with non-ASCII ids
FRAMES = [np.array([[0.5, -0.0]], dtype=np.float32),
          np.array([[1.0, 2.0], [-3.5, 1e-40], [7.0, 0.25]], dtype=np.float32),
          np.array([[-1.0, 3.0], [0.125, -2.0]], dtype=np.float32)]


def _str(text: str) -> bytes:
    raw = text.encode()
    return struct.pack("<H", len(raw)) + raw


def _valid():
    """The file's bytes and the byte offset of each record's frame count."""
    data = b"FANF" + struct.pack("<IIIQ", 1, 2, 2, len(FRAMES)) + _str("neg") + _str("pos")
    n_at = []
    for i, frames in enumerate(FRAMES):
        data += _str(f"v{i}é") + _str(f"s{i}") + struct.pack("<I", i % 2)
        n_at.append(len(data))
        data += struct.pack("<I", len(frames)) + frames.astype("<f4").tobytes()
    return data, n_at


VALID, N_AT = _valid()
FIELD_AT = {"dim": 8, "classes": 12, "n0": N_AT[0], "n1": N_AT[1], "n2": N_AT[2]}


def check_load(path, data: bytes) -> None:
    """Load `data` from `path`: either it loads, maps its frames' bytes
    once and writes back to the same bytes, or it raises a FrameAttnError;
    either way within the bound."""
    path.write_bytes(data)
    with mapped_frames() as mapped:
        tracemalloc.start()
        try:
            try:
                ds = load_feature_file(str(path))
            except FrameAttnError:
                ds = None
            peak = tracemalloc.get_traced_memory()[1] + sum(mapped)
        finally:
            tracemalloc.stop()
    assert peak < SLACK + 4 * len(data), peak
    if ds is not None:
        assert mapped == [ds.packed.frames.nbytes]  # its frames, mapped once
        back = path.with_suffix(".back")
        write_feature_file(ds, str(back))
        assert back.read_bytes() == data


def test_valid_file_is_canonical_and_round_trips(tmp_path):
    ds = Dataset([VideoInstance(f"v{i}é", f"s{i}", i % 2, f.astype(np.float64))
                  for i, f in enumerate(FRAMES)], 2, 2, ["neg", "pos"])
    write_feature_file(ds, str(tmp_path / "canonical.fanf"))
    assert (tmp_path / "canonical.fanf").read_bytes() == VALID
    check_load(tmp_path / "valid.fanf", VALID)


def test_every_truncation_is_rejected(tmp_path):
    path = tmp_path / "cut.fanf"
    for cut in range(len(VALID)):
        path.write_bytes(VALID[:cut])
        try:
            load_feature_file(str(path))
        except FrameAttnError:
            continue
        raise AssertionError(f"a file cut to {cut} of {len(VALID)} bytes loaded")


@FUZZ
@given(flips=st.lists(st.tuples(st.integers(0, len(VALID) - 1), st.integers(1, 255)),
                      min_size=1, max_size=4))
def test_flipped_bytes_load_or_raise(tmp_path_factory, flips):
    data = bytearray(VALID)
    for pos, mask in flips:
        data[pos] ^= mask
    check_load(tmp_path_factory.getbasetemp() / "flipped.fanf", bytes(data))


@FUZZ
@given(field=st.sampled_from(sorted(FIELD_AT) + ["count"]),
       value=st.one_of(st.integers(0, 8), st.integers(2**16, 2**32 - 1),
                       st.just(2**31)))
def test_inflated_header_fields_load_or_raise(tmp_path_factory, field, value):
    data = bytearray(VALID)
    if field == "count":
        struct.pack_into("<Q", data, 16, value)
    else:
        struct.pack_into("<I", data, FIELD_AT[field], value)
    check_load(tmp_path_factory.getbasetemp() / "inflated.fanf", bytes(data))
