"""Fuzzing the FANP checkpoint loader: every damaged file either loads, as
parameters that save back to the same bytes, or raises a FrameAttnError;
and no damaged header makes the loader allocate more than the file could
hold."""

import struct
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from frameattn.errors import FrameAttnError
from frameattn.training import load_checkpoint, save_checkpoint

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)
# what loading a file of a few hundred bytes may allocate beyond a few
# times its size: the parameter objects and an exception
SLACK = 64 * 1024

# D=2, C=2, full mode: q0 (2), q1 (4), class_w (2, 4), class_b (2), holding
# a negative zero and a float64 subnormal
PAYLOAD = np.array([0.5, -0.0, 1.0, -2.0, 0.25, 5e-324, 3.0, -1.5, 0.0, 2.0,
                    -0.125, 7.0, 1e-300, -4.0, 0.0, -0.0], dtype="<f8")
VALID = b"FANP" + struct.pack("<IIII", 1, 2, 2, 0) + PAYLOAD.tobytes()
FIELD_AT = {"version": 4, "dim": 8, "classes": 12, "mode": 16}


def check_load(path, data: bytes):
    """Load `data` from `path`: either it loads and saves back to the same
    bytes, or it raises a FrameAttnError; either way within the bound.
    Returns the parameters, or None when it raised."""
    path.write_bytes(data)
    tracemalloc.start()
    try:
        try:
            params = load_checkpoint(str(path))
        except FrameAttnError:
            params = None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < SLACK + 4 * len(data), peak
    if params is not None:
        back = path.with_suffix(".back")
        save_checkpoint(params, str(back))
        assert back.read_bytes() == data
    return params


def test_valid_file_round_trips(tmp_path):
    params = check_load(tmp_path / "valid.fanp", VALID)
    assert params is not None and params.flat.tobytes() == PAYLOAD.tobytes()


def test_every_truncation_is_rejected(tmp_path):
    path = tmp_path / "cut.fanp"
    for cut in range(len(VALID)):
        path.write_bytes(VALID[:cut])
        try:
            load_checkpoint(str(path))
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
    check_load(tmp_path_factory.getbasetemp() / "flipped.fanp", bytes(data))


@FUZZ
@given(field=st.sampled_from(sorted(FIELD_AT)),
       value=st.one_of(st.integers(0, 8), st.integers(2**16, 2**32 - 1),
                       st.just(2**31)))
def test_inflated_header_fields_load_or_raise(tmp_path_factory, field, value):
    data = bytearray(VALID)
    struct.pack_into("<I", data, FIELD_AT[field], value)
    check_load(tmp_path_factory.getbasetemp() / "inflated.fanp", bytes(data))


@FUZZ
@given(extra=st.binary(min_size=1, max_size=64))
def test_appended_bytes_are_rejected(tmp_path_factory, extra):
    path = tmp_path_factory.getbasetemp() / "long.fanp"
    path.write_bytes(VALID + extra)
    try:
        load_checkpoint(str(path))
    except FrameAttnError:
        return
    raise AssertionError(f"{len(extra)} trailing bytes loaded")
