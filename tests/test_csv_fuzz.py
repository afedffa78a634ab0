"""Fuzzing the CSV import: every damaged or hostile text either loads as a
checked Dataset or raises a FrameAttnError, and importing it allocates
little beyond a few times the file's size."""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from frameattn.data import Dataset, load_feature_csv
from frameattn.errors import FrameAttnError

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)
# what importing a file of a few hundred bytes may allocate beyond a few
# times its size: the parsed rows, the dataset and an exception
SLACK = 64 * 1024

# D=2, two videos of 2 and 1 frames given out of order, holding a negative
# zero and a float32 subnormal
VALID = (b"v0,s0,1,1,1.0,2.0\n"
         b"v1,s1,0,0,-3.5,1e-40\n"
         b"v0,s0,1,0,0.5,-0.0\n")

NUMBER = st.one_of(st.integers(-3, 12), st.integers(-10**30, 10**30),
                   st.sampled_from([2**31, 2**63, 10**400]))
TOKEN = st.one_of(
    NUMBER.map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "NaN", "1e999",
                     "", " ", "0x1", "1_0", '"', '""', "\x00"]),
    st.text(max_size=6),
)
LINE = st.lists(TOKEN, max_size=8).map(",".join)


def check_import(path, data: bytes):
    """Import `data` from `path`: either it loads as a checked Dataset or it
    raises a FrameAttnError; either way within the bound. Returns the
    dataset, or None when it raised."""
    path.write_bytes(data)
    tracemalloc.start()
    try:
        try:
            ds = load_feature_csv(str(path))
        except FrameAttnError:
            ds = None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < SLACK + 4 * len(data), peak
    if ds is not None:
        assert isinstance(ds, Dataset)
        ds.validate()
        assert sum(len(inst.features) for inst in ds.instances) <= data.count(b"\n") + 1
    return ds


def test_valid_file_imports(tmp_path):
    ds = check_import(tmp_path / "valid.csv", VALID)
    assert ds is not None and ds.num_classes == 2
    np.testing.assert_array_equal(ds.instances[0].features, [[0.5, -0.0], [1.0, 2.0]])


@FUZZ
@given(lines=st.lists(LINE, min_size=1, max_size=12),
       ending=st.sampled_from(["\n", "\r\n", "\r"]))
def test_random_lines_import_or_raise(tmp_path_factory, lines, ending):
    data = ending.join(lines).encode("utf-8", "surrogatepass")
    check_import(tmp_path_factory.getbasetemp() / "lines.csv", data)


@FUZZ
@given(pos=st.integers(0, len(VALID)), junk=st.binary(min_size=1, max_size=8))
def test_inserted_bytes_import_or_raise(tmp_path_factory, pos, junk):
    data = VALID[:pos] + junk + VALID[pos:]
    check_import(tmp_path_factory.getbasetemp() / "bytes.csv", data)


@FUZZ
@given(label=NUMBER, index=NUMBER, values=st.lists(TOKEN, min_size=1, max_size=4))
def test_hostile_fields_import_or_raise(tmp_path_factory, label, index, values):
    # one good line, then a line whose label, frame index and values are
    # drawn: huge or negative numbers, a ragged value count, nan/inf tokens
    data = VALID + f"v2,s2,{label},{index},{','.join(values)}\n".encode(
        "utf-8", "surrogatepass")
    check_import(tmp_path_factory.getbasetemp() / "fields.csv", data)
