"""Fuzzing the number rule: every setting, given a value of any kind, either
passes or raises ConfigError naming its field, never another error.

Only making a config and the cheap entry points run. A drawn count that passes
would size an allocation (k frames a video, epochs, batches), so nothing
trains on one, and sampled evaluation runs only on small frame counts."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from frameattn.data import Dataset, SynthConfig, VideoInstance, build_folds
from frameattn.errors import ConfigError
from frameattn.evaluation import evaluate
from frameattn.model import init_params
from frameattn.training import TrainConfig

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)

NUMPY = [np.int64(3), np.uint8(2), np.int32(-1), np.int64(-2**63), np.uint64(2**64 - 1),
         np.float64("nan"), np.float32(0.5), np.float16(np.inf), np.float64(1e300),
         np.bool_(True)]
VALUE = st.one_of(
    st.integers(-3, 70),
    st.integers(-10**30, 10**30),
    st.sampled_from([2**31, 2**63, -2**63 - 1, 10**400, -10**400]),
    # too long for str(), which no message may call on them; drawn by a map,
    # since hypothesis prints the values it samples from
    st.sampled_from([1, -1]).map(lambda sign: sign * 10**5000),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
    st.complex_numbers(max_magnitude=10),
    st.sampled_from(NUMPY),
    st.tuples(st.integers(-1, 3), st.floats(allow_nan=True)),
    # shaped like a schedule, with epochs and rates of any kind
    st.lists(st.tuples(st.one_of(st.integers(-1, 40), st.floats(-1, 40), st.text(max_size=2)),
                       st.one_of(st.floats(allow_nan=True), st.integers(-2, 2), st.none())),
             max_size=3),
)

# a valid count this large would size an allocation if it were run
SMALL_K = VALUE.filter(lambda v: isinstance(v, bool) or not isinstance(v, (int, np.integer))
                       or v <= 8)

TRAIN_FIELDS = [f.name for f in dataclasses.fields(TrainConfig)]
SYNTH_FIELDS = [f.name for f in dataclasses.fields(SynthConfig)]
NAMES = {"schedule": ("schedule", "learning rate"), "fold_count": ("fold_count", "subjects")}


def passes_or_names(call, field):
    """Run `call`: it returns, or raises ConfigError whose message names the
    field; any other exception fails the test."""
    try:
        call()
    except ConfigError as e:
        assert any(name in str(e) for name in NAMES.get(field, (field,))), (field, str(e))


def tiny_dataset():
    rng = np.random.default_rng(0)
    return Dataset([VideoInstance(f"v{i}", f"s{i}", i % 2, rng.standard_normal((1 + i, 3)))
                    for i in range(4)], 3, 2, ["a", "b"])


DATASET = tiny_dataset()
PARAMS = init_params(3, 2, seed=0)


@FUZZ
@given(field=st.sampled_from(TRAIN_FIELDS), value=VALUE)
def test_train_config_field(field, value):
    passes_or_names(lambda: TrainConfig(**{field: value}), field)


@FUZZ
@given(field=st.sampled_from(SYNTH_FIELDS), value=VALUE)
def test_synth_config_field(field, value):
    passes_or_names(lambda: SynthConfig(**{field: value}), field)


@FUZZ
@given(k=SMALL_K, seed=VALUE)
def test_sampled_evaluation_k_and_seed(k, seed):
    def call():
        report = evaluate(PARAMS, DATASET, "sampled", k, seed)
        assert report.count == len(DATASET.instances)

    try:
        call()
    except ConfigError as e:
        assert str(e).startswith(("k ", "seed ")), str(e)


@FUZZ
@given(count=VALUE)
def test_fold_count(count):
    passes_or_names(lambda: build_folds(DATASET, count), "fold_count")
