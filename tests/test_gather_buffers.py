"""Who owns the float64 buffer a stack is gathered into: training.fit owns
one for a whole run, and each scoring walk (model.equal_length_stacks) one
sized to the largest stack it cuts. Every stack the kernel sees is a view
of that buffer, so no (B, K, D) float64 block is made per batch or per
stack: a stack is good until its owner gathers the next one."""

import tracemalloc

import numpy as np
import pytest

from frameattn import model, training
from frameattn.data import (PackedFrames, StoredFrames, SynthConfig, load_feature_file,
                            open_feature_file, synth_generate, write_feature_file)
from frameattn.model import Mode, init_params
from frameattn.training import TrainConfig


def owner(a: np.ndarray) -> np.ndarray:
    """The array that owns a view's memory (the array itself if it owns it)."""
    while a.base is not None:
        a = a.base
    return a


def kernel_stacks(monkeypatch) -> list:
    """Record every stack model._kernel is called on, keeping it alive so
    that no two distinct stacks can share an address."""
    seen = []
    kernel = model._kernel

    def recording(f, *args):
        seen.append(f)
        return kernel(f, *args)

    monkeypatch.setattr(model, "_kernel", recording)
    return seen


def test_a_training_run_gathers_every_batch_into_one_buffer(monkeypatch):
    # 40 videos, D=512, batches of 16: 3 batches (16, 16, 8) an epoch
    ds = synth_generate(SynthConfig(videos_per_class=10, frames_min=3, frames_max=6, dim=512,
                                    num_classes=4, subject_count=5, seed=3))
    seen = kernel_stacks(monkeypatch)
    # the memory each gather allocates beyond what it started with, at its
    # peak: the float32 frames it picks, and no float64 block
    grown = []
    stack = PackedFrames.stack

    def traced(self, videos, *args):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = stack(self, videos, *args)
        grown.append((len(videos), tracemalloc.get_traced_memory()[1] - before))
        return out

    monkeypatch.setattr(PackedFrames, "stack", traced)
    tracemalloc.start()
    try:
        training.train(ds, TrainConfig(batch_size=16, k=3, total_epochs=4, seed=1))
    finally:
        tracemalloc.stop()
    assert [len(f) for f in seen] == [16, 16, 8] * 4
    assert all(peak < 8 * b * 3 * 512 for b, peak in grown), grown
    buffers = {id(owner(f)) for f in seen}
    assert len(buffers) == 1
    buffer = owner(seen[0])
    assert buffer.shape == (16, 3, 512) and buffer.dtype == np.float64


def test_a_run_smaller_than_a_batch_sizes_its_buffer_to_the_run(monkeypatch):
    ds = synth_generate(SynthConfig(videos_per_class=2, frames_min=3, frames_max=4, dim=8,
                                    num_classes=3, subject_count=3, seed=3))
    seen = kernel_stacks(monkeypatch)
    training.train(ds, TrainConfig(batch_size=48, k=2, total_epochs=2, seed=1))
    assert len(seen) == 2 and {id(owner(f)) for f in seen} == {id(owner(seen[0]))}
    assert owner(seen[0]).shape == (6, 2, 8)


@pytest.fixture
def ragged_file(tmp_path):
    """60 videos of 3 to 12 frames, D=16: several stacks of each length at
    a 4000-byte budget."""
    path = tmp_path / "ragged.fanf"
    write_feature_file(synth_generate(SynthConfig(videos_per_class=20, frames_min=3,
                                                  frames_max=12, dim=16, num_classes=3,
                                                  seed=4)), str(path))
    return path


@pytest.mark.parametrize("reader", [load_feature_file, open_feature_file],
                         ids=["loaded", "opened"])
def test_a_scoring_walk_gathers_every_stack_into_one_buffer(ragged_file, monkeypatch, reader):
    monkeypatch.setattr(model, "SCORE_CHUNK_BYTES", 4000)
    packed = reader(str(ragged_file)).packed
    seen = kernel_stacks(monkeypatch)
    model.score(init_params(16, 3, Mode.FULL, seed=2), packed)
    assert len({f.shape[1] for f in seen}) == 10 and len(seen) > 20
    assert len({id(owner(f)) for f in seen}) == 1
    # sized to the largest stack the walk cuts, not to the budget
    assert owner(seen[0]).size == max(f.size for f in seen)
    assert owner(seen[0]).dtype == np.float64


def test_an_opened_stack_reads_every_video_into_one_buffer(ragged_file, monkeypatch):
    packed = open_feature_file(str(ragged_file)).packed
    loaded = load_feature_file(str(ragged_file)).packed
    longest = int(np.diff(packed.offsets).max())
    reads = []
    read_into = StoredFrames.read_into

    def recording(self, out):
        reads.append(out)
        return read_into(self, out)

    monkeypatch.setattr(StoredFrames, "read_into", recording)
    same_length = np.flatnonzero(packed.lengths(np.arange(60)) == 5)[:3]
    for videos, picks, k in (([5, 0, 17, 42], np.tile(np.arange(3), (4, 1)), 3),
                             ([59, 7], np.array([[0, 2], [1, 1]]), 2), (same_length, None, 5)):
        reads.clear()
        videos = np.array(videos)
        out, want = np.empty((len(videos), k, 16)), np.empty((len(videos), k, 16))
        assert packed.stack(videos, picks, out) is out
        assert loaded.stack(videos, picks, want) is want
        assert out.tobytes() == want.tobytes()
        assert [len(r) for r in reads] == packed.lengths(videos).tolist()
        assert len({id(owner(r)) for r in reads}) == 1
        assert owner(reads[0]).shape == (longest, 16) and owner(reads[0]).dtype == np.float32
    # picks None: every frame of each video, as picks of every position
    assert out.tobytes() == packed.stack(videos, np.tile(np.arange(5), (3, 1)),
                                         np.empty((3, 5, 16))).tobytes()
