"""Per-layer tracing of frameattn from the outside.

The tracer replaces public functions at the names their callers look up
(a module attribute such as ``frameattn.model.forward_backward``, or a name
imported into another module such as ``frameattn.cli.train``) with wrappers
that time and count each call. Nothing inside ``src/`` is edited; restoring
the saved originals undoes every patch.

Each timed call is a span with a name, start, end and parent. Coarse spans
(one per CLI command, training run, evaluation, file load...) are kept in
memory and written out at the end. Hot leaf calls (one per training
instance) are rolled up into per-name totals and into their parent's child
time, which bounds memory however long a run lasts. A layer's self time is
its spans' durations minus the time covered by their child spans.

A function that a refactor removes or renames is reported as absent; the
run goes on without it.
"""

from __future__ import annotations

import os
import weakref
from collections import defaultdict
from time import perf_counter

import numpy as np


class Stat:
    __slots__ = ("calls", "busy", "self_time", "counts")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.counts = defaultdict(float)


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _file_bytes(path):
    return os.path.getsize(path) if path and os.path.exists(path) else 0


def _frames(dataset, indices=None):
    insts = dataset.instances
    if indices is not None:
        insts = [insts[i] for i in indices]
    return sum(inst.features.shape[0] for inst in insts)


# Work done by one call, read from its arguments and result. Each returns a
# dict of counter name -> amount, added to the span name's counters.

def _fb_work(args, kwargs, result):
    # a batched kernel may take a (B, K, D) array; today's takes one (K, D)
    arr = np.asarray(args[0])
    return {"instances": arr.shape[0] if arr.ndim == 3 else 1}


def _forward_work(args, kwargs, result):
    return {"frames": np.asarray(args[0]).shape[0]}


def _train_work(args, kwargs, result):
    dataset, config = args[0], _arg(args, kwargs, 1, "config")
    indices = _arg(args, kwargs, 2, "train_indices")
    n = len(dataset.instances) if indices is None else len(indices)
    return {"instances": config.total_epochs * n}


def _evaluate_work(args, kwargs, result):
    dataset = _arg(args, kwargs, 1, "dataset")
    indices = _arg(args, kwargs, 5, "indices")
    videos = len(dataset.instances) if indices is None else len(indices)
    if _arg(args, kwargs, 2, "frame_mode", "all") == "sampled":
        frames = _arg(args, kwargs, 3, "k", 3) * videos
    else:
        frames = _frames(dataset, indices)
    return {"videos": videos, "frames": frames}


def _export_work(args, kwargs, result):
    dataset, path = args[1], _arg(args, kwargs, 2, "path")
    csv_path = path if path.endswith(".csv") else path + ".csv"
    json_path = os.path.splitext(csv_path)[0] + ".json"
    return {"rows": _frames(dataset, _arg(args, kwargs, 3, "indices")),
            "bytes": _file_bytes(csv_path) + _file_bytes(json_path)}


def _file_size(pos, name="path"):
    """Work counter: the size of the file named by argument `pos`."""
    return lambda args, kwargs, result: {"bytes": _file_bytes(_arg(args, kwargs, pos, name))}


# (span name, attribute, modules that hold it, kept as a span, work counter).
# A span name may cover several functions (checkpoint save and load).
TIMED = [
    ("cli", "main", ["frameattn.cli"], True, None),
    ("data.synth", "synth_generate", ["frameattn", "frameattn.data", "frameattn.cli"], True, None),
    ("data.write", "write_feature_file", ["frameattn", "frameattn.data", "frameattn.cli"], True, _file_size(1)),
    ("data.load", "load_feature_file", ["frameattn", "frameattn.data", "frameattn.cli"], True, _file_size(0)),
    ("sampling.sample", "sample_training", ["frameattn", "frameattn.sampling"], False, None),
    ("sampling.stream", "stream", ["frameattn.sampling"], False, None),
    ("model.fb", "forward_backward", ["frameattn.model"], False, _fb_work),
    ("model.forward", "forward", ["frameattn", "frameattn.model", "frameattn.cli"], False, _forward_work),
    ("training.train", "train", ["frameattn", "frameattn.training", "frameattn.cli", "frameattn.evaluation"], True, _train_work),
    ("training.sgd", "sgd_step", ["frameattn", "frameattn.training"], False, None),
    ("training.ckpt", "save_checkpoint", ["frameattn", "frameattn.training", "frameattn.cli"], True, _file_size(1)),
    ("training.ckpt", "load_checkpoint", ["frameattn", "frameattn.training", "frameattn.cli"], True, _file_size(0)),
    ("evaluation.evaluate", "evaluate", ["frameattn", "frameattn.evaluation", "frameattn.cli"], True, _evaluate_work),
    ("evaluation.cv", "cross_validate", ["frameattn", "frameattn.evaluation", "frameattn.cli"], True, None),
    ("evaluation.baseline", "score_fusion_baseline", ["frameattn", "frameattn.evaluation"], True, None),
    ("evaluation.export", "export_attention", ["frameattn", "frameattn.evaluation", "frameattn.cli"], True, _export_work),
]

# Counted but not timed: a clock read per call would cost more than the call.
COUNTED = [
    ("numerics.xent", "softmax_cross_entropy", ["frameattn.numerics", "frameattn.model", "frameattn.evaluation", "frameattn.cli"]),
    ("numerics.sigmoid", "sigmoid", ["frameattn.numerics", "frameattn.model"]),
    ("numerics.check", "as_vector", ["frameattn.numerics", "frameattn.model"]),
    ("numerics.check", "as_matrix", ["frameattn.numerics", "frameattn.model"]),
]

# What an untraced run needs for its throughput metrics: a handful of calls
# per round, so the wrappers cost nothing measurable.
LIGHT = {"training.train", "evaluation.evaluate"}


class Tracer:
    """Installs wrappers, collects spans and per-name statistics."""

    def __init__(self, modules: dict, light: bool = False):
        self._modules = modules
        self._light = light
        self._saved = []
        self._stack = []
        self._next_id = 0
        self.spans = []
        self.stats = defaultdict(Stat)
        self.absent = []
        self._validated = {}   # id -> weak reference of each dataset validated
        self.distinct_frames = 0

    def reset(self):
        """Forget the statistics; spans are kept until the run ends."""
        self.stats = defaultdict(Stat)
        self._validated = {}
        self.distinct_frames = 0

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, attr, owners, make):
        """Replace `attr` on every owner that has it with make(original)."""
        found = False
        for key in owners:
            owner = self._modules.get(key)
            if owner is not None and hasattr(owner, attr):
                self._patch(owner, attr, make(getattr(owner, attr)))
                found = True
        if not found:
            self._missing(f"{owners[0]}.{attr}")

    def install(self):
        for name, attr, owners, keep, work in TIMED:
            if not self._light or name in LIGHT:
                self._wrap(attr, owners, lambda fn: self._timed(name, fn, keep, work))
        if self._light:
            return
        for name, attr, owners in COUNTED:
            self._wrap(attr, owners, lambda fn: self._counted(name, fn))
        self._wrap("validate", ["frameattn.data.Dataset"],
                   lambda fn: self._timed("data.validate", fn, True, self._validate_work))

    def _missing(self, qualname):
        if qualname not in self.absent:
            self.absent.append(qualname)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _validate_work(self, args, kwargs, result):
        dataset = args[0]
        frames = _frames(dataset)
        seen = self._validated.get(id(dataset))
        if seen is None or seen() is not dataset:
            self._validated[id(dataset)] = weakref.ref(dataset)
            self.distinct_frames += frames
        return {"frames": frames}

    def _timed(self, name, fn, keep, work):
        stack = self._stack

        def wrapped(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[0] += dur
                st = self.stats[name]
                st.calls += 1
                st.busy += dur
                st.self_time += dur - frame[0]
                if keep:
                    self.spans.append((name, t0, t1, frame[1],
                                       None if parent is None else parent[1]))
            if work is not None:
                for key, amount in work(args, kwargs, result).items():
                    self.stats[name].counts[key] += amount
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _counted(self, name, fn):
        def wrapped(*args, **kwargs):
            self.stats[name].calls += 1
            return fn(*args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped
