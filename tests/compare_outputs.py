"""Byte comparison of the CLI's outputs: a parent checkout against this one.

    python3 tests/compare_outputs.py --parent DIR

DIR is the root of another checkout (for example the parent commit, made
with ``git archive``). For each checkout, a fixed matrix of ``frameattn``
commands runs in a fresh working directory, each command in its own
process on the checkout's ``src/``, with one BLAS thread and the same
relative paths on both sides:

  * synth, then train (full and self-only, each with --history, and one
    run whose update overflows), eval (all frames, --per-instance,
    sampled), visualize (both heads) and cv (both modes, and one run whose
    update overflows in its first fold);
  * train --preset synth-default without --data, on the synthetic set it
    generates for itself, in both modes, each with --history;
  * corrupt copies of the feature file and of the full head, each loaded
    by ``eval``: bad magic bytes, an unsupported version and a header cut
    short, for both formats, and a feature file whose dim is 0. Their exit
    codes and stderr pin both loaders' error paths;
  * copies of the feature file with one defective record, the sixth: one
    holding a NaN, one whose label is the class count and one with no
    frames (its features taken out). Each goes through eval on all and on
    sampled frames and through visualize, which must write nothing;
  * then an API step for what the CLI cannot reach, dumped to api.json:
    score_fusion_baseline reports, in-sample and on one held-out fold; a
    train on that fold's training split, each epoch's stats and the parameters;
    evaluate of both trained heads, on all and on sampled frames, with
    repeated and negative indices; forward and backward of both heads on
    one video's frames as a float32 view, as ints and as bools, which the
    head widens to float64; and 12 small videos of float64 values built in
    memory as a Dataset, written as arrays.fanf and evaluated;
  * eval on sampled frames with --k 20, more than any video's frame
    count, so every video has empty segments;
  * an API step that dumps, to nan.json, the error line of evaluate,
    export_attention and score_fusion_baseline on a dataset made in memory
    with a NaN in one held-out video (made inside each call) and on the
    NaN-record copy of the feature file, opened;
  * empty selections: an API step that writes a header-only copy of the
    feature file (empty.fanf) and dumps, to empty_selections.json, the
    error line of evaluate, export_attention, model.score,
    score_fusion_baseline on an empty test split and cross_validate with
    FoldPlan(0, {}); then eval and visualize on empty.fanf.

Each command's exit code, stdout and stderr are compared, and then every
file left in the two working directories, byte for byte. Python warning
lines (``path:line: SomeWarning: ...`` and the source line under each)
are taken out of stderr before the comparison and counted per side, since
they name the checkout's own path and line numbers; the counts are
printed. The CSV and JSON files that visualize writes may differ in the
last bits of their floats: there only, a differing field that is a number
on both sides is counted, with the largest absolute difference, and any
other difference is a difference.

The exit code is 0 when nothing but exported floats differs. Not collected
by pytest; it takes a few seconds.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DATA = "data.fanf"

# The library calls of the API step; it runs after the CLI steps, which
# leave the data file and both trained heads in the working directory.
API = f"""\
import json
import numpy as np
import frameattn as fa

ds = fa.load_feature_file({DATA!r})
train_idx, test_idx = fa.split_by_fold(ds, fa.build_folds(ds, 5), 0)
config = fa.TrainConfig(batch_size=16, total_epochs=4, seed=3)
out = {{}}
for split, fit_on, test_on in (("in-sample", None, None), ("fold 0", train_idx, test_idx)):
    out[f"baseline {{split}}"] = fa.score_fusion_baseline(ds, config, fit_on, test_on).to_dict()
params, history = fa.train(ds, config, train_idx)
out["train on fold 0"] = {{"history": [[s.epoch, s.lr, s.loss, s.train_accuracy]
                                       for s in history],
                           "params": params.flat.tolist()}}
video = ds.instances[3]  # its features: a float32 view of the packed frames
for name in ("full.fanp", "self.fanp"):
    head = fa.load_checkpoint(name)
    for frame_mode in ("all", "sampled"):
        report = fa.evaluate(head, ds, frame_mode, 3, 5, [5, -1, 5, 0, -40, 5])
        out[f"evaluate {{name}} {{frame_mode}}"] = {{
            **report.to_dict(), "predictions": report.predictions.tolist()}}
    for kind, frames in (("float32 view", video.features),
                         ("int", np.rint(4 * video.features).astype(np.int64)),
                         ("bool", video.features > 0)):
        logits, trace = fa.forward(frames, head)
        loss, grads = fa.backward(frames, head, video.label)
        out[f"forward and backward {{name}} {{kind}}"] = {{
            "logits": logits.tolist(), "loss": loss, "grads": grads.flat.tolist(),
            **{{field: value.tolist() for field, value in vars(trace).items()}}}}
rng = np.random.default_rng(4)
arrays_ds = fa.Dataset([fa.VideoInstance(f"c{{v}}", f"s{{v % 3}}", v % ds.num_classes,
                                         rng.standard_normal((1 + v % 5, ds.dim)))
                        for v in range(12)], ds.dim, ds.num_classes, ds.class_names)
fa.write_feature_file(arrays_ds, "arrays.fanf")
out["arrays frames dtype"] = str(arrays_ds.packed.frames.dtype)
for frame_mode in ("all", "sampled"):
    report = fa.evaluate(fa.load_checkpoint("full.fanp"), arrays_ds, frame_mode, 3, 5)
    out[f"evaluate arrays {{frame_mode}}"] = {{
        **report.to_dict(), "predictions": report.predictions.tolist()}}
with open("api.json", "w") as f:
    json.dump(out, f, indent=1)
"""


def error_lines(dump: str) -> str:
    """The end of a step that runs each of its `calls` and dumps each one's
    error line, or "no error", to the JSON file `dump`."""
    return f"""
out = {{}}
for name, call in calls.items():
    try:
        call()
        out[name] = "no error"
    except fa.FrameAttnError as e:
        out[name] = f"{{type(e).__name__}}: {{e}}"
with open({dump!r}, "w") as f:
    json.dump(out, f, indent=1)
"""


# A NaN in one held-out video of a dataset made in memory, which each call
# makes itself, and in the sixth record of the opened nan_record.fanf: the
# error line each scoring path gives, dumped to nan.json.
NAN = f"""\
import json
import numpy as np
import frameattn as fa

ds = fa.load_feature_file({DATA!r})
train_idx, test_idx = fa.split_by_fold(ds, fa.build_folds(ds, 5), 0)
bad = test_idx[1]


def with_nan():
    frames = np.array(ds.instances[bad].features)
    frames[1, 2] = np.nan  # every video has 2 frames or more
    return fa.Dataset([fa.VideoInstance(v.video_id, v.subject_id, v.label,
                                        frames if i == bad else v.features)
                       for i, v in enumerate(ds.instances)],
                      ds.dim, ds.num_classes, ds.class_names)


opened = fa.open_feature_file("nan_record.fanf")
head = fa.load_checkpoint("full.fanp")
config = fa.TrainConfig(batch_size=16, total_epochs=2, seed=3)
calls = {{
    "evaluate": lambda: fa.evaluate(head, with_nan(), indices=test_idx),
    "export_attention": lambda: fa.export_attention(head, with_nan(), "nan_attention.csv",
                                                    test_idx),
    "score_fusion_baseline": lambda: fa.score_fusion_baseline(with_nan(), config, train_idx,
                                                              test_idx),
    "opened evaluate": lambda: fa.evaluate(head, opened),
    "opened export_attention": lambda: fa.export_attention(head, opened, "nan_attention.csv"),
    "opened score_fusion_baseline": lambda: fa.score_fusion_baseline(opened, config),
}}""" + error_lines("nan.json")

# Empty selections, each call's error line dumped to empty_selections.json,
# and a header-only copy of the feature file for eval and visualize.
EMPTY = f"""\
import json
import frameattn as fa
from frameattn import model

ds = fa.load_feature_file({DATA!r})
fa.write_feature_file(fa.Dataset([], ds.dim, ds.num_classes, ds.class_names), "empty.fanf")
head = fa.load_checkpoint("full.fanp")
config = fa.TrainConfig(batch_size=16, total_epochs=2, seed=3)
calls = {{
    "evaluate": lambda: fa.evaluate(head, ds, indices=[]),
    "export_attention": lambda: fa.export_attention(head, ds, "empty_attention.csv", []),
    "model.score": lambda: model.score(head, ds.packed, []),
    "score_fusion_baseline": lambda: fa.score_fusion_baseline(ds, config, None, []),
    "cross_validate": lambda: fa.cross_validate(ds, config, fa.FoldPlan(0, {{}})),
}}""" + error_lines("empty_selections.json")


# Corrupt copies of the feature file and the full head, written by one
# step after training: (file name, bytes of the original they are made of).
CORRUPT = {
    "bad_magic.fanf": "b'FANX' + fanf[4:]",
    "bad_version.fanf": "fanf[:4] + (2).to_bytes(4, 'little') + fanf[8:]",
    "short_header.fanf": "fanf[:10]",
    "dim_0.fanf": "fanf[:8] + (0).to_bytes(4, 'little') + fanf[12:]",
    "bad_magic.fanp": "b'FANX' + fanp[4:]",
    "bad_version.fanp": "fanp[:4] + (2).to_bytes(4, 'little') + fanp[8:]",
    "short_header.fanp": "fanp[:10]",
}
CORRUPT_WRITER = "\n".join(
    ["from pathlib import Path",
     f"fanf, fanp = Path({DATA!r}).read_bytes(), Path('full.fanp').read_bytes()"]
    + [f"Path({name!r}).write_bytes({expr})" for name, expr in CORRUPT.items()])


# Copies of the feature file whose sixth record is defective, written by
# one step after synth: a NaN in its frames, its label set to the class
# count, and its frame count set to 0 with its features taken out.
RECORD_DEFECTS = f"""\
import struct
from pathlib import Path

data = Path({DATA!r}).read_bytes()
dim, classes = struct.unpack_from("<II", data, 8)
at = 24
def skip_str():
    global at
    at += 2 + struct.unpack_from("<H", data, at)[0]
for _ in range(classes):
    skip_str()
for record in range(6):
    skip_str()
    skip_str()
    label_at, features = at, at + 8
    at = features + 4 * dim * struct.unpack_from("<I", data, label_at + 4)[0]
nan = bytearray(data)
struct.pack_into("<f", nan, features + 4 * (dim + 2), float("nan"))
Path("nan_record.fanf").write_bytes(nan)
label = bytearray(data)
struct.pack_into("<I", label, label_at, classes)
Path("label_record.fanf").write_bytes(label)
Path("no_frames_record.fanf").write_bytes(
    data[:label_at + 4] + struct.pack("<I", 0) + data[at:])
"""
RECORD_DEFECT_FILES = ["nan_record.fanf", "label_record.fanf", "no_frames_record.fanf"]


def cli(*args):
    return ["-m", "frameattn.cli", *args]


def record_defect_steps(name):
    """eval on all and on sampled frames, and visualize, of the feature
    file `name` that holds one defective record."""
    data = ("--checkpoint", "full.fanp", "--data", name)
    return [(f"eval {name}", cli("eval", *data)),
            (f"eval sampled {name}", cli("eval", *data, "--frames", "sampled", "--seed", "5")),
            (f"visualize {name}", cli("visualize", *data, "--out", name + ".csv"))]


def corrupt_eval(name):
    """The eval step that loads the corrupt file `name` beside a good one."""
    head, data = (name, DATA) if name.endswith(".fanp") else ("full.fanp", name)
    return (f"eval {name}", cli("eval", "--checkpoint", head, "--data", data))


# (name, interpreter arguments); visualize steps write the files compared
# as floats
MATRIX = [
    ("synth", cli("synth", "--out", DATA, "--videos-per-class", "20",
                  "--frames-min", "2", "--frames-max", "12", "--seed", "3")),
    ("train full", cli("train", "--data", DATA, "--out", "full.fanp",
                       "--history", "full.csv", "--epochs", "8", "--seed", "3")),
    ("train self-only", cli("train", "--data", DATA, "--out", "self.fanp",
                            "--history", "self.csv", "--mode", "self-only",
                            "--epochs", "8", "--seed", "3")),
    ("train, update overflows", cli("train", "--data", DATA, "--out", "bad.fanp",
                                    "--lr", "1e308", "--weight-decay", "1e308",
                                    "--epochs", "2")),
    ("eval", cli("eval", "--checkpoint", "full.fanp", "--data", DATA)),
    ("eval --per-instance", cli("eval", "--checkpoint", "self.fanp", "--data", DATA,
                                "--per-instance")),
    ("eval sampled", cli("eval", "--checkpoint", "full.fanp", "--data", DATA,
                         "--frames", "sampled", "--k", "3", "--seed", "5",
                         "--per-instance")),
    ("eval sampled, k over every length", cli("eval", "--checkpoint", "full.fanp",
                                              "--data", DATA, "--frames", "sampled",
                                              "--k", "20", "--seed", "5",
                                              "--per-instance")),
    ("visualize full", cli("visualize", "--checkpoint", "full.fanp", "--data", DATA,
                           "--out", "full_attention.csv")),
    ("visualize self-only", cli("visualize", "--checkpoint", "self.fanp", "--data", DATA,
                                "--out", "self_attention.csv")),
    ("cv full", cli("cv", "--data", DATA, "--folds", "5", "--epochs", "3", "--seed", "2")),
    ("cv self-only", cli("cv", "--data", DATA, "--folds", "5", "--epochs", "3",
                         "--seed", "2", "--mode", "self-only")),
    ("cv, update overflows", cli("cv", "--data", DATA, "--folds", "5", "--epochs", "2",
                                 "--lr", "1e308", "--weight-decay", "1e308")),
    ("train synth-default full", cli("train", "--preset", "synth-default",
                                     "--out", "synth_full.fanp", "--history",
                                     "synth_full.csv", "--epochs", "4", "--seed", "11")),
    ("train synth-default self-only", cli("train", "--preset", "synth-default",
                                          "--out", "synth_self.fanp", "--history",
                                          "synth_self.csv", "--mode", "self-only",
                                          "--epochs", "4", "--seed", "11")),
    ("write corrupt files", ["-c", CORRUPT_WRITER]),
    *map(corrupt_eval, CORRUPT),
    ("write files with a defective record", ["-c", RECORD_DEFECTS]),
    *[step for name in RECORD_DEFECT_FILES for step in record_defect_steps(name)],
    ("api", ["-c", API]),
    ("api, NaN in a video", ["-c", NAN]),
    ("api, empty selections", ["-c", EMPTY]),
    ("eval, header-only file", cli("eval", "--checkpoint", "full.fanp", "--data",
                                   "empty.fanf")),
    ("visualize, header-only file", cli("visualize", "--checkpoint", "full.fanp",
                                        "--data", "empty.fanf", "--out", "empty.csv")),
]
EXPORTS = {"full_attention.csv", "full_attention.json",
           "self_attention.csv", "self_attention.json"}

_WARNING = re.compile(r"^\S.*:\d+: \w*Warning: ")


def run_matrix(root: Path, work: Path) -> dict:
    """Each step's (exit code, stdout, stderr without warnings, warning
    count), run in `work` on root/src."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONWARNINGS", None)
    results = {}
    for name, args in MATRIX:
        proc = subprocess.run([sys.executable, *args], cwd=work,
                              env=env, capture_output=True, text=True)
        kept, warnings, lines = [], 0, proc.stderr.splitlines(keepends=True)
        i = 0
        while i < len(lines):
            if _WARNING.match(lines[i]):
                warnings += 1
                i += 2 if i + 1 < len(lines) and lines[i + 1].startswith(" ") else 1
            else:
                kept.append(lines[i])
                i += 1
        results[name] = (proc.returncode, proc.stdout, "".join(kept), warnings)
    return results


class FloatDiffs:
    """Exported fields that are numbers on both sides but differ."""

    def __init__(self):
        self.count = 0
        self.largest = 0.0

    def same(self, a, b) -> bool:
        """True when a and b are equal, or are both numbers (then counted)."""
        if a == b and type(a) is type(b):
            return True
        try:
            x, y = float(a), float(b)
        except (TypeError, ValueError):
            return False
        if isinstance(a, bool) or isinstance(b, bool) or x != x or y != y:
            return False
        self.count += 1
        self.largest = max(self.largest, abs(x - y))
        return True


def same_json(a, b, floats: FloatDiffs) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return list(a) == list(b) and all(same_json(a[k], b[k], floats) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same_json(x, y, floats) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return floats.same(a, b)
    return a == b and type(a) is type(b)


def same_export(name: str, a: bytes, b: bytes, floats: FloatDiffs) -> bool:
    """Whether two export files differ only in float fields."""
    if name.endswith(".json"):
        return same_json(json.loads(a), json.loads(b), floats)
    rows_a = list(csv.reader(io.StringIO(a.decode("utf-8"), newline="")))
    rows_b = list(csv.reader(io.StringIO(b.decode("utf-8"), newline="")))
    if len(rows_a) != len(rows_b) or rows_a[:1] != rows_b[:1]:
        return False
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        if len(ra) != len(rb):
            return False
        for column, (x, y) in enumerate(zip(ra, rb)):
            # alpha and final_weight are the float columns
            if x != y and not (column in (2, 3) and floats.same(x, y)):
                return False
    return True


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, type=Path,
                   help="root of the checkout to compare against")
    args = p.parse_args(argv)
    parent_root = args.parent.resolve()
    if not (parent_root / "src" / "frameattn" / "__init__.py").is_file():
        p.error(f"{parent_root} holds no src/frameattn")

    differences = []
    floats = FloatDiffs()
    with tempfile.TemporaryDirectory() as tmp:
        runs, works = {}, {}
        for side, root in (("parent", parent_root), ("change", ROOT)):
            works[side] = Path(tmp) / side
            works[side].mkdir()
            runs[side] = run_matrix(root, works[side])

        for name, _ in MATRIX:
            (code_a, out_a, err_a, warn_a), (code_b, out_b, err_b, warn_b) = (
                runs["parent"][name], runs["change"][name])
            for what, a, b in (("exit code", code_a, code_b), ("stdout", out_a, out_b),
                               ("stderr", err_a, err_b)):
                if a != b:
                    differences.append(f"{name}: {what} differs")
            print(f"{name}: exit {code_a} / {code_b}, "
                  f"warnings {warn_a} / {warn_b} (parent / change)")

        names = {side: sorted(p.name for p in work.iterdir()) for side, work in works.items()}
        if names["parent"] != names["change"]:
            differences.append(f"files differ: {names['parent']} vs {names['change']}")
        for name in sorted(set(names["parent"]) & set(names["change"])):
            a = (works["parent"] / name).read_bytes()
            b = (works["change"] / name).read_bytes()
            if a == b:
                continue
            if name in EXPORTS and same_export(name, a, b, floats):
                continue
            differences.append(f"{name}: bytes differ")

    print(f"exported floats that differ: {floats.count}, "
          f"largest difference {floats.largest:.3g}")
    for line in differences:
        print(f"DIFFERENT: {line}")
    print("only exported floats differ" if not differences else
          f"{len(differences)} difference(s) beyond exported floats")
    return 0 if not differences else 1


if __name__ == "__main__":
    sys.exit(main())
