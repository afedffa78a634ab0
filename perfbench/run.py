"""Benchmark of frameattn: one command for the train, cv and score workloads.

    python3 perfbench/run.py --workload {train,cv,score} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; frameattn is imported from its ``src/``.
Set-up (interpreter start, import, generating and writing the inputs) runs
in a child process, five times, and ``setup_s`` is the median of their CPU
times; the inputs are thus made apart from the measured process, whose peak
memory then reflects the run alone. The measured process repeats whole
rounds of the workload until ``--seconds`` of wall time have passed (at
least one round), then checks the outputs.

Times that carry a bound are CPU times (user + system): on a shared virtual
machine the hypervisor takes the CPU away for up to a quarter of the wall
time at times, and CPU time leaves that out while still counting all the
program's own work.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` rounds alternate between
untraced and traced (at least one of each) and the metrics are the
per-layer ones, per round. Spans and statistics of a traced run are also
written to ``.perfbench_out/trace-<workload>-seed<seed>.json``. The exit
code is 0 when every check passed, 1 when one failed and 2 when the
checkout lacks frameattn's sources.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5

# One BLAS thread: the program is single-threaded Python, the host has two
# cores, and a second BLAS thread would make timings depend on what else
# runs on the other core.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}

MODULES = ["frameattn", "frameattn.cli", "frameattn.data", "frameattn.evaluation",
           "frameattn.model", "frameattn.numerics", "frameattn.sampling",
           "frameattn.training"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["train", "cv", "score"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-into", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def import_frameattn():
    sys.path.insert(0, str(ROOT / "src"))
    import importlib
    modules = {name: importlib.import_module(name) for name in MODULES}
    modules["frameattn.data.Dataset"] = getattr(modules["frameattn.data"], "Dataset", None)
    fa = modules["frameattn"]
    if Path(fa.__file__).resolve().parent != ROOT / "src" / "frameattn":
        raise SystemExit(f"perfbench: imported frameattn from {fa.__file__}, "
                         f"not from this checkout")
    return fa, modules


def stats_dict(tracer):
    return {name: {"calls": st.calls, "busy": st.busy, "self": st.self_time,
                   "counts": dict(st.counts)} for name, st in tracer.stats.items()}


def setup_child(args) -> int:
    """Body of one set-up process: write the workload's inputs."""
    import tracing
    import workloads
    fa, modules = import_frameattn()
    work = Path(args.setup_into)
    tracer = tracing.Tracer(modules) if args.trace else None
    if tracer:
        tracer.install()
    workloads.make_inputs(fa, args.workload, args.seed, work)
    if tracer:
        tracer.uninstall()
        (work / "setup-trace.json").write_text(json.dumps(stats_dict(tracer)))
    return 0


def run_setup(args, work: Path):
    """Set up SETUP_REPEATS times in fresh processes; returns their CPU
    times and, when tracing, their statistics."""
    times, stats = [], []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--setup-into", str(work)]
        before = _children_cpu()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=150)
        times.append(_children_cpu() - before)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up exited {proc.returncode}")
        if args.trace:
            stats.append(json.loads((work / "setup-trace.json").read_text()))
    return times, stats


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_rounds(args, bench, tracing, modules):
    """Whole rounds until --seconds have passed. Untraced rounds carry only
    the light wrappers that time train and evaluate calls."""
    light = tracing.Tracer(modules, light=True)
    full = tracing.Tracer(modules) if args.trace else None
    plain, traced = [], []
    start = perf_counter()
    out = None
    while True:
        is_traced = full is not None and len(plain) > len(traced)
        tracer = full if is_traced else light
        light.reset()
        gc.collect()
        tracer.install()
        t0, c0 = perf_counter(), process_time()
        out = bench.round()
        wall, cpu = perf_counter() - t0, process_time() - c0
        tracer.uninstall()
        if is_traced:
            traced.append({"wall": wall, "cpu": cpu})
        else:
            plain.append({"wall": wall, "cpu": cpu, "stats": stats_dict(light)})
        if perf_counter() - start >= args.seconds and (full is None or traced):
            return out, plain, traced, full


def _rate(stats, name, counter):
    st = stats.get(name)
    return st["counts"].get(counter, 0) / st["busy"] if st and st["busy"] > 0 else 0.0


def per_layer(full, plain, traced, setup_stats, quality):
    rounds = len(traced)
    stats = stats_dict(full)

    def get(name, field="calls", counter=None):
        st = stats.get(name)
        if st is None:
            return 0.0
        return (st["counts"].get(counter, 0) if counter else st[field]) / rounds

    def setup(name, field="busy", counter=None):
        values = [s[name]["counts"].get(counter, 0) if counter else s[name][field]
                  for s in setup_stats if name in s]
        return statistics.median(values) if values else 0.0

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    m = {
        "cli.self_s": get("cli", "self"),
        "data.synth.busy_s": get("data.synth", "busy"),
        "data.write.busy_s": setup("data.write"),
        "data.write.bytes": setup("data.write", counter="bytes"),
        "data.load.calls": get("data.load"),
        "data.load.busy_s": get("data.load", "busy"),
        "data.load.mb_per_s": ratio(get("data.load", counter="bytes"),
                                    get("data.load", "busy"), 1e-6),
        "data.validate.calls": get("data.validate"),
        "data.validate.busy_s": get("data.validate", "busy"),
        "data.validate.passes": ratio(get("data.validate", counter="frames") * rounds,
                                      full.distinct_frames),
        "sampling.sample.calls": get("sampling.sample"),
        "sampling.stream.calls": get("sampling.stream"),
        "sampling.busy_s": get("sampling.sample", "busy") + get("sampling.stream", "busy"),
        "model.fb.calls": get("model.fb"),
        "model.fb.instances": get("model.fb", counter="instances"),
        "model.fb.busy_s": get("model.fb", "busy"),
        "model.fb.us_per_instance": ratio(get("model.fb", "busy"),
                                          get("model.fb", counter="instances"), 1e6),
        "model.forward.calls": get("model.forward"),
        "model.forward.frames": get("model.forward", counter="frames"),
        "model.forward.busy_s": get("model.forward", "busy"),
        "training.train.calls": get("training.train"),
        "training.train.self_s": get("training.train", "self"),
        "training.train.instances_per_s": statistics.median(
            _rate(p["stats"], "training.train", "instances") for p in plain),
        "training.sgd.calls": get("training.sgd"),
        "training.sgd.busy_s": get("training.sgd", "busy"),
        "training.ckpt.busy_s": get("training.ckpt", "busy"),
        "training.ckpt.bytes": get("training.ckpt", counter="bytes"),
        "evaluation.evaluate.calls": get("evaluation.evaluate"),
        "evaluation.evaluate.videos": get("evaluation.evaluate", counter="videos"),
        "evaluation.evaluate.frames": get("evaluation.evaluate", counter="frames"),
        "evaluation.evaluate.busy_s": get("evaluation.evaluate", "busy"),
        "evaluation.evaluate.self_s": get("evaluation.evaluate", "self"),
        "evaluation.evaluate.frames_per_s": statistics.median(
            _rate(p["stats"], "evaluation.evaluate", "frames") for p in plain),
        "evaluation.baseline.busy_s": get("evaluation.baseline", "busy"),
        "evaluation.baseline.self_s": get("evaluation.baseline", "self"),
        "evaluation.baseline.accuracy": quality.get("baseline_accuracy", 0.0),
        "evaluation.cv.self_s": get("evaluation.cv", "self"),
        "evaluation.export.busy_s": get("evaluation.export", "busy"),
        "evaluation.export.rows": get("evaluation.export", counter="rows"),
        "evaluation.export.bytes": get("evaluation.export", counter="bytes"),
        "evaluation.localization": quality.get("localization", 0.0),
        "numerics.xent.calls": get("numerics.xent"),
        "numerics.sigmoid.calls": get("numerics.sigmoid"),
        "numerics.check.calls": get("numerics.check"),
        "trace.overhead_s": (statistics.median(t["cpu"] for t in traced)
                             - statistics.median(p["cpu"] for p in plain)),
    }
    return m


# Most specific suffix first.
UNITS = {".mb_per_s": "MB/s", "_per_s": "1/s", ".us_per_instance": "us", "_s": "s",
         ".bytes": "bytes", "accuracy": "fraction", "localization": "fraction",
         ".calls": "count", ".passes": "count", ".instances": "count",
         ".frames": "count", ".videos": "count", ".rows": "count", "_mb": "MB"}


def unit_of(name):
    return next(u for suffix, u in UNITS.items() if name.endswith(suffix))


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/frameattn/__init__.py", "tests/scalar_oracle.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {', '.join(missing)} missing under {ROOT}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD_ENV)
    if args.setup_into:
        return setup_child(args)

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_times, setup_stats = run_setup(args, work)
        import tracing
        import workloads
        fa, modules = import_frameattn()
        bench = workloads.WORKLOADS[args.workload](fa, modules["frameattn.cli"], args.seed,
                                                   work, ROOT)
        bench.prepare()
        out, plain, traced, full = run_rounds(args, bench, tracing, modules)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        quality = bench.quality(out)
        failures = bench.check(out, quality)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(full, plain, traced, setup_stats, quality)
        if full.absent:
            print(f"perfbench: absent from frameattn: {', '.join(full.absent)}",
                  file=sys.stderr)
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
            "spans": full.spans, "stats": stats_dict(full), "setup": setup_stats,
            "absent": full.absent, "traced_rounds": len(traced),
            "rounds": {"untraced": [{k: p[k] for k in ("wall", "cpu")} for p in plain],
                       "traced": traced},
            "metrics": metrics}))
    else:
        metrics = {
            "cpu_s": statistics.median(p["cpu"] for p in plain),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "accuracy": quality["accuracy"],
        }
    print(f"perfbench: {args.workload} seed {args.seed}: rounds (wall/cpu s) untraced "
          f"{[(round(p['wall'], 2), round(p['cpu'], 2)) for p in plain]} traced "
          f"{[(round(t['wall'], 2), round(t['cpu'], 2)) for t in traced]} "
          f"set-up cpu {[round(t, 3) for t in setup_times]}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": bench.ops.attempted,
        "failed": bench.ops.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
