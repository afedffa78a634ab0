"""A/B pairs of one perfbench workload: a parent checkout against this one.

    python3 tests/ab_rounds.py --parent DIR --workload {train,cv,score} [--pairs N] [--seed S]
    python3 tests/ab_rounds.py --parent DIR --fresh --workload {train,cv,score} [--pairs N] [--seed S]

DIR is the root of another checkout (for example the parent commit, made
with ``git archive``). Given this checkout's own root (``--parent .``),
the run is an A/A comparison, which shows the ratio and win share the
harness gives when nothing changed. Both kinds of run below go through one loop: each side runs once,
untimed, then N pairs of runs follow, the side that goes first alternating
from pair to pair. A run's CPU time (user + system) and minor page faults
are the change in ``resource.getrusage`` across it, after a gc.collect().
Every run has one BLAS thread, set in ``main`` before either side starts.

In-process rounds (the default): both ``src/frameattn`` packages are
imported into this one interpreter, under the names ``frameattn_parent``
and ``frameattn_change``, and each drives its own instance of the
workload's class from this checkout's ``perfbench/workloads.py``, read as
it is. Each side writes its inputs from the same seed into its own
temporary directory and loads them. A run is one whole round, measured on
this process (``RUSAGE_SELF``); both sides share its machine state, so a
slow spell of the host falls on both sides of a pair alike. A side passes
when its workload checks pass on its last round's outputs with no failed
operation.

Fresh processes (``--fresh``): a run is one fresh process per command
of the workload, each calling that checkout's ``frameattn.cli.main`` on
its ``src/``, in the side's own temporary working directory, as a user
runs the commands end to end. It is measured as this process's children
(``RUSAGE_CHILDREN``), and its peak RSS is the largest ``ru_maxrss`` of
its processes, each read from ``os.wait4`` as it ends. The commands:

  cv     ``cv --data FILE --preset ck+ --epochs 8 --seed S``, FILE the
         CK+-shaped input of perfbench's ``cv`` workload;
  train  ``train --preset synth-default --out model.fanp --seed S``, on the
         synthetic set the command generates for itself;
  score  ``eval --checkpoint HEAD --data FILE``, the same with ``--frames
         sampled --seed S``, and ``visualize --checkpoint HEAD --data FILE
         --out weights.csv``: perfbench's ``score`` round, on its
         AFEW-shaped FILE and hand-built HEAD.

FILE and HEAD are written once from seed S by
``perfbench/workloads.make_inputs`` (read as it is). The untimed first run
compiles the checkout's bytecode and warms the file cache. Faults then
count what whole processes do (imports, input loading, heap growth), so
compare them only between runs of one workload. A side passes when each
of its processes exits 0 and every run prints the stdout of the parent's
first run.

Printed: each side's median and interquartile range of CPU time, of minor
faults and, for fresh runs, of peak RSS per run, and whether it passed.
Then, for CPU time and for peak RSS, the median of the per-pair ratio
change / parent and the share of pairs the change won (ties count for
neither), and whether a gain claim clears the rule for one (at least 10
pairs, the change wins at least 9/10 of them and its median is below the
parent's by more than the parent's IQR). The exit code is 0 when both
sides passed, else 1. Not collected by pytest; it takes minutes.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MAIN = "import sys; from frameattn.cli import main; sys.exit(main(sys.argv[1:]))"

# Writes a workload's inputs into a directory and prints the input file's name.
WRITE_INPUTS = """\
import sys
from pathlib import Path
import frameattn, workloads
workloads.make_inputs(frameattn, sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
print(workloads.INPUT)
"""


def load_package(root: Path, name: str):
    """root/src/frameattn imported as the package `name`; returns it and its
    cli module."""
    pkg = root / "src" / "frameattn"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module, importlib.import_module(f"{name}.cli")


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q3 - q1


def claim_lines(parent, change, metric="CPU", unit="s") -> list[str]:
    """The per-pair comparison of two sides' values of `metric`, in `unit`
    (lower is better), pair i being parent[i] and change[i]: the median
    ratio change / parent, the pairs the change won (ties count for
    neither), and whether a gain claim clears the rule for one (at least 10
    pairs, the change wins at least 9/10 of them and its median is below
    the parent's by more than the parent's IQR)."""
    pairs = len(parent)
    wins = sum(c < q for c, q in zip(change, parent))
    ratio = statistics.median(c / q for c, q in zip(change, parent))
    parent_median, parent_iqr = quartiles(parent)
    gap = parent_median - quartiles(change)[0]
    clears = pairs >= 10 and wins >= 0.9 * pairs and gap > parent_iqr
    return [f"  {metric} change / parent: median ratio {ratio:.3f}, "
            f"change lower in {wins}/{pairs} pairs",
            f"  {metric} gain claim {'clears' if clears else 'does not clear'} the rule: "
            f"{wins}/{pairs} pairs won (9/10 of at least 10 needed), median gap "
            f"{gap:.4f} {unit} against the parent's IQR {parent_iqr:.4f} {unit}"]


def side_line(side: str, cpu, faults, rss, verdict: str) -> str:
    """One side's summary: the median (IQR) per run of its CPU seconds, its
    minor faults and, when measured (rss not None), its peak RSS in MB,
    then its verdict."""
    (c, c_iqr), (f, f_iqr) = quartiles(cpu), quartiles(faults)
    parts = [f"CPU {c:.4f} s ({c_iqr:.4f})", f"minor faults {f:.0f} ({f_iqr:.0f})"]
    if rss is not None:
        r, r_iqr = quartiles(rss)
        parts.append(f"peak RSS {r:.1f} MB ({r_iqr:.1f})")
    return f"  {side:6s} {', '.join(parts + [verdict])}"


class Rounds:
    """One side's in-process rounds of a perfbench workload."""

    who = resource.RUSAGE_SELF
    def __init__(self, workloads, name: str, seed: int, root: Path, side: str, work: Path):
        fa, cli = load_package(root, f"frameattn_{side}")
        workloads.make_inputs(fa, name, seed, work)
        self.bench = workloads.WORKLOADS[name](fa, cli, seed, work, root)
        self.bench.prepare()

    def run(self) -> None:
        self.out = self.bench.round()

    def verdict(self, side: str, parent) -> tuple[bool, str]:
        bench = self.bench
        failures = bench.check(self.out, bench.quality(self.out))
        for failure in failures:
            print(f"{side}: CHECK FAILED: {failure}", file=sys.stderr)
        return (not failures and bench.ops.failed == 0,
                f"checks {'FAILED' if failures else 'passed'}, {bench.ops.attempted} "
                f"operations, {bench.ops.failed} failed")


class FreshRuns:
    """One side's fresh processes of the frameattn commands of a run."""

    who = resource.RUSAGE_CHILDREN

    def __init__(self, root: Path, commands: list[list[str]], work: Path):
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.commands = commands
        self.work = work
        self.outs = []   # (failed processes, stdouts) of each run
        self.peak = 0.0  # the last run's peak RSS, MB: that of its largest process

    def run(self) -> None:
        failed, outs, peak = 0, [], 0
        for argv in self.commands:
            with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
                proc = subprocess.Popen([sys.executable, "-c", MAIN, *argv], cwd=self.work,
                                        env=self.env, stdout=out, stderr=err)
                # reaped here, not by Popen, for the process's own rusage
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                out.seek(0)
                err.seek(0)
                outs.append(out.read().decode())
                if proc.returncode != 0:
                    failed += 1
                    print(f"frameattn {argv[0]} exited {proc.returncode}\n"
                          f"{err.read().decode()}", file=sys.stderr)
            peak = max(peak, usage.ru_maxrss * 1024 / 1e6)  # ru_maxrss is in KiB
        self.outs.append((failed, outs))
        self.peak = peak

    def verdict(self, side: str, parent) -> tuple[bool, str]:
        failed = sum(failed for failed, _ in self.outs)
        differ = sum(outs != parent.outs[0][1] for _, outs in self.outs)
        return (not failed and not differ,
                f"{len(self.outs)} runs, {failed} processes exited non-zero, "
                f"{differ} runs with stdout unlike the parent's first")


def usage(who) -> tuple[float, int]:
    """CPU seconds (user + system) and minor page faults of `who` so far."""
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime, r.ru_minflt


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True,
                   help="root of the checkout to compare against")
    p.add_argument("--workload", required=True, choices=["train", "cv", "score"])
    p.add_argument("--fresh", action="store_true",
                   help="time the workload's CLI commands in fresh processes")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    parent_root = args.parent.resolve()
    if not (parent_root / "src" / "frameattn" / "__init__.py").is_file():
        p.error(f"{parent_root} holds no src/frameattn")

    # one BLAS thread, as perfbench/run.py sets it, before numpy is imported
    # here or in a fresh process
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                       "MKL_NUM_THREADS": "1"})
    roots = {"parent": parent_root, "change": ROOT}
    with tempfile.TemporaryDirectory() as tmp:
        works = {side: Path(tmp) / side for side in roots}
        for work in works.values():
            work.mkdir()
        if args.fresh:
            # Written by a process of its own: a process's ru_maxrss counts
            # the memory of the one it was forked from, up to its exec, so
            # this one stays small (it imports no numpy) for the runs' peak
            # RSS to be their own.
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                [str(ROOT / "src"), str(ROOT / "perfbench")]))
            name = subprocess.run([sys.executable, "-c", WRITE_INPUTS, args.workload,
                                   str(args.seed), tmp], env=env, check=True,
                                  capture_output=True, text=True).stdout.strip()
            data, head, seed = Path(tmp) / name, Path(tmp) / "head.fanp", str(args.seed)
            scored = ["--checkpoint", str(head), "--data", str(data)]
            commands = {
                "cv": [["cv", "--data", str(data), "--preset", "ck+", "--epochs", "8",
                        "--seed", seed]],
                "train": [["train", "--preset", "synth-default", "--out", "model.fanp",
                           "--seed", seed]],
                "score": [["eval", *scored], ["eval", *scored, "--frames", "sampled", "--seed", seed],
                          ["visualize", *scored, "--out", "weights.csv"]],
            }[args.workload]
            runs = {side: FreshRuns(root, commands, works[side]) for side, root in roots.items()}
            title = (f"frameattn {'; '.join(' '.join(argv) for argv in commands)}, fresh processes"
                     .replace(str(data), "FILE").replace(str(head), "HEAD"))
        else:
            sys.path.insert(0, str(ROOT / "perfbench"))
            import workloads
            runs = {side: Rounds(workloads, args.workload, args.seed, root, side, works[side])
                    for side, root in roots.items()}
            title = f"workload {args.workload}, seed {args.seed}, in-process rounds"

        cpu = {side: [] for side in roots}
        faults = {side: [] for side in roots}
        rss = {side: [] for side in roots}   # fresh runs only
        for pair in range(-1, args.pairs):  # pair -1 is the untimed first run
            order = list(roots) if pair % 2 == 0 else list(reversed(roots))
            for side in order:
                gc.collect()
                c0, f0 = usage(runs[side].who)
                runs[side].run()
                c1, f1 = usage(runs[side].who)
                if pair >= 0:
                    cpu[side].append(c1 - c0)
                    faults[side].append(f1 - f0)
                    if args.fresh:
                        rss[side].append(runs[side].peak)
            if pair >= 0:
                print(f"pair {pair}: " + ", ".join(
                    f"{side} {cpu[side][-1]:.3f} s {faults[side][-1]} faults"
                    + (f" {rss[side][-1]:.1f} MB" if args.fresh else "") for side in roots)
                    + f" (first: {order[0]})", file=sys.stderr)
        verdicts = {side: run.verdict(side, runs["parent"]) for side, run in runs.items()}

    print(f"{title}, {args.pairs} pairs, median (IQR) per run:")
    for side in roots:
        print(side_line(side, cpu[side], faults[side], rss[side] if args.fresh else None,
                        verdicts[side][1]))
    print("\n".join(claim_lines(cpu["parent"], cpu["change"])))
    if args.fresh:
        print("\n".join(claim_lines(rss["parent"], rss["change"], "peak RSS", "MB")))
    return 0 if all(ok for ok, _ in verdicts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
