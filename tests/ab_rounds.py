"""A/B pairs of one perfbench workload: a parent checkout against this one.

    python3 tests/ab_rounds.py --parent DIR --workload {train,cv,score} [--pairs N] [--seed S]
    python3 tests/ab_rounds.py --aa --workload {train,cv,score} [--pairs N] [--seed S]
    python3 tests/ab_rounds.py --parent DIR --fresh --workload {train,cv} [--pairs N] [--seed S]

DIR is the root of another checkout (for example the parent commit, made
with ``git archive``). With ``--aa`` this checkout is run against itself,
which shows the ratio and win share the harness gives when nothing
changed. Both kinds of run below go through one loop: each side runs once,
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

Fresh processes (``--fresh``): a run is one fresh process per checkout
calling that checkout's ``frameattn.cli.main`` on its ``src/``, in its own
temporary working directory, as a user runs the command end to end, and
is measured as this process's children (``RUSAGE_CHILDREN``):

  cv     ``cv --data FILE --preset ck+ --epochs 8 --seed S``, FILE the
         CK+-shaped input of perfbench's ``cv`` workload, written once from
         seed S by ``perfbench/workloads.make_inputs`` (read as it is);
  train  ``train --preset synth-default --out model.fanp --seed S``, on the
         synthetic set the command generates for itself.

The untimed first run compiles the checkout's bytecode and warms the file
cache. Faults then count what a whole process does (imports, input
loading, heap growth), so compare them only between runs of one command. A
side passes when each of its runs exits 0 and prints the stdout of the
parent's first run.

Printed: each side's median and interquartile range of CPU time and of
minor faults per run, and whether it passed; the median of the per-pair
ratio change / parent and the share of pairs the change won (ties count
for neither); last, whether a gain claim clears the rule for one (at least
10 pairs, the change wins at least 9/10 of them and its median is below
the parent's by more than the parent's IQR). The exit code is 0 when both
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


def claim_lines(parent, change) -> list[str]:
    """The per-pair comparison of two sides' CPU seconds (lower is
    better), pair i being parent[i] and change[i]: the median ratio change
    / parent, the pairs the change won (ties count for neither), and
    whether a gain claim clears the rule for one (at least 10 pairs, the
    change wins at least 9/10 of them and its median is below the parent's
    by more than the parent's IQR)."""
    pairs = len(parent)
    wins = sum(c < q for c, q in zip(change, parent))
    ratio = statistics.median(c / q for c, q in zip(change, parent))
    parent_median, parent_iqr = quartiles(parent)
    gap = parent_median - quartiles(change)[0]
    clears = pairs >= 10 and wins >= 0.9 * pairs and gap > parent_iqr
    return [f"  change / parent: median ratio {ratio:.3f}, change faster in {wins}/{pairs} pairs",
            f"  gain claim {'clears' if clears else 'does not clear'} the rule: "
            f"{wins}/{pairs} pairs won (9/10 of at least 10 needed), median gap {gap:.4f} s "
            f"against the parent's IQR {parent_iqr:.4f} s"]


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
    """One side's fresh processes of a frameattn command."""

    who = resource.RUSAGE_CHILDREN

    def __init__(self, root: Path, argv: list[str], work: Path):
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.argv = argv
        self.work = work
        self.outs = []  # (exit code, stdout) of each run

    def run(self) -> None:
        proc = subprocess.run([sys.executable, "-c", MAIN, *self.argv], cwd=self.work,
                              env=self.env, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"frameattn {self.argv[0]} exited {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
        self.outs.append((proc.returncode, proc.stdout))

    def verdict(self, side: str, parent) -> tuple[bool, str]:
        failed = sum(code != 0 for code, _ in self.outs)
        differ = sum(out != parent.outs[0][1] for _, out in self.outs)
        return (not failed and not differ,
                f"{len(self.outs)} runs, {failed} exited non-zero, "
                f"{differ} with stdout unlike the parent's first")


def usage(who) -> tuple[float, int]:
    """CPU seconds (user + system) and minor page faults of `who` so far."""
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime, r.ru_minflt


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    against = p.add_mutually_exclusive_group(required=True)
    against.add_argument("--parent", type=Path,
                         help="root of the checkout to compare against")
    against.add_argument("--aa", action="store_true",
                         help="compare this checkout against itself")
    p.add_argument("--workload", required=True, choices=["train", "cv", "score"])
    p.add_argument("--fresh", action="store_true",
                   help="time the workload's CLI command in fresh processes (train, cv)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    if args.fresh and args.workload == "score":
        p.error("--fresh runs the train or cv command")
    parent_root = ROOT if args.aa else args.parent.resolve()
    if not (parent_root / "src" / "frameattn" / "__init__.py").is_file():
        p.error(f"{parent_root} holds no src/frameattn")

    # one BLAS thread, as perfbench/run.py sets it, before numpy is imported
    # here or in a fresh process
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                       "MKL_NUM_THREADS": "1"})
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    roots = {"parent": parent_root, "change": ROOT}
    with tempfile.TemporaryDirectory() as tmp:
        works = {side: Path(tmp) / side for side in roots}
        for work in works.values():
            work.mkdir()
        if args.fresh:
            data = Path(tmp) / workloads.INPUT
            if args.workload == "cv":
                workloads.make_inputs(load_package(ROOT, "frameattn_inputs")[0], "cv",
                                      args.seed, Path(tmp))
                argv = ["cv", "--data", str(data), "--preset", "ck+", "--epochs", "8"]
            else:
                argv = ["train", "--preset", "synth-default", "--out", "model.fanp"]
            argv += ["--seed", str(args.seed)]
            runs = {side: FreshRuns(root, argv, works[side]) for side, root in roots.items()}
            title = f"frameattn {' '.join(argv)}, fresh processes".replace(str(data), "FILE")
        else:
            runs = {side: Rounds(workloads, args.workload, args.seed, root, side, works[side])
                    for side, root in roots.items()}
            title = f"workload {args.workload}, seed {args.seed}, in-process rounds"

        cpu = {side: [] for side in roots}
        faults = {side: [] for side in roots}
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
            if pair >= 0:
                print(f"pair {pair}: parent {cpu['parent'][-1]:.3f} s "
                      f"{faults['parent'][-1]} faults, change {cpu['change'][-1]:.3f} s "
                      f"{faults['change'][-1]} faults (first: {order[0]})", file=sys.stderr)
        verdicts = {side: run.verdict(side, runs["parent"]) for side, run in runs.items()}

    print(f"{title}, {args.pairs} pairs"
          f"{' (A/A: this checkout on both sides)' if args.aa else ''}, median (IQR) per run:")
    for side in roots:
        median, iqr = quartiles(cpu[side])
        fmedian, fiqr = quartiles(faults[side])
        print(f"  {side:6s} CPU {median:.4f} s ({iqr:.4f}), minor faults {fmedian:.0f} "
              f"({fiqr:.0f}), {verdicts[side][1]}")
    print("\n".join(claim_lines(cpu["parent"], cpu["change"])))
    return 0 if all(ok for ok, _ in verdicts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
