"""In-process A/B of one perfbench workload: a parent checkout against this one.

    python3 tests/ab_rounds.py --parent DIR --workload {train,cv,score} --pairs N
    python3 tests/ab_rounds.py --aa --workload {train,cv,score} --pairs N

DIR is the root of another checkout (for example the parent commit, made
with ``git archive``). With ``--aa`` this checkout is run against itself,
which shows the ratio and win share the harness gives when nothing
changed. Both ``src/frameattn`` packages are imported into
this one interpreter, under the names ``frameattn_parent`` and
``frameattn_change``, and each drives its own instance of the workload's
class from this checkout's ``perfbench/workloads.py``, read as it is. Each
side writes its inputs from the same seed into its own temporary directory,
loads them and runs one untimed warm-up round. Then N pairs of whole rounds
run, the side that goes first alternating from pair to pair, and each
round's process CPU time is taken as ``perfbench/run.py`` takes it (after a
gc.collect()), and its minor page faults from ``resource.getrusage`` of
this process. Both sides share one process and its machine state, so a
slow spell of the host falls on both sides of a pair alike.

Printed: each side's median and interquartile range of round CPU and its
median minor faults per round, the median of the per-pair ratio change /
parent, the share of pairs the change won (ties count for neither),
whether a gain claim clears the rule for one (at least 10 pairs, the change
wins at least 9/10 of them and its median is below the parent's by more
than the parent's IQR), and whether each side's workload checks passed, on
its last round's outputs, with no failed operation.
The exit code is 0 when both sides passed their checks. Not collected by
pytest; it takes minutes.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import os
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import process_time

ROOT = Path(__file__).resolve().parent.parent

# one BLAS thread, as perfbench/run.py sets it, before numpy is imported
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})


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


def claim_lines(parent, change, unit: str = "s") -> list[str]:
    """The per-pair comparison of two sides' measurements (lower is
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
            f"{wins}/{pairs} pairs won (9/10 of at least 10 needed), median gap {gap:.4f} {unit} "
            f"against the parent's IQR {parent_iqr:.4f} {unit}"]


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    against = p.add_mutually_exclusive_group(required=True)
    against.add_argument("--parent", type=Path,
                         help="root of the checkout to compare against")
    against.add_argument("--aa", action="store_true",
                         help="compare this checkout against itself")
    p.add_argument("--workload", required=True, choices=["train", "cv", "score"])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    parent_root = ROOT if args.aa else args.parent.resolve()
    if not (parent_root / "src" / "frameattn" / "__init__.py").is_file():
        p.error(f"{parent_root} holds no src/frameattn")

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    sides = {"parent": parent_root, "change": ROOT}
    with tempfile.TemporaryDirectory() as tmp:
        benches = {}
        for side, root in sides.items():
            fa, cli = load_package(root, f"frameattn_{side}")
            work = Path(tmp) / side
            work.mkdir()
            workloads.make_inputs(fa, args.workload, args.seed, work)
            benches[side] = workloads.WORKLOADS[args.workload](fa, cli, args.seed, work,
                                                               root)
            benches[side].prepare()

        for bench in benches.values():  # warm-up: caches and lazy set-up
            bench.round()
        cpu = {side: [] for side in sides}
        faults = {side: [] for side in sides}
        outs = {}
        for pair in range(args.pairs):
            order = list(sides) if pair % 2 == 0 else list(reversed(sides))
            for side in order:
                gc.collect()
                f0, c0 = minor_faults(), process_time()
                outs[side] = benches[side].round()
                cpu[side].append(process_time() - c0)
                faults[side].append(minor_faults() - f0)
            print(f"pair {pair}: parent {cpu['parent'][-1]:.3f} s, "
                  f"change {cpu['change'][-1]:.3f} s (first: {order[0]})",
                  file=sys.stderr)

        passed = {}
        for side, bench in benches.items():
            failures = bench.check(outs[side], bench.quality(outs[side]))
            for failure in failures:
                print(f"{side}: CHECK FAILED: {failure}", file=sys.stderr)
            passed[side] = not failures and bench.ops.failed == 0

    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs"
          f"{' (A/A: this checkout on both sides)' if args.aa else ''}, "
          f"round CPU s, median (IQR):")
    for side in sides:
        median, iqr = quartiles(cpu[side])
        print(f"  {side:6s} {median:.4f} ({iqr:.4f})  checks "
              f"{'passed' if passed[side] else 'FAILED'}, "
              f"{benches[side].ops.attempted} operations, "
              f"{benches[side].ops.failed} failed, "
              f"median minor faults per round {statistics.median(faults[side]):.0f}")
    print("\n".join(claim_lines(cpu["parent"], cpu["change"])))
    return 0 if all(passed.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
