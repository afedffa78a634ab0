"""One-shot CLI runs in fresh processes: a parent checkout against this one.

    python3 tests/oneshot.py --parent DIR --command {train,cv} --runs N [--seed S]

DIR is the root of another checkout (for example the parent commit, made
with ``git archive``). Each run is one fresh process per checkout calling
that checkout's ``frameattn.cli.main`` on its ``src/``, with one BLAS
thread, as a user runs the command end to end:

  cv     ``cv --data FILE --preset ck+ --epochs 8 --seed S``, FILE the
         CK+-shaped input of perfbench's ``cv`` workload, written once from
         seed S by ``perfbench/workloads.make_inputs`` (read as it is);
  train  ``train --preset synth-default --out model.fanp --seed S``, on the
         synthetic set the command generates for itself.

Each side runs in its own temporary working directory and runs once,
untimed, before the pairs (it compiles the checkout's bytecode and warms the
file cache). Then N pairs of runs follow, the side that goes first
alternating from pair to pair. A run's CPU time (user + system) and minor
page faults are the change in ``resource.getrusage(RUSAGE_CHILDREN)`` of
this process across it. Faults count what a whole process does (imports,
input loading, heap growth), so compare them only between runs of the same
command.

Printed: each side's median and interquartile range of CPU time and of
minor faults, then the per-pair CPU comparison and the gain-claim rule line
as ``tests/ab_rounds.py`` prints them. The exit code is 1 when a run exits
non-zero or the stdout of any run differs from the parent's first, else 0.
Not collected by pytest; at N = 10, ``cv`` takes about half a minute.
"""

from __future__ import annotations

import argparse
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

from ab_rounds import ROOT, claim_lines, load_package, quartiles

MAIN = "import sys; from frameattn.cli import main; sys.exit(main(sys.argv[1:]))"


def command(name: str, seed: int, data: Path) -> list[str]:
    if name == "cv":
        return ["cv", "--data", str(data), "--preset", "ck+", "--epochs", "8",
                "--seed", str(seed)]
    return ["train", "--preset", "synth-default", "--out", "model.fanp", "--seed", str(seed)]


def run_once(root: Path, work: Path, argv: list[str]):
    """One fresh process of root's CLI in `work`; returns (CPU s, minor
    faults, exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, "-c", MAIN, *argv], cwd=work, env=env,
                          capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return cpu, after.ru_minflt - before.ru_minflt, proc.returncode, proc.stdout, proc.stderr


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True,
                   help="root of the checkout to compare against")
    p.add_argument("--command", required=True, choices=["train", "cv"])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2")
    parent_root = args.parent.resolve()
    if not (parent_root / "src" / "frameattn" / "__init__.py").is_file():
        p.error(f"{parent_root} holds no src/frameattn")

    sides = {"parent": parent_root, "change": ROOT}
    cpu = {side: [] for side in sides}
    faults = {side: [] for side in sides}
    outs = {side: [] for side in sides}
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "input.fanf"
        if args.command == "cv":
            sys.path.insert(0, str(ROOT / "perfbench"))
            import workloads
            workloads.make_inputs(load_package(ROOT, "frameattn_inputs")[0], "cv",
                                  args.seed, Path(tmp))
        argv = command(args.command, args.seed, data)
        works = {side: Path(tmp) / side for side in sides}
        for work in works.values():
            work.mkdir()
        for pair in range(-1, args.runs):  # pair -1 is the untimed first run
            order = list(sides) if pair % 2 == 0 else list(reversed(sides))
            for side in order:
                c, f, code, out, err = run_once(sides[side], works[side], argv)
                if code != 0:
                    print(f"{side}: frameattn {args.command} exited {code}\n{err}",
                          file=sys.stderr)
                    failed = True
                outs[side].append(out)
                if pair >= 0:
                    cpu[side].append(c)
                    faults[side].append(f)
            if pair >= 0:
                print(f"pair {pair}: parent {cpu['parent'][-1]:.3f} s "
                      f"{faults['parent'][-1]} faults, change {cpu['change'][-1]:.3f} s "
                      f"{faults['change'][-1]} faults (first: {order[0]})", file=sys.stderr)

    if any(out != outs["parent"][0] for side in sides for out in outs[side]):
        print("stdout differs between runs", file=sys.stderr)
        failed = True
    shown = " ".join("FILE" if a == str(data) else a for a in argv)
    print(f"frameattn {shown}, {args.runs} pairs of fresh processes, median (IQR):")
    for side in sides:
        median, iqr = quartiles(cpu[side])
        fmedian, fiqr = quartiles(faults[side])
        print(f"  {side:6s} CPU {median:.4f} s ({iqr:.4f}), minor faults {fmedian:.0f} "
              f"({fiqr:.0f})")
    print("\n".join(claim_lines(cpu["parent"], cpu["change"])))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
