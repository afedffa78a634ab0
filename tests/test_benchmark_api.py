"""The benchmark under perfbench/ reaches frameattn only through names: its
tracer patches module attributes and its workloads call fa.* functions.
These tests fail when a rename or removal in the library would otherwise
turn a benchmark metric into a silent zero or a crashed workload."""

import importlib.util
import inspect
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def bench_module(name):
    """Import a perfbench script by path, with perfbench/ importable as its
    scripts expect."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_name_it_wraps():
    _, modules = bench_module("run").import_frameattn()
    before = {name: dict(vars(module)) for name, module in modules.items()}
    tracer = bench_module("tracing").Tracer(modules)
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
    # every patch was undone, so later tests see the library itself
    for name, module in modules.items():
        changed = [attr for attr, value in vars(module).items()
                   if before[name].get(attr) is not value]
        assert changed == [], name


def test_every_fa_name_the_workloads_use_resolves():
    fa, _ = bench_module("run").import_frameattn()
    source = (BENCH / "workloads.py").read_text()
    names = sorted(set(re.findall(r"\bfa\.([A-Za-z_][\w.]*\w)", source)))
    assert "FanParams.from_flat" in names
    for dotted in names:
        obj = fa
        for part in dotted.split("."):
            assert hasattr(obj, part), f"fa.{dotted} does not resolve"
            obj = getattr(obj, part)


# Argument positions that perfbench/tracing.py's work counters read from
# positional calls. Untraced runs wrap evaluate and train too, so a
# reordered signature would miscount their work without any error.
COUNTER_POSITIONS = {
    ("frameattn.evaluation", "evaluate"): {"dataset": 1, "frame_mode": 2, "k": 3,
                                           "indices": 5},
    ("frameattn.evaluation", "export_attention"): {"dataset": 1, "path": 2, "indices": 3},
    ("frameattn.training", "train"): {"config": 1, "train_indices": 2},
}


def test_work_counters_read_the_arguments_they_name():
    _, modules = bench_module("run").import_frameattn()
    for (module, name), positions in COUNTER_POSITIONS.items():
        params = list(inspect.signature(getattr(modules[module], name)).parameters)
        assert {arg: params.index(arg) for arg in positions} == positions, name


def test_traced_kernel_entry_points_stay_where_the_tracer_looks():
    _, modules = bench_module("run").import_frameattn()
    timed = {attr: owners for _, attr, owners, _, _ in bench_module("tracing").TIMED}
    for attr in ("sample_training", "forward", "forward_backward"):
        assert any(hasattr(modules.get(owner), attr) for owner in timed[attr]), attr
