"""The gain-claim rule and the per-side summary that tests/ab_rounds.py
prints at the end of a run."""

import sys
import types

import ab_rounds
import pytest
from ab_rounds import claim_lines, side_line

PARENT = [1.0] * 10


def verdict(parent, change) -> str:
    return claim_lines(parent, change)[1].split(":")[0].strip()


@pytest.mark.parametrize("parent, change, clears", [
    (PARENT, [0.9] * 9 + [1.0], True),                   # 9 of 10 won, gap 0.1 > IQR 0
    (PARENT, [0.9] * 8 + [1.0] * 2, False),              # 8 of 10 won
    (PARENT[:9], [0.9] * 9, False),                      # 9 of 9: fewer than 10 pairs
    ([1.0] * 5 + [2.0] * 5, [0.25] * 10, True),          # gap 1.25 > IQR 1
    ([1.0] * 5 + [2.0] * 5, [0.5] * 10, False),          # gap 1.0 == IQR 1
], ids=["9-of-10", "8-of-10", "9-of-9", "gap-above-iqr", "gap-equal-to-iqr"])
def test_claim_rule_boundaries(parent, change, clears):
    assert verdict(parent, change) == ("CPU gain claim clears the rule" if clears
                                       else "CPU gain claim does not clear the rule")


def test_equal_values_are_wins_for_neither_side():
    assert "change lower in 9/10 pairs" in claim_lines(PARENT, [0.9] * 9 + [1.0])[0]
    assert "change lower in 0/10 pairs" in claim_lines(PARENT, PARENT)[0]


def test_peak_rss_claim_is_named_in_its_unit():
    lines = claim_lines([96.0, 97.0, 98.0] * 4, [43.0] * 12, "peak RSS", "MB")
    assert lines == [
        "  peak RSS change / parent: median ratio 0.443, change lower in 12/12 pairs",
        "  peak RSS gain claim clears the rule: 12/12 pairs won (9/10 of at least 10 "
        "needed), median gap 54.0000 MB against the parent's IQR 2.0000 MB"]


def test_side_line_shows_peak_rss_only_when_measured():
    cpu, faults = [0.5, 0.25, 0.75, 0.5], [100, 120, 80, 100]
    verdict = "4 runs, 0 processes exited non-zero, 0 runs with stdout unlike the parent's first"
    assert side_line("change", cpu, faults, [43.0, 43.0, 44.0, 44.0], verdict) == (
        "  change CPU 0.5000 s (0.1250), minor faults 100 (10), peak RSS 43.5 MB (1.0), "
        + verdict)
    assert side_line("parent", cpu, faults, None, "checks passed") == (
        "  parent CPU 0.5000 s (0.1250), minor faults 100 (10), checks passed")


def test_minor_faults_claim_is_named_in_its_unit():
    lines = claim_lines([53412, 53000, 53800] * 4, [10216] * 12, "minor faults", "faults")
    assert lines == [
        "  minor faults change / parent: median ratio 0.191, change lower in 12/12 pairs",
        "  minor faults gain claim clears the rule: 12/12 pairs won (9/10 of at least 10 "
        "needed), median gap 43196.0000 faults against the parent's IQR 800.0000 faults"]


def test_a_parent_reading_zero_has_no_ratio():
    # warm in-process rounds can read 0 faults on both sides
    lines = claim_lines([0] * 10, [0] * 10, "minor faults", "faults")
    assert lines[0] == "  minor faults change / parent: median ratio n/a, change lower in 0/10 pairs"
    assert lines[1].startswith("  minor faults gain claim does not clear the rule")


class StubRuns:
    """One side's runs in place of Rounds or FreshRuns: each run faults 100
    times on the parent's side and 10 times on the change's (ab_rounds.ROOT)."""

    who = None
    faults = 0  # of both sides' runs so far

    def __init__(self, root):
        self.step = 10 if root == ab_rounds.ROOT else 100
        self.peak = 40.0

    def run(self):
        StubRuns.faults += self.step

    def verdict(self, side, parent):
        return True, "passed"


@pytest.mark.parametrize("fresh", [False, True], ids=["in-process", "fresh"])
def test_faults_get_a_claim_line_in_both_kinds_of_run(fresh, tmp_path, monkeypatch, capsys):
    parent = tmp_path / "parent"
    (parent / "src" / "frameattn").mkdir(parents=True)
    (parent / "src" / "frameattn" / "__init__.py").touch()
    monkeypatch.setattr(StubRuns, "faults", 0)
    monkeypatch.setattr(ab_rounds, "usage", lambda who: (0.0, StubRuns.faults))
    monkeypatch.setattr(ab_rounds, "Rounds", lambda workloads, name, seed, root, *rest:
                        StubRuns(root))
    monkeypatch.setattr(ab_rounds, "FreshRuns", lambda root, *rest: StubRuns(root))
    monkeypatch.setattr(ab_rounds.subprocess, "run", lambda *args, **kwargs:
                        ab_rounds.subprocess.CompletedProcess(args, 0, stdout="x.fanf\n"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(sys.modules, "workloads", types.ModuleType("workloads"))
    argv = ["--parent", str(parent), "--workload", "cv"] + ["--fresh"] * fresh
    assert ab_rounds.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  parent CPU 0.0000 s (0.0000), minor faults 100 (0)" in lines[1]
    assert lines[5:7] == [
        "  minor faults change / parent: median ratio 0.100, change lower in 10/10 pairs",
        "  minor faults gain claim clears the rule: 10/10 pairs won (9/10 of at least 10 "
        "needed), median gap 90.0000 faults against the parent's IQR 0.0000 faults"]
    assert len(lines) == (9 if fresh else 7)
