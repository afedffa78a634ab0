"""The gain-claim rule and the per-side summary that tests/ab_rounds.py
prints at the end of a run."""

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
