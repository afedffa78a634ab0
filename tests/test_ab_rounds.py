"""The gain-claim rule that tests/ab_rounds.py prints at the end of a run."""

import pytest

from ab_rounds import claim_lines

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
    assert verdict(parent, change) == ("gain claim clears the rule" if clears
                                       else "gain claim does not clear the rule")


def test_equal_values_are_wins_for_neither_side():
    assert "change faster in 9/10 pairs" in claim_lines(PARENT, [0.9] * 9 + [1.0])[0]
    assert "change faster in 0/10 pairs" in claim_lines(PARENT, PARENT)[0]
