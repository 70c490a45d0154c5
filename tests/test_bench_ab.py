"""The gain rule of tools/bench_ab.py, on fixed numbers; no benchmark runs."""

import importlib.util

from tests.conftest import ROOT

_SPEC = importlib.util.spec_from_file_location("bench_ab",
                                               ROOT / "tools" / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_ab)

# ten parent runs: median 10.45, quartiles 10.175 and 10.725 (IQR 0.55)
PARENT = [10.0, 10.2, 10.4, 10.6, 10.8, 10.1, 10.3, 10.5, 10.7, 10.9]
NONE = (0.0, 0.0)   # share of failed verdicts, parent and change


def test_nine_wins_of_ten_and_a_gap_wider_than_the_iqr_hold():
    change = [v - 1.0 for v in PARENT[:9]] + [PARENT[9] + 0.1]
    assert bench_ab.claim_holds(PARENT, change, "lower", NONE) == (9, True)


def test_eight_wins_of_ten_do_not_hold():
    change = [v - 1.0 for v in PARENT[:8]] + [PARENT[8], PARENT[9] + 0.1]
    # the tie in pair 9 counts for neither side
    assert bench_ab.claim_holds(PARENT, change, "lower", NONE) == (8, False)


def test_a_gap_inside_the_parent_iqr_does_not_hold():
    change = [v - 0.5 for v in PARENT]
    assert bench_ab.claim_holds(PARENT, change, "lower", NONE) == (10, False)


def test_fewer_than_ten_pairs_do_not_hold():
    change = [v - 1.0 for v in PARENT[:9]]
    assert bench_ab.claim_holds(PARENT[:9], change, "lower", NONE) == (9, False)


def test_higher_is_better_turns_the_rule_round():
    up = [v + 1.0 for v in PARENT]
    assert bench_ab.claim_holds(PARENT, up, "higher", NONE) == (10, True)
    assert bench_ab.claim_holds(PARENT, up, "lower", NONE) == (0, False)


def test_a_larger_share_of_failures_does_not_hold():
    change = [v - 1.0 for v in PARENT]
    assert bench_ab.claim_holds(PARENT, change, "lower", (0.0, 0.01)) == (
        10, False)
    assert bench_ab.claim_holds(PARENT, change, "lower", (0.02, 0.01)) == (
        10, True)
