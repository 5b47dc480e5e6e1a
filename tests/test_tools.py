"""The verdicts of tools/bench_pairs.py on made-up runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_seed_ranges_and_lists():
    assert bench_pairs.parse_seeds("3201-3203,3207") == [3201, 3202, 3203,
                                                         3207]
    assert bench_pairs.parse_seeds("5") == [5]
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds("a-b")


def test_claim_needs_nine_tenths_of_pairs_and_a_gap_past_the_quartiles():
    parent = [10.0 + 0.1 * i for i in range(10)]     # quartiles 10.225-10.675
    faster = [p - 1.0 for p in parent]
    met = bench_pairs.summarize(parent, faster, "lower", 0.25)
    assert met["change_better_pairs"] == 10 and met["claim_met"]
    assert met["bound_verdict"] == "within"
    assert met["median_change_pct"] == pytest.approx(-9.57, abs=0.01)
    # every pair better, but by less than the parent's quartile distance
    close = bench_pairs.summarize(parent, [p - 0.2 for p in parent],
                                  "lower", 0.25)
    assert close["change_better_pairs"] == 10 and not close["claim_met"]
    # a gap past the quartiles, but two of ten pairs worse
    mixed = bench_pairs.summarize(parent, faster[:8] + [20.0, 20.0],
                                  "lower", 0.25)
    assert mixed["change_better_pairs"] == 8 and not mixed["claim_met"]
    # "higher" reverses every comparison
    up = bench_pairs.summarize(faster, parent, "higher", 0.25)
    assert up["change_better_pairs"] == 10 and up["claim_met"]


def test_bound_verdicts():
    parent = [10.0] * 10
    assert bench_pairs.summarize(parent, [12.0] * 10, "lower",
                                 0.25)["bound_verdict"] == "within"
    assert bench_pairs.summarize(parent, [13.0] * 10, "lower",
                                 0.25)["bound_verdict"] == "regression"
    # the parent's own runs spread wider than the bound
    wide = [5.0, 5.0, 5.0, 10.0, 10.0, 10.0, 10.0, 15.0, 15.0, 15.0]
    assert bench_pairs.summarize(wide, [10.0] * 10, "lower",
                                 0.25)["bound_verdict"] == "unresolved"
    assert bench_pairs.summarize(wide, [4.0] * 10, "lower",
                                 0.25)["bound_verdict"] == "within"
