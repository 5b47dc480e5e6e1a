"""The verdicts of tools/bench_pairs.py and the comparisons of
tools/cli_outputs.py on made-up records."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load("bench_pairs")
cli_outputs = _load("cli_outputs")


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


def test_torus_value_shift_in_standard_errors():
    # |0.6 - 0.61| / hypot(0.003, 0.004) = 2; the worse row counts
    a = "0.6,0.003,1000,42\n0.5,0.001,1000,43\n"
    b = "0.61,0.004,1000,42\n0.5,0.001,1000,43\n"
    assert cli_outputs.se_shift(a, b) == pytest.approx(2.0)
    assert cli_outputs.se_shift(a, a) == 0.0
    assert cli_outputs.se_shift("1,0,5,1\n", "1,0,5,1\n") == 0.0
    assert cli_outputs.se_shift("1,0,5,1\n", "0.8,0,5,1\n") == math.inf
    # not a torus output: two fields, a text, or a row more on one side
    assert cli_outputs.se_shift("1,2\n", "1,3\n") is None
    assert cli_outputs.se_shift("OK\n", "OK\n") is None
    assert cli_outputs.se_shift(a, a + "0.5,0.001,1000,44\n") is None


def test_diff_reports_torus_shifts_in_standard_errors(tmp_path, capsys):
    def record(output):
        return {"exit": 0, "stdout": "", "stderr": "", "output": output}
    a = {"w seed=1 full: density lasso": record("1,0.6\n2,0.63\n"),
         "w seed=1 full: torus lasso": record("0.6,0.003,1000,1\n"),
         "w seed=1 full: torus fig1d": record("0.5,0.003,1000,1\n")}
    b = dict(a)
    b["w seed=1 full: torus lasso"] = record("0.61,0.004,1000,1\n")
    b["w seed=1 full: torus fig1d"] = record("0.497,0.004,1000,1\n")
    paths = []
    for name, records in (("a.json", a), ("b.json", b)):
        paths.append(str(tmp_path / name))
        Path(paths[-1]).write_text(json.dumps(records), encoding="utf-8")
    assert cli_outputs.diff(*paths) == 1
    assert capsys.readouterr().out.splitlines() == [
        "w seed=1 full: torus fig1d: output differ; largest |difference| "
        "per field 0.003, 0.001, 0, 0; value shift 0.60 SE",
        "w seed=1 full: torus lasso: output differ; largest |difference| "
        "per field 0.01, 0.001, 0, 0; value shift 2.00 SE",
        "2 of 3 invocations differ",
        "largest torus value shift: 2.00 SE (w seed=1 full: torus lasso)"]
    assert cli_outputs.diff(paths[0], paths[0]) == 0
    assert capsys.readouterr().out == "0 of 3 invocations differ\n"
