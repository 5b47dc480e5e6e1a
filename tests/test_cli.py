import argparse
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import graphbands as gb
from conftest import (DIHEDRAL_RHO, flower_graph, marker_fig1d,
                      random_magnetic_graph)
from graphbands import graph_model
from graphbands.cli import run


@pytest.fixture
def lasso_file(tmp_path):
    g = gb.bind_lengths(gb.build_example("lasso"), [1.3, 0.9])
    path = tmp_path / "lasso.json"
    gb.save_graph(path, g)
    return str(path)


@pytest.fixture
def cell_file(tmp_path):
    cell = gb.FundamentalCell(
        vertices=(0, 1, 2),
        edges=(gb.Edge(1, 0, 1, 1.2), gb.Edge(2, 2, 0, 0.7)),
        identifications=(gb.Identification(1, plus=1, minus=0),),
        generators=1)
    path = tmp_path / "cell.json"
    gb.save_graph(path, cell)
    return str(path)


@pytest.fixture
def unbound_file(tmp_path):
    path = tmp_path / "unbound.json"
    gb.save_graph(path, gb.build_example("fig1c"))
    return str(path)


def test_validate_ok(lasso_file, cell_file, capsys):
    assert run(["validate", lasso_file]) == 0
    assert "magnetic graph" in capsys.readouterr().out
    assert run(["validate", cell_file]) == 0
    out = capsys.readouterr().out
    assert "reduces to 2 edges" in out


def test_validate_reports_violations(tmp_path, capsys):
    payload = {"generators": 1, "vertices": [0, 1],
               "edges": [{"id": 1, "from": 0, "to": 1, "length": -1.0}],
               "identifications": [{"generator": 1, "plus": 1, "minus": 0}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert run(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "violation" in err and "nonpositive length" in err
    # a fractional flux is an error, not flux 0
    text = json.dumps(graph_model.to_payload(gb.build_example("lasso")))
    path.write_text(text.replace('"flux": [1]', '"flux": [0.5]'))
    assert run(["validate", str(path)]) == 1
    assert "flux: 0.5 is not an integer" in capsys.readouterr().err


def test_missing_and_malformed_files(tmp_path, capsys):
    assert run(["validate", str(tmp_path / "nope.json")]) == 1
    assert run(["bands", str(tmp_path / "nope.json"), "--kmax", "5"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert run(["validate", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_non_object_edge_fails_with_one_line(tmp_path, capsys):
    # an edge given as a list: one error line and exit 1, no traceback
    path = tmp_path / "list_edge.json"
    path.write_text('{"generators": 1, "vertices": [0], "edges": [[0, 0, 1]]}')
    for argv in (["validate", str(path)],
                 ["torus", str(path), "--samples", "10"]):
        assert run(argv) == 1
        assert capsys.readouterr() == (
            "", "error: malformed graph payload: "
                "'list' object has no attribute 'get'\n")


def test_string_number_fails_with_one_line(tmp_path, capsys):
    # a JSON string where a number belongs: one error line and exit 1
    path = tmp_path / "string_flux.json"
    path.write_text('{"generators": 2, "vertices": [0], "edges": [{"id": 7, '
                    '"from": 0, "to": 0, "length": 1.5, "flux": "11"}]}')
    for argv in (["validate", str(path)],
                 ["torus", str(path), "--samples", "10"]):
        assert run(argv) == 1
        assert capsys.readouterr() == (
            "", "error: flux: '11' is not a number\n")


def test_non_utf8_file_fails(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{\x00\"\x00")
    for argv in (["validate", str(path)], ["bands", str(path), "--kmax", "5"]):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed graph file"), err


def test_usage_errors_exit_2(lasso_file, capsys):
    for argv in (["bands", lasso_file],                        # missing --kmax
                 ["bands", lasso_file, "--kmax", "-3"],
                 ["density", lasso_file, "--kmax", "inf"],
                 ["density", lasso_file, "--kmax", "nan"],
                 ["bands", lasso_file, "--kmax", "5", "--grid-step", "inf"],
                 ["density", lasso_file, "--kmax", "5", "--checkpoints", "0"],
                 ["torus", lasso_file, "--samples", "zero"],
                 ["scattering", lasso_file, "--threads", "2"],
                 ["bands", lasso_file, "--kmax", "5", "--threads", "2"],
                 ["density", lasso_file, "--kmax", "5", "--threads", "2"],
                 ["torus", lasso_file, "--samples", "10", "--threads", "2"],
                 ["torus", lasso_file, "--samples", "10", "--seed", "-1"],
                 ["reference", "dihedral", "--seed", "-1"],
                 ["reference", "dihedral", "--samples", "168"],
                 ["scattering", lasso_file, "--random-lengths",
                  "--seed", "-2"],
                 ["nonsense"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    for argv, message in (
            (["density", lasso_file, "--kmax", "inf"],
             "argument --kmax: value must be positive and finite, got 'inf'"),
            (["bands", lasso_file, "--kmax", "abc"],
             "argument --kmax: 'abc' is not a number"),
            (["scattering", lasso_file, "--lengths", "1,x"],
             "argument --lengths: lengths must be comma-separated numbers"),
            (["scattering", lasso_file, "--lengths", ","],
             "argument --lengths: empty length list")):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err, argv


def test_scan_grid_above_two_to_the_52_fails(lasso_file, capsys):
    # the library's ValueError is one error line, not a traceback; the
    # point count is inf when k_max / grid_step overflows
    for argv, points in ((["density", lasso_file, "--kmax", "1e308"], "inf"),
                         (["bands", lasso_file, "--kmax", "5", "--grid-step",
                           "1e-300"], "4.9999999999999997e+300")):
        assert run(argv) == 1
        assert capsys.readouterr() == (
            "", "error: the scan grid would have %s points, above "
            "SCAN_BUDGET = 10000000\n" % points)


def test_scan_grid_above_budget_fails(lasso_file, monkeypatch, capsys):
    # 5e9 + 1 grid points, 37 GiB: one error line before the grid exists
    def linspace(*args, **kwargs):
        raise AssertionError("the scan grid was allocated")
    monkeypatch.setattr(np, "linspace", linspace)
    assert run(["bands", lasso_file, "--kmax", "5", "--grid-step", "1e-9"]) == 1
    assert capsys.readouterr() == (
        "", "error: the scan grid would have 5000000001 points, above "
        "SCAN_BUDGET = 10000000\n")


def test_infinite_total_length_fails_with_one_line(lasso_file, capsys):
    # lengths (1e308, 1e308) sum to inf: one error line naming the
    # length, where the scan used to end in a ZeroDivisionError traceback
    # (or, with a grid step, in bands from NaN margins)
    for argv in (["density", lasso_file, "--kmax", "10"],
                 ["bands", lasso_file, "--kmax", "10"],
                 ["bands", lasso_file, "--kmax", "10", "--grid-step", "0.1"]):
        assert run(argv + ["--lengths", "1e308,1e308"]) == 1
        assert capsys.readouterr() == (
            "", "error: the total length must be finite, got inf\n")


def test_edgeless_graph_is_refused(tmp_path, capsys):
    graph = tmp_path / "edgeless.json"
    graph.write_text(json.dumps({"generators": 0, "vertices": [0], "edges": []}))
    cell = tmp_path / "edgeless_cell.json"
    cell.write_text(json.dumps({
        "generators": 1, "vertices": [0, 1], "edges": [],
        "identifications": [{"generator": 1, "plus": 1, "minus": 0}]}))
    for path in (graph, cell):
        for command, *options in (["validate"], ["scattering"],
                                  ["bands", "--kmax", "5"],
                                  ["density", "--kmax", "5"],
                                  ["torus", "--samples", "10"]):
            assert run([command, str(path)] + options) == 1, (path, command)
            assert capsys.readouterr() == ("", "error: graph has no edges\n")


def test_parser_is_built_once(lasso_file, monkeypatch, capsys):
    assert run(["validate", lasso_file]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(["validate", lasso_file]) == 0
    assert run(["torus", lasso_file, "--samples", "10"]) == 0
    with pytest.raises(SystemExit):
        run(["bands", lasso_file])                  # missing --kmax
    assert built == []


def test_scattering_dump(lasso_file, capsys):
    assert run(["scattering", lasso_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "# scattering matrix (4 x 4)"
    row0 = [float(x) for x in out[1].split(",")]
    assert row0 == pytest.approx([2 / 3, 2 / 3, -1 / 3, 0.0])
    i = out.index("# bond lengths")
    assert [float(x) for x in out[i + 1].split(",")] == [1.3, 0.9, 1.3, 0.9]
    i = out.index("# bond flux (4 x 1)")
    assert [line for line in out[i + 1:i + 5]] == ["1", "0", "-1", "0"]


def test_bands_csv_and_determinism(lasso_file, capsys):
    assert run(["bands", lasso_file, "--kmax", "20"]) == 0
    first = capsys.readouterr().out
    assert run(["bands", lasso_file, "--kmax", "20"]) == 0
    assert capsys.readouterr().out == first
    rows = [tuple(map(float, line.split(","))) for line in first.splitlines()]
    assert all(lo <= hi for lo, hi in rows)
    assert rows[0][0] == 0.0
    # 17 significant digits requested
    assert any(len(line.split(",")[1]) >= 12 for line in first.splitlines())


def test_module_entry_point(lasso_file, capsys):
    # python -m graphbands.cli runs the CLI, with the same output as run()
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(gb.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "graphbands.cli", "bands", lasso_file,
         "--kmax", "100"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) > 10
    assert run(["bands", lasso_file, "--kmax", "100"]) == 0
    assert proc.stdout == capsys.readouterr().out


def test_bands_respects_flags(lasso_file, capsys):
    assert run(["bands", lasso_file, "--kmax", "10",
                "--grid-step", "0.05", "--bisect-tol", "1e-6"]) == 0
    assert capsys.readouterr().out


def test_graph_above_compile_budget_fails(tmp_path, capsys):
    # 41 edges at flux weight 32: 3^41 * 65 compile determinants
    path = tmp_path / "big.json"
    gb.save_graph(path, random_magnetic_graph(0, n_edges=41))
    for argv in (["bands", str(path), "--kmax", "5"],
                 ["torus", str(path), "--samples", "10"]):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(3 ** 41 * 65) in err


def test_many_generators_fail(tmp_path, capsys):
    # a five-loop flower with one generator per loop: its alpha-series over
    # the 64^4 grid of the other generators is above COMPILE_BUDGET
    path = tmp_path / "flower5.json"
    gb.save_graph(path, flower_graph(5))
    for argv in (["bands", str(path), "--kmax", "5"],
                 ["density", str(path), "--kmax", "5"],
                 ["torus", str(path), "--samples", "10"]):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the alpha-series"), err


def test_density_csv(lasso_file, capsys):
    assert run(["density", lasso_file, "--kmax", "200",
                "--checkpoints", "5"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 5
    ks = [float(r[0]) for r in rows]
    ps = [float(r[1]) for r in rows]
    assert ks[-1] == 200.0 and all(np.diff(ks) > 0)
    assert all(0.0 <= p <= 1.0 for p in ps)


def test_torus_line_and_output_file(lasso_file, tmp_path, capsys):
    out_file = tmp_path / "torus.csv"
    assert run(["torus", lasso_file, "--samples", "20000", "--seed", "4",
                "-o", str(out_file)]) == 0
    assert capsys.readouterr().out == ""
    value, se, samples, seed = out_file.read_text().strip().split(",")
    assert samples == "20000" and seed == "4"
    assert 0.0 <= float(value) <= 1.0
    est = gb.mc_volume(gb.bond_matrices(
        gb.load_graph(lasso_file)), 20000, seed=4)
    assert float(value) == est.value


def test_length_overrides(unbound_file, capsys):
    # unbound graph needs lengths from somewhere
    assert run(["scattering", unbound_file]) == 1
    assert "unbound" in capsys.readouterr().err
    assert run(["scattering", unbound_file,
                "--lengths", "2.0,0.5,0.5"]) == 0
    capsys.readouterr()
    assert run(["scattering", unbound_file, "--random-lengths",
                "--seed", "3"]) == 0
    out = capsys.readouterr().out
    g = gb.with_random_lengths(gb.load_graph(unbound_file), 3)
    assert ("%.17g" % g.lengths[0]) in out
    # wrong count is a data error, not a usage error
    assert run(["scattering", unbound_file, "--lengths", "1.0"]) == 1


def test_cell_lengths_follow_cell_edges(capsys):
    # one --lengths value per cell edge, in file order
    ladder = str(pathlib.Path(__file__).parents[1]
                 / "demos" / "graphs" / "ladder_cell.json")
    assert run(["scattering", ladder, "--lengths", "1.1,1.2,1.3"]) == 0
    out = capsys.readouterr().out.splitlines()
    i = out.index("# bond lengths")
    assert [float(x) for x in out[i + 1].split(",")] == [1.1, 1.2, 1.3] * 2
    assert run(["scattering", ladder,
                "--lengths", "1.1,1.2,1.3,1.4,1.5"]) == 1
    assert "expected 3 lengths" in capsys.readouterr().err


def test_cell_file_reduced_before_computation(cell_file, capsys):
    assert run(["bands", cell_file, "--kmax", "10"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows


def test_torus_runs_on_the_core_shape(tmp_path, capsys):
    # fig1c and fig1d print what torus prints on the lasso of the same
    # loop and connector: their cores are that lasso, loop then pendant
    fig1c = gb.with_random_lengths(gb.build_example("fig1c"), 3)
    l1, l2, l3 = fig1c.lengths
    fig1d = marker_fig1d([0.6, l2 + l3, 1.3, 1.4, 1.5, l1 - 0.6])
    outputs = []
    for name, g in (("lasso", gb.bind_lengths(gb.build_example("lasso"),
                                              [l1, l2 + l3])),
                    ("fig1c", fig1c), ("fig1d", fig1d)):
        path = tmp_path / (name + ".json")
        gb.save_graph(path, g)
        assert run(["torus", str(path), "--samples", "30000",
                    "--seed", "11"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    # lengths are bound before the reduction: one per edge of the file
    path = str(tmp_path / "fig1c.json")
    assert run(["torus", path, "--samples", "10",
                "--lengths", "1.1,1.2,1.3"]) == 0
    assert run(["torus", path, "--samples", "10", "--lengths", "1.1,1.2"]) == 1
    assert "expected 3 lengths" in capsys.readouterr().err
    # scattering dumps the graph as the file gives it
    assert run(["scattering", path]) == 0
    assert capsys.readouterr().out.startswith("# scattering matrix (6 x 6)")


def test_reference_commands(capsys):
    assert run(["reference", "lasso"]) == 0
    value, bound = capsys.readouterr().out.strip().split(",")
    assert float(value) == 0.6368335201743935
    assert float(bound) <= 1e-14
    assert run(["reference", "dihedral", "--samples", "100000",
                "--seed", "0"]) == 0
    value, bound = capsys.readouterr().out.strip().split(",")
    assert float(value) == pytest.approx(DIHEDRAL_RHO, abs=1e-14)
    assert 0 < float(bound) <= 1e-12


def test_reference_dihedral_ignores_the_seed(tmp_path, capsys):
    # the benchmark's argv: the quadrature draws nothing, so every seed
    # writes the same bytes
    outputs = []
    for seed in ("0", "7"):
        out = tmp_path / ("dihedral_%s.csv" % seed)
        assert run(["reference", "dihedral", "--samples", "2000000",
                    "--seed", seed, "-o", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    value, bound = outputs[0].decode().strip().split(",")
    assert float(value) == pytest.approx(DIHEDRAL_RHO, abs=1e-14)
    assert float(bound) <= 1e-12
    capsys.readouterr()
