import json

import numpy as np
import pytest

from facetfit import catalog, cli
from facetfit.design import Dataset
from facetfit.fan import SimplicialFan

from test_design import ROOF_DIRECTIONS


@pytest.fixture
def workdir(tmp_path):
    hexa = catalog.hexagon_fan()
    cli.save_fan(hexa, str(tmp_path / "hex.json"))
    cli.save_fan(catalog.roof_fan_y(), str(tmp_path / "d1.json"))
    cli.save_fan(catalog.roof_fan_x(), str(tmp_path / "d2.json"))
    U = np.array([hexa.rays[i] + hexa.rays[(i + 1) % 6] for i in range(6)])
    cli.save_dataset(Dataset(U, 2.0 * np.ones(6)), str(tmp_path / "cycle.txt"))
    cli.save_dataset(Dataset(ROOF_DIRECTIONS, np.array([6.0, 6, 6, 6, 14, 10])),
                     str(tmp_path / "roof.txt"))
    return tmp_path


def run(args):
    return cli.main([str(a) for a in args])


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def test_fan_round_trip(workdir):
    first = cli.load_fan(str(workdir / "hex.json"))
    cli.save_fan(first, str(workdir / "hex2.json"))
    second = cli.load_fan(str(workdir / "hex2.json"))
    assert np.array_equal(first.rays, second.rays)
    assert first.cells == second.cells
    assert first.dim == second.dim


def test_dataset_round_trip(workdir):
    ds = cli.load_dataset(str(workdir / "cycle.txt"), 2)
    cli.save_dataset(ds, str(workdir / "cycle2.txt"))
    ds2 = cli.load_dataset(str(workdir / "cycle2.txt"), 2)
    assert np.array_equal(ds.directions, ds2.directions)
    assert np.array_equal(ds.values, ds2.values)


def test_malformed_fan_reports_position(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text('{"dim": 2,\n "rays": [[1,]]}\n')
    rc = run(["fan-info", bad])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_PARSE
    assert "line 2" in captured.err


def test_wrong_field_count_is_parse_error(workdir, capsys):
    data = workdir / "short.txt"
    data.write_text("1.0 2.0\n")
    rc = run(["reconstruct", "--fan", workdir / "hex.json", "--data", data])
    assert rc == cli.EXIT_PARSE
    assert "expected 3 fields" in capsys.readouterr().err


def test_empty_data_is_parse_error(workdir):
    data = workdir / "empty.txt"
    data.write_text("# nothing here\n")
    rc = run(["reconstruct", "--fan", workdir / "hex.json", "--data", data])
    assert rc == cli.EXIT_PARSE


# ---------------------------------------------------------------------------
# fan-info
# ---------------------------------------------------------------------------

def test_fan_info_hexagon(workdir, capsys):
    rc = run(["fan-info", workdir / "hex.json"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "validation: PASS" in out
    assert "h1 - h2 + h3 >= 0" in out
    assert "c_delta" in out


def test_fan_info_invalid_fan_exits_3(workdir):
    hexa = catalog.hexagon_fan()
    broken = SimplicialFan(hexa.rays, hexa.cells[:-1])
    cli.save_fan(broken, str(workdir / "broken.json"))
    rc = run(["fan-info", workdir / "broken.json"])
    assert rc == cli.EXIT_VALIDATION


def test_fan_info_roof_inequalities(workdir, capsys):
    rc = run(["fan-info", workdir / "d1.json"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "h1 + h2 - h3 - h4 >= 0" in out


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

def test_reconstruct_cycle_outputs_segment(workdir, capsys):
    out_path = workdir / "res.json"
    rc = run(["reconstruct", "--fan", workdir / "hex.json",
              "--data", workdir / "cycle.txt", "--output", out_path])
    printed = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "dimension 1" in printed and "endpoint" in printed
    payload = json.loads(out_path.read_text())
    assert payload["format"] == "reconstruction/1"
    endpoints = np.array(payload["solution_set"]["segment_endpoints"])
    targets = np.array([[4, 2, 4, 2, 4, 2], [2, 4, 2, 4, 2, 4]]) / 3.0
    assert (np.allclose(sorted(endpoints.tolist()), sorted(targets.tolist()),
                        atol=1e-7))
    assert payload["uniqueness"]["numeric_rank"] == 5


def test_reconstruct_multi_reports_tie(workdir, capsys):
    rc = run(["reconstruct", "--fan", workdir / "d1.json",
              "--fan", workdir / "d2.json", "--data", workdir / "roof.txt"])
    printed = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "TIE" in printed


# ---------------------------------------------------------------------------
# uniqueness
# ---------------------------------------------------------------------------

def test_uniqueness_cycle(workdir, capsys):
    rc = run(["uniqueness", "--fan", workdir / "hex.json",
              "--data", workdir / "cycle.txt"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "numeric rank: 5" in out
    assert "matching size: 6" in out
    assert "unique for all y: no" in out


def test_uniqueness_with_ray_data(workdir, capsys):
    hexa = catalog.hexagon_fan()
    cli.save_dataset(Dataset(hexa.rays, np.ones(6)), str(workdir / "rays.txt"))
    rc = run(["uniqueness", "--fan", workdir / "hex.json",
              "--data", workdir / "rays.txt"])
    assert rc == cli.EXIT_OK
    assert "unique for all y: yes" in capsys.readouterr().out


def test_uniqueness_fewer_rows_than_rays(workdir, capsys):
    hexa = catalog.hexagon_fan()
    cli.save_dataset(Dataset(hexa.rays[:5], np.ones(5)), str(workdir / "five.txt"))
    rc = run(["uniqueness", "--fan", workdir / "hex.json",
              "--data", workdir / "five.txt"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "unique for all y: no" in out


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_is_reproducible_and_writes_sidecar(workdir, capsys):
    args = ["simulate", "--fan", workdir / "hex.json", "--m", "30", "120",
            "--reps", "2", "--seed", "3", "--out"]
    rc1 = run(args + [workdir / "a.tsv"])
    rc2 = run(args + [workdir / "b.tsv"])
    assert rc1 == rc2 == cli.EXIT_OK
    assert (workdir / "a.tsv").read_bytes() == (workdir / "b.tsv").read_bytes()
    meta = json.loads((workdir / "a.tsv.meta.json").read_text())
    assert meta["generator"] == "pcg64/marsaglia-polar/1"
    assert "slope" in capsys.readouterr().out


def test_simulate_writes_plot(workdir):
    rc = run(["simulate", "--fan", workdir / "hex.json", "--m", "30", "120",
              "--reps", "2", "--seed", "3", "--out", workdir / "r.tsv",
              "--plot", workdir / "plot.svg"])
    assert rc == cli.EXIT_OK
    svg = (workdir / "plot.svg").read_text()
    assert svg.startswith("<svg") and "</svg>" in svg


def test_simulate_infeasible_plan_exits_5(workdir):
    rc = run(["simulate", "--fan", workdir / "hex.json", "--t", "0.1",
              "--delta", "0.05", "--m", "600", "--reps", "2",
              "--out", workdir / "x.tsv"])
    assert rc == cli.EXIT_PLAN


def test_simulate_rejects_h0_outside_cone(workdir):
    rc = run(["simulate", "--fan", workdir / "d1.json", "--m", "20", "40",
              "--reps", "1", "--h0", "2,2,4,4,0", "--out", workdir / "y.tsv"])
    assert rc == cli.EXIT_PARSE


@pytest.mark.parametrize("extra, message", [
    (["--h0", "a,1,1,1,1,1"], "--h0"),
    (["--t", "0.7"], "t must lie in"),
    (["--eta", "2"], "--eta"),
    (["--m", "100", "100"], "--m"),
])
def test_simulate_argument_errors_exit_2(workdir, capsys, extra, message):
    rc = run(["simulate", "--fan", workdir / "hex.json", "--reps", "1",
              "--out", workdir / "z.tsv"] + extra)
    assert rc == cli.EXIT_PARSE
    assert message in capsys.readouterr().err
    assert not (workdir / "z.tsv").exists()


@pytest.mark.parametrize("row", ["nan 1.0 2.0", "1.0 0.0 inf"])
def test_non_finite_data_is_parse_error(workdir, capsys, row):
    data = workdir / "bad.txt"
    data.write_text("1.0 0.0 1.0\n" + row + "\n")
    rc = run(["reconstruct", "--fan", workdir / "hex.json", "--data", data])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_PARSE
    assert "finite" in captured.err
    assert "objective" not in captured.out


def test_non_finite_fan_is_parse_error(workdir, capsys):
    bad = workdir / "nan.json"
    bad.write_text('{"dim": 2, "rays": [[1, 0], [0, NaN], [-1, -1]],'
                   ' "cells": [[0, 1], [1, 2], [2, 0]]}\n')
    rc = run(["fan-info", bad])
    assert rc == cli.EXIT_PARSE
    assert "finite" in capsys.readouterr().err
