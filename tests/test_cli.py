import json

import numpy as np
import pytest

from facetfit import catalog, cli, estimator, qp, sim
from facetfit import fan as fan_mod
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


@pytest.mark.parametrize("error", [qp.Infeasible, qp.Unbounded, qp.Inaccurate])
def test_reconstruct_lp_failure_exits_6(workdir, capsys, monkeypatch, error):
    def fail(*args):
        raise error("solution-set LP failed")

    monkeypatch.setattr(estimator, "solution_set", fail)
    rc = run(["reconstruct", "--fan", workdir / "hex.json",
              "--data", workdir / "cycle.txt"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_LP == 6
    assert error.__name__ in captured.err
    assert "objective" not in captured.out


@pytest.mark.parametrize("error, code", [
    (qp.Infeasible("phase-1 optimum is positive"), cli.EXIT_LP),
    (qp.IterationLimit("active-set iteration cap 0 exhausted", None),
     cli.EXIT_ITERATION),
])
def test_reconstruct_multi_all_fail_exits_with_first_error(
        workdir, capsys, monkeypatch, error, code):
    def fail(*args):
        raise error

    monkeypatch.setattr(estimator, "reconstruct", fail)
    rc = run(["reconstruct", "--fan", workdir / "d1.json",
              "--fan", workdir / "d1.json", "--data", workdir / "roof.txt"])
    captured = capsys.readouterr()
    assert rc == code
    assert len(captured.err.splitlines()) == 1 and str(error) in captured.err
    assert "objective" not in captured.out


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


@pytest.mark.parametrize("reps", ["0", "-3"])
def test_simulate_without_replicates_exits_2(workdir, capsys, monkeypatch, reps):
    monkeypatch.setattr(cli.sim, "run_convergence", None)  # must not be reached
    rc = run(["simulate", "--fan", workdir / "hex.json", "--m", "30", "120",
              "--reps", reps, "--out", workdir / "r.tsv",
              "--plot", workdir / "plot.svg"])
    assert rc == cli.EXIT_PARSE
    assert "--reps" in capsys.readouterr().err
    assert not (workdir / "r.tsv").exists()
    assert not (workdir / "plot.svg").exists()


def test_simulate_plot_with_nothing_to_plot(workdir, capsys, monkeypatch):
    def fail(*args):
        raise qp.Infeasible("every replicate fails")

    monkeypatch.setattr(cli.sim, "reconstruct", fail)
    rc = run(["simulate", "--fan", workdir / "hex.json", "--m", "30", "120",
              "--reps", "2", "--out", workdir / "r.tsv",
              "--plot", workdir / "plot.svg"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_OK
    assert captured.err.splitlines() == [
        f"{workdir / 'plot.svg'}: nothing to plot, not written"]
    assert (workdir / "r.tsv").exists()
    assert not (workdir / "plot.svg").exists()


def test_simulate_plot_without_noise_has_no_bound_line(workdir):
    rc = run(["simulate", "--fan", workdir / "hex.json", "--m", "30", "120",
              "--reps", "2", "--sigma", "0", "--out", workdir / "r.tsv",
              "--plot", workdir / "plot.svg"])
    assert rc == cli.EXIT_OK
    meta = json.loads((workdir / "r.tsv.meta.json").read_text())
    assert meta["bound_prefactor"] == 0.0
    svg = (workdir / "plot.svg").read_text()
    assert "inf" not in svg and "nan" not in svg
    assert "crimson" not in svg and "darkorange" in svg


def test_simulate_without_noise_says_the_bound_does_not_apply(workdir, capsys):
    rc = run(["simulate", "--fan", workdir / "hex.json", "--m", "30", "120",
              "--reps", "2", "--sigma", "0", "--out", workdir / "r.tsv"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert ("bound does not apply: its prefactor is 0 (the bound needs sigma > 0)"
            in out.splitlines())
    assert "bound violations" not in out
    meta = json.loads((workdir / "r.tsv.meta.json").read_text())
    assert meta["bound_prefactor"] == 0.0


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
    (["--delta", "inf"], "invalid input: delta must be positive and finite, not inf"),
    (["--delta", "nan"], "invalid input: delta must be positive and finite, not nan"),
    (["--sigma", "nan"], "invalid input: sigma must be nonnegative and finite, not nan"),
    (["--sigma", "inf"], "invalid input: sigma must be nonnegative and finite, not inf"),
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


@pytest.mark.parametrize("dim, cell", [
    ("2.9", "[0, 1]"),
    ("2", "[1.7, 2]"),
    ("2", "[0, true]"),
])
def test_non_integer_fan_indices_are_parse_errors(workdir, capsys, dim, cell):
    hexa = catalog.hexagon_fan()
    cells = ", ".join(json.dumps(list(c)) for c in hexa.cells[1:])
    bad = workdir / "float.json"
    bad.write_text(f'{{"dim": {dim}, "rays": {json.dumps(hexa.rays.tolist())},'
                   f' "cells": [{cell}, {cells}]}}\n')
    rc = run(["fan-info", bad])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_PARSE
    assert "must be an integer" in captured.err
    assert "validation" not in captured.out


# ---------------------------------------------------------------------------
# Refusals: each failure has one exit code and one stderr line
# ---------------------------------------------------------------------------

def assert_refused(captured, *fragments):
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "Traceback" not in captured.err
    for fragment in fragments:
        assert fragment in lines[0]


@pytest.mark.parametrize("error, code", [
    (cli.ParseError("line 3:\nunexpected token"), 2),
    (fan_mod.NoCarrier("no cell holds the direction"), 2),
    (ValueError("value out of range"), 2),
    (OSError("disk full"), 2),
    (fan_mod.InvalidFan("fan failed validation"), 3),
    (qp.IterationLimit("active-set iteration cap exhausted", None), 4),
    (sim.QuotaInfeasible("quotas exceed m"), 5),
    (qp.Infeasible("phase-1 optimum is positive"), 6),
    (qp.Unbounded("objective decreases along a ray"), 6),
    (qp.Inaccurate("point violates its constraints"), 6),
])
def test_each_refusal_exits_with_its_code_and_one_line(
        workdir, capsys, monkeypatch, error, code):
    def fail(path):
        raise error

    monkeypatch.setattr(cli, "load_fan", fail)
    rc = run(["fan-info", workdir / "hex.json"])
    captured = capsys.readouterr()
    assert rc == code
    assert_refused(captured, str(error).splitlines()[-1])
    if code == cli.EXIT_LP:
        assert type(error).__name__ in captured.err


def test_unexpected_error_is_not_reported_as_a_refusal(workdir, monkeypatch):
    def fail(path):
        raise RuntimeError("a bug, not a refusal")

    monkeypatch.setattr(cli, "load_fan", fail)
    with pytest.raises(RuntimeError):
        run(["fan-info", workdir / "hex.json"])


def test_reconstruct_refuses_missing_output_directory(workdir, capsys):
    target = workdir / "missing" / "x.json"
    rc = run(["reconstruct", "--fan", workdir / "hex.json",
              "--data", workdir / "cycle.txt", "--output", target])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_PARSE
    assert_refused(captured, str(target), "no such directory")
    assert captured.out == ""


def test_reconstruct_failed_write_exits_2(workdir, capsys):
    rc = run(["reconstruct", "--fan", workdir / "hex.json",
              "--data", workdir / "cycle.txt", "--output", workdir])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_PARSE
    assert_refused(captured, "cannot write", str(workdir))


@pytest.mark.parametrize("option", ["--out", "--plot"])
def test_simulate_refuses_missing_output_directory_before_running(
        workdir, capsys, monkeypatch, option):
    monkeypatch.setattr(cli.sim, "run_convergence", None)  # must not be reached
    paths = {"--out": workdir / "r.tsv", "--plot": workdir / "p.svg"}
    paths[option] = workdir / "missing" / "x"
    rc = run(["simulate", "--fan", workdir / "hex.json", "--m", "30", "120",
              "--reps", "2", "--out", paths["--out"], "--plot", paths["--plot"]])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_PARSE
    assert_refused(captured, str(paths[option]), "no such directory")
    assert not (workdir / "missing").exists()
    assert not (workdir / "r.tsv").exists() and not (workdir / "p.svg").exists()


def test_reconstruct_fans_with_different_rays_exit_2(workdir, capsys):
    cli.save_fan(catalog.regular_polygon_fan(5), str(workdir / "pent.json"))
    rc = run(["reconstruct", "--fan", workdir / "hex.json",
              "--fan", workdir / "pent.json", "--data", workdir / "cycle.txt"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_PARSE
    assert_refused(captured, "different ray list")
    assert captured.out == ""


@pytest.mark.parametrize("command", [
    ["uniqueness", "--data", "cycle.txt"],
    ["simulate", "--m", "20", "40", "--reps", "1", "--out", "s.tsv"],
])
def test_invalid_fan_exits_3_and_names_the_failed_checks(
        workdir, capsys, monkeypatch, command):
    hexa = catalog.hexagon_fan()
    cli.save_fan(SimplicialFan(hexa.rays, hexa.cells[:-1]),
                 str(workdir / "broken.json"))
    monkeypatch.chdir(workdir)
    rc = run(command + ["--fan", "broken.json"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_VALIDATION
    assert_refused(captured, "broken.json", "ray 0 appears in 1 < d cells")
    assert captured.out == ""
    assert not (workdir / "s.tsv").exists()


# ---------------------------------------------------------------------------
# Validation runs once per fan and command
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("args, fans", [
    (["fan-info", "hex.json"], 1),
    (["fan-info", "--strict", "d1.json"], 1),
    (["reconstruct", "--fan", "hex.json", "--data", "cycle.txt"], 1),
    (["reconstruct", "--fan", "d1.json", "--fan", "d2.json", "--data", "roof.txt"], 2),
    (["uniqueness", "--fan", "hex.json", "--data", "cycle.txt"], 1),
    (["simulate", "--fan", "hex.json", "--m", "20", "40", "--reps", "1",
      "--out", "s.tsv"], 1),
])
def test_each_fan_validated_once(workdir, monkeypatch, args, fans):
    validated = []
    original = fan_mod.validate

    def counted(fan, *rest, **kwargs):
        validated.append(id(fan))
        return original(fan, *rest, **kwargs)

    monkeypatch.setattr(fan_mod, "validate", counted)
    monkeypatch.chdir(workdir)
    assert run(args) == cli.EXIT_OK
    assert len(validated) == len(set(validated)) == fans
