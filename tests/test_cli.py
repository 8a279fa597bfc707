"""Command-line interface: artifacts, config layering, exit codes."""

import json
import math
import subprocess
import sys

import pytest

from eongp import cli, gp


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def test_count_formulations_table(tmp_path):
    assert run_cli("count-formulations", "--q", 46, "--l", 52, "--v", 11,
                   "--out", tmp_path) == 0
    config, rows = cli.read_artifact_csv(tmp_path / "sizes.csv")
    assert config["command"] == "count-formulations"
    table = {r["kind"]: (int(r["variables"]), int(r["constraints"]))
             for r in rows}
    assert table["gpsa1"] == (2301, 7315)
    assert table["gpsa5"] == (2347, 7361)
    assert table["minlp"] == (185, 2531)
    assert table["spr"] == (46 * 52, 2 * 46 + 46 * 11)
    assert set(table) == {"spr", "scpr", "scprr", "minlp",
                          "gpsa1", "gpsa2", "gpsa3", "gpsa4", "gpsa5", "gpsa6"}


def test_characterize_approx_curves(tmp_path):
    assert run_cli("characterize-approx", "--out", tmp_path) == 0
    _, rows = cli.read_artifact_csv(tmp_path / "curves.csv")
    by_series = {}
    for r in rows:
        by_series.setdefault(r["series"], []).append(r)
    assert len(by_series["kernel_order1"]) == 120
    assert len(by_series["kernel_order3"]) == 120
    for fit in ("power_law", "binomial_int", "binomial_frac"):
        assert len(by_series[f"fit_{fit}"]) == 6
    # the linear kernel undershoots by about 9 percent at x = 1
    at_one = [r for r in by_series["kernel_order1"] if float(r["x"]) == 1.0]
    assert abs(float(at_one[0]["rel_err"]) + 0.090) < 0.002


def test_run_artifacts(tmp_path):
    assert run_cli("run", "--requests", 4, "--seed", 3, "--gpsa", 2,
                   "--rto", "scpr", "--out", tmp_path) == 0
    config, rows = cli.read_artifact_csv(tmp_path / "allocation.csv")
    assert len(rows) == 4
    assert config["scenario"]["formulation"] == 2
    assert config["scenario"]["rto_method"] == "scpr"
    assert config["scenario"]["num_requests"] == 4
    for r in rows:
        assert float(r["power_w"]) > 0
        assert float(r["efficiency"]) in (2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
        assert r["path"].startswith(r["source"])
        assert r["path"].endswith(r["dest"])

    report = json.loads((tmp_path / "validation.json").read_text())
    assert report["report"]["admissible"] is True
    assert len(report["report"]["slack"]) == 4
    assert report["config"] == config

    trace = json.loads((tmp_path / "trace.json").read_text())
    assert 1 <= trace["trace"]["iterations"] <= 4
    assert trace["trace"]["iterations"] == len(trace["trace"]["rounds"])
    assert trace["runtime_s"] > 0
    fixed = [f["request"] for r in trace["trace"]["rounds"]
             for f in r["fixes"]]
    assert sorted(fixed) == [0, 1, 2, 3]


def test_run_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("run", "--requests", 3, "--seed", 7,
                       "--out", out) == 0
    assert (a / "allocation.csv").read_bytes() == \
        (b / "allocation.csv").read_bytes()
    assert (a / "validation.json").read_bytes() == \
        (b / "validation.json").read_bytes()


def test_config_layering(tmp_path):
    constants = tmp_path / "constants.json"
    constants.write_text(json.dumps(
        {"physics": {"guard_ghz": 15.0}, "scenario": {"seed": 5}}))
    override = tmp_path / "override.json"
    override.write_text(json.dumps({"scenario": {"seed": 9}}))
    assert run_cli("run", "--requests", 3, "--constants", constants,
                   "--config", override, "--out", tmp_path) == 0
    config, _ = cli.read_artifact_csv(tmp_path / "allocation.csv")
    assert config["physics"]["guard_ghz"] == 15.0
    assert config["scenario"]["seed"] == 9   # second file wins

    # an explicit flag outranks both files
    assert run_cli("run", "--requests", 3, "--constants", constants,
                   "--config", override, "--seed", 2,
                   "--out", tmp_path) == 0
    config, _ = cli.read_artifact_csv(tmp_path / "allocation.csv")
    assert config["scenario"]["seed"] == 2

    assert run_cli("run", "--requests", 3, "--clamp-c", "off",
                   "--out", tmp_path) == 0
    header = (tmp_path / "allocation.csv").read_text().splitlines()[0]
    assert '"clamp_efficiency":false' in header


def test_sweep_margin_rows(tmp_path):
    assert run_cli("sweep-margin", "--requests", 3, "--seed", 1,
                   "--margins", "1,2", "--out", tmp_path) == 0
    _, rows = cli.read_artifact_csv(tmp_path / "curves.csv")
    assert [float(r["margin"]) for r in rows] == [1.0, 2.0]
    payload = json.loads((tmp_path / "validation.json").read_text())
    assert len(payload["reports"]) == 2


def test_compare_rto_rows(tmp_path):
    assert run_cli("compare-rto", "--requests", 3, "--seed", 1,
                   "--out", tmp_path) == 0
    _, rows = cli.read_artifact_csv(tmp_path / "curves.csv")
    assert [r["method"] for r in rows] == ["spr", "scpr", "scprr"]
    for r in rows:
        assert r["admissible"] == "1"


def test_compare_gpsa_rows(tmp_path):
    assert run_cli("compare-gpsa", "--requests", 2, "--seed", 1,
                   "--out", tmp_path) == 0
    _, rows = cli.read_artifact_csv(tmp_path / "curves.csv")
    assert [int(r["formulation"]) for r in rows] == [1, 2, 3, 4, 5, 6]
    payload = json.loads((tmp_path / "validation.json").read_text())
    # the keys that readers of the artifact, the benchmark among them, use
    runs = payload["runs"]
    assert [run["formulation"] for run in runs] == [1, 2, 3, 4, 5, 6]
    for run in runs:
        assert run["runtime_s"] > 0
        assert 1 <= run["rounding_rounds"] <= 2
        assert run["report"]["admissible"] is True


def test_exit_codes(tmp_path):
    assert run_cli("run", "--topology", "missing.txt",
                   "--out", tmp_path) == 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": {"no_such_key": 1}}))
    assert run_cli("run", "--config", bad, "--out", tmp_path) == 4
    assert run_cli("sweep-margin", "--requests", 2,
                   "--margins", "1,zebra", "--out", tmp_path) == 4
    with pytest.raises(SystemExit) as err:
        run_cli("no-such-command")
    assert err.value.code == 2


@pytest.mark.parametrize("flag", [-1, 0])
def test_bad_request_count_flag_exits_4(tmp_path, flag):
    assert run_cli("run", "--requests", flag, "--out", tmp_path) == 4


@pytest.mark.parametrize("value", ["x", 2.7, -3, 0, True, [5]])
def test_bad_request_count_in_config_exits_4(tmp_path, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scenario": {"num_requests": value}}))
    assert run_cli("run", "--config", config, "--out", tmp_path) == 4


def test_integral_request_count_in_config_is_accepted(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scenario": {"num_requests": 3.0}}))
    assert run_cli("run", "--config", config, "--out", tmp_path) == 0
    written, rows = cli.read_artifact_csv(tmp_path / "allocation.csv")
    assert written["scenario"]["num_requests"] == 3 and len(rows) == 3


@pytest.fixture
def no_solve(monkeypatch):
    # a rejected input must fail before the first solve
    def refuse(*args, **kwargs):
        raise AssertionError("a solve started")
    monkeypatch.setattr(gp, "solve", refuse)


@pytest.mark.parametrize("key, value", [
    ("seed", "x"), ("seed", 2.5), ("seed", True), ("seed", -1),
    ("max_iterations", -5), ("max_iterations", 0), ("max_iterations", 2.5),
    ("gap_tol", -1), ("gap_tol", 0), ("gap_tol", "x"), ("gap_tol", math.inf),
    ("feas_tol", -1), ("feas_tol", math.nan),
    ("weight_power", math.inf), ("weight_spectrum", math.nan),
    ("weight_margin", True), ("min_margin", math.inf), ("formulation", True),
    ("traffic_scale_gbps", math.inf), ("clamp_efficiency", "off"),
    ("clamp_efficiency", 0), ("clamp_efficiency", None),
])
def test_bad_scenario_value_in_config_exits_4(tmp_path, no_solve, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scenario": {key: value}}))
    assert run_cli("run", "--requests", 3, "--config", config,
                   "--out", tmp_path) == 4


@pytest.mark.parametrize("key, value", [
    ("span_km", math.inf), ("band_thz", math.inf), ("guard_ghz", math.nan),
    ("capacity_gbps", True),
])
def test_bad_physics_value_in_config_exits_4(tmp_path, no_solve, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"physics": {key: value}}))
    assert run_cli("run", "--requests", 3, "--config", config,
                   "--out", tmp_path) == 4


@pytest.mark.parametrize("table", [
    [[2, math.nan]], [[math.inf, 3.52]], [[True, 3.52]], [[2, "x"]],
    [[2]], [[2, 3.52, 1]], "ab", 5,
])
def test_bad_modulations_in_config_exit_4(tmp_path, no_solve, table):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"modulations": table}))
    assert run_cli("run", "--requests", 3, "--config", config,
                   "--out", tmp_path) == 4


def test_tiny_round_step_exits_4(tmp_path, no_solve):
    # a step below 1e-12 would leave the rounding window at zero forever
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"physics": {"round_step": 1e-300}}))
    assert run_cli("run", "--requests", 3, "--config", config,
                   "--out", tmp_path) == 4


@pytest.mark.parametrize("argv", [
    ["run", "--margin", "inf"], ["run", "--margin", "nan"],
    ["run", "--scale", "inf"], ["sweep-margin", "--margins", "1,inf"],
])
def test_non_finite_flag_exits_4(tmp_path, no_solve, argv):
    assert run_cli(*argv, "--requests", 3, "--out", tmp_path) == 4


def test_smallest_round_step_completes(tmp_path):
    # the rounding window is solved for, so a step of 1e-12 costs no more
    # than the default step
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"physics": {"round_step": 1e-12}}))
    assert run_cli("run", "--requests", 3, "--config", config,
                   "--out", tmp_path) == 0
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["trace"]["iterations"] >= 1


def test_negative_formulation_size_exits_4(tmp_path):
    assert run_cli("count-formulations", "--q", -3, "--out", tmp_path) == 4
    assert not (tmp_path / "sizes.csv").exists()


def test_infeasible_exit_code(tmp_path):
    tiny = tmp_path / "tiny.json"
    # guard band alone exceeds the whole usable spectrum, so any pair of
    # requests sharing a link cannot be separated
    tiny.write_text(json.dumps({"physics": {"band_thz": 0.02}}))
    assert run_cli("run", "--requests", 3, "--seed", 0,
                   "--constants", tiny, "--out", tmp_path) == 5


def test_solver_breakdown_exit_code(tmp_path):
    # one Newton iteration cannot converge: the solve stops at
    # max-iterations, a solver breakdown rather than an infeasible instance
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scenario": {"max_iterations": 1}}))
    assert run_cli("run", "--requests", 3, "--config", config,
                   "--out", tmp_path) == 6


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "eongp.cli", "count-formulations",
         "--q", "1", "--l", "4", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    _, rows = cli.read_artifact_csv(tmp_path / "sizes.csv")
    table = {r["kind"]: (int(r["variables"]), int(r["constraints"]))
             for r in rows}
    assert table["gpsa1"] == (6, 16)
