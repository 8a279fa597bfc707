"""Command-line interface: artifacts, config layering, exit codes."""

import argparse
import json
import math
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from eongp import cli, gp
from eongp.model import PhysicsConstants


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


PIPELINE_FLAGS = {"--topology", "--traffic", "--config", "--rto", "--gpsa",
                  "--margin", "--scale", "--seed", "--requests", "--out"}
# the flags each command reads
FLAGS = {
    "run": PIPELINE_FLAGS,
    "sweep-margin": PIPELINE_FLAGS - {"--margin"} | {"--margins"},
    "compare-rto": PIPELINE_FLAGS - {"--rto"},
    "compare-gpsa": PIPELINE_FLAGS - {"--gpsa"},
    "characterize-approx": {"--config", "--out"},
    "count-formulations": {"--q", "--l", "--v", "--out"},
}


def test_each_command_takes_the_flags_it_reads():
    [commands] = [action.choices for action in cli.build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    assert {name: {flag for action in parser._actions
                   for flag in action.option_strings} - {"-h", "--help"}
            for name, parser in commands.items()} == FLAGS
    assert sum(map(len, FLAGS.values())) == 44


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in FLAGS.items()
    for flag in sorted(PIPELINE_FLAGS - flags)])
def test_flag_a_command_does_not_read_exits_2(tmp_path, command, flag):
    # sweep-margin's --margin must not pass as an abbreviation of --margins
    required = ["--q", 1] if command == "count-formulations" else []
    with pytest.raises(SystemExit) as err:
        run_cli(command, *required, flag, 2, "--out", tmp_path)
    assert err.value.code == 2


def test_count_formulations_table(tmp_path):
    assert run_cli("count-formulations", "--q", 46, "--l", 52, "--v", 11,
                   "--out", tmp_path) == 0
    config, rows = cli.read_artifact_csv(tmp_path / "sizes.csv")
    # the header records the sizes, the only input the command reads
    assert config == {"command": "count-formulations",
                      "q": 46, "l": 52, "v": 11}
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
    config, rows = cli.read_artifact_csv(tmp_path / "curves.csv")
    # it opens no topology or traffic file and reads the table alone
    assert set(config) == {"command", "modulations"}
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


def test_characterize_approx_ignores_physics_and_scenario(tmp_path):
    # neither section reaches a row, so neither may change the file
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"physics": {"guard_ghz": 15.0},
                                  "scenario": {"seed": 4}}))
    assert run_cli("characterize-approx", "--out", tmp_path / "default") == 0
    assert run_cli("characterize-approx", "--config", config,
                   "--out", tmp_path / "configured") == 0
    assert (tmp_path / "configured" / "curves.csv").read_bytes() == \
        (tmp_path / "default" / "curves.csv").read_bytes()


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
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(
        {"physics": {"guard_ghz": 15.0}, "scenario": {"seed": 9}}))
    assert run_cli("run", "--requests", 3, "--config", config_file,
                   "--out", tmp_path) == 0
    config, _ = cli.read_artifact_csv(tmp_path / "allocation.csv")
    assert config["physics"]["guard_ghz"] == 15.0   # the file beats defaults
    assert config["scenario"]["seed"] == 9

    # an explicit flag outranks the file
    assert run_cli("run", "--requests", 3, "--config", config_file,
                   "--seed", 2, "--out", tmp_path) == 0
    config, _ = cli.read_artifact_csv(tmp_path / "allocation.csv")
    assert config["scenario"]["seed"] == 2

    assert run_cli("run", "--requests", 3, "--margin", 2,
                   "--out", tmp_path) == 0
    header = (tmp_path / "allocation.csv").read_text().splitlines()[0]
    assert '"min_margin":2.0' in header

    # --config is the only config-file layer
    with pytest.raises(SystemExit) as err:
        run_cli("run", "--constants", config_file, "--out", tmp_path)
    assert err.value.code == 2


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
    ("weight_power", math.inf), ("weight_spectrum", math.nan),
    ("weight_margin", True), ("min_margin", math.inf), ("formulation", True),
    ("traffic_scale_gbps", math.inf),
    # former settings, now constants: unknown keys whatever the value
    ("max_iterations", 200), ("max_iterations", -5), ("max_iterations", 0),
    ("max_iterations", 2.5), ("gap_tol", 1e-8), ("gap_tol", -1),
    ("gap_tol", 0), ("gap_tol", "x"), ("gap_tol", math.inf),
    ("feas_tol", 1e-8), ("feas_tol", -1), ("feas_tol", math.nan),
    ("clamp_efficiency", True), ("clamp_efficiency", "off"),
    ("clamp_efficiency", 0), ("clamp_efficiency", None),
    # beyond float range, where math.isfinite raises OverflowError
    pytest.param("seed", 10 ** 400, id="seed-10**400"),
])
def test_bad_scenario_value_in_config_exits_4(tmp_path, no_solve, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scenario": {key: value}}))
    assert run_cli("run", "--requests", 3, "--config", config,
                   "--out", tmp_path) == 4


@pytest.mark.parametrize("key, value", [
    ("span_km", math.inf), ("band_thz", math.inf), ("guard_ghz", math.nan),
    ("capacity_gbps", True),
    pytest.param("span_km", 10 ** 400, id="span_km-10**400"),
    # finite values whose noise coefficients or SI band values are not
    # finite and positive
    ("span_km", 1e5), ("nonlinear_per_w_km", 1e200),
    ("nonlinear_per_w_km", 1e-200), ("dispersion_fs2_m", 1e-300),
    ("attenuation_db_km", 1e-310), ("band_thz", 1e300), ("guard_ghz", 1e300),
    # a finite guard band that stacks the warm start past float range
    ("guard_ghz", 5e298),
    # a former setting, now a constant: an unknown key
    ("round_step", 0.1),
])
def test_bad_physics_value_in_config_exits_4(tmp_path, no_solve, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"physics": {key: value}}))
    assert run_cli("run", "--requests", 3, "--config", config,
                   "--out", tmp_path) == 4


@pytest.mark.parametrize("entry, message", [
    ("nan", "traffic.txt: traffic entries must be finite"),
    ("1e400", "traffic.txt: traffic entries must be finite"),
    # finite, but its rate in b/s overflows
    ("1e300", "demand 1->2 rate must be positive and finite"),
], ids=["nan", "1e400", "1e300"])
def test_non_finite_traffic_exits_4(tmp_path, data_dir, no_solve, capsys,
                                    entry, message):
    rows = [line.split() for line in
            (data_dir / "cost239_traffic.txt").read_text().splitlines()
            if not line.startswith("#")]
    rows[0][1] = entry
    traffic = tmp_path / "traffic.txt"
    traffic.write_text("\n".join(" ".join(row) for row in rows) + "\n")
    assert run_cli("run", "--requests", 3, "--traffic", traffic,
                   "--out", tmp_path) == 4
    assert message in capsys.readouterr().err


def test_infinite_link_length_exits_4(tmp_path, data_dir, no_solve, capsys):
    text = (data_dir / "cost239_topology.txt").read_text()
    topology = tmp_path / "topology.txt"
    topology.write_text(text.replace("link 1 2 410", "link 1 2 inf"))
    assert run_cli("run", "--requests", 3, "--topology", topology,
                   "--out", tmp_path) == 4
    assert "link 0 has nonpositive or non-finite length inf" \
        in capsys.readouterr().err


@pytest.mark.parametrize("table", [
    [[2, math.nan]], [[math.inf, 3.52]], [[True, 3.52]], [[2, "x"]],
    [[2]], [[2, 3.52, 1]], "ab", 5,
    pytest.param([[2, 10 ** 400]], id="osnr-10**400"),
])
def test_bad_modulations_in_config_exit_4(tmp_path, no_solve, table):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"modulations": table}))
    assert run_cli("run", "--requests", 3, "--config", config,
                   "--out", tmp_path) == 4


def write_chain(directory, length_km) -> list:
    """A three-node chain whose first link is `length_km` long, carrying a
    ring of traffic; the `run` arguments that read it."""
    topology, traffic = directory / "topology.txt", directory / "traffic.txt"
    topology.write_text(f"node a\nnode b\nnode c\nlink a b {length_km!r}\n"
                        "link b c 1\n")
    traffic.write_text("0 1 0\n0 0 1\n1 0 0\n")
    return ["--topology", topology, "--traffic", traffic]


def test_span_counts_beyond_int64_exit_4(tmp_path, no_solve, capsys):
    assert run_cli("run", "--requests", 2, *write_chain(tmp_path, 1e308),
                   "--out", tmp_path) == 4
    assert "int64" in capsys.readouterr().err


# up to three physics fields and the transponder capacity, each log-uniform
# over float range
_PHYSICS = st.dictionaries(
    st.sampled_from([f.name for f in fields(PhysicsConstants)
                     if f.name != "capacity_gbps"]),
    st.floats(-300, 300).map(lambda e: 10.0 ** e), max_size=3)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(physics=_PHYSICS,
       capacity_gbps=st.floats(-300, 300).map(lambda e: 10.0 ** e),
       length_km=st.floats(-3, 308).map(lambda e: 10.0 ** e))
def test_generated_physics_never_escapes(tmp_path_factory, physics,
                                         capacity_gbps, length_km):
    # every input ends in an exit code: done, bad input, infeasible, solver
    out = tmp_path_factory.mktemp("generated")
    config = out / "config.json"
    config.write_text(json.dumps(
        {"physics": {**physics, "capacity_gbps": capacity_gbps}}))
    assert run_cli("run", "--requests", 2, *write_chain(out, length_km),
                   "--config", config, "--out", out) in (0, 4, 5, 6)


# what a link length or traffic entry may hold beyond plain values: NaN,
# the infinities, +-1e300, zero, negatives and integers beyond float range
_WILD = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300,
                     10 ** 400, 0, -1]),
    st.floats(), st.integers(-10 ** 30, 10 ** 30))


@st.composite
def networks(draw):
    """Topology and traffic file texts on at most 4 nodes: a chain plus a
    few links, plain lengths and entries, of which up to two are wild."""
    n = draw(st.integers(1, 4))
    links = [(k, k + 1) for k in range(n - 1)]
    if n > 1:
        links += [(a, (a + draw(st.integers(1, n - 1))) % n)
                  for a in draw(st.lists(st.integers(0, n - 1), max_size=3))]
    lengths = [draw(st.integers(1, 2000)) for _ in links]
    traffic = [[0 if i == j else draw(st.integers(0, 30)) for j in range(n)]
               for i in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        value = draw(_WILD)
        if links and draw(st.booleans()):
            lengths[draw(st.integers(0, len(links) - 1))] = value
        else:
            traffic[draw(st.integers(0, n - 1))][
                draw(st.integers(0, n - 1))] = value
    topology = "".join(f"node n{k}\n" for k in range(n)) + "".join(
        f"link n{a} n{b} {length!r}{' oneway' * draw(st.booleans())}\n"
        for (a, b), length in zip(links, lengths))
    return topology, "".join(" ".join(map(repr, row)) + "\n"
                             for row in traffic)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(network=networks(), requests=st.integers(1, 3))
def test_generated_topology_and_traffic_never_escape(tmp_path_factory,
                                                     network, requests):
    out = tmp_path_factory.mktemp("generated")
    topology, traffic = out / "topology.txt", out / "traffic.txt"
    topology.write_text(network[0])
    traffic.write_text(network[1])
    assert run_cli("run", "--requests", requests, "--topology", topology,
                   "--traffic", traffic, "--out", out) in (0, 3, 4, 5, 6)


def test_tiny_capacity_draws_without_building_every_request(tmp_path):
    # each 10 Gb/s demand splits into about 1.1e17 requests, of which two
    # are drawn and built
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"physics": {"capacity_gbps": 8.7e-17}}))
    assert run_cli("run", "--requests", 2, *write_chain(tmp_path, 100.0),
                   "--config", config, "--out", tmp_path) in (0, 4, 5, 6)


def test_request_count_beyond_int64_exits_4(tmp_path, no_solve, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"physics": {"capacity_gbps": 3.1e-130}}))
    assert run_cli("run", "--requests", 2, *write_chain(tmp_path, 100.0),
                   "--config", config, "--out", tmp_path) == 4
    assert "int64" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--margin", "inf"], ["run", "--margin", "nan"],
    ["run", "--scale", "inf"], ["sweep-margin", "--margins", "1,inf"],
])
def test_non_finite_flag_exits_4(tmp_path, no_solve, argv):
    assert run_cli(*argv, "--requests", 3, "--out", tmp_path) == 4


def test_goal_without_terms_exits_4(tmp_path, capsys):
    # weight_spacing alone is positive, but one request shares no span with
    # another, so the goal has no term
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scenario": {
        "weight_spectrum": 0, "weight_power": 0, "weight_margin": 0}}))
    assert run_cli("run", "--requests", 1, "--config", config,
                   "--out", tmp_path) == 4
    assert ("the goal has no term: every goal weight is zero, or "
            "weight_spacing is the only positive one and no two requests "
            "share a span") in capsys.readouterr().err


def test_negative_formulation_size_exits_4(tmp_path):
    assert run_cli("count-formulations", "--q", -3, "--out", tmp_path) == 4
    assert not (tmp_path / "sizes.csv").exists()


def test_infeasible_exit_code(tmp_path):
    tiny = tmp_path / "tiny.json"
    # in a 20 GHz band the relaxation is solved, but round 2 pins request
    # 1 from 2.5 to the table's 2.0 bit/s/Hz and that pinned program is
    # infeasible: exit 5 reports the failed solve, not an instance proven
    # infeasible
    tiny.write_text(json.dumps({"physics": {"band_thz": 0.02}}))
    assert run_cli("run", "--requests", 3, "--seed", 0,
                   "--config", tiny, "--out", tmp_path) == 5
    # the relaxation is solved; the abort leaves the trace up to round 2
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["config"]["physics"]["band_thz"] == 0.02
    assert trace["error"] == {
        "stage": "round 2", "status": "infeasible",
        "message": "assignment solve failed (infeasible) at round 2"}
    assert trace["trace"]["iterations"] == 2
    assert trace["trace"]["final_objective"] is None
    assert not (tmp_path / "allocation.csv").exists()


def test_infeasible_relaxation_exit_code(tmp_path):
    # in a 5 GHz band the relaxation itself has no strictly feasible point:
    # phase 1 converges short of its margin, and no round is reached
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps({"physics": {"band_thz": 0.005}}))
    assert run_cli("run", "--requests", 3, "--config", tiny,
                   "--out", tmp_path) == 5
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["error"]["stage"] == "relaxation"
    assert trace["error"]["status"] == "infeasible"
    assert trace["trace"] is None


@pytest.mark.parametrize("formulation", [3, 4])
def test_infeasible_late_round_exit_code(tmp_path, formulation):
    # Cost239, 36 requests, seed 2, weight_spectrum 1e-9: round 6 pins a
    # program with no strictly feasible point, and phase 1 says so
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scenario": {"weight_spectrum": 1e-9}}))
    assert run_cli("run", "--requests", 36, "--seed", 2, "--gpsa",
                   formulation, "--config", config, "--out", tmp_path) == 5
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["error"]["stage"] == "round 6"
    assert trace["error"]["status"] == "infeasible"


def test_one_entry_modulation_table_pins_without_rounding(tmp_path):
    # one table value leaves nothing to relax: every efficiency is pinned
    # before the first solve, and no rounding round runs
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"modulations": [[4.0, 10.0]]}))
    assert run_cli("run", "--requests", 3, "--config", config,
                   "--out", tmp_path) == 0
    _, rows = cli.read_artifact_csv(tmp_path / "allocation.csv")
    assert len(rows) == 3
    assert {float(row["efficiency"]) for row in rows} == {4.0}
    trace = json.loads((tmp_path / "trace.json").read_text())["trace"]
    assert trace["rounds"] == []
    assert trace["final_objective"] == trace["relaxed_objective"]


def test_solver_breakdown_exit_code(tmp_path, monkeypatch):
    # one Newton iteration cannot converge: the solve stops at
    # max-iterations, a solver breakdown rather than an infeasible instance
    monkeypatch.setattr(gp, "_MAX_ITERATIONS", 1)
    assert run_cli("run", "--requests", 3, "--out", tmp_path) == 6
    # no round was reached, so the trace is null
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["error"]["stage"] == "relaxation"
    assert trace["error"]["status"] == "max-iterations"
    assert trace["trace"] is None


def test_bundled_files_are_package_data():
    # an installed package holds only the files its package-data globs match
    tomllib = pytest.importorskip("tomllib")
    package = Path(cli.__file__).parent
    config = tomllib.loads(
        (package.parents[1] / "pyproject.toml").read_text())
    globs = config["tool"]["setuptools"]["package-data"]["eongp"]
    shipped = {path for glob in globs for path in package.glob(glob)}
    for name in {*cli.BUNDLED_TOPOLOGIES.values(),
                 *cli.BUNDLED_TRAFFIC.values()}:
        assert package / "data" / name in shipped, name


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
