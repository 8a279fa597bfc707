"""Command-line runner: load inputs, execute scenarios, write artifacts.

Commands
    run                  route and assign one scenario
                         (allocation.csv, validation.json, trace.json)
    sweep-margin         one pipeline run per margin floor (curves.csv)
    compare-rto          one run per routing method at the --gpsa formulation
    compare-gpsa         one run per assignment formulation 1..6
    characterize-approx  approximation error curves (curves.csv)
    count-formulations   closed-form problem sizes (sizes.csv)

Each command takes only the flags it reads (`build_parser`): run takes all
ten; sweep-margin, compare-rto and compare-gpsa all but the one they vary;
characterize-approx --config and --out; count-formulations --q --l --v --out.

Configuration layers, later wins: defaults, the --config file, flags.
The solver tolerances (1e-8 in both phases, and phase 1's 1e-6 margin),
its iteration cap (200), phase 1's starting slack (0.1 above the largest
constraint value), the first-fit warm start of the relaxation, the
rounding step (0.1 bit/s/Hz) and the clamp of relaxed efficiencies to the
table span are fixed, not configured.

Every CSV artifact opens with a '# config: {...}' comment carrying what the
command read, so the file alone identifies the run that produced it.
Numbers are written with fixed formatting and the pipeline is seeded, so
identical inputs at a fixed BLAS thread count (LAPACK rounds by thread
count) give byte-identical CSV files; wall-clock times appear only in the
JSON artifacts.  The four pipeline commands run through `validate.compare`,
one scenario per margin, method or formulation (one for `run`); JSON
artifacts hold its records as they are, non-finite numbers null.  A run
that aborts leaves its stage, status and partial trace in trace.json.

Exit codes: 0 success, 2 usage, 3 I/O, 4 input parse or validation,
5 a solve ended infeasible (the relaxation, or the program pinned in a
rounding round; this does not prove the instance infeasible), 6 solver
breakdown.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import statistics
import sys
from dataclasses import asdict, fields, is_dataclass, replace
from importlib import resources
from pathlib import Path

from . import physics, psa, validate
from .gp import STATUS_INFEASIBLE
from .heuristic import HeuristicError
from .model import (
    InstanceError, ModulationTable, PhysicsConstants, RTO_METHODS,
    ScenarioConfig, load_config, load_instance,
)

EXIT_IO = 3
EXIT_PARSE = 4
EXIT_INFEASIBLE = 5
EXIT_SOLVER = 6

# bundled data sets addressable by name instead of path
BUNDLED_TOPOLOGIES = {"cost239": "cost239_topology.txt"}
BUNDLED_TRAFFIC = {"cost239": "cost239_traffic.txt",
                   "table2": "cost239_traffic.txt"}


def _resolve_input(value: str, registry: dict[str, str], what: str) -> Path:
    path = Path(value)
    if path.exists():
        return path
    if value in registry:
        return Path(str(resources.files("eongp") / "data" / registry[value]))
    known = ", ".join(sorted(registry))
    raise FileNotFoundError(
        f"{what} {value!r} is neither a file nor a bundled name ({known})")


def _settings(physics: PhysicsConstants, scenario: ScenarioConfig,
              modulations: ModulationTable) -> dict:
    """The header entries of a configuration."""
    return {"physics": asdict(physics), "scenario": asdict(scenario),
            "modulations": [[c, o] for c, o in modulations.entries]}


# --------------------------------------------------------------------------
# artifact writers
# --------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


class _Output:
    """A command's output directory, created on construction, and the
    '# config:' header, the resolved configuration, of its artifacts."""

    def __init__(self, out: str, header: dict):
        self.dir = Path(out)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.header = header

    def csv(self, name: str, columns, rows) -> None:
        header = json.dumps(self.header, sort_keys=True, separators=(",", ":"))
        with open(self.dir / name, "w", newline="") as fh:
            fh.write(f"# config: {header}\n")
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows([_fmt(v) for v in row] for row in rows)

    def json(self, name: str, payload: dict) -> None:
        """Write `payload`, records included, and the header."""
        with open(self.dir / name, "w") as fh:
            json.dump(_plain({"config": self.header, **payload}), fh,
                      indent=2, sort_keys=True)
            fh.write("\n")


def _plain(value):
    """`value` as JSON data: a dataclass becomes an object of its fields and
    properties, a tuple a list, and a non-finite float null."""
    if is_dataclass(value):
        value = {name: getattr(value, name) for name in
                 [f.name for f in fields(value)] + [
                     name for name, attr in vars(type(value)).items()
                     if isinstance(attr, property)]}
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def read_artifact_csv(path):
    """Read a CSV artifact back: (embedded config, rows as dicts)."""
    config = None
    with open(path, newline="") as fh:
        head = []
        for line in fh:
            if line.startswith("# config: "):
                config = json.loads(line[len("# config: "):])
            elif not line.startswith("#"):
                head.append(line)
                break
        rows = list(csv.DictReader(head + list(fh)))
    return config, rows


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

# the scenario field each pipeline flag sets
_SCENARIO_FLAGS = {"rto": "rto_method", "gpsa": "formulation",
                   "margin": "min_margin", "scale": "traffic_scale_gbps",
                   "seed": "seed", "requests": "num_requests"}


def _pipeline(args, field: str | None = None, values=()):
    """Load a pipeline command's instance (the configuration, the scenario
    flags the command takes, then the topology and traffic it names) and
    run its scenario, or one copy per value of the scenario `field`.

    Returns the output, the instance and the `validate.compare` records; a
    run that aborts leaves its stage, status and partial trace (null if the
    relaxation failed) in trace.json.
    """
    physics, scenario, modulations = load_config(args.config)
    scenario = replace(scenario, **{
        name: getattr(args, flag) for flag, name in _SCENARIO_FLAGS.items()
        if getattr(args, flag, None) is not None})
    topology = _resolve_input(args.topology, BUNDLED_TOPOLOGIES, "topology")
    traffic = _resolve_input(args.traffic, BUNDLED_TRAFFIC, "traffic")
    out = _Output(args.out, {
        "command": args.command,
        "inputs": {"topology": str(topology), "traffic": str(traffic)},
        **_settings(physics, scenario, modulations)})
    instance = load_instance(topology, traffic,
                             (physics, scenario, modulations))
    scenarios = [replace(scenario, **{field: value}) for value in values] \
        if field else [scenario]
    try:
        return out, instance, validate.compare(instance, scenarios)
    except HeuristicError as exc:
        out.json("trace.json", {"error": {
            "stage": exc.stage, "status": exc.status, "message": str(exc)},
            "trace": exc.trace})
        raise


def _path_names(routing, topology, q: int) -> str:
    links = [topology.links[l] for l in routing.paths[q]]
    return "-".join([links[0].begin] + [l.end for l in links])


def _cmd_run(args) -> None:
    out, instance, [run] = _pipeline(args)
    routing, allocation = run.routing, run.allocation
    rows = [(q, req.source, req.dest, req.rate_bps,
             _path_names(routing, instance.topology, q),
             routing.span_counts[q], allocation.power_w[q],
             allocation.center_hz[q], req.rate_bps / allocation.efficiency[q],
             allocation.efficiency[q], allocation.margin[q])
            for q, req in enumerate(routing.requests)]
    out.csv("allocation.csv",
            ("request", "source", "dest", "rate_bps", "path", "spans",
             "power_w", "center_hz", "bandwidth_hz", "efficiency", "margin"),
            rows)
    out.json("validation.json",
             {"objective": allocation.objective, "report": run.report})
    out.json("trace.json", {"runtime_s": run.runtime_s, "trace": run.trace})


def _cmd_sweep_margin(args) -> None:
    margins = _parse_margins(args.margins)
    out, _, runs = _pipeline(args, "min_margin", margins)
    rows = [(run.scenario.min_margin, run.report.mean_rate_per_resource,
             run.report.total_noise_w, run.report.total_power_w,
             run.report.spectrum_edge_hz, run.allocation.objective)
            for run in runs]
    out.csv("curves.csv",
            ("margin", "mean_rate_per_resource", "total_noise_w",
             "total_power_w", "spectrum_edge_hz", "objective"), rows)
    out.json("validation.json", {
        "margins": margins, "reports": [run.report for run in runs]})


def _cmd_compare_rto(args) -> None:
    out, _, runs = _pipeline(args, "rto_method", RTO_METHODS)
    rows = [(run.scenario.rto_method, run.report.total_power_w,
             run.report.total_noise_w, run.report.spectrum_edge_hz,
             run.allocation.objective, run.report.admissible)
            for run in runs]
    out.csv("curves.csv",
            ("method", "total_power_w", "total_noise_w", "spectrum_edge_hz",
             "objective", "admissible"), rows)
    out.json("validation.json", {
        "methods": RTO_METHODS, "reports": [run.report for run in runs]})


def _cmd_compare_gpsa(args) -> None:
    out, instance, runs = _pipeline(args, "formulation",
                                    sorted(psa.FORMULATION_FIT))
    rows = []
    for run in runs:
        formulation = run.scenario.formulation
        n_vars, n_cons = psa.formulation_size(
            f"gpsa{formulation}", len(run.routing.requests),
            len(instance.topology.links))
        rows.append((formulation, psa.FORMULATION_FIT[formulation],
                     psa.FORMULATION_ORDER[formulation], n_vars, n_cons,
                     run.allocation.objective, run.report.total_power_w,
                     run.report.total_noise_w, run.report.spectrum_edge_hz,
                     statistics.fmean(run.report.model_error)))
    out.csv("curves.csv",
            ("formulation", "fit", "kernel_order", "variables",
             "constraints", "objective", "total_power_w", "total_noise_w",
             "spectrum_edge_hz", "mean_model_error"), rows)
    out.json("validation.json", {"runs": [
        {"formulation": run.scenario.formulation, "runtime_s": run.runtime_s,
         "rounding_rounds": run.trace.iterations, "report": run.report}
        for run in runs]})


def _cmd_characterize_approx(args) -> None:
    # the rows read the modulation table alone, and so does the header
    config = load_config(args.config)
    out = _Output(args.out, {"command": args.command,
                             "modulations": _settings(*config)["modulations"]})
    grid = physics.log_kernel_error_grid()
    fits = physics.osnr_fit_error_table(config[2])
    rows = [(f"kernel_order{k}", *row) for k in (1, 3) for row in zip(
        grid["x"], grid["exact"], grid[f"approx{k}"], grid[f"rel_err{k}"])]
    rows += [(f"fit_{fit}", *row) for fit in physics.OSNR_FITS for row in zip(
        fits["eff"], fits["table"], fits[fit], fits[f"rel_err_{fit}"])]
    out.csv("curves.csv", ("series", "x", "exact", "approx", "rel_err"), rows)


def _cmd_count_formulations(args) -> None:
    out = _Output(args.out, {"command": args.command,
                             "q": args.q, "l": args.l, "v": args.v})
    rows = [(kind, *psa.formulation_size(kind, args.q, args.l, args.v))
            for kind in psa.PROBLEM_KINDS]
    out.csv("sizes.csv", ("kind", "variables", "constraints"), rows)


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

# the flags of the pipeline commands, each with its argparse options
_FLAGS = {
    "--topology": dict(default="cost239",
                       help="topology file, or bundled name (cost239)"),
    "--traffic": dict(default="table2",
                      help="traffic matrix file, or bundled name (table2)"),
    "--config": dict(metavar="FILE",
                     help="JSON file with physics/scenario/modulations "
                          "sections, layered over the defaults"),
    "--rto": dict(choices=RTO_METHODS, help="routing and ordering method"),
    "--gpsa": dict(type=int, choices=sorted(psa.FORMULATION_FIT),
                   help="assignment formulation"),
    "--margin": dict(type=float, help="minimum OSNR margin factor"),
    "--scale": dict(type=float,
                    help="Gb/s carried by one traffic-matrix unit"),
    "--seed": dict(type=int, help="random seed"),
    "--requests": dict(type=int, metavar="N",
                       help="draw a random N-request subinstance"),
    "--out": dict(default=".", help="output directory"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eongp",
        description="Power and spectrum allocation for elastic optical "
                    "networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, flags=tuple(_FLAGS), without=None):
        # exact flags only: --margin must not reach sweep-margin's --margins
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        for flag in flags:
            if flag != without:
                p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(handler=handler)
        return p

    command("run", _cmd_run, "route and assign one scenario")
    command("sweep-margin", _cmd_sweep_margin,
            "run the pipeline per margin floor", without="--margin"
            ).add_argument("--margins", default="1,2,4",
                           help="comma-separated margin floors")
    command("compare-rto", _cmd_compare_rto,
            "run per routing method at the --gpsa formulation",
            without="--rto")
    command("compare-gpsa", _cmd_compare_gpsa,
            "run per assignment formulation", without="--gpsa")
    command("characterize-approx", _cmd_characterize_approx,
            "approximation error curves", ("--config", "--out"))
    p = command("count-formulations", _cmd_count_formulations,
                "closed-form problem sizes", ("--out",))
    p.add_argument("--q", type=int, required=True, help="request count")
    p.add_argument("--l", type=int, default=0, help="directed link count")
    p.add_argument("--v", type=int, default=0, help="node count")
    return parser


def _parse_margins(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise InstanceError(f"bad margin list {text!r}") from None
    if not values:
        raise InstanceError("margin list is empty")
    return values


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.handler(args)
    except InstanceError as exc:
        return _fail(exc, EXIT_PARSE)
    except HeuristicError as exc:
        return _fail(exc, EXIT_INFEASIBLE if exc.status == STATUS_INFEASIBLE
                     else EXIT_SOLVER)
    except OSError as exc:
        return _fail(exc, EXIT_IO)
    return 0


def _fail(exc: Exception, code: int) -> int:
    print(f"eongp: error: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
