"""Command-line runner: load inputs, execute scenarios, write artifacts.

Commands
    run                  route and assign one scenario
                         (allocation.csv, validation.json, trace.json)
    sweep-margin         one pipeline run per margin floor (curves.csv)
    compare-rto          one run per routing method at the --gpsa formulation
    compare-gpsa         one run per assignment formulation 1..6
    characterize-approx  approximation error curves (curves.csv)
    count-formulations   closed-form problem sizes (sizes.csv)

Configuration layers, later wins: defaults, the --config file, flags.
The solver tolerances (1e-8), its iteration cap (200), the rounding step
(0.1 bit/s/Hz) and the clamp of relaxed efficiencies to the table span are
fixed, not configured.

Every CSV artifact opens with a '# config: {...}' comment carrying the
resolved configuration, so the file alone identifies the run that produced
it.  Numbers are written with fixed formatting and the pipeline is seeded,
so identical inputs at a fixed BLAS thread count (LAPACK rounds by thread
count) give byte-identical CSV files; wall-clock times appear only in the
JSON artifacts.  The four pipeline commands run through `validate.compare`,
one scenario per margin, method or formulation (one for `run`); JSON
artifacts hold its records as they are, non-finite numbers null.

Exit codes: 0 success, 2 usage, 3 I/O, 4 input parse or validation,
5 infeasible instance, 6 solver breakdown.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import statistics
import sys
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
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


def _bundled(name: str) -> Path:
    return Path(str(resources.files("eongp") / "data" / name))


def _resolve_input(value: str, registry: dict[str, str], what: str) -> Path:
    path = Path(value)
    if path.exists():
        return path
    if value in registry:
        return _bundled(registry[value])
    known = ", ".join(sorted(registry))
    raise FileNotFoundError(
        f"{what} {value!r} is neither a file nor a bundled name ({known})")


@dataclass(frozen=True)
class RunManifest:
    """Resolved invocation: command, inputs, configuration, output dir."""
    command: str
    topology_file: Path
    traffic_file: Path
    out_dir: Path
    physics: PhysicsConstants
    scenario: ScenarioConfig
    modulations: ModulationTable
    margins: tuple[float, ...] = ()
    size_args: tuple[int, int, int] = (0, 0, 0)   # requests, links, nodes


def _resolved_config(man: RunManifest) -> dict:
    return {
        "command": man.command,
        "inputs": {"topology": str(man.topology_file),
                   "traffic": str(man.traffic_file)},
        "physics": asdict(man.physics),
        "scenario": asdict(man.scenario),
        "modulations": [[c, o] for c, o in man.modulations.entries],
    }


# --------------------------------------------------------------------------
# artifact writers
# --------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_csv(man: RunManifest, name: str, columns, rows) -> Path:
    path = man.out_dir / name
    header = json.dumps(_resolved_config(man), sort_keys=True,
                        separators=(",", ":"))
    with open(path, "w", newline="") as fh:
        fh.write(f"# config: {header}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return path


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


def _write_json(man: RunManifest, name: str, payload: dict) -> Path:
    """Write `payload`, records included, and the resolved configuration."""
    path = man.out_dir / name
    with open(path, "w") as fh:
        json.dump(_plain({"config": _resolved_config(man), **payload}), fh,
                  indent=2, sort_keys=True)
        fh.write("\n")
    return path


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

def _load_instance(man: RunManifest):
    return load_instance(man.topology_file, man.traffic_file,
                         (man.physics, man.scenario, man.modulations))


def _path_names(routing, topology, q: int) -> str:
    links = [topology.links[i] for i in routing.paths[q]]
    return "-".join([links[0].begin] + [l.end for l in links])


def _cmd_run(man: RunManifest) -> None:
    instance = _load_instance(man)
    [run] = validate.compare(instance, [instance.scenario])
    routing, allocation = run.routing, run.allocation
    rows = [(req.id, req.source, req.dest, req.rate_bps,
             _path_names(routing, instance.topology, q),
             routing.span_counts[q], allocation.power_w[q],
             allocation.center_hz[q], allocation.bandwidth_hz[q],
             allocation.efficiency[q], allocation.margin[q])
            for q, req in enumerate(routing.requests)]
    _write_csv(man, "allocation.csv",
               ("request", "source", "dest", "rate_bps", "path", "spans",
                "power_w", "center_hz", "bandwidth_hz", "efficiency",
                "margin"), rows)
    _write_json(man, "validation.json",
                {"objective": allocation.objective, "report": run.report})
    _write_json(man, "trace.json",
                {"runtime_s": run.runtime_s, "trace": run.trace})


def _cmd_sweep_margin(man: RunManifest) -> None:
    runs = validate.compare(_load_instance(man), [
        replace(man.scenario, min_margin=margin) for margin in man.margins])
    rows = [(run.scenario.min_margin, run.report.mean_rate_per_resource,
             run.report.total_noise_w, run.report.total_power_w,
             run.report.spectrum_edge_hz, run.allocation.objective)
            for run in runs]
    _write_csv(man, "curves.csv",
               ("margin", "mean_rate_per_resource", "total_noise_w",
                "total_power_w", "spectrum_edge_hz", "objective"), rows)
    _write_json(man, "validation.json", {
        "margins": man.margins, "reports": [run.report for run in runs]})


def _cmd_compare_rto(man: RunManifest) -> None:
    runs = validate.compare(_load_instance(man), [
        replace(man.scenario, rto_method=method) for method in RTO_METHODS])
    rows = [(run.scenario.rto_method, run.report.total_power_w,
             run.report.total_noise_w, run.report.spectrum_edge_hz,
             run.allocation.objective, run.report.admissible)
            for run in runs]
    _write_csv(man, "curves.csv",
               ("method", "total_power_w", "total_noise_w",
                "spectrum_edge_hz", "objective", "admissible"), rows)
    _write_json(man, "validation.json", {
        "methods": RTO_METHODS, "reports": [run.report for run in runs]})


def _cmd_compare_gpsa(man: RunManifest) -> None:
    instance = _load_instance(man)
    runs = validate.compare(instance, [
        replace(man.scenario, formulation=formulation)
        for formulation in sorted(psa.FORMULATION_FIT)])
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
    _write_csv(man, "curves.csv",
               ("formulation", "fit", "kernel_order", "variables",
                "constraints", "objective", "total_power_w", "total_noise_w",
                "spectrum_edge_hz", "mean_model_error"), rows)
    _write_json(man, "validation.json", {"runs": [
        {"formulation": run.scenario.formulation, "runtime_s": run.runtime_s,
         "rounding_rounds": run.trace.iterations, "report": run.report}
        for run in runs]})


def _cmd_characterize_approx(man: RunManifest) -> None:
    grid = physics.log_kernel_error_grid()
    rows = []
    for order in (1, 3):
        for i, x in enumerate(grid["x"]):
            rows.append((f"kernel_order{order}", x, grid["exact"][i],
                         grid[f"approx{order}"][i], grid[f"rel_err{order}"][i]))
    fit_table = physics.osnr_fit_error_table(man.modulations)
    for fit in physics.OSNR_FITS:
        for j, eff in enumerate(fit_table["eff"]):
            rows.append((f"fit_{fit}", eff, fit_table["table"][j],
                         fit_table[fit][j], fit_table[f"rel_err_{fit}"][j]))
    _write_csv(man, "curves.csv",
               ("series", "x", "exact", "approx", "rel_err"), rows)


def _cmd_count_formulations(man: RunManifest) -> None:
    n_requests, n_links, n_nodes = man.size_args
    rows = [(kind, *psa.formulation_size(kind, n_requests, n_links, n_nodes))
            for kind in psa.PROBLEM_KINDS]
    _write_csv(man, "sizes.csv", ("kind", "variables", "constraints"), rows)


_COMMANDS = {
    "run": _cmd_run,
    "sweep-margin": _cmd_sweep_margin,
    "compare-rto": _cmd_compare_rto,
    "compare-gpsa": _cmd_compare_gpsa,
    "characterize-approx": _cmd_characterize_approx,
    "count-formulations": _cmd_count_formulations,
}


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eongp",
        description="Power and spectrum allocation for elastic optical "
                    "networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--topology", default="cost239",
                       help="topology file, or bundled name (cost239)")
        p.add_argument("--traffic", default="table2",
                       help="traffic matrix file, or bundled name (table2)")
        p.add_argument("--config", metavar="FILE",
                       help="JSON file with physics/scenario/modulations "
                            "sections, layered over the defaults")
        p.add_argument("--rto", choices=RTO_METHODS,
                       help="routing and ordering method")
        p.add_argument("--gpsa", type=int, choices=(1, 2, 3, 4, 5, 6),
                       help="assignment formulation")
        p.add_argument("--margin", type=float,
                       help="minimum OSNR margin factor")
        p.add_argument("--scale", type=float,
                       help="Gb/s carried by one traffic-matrix unit")
        p.add_argument("--seed", type=int, help="random seed")
        p.add_argument("--requests", type=int, metavar="N",
                       help="draw a random N-request subinstance")
        p.add_argument("--out", default=".", help="output directory")
        return p

    common(sub.add_parser("run", help="route and assign one scenario"))
    p = common(sub.add_parser("sweep-margin",
                              help="run the pipeline per margin floor"))
    p.add_argument("--margins", default="1,2,4",
                   help="comma-separated margin floors")
    common(sub.add_parser("compare-rto",
                          help="run per routing method at the --gpsa "
                               "formulation"))
    common(sub.add_parser("compare-gpsa",
                          help="run per assignment formulation"))
    common(sub.add_parser("characterize-approx",
                          help="approximation error curves"))
    p = common(sub.add_parser("count-formulations",
                              help="closed-form problem sizes"))
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


def resolve_manifest(args: argparse.Namespace) -> RunManifest:
    # layering: defaults, then the --config file, then single flags
    phys, scen, table = load_config(args.config) if args.config else (
        PhysicsConstants(), ScenarioConfig(), ModulationTable())
    flags = {"rto": "rto_method", "gpsa": "formulation",
             "margin": "min_margin", "scale": "traffic_scale_gbps",
             "seed": "seed", "requests": "num_requests"}
    overrides = {name: getattr(args, flag) for flag, name in flags.items()
                 if getattr(args, flag) is not None}
    scen = replace(scen, **overrides)
    return RunManifest(
        command=args.command,
        topology_file=_resolve_input(args.topology, BUNDLED_TOPOLOGIES,
                                     "topology"),
        traffic_file=_resolve_input(args.traffic, BUNDLED_TRAFFIC, "traffic"),
        out_dir=Path(args.out),
        physics=phys, scenario=scen, modulations=table,
        margins=_parse_margins(args.margins)
        if args.command == "sweep-margin" else (),
        size_args=(args.q, args.l, args.v)
        if args.command == "count-formulations" else (0, 0, 0))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        manifest = resolve_manifest(args)
        manifest.out_dir.mkdir(parents=True, exist_ok=True)
        _COMMANDS[manifest.command](manifest)
    except InstanceError as exc:
        return _fail(exc, EXIT_PARSE)
    except HeuristicError as exc:
        code = EXIT_INFEASIBLE if exc.status == STATUS_INFEASIBLE \
            else EXIT_SOLVER
        return _fail(exc, code)
    except OSError as exc:
        return _fail(exc, EXIT_IO)
    return 0


def _fail(exc: Exception, code: int) -> int:
    print(f"eongp: error: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
