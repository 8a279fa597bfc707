"""Look inside the geometric program the assignment stage builds.

Counts follow closed forms in the number of requests q, links l and nodes
v, so program growth is predictable before anything is solved.
"""

from importlib import resources

from eongp.model import (PhysicsConstants, ScenarioConfig, TrafficDemand,
                         load_topology)
from eongp.psa import PROBLEM_KINDS, build_program, formulation_size
from eongp.routing import solve_routing

DATA = resources.files("eongp") / "data"


def main():
    print("size formulas at q=46 requests, l=52 directed links, v=11 nodes")
    print("  kind     variables  constraints")
    for kind in PROBLEM_KINDS:
        nv, nc = formulation_size(kind, 46, 52, 11)
        print(f"  {kind:7s}  {nv:9d}  {nc:11d}")

    # the formulas count every request pair and every request-link pair;
    # the builder drops terms for pairs that share no fiber, so a real
    # program is never larger than the formula says
    topo = load_topology(str(DATA / "cost239_topology.txt"))
    phys = PhysicsConstants()
    requests = [TrafficDemand("1", "5", 100e9),
                TrafficDemand("1", "5", 100e9),
                TrafficDemand("2", "5", 60e9)]
    routing = solve_routing(topo, requests, "spr", span_km=phys.span_km)
    scenario = ScenarioConfig(formulation=5)
    program = build_program(routing, phys, scenario)
    nv, nc = len(program.variables), len(program.constraints)
    want = formulation_size("gpsa5", len(requests), len(topo.links))
    print(f"\nbuilt gpsa5 for 3 partly co-routed requests: {nv} variables,"
          f" {nc} constraints (dense accounting: {want[0]}, {want[1]})")
    families = sorted({name.split("[")[0] for name in program.variables})
    print(f"variable families: {families}")


if __name__ == "__main__":
    main()
