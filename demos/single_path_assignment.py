"""Assign power and spectrum to three requests sharing one route.

Small enough to check the relax-and-round heuristic against the
exhaustive-in-efficiency oracle.
"""

from importlib import resources

from eongp import heuristic, physics, validate
from eongp.model import (ConnectionRequest, ModulationTable, NetworkInstance,
                         PhysicsConstants, ScenarioConfig, demands_from_matrix,
                         load_topology, load_traffic)
from eongp.routing import solve_routing

DATA = resources.files("eongp") / "data"


def main():
    topo = load_topology(str(DATA / "cost239_topology.txt"))
    phys = PhysicsConstants()
    scenario = ScenarioConfig()
    requests = [ConnectionRequest(0, "1", "7", 100e9),
                ConnectionRequest(1, "1", "7", 60e9),
                ConnectionRequest(2, "1", "7", 100e9)]
    routing = solve_routing(topo, requests, "spr", span_km=phys.span_km)
    print(f"route spans per request: {routing.span_counts}")

    allocation, trace = heuristic.assign(routing, phys, scenario)
    print(f"\nheuristic: relaxed objective {trace.relaxed_objective:.6g}, "
          f"final {trace.final_objective:.6g}, "
          f"{trace.iterations} rounding rounds")
    print("  q   power (W)    center (GHz)   eff   margin")
    for q in range(3):
        print(f"  {q}   {allocation.power_w[q]:.3e}   "
              f"{allocation.center_hz[q] / 1e9:10.2f}   "
              f"{allocation.efficiency[q]:4.1f}   {allocation.margin[q]:.3f}")
    print(f"  spectrum edge: {allocation.spectrum_edge_hz / 1e9:.2f} GHz")

    oracle, best_eff = validate.brute_force_psa(routing, phys, scenario)
    gap = (allocation.objective - oracle.objective) / abs(oracle.objective)
    print(f"\noracle objective {oracle.objective:.6g}; heuristic gap {gap:.2e}")
    print(f"oracle efficiencies {best_eff} vs heuristic "
          f"{dict(enumerate(allocation.efficiency))}")

    matrix = load_traffic(str(DATA / "cost239_traffic.txt"))
    instance = NetworkInstance(topology=topo,
                               demands=demands_from_matrix(matrix, topo, 10.0),
                               physics=phys, scenario=scenario)
    report = validate.validate(allocation, routing, instance)
    print(f"\nexact-model check: admissible {report.admissible}, "
          f"min slack {min(report.slack):.3f}, "
          f"mean model error {sum(report.model_error) / 3:.2e}")
    # slack compares against the hardware table; the program itself enforces
    # the fitted requirement, which is generous at low modulation orders
    eff = allocation.efficiency[0]
    print(f"fitted requirement at eff {eff:.0f}: "
          f"{physics.required_osnr(eff, 'power_law'):.2f} vs table "
          f"{ModulationTable().required_osnr(eff):.2f}; "
          "the gap explains slack < 1 here")


if __name__ == "__main__":
    main()
