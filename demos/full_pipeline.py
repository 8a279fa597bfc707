"""End-to-end run on the bundled mesh: load, route, assign, verify."""

import time
from importlib import resources

from eongp import heuristic, validate
from eongp.model import (
    ModulationTable, PhysicsConstants, ScenarioConfig, load_instance,
)

DATA = resources.files("eongp") / "data"


def main():
    scenario = ScenarioConfig(num_requests=20, seed=1, rto_method="scpr",
                              formulation=2)
    instance = load_instance(str(DATA / "cost239_topology.txt"),
                             str(DATA / "cost239_traffic.txt"),
                             (PhysicsConstants(), scenario, ModulationTable()))

    started = time.perf_counter()
    routing, allocation, trace = heuristic.run(instance)
    elapsed = time.perf_counter() - started

    n = len(routing.requests)
    print(f"{n} requests routed by {routing.method} and assigned with "
          f"formulation {scenario.formulation} in {elapsed:.2f}s")
    print(f"objective {allocation.objective:.6g} "
          f"(relaxed {trace.relaxed_objective:.6g}, "
          f"{trace.iterations} rounding rounds)")
    print(f"spectrum edge {allocation.spectrum_edge_hz / 1e12:.4f} THz of "
          f"{instance.physics.band_thz} THz band")

    report = validate.validate(allocation, routing, instance)
    print(f"\nexact-model verification")
    print(f"  admissible          {report.admissible}")
    print(f"  min / mean slack    {min(report.slack):.3f} / "
          f"{sum(report.slack) / n:.3f}")
    print(f"  total power         {report.total_power_w:.3e} W")
    print(f"  total noise         {report.total_noise_w:.3e} W")
    print(f"  rate per resource   {report.mean_rate_per_resource:.3e} bit/s "
          "per W per Hz")
    worst = max(range(n), key=lambda q: report.model_error[q])
    print(f"  worst model error   {report.model_error[worst]:.2e} "
          f"(request {worst})")
    if report.violations:
        for v in report.violations:
            print(f"  violation: {v}")


if __name__ == "__main__":
    main()
