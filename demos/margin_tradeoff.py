"""Raise the QoS margin floor and watch spectral efficiency pay for it.

With the margin reward weight zeroed out, the optimizer holds every channel
exactly at the floor, so doubling the floor forces lower-order modulation
and roughly halves the rate carried per unit of power and bandwidth.
"""

from dataclasses import replace
from importlib import resources

from eongp import validate
from eongp.model import ScenarioConfig, load_instance

DATA = resources.files("eongp") / "data"


def main():
    scenario = ScenarioConfig(weight_margin=0.0, num_requests=10, seed=0)
    instance = load_instance(str(DATA / "cost239_topology.txt"),
                             str(DATA / "cost239_traffic.txt"))

    runs = validate.compare(instance, [replace(scenario, min_margin=margin)
                                       for margin in (1.0, 2.0, 4.0)])
    print("margin   mean eff   rate/resource   total power   total noise")
    for run in runs:
        eff = sum(run.allocation.efficiency) / len(run.allocation.efficiency)
        print(f"  {run.scenario.min_margin:4.1f}   {eff:7.2f}   "
              f"{run.report.mean_rate_per_resource:12.4e}"
              f"   {run.report.total_power_w:.3e}   "
              f"{run.report.total_noise_w:.3e}")

    first, last = runs[0].report, runs[-1].report
    ratio = first.mean_rate_per_resource / last.mean_rate_per_resource
    print(f"\nquadrupling the floor costs a factor {ratio:.2f} in rate per "
          f"resource; realized margins stay pinned at the floor:")
    for run in runs:
        lo, hi = min(run.allocation.margin), max(run.allocation.margin)
        print(f"  floor {run.scenario.min_margin:.0f}: margins in "
              f"[{lo:.4f}, {hi:.4f}]")


if __name__ == "__main__":
    main()
