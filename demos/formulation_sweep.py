"""Run all six assignment formulations on one instance and compare.

The formulations differ in two ingredients (see `eongp.psa`).  The
required-OSNR fit is a power law in 1/2, an integer-exponent binomial in
3/4, and a fractional-exponent binomial through an auxiliary variable t in
5/6.  The interference kernel is linear in the odd formulations and adds
the cubic correction in the even ones.
"""

import statistics
from dataclasses import replace
from importlib import resources

from eongp import validate
from eongp.model import ScenarioConfig, load_instance
from eongp.psa import FORMULATION_FIT, FORMULATION_ORDER, formulation_size

DATA = resources.files("eongp") / "data"


def main():
    scenario = ScenarioConfig(num_requests=12, seed=5)
    instance = load_instance(str(DATA / "cost239_topology.txt"),
                             str(DATA / "cost239_traffic.txt"))
    runs = validate.compare(instance, [replace(scenario, formulation=f)
                                       for f in sorted(FORMULATION_FIT)])

    print("form  fit            order  vars  cons   objective      "
          "model err   edge (GHz)  time")
    for run in runs:
        f = run.scenario.formulation
        q, l = len(run.routing.requests), len(instance.topology.links)
        nv, nc = formulation_size(f"gpsa{f}", q, l)
        err = statistics.fmean(run.report.model_error)
        print(f"   {f}  {FORMULATION_FIT[f]:13s}  {FORMULATION_ORDER[f]:5d}"
              f"  {nv:5d} {nc:5d}   {run.allocation.objective:.6g}"
              f"   {err:9.2e}   {run.allocation.spectrum_edge_hz / 1e9:9.2f}"
              f"   {run.runtime_s:4.1f}s")

    print("\neach odd/even pair shares an OSNR fit and differs only in the "
          "kernel order; the fit sets the OSNR each efficiency must reach")

if __name__ == "__main__":
    main()
