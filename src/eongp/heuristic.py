"""Two-stage allocation driver: route, then assign by relax-and-round.

Stage 1 splits traffic into transponder-sized requests, routes them and
derives the processing order.  Stage 2 solves the continuous relaxation of
the selected assignment formulation, then repeatedly pins spectral
efficiencies to modulation-table values: the acceptance window is the
least multiple of the 0.1 bit/s/Hz rounding step (rounded to 1e-12) that
puts at least one relaxed efficiency within it of a table value; every such
request is pinned in the same round (a tie goes to the smaller table value)
by `psa.pin`, and the program, compiled once, is re-solved with the pinned
values moved into its offsets.  Each round pins at least one request, so
the loop runs at most once per request.  The closing solve, with every
efficiency pinned, reports the efficiencies at their table values beside
the continuous powers, centers, margins, spacings and spectrum edge.  A
one-value table leaves nothing to relax: every efficiency is pinned before
the first solve, which is then the closing one, and no round runs.

Rounding failures are not repaired: if any re-solve comes back infeasible
the run aborts with a stage-tagged error carrying the partial trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import gp, psa
from .model import (
    InstanceError, ModulationTable, NetworkInstance, PhysicsConstants,
    ScenarioConfig, partition_traffic,
)
from .routing import RoutingSolution, solve_routing

_ROUND_STEP = 0.1  # bit/s/Hz, the unit of the rounding window


class HeuristicError(RuntimeError):
    """Assignment aborted; `stage` names the solve that failed.

    `status` carries the solver verdict so callers can tell a genuinely
    infeasible program from a numerical breakdown.
    """

    def __init__(self, message: str, stage: str, trace, status):
        super().__init__(message)
        self.stage = stage
        self.trace = trace
        self.status = status


@dataclass(frozen=True)
class FixRecord:
    """One efficiency pinned to a table value."""
    request: int
    relaxed: float
    fixed: float
    width: float


@dataclass(frozen=True)
class RoundingRound:
    """Objective of the solve opening the round plus the fixes it led to."""
    objective: float
    fixes: tuple[FixRecord, ...]


@dataclass(frozen=True)
class HeuristicTrace:
    method: str
    formulation: int
    rounds: tuple[RoundingRound, ...]
    relaxed_objective: float
    final_objective: float

    @property
    def iterations(self) -> int:
        return len(self.rounds)


def _pick_fixes(solution_vars, unfixed, candidates):
    """Pin every request within the narrowest admitting window of a table
    value: the least multiple of `_ROUND_STEP` that admits one."""
    relaxed = {q: solution_vars[psa.c_var(q)] for q in unfixed}
    nearest = min(abs(c - v) for c in relaxed.values() for v in candidates)
    k = 0
    while nearest > round(k * _ROUND_STEP, 12) + 1e-12:
        k += 1
    width = round(k * _ROUND_STEP, 12)
    batch = []
    for q in unfixed:
        for value in candidates:
            if abs(relaxed[q] - value) <= width + 1e-12:
                batch.append(FixRecord(q, relaxed[q], value, width))
                break
    return batch


def assign(routing: RoutingSolution, physics: PhysicsConstants,
           scenario: ScenarioConfig,
           modulations: ModulationTable = ModulationTable()
           ) -> tuple[psa.Allocation, HeuristicTrace]:
    """Stage 2: relax, iteratively round efficiencies, re-solve."""
    form = gp.ConvexForm(
        psa.build_program(routing, physics, scenario, modulations))
    rounds: list[RoundingRound] = []

    def solve_or_abort(compiled, x0, stage):
        sol = gp.solve(compiled, x0)
        if sol.status != gp.STATUS_OPTIMAL:
            partial = HeuristicTrace(
                routing.method, scenario.formulation, tuple(rounds),
                relaxed_objective, math.nan) if rounds else None
            raise HeuristicError(
                f"assignment solve failed ({sol.status}) at {stage}",
                stage, partial, sol.status)
        return sol

    start = psa.warm_start(routing, physics, scenario)
    unfixed = list(routing.order)
    if len(modulations.efficiencies) == 1:
        # a one-value table leaves nothing to relax: pin it, round nothing
        form = psa.pin(form, dict.fromkeys(unfixed,
                                           modulations.efficiencies[0]))
        unfixed = []
    solution = solve_or_abort(form, start, "relaxation")
    relaxed_objective = solution.objective

    while unfixed:
        batch = _pick_fixes(solution.variables, unfixed,
                            modulations.efficiencies)
        rounds.append(RoundingRound(solution.objective, tuple(batch)))
        pins = {rec.request: rec.fixed for rec in batch}
        form = psa.pin(form, pins)
        unfixed = [q for q in unfixed if q not in pins]
        solution = solve_or_abort(form, solution.variables,
                                  f"round {len(rounds)}")

    allocation = psa.extract(solution.variables, routing, solution.objective)
    trace = HeuristicTrace(routing.method, scenario.formulation,
                           tuple(rounds), relaxed_objective,
                           solution.objective)
    return allocation, trace


def route(instance: NetworkInstance) -> RoutingSolution:
    """Stage 1: partition traffic, draw, route and order the requests; of
    the scenario it reads only `num_requests`, `seed` and `rto_method`."""
    scenario = instance.scenario
    requests = partition_traffic(instance.demands,
                                 instance.physics.capacity_bps,
                                 scenario.num_requests, scenario.seed)
    if not requests:
        raise InstanceError("no requests to allocate")
    return solve_routing(instance.topology, requests, scenario.rto_method,
                         span_km=instance.physics.span_km, seed=scenario.seed)


def run(instance: NetworkInstance
        ) -> tuple[RoutingSolution, psa.Allocation, HeuristicTrace]:
    """Full pipeline: partition traffic, route, order, assign."""
    routing = route(instance)
    allocation, trace = assign(routing, instance.physics, instance.scenario,
                               instance.modulations)
    return routing, allocation, trace
