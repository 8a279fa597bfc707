"""Exact-model checking of allocations, the comparison loop, an oracle.

The assignment programs optimize an approximate noise model, the bracket of
each quality row (`psa.noise_bracket`).  This module re-evaluates every
allocation under the exact expressions of `physics` (exact cross-talk kernel,
asinh self-interference) and under that same bracket, and reports the
headroom each request actually has, the gap between model and exact signal
quality, aggregate resource metrics, and any physical-validity violations.
Violations are recorded, never raised, so reports on bad allocations are
still complete.  A request's bandwidth is its rate over its efficiency,
as in the programs, and NaN unless the efficiency is positive and finite;
a value that cannot be computed for a request (overlapping channels, a
zero or non-finite power, bandwidth or efficiency) reads NaN, and a NaN
position or width is a violation.  The requirement is the modulation
table's: an efficiency that is not a table entry has none, so its required
OSNR and slack read NaN.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace

from . import gp, heuristic, physics as ph, psa
from .model import (
    InstanceError, ModulationTable, NetworkInstance, PhysicsConstants,
    ScenarioConfig,
)
from .routing import RoutingSolution

# relative slop granted to solver-produced allocations when checking hard
# geometry; keeps reports quiet about feasibility-tolerance dust
_REL_TOL = 1e-6


@dataclass(frozen=True)
class Violation:
    kind: str          # "nonoverlap" | "band" | "lower-edge"
    subject: tuple
    amount_hz: float


@dataclass(frozen=True)
class ValidationReport:
    exact_osnr: tuple[float, ...]
    model_osnr: tuple[float, ...]
    # margin floor times table requirement; NaN for an efficiency that is
    # not a table entry, and so is its slack
    required_osnr: tuple[float, ...]
    slack: tuple[float, ...]           # exact over required
    model_error: tuple[float, ...]     # |exact - model| / exact
    total_power_w: float
    total_noise_w: float
    mean_rate_per_resource: float      # mean of rate / (power * bandwidth)
    spectrum_edge_hz: float
    span_usage: int
    violations: tuple[Violation, ...]

    @property
    def admissible(self) -> bool:
        return not self.violations


def _required(eff: float, table: ModulationTable) -> float:
    """The table's requirement at one of its entries, NaN elsewhere."""
    try:
        return table.required_osnr(eff)
    except InstanceError:
        return math.nan


def _osnr_or_nan(q: int, channels, ctx: ph.NoiseContext) -> float:
    """Exact OSNR, NaN where it cannot be computed: channels sharing spans
    overlap (a ValueError; the geometry check reports the overlap itself),
    or a power or bandwidth is zero, negative or out of range."""
    try:
        return ph.osnr(q, channels, ctx)
    except (ArithmeticError, ValueError):
        return math.nan


def _model_osnr(bracket, point: dict[str, float]) -> float:
    """1 / the bracket's value at `point`, NaN where that is not finite and
    positive or cannot be computed (coincident centers, an overflow)."""
    value = 0.0
    try:
        for coef, exps in bracket:
            for v, e in exps:
                coef *= point[v] ** e
            value += coef
    except ArithmeticError:
        return math.nan
    return 1.0 / value if 0.0 < value < math.inf else math.nan


def _ratio(num: float, den: float) -> float:
    """num / den, NaN where den is zero."""
    return num / den if den else math.nan


def validate(allocation: psa.Allocation, routing: RoutingSolution,
             instance: NetworkInstance) -> ValidationReport:
    """Re-check an allocation under the exact model, at `instance.scenario`."""
    scenario = instance.scenario
    n = len(allocation.power_w)
    if n != len(routing.requests):
        raise InstanceError("allocation and routing sizes differ")

    physics = instance.physics
    rates = [req.rate_bps for req in routing.requests]
    bandwidth = [rates[q] / c if 0 < c < math.inf else math.nan
                 for q, c in enumerate(allocation.efficiency)]
    channels = [ph.ChannelState(p, w, b) for p, w, b
                in zip(allocation.power_w, allocation.center_hz, bandwidth)]
    ctx = ph.NoiseContext(routing.span_counts, routing.partners, physics)
    order = psa.FORMULATION_ORDER[scenario.formulation]
    # the program's variables at the allocation, each d at its actual gap
    point = {psa.d_var(q, i): abs(allocation.center_hz[q]
                                  - allocation.center_hz[i])
             for q, i in routing.pairs}
    for q in range(n):
        point[psa.p_var(q)] = allocation.power_w[q]
        point[psa.c_var(q)] = allocation.efficiency[q]

    exact, model, required, slack, gap = [], [], [], [], []
    noise = 0.0
    for q in range(n):
        exact.append(_osnr_or_nan(q, channels, ctx))
        model.append(_model_osnr(psa.noise_bracket(q, rates, ctx, order),
                                 point))
        need = scenario.min_margin * _required(allocation.efficiency[q],
                                               instance.modulations)
        required.append(need)
        slack.append(_ratio(exact[q], need))
        if math.isfinite(exact[q]) and exact[q] > 0:
            gap.append(abs(exact[q] - model[q]) / exact[q])
            noise += allocation.power_w[q] / exact[q]
        else:
            gap.append(math.nan)

    violations = list(_geometry_violations(allocation, bandwidth, routing,
                                           physics))
    rate_density = [_ratio(rates[q], allocation.power_w[q] * bandwidth[q])
                    for q in range(n)]
    return ValidationReport(
        tuple(exact), tuple(model), tuple(required), tuple(slack), tuple(gap),
        sum(allocation.power_w, 0.0), noise,
        _ratio(sum(rate_density), n), allocation.spectrum_edge_hz,
        sum(routing.span_counts), tuple(violations))


def _geometry_violations(allocation, bandwidth, routing,
                         physics: PhysicsConstants):
    # each test is negated so that a NaN position or width is a violation
    half = [0.5 * b for b in bandwidth]
    w = allocation.center_hz
    tol = _REL_TOL * physics.band_hz
    for link, seq in routing.link_order:
        for a, b in zip(seq, seq[1:]):
            gap = (w[b] - half[b]) - (w[a] + half[a])
            if not gap >= physics.guard_hz - tol:
                yield Violation("nonoverlap", (link, a, b),
                                physics.guard_hz - gap)
    for q in range(len(w)):
        over = w[q] + half[q] - physics.band_hz
        if not over <= tol:
            yield Violation("band", (q,), over)
        under = half[q] - w[q]
        if not under <= tol:
            yield Violation("lower-edge", (q,), under)


# ------------------------------------------------------------------ oracles

def brute_force_psa(routing: RoutingSolution, physics: PhysicsConstants,
                    scenario: ScenarioConfig,
                    modulations: ModulationTable = ModulationTable()
                    ) -> tuple[psa.Allocation, dict[int, float]]:
    """Best allocation over every table-value assignment of efficiencies.

    Exhaustive over the integer grid, continuous in everything else: each
    combination is solved as a GP, pinned on a form compiled once.  Only
    small request sets are accepted; the grid grows as 6^|Q|.
    """
    n = len(routing.requests)
    if not 0 < n <= 4:
        raise InstanceError("brute force supports 1..4 requests")

    base = gp.ConvexForm(
        psa.build_program(routing, physics, scenario, modulations))
    start = psa.warm_start(routing, physics, scenario)
    best = None
    for combo in itertools.product(modulations.efficiencies, repeat=n):
        sol = gp.solve(psa.pin(base, dict(enumerate(combo))), start)
        if sol.status != gp.STATUS_OPTIMAL:
            continue
        if best is None or sol.objective < best[0]:
            best = (sol.objective, sol.variables, combo)
    if best is None:
        raise InstanceError("every efficiency combination is infeasible")
    objective, full, combo = best
    allocation = psa.extract(full, routing, objective)
    return allocation, dict(enumerate(combo))


# ---------------------------------------------------------------- comparison

@dataclass(frozen=True)
class Comparison:
    """One pipeline run: the scenario, what the heuristic returned, the
    exact-model report and the heuristic's wall time."""
    scenario: ScenarioConfig
    routing: RoutingSolution
    allocation: psa.Allocation
    trace: heuristic.HeuristicTrace
    report: ValidationReport
    runtime_s: float


def compare(instance: NetworkInstance, scenarios) -> list[Comparison]:
    """Run the heuristic on `instance` under each scenario, timed, and
    validate the result; the demands keep the scale `instance` gave them.
    Scenarios that agree on what stage 1 reads share one routing, timed in
    the first of them only."""
    routings = {}
    results = []
    for scenario in scenarios:
        inst = replace(instance, scenario=scenario)
        started = time.perf_counter()
        key = (scenario.rto_method, scenario.seed, scenario.num_requests)
        if key not in routings:
            routings[key] = heuristic.route(inst)
        routing = routings[key]
        allocation, trace = heuristic.assign(routing, inst.physics, scenario,
                                             inst.modulations)
        runtime = time.perf_counter() - started
        results.append(Comparison(scenario, routing, allocation, trace,
                                  validate(allocation, routing, inst),
                                  runtime))
    return results
