"""Power/spectrum assignment programs over a fixed routing.

Given routed and ordered requests, the allocation problem picks per-request
transmit power p, center frequency w, spectral efficiency c and OSNR margin
factor m, plus pairwise center distances d and the occupied-band upper edge
tau.  Six geometric-program formulations are built from two ingredients:

  required-OSNR fit      "power_law" (coef * c^exp, formulations 1-2),
                         "binomial_int" ((1+s*c)^10 expanded by the binomial
                         theorem, formulations 3-4),
                         "binomial_frac" ((1+s*c)^9.4691 via an auxiliary
                         variable t >= 1+s*c, formulations 5-6)
  interference kernel    order 1 (odd formulations) or order 3 (even ones)

The quality constraint per request is  margin * fit(c) * noise / p <= 1 with
noise the amplifier + self + cross terms of the approximate model; channel
nonoverlap is enforced between order-adjacent channels on every link, and
each distance variable is tied to its frequency gap so the solver cannot
claim more separation than the spectrum provides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gp import GpProgram, Monomial, Posynomial
from .model import (
    InstanceError, ModulationTable, PhysicsConstants, ScenarioConfig,
    derived_constants,
)
from .physics import (
    OSNR_BINOM_EXP_FRAC, OSNR_BINOM_EXP_INT, OSNR_BINOM_SLOPE, OSNR_POW_COEF,
    OSNR_POW_EXP, XCI_LOG_CUBIC, XCI_LOG_SLOPE,
)
from .routing import RoutingSolution

FORMULATION_FIT = {1: "power_law", 2: "power_law",
                   3: "binomial_int", 4: "binomial_int",
                   5: "binomial_frac", 6: "binomial_frac"}
FORMULATION_ORDER = {1: 1, 2: 3, 3: 1, 4: 3, 5: 1, 6: 3}

# spectral efficiency (bit/s/Hz) every request starts from in warm_start
_START_EFFICIENCY = 3.0


def p_var(q: int) -> str:
    return f"p[{q}]"


def w_var(q: int) -> str:
    return f"w[{q}]"


def c_var(q: int) -> str:
    return f"c[{q}]"


def m_var(q: int) -> str:
    return f"m[{q}]"


def t_var(q: int) -> str:
    return f"t[{q}]"


def d_var(q: int, i: int) -> str:
    return f"d[{q},{i}]"


TAU = "tau"


def shared_pairs(routing: RoutingSolution) -> list[tuple[int, int]]:
    """Ordered pairs of distinct requests whose paths share spans."""
    n = len(routing.requests)
    return [(q, i) for q in range(n) for i in range(n)
            if q != i and routing.shared_spans[q, i] > 0]


def adjacent_pairs(routing: RoutingSolution) -> list[tuple[int, int]]:
    """Order-consecutive request pairs on some link, deduplicated."""
    seen: dict[tuple[int, int], None] = {}
    for _, seq in routing.link_order:
        for a, b in zip(seq, seq[1:]):
            seen.setdefault((a, b))
    return list(seen)


def _mono(coef: float, exps) -> Monomial:
    return Monomial.make(coef, exps)


def _times(terms, factor_terms):
    """Product of two posynomial term lists."""
    out = []
    for coef_a, exps_a in terms:
        for coef_b, exps_b in factor_terms:
            out.append((coef_a * coef_b, list(exps_a) + list(exps_b)))
    return out


def build_program(routing: RoutingSolution, physics: PhysicsConstants,
                  scenario: ScenarioConfig,
                  modulations: ModulationTable | None = None) -> GpProgram:
    """Assemble the allocation program for the scenario's formulation."""
    fit = FORMULATION_FIT[scenario.formulation]
    order = FORMULATION_ORDER[scenario.formulation]
    table = modulations or ModulationTable()
    der = derived_constants(physics)
    n = len(routing.requests)
    rates = [r.rate_bps for r in routing.requests]
    spans = routing.span_counts
    shared = routing.shared_spans
    pairs = shared_pairs(routing)
    rank = {q: k for k, q in enumerate(routing.order)}

    # goal: spectrum edge, total power, inverse margins, inverse spacings
    goal: list[Monomial] = []
    if scenario.weight_spectrum > 0:
        goal.append(_mono(scenario.weight_spectrum, [(TAU, 1.0)]))
    for q in range(n):
        if scenario.weight_power > 0:
            goal.append(_mono(scenario.weight_power, [(p_var(q), 1.0)]))
        if scenario.weight_margin > 0:
            goal.append(_mono(scenario.weight_margin, [(m_var(q), -1.0)]))
    for q, i in pairs:
        if scenario.weight_spacing > 0:
            goal.append(_mono(scenario.weight_spacing, [(d_var(q, i), -1.0)]))
    if not goal:
        raise InstanceError("all goal weights are zero")

    constraints: list[tuple[str, Posynomial]] = []

    # quality constraint per request.  The bracket is noise/p with the
    # bandwidth substituted by rate/efficiency throughout.
    for q in range(n):
        bracket = [
            (der.ase * spans[q] * rates[q],
             [(p_var(q), -1.0), (c_var(q), -1.0)]),
            (der.kerr * der.sci_shape * spans[q], [(p_var(q), 2.0)]),
        ]
        for i in range(n):
            if i == q or shared[q, i] == 0:
                continue
            bracket.append(
                (XCI_LOG_SLOPE * der.kerr * shared[q, i] / rates[i],
                 [(p_var(i), 2.0), (c_var(i), 1.0), (d_var(q, i), -1.0)]))
            if order == 3:
                bracket.append(
                    (XCI_LOG_CUBIC * der.kerr * shared[q, i] * rates[i],
                     [(p_var(i), 2.0), (c_var(i), -1.0), (d_var(q, i), -3.0)]))
        if fit == "power_law":
            factors = [(OSNR_POW_COEF,
                        [(m_var(q), 1.0), (c_var(q), OSNR_POW_EXP)])]
        elif fit == "binomial_int":
            factors = [(math.comb(OSNR_BINOM_EXP_INT, j) * OSNR_BINOM_SLOPE ** j,
                        [(m_var(q), 1.0), (c_var(q), float(j))] if j else
                        [(m_var(q), 1.0)])
                       for j in range(OSNR_BINOM_EXP_INT + 1)]
        else:
            factors = [(1.0, [(m_var(q), 1.0), (t_var(q), OSNR_BINOM_EXP_FRAC)])]
        terms = [_mono(c, e) for c, e in _times(bracket, factors)]
        constraints.append((f"qos[{q}]", Posynomial(tuple(terms))))

    # auxiliary fit variable: t >= 1 + slope*c, tight at the optimum
    if fit == "binomial_frac":
        for q in range(n):
            constraints.append((f"aux[{q}]", Posynomial((
                _mono(1.0, [(t_var(q), -1.0)]),
                _mono(OSNR_BINOM_SLOPE, [(c_var(q), 1.0), (t_var(q), -1.0)])))))

    # nonoverlap between order-adjacent channels of every link
    guard = physics.guard_hz
    for a, b in adjacent_pairs(routing):
        constraints.append((f"order[{a},{b}]", Posynomial((
            _mono(1.0, [(w_var(a), 1.0), (w_var(b), -1.0)]),
            _mono(0.5 * rates[a], [(c_var(a), -1.0), (w_var(b), -1.0)]),
            _mono(guard, [(w_var(b), -1.0)]),
            _mono(0.5 * rates[b], [(c_var(b), -1.0), (w_var(b), -1.0)])))))

    # every channel fits under the occupied-band edge, which fits in the band,
    # and sits entirely above zero frequency
    for q in range(n):
        constraints.append((f"ceiling[{q}]", Posynomial((
            _mono(1.0, [(w_var(q), 1.0), (TAU, -1.0)]),
            _mono(0.5 * rates[q], [(c_var(q), -1.0), (TAU, -1.0)])))))
    for q in range(n):
        constraints.append((f"edge[{q}]", Posynomial((
            _mono(0.5 * rates[q], [(c_var(q), -1.0), (w_var(q), -1.0)]),))))
    for q in range(n):
        constraints.append((f"floor[{q}]", Posynomial((
            _mono(scenario.min_margin, [(m_var(q), -1.0)]),))))
    constraints.append(("band", Posynomial((
        _mono(1.0 / physics.band_hz, [(TAU, 1.0)]),))))

    # each distance variable is capped by its actual frequency gap; the
    # lower-frequency member is the earlier one in the processing order
    for q, i in pairs:
        lo, hi = (q, i) if rank[q] < rank[i] else (i, q)
        constraints.append((f"gap[{q},{i}]", Posynomial((
            _mono(1.0, [(d_var(q, i), 1.0), (w_var(hi), -1.0)]),
            _mono(1.0, [(w_var(lo), 1.0), (w_var(hi), -1.0)])))))

    # optional table-span clamp on the relaxed efficiencies
    if scenario.clamp_efficiency:
        lo_eff = table.efficiencies[0]
        hi_eff = table.efficiencies[-1]
        for q in range(n):
            constraints.append((f"cfloor[{q}]", Posynomial((
                _mono(lo_eff, [(c_var(q), -1.0)]),))))
            constraints.append((f"cceil[{q}]", Posynomial((
                _mono(1.0 / hi_eff, [(c_var(q), 1.0)]),))))

    variables = [p_var(q) for q in range(n)] + [w_var(q) for q in range(n)] \
        + [c_var(q) for q in range(n)] + [m_var(q) for q in range(n)]
    if fit == "binomial_frac":
        variables += [t_var(q) for q in range(n)]
    variables += [d_var(q, i) for q, i in pairs]
    variables.append(TAU)
    return GpProgram(Posynomial(tuple(goal)), tuple(constraints),
                     tuple(variables))


def warm_start(routing: RoutingSolution, physics: PhysicsConstants,
               scenario: ScenarioConfig) -> dict[str, float]:
    """Structural starting point: stacked spectrum, balanced powers.

    Strict feasibility is not guaranteed; the solver falls back to its
    phase-1 stage from here when needed.
    """
    der = derived_constants(physics)
    n = len(routing.requests)
    rates = [r.rate_bps for r in routing.requests]
    start: dict[str, float] = {}
    margin = 1.05 * scenario.min_margin
    bw = {q: rates[q] / _START_EFFICIENCY for q in range(n)}
    # stack channels in processing order with doubled guards
    edge = physics.guard_hz
    for q in routing.order:
        start[w_var(q)] = edge + 2.0 * physics.guard_hz + 0.5 * bw[q]
        edge = start[w_var(q)] + 0.5 * bw[q]
        start[c_var(q)] = _START_EFFICIENCY
        start[m_var(q)] = margin
        if FORMULATION_FIT[scenario.formulation] == "binomial_frac":
            start[t_var(q)] = 1.05 * (1.0 + OSNR_BINOM_SLOPE
                                         * _START_EFFICIENCY)
        # power balancing amplifier noise against self interference
        noise_lin = der.ase * routing.span_counts[q] * bw[q]
        noise_cub = der.kerr * der.sci_shape * routing.span_counts[q]
        start[p_var(q)] = (noise_lin / (2.0 * noise_cub)) ** (1.0 / 3.0)
    start[TAU] = min(1.3 * edge, physics.band_hz)
    rank = {q: k for k, q in enumerate(routing.order)}
    for q, i in shared_pairs(routing):
        lo, hi = (q, i) if rank[q] < rank[i] else (i, q)
        start[d_var(q, i)] = 0.9 * (start[w_var(hi)] - start[w_var(lo)])
    return start


@dataclass(frozen=True)
class Allocation:
    """Physical reading of a solved program."""
    power_w: tuple[float, ...]
    center_hz: tuple[float, ...]
    efficiency: tuple[float, ...]
    margin: tuple[float, ...]
    bandwidth_hz: tuple[float, ...]
    spectrum_edge_hz: float
    objective: float


def extract(solution_vars, routing: RoutingSolution,
            objective: float = math.nan) -> Allocation:
    """Read an allocation out of solved variable values."""
    n = len(routing.requests)
    rates = [r.rate_bps for r in routing.requests]
    eff = tuple(solution_vars[c_var(q)] for q in range(n))
    return Allocation(
        power_w=tuple(solution_vars[p_var(q)] for q in range(n)),
        center_hz=tuple(solution_vars[w_var(q)] for q in range(n)),
        efficiency=eff,
        margin=tuple(solution_vars[m_var(q)] for q in range(n)),
        bandwidth_hz=tuple(rates[q] / eff[q] for q in range(n)),
        spectrum_edge_hz=solution_vars[TAU],
        objective=objective)


# --------------------------------------------------------------------------
# size accounting
# --------------------------------------------------------------------------

PROBLEM_KINDS = ("spr", "scpr", "scprr", "minlp",
                 "gpsa1", "gpsa2", "gpsa3", "gpsa4", "gpsa5", "gpsa6")


def formulation_size(kind: str, num_requests: int, num_links: int = 0,
                     num_nodes: int = 0) -> tuple[int, int]:
    """Closed-form (variables, constraints) counts of each problem family.

    Routing problems need the node count; the allocation problems need the
    link count.  These are the nominal counts of the written-out
    formulations; the instantiated programs are smaller because interference
    terms and distance variables exist only for span-sharing pairs and
    duplicated rows are emitted once.
    """
    q, l, v = num_requests, num_links, num_nodes
    if min(q, l, v) < 0:
        raise InstanceError(f"counts must be nonnegative, got q={q}, l={l}, "
                            f"v={v}")
    if kind in ("spr", "scpr", "scprr"):
        return q * l, 2 * q + q * v
    if kind == "minlp":
        return 4 * q + 1, 3 * q + q * l + 1
    if kind in ("gpsa1", "gpsa2", "gpsa3", "gpsa4"):
        return q * q + 4 * q + 1, 3 * q + 3 * q * l + 1
    if kind in ("gpsa5", "gpsa6"):
        return q * q + 5 * q + 1, 4 * q + 3 * q * l + 1
    raise InstanceError(f"unknown problem kind {kind!r}")
