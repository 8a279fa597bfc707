"""End-to-end acceptance checks, one test per shipped claim.

Each test prints a single PASS/FAIL line (visible with -s) and asserts the
same condition, so `pytest -v` shows one verdict per criterion.  Numeric
anchors are frozen from independent recomputation: high-precision arithmetic
for the closed-form values, exhaustive search for the combinatorial ones.
"""

import math
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest
from mpmath import mp, mpf

from eongp import heuristic, physics, validate
from eongp.gp import ConvexForm, Monomial, Posynomial, assemble, solve
from eongp.model import (
    ModulationTable, NetworkInstance, PhysicsConstants, ScenarioConfig,
    TrafficDemand, demands_from_matrix, load_topology, load_traffic,
    partition_traffic,
)
from eongp.psa import formulation_size
from eongp.routing import candidate_paths, solve_routing
from oracles import enumerate_shortest
from test_routing import brute_force_congestion

mp.dps = 50


def conclude(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def cost239(data_dir):
    topology = load_topology(str(data_dir / "cost239_topology.txt"))
    matrix = load_traffic(str(data_dir / "cost239_traffic.txt"))
    demands = demands_from_matrix(matrix, topology, 10.0)
    return topology, demands, PhysicsConstants()


def make_instance(cost239, scenario):
    topology, demands, phys = cost239
    return NetworkInstance(topology=topology, demands=demands, physics=phys,
                           scenario=scenario)


# -------------------------------------------------------------------------
# 1. interference-kernel approximation error over the fitted range
# -------------------------------------------------------------------------

def test_criterion_1_kernel_error_bounds():
    started = time.perf_counter()
    xs = [round(0.01 * k, 10) for k in range(1, 121)]
    err1, err3 = [], []
    for x in xs:
        exact = mp.log((1 + mpf(x) / 2) / (1 - mpf(x) / 2), 10)
        assert abs(physics.log_ratio_exact(x) / float(exact) - 1) < 1e-12
        err1.append(float(physics.log_ratio_linear(x) / exact - 1))
        err3.append(float(physics.log_ratio_cubic(x) / exact - 1))
    worst1 = max(abs(e) for e in err1)
    worst3 = max(abs(e) for e in err3)
    at_one1 = err1[xs.index(1.0)]
    at_one3 = err3[xs.index(1.0)]
    elapsed = time.perf_counter() - started
    ok = (worst1 <= 0.15 and worst3 <= 0.03
          and abs(at_one1 - (-0.090)) <= 0.002
          and abs(at_one3 - (-0.0036)) <= 0.002
          and elapsed < 1.0)
    conclude("criterion 1", ok,
             f"kernel errors max {worst1:.3%}/{worst3:.3%} "
             f"(caps 15%/3%), at x=1: {at_one1:.2%}/{at_one3:.2%}, "
             f"{elapsed:.2f}s")


# -------------------------------------------------------------------------
# 2. required-OSNR fit anchors and fit-quality ordering
# -------------------------------------------------------------------------

def test_criterion_2_fit_anchors_and_ordering():
    started = time.perf_counter()
    power_law = mpf("0.0351") * mpf(12) ** mpf("3.292")
    frac = (1 + mpf("0.0557") * 12) ** mpf("9.4691")
    got_pow = physics.required_osnr(12.0, "power_law")
    got_frac = physics.required_osnr(12.0, "binomial_frac")
    recomputed = (abs(got_pow / float(power_law) - 1) <= 1e-6
                  and abs(got_frac / float(frac) - 1) <= 1e-6)
    anchors = abs(got_pow - 125.3) <= 0.2 and abs(got_frac - 127.2) <= 0.2

    cols = physics.osnr_fit_error_table(ModulationTable())
    worst = {fit: float(np.max(np.abs(cols[f"rel_err_{fit}"])))
             for fit in physics.OSNR_FITS}
    ordered = (worst["binomial_frac"] <= worst["binomial_int"]
               <= worst["power_law"])
    elapsed = time.perf_counter() - started
    ok = recomputed and anchors and ordered and elapsed < 1.0
    conclude("criterion 2", ok,
             f"anchors {got_pow:.1f}/{got_frac:.1f}, max errors "
             f"frac {worst['binomial_frac']:.3f} <= int "
             f"{worst['binomial_int']:.3f} <= pow {worst['power_law']:.3f}, "
             f"{elapsed:.2f}s")


# -------------------------------------------------------------------------
# 3. closed-form problem-size formulas
# -------------------------------------------------------------------------

def test_criterion_3_problem_size_formulas():
    ok = True
    for q, l in ((1, 4), (10, 20), (46, 52)):
        for v in (4, 11):
            for kind in ("spr", "scpr", "scprr"):
                ok &= formulation_size(kind, q, l, v) == (q * l, 2 * q + q * v)
        ok &= formulation_size("minlp", q, l) == (4 * q + 1, 3 * q + q * l + 1)
        for kind in ("gpsa1", "gpsa2", "gpsa3", "gpsa4"):
            ok &= formulation_size(kind, q, l) == \
                (q * q + 4 * q + 1, 3 * q + 3 * q * l + 1)
        for kind in ("gpsa5", "gpsa6"):
            ok &= formulation_size(kind, q, l) == \
                (q * q + 5 * q + 1, 4 * q + 3 * q * l + 1)
    ok &= formulation_size("gpsa1", 46, 52) == (2301, 7315)
    conclude("criterion 3", ok,
             "all size formulas exact at (1,4), (10,20), (46,52); "
             "gpsa1 variables at 46 requests = 2301")


# -------------------------------------------------------------------------
# 4. solver on a closed-form program plus gradient consistency
# -------------------------------------------------------------------------

def test_criterion_4_solver_and_gradients():
    am_gm = assemble(
        Posynomial((Monomial.make(1.0, [("x", 1.0)]),
                    Monomial.make(1.0, [("y", 1.0)]))),
        [("prod", Posynomial((Monomial.make(1.0, [("x", -1.0),
                                                  ("y", -1.0)]),)))])
    sol = solve(am_gm)
    solver_ok = sol.status == "optimal" and abs(sol.objective - 2.0) <= 1e-6

    rng = np.random.default_rng(7)
    names = [f"v{k}" for k in range(6)]
    worst = 0.0
    for _ in range(100):
        terms = []
        for _ in range(int(rng.integers(1, 5))):
            picked = rng.choice(len(names), size=int(rng.integers(1, 4)),
                                replace=False)
            terms.append(Monomial.make(
                float(rng.uniform(0.1, 10.0)),
                [(names[j], float(rng.uniform(-3.0, 3.0))) for j in picked]))
        program = assemble(
            Posynomial((Monomial.make(1.0, [(terms[0].exponents[0][0],
                                             1.0)]),)),
            [("g", Posynomial(tuple(terms)))])
        form = ConvexForm(program)
        u = rng.uniform(-1.0, 1.0, form.n)
        _, sigma = form.constraint_eval(u)
        # the one constraint's gradient: J's data in the compiled pattern
        grad = np.zeros(form.n)
        grad[form._jac_indices] = form._jac_data(sigma)
        for j in range(form.n):
            up, dn = u.copy(), u.copy()
            up[j] += 1e-6
            dn[j] -= 1e-6
            fd = (form.constraint_eval(up)[0][0]
                  - form.constraint_eval(dn)[0][0]) / 2e-6
            worst = max(worst,
                        abs(fd - grad[j]) / max(1.0, abs(grad[j])))
    grads_ok = worst <= 1e-5
    conclude("criterion 4", solver_ok and grads_ok,
             f"product-floor optimum {sol.objective:.9f} (want 2 +- 1e-6), "
             f"worst gradient mismatch {worst:.2e} over 100 random "
             f"constraints (cap 1e-5)")


# -------------------------------------------------------------------------
# 5. routing optimality against exhaustive search
# -------------------------------------------------------------------------

def test_criterion_5_routing_optimality(cost239, monkeypatch):
    topology, _, phys = cost239
    monkeypatch.setattr("eongp.routing._MAX_CANDIDATES", 4)
    started = time.perf_counter()
    length = [l.length_km for l in topology.links]
    pairs = 0
    for s in topology.nodes:
        for t in topology.nodes:
            if s == t:
                continue
            [path] = candidate_paths(topology, s, t, 1)
            got = sum(length[l] for l in path)
            assert math.isclose(got, enumerate_shortest(topology, s, t)), \
                (s, t)
            pairs += 1

    rng = np.random.default_rng(11)
    nodes = topology.nodes
    instances = 0
    for trial in range(20):
        endpoints = set()
        while len(endpoints) < 4:
            s, t = rng.choice(len(nodes), size=2, replace=False)
            endpoints.add((nodes[s], nodes[t]))
        requests = [TrafficDemand(s, t, float(rng.integers(1, 11)) * 1e10)
                    for s, t in sorted(endpoints)]
        method = "scpr" if trial % 2 == 0 else "scprr"
        sol = solve_routing(topology, requests, method, span_km=phys.span_km)
        sets = [candidate_paths(topology, r.source, r.dest, 4)
                for r in requests]
        want = brute_force_congestion(topology, requests, sets,
                                      rate_weighted=method == "scprr")
        assert sol.objective == pytest.approx(want, rel=1e-9), trial
        instances += 1
    elapsed = time.perf_counter() - started
    ok = pairs == 110 and instances == 20 and elapsed < 30.0
    conclude("criterion 5", ok,
             f"shortest paths exhaustive-checked on {pairs} pairs, "
             f"congestion routing equals brute force on {instances} "
             f"4-request instances, {elapsed:.1f}s (cap 30s)")


# -------------------------------------------------------------------------
# 6. two-stage heuristic against the exhaustive-efficiency oracle
# -------------------------------------------------------------------------

def test_criterion_6_heuristic_near_oracle(cost239):
    topology, demands, phys = cost239
    started = time.perf_counter()
    worst = -math.inf
    for seed in range(10):
        n = 2 + seed % 2
        scenario = ScenarioConfig(num_requests=n, seed=seed,
                                  formulation=1 + seed % 3)
        instance = make_instance(cost239, scenario)
        routing, allocation, trace = heuristic.run(instance)
        assert trace.iterations <= n
        oracle, _ = validate.brute_force_psa(routing, phys, scenario)
        worst = max(worst, (allocation.objective - oracle.objective)
                    / abs(oracle.objective))
    elapsed = time.perf_counter() - started
    ok = worst <= 0.02
    conclude("criterion 6", ok,
             f"worst objective gap to the exhaustive oracle {worst:.2e} "
             f"over 10 seeded runs (cap 2%), rounds always within request "
             f"count, {elapsed:.0f}s")


# -------------------------------------------------------------------------
# 7. exact-model QoS slack and approximation-order gap hierarchy
# -------------------------------------------------------------------------

def crowded_routing(cost239, base_routing, requests, seed):
    """Co-routed subinstance: sample 8..16 channels off one loaded link."""
    topology, _, phys = cost239
    loaded = [(link, qs) for link, qs in base_routing.link_order
              if len(qs) >= 8]
    rng = np.random.default_rng(seed)
    _, qs = loaded[rng.integers(len(loaded))]
    take = int(rng.integers(8, min(16, len(qs)) + 1))
    picked = sorted(rng.choice(len(qs), size=take, replace=False))
    chosen = [requests[qs[k]] for k in picked]
    return solve_routing(topology, chosen, "spr", span_km=phys.span_km,
                         seed=seed)


def test_criterion_7_qos_soundness_and_model_gap(cost239):
    topology, demands, phys = cost239
    started = time.perf_counter()
    requests = partition_traffic(demands, phys.capacity_bps)
    base = solve_routing(topology, requests, "spr", span_km=phys.span_km)
    instance = make_instance(cost239, ScenarioConfig())

    gap_means = {f: [] for f in range(1, 7)}
    worst_slack = math.inf
    sizes = []
    for seed in range(10):
        routing = crowded_routing(cost239, base, requests, seed)
        sizes.append(len(routing.requests))
        for formulation in range(1, 7):
            scenario = ScenarioConfig(weight_spectrum=3e-9, seed=seed,
                                      formulation=formulation)
            allocation, _ = heuristic.assign(routing, phys, scenario)
            report = validate.validate(
                allocation, routing, replace(instance, scenario=scenario))
            worst_slack = min(worst_slack, min(report.slack))
            gap_means[formulation].append(
                statistics.fmean(report.model_error))
    paired = {f: statistics.fmean(gap_means[f]) for f in gap_means}
    hierarchy = (paired[2] < paired[1] and paired[4] < paired[3]
                 and paired[6] < paired[5])
    elapsed = time.perf_counter() - started
    ok = (all(8 <= n <= 16 for n in sizes) and worst_slack >= 0.95
          and hierarchy and elapsed < 300.0)
    conclude("criterion 7", ok,
             f"worst exact-model slack {worst_slack:.3f} (floor 0.95) over "
             f"10 crowded subinstances x 6 formulations; paired mean model "
             f"gaps order3<order1: "
             f"{paired[2]:.1e}<{paired[1]:.1e}, "
             f"{paired[4]:.1e}<{paired[3]:.1e}, "
             f"{paired[6]:.1e}<{paired[5]:.1e}; {elapsed:.0f}s (cap 300s)")


# -------------------------------------------------------------------------
# 8. full-scale completion log for every formulation
# -------------------------------------------------------------------------

def test_criterion_8_runtime_log_full_scale(cost239):
    topology, demands, phys = cost239
    lines = []
    ok = True
    for formulation in range(1, 7):
        scenario = ScenarioConfig(num_requests=46, seed=0,
                                  formulation=formulation)
        instance = make_instance(cost239, scenario)
        started = time.perf_counter()
        routing, allocation, trace = heuristic.run(instance)
        elapsed = time.perf_counter() - started
        report = validate.validate(allocation, routing, instance)
        ok &= len(routing.requests) == 46 and report.admissible
        lines.append(f"  formulation {formulation}: {elapsed:.2f}s, "
                     f"{trace.iterations} rounding rounds, mean model error "
                     f"{statistics.fmean(report.model_error):.2e}")
    print("\n".join(lines), flush=True)
    conclude("criterion 8", ok,
             "all six formulations completed 46-request runs with "
             "admissible allocations (times above)")


# -------------------------------------------------------------------------
# 9. resource utilization direction under a rising margin floor
# -------------------------------------------------------------------------

def test_criterion_9_margin_sweep_direction(cost239):
    scenario = ScenarioConfig(weight_margin=0.0, num_requests=10, seed=0)
    instance = make_instance(cost239, scenario)
    runs = validate.compare(instance, [replace(scenario, min_margin=margin)
                                       for margin in (1.0, 2.0, 4.0)])
    rates = [run.report.mean_rate_per_resource for run in runs]
    noises = [run.report.total_noise_w for run in runs]
    ok = all(b <= a * (1 + 1e-6) for a, b in zip(rates, rates[1:]))
    conclude("criterion 9", ok,
             "mean rate per resource non-increasing over margin floors "
             f"1/2/4: {rates[0]:.4g} >= {rates[1]:.4g} >= {rates[2]:.4g} "
             f"(noise {noises[0]:.2e} -> {noises[2]:.2e})")


# -------------------------------------------------------------------------
# 10. routing-method comparison on full-scale seeded instances
# -------------------------------------------------------------------------

def test_criterion_10_routing_method_comparison(cost239):
    # Rate-weighted congestion routing is the better routing goal if the
    # whole heuristic then reaches a lower value of what it minimizes:
    # transmit power and spectrum usage, weighed as the scenario weighs them.
    # Total power and total noise alone cannot judge routing here: every
    # efficiency sits on the table floor and amplifier noise dominates, so
    # both totals follow the span count, which shortest paths minimize.
    wins = 0
    rows = []
    for seed in range(10):
        scenario = ScenarioConfig(num_requests=46, seed=seed, formulation=1)
        instance = make_instance(cost239, scenario)
        results = {run.scenario.rto_method: run.report for run in
                   validate.compare(instance, [
                       replace(scenario, rto_method=method)
                       for method in ("spr", "scprr")])}
        goal = {method: scenario.weight_power * report.total_power_w
                + scenario.weight_spectrum * report.spectrum_edge_hz
                for method, report in results.items()}
        win = goal["scprr"] < goal["spr"]
        wins += win
        rows.append(f"  seed {seed}: {'scprr' if win else 'spr'} wins")
        rows.extend(f"    {method:5s} power {report.total_power_w:.3e} W, "
                    f"noise {report.total_noise_w:.3e} W, edge "
                    f"{report.spectrum_edge_hz:.3e} Hz, spans "
                    f"{report.span_usage}, worst slack {min(report.slack):.2f}, "
                    f"J {goal[method]:.4g}"
                    for method, report in results.items())
    print("\n".join(rows), flush=True)
    conclude("criterion 10", wins >= 7,
             f"congestion-rate routing gave a strictly lower power + spectrum "
             f"goal J = weight_power*power + weight_spectrum*edge than "
             f"shortest-path routing on {wins}/10 full-scale seeds (need 7; "
             f"a tie counts for shortest-path routing)")
