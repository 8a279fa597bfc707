import math

import pytest
from hypothesis import given, settings, strategies as st

from eongp import gp, heuristic, psa, validate
from eongp.heuristic import HeuristicError, _pick_fixes
from eongp.model import (
    InstanceError, ModulationTable, NetworkInstance, PhysicsConstants,
    ScenarioConfig, TrafficDemand, load_instance, load_topology,
    partition_traffic,
)
from eongp.routing import solve_routing

PHYS = PhysicsConstants()
TABLE = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0]


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    p = tmp_path_factory.mktemp("topo") / "chain.txt"
    p.write_text("node a\nnode b\nnode c\nlink a b 600\nlink b c 100\n")
    topo = load_topology(p)
    reqs = [TrafficDemand("a", "c", 100e9),
            TrafficDemand("a", "c", 100e9),
            TrafficDemand("a", "b", 100e9)]
    return topo, solve_routing(topo, reqs, "spr", span_km=PHYS.span_km)


# ------------------------------------------------------------- window logic

def vars_for(values):
    return {psa.c_var(q): v for q, v in enumerate(values)}


def test_window_snaps_exact_value_immediately():
    batch = _pick_fixes(vars_for([4.0]), [0], TABLE)
    assert [(r.request, r.fixed, r.width) for r in batch] == [(0, 4.0, 0.0)]


def test_window_grows_to_first_hit():
    # 3.97 misses at width 0..0.09 steps and lands on 4 at width 0.1
    batch = _pick_fixes(vars_for([3.97]), [0], TABLE)
    assert [(r.request, r.fixed, r.width) for r in batch] == [(0, 4.0, 0.1)]


def test_window_tie_prefers_smaller_value():
    # 3.0 is equidistant from 2 and 4; the ascending scan stops at 2
    batch = _pick_fixes(vars_for([3.0]), [0], TABLE)
    assert [(r.fixed, r.width) for r in batch] == [(2.0, 1.0)]


def test_window_fixes_whole_batch():
    batch = _pick_fixes(vars_for([2.04, 11.93, 7.0]), [0, 1, 2], TABLE)
    assert [(r.request, r.fixed) for r in batch] == [(0, 2.0), (1, 12.0)]
    assert all(r.width == pytest.approx(0.1) for r in batch)


def test_window_scans_in_given_order():
    batch = _pick_fixes(vars_for([5.0, 6.0]), [1, 0], TABLE)
    assert [r.request for r in batch] == [1]


def reference_fixes(solution_vars, unfixed, candidates):
    # the window recurrence the computed width must reproduce
    width = 0.0
    while True:
        batch = []
        for q in unfixed:
            relaxed = solution_vars[psa.c_var(q)]
            for value in candidates:
                if abs(relaxed - value) <= width + 1e-12:
                    batch.append(heuristic.FixRecord(q, relaxed, value, width))
                    break
        if batch:
            return batch
        width = round(width + heuristic._ROUND_STEP, 12)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), size=st.integers(1, 3))
def test_computed_window_matches_the_recurrence(data, size):
    step = heuristic._ROUND_STEP
    # relaxed values anywhere within 18 of the table, or a whole number of
    # steps off a table value, where the window edge decides
    near_edge = st.builds(lambda v, k, nudge: v + k * step + nudge,
                          st.sampled_from(TABLE), st.integers(-200, 200),
                          st.sampled_from([0.0, 1e-13, -1e-13, 2e-12]))
    values = data.draw(st.lists(st.floats(0.0, 30.0) | near_edge.filter(
        lambda c: 0 <= c <= 30), min_size=size, max_size=size))
    unfixed = data.draw(st.permutations(range(size)))
    assert _pick_fixes(vars_for(values), unfixed, TABLE) == \
        reference_fixes(vars_for(values), unfixed, TABLE)


# ---------------------------------------------------------------- full runs

@pytest.mark.parametrize("formulation", [1, 4, 6])
def test_assign_trace_invariants(chain, formulation):
    _, routing = chain
    scen = ScenarioConfig(formulation=formulation)
    alloc, trace = heuristic.assign(routing, PHYS, scen)
    n = len(routing.requests)
    assert 1 <= trace.iterations <= n
    seen = set()
    previous = trace.relaxed_objective
    for rnd in trace.rounds:
        assert rnd.fixes
        # restriction by fixing can only push the optimum up
        assert rnd.objective >= previous - 1e-6 * abs(previous)
        previous = rnd.objective
        widths = {r.width for r in rnd.fixes}
        assert len(widths) == 1
        width = widths.pop()
        for rec in rnd.fixes:
            assert rec.request not in seen
            seen.add(rec.request)
            assert rec.fixed in TABLE
            dist = abs(rec.relaxed - rec.fixed)
            assert dist <= width + 1e-9
            if width > 0:
                # a narrower window would have missed every batch member
                assert dist > width - heuristic._ROUND_STEP - 1e-9
    assert seen == set(range(n))
    assert trace.final_objective >= previous - 1e-6 * abs(previous)
    assert tuple(alloc.efficiency) == tuple(
        next(r.fixed for rnd in trace.rounds for r in rnd.fixes
             if r.request == q) for q in range(n))


def test_single_request_matches_exhaustive(chain):
    topo, _ = chain
    reqs = [TrafficDemand("a", "c", 100e9)]
    routing = solve_routing(topo, reqs, "spr", span_km=PHYS.span_km)
    scen = ScenarioConfig()
    alloc, trace = heuristic.assign(routing, PHYS, scen)
    oracle, combo = validate.brute_force_psa(routing, PHYS, scen)
    assert alloc.efficiency[0] == combo[0]
    assert alloc.objective == pytest.approx(oracle.objective, rel=1e-6)


def test_three_requests_near_exhaustive(chain):
    _, routing = chain
    scen = ScenarioConfig()
    alloc, _ = heuristic.assign(routing, PHYS, scen)
    oracle, _ = validate.brute_force_psa(routing, PHYS, scen)
    assert oracle.objective <= alloc.objective * (1 + 1e-6)
    assert alloc.objective <= oracle.objective * 1.02


def test_one_entry_table_matches_exhaustive(chain):
    # a one-value table forces every efficiency: assign pins them all
    # before its one solve, and the exhaustive search has one combination
    _, routing = chain
    table = ModulationTable(((4.0, 10.0),))
    scen = ScenarioConfig()
    alloc, trace = heuristic.assign(routing, PHYS, scen, table)
    oracle, combo = validate.brute_force_psa(routing, PHYS, scen, table)
    assert trace.rounds == ()
    assert alloc.efficiency == (4.0,) * 3 and set(combo.values()) == {4.0}
    assert alloc.objective == pytest.approx(oracle.objective, rel=1e-9)


@pytest.fixture
def compiles(monkeypatch):
    """Counts ConvexForm compilations from a program."""
    calls = []
    compile_program = gp.ConvexForm.__init__

    def counting(self, program):
        calls.append(program)
        compile_program(self, program)

    monkeypatch.setattr(gp.ConvexForm, "__init__", counting)
    return calls


def test_rounding_compiles_the_program_once(data_dir, compiles):
    inst = load_instance(str(data_dir / "cost239_topology.txt"),
                         str(data_dir / "cost239_traffic.txt"))
    requests = partition_traffic(inst.demands, 100e9, 6, seed=0)
    routing = solve_routing(inst.topology, requests, "spr",
                            span_km=inst.physics.span_km)
    _, trace = heuristic.assign(routing, inst.physics,
                                ScenarioConfig(weight_spectrum=1e-9))
    assert trace.iterations >= 2
    assert len(compiles) == 1


def test_a_large_program_is_solved_by_superlu(data_dir, monkeypatch):
    # 70 Cost239 requests give Newton systems well above gp._DENSE_MAX
    # rows: the one tier-1 run whose every step goes through SuperLU
    inst = load_instance(str(data_dir / "cost239_topology.txt"),
                         str(data_dir / "cost239_traffic.txt"))
    requests = partition_traffic(inst.demands, 100e9, 70, seed=0)
    routing = solve_routing(inst.topology, requests, "spr",
                            span_km=inst.physics.span_km)
    solves = []
    solve = gp.solve

    def recording(form, x0):
        sol = solve(form, x0)
        solves.append((form.n + 1, form._kkt_perm is not None, sol.status))
        return sol

    monkeypatch.setattr(gp, "solve", recording)
    heuristic.assign(routing, inst.physics, inst.scenario)
    assert solves
    for rows, sparse, status in solves:
        assert rows > gp._DENSE_MAX and sparse and status == "optimal"


def test_brute_force_compiles_the_program_once(chain, compiles):
    topo, _ = chain
    routing = solve_routing(topo, [TrafficDemand("a", "c", 100e9)], "spr",
                            span_km=PHYS.span_km)
    validate.brute_force_psa(routing, PHYS, ScenarioConfig())
    assert len(compiles) == 1


def test_infeasible_band_aborts_with_stage(chain):
    _, routing = chain
    tight = PhysicsConstants(band_thz=0.05)
    with pytest.raises(HeuristicError) as err:
        heuristic.assign(routing, tight, ScenarioConfig())
    assert err.value.stage == "relaxation"
    assert err.value.status == "infeasible"


def test_run_pipeline(chain):
    topo, _ = chain
    demands = (TrafficDemand("a", "c", 250e9), TrafficDemand("a", "b", 100e9))
    inst = NetworkInstance(topo, demands, PHYS, ScenarioConfig())
    routing, alloc, trace = heuristic.run(inst)
    # 250G splits into 100+100+50, plus the single 100G demand
    assert len(routing.requests) == 4
    rates = sorted(r.rate_bps for r in routing.requests)
    assert rates == [50e9, 100e9, 100e9, 100e9]
    assert len(alloc.power_w) == 4
    assert trace.iterations <= 4


def test_run_with_subset_selector(chain):
    topo, _ = chain
    demands = (TrafficDemand("a", "c", 250e9), TrafficDemand("a", "b", 100e9))
    inst = NetworkInstance(topo, demands, PHYS,
                           ScenarioConfig(num_requests=2, seed=7))
    routing, alloc, _ = heuristic.run(inst)
    assert len(routing.requests) == 2
    assert len(alloc.power_w) == 2


def test_run_rejects_empty(chain):
    topo, _ = chain
    inst = NetworkInstance(topo, (), PHYS, ScenarioConfig())
    with pytest.raises(InstanceError):
        heuristic.run(inst)
