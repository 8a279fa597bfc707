import math
from dataclasses import replace

import numpy as np
import pytest

from eongp import gp, physics as ph, psa
from eongp.model import (
    ConnectionRequest, InstanceError, ModulationTable, PhysicsConstants,
    ScenarioConfig, derived_constants, load_topology,
)
from eongp.routing import solve_routing

PHYS = PhysicsConstants()
DER = derived_constants(PHYS)


@pytest.fixture(scope="module")
def chain_routing(tmp_path_factory):
    # two links in a row; r0 and r1 ride both, r2 only the long one
    p = tmp_path_factory.mktemp("topo") / "chain.txt"
    p.write_text("node a\nnode b\nnode c\nlink a b 600\nlink b c 100\n")
    topo = load_topology(p)
    reqs = [ConnectionRequest(0, "a", "c", 100e9),
            ConnectionRequest(1, "a", "c", 100e9),
            ConnectionRequest(2, "a", "b", 100e9)]
    return solve_routing(topo, reqs, "spr")


def test_fixture_geometry(chain_routing):
    assert chain_routing.span_counts == (10, 10, 8)
    assert chain_routing.shared_spans[0, 1] == 10
    assert chain_routing.shared_spans[0, 2] == 8
    assert chain_routing.order == (0, 1, 2)


def test_program_inventory(chain_routing):
    scen = ScenarioConfig()
    prog = psa.build_program(chain_routing, PHYS, scen)
    pairs = psa.shared_pairs(chain_routing)
    assert len(pairs) == 6  # all three requests pairwise share spans
    want_vars = {f"{k}[{q}]" for k in "pwcm" for q in range(3)} \
        | {f"d[{q},{i}]" for q, i in pairs} | {"tau"}
    assert set(prog.variables) == want_vars
    names = [n for n, _ in prog.constraints]
    # adjacency (0,1) appears on both links but yields one row
    assert names.count("order[0,1]") == 1
    assert sorted(n for n in names if n.startswith("order")) == \
        ["order[0,1]", "order[1,2]"]
    for q in range(3):
        for stem in ("qos", "ceiling", "edge", "floor", "cfloor", "cceil"):
            assert f"{stem}[{q}]" in names
    assert "band" in names
    assert sum(n.startswith("gap") for n in names) == 6
    # the fractional fit adds one auxiliary variable and row per request
    prog5 = psa.build_program(chain_routing, PHYS,
                              replace(scen, formulation=5))
    assert set(prog5.variables) - want_vars == {"t[0]", "t[1]", "t[2]"}
    assert sum(n.startswith("aux") for n, _ in prog5.constraints) == 3


def test_clamp_rows_optional(chain_routing):
    scen = ScenarioConfig(clamp_efficiency=False)
    prog = psa.build_program(chain_routing, PHYS, scen)
    assert not any(n.startswith("cfloor") or n.startswith("cceil")
                   for n, _ in prog.constraints)


def point_for(routing, eff=4.0, power=3e-4, base_hz=40e9, step_hz=75e9):
    """A consistent positive point: distances equal actual center gaps."""
    n = len(routing.requests)
    point = {}
    for k, q in enumerate(routing.order):
        point[psa.p_var(q)] = power * (1 + 0.1 * q)
        point[psa.w_var(q)] = base_hz + k * step_hz
        point[psa.c_var(q)] = eff + 0.2 * q
        point[psa.m_var(q)] = 1.5
        point[psa.t_var(q)] = 1.0 + ph.OSNR_BINOM_SLOPE * point[psa.c_var(q)]
    for q, i in psa.shared_pairs(routing):
        point[psa.d_var(q, i)] = abs(point[psa.w_var(q)] - point[psa.w_var(i)])
    point[psa.TAU] = 1e12
    return point


@pytest.mark.parametrize("formulation", [1, 2, 3, 4, 5, 6])
def test_qos_matches_physics_model(chain_routing, formulation):
    # the program's quality rows must equal margin * fit(c) * noise/p with
    # noise evaluated by the physics module at the same operating point
    scen = ScenarioConfig(formulation=formulation)
    prog = psa.build_program(chain_routing, PHYS, scen)
    point = point_for(chain_routing)
    ctx = ph.NoiseContext(chain_routing.span_counts,
                          chain_routing.shared_spans, DER)
    channels = [ph.ChannelState(point[psa.p_var(q)], point[psa.w_var(q)],
                                chain_routing.requests[q].rate_bps
                                / point[psa.c_var(q)])
                for q in range(3)]
    order = psa.FORMULATION_ORDER[formulation]
    fit = psa.FORMULATION_FIT[formulation]
    for q in range(3):
        noise = (ph.ase(q, channels, ctx)
                 + ph.sci_approx(q, channels, ctx)
                 + ph.xci_approx(q, channels, ctx, order=order))
        want = point[psa.m_var(q)] * ph.required_osnr(point[psa.c_var(q)], fit) \
            * noise / point[psa.p_var(q)]
        got = prog.constraint(f"qos[{q}]").value(point)
        assert got == pytest.approx(want, rel=1e-9)


def test_binomial_expansion_is_exact():
    for c in (2.0, 5.5, 9.0, 12.0):
        total = sum(math.comb(10, j) * (ph.OSNR_BINOM_SLOPE * c) ** j
                    for j in range(11))
        assert total == pytest.approx((1 + ph.OSNR_BINOM_SLOPE * c) ** 10,
                                      rel=1e-12)


def test_order_and_gap_row_structure(chain_routing):
    scen = ScenarioConfig()
    prog = psa.build_program(chain_routing, PHYS, scen)
    point = point_for(chain_routing)
    # nonoverlap row value matches its definition
    a, b = 0, 1
    ra = chain_routing.requests[a].rate_bps
    rb = chain_routing.requests[b].rate_bps
    want = (point[psa.w_var(a)] + 0.5 * ra / point[psa.c_var(a)] + PHYS.guard_hz
            + 0.5 * rb / point[psa.c_var(b)]) / point[psa.w_var(b)]
    assert prog.constraint("order[0,1]").value(point) == \
        pytest.approx(want, rel=1e-12)
    # gap rows cap the distance by the true center gap: exactly 1 here
    for q, i in psa.shared_pairs(chain_routing):
        assert prog.constraint(f"gap[{q},{i}]").value(point) == \
            pytest.approx(1.0, rel=1e-12)


def solve_chain(chain_routing, formulation, scen=None):
    scen = replace(scen or ScenarioConfig(), formulation=formulation)
    prog = psa.build_program(chain_routing, PHYS, scen)
    x0 = psa.warm_start(chain_routing, PHYS, scen)
    return prog, gp.solve(prog, x0)


@pytest.mark.parametrize("formulation", [1, 3, 5])
def test_solved_allocation_is_physical(chain_routing, formulation):
    prog, sol = solve_chain(chain_routing, formulation)
    assert sol.status == "optimal"
    alloc = psa.extract(sol.variables, chain_routing, sol.objective)
    n = 3
    for q in range(n):
        assert 2.0 - 1e-6 <= alloc.efficiency[q] <= 12.0 + 1e-6
        assert alloc.margin[q] >= 1.0 - 1e-6
        assert alloc.power_w[q] > 0
        # channel fits above zero and under the band edge
        assert alloc.center_hz[q] - 0.5 * alloc.bandwidth_hz[q] >= -1.0
        assert alloc.center_hz[q] + 0.5 * alloc.bandwidth_hz[q] <= \
            alloc.spectrum_edge_hz * (1 + 1e-9)
    # adjacent channels on the shared link keep their guard distance
    seq = dict(chain_routing.link_order)[0]
    for x, y in zip(seq, seq[1:]):
        gapw = alloc.center_hz[y] - alloc.center_hz[x]
        need = 0.5 * alloc.bandwidth_hz[x] + PHYS.guard_hz \
            + 0.5 * alloc.bandwidth_hz[y]
        assert gapw >= need - 1.0


def test_distance_variables_tight_at_optimum(chain_routing):
    prog, sol = solve_chain(chain_routing, 1)
    for q, i in psa.shared_pairs(chain_routing):
        gap = abs(sol.variables[psa.w_var(q)] - sol.variables[psa.w_var(i)])
        assert sol.variables[psa.d_var(q, i)] == pytest.approx(gap, rel=1e-5)


def test_aux_variable_tight_at_optimum(chain_routing):
    prog, sol = solve_chain(chain_routing, 5)
    for q in range(3):
        want = 1.0 + ph.OSNR_BINOM_SLOPE * sol.variables[psa.c_var(q)]
        assert sol.variables[psa.t_var(q)] == pytest.approx(want, rel=1e-5)


def test_margin_equals_model_headroom(chain_routing):
    # the quality row is tight at the optimum, so the margin variable must
    # equal model OSNR divided by the fitted requirement
    prog, sol = solve_chain(chain_routing, 1)
    alloc = psa.extract(sol.variables, chain_routing, sol.objective)
    ctx = ph.NoiseContext(chain_routing.span_counts,
                          chain_routing.shared_spans, DER)
    channels = [ph.ChannelState(alloc.power_w[q], alloc.center_hz[q],
                                alloc.bandwidth_hz[q])
                for q in range(3)]
    for q in range(3):
        model = ph.osnr(q, channels, ctx, "approx1")
        need = ph.required_osnr(alloc.efficiency[q], "power_law")
        assert alloc.margin[q] == pytest.approx(model / need, rel=1e-4)


def test_warm_start_feasible_and_deterministic(chain_routing):
    scen = ScenarioConfig()
    prog = psa.build_program(chain_routing, PHYS, scen)
    x0 = psa.warm_start(chain_routing, PHYS, scen)
    cons = [posy.value(x0) for _, posy in prog.constraints]
    assert max(cons) < 1.0  # strictly feasible: phase 1 skipped
    one = gp.solve(prog, x0)
    two = gp.solve(prog, x0)
    assert one.variables == two.variables and one.status == "optimal"


def test_band_too_small_is_infeasible(chain_routing):
    tight = PhysicsConstants(band_thz=0.05)
    prog = psa.build_program(chain_routing, tight, ScenarioConfig())
    x0 = psa.warm_start(chain_routing, tight, ScenarioConfig())
    assert gp.solve(prog, x0).status == "infeasible"


def test_all_zero_weights_rejected(chain_routing):
    scen = ScenarioConfig(weight_spectrum=0.0, weight_power=0.0,
                          weight_margin=0.0, weight_spacing=0.0)
    with pytest.raises(InstanceError):
        psa.build_program(chain_routing, PHYS, scen)
    with pytest.raises(InstanceError):
        psa.build_program(chain_routing, PHYS, ScenarioConfig(formulation=9))


# ---------------------------------------------------------------- sizes

def test_size_formulas():
    # allocation program families at a small, a medium and a full instance
    for q, l in ((1, 4), (10, 20), (46, 52)):
        assert psa.formulation_size("minlp", q, l) == \
            (4 * q + 1, 3 * q + q * l + 1)
        for k in range(1, 5):
            assert psa.formulation_size(f"gpsa{k}", q, l) == \
                (q * q + 4 * q + 1, 3 * q + 3 * q * l + 1)
        for k in (5, 6):
            assert psa.formulation_size(f"gpsa{k}", q, l) == \
                (q * q + 5 * q + 1, 4 * q + 3 * q * l + 1)
    # spot values
    assert psa.formulation_size("gpsa1", 46, 52)[0] == 2301
    assert psa.formulation_size("minlp", 46, 52)[0] == 185
    assert psa.formulation_size("minlp", 1, 52) == (5, 56)
    assert psa.formulation_size("spr", 46, 52, 11) == \
        (46 * 52, 2 * 46 + 46 * 11)
    with pytest.raises(InstanceError):
        psa.formulation_size("qkd", 3, 3)
    for counts in ((-3, 0, 0), (1, -1, 0), (1, 4, -2)):
        with pytest.raises(InstanceError):
            psa.formulation_size("spr", *counts)
