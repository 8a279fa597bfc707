import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from eongp import gp, physics as ph, psa
from eongp.model import (
    RTO_METHODS, InstanceError, ModulationTable, PhysicsConstants,
    ScenarioConfig, TrafficDemand, load_instance, load_topology,
    partition_traffic,
)
from eongp.routing import solve_routing

PHYS = PhysicsConstants()


@pytest.fixture(scope="module")
def chain_routing(tmp_path_factory):
    # two links in a row; r0 and r1 ride both, r2 only the long one
    p = tmp_path_factory.mktemp("topo") / "chain.txt"
    p.write_text("node a\nnode b\nnode c\nlink a b 600\nlink b c 100\n")
    topo = load_topology(p)
    reqs = [TrafficDemand("a", "c", 100e9),
            TrafficDemand("a", "c", 100e9),
            TrafficDemand("a", "b", 100e9)]
    return solve_routing(topo, reqs, "spr", span_km=80.0)


def test_fixture_geometry(chain_routing):
    assert chain_routing.span_counts == (10, 10, 8)
    assert chain_routing.partners == (((1, 10), (2, 8)), ((0, 10), (2, 8)),
                                      ((0, 8), (1, 8)))
    assert chain_routing.order == (0, 1, 2)


def test_program_inventory(chain_routing):
    scen = ScenarioConfig()
    prog = psa.build_program(chain_routing, PHYS, scen)
    pairs = chain_routing.pairs
    # all three requests pairwise share spans: one d per unordered pair
    assert pairs == ((0, 1), (0, 2), (1, 2))
    want_vars = {f"{k}[{q}]" for k in "pwcm" for q in range(3)} \
        | {"d[0,1]", "d[0,2]", "d[1,2]"} | {"tau"}
    assert set(prog.variables) == want_vars
    assert psa.d_var(2, 1) == psa.d_var(1, 2) == "d[1,2]"
    names = [n for n, _ in prog.constraints]
    # adjacency (0,1) appears on both links but yields one row
    assert names.count("order[0,1]") == 1
    assert sorted(n for n in names if n.startswith("order")) == \
        ["order[0,1]", "order[1,2]"]
    for q in range(3):
        for stem in ("qos", "ceiling", "edge", "floor", "cfloor", "cceil"):
            assert f"{stem}[{q}]" in names
    assert "band" in names
    assert sorted(n for n in names if n.startswith("gap")) == \
        ["gap[0,1]", "gap[0,2]", "gap[1,2]"]
    # the goal weighs each pair's one distance twice, once per member
    spacing = [t for t in prog.objective.terms
               if t.exponents[0][0].startswith("d[")]
    assert [(t.coef, t.exponents) for t in spacing] == \
        [(2 * scen.weight_spacing, ((psa.d_var(q, i), -1.0),))
         for q, i in pairs]
    # the fractional fit adds one auxiliary variable and row per request
    prog5 = psa.build_program(chain_routing, PHYS,
                              replace(scen, formulation=5))
    assert set(prog5.variables) - want_vars == {"t[0]", "t[1]", "t[2]"}
    assert sum(n.startswith("aux") for n, _ in prog5.constraints) == 3


def test_one_distance_per_span_sharing_pair_on_cost239(data_dir):
    # Cost239, 46 requests, formulation 1: p, w, c and m per request, tau,
    # and one d and one gap row per unordered pair of requests whose paths
    # share a link, read by both members' quality rows in ascending order
    inst = load_instance(str(data_dir / "cost239_topology.txt"),
                         str(data_dir / "cost239_traffic.txt"))
    requests = partition_traffic(inst.demands, 100e9, 46, seed=0)
    routing = solve_routing(inst.topology, requests, "spr",
                            span_km=inst.physics.span_km)
    prog = psa.build_program(routing, inst.physics, inst.scenario)
    q = len(requests)
    pairs = [(a, b) for a in range(q) for b in range(a + 1, q)
             if set(routing.paths[a]) & set(routing.paths[b])]
    assert list(routing.pairs) == pairs
    assert len(prog.variables) == 4 * q + 1 + len(pairs)
    assert [v for v in prog.variables if v.startswith("d[")] == \
        [psa.d_var(a, b) for a, b in pairs]
    assert [name for name, _ in prog.constraints if name.startswith("gap")] \
        == [f"gap[{a},{b}]" for a, b in pairs]
    rates = [r.rate_bps for r in requests]
    ctx = ph.NoiseContext(routing.span_counts, routing.partners,
                          inst.physics)
    for a in range(q):
        partners = [b for b in range(q) if (min(a, b), max(a, b)) in pairs]
        # amplifier and self terms, then one cross term per partner
        xci = psa.noise_bracket(a, rates, ctx, 1)[2:]
        assert [exps[-1][0] for _, exps in xci] == \
            [psa.d_var(a, b) for b in partners]
        qos = dict(prog.constraints)[f"qos[{a}]"]
        assert {v for v in qos.variables if v.startswith("d[")} == \
            {psa.d_var(a, b) for b in partners}


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
    for q, i in routing.pairs:
        point[psa.d_var(q, i)] = abs(point[psa.w_var(q)] - point[psa.w_var(i)])
    point[psa.TAU] = 1e12
    return point


def hand_bracket(q, power, bandwidth, center, routing, order):
    """Request q's approximate noise over its power, written out:
    ase*s*b/p + kerr*shape*s*p^2 + sum over span-sharing i of
    0.4343*kerr*n*p_i^2/(b_i*d), plus 0.0411*kerr*n*p_i^2*b_i/d^3 at
    order 3."""
    s = routing.span_counts[q]
    total = PHYS.ase * s * bandwidth[q] / power[q] \
        + PHYS.kerr * PHYS.sci_shape * s * power[q] ** 2
    for i, n in routing.partners[q]:
        d = abs(center[q] - center[i])
        total += 0.4343 * PHYS.kerr * n * power[i] ** 2 / (bandwidth[i] * d)
        if order == 3:
            total += 0.0411 * PHYS.kerr * n * power[i] ** 2 * bandwidth[i] \
                / d ** 3
    return total


@pytest.mark.parametrize("formulation", [1, 2, 3, 4, 5, 6])
def test_qos_matches_physics_model(chain_routing, formulation):
    # the program's quality rows must equal margin * fit(c) * noise/p with
    # the approximate noise written out by hand at the same operating point
    scen = ScenarioConfig(formulation=formulation)
    prog = psa.build_program(chain_routing, PHYS, scen)
    point = point_for(chain_routing)
    power = [point[psa.p_var(q)] for q in range(3)]
    center = [point[psa.w_var(q)] for q in range(3)]
    bandwidth = [chain_routing.requests[q].rate_bps / point[psa.c_var(q)]
                 for q in range(3)]
    order = psa.FORMULATION_ORDER[formulation]
    fit = psa.FORMULATION_FIT[formulation]
    for q in range(3):
        want = point[psa.m_var(q)] * ph.required_osnr(point[psa.c_var(q)], fit) \
            * hand_bracket(q, power, bandwidth, center, chain_routing, order)
        got = dict(prog.constraints)[f"qos[{q}]"].value(point)
        assert got == pytest.approx(want, rel=1e-9)


# ------------------------------------------------------------ noise bracket

def bracket_at(q, chs, ctx, order=1, eff=4.0):
    """Request q's bracket terms over the channel states `chs` (each rate
    bandwidth * eff) and the point they give, each d the actual gap."""
    rates = [ch.bandwidth_hz * eff for ch in chs]
    terms = psa.noise_bracket(q, rates, ctx, order)
    point = {psa.d_var(q, i): abs(chs[q].center_hz - ch.center_hz)
             for i, ch in enumerate(chs) if i != q}
    for i, ch in enumerate(chs):
        point[psa.p_var(i)] = ch.power_w
        point[psa.c_var(i)] = eff
    return terms, point


def noise_w(terms, point, q, reading=None):
    """p[q] times the terms (those with variable `reading` only) at point:
    the noise power they stand for."""
    return point[psa.p_var(q)] * sum(
        coef * math.prod(point[v] ** e for v, e in exps)
        for coef, exps in terms
        if reading is None or reading in dict(exps))


def ctx_for(span_counts, shared={}):
    """A context whose pairs q < i in `shared` share that many spans."""
    both = {**shared, **{(i, q): n for (q, i), n in shared.items()}}
    return ph.NoiseContext(tuple(span_counts), tuple(
        tuple((i, both[q, i]) for i in range(len(span_counts))
              if (q, i) in both) for q in range(len(span_counts))), PHYS)


def test_bracket_xci_accuracy():
    # bandwidth/spacing = 0.1: the linear kernel underestimates by under
    # half a percent, the cubic one is within a tenth of a percent
    chs = [ph.ChannelState(2e-3, 400e9, 25e9),
           ph.ChannelState(3e-3, 200e9, 20e9)]
    ctx = ctx_for([4, 3], {(0, 1): 3})
    exact = ph.xci_exact(0, chs, ctx)
    d = psa.d_var(0, 1)
    a1 = noise_w(*bracket_at(0, chs, ctx, order=1), 0, reading=d)
    a3 = noise_w(*bracket_at(0, chs, ctx, order=3), 0, reading=d)
    assert abs(a1 / exact - 1) < 0.005
    assert abs(a3 / exact - 1) < 0.001
    assert a1 < exact
    # without a common span the pair does not interact
    terms, _ = bracket_at(0, chs, ctx_for([4, 3]), order=3)
    assert not [t for t in terms if d in dict(t[1])]


def test_bracket_sci_overshoot_depends_on_bandwidth():
    # the monomial self interference takes asinh(x) ~ x, which never
    # undershoots; the argument is about 1.24 at 25 GHz
    ctx = ctx_for([5])
    rel = {}
    for bw in (25e9, 8.34e9):
        chs = [ph.ChannelState(2e-3, 200e9, bw)]
        terms, point = bracket_at(0, chs, ctx)
        sci = [t for t in terms if t[1] == [(psa.p_var(0), 2.0)]]
        rel[bw] = noise_w(sci, point, 0) / ph.sci_exact(0, chs, ctx) - 1
    assert 0.18 < rel[25e9] < 0.20
    assert 0.0 < rel[8.34e9] < 0.005


def test_bracket_osnr_close_with_roomy_spacing():
    # linear XCI undershoots and monomial SCI overshoots; with amplifier
    # noise dominating, the approximate OSNR stays within 2 percent
    chs = [ph.ChannelState(1e-3, 300e9, 10e9),
           ph.ChannelState(1e-3, 200e9, 10e9)]
    ctx = ctx_for([5, 4], {(0, 1): 2})
    model = chs[0].power_w / noise_w(*bracket_at(0, chs, ctx), 0)
    assert abs(model / ph.osnr(0, chs, ctx) - 1) < 0.02


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
    assert dict(prog.constraints)["order[0,1]"].value(point) == \
        pytest.approx(want, rel=1e-12)
    # one gap row per unordered pair caps its distance by the true center
    # gap: exactly 1 here
    gaps = [name for name, _ in prog.constraints if name.startswith("gap")]
    assert gaps == [f"gap[{q},{i}]" for q, i in chain_routing.pairs]
    for q, i in chain_routing.pairs:
        assert q < i
        assert dict(prog.constraints)[f"gap[{q},{i}]"].value(point) == \
            pytest.approx(1.0, rel=1e-12)


def bandwidths(alloc, routing):
    """Each request's bandwidth, its rate over its efficiency."""
    return [req.rate_bps / c
            for req, c in zip(routing.requests, alloc.efficiency)]


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
    bw = bandwidths(alloc, chain_routing)
    n = 3
    for q in range(n):
        assert 2.0 - 1e-6 <= alloc.efficiency[q] <= 12.0 + 1e-6
        assert alloc.margin[q] >= 1.0 - 1e-6
        assert alloc.power_w[q] > 0
        # channel fits above zero and under the band edge
        assert alloc.center_hz[q] - 0.5 * bw[q] >= -1.0
        assert alloc.center_hz[q] + 0.5 * bw[q] <= \
            alloc.spectrum_edge_hz * (1 + 1e-9)
    # adjacent channels on the shared link keep their guard distance
    seq = dict(chain_routing.link_order)[0]
    for x, y in zip(seq, seq[1:]):
        gapw = alloc.center_hz[y] - alloc.center_hz[x]
        need = 0.5 * bw[x] + PHYS.guard_hz + 0.5 * bw[y]
        assert gapw >= need - 1.0


def test_distance_variables_tight_at_optimum(chain_routing):
    prog, sol = solve_chain(chain_routing, 1)
    for q, i in chain_routing.pairs:
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
    for q in range(3):
        model = 1.0 / hand_bracket(q, alloc.power_w,
                                   bandwidths(alloc, chain_routing),
                                   alloc.center_hz, chain_routing, 1)
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


def test_values_beyond_float_range_are_rejected(chain_routing):
    # a finite guard band whose stacked channels overflow the warm start
    wide = PhysicsConstants(guard_ghz=5e298)
    with pytest.raises(InstanceError, match="warm start"):
        psa.warm_start(chain_routing, wide, ScenarioConfig())
    # a finite Kerr scale whose cubic interference coefficient overflows
    kerr = PhysicsConstants(nonlinear_per_w_km=1e141)
    psa.build_program(chain_routing, kerr, ScenarioConfig(formulation=1))
    with pytest.raises(InstanceError, match="coefficient inf"):
        psa.build_program(chain_routing, kerr, ScenarioConfig(formulation=2))


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


def test_problem_kinds_follow_the_method_and_formulation_tables():
    # sizes.csv lists the kinds in this order
    assert psa.PROBLEM_KINDS == (*RTO_METHODS, "minlp", *(
        f"gpsa{f}" for f in sorted(psa.FORMULATION_FIT)))
    assert psa.PROBLEM_KINDS == ("spr", "scpr", "scprr", "minlp", "gpsa1",
                                 "gpsa2", "gpsa3", "gpsa4", "gpsa5", "gpsa6")


# ------------------------------------------------------------ warm start

@pytest.fixture(scope="module")
def cost239(data_dir):
    return load_instance(str(data_dir / "cost239_topology.txt"),
                         str(data_dir / "cost239_traffic.txt"))


def cost239_routing(inst, num_requests, seed):
    requests = partition_traffic(inst.demands, inst.physics.capacity_bps,
                                 num_requests, seed)
    return solve_routing(inst.topology, requests, "spr",
                         span_km=inst.physics.span_km, seed=seed)


def test_cost239_relaxation_starts_strictly_feasible(cost239):
    # 90 requests (one full_scale half in size): the first-fit start fits
    # in the band and the relaxation runs no phase 1
    routing = cost239_routing(cost239, 90, 0)
    prog = psa.build_program(routing, cost239.physics, cost239.scenario)
    sol = gp.solve(prog, psa.warm_start(routing, cost239.physics,
                                        cost239.scenario))
    assert sol.status == "optimal"
    assert sol.phase1_iterations == 0 < sol.iterations


@settings(max_examples=25, deadline=None)
@given(num_requests=st.integers(1, 90), seed=st.integers(0, 1000),
       formulation=st.integers(1, 6), band_thz=st.sampled_from([0.5, 2.0]))
def test_warm_start_meets_its_structural_rows_strictly(
        cost239, num_requests, seed, formulation, band_thz):
    physics = replace(cost239.physics, band_thz=band_thz)
    scen = replace(cost239.scenario, formulation=formulation)
    routing = cost239_routing(cost239, num_requests, seed)
    prog = psa.build_program(routing, physics, scen)
    x0 = psa.warm_start(routing, physics, scen)
    rates = [r.rate_bps for r in routing.requests]
    top = max(x0[psa.w_var(q)] + 0.5 * rates[q] / x0[psa.c_var(q)]
              for q in range(len(rates)))
    strict = ("order", "gap", "edge", "floor")
    if top < physics.band_hz:
        strict += ("ceiling", "band")
    for name, posy in prog.constraints:
        if name.startswith(strict):
            assert posy.value(x0) < 1.0, name
