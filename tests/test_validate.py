import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from eongp import heuristic, physics as ph, psa, validate
from eongp.model import (
    DEFAULT_MODULATIONS, RTO_METHODS, ConnectionRequest, InstanceError, Link,
    NetworkInstance, NetworkTopology, PhysicsConstants, ScenarioConfig,
    TrafficDemand, derived_constants, load_topology,
)
from eongp.routing import solve_routing

PHYS = PhysicsConstants()


@pytest.fixture(scope="module")
def pair_setup(tmp_path_factory):
    p = tmp_path_factory.mktemp("topo") / "line.txt"
    p.write_text("node a\nnode b\nlink a b 400\n")
    topo = load_topology(p)
    reqs = [ConnectionRequest(0, "a", "b", 100e9),
            ConnectionRequest(1, "a", "b", 100e9)]
    routing = solve_routing(topo, reqs, "spr")
    demands = (TrafficDemand("a", "b", 200e9),)
    inst = NetworkInstance(topo, demands, PHYS, ScenarioConfig())
    return routing, inst


def hand_allocation(spacing_hz=200e9, power=1e-3):
    # two 50 GHz channels with a huge gap and strong launch power
    bw = 50e9
    return psa.Allocation(
        power_w=(power, power),
        center_hz=(100e9, 100e9 + spacing_hz),
        efficiency=(2.0, 2.0),
        margin=(1.0, 1.0),
        bandwidth_hz=(bw, bw),
        spectrum_edge_hz=100e9 + spacing_hz + bw,
        objective=math.nan)


def test_generous_allocation_clean(pair_setup):
    routing, inst = pair_setup
    rep = validate.validate(hand_allocation(), routing, inst)
    assert rep.violations == ()
    assert rep.admissible
    assert all(s > 1 for s in rep.slack)
    assert all(e > 0 for e in rep.exact_osnr)


def test_report_matches_hand_recomputation(pair_setup):
    routing, inst = pair_setup
    alloc = hand_allocation()
    rep = validate.validate(alloc, routing, inst)
    ctx = ph.NoiseContext(routing.span_counts, routing.shared_spans,
                          derived_constants(PHYS))
    channels = [ph.ChannelState(alloc.power_w[q], alloc.center_hz[q],
                                alloc.bandwidth_hz[q])
                for q in range(2)]
    noise = 0.0
    for q in range(2):
        exact = ph.osnr(q, channels, ctx, "exact")
        model = ph.osnr(q, channels, ctx, "approx1")
        assert rep.exact_osnr[q] == pytest.approx(exact, rel=1e-12)
        assert rep.model_osnr[q] == pytest.approx(model, rel=1e-12)
        assert rep.slack[q] == pytest.approx(exact / 3.52, rel=1e-9)
        assert rep.model_error[q] == pytest.approx(
            abs(exact - model) / exact, rel=1e-9)
        noise += alloc.power_w[q] / exact
    assert rep.total_noise_w == pytest.approx(noise, rel=1e-12)
    assert rep.total_power_w == pytest.approx(2e-3)
    assert rep.mean_rate_per_resource == pytest.approx(
        100e9 / (1e-3 * 50e9), rel=1e-12)
    assert rep.span_usage == 10


@pytest.mark.parametrize("ids", [(10, 11), (1, 0)])
def test_rate_per_resource_reads_requests_by_position(pair_setup, ids):
    # the allocation lists requests in routing order, whatever their ids
    routing, inst = pair_setup
    requests = tuple(replace(req, id=i, rate_bps=rate) for req, i, rate
                     in zip(routing.requests, ids, (100e9, 50e9)))
    alloc = replace(hand_allocation(), power_w=(1e-3, 2e-3),
                    bandwidth_hz=(50e9, 40e9))
    rep = validate.validate(alloc, replace(routing, requests=requests), inst)
    assert rep.mean_rate_per_resource == pytest.approx(
        (100e9 / (1e-3 * 50e9) + 50e9 / (2e-3 * 40e9)) / 2, rel=1e-12)


def test_fit_requirement_for_offtable_efficiency(pair_setup):
    routing, inst = pair_setup
    alloc = hand_allocation()
    alloc = psa.Allocation(alloc.power_w, alloc.center_hz, (3.0, 2.0),
                           alloc.margin, alloc.bandwidth_hz,
                           alloc.spectrum_edge_hz, alloc.objective)
    rep = validate.validate(alloc, routing, inst)
    assert rep.required_osnr[0] == pytest.approx(
        ph.required_osnr(3.0, "power_law"))
    assert rep.required_osnr[1] == pytest.approx(3.52)


@pytest.mark.parametrize("eff, entry", [(12.0 - 5e-9, None),
                                        (12.0 + 5e-9, None),
                                        (12.0 + 5e-10, 127.51)])
def test_required_osnr_follows_the_tables_lookup(pair_setup, eff, entry):
    # the table matches an efficiency within an absolute 1e-9; the report
    # takes the table's requirement exactly there and the fit elsewhere
    routing, inst = pair_setup
    rep = validate.validate(replace(hand_allocation(), efficiency=(eff, 2.0)),
                            routing, inst)
    if entry is None:
        with pytest.raises(InstanceError):
            inst.modulations.required_osnr(eff)
        entry = ph.required_osnr(eff, "power_law")
    assert inst.scenario.min_margin == 1.0
    assert rep.required_osnr[0] == pytest.approx(entry, rel=1e-12)


def test_overlap_recorded_not_raised(pair_setup):
    routing, inst = pair_setup
    rep = validate.validate(hand_allocation(spacing_hz=40e9), routing, inst)
    kinds = {v.kind for v in rep.violations}
    assert kinds == {"nonoverlap"}
    link, a, b = rep.violations[0].subject
    assert (a, b) == (0, 1)
    # overlapping pair has no finite exact ratio but the report is complete
    assert all(math.isnan(x) for x in rep.exact_osnr)
    assert len(rep.model_osnr) == 2


@pytest.fixture(scope="module")
def line_setup():
    # a-c shares spans with a-b and with b-c; a-b and b-c share none
    topo = NetworkTopology(("a", "b", "c"), (Link(0, "a", "b", 400.0),
                                             Link(1, "b", "c", 240.0)))
    reqs = [ConnectionRequest(0, "a", "b", 100e9),
            ConnectionRequest(1, "b", "c", 100e9),
            ConnectionRequest(2, "a", "c", 100e9)]
    routing = solve_routing(topo, reqs, "spr")
    demands = tuple(TrafficDemand(r.source, r.dest, r.rate_bps) for r in reqs)
    return routing, NetworkInstance(topo, demands, PHYS, ScenarioConfig())


_EFFS = [eff for eff, _ in DEFAULT_MODULATIONS]
# values no formula of the report can take everywhere: zero, negative,
# not a number, infinite, and ones whose powers underflow or overflow
_EXTREMES = st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf,
                             1e-300, 1e300])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(deadline=None, derandomize=True)
@given(power=st.lists(st.floats(1e-6, 1.0) | _EXTREMES, min_size=3,
                      max_size=3),
       bandwidth=st.lists(st.floats(1e9, 2e11) | _EXTREMES, min_size=3,
                          max_size=3),
       centers=st.lists(st.floats(-1e13, 1e13), min_size=3, max_size=3),
       picks=st.lists(st.integers(0, 2), min_size=3, max_size=3),
       efficiency=st.lists(st.sampled_from(_EFFS) | st.floats(2.0, 12.0)
                           | _EXTREMES, min_size=3, max_size=3),
       formulation=st.integers(1, 6))
def test_validate_never_raises(line_setup, power, bandwidth, centers, picks,
                               efficiency, formulation):
    routing, inst = line_setup
    # requests draw their centers from a pool of three, so repeated picks
    # put channels on one center frequency
    center = tuple(centers[k] for k in picks)
    alloc = psa.Allocation(
        tuple(power), center, tuple(efficiency), (1.0,) * 3, tuple(bandwidth),
        max(w + 0.5 * b for w, b in zip(center, bandwidth)), math.nan)
    rep = validate.validate(alloc, routing, replace(
        inst, scenario=replace(inst.scenario, formulation=formulation)))
    assert len(rep.exact_osnr) == len(rep.model_osnr) == len(rep.slack) == 3
    # a value that cannot be computed is NaN, never a complex number
    for value in (*rep.exact_osnr, *rep.model_osnr, *rep.required_osnr,
                  *rep.slack, *rep.model_error, rep.total_power_w,
                  rep.total_noise_w, rep.mean_rate_per_resource):
        assert isinstance(value, float)
    for q, i in ((0, 2), (1, 2)):
        if center[q] == center[i]:
            # a shared span carries both channels on one center: no OSNR
            # under either model, and the geometry check reports it
            assert math.isnan(rep.exact_osnr[q])
            assert math.isnan(rep.model_osnr[q])
            assert not rep.admissible


def test_guard_shortfall_detected(pair_setup):
    routing, inst = pair_setup
    # bands touch with only half the required guard between them
    rep = validate.validate(hand_allocation(spacing_hz=60e9), routing, inst)
    assert [v.kind for v in rep.violations] == ["nonoverlap"]
    assert rep.violations[0].amount_hz == pytest.approx(10e9)


def test_band_and_edge_violations(pair_setup):
    routing, inst = pair_setup
    alloc = psa.Allocation((1e-3, 1e-3), (20e9, PHYS.band_hz), (2.0, 2.0),
                           (1.0, 1.0), (50e9, 50e9), PHYS.band_hz, math.nan)
    rep = validate.validate(alloc, routing, inst)
    kinds = sorted(v.kind for v in rep.violations)
    assert kinds == ["band", "lower-edge"]


def test_empty_allocation(pair_setup):
    _, inst = pair_setup
    empty = psa.Allocation((), (), (), (), (), 0.0, math.nan)
    topo = inst.topology
    routing = solve_routing(topo, [], "spr")
    rep = validate.validate(empty, routing, inst)
    assert rep.exact_osnr == () and rep.violations == ()
    assert rep.total_power_w == 0.0


def test_size_mismatch_rejected(pair_setup):
    routing, inst = pair_setup
    empty = psa.Allocation((), (), (), (), (), 0.0, math.nan)
    with pytest.raises(InstanceError):
        validate.validate(empty, routing, inst)


def test_solver_output_validates_clean(pair_setup):
    routing, inst = pair_setup
    alloc, _ = heuristic.assign(routing, PHYS, inst.scenario)
    rep = validate.validate(alloc, routing, inst)
    assert rep.violations == ()
    # the margin floor is enforced against the fitted requirement, so the
    # model-side headroom is real even if the table disagrees at low c
    assert all(m >= inst.scenario.min_margin - 1e-6 for m in alloc.margin)


# ---------------------------------------------------------------- oracles

def test_brute_force_guards(pair_setup):
    routing, inst = pair_setup
    five = [ConnectionRequest(i, "a", "b", 100e9) for i in range(5)]
    big = solve_routing(inst.topology, five, "spr")
    with pytest.raises(InstanceError):
        validate.brute_force_psa(big, PHYS, inst.scenario)
    # 20 GHz of band is less than the guard alone, so every efficiency
    # combination fails
    tight = PhysicsConstants(band_thz=0.02)
    with pytest.raises(InstanceError):
        validate.brute_force_psa(routing, tight, inst.scenario)


def test_brute_force_dominates_heuristic(pair_setup):
    routing, inst = pair_setup
    alloc, _ = heuristic.assign(routing, PHYS, inst.scenario)
    oracle, combo = validate.brute_force_psa(routing, PHYS, inst.scenario)
    assert set(combo) == {0, 1}
    assert all(v in (2.0, 4.0, 6.0, 8.0, 10.0, 12.0) for v in combo.values())
    assert oracle.objective <= alloc.objective * (1 + 1e-6)


# ------------------------------------------------------- comparison loop

def test_sweep_margin_mechanics(pair_setup):
    _, inst = pair_setup
    assert validate.compare(inst, []) == []
    runs = validate.compare(inst, [replace(inst.scenario, min_margin=m)
                                   for m in (1.0, 2.0)])
    assert [run.scenario.min_margin for run in runs] == [1.0, 2.0]
    # a higher floor cannot raise the rate carried per unit of power and
    # spectrum
    first, second = (run.report for run in runs)
    assert second.mean_rate_per_resource <= \
        first.mean_rate_per_resource * (1 + 1e-6)
    [single] = validate.compare(inst, [inst.scenario])
    assert single.report.total_power_w == pytest.approx(
        first.total_power_w, rel=1e-6)


def test_compare_rto_mechanics(pair_setup):
    _, inst = pair_setup
    runs = validate.compare(inst, [replace(inst.scenario, rto_method=m)
                                   for m in ("spr", "scprr")])
    assert [run.routing.method for run in runs] == ["spr", "scprr"]
    for run in runs:
        assert len(run.allocation.power_w) == len(run.routing.requests)
        assert run.report.violations == ()
        assert run.trace.method == run.scenario.rto_method
        assert run.runtime_s > 0


def test_compare_routes_once_per_stage_1_key(pair_setup, monkeypatch):
    # stage 1 reads only rto_method, seed and num_requests of a scenario
    _, inst = pair_setup
    methods = []

    def counting(topology, requests, method, **kwargs):
        methods.append(method)
        return solve_routing(topology, requests, method, **kwargs)

    monkeypatch.setattr(heuristic, "solve_routing", counting)
    runs = validate.compare(inst, [replace(inst.scenario, formulation=f)
                                   for f in sorted(psa.FORMULATION_FIT)])
    assert methods == [inst.scenario.rto_method]
    assert all(run.routing is runs[0].routing for run in runs)
    methods.clear()
    validate.compare(inst, [replace(inst.scenario, rto_method=m)
                            for m in RTO_METHODS])
    assert methods == list(RTO_METHODS)


def test_compare_rto_keeps_formulation(pair_setup):
    _, inst = pair_setup
    scenario = replace(inst.scenario, formulation=2, rto_method="scprr")
    [run] = validate.compare(inst, [scenario])
    assert run.scenario is scenario and run.trace.formulation == 2
    expected_inst = replace(inst, scenario=scenario)
    _, expected, _ = heuristic.run(expected_inst)
    assert run.allocation == expected
    assert run.report == validate.validate(expected, run.routing,
                                           expected_inst)
