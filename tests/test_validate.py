import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from eongp import heuristic, physics as ph, psa, validate
from eongp.model import (
    DEFAULT_MODULATIONS, RTO_METHODS, InstanceError, Link, NetworkInstance,
    NetworkTopology, PhysicsConstants, ScenarioConfig, TrafficDemand,
    load_topology,
)
from eongp.routing import solve_routing

PHYS = PhysicsConstants()


@pytest.fixture(scope="module")
def pair_setup(tmp_path_factory):
    p = tmp_path_factory.mktemp("topo") / "line.txt"
    p.write_text("node a\nnode b\nlink a b 400\n")
    topo = load_topology(p)
    reqs = [TrafficDemand("a", "b", 100e9),
            TrafficDemand("a", "b", 100e9)]
    routing = solve_routing(topo, reqs, "spr", span_km=PHYS.span_km)
    demands = (TrafficDemand("a", "b", 200e9),)
    inst = NetworkInstance(topo, demands, PHYS, ScenarioConfig())
    return routing, inst


def hand_allocation(spacing_hz=200e9, power=1e-3):
    # two 50 GHz channels (100 Gb/s at 2 bit/s/Hz) with a huge gap and
    # strong launch power
    return psa.Allocation(
        power_w=(power, power),
        center_hz=(100e9, 100e9 + spacing_hz),
        efficiency=(2.0, 2.0),
        margin=(1.0, 1.0),
        spectrum_edge_hz=100e9 + spacing_hz + 50e9,
        objective=math.nan)


def channels_of(alloc, routing):
    """The allocation's channel states, each bandwidth rate/efficiency."""
    return [ph.ChannelState(p, w, req.rate_bps / c) for p, w, c, req
            in zip(alloc.power_w, alloc.center_hz, alloc.efficiency,
                   routing.requests)]


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
    ctx = ph.NoiseContext(routing.span_counts, routing.partners, PHYS)
    channels = channels_of(alloc, routing)
    assert [ch.bandwidth_hz for ch in channels] == [50e9, 50e9]
    noise = 0.0
    for q in range(2):
        exact = ph.osnr(q, channels, ctx)
        # formulation 1's approximate model, written out: amplifier noise,
        # monomial self interference, linear-kernel cross interference
        s, ((_, n),) = routing.span_counts[q], routing.partners[q]
        p, b, i = alloc.power_w[q], channels[q].bandwidth_hz, 1 - q
        d = abs(alloc.center_hz[q] - alloc.center_hz[i])
        model = p / (PHYS.ase * s * b + PHYS.kerr * PHYS.sci_shape * s * p ** 3
                     + 0.4343 * PHYS.kerr * n * p * alloc.power_w[i] ** 2
                     / (channels[i].bandwidth_hz * d))
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


@pytest.mark.parametrize("ids", [(0, 1), (1, 0)])
def test_rate_per_resource_reads_requests_by_position(pair_setup, ids):
    # a request's id is its position: the allocation lists requests in
    # routing order, so each rate pairs with the entry at the position it
    # is put in, and so does the bandwidth rate/efficiency derived from it
    routing, inst = pair_setup
    rates = [0.0, 0.0]
    for q, rate in zip(ids, (100e9, 50e9)):
        rates[q] = rate
    requests = tuple(replace(req, rate_bps=rate) for req, rate
                     in zip(routing.requests, rates))
    routing = replace(routing, requests=requests)
    power, eff = (1e-3, 2e-3), (2.0, 1.25)
    alloc = replace(hand_allocation(), power_w=power, efficiency=eff)
    rep = validate.validate(alloc, routing, inst)
    bw = [r / c for r, c in zip(rates, eff)]
    assert rep.mean_rate_per_resource == pytest.approx(
        sum(r / (p * b) for r, p, b in zip(rates, power, bw)) / 2, rel=1e-12)
    ctx = ph.NoiseContext(routing.span_counts, routing.partners, PHYS)
    channels = channels_of(alloc, routing)
    assert [ch.bandwidth_hz for ch in channels] == bw
    assert rep.exact_osnr == tuple(ph.osnr(q, channels, ctx)
                                   for q in range(2))


def test_fit_requirement_for_offtable_efficiency(pair_setup):
    # the exact check reads the table only: an efficiency off its entries
    # has no requirement, so its required OSNR and slack read NaN
    routing, inst = pair_setup
    alloc = replace(hand_allocation(), efficiency=(3.0, 2.0))
    rep = validate.validate(alloc, routing, inst)
    assert math.isnan(rep.required_osnr[0]) and math.isnan(rep.slack[0])
    assert rep.required_osnr[1] == pytest.approx(3.52)


@pytest.mark.parametrize("eff, entry", [(12.0 - 5e-9, None),
                                        (12.0 + 5e-9, None),
                                        (12.0 + 5e-10, 127.51)])
def test_required_osnr_follows_the_tables_lookup(pair_setup, eff, entry):
    # the table matches an efficiency within an absolute 1e-9; the report
    # takes the table's requirement exactly there and NaN elsewhere
    routing, inst = pair_setup
    rep = validate.validate(replace(hand_allocation(), efficiency=(eff, 2.0)),
                            routing, inst)
    assert inst.scenario.min_margin == 1.0
    if entry is None:
        with pytest.raises(InstanceError):
            inst.modulations.required_osnr(eff)
        assert math.isnan(rep.required_osnr[0]) and math.isnan(rep.slack[0])
    else:
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


@pytest.mark.parametrize("formulation", [1, 2])
def test_coincident_centers_read_nan(line_setup, formulation):
    # a-b and b-c share no span, so one center is no overlap for them; a-b
    # and a-c share one, and on one center neither model has an OSNR there
    routing, inst = line_setup
    inst = replace(inst, scenario=replace(inst.scenario,
                                          formulation=formulation))
    alloc = psa.Allocation((1e-3,) * 3, (100e9, 100e9, 300e9), (2.0,) * 3,
                           (1.0,) * 3, 350e9, math.nan)
    rep = validate.validate(alloc, routing, inst)
    assert all(0 < x < math.inf for x in rep.exact_osnr + rep.model_osnr)
    rep = validate.validate(replace(alloc, center_hz=(100e9, 300e9, 100e9)),
                            routing, inst)
    for osnr in (rep.exact_osnr, rep.model_osnr):
        assert math.isnan(osnr[0]) and math.isnan(osnr[2])
        assert 0 < osnr[1] < math.inf


@pytest.fixture(scope="module")
def line_setup():
    # a-c shares spans with a-b and with b-c; a-b and b-c share none
    topo = NetworkTopology(("a", "b", "c"), (Link("a", "b", 400.0),
                                             Link("b", "c", 240.0)))
    reqs = [TrafficDemand("a", "b", 100e9),
            TrafficDemand("b", "c", 100e9),
            TrafficDemand("a", "c", 100e9)]
    routing = solve_routing(topo, reqs, "spr", span_km=PHYS.span_km)
    return routing, NetworkInstance(topo, tuple(reqs), PHYS, ScenarioConfig())


_EFFS = [eff for eff, _ in DEFAULT_MODULATIONS]
# values no formula of the report can take everywhere: zero, negative,
# not a number, infinite, and ones whose powers underflow or overflow
_EXTREMES = st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf,
                             1e-300, 1e300])
# efficiencies whose bandwidths rate/efficiency are extreme too: NaN (for
# a zero, negative or non-finite efficiency), inf at 1e-300, tiny at 1e300,
# and at 1e-289 a finite 1e300 Hz whose square overflows
_EXTREME_EFFS = _EXTREMES | st.just(1e-289)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(deadline=None, derandomize=True)
@given(power=st.lists(st.floats(1e-6, 1.0) | _EXTREMES, min_size=3,
                      max_size=3),
       centers=st.lists(st.floats(-1e13, 1e13), min_size=3, max_size=3),
       picks=st.lists(st.integers(0, 2), min_size=3, max_size=3),
       efficiency=st.lists(st.sampled_from(_EFFS) | st.floats(0.5, 100.0)
                           | _EXTREME_EFFS, min_size=3, max_size=3),
       formulation=st.integers(1, 6))
def test_validate_never_raises(line_setup, power, centers, picks,
                               efficiency, formulation):
    routing, inst = line_setup
    # requests draw their centers from a pool of three, so repeated picks
    # put channels on one center frequency
    center = tuple(centers[k] for k in picks)
    alloc = psa.Allocation(tuple(power), center, tuple(efficiency),
                           (1.0,) * 3, max(center), math.nan)
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
                           (1.0, 1.0), PHYS.band_hz, math.nan)
    rep = validate.validate(alloc, routing, inst)
    kinds = sorted(v.kind for v in rep.violations)
    assert kinds == ["band", "lower-edge"]


def test_empty_allocation(pair_setup):
    _, inst = pair_setup
    empty = psa.Allocation((), (), (), (), 0.0, math.nan)
    topo = inst.topology
    routing = solve_routing(topo, [], "spr", span_km=PHYS.span_km)
    rep = validate.validate(empty, routing, inst)
    assert rep.exact_osnr == rep.model_osnr == rep.required_osnr == ()
    assert rep.slack == rep.model_error == rep.violations == ()
    assert type(rep.total_power_w) is type(rep.total_noise_w) is float
    assert rep.total_power_w == rep.total_noise_w == 0.0
    assert math.isnan(rep.mean_rate_per_resource)
    assert rep.spectrum_edge_hz == 0.0
    assert rep.span_usage == 0
    assert rep.admissible


def test_size_mismatch_rejected(pair_setup):
    routing, inst = pair_setup
    empty = psa.Allocation((), (), (), (), 0.0, math.nan)
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
    five = [TrafficDemand("a", "b", 100e9)] * 5
    big = solve_routing(inst.topology, five, "spr", span_km=PHYS.span_km)
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
