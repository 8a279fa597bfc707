import json
import math

import mpmath
import numpy as np
import pytest
import scipy.constants
from hypothesis import given, strategies as st

from eongp import model
from eongp.model import (
    ConnectionRequest, InstanceError, Link, ModulationTable, NetworkTopology,
    PhysicsConstants, ScenarioConfig, TrafficDemand, demands_from_matrix,
    derived_constants, load_config, load_instance, load_topology, load_traffic,
    partition_traffic, save_config, save_topology, save_traffic, select_requests,
    span_count,
)


# ---------------------------------------------------------------- spans

@pytest.mark.parametrize("length,expected", [
    (1.0, 1), (79.9, 1), (80.0, 1), (80.1, 2), (160.0, 2), (200.0, 3),
    (400.0, 5), (410.0, 6), (1000.0, 13), (1050.0, 14),
])
def test_span_count(length, expected):
    assert span_count(length, 80.0) == expected


@given(st.floats(min_value=0.1, max_value=5000.0))
def test_span_count_covers_length(length):
    n = span_count(length, 80.0)
    assert n >= 1
    assert n * 80.0 >= length - 1e-6
    assert (n - 1) * 80.0 < length + 1e-6


# ---------------------------------------------------------------- traffic

def test_partition_splits_at_capacity():
    demand = TrafficDemand("a", "b", 250e9)
    reqs = partition_traffic([demand], 100e9)
    assert [r.rate_bps for r in reqs] == [100e9, 100e9, 50e9]
    assert [r.id for r in reqs] == [0, 1, 2]
    assert all((r.source, r.dest) == ("a", "b") for r in reqs)


def test_demand_and_request_validation():
    for source, dest, rate in (("a", "a", 1e9), ("a", "b", 0.0),
                               ("a", "b", -1e9)):
        with pytest.raises(InstanceError):
            TrafficDemand(source, dest, rate)
        with pytest.raises(InstanceError):
            ConnectionRequest(0, source, dest, rate)
    for capacity in (0.0, -100e9):
        with pytest.raises(InstanceError):
            partition_traffic([TrafficDemand("a", "b", 1e9)], capacity)


def test_partition_exact_multiple_has_no_stub():
    reqs = partition_traffic([TrafficDemand("a", "b", 100e9)], 100e9)
    assert [r.rate_bps for r in reqs] == [100e9]


@given(st.lists(st.floats(min_value=1.0, max_value=2000.0), min_size=1, max_size=8))
def test_partition_conserves_volume(rates_gbps):
    demands = [TrafficDemand("a", "b", r * 1e9) for r in rates_gbps]
    reqs = partition_traffic(demands, 100e9)
    assert math.isclose(sum(r.rate_bps for r in reqs),
                        sum(d.rate_bps for d in demands), rel_tol=1e-9)
    assert all(r.rate_bps <= 100e9 + 1e-3 for r in reqs)
    assert [r.id for r in reqs] == list(range(len(reqs)))


def test_select_requests_is_reproducible():
    base = partition_traffic([TrafficDemand("a", "b", 1000e9)], 100e9)
    one = select_requests(base, 4, seed=7)
    two = select_requests(base, 4, seed=7)
    assert one == two
    assert [r.id for r in one] == [0, 1, 2, 3]
    other = select_requests(base, 4, seed=8)
    assert len(other) == 4
    assert select_requests(base, None, seed=0) == base
    assert select_requests(base, 99, seed=0) == base


# ---------------------------------------------------------------- modulation

def test_modulation_table_lookup():
    table = ModulationTable()
    assert table.efficiencies == (2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
    assert table.required_osnr(2.0) == 3.52
    assert table.required_osnr(12.0) == 127.51
    with pytest.raises(InstanceError):
        table.required_osnr(5.0)


def test_modulation_table_must_increase():
    with pytest.raises(InstanceError):
        ModulationTable(((2.0, 5.0), (4.0, 4.0)))
    with pytest.raises(InstanceError):
        ModulationTable(())


# ---------------------------------------------------------------- constants

def test_si_conversions():
    phys = PhysicsConstants()
    assert math.isclose(phys.attenuation_per_m, 5.0656879e-5, rel_tol=1e-6)
    assert math.isclose(phys.dispersion_s2_m, 2.0393e-26, rel_tol=1e-12)
    assert math.isclose(phys.nonlinear_per_w_m, 1.3e-3, rel_tol=1e-12)
    assert phys.guard_hz == 20e9
    assert phys.band_hz == 2e12
    assert phys.capacity_bps == 100e9


def test_round_step_floor():
    # rounding widths are rounded to 1e-12, which a finer step cannot resolve
    assert PhysicsConstants(round_step=1e-12).round_step == 1e-12
    for step in (5e-13, 1e-300):
        with pytest.raises(InstanceError):
            PhysicsConstants(round_step=step)


def test_numbers_must_be_finite_reals():
    for bad in (math.inf, math.nan, True, "1", None):
        with pytest.raises(InstanceError):
            PhysicsConstants(span_km=bad)
        with pytest.raises(InstanceError):
            ScenarioConfig(weight_spectrum=bad)
        with pytest.raises(InstanceError):
            ModulationTable(((2.0, 3.5), (4.0, bad)))
    assert ScenarioConfig(weight_spectrum=0).weight_spectrum == 0
    # a whole number counts as the integer; table entries are stored as floats
    assert type(ScenarioConfig(formulation=2.0).formulation) is int
    assert [type(x) for x in ModulationTable(((2, 3),)).entries[0]] == \
        [float, float]


def test_planck_constant_is_scipys():
    assert model.PLANCK_H == scipy.constants.h


def test_derived_constants_against_high_precision():
    # Recompute the three coefficients with 50-digit arithmetic.
    mp = mpmath.mp
    with mpmath.workdps(50):
        alpha = mpmath.mpf("0.22") * mpmath.log(10) / 10 / 1000
        beta2 = mpmath.mpf("20393e-30")
        gamma = mpmath.mpf("1.3e-3")
        kerr = 3 * gamma ** 2 / (2 * alpha * mpmath.pi * beta2)
        shape = mpmath.pi ** 2 * beta2 / (2 * alpha)
        planck = mpmath.mpf("6.62607015e-34")
        ase = (mpmath.exp(alpha * 80000) - 1) * planck * mpmath.mpf("193.55e12") \
            * mpmath.mpf("1.58")
        got = derived_constants(PhysicsConstants())
        assert abs(got.kerr / float(kerr) - 1) < 1e-12
        assert abs(got.sci_shape / float(shape) - 1) < 1e-12
        assert abs(got.ase / float(ase) - 1) < 1e-12
    # magnitude anchors
    assert math.isclose(got.kerr, 7.811e23, rel_tol=1e-3)
    assert math.isclose(got.sci_shape, 1.9866e-21, rel_tol=1e-3)
    assert math.isclose(got.ase, 1.15e-17, rel_tol=5e-3)


def test_scenario_validation():
    with pytest.raises(InstanceError):
        ScenarioConfig(min_margin=0.5)
    with pytest.raises(InstanceError):
        ScenarioConfig(rto_method="fastest")
    with pytest.raises(InstanceError):
        ScenarioConfig(formulation=7)
    with pytest.raises(InstanceError):
        ScenarioConfig(weight_power=-1.0)
    for count in (-1, 0, 2.7, "x", "10", True, math.inf, math.nan):
        with pytest.raises(InstanceError):
            ScenarioConfig(num_requests=count)
    # an integral JSON number counts as the integer
    assert ScenarioConfig(num_requests=10.0).num_requests == 10
    assert type(ScenarioConfig(num_requests=10.0).num_requests) is int
    for seed in ("x", 2.5, True, -1, None):
        with pytest.raises(InstanceError):
            ScenarioConfig(seed=seed)
    for count in (-5, 0, 2.5, "x", True):
        with pytest.raises(InstanceError):
            ScenarioConfig(max_iterations=count)
    for name in ("gap_tol", "feas_tol"):
        for tol in (-1, 0, "x", True, math.inf, math.nan):
            with pytest.raises(InstanceError):
                ScenarioConfig(**{name: tol})
    assert ScenarioConfig(seed=0, max_iterations=1, gap_tol=1e-3).seed == 0


# ---------------------------------------------------------------- topology I/O

def test_bundled_topology(data_dir):
    topo = load_topology(str(data_dir / "cost239_topology.txt"))
    assert len(topo.nodes) == 11
    assert len(topo.links) == 52
    by_pair = {(l.begin, l.end): l.length_km for l in topo.links}
    for (b, e), length in by_pair.items():
        assert by_pair[(e, b)] == length  # every link has its reverse
    # node degrees of the pan-European mesh
    out_deg = {n: 0 for n in topo.nodes}
    for l in topo.links:
        out_deg[l.begin] += 1
    assert sum(out_deg.values()) == 52
    assert min(out_deg.values()) >= 4


def test_topology_round_trip(tmp_path, data_dir):
    topo = load_topology(str(data_dir / "cost239_topology.txt"))
    out = tmp_path / "topo.txt"
    save_topology(topo, out)
    again = load_topology(out)
    assert set((l.begin, l.end, l.length_km) for l in again.links) == \
        set((l.begin, l.end, l.length_km) for l in topo.links)
    assert again.nodes == topo.nodes


def test_topology_round_trip_keeps_oneway_links(tmp_path):
    # an asymmetric pair and a lone one-way link are written as one-way
    topo = NetworkTopology(("a", "b", "c"), (
        Link(0, "a", "b", 10.0), Link(1, "b", "a", 12.0),
        Link(2, "b", "c", 5.0)))
    out = tmp_path / "topo.txt"
    save_topology(topo, out)
    assert out.read_text().count(" oneway\n") == 3
    assert load_topology(out) == topo


def test_topology_oneway_and_errors(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("node a\nnode b\nlink a b 10 oneway\n")
    topo = load_topology(p)
    assert len(topo.links) == 1
    p.write_text("node a\nlink a c 10\n")
    with pytest.raises(InstanceError):
        load_topology(p)
    p.write_text("node a\nnode b\nlink a b ten\n")
    with pytest.raises(InstanceError):
        load_topology(p)
    p.write_text("node a\nnode b\nlane a b 10\n")
    with pytest.raises(InstanceError):
        load_topology(p)
    with pytest.raises(InstanceError):
        NetworkTopology(("a", "a"), ())
    with pytest.raises(InstanceError):
        NetworkTopology(("a",), (Link(0, "a", "a", 5.0),))
    with pytest.raises(InstanceError):
        NetworkTopology(("a", "b"), (Link(0, "a", "b", -5.0),))


# ---------------------------------------------------------------- traffic I/O

def test_bundled_traffic(data_dir):
    mat = load_traffic(str(data_dir / "cost239_traffic.txt"))
    assert mat.shape == (11, 11)
    assert mat.sum() == 1000.0
    assert not np.diagonal(mat).any()
    assert mat[3, 8] == 81.0  # heaviest single entry of the matrix


def test_demands_from_matrix(data_dir):
    topo = load_topology(str(data_dir / "cost239_topology.txt"))
    mat = load_traffic(str(data_dir / "cost239_traffic.txt"))
    demands = demands_from_matrix(mat, topo, scale_gbps=10.0)
    assert len(demands) == 110
    assert math.isclose(sum(d.rate_bps for d in demands), 1e13)
    with pytest.raises(InstanceError):
        demands_from_matrix(np.zeros((3, 3)), topo, 10.0)
    bad = np.zeros((11, 11))
    bad[2, 2] = 5.0
    with pytest.raises(InstanceError):
        demands_from_matrix(bad, topo, 10.0)


def test_traffic_round_trip(tmp_path):
    mat = np.array([[0.0, 2.5], [1.0, 0.0]])
    p = tmp_path / "m.txt"
    save_traffic(mat, p)
    assert np.array_equal(load_traffic(p), mat)
    p.write_text("0 1 2\n3 0 4\n")
    with pytest.raises(InstanceError):
        load_traffic(p)
    p.write_text("0 x\ny 0\n")
    with pytest.raises(InstanceError):
        load_traffic(p)
    p.write_text("0 -1\n1 0\n")
    with pytest.raises(InstanceError):
        load_traffic(p)


# ---------------------------------------------------------------- config I/O

def test_config_round_trip(tmp_path):
    phys = PhysicsConstants(span_km=100.0)
    scen = ScenarioConfig(min_margin=2.0, rto_method="scprr", seed=11)
    p = tmp_path / "c.json"
    save_config(phys, scen, p)
    phys2, scen2, table = load_config(p)
    assert phys2 == phys
    assert scen2 == scen
    assert table == ModulationTable()


def test_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"physics": {"fiber_color": "blue"}}))
    with pytest.raises(InstanceError):
        load_config(p)
    p.write_text(json.dumps({"typo_section": {}}))
    with pytest.raises(InstanceError):
        load_config(p)
    p.write_text("{not json")
    with pytest.raises(InstanceError):
        load_config(p)
    # a section, or the top level, that is not an object
    for payload in ({"physics": [1]}, {"scenario": 5}, [1]):
        p.write_text(json.dumps(payload))
        with pytest.raises(InstanceError):
            load_config(p)


def test_bundled_defaults_config(data_dir):
    phys, scen, table = load_config(str(data_dir / "defaults.json"))
    assert phys == PhysicsConstants()
    assert scen == ScenarioConfig()
    assert table == ModulationTable()


def test_load_instance(data_dir):
    inst = load_instance(str(data_dir / "cost239_topology.txt"),
                         str(data_dir / "cost239_traffic.txt"))
    assert len(inst.demands) == 110
    assert len(inst.topology.links) == 52
    assert inst.derived.kerr > 0


def test_modulations_in_config(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"modulations": [[2, 3.5], [4, 7.0]]}))
    _, _, table = load_config(p)
    assert table.entries == ((2.0, 3.5), (4.0, 7.0))
