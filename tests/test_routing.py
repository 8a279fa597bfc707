import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eongp import routing
from eongp.model import (
    InstanceError, Link, NetworkTopology, TrafficDemand, load_topology,
    span_count,
)
from eongp.routing import candidate_paths, solve_routing, span_metrics
from oracles import enumerate_shortest, simple_paths


def topo_from_text(tmp_path, text):
    p = tmp_path / "topo.txt"
    p.write_text(text)
    return load_topology(p)


DIAMOND = """\
node a
node b
node c
node d
link a b 1
link b d 1
link a c 1
link c d 1
link a d 3
"""

# three parallel routes s->t of lengths 10, 12 and 14
TRIDENT = """\
node s
node m
node t
node u
link s t 10
link s m 6
link m t 6
link s u 7
link u t 7
"""


def req(s, t, gbps=100.0):
    return TrafficDemand(s, t, gbps * 1e9)


# ---------------------------------------------------------------- SPR

def test_spr_tie_break_prefers_earlier_nodes(tmp_path):
    topo = topo_from_text(tmp_path, DIAMOND)
    # two length-2 routes a->d; the one through b (listed first) wins
    assert candidate_paths(topo, "a", "d", 1) == [(0, 2)]
    assert candidate_paths(topo, "d", "a", 1) == [(3, 1)]


def test_spr_backs_out_of_a_cycle_of_near_zero_links(tmp_path):
    # a 1e-12 km link is tight both ways at 100 km: the search neither loops
    # nor stops at the dead end a
    topo = topo_from_text(
        tmp_path, "node a\nnode b\nnode c\nlink a b 1e-12\nlink b c 100\n")
    assert candidate_paths(topo, "b", "c", 1) == [(2,)]
    assert candidate_paths(topo, "a", "c", 1) == [(0, 2)]


def test_spr_matches_enumeration_on_mesh(data_dir):
    topo = load_topology(str(data_dir / "cost239_topology.txt"))
    length = [l.length_km for l in topo.links]
    for s, t in [("1", "8"), ("3", "10"), ("5", "11"), ("2", "9"), ("7", "4")]:
        [path] = candidate_paths(topo, s, t, 1)
        assert math.isclose(sum(length[l] for l in path),
                            enumerate_shortest(topo, s, t))


def test_spr_solution_fields(tmp_path):
    topo = topo_from_text(tmp_path, DIAMOND)
    sol = solve_routing(topo, [req("a", "d"), req("a", "d"),
                               req("b", "d")], "spr", span_km=80.0)
    assert sol.paths == ((0, 2), (0, 2), (2,))
    assert sol.costs == (2.0, 2.0, 1.0)
    assert sol.order == (0, 1, 2)  # equal costs fall back to position
    assert sol.objective == 5.0
    assert sol.span_counts == (2, 2, 1)
    assert sol.partners == (((1, 2), (2, 1)), ((0, 2), (2, 1)),
                            ((0, 1), (1, 1)))
    assert dict(sol.link_order)[2] == (0, 1, 2)
    assert sol.rank[2] == 2
    assert sol.pairs == ((0, 1), (0, 2), (1, 2))  # each unordered pair once


def test_unreachable_raises(tmp_path):
    topo = topo_from_text(tmp_path, "node a\nnode b\nnode c\nlink a b 1\n")
    with pytest.raises(InstanceError):
        solve_routing(topo, [req("a", "c")], "spr", span_km=80.0)
    with pytest.raises(InstanceError):
        solve_routing(topo, [req("a", "c")], "scpr", span_km=80.0)
    with pytest.raises(InstanceError):
        solve_routing(topo, [req("a", "z")], "spr", span_km=80.0)
    with pytest.raises(InstanceError):
        solve_routing(topo, [req("a", "b")], "fastest", span_km=80.0)


# ---------------------------------------------------------------- congestion

def test_candidates_sorted_shortest_first(tmp_path):
    topo = topo_from_text(tmp_path, TRIDENT)
    cands = candidate_paths(topo, "s", "t", 8)
    length = [l.length_km for l in topo.links]
    totals = [sum(length[l] for l in p) for p in cands]
    assert totals == [10.0, 12.0, 14.0]


def test_candidates_tie_break_prefers_earlier_nodes(tmp_path):
    topo = topo_from_text(tmp_path, DIAMOND)
    # via b and via c both have length 2; b is listed first; a->d is 3
    assert candidate_paths(topo, "a", "d", 8) == [(0, 2), (4, 6), (8,)]


@settings(deadline=None, derandomize=True, max_examples=80)
@given(n=st.integers(2, 6),
       arcs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                               st.integers(1, 3)), min_size=4, max_size=16),
       limit=st.integers(1, 8))
def test_candidates_match_sorted_simple_paths(n, arcs, limit):
    # small integer lengths make ties, and repeated arcs make parallel
    # links: the search must list the first `limit` simple paths sorted
    # by (length, node ranks), as exhaustive enumeration does
    nodes = tuple("abcdef"[:n])
    topo = NetworkTopology(nodes, tuple(
        Link(nodes[u % n], nodes[v % n], float(km))
        for u, v, km in arcs if u % n != v % n))
    for s in nodes:
        for t in nodes:
            if s == t:
                continue
            want = [ids for _, _, ids in simple_paths(topo, s, t)[:limit]]
            if not want:
                with pytest.raises(InstanceError, match="no path"):
                    candidate_paths(topo, s, t, limit)
            else:
                assert candidate_paths(topo, s, t, limit) == want, (s, t)


def test_scpr_spreads_congestion(tmp_path):
    topo = topo_from_text(tmp_path, TRIDENT)
    reqs = [req("s", "t")] * 3
    sol = solve_routing(topo, reqs, "scpr", span_km=80.0)
    # optimum puts each request on its own route: 10 + 12 + 14
    assert sol.objective == pytest.approx(36.0)
    assert len({p for p in sol.paths}) == 3
    assert sol.costs == (10.0, 12.0, 14.0)
    assert sol.order == (2, 1, 0)  # costliest first
    spr = solve_routing(topo, reqs, "spr", span_km=80.0)
    assert spr.objective == pytest.approx(30.0)  # all stacked on the short route


def link_loads(reqs, paths):
    """Requests and Gb/s on each link, counted from scratch."""
    count, rate = Counter(), Counter()
    for r, path in zip(reqs, paths):
        for l in path:
            count[l] += 1
            rate[l] += r.rate_bps / 1e9
    return count, rate


def congestion_value(topo, reqs, paths, rate_weighted):
    """sum_l length_l * n_l^2 (scpr) or length_l * n_l * r_l (scprr)."""
    length = [l.length_km for l in topo.links]
    count, rate = link_loads(reqs, paths)
    load = rate if rate_weighted else count
    return sum(length[l] * count[l] * load[l] for l in count)


def brute_force_congestion(topo, reqs, candidates, rate_weighted):
    """Oracle: the least congestion value over all candidate combinations."""
    return min(congestion_value(topo, reqs, combo, rate_weighted)
               for combo in itertools.product(*candidates))


def test_scprr_matches_brute_force(tmp_path):
    topo = topo_from_text(tmp_path, TRIDENT)
    reqs = [req("s", "t", 10.0), req("s", "t", 1.0), req("s", "t", 1.0)]
    cands = [candidate_paths(topo, "s", "t", 8)] * 3
    want = brute_force_congestion(topo, reqs, cands, rate_weighted=True)
    sol = solve_routing(topo, reqs, "scprr", span_km=80.0)
    assert sol.objective == pytest.approx(want) == pytest.approx(126.0)
    # the heavy request rides the short route
    heavy_len = sum(topo.links[l].length_km for l in sol.paths[0])
    assert heavy_len == 10.0


def test_congestion_cost_sums_to_objective(tmp_path):
    topo = topo_from_text(tmp_path, TRIDENT)
    reqs = [req("s", "t", 5.0 + i) for i in range(3)]
    for method in ("scpr", "scprr"):
        sol = solve_routing(topo, reqs, method, span_km=80.0)
        assert sum(sol.costs) == pytest.approx(sol.objective)


def test_local_search_reaches_small_optimum(tmp_path, monkeypatch):
    topo = topo_from_text(tmp_path, TRIDENT)
    reqs = [req("s", "t")] * 3
    # exhaustive disabled: force the seeded local search
    monkeypatch.setattr(routing, "_EXHAUSTIVE_LIMIT", 0)
    sol = solve_routing(topo, reqs, "scpr", seed=3, span_km=80.0)
    assert sol.objective == pytest.approx(36.0)
    again = solve_routing(topo, reqs, "scpr", seed=3, span_km=80.0)
    assert again.paths == sol.paths


def test_random_instances_local_equals_exhaustive(data_dir, monkeypatch):
    monkeypatch.setattr(routing, "_MAX_CANDIDATES", 4)
    topo = load_topology(str(data_dir / "cost239_topology.txt"))
    rng = np.random.default_rng(42)
    nodes = topo.nodes
    for trial in range(5):
        pairs = set()
        while len(pairs) < 4:
            s, t = rng.choice(len(nodes), size=2, replace=False)
            pairs.add((nodes[s], nodes[t]))
        reqs = [TrafficDemand(s, t, float(rng.integers(1, 10)) * 1e10)
                for s, t in sorted(pairs)]
        exact = solve_routing(topo, reqs, "scpr", span_km=80.0)
        with monkeypatch.context() as patch:
            patch.setattr(routing, "_EXHAUSTIVE_LIMIT", 0)
            local = solve_routing(topo, reqs, "scpr", span_km=80.0,
                                  seed=trial)
        assert local.objective >= exact.objective - 1e-9
        assert local.objective == pytest.approx(exact.objective, rel=0.02)



def test_exhaustive_search_skips_requests_without_a_choice(tmp_path):
    # 1,100 requests on the one a->b link each have one candidate: the
    # exhaustive search must not nest a call per request
    topo = topo_from_text(tmp_path, "node a\nnode b\nlink a b 100\n")
    sol = solve_routing(topo, [req("a", "b")] * 1100, "scpr", span_km=80.0)
    assert sol.objective == 100 * 1100 ** 2

@pytest.fixture(scope="module")
def mesh_candidates(data_dir):
    topo = load_topology(str(data_dir / "cost239_topology.txt"))
    ends = [("1", "8"), ("3", "10"), ("5", "11"), ("2", "9"), ("7", "4")]
    reqs = [TrafficDemand(s, t, (q + 1) * 37.5e9)
            for q, (s, t) in enumerate(ends)]
    return topo, reqs, [candidate_paths(topo, s, t, 8) for s, t in ends]


@settings(deadline=None, derandomize=True, max_examples=60)
@given(method=st.sampled_from(["scpr", "scprr"]),
       steps=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 7)),
                      max_size=40))
def test_congestion_state_matches_from_scratch(mesh_candidates, method,
                                               steps):
    # each step removes request q if it is routed, else adds it on its j-th
    # candidate; the running objective and the ordering cost of the touched
    # path must equal their from-scratch values after every step
    topo, reqs, candidates = mesh_candidates
    length = [l.length_km for l in topo.links]
    weights = [r.rate_bps / 1e9 if method == "scprr" else 1 for r in reqs]
    state = routing._Congestion(topo, weights)
    routed: dict[int, tuple[int, ...]] = {}
    for q, j in steps:
        path = routed.pop(q, None)
        if path is None:
            path = routed[q] = candidates[q][j % len(candidates[q])]
            state.add(q, path)
        else:
            state.remove(q, path)
        on = sorted(routed)
        on_reqs, on_paths = [reqs[k] for k in on], [routed[k] for k in on]
        assert state.value == pytest.approx(
            congestion_value(topo, on_reqs, on_paths, method == "scprr"),
            rel=1e-9, abs=1e-6)
        count, rate = link_loads(on_reqs, on_paths)
        load = rate if method == "scprr" else count
        assert state.cost_of(path) == pytest.approx(
            sum(length[l] * load[l] for l in path), rel=1e-9, abs=1e-6)


# ---------------------------------------------------------------- geometry

def test_span_metrics_on_mesh(data_dir):
    topo = load_topology(str(data_dir / "cost239_topology.txt"))
    reqs = [req("1", "8"), req("1", "2")]
    sol = solve_routing(topo, reqs, "spr", span_km=80.0)
    # 1->8 rides the 1000 km direct link: 13 spans of 80 km
    assert sol.span_counts[0] == 13
    # 1->2 rides the 410 km link: 6 spans
    assert sol.span_counts[1] == 6
    assert sol.partners == ((), ())
    assert sol.pairs == ()


def test_shared_spans_bounded_by_own(tmp_path):
    topo = topo_from_text(tmp_path, DIAMOND)
    paths = [(0, 2), (2,), (0,)]
    counts, partners = span_metrics(paths, topo, span_km=0.6)
    assert counts == (4, 2, 2)  # 1 km links at 0.6 km spans: 2 each
    # (2,) and (0,) share nothing
    assert partners == (((1, 2), (2, 2)), ((0, 2),), ((0, 2),))
    for q, row in enumerate(partners):
        for i, n_shared in row:
            assert n_shared <= min(counts[q], counts[i])


@pytest.fixture(scope="module")
def cost239(data_dir):
    return load_topology(str(data_dir / "cost239_topology.txt"))


@settings(deadline=None, derandomize=True, max_examples=40)
@given(method=st.sampled_from(["spr", "scpr"]),
       ends=st.lists(st.tuples(st.integers(0, 10), st.integers(1, 10)),
                     min_size=1, max_size=10),
       span_km=st.sampled_from([7.5, 80.0, 400.0]))
def test_partners_match_brute_force(cost239, method, ends, span_km):
    # request q runs from node s to the node k places further round, so
    # its ends differ; partners[q] must list every other request whose
    # path shares a link with q's, in ascending order, with the spans of
    # the shared links summed, and `pairs` must be its q < i half
    nodes = cost239.nodes
    reqs = [req(nodes[s], nodes[(s + k) % len(nodes)]) for s, k in ends]
    sol = solve_routing(cost239, reqs, method, span_km=span_km)
    spans = [span_count(l.length_km, span_km) for l in cost239.links]
    n = len(reqs)
    assert sol.span_counts == tuple(sum(spans[l] for l in path)
                                    for path in sol.paths)
    for q in range(n):
        want = []
        for i in range(n):
            common = set(sol.paths[q]) & set(sol.paths[i])
            if i != q and common:
                want.append((i, sum(spans[l] for l in common)))
        assert sol.partners[q] == tuple(want)
        assert all(type(n_shared) is int for _, n_shared in sol.partners[q])
        assert [i for i, _ in sol.partners[q]] == \
            sorted({i for i, _ in sol.partners[q]})
    for q, row in enumerate(sol.partners):
        for i, n_shared in row:
            assert (q, n_shared) in sol.partners[i]
    assert sol.pairs == tuple(sorted(
        (q, i) for q, row in enumerate(sol.partners) for i, _ in row if q < i))


def test_link_order_is_projection_of_global_order(tmp_path):
    topo = topo_from_text(tmp_path, DIAMOND)
    reqs = [req("a", "d", 10), req("a", "d", 99), req("b", "d", 50)]
    sol = solve_routing(topo, reqs, "scprr", span_km=80.0)
    pos = {q: k for k, q in enumerate(sol.order)}
    assert sol.rank == tuple(pos[q] for q in range(3))
    for link, seq in sol.link_order:
        assert list(seq) == sorted(seq, key=pos.__getitem__)
        for q in seq:
            assert link in sol.paths[q]
