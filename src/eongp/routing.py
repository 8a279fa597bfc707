"""Routing and traffic ordering: the first stage of the allocation pipeline.

Three routing methods are provided.  "spr" routes every request on its
shortest path independently.  The two congestion methods minimize
sum_l length_l * n_l * load_l, with n_l the number of requests crossing link
l and load_l the sum of their weights.  "scpr" weighs every request 1, so
load_l = n_l and stacking requests on a link costs quadratically; "scprr"
weighs a request by its bit rate in Gb/s, so congestion counts traffic
volume.  All three draw paths from one search, `candidate_paths`, which
lists simple paths shortest first and breaks a tie in length toward the
path earlier in topology node order: "spr" takes the first, the congestion
methods choose among the first 8.

Besides paths, the stage emits the processing order used downstream: requests
sorted by descending routing cost.  Projecting that global order onto each
link fixes the relative spectral position of the channels sharing the link,
which is what turns spectrum nonoverlap into tractable pairwise constraints.
The stage also lists, once, each request's span-sharing partners and the
spans they share, the only coupling of two requests in the noise model.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    RTO_METHODS, InstanceError, NetworkTopology, TrafficDemand, span_count,
)


@dataclass(frozen=True)
class RoutingSolution:
    """Paths plus the derived ordering and span geometry; requests and
    links are named by their positions in `requests` and topology.links.
    partners[q] lists (i, spans shared by q and i), Python ints, for every
    request i whose path shares a span with q's, in ascending i."""
    method: str
    requests: tuple[TrafficDemand, ...]
    paths: tuple[tuple[int, ...], ...]        # link ids along each path
    costs: tuple[float, ...]                  # per-request ordering cost
    order: tuple[int, ...]                    # costliest first, ties by index
    rank: tuple[int, ...]                     # each request's position in order
    objective: float
    span_counts: tuple[int, ...]
    partners: tuple[tuple[tuple[int, int], ...], ...]
    pairs: tuple[tuple[int, int], ...]        # q < i half, row-major
    link_order: tuple[tuple[int, tuple[int, ...]], ...]


def candidate_paths(topology: NetworkTopology, source: str, dest: str,
                    limit: int) -> list[tuple[int, ...]]:
    """Up to `limit` shortest simple paths as link ids: shortest first,
    equal lengths (as float sums) in topology node order, lexicographically.

    Best-first (A*) search over simple path prefixes, each keyed by its
    length plus the exact remaining length to `dest` from one reverse
    Dijkstra.  Of parallel links the shortest, then the first listed, is used.
    """
    rank = {n: i for i, n in enumerate(topology.nodes)}
    if source not in rank or dest not in rank:
        raise InstanceError(f"unknown endpoint on demand {source}->{dest}")
    s, t = rank[source], rank[dest]
    out = [{} for _ in rank]  # out[u][v] = (length, link id)
    for l, link in enumerate(topology.links):
        u, v = rank[link.begin], rank[link.end]
        if v not in out[u] or link.length_km < out[u][v][0]:
            out[u][v] = (link.length_km, l)
    into = [[] for _ in rank]
    for u, edges in enumerate(out):
        for v, (length, _) in edges.items():
            into[v].append((u, length))
    remaining, heap = {t: 0.0}, [(0.0, t)]
    while heap:
        dist, v = heapq.heappop(heap)
        if dist == remaining[v]:
            for u, length in into[v]:
                if dist + length < remaining.get(u, math.inf):
                    remaining[u] = dist + length
                    heapq.heappush(heap, (dist + length, u))
    if s not in remaining:
        raise InstanceError(f"no path from {source} to {dest}")
    found, heap = [], [(remaining[s], (s,), 0.0, ())]
    while heap and len(found) < limit:
        _, nodes, done, path = heapq.heappop(heap)
        if nodes[-1] == t:
            found.append(path)
            continue
        for v, (length, l) in out[nodes[-1]].items():
            if v in remaining and v not in nodes:
                heapq.heappush(heap, (done + length + remaining[v],
                                      nodes + (v,), done + length,
                                      path + (l,)))
    return found


def span_metrics(paths, topology: NetworkTopology, span_km: float):
    """Per-request span counts and partner lists: partners[q] holds
    (i, spans the paths of q and i share) for every request i that shares
    a span with q, in ascending i."""
    try:  # a count beyond float range or beyond int64
        spans_of = [span_count(l.length_km, span_km) for l in topology.links]
        span_counts = tuple(sum(spans_of[l] for l in path) for path in paths)
        # a shared count is at most either member's own count
        if max(span_counts, default=0) > np.iinfo(np.int64).max:
            raise OverflowError
    except OverflowError:
        raise InstanceError(f"links too long for int64 counts of {span_km:g} "
                            "km spans") from None
    partners = [[] for _ in paths]
    for q, path_q in enumerate(paths):
        links_q = set(path_q)
        for i in range(q + 1, len(paths)):
            common = links_q.intersection(paths[i])
            if common:
                n_shared = sum(spans_of[l] for l in common)
                partners[q].append((i, n_shared))
                partners[i].append((q, n_shared))
    return span_counts, tuple(map(tuple, partners))


class _Congestion:
    """Incremental evaluator of the congestion objective
    sum_l length_l * n_l * load_l, where each request on link l adds 1 to
    n_l and its weight to load_l."""

    def __init__(self, topology: NetworkTopology, weights):
        self.length = [l.length_km for l in topology.links]
        self.weights = weights
        self.count = [0] * len(topology.links)
        self.load = [0] * len(topology.links)
        self.value = 0.0

    def add(self, q: int, path) -> None:
        w = self.weights[q]
        for l in path:
            n, x = self.count[l], self.load[l]
            self.value += self.length[l] * (n * w + x + w)
            self.count[l], self.load[l] = n + 1, x + w

    def remove(self, q: int, path) -> None:
        w = self.weights[q]
        for l in path:
            n, x = self.count[l], self.load[l]
            self.value -= self.length[l] * ((n - 1) * w + x)
            self.count[l], self.load[l] = n - 1, x - w

    def cost_of(self, path) -> float:
        """Ordering cost of a request currently routed on `path`."""
        return sum(self.length[l] * self.load[l] for l in path)


# congestion search: candidate paths per request, the largest number of
# path combinations searched exhaustively, and local-search starts beyond it
_MAX_CANDIDATES = 8
_EXHAUSTIVE_LIMIT = 200_000
_RESTARTS = 16


def _search_congestion(topology, weights, candidates, seed):
    """Pick one candidate path per request minimizing the congestion objective.

    Exhaustive when the product of candidate counts is small enough, otherwise
    best-response local search from several seeded starts.
    """
    n = len(candidates)
    if math.prod(len(c) for c in candidates) <= _EXHAUSTIVE_LIMIT:
        # requests without a choice go in first, so the recursion nests
        # only over the (at most 17) requests that have one
        state = _Congestion(topology, weights)
        free = [q for q, c in enumerate(candidates) if len(c) > 1]
        for q, c in enumerate(candidates):
            if len(c) == 1:
                state.add(q, c[0])
        best_val, best_choice = math.inf, None
        choice = [0] * n

        def descend(k):
            nonlocal best_val, best_choice
            if k == len(free):
                if state.value < best_val - 1e-12:
                    best_val, best_choice = state.value, tuple(choice)
                return
            q = free[k]
            for j, path in enumerate(candidates[q]):
                choice[q] = j
                state.add(q, path)
                descend(k + 1)
                state.remove(q, path)

        descend(0)
        return best_choice, best_val

    rng = np.random.default_rng(seed)
    best_val, best_choice = math.inf, None
    for restart in range(_RESTARTS):
        if restart == 0:
            choice = [0] * n  # shortest-path start
        else:
            choice = [int(rng.integers(len(c))) for c in candidates]
        state = _Congestion(topology, weights)
        for q in range(n):
            state.add(q, candidates[q][choice[q]])
        scan = list(range(n))
        improved = True
        while improved:
            improved = False
            rng.shuffle(scan)
            for q in scan:
                current = choice[q]
                state.remove(q, candidates[q][current])
                best_j, best_delta = current, math.inf
                for j, path in enumerate(candidates[q]):
                    state.add(q, path)
                    if state.value < best_delta - 1e-12:
                        best_delta, best_j = state.value, j
                    state.remove(q, path)
                state.add(q, candidates[q][best_j])
                if best_j != current:
                    choice[q] = best_j
                    improved = True
        if state.value < best_val - 1e-12:
            best_val, best_choice = state.value, tuple(choice)
    return best_choice, best_val


def solve_routing(topology: NetworkTopology, requests, method: str = "spr",
                  *, span_km: float, seed: int = 0) -> RoutingSolution:
    """Route all requests and derive the processing order."""
    if method not in RTO_METHODS:
        raise InstanceError(f"unknown routing method {method!r}")
    requests = tuple(requests)
    limit = 1 if method == "spr" else _MAX_CANDIDATES
    cache: dict[tuple[str, str], list] = {}
    candidates = []
    for r in requests:
        key = (r.source, r.dest)
        if key not in cache:
            cache[key] = candidate_paths(topology, r.source, r.dest, limit)
        candidates.append(cache[key])

    if method == "spr":
        length = [l.length_km for l in topology.links]
        paths = tuple(c[0] for c in candidates)
        costs = tuple(sum(length[l] for l in p) for p in paths)
        objective = float(sum(costs))
    else:
        # Gb/s keeps the rate-weighted sums tame
        weights = [r.rate_bps / 1e9 if method == "scprr" else 1
                   for r in requests]
        choice, objective = _search_congestion(topology, weights, candidates,
                                               seed)
        paths = tuple(candidates[q][choice[q]] for q in range(len(requests)))
        state = _Congestion(topology, weights)
        for q, p in enumerate(paths):
            state.add(q, p)
        costs = tuple(state.cost_of(p) for p in paths)

    order = tuple(sorted(range(len(requests)), key=lambda q: -costs[q]))
    rank = tuple(sorted(range(len(requests)), key=order.__getitem__))
    span_counts, partners = span_metrics(paths, topology, span_km)
    pairs = tuple((q, i) for q, row in enumerate(partners) for i, _ in row
                  if q < i)
    per_link: dict[int, list[int]] = {}
    for q, path in enumerate(paths):
        for l in path:
            per_link.setdefault(l, []).append(q)
    link_order = tuple((l, tuple(sorted(qs, key=rank.__getitem__)))
                       for l, qs in sorted(per_link.items()))
    return RoutingSolution(method=method, requests=requests, paths=paths,
                           costs=costs, order=order, rank=rank,
                           objective=float(objective), span_counts=span_counts,
                           partners=partners, pairs=pairs,
                           link_order=link_order)
