"""Compare the three routing objectives on the bundled 11-node mesh.

spr minimizes each path's length independently, scpr spreads load by
penalizing squared link congestion, scprr weighs congestion by the data
rates riding each link.
"""

from collections import Counter
from importlib import resources

from eongp.model import (PhysicsConstants, demands_from_matrix, load_topology,
                         load_traffic, partition_traffic)
from eongp.routing import solve_routing

DATA = resources.files("eongp") / "data"


def busiest(routing):
    counts = Counter()
    for path in routing.paths:
        counts.update(path)
    return counts.most_common(1)[0]


def main():
    topo = load_topology(str(DATA / "cost239_topology.txt"))
    matrix = load_traffic(str(DATA / "cost239_traffic.txt"))
    demands = demands_from_matrix(matrix, topo, 10.0)
    phys = PhysicsConstants()
    requests = partition_traffic(demands, phys.capacity_bps,
                                 num_requests=12, seed=3)

    print(f"{len(requests)} requests on {len(topo.nodes)} nodes / "
          f"{len(topo.links)} links")
    link_name = [f"{l.begin}-{l.end}" for l in topo.links]
    for method in ("spr", "scpr", "scprr"):
        sol = solve_routing(topo, requests, method, span_km=phys.span_km)
        link, hits = busiest(sol)
        print(f"\n{method}: objective {sol.objective:.4g}, "
              f"total spans {sum(sol.span_counts)}, "
              f"busiest link {link_name[link]} carries {hits} paths")
        # descending-cost order decides who gets the low spectrum slots
        head = ", ".join(str(q) for q in sol.order[:5])
        print(f"  processing order (costliest first): {head}, ...")

    # the load-aware methods trade a few extra spans for a flatter profile
    spr = solve_routing(topo, requests, "spr", span_km=phys.span_km)
    scpr = solve_routing(topo, requests, "scpr", span_km=phys.span_km)
    moved = sum(a != b for a, b in zip(spr.paths, scpr.paths))
    print(f"\nscpr reroutes {moved} of {len(requests)} requests away from "
          f"the shortest paths")


if __name__ == "__main__":
    main()
