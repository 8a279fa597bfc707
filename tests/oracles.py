"""Exhaustive oracles that the tests compare the package's fast paths
against."""

import itertools

import networkx as nx


def simple_paths(topology, source: str, dest: str):
    """Every simple path source->dest as (length, node ranks, link ids),
    sorted; of parallel links the shortest, then the first listed, is used."""
    graph = nx.DiGraph()
    graph.add_nodes_from(topology.nodes)
    for l, link in enumerate(topology.links):
        old = graph.get_edge_data(link.begin, link.end)
        if old is None or link.length_km < old["length"]:
            graph.add_edge(link.begin, link.end, length=link.length_km,
                           link_id=l)
    rank = {n: i for i, n in enumerate(topology.nodes)}
    found = []
    for node_path in nx.all_simple_paths(graph, source, dest):
        edges = [graph.edges[u, v] for u, v in itertools.pairwise(node_path)]
        found.append((sum(e["length"] for e in edges),
                      tuple(rank[n] for n in node_path),
                      tuple(e["link_id"] for e in edges)))
    return sorted(found)


def enumerate_shortest(topology, source: str, dest: str) -> float:
    """Minimum path length by exhaustive simple-path enumeration."""
    paths = simple_paths(topology, source, dest)
    assert paths, f"no path from {source} to {dest}"
    return paths[0][0]
