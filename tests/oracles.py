"""Exhaustive oracles that the tests compare the package's fast paths
against."""

import itertools
import math

import networkx as nx


def enumerate_shortest(graph: nx.DiGraph, source: str, dest: str) -> float:
    """Minimum path length by exhaustive simple-path enumeration."""
    best = math.inf
    for node_path in nx.all_simple_paths(graph, source, dest):
        total = sum(graph.edges[u, v]["length"]
                    for u, v in itertools.pairwise(node_path))
        best = min(best, total)
    assert math.isfinite(best), f"no path from {source} to {dest}"
    return best
